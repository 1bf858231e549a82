"""Quantum state containers, reference families, and state transforms.

Composite systems use the row-major index convention: for subsystem
dimensions (d1, d2, d3) the basis ket |i j k> maps to the flat index
i*d2*d3 + j*d3 + k, matching a C-order reshape of the coefficient
tensor. Outside input is checked where it enters: the constructors reject bad
input rather than repairing it, within the tolerances of ``numerics``; of all the ways to a state, only the DensityMatrix
constructor runs ``as_hermitian``. Every state the library builds takes ``DensityMatrix._derived``, which checks only the trace;
``PureState.density()`` and ``random_density`` hand it the Hermitian mean of their own matrix, unchecked.
A DensityMatrix eigendecomposes itself once, on first read, reads its root's support factor off that, and
keeps its single-party partial-transpose spectra on first use; no gap matrices.

State JSON format: ``{"dims": [...], "re": ..., "im": ...}`` where
``re``/``im`` are flat lists for a pure state and row-major nested
lists for a density matrix.
"""
from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from .errors import (
    DecompositionSizeError,
    InvalidSplitError,
    NonFiniteError,
    NotNormalizedError,
    NotPositiveSemidefiniteError,
    ParameterRangeError,
    SubsystemIndexError,
    _parse_json,
)
from .generators import Bipartition
from .numerics import _EIG_FLOOR, _RECONSTRUCTION, _ROUNDOFF, _SUPPORT_CUT, _WEIGHT_FLOOR, _as_index, _hermitian_mean, as_hermitian, require_square


def _check_dims(dims) -> tuple[int, ...]:
    try:
        dims = tuple(_as_index(d, ParameterRangeError) for d in dims)
    except TypeError:
        raise ParameterRangeError(f"subsystem dimensions {dims!r} are not a sequence") from None
    if len(dims) == 0 or any(d < 1 for d in dims):
        raise ParameterRangeError(f"invalid subsystem dimensions {dims}")
    return dims


class PureState:
    """Normalized state vector on a composite system.

    Parameters
    ----------
    amplitudes : array_like
        Flat coefficient vector of length prod(dims), finite, with
        <psi|psi> (the trace of ``density()``) within 1e-10 of 1.
    dims : sequence of int
        Subsystem dimensions.
    """

    def __init__(self, amplitudes, dims):
        self.dims = _check_dims(dims)
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if vec.size != math.prod(self.dims):
            raise ParameterRangeError(f"vector length {vec.size} does not match dims {self.dims}")
        # <psi|psi>, the trace density() checks. vdot overflows to inf silently, where np.linalg.norm warns first.
        square = float(np.vdot(vec, vec).real)
        if not math.isfinite(square):
            raise NonFiniteError(f"squared amplitude norm {square!r}: NaN, infinite or overflowing entries")
        if not abs(square - 1.0) <= _ROUNDOFF:
            raise NotNormalizedError(f"squared norm {square!r} deviates from 1 beyond {_ROUNDOFF:g}")
        self.amplitudes = vec
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi| on the same subsystems."""
        return DensityMatrix._derived(_hermitian_mean(np.outer(self.amplitudes, self.amplitudes.conj())), self.dims)


class DensityMatrix:
    """Density matrix on a composite system.

    Parameters
    ----------
    matrix : array_like
        Square matrix of size prod(dims); finite, Hermitian within
        1e-10, unit trace within 1e-10, eigenvalues above -1e-9.
        Violations raise instead of being repaired.
    dims : sequence of int
        Subsystem dimensions.
    """

    def __init__(self, matrix, dims):
        dims = _check_dims(dims)
        mat = require_square(matrix)
        if mat.shape[0] != math.prod(dims):
            raise ParameterRangeError(f"matrix size {mat.shape[0]} does not match dims {dims}")
        self._adopt(as_hermitian(mat), dims)
        w = self._eigh[0]
        if not w[0] >= -_EIG_FLOOR:
            raise NotPositiveSemidefiniteError(f"minimum eigenvalue {w[0]:.3e}")

    @classmethod
    def _derived(cls, matrix: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        """The state of ``matrix`` on ``dims``, which the library built from checked states: only its trace is checked.
        ``matrix`` is PSD by construction and is what the constructor would store: a matrix ``as_hermitian`` keeps as it is,
        or the Hermitian mean (``_hermitian_mean``, unchecked) that ``PureState.density()`` and ``random_density`` take of theirs."""
        return cls.__new__(cls)._adopt(matrix, dims)

    def _adopt(self, mat: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        tr = complex(mat.trace())
        if not abs(tr - 1.0) <= _ROUNDOFF:
            raise NotNormalizedError(f"trace {tr!r} deviates from 1 beyond {_ROUNDOFF:g}")
        self.dims, self.matrix = dims, mat
        mat.setflags(write=False)
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:  # ascending eigenvalues, eigenvectors
        return np.linalg.eigh(self.matrix)

    @cached_property
    def _xc(self) -> np.ndarray:
        """conj(X) for rho = X X^dag, X = Q D^(1/2) over the eigenpairs
        of ``_eigh`` above the support cut."""
        w, q = self._eigh
        low = np.count_nonzero(w <= _SUPPORT_CUT * w.size * w[-1])  # eigh's w ascends
        xc = q[:, low:] * np.sqrt(w[low:])
        np.conjugate(xc, out=xc).setflags(write=False)
        return xc

    @cached_property
    def _pt(self) -> np.ndarray:
        """Row s: the ascending spectrum of rho with party s transposed, for each s (s = 0 alone on two parties); read only."""
        w = _pt_spectra(self, [(s,) for s in range(1 if len(self.dims) == 2 else len(self.dims))])
        w.setflags(write=False)
        return w

    def _frame(self, ops: np.ndarray) -> np.ndarray:
        """B = X^dag S conj(X) for each S of the (..., D, D) stack ``ops``,
        formed anew on each call: a state keeps no B."""
        return self._xc.T @ ops @ self._xc

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def _check_state(rho) -> DensityMatrix:
    """The one coercion of a state argument: a PureState to its density matrix, a non-state to TypeError."""
    if isinstance(rho, PureState):
        return rho.density()
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"expected a state, got {type(rho).__name__}")
    return rho


def _check_pure(psi) -> PureState:
    """The one check of a pure-state argument: anything but a PureState to TypeError."""
    if not isinstance(psi, PureState):
        raise TypeError(f"expected a PureState, got {type(psi).__name__}")
    return psi


class Decomposition:
    """Pure-state ensemble realizing a given density matrix.

    Parameters
    ----------
    state : DensityMatrix or PureState
        The target state.
    weights : sequence of float
        Probabilities; must sum to 1 within 1e-10.
    members : sequence of PureState
        Ensemble members, one per weight. The weighted sum of their
        projectors must reproduce ``state`` within 1e-9.
    """

    def __init__(self, state: DensityMatrix, weights, members):
        state = _check_state(state)
        weights = tuple(float(p) for p in weights)
        members = tuple(_check_pure(psi) for psi in members)
        if len(weights) != len(members):
            raise ParameterRangeError("one weight per member required")
        if not all(map(math.isfinite, weights)):
            raise NonFiniteError(f"ensemble weights {weights!r} must be finite")
        if not all(p >= -_WEIGHT_FLOOR for p in weights):
            raise ParameterRangeError("negative ensemble weight")
        if not abs(sum(weights) - 1.0) <= _ROUNDOFF:
            raise NotNormalizedError(f"weights sum to {sum(weights)!r}")
        acc = np.zeros_like(state.matrix)
        for p, psi in zip(weights, members):
            acc = acc + p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        dev = float(np.abs(acc - state.matrix).max())
        if not dev <= _RECONSTRUCTION:
            raise ParameterRangeError(f"ensemble reproduces the state only to {dev:.3e}")
        self.state = state
        self.weights = weights
        self.members = members

    def __len__(self) -> int:
        return len(self.members)


def _check_subsystems(selection, n_parts: int) -> tuple[int, ...]:
    """The one check of a subsystem selection: distinct indices in 0..n_parts-1, or a Bipartition of n_parts parties,
    which selects its first side; its sides partition 0..n_parts-1, so only that side's entries need to be ints."""
    if isinstance(selection, Bipartition):
        if len(selection.side_a) + len(selection.side_b) != n_parts:
            raise InvalidSplitError(f"split {selection.label} versus a state of {n_parts} parties")
        return tuple([_as_index(i, SubsystemIndexError) for i in selection.side_a])
    try:
        idx = tuple([_as_index(i, SubsystemIndexError) for i in selection])
    except TypeError:
        raise SubsystemIndexError(f"subsystem selection {selection!r} is not iterable") from None
    if len(idx) == 0:
        raise SubsystemIndexError("empty subsystem selection")
    if len(set(idx)) != len(idx):
        raise SubsystemIndexError(f"duplicate subsystem index in {idx}")
    if min(idx) < 0 or max(idx) >= n_parts:
        raise SubsystemIndexError(f"subsystem index out of range in {idx}")
    return idx


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    keep : iterable of int or Bipartition
        Subsystem indices to retain, in their original order, or a
        split of the state's parties, whose first side is retained.

    Returns
    -------
    DensityMatrix
        Reduced state on the retained subsystems, not re-checked: it inherits its parent's round-off, which can sum below -1e-9.
    """
    rho = _check_state(rho)
    n = len(rho.dims)
    keep = sorted(_check_subsystems(keep, n))
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    cur = list(rho.dims)
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=ax, axis2=ax + len(cur))
        cur.pop(ax)
    new_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(new_dims)
    return DensityMatrix._derived(tensor.reshape(d, d), new_dims)


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Transpose the listed subsystems, or a Bipartition's first side, in
    place of the full transpose.

    Returns a plain matrix: the result is Hermitian but in general not
    positive, which is the point of the test.
    """
    rho = _check_state(rho)
    n = len(rho.dims)
    part = _check_subsystems(part, n)
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    for i in part:
        tensor = tensor.swapaxes(i, i + n)
    return np.ascontiguousarray(tensor.reshape(rho.dim, rho.dim))


def _pt_spectra(rho: DensityMatrix, splits) -> np.ndarray:
    """Row i: the ascending eigenvalues of ``partial_transpose(rho, s)`` for the i-th split s of ``splits``,
    all from one stacked ``eigvalsh``, which gives each matrix the bits of its own call."""
    return np.linalg.eigvalsh([partial_transpose(rho, s) for s in splits])


def bell_state() -> PureState:
    """(|00> + |11>)/sqrt(2) on two qubits."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return PureState(vec, (2, 2))


def ghz_state() -> PureState:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1.0 / math.sqrt(2.0)
    return PureState(vec, (2, 2, 2))


def w_state() -> PureState:
    """(|001> + |010> + |100>)/sqrt(3) on three qubits."""
    vec = np.zeros(8, dtype=complex)
    vec[1] = vec[2] = vec[4] = 1.0 / math.sqrt(3.0)
    return PureState(vec, (2, 2, 2))


def horodecki_state(a: float) -> DensityMatrix:
    """Two-qutrit state that stays PPT for every a in [0, 1].

    For 0 < a < 1 the state is entangled although no bipartite negativity
    is visible, which makes it the standard hard target for spectral
    detectors. At a = 0 it degenerates to a pure product state, at a = 1
    to a separable mixture.
    """
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise ParameterRangeError(f"parameter a = {a!r} outside [0, 1]")
    m = np.zeros((9, 9), dtype=complex)
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            m[i, j] = a
    for i in (1, 2, 3, 5, 7):
        m[i, i] = a
    m[6, 6] = m[8, 8] = (1.0 + a) / 2.0
    m[6, 8] = m[8, 6] = math.sqrt(1.0 - a * a) / 2.0
    m /= 8.0 * a + 1.0
    return DensityMatrix._derived(m, (3, 3))


def white_noise_mix(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Convex mixture p*rho + (1-p)*I/d with the maximally mixed state;
    ``rho`` is a DensityMatrix or PureState. Only its trace is checked: it is
    Hermitian bit for bit, and PSD (p*lambda_min(rho) + (1-p)/d >= -1e-9), when rho is."""
    rho = _check_state(rho)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"mixing weight p = {p!r} outside [0, 1]")
    d = rho.dim
    mixed = p * rho.matrix + (1.0 - p) * np.eye(d) / d
    return DensityMatrix._derived(mixed, rho.dims)


def maximally_mixed(dims) -> DensityMatrix:
    """I/d on the given subsystem dimensions."""
    dims = _check_dims(dims)
    d = math.prod(dims)
    return DensityMatrix._derived(np.eye(d, dtype=complex) / d, dims)


def random_pure(dims, seed) -> PureState:
    """Haar-random pure state, deterministic for a fixed seed."""
    dims = _check_dims(dims)
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(vec / np.linalg.norm(vec), dims)


def random_density(dims, rank, seed) -> DensityMatrix:
    """Random mixed state of the given rank (Ginibre construction)."""
    dims = _check_dims(dims)
    rank = _as_index(rank, ParameterRangeError)
    d = math.prod(dims)
    if not 1 <= rank <= d:
        raise ParameterRangeError(f"rank {rank} outside 1..{d}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return DensityMatrix._derived(_hermitian_mean(m / np.real(np.trace(m))), dims)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_decomposition(rho: DensityMatrix, m: int, seed) -> Decomposition:
    """Random size-m pure-state ensemble realizing ``rho``.

    Every ensemble of a rank-r state arises from the eigendecomposition
    through an isometry with orthonormal columns; here the isometry is
    the first r columns of a Haar unitary of size m. ``seed=None``
    selects the identity rotation, returning the eigen-ensemble itself.
    Members whose weight falls below 1e-14 are omitted.

    Raises
    ------
    DecompositionSizeError
        If m is smaller than the rank of ``rho``.
    """
    rho = _check_state(rho)
    m = _as_index(m, ParameterRangeError)
    basis = rho._xc.conj()  # columns sqrt(lambda_j)|chi_j> over the state's support
    rank = basis.shape[1]
    if m < rank:
        raise DecompositionSizeError(f"requested {m} members for a rank-{rank} state")
    if seed is None:
        iso = np.eye(m, rank, dtype=complex)
    else:
        iso = _haar_unitary(np.random.default_rng(seed), m)[:, :rank]
    weights = []
    members = []
    for i in range(m):
        vec = basis @ iso[i, :].conj()
        p = float(np.real(np.vdot(vec, vec)))
        if p < _WEIGHT_FLOOR:
            continue
        weights.append(p)
        members.append(PureState(vec / math.sqrt(p), rho.dims))
    return Decomposition(rho, weights, members)


def state_to_jsonable(obj) -> dict:
    """Plain-dict form of a PureState or DensityMatrix."""
    if isinstance(obj, PureState):
        vals = obj.amplitudes
    elif isinstance(obj, DensityMatrix):
        vals = obj.matrix
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {
        "dims": list(obj.dims),
        "re": vals.real.tolist(),
        "im": vals.imag.tolist(),
    }


def _numbers(data: dict, key: str) -> np.ndarray:
    """data[key] as floats, if each leaf of its nested lists is a number: a
    string or a boolean raises, also where numpy would read it as one
    ([true, 0] as [1, 0])."""
    todo = [data[key]]
    while todo:  # no recursion: json.load parses nests deeper than Python recurses
        leaf = todo.pop()
        if isinstance(leaf, (list, tuple)):
            todo.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ParameterRangeError(f'"re" and "im" must hold numbers, got a {type(leaf).__name__} in "{key}"')
    try:
        return np.asarray(data[key], dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ParameterRangeError(f'"{key}" holds an integer too large for a float') from None
    except ValueError:  # ragged lists, or nested past numpy's 64 dimensions
        raise ParameterRangeError(f'"{key}" must be a rectangular array of at most 64 dimensions') from None


def state_from_jsonable(data: dict):
    """Inverse of state_to_jsonable; the shape of "re" picks the type."""
    if not isinstance(data, dict) or not {"dims", "re", "im"} <= data.keys():
        raise ParameterRangeError('a state is an object with keys "dims", "re" and "im"')
    re, im = _numbers(data, "re"), _numbers(data, "im")
    if re.shape != im.shape:
        raise ParameterRangeError(f'"re" has shape {re.shape} but "im" has shape {im.shape}')
    kind = PureState if re.ndim == 1 else DensityMatrix
    vals = re.astype(complex)
    vals.imag = im  # not re + 1j * im, which warns on an infinite im before the typed error
    return kind(vals, data["dims"])


def save_state(obj, path) -> None:
    """Write a PureState or DensityMatrix to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_jsonable(obj), fh)


def load_state(path):
    """Read a PureState or DensityMatrix from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _parse_json(json.load, fh, path)
    return state_from_jsonable(data)
