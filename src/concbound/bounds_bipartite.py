"""Spectral lower bounds on the squared concurrence of bipartite states.

The central object is the spectrum lambda_1 >= lambda_2 >= ... of
sqrt( sqrt(rho) S rho* S^dag sqrt(rho) ) for a symmetric operator S
built from antisymmetric generator products. The gap

    delta = max(0, lambda_1 - sum_{i>1} lambda_i)

vanishes on every separable state, and suitably weighted sums of
squared gaps over generator subsets bound the squared concurrence from
below. The spectrum is evaluated as the singular values of
A = sqrt(rho) S conj(sqrt(rho)), which is the numerically stable form
of the same quantity; the eigenvalue route through rho S rho* S^dag is
kept alongside as a cross-check.

Every gap comes from one engine, ``_gaps`` (coefficient rows over an
operator stack, evaluated by stacked SVDs), and every aggregate, the
tripartite and optimized ones included, from one report builder,
``_report``: a prefactor times the sum of squared row gaps.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoefficientBoundError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
    NotNormalizedError,
    SubsetSizeError,
)
from .generators import Bipartition, GeneratorSet, bipartite_generators
from .numerics import _as_index, as_symmetric
from .states import Decomposition, DensityMatrix, PureState, partial_trace, partial_transpose

_COEFF_TOL = 1e-12

# Most gap matrices per SVD call: caps the engine's memory whatever the
# number of rows.
_BLOCK_ROWS = 512

# Aggregate family -> (w, coefficient names): the bound is
# N / (w k^2 binom(N, k)) times the sum of squared subset gaps, and each
# coefficient row splits evenly into the named vectors.
_AGGREGATES = {"obs1": (1, ("u",)), "obs2": (6, ("u", "v", "w")), "obs3": (2, ("u",))}


@dataclass(frozen=True)
class SubsetEntry:
    """One evaluated generator subset: indices, coefficients, gap."""

    subset: tuple[int, ...]
    coefficients: dict
    delta: float
    split: str | None = None

    def to_dict(self) -> dict:
        coeffs = {
            name: [[float(c.real), float(c.imag)] for c in vec]
            for name, vec in self.coefficients.items()
        }
        out = {"subset": list(self.subset), "coefficients": coeffs, "delta": self.delta}
        if self.split is not None:
            out["split"] = self.split
        return out


@dataclass(frozen=True)
class BoundReport:
    """Result of one aggregated bound evaluation.

    ``bound_on_c_squared`` equals ``prefactor`` times the sum of squared
    gaps over ``per_subset``; ``recompute`` replays that arithmetic so
    the report stays auditable.
    """

    bound_on_c_squared: float
    per_subset: tuple[SubsetEntry, ...]
    k: int
    n_generators: int
    prefactor: float
    mode: str
    wall_time: float
    config: dict | None = None

    def recompute(self) -> float:
        return self.prefactor * math.fsum(e.delta * e.delta for e in self.per_subset)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "mode": self.mode,
            "k": self.k,
            "n_generators": self.n_generators,
            "prefactor": self.prefactor,
            "bound_on_c_squared": self.bound_on_c_squared,
            "per_subset": [e.to_dict() for e in self.per_subset],
            "config": self.config,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True)


def _check_state(rho) -> DensityMatrix:
    if isinstance(rho, PureState):
        return rho.density()
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"expected a state, got {type(rho).__name__}")
    return rho


def _check_dims_match(rho: DensityMatrix, gens: GeneratorSet) -> None:
    if tuple(rho.dims) != tuple(gens.dims):
        raise DimensionMismatchError(
            f"state dims {rho.dims} versus generator dims {gens.dims}"
        )


def _check_subset(t_vec, n: int) -> tuple[int, ...]:
    t = tuple(_as_index(x, SubsetSizeError) for x in t_vec)
    if len(t) == 0 or len(t) > n:
        raise SubsetSizeError(f"subset size {len(t)} outside 1..{n}")
    if any(x < 0 or x >= n for x in t):
        raise SubsetSizeError(f"generator index out of range in {t}")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise SubsetSizeError(f"subset {t} must be strictly increasing")
    return t


def _check_coefficients(u, size: int, cap: float = 1.0 + _COEFF_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex).reshape(-1)
    worst = float(np.max(np.abs(u))) if u.size else 0.0
    # The largest modulus is NaN or infinite exactly when an entry is.
    if not math.isfinite(worst):
        raise NonFiniteError("coefficients must be finite")
    if worst > cap:
        raise CoefficientBoundError(f"coefficient modulus {worst!r} exceeds 1")
    if u.size != size:
        raise LengthMismatchError(f"{size} indices versus {u.size} coefficients")
    return u


def _check_assignments(assignments, k: int, n: int, coefficients=_check_coefficients):
    """Validated (subsets, coefficient rows) of a subset -> coefficients
    mapping, in sorted key order; ``coefficients(value, k)`` checks one value."""
    subsets, rows = [], []
    for t_vec in sorted(assignments):
        t = _check_subset(t_vec, n)
        if len(t) != k:
            raise SubsetSizeError(f"subset {t} does not have size k = {k}")
        subsets.append(t)
        rows.append(coefficients(assignments[t_vec], k))
    return subsets, rows


def _check_k(k, n: int) -> int:
    k = _as_index(k, SubsetSizeError)
    if not 1 <= k <= n:
        raise SubsetSizeError(f"k = {k} outside 1..{n}")
    return k


def _check_operator(rho, s_op) -> tuple[DensityMatrix, np.ndarray]:
    rho = _check_state(rho)
    s_op = as_symmetric(s_op)
    if s_op.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"operator size {s_op.shape[0]} versus state size {rho.dim}"
        )
    return rho, s_op


def _delta_from_parts(r: np.ndarray, rc: np.ndarray, s_op: np.ndarray) -> float:
    """Gap of one operator by its own SVD: the single-matrix reference
    that the stacked engine is tested against."""
    lam = np.linalg.svd(r @ s_op @ rc, compute_uv=False)
    return max(0.0, 2.0 * float(lam[0]) - float(np.sum(lam)))


def _stack_gaps(r: np.ndarray, rc: np.ndarray, s_ops: np.ndarray) -> np.ndarray:
    """Gaps of an operator stack in one SVD call, each what
    ``_delta_from_parts`` gives on its matrix alone (the tests compare
    the two bit for bit)."""
    lam = np.linalg.svd(r @ s_ops @ rc, compute_uv=False)
    gap = 2.0 * lam[:, 0] - np.sum(lam, axis=1)
    return np.where(gap > 0.0, gap, 0.0)


def _gaps(r: np.ndarray, rc: np.ndarray, ops, rows, coeffs) -> np.ndarray:
    """The gap engine: gap of sum_s coeffs[i, s] * ops[rows[i, s]] for each
    row i of equal-length index tuples into the stack ``ops``, whose leading
    axes flatten to one index: (3, N, D, D) reads as (3N, D, D)."""
    flat = ops.reshape(-1, r.size)
    rows = np.asarray(rows, dtype=np.intp)
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(rows) > _BLOCK_ROWS:
        blocks = range(0, len(rows), _BLOCK_ROWS)
        return np.concatenate([_gaps(r, rc, flat, rows[lo : lo + _BLOCK_ROWS], coeffs[lo : lo + _BLOCK_ROWS]) for lo in blocks])
    if not len(rows):
        return np.zeros(0)
    return _stack_gaps(r, rc, (coeffs[:, None, :] @ flat[rows]).reshape(-1, *r.shape))


def _report(mode: str, k: int, n: int, subsets, coeffs, gaps, start: float, splits=None, config=None) -> BoundReport:
    """Aggregate of entries (subsets[i], coeffs[i], gaps[i], splits[i]); the
    mode's family ("obs2-w" is "obs2") fixes prefactor and coefficient names."""
    weight, names = _AGGREGATES[mode.split("-")[0]]
    labels = [None] * len(subsets) if splits is None else splits
    entries = tuple([
        SubsetEntry(t, {name: tuple(c[j * k : j * k + k]) for j, name in enumerate(names)}, d, split)
        for t, c, d, split in zip(subsets, coeffs, gaps.tolist(), labels)
    ])
    prefactor = n / (weight * k * k * math.comb(n, k))
    return BoundReport(
        bound_on_c_squared=prefactor * math.fsum(e.delta * e.delta for e in entries),
        per_subset=entries,
        k=k,
        n_generators=n,
        prefactor=prefactor,
        mode=mode,
        wall_time=time.perf_counter() - start,
        config=config,
    )


def concurrence_pure(psi: PureState, split: Bipartition | None = None) -> float:
    """Concurrence sqrt(2 (1 - Tr rho_A^2)) of a pure state across a split.

    Parameters
    ----------
    psi : PureState
    split : Bipartition, optional
        Defaults to the first subsystem versus the rest.
    """
    if split is None:
        split = Bipartition.single(0, len(psi.dims))
    red = partial_trace(psi.density(), split.side_a)
    val = 2.0 * (1.0 - red.purity())
    return math.sqrt(max(0.0, val))


def concurrence_pure_sumrule(psi: PureState, gens: GeneratorSet) -> float:
    """Concurrence of a pure state via the generator expectation sum.

    Evaluates sqrt( sum_t |<psi| J_t |psi*>|^2 ), which agrees with
    ``concurrence_pure`` across the generators' bipartition.
    """
    _check_dims_match(psi, gens)
    conj = psi.amplitudes.conj()
    amps = (gens.operators @ conj) @ conj
    return math.sqrt(float(np.sum(np.abs(amps) ** 2)))


def lambda_spectrum(rho: DensityMatrix, s_op: np.ndarray) -> np.ndarray:
    """Descending spectrum lambda_i for a symmetric operator S.

    Parameters
    ----------
    rho : DensityMatrix
    s_op : ndarray
        Symmetric matrix (S = S^T within 1e-10) of matching size.

    Returns
    -------
    ndarray
        Singular values of sqrt(rho) S conj(sqrt(rho)) in descending
        order; as many values as the total dimension.
    """
    rho, s_op = _check_operator(rho, s_op)
    r, rc = rho._sqrt_parts
    return np.linalg.svd(r @ s_op @ rc, compute_uv=False)


def lambda_spectrum_product_route(rho: DensityMatrix, s_op: np.ndarray) -> np.ndarray:
    """Same spectrum through the non-Hermitian product rho S rho* S^dag.

    Square roots of that product's eigenvalues, descending. Less
    accurate near zero than ``lambda_spectrum``; retained as an
    independent cross-check of the spectral route.
    """
    rho, s_op = _check_operator(rho, s_op)
    x = rho.matrix @ s_op @ rho.matrix.conj() @ s_op.conj().T
    ev = np.linalg.eigvals(x)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    return np.sort(lam)[::-1]


def delta_k(rho: DensityMatrix, gens: GeneratorSet, t_vec, u) -> float:
    """Spectral gap for one generator subset and coefficient vector.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    gens : GeneratorSet
    t_vec : sequence of int
        Strictly increasing generator indices.
    u : sequence of complex
        One coefficient per index, each modulus at most 1.

    Returns
    -------
    float
        max(0, lambda_1 - sum_{i>1} lambda_i) for S = sum_s u_s J_{t_s}.
    """
    rho = _check_state(rho)
    _check_dims_match(rho, gens)
    t = _check_subset(t_vec, gens.count)
    u = _check_coefficients(u, len(t))
    return float(_gaps(*rho._sqrt_parts, gens.operators, [t], [u])[0])


def _resolve_gens(rho: DensityMatrix, gens: GeneratorSet | None) -> GeneratorSet:
    if gens is None:
        if len(rho.dims) != 2:
            raise DimensionMismatchError(
                f"default generators need bipartite dims, got {rho.dims}"
            )
        gens = bipartite_generators(*rho.dims)
    _check_dims_match(rho, gens)
    return gens


def observation1_bound(rho: DensityMatrix, k: int, assignments, gens: GeneratorSet | None = None) -> BoundReport:
    """Aggregate size-k subset gaps into a lower bound on C(rho)^2.

    The bound is N / (k^2 binom(N, k)) times the sum of squared gaps
    over all size-k subsets; subsets missing from ``assignments``
    contribute zero. Every coefficient assignment yields a valid lower
    bound, so the result is monotone under improving any entry.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    k : int
        Subset size, 1..N.
    assignments : mapping
        Subset tuple -> coefficient vector of length k.
    gens : GeneratorSet, optional
        Defaults to the full product family for bipartite ``rho.dims``.

    Returns
    -------
    BoundReport
    """
    rho = _check_state(rho)
    gens = _resolve_gens(rho, gens)
    k = _check_k(k, gens.count)
    start = time.perf_counter()
    subsets, coeffs = _check_assignments(assignments, k, gens.count)
    gaps = _gaps(*rho._sqrt_parts, gens.operators, subsets, coeffs)
    return _report("obs1", k, gens.count, subsets, coeffs, gaps, start)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit concurrence max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4)."""
    rho = _check_state(rho)
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatchError(f"two-qubit state required, got dims {rho.dims}")
    # The gap of the bare generator: there is no coefficient to combine.
    return float(_stack_gaps(*rho._sqrt_parts, bipartite_generators(2, 2).operators)[0])


def delta_total_bound(rho: DensityMatrix, gens: GeneratorSet, u_full) -> float:
    """Spectral gap for a normalized coefficient vector over all N generators.

    With sum_s |u_s|^2 = 1 the gap lower-bounds the concurrence itself
    (not its square). Raises NotNormalizedError off the unit sphere.
    """
    rho = _check_state(rho)
    _check_dims_match(rho, gens)
    # The norm check below is the cap on the moduli here.
    u = _check_coefficients(u_full, gens.count, cap=math.inf)
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-10:
        raise NotNormalizedError(f"coefficient norm {nrm!r} deviates from 1")
    return float(_gaps(*rho._sqrt_parts, gens.operators, [range(gens.count)], [u])[0])


def decomposition_average(dec: Decomposition, s_op: np.ndarray) -> float:
    """Ensemble average sum_i p_i |<psi_i| S |psi_i*>| for a symmetric S.

    For any valid decomposition of the state this average dominates the
    spectral gap of the same S, which is what makes the gap a certified
    infimum; the function exists to test exactly that.
    """
    _, s_op = _check_operator(dec.state, s_op)
    total = 0.0
    for p, psi in zip(dec.weights, dec.members):
        conj = psi.amplitudes.conj()
        total += p * abs(complex(conj @ (s_op @ conj)))
    return total


def ppt_min_eigenvalue(rho: DensityMatrix, split) -> float:
    """Minimum eigenvalue after transposing one side of a bipartition.

    ``split`` is a Bipartition (its first side is transposed) or an
    iterable of subsystem indices. Negative values certify
    entanglement across the split; nonnegative values are silent.
    """
    rho = _check_state(rho)
    part = split.side_a if isinstance(split, Bipartition) else split
    pt = partial_transpose(rho, part)
    return float(np.linalg.eigvalsh(pt)[0])

