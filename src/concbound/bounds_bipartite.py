"""Spectral lower bounds on the squared concurrence of bipartite states.

The central object is the spectrum lambda_1 >= lambda_2 >= ... of
sqrt( sqrt(rho) S rho* S^dag sqrt(rho) ) for a symmetric operator S
built from antisymmetric generator products. The gap

    delta = max(0, lambda_1 - sum_{i>1} lambda_i)

vanishes on every separable state, and suitably weighted sums of
squared gaps over generator subsets bound the squared concurrence from
below. The spectrum is the singular values of A = sqrt(rho) S
conj(sqrt(rho)), the numerically stable form of the same quantity (the
tests keep the eigenvalue route through rho S rho* S^dag as a
cross-check), read off the rank x rank B = X^dag S conj(X) with A = Q B Q^T on the
support of rho (``DensityMatrix._frame``). B is linear in S, so every gap comes from
one kernel, ``_gap_kernel``: sums over gathered B's and one stacked SVD. ``_gaps`` feeds
it blocks of rows for values, the search's ascent for gradients. Each call frames, once,
exactly the operators its rows read: a search or a whole-family gap its family, a
fixed aggregate the distinct operators of its entries, a single subset its own.
Every aggregate, the tripartite and optimized ones included, is a list of
(split, subset) entries: one layout function, ``_entry_rows``, maps them
to rows of the stacked families, and ``_weigh`` takes a prefactor times the sum
of squared entry gaps, for ``_report`` and for ``_fixed``'s scan values, which weigh the gaps of a report's one ``_gaps`` call.
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
from .generators import _EXAMPLES, Bipartition, GeneratorSet, bipartite_generators
from .numerics import _MODULUS, _ROUNDOFF, _as_index, as_symmetric
from .states import Decomposition, DensityMatrix, PureState, _check_pure, _check_state, _pt_spectra, partial_trace

# Most gap matrices per SVD call: caps the engine's memory whatever the
# number of rows (an ascent block holds whole subsets, at least one).
_BLOCK_ROWS = 512

# Report mode -> (w, coefficient names, split labels, triple source): the
# bound is N / (w k^2 binom(N, k)) times the sum of squared subset gaps,
# each coefficient row splits evenly into the named vectors, an entry of
# split s carries the label splits[s], and a tripartite search reads the
# named triple (obs1, wootters: none). One obs2-<family> row per example family.
_AGGREGATES = {
    "obs1": (1, ("u",), (None,), None),
    "wootters": (1, ("u",), (None,), None),
    "obs2": (6, ("u", "v", "w"), (None,), "canonical"),
    "obs3": (2, ("u",), tuple(Bipartition.single(s, 3).label for s in range(3)), "canonical"),
    **{f"obs2-{family}": (6, ("u", "v", "w"), (None,), family) for family in _EXAMPLES},
}


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


def _resolve_gens(rho: DensityMatrix | PureState, gens: GeneratorSet | None) -> GeneratorSet:
    """The one check of a generator-set argument: None is the product family
    of a bipartite state, and a GeneratorSet must match the state's dims."""
    if gens is None:
        if len(rho.dims) != 2:
            raise DimensionMismatchError(f"default generators need bipartite dims, got {rho.dims}")
        return bipartite_generators(*rho.dims)
    if not isinstance(gens, GeneratorSet):
        raise TypeError(f"expected a GeneratorSet, got {type(gens).__name__}")
    if tuple(rho.dims) != tuple(gens.dims):
        raise DimensionMismatchError(f"state dims {rho.dims} versus generator dims {gens.dims}")
    return gens


def _check_subset(t_vec, n: int) -> tuple[int, ...]:
    t = tuple(_as_index(x, SubsetSizeError) for x in t_vec)
    if len(t) == 0 or len(t) > n:
        raise SubsetSizeError(f"subset size {len(t)} outside 1..{n}")
    if any(x < 0 or x >= n for x in t):
        raise SubsetSizeError(f"generator index out of range in {t}")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise SubsetSizeError(f"subset {t} must be strictly increasing")
    return t


def _check_coefficients(u, size: int, cap: float = 1.0 + _MODULUS) -> np.ndarray:
    u = np.asarray(u, dtype=complex).reshape(-1)
    worst = float(np.abs(u).max()) if u.size else 0.0
    # The largest modulus is NaN or infinite exactly when an entry is.
    if not math.isfinite(worst):
        raise NonFiniteError("coefficients must be finite")
    if not worst <= cap:
        raise CoefficientBoundError(f"coefficient modulus {worst!r} exceeds 1")
    if u.size != size:
        raise LengthMismatchError(f"{size} indices versus {u.size} coefficients")
    return u


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


def _gap_kernel(parts: np.ndarray, coeffs: np.ndarray, slope: bool = False):
    """The gap engine: gap of sum_s coeffs[i, s] * parts[i, s] for each row i
    of gathered operators ``parts`` (n, m, r*r), one stacked SVD. With
    ``slope``, the unclipped 2 sigma_1 - sum sigma and its gradient g_s =
    <U diag(1, -1, ..., -1) V^H, B_s>: the value moves by Re(sum_s g_s dc_s)."""
    r = math.isqrt(parts.shape[-1])
    b = (coeffs[:, None, :] @ parts).reshape(-1, r, r)
    if slope:
        u, lam, vh = np.linalg.svd(b)
        u[..., 1:] *= -1.0
        grad = (parts @ (u @ vh).reshape(len(b), -1, 1).conj())[..., 0]
    else:
        lam = np.linalg.svd(b, compute_uv=False)
    gap = 2.0 * lam[:, 0] - lam.sum(axis=-1)
    return (gap, grad) if slope else np.where(gap > 0.0, gap, 0.0)


def _gaps(stack: np.ndarray, rows, coeffs):
    """``_gap_kernel`` of each row of equal-length index tuples into the B stack ``stack``
    (``DensityMatrix._frame`` of some operators), whose leading axes flatten to one index:
    (3, N, r, r) reads as (3N, r, r); one kernel call per block of rows. ``rows`` None: row i
    reads the i-th m operators, m its coefficients, so its parts are a view, not a gather."""
    flat, n, coeffs = stack.reshape(-1, stack.shape[-1] ** 2), _BLOCK_ROWS, np.asarray(coeffs, dtype=complex)
    runs = flat.reshape(*coeffs.shape, flat.shape[-1]) if rows is None else np.asarray(rows, dtype=np.intp)
    blocks = [_gap_kernel(runs[lo : lo + n] if rows is None else flat[runs[lo : lo + n]], coeffs[lo : lo + n]) for lo in range(0, len(coeffs), n)]
    return blocks[0] if len(blocks) == 1 else np.concatenate([np.zeros(0), *blocks])


def _entry_rows(mode: str, entries, n: int) -> list[tuple[int, ...]]:
    """The layout of every aggregate: rows into the stacked families (N
    each) of (split, subset) entries. A row reads one family per
    coefficient name, starting at the entry's split s: s*N+t for obs1
    (s = 0) and obs3, and t, N+t, 2N+t (u, v, w) for obs2."""
    blocks = range(len(_AGGREGATES[mode][1]))
    return [tuple((s + j) * n + i for j in blocks for i in t) for s, t in entries]


def _weigh(mode: str, k: int, n: int, deltas) -> tuple[float, float]:
    """A mode's prefactor N / (w k^2 binom(N, k)) and its bound, the prefactor times the sum of squared gaps ``deltas``."""
    prefactor = n / (_AGGREGATES[mode][0] * k * k * math.comb(n, k))
    return prefactor, prefactor * math.fsum(d * d for d in deltas)


def _report(mode: str, k: int, n: int, entries, coeffs, gaps, start: float, config=None) -> BoundReport:
    """Aggregate of (split, subset) entries with the rows of the array coeffs
    and gaps; the mode's row fixes prefactor, coefficient names and split labels."""
    _, names, labels, _ = _AGGREGATES[mode]
    entries = tuple([
        SubsetEntry(t, {name: tuple(c[j * k : j * k + k]) for j, name in enumerate(names)}, d, labels[s])
        for (s, t), c, d in zip(entries, coeffs.tolist(), gaps.tolist())
    ])
    prefactor, bound = _weigh(mode, k, n, (e.delta for e in entries))
    return BoundReport(
        bound_on_c_squared=bound,
        per_subset=entries,
        k=k,
        n_generators=n,
        prefactor=prefactor,
        mode=mode,
        wall_time=time.perf_counter() - start,
        config=config,
    )


def _aggregate(rho: DensityMatrix, mode: str, k, ops, per_split, coefficients=_check_coefficients) -> BoundReport:
    """The fixed-coefficient aggregate over the stacked families ``ops`` of
    one subset -> coefficients mapping per split, each in sorted key order;
    ``coefficients(value, k)`` checks one value as a coefficient row."""
    n = ops.shape[-3]
    k = _check_k(k, n)
    start = time.perf_counter()
    entries, coeffs = [], []
    for s, assignments in enumerate(per_split):
        for t_vec in sorted(assignments):
            t = _check_subset(t_vec, n)
            if len(t) != k:
                raise SubsetSizeError(f"subset {t} does not have size k = {k}")
            entries.append((s, t))
            coeffs.append(coefficients(assignments[t_vec], k))
    coeffs, slot = np.asarray(coeffs, dtype=complex), {}
    rows = [tuple(slot.setdefault(i, len(slot)) for i in row) for row in _entry_rows(mode, entries, n)]
    # Rows that read each framed operator once read them in order: _gaps takes them as a view.
    gaps = _gaps(rho._frame(ops.reshape((-1,) + ops.shape[-2:])[list(slot)]), rows if len(slot) < coeffs.size else None, coeffs)
    return _report(mode, k, n, entries, coeffs, gaps, start)


def _fixed(mode: str, ops_of, row):
    """The report, (rho, k, cfg) -> BoundReport, and scan value, (rho, k) -> float, of one entry at the coefficient row ``row``
    (checked once, here) over operator 0 of each split ``ops_of(rho)``, k and cfg unread: a call checks rho and takes one ``_gaps``."""
    row = _check_coefficients(row, len(row))[None]
    gaps = lambda rho: _gaps((rho := _check_state(rho))._frame(ops_of(rho)), None, row)

    def report(rho, k=None, cfg=None) -> BoundReport:
        start = time.perf_counter()
        return _report(mode, 1, 1, [(0, (0,))], row, gaps(rho), start)
    return report, lambda rho, k=None: _weigh(mode, 1, 1, gaps(rho))[1]


def concurrence_pure(psi: PureState, split: Bipartition | None = None) -> float:
    """Concurrence sqrt(2 (1 - Tr rho_A^2)) of a pure state across a split.

    Parameters
    ----------
    psi : PureState
    split : Bipartition, optional
        Defaults to the first subsystem versus the rest.
    """
    psi = _check_pure(psi)
    if split is None:
        split = Bipartition.single(0, len(psi.dims))
    red = partial_trace(psi, split)
    val = 2.0 * (1.0 - red.purity())
    return math.sqrt(max(0.0, val))


def concurrence_pure_sumrule(psi: PureState, gens: GeneratorSet | None) -> float:
    """Concurrence of a pure state via the generator expectation sum.

    Evaluates sqrt( sum_t |<psi| J_t |psi*>|^2 ), which agrees with
    ``concurrence_pure`` across the generators' bipartition. ``gens``
    ``None`` means the product family of a bipartite state.
    """
    psi = _check_pure(psi)
    gens = _resolve_gens(psi, gens)
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
        order; as many values as the total dimension, the rank of rho
        first and zeros past the support.
    """
    rho, s_op = _check_operator(rho, s_op)
    lam = np.linalg.svd(rho._frame(s_op), compute_uv=False)
    return np.concatenate([lam, np.zeros(rho.dim - lam.size)])


def delta_k(rho: DensityMatrix, gens: GeneratorSet | None, t_vec, u) -> float:
    """Spectral gap for one generator subset and coefficient vector.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    gens : GeneratorSet or None
        None means the product family of a bipartite state.
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
    gens = _resolve_gens(rho, gens)
    t = _check_subset(t_vec, gens.count)
    u = _check_coefficients(u, len(t))
    return float(_gaps(rho._frame(gens.operators[list(t)]), None, [u])[0])


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
    return _aggregate(rho, "obs1", k, gens.operators, [assignments])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit concurrence max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4)."""
    rho = _check_state(rho)
    return float(_gaps(rho._frame(_resolve_gens(rho, bipartite_generators(2, 2)).operators), None, [(1.0,)])[0])


def delta_total_bound(rho: DensityMatrix, gens: GeneratorSet | None, u_full) -> float:
    """Spectral gap for a normalized coefficient vector over all N generators.

    With sum_s |u_s|^2 = 1 the gap lower-bounds the concurrence itself
    (not its square). Raises NotNormalizedError off the unit sphere.
    ``gens`` None means the product family of a bipartite state.
    """
    rho = _check_state(rho)
    gens = _resolve_gens(rho, gens)
    # The norm check below is the cap on the moduli here.
    u = _check_coefficients(u_full, gens.count, cap=math.inf)
    # vdot overflows to inf silently, where np.linalg.norm warns first.
    nrm = math.sqrt(np.vdot(u, u).real)
    if not abs(nrm - 1.0) <= _ROUNDOFF:
        raise NotNormalizedError(f"coefficient norm {nrm!r} deviates from 1")
    return float(_gaps(rho._frame(gens.operators), None, [u])[0])


def decomposition_average(dec: Decomposition, s_op: np.ndarray) -> float:
    """Ensemble average sum_i p_i |<psi_i| S |psi_i*>| for a symmetric S.

    For any valid decomposition of the state this average dominates the
    spectral gap of the same S, which is what makes the gap a certified
    infimum; the function exists to test exactly that.
    """
    if not isinstance(dec, Decomposition):
        raise TypeError(f"expected a Decomposition, got {type(dec).__name__}")
    _, s_op = _check_operator(dec.state, s_op)
    total = 0.0
    for p, psi in zip(dec.weights, dec.members):
        conj = psi.amplitudes.conj()
        total += p * abs(complex(conj @ (s_op @ conj)))
    return total


def ppt_min_eigenvalue(rho: DensityMatrix, split) -> float:
    """Minimum eigenvalue after transposing one side of a bipartition.

    ``split`` is a Bipartition of the state's parties (its first side is
    transposed) or an iterable of subsystem indices. Negative values
    certify entanglement across the split; nonnegative values are silent.
    """
    return float(_pt_spectra(rho, (split,))[0, 0])

