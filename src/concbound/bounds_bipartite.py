"""Spectral lower bounds on the squared concurrence of bipartite states.

The central object is the spectrum lambda_1 >= lambda_2 >= ... of
sqrt( sqrt(rho) S rho* S^dag sqrt(rho) ) for a symmetric operator S
built from antisymmetric generator products. The gap

    delta = max(0, lambda_1 - sum_{i>1} lambda_i)

vanishes on every separable state, and suitably weighted sums of
squared gaps over generator subsets bound the squared concurrence from
below. The spectrum is the singular values of A = sqrt(rho) S
conj(sqrt(rho)), the numerically stable form of the same quantity (the
eigenvalue route through rho S rho* S^dag is kept as a cross-check),
read off the rank x rank B = X^dag S conj(X) with A = Q B Q^T on the
support of rho (``states.SupportBasis``). B is linear in S, so every gap
comes from one engine, ``_gaps``: coefficient sums over one stack of B's
(a state's kept family stack, or a single subset's own), and stacked SVDs.
Every aggregate, the tripartite and optimized ones included, is a list of
(split, subset) entries: one layout function, ``_entry_rows``, maps them
to rows of the stacked families, and one report builder, ``_report``,
takes a prefactor times the sum of squared entry gaps.
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

# Aggregate family -> (w, coefficient names, split labels): the bound is
# N / (w k^2 binom(N, k)) times the sum of squared subset gaps, each
# coefficient row splits evenly into the named vectors, and an entry of
# split s carries the label splits[s].
_AGGREGATES = {
    "obs1": (1, ("u",), (None,)),
    "obs2": (6, ("u", "v", "w"), (None,)),
    "obs3": (2, ("u",), ("1|23", "2|13", "3|12")),
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


def _delta_from_parts(b: np.ndarray):
    """Gaps of the (..., r, r) matrices b = X^dag S conj(X) by (stacked) SVD:
    the engine's kernel, and on one matrix its reference in the tests."""
    lam = np.linalg.svd(b, compute_uv=False)
    gap = 2.0 * lam[..., 0] - np.sum(lam, axis=-1)
    return np.where(gap > 0.0, gap, 0.0)


def _gaps(stack: np.ndarray, rows, coeffs) -> np.ndarray:
    """The gap engine: gap of sum_s coeffs[i, s] * stack[rows[i, s]] for
    each row i of equal-length index tuples into the B stack ``stack``
    (``SupportBasis.frame`` of some operators), whose leading axes flatten
    to one index: (3, N, r, r) reads as (3N, r, r)."""
    r = stack.shape[-1]
    flat = stack.reshape(-1, r * r)
    rows = np.asarray(rows, dtype=np.intp)
    coeffs = np.asarray(coeffs, dtype=complex)
    blocks = []
    for lo in range(0, len(rows), _BLOCK_ROWS):
        b = coeffs[lo : lo + _BLOCK_ROWS, None, :] @ flat[rows[lo : lo + _BLOCK_ROWS]]
        blocks.append(_delta_from_parts(b.reshape(-1, r, r)))
    return blocks[0] if len(blocks) == 1 else np.concatenate([np.zeros(0), *blocks])


def _entry_rows(mode: str, entries, n: int) -> list[tuple[int, ...]]:
    """The layout of every aggregate: rows into the stacked families (N
    each) of (split, subset) entries. A row reads one family per
    coefficient name, starting at the entry's split s: s*N+t for obs1
    (s = 0) and obs3, and t, N+t, 2N+t (u, v, w) for obs2."""
    blocks = range(len(_AGGREGATES[mode.split("-")[0]][1]))
    return [tuple((s + j) * n + i for j in blocks for i in t) for s, t in entries]


def _report(mode: str, k: int, n: int, entries, coeffs, gaps, start: float, config=None) -> BoundReport:
    """Aggregate of (split, subset) entries with rows coeffs and gaps; the
    mode's family ("obs2-w" is "obs2") fixes prefactor, coefficient names
    and split labels."""
    weight, names, labels = _AGGREGATES[mode.split("-")[0]]
    entries = tuple([
        SubsetEntry(t, {name: tuple(c[j * k : j * k + k]) for j, name in enumerate(names)}, d, labels[s])
        for (s, t), c, d in zip(entries, coeffs, gaps.tolist())
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


def _aggregate(rho: DensityMatrix, mode: str, k, ops, n: int, per_split, coefficients=_check_coefficients) -> BoundReport:
    """The fixed-coefficient aggregate over ``ops`` of one subset ->
    coefficients mapping per split, each in sorted key order;
    ``coefficients(value, k)`` checks one value as a coefficient row."""
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
    gaps = _gaps(rho._basis.stack(ops), _entry_rows(mode, entries, n), coeffs)
    return _report(mode, k, n, entries, coeffs, gaps, start)


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
        order; as many values as the total dimension, the rank of rho
        first and zeros past the support.
    """
    rho, s_op = _check_operator(rho, s_op)
    lam = np.linalg.svd(rho._basis.frame(s_op), compute_uv=False)
    return np.concatenate([lam, np.zeros(rho.dim - lam.size)])


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
    return float(_gaps(rho._basis.frame(gens.operators[list(t)]), [range(len(t))], [u])[0])


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
    return _aggregate(rho, "obs1", k, gens.operators, gens.count, [assignments])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit concurrence max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4)."""
    rho = _check_state(rho)
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatchError(f"two-qubit state required, got dims {rho.dims}")
    return float(_gaps(rho._basis.stack(bipartite_generators(2, 2).operators), [(0,)], [(1.0,)])[0])


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
    return float(_gaps(rho._basis.stack(gens.operators), [range(gens.count)], [u])[0])


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

