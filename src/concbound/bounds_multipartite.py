"""Spectral lower bounds on the squared tripartite concurrence.

The tripartite concurrence of a pure three-party state is

    C_tau = sqrt(3 - Tr rho_1^2 - Tr rho_2^2 - Tr rho_3^2),

equivalently half the sum of squared bipartite concurrences over the
three single-versus-pair splits. Two mixed-state bounds are provided:
a joint one built from gap evaluations of summed cross-split operators
(sensitive to coherence between splits) and a split-wise one that
aggregates the three bipartite bounds. The joint form strictly
dominates on the noisy W family, which is the reason both exist.

Both run on the bipartite gap engine over the stacked families
[J1; J2; J3], with rows laid out by ``bounds_bipartite._entry_rows``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidSplitError, LengthMismatchError
from .bounds_bipartite import (
    BoundReport,
    _aggregate,
    _check_coefficients,
    _check_state,
    _check_subset,
    _gaps,
)
from .generators import GeneratorTriple, canonical_triple, example_operators
from .numerics import _as_index
from .states import DensityMatrix, PureState, partial_trace


def _check_tripartite(rho: DensityMatrix) -> int:
    if len(rho.dims) != 3 or len(set(rho.dims)) != 1:
        raise DimensionMismatchError(
            f"three subsystems of equal dimension required, got dims {rho.dims}"
        )
    return rho.dims[0]


def ctau_pure(psi: PureState) -> float:
    """Tripartite concurrence of a pure three-party state."""
    if len(psi.dims) != 3:
        raise DimensionMismatchError(f"three subsystems required, got dims {psi.dims}")
    rho = psi.density()
    total = 3.0
    for i in range(3):
        total -= partial_trace(rho, {i}).purity()
    return math.sqrt(max(0.0, total))


def _resolve_triple(rho: DensityMatrix, gen_source) -> GeneratorTriple:
    """The triple ``gen_source`` gives or names, checked against the state."""
    d = _check_tripartite(rho)
    if isinstance(gen_source, GeneratorTriple):
        size = gen_source.operators.shape[-1]
        if size != rho.dim:
            raise DimensionMismatchError(f"operator size {size} versus state size {rho.dim}")
        return gen_source
    src = str(gen_source).lower()
    if src == "canonical":
        return canonical_triple(d)
    if src in ("ghz", "w"):
        if d != 2:
            raise DimensionMismatchError(
                f"example operators act on three qubits, got dims {rho.dims}"
            )
        return example_operators(src)
    raise ValueError(f"unknown generator source {gen_source!r}")


def _triple_coefficients(x, k: int) -> np.ndarray:
    """A validated (u, v, w) triple as one row u ++ v ++ w."""
    if len(x) != 3:
        raise LengthMismatchError("expected coefficient triple (u, v, w)")
    return np.concatenate([_check_coefficients(c, k) for c in x])


def delta_tot_k(rho: DensityMatrix, triple: GeneratorTriple, t_vec, x) -> float:
    """Spectral gap of the summed cross-split operator for one subset.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    triple : GeneratorTriple
        Index-aligned families for the splits 1|23, 2|13, 3|12.
    t_vec : sequence of int
        Strictly increasing indices into the aligned families.
    x : (u, v, w)
        Three coefficient vectors of the subset length, moduli at most
        1; u weights the 1|23 operators, v and w the other two splits.

    Returns
    -------
    float
        Gap of S = sum_s (u_s J1 + v_s J2 + w_s J3) at the subset
        indices; zero on every fully separable state.
    """
    rho = _check_state(rho)
    triple = _resolve_triple(rho, triple)
    t = _check_subset(t_vec, triple.count)
    row = _triple_coefficients(x, len(t))
    return float(_gaps(rho._basis.frame(triple.operators[:, list(t)]), [range(3 * len(t))], [row])[0])


def observation2_bound(rho: DensityMatrix, k: int, assignments, gen_source="canonical") -> BoundReport:
    """Aggregate cross-split gaps into a lower bound on C_tau(rho)^2.

    The bound is N / (6 k^2 binom(N, k)) times the sum of squared
    ``delta_tot_k`` gaps over size-k subsets; missing subsets count as
    zero.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    k : int
        Subset size, 1..N.
    assignments : mapping
        Subset tuple -> (u, v, w) coefficient triple.
    gen_source : str or GeneratorTriple
        "canonical" for the full aligned families, "ghz" or "w" for the
        one-operator example families.

    Returns
    -------
    BoundReport
    """
    rho = _check_state(rho)
    triple = _resolve_triple(rho, gen_source)
    mode = "obs2" if triple.source == "canonical" else f"obs2-{triple.source}"
    return _aggregate(rho, mode, k, triple.operators, triple.count, [assignments], _triple_coefficients)


def observation3_bound(rho: DensityMatrix, k: int, assignments) -> BoundReport:
    """Split-wise lower bound: half the sum of the three bipartite bounds.

    Each single-versus-pair split contributes its own subset-aggregated
    bound with that split's canonical generator family; the result is
    half their sum. Insensitive to cross-split coherence by design.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    k : int
        Subset size, 1..N with N the per-split family size.
    assignments : mapping
        Split index (0, 1, 2) -> subset-to-coefficients mapping as in
        the bipartite aggregate; missing splits contribute zero, and any
        other key raises InvalidSplitError.

    Returns
    -------
    BoundReport
    """
    rho = _check_state(rho)
    triple = _resolve_triple(rho, "canonical")
    unknown = [s for s in assignments if _as_index(s, InvalidSplitError) not in (0, 1, 2)]
    if unknown:
        raise InvalidSplitError(f"split keys {unknown!r} outside 0, 1, 2")
    per_split = [assignments.get(s, {}) for s in range(3)]
    return _aggregate(rho, "obs3", k, triple.operators, triple.count, per_split)
