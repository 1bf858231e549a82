"""Coefficient search, subset aggregation, and threshold scans.

The gap delta is piecewise smooth in the coefficient moduli and phases,
so a seeded multi-restart coordinate descent with a geometrically
decaying step is enough to polish coefficients; every evaluation is a
valid lower bound, which makes the search safe to stop anywhere. All
randomness is derived from one user-visible seed, and the same
configuration always reproduces the same report, byte for byte.

Every (subset, restart) trajectory of a call runs in lockstep as one
row of a coordinate array, and each probe is one SVD call over all
rows. A row accepts a probe only if its own gap strictly improves and
never reads another row, and its arithmetic is the same per element
and per matrix as a one-trajectory loop's, so each row makes exactly
that loop's decisions, bit for bit, however the rows are blocked.

Every searched aggregate, obs1, obs2 and obs3 alike, takes one path,
``_optimize_aggregate``: the subset pool, the seed salts and the report
of (split, subset) entries, whose rows ``bounds_bipartite._entry_rows``
lays out.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from itertools import combinations

import numpy as np

from .errors import ParameterRangeError, ThresholdNotDetectedError
from .bounds_bipartite import (
    _AGGREGATES,
    BoundReport,
    _check_dims_match,
    _check_k,
    _check_state,
    _check_subset,
    _entry_rows,
    _gaps,
    _report,
    _resolve_gens,
)
from .bounds_multipartite import _resolve_triple
from .generators import GeneratorSet
from .states import DensityMatrix, SupportBasis

DEFAULT_SEED = 1905

_STRATEGIES = ("exhaustive", "top_singletons")


@dataclass(frozen=True)
class OptimizerConfig:
    """Search knobs for the coefficient optimizer.

    ``restarts`` counts starting points per subset: the first is the
    deterministic all-ones vector, the rest are seeded random draws.
    Each restart runs ``iterations`` sweeps of coordinate descent with
    the step decaying geometrically from ``step_initial`` to
    ``step_final``. One-coefficient subsets (k=1 in obs1 and obs3, or
    ``optimize_u`` on one index) are not searched: the unit coefficient
    is optimal, so ``restarts``, ``iterations``, ``seed`` and the steps
    do not change those bounds, though the report's ``config`` still
    records them. ``subset_strategy`` picks the subset pool for
    aggregated bounds: "exhaustive" enumerates all size-k subsets,
    "top_singletons" only combines the ``top_count`` generators with
    the largest single-operator gaps. On PPT states every such gap is
    zero up to round-off (a generator acts on a two-qubit subspace,
    where PPT means separable), so "top_singletons" then picks its pool
    by rounding noise and can miss every detecting subset.
    """

    restarts: int = 32
    iterations: int = 200
    seed: int = DEFAULT_SEED
    step_initial: float = 0.5
    step_final: float = 1e-4
    subset_strategy: str = "exhaustive"
    top_count: int = 4

    def __post_init__(self):
        ints = (self.restarts, self.iterations, self.seed, self.top_count)
        if any(type(v) is not int for v in ints):
            raise ParameterRangeError(f"restarts, iterations, seed, top_count must be ints, got {ints}")
        steps = (self.step_initial, self.step_final)
        if any(type(v) not in (int, float) or not math.isfinite(v) for v in steps):
            raise ParameterRangeError(f"step_initial, step_final must be finite numbers, got {steps}")
        if self.restarts < 1 or self.iterations < 1:
            raise ParameterRangeError("restarts and iterations must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ParameterRangeError("seed must fit in 64 bits")
        if not 0.0 < self.step_final <= self.step_initial:
            raise ParameterRangeError("need 0 < step_final <= step_initial")
        if self.subset_strategy not in _STRATEGIES:
            raise ParameterRangeError(f"unknown subset strategy {self.subset_strategy!r}")
        if self.top_count < 1:
            raise ParameterRangeError("top_count must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        if not isinstance(data, dict) or set(data) - {f.name for f in fields(cls)}:
            raise ParameterRangeError(f"optimizer config must be an object of known fields, got {data!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, blob: str) -> "OptimizerConfig":
        return cls.from_dict(json.loads(blob))


@dataclass(frozen=True)
class ScanResult:
    """Bisection outcome: detection threshold with a certified bracket.

    The detector fires (exceeds the detection tolerance) at
    ``threshold + bracket_width`` and stays quiet at
    ``threshold - bracket_width``; ``evaluations`` counts detector
    calls.
    """

    threshold: float
    bracket_width: float
    evaluations: int

    def to_dict(self) -> dict:
        return asdict(self)


def _descend(stack: np.ndarray, idx, x, cfg: OptimizerConfig) -> np.ndarray:
    """Coordinate descent on rows x = (radii, phases) over the B matrices
    stack[idx]: updates x in place, returns its gaps. As in a one-row loop,
    a radius probe skips the rows whose clipped radius does not move."""
    m = idx.shape[1]

    def gaps(rows, xs):
        return _gaps(stack, idx[rows], xs[:, :m] * np.exp(1j * xs[:, m:]))

    val = gaps(slice(None), x)

    def probe(col, cand, rows):
        if rows.size:
            trial = x[rows]
            trial[:, col] = cand[rows]
            new = gaps(rows, trial)
            win = new > val[rows]
            x[rows[win], col] = cand[rows[win]]
            val[rows[win]] = new[win]

    decay = (cfg.step_final / cfg.step_initial) ** (1.0 / max(cfg.iterations - 1, 1))
    step = cfg.step_initial
    for _ in range(cfg.iterations):
        for s in range(m):
            for dr in (step, -step):
                cand = np.clip(x[:, s] + dr, 0.0, 1.0)
                probe(s, cand, np.flatnonzero(cand != x[:, s]))
            for dt in (2.0 * np.pi * step, -2.0 * np.pi * step):
                probe(m + s, (x[:, m + s] + dt) % (2.0 * np.pi), np.arange(len(x)))
        step *= decay
    return val


def _search(stack: np.ndarray, subsets, salts, cfg: OptimizerConfig):
    """Multi-restart coordinate descent over moduli and phases for every
    subset (equal-length index tuples into the B stack ``stack``) at once. Restart 0
    starts at all ones, restart j at a draw seeded by (j,) + salt.
    Returns coefficients (a row per subset, max modulus 1), their gaps,
    and per subset the nondecreasing best gap after each restart. All
    trajectories descend together; only ``_gaps`` splits them into blocks.

    One-operator subsets skip the search: the gap matrix of uJ is u times
    that of J, so its gap is |u|·Delta(J) and u = 1 is optimal; every
    restart would end at that gap."""
    idx = np.asarray(subsets, dtype=np.intp)
    n_sub, m = idx.shape
    if m == 1:
        coeffs = np.ones((n_sub, 1), dtype=complex)
        deltas = _gaps(stack, idx, coeffs)
        return coeffs, deltas, np.repeat(deltas[:, None], cfg.restarts, axis=1)
    x = np.zeros((n_sub, cfg.restarts, 2 * m))
    x[:, 0, :m] = 1.0
    for p, salt in enumerate(salts):
        for restart in range(1, cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,) + tuple(salt)))
            x[p, restart] = np.concatenate([rng.random(m), 2.0 * np.pi * rng.random(m)])
    x = x.reshape(-1, 2 * m)
    rows = np.repeat(idx, cfg.restarts, axis=0)
    val = _descend(stack, rows, x, cfg).reshape(n_sub, cfg.restarts)
    # argmax keeps the first of equal gaps, like a strict '>' over restarts.
    best = x.reshape(n_sub, cfg.restarts, 2 * m)[np.arange(n_sub), np.argmax(val, axis=1)]
    top = best[:, :m].max(axis=1)
    # Degenerate optimum; the all-ones vector is as good (delta 0).
    best[top <= 0.0] = np.repeat([1.0, 0.0], m)
    # Scaling u by 1/max|u| scales delta the same way and never shrinks
    # it, so the returned vector always touches the modulus cap.
    best[:, :m] /= np.where(top <= 0.0, 1.0, top)[:, None]
    coeffs = best[:, :m] * np.exp(1j * best[:, m:])
    return coeffs, _gaps(stack, idx, coeffs), np.maximum.accumulate(val, axis=1)


def _optimize_coefficients(basis: SupportBasis, ops, cfg: OptimizerConfig, salt: tuple[int, ...]):
    """One-subset search over ``ops``, framed alone: (coefficients, delta, per-restart best trace)."""
    coeffs, deltas, traces = _search(basis.frame(ops), [range(len(ops))], [salt], cfg)
    return coeffs[0], float(deltas[0]), traces[0].tolist()


def optimize_u(rho: DensityMatrix, gens: GeneratorSet, t_vec, cfg: OptimizerConfig):
    """Search coefficients for one subset; returns (u, delta).

    Deterministic for a fixed configuration. The result is never worse
    than the best sampled starting point and has max modulus 1.
    """
    rho = _check_state(rho)
    _check_dims_match(rho, gens)
    t = _check_subset(t_vec, gens.count)
    return _optimize_coefficients(rho._basis, gens.operators[list(t)], cfg, t)[:2]


def _optimize_aggregate(rho: DensityMatrix, mode: str, k, cfg: OptimizerConfig, ops, n: int) -> BoundReport:
    """The searched aggregate of every mode over its stacked families
    ``ops`` (N generators each): per split a pool of size-k subsets, then
    one search over all (split, subset) entries. "top_singletons" ranks
    each split's generators by their all-ones gaps, in one call. Seeds are
    salted by the subset, by (split,) + subset where a mode has several
    splits."""
    start = time.perf_counter()
    k = _check_k(k, n)
    stack, n_splits = rho._basis.stack(ops), len(_AGGREGATES[mode.split("-")[0]][2])
    pools = [list(combinations(range(n), k))] * n_splits
    if cfg.subset_strategy == "top_singletons":
        rows = _entry_rows(mode, [(s, (i,)) for s in range(n_splits) for i in range(n)], n)
        for s, g in enumerate(_gaps(stack, rows, np.ones(np.shape(rows))).reshape(n_splits, n)):
            top = sorted(range(n), key=lambda i: -g[i])[: max(cfg.top_count, k)]
            pools[s] = list(combinations(sorted(top), k))
    entries = [(s, t) for s, pool in enumerate(pools) for t in pool]
    salts = [t if n_splits == 1 else (s,) + t for s, t in entries]
    coeffs, gaps, _ = _search(stack, _entry_rows(mode, entries, n), salts, cfg)
    return _report(mode, k, n, entries, coeffs, gaps, start, cfg.to_dict())


def optimize_bound_bipartite(
    rho: DensityMatrix, k: int, cfg: OptimizerConfig, gens: GeneratorSet | None = None
) -> BoundReport:
    """Optimized subset-aggregated lower bound on C(rho)^2.

    Runs the coefficient search on every subset in the configured pool
    and aggregates the results; the returned report embeds the
    configuration and reproduces byte-identically for equal inputs.
    """
    rho = _check_state(rho)
    gens = _resolve_gens(rho, gens)
    return _optimize_aggregate(rho, "obs1", k, cfg, gens.operators, gens.count)


def optimize_bound_multipartite(
    rho: DensityMatrix, k: int, cfg: OptimizerConfig, mode: str = "obs2"
) -> BoundReport:
    """Optimized tripartite bound.

    ``mode`` selects the aggregate: "obs2" for the joint cross-split
    bound with canonical families, "obs2-ghz" / "obs2-w" for the
    one-operator example families, "obs3" for the split-wise bound.
    """
    rho = _check_state(rho)
    mode = str(mode).lower()
    if mode not in ("obs2", "obs2-ghz", "obs2-w", "obs3"):
        raise ParameterRangeError(f"unknown mode {mode!r}")
    # obs2 and obs3 both search the canonical families; obs2-ghz and
    # obs2-w the example operators.
    triple = _resolve_triple(rho, mode.partition("-")[2] or "canonical")
    return _optimize_aggregate(rho, mode, k, cfg, triple.operators, triple.count)


def threshold_scan(
    family,
    detector,
    p_lo: float,
    p_hi: float,
    tol_p: float = 1e-4,
    tol_detect: float = 1e-7,
) -> ScanResult:
    """Bisect for the smallest parameter where the detector fires.

    Parameters
    ----------
    family : callable
        p -> DensityMatrix along a one-parameter family.
    detector : callable
        DensityMatrix -> float; "fires" means the value exceeds
        ``tol_detect``. Assumed monotone across the scanned range.
    p_lo, p_hi : float
        Scan interval. The detector must fire at ``p_hi``; if it
        already fires at ``p_lo`` the threshold is reported there with
        a zero bracket.
    tol_p : float
        Target bracket size on the parameter, finite and positive.
    tol_detect : float
        Finite detection tolerance.

    Returns
    -------
    ScanResult
        Midpoint threshold with ``bracket_width`` half the final
        bracket: the detector fires at threshold + bracket_width and
        stays below tolerance at threshold - bracket_width.

    Raises
    ------
    ParameterRangeError
        If the interval or a tolerance is out of range.
    ThresholdNotDetectedError
        If the detector stays quiet at ``p_hi``.
    """
    # Bisection stops only once the bracket is at most tol_p, which a
    # bracket of adjacent floats never is for tol_p <= 0.
    if not (math.isfinite(tol_p) and tol_p > 0.0 and math.isfinite(tol_detect)):
        raise ParameterRangeError(f"need finite tol_p > 0 and finite tol_detect, got {tol_p}, {tol_detect}")
    p_lo, p_hi = float(p_lo), float(p_hi)
    if not p_lo < p_hi:
        raise ParameterRangeError(f"need p_lo < p_hi, got {p_lo} >= {p_hi}")
    evaluations = 0

    def fires(p: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        return float(detector(family(p))) > tol_detect

    if not fires(p_hi):
        raise ThresholdNotDetectedError(
            f"detector below tolerance at the upper end p = {p_hi}"
        )
    if fires(p_lo):
        return ScanResult(p_lo, 0.0, evaluations)
    lo, hi = p_lo, p_hi
    while hi - lo > tol_p:
        mid = 0.5 * (lo + hi)
        if fires(mid):
            hi = mid
        else:
            lo = mid
    return ScanResult(0.5 * (lo + hi), 0.5 * (hi - lo), evaluations)
