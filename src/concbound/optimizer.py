"""Coefficient search, subset aggregation, and threshold scans.

The gap delta is piecewise smooth in the coefficient moduli and phases,
and every evaluation is a valid lower bound, so a seeded multi-restart
sign-gradient ascent may stop anywhere. Every (subset, restart)
trajectory of a call is one row, and each step is one stacked SVD with
vectors over the live rows, which gives their values and gradients. A
row never reads another, so blocking the rows changes nothing, and all
randomness derives from one user-visible seed: the same configuration
reproduces the same report, byte for byte.

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
    _check_k,
    _check_subset,
    _entry_rows,
    _gaps,
    _report,
    _resolve_gens,
)
from .bounds_multipartite import _resolve_triple
from .generators import _EXAMPLES, GeneratorSet
from .states import DensityMatrix, _check_state

DEFAULT_SEED = 1905

_STRATEGIES = ("exhaustive", "top_singletons")


@dataclass(frozen=True)
class OptimizerConfig:
    """Search knobs for the coefficient optimizer.

    ``restarts`` counts starting points per subset: the first is the
    deterministic all-ones vector, the rest are seeded random draws.
    Each restart takes at most ``iterations`` steps, each coordinate by
    its own length: it starts at ``step_initial``, grows after a step
    that raises the gap and shrinks otherwise, and the restart stops once
    its largest step is below ``step_final``. One-coefficient subsets (k=1 in obs1 and obs3, or
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


def _ascend(stack: np.ndarray, idx, x, cfg: OptimizerConfig) -> np.ndarray:
    """Projected sign-gradient ascent of the unclipped 2 sigma_1 - sum sigma
    on rows x = (radii, phases) over the B matrices stack[idx]: updates x in
    place, returns its gaps. Each coordinate steps by its own length along
    its derivative's sign, radii clip to [0, 1] (exactly onto optima at
    c_s = 0), and a row keeps a move only if its value strictly rises. A
    kept move grows (x1.5) the steps whose derivative kept its sign and
    shrinks (x0.3) the rest, damping zigzags across ridges; a dropped move
    shrinks all. A row stops once its largest step is below ``step_final``."""
    m = idx.shape[1]

    def climb(rows, xs):
        turn = np.exp(1j * xs[:, m:])
        val, g = _gaps(stack, idx[rows], xs[:, :m] * turn, slope=True)
        g = g * turn
        return val, np.concatenate([g.real, -xs[:, :m] * g.imag], axis=1)

    val, grad = climb(slice(None), x)
    step, live = np.full(x.shape, float(cfg.step_initial)), np.arange(len(x))
    for _ in range(cfg.iterations):
        live = live[step[live].max(axis=1) >= cfg.step_final]
        if not live.size:
            break
        trial = x[live] + step[live] * np.sign(grad[live])
        trial[:, :m] = np.clip(trial[:, :m], 0.0, 1.0)
        new, new_grad = climb(live, trial)
        win = new > val[live]
        step[live] *= np.where(win[:, None] & (np.sign(new_grad) == np.sign(grad[live])), 1.5, 0.3)
        x[live[win]], val[live[win]], grad[live[win]] = trial[win], new[win], new_grad[win]
    return np.where(val > 0.0, val, 0.0)


def _search(stack: np.ndarray, subsets, salts, cfg: OptimizerConfig):
    """Multi-restart ascent for every subset (equal-length index tuples into
    the B stack ``stack``) at once. Restart 0 starts at all ones, restart j
    at a draw seeded by (j,) + salt. Returns coefficients (a row per
    subset, max modulus 1), their gaps, and per subset the nondecreasing
    best gap after each restart. One-operator subsets skip the search: the
    gap of uJ is |u|·Delta(J), so u = 1 is optimal."""
    idx = np.asarray(subsets, dtype=np.intp)
    n_sub, m = idx.shape
    if m == 1:
        coeffs = np.ones((n_sub, 1), dtype=complex)
        deltas = _gaps(stack, idx, coeffs)
        return coeffs, deltas, np.repeat(deltas[:, None], cfg.restarts, axis=1)
    x = np.tile(np.repeat([1.0, 0.0], m), (n_sub, cfg.restarts, 1))
    for p, salt in enumerate(salts):
        for restart in range(1, cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,) + tuple(salt)))
            x[p, restart] = np.concatenate([rng.random(m), 2.0 * np.pi * rng.random(m)])
    val = _ascend(stack, np.repeat(idx, cfg.restarts, axis=0), x.reshape(-1, 2 * m), cfg).reshape(n_sub, -1)
    # argmax keeps the first of equal gaps, like a strict '>' over restarts;
    # where none is positive, the all-ones start is as good (delta 0).
    best = x[np.arange(n_sub), np.argmax(val, axis=1)]
    best[val.max(axis=1) <= 0.0] = np.repeat([1.0, 0.0], m)
    # u / max|u| scales delta by 1 / max|u| >= 1 and touches the modulus cap.
    coeffs = best[:, :m] / best[:, :m].max(axis=1, keepdims=True) * np.exp(1j * best[:, m:])
    return coeffs, _gaps(stack, idx, coeffs), np.maximum.accumulate(val, axis=1)


def _check_config(cfg) -> OptimizerConfig:
    """The one check of a search configuration: anything but an OptimizerConfig to TypeError."""
    if not isinstance(cfg, OptimizerConfig):
        raise TypeError(f"expected an OptimizerConfig, got {type(cfg).__name__}")
    return cfg


def optimize_u(rho: DensityMatrix, gens: GeneratorSet | None, t_vec, cfg: OptimizerConfig):
    """Search coefficients for one subset; returns (u, delta).

    Deterministic for a fixed configuration. The result is never worse
    than the best sampled starting point and has max modulus 1. ``gens``
    None means the product family of a bipartite state.
    """
    rho = _check_state(rho)
    gens = _resolve_gens(rho, gens)
    t = _check_subset(t_vec, gens.count)
    coeffs, deltas, _ = _search(rho._frame(gens.operators[list(t)]), [range(len(t))], [t], _check_config(cfg))
    return coeffs[0], float(deltas[0])


def _optimize_aggregate(rho: DensityMatrix, mode: str, k, cfg: OptimizerConfig, ops) -> BoundReport:
    """The searched aggregate of every mode over its stacked families
    ``ops`` (N generators each), framed once for the call: per split a pool
    of size-k subsets, then one search over all (split, subset) entries. "top_singletons" ranks
    each split's generators by their all-ones gaps, in one call. Seeds are
    salted by the subset, by (split,) + subset where a mode has several
    splits."""
    start, n = time.perf_counter(), ops.shape[-3]
    k, cfg = _check_k(k, n), _check_config(cfg)
    stack, n_splits = rho._frame(ops), len(_AGGREGATES[mode.split("-")[0]][2])
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
    return _optimize_aggregate(rho, "obs1", k, cfg, gens.operators)


def optimize_bound_multipartite(
    rho: DensityMatrix, k: int, cfg: OptimizerConfig, mode: str = "obs2"
) -> BoundReport:
    """Optimized tripartite bound.

    ``mode`` selects the aggregate: "obs2" for the joint cross-split
    bound with canonical families, "obs2-<family>" ("obs2-ghz", "obs2-w")
    for the one-operator example families, "obs3" for the split-wise bound.
    """
    rho = _check_state(rho)
    mode = str(mode).lower()
    if mode not in ("obs2", "obs3", *(f"obs2-{family}" for family in _EXAMPLES)):
        raise ParameterRangeError(f"unknown mode {mode!r}")
    # obs2 and obs3 both search the canonical families; obs2-<family>
    # the example operators.
    triple = _resolve_triple(rho, mode.partition("-")[2] or "canonical")
    return _optimize_aggregate(rho, mode, k, cfg, triple.operators)


def _check_tol_detect(tol: float) -> None:
    """The one check of a detection tolerance: below 0 it certifies separable states."""
    if not 0.0 <= tol < math.inf:
        raise ParameterRangeError(f"tol_detect must be finite and nonnegative, got {tol}")


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
        Detection tolerance, finite and nonnegative.

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
    _check_tol_detect(tol_detect)
    if not (math.isfinite(tol_p) and tol_p > 0.0):
        raise ParameterRangeError(f"need finite tol_p > 0, got {tol_p}")
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
