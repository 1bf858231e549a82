"""Coefficient search, subset aggregation, and threshold scans.

The gap delta is piecewise smooth in the coefficient moduli and phases, and
every evaluation is a valid lower bound, so a seeded multi-restart
sign-gradient ascent may stop anywhere. ``_search`` runs it for every subset
of a call at once, each (subset, restart) trajectory one row of ``_ascend``;
``_ascend`` and ``OptimizerConfig`` state its step, stop and race rules.
Only the rows of one subset read each other, so blocking the rows changes
nothing, and all randomness derives from one user-visible seed
(``_start``): the same configuration reproduces the same report, byte for
byte.

Every searched aggregate, obs1, obs2 and obs3 alike, takes one path,
``_optimize_aggregate``: the subset pool, the seed salts and the report
of (split, subset) entries, whose rows ``bounds_bipartite._entry_rows``
lays out. One triage keeps one-operator rows on their closed form, and
skips longer rows ``_lemma_zero`` or ``_sqrt_zero`` proves zero (delta 0).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from itertools import combinations, compress

import numpy as np

from . import bounds_bipartite
from .errors import ParameterRangeError, ThresholdNotDetectedError, _parse_json
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
from .generators import GeneratorSet
from .numerics import _ROUNDOFF, _SUPPORT_CUT
from .states import DensityMatrix, _check_state

DEFAULT_SEED = 1905

_STRATEGIES = ("exhaustive", "top_singletons")


@dataclass(frozen=True)
class OptimizerConfig:
    """Search knobs for the coefficient optimizer.

    ``restarts`` counts starting points per subset: the first is the
    deterministic all-ones vector, and restart j >= 1 of a subset of m
    coefficients starts at radii u and phases 2 pi v, with (u, v) =
    ``default_rng(SeedSequence(seed, spawn_key=(j,) + salt)).random(2m)``,
    the salt being the subset's indices, led by its split's index where a
    mode has several splits. Each restart takes at most ``iterations``
    steps, each coordinate by its own length: it starts at
    ``step_initial``; a kept move, one that raises the gap, grows (x1.5) the
    steps whose derivative kept its sign and shrinks (x0.3) the rest, a
    dropped move shrinks all; and the restart stops once its largest step is
    below ``step_final`` or its clipped trial is its point. From step
    max(10, iterations // 4) on, the restarts of a subset race: only
    restart 0, never retired, and the ceil(restarts / 2) best by current
    value keep climbing.
    One-coefficient subsets (k=1 in obs1 and obs3, or ``optimize_u`` on one
    index) are not searched: the unit coefficient is optimal, so
    ``restarts``, ``iterations``, ``seed`` and the steps do not change those
    bounds, though the report's ``config`` still records them.
    ``subset_strategy`` picks the subset pool for aggregated bounds:
    "exhaustive" enumerates all size-k subsets, "top_singletons" only
    combines the ``top_count`` generators with the largest gaps: their own
    at k = 1, and at k >= 2 the largest all-ones gap of a pair holding them,
    since on a PPT state every single gap of a library family is zero by the
    projection lemma.
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        if not isinstance(data, dict) or set(data) - {f.name for f in fields(cls)}:
            raise ParameterRangeError(f"optimizer config must be an object of known fields, got {data!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, blob: str) -> "OptimizerConfig":
        return cls.from_dict(_parse_json(json.loads, blob, "optimizer config"))


@dataclass(frozen=True)
class ScanResult:
    """Bisection outcome: detection threshold with a bracket.

    The detector fired (exceeded the detection tolerance) at the upper
    end of the final bracket and stayed quiet at the lower one,
    ``threshold - bracket_width``; between and beyond these evaluated
    points that holds only for a detector monotone to round-off, which
    the closed-form obs2-ghz one is not. ``evaluations`` counts
    detector calls.
    """

    threshold: float
    bracket_width: float
    evaluations: int

    def to_dict(self) -> dict:
        return asdict(self)


def _ascend(stack: np.ndarray, idx, x, cfg: OptimizerConfig, group: int) -> np.ndarray:
    """Projected sign-gradient ascent of the unclipped 2 sigma_1 - sum sigma on
    rows x = (radii, phases) over the B matrices stack[idx]: updates x in
    place, returns its gaps. Each coordinate steps by its own length along its
    derivative's sign, radii clip to [0, 1] (exactly onto optima at c_s = 0),
    and a row keeps a move only if its value strictly rises. A kept move grows
    (x1.5) the steps whose derivative kept its sign and shrinks (x0.3) the
    rest, damping zigzags; a dropped move shrinks all. A row stops once its
    largest step is below ``step_final``; once its clipped trial is its point,
    which, as any shorter step's would, scores its own value and leaves x; or
    once a trial from the apex (radii 0, value 0, phase derivatives 0) fails
    with a value at most -_ROUNDOFF times its largest radius: a failed move
    keeps x and the gradient and scales every step by 0.3, so the j-th later
    trial is 0.3^j times this one, and by Delta(t c) = t Delta(c) so is its
    value. Each run of ``group`` rows is one subset's restarts, restart 0
    first; from step T = max(10, iterations // 4) on, after every step, a
    subset keeps restart 0 and its ceil(group / 2) best rows by current value
    (a retired row at its final value, ties to the lower restart) and retires
    the rest. Rows run in blocks of the most whole subsets in ``_BLOCK_ROWS``
    rows (one at the least), each to its end, on compact arrays of its live
    rows, gathered once and shrunk (x written back) as rows retire."""
    m, out, race = idx.shape[1], np.empty(len(x)), max(10, cfg.iterations // 4)
    block = max(group, bounds_bipartite._BLOCK_ROWS // group * group)

    def climb(parts, xs):
        turn = np.exp(1j * xs[:, m:])
        val, g = bounds_bipartite._gap_kernel(parts, xs[:, :m] * turn, slope=True)
        g *= turn
        return val, np.sign(np.concatenate([g.real, -xs[:, :m] * g.imag], axis=1))

    for lo in range(0, len(x), block):
        pos = np.arange(lo, min(lo + block, len(x)))
        parts, xs = stack.reshape(-1, stack.shape[-1] ** 2)[idx[pos]], x[pos]
        (val, sign), step = climb(parts, xs), np.full(xs.shape, float(cfg.step_initial))
        for it in range(cfg.iterations):
            trial = sign * step + xs
            np.clip(trial[:, :m], 0.0, 1.0, out=trial[:, :m])
            keep = (step.max(axis=1) >= cfg.step_final) & (trial != xs).any(axis=1)
            if it >= race:
                out[pos] = val
                rank = np.argsort(np.argsort(-out[lo : lo + block].reshape(-1, group), axis=1, kind="stable"), axis=1)
                keep &= ((rank < -(-group // 2)) | (np.arange(group) == 0)).ravel()[pos - lo]
            if not keep.all():
                x[pos[~keep]], out[pos[~keep]] = xs[~keep], val[~keep]
                pos, parts, xs, val, sign, step, trial = (a[keep] for a in (pos, parts, xs, val, sign, step, trial))
                if not pos.size:
                    break
            new, new_sign = climb(parts, trial)
            win = new > val
            step *= np.where(win[:, None] & (new_sign == sign), 1.5, 0.3)
            # The apex's value is 0, so a trial at or below -_ROUNDOFF * its radius fails there.
            if (apex := ~xs[:, :m].any(axis=1)).any():
                step[apex & (new <= -_ROUNDOFF * trial[:, :m].max(axis=1))] = 0.0
            np.copyto(xs, trial, where=win[:, None])
            np.copyto(sign, new_sign, where=win[:, None])
            np.copyto(val, new, where=win)
        x[pos], out[pos] = xs, val
    return np.where(out > 0.0, out, 0.0)


@lru_cache(maxsize=2**14)
def _start(seed: int, spawn_key: tuple, m: int) -> np.ndarray:
    """The start at radii u and phases 2 pi v, (u, v) = default_rng(SeedSequence(seed, spawn_key)).random(2m);
    read-only, for 2^14 keys at most."""
    x = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key)).random(2 * m)
    x[m:] *= 2.0 * np.pi
    x.flags.writeable = False
    return x


def _search(stack: np.ndarray, subsets, salts, cfg: OptimizerConfig):
    """Multi-restart ascent for every subset (equal-length index tuples into
    the B stack ``stack``) at once. Restart 0 starts at all ones, restart j
    at ``_start`` seeded by (j,) + salt, and the restarts of a subset race
    (``_ascend``; restart 0 is never retired). Returns coefficients
    (a row per subset, max modulus 1), their gaps, and per subset the
    nondecreasing best gap after each restart, a retired one at its value at
    retirement.
    One-operator subsets skip the search: the gap of uJ is |u|·Delta(J), so
    u = 1 is optimal."""
    idx = np.asarray(subsets, dtype=np.intp)
    n_sub, m = idx.shape
    if m == 1:
        coeffs = np.ones((n_sub, 1), dtype=complex)
        deltas = _gaps(stack, idx, coeffs)
        return coeffs, deltas, np.repeat(deltas[:, None], cfg.restarts, axis=1)
    x = np.tile(np.repeat([1.0, 0.0], m), (n_sub, cfg.restarts, 1))
    starts = [_start(cfg.seed, (j,) + tuple(salt), m) for salt in salts for j in range(1, cfg.restarts)]
    x[:, 1:] = np.reshape(starts, (n_sub, -1, 2 * m))
    val = _ascend(stack, np.repeat(idx, cfg.restarts, axis=0), x.reshape(-1, 2 * m), cfg, cfg.restarts).reshape(n_sub, -1)
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


def _lemma_zero(rho: DensityMatrix, ops: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows into the stacked families ``ops`` (N each), of any length, the projection lemma proves
    zero at every coefficient. A row qualifies if it reads one family s whose operators all have S^{T_s} = -S
    (party s transposed), read from the matrices, so <psi|S|psi*> = 0 on product vectors across s versus the
    rest. Where rho^{T_s} is PSD up to eigvalsh round-off and the row's nonzero rows and columns span at most
    2x3 or 3x2 across s, its lambdas are those of P rho P, which stays PPT, and PPT on 2x3 or 3x2 is separable."""
    n, m, zero = ops.shape[-3], len(rho.dims), np.zeros(len(rows), dtype=bool)
    fams, (f, t) = ops.reshape((-1, n) + rho.dims * 2), np.divmod(rows, n)
    one = (f == f[:, :1]).all(axis=1)  # obs2's rows mix families
    for s in set(f[one, 0].tolist()):
        if not np.array_equal(np.swapaxes(fams[s], 1 + s, 1 + s + m), -fams[s]):
            continue
        w = rho._pt[s]
        on, nz = one & (f[:, 0] == s), fams[s].reshape(n, rho.dim, rho.dim) != 0
        support = np.moveaxis((nz.any(axis=1) | nz.any(axis=2)).reshape((n,) + rho.dims), 1 + s, 1).reshape(n, rho.dims[s], -1)
        a, b = (x[t[on]].any(axis=1).sum(axis=1) for x in (support.any(axis=2), support.any(axis=1)))
        zero[on] = (w[0] >= -_SUPPORT_CUT * rho.dim * np.abs(w).max()) & (np.minimum(a, b) <= 2) & (np.maximum(a, b) <= 3)
    return zero


def _sqrt_averages(rho: DensityMatrix, stack: np.ndarray) -> np.ndarray:
    """Each operator's average over the square-root ensemble sqrt(rho)|j>, weights <j|rho|j>:
    sum_j |A_jj|, A = sqrt(rho) S sqrt(rho)* = Q B Q^T, Q the support eigenvectors, B in ``stack``."""
    w, q = rho._eigh
    x = q[:, w.size - stack.shape[-1] :]
    return np.abs((x @ stack * x).sum(axis=-1)).sum(axis=-1).ravel()


def _sqrt_zero(rho: DensityMatrix, stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows into ``stack``, of any length, are zero at every coefficient: the gap of S is the
    infimum over ensembles of rho of sum_i p_i |<psi_i|S|psi_i*>| (Wootters; Uhlmann), so with |c_s| <= 1
    a row's is at most the sum of its ``_sqrt_averages``, zero within the support cut per modulus added."""
    w = rho._eigh[0]
    return _sqrt_averages(rho, stack)[rows].sum(axis=1) <= _SUPPORT_CUT * w.size * w[-1] * rows.shape[1] * w.size


def _optimize_aggregate(rho: DensityMatrix, mode: str, k, cfg: OptimizerConfig, ops) -> BoundReport:
    """The searched aggregate of every mode over its stacked families ``ops`` (N generators each), framed
    once for the call: per split a pool of size-k subsets, then one search over the (split, subset) entries
    ``triage`` keeps, the rest at delta 0 and all-ones coefficients. It keeps all rows of one operator, whose
    closed form ``_search`` returns round-off and all (a certificate would zero it, moving report bytes), and
    else those neither ``_lemma_zero`` nor ``_sqrt_zero`` proves zero. "top_singletons" ranks each split's
    generators by their all-ones gaps at k = 1, at k >= 2 by the largest of a pair holding them (0 for pairs
    proved zero). Seeds are salted by the subset, by (split,) + subset where a mode has several splits."""
    start, n = time.perf_counter(), ops.shape[-3]
    k, cfg = _check_k(k, n), _check_config(cfg)
    stack, n_splits = rho._frame(ops), len(_AGGREGATES[mode][2])
    pools = [list(combinations(range(n), k))] * n_splits

    def triage(entries):
        rows = np.array(_entry_rows(mode, entries, n))
        return rows, np.ones(len(rows), bool) if rows.shape[1] == 1 else ~(_lemma_zero(rho, ops, rows) | _sqrt_zero(rho, stack, rows))

    if cfg.subset_strategy == "top_singletons":
        cands = [(s, t) for s in range(n_splits) for t in combinations(range(n), min(k, 2))]
        rows, keep = triage(cands)
        cands, rows, score = list(compress(cands, keep)), rows[keep], np.zeros((n_splits, n))
        for (s, t), g in zip(cands, _gaps(stack, rows, np.ones(rows.shape))):
            score[s, list(t)] = np.maximum(score[s, list(t)], g)
        for s, g in enumerate(score):
            top = sorted(range(n), key=lambda i: -g[i])[: max(cfg.top_count, k)]
            pools[s] = list(combinations(sorted(top), k))
    entries = [(s, t) for s, pool in enumerate(pools) for t in pool]
    salts = [t if n_splits == 1 else (s,) + t for s, t in entries]
    rows, live = triage(entries)
    coeffs, gaps = np.ones(rows.shape, dtype=complex), np.zeros(len(entries))
    if live.any():
        coeffs[live], gaps[live], _ = _search(stack, rows[live], list(compress(salts, live)), cfg)
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
    # Each tripartite row names the triple it searches; obs1's names none.
    source = _AGGREGATES.get(mode, (None,) * 4)[3]
    if source is None:
        raise ParameterRangeError(f"unknown mode {mode!r}")
    return _optimize_aggregate(rho, mode, k, cfg, _resolve_triple(rho, source).operators)


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
        p -> state along a one-parameter family: a DensityMatrix, or anything the detector reads.
    detector : callable
        state -> float; "fires" means the value exceeds
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
        bracket, whose two ends were evaluated: the detector fired at
        the upper one and stayed below tolerance at the lower one (see
        ScanResult). A bracket of two adjacent floats has no float
        midpoint: the threshold is then the upper one, the smallest
        float that fires, and ``bracket_width`` their spacing.

    Raises
    ------
    ParameterRangeError
        If the interval or a tolerance is out of range.
    ThresholdNotDetectedError
        If the detector stays quiet at ``p_hi``.
    """
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
    # Bisection stops once the bracket is at most tol_p, or once no float lies
    # strictly inside it, where a tol_p below the float spacing ends.
    while hi - lo > tol_p:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return ScanResult(hi, hi - lo, evaluations)
        if fires(mid):
            hi = mid
        else:
            lo = mid
    return ScanResult(0.5 * (lo + hi), 0.5 * (hi - lo), evaluations)
