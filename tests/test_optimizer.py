"""Optimizer, subset strategy, and threshold-scan checks."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from concbound import bounds_bipartite, optimizer
from concbound.errors import DimensionMismatchError, ParameterRangeError, SubsetSizeError, ThresholdNotDetectedError
from concbound.bounds_bipartite import (
    delta_k,
    delta_total_bound,
    lambda_spectrum,
    observation1_bound,
    ppt_min_eigenvalue,
    wootters_concurrence,
)
from concbound.bounds_multipartite import delta_tot_k, observation2_bound, observation3_bound
from concbound.generators import bipartite_generators, canonical_triple, tripartite_generators
from concbound.optimizer import (
    DEFAULT_SEED,
    OptimizerConfig,
    ScanResult,
    optimize_bound_bipartite,
    optimize_bound_multipartite,
    optimize_u,
    threshold_scan,
)
from concbound.states import (
    bell_state,
    ghz_state,
    horodecki_state,
    maximally_mixed,
    random_density,
    w_state,
    white_noise_mix,
)

FAST = OptimizerConfig(restarts=3, iterations=25)


def _gap(b: np.ndarray) -> float:
    """The clipped gap of one matrix by its own SVD: the engine's reference."""
    lam = np.linalg.svd(b, compute_uv=False)
    return max(0.0, 2.0 * float(lam[0]) - float(np.sum(lam)))


def _search_one(rho, ops, cfg, salt):
    """One-subset search over ``ops``, framed alone: (coefficients, delta, per-restart best trace)."""
    coeffs, deltas, traces = optimizer._search(rho._frame(ops), [range(len(ops))], [salt], cfg)
    return coeffs[0], float(deltas[0]), traces[0].tolist()


def ghz_family(p):
    return white_noise_mix(ghz_state().density(), p)


def w_family(p):
    return white_noise_mix(w_state().density(), p)


def ghz_detector(rho):
    rep = observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])}, "ghz")
    return rep.bound_on_c_squared


def w_detector(rho):
    rep = observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])}, "w")
    return rep.bound_on_c_squared


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 32
        assert cfg.iterations == 200
        assert cfg.subset_strategy == "exhaustive"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"iterations": 0},
            {"step_initial": 1e-5, "step_final": 1e-4},
            {"step_final": 0.0},
            {"subset_strategy": "simulated_annealing"},
            {"top_count": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"restarts": 2**63},
            {"restarts": 10**20},
            {"restarts": 1.5},
            {"restarts": True},
            {"iterations": True},
            {"iterations": 7.0},
            {"seed": 3.0},
            {"seed": "5"},
            {"top_count": 2.5},
            {"step_initial": float("nan")},
            {"step_initial": float("inf"), "step_final": 1.0},
            {"step_final": "0.01"},
            {"step_final": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterRangeError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("data", [{"foo": 1}, {"restarts": 2, "iters": 5}, [1], "restarts", None])
    def test_from_dict_rejects_unknown_fields_and_non_objects(self, data):
        with pytest.raises(ParameterRangeError):
            OptimizerConfig.from_dict(data)

    @pytest.mark.parametrize("bad", [None, {"restarts": 2}, "restarts=2"], ids=["none", "dict", "str"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda cfg: optimize_u(horodecki_state(0.3), bipartite_generators(3, 3), (4,), cfg),
            lambda cfg: optimize_bound_bipartite(horodecki_state(0.3), 1, cfg),
            lambda cfg: optimize_bound_multipartite(w_state(), 1, cfg, "obs3"),
        ],
        ids=["optimize_u", "optimize_bound_bipartite", "optimize_bound_multipartite"],
    )
    def test_optimizers_reject_a_non_config(self, call, bad):
        # Each used to escape as an AttributeError on the first field read.
        with pytest.raises(TypeError, match="OptimizerConfig"):
            call(bad)

    def test_integral_steps_are_accepted(self):
        assert OptimizerConfig(step_initial=1, step_final=1).step_initial == 1

    def test_from_json_maps_a_nest_deeper_than_python_recurses(self):
        with pytest.raises(ParameterRangeError, match="nested too deeply"):
            OptimizerConfig.from_json("[" * 5000 + "]" * 5000)

    def test_json_roundtrip(self):
        cfg = OptimizerConfig(restarts=5, iterations=10, seed=99, subset_strategy="top_singletons")
        assert OptimizerConfig.from_json(cfg.to_json()) == cfg


class TestOptimizeU:
    def test_werner_reaches_exact_gap(self):
        gens = bipartite_generators(2, 2)
        for p in (0.5, 0.9):
            rho = white_noise_mix(bell_state().density(), p)
            u, delta = optimize_u(rho, gens, (0,), FAST)
            assert abs(delta - (3.0 * p - 1.0) / 2.0) < 1e-9
            assert abs(np.max(np.abs(u)) - 1.0) < 1e-12

    def test_returned_delta_matches_returned_u(self):
        gens = bipartite_generators(3, 3)
        rho = white_noise_mix(horodecki_state(0.5), 0.9)
        u, delta = optimize_u(rho, gens, (2, 4, 8), FAST)
        assert abs(delta_k(rho, gens, (2, 4, 8), u) - delta) < 1e-12

    def test_deterministic(self):
        gens = bipartite_generators(3, 3)
        rho = horodecki_state(0.3)
        a = optimize_u(rho, gens, (4, 8), FAST)
        b = optimize_u(rho, gens, (4, 8), FAST)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_trace_is_monotone_and_beats_all_ones(self):
        gens = bipartite_generators(3, 3)
        rho = white_noise_mix(horodecki_state(0.2), 0.95)
        ops = np.stack([gens.operators[i] for i in (1, 5)])
        cfg = OptimizerConfig(restarts=6, iterations=30)
        _, delta, trace = _search_one(rho, ops, cfg, (1, 5))
        assert len(trace) == cfg.restarts
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        all_ones = delta_k(rho, gens, (1, 5), [1.0, 1.0])
        assert delta >= all_ones - 1e-12

    @pytest.mark.parametrize("subset", [(99,), (), (4, 4), (8, 4), (-1,)])
    def test_rejects_invalid_subsets(self, subset):
        with pytest.raises(SubsetSizeError):
            optimize_u(horodecki_state(0.3), bipartite_generators(3, 3), subset, FAST)

    def test_rejects_generators_of_other_dims(self):
        with pytest.raises(DimensionMismatchError):
            optimize_u(bell_state().density(), bipartite_generators(3, 3), (0,), FAST)


def _reference_descent(rho, ops, cfg, salt):
    """One subset, one restart at a time: the coordinate descent that the
    gradient search replaced, kept verbatim as its floor oracle. Each gap
    is one SVD of the coefficient sum over the state's gap matrices of
    ``ops``."""
    stack = rho._frame(ops)

    def delta_of(radii, phases):
        coeffs = radii * np.exp(1j * phases)
        return _gap(np.tensordot(coeffs, stack, axes=1))

    m = len(ops)
    decay = (cfg.step_final / cfg.step_initial) ** (
        1.0 / (cfg.iterations - 1) if cfg.iterations > 1 else 1.0
    )
    best_r = np.ones(m)
    best_t = np.zeros(m)
    best_val = -1.0
    trace = []
    for restart in range(cfg.restarts):
        if restart == 0:
            radii = np.ones(m)
            phases = np.zeros(m)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(restart,) + salt)
            )
            radii = rng.random(m)
            phases = 2.0 * np.pi * rng.random(m)
        val = delta_of(radii, phases)
        step = cfg.step_initial
        for _ in range(cfg.iterations):
            for s in range(m):
                for dr in (step, -step):
                    cand = float(np.clip(radii[s] + dr, 0.0, 1.0))
                    if cand == radii[s]:
                        continue
                    old = radii[s]
                    radii[s] = cand
                    new_val = delta_of(radii, phases)
                    if new_val > val:
                        val = new_val
                    else:
                        radii[s] = old
                for dt in (2.0 * np.pi * step, -2.0 * np.pi * step):
                    old = phases[s]
                    phases[s] = (old + dt) % (2.0 * np.pi)
                    new_val = delta_of(radii, phases)
                    if new_val > val:
                        val = new_val
                    else:
                        phases[s] = old
            step *= decay
        if val > best_val:
            best_val = val
            best_r = radii.copy()
            best_t = phases.copy()
        trace.append(best_val)
    top = float(np.max(best_r))
    if top <= 0.0:
        best_r = np.ones(m)
        best_t = np.zeros(m)
        top = 1.0
    radii = best_r / top
    return radii * np.exp(1j * best_t), delta_of(radii, best_t), trace


def _one_row_at_a_time(rho, ops, cfg, salt):
    """The search with each (subset, restart) trajectory climbing alone:
    the start the search seeds for each restart goes through
    ``optimizer._ascend`` as a one-row array, a strict '>' over restarts
    keeps the best, and one SVD of the coefficient sum gives its gap."""
    stack = rho._frame(ops)
    m = len(ops)
    if m == 1:
        delta = _gap(stack[0])
        return np.ones(1, dtype=complex), delta, [delta] * cfg.restarts
    best, best_val, trace = np.repeat([1.0, 0.0], m), 0.0, []
    for restart in range(cfg.restarts):
        x = np.repeat([[1.0, 0.0]], m, axis=1)
        if restart:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,) + salt))
            x[0] = np.concatenate([rng.random(m), 2.0 * np.pi * rng.random(m)])
        val = float(optimizer._ascend(stack, np.arange(m)[None, :], x, cfg, 1)[0])
        if val > best_val:
            best, best_val = x[0], val
        trace.append(best_val)
    u = best[:m] / best[:m].max() * np.exp(1j * best[m:])
    return u, _gap(np.tensordot(u, stack, axes=1)), trace


def _assert_bitwise_equal(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()


def _raw_value(b):
    """2 sigma_1 - sum sigma of one matrix, unclipped."""
    lam = np.linalg.svd(b, compute_uv=False)
    return 2.0 * lam[0] - lam.sum()


class TestSeededStarts:
    """The search's seeded starts are ``default_rng(SeedSequence(...)).random``'s
    draws, bit for bit."""

    @pytest.mark.parametrize("m", range(2, 10))
    def test_starts_are_the_generators_draws(self, m, monkeypatch):
        starts, ascend = [], optimizer._ascend
        monkeypatch.setattr(optimizer, "_ascend", lambda stack, idx, x, cfg, group: starts.append(x.copy()) or ascend(stack, idx, x, cfg, group))
        rho = random_density((4, 4), 16, seed=m)
        stack = rho._frame(bipartite_generators(4, 4).operators[: m + 1])
        subsets, salts = [tuple(range(m)), tuple(range(1, m + 1))], [(m, 0, 7), (2,)]
        for seed in (0, DEFAULT_SEED, 2**64 - 1):
            optimizer._search(stack, subsets, salts, OptimizerConfig(restarts=4, iterations=1, seed=seed))
            want = [np.repeat([1.0, 0.0], m)]
            for salt in salts:
                for restart in range(1, 4):
                    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,) + salt))
                    want.append(np.concatenate([rng.random(m), 2.0 * np.pi * rng.random(m)]))
            want = np.array([want[0], *want[1:4], want[0], *want[4:]])
            assert starts.pop().tobytes() == want.tobytes()

    def test_draws_are_memoized_read_only_and_bounded(self):
        for seed, key in ((0, (1,)), (DEFAULT_SEED, (3, 0, 4)), (2**64 - 1, (31, 2, 7, 8)), (7, (1, np.int64(5)))):
            start = optimizer._start(seed, key, 3)
            u, v = np.split(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).random(6), 2)
            want = np.concatenate([u, 2.0 * np.pi * v])
            assert start.tobytes() == want.tobytes()
            assert optimizer._start(seed, key, 3) is start and not start.flags.writeable
            with pytest.raises(ValueError):
                start[0] = 0
        assert 0 < optimizer._start.cache_info().maxsize <= 2**14

    def test_a_repeated_search_seeds_no_sequence(self, monkeypatch):
        seeded, sequence = [], np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", lambda *args, **kwargs: seeded.append(args) or sequence(*args, **kwargs))
        stack = random_density((3, 3), 4, seed=1)._frame(_GENS33)
        # A seed no other test searches with, so the first search draws afresh.
        cfg = OptimizerConfig(restarts=3, iterations=2, seed=3_141_592)
        first = optimizer._search(stack, _PAIRS[:5], _PAIRS[:5], cfg)
        assert len(seeded) == 10
        again = optimizer._search(stack, _PAIRS[:5], _PAIRS[:5], cfg)
        assert len(seeded) == 10 and all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


class TestLockstepEngine:
    """Every (subset, restart) trajectory of a search climbs in lockstep
    as one row. Until a subset's restarts race (after 10 steps at the
    least, see ``TestRace``) no row reads another, so up to 10 iterations
    the batch reproduces trajectories run one at a time, bit for bit. The
    retired coordinate descent is the floor: where the budget does not
    limit the result, the gradient search is never below it."""

    GENS = bipartite_generators(3, 3)

    def _parts(self, subset, rho):
        return rho, np.stack([self.GENS.operators[i] for i in subset])

    @pytest.mark.parametrize("subset", [(4,), (4, 8), (1, 5, 7)])
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("iterations", [1, 7])
    def test_matches_sequential_descent(self, subset, restarts, iterations):
        rho, ops = self._parts(subset, white_noise_mix(horodecki_state(0.3), 0.9))
        cfg = OptimizerConfig(restarts=restarts, iterations=iterations)
        want = _one_row_at_a_time(rho, ops, cfg, subset)
        _assert_bitwise_equal(_search_one(rho, ops, cfg, subset), want)

    def test_matches_where_radii_clip_at_zero_and_one(self):
        # On noisy W the 1|23 pair (0, 2) peaks at c = (1, 0), on a kink
        # that only a radius clipped at 0 reaches exactly.
        rho = white_noise_mix(w_state().density(), 0.5)
        ops = tripartite_generators(2, 0).operators[[0, 2]]
        cfg = OptimizerConfig(restarts=3, iterations=7, step_initial=0.9, step_final=0.05)
        want = _one_row_at_a_time(rho, ops, cfg, (0, 2))
        got = _search_one(rho, ops, cfg, (0, 2))
        _assert_bitwise_equal(got, want)
        assert sorted(np.abs(got[0])) == [0.0, 1.0]
        assert got[1] >= _reference_descent(rho, ops, cfg, (0, 2))[1] * (1.0 - 1e-12)

    def test_multipartite_stack_matches_sequential_descent(self):
        # The obs2 k=1 subset (0,) of noisy W: m = 3, one operator per split.
        rho = white_noise_mix(w_state().density(), 0.5)
        ops = np.stack([tripartite_generators(2, s).operators[0] for s in range(3)])
        # Restarts run one at a time do not race, so the two agree bit for bit
        # only up to 10 iterations; the floor holds at every budget.
        for cfg in (OptimizerConfig(restarts=3, iterations=7), OptimizerConfig(restarts=2, iterations=10), OptimizerConfig(restarts=2, iterations=20)):
            got = _search_one(rho, ops, cfg, (0,))
            if cfg.iterations <= 10:
                _assert_bitwise_equal(got, _one_row_at_a_time(rho, ops, cfg, (0,)))
            floor = _reference_descent(rho, ops, cfg, (0,))[1]
            assert floor > 0.5
            assert got[1] >= floor * (1.0 - 1e-12)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("restarts, iterations", [(2, 20), (3, 25)])
    def test_never_below_coordinate_descent(self, a, restarts, iterations):
        # Pair (4, 8) is the one detecting pair of the Horodecki states.
        rho, ops = self._parts((4, 8), horodecki_state(a))
        cfg = OptimizerConfig(restarts=restarts, iterations=iterations)
        floor = _reference_descent(rho, ops, cfg, (4, 8))[1]
        assert floor > 1e-3
        assert _search_one(rho, ops, cfg, (4, 8))[1] >= floor * (1.0 - 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_below_all_ones(self, seed):
        rng = np.random.default_rng(seed)
        rho = white_noise_mix(random_density((3, 3), 2 + seed, seed=seed), 0.9)
        cfg = OptimizerConfig(restarts=2, iterations=10)
        for m in (2, 3):
            subset = tuple(sorted(rng.choice(9, m, replace=False).tolist()))
            start = delta_k(rho, self.GENS, subset, np.ones(m))
            got = _search_one(rho, self.GENS.operators[list(subset)], cfg, subset)[1]
            assert got >= start * (1.0 - 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_central_differences(self, seed):
        # d(value) = Re(sum_s g_s dc_s), so a step h along e_s moves it by
        # h Re(g_s) and a step ih by -h Im(g_s).
        rng = np.random.default_rng(seed)
        cases = [
            (random_density((3, 3), 5, seed=seed), self.GENS.operators[[1, 4, 8]]),
            (white_noise_mix(w_state().density(), 0.6), canonical_triple(2).operators[:, [0, seed + 1]].reshape(6, 8, 8)),
        ]
        for rho, ops in cases:
            stack, m, h = rho._frame(ops), len(ops), 1e-6
            c = rng.random(m) * np.exp(2j * np.pi * rng.random(m))
            val, grad = bounds_bipartite._gap_kernel(stack.reshape(1, m, -1), c[None], slope=True)
            assert val[0] == pytest.approx(_raw_value(np.tensordot(c, stack, axes=1)), abs=1e-12)
            for s in range(m):
                for unit, want in ((1.0, grad[0, s].real), (1j, -grad[0, s].imag)):
                    dc = np.zeros(m, dtype=complex)
                    dc[s] = unit * h
                    up, down = (_raw_value(np.tensordot(c + sign * dc, stack, axes=1)) for sign in (1, -1))
                    assert (up - down) / (2 * h) == pytest.approx(want, abs=1e-6)

    def test_reports_do_not_depend_on_block_size(self, monkeypatch):
        cfg = OptimizerConfig(restarts=3, iterations=8)
        rho3 = white_noise_mix(w_state().density(), 0.9)

        def reports():
            return (
                optimize_bound_bipartite(horodecki_state(0.2), 2, cfg).to_json(include_timing=False),
                optimize_bound_multipartite(rho3, 1, cfg, "obs3").to_json(include_timing=False),
                optimize_bound_multipartite(rho3, 2, cfg, "obs2").to_json(include_timing=False),
            )

        whole = reports()
        monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", 5)
        assert reports() == whole

    @pytest.mark.parametrize("mode", ["obs1", "obs2", "obs3"])
    def test_each_entry_is_its_own_search(self, mode):
        # Entry (s, t) searches the operators at rows t (obs1), t, N+t,
        # 2N+t (obs2) or s*N+t (obs3), salted by t, or by (s,) + t in obs3.
        cfg = OptimizerConfig(restarts=3, iterations=6)
        if mode == "obs1":
            rho = white_noise_mix(horodecki_state(0.3), 0.9)
            rep, ops = optimize_bound_bipartite(rho, 2, cfg), self.GENS.operators
        else:
            rho = white_noise_mix(w_state().density(), 0.8)
            rep, ops = optimize_bound_multipartite(rho, 2, cfg, mode), canonical_triple(2).operators
        flat, n = ops.reshape((-1,) + ops.shape[-2:]), rep.n_generators
        for e in rep.per_subset:
            s = ("1|23", "2|13", "3|12").index(e.split) if mode == "obs3" else 0
            rows = [(s + j) * n + i for j in range(3 if mode == "obs2" else 1) for i in e.subset]
            salt = (s,) + e.subset if mode == "obs3" else e.subset
            u, delta, _ = _search_one(rho, flat[rows], cfg, salt)
            assert np.concatenate([np.array(c) for c in e.coefficients.values()]).tobytes() == u.tobytes()
            assert np.float64(e.delta).tobytes() == np.float64(delta).tobytes()

    def test_subset_size_outside_range(self):
        with pytest.raises(SubsetSizeError):
            optimize_bound_bipartite(horodecki_state(0.2), 0, FAST)
        with pytest.raises(SubsetSizeError):
            optimize_bound_multipartite(ghz_state().density(), 2, FAST, "obs2-ghz")


_ASCEND = optimizer._ascend


def _ascend_unraced(stack, idx, x, cfg, group):
    """``optimizer._ascend`` with every row its own one-restart subset, so no row races."""
    return _ASCEND(stack, idx, x, cfg, 1)


def _ascend_to_step_final(stack, idx, x, cfg, group=1, history=None):
    """``optimizer._ascend`` without the apex stop, without the stop on a trial
    that cannot move its row, and without the race (every row is its own
    one-restart subset, whatever ``group``): a row ends only once its largest
    step is below ``step_final``, kept verbatim as the oracle the stops must
    match bit for bit. A list ``history`` gets (values, x) at the start and
    after each step that runs."""
    m, flat = idx.shape[1], stack.reshape(-1, stack.shape[-1] ** 2)

    def climb(rows, xs):
        turn = np.exp(1j * xs[:, m:])
        val, g = bounds_bipartite._gap_kernel(flat[idx[rows]], xs[:, :m] * turn, slope=True)
        g = g * turn
        return val, np.concatenate([g.real, -xs[:, :m] * g.imag], axis=1)

    val, grad = climb(slice(None), x)
    step, live = np.full(x.shape, float(cfg.step_initial)), np.arange(len(x))
    for _ in range(cfg.iterations):
        if history is not None:
            history.append((val.copy(), x.copy()))
        live = live[step[live].max(axis=1) >= cfg.step_final]
        if not live.size:
            break
        trial = x[live] + step[live] * np.sign(grad[live])
        trial[:, :m] = np.clip(trial[:, :m], 0.0, 1.0)
        new, new_grad = climb(live, trial)
        win = new > val[live]
        step[live] *= np.where(win[:, None] & (np.sign(new_grad) == np.sign(grad[live])), 1.5, 0.3)
        x[live[win]], val[live[win]], grad[live[win]] = trial[win], new[win], new_grad[win]
    if history is not None:
        history.append((val.copy(), x.copy()))
    return np.where(val > 0.0, val, 0.0)


_PAIRS = list(combinations(range(9), 2))
_GENS33 = bipartite_generators(3, 3).operators


def _w_obs2_k1(p):
    """Noisy W with the obs2 k=1 rows: one operator per split and subset."""
    ops = canonical_triple(2).operators
    n = ops.shape[1]
    return white_noise_mix(w_state().density(), p), ops, bounds_bipartite._entry_rows("obs2", [(0, (t,)) for t in range(n)], n)


# PPT, white-noised and entangled states: (state, operator stack, subsets).
_APEX_CASES = {
    "horodecki-0.2": lambda: (horodecki_state(0.2), _GENS33, _PAIRS),
    "horodecki-0.8": lambda: (horodecki_state(0.8), _GENS33, _PAIRS),
    "horodecki-0.35-p0.5": lambda: (white_noise_mix(horodecki_state(0.35), 0.5), _GENS33, _PAIRS),
    "w-p0.13-obs2": lambda: _w_obs2_k1(0.13),
    "random-pairs": lambda: (random_density((3, 3), 4, seed=1), _GENS33, _PAIRS),
    "random-triples": lambda: (random_density((3, 3), 4, seed=2), _GENS33, list(combinations(range(9), 3))[::7]),
}


class TestApexStop:
    """A row at the apex c = 0 (value 0) whose trial failed below
    -_ROUNDOFF times its radius stops: every later trial is a positive
    multiple of that one. The search must return what running every row
    to ``step_final`` returns, bit for bit, with fewer rows on PPT states."""

    BENCH = OptimizerConfig(restarts=2, iterations=20)

    @pytest.mark.parametrize("case", list(_APEX_CASES))
    def test_search_matches_running_every_row_to_step_final(self, case, monkeypatch):
        # The oracle does not race, so the search runs with every row its own
        # one-restart subset, and as it is at (2, 10), where no race starts.
        rho, ops, subsets = _APEX_CASES[case]()
        stack = rho._frame(ops)
        for cfg in (self.BENCH, OptimizerConfig(restarts=3, iterations=25), OptimizerConfig(restarts=2, iterations=10)):
            with monkeypatch.context() as patch:
                if cfg.iterations > 10:
                    patch.setattr(optimizer, "_ascend", _ascend_unraced)
                got = optimizer._search(stack, subsets, subsets, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_ascend", _ascend_to_step_final)
                want = optimizer._search(stack, subsets, subsets, cfg)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_rows_that_start_at_the_apex(self):
        # Zero radii on an entangled state: some first trials win and climb
        # off the apex, the rest fail and stop there.
        stack, idx, x = _apex_start_rows()
        want_x = x.copy()
        want = _ascend_to_step_final(stack, idx, want_x, self.BENCH)
        got = optimizer._ascend(stack, idx, x, self.BENCH, 1)
        assert np.array_equal(got, want) and np.array_equal(x, want_x)
        left = x[:, :2].any(axis=1)
        assert 0 < left.sum() < len(idx)
        assert np.all(got[left] > 0.0) and np.all(got[~left] == 0.0)

    @pytest.mark.parametrize("family, rows, oracle_rows", [(w_family, 24, 70), (ghz_family, 12, 35)])
    def test_a_row_whose_trial_cannot_move_it_retires_at_once(self, family, rows, oracle_rows, monkeypatch):
        # On noisy W and GHZ at p = 0.9, restart 0 of each obs2 k=1 search sits
        # at the all-ones optimum: its radii are pinned at 1 and its phase
        # derivatives are exactly 0, so its clipped trial is its own point. It
        # retires there; run to step_final, it scores its own value until its
        # steps shrink below step_final, and ends with the same x and value.
        # The oracle also runs every row without the apex stop and the race.
        cfg = OptimizerConfig(restarts=2, iterations=25)

        def search():
            return optimize_bound_multipartite(family(0.9), 1, cfg, "obs2").to_json(include_timing=False)

        got, got_rows = _ascent_rows(monkeypatch, optimizer._ascend, search)
        want, want_rows = _ascent_rows(monkeypatch, _ascend_to_step_final, search)
        assert got == want
        assert (got_rows, want_rows) == (rows, oracle_rows)

    def _rows_per_search(self, monkeypatch, rho):
        """Rows handed to the gap kernel, which the ascent and ``_gaps`` both
        call, by one obs1 k=2 search at (2, 20)."""
        return sum(_kernel_rows(monkeypatch, lambda: optimize_bound_bipartite(rho, 2, self.BENCH)))

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_fewer_rows_on_ppt_states(self, a, monkeypatch):
        # The stop hands the kernel 213, 189 and 209 rows here; running every
        # row to step_final hands it 287, 285 and 289.
        assert self._rows_per_search(monkeypatch, horodecki_state(a)) <= 250

    def test_fewer_rows_on_a_noisy_ppt_state(self, monkeypatch):
        # The stop hands the kernel 110 rows here; running every row to step_final hands it 265.
        assert self._rows_per_search(monkeypatch, white_noise_mix(horodecki_state(0.35), 0.5)) <= 200


def _kernel_rows(monkeypatch, run) -> list[int]:
    """Rows per ``bounds_bipartite._gap_kernel`` call while ``run()`` runs."""
    rows, kernel = [], bounds_bipartite._gap_kernel

    def spy(parts, coeffs, slope=False):
        rows.append(len(parts))
        return kernel(parts, coeffs, slope)

    with monkeypatch.context() as patch:
        patch.setattr(bounds_bipartite, "_gap_kernel", spy)
        run()
    return rows


def _ascent_rows(monkeypatch, ascend, run):
    """(``run()``, rows handed to the gap kernel by ``ascend`` standing in for ``optimizer._ascend``)."""
    rows = []

    def counted(*args):
        out = []
        rows.extend(_kernel_rows(monkeypatch, lambda: out.append(ascend(*args))))
        return out[0]

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_ascend", counted)
        return run(), sum(rows)


def _svd_sites(monkeypatch, run) -> tuple[int, int]:
    """(SVD calls inside a ``bounds_bipartite._gap_kernel`` call, SVD calls
    outside one) while ``run()`` runs."""
    depth, sites, svd, kernel = [0], [0, 0], np.linalg.svd, bounds_bipartite._gap_kernel

    def kernel_spy(*args, **kwargs):
        depth[0] += 1
        try:
            return kernel(*args, **kwargs)
        finally:
            depth[0] -= 1

    def svd_spy(*args, **kwargs):
        sites[depth[0] == 0] += 1
        return svd(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(bounds_bipartite, "_gap_kernel", kernel_spy)
        patch.setattr(np.linalg, "svd", svd_spy)
        run()
    return sites[0], sites[1]


class TestOneGapEngine:
    """Every gap, searched or at fixed coefficients, takes its singular
    values inside ``_gap_kernel``; ``lambda_spectrum``, which returns a
    spectrum and not a gap, takes the one SVD outside it."""

    CALLS = {
        "obs1 k=2 search": lambda: optimize_bound_bipartite(horodecki_state(0.2), 2, OptimizerConfig(restarts=2, iterations=20)),
        "obs2 k=1 search": lambda: optimize_bound_multipartite(w_family(0.9), 1, OptimizerConfig(restarts=2, iterations=25), "obs2"),
        "observation1_bound": lambda: observation1_bound(horodecki_state(0.2), 2, {(4, 8): [1.0, 1j], (0, 1): [0.5, 1.0]}),
        "observation2_bound": lambda: observation2_bound(w_family(0.9), 1, {(0,): ([1.0], [1.0], [1.0])}, "w"),
        "delta_k": lambda: delta_k(horodecki_state(0.2), None, (4, 8), [1.0, 1.0]),
        "delta_tot_k": lambda: delta_tot_k(w_family(0.9), canonical_triple(2), (0, 1), ([1.0, 0.5], [1j, 1.0], [1.0, 1.0])),
        "delta_total_bound": lambda: delta_total_bound(horodecki_state(0.2), None, np.full(9, 1.0 / 3.0)),
        "wootters_concurrence": lambda: wootters_concurrence(white_noise_mix(bell_state().density(), 0.9)),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_every_gap_takes_its_svd_in_the_kernel(self, name, monkeypatch):
        inside, outside = _svd_sites(monkeypatch, self.CALLS[name])
        assert inside > 0 and outside == 0

    def test_lambda_spectrum_is_the_one_svd_outside_the_kernel(self, monkeypatch):
        s_op = bipartite_generators(3, 3).operators[4]
        assert _svd_sites(monkeypatch, lambda: lambda_spectrum(horodecki_state(0.2), s_op)) == (0, 1)


def _apex_start_rows():
    """Pair rows at zero radii on an entangled state: (stack, idx, x)."""
    rho, rng = random_density((3, 3), 4, seed=1), np.random.default_rng(0)
    idx = np.array([(0, 4), (4, 8), (1, 5), (2, 6)] * 3)
    x = np.concatenate([np.zeros((len(idx), 2)), 2.0 * np.pi * rng.random((len(idx), 2))], axis=1)
    return rho._frame(_GENS33), idx, x


def _horodecki_pair_rows():
    """Every pair of Horodecki a=0.2, twice: from all ones and from a draw (stack, idx, x).
    Only (4, 8) detects; the rest end at 0, at the apex or by their steps."""
    rng = np.random.default_rng(0)
    idx = np.repeat(_PAIRS, 2, axis=0)
    x = np.concatenate([rng.random((len(idx), 2)), 2.0 * np.pi * rng.random((len(idx), 2))], axis=1)
    x[::2] = np.repeat([1.0, 0.0], 2)
    return horodecki_state(0.2)._frame(_GENS33), idx, x


class TestBlockedAscent:
    """The ascent runs its rows in blocks of ``_BLOCK_ROWS``, each to its end
    on compact arrays that shrink as rows retire, writing retired rows' x
    back: with the rows taken as one-restart subsets, which never race, any
    block size returns the values and leaves the x of running every row to
    ``step_final``, bit for bit."""

    CFG = OptimizerConfig(restarts=2, iterations=20)

    @staticmethod
    def _steps_per_row(monkeypatch, stack, idx, x, cfg):
        """Steps each row runs, by running it alone: kernel calls less the first."""
        def alone(i):
            return lambda: optimizer._ascend(stack, idx[i : i + 1], x[i : i + 1].copy(), cfg, 1)

        return [len(_kernel_rows(monkeypatch, alone(i))) - 1 for i in range(len(idx))]

    @pytest.mark.parametrize("rows", [_horodecki_pair_rows, _apex_start_rows])
    def test_blocks_of_three_match_one_block_and_the_oracle(self, rows, monkeypatch):
        stack, idx, x = rows()
        steps = np.array(self._steps_per_row(monkeypatch, stack, idx, x, self.CFG))
        # Rows of one block retire at different steps.
        assert any(len(set(steps[lo : lo + 3].tolist())) > 1 for lo in range(0, len(steps), 3))
        want_x = x.copy()
        want = _ascend_to_step_final(stack, idx, want_x, self.CFG)
        for block in (512, 3):
            monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", block)
            got_x = x.copy()
            got = optimizer._ascend(stack, idx, got_x, self.CFG, 1)
            assert got.tobytes() == want.tobytes()
            assert got_x.tobytes() == want_x.tobytes()
        assert not np.array_equal(want_x, x)

    def test_a_block_whose_rows_all_stop_early(self, monkeypatch):
        # Rows 45-47 of the Horodecki rows, one block of three: (3, 5) from a
        # draw, (3, 6) from all ones and from a draw. None starts at the apex,
        # and all three stop there, so the block ends long before iterations
        # and each x it leaves was written back on retiring. The rows from a
        # draw stop after 3 steps, on a failed trial from the apex; the row from
        # all ones reaches the apex in 2 steps with a trial that cannot move it,
        # and stops before scoring that trial. The test above checks these rows
        # bit for bit at blocks of three.
        stack, idx, x = _horodecki_pair_rows()
        assert idx[45:48].tolist() == [[3, 5], [3, 6], [3, 6]] and x[45:48, :2].all()
        assert self._steps_per_row(monkeypatch, stack, idx[45:48], x[45:48], self.CFG) == [3, 2, 3]
        monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", 3)
        optimizer._ascend(stack, idx, x, self.CFG, 1)
        assert not x[45:48, :2].any()


def _raced_rows(rho, ops, subsets, restarts, seed=0):
    """Subset-major rows of ``restarts`` restarts per subset, restart 0 at all
    ones and the rest at draws of ``seed``: (stack, idx, x)."""
    m, rng = len(subsets[0]), np.random.default_rng(seed)
    idx = np.repeat(np.array(subsets), restarts, axis=0)
    x = np.concatenate([rng.random((len(idx), m)), 2.0 * np.pi * rng.random((len(idx), m))], axis=1)
    x[::restarts] = np.repeat([1.0, 0.0], m)
    return rho._frame(ops), idx, x


# Rows where the race cuts restarts that would still climb: ((stack, idx, x), config).
_RACE_CASES = {
    "random-pairs": lambda: (_raced_rows(random_density((3, 3), 4, seed=1), _GENS33, _PAIRS, 4), OptimizerConfig(restarts=4, iterations=30)),
    "random-triples": lambda: (
        _raced_rows(random_density((3, 3), 4, seed=2), _GENS33, list(combinations(range(9), 3))[::7], 3),
        OptimizerConfig(restarts=3, iterations=40),
    ),
    "w-p0.9-obs2": lambda: (_raced_rows(*_w_obs2_k1(0.9), 2), OptimizerConfig(restarts=2, iterations=25)),
}


def _race_by_hand(stack, idx, x, cfg):
    """The race replayed on rows that climb alone: each row's history run to
    ``step_final`` by ``_ascend_to_step_final``; then, at each step t from
    T = max(10, iterations // 4) on, every subset keeps restart 0 and its
    ceil(R / 2) best rows, each by its value at step t or, once cut, at its
    cut, ties to the lower restart, and cuts the rest. Returns the values
    and x the rows end with, and every row's value alone after each step."""
    history, group = [], cfg.restarts
    _ascend_to_step_final(stack, idx, x.copy(), cfg, history=history)
    history += history[-1:] * (cfg.iterations + 1 - len(history))
    vals, xs = (np.array(h) for h in zip(*history))
    cut, rows = np.full(len(x), cfg.iterations), np.arange(len(x))
    for t in range(max(10, cfg.iterations // 4), cfg.iterations):
        now = vals[np.minimum(cut, t), rows]
        for lo in range(0, len(x), group):
            lead = sorted(range(lo, lo + group), key=lambda r: (-now[r], r))[: -(-group // 2)]
            for r in range(lo + 1, lo + group):
                if r not in lead and cut[r] == cfg.iterations:
                    cut[r] = t
    end = vals[cut, rows]
    return np.where(end > 0.0, end, 0.0), xs[cut, rows], vals


class TestRace:
    """The restarts of one subset race: from step T = max(10, iterations // 4)
    on, after every step, a subset keeps restart 0 and its ceil(R / 2) best
    rows by current value (a row already out by its final value, ties to the
    lower restart), and the rest retire with x and value written back.
    Blocks hold whole subsets, so the rule reads one subset's rows alone."""

    @pytest.mark.parametrize("case", list(_RACE_CASES))
    @pytest.mark.parametrize("block", [3, 512])
    def test_ascent_cuts_the_rows_the_rule_names(self, case, block, monkeypatch):
        # So no row among its subset's top ceil(R / 2) at a step is cut there.
        (stack, idx, x), cfg = _RACE_CASES[case]()
        want, want_x, alone = _race_by_hand(stack, idx, x, cfg)
        monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", block)
        got = optimizer._ascend(stack, idx, x, cfg, cfg.restarts)
        assert got.tobytes() == want.tobytes() and x.tobytes() == want_x.tobytes()
        # Some cut rows would have climbed further alone.
        assert (got < np.where(alone[-1] > 0.0, alone[-1], 0.0)).any()

    @pytest.mark.parametrize("case", list(_RACE_CASES))
    def test_restart_zero_never_retires(self, case):
        (stack, idx, x), cfg = _RACE_CASES[case]()
        raced, lone = x.copy(), x.copy()
        got = optimizer._ascend(stack, idx, raced, cfg, cfg.restarts)
        want = optimizer._ascend(stack, idx, lone, cfg, 1)
        r = cfg.restarts
        assert got[::r].tobytes() == want[::r].tobytes() and raced[::r].tobytes() == lone[::r].tobytes()
        assert not np.array_equal(raced, lone)

    @pytest.mark.parametrize("case", list(_RACE_CASES))
    def test_a_subset_climbs_with_at_most_half_its_restarts_and_restart_zero(self, case, monkeypatch):
        (stack, idx, x), cfg = _RACE_CASES[case]()
        r = cfg.restarts
        rows = _kernel_rows(monkeypatch, lambda: optimizer._ascend(stack, idx[:r], x[:r].copy(), cfg, r))
        # Call 0 scores the starts, and call t + 1 takes step t.
        assert max(rows[1 + max(10, cfg.iterations // 4) :], default=0) <= -(-r // 2) + 1

    @pytest.mark.parametrize("block", [3, 512])
    def test_batched_search_matches_one_subset_at_a_time(self, block, monkeypatch):
        monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", block)
        for case, cfg in (("random-pairs", OptimizerConfig(restarts=4, iterations=30)), ("random-triples", OptimizerConfig(restarts=4, iterations=40))):
            rho, ops, subsets = _APEX_CASES[case]()
            stack = rho._frame(ops)
            got = optimizer._search(stack, subsets, subsets, cfg)
            for i, t in enumerate(subsets):
                want = optimizer._search(stack, [t], [t], cfg)
                assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(got, want))
            # The race moved some subset's search.
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_ascend", _ascend_unraced)
                assert not np.array_equal(optimizer._search(stack, subsets, subsets, cfg)[2], got[2])

    @pytest.mark.parametrize("k, restarts", [(2, 4), (3, 3)])
    def test_bound_is_at_least_the_all_ones_aggregate(self, k, restarts):
        cfg = OptimizerConfig(restarts=restarts, iterations=30)
        for seed in range(3):
            rho = random_density((3, 3), 4, seed=seed)
            ones = {t: [1.0] * k for t in combinations(range(9), k)}
            assert optimize_bound_bipartite(rho, k, cfg).bound_on_c_squared >= observation1_bound(rho, k, ones).bound_on_c_squared
        rho = w_family(0.5)
        ones = {t: ([1.0] * k,) * 3 for t in combinations(range(6), k)}
        assert optimize_bound_multipartite(rho, k, cfg).bound_on_c_squared >= observation2_bound(rho, k, ones).bound_on_c_squared

    @pytest.mark.parametrize("restarts, iterations", [(2, 10), (4, 10), (3, 7)])
    def test_no_race_up_to_ten_iterations(self, restarts, iterations, monkeypatch):
        # So every report searched at (2, 10), the corpus's config, stays as it was before the race.
        cfg = OptimizerConfig(restarts=restarts, iterations=iterations)
        rho3 = w_family(0.9)

        def reports():
            return (
                optimize_bound_bipartite(random_density((3, 3), 4, seed=1), 2, cfg).to_json(include_timing=False),
                optimize_bound_bipartite(horodecki_state(0.2), 3, cfg).to_json(include_timing=False),
                optimize_bound_multipartite(rho3, 1, cfg, "obs2").to_json(include_timing=False),
            )

        raced = reports()
        monkeypatch.setattr(optimizer, "_ascend", _ascend_unraced)
        assert reports() == raced


class TestSingletonClosedForm:
    """One-operator subsets are answered by the unit coefficient: the gap
    of u*J is |u| times the gap of J, so there is nothing to search."""

    CFG = OptimizerConfig(restarts=3, iterations=25)

    @staticmethod
    def _nonzero_cases():
        bell = white_noise_mix(bell_state().density(), 0.9)
        w = white_noise_mix(w_state().density(), 0.9)
        yield bell, bipartite_generators(2, 2).operators, (0,)
        for s in range(3):
            yield w, tripartite_generators(2, s).operators, (0, 1)
        yield random_density((3, 3), 3, 11), bipartite_generators(3, 3).operators, range(9)

    def test_unit_coefficient_and_stack_gap(self, monkeypatch):
        monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", 4)
        ops = np.asarray(bipartite_generators(3, 3).operators)
        rho = random_density((3, 3), 3, 11)
        subsets = [(i,) for i in range(9)]
        coeffs, deltas, traces = optimizer._search(rho._frame(ops), subsets, subsets, self.CFG)
        assert coeffs.tobytes() == np.ones((9, 1), dtype=complex).tobytes()
        assert deltas.tobytes() == np.array([_gap(b) for b in rho._frame(ops)]).tobytes()
        assert traces.tobytes() == np.repeat(deltas[:, None], self.CFG.restarts, axis=1).tobytes()

    def test_matches_search_oracle_within_round_off(self):
        for rho, ops, indices in self._nonzero_cases():
            for i in indices:
                op = np.stack([ops[i]])
                want = _reference_descent(rho, op, self.CFG, (i,))[1]
                u, got, _ = _search_one(rho, op, self.CFG, (i,))
                assert want > 1e-3
                assert u.tobytes() == np.ones(1, dtype=complex).tobytes()
                assert want - 1e-14 <= got <= want

    def test_optimize_u_on_one_index(self):
        gens = bipartite_generators(3, 3)
        rho = random_density((3, 3), 3, 11)
        u, delta = optimize_u(rho, gens, (4,), self.CFG)
        assert u.tolist() == [1 + 0j]
        assert delta == delta_k(rho, gens, (4,), [1.0])

    @pytest.mark.parametrize("rho", [white_noise_mix(horodecki_state(0.5), 0.95), random_density((3, 3), 3, 11)])
    def test_obs1_report_is_the_all_ones_report(self, rho):
        rep = optimize_bound_bipartite(rho, 1, self.CFG)
        ones = observation1_bound(rho, 1, {(i,): [1.0] for i in range(9)})
        assert rep.config == self.CFG.to_dict()
        assert replace(rep, config=None).to_json(include_timing=False) == ones.to_json(include_timing=False)

    @pytest.mark.parametrize("p", [0.2, 0.9])
    def test_obs3_report_is_the_all_ones_report(self, p):
        rho = white_noise_mix(w_state().density(), p)
        rep = optimize_bound_multipartite(rho, 1, self.CFG, "obs3")
        ones = observation3_bound(rho, 1, {s: {(i,): [1.0] for i in range(6)} for s in range(3)})
        assert rep.config == self.CFG.to_dict()
        assert replace(rep, config=None).to_json(include_timing=False) == ones.to_json(include_timing=False)


class TestOptimizedBipartiteBound:
    def test_maximally_mixed_is_zero(self):
        rep = optimize_bound_bipartite(maximally_mixed((3, 3)), 1, FAST)
        assert rep.bound_on_c_squared == 0.0
        assert rep.config == FAST.to_dict()

    def test_bell_recovers_unit_bound(self):
        rep = optimize_bound_bipartite(bell_state().density(), 1, FAST)
        assert abs(rep.bound_on_c_squared - 1.0) < 1e-9

    def test_ppt_state_silent_at_singleton_level(self):
        # Single-generator operators act inside a two-qubit subspace
        # where the transposition test is exhaustive, so no PPT state
        # can produce a positive gap at k = 1.
        rep = optimize_bound_bipartite(horodecki_state(0.5), 1, OptimizerConfig(restarts=2, iterations=15))
        assert rep.bound_on_c_squared <= 1e-12

    def test_pair_subsets_detect_ppt_entanglement(self):
        # Singleton gaps are all zero on a PPT state, so a pool ranked by
        # them is arbitrary; search every pair so the detecting one is in.
        cfg = OptimizerConfig(restarts=2, iterations=40)
        rep = optimize_bound_bipartite(horodecki_state(0.2), 2, cfg)
        assert rep.bound_on_c_squared > 1e-7

    def test_default_config_keeps_the_coordinate_descent_bound(self):
        # 2.8003688020e-5 is what the default coordinate descent reported.
        rep = optimize_bound_bipartite(horodecki_state(0.2), 2, OptimizerConfig())
        assert rep.bound_on_c_squared >= 2.8003688020e-5

    def test_top_singletons_restricts_pool(self):
        cfg = OptimizerConfig(restarts=2, iterations=10, subset_strategy="top_singletons", top_count=3)
        rep = optimize_bound_bipartite(horodecki_state(0.2), 2, cfg)
        assert len(rep.per_subset) == 3  # C(3, 2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_top_singletons_pools_per_mode(self, k):
        # obs2 keeps one pool over the cross-split gaps, obs3 one per split.
        cfg = OptimizerConfig(restarts=2, iterations=10, subset_strategy="top_singletons", top_count=3)
        rho = white_noise_mix(w_state().density(), 0.9)
        per_pool = math.comb(3, k)
        assert len(optimize_bound_multipartite(rho, k, cfg, "obs2").per_subset) == per_pool
        rep = optimize_bound_multipartite(rho, k, cfg, "obs3")
        assert len(rep.per_subset) == 3 * per_pool
        assert Counter(e.split for e in rep.per_subset) == {label: per_pool for label in ("1|23", "2|13", "3|12")}

    def test_top_singletons_pools_hold_the_largest_gaps(self):
        # At k = 2 a generator scores the largest all-ones gap of a pair
        # that holds it; no split of this state is PPT, so no pair is
        # proved zero.
        cfg = OptimizerConfig(restarts=1, iterations=1, subset_strategy="top_singletons", top_count=3)
        rho = random_density((2, 2, 2), 3, 2)
        assert all(ppt_min_eigenvalue(rho, (s,)) < -1e-3 for s in range(3))

        def pool(gap):
            pairs = {t: gap(t) for t in combinations(range(6), 2)}
            score = [max(g for t, g in pairs.items() if i in t) for i in range(6)]
            top = sorted(range(6), key=lambda i: -score[i])[:3]
            assert min(score[i] for i in top) > max(score[i] for i in range(6) if i not in top)  # no tie at the cut
            return list(combinations(sorted(top), 2))

        ones = ([1.0, 1.0],) * 3
        want = pool(lambda t: delta_tot_k(rho, canonical_triple(2), t, ones))
        assert [e.subset for e in optimize_bound_multipartite(rho, 2, cfg, "obs2").per_subset] == want
        rep = optimize_bound_multipartite(rho, 2, cfg, "obs3")
        for s, label in enumerate(("1|23", "2|13", "3|12")):
            want = pool(lambda t: delta_k(rho, tripartite_generators(2, s), t, [1.0, 1.0]))
            assert [e.subset for e in rep.per_subset if e.split == label] == want

    def test_top_singletons_ranks_single_gaps_at_k1(self):
        cfg = OptimizerConfig(restarts=1, iterations=1, subset_strategy="top_singletons", top_count=3)
        rho = random_density((2, 2, 2), 3, 5)
        for s, label in enumerate(("1|23", "2|13", "3|12")):
            gaps = [delta_k(rho, tripartite_generators(2, s), (i,), [1.0]) for i in range(6)]
            top = sorted(range(6), key=lambda i: -gaps[i])[:3]
            assert min(gaps[i] for i in top) > max(gaps[i] for i in range(6) if i not in top)
            rep = optimize_bound_multipartite(rho, 1, cfg, "obs3")
            assert [e.subset for e in rep.per_subset if e.split == label] == [(i,) for i in sorted(top)]

    def test_top_singletons_detects_bound_entanglement(self):
        # Every single-generator gap of this PPT state is round-off; the
        # pair scores put the detecting pair (4, 8) in the pool.
        cfg = OptimizerConfig(restarts=2, iterations=10, subset_strategy="top_singletons", top_count=3)
        rep = optimize_bound_bipartite(horodecki_state(0.2), 2, cfg)
        assert (4, 8) in [e.subset for e in rep.per_subset]
        assert rep.bound_on_c_squared > 1e-7

    def test_byte_deterministic_reports(self):
        a = optimize_bound_bipartite(horodecki_state(0.3), 1, FAST)
        b = optimize_bound_bipartite(horodecki_state(0.3), 1, FAST)
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)


class TestOptimizedMultipartiteBound:
    def test_ghz_example_mode_value(self):
        rho = white_noise_mix(ghz_state().density(), 0.5)
        rep = optimize_bound_multipartite(rho, 1, FAST, "obs2-ghz")
        assert abs(rep.bound_on_c_squared - 0.2109375) < 1e-9
        assert rep.mode == "obs2-ghz"

    def test_w_example_mode_at_point_two(self):
        rho = white_noise_mix(w_state().density(), 0.2)
        rep = optimize_bound_multipartite(rho, 1, FAST, "obs2-w")
        assert rep.bound_on_c_squared > 1e-4

    def test_obs3_stays_silent_where_obs2_fires(self):
        rho = white_noise_mix(w_state().density(), 0.2)
        cfg = OptimizerConfig(restarts=2, iterations=15)
        rep3 = optimize_bound_multipartite(rho, 1, cfg, "obs3")
        rep2 = optimize_bound_multipartite(rho, 1, cfg, "obs2-w")
        assert rep3.bound_on_c_squared <= 1e-8
        assert rep2.bound_on_c_squared > 1e-4

    def test_fully_mixed_is_zero(self):
        rep = optimize_bound_multipartite(maximally_mixed((2, 2, 2)), 1, OptimizerConfig(restarts=2, iterations=10), "obs2")
        assert rep.bound_on_c_squared == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ParameterRangeError):
            optimize_bound_multipartite(ghz_state().density(), 1, FAST, "obs4")


class TestThresholdScan:
    def test_ghz_threshold(self):
        res = threshold_scan(ghz_family, ghz_detector, 0.01, 1.0, 1e-5, 1e-9)
        assert abs(res.threshold - 0.2) < 1e-4
        assert res.bracket_width <= 5e-6
        assert res.evaluations >= 10

    def test_w_threshold(self):
        res = threshold_scan(w_family, w_detector, 0.01, 1.0, 1e-5, 1e-9)
        assert abs(res.threshold - 0.177975) < 1e-4

    def test_bracket_invariant(self):
        res = threshold_scan(ghz_family, ghz_detector, 0.01, 1.0, 1e-4, 1e-9)
        assert ghz_detector(ghz_family(res.threshold + res.bracket_width)) > 1e-9
        assert ghz_detector(ghz_family(res.threshold - res.bracket_width)) <= 1e-9

    def test_not_detected_raises(self):
        with pytest.raises(ThresholdNotDetectedError):
            threshold_scan(ghz_family, ghz_detector, 0.01, 0.15, 1e-4, 1e-9)

    def test_detection_at_lower_edge(self):
        res = threshold_scan(ghz_family, ghz_detector, 0.5, 1.0, 1e-4, 1e-9)
        assert res.threshold == 0.5
        assert res.bracket_width == 0.0

    def test_range_validation(self):
        with pytest.raises(ParameterRangeError):
            threshold_scan(ghz_family, ghz_detector, 0.9, 0.1, 1e-4, 1e-9)

    def test_result_dict(self):
        res = ScanResult(0.25, 1e-5, 17)
        assert res.to_dict() == {"threshold": 0.25, "bracket_width": 1e-5, "evaluations": 17}


class TestScanTolerances:
    @staticmethod
    def _bounded_detector():
        # Raises instead of looping forever if the bisection never stops.
        calls = []

        def detector(rho):
            calls.append(1)
            if len(calls) > 200:
                raise RuntimeError("bisection did not terminate")
            return ghz_detector(rho)

        return detector, calls

    @pytest.mark.parametrize(
        "tol_p, tol_detect",
        # Below 0 a tolerance certifies separable states: -0.05 fired on the Werner state p = 0.1.
        [(0.0, 1e-9), (-1.0, 1e-9), (float("nan"), 1e-9), (float("inf"), 1e-9), (1e-4, float("nan")), (1e-4, float("inf")), (1e-4, -0.05)],
    )
    def test_rejects_tolerances_before_evaluating(self, tol_p, tol_detect):
        detector, calls = self._bounded_detector()
        with pytest.raises(ParameterRangeError):
            threshold_scan(ghz_family, detector, 0.01, 1.0, tol_p, tol_detect)
        assert calls == []

    def test_tolerance_below_the_float_spacing_stops_at_adjacent_floats(self):
        # The midpoint of two adjacent floats is one of them, so the bracket stops shrinking there.
        detector, calls = self._bounded_detector()
        res = threshold_scan(ghz_family, detector, 0.01, 1.0, 1e-300, 1e-9)
        assert res.evaluations == len(calls)
        # The bracket is the two adjacent floats, the upper one fires and the lower one stays quiet.
        assert res.threshold - res.bracket_width == math.nextafter(res.threshold, 0.0)
        assert ghz_detector(ghz_family(res.threshold)) > 1e-9
        assert ghz_detector(ghz_family(res.threshold - res.bracket_width)) <= 1e-9


class TestNonIntegralIndices:
    """k and subset indices are integers: 1.5 is not read as k = 1, nor
    (4.2, 8.9) as the subset (4, 8). Numpy integers are accepted."""

    NOT_INTEGERS = [1.5, np.float64(1.0), "1"]

    @pytest.mark.parametrize("subset", [(4.2, 8.9), (4, 8.0), (np.float64(4.0), 8), ("4", 8)])
    def test_optimize_u_rejects(self, subset):
        with pytest.raises(SubsetSizeError):
            optimize_u(horodecki_state(0.3), bipartite_generators(3, 3), subset, FAST)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_optimize_bound_bipartite_rejects(self, bad):
        with pytest.raises(SubsetSizeError):
            optimize_bound_bipartite(horodecki_state(0.3), bad, FAST)

    @pytest.mark.parametrize("mode", ["obs2", "obs2-w", "obs3"])
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_optimize_bound_multipartite_rejects(self, bad, mode):
        with pytest.raises(SubsetSizeError):
            optimize_bound_multipartite(white_noise_mix(w_state().density(), 0.5), bad, FAST, mode)

    def test_numpy_integers_pass(self):
        rho = horodecki_state(0.3)
        rho3 = white_noise_mix(w_state().density(), 0.5)
        gens = bipartite_generators(3, 3)
        assert optimize_u(rho, gens, (np.int64(4), np.int32(8)), FAST)[1] == optimize_u(rho, gens, (4, 8), FAST)[1]
        for run in (
            lambda k: optimize_bound_bipartite(rho, k, FAST),
            lambda k: optimize_bound_multipartite(rho3, k, FAST, "obs3"),
        ):
            assert run(np.int64(1)).to_json(include_timing=False) == run(1).to_json(include_timing=False)
