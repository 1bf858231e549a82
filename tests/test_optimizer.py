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
from concbound.bounds_bipartite import delta_k, observation1_bound
from concbound.bounds_multipartite import delta_tot_k, observation2_bound, observation3_bound
from concbound.generators import bipartite_generators, canonical_triple, tripartite_generators
from concbound.optimizer import (
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
        val = float(optimizer._ascend(stack, np.arange(m)[None, :], x, cfg)[0])
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


class TestLockstepEngine:
    """Every (subset, restart) trajectory of a search climbs in lockstep
    as one row, and no row reads another: the batch reproduces
    trajectories run one at a time, bit for bit. The retired coordinate
    descent is the floor: where the budget does not limit the result,
    the gradient search is never below it."""

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
        for cfg in (OptimizerConfig(restarts=3, iterations=7), OptimizerConfig(restarts=2, iterations=20)):
            got = _search_one(rho, ops, cfg, (0,))
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
            val, grad = bounds_bipartite._gaps(stack, [range(m)], [c], slope=True)
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
        cfg = OptimizerConfig(restarts=1, iterations=1, subset_strategy="top_singletons", top_count=3)
        rho = random_density((2, 2, 2), 3, 5)

        def pool(gap):
            gaps = [gap(i) for i in range(6)]
            top = sorted(range(6), key=lambda i: -gaps[i])[:3]
            assert min(gaps[i] for i in top) > max(gaps[i] for i in range(6) if i not in top)  # no tie at the cut
            return list(combinations(sorted(top), 2))

        ones = ([1.0], [1.0], [1.0])
        want = pool(lambda i: delta_tot_k(rho, canonical_triple(2), (i,), ones))
        assert [e.subset for e in optimize_bound_multipartite(rho, 2, cfg, "obs2").per_subset] == want
        rep = optimize_bound_multipartite(rho, 2, cfg, "obs3")
        for s, label in enumerate(("1|23", "2|13", "3|12")):
            want = pool(lambda i: delta_k(rho, tripartite_generators(2, s), (i,), [1.0]))
            assert [e.subset for e in rep.per_subset if e.split == label] == want

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
