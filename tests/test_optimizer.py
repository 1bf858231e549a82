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
from concbound.bounds_bipartite import _delta_from_parts, delta_k, observation1_bound
from concbound.bounds_multipartite import delta_tot_k, observation2_bound, observation3_bound
from concbound.generators import bipartite_generators, canonical_triple, tripartite_generators
from concbound.optimizer import (
    OptimizerConfig,
    ScanResult,
    _optimize_coefficients,
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
        _, delta, trace = _optimize_coefficients(rho._basis, ops, cfg, (1, 5))
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


def _reference_descent(basis, ops, cfg, salt):
    """One subset, one restart at a time: the coordinate descent the
    lockstep engine replaces, kept verbatim as its oracle. Each gap is one
    SVD of the coefficient sum over the state's gap matrices of ``ops``."""
    stack = basis.frame(ops)

    def delta_of(radii, phases):
        coeffs = radii * np.exp(1j * phases)
        return float(_delta_from_parts(np.tensordot(coeffs, stack, axes=1)))

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


def _assert_bitwise_equal(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()


class TestLockstepEngine:
    GENS = bipartite_generators(3, 3)

    def _parts(self, subset, rho):
        return rho._basis, np.stack([self.GENS.operators[i] for i in subset])

    @pytest.mark.parametrize("subset", [(4,), (4, 8), (1, 5, 7)])
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("iterations", [1, 7])
    def test_matches_sequential_descent(self, subset, restarts, iterations):
        basis, ops = self._parts(subset, white_noise_mix(horodecki_state(0.3), 0.9))
        cfg = OptimizerConfig(restarts=restarts, iterations=iterations)
        want = _reference_descent(basis, ops, cfg, subset)
        _assert_bitwise_equal(_optimize_coefficients(basis, ops, cfg, subset), want)

    def test_matches_where_radii_clip_at_zero_and_one(self):
        basis, ops = self._parts((0, 4), horodecki_state(0.2))
        cfg = OptimizerConfig(restarts=3, iterations=7, step_initial=0.9, step_final=0.05)
        want = _reference_descent(basis, ops, cfg, (0, 4))
        got = _optimize_coefficients(basis, ops, cfg, (0, 4))
        _assert_bitwise_equal(got, want)
        assert sorted(np.abs(got[0])) == [0.0, 1.0]

    def test_multipartite_stack_matches_sequential_descent(self):
        rho = white_noise_mix(w_state().density(), 0.5)
        ops = np.stack([tripartite_generators(2, s).operators[2] for s in range(3)])
        cfg = OptimizerConfig(restarts=3, iterations=7)
        want = _reference_descent(rho._basis, ops, cfg, (2,))
        _assert_bitwise_equal(_optimize_coefficients(rho._basis, ops, cfg, (2,)), want)

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
            u, delta, _ = _optimize_coefficients(rho._basis, flat[rows], cfg, salt)
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
        basis = random_density((3, 3), 3, 11)._basis
        subsets = [(i,) for i in range(9)]
        coeffs, deltas, traces = optimizer._search(basis.stack(ops), subsets, subsets, self.CFG)
        assert coeffs.tobytes() == np.ones((9, 1), dtype=complex).tobytes()
        assert deltas.tobytes() == np.array([_delta_from_parts(b) for b in basis.frame(ops)]).tobytes()
        assert traces.tobytes() == np.repeat(deltas[:, None], self.CFG.restarts, axis=1).tobytes()

    def test_matches_search_oracle_within_round_off(self):
        for rho, ops, indices in self._nonzero_cases():
            for i in indices:
                op = np.stack([ops[i]])
                want = _reference_descent(rho._basis, op, self.CFG, (i,))[1]
                u, got, _ = _optimize_coefficients(rho._basis, op, self.CFG, (i,))
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
        [(0.0, 1e-9), (-1.0, 1e-9), (float("nan"), 1e-9), (float("inf"), 1e-9), (1e-4, float("nan")), (1e-4, float("inf"))],
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
