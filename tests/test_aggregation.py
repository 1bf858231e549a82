"""One gap engine, one report builder: the aggregates and the optimizers
against per-subset reference loops, bit for bit."""
from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from concbound import bounds_bipartite
from concbound.bounds_bipartite import BoundReport, SubsetEntry, _delta_from_parts, observation1_bound
from concbound.bounds_multipartite import observation2_bound, observation3_bound
from concbound.generators import (
    bipartite_generators,
    canonical_triple,
    example_operators,
    tripartite_generators,
)
from concbound.optimizer import OptimizerConfig, optimize_bound_bipartite, optimize_bound_multipartite
from concbound.states import ghz_state, horodecki_state, random_density, w_state, white_noise_mix


def _obs1_loop(rho, k, assignments, gens):
    """Per-subset loop of observation1_bound before the gap engine: one
    summed operator and one SVD per subset."""
    n = gens.count
    r, rc = rho._sqrt_parts
    entries = []
    for t in sorted(assignments):
        u = np.asarray(assignments[t], dtype=complex).reshape(-1)
        s_op = sum(c * gens.operators[i] for c, i in zip(u, t))
        entries.append(SubsetEntry(t, {"u": tuple(u)}, _delta_from_parts(r, rc, s_op)))
    prefactor = n / (k * k * math.comb(n, k))
    bound = prefactor * math.fsum(e.delta * e.delta for e in entries)
    return BoundReport(bound, tuple(entries), k, n, prefactor, "obs1", 0.0)


def _obs2_loop(rho, k, assignments, triple, mode):
    """Per-subset loop of observation2_bound before the gap engine, with
    its summed operator built term by term (u0 J1, v0 J2, w0 J3, u1 J1, ...)."""
    j1, j2, j3 = triple.operators
    n = triple.count
    r, rc = rho._sqrt_parts
    entries = []
    for t in sorted(assignments):
        u, v, w = (np.asarray(c, dtype=complex).reshape(-1) for c in assignments[t])
        s_op = np.zeros_like(j1[0], dtype=complex)
        for s, idx in enumerate(t):
            s_op = s_op + u[s] * j1[idx] + v[s] * j2[idx] + w[s] * j3[idx]
        entries.append(SubsetEntry(t, {"u": tuple(u), "v": tuple(v), "w": tuple(w)}, _delta_from_parts(r, rc, s_op)))
    prefactor = n / (6.0 * k * k * math.comb(n, k))
    bound = prefactor * math.fsum(e.delta * e.delta for e in entries)
    return BoundReport(bound, tuple(entries), k, n, prefactor, mode, 0.0)


def _obs3_loop(rho, k, assignments):
    """observation3_bound before the gap engine: three per-split obs1 loops."""
    entries = []
    for s, label in enumerate(("1|23", "2|13", "3|12")):
        gens = tripartite_generators(rho.dims[0], s)
        sub = _obs1_loop(rho, k, assignments.get(s, {}), gens)
        prefactor = 0.5 * sub.prefactor
        entries += [SubsetEntry(e.subset, e.coefficients, e.delta, label) for e in sub.per_subset]
    bound = prefactor * math.fsum(e.delta * e.delta for e in entries)
    return BoundReport(bound, tuple(entries), k, sub.n_generators, prefactor, "obs3", 0.0)


def _random_coefficients(rng, size):
    return rng.random(size) * np.exp(2j * np.pi * rng.random(size))


def _random_assignments(rng, n, k, limit=40):
    """Coefficients on all size-k subsets of range(n), or on ``limit`` of them."""
    subsets = list(combinations(range(n), k))
    if len(subsets) > limit:
        subsets = [subsets[i] for i in sorted(rng.choice(len(subsets), limit, replace=False))]
    return {t: _random_coefficients(rng, k) for t in subsets}


def _same_bytes(got: BoundReport, want: BoundReport) -> None:
    assert got.to_json(include_timing=False) == want.to_json(include_timing=False)


class TestFixedCoefficientOracle:
    @pytest.mark.parametrize(
        "dims, k, rank",
        [((2, 2), 1, 2), ((2, 2), 1, 4), ((3, 3), 1, 9), ((3, 3), 2, 5), ((3, 3), 3, 2), ((2, 3), 2, 3), ((2, 3), 3, 6)],
    )
    def test_obs1(self, dims, k, rank):
        rng = np.random.default_rng([k, rank, *dims])
        gens = bipartite_generators(*dims)
        for seed in range(3):
            rho = random_density(dims, rank, seed=int(rng.integers(2**32)))
            assignments = _random_assignments(rng, gens.count, k)
            _same_bytes(observation1_bound(rho, k, assignments), _obs1_loop(rho, k, assignments, gens))

    def test_obs1_on_horodecki_states(self):
        rng = np.random.default_rng(5)
        gens = bipartite_generators(3, 3)
        for a in (0.2, 0.5, 0.8):
            for k in (1, 2, 3):
                assignments = _random_assignments(rng, gens.count, k)
                rho = horodecki_state(a)
                _same_bytes(observation1_bound(rho, k, assignments), _obs1_loop(rho, k, assignments, gens))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_canonical_obs2(self, k, p):
        rng = np.random.default_rng([k, int(10 * p)])
        triple = canonical_triple(2)
        for pure in (ghz_state(), w_state()):
            rho = white_noise_mix(pure.density(), p)
            assignments = {
                t: tuple(_random_coefficients(rng, k) for _ in range(3))
                for t in _random_assignments(rng, triple.count, k)
            }
            want = _obs2_loop(rho, k, assignments, triple, "obs2")
            _same_bytes(observation2_bound(rho, k, assignments), want)

    @pytest.mark.parametrize("source", ["ghz", "w"])
    @pytest.mark.parametrize("p", [0.13, 0.2, 0.9])
    def test_example_obs2(self, source, p):
        rng = np.random.default_rng([7, int(100 * p)])
        rho = white_noise_mix((ghz_state() if source == "ghz" else w_state()).density(), p)
        for x in (([1.0], [1.0], [1.0]), tuple(_random_coefficients(rng, 1) for _ in range(3))):
            want = _obs2_loop(rho, 1, {(0,): x}, example_operators(source), f"obs2-{source}")
            _same_bytes(observation2_bound(rho, 1, {(0,): x}, source), want)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [0.2, 0.9])
    def test_obs3(self, k, p):
        rng = np.random.default_rng([k, int(10 * p), 3])
        rho = white_noise_mix(w_state().density(), p)
        assignments = {s: _random_assignments(rng, 6, k) for s in range(3)}
        _same_bytes(observation3_bound(rho, k, assignments), _obs3_loop(rho, k, assignments))
        del assignments[1]
        _same_bytes(observation3_bound(rho, k, assignments), _obs3_loop(rho, k, assignments))

    def test_reports_do_not_depend_on_engine_block_size(self, monkeypatch):
        rng = np.random.default_rng(17)
        rho = random_density((3, 3), 4, seed=3)
        assignments = _random_assignments(rng, 9, 2)
        rho3 = white_noise_mix(w_state().density(), 0.7)
        per_split = {s: _random_assignments(rng, 6, 2) for s in range(3)}

        def reports():
            return (
                observation1_bound(rho, 2, assignments).to_json(include_timing=False),
                observation3_bound(rho3, 2, per_split).to_json(include_timing=False),
            )

        whole = reports()
        monkeypatch.setattr(bounds_bipartite, "_BLOCK_ROWS", 4)
        assert reports() == whole


CFG = OptimizerConfig(restarts=2, iterations=20)


def _own_coefficients(rep):
    return {e.subset: [np.array(v) for v in e.coefficients.values()] for e in rep.per_subset}


class TestOptimizedReportsAreTheirOwnAggregates:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("cfg", [CFG, OptimizerConfig(restarts=3, iterations=10, subset_strategy="top_singletons")])
    def test_obs1(self, k, cfg):
        rho = white_noise_mix(horodecki_state(0.5), 0.9)
        rep = optimize_bound_bipartite(rho, k, cfg)
        fixed = observation1_bound(rho, k, {t: c[0] for t, c in _own_coefficients(rep).items()})
        assert rep.config == cfg.to_dict()
        _same_bytes(replace(rep, config=None), fixed)

    @pytest.mark.parametrize("mode, k", [("obs2", 1), ("obs2", 2), ("obs2-ghz", 1), ("obs2-w", 1)])
    def test_obs2(self, mode, k):
        rho = white_noise_mix(w_state().density(), 0.9)
        rep = optimize_bound_multipartite(rho, k, CFG, mode)
        source = mode.partition("-")[2] or "canonical"
        fixed = observation2_bound(rho, k, {t: tuple(c) for t, c in _own_coefficients(rep).items()}, source)
        _same_bytes(replace(rep, config=None), fixed)

    @pytest.mark.parametrize("k", [1, 2])
    def test_obs3(self, k):
        rho = white_noise_mix(ghz_state().density(), 0.9)
        rep = optimize_bound_multipartite(rho, k, CFG, "obs3")
        per_split = {s: {} for s in range(3)}
        for e in rep.per_subset:
            per_split[("1|23", "2|13", "3|12").index(e.split)][e.subset] = np.array(e.coefficients["u"])
        _same_bytes(replace(rep, config=None), observation3_bound(rho, k, per_split))


class TestNoSingleMatrixRecompute:
    """The optimizers report the gaps their search computed: every SVD
    call is a stacked one, and there are no calls after the search."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    def test_horodecki_pairs(self, svd_calls):
        optimize_bound_bipartite(horodecki_state(0.2), 2, CFG)
        # 1 start + 20 iterations x 2 coordinates x 4 probes + 1 final.
        assert len(svd_calls) == 162
        assert set(svd_calls) == {3}

    def test_obs3_singletons(self, svd_calls):
        optimize_bound_multipartite(white_noise_mix(w_state().density(), 0.9), 1, CFG, "obs3")
        assert svd_calls == [3]
