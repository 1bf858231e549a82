"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL
summary line with its evidence, and enforces the stated tolerance and
runtime budget.  Criterion 7 asserts that optimized pair (k=2)
aggregates detect the PPT entangled Horodecki states while singleton
(k=1) aggregates stay at zero on them, as they must: a single generator
acts on a 2x2 product subspace, where PPT already implies separability.
"""
from __future__ import annotations

import math
import time

import numpy as np

from concbound.bounds_bipartite import (
    concurrence_pure,
    concurrence_pure_sumrule,
    decomposition_average,
    delta_k,
    lambda_spectrum,
    observation1_bound,
    ppt_min_eigenvalue,
    wootters_concurrence,
)
from concbound.bounds_multipartite import (
    ctau_pure,
    delta_tot_k,
    observation2_bound,
    observation3_bound,
)
from concbound.generators import (
    bipartite_generators,
    canonical_triple,
    tripartite_generators,
)
from concbound.optimizer import (
    OptimizerConfig,
    optimize_bound_bipartite,
    optimize_bound_multipartite,
    threshold_scan,
)
from concbound.states import (
    DensityMatrix,
    ghz_state,
    horodecki_state,
    random_decomposition,
    random_density,
    random_pure,
    w_state,
    white_noise_mix,
)

from _reference import lambda_spectrum_product_route, takagi

RT3 = math.sqrt(3.0)
W_ONSET = RT3 / (8.0 + RT3)
W_PPT_BOUNDARY = 3.0 * (8.0 * math.sqrt(2.0) - 3.0) / 119.0

SINGLETON = {(0,): ([1.0], [1.0], [1.0])}


def ghz_closed_form(p: float) -> float:
    return (0.75 * (5.0 * p - 1.0)) ** 2 / 6.0


def w_closed_form(p: float) -> float:
    return (p * (8.0 + RT3) - RT3) ** 2 / 96.0


def ghz_family(p: float) -> DensityMatrix:
    return white_noise_mix(ghz_state().density(), p)


def w_family(p: float) -> DensityMatrix:
    return white_noise_mix(w_state().density(), p)


def example_detector(source: str):
    def detect(rho: DensityMatrix) -> float:
        return observation2_bound(rho, 1, SINGLETON, source).bound_on_c_squared

    return detect


def worst_split_ppt(rho: DensityMatrix) -> float:
    return min(ppt_min_eigenvalue(rho, (s,)) for s in range(len(rho.dims)))


def report(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.2f}s): {detail}", flush=True)


def test_criterion_1_wootters_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        rho = random_density((2, 2), i % 4 + 1, seed=i)
        bound = observation1_bound(rho, 1, {(0,): [1.0]}).bound_on_c_squared
        worst = max(worst, abs(bound - wootters_concurrence(rho) ** 2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, elapsed, f"max |bound - wootters^2| = {worst:.3e} over 1000 states")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_ghz_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.25, 0.5, 0.75, 1.0):
        val = observation2_bound(ghz_family(p), 1, SINGLETON, "ghz").bound_on_c_squared
        worst = max(worst, abs(val - ghz_closed_form(p)))
    top = observation2_bound(ghz_family(1.0), 1, SINGLETON, "ghz").bound_on_c_squared
    ctau_sq = ctau_pure(ghz_state()) ** 2
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-9
        and abs(top - 1.5) <= 1e-9
        and abs(top - ctau_sq) <= 1e-9
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        elapsed,
        f"grid dev {worst:.3e}; p=1 bound {top!r} vs 3/2 and ctau^2 {ctau_sq!r}",
    )
    assert worst <= 1e-9
    assert abs(top - 1.5) <= 1e-9
    assert abs(top - ctau_sq) <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_ghz_threshold():
    start = time.perf_counter()
    res = threshold_scan(
        ghz_family, example_detector("ghz"), 0.01, 1.0, tol_p=1e-5, tol_detect=1e-9
    )
    elapsed = time.perf_counter() - start
    dev = abs(res.threshold - 0.2)
    ok = dev <= 1e-4 and elapsed < 5.0
    report(3, ok, elapsed, f"p* = {res.threshold:.6f} (|p* - 0.2| = {dev:.2e})")
    assert dev <= 1e-4
    assert elapsed < 5.0


def test_criterion_4_w_closed_form_and_threshold():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.2, 0.35, 0.5, 0.65, 0.8, 1.0):
        val = observation2_bound(w_family(p), 1, SINGLETON, "w").bound_on_c_squared
        worst = max(worst, abs(val - w_closed_form(p)))
    res = threshold_scan(
        w_family, example_detector("w"), 0.01, 1.0, tol_p=1e-5, tol_detect=1e-9
    )
    elapsed = time.perf_counter() - start
    dev = abs(res.threshold - W_ONSET)
    ok = worst <= 1e-9 and dev <= 1e-4 and elapsed < 5.0
    report(
        4,
        ok,
        elapsed,
        f"grid dev {worst:.3e}; p* = {res.threshold:.6f} vs {W_ONSET:.6f}",
    )
    assert worst <= 1e-9
    assert dev <= 1e-4
    assert elapsed < 5.0


def test_criterion_5_w_ppt_boundary():
    start = time.perf_counter()

    def negativity(rho: DensityMatrix) -> float:
        return max(0.0, -worst_split_ppt(rho))

    res = threshold_scan(w_family, negativity, 0.01, 1.0, tol_p=1e-5, tol_detect=1e-12)
    elapsed = time.perf_counter() - start
    dev = abs(res.threshold - W_PPT_BOUNDARY)
    ok = dev <= 1e-4 and elapsed < 5.0
    report(
        5,
        ok,
        elapsed,
        f"sign change at p = {res.threshold:.6f} vs {W_PPT_BOUNDARY:.6f}",
    )
    assert dev <= 1e-4
    assert elapsed < 5.0


def test_criterion_6_bound_entanglement_window():
    start = time.perf_counter()
    rho = w_family(0.2)
    eigs = [ppt_min_eigenvalue(rho, (s,)) for s in range(3)]
    joint = observation2_bound(rho, 1, SINGLETON, "w").bound_on_c_squared
    elapsed = time.perf_counter() - start
    ok = min(eigs) >= -1e-9 and joint > 1e-4 and elapsed < 5.0
    report(
        6,
        ok,
        elapsed,
        f"ppt min eig {min(eigs):.3e} on all splits; joint bound {joint:.6e}",
    )
    assert min(eigs) >= -1e-9
    assert joint > 1e-4
    assert elapsed < 5.0


def test_criterion_7_horodecki_detection():
    # k=1 must stay silent on PPT states (see the module docstring);
    # pair subsets are what reach the bound entangled Horodecki family.
    start = time.perf_counter()
    pair_cfg = OptimizerConfig(restarts=6, iterations=80)  # exhaustive: all 36 pairs
    single_cfg = OptimizerConfig(restarts=4, iterations=40)
    tol_detect = 1e-7
    rows = {}
    for a in (0.2, 0.5, 0.8):
        rho = horodecki_state(a)
        worst = worst_split_ppt(rho)
        pair_rep = optimize_bound_bipartite(rho, 2, pair_cfg)
        single_rep = optimize_bound_bipartite(rho, 1, single_cfg)
        best = max(pair_rep.per_subset, key=lambda e: e.delta)
        rows[a] = (
            worst,
            len(pair_rep.per_subset),
            pair_rep.bound_on_c_squared,
            best.subset,
            single_rep.bound_on_c_squared,
        )
    elapsed = time.perf_counter() - start
    ok = (
        all(
            worst >= -1e-12 and n == 36 and pair > tol_detect and single <= 1e-12
            for worst, n, pair, _, single in rows.values()
        )
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        elapsed,
        "PPT Horodecki states, k=2 detects / k=1 silent: "
        + ", ".join(
            f"a={a}: k2={pair:.3e} k1={single:.1e}"
            for a, (_, _, pair, _, single) in rows.items()
        ),
    )
    for a, (worst, n, pair, subset, single) in rows.items():
        print(
            f"  a={a}: ppt_min_eig={worst:.3e}, k=2 bound={pair:.6e} over {n} pairs"
            f" (best subset {subset}), k=1 bound={single:.3e}",
            flush=True,
        )
    assert elapsed < 120.0
    for a, (worst, n, pair, _, single) in rows.items():
        assert worst >= -1e-12, f"a={a}: state not PPT ({worst:.3e})"
        assert n == 36, f"a={a}: pair pool has {n} subsets, expected all 36"
        assert pair > tol_detect, (
            f"a={a}: optimized pair bound {pair:.3e} does not exceed"
            f" tol_detect={tol_detect}"
        )
        assert single <= 1e-12, (
            f"a={a}: optimized singleton bound {single:.3e} is not zero on a PPT state"
        )


def test_criterion_8_invariant_suites():
    start = time.perf_counter()
    details = []

    # Sum rule: squared cross terms over the generator family recover the
    # purity form of the pure-state concurrence.
    gens33 = bipartite_generators(3, 3)
    worst = 0.0
    for i in range(500):
        psi = random_pure((3, 3), seed=i)
        worst = max(
            worst, abs(concurrence_pure_sumrule(psi, gens33) - concurrence_pure(psi))
        )
    details.append(f"sum rule {worst:.2e}")
    assert worst <= 1e-9

    # Decomposition dominance: ensemble-averaged pure-state cross terms
    # never fall below the spectral gap.
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(200):
        rho = random_density((3, 3), int(rng.integers(1, 7)), seed=rng)
        t = tuple(sorted(rng.choice(9, size=int(rng.integers(1, 4)), replace=False)))
        u = np.exp(2j * np.pi * rng.random(len(t)))
        s_op = sum(c * gens33.operators[i] for c, i in zip(u, t))
        gap = delta_k(rho, gens33, t, u)
        dec = random_decomposition(rho, int(rng.integers(6, 12)), seed=rng)
        worst = max(worst, gap - decomposition_average(dec, s_op))
    details.append(f"dominance margin {worst:.2e}")
    assert worst <= 1e-8

    # Separable nullity, bipartite: every gap vanishes on mixtures of
    # product projectors.
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(40):
        rho = _random_separable(rng, (3, 3), int(rng.integers(1, 12)))
        t = tuple(sorted(rng.choice(9, size=int(rng.integers(1, 4)), replace=False)))
        u = np.exp(2j * np.pi * rng.random(len(t)))
        worst = max(worst, delta_k(rho, gens33, t, u))
    details.append(f"bipartite separable {worst:.2e}")
    assert worst <= 1e-8

    # Separable nullity, tripartite: fully separable controls stay quiet
    # for the joint operators and for every split.
    rng = np.random.default_rng(41)
    triple = canonical_triple(2)
    split_gens = [tripartite_generators(2, s) for s in range(3)]
    worst = 0.0
    for _ in range(40):
        rho = _random_fully_separable(rng, int(rng.integers(1, 10)))
        t = int(rng.integers(0, triple.count))
        phases = np.exp(2j * np.pi * rng.random(3))
        worst = max(
            worst,
            delta_tot_k(rho, triple, (t,), ([phases[0]], [phases[1]], [phases[2]])),
        )
        for gens in split_gens:
            worst = max(worst, delta_k(rho, gens, (t,), [phases[0]]))
    details.append(f"fully separable {worst:.2e}")
    assert worst <= 1e-8

    # Pure-state soundness: each aggregate stays below the quantity it
    # bounds, with every singleton included at unit coefficient.
    worst = 0.0
    dims_cycle = ((2, 2), (2, 3), (3, 3))
    for i in range(50):
        dims = dims_cycle[i % 3]
        psi = random_pure(dims, seed=1000 + i)
        n = bipartite_generators(*dims).count
        rep = observation1_bound(psi, 1, {(t,): [1.0] for t in range(n)})
        worst = max(worst, rep.bound_on_c_squared - concurrence_pure(psi) ** 2)
    for i in range(40):
        psi = random_pure((2, 2, 2), seed=2000 + i)
        ctau_sq = ctau_pure(psi) ** 2
        joint = {(t,): ([1.0], [1.0], [1.0]) for t in range(6)}
        rep2 = observation2_bound(psi.density(), 1, joint)
        worst = max(worst, rep2.bound_on_c_squared - ctau_sq)
        splitwise = {s: {(t,): [1.0] for t in range(6)} for s in range(3)}
        rep3 = observation3_bound(psi.density(), 1, splitwise)
        worst = max(worst, rep3.bound_on_c_squared - ctau_sq)
    details.append(f"soundness margin {worst:.2e}")
    assert worst <= 1e-8

    # Takagi reconstruction and congruence-vector unitarity.
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        n = 2 + i % 8
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        y = 0.5 * (g + g.T)
        v, d = takagi(y)
        worst = max(worst, np.max(np.abs(v @ np.diag(d) @ v.T - y)))
        worst = max(worst, np.max(np.abs(v.conj().T @ v - np.eye(n))))
    details.append(f"takagi {worst:.2e}")
    assert worst <= 1e-8

    # Spectrum route equivalence: singular values of the square-root
    # sandwich match the eigenvalue route through the matrix product.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        rho = random_density((3, 3), int(rng.integers(1, 10)), seed=rng)
        t = tuple(sorted(rng.choice(9, size=2, replace=False)))
        u = np.exp(2j * np.pi * rng.random(2))
        s_op = sum(c * gens33.operators[i] for c, i in zip(u, t))
        worst = max(
            worst,
            np.max(
                np.abs(
                    lambda_spectrum(rho, s_op) - lambda_spectrum_product_route(rho, s_op)
                )
            ),
        )
    details.append(f"routes {worst:.2e}")
    assert worst <= 1e-8

    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    report(8, ok, elapsed, "; ".join(details))
    assert elapsed < 120.0


def test_criterion_9_splitwise_vs_joint_separation():
    start = time.perf_counter()
    rho = w_family(0.2)
    rep3 = optimize_bound_multipartite(rho, 1, OptimizerConfig(), mode="obs3")
    joint = observation2_bound(rho, 1, SINGLETON, "w").bound_on_c_squared
    elapsed = time.perf_counter() - start
    ok = rep3.bound_on_c_squared <= 1e-8 and joint > 1e-4 and elapsed < 60.0
    report(
        9,
        ok,
        elapsed,
        f"splitwise optimized {rep3.bound_on_c_squared:.3e} vs joint {joint:.6e}",
    )
    assert rep3.bound_on_c_squared <= 1e-8
    assert joint > 1e-4
    assert elapsed < 60.0


def _random_separable(rng, dims, terms) -> DensityMatrix:
    d = int(np.prod(dims))
    weights = rng.random(terms)
    weights /= weights.sum()
    acc = np.zeros((d, d), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for dd in dims:
            v = rng.normal(size=dd) + 1j * rng.normal(size=dd)
            vec = np.kron(vec, v / np.linalg.norm(v))
        acc += w * np.outer(vec, vec.conj())
    return DensityMatrix(acc, dims)


def _random_fully_separable(rng, terms: int) -> DensityMatrix:
    return _random_separable(rng, (2, 2, 2), terms)
