"""Exact-value oracles beyond two qubits: isotropic states, where the
singleton aggregate equals the known concurrence, and Werner states, where
every aggregate stays below the known upper value.

Isotropic: rho = p |Phi_d><Phi_d| + (1 - p) I / d^2 with fidelity
F = p + (1 - p) / d^2 has C^2 = (2 / (d (d - 1))) (d F - 1)^2 for F > 1/d
and 0 otherwise (Rungta & Caves, PRA 67, 012307 (2003)), in the
C = sqrt(2 (1 - Tr rho_A^2)) normalization of ``concurrence_pure``.

Werner: for p >= 1/2, rho_W(p) = p P_a / (d (d - 1) / 2) + (1 - p) P_s /
(d (d + 1) / 2) is (2p - 1) rho_W(1) + (2 - 2p) rho_W(1/2). rho_W(1) mixes
the antisymmetric basis states, of concurrence 1 each, and rho_W(1/2) is
separable, so by convexity C <= 2p - 1. Only soundness is asserted: for
d >= 3 the aggregates stay well below that value.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from concbound import (
    DensityMatrix,
    OptimizerConfig,
    PureState,
    bipartite_generators,
    observation1_bound,
    optimize_bound_bipartite,
    white_noise_mix,
)

# Pairs among the four generators of the largest single gaps: the full d = 4
# pair search would take seconds.
PAIRS = OptimizerConfig(restarts=2, iterations=10, subset_strategy="top_singletons", top_count=4)


def isotropic(d: int, p: float) -> DensityMatrix:
    return white_noise_mix(PureState(np.eye(d).reshape(-1) / math.sqrt(d), (d, d)), p)


def werner(d: int, p: float) -> DensityMatrix:
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    anti, sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
    return DensityMatrix(p * anti / (d * (d - 1) / 2) + (1 - p) * sym / (d * (d + 1) / 2), (d, d))


def singletons(d: int, rho: DensityMatrix) -> float:
    ones = {(t,): [1.0] for t in range(bipartite_generators(d, d).count)}
    return observation1_bound(rho, 1, ones).bound_on_c_squared


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
def test_isotropic_singleton_aggregate_is_exact(d, p):
    fidelity = p + (1 - p) / d**2
    exact = 2 / (d * (d - 1)) * (d * fidelity - 1) ** 2
    assert singletons(d, isotropic(d, p)) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [3, 4])
def test_isotropic_singleton_aggregate_is_zero_where_separable(d):
    # F = 0.2 + 0.8 / d^2 is at most 1/d: below it for d = 3, on it for d = 4.
    assert 0.2 + 0.8 / d**2 <= 1 / d
    assert singletons(d, isotropic(d, 0.2)) <= 1e-20


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
def test_werner_aggregates_stay_below_the_convexity_value(d, p):
    rho, cap = werner(d, p), (2 * p - 1) ** 2
    n = bipartite_generators(d, d).count
    assert singletons(d, rho) <= cap
    assert optimize_bound_bipartite(rho, 1, OptimizerConfig()).bound_on_c_squared <= cap
    assert optimize_bound_bipartite(rho, 2, PAIRS).bound_on_c_squared <= cap
    assert observation1_bound(rho, 2, {t: [1.0, 1.0] for t in combinations(range(n), 2)}).bound_on_c_squared <= cap
