"""Tripartite bound checks: exact family values and structural invariants."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from concbound.errors import (
    DimensionMismatchError,
    InvalidSplitError,
    LengthMismatchError,
    NonFiniteError,
    SubsetSizeError,
)
from concbound.bounds_bipartite import concurrence_pure
from concbound.bounds_multipartite import (
    ctau_pure,
    delta_tot_k,
    observation2_bound,
    observation3_bound,
)
from concbound.generators import Bipartition, canonical_triple, example_operators
from concbound.states import (
    DensityMatrix,
    ghz_state,
    maximally_mixed,
    random_pure,
    w_state,
    white_noise_mix,
)

RT3 = math.sqrt(3.0)


def ghz_gap(p: float) -> float:
    return max(0.0, 0.75 * (5.0 * p - 1.0))


def w_gap(p: float) -> float:
    return max(0.0, (p * (8.0 + RT3) - RT3) / 4.0)


def random_fully_separable(rng, terms: int) -> DensityMatrix:
    weights = rng.random(terms)
    weights /= weights.sum()
    acc = np.zeros((8, 8), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for _ in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            vec = np.kron(vec, v / np.linalg.norm(v))
        acc += w * np.outer(vec, vec.conj())
    return DensityMatrix(acc, (2, 2, 2))


class TestCtauPure:
    def test_ghz_value(self):
        assert abs(ctau_pure(ghz_state()) ** 2 - 1.5) < 1e-12

    def test_w_value(self):
        assert abs(ctau_pure(w_state()) - 2.0 / RT3) < 1e-12

    def test_arity_guard(self):
        with pytest.raises(DimensionMismatchError):
            ctau_pure(random_pure((2, 2), seed=0))

    def test_equals_half_sum_of_split_concurrences(self):
        rng = np.random.default_rng(103)
        for dims in ((2, 2, 2), (3, 3, 3)):
            for _ in range(30):
                psi = random_pure(dims, seed=rng)
                total = sum(
                    concurrence_pure(psi, Bipartition.single(i, 3)) ** 2 for i in range(3)
                )
                assert abs(ctau_pure(psi) ** 2 - 0.5 * total) < 1e-9


class TestDeltaTot:
    def test_ghz_pure_value(self):
        val = delta_tot_k(ghz_state().density(), example_operators("ghz"), (0,), ([1.0], [1.0], [1.0]))
        assert abs(val - 3.0) < 1e-12

    def test_w_pure_value(self):
        val = delta_tot_k(w_state().density(), example_operators("w"), (0,), ([1.0], [1.0], [1.0]))
        assert abs(val - 2.0) < 1e-12
        assert abs(val * val / 6.0 - 2.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
    def test_noisy_ghz_closed_form(self, p):
        rho = white_noise_mix(ghz_state().density(), p)
        val = delta_tot_k(rho, example_operators("ghz"), (0,), ([1.0], [1.0], [1.0]))
        assert abs(val - ghz_gap(p)) < 1e-9

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.5, 0.8, 1.0])
    def test_noisy_w_closed_form(self, p):
        rho = white_noise_mix(w_state().density(), p)
        val = delta_tot_k(rho, example_operators("w"), (0,), ([1.0], [1.0], [1.0]))
        assert abs(val - w_gap(p)) < 1e-9

    def test_coefficient_structure_guards(self):
        rho = ghz_state().density()
        triple = example_operators("ghz")
        with pytest.raises(LengthMismatchError):
            delta_tot_k(rho, triple, (0,), ([1.0], [1.0]))
        with pytest.raises(LengthMismatchError):
            delta_tot_k(rho, triple, (0,), ([1.0], [1.0], [1.0, 0.5]))

    def test_arity_guard(self):
        with pytest.raises(DimensionMismatchError):
            delta_tot_k(maximally_mixed((2, 2)), example_operators("ghz"), (0,), ([1], [1], [1]))

    def test_triple_of_other_size_is_rejected(self):
        # A qutrit triple on a three-qubit state: both entry points raise
        # the typed error rather than a numpy reshape failure.
        rho = ghz_state().density()
        ones = ([1.0], [1.0], [1.0])
        with pytest.raises(DimensionMismatchError, match="operator size 27 versus state size 8"):
            delta_tot_k(rho, canonical_triple(3), (0,), ones)
        with pytest.raises(DimensionMismatchError, match="operator size 27 versus state size 8"):
            observation2_bound(rho, 1, {(0,): ones}, canonical_triple(3))

    def test_canonical_triple_on_separable_states(self):
        rng = np.random.default_rng(107)
        triple = canonical_triple(2)
        for _ in range(25):
            rho = random_fully_separable(rng, int(rng.integers(1, 10)))
            t = tuple(sorted(rng.choice(6, size=int(rng.integers(1, 4)), replace=False)))
            x = tuple(np.exp(2j * np.pi * rng.random(len(t))) for _ in range(3))
            assert delta_tot_k(rho, triple, t, x) <= 1e-8


class TestObservation2:
    def test_example_prefactor_is_one_sixth(self):
        rep = observation2_bound(ghz_state().density(), 1, {(0,): ([1.0], [1.0], [1.0])}, "ghz")
        assert rep.n_generators == 1
        assert abs(rep.prefactor - 1.0 / 6.0) < 1e-15
        assert abs(rep.bound_on_c_squared - 1.5) < 1e-12
        assert rep.mode == "obs2-ghz"

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
    def test_noisy_ghz_bound(self, p):
        rho = white_noise_mix(ghz_state().density(), p)
        rep = observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])}, "ghz")
        assert abs(rep.bound_on_c_squared - ghz_gap(p) ** 2 / 6.0) < 1e-9

    @pytest.mark.parametrize("p", [0.17, 0.2, 0.5, 1.0])
    def test_noisy_w_bound(self, p):
        rho = white_noise_mix(w_state().density(), p)
        rep = observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])}, "w")
        assert abs(rep.bound_on_c_squared - w_gap(p) ** 2 / 6.0) < 1e-9

    def test_w_point_two_exceeds_threshold(self):
        rho = white_noise_mix(w_state().density(), 0.2)
        rep = observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])}, "w")
        assert rep.bound_on_c_squared > 1e-4
        assert abs(rep.bound_on_c_squared - 4.786451314966e-4) < 1e-9

    def test_canonical_soundness_on_pure_states(self):
        rng = np.random.default_rng(109)
        triple = canonical_triple(2)
        for _ in range(30):
            psi = random_pure((2, 2, 2), seed=rng)
            k = int(rng.integers(1, 3))
            assignments = {
                t: tuple(np.exp(2j * np.pi * rng.random(k)) for _ in range(3))
                for t in combinations(range(6), k)
            }
            rep = observation2_bound(psi.density(), k, assignments, triple)
            assert rep.bound_on_c_squared <= ctau_pure(psi) ** 2 + 1e-6

    def test_separable_nullity(self):
        rng = np.random.default_rng(113)
        for _ in range(15):
            rho = random_fully_separable(rng, int(rng.integers(1, 10)))
            assignments = {
                t: tuple(np.exp(2j * np.pi * rng.random(1)) for _ in range(3))
                for t in combinations(range(6), 1)
            }
            rep = observation2_bound(rho, 1, assignments)
            assert rep.bound_on_c_squared <= 1e-8

    def test_k_validation(self):
        rho = ghz_state().density()
        with pytest.raises(SubsetSizeError):
            observation2_bound(rho, 2, {}, "ghz")
        with pytest.raises(SubsetSizeError):
            observation2_bound(rho, 0, {})
        with pytest.raises(SubsetSizeError):
            observation2_bound(rho, 7, {})

    def test_recompute_matches(self):
        rng = np.random.default_rng(127)
        rho = white_noise_mix(ghz_state().density(), 0.7)
        assignments = {
            t: tuple(np.exp(2j * np.pi * rng.random(2)) for _ in range(3))
            for t in combinations(range(6), 2)
        }
        rep = observation2_bound(rho, 2, assignments)
        assert abs(rep.recompute() - rep.bound_on_c_squared) <= 1e-12


class TestObservation3:
    def test_half_sum_structure_on_ghz(self):
        # For GHZ every split family contains the pair operator that
        # detects it; all-ones coefficients on singletons already give a
        # positive aggregate on the pure state.
        rho = ghz_state().density()
        assignments = {
            s: {t: [1.0] for t in combinations(range(6), 1)} for s in range(3)
        }
        rep = observation3_bound(rho, 1, assignments)
        assert rep.mode == "obs3"
        assert rep.bound_on_c_squared > 0.0
        assert rep.bound_on_c_squared <= ctau_pure(ghz_state()) ** 2 + 1e-6
        assert abs(rep.recompute() - rep.bound_on_c_squared) <= 1e-12
        splits = {e.split for e in rep.per_subset}
        assert splits == {"1|23", "2|13", "3|12"}

    def test_noisy_w_all_splits_silent(self):
        # At p = 0.2 every bipartition of the noisy W state is PPT and
        # the split-wise gaps clamp at zero, while the joint operator
        # still fires: this separation is the point of the two bounds.
        rho = white_noise_mix(w_state().density(), 0.2)
        assignments = {
            s: {t: np.exp(2j * np.pi * np.random.default_rng(131 + s).random(2)) for t in combinations(range(6), 2)}
            for s in range(3)
        }
        rep = observation3_bound(rho, 2, assignments)
        assert rep.bound_on_c_squared <= 1e-8
        joint = observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])}, "w")
        assert joint.bound_on_c_squared > 1e-4

    def test_missing_splits_contribute_zero(self):
        rho = ghz_state().density()
        rep = observation3_bound(rho, 1, {})
        assert rep.bound_on_c_squared == 0.0

    def test_separable_nullity(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            rho = random_fully_separable(rng, int(rng.integers(1, 8)))
            assignments = {
                s: {t: np.exp(2j * np.pi * rng.random(1)) for t in combinations(range(6), 1)}
                for s in range(3)
            }
            rep = observation3_bound(rho, 1, assignments)
            assert rep.bound_on_c_squared <= 1e-8


class TestInputGuards:
    @pytest.mark.parametrize("key", [3, -1, "0", (0,), 1.0, 2.0, True])
    def test_obs3_rejects_unknown_split_keys(self, key):
        # Such keys were skipped, so the W state read a bound of 0.0;
        # float keys were read as the split of equal value.
        rho = white_noise_mix(w_state().density(), 0.9)
        with pytest.raises(InvalidSplitError):
            observation3_bound(rho, 1, {key: {(0,): [1.0]}})
        with pytest.raises(InvalidSplitError):
            observation3_bound(rho, 1, {0: {(0,): [1.0]}, key: {(0,): [1.0]}})

    def test_non_finite_coefficients(self):
        rho = white_noise_mix(ghz_state().density(), 0.5)
        nan = float("nan")
        with pytest.raises(NonFiniteError):
            observation2_bound(rho, 1, {(0,): ([1.0], [nan], [1.0])}, "ghz")
        with pytest.raises(NonFiniteError):
            delta_tot_k(rho, example_operators("ghz"), (0,), ([1.0], [1.0], [nan]))
        with pytest.raises(NonFiniteError):
            observation3_bound(rho, 1, {2: {(0,): [nan]}})


class TestNonIntegralIndices:
    """k and subset indices are integers: 1.5 is not read as k = 1, nor
    (0.5,) as the subset (0,). Numpy integers are accepted."""

    NOT_INTEGERS = [1.5, np.float64(1.0), "1", True]
    ONES = ([1.0], [1.0], [1.0])

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_observation2_bound_rejects(self, bad):
        rho = white_noise_mix(w_state().density(), 0.5)
        with pytest.raises(SubsetSizeError):
            observation2_bound(rho, bad, {(0,): self.ONES})
        with pytest.raises(SubsetSizeError):
            observation2_bound(rho, 1, {(bad,): self.ONES})

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_observation3_bound_rejects(self, bad):
        rho = white_noise_mix(w_state().density(), 0.5)
        with pytest.raises(SubsetSizeError):
            observation3_bound(rho, bad, {0: {(0,): [1.0]}})
        with pytest.raises(SubsetSizeError):
            observation3_bound(rho, 1, {0: {(bad,): [1.0]}})

    @pytest.mark.parametrize("subset", [(0.5,), (np.float64(1.0),), ("1",), (False,)])
    def test_delta_tot_k_rejects(self, subset):
        with pytest.raises(SubsetSizeError):
            delta_tot_k(white_noise_mix(w_state().density(), 0.5), canonical_triple(2), subset, self.ONES)

    def test_numpy_integers_pass(self):
        rho = white_noise_mix(w_state().density(), 0.5)
        triple = canonical_triple(2)
        want = observation2_bound(rho, 1, {(3,): self.ONES}).to_json(include_timing=False)
        assert observation2_bound(rho, np.int64(1), {(np.int64(3),): self.ONES}).to_json(include_timing=False) == want
        want = observation3_bound(rho, 1, {0: {(3,): [1.0]}}).to_json(include_timing=False)
        assert observation3_bound(rho, np.int32(1), {0: {(np.int32(3),): [1.0]}}).to_json(include_timing=False) == want
        assert delta_tot_k(rho, triple, (np.int64(3),), self.ONES) == delta_tot_k(rho, triple, (3,), self.ONES)
