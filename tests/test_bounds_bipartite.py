"""Bipartite bound checks: exact cases, invariants, and error paths."""
from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from concbound.errors import (
    CoefficientBoundError,
    DimensionMismatchError,
    InvalidSplitError,
    LengthMismatchError,
    NonFiniteError,
    NotNormalizedError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    SubsetSizeError,
)
from concbound.bounds_bipartite import (
    BoundReport,
    concurrence_pure,
    concurrence_pure_sumrule,
    decomposition_average,
    delta_k,
    delta_total_bound,
    lambda_spectrum,
    observation1_bound,
    ppt_min_eigenvalue,
    wootters_concurrence,
)
from concbound.generators import Bipartition, bipartite_generators, canonical_triple
from concbound.optimizer import OptimizerConfig, optimize_bound_bipartite, optimize_u
from concbound.states import (
    DensityMatrix,
    _pt_spectra,
    bell_state,
    ghz_state,
    horodecki_state,
    maximally_mixed,
    partial_transpose,
    random_decomposition,
    random_density,
    random_pure,
    w_state,
    white_noise_mix,
)

from _reference import lambda_spectrum_product_route


def random_separable(rng, dims, terms):
    """Convex mixture of random product projectors."""
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


class TestPureConcurrence:
    def test_bell_value(self):
        assert abs(concurrence_pure(bell_state()) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "call",
        [concurrence_pure, lambda x: concurrence_pure_sumrule(x, bipartite_generators(2, 2))],
        ids=["concurrence_pure", "sumrule"],
    )
    @pytest.mark.parametrize("bad", [bell_state().density(), "x"], ids=["density", "str"])
    def test_only_a_pure_state(self, call, bad):
        with pytest.raises(TypeError):
            call(bad)

    def test_product_state_is_zero(self):
        psi = random_pure((3,), seed=1)
        full = np.kron(psi.amplitudes, random_pure((3,), seed=2).amplitudes)
        from concbound.states import PureState

        assert concurrence_pure(PureState(full, (3, 3))) < 1e-7

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_sumrule_matches_purity_form(self, dims):
        rng = np.random.default_rng(401)
        gens = bipartite_generators(*dims)
        for _ in range(50):
            psi = random_pure(dims, seed=rng)
            a = concurrence_pure(psi)
            b = concurrence_pure_sumrule(psi, gens)
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (3, 4)])
    def test_sumrule_matches_per_operator_loop(self, dims):
        # The per-operator loop the stacked evaluation replaced; the sum
        # order differs, so agreement is to double-precision round-off.
        rng = np.random.default_rng(409)
        gens = bipartite_generators(*dims)
        for _ in range(20):
            psi = random_pure(dims, seed=rng)
            conj = psi.amplitudes.conj()
            total = 0.0
            for op in gens.operators:
                total += abs(complex(conj @ (op @ conj))) ** 2
            assert abs(concurrence_pure_sumrule(psi, gens) - math.sqrt(total)) < 1e-14

    def test_sumrule_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            concurrence_pure_sumrule(random_pure((2, 2), seed=0), bipartite_generators(3, 3))

    def test_split_of_other_party_count(self):
        # A three-party split on a two-party state used to read 1.0.
        with pytest.raises(InvalidSplitError):
            concurrence_pure(bell_state(), Bipartition((0,), (1, 2)))


class TestLambdaSpectrum:
    def test_rejects_asymmetric_operator(self):
        rho = maximally_mixed((2, 2))
        with pytest.raises(NotSymmetricError):
            lambda_spectrum(rho, np.diag([1.0, 2.0, 3.0, 4.0]) + np.eye(4, k=1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lambda_spectrum(maximally_mixed((2, 2)), np.zeros((9, 9)))

    def test_descending_and_full_length(self):
        rng = np.random.default_rng(17)
        gens = bipartite_generators(3, 3)
        rho = random_density((3, 3), 5, seed=rng)
        lam = lambda_spectrum(rho, gens.operators[3])
        assert lam.shape == (9,)
        assert np.all(np.diff(lam) <= 1e-15)

    def test_route_equivalence(self):
        rng = np.random.default_rng(5)
        gens = bipartite_generators(3, 3)
        for _ in range(30):
            rho = random_density((3, 3), int(rng.integers(1, 10)), seed=rng)
            t = tuple(sorted(rng.choice(9, size=2, replace=False)))
            u = np.exp(2j * np.pi * rng.random(2))
            s_op = sum(c * gens.operators[i] for c, i in zip(u, t))
            a = lambda_spectrum(rho, s_op)
            b = lambda_spectrum_product_route(rho, s_op)
            assert np.max(np.abs(a - b)) < 1e-8


class TestWootters:
    def test_bell_is_maximal(self):
        assert abs(wootters_concurrence(bell_state().density()) - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.75, 1.0])
    def test_noisy_bell_closed_form(self, p):
        rho = white_noise_mix(bell_state().density(), p)
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(wootters_concurrence(rho) - expected) < 1e-12

    def test_matches_pauli_construction(self):
        # Independent realization with the antiunitary spin-flip matrix.
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        flip = np.kron(sy, sy)
        rng = np.random.default_rng(53)
        for _ in range(50):
            rho = random_density((2, 2), int(rng.integers(1, 5)), seed=rng)
            x = rho.matrix @ flip @ rho.matrix.conj() @ flip
            lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(x).real, 0.0, None)))[::-1]
            ref = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            assert abs(wootters_concurrence(rho) - ref) < 1e-7

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            wootters_concurrence(maximally_mixed((3, 3)))

    def test_single_subset_aggregate_recovers_wootters(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            rho = random_density((2, 2), int(rng.integers(1, 5)), seed=rng)
            rep = observation1_bound(rho, 1, {(0,): [1.0]})
            assert abs(rep.bound_on_c_squared - wootters_concurrence(rho) ** 2) < 1e-9


class TestDeltaK:
    def test_lengths_must_match(self):
        rho = maximally_mixed((3, 3))
        gens = bipartite_generators(3, 3)
        with pytest.raises(LengthMismatchError):
            delta_k(rho, gens, (0, 1), [1.0])

    def test_subset_must_increase(self):
        rho = maximally_mixed((3, 3))
        gens = bipartite_generators(3, 3)
        with pytest.raises(SubsetSizeError):
            delta_k(rho, gens, (1, 1), [1.0, 1.0])
        with pytest.raises(SubsetSizeError):
            delta_k(rho, gens, (3, 1), [1.0, 1.0])
        with pytest.raises(SubsetSizeError):
            delta_k(rho, gens, (0, 99), [1.0, 1.0])

    def test_coefficient_modulus_cap(self):
        rho = maximally_mixed((3, 3))
        gens = bipartite_generators(3, 3)
        with pytest.raises(CoefficientBoundError):
            delta_k(rho, gens, (0,), [1.0 + 1e-6])

    def test_scale_law(self):
        # S scales linearly in u, so the gap scales by |c|.
        rng = np.random.default_rng(61)
        gens = bipartite_generators(3, 3)
        rho = random_density((3, 3), 3, seed=rng)
        u = np.exp(2j * np.pi * rng.random(3))
        base = delta_k(rho, gens, (1, 4, 7), u)
        scaled = delta_k(rho, gens, (1, 4, 7), 0.37 * u)
        assert abs(scaled - 0.37 * base) < 1e-12

    def test_separable_states_give_zero(self):
        rng = np.random.default_rng(67)
        gens = bipartite_generators(3, 3)
        for _ in range(40):
            rho = random_separable(rng, (3, 3), int(rng.integers(1, 12)))
            t = tuple(sorted(rng.choice(9, size=int(rng.integers(1, 4)), replace=False)))
            u = np.exp(2j * np.pi * rng.random(len(t)))
            assert delta_k(rho, gens, t, u) <= 1e-8


class TestObservation1:
    def test_maximally_mixed_is_zero(self):
        rho = maximally_mixed((3, 3))
        for k in (1, 2, 5, 9):
            assignments = {t: np.ones(k) for t in combinations(range(9), k)}
            rep = observation1_bound(rho, k, assignments)
            assert rep.bound_on_c_squared == 0.0

    def test_bell_full_subset(self):
        rep = observation1_bound(bell_state().density(), 1, {(0,): [1.0]})
        assert abs(rep.bound_on_c_squared - 1.0) < 1e-12
        assert rep.n_generators == 1
        assert rep.prefactor == 1.0

    def test_missing_subsets_default_to_zero(self):
        rho = random_density((3, 3), 4, seed=3)
        partial = observation1_bound(rho, 2, {(0, 1): [1.0, 1.0]})
        empty = observation1_bound(rho, 2, {})
        assert empty.bound_on_c_squared == 0.0
        assert partial.bound_on_c_squared >= empty.bound_on_c_squared

    def test_monotone_in_added_subsets(self):
        rng = np.random.default_rng(71)
        rho = random_density((3, 3), 2, seed=rng)
        subsets = list(combinations(range(9), 2))
        assignments = {}
        prev = 0.0
        for t in subsets[:10]:
            assignments[t] = np.exp(2j * np.pi * rng.random(2))
            cur = observation1_bound(rho, 2, assignments).bound_on_c_squared
            assert cur >= prev - 1e-15
            prev = cur

    def test_k_validation(self):
        rho = maximally_mixed((3, 3))
        with pytest.raises(SubsetSizeError):
            observation1_bound(rho, 0, {})
        with pytest.raises(SubsetSizeError):
            observation1_bound(rho, 10, {})
        with pytest.raises(SubsetSizeError):
            observation1_bound(rho, 2, {(0,): [1.0]})

    def test_default_generators_need_bipartite_state(self):
        from concbound.states import ghz_state

        with pytest.raises(DimensionMismatchError):
            observation1_bound(ghz_state().density(), 1, {})

    def test_report_recompute_and_json(self):
        rng = np.random.default_rng(73)
        rho = random_density((2, 3), 3, seed=rng)
        assignments = {t: np.exp(2j * np.pi * rng.random(2)) for t in combinations(range(3), 2)}
        rep = observation1_bound(rho, 2, assignments)
        assert abs(rep.recompute() - rep.bound_on_c_squared) <= 1e-12
        blob = rep.to_json(include_timing=False)
        assert "wall_time" not in blob
        assert str(rep.k) in blob

    def test_soundness_on_random_pure_states(self):
        rng = np.random.default_rng(79)
        gens = bipartite_generators(3, 3)
        for _ in range(60):
            psi = random_pure((3, 3), seed=rng)
            c = concurrence_pure(psi)
            k = int(rng.integers(1, 4))
            subsets = list(combinations(range(9), k))
            assignments = {
                t: np.exp(2j * np.pi * rng.random(k))
                for t in subsets
            }
            rep = observation1_bound(psi.density(), k, assignments, gens)
            assert np.sqrt(rep.bound_on_c_squared) <= c + 1e-6


class TestDeltaTotal:
    def test_normalization_guard(self):
        gens = bipartite_generators(3, 3)
        rho = maximally_mixed((3, 3))
        with pytest.raises(NotNormalizedError):
            delta_total_bound(rho, gens, np.ones(9))
        with pytest.raises(LengthMismatchError):
            delta_total_bound(rho, gens, np.ones(4) / 2.0)

    def test_overflowing_norm_raises_without_warning(self):
        # np.linalg.norm warned of overflow before the typed error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalizedError):
                delta_total_bound(bell_state().density(), bipartite_generators(2, 2), [1e200])

    def test_single_generator_system_recovers_wootters(self):
        gens = bipartite_generators(2, 2)
        rng = np.random.default_rng(83)
        for _ in range(20):
            rho = random_density((2, 2), 4, seed=rng)
            assert abs(delta_total_bound(rho, gens, [1.0]) - wootters_concurrence(rho)) < 1e-12

    def test_lower_bounds_pure_concurrence(self):
        rng = np.random.default_rng(89)
        gens = bipartite_generators(3, 3)
        for _ in range(40):
            psi = random_pure((3, 3), seed=rng)
            u = rng.normal(size=9) + 1j * rng.normal(size=9)
            u /= np.linalg.norm(u)
            val = delta_total_bound(psi.density(), gens, u)
            assert val <= concurrence_pure(psi) + 1e-6


class TestDecompositionAverage:
    def test_dominates_spectral_gap(self):
        # The gap is the infimum of the ensemble average over valid
        # decompositions, so every sampled ensemble sits above it.
        rng = np.random.default_rng(97)
        gens = bipartite_generators(3, 3)
        count = 0
        while count < 200:
            rho = random_density((3, 3), int(rng.integers(1, 7)), seed=rng)
            t = tuple(sorted(rng.choice(9, size=int(rng.integers(1, 4)), replace=False)))
            u = np.exp(2j * np.pi * rng.random(len(t)))
            s_op = sum(c * gens.operators[i] for c, i in zip(u, t))
            gap = delta_k(rho, gens, t, u)
            dec = random_decomposition(rho, int(rng.integers(6, 12)), seed=rng)
            avg = decomposition_average(dec, s_op)
            assert avg >= gap - 1e-8
            count += 1

    def test_pure_state_average_is_exact_expectation(self):
        psi = bell_state()
        gens = bipartite_generators(2, 2)
        dec = random_decomposition(psi.density(), 1, seed=None)
        val = decomposition_average(dec, gens.operators[0])
        conj = psi.amplitudes.conj()
        assert abs(val - abs(conj @ (gens.operators[0] @ conj))) < 1e-12


    @pytest.mark.parametrize("bad", ["x", bell_state(), bell_state().density()], ids=["str", "pure", "density"])
    def test_non_decomposition_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            decomposition_average(bad, np.eye(4))


class TestPptMinEigenvalue:
    def test_bell_negativity(self):
        val = ppt_min_eigenvalue(bell_state().density(), Bipartition((0,), (1,)))
        assert abs(val + 0.5) < 1e-12

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_horodecki_stays_positive(self, a):
        rho = horodecki_state(a)
        for part in ({0}, {1}):
            assert ppt_min_eigenvalue(rho, part) > -1e-12

    # Every rank of each shape, the PPT-entangled Horodecki states, and noisy GHZ and W on both sides of p = 0.2.
    _SPECTRA_STATES = {
        **{f"{'x'.join(map(str, dims))}-rank{r}": lambda dims=dims, r=r: random_density(dims, r, seed=r) for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)) for r in range(1, math.prod(dims) + 1)},
        **{f"horodecki-{a}": lambda a=a: horodecki_state(a) for a in (0.2, 0.5, 0.8)},
        **{f"{name}-{p}": lambda pure=pure, p=p: white_noise_mix(pure(), p) for name, pure in (("ghz", ghz_state), ("w", w_state)) for p in (0.2, 0.9)},
    }

    @pytest.mark.parametrize("name", _SPECTRA_STATES)
    def test_stacked_spectra_carry_the_bits_of_one_call_per_split(self, name):
        rho = self._SPECTRA_STATES[name]()
        # Every nonempty proper subset of the parties, as an index tuple and as a Bipartition.
        n = len(rho.dims)
        parts = [c for size in range(1, n) for c in combinations(range(n), size)]
        splits = parts + [Bipartition(c, tuple(i for i in range(n) if i not in c)) for c in parts]
        rows = _pt_spectra(rho, splits)
        assert rows.shape == (len(splits), rho.dim)
        for row, split in zip(rows, splits):
            assert row.tobytes() == np.linalg.eigvalsh(partial_transpose(rho, split)).tobytes()
            assert ppt_min_eigenvalue(rho, split) == row[0]

    @pytest.mark.parametrize("name", _SPECTRA_STATES)
    def test_cached_rows_are_each_partys_spectrum_read_only(self, name):
        rho = self._SPECTRA_STATES[name]()
        rows = rho._pt
        # Every party, but party 0 alone on two parties.
        assert rows.shape == (1 if len(rho.dims) == 2 else len(rho.dims), rho.dim)
        for s, row in enumerate(rows):
            assert row.tobytes() == np.linalg.eigvalsh(partial_transpose(rho, (s,))).tobytes()
            assert ppt_min_eigenvalue(rho, (s,)) == row[0]
        assert rho._pt is rows and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    def test_split_of_other_party_count(self):
        # A three-party split on a two-party state used to read -0.5.
        with pytest.raises(InvalidSplitError):
            ppt_min_eigenvalue(bell_state(), Bipartition((0,), (1, 2)))
        with pytest.raises(InvalidSplitError):
            ppt_min_eigenvalue(random_density((2, 2, 2), 3, seed=1), Bipartition((0,), (1,)))


# Every function that takes a bipartite generator set, on one set's worth
# of arguments; each returns something comparable with ==.
_GENS_CALLS = {
    "delta_k": lambda gens: delta_k(horodecki_state(0.3), gens, (4, 8), [0.5, 1.0]),
    "optimize_u": lambda gens: optimize_u(horodecki_state(0.3), gens, (4, 8), OptimizerConfig(restarts=2, iterations=5))[1],
    "delta_total_bound": lambda gens: delta_total_bound(horodecki_state(0.3), gens, np.eye(9)[4]),
    "concurrence_pure_sumrule": lambda gens: concurrence_pure_sumrule(random_pure((3, 3), seed=2), gens),
    "observation1_bound": lambda gens: observation1_bound(horodecki_state(0.3), 1, {(4,): [1.0]}, gens).bound_on_c_squared,
    "optimize_bound_bipartite": lambda gens: optimize_bound_bipartite(
        horodecki_state(0.3), 1, OptimizerConfig(restarts=2, iterations=5), gens
    ).bound_on_c_squared,
}


class TestGeneratorArgument:
    """One check of a generator-set argument: None is the product family of
    a bipartite state, and anything but a GeneratorSet raises TypeError."""

    @pytest.mark.parametrize("call", _GENS_CALLS.values(), ids=_GENS_CALLS)
    def test_none_is_the_product_family(self, call):
        assert call(None) == call(bipartite_generators(3, 3))

    @pytest.mark.parametrize("call", _GENS_CALLS.values(), ids=_GENS_CALLS)
    @pytest.mark.parametrize(
        "bad", [canonical_triple(2), bipartite_generators(3, 3).operators, "product"], ids=["triple", "ndarray", "str"]
    )
    def test_non_set_raises_type_error(self, call, bad):
        with pytest.raises(TypeError, match="GeneratorSet"):
            call(bad)


class TestPsdTolerance:
    """Every state the constructor accepts has a square root for the bounds."""

    def test_accepted_negative_eigenvalue_is_clamped(self):
        rho = DensityMatrix(np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]), (2, 2))
        assert wootters_concurrence(rho) == 0.0
        assert observation1_bound(rho, 1, {(0,): [1.0]}).bound_on_c_squared == 0.0
        rep = optimize_bound_bipartite(rho, 1, OptimizerConfig(restarts=1, iterations=1))
        assert rep.bound_on_c_squared == 0.0

    def test_constructor_still_rejects_beyond_tolerance(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            DensityMatrix(np.diag([0.5 + 2e-9, 0.5, 0.0, -2e-9]), (2, 2))


class TestNonFiniteCoefficients:
    # NaN passes every modulus and norm comparison, so without a finiteness
    # check it reached the SVD and surfaced as an untyped LinAlgError.
    @pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("nan")), float("inf")])
    def test_typed_error(self, bad):
        rho = random_density((3, 3), 3, seed=7)
        gens = bipartite_generators(3, 3)
        with pytest.raises(NonFiniteError):
            delta_k(rho, gens, (0,), [bad])
        with pytest.raises(NonFiniteError):
            observation1_bound(rho, 1, {(0,): [bad]})
        with pytest.raises(NonFiniteError):
            delta_total_bound(rho, gens, [bad] * 9)


class TestNonFiniteOperators:
    # A NaN deviation passes the "dev > tol" symmetry test, so a NaN
    # operator used to reach the solvers (untyped LinAlgError) or return nan.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_typed_error(self, bad):
        rho = random_density((2, 2), 2, seed=3)
        s_op = np.zeros((4, 4))
        s_op[1, 2] = bad
        dec = random_decomposition(rho, 4, seed=3)
        for fn, arg in (
            (lambda_spectrum, rho),
            (lambda_spectrum_product_route, rho),
            (decomposition_average, dec),
        ):
            with pytest.raises(NonFiniteError):
                fn(arg, s_op)

    def test_overflowing_operator(self):
        # Finite entries whose symmetrized mean overflows to inf.
        with pytest.raises(NonFiniteError):
            lambda_spectrum(bell_state().density(), np.full((4, 4), 1e308))


class TestNonIntegralIndices:
    """k and subset indices are integers: 2.5 is not read as k = 2, nor
    (4.2, 8.9) as the subset (4, 8). Numpy integers are accepted."""

    NOT_INTEGERS = [2.5, np.float64(2.0), "2", True]

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_observation1_bound_rejects(self, bad):
        rho = horodecki_state(0.3)
        with pytest.raises(SubsetSizeError):
            observation1_bound(rho, bad, {(4, 8): [1.0, 1.0]})
        with pytest.raises(SubsetSizeError):
            observation1_bound(rho, 2, {(4, bad): [1.0, 1.0]})

    def test_observation1_bound_rejects_bools(self):
        # True and False were read as 1 and 0.
        bell = bell_state().density()
        with pytest.raises(SubsetSizeError):
            observation1_bound(bell, True, {(0,): [1.0]})
        with pytest.raises(SubsetSizeError):
            observation1_bound(bell, 1, {(False,): [1.0]})

    @pytest.mark.parametrize("subset", [(4.2, 8.9), (4, 8.0), (np.float64(4.0), 8), ("4", 8), (False, 8)])
    def test_delta_k_rejects(self, subset):
        with pytest.raises(SubsetSizeError):
            delta_k(horodecki_state(0.3), bipartite_generators(3, 3), subset, [1.0, 1.0])

    def test_numpy_integers_pass(self):
        rho = horodecki_state(0.3)
        gens = bipartite_generators(3, 3)
        subset = (np.int32(4), np.int64(8))
        want = observation1_bound(rho, 2, {(4, 8): [1.0, 1.0]}).to_json(include_timing=False)
        assert observation1_bound(rho, np.int64(2), {subset: [1.0, 1.0]}).to_json(include_timing=False) == want
        assert delta_k(rho, gens, subset, [1.0, 1.0]) == delta_k(rho, gens, (4, 8), [1.0, 1.0])


def test_bounds_reuse_the_constructor_eigendecomposition(monkeypatch):
    """One 3x3 state through four bounds: the constructor's eigh is the
    only eigensolve, and nothing calls eigvalsh."""
    matrix = random_density((3, 3), 5, seed=8).matrix
    gens = bipartite_generators(3, 3)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def spy(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    rho = DensityMatrix(matrix, (3, 3))
    observation1_bound(rho, 1, {(0,): [1.0], (4,): [1.0]}, gens)
    delta_k(rho, gens, (0, 4), [1.0, 0.5j])
    lambda_spectrum(rho, gens.operators[4])
    optimize_u(rho, gens, (0, 4), OptimizerConfig(restarts=2, iterations=3))
    assert calls == {"eigh": 1, "eigvalsh": 0}
