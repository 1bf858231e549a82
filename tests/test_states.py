"""State container, transform, and reference-family checks."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concbound.errors import (
    DecompositionSizeError,
    InvalidSplitError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveSemidefiniteError,
    ParameterRangeError,
    SubsystemIndexError,
)
from concbound import cli, numerics
from concbound.bounds_bipartite import concurrence_pure, lambda_spectrum, observation1_bound, ppt_min_eigenvalue, wootters_concurrence
from concbound.bounds_multipartite import ctau_pure
from concbound.optimizer import OptimizerConfig, optimize_bound_bipartite, optimize_bound_multipartite, threshold_scan
from concbound.generators import Bipartition
from concbound.states import (
    Decomposition,
    DensityMatrix,
    PureState,
    bell_state,
    ghz_state,
    horodecki_state,
    load_state,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    random_decomposition,
    random_density,
    random_pure,
    save_state,
    state_from_jsonable,
    state_to_jsonable,
    w_state,
    white_noise_mix,
)

from _reference import lambda_spectrum_product_route


class TestContainers:
    def test_pure_rejects_bad_norm(self):
        with pytest.raises(NotNormalizedError):
            PureState([1.0, 1.0], (2,))

    def test_pure_norm_check_reads_the_trace_of_its_density(self):
        # Norm 1 + 0.9e-10 is within 1e-10 of 1, but <psi|psi> = 1 + 1.8e-10, the trace
        # density() checks, is not: the vector fails where it is built, not at every bound.
        with pytest.raises(NotNormalizedError):
            PureState([1 + 0.9e-10, 0, 0, 0], (2, 2))
        psi = PureState([1 + 0.4e-10, 0, 0, 0], (2, 2))
        assert wootters_concurrence(psi) == 0.0 and ppt_min_eigenvalue(psi, (0,)) >= 0.0

    def test_pure_index_convention(self):
        # |1 0 1> on (2, 2, 2) sits at flat index 1*4 + 0*2 + 1 = 5.
        vec = np.zeros(8)
        vec[5] = 1.0
        psi = PureState(vec, (2, 2, 2))
        assert psi.amplitudes[5] == 1.0
        assert psi.dim == 8

    def test_sizes_are_exact_where_an_int64_product_wraps(self):
        # 2**32 * 2**32 wraps to 0 in int64, which an empty input would match.
        with pytest.raises(ParameterRangeError, match="does not match dims"):
            PureState(np.zeros(0), (2**32, 2**32))
        with pytest.raises(ParameterRangeError, match="does not match dims"):
            DensityMatrix(np.zeros((0, 0)), (2**32, 2**32))

    def test_density_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-3
        with pytest.raises(NotHermitianError):
            DensityMatrix(m, (2,))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(NotNormalizedError):
            DensityMatrix(np.diag([0.7, 0.7]), (2,))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_pure_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(NonFiniteError):
            PureState([bad, 0.0, 0.0, 0.0], (2, 2))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_non_finite_entries(self, entry, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[entry] = bad
        with pytest.raises(NonFiniteError):
            DensityMatrix(m, (2, 2))

    def test_pure_rejects_overflowing_norm(self):
        # Finite amplitudes whose squared norm overflows.
        with pytest.raises(NonFiniteError):
            PureState([1e200, 1e200], (2,))

    @pytest.mark.parametrize(
        "matrix",
        [np.full((2, 2), 1e308), np.diag([8e307] * 3)],
        ids=["mean-overflows", "trace-overflows"],
    )
    def test_density_rejects_overflowing_entries(self, matrix):
        # Finite entries: the mean or the trace overflows to inf.
        with pytest.raises(NonFiniteError):
            DensityMatrix(matrix, (len(matrix),))

    def test_density_rejects_dim_mismatch(self):
        with pytest.raises(ParameterRangeError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: DensityMatrix(np.eye(4)[:3] / 3, (2, 2)), NonSquareError),
            (lambda: DensityMatrix(np.eye(4) / 4, ()), ParameterRangeError),
            (lambda: DensityMatrix(np.eye(4) / 4, (0, 2)), ParameterRangeError),
            (lambda: PureState([1.0], ()), ParameterRangeError),
            (lambda: PureState([1.0, 0.0], (0, 2)), ParameterRangeError),
            (lambda: PureState(np.ones(3) / np.sqrt(3), (2, 2)), ParameterRangeError),
            (lambda: Decomposition(bell_state(), [0.5, 0.5], [bell_state()]), ParameterRangeError),
        ],
        ids=["non-square", "density-no-dims", "density-zero-dim", "pure-no-dims", "pure-zero-dim", "pure-length", "more-weights"],
    )
    def test_rejects_malformed_shapes(self, build, error):
        with pytest.raises(error):
            build()

    def test_decomposition_validates_reconstruction(self):
        rho = maximally_mixed((2,))
        up = PureState([1.0, 0.0], (2,))
        down = PureState([0.0, 1.0], (2,))
        dec = Decomposition(rho, [0.5, 0.5], [up, down])
        assert len(dec) == 2
        with pytest.raises(ParameterRangeError):
            Decomposition(rho, [0.9, 0.1], [up, down])
        with pytest.raises(NotNormalizedError):
            Decomposition(rho, [0.5, 0.4], [up, down])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_decomposition_rejects_non_finite_weight(self, bad):
        # NaN fails every comparison, the reconstruction's included.
        with pytest.raises(NonFiniteError):
            Decomposition(bell_state().density(), [bad, 1.0], [bell_state(), bell_state()])


class TestStateArguments:
    """The state transforms take a PureState as every bound does, and
    raise TypeError for anything that is not a state."""

    def test_pure_state_equals_its_density(self):
        psi, rho = ghz_state(), ghz_state().density()
        assert np.array_equal(white_noise_mix(psi, 0.5).matrix, white_noise_mix(rho, 0.5).matrix)
        assert np.array_equal(partial_trace(psi, [0]).matrix, partial_trace(rho, [0]).matrix)
        assert np.array_equal(partial_transpose(psi, [0]), partial_transpose(rho, [0]))
        a, b = random_decomposition(psi, 2, seed=1), random_decomposition(rho, 2, seed=1)
        assert a.weights == b.weights
        assert [m.amplitudes.tobytes() for m in a.members] == [m.amplitudes.tobytes() for m in b.members]

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: white_noise_mix(x, 0.5),
            lambda x: partial_trace(x, [0]),
            lambda x: partial_transpose(x, [0]),
            lambda x: random_decomposition(x, 2, seed=1),
        ],
        ids=["white_noise_mix", "partial_trace", "partial_transpose", "random_decomposition"],
    )
    @pytest.mark.parametrize("bad", ["x", np.eye(8) / 8], ids=["str", "ndarray"])
    def test_non_state_raises_type_error(self, call, bad):
        with pytest.raises(TypeError):
            call(bad)

    def test_decomposition_takes_a_pure_state(self):
        dec = Decomposition(bell_state(), [1.0], [bell_state()])
        assert np.array_equal(dec.state.matrix, bell_state().density().matrix)

    @pytest.mark.parametrize("bad", ["x", np.eye(4) / 4], ids=["str", "ndarray"])
    def test_decomposition_rejects_a_non_state(self, bad):
        with pytest.raises(TypeError):
            Decomposition(bad, [1.0], [bell_state()])

    @pytest.mark.parametrize(
        "bad", ["x", np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), bell_state().density()], ids=["str", "ndarray", "density"]
    )
    def test_decomposition_rejects_a_member_that_is_no_pure_state(self, bad):
        with pytest.raises(TypeError):
            Decomposition(bell_state(), [1.0], [bad])


class TestPartialOps:
    def test_ghz_single_qubit_is_mixed(self):
        red = partial_trace(ghz_state().density(), {1})
        assert red.dims == (2,)
        assert abs(red.purity() - 0.5) < 1e-12

    def test_ghz_two_qubit_marginal(self):
        red = partial_trace(ghz_state().density(), {0, 1})
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        assert np.max(np.abs(red.matrix - expected)) < 1e-12

    def test_keep_order_is_subsystem_order(self):
        # |0><0| x |+><+|: keeping {1} must return the |+> marginal.
        plus = PureState(np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2.0), (2, 2))
        red = partial_trace(plus.density(), {1})
        assert np.max(np.abs(red.matrix - 0.5 * np.ones((2, 2)))) < 1e-12

    def test_bad_subsystem_indices(self):
        rho = ghz_state().density()
        with pytest.raises(SubsystemIndexError):
            partial_trace(rho, {3})
        with pytest.raises(SubsystemIndexError):
            partial_trace(rho, set())
        with pytest.raises(SubsystemIndexError):
            partial_transpose(rho, [0, 0])

    def test_split_selects_its_first_side(self):
        rho = ghz_state().density()
        split = Bipartition((1,), (0, 2))
        assert np.array_equal(partial_trace(rho, split).matrix, partial_trace(rho, [1]).matrix)
        assert np.array_equal(partial_transpose(rho, split), partial_transpose(rho, [1]))
        pair = Bipartition((2, 0), (1,))
        assert np.array_equal(partial_trace(rho, pair).matrix, partial_trace(rho, [0, 2]).matrix)
        assert np.array_equal(partial_transpose(rho, pair), partial_transpose(rho, [0, 2]))

    @pytest.mark.parametrize("call", [partial_trace, partial_transpose])
    def test_split_of_non_integer_parties(self, call):
        # Bipartition compares its sides as sets, where True == 1 and 1.0 == 1.
        with pytest.raises(SubsystemIndexError, match="not an integer"):
            call(bell_state(), Bipartition((True,), (0,)))
        with pytest.raises(SubsystemIndexError, match="not an integer"):
            call(ghz_state(), Bipartition((1.0,), (0, 2)))

    @pytest.mark.parametrize("call", [partial_trace, partial_transpose])
    def test_split_of_other_party_count(self, call):
        with pytest.raises(InvalidSplitError):
            call(bell_state(), Bipartition((0,), (1, 2)))
        with pytest.raises(InvalidSplitError):
            call(ghz_state(), Bipartition((0,), (1,)))

    @pytest.mark.parametrize("call", [partial_trace, partial_transpose])
    @pytest.mark.parametrize("bad", [0, None, 1.5], ids=["int", "none", "float"])
    def test_selection_that_is_not_iterable(self, call, bad):
        # partial_trace(bell_state(), 0) raised a bare TypeError.
        with pytest.raises(SubsystemIndexError, match="not iterable"):
            call(bell_state(), bad)

    def test_reduced_state_inherits_its_parents_round_off(self):
        # Three eigenvalues at -0.9e-9 pass the constructor's floor and sum to -2.7e-9 in the reduced state,
        # which the library built and so does not re-check.
        diag = np.array([-0.9e-9] * 3 + [(1 + 2.7e-9) / 6] * 6)
        red = partial_trace(DensityMatrix(np.diag(diag), (3, 3)), [0])
        assert red.dims == (3,) and red.matrix[0, 0].real == pytest.approx(-2.7e-9, rel=1e-6)
        assert red._eigh[0][0] < -1e-9

    def test_bell_partial_transpose_negativity(self):
        pt = partial_transpose(bell_state().density(), {1})
        w = np.linalg.eigvalsh(pt)
        assert abs(w[0] + 0.5) < 1e-12

    def test_partial_transpose_split_complement(self):
        # Transposing one side equals transposing the other side of rho^T.
        rho = random_density((2, 3), 4, seed=7)
        pt_a = partial_transpose(rho, {0})
        pt_b = partial_transpose(rho, {1})
        assert np.max(np.abs(pt_a.T - pt_b)) < 1e-14

    def test_transpose_on_all_parts_is_full_transpose(self):
        rho = random_density((2, 2, 2), 5, seed=9)
        pt = partial_transpose(rho, {0, 1, 2})
        assert np.max(np.abs(pt - rho.matrix.T)) < 1e-14


class TestFamilies:
    def test_ghz_and_w_are_normalized_qubit_triples(self):
        for psi in (ghz_state(), w_state()):
            assert psi.dims == (2, 2, 2)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_white_noise_ghz_midpoint(self):
        rho = white_noise_mix(ghz_state().density(), 0.5)
        diag = np.real(np.diag(rho.matrix))
        assert abs(diag[0] - 0.3125) < 1e-12
        assert abs(diag[7] - 0.3125) < 1e-12
        assert np.max(np.abs(diag[1:7] - 0.0625)) < 1e-12

    def test_white_noise_affine_in_p(self):
        rho = w_state().density()
        a = white_noise_mix(rho, 0.3).matrix
        b = white_noise_mix(rho, 0.7).matrix
        mid = white_noise_mix(rho, 0.5).matrix
        assert np.max(np.abs(0.5 * (a + b) - mid)) < 1e-12

    def test_white_noise_range(self):
        with pytest.raises(ParameterRangeError):
            white_noise_mix(ghz_state().density(), 1.2)

    @pytest.mark.parametrize("a", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_horodecki_is_ppt_both_splits(self, a):
        rho = horodecki_state(a)
        assert rho.dims == (3, 3)
        for part in ({0}, {1}):
            w = np.linalg.eigvalsh(partial_transpose(rho, part))
            assert w[0] > -1e-12

    def test_horodecki_endpoint_is_pure_product(self):
        rho = horodecki_state(0.0)
        assert abs(rho.purity() - 1.0) < 1e-12
        vec = np.zeros(9)
        vec[6] = vec[8] = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(rho.matrix - np.outer(vec, vec))) < 1e-12

    def test_horodecki_range(self):
        with pytest.raises(ParameterRangeError):
            horodecki_state(-0.1)
        with pytest.raises(ParameterRangeError):
            horodecki_state(1.1)


class TestRandomConstructions:
    def test_random_pure_deterministic(self):
        a = random_pure((3, 3), seed=42)
        b = random_pure((3, 3), seed=42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_random_density_rank(self):
        rho = random_density((3, 3), 4, seed=1)
        w = np.linalg.eigvalsh(rho.matrix)
        assert np.count_nonzero(w > 1e-10) == 4
        with pytest.raises(ParameterRangeError):
            random_density((2, 2), 5, seed=1)

    def test_random_decomposition_reconstructs(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            rho = random_density((2, 3), int(rng.integers(1, 7)), seed=rng)
            dec = random_decomposition(rho, 8, seed=rng)
            acc = np.zeros((6, 6), dtype=complex)
            for p, psi in zip(dec.weights, dec.members):
                acc += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
            assert np.max(np.abs(acc - rho.matrix)) < 1e-9

    def test_random_decomposition_identity_seed_is_eigenensemble(self):
        rho = random_density((2, 2), 3, seed=3)
        dec = random_decomposition(rho, 5, seed=None)
        assert len(dec) == 3
        w = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        assert np.allclose(sorted(dec.weights, reverse=True), w[:3], atol=1e-12)

    def test_random_decomposition_size_guard(self):
        rho = random_density((2, 2), 4, seed=11)
        with pytest.raises(DecompositionSizeError):
            random_decomposition(rho, 3, seed=0)


class TestJsonIO:
    def test_pure_roundtrip(self, tmp_path):
        psi = random_pure((2, 3), seed=5)
        path = tmp_path / "psi.json"
        save_state(psi, path)
        back = load_state(path)
        assert isinstance(back, PureState)
        assert back.dims == psi.dims
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-15

    def test_density_roundtrip(self, tmp_path):
        rho = horodecki_state(0.3)
        path = tmp_path / "rho.json"
        save_state(rho, path)
        back = load_state(path)
        assert isinstance(back, DensityMatrix)
        assert back.dims == (3, 3)
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_jsonable_takes_only_a_state(self):
        with pytest.raises(TypeError):
            state_to_jsonable("x")

    def test_jsonable_shape_discriminates(self):
        flat = state_to_jsonable(bell_state())
        assert isinstance(state_from_jsonable(flat), PureState)
        nested = state_to_jsonable(maximally_mixed((2, 2)))
        assert isinstance(state_from_jsonable(nested), DensityMatrix)

    @pytest.mark.parametrize("im", [[[0.0] * 4], 0.0, [0.0] * 4, [[0.0] * 5] * 4], ids=["row", "scalar", "flat", "wide"])
    def test_re_im_shapes_must_match(self, im):
        # "im" is never broadcast against "re", for a matrix or a vector.
        data = state_to_jsonable(maximally_mixed((2, 2)))
        with pytest.raises(ParameterRangeError, match="shape"):
            state_from_jsonable({**data, "im": im})
        pure = state_to_jsonable(bell_state())
        with pytest.raises(ParameterRangeError, match="shape"):
            state_from_jsonable({**pure, "im": 0.0})

    @pytest.mark.parametrize(
        "data",
        [
            {"dims": [2], "re": [1.0, 0.0], "im": [0.0, float("inf")]},
            {"dims": [2], "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, float("inf")], [float("-inf"), 0.0]]},
        ],
        ids=["pure", "density"],
    )
    def test_infinite_imaginary_part_raises_typed_error(self, data):
        # The imaginary part is assigned, so 1j * inf warns nowhere first.
        with pytest.raises(NonFiniteError):
            state_from_jsonable(data)


# Every rank of every listed size, the Horodecki family, noisy W, and a
# state whose smallest eigenvalue sits inside the clamp window.
ROOT_CASES = [
    (f"{'x'.join(map(str, dims))}-rank{rank}", lambda dims=dims, rank=rank: random_density(dims, rank, seed=rank))
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]
    for rank in range(1, int(np.prod(dims)) + 1)
] + [
    (f"horodecki-{a}", lambda a=a: horodecki_state(a)) for a in (0.2, 0.5, 0.8)
] + [
    (f"w-noise-{p}", lambda p=p: white_noise_mix(w_state().density(), p)) for p in (0.2, 0.6)
] + [
    ("clamped", lambda: DensityMatrix(np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]), (2, 2))),
]


class TestRootFromConstructor:
    """A state validates and eigendecomposes itself once, and reads its
    root off that decomposition: the support basis X = Q D^(1/2) is the
    part of psd_sqrt's eigendecomposition of the stored matrix above the
    support cut, bit for bit. No root is formed, so the numerical oracle
    is the spectrum, against the product route, which needs no root."""

    @pytest.mark.parametrize("build", [b for _, b in ROOT_CASES], ids=[n for n, _ in ROOT_CASES])
    def test_root_pair_is_psd_sqrt_bit_for_bit(self, build):
        rho = build()
        w, q = np.linalg.eigh(rho.matrix)  # what psd_sqrt(rho.matrix) decomposes
        keep = w > np.finfo(float).eps * w.size * w[-1]
        assert rho._xc.shape[1] == np.count_nonzero(keep) >= 1
        assert rho._xc.tobytes() == (q[:, keep] * np.sqrt(w[keep])).conj().tobytes()

    @pytest.mark.parametrize("build", [b for _, b in ROOT_CASES], ids=[n for n, _ in ROOT_CASES])
    def test_spectrum_matches_product_route(self, build):
        # With |S| = 1 the product route's square roots are accurate to about
        # sqrt(D eps) <= 4.5e-8 where its matrix has a defective zero eigenvalue.
        rho = build()
        rng = np.random.default_rng(rho.dim)
        for _ in range(3):
            g = rng.normal(size=(rho.dim, rho.dim)) + 1j * rng.normal(size=(rho.dim, rho.dim))
            s_op = (g + g.T) / np.linalg.norm(g + g.T, 2)
            lam = lambda_spectrum(rho, s_op)
            assert lam.shape == (rho.dim,)
            assert np.max(np.abs(lam - lambda_spectrum_product_route(rho, s_op))) < 1e-7

    def test_root_pair_is_cached_and_read_only(self):
        rho = horodecki_state(0.3)
        xc = rho._xc
        assert rho._xc is xc
        with pytest.raises(ValueError):
            xc[0, 0] = 1.0


# The bases of the white-noise families and of the random states a mix may take, and a p grid with both ends,
# the smallest normal-range weight and the four analytic thresholds of the scanned families.
MIX_BASES = {
    "bell": bell_state,
    "ghz": ghz_state,
    "w": w_state,
    **{f"horodecki-{a}": lambda a=a: horodecki_state(a) for a in (0.1, 0.2, 0.5, 0.8, 1.0)},
    **{f"2x2-seed{i}": lambda i=i: random_density((2, 2), i % 4 + 1, seed=i) for i in range(9)},
    "3x3": lambda: random_density((3, 3), 4, seed=1),
    "2x2x2": lambda: random_density((2, 2, 2), 3, seed=2),
}
MIX_WEIGHTS = [*np.linspace(0.0, 1.0, 101).tolist(), 1e-300, 0.2, np.sqrt(3) / (8 + np.sqrt(3)), 3 * (8 * np.sqrt(2) - 3) / 119, 1 / 3]


def _validated_mix(base, p: float) -> DensityMatrix:
    """The mixture as the validating constructor builds it."""
    rho = base.density() if isinstance(base, PureState) else base
    return DensityMatrix(p * rho.matrix + (1 - p) * np.eye(rho.dim) / rho.dim, rho.dims)


def _same_bytes(a: DensityMatrix, b: DensityMatrix) -> bool:
    """Matrix, eigendecomposition, support factor and partial-transpose spectra agree bit for bit (signed zeros too)."""
    pairs = [(a.matrix, b.matrix), *zip(a._eigh, b._eigh), (a._xc, b._xc), (a._pt, b._pt)]
    return a.dims == b.dims and all(x.tobytes() == y.tobytes() for x, y in pairs)


class TestDerivedMix:
    """white_noise_mix checks only the trace of its mixture and decomposes it on first read; every bit of the
    state equals what the validating constructor makes of the same matrix."""

    @pytest.mark.parametrize("name", MIX_BASES)
    def test_mix_is_the_validated_state_bit_for_bit(self, name):
        base = MIX_BASES[name]()
        assert all(_same_bytes(white_noise_mix(base, p), _validated_mix(base, p)) for p in MIX_WEIGHTS)

    @given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]), st.integers(1, 9), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None, database=None)
    def test_mix_of_a_random_state_is_the_validated_state(self, dims, rank, seed, p):
        base = random_density(dims, min(rank, int(np.prod(dims))), seed=seed)
        assert _same_bytes(white_noise_mix(base, p), _validated_mix(base, p))

    def test_mix_decomposes_on_first_read_only(self, monkeypatch):
        base = w_state().density()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or eigh(a))
        rho = white_noise_mix(base, 0.5)
        assert rho._pt.shape == (3, 8) and calls == []  # the transpose spectra read only the matrix
        assert rho._xc.shape == (8, 8) and rho._eigh is rho._eigh
        assert calls == [(8, 8)]

    def test_mix_matrix_is_read_only(self):
        rho = white_noise_mix(ghz_state(), 0.3)
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("p", [-1e-12, 1.0 + 1e-12, float("nan"), -np.inf])
    def test_mix_weight_outside_the_unit_interval_raises(self, p):
        with pytest.raises(ParameterRangeError):
            white_noise_mix(bell_state(), p)

    def test_mix_takes_a_state_only(self):
        with pytest.raises(TypeError):
            white_noise_mix(np.eye(4) / 4, 0.5)
        assert white_noise_mix(bell_state(), 0.5).matrix.tobytes() == white_noise_mix(bell_state().density(), 0.5).matrix.tobytes()


def _ginibre(dims, rank, seed) -> np.ndarray:
    """The matrix random_density hands on, before the validating constructor symmetrizes it."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _outer(psi: PureState) -> np.ndarray:
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


# Builder -> (the state it builds, the raw matrix the validating constructor would be handed for it); a raw of
# None means the built matrix itself, which must then be a matrix the constructor keeps as it is.
DERIVED_BUILDS = {
    **{name: (lambda f=f: f().density(), lambda f=f: _outer(f())) for name, f in [("bell", bell_state), ("ghz", ghz_state), ("w", w_state)]},
    **{f"random-pure-{i}": (lambda i=i: random_pure((2, 3), seed=i).density(), lambda i=i: _outer(random_pure((2, 3), seed=i))) for i in range(3)},
    **{f"horodecki-{a}": (lambda a=a: horodecki_state(a), None) for a in (0.0, 0.1, 0.2, 0.5, 0.8, 1.0)},
    **{f"mixed-{d}": (lambda d=d: maximally_mixed(d), lambda d=d: np.eye(int(np.prod(d))) / np.prod(d)) for d in [(1,), (2, 3), (2, 2, 2)]},
    **{f"random-density-{i}": (lambda i=i: random_density((3, 3), i + 1, seed=i), lambda i=i: _ginibre((3, 3), i + 1, i)) for i in range(3)},
    "trace-ghz-01": (lambda: partial_trace(ghz_state(), [0, 1]), None),
    "trace-w-2": (lambda: partial_trace(w_state(), [2]), None),
    "trace-horodecki-1": (lambda: partial_trace(horodecki_state(0.3), [1]), None),
    "trace-random-02": (lambda: partial_trace(random_density((2, 2, 3), 5, seed=3), [0, 2]), None),
    "trace-keeps-all": (lambda: partial_trace(random_density((2, 3), 2, seed=4), [0, 1]), None),
}


class TestDerivedBuilders:
    """Every state the library builds takes ``_derived`` with exactly the matrix the validating constructor would
    store, so each is that state bit for bit, and none is decomposed before it is read."""

    @pytest.mark.parametrize("name", DERIVED_BUILDS)
    def test_builder_is_the_validated_state_bit_for_bit(self, name):
        build, raw = DERIVED_BUILDS[name]
        rho = build()
        assert _same_bytes(rho, DensityMatrix(rho.matrix if raw is None else raw(), rho.dims))
        assert not rho.matrix.flags.writeable

    @given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, database=None)
    def test_density_of_a_random_pure_state_is_the_validated_state(self, dims, seed):
        psi = random_pure(dims, seed)
        assert _same_bytes(psi.density(), DensityMatrix(_outer(psi), dims))

    @given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, database=None)
    def test_random_state_and_its_reductions_are_validated_states(self, dims, rank, seed):
        rank = min(rank, int(np.prod(dims)))
        rho = random_density(dims, rank, seed)
        assert _same_bytes(rho, DensityMatrix(_ginibre(dims, rank, seed), dims))
        for keep in [[i] for i in range(len(dims))] + [[0, len(dims) - 1]]:
            red = partial_trace(rho, keep)
            assert _same_bytes(red, DensityMatrix(red.matrix, red.dims))

    def _eigh_calls(self, monkeypatch) -> list:
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or eigh(a))
        return calls

    def test_builders_decompose_on_first_read_only(self, monkeypatch):
        calls = self._eigh_calls(monkeypatch)
        built = [build() for build, _ in DERIVED_BUILDS.values()]
        assert calls == []
        assert all(rho._eigh is rho._eigh for rho in built) and len(calls) == len(built)

    def test_ppt_of_a_pure_state_decomposes_nothing(self, monkeypatch):
        calls = self._eigh_calls(monkeypatch)
        worst = [ppt_min_eigenvalue(ghz_state(), (s,)) for s in range(3)]
        assert calls == [] and worst == pytest.approx([-0.5] * 3)

    def test_noisy_ghz_searches_decompose_the_mixture_alone(self, monkeypatch):
        calls = self._eigh_calls(monkeypatch)
        rho = white_noise_mix(ghz_state(), 0.9)
        cfg = OptimizerConfig(restarts=2, iterations=25)
        for mode in ("obs2", "obs3"):
            optimize_bound_multipartite(rho, 1, cfg, mode)
        assert calls == [(8, 8)]


class TestBoundary:
    """Only outside input reaches the validating constructor: a state the library builds, and every bound and
    search on it, never does, and loading a state file checks it once."""

    @pytest.fixture
    def inits(self, monkeypatch) -> list:
        calls, init = [], DensityMatrix.__init__
        monkeypatch.setattr(DensityMatrix, "__init__", lambda self, matrix, dims: calls.append(np.shape(matrix)) or init(self, matrix, dims))
        return calls

    def test_library_states_and_their_bounds_skip_the_constructor(self, inits):
        cfg = OptimizerConfig(restarts=2, iterations=10)
        noisy_ghz = white_noise_mix(ghz_state(), 0.9)
        for build, _ in DERIVED_BUILDS.values():
            build()
        random_decomposition(random_density((2, 3), 2, seed=2), 3, seed=1)
        optimize_bound_bipartite(horodecki_state(0.2), 2, cfg)
        optimize_bound_bipartite(random_pure((2, 3), seed=1), 1, cfg)
        observation1_bound(bell_state(), 1, {(0,): [1.0]})
        wootters_concurrence(white_noise_mix(bell_state(), 0.5))
        concurrence_pure(bell_state())
        ctau_pure(w_state())
        [ppt_min_eigenvalue(ghz_state(), (s,)) for s in range(3)]
        for mode in ("obs2", "obs2-ghz", "obs3"):
            optimize_bound_multipartite(noisy_ghz, 1, cfg, mode)
        threshold_scan(lambda p: white_noise_mix(bell_state(), p), wootters_concurrence, 0.0, 1.0, tol_p=1e-3)
        assert inits == []

    def test_cli_on_family_descriptors_skips_the_constructor(self, inits, tmp_path, capsys):
        fast = ["--optimizer", '{"restarts": 2, "iterations": 10}']
        runs = [
            ["bound", "--state", "family:horodecki,a=0.2", "--mode", "obs1", *fast],
            ["bound", "--state", "family:ghz-noise,p=0.9", "--mode", "obs2"],
            ["bound", "--state", "family:ghz-noise,p=0.9", "--mode", "obs3", *fast],
            ["bound", "--state", "family:maximally-mixed,dims=2x3", "--mode", "ppt"],
            ["scan", "--family", "w-noise", "--mode", "ppt", "--p-range", "0.01:1.0", "--out", str(tmp_path / "w.csv")],
            ["scan", "--family", "bell-noise", "--mode", "wootters", "--p-range", "0.01:1.0", "--out", str(tmp_path / "b.csv")],
            *[["demo", scenario] for scenario in cli._DEMOS],
        ]
        for argv in runs:
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert inits == []

    def test_only_the_constructor_symmetrizes(self, monkeypatch, tmp_path):
        """No builder runs ``as_hermitian``'s checks: density() and random_density take the unchecked Hermitian mean."""
        calls, symmetrized = [], numerics._symmetrized
        monkeypatch.setattr(numerics, "_symmetrized", lambda a, *rest: calls.append(np.shape(a)) or symmetrized(a, *rest))
        for build, _ in DERIVED_BUILDS.values():
            build()
        white_noise_mix(ghz_state(), 0.9)
        white_noise_mix(random_density((2, 3), 3, seed=5), 0.4)
        partial_trace(w_state(), [0, 2])
        maximally_mixed((3, 2))
        assert calls == []
        DensityMatrix(np.eye(4) / 4, (2, 2))
        assert calls == [(4, 4)]
        path = tmp_path / "rho.json"
        save_state(horodecki_state(0.5), path)
        assert isinstance(load_state(path), DensityMatrix) and calls == [(4, 4), (9, 9)]

    def test_loading_a_state_is_the_one_check(self, inits, tmp_path, capsys):
        path = tmp_path / "rho.json"
        save_state(horodecki_state(0.5), path)
        assert isinstance(load_state(path), DensityMatrix) and inits == [(9, 9)]
        assert cli.main(["bound", "--state", str(path), "--mode", "ppt"]) == 0
        capsys.readouterr()
        assert inits == [(9, 9)] * 2


class TestNonIntegralIndices:
    """Dimensions, ranks, sizes and subsystem indices are integers: 2.5 is
    not read as 2. Numpy integers are accepted."""

    NOT_INTEGERS = [2.5, 2.7, np.float64(2.0), "2", True]
    NOT_INDICES = [0.9, np.float64(0.0), "0", False]

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_pure_state_rejects_dims(self, bad):
        with pytest.raises(ParameterRangeError):
            PureState(bell_state().amplitudes, (bad, 2))

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_density_matrix_rejects_dims(self, bad):
        with pytest.raises(ParameterRangeError):
            DensityMatrix(np.eye(4) / 4, (2, bad))

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_maximally_mixed_rejects_dims(self, bad):
        with pytest.raises(ParameterRangeError):
            maximally_mixed((bad, 2))

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_random_pure_rejects_dims(self, bad):
        with pytest.raises(ParameterRangeError):
            random_pure((bad, 2), seed=1)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_random_density_rejects_dims_and_rank(self, bad):
        with pytest.raises(ParameterRangeError):
            random_density((bad, 2), 1, seed=1)
        with pytest.raises(ParameterRangeError):
            random_density((2, 2), bad, seed=1)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_random_decomposition_rejects_size(self, bad):
        with pytest.raises(ParameterRangeError):
            random_decomposition(maximally_mixed((2,)), bad, seed=None)

    @pytest.mark.parametrize("bad", NOT_INDICES)
    def test_partial_trace_rejects_indices(self, bad):
        with pytest.raises(SubsystemIndexError):
            partial_trace(bell_state().density(), [bad])

    @pytest.mark.parametrize("bad", NOT_INDICES)
    def test_partial_transpose_rejects_indices(self, bad):
        with pytest.raises(SubsystemIndexError):
            partial_transpose(bell_state().density(), [bad])

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_state_from_jsonable_rejects_dims(self, bad):
        pure = state_to_jsonable(bell_state())
        mixed = state_to_jsonable(maximally_mixed((2, 2)))
        for data in (pure, mixed):
            with pytest.raises(ParameterRangeError):
                state_from_jsonable({**data, "dims": [bad, 2]})

    @pytest.mark.parametrize(
        "data",
        [
            {"dims": [2, 2]},
            {"re": [1.0, 0.0], "im": [0.0, 0.0]},
            [1, 2],
            "x",
            None,
            {"dims": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
            {"dims": [2], "re": {"a": 1.0}, "im": [0.0, 0.0]},
            # numpy rejects these two with a plain ValueError.
            {"dims": [2], "re": [[1], 0], "im": [[0], 0]},
            {"dims": [1], "re": json.loads("[" * 65 + "1" + "]" * 65), "im": json.loads("[" * 65 + "0" + "]" * 65)},
        ],
        ids=["no-re-im", "no-dims", "list", "string", "null", "int-dims", "dict-re", "ragged-re", "re-past-64-dimensions"],
    )
    def test_state_from_jsonable_rejects_malformed(self, data):
        with pytest.raises(ParameterRangeError):
            state_from_jsonable(data)

    @pytest.mark.parametrize(
        "re",
        [["0.7071067811865476", 0.0], [True, 0], [[0.5, False], [0.0, 0.5]], [[0.5, 0.0], [0.0, "0.5"]], [10**400, 0]],
        ids=["string", "boolean-in-ints", "boolean-in-matrix", "string-in-matrix", "huge-integer"],
    )
    def test_state_from_jsonable_takes_only_numbers(self, re):
        # numpy reads "0.5" as 0.5 and [true, 0] as [1, 0]; the dims check rejects both already.
        im = [[0.0, 0.0], [0.0, 0.0]] if isinstance(re[0], list) else [0.0, 0.0]
        with pytest.raises(ParameterRangeError):
            state_from_jsonable({"dims": [2], "re": re, "im": im})
        with pytest.raises(ParameterRangeError):
            state_from_jsonable({"dims": [2], "re": im, "im": re})

    def test_load_state_rejects_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParameterRangeError, match="nested too deeply"):
            load_state(path)

    def test_numpy_integers_pass(self):
        two = (np.int64(2), np.int32(2))
        assert PureState(bell_state().amplitudes, two).dims == (2, 2)
        assert random_density(two, np.int64(2), seed=4).matrix.tobytes() == random_density((2, 2), 2, seed=4).matrix.tobytes()
        assert partial_trace(bell_state().density(), [np.int64(1)]).dims == (2,)
        assert len(random_decomposition(maximally_mixed((2,)), np.int64(3), seed=None)) == 2
