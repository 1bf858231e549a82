"""State container, transform, and reference-family checks."""
from __future__ import annotations

import numpy as np
import pytest

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
from concbound.bounds_bipartite import lambda_spectrum, lambda_spectrum_product_route
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


class TestContainers:
    def test_pure_rejects_bad_norm(self):
        with pytest.raises(NotNormalizedError):
            PureState([1.0, 1.0], (2,))

    def test_pure_index_convention(self):
        # |1 0 1> on (2, 2, 2) sits at flat index 1*4 + 0*2 + 1 = 5.
        vec = np.zeros(8)
        vec[5] = 1.0
        psi = PureState(vec, (2, 2, 2))
        assert psi.amplitudes[5] == 1.0
        assert psi.dim == 8

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
        ],
        ids=["no-re-im", "no-dims", "list", "string", "null", "int-dims", "dict-re"],
    )
    def test_state_from_jsonable_rejects_malformed(self, data):
        with pytest.raises(ParameterRangeError):
            state_from_jsonable(data)

    def test_numpy_integers_pass(self):
        two = (np.int64(2), np.int32(2))
        assert PureState(bell_state().amplitudes, two).dims == (2, 2)
        assert random_density(two, np.int64(2), seed=4).matrix.tobytes() == random_density((2, 2), 2, seed=4).matrix.tobytes()
        assert partial_trace(bell_state().density(), [np.int64(1)]).dims == (2,)
        assert len(random_decomposition(maximally_mixed((2,)), np.int64(3), seed=None)) == 2
