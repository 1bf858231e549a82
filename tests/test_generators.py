"""Generator family structure and invariant checks."""
from __future__ import annotations

import numpy as np
import pytest

from concbound.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidSplitError,
    NonFiniteError,
    NonSquareError,
    NotSymmetricError,
    ParameterRangeError,
)
from concbound.generators import (
    _ASCENDING_PAIRS,
    _CYCLIC_PAIRS,
    Bipartition,
    GeneratorSet,
    GeneratorTriple,
    _plane_pairs,
    _single_index,
    bipartite_generators,
    canonical_triple,
    example_operators,
    so_generators,
    tripartite_generators,
)
from concbound.states import random_pure


def random_product_vector(rng, dims):
    parts = []
    for d in dims:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        parts.append(v / np.linalg.norm(v))
    vec = parts[0]
    for v in parts[1:]:
        vec = np.kron(vec, v)
    return vec


class TestBipartition:
    def test_label(self):
        assert Bipartition.single(1, 3).label == "2|13"
        assert Bipartition((0,), (1,)).label == "1|2"

    def test_rejects_bad_partitions(self):
        with pytest.raises(InvalidSplitError):
            Bipartition((0,), ())
        with pytest.raises(InvalidSplitError):
            Bipartition((0, 1), (1, 2))
        with pytest.raises(InvalidSplitError):
            Bipartition((0,), (2,))


class TestSoGenerators:
    def test_minimal_dimension(self):
        gens = so_generators(2)
        assert len(gens) == 1
        assert np.array_equal(gens[0], [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_count_and_antisymmetry(self, d):
        gens = so_generators(d)
        assert len(gens) == d * (d - 1) // 2
        for g in gens:
            assert np.array_equal(g, -g.T)

    def test_rejects_trivial_dimension(self):
        with pytest.raises(DimensionTooSmallError):
            so_generators(1)


class TestBipartiteGenerators:
    @pytest.mark.parametrize(
        "m,n,count", [(2, 2, 1), (3, 3, 9), (2, 3, 3), (3, 4, 18)]
    )
    def test_counts(self, m, n, count):
        gens = bipartite_generators(m, n)
        assert gens.count == count == m * n * (m - 1) * (n - 1) // 4

    def test_symmetry_is_exact(self):
        for op in bipartite_generators(3, 3).operators:
            assert np.array_equal(op, op.T)

    def test_trace_orthogonality(self):
        ops = bipartite_generators(2, 3).operators
        for s in range(len(ops)):
            for t in range(len(ops)):
                inner = np.trace(ops[s].conj().T @ ops[t])
                assert abs(inner - (4.0 if s == t else 0.0)) < 1e-14

    def test_index_map_matches_operators(self):
        gens = bipartite_generators(3, 2)
        for op, ((i, j), (k, l)) in zip(gens.operators, gens.index_map):
            left = np.zeros((3, 3))
            left[i, j], left[j, i] = 1.0, -1.0
            right = np.zeros((2, 2))
            right[k, l], right[l, k] = 1.0, -1.0
            assert np.array_equal(op, np.kron(left, right))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_product_states_have_null_expectation(self, dims):
        rng = np.random.default_rng(101)
        gens = bipartite_generators(*dims)
        for _ in range(20):
            vec = random_product_vector(rng, dims)
            conj = vec.conj()
            for op in gens.operators:
                assert abs(conj @ (op @ conj)) < 1e-12


class TestTripartiteGenerators:
    def test_qubit_count(self):
        for s in range(3):
            assert tripartite_generators(2, s).count == 6

    def test_split_labels(self):
        assert tripartite_generators(2, 0).split == "1|23"
        assert tripartite_generators(2, 1).split == "2|13"
        assert tripartite_generators(2, 2).split == "3|12"

    def test_accepts_bipartition(self):
        gens = tripartite_generators(2, Bipartition.single(2, 3))
        assert gens.split == "3|12"

    def test_rejects_bad_splits(self):
        with pytest.raises(InvalidSplitError):
            tripartite_generators(2, 3)
        with pytest.raises(InvalidSplitError):
            tripartite_generators(2, Bipartition((0, 1), (2,)))
        with pytest.raises(DimensionTooSmallError):
            tripartite_generators(1, 0)

    def test_middle_split_orders_pair_ascending(self):
        # For split 2|13 the pair space carries parties (1, 3) in that
        # order: the generator |00><01| - ... on the pair couples basis
        # kets via the third party, never the first.
        gens = tripartite_generators(2, 1)
        # single generator on party 1 is fixed; pair generator (0, 1)
        # acts between pair kets |x0 x2> = |00> and |01>, i.e. full kets
        # differing in the third party only.
        op = gens.operators[0]  # ((0,1) on single, (0,1) on pair)
        # <000|J|010>: single flips party 1 (0->1 amplitude 1), pair
        # maps |x0 x2>=|00> -> |00>? no: pair (0,1) generator sends
        # |01> -> |00>; so <0 1 0|J|0 0 1> should be nonzero.
        idx = lambda a, b, c: 4 * a + 2 * b + c
        assert op[idx(0, 1, 0), idx(0, 0, 1)] != 0.0
        # and nothing couples through the first party for this operator
        assert op[idx(1, 1, 0), idx(0, 0, 1)] == 0.0

    def test_symmetry_and_product_nullity(self):
        rng = np.random.default_rng(211)
        for s in range(3):
            gens = tripartite_generators(2, s)
            for op in gens.operators:
                assert np.array_equal(op, op.T)
            for _ in range(10):
                vec = random_product_vector(rng, (2, 2, 2))
                conj = vec.conj()
                for op in gens.operators:
                    assert abs(conj @ (op @ conj)) < 1e-12


class TestExampleOperators:
    def test_family_validation(self):
        with pytest.raises(ParameterRangeError):
            example_operators("cluster")

    def test_counts_and_symmetry(self):
        for fam in ("ghz", "w"):
            triple = example_operators(fam)
            assert triple.count == 1
            assert triple.source == fam
            for ops in triple.operators:
                assert np.array_equal(ops[0], ops[0].T)

    def test_w_operators_annihilate_topmost_ket(self):
        triple = example_operators("w")
        top = np.zeros(8)
        top[7] = 1.0
        for ops in triple.operators:
            assert np.max(np.abs(ops[0] @ top)) == 0.0

    def test_ghz_first_split_matrix_elements(self):
        # S x L with S on party 1 and L = |00><11| - |11><00| on (2,3):
        # couples |0 x y> with |1 x' y'> where (x,y),(x',y') in {00,11}.
        op = example_operators("ghz").operators[0][0]
        idx = lambda a, b, c: 4 * a + 2 * b + c
        assert op[idx(0, 0, 0), idx(1, 1, 1)] == 1.0
        assert op[idx(1, 1, 1), idx(0, 0, 0)] == 1.0
        assert op[idx(0, 1, 1), idx(1, 0, 0)] == -1.0

    def test_product_nullity(self):
        rng = np.random.default_rng(307)
        for fam in ("ghz", "w"):
            triple = example_operators(fam)
            for _ in range(10):
                vec = random_product_vector(rng, (2, 2, 2))
                conj = vec.conj()
                for ops in triple.operators:
                    assert abs(conj @ (ops[0] @ conj)) < 1e-12


class TestCanonicalTriple:
    def test_alignment(self):
        triple = canonical_triple(2)
        assert triple.count == 6
        assert triple.source == "canonical"
        assert len(triple.operators) == 3


# The per-operator family functions the stacked ones replaced, kept verbatim as
# their oracle: one kron and one party permutation per operator.


def _reference_embed_single_pair(single: np.ndarray, pair_op: np.ndarray, s: int, p: int, q: int, d: int) -> np.ndarray:
    """Place ``single`` on party s and ``pair_op`` on the (p, q) pair
    subspace (factor p before factor q) inside the three-party ordering."""
    t = np.kron(single, pair_op).reshape((d,) * 6)
    perm = [0, 0, 0]
    perm[s], perm[p], perm[q] = 0, 1, 2  # party -> axis currently holding it
    t = np.transpose(t, axes=perm + [ax + 3 for ax in perm])
    return np.ascontiguousarray(t.reshape(d**3, d**3))


def _reference_tripartite_generators(d: int, split) -> GeneratorSet:
    if int(d) < 2:
        raise DimensionTooSmallError(f"no antisymmetric generators in dimension {d}")
    d = int(d)
    s = _single_index(split)
    p, q = _ASCENDING_PAIRS[s]
    singles = so_generators(d)
    pairs = so_generators(d * d)
    ops = []
    index_map = []
    for a, (i, j) in zip(singles, _plane_pairs(d)):
        for b, (k, l) in zip(pairs, _plane_pairs(d * d)):
            ops.append(_reference_embed_single_pair(a, b, s, p, q, d))
            index_map.append(((i, j), (k, l)))
    label = Bipartition.single(s, 3).label
    return GeneratorSet(tuple(ops), tuple(index_map), (d, d, d), label)


def _reference_example_operators(family: str) -> GeneratorTriple:
    family = str(family).lower()
    if family not in ("ghz", "w"):
        raise ParameterRangeError(f"unknown example family {family!r}")
    single = np.array([[0.0, 1.0], [-1.0, 0.0]])  # |0><1| - |1><0|
    pair_op = np.zeros((4, 4))
    if family == "ghz":
        pair_op[0, 3] = 1.0
        pair_op[3, 0] = -1.0
    else:
        pair_op[0, 2] = 1.0
        pair_op[2, 0] = -1.0
    ops = []
    for s in range(3):
        p, q = _CYCLIC_PAIRS[s]
        ops.append((_reference_embed_single_pair(single, pair_op, s, p, q, 2),))
    return GeneratorTriple(tuple(ops), family)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSharedFamilies:
    """Families are built once and shared as read-only stacks."""

    BUILDS = [
        (bipartite_generators, (3, 3)),
        (tripartite_generators, (2, 1)),
        (canonical_triple, (2,)),
        (example_operators, ("w",)),
    ]

    @pytest.mark.parametrize("family", [bipartite_generators(3, 3), canonical_triple(2), example_operators("w")])
    def test_operators_are_read_only(self, family):
        ops = family.operators
        with pytest.raises(ValueError):
            ops[(0,) * ops.ndim] = 1.0
        with pytest.raises(ValueError):
            ops[0] *= 2.0

    @pytest.mark.parametrize("build,args", BUILDS)
    def test_repeat_call_returns_same_object(self, build, args):
        assert build(*args) is build(*args)

    @pytest.mark.parametrize("build,args", BUILDS)
    def test_caches_are_bounded(self, build, args):
        assert 1 <= build.cache_info().maxsize <= 8

    @pytest.mark.parametrize(
        "build,args,same",
        [
            (canonical_triple, (), (2,)),
            (example_operators, ("W",), ("w",)),
            (tripartite_generators, (2, 0), (2, Bipartition.single(0, 3))),
        ],
    )
    def test_spellings_of_one_family_share_one_entry(self, build, args, same):
        family = build(*args)
        size = build.cache_info().currsize
        assert build(*same) is family
        assert build.cache_info().currsize == size

    def test_stack_shapes(self):
        assert bipartite_generators(3, 3).operators.shape == (9, 9, 9)
        assert canonical_triple(2).operators.shape == (3, 6, 8, 8)
        assert example_operators("ghz").operators.shape == (3, 1, 8, 8)

    def test_set_copies_callers_array(self):
        ops = np.stack([g @ g for g in so_generators(3)]).astype(complex)
        gens = GeneratorSet(ops, tuple(((0, 1), (0, 1)) for _ in range(3)), (3,))
        before = gens.operators.copy()
        ops[0] = 7.0
        assert gens.operators.dtype == complex
        assert np.array_equal(gens.operators, before)

    def test_triple_copies_callers_array(self):
        ops = np.zeros((3, 2, 4, 4))
        triple = GeneratorTriple(ops, "custom")
        ops[1, 1] = 5.0
        assert triple.operators.dtype == ops.dtype
        assert not triple.operators.any()

    def test_ragged_triple_is_rejected_before_stacking(self):
        ops = (np.zeros((2, 4, 4)), np.zeros((2, 4, 4)), np.zeros((1, 4, 4)))
        with pytest.raises(ParameterRangeError):
            GeneratorTriple(ops)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_tripartite_matches_per_operator_reference(self, d, split):
        got = tripartite_generators(d, split)
        want = _reference_tripartite_generators(d, split)
        assert _same_bits(got.operators, want.operators)
        assert (got.index_map, got.dims, got.split) == (want.index_map, want.dims, want.split)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_canonical_triple_stacks_the_split_families(self, d, split):
        assert _same_bits(canonical_triple(d).operators[split], tripartite_generators(d, split).operators)

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_example_operators_match_per_operator_reference(self, family):
        got = example_operators(family)
        want = _reference_example_operators(family)
        assert _same_bits(got.operators, want.operators)
        assert got.source == want.source


def _with_entry(ops: np.ndarray, value) -> np.ndarray:
    """A copy of the family ``ops`` with entries (0, 1) and (1, 0) of its
    first matrix set to ``value``, which keeps the matrix symmetric."""
    out = np.array(ops, dtype=complex)
    first = out.reshape((-1,) + out.shape[-2:])[0]
    first[0, 1] = first[1, 0] = value
    return out


class TestMalformedFamilies:
    """A family is a stack of finite symmetric D x D matrices. A
    non-symmetric one used to give invalid bounds (1.5 for the Bell state,
    where C^2 = 1), a NaN one an SVD failure, an infinite one a
    RuntimeWarning, a mis-sized one a matmul error."""

    SET_CASES = {
        "antisymmetric": (np.stack(so_generators(4)), NotSymmetricError),
        "nan": (_with_entry(bipartite_generators(2, 2).operators, np.nan), NonFiniteError),
        "inf": (_with_entry(bipartite_generators(2, 2).operators, np.inf), NonFiniteError),
        "mis-sized": (np.eye(3)[None], DimensionMismatchError),
        "not-a-stack": (np.eye(4), NonSquareError),
        "non-square": (np.zeros((1, 4, 3)), NonSquareError),
        "ragged": ((np.eye(4), np.eye(3)), NonSquareError),
    }
    TRIPLE_CASES = {
        "non-symmetric": (np.triu(np.ones((3, 1, 8, 8))), NotSymmetricError),
        "nan": (_with_entry(example_operators("ghz").operators, np.nan), NonFiniteError),
        "inf": (_with_entry(example_operators("w").operators, -np.inf), NonFiniteError),
        "not-four-axes": (np.zeros((3, 8, 8)), NonSquareError),
        "non-square": (np.zeros((3, 1, 8, 4)), NonSquareError),
        "ragged-split": ((np.zeros((2, 8, 8)), (np.eye(8), np.eye(4)), np.zeros((2, 8, 8))), NonSquareError),
        "two-families": (np.zeros((2, 1, 8, 8)), InvalidSplitError),
    }

    @pytest.mark.parametrize("case", SET_CASES)
    def test_set_rejects(self, case):
        ops, error = self.SET_CASES[case]
        with pytest.raises(error):
            GeneratorSet(ops, tuple(((0, 1), (0, 1)) for _ in ops), (2, 2))

    def test_set_rejects_an_index_map_of_another_length(self):
        ops = bipartite_generators(2, 2).operators
        with pytest.raises(ParameterRangeError):
            GeneratorSet(ops, (((0, 1), (0, 1)),) * 2, (2, 2))

    @pytest.mark.parametrize("case", TRIPLE_CASES)
    def test_triple_rejects(self, case):
        ops, error = self.TRIPLE_CASES[case]
        with pytest.raises(error):
            GeneratorTriple(ops, "custom")


class TestNonIntegralArguments:
    """Dimensions and split indices are integers: 2.5 is not read as 2, nor
    1.7 as the split 2|13, whether or not the family is already cached.
    Numpy integers are accepted and share the cache entry of the int."""

    NOT_INTEGERS = [2.5, np.float64(2.0), "2", True]

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_so_generators_rejects(self, bad):
        with pytest.raises(ParameterRangeError):
            so_generators(bad)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_bipartite_generators_rejects(self, bad):
        bipartite_generators(2, 2)
        with pytest.raises(ParameterRangeError):
            bipartite_generators(bad, 2)
        with pytest.raises(ParameterRangeError):
            bipartite_generators(2, bad)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_tripartite_generators_rejects_dimension(self, bad):
        tripartite_generators(2, 0)
        with pytest.raises(ParameterRangeError):
            tripartite_generators(bad, 0)

    @pytest.mark.parametrize("bad", [1.7, np.float64(1.0), "1", True])
    def test_tripartite_generators_rejects_split(self, bad):
        with pytest.raises(InvalidSplitError):
            tripartite_generators(2, bad)
        with pytest.raises(InvalidSplitError):
            _single_index(bad)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_canonical_triple_rejects(self, bad):
        canonical_triple(2)
        with pytest.raises(ParameterRangeError):
            canonical_triple(bad)

    def test_numpy_integers_pass(self):
        assert bipartite_generators(np.int64(3), np.int32(3)) is bipartite_generators(3, 3)
        assert tripartite_generators(np.int64(2), np.int64(1)) is tripartite_generators(2, 1)
        assert canonical_triple(np.int32(2)) is canonical_triple(2)
        assert np.array_equal(np.stack(so_generators(np.int64(3))), np.stack(so_generators(3)))
        assert bipartite_generators(np.int64(2), 2).dims == (2, 2)
