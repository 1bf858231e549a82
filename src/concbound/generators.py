"""Antisymmetric generator families used by the spectral bounds.

A bipartite generator is a tensor product of two rotation-group
generators L_(i,j) = |i><j| - |j><i|, one per side; the product is a
real symmetric matrix. The expectation <psi|J|psi*> vanishes on every
product state, which is what makes these operators entanglement
witnesses at the pure-state level.

Tripartite single-versus-pair splits embed a product of a single-party
generator and a pair-space generator into the three-party ordering.
The canonical sets order each pair subspace by ascending party index;
``canonical_triple`` stacks the three split families that
``tripartite_generators`` builds. The hand-picked example operators,
one family per name in ``_EXAMPLES``, instead use the cyclic conventions
1|23, 2|31, 3|12 (pair factors in that order); the closed-form noise
thresholds they reproduce are sensitive to this choice.

Each family depends only on the dimensions, so every family function
is memoized: a family is built once and then shared by every caller as one
read-only stacked array, which the gap engine reads without copying.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidSplitError,
    NonSquareError,
    ParameterRangeError,
)
from .numerics import _as_index, as_symmetric

# Pair-factor orderings per single party, 0-based: ascending for the
# canonical sets, cyclic for the example operators.
_ASCENDING_PAIRS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
_CYCLIC_PAIRS = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
# Example family -> the index j of its two-qubit pair factor |00><j| - |j><00|.
_EXAMPLES = {"ghz": 3, "w": 2}


def _checked_family(ops, ndim: int) -> np.ndarray:
    """A read-only copy of ``ops`` (a sequence of arrays is stacked), in its
    own dtype, if it is an ndim-axis stack of finite square matrices, each
    symmetric (S = S^T within 1e-10, as ``as_symmetric`` requires). Checked
    one matrix at a time, so no temporary is the size of the family."""
    try:
        ops = np.array(ops)
    except ValueError:  # numpy's error for matrices of unequal shapes
        raise NonSquareError("operators of unequal shapes") from None
    ops.setflags(write=False)
    if ops.ndim != ndim or ops.shape[-1] != ops.shape[-2]:
        raise NonSquareError(f"expected a {ndim}-axis stack of square matrices, got shape {ops.shape}")
    for op in ops.reshape((-1,) + ops.shape[-2:]):
        as_symmetric(op)
    return ops


@dataclass(frozen=True)
class Bipartition:
    """Split of subsystem indices into two nonempty disjoint groups."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        a, b = tuple(self.side_a), tuple(self.side_b)
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        if not a or not b:
            raise InvalidSplitError("both sides must be nonempty")
        n = len(a) + len(b)
        if set(a) | set(b) != set(range(n)) or set(a) & set(b):
            raise InvalidSplitError(f"sides {a} | {b} must partition 0..{n - 1}")

    @classmethod
    def single(cls, index: int, n_parts: int) -> "Bipartition":
        """One subsystem versus the rest."""
        rest = tuple(i for i in range(n_parts) if i != index)
        return cls((index,), rest)

    @property
    def label(self) -> str:
        fmt = lambda side: "".join(str(i + 1) for i in side)
        return f"{fmt(self.side_a)}|{fmt(self.side_b)}"


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered family of symmetric generators for one bipartition.

    ``operators`` is one read-only (N, D, D) array, copied from the
    matrices given, so a family can be shared by every caller; each
    matrix is finite and symmetric, with D = prod(dims).
    ``index_map[t]`` records the rotation-plane pair ((i, j), (k, l))
    behind operator t: (i, j) on the first side, (k, l) on the second.
    """

    operators: np.ndarray
    index_map: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    dims: tuple[int, ...]
    split: str = "1|2"

    def __post_init__(self):
        if len(self.operators) != len(self.index_map):
            raise ParameterRangeError("one index entry per operator required")
        object.__setattr__(self, "operators", _checked_family(self.operators, 3))
        if self.operators.shape[-1] != math.prod(self.dims):
            raise DimensionMismatchError(f"operator size {self.operators.shape[-1]} versus dims {self.dims}")

    @property
    def count(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class GeneratorTriple:
    """Three aligned generator families, one per single-versus-pair split.

    ``operators`` is one read-only (3, N, D, D) array: ``operators[s][t]``
    is the t-th generator for split s in the order 1|23, 2|13, 3|12; the
    three families share index alignment so a subset choice t applies
    across splits. Flattened to (3N, D, D) it is the stack [J1; J2; J3].
    Each matrix is finite and symmetric.
    """

    operators: np.ndarray
    source: str = "canonical"

    def __post_init__(self):
        if len(self.operators) != 3:
            raise InvalidSplitError("exactly three split families required")
        if len({len(ops) for ops in self.operators}) != 1:
            raise ParameterRangeError("split families must have equal lengths")
        object.__setattr__(self, "operators", _checked_family(self.operators, 4))

    @property
    def count(self) -> int:
        return self.operators.shape[1]


def _plane_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def so_generators(d: int) -> list[np.ndarray]:
    """Rotation generators |i><j| - |j><i| of dimension d, pairs in
    lexicographic order. Requires d >= 2."""
    if _as_index(d, ParameterRangeError) < 2:
        raise DimensionTooSmallError(f"no antisymmetric generators in dimension {d}")
    out = []
    for i, j in _plane_pairs(d):
        L = np.zeros((d, d))
        L[i, j] = 1.0
        L[j, i] = -1.0
        out.append(L)
    return out


def _cached(maxsize: int, key):
    """``lru_cache(maxsize)`` on the normalized arguments ``key(*args, **kwargs)``: one entry per family."""
    def decorate(build):
        cached = lru_cache(maxsize)(build)
        family = wraps(build)(lambda *args, **kwargs: cached(*key(*args, **kwargs)))
        family.cache_info = cached.cache_info
        return family
    return decorate


# A run uses at most three families, and bipartite_generators(10, 10) alone is 162 MB.
@_cached(4, lambda m, n: (_as_index(m, ParameterRangeError), _as_index(n, ParameterRangeError)))
def bipartite_generators(m: int, n: int) -> GeneratorSet:
    """All products L_(i,j) x L_(k,l) on C^m x C^n.

    The family has m*n*(m-1)*(n-1)/4 members ordered lexicographically
    by ((i, j), (k, l)). Each operator is real symmetric and the family
    is trace-orthogonal.
    """
    ops = [np.kron(a, b) for a in so_generators(m) for b in so_generators(n)]
    index_map = [(ij, kl) for ij in _plane_pairs(m) for kl in _plane_pairs(n)]
    return GeneratorSet(ops, tuple(index_map), (m, n))


def _embed_single_pair(products: np.ndarray, s: int, p: int, q: int, d: int) -> np.ndarray:
    """Move a stack of products single x pair_op (the pair factor p
    before factor q) into the three-party ordering, single on party s."""
    t = products.reshape((-1,) + (d,) * 6)
    perm = [0, 0, 0]
    perm[s], perm[p], perm[q] = 0, 1, 2  # party -> axis currently holding it
    t = np.transpose(t, axes=[0] + [ax + 1 for ax in perm] + [ax + 4 for ax in perm])
    return t.reshape(-1, d**3, d**3)


def _single_index(split) -> int:
    if isinstance(split, Bipartition):
        if len(split.side_a) != 1 or len(split.side_b) != 2:
            raise InvalidSplitError(f"split {split.label} is not single versus pair")
        return split.side_a[0]
    s = _as_index(split, InvalidSplitError)
    if s not in (0, 1, 2):
        raise InvalidSplitError(f"single-party index {s} outside 0..2")
    return s


# Three splits for each of two dimensions.
@_cached(6, lambda d, split: (_as_index(d, ParameterRangeError), _single_index(split)))
def tripartite_generators(d: int, split) -> GeneratorSet:
    """Single-versus-pair generator family on three d-level systems.

    Products of a single-party rotation generator with a pair-space
    rotation generator, the pair subspace ordered by ascending party
    index: the family ``bipartite_generators(d, d*d)`` with each product
    moved into party order, same index map. ``split`` is the single
    party, given as an index in 0..2 or as a one-versus-two
    Bipartition. For d = 2 the family has 6 members.
    """
    products = bipartite_generators(d, d * d)
    ops = _embed_single_pair(products.operators, split, *_ASCENDING_PAIRS[split], d)
    label = Bipartition.single(split, 3).label
    return GeneratorSet(ops, products.index_map, (d, d, d), label)


# One triple per dimension, whether d is passed or defaulted.
@_cached(4, lambda d=2: (_as_index(d, ParameterRangeError),))
def canonical_triple(d: int = 2) -> GeneratorTriple:
    """The three canonical split families, index-aligned: the operators of
    ``tripartite_generators(d, s)`` stacked for s = 0, 1, 2."""
    return GeneratorTriple(tuple(tripartite_generators(d, s).operators for s in range(3)), "canonical")


# The example families of ``_EXAMPLES``, in any letter case.
@_cached(len(_EXAMPLES), lambda family: (str(family).lower(),))
def example_operators(family: str) -> GeneratorTriple:
    """Hand-picked one-operator-per-split families for the noisy GHZ and
    W detection examples.

    Each operator is S x L with S = |0><1| - |1><0| on the single qubit and
    L = |00><j| - |j><00| on the pair, j from ``_EXAMPLES``: 3 (|11>) for
    "ghz", 2 (|10>) for "w". Pair subspaces follow the cyclic orderings
    (2,3), (3,1), (1,2); the W closed form depends on this.
    """
    if family not in _EXAMPLES:
        raise ParameterRangeError(f"unknown example family {family!r}")
    single = np.array([[0.0, 1.0], [-1.0, 0.0]])  # |0><1| - |1><0|
    pair_op = np.zeros((4, 4))
    j = _EXAMPLES[family]
    pair_op[0, j], pair_op[j, 0] = 1.0, -1.0
    product = np.kron(single, pair_op)
    ops = [_embed_single_pair(product, s, *_CYCLIC_PAIRS[s], 2) for s in range(3)]
    return GeneratorTriple(tuple(ops), family)
