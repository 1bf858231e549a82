"""The projection lemma in the search: on a state that is PPT across a split,
a subset whose operators span at most 2x3 or 3x2 there has gap 0 at every
coefficient, so the search skips it and reports delta 0 at all-ones
coefficients. Each skipped entry is checked against a search of its own."""
from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from concbound import optimizer
from concbound.generators import GeneratorSet, bipartite_generators, canonical_triple, tripartite_generators
from concbound.optimizer import OptimizerConfig, _lemma_zero, optimize_bound_bipartite, optimize_bound_multipartite, optimize_u
from concbound.states import horodecki_state, random_density, w_state, white_noise_mix

CFG = OptimizerConfig(restarts=2, iterations=10)
PAIRS = list(combinations(range(9), 2))

STATES = {
    "horodecki-0.2": (horodecki_state(0.2), 18),
    "horodecki-0.5": (horodecki_state(0.5), 18),
    "horodecki-0.8": (horodecki_state(0.8), 18),
    "horodecki-0.35-noisy": (white_noise_mix(horodecki_state(0.35), 0.5), 18),
    "random-npt": (random_density((3, 3), 2, seed=1), 0),
}


def _all_ones(entry) -> bool:
    return all(c == 1.0 for vec in entry.coefficients.values() for c in vec)


@pytest.mark.parametrize("name", STATES)
def test_obs1_skips_exactly_the_pairs_the_lemma_proves_zero(name):
    rho, n_zero = STATES[name]
    zero = _lemma_zero(rho, "obs1", bipartite_generators(3, 3).operators, [(0, t) for t in PAIRS])
    assert zero.sum() == n_zero
    rep = optimize_bound_bipartite(rho, 2, CFG)
    assert [e.subset for e in rep.per_subset] == PAIRS
    for entry, pruned in zip(rep.per_subset, zero):
        # optimize_u salts a subset t as the aggregate does.
        _, delta = optimize_u(rho, None, entry.subset, CFG)
        if pruned:
            assert entry.delta == 0.0 and _all_ones(entry)
            assert delta <= 1e-15
        else:
            assert np.float64(entry.delta).tobytes() == np.float64(delta).tobytes()


def test_obs3_on_noisy_w_skips_twelve_pairs_per_split():
    # Pairs of the six two-qubit planes of the pair side that share an
    # index span three of its four levels: 12 of the 15.
    rho = white_noise_mix(w_state().density(), 0.13)
    entries = [(s, t) for s in range(3) for t in combinations(range(6), 2)]
    zero = _lemma_zero(rho, "obs3", canonical_triple(2).operators, entries)
    assert Counter(s for (s, _), z in zip(entries, zero) if z) == {0: 12, 1: 12, 2: 12}
    rep = optimize_bound_multipartite(rho, 2, CFG, "obs3")
    assert [(("1|23", "2|13", "3|12").index(e.split), e.subset) for e in rep.per_subset] == entries
    for (s, t), entry, pruned in zip(entries, rep.per_subset, zero):
        if pruned:
            assert entry.delta == 0.0 and _all_ones(entry)
            assert optimize_u(rho, tripartite_generators(2, s), t, CFG)[1] <= 1e-15


def test_supports_are_read_from_the_operators_not_the_index_map(monkeypatch):
    gens = bipartite_generators(3, 3)
    order = np.random.default_rng(3).permutation(gens.count)
    shuffled = GeneratorSet(gens.operators, tuple(gens.index_map[i] for i in order), gens.dims)
    searched = []
    search = optimizer._search
    monkeypatch.setattr(optimizer, "_search", lambda stack, rows, *a: searched.append(rows.tolist()) or search(stack, rows, *a))
    rho = horodecki_state(0.5)
    reports = [optimize_bound_bipartite(rho, 2, CFG, g).to_json(include_timing=False) for g in (gens, shuffled)]
    assert reports[0] == reports[1]
    assert searched[0] == searched[1] and len(searched[0]) == 18


def test_k1_and_obs2_are_never_pruned():
    rho = horodecki_state(0.2)
    ops = bipartite_generators(3, 3).operators
    assert not _lemma_zero(rho, "obs1", ops, [(0, (i,)) for i in range(9)]).any()
    w = white_noise_mix(w_state().density(), 0.13)
    triple = canonical_triple(2).operators
    assert not _lemma_zero(w, "obs2", triple, [(0, t) for t in combinations(range(6), 2)]).any()


def test_a_ppt_state_on_2x3_searches_nothing(monkeypatch):
    # Every pair of the 2x3 family spans at most 2x3, so no row is left to search.
    monkeypatch.setattr(optimizer, "_search", lambda *a: pytest.fail("searched a pair the lemma proves zero"))
    rep = optimize_bound_bipartite(white_noise_mix(random_density((2, 3), 6, seed=4), 0.2), 2, CFG)
    assert len(rep.per_subset) == 3 and rep.bound_on_c_squared == 0.0
    assert all(e.delta == 0.0 and _all_ones(e) for e in rep.per_subset)
