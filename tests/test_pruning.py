"""The zero certificates of the search. The projection lemma: for a family
whose operators all satisfy S^{T_A} = -S across a split (A transposed), read
from the matrices themselves, on a state that is PPT across that split, a
subset whose operators span at most 2x3 or 3x2 there has gap 0 at every
coefficient; a family without that premise is never pruned. The square-root
ensemble sqrt(rho)|j>: a row whose operators all average to zero over it has
gap 0 at every coefficient, since the gap is the infimum of such averages over
decompositions. The search skips both kinds and reports delta 0 at all-ones
coefficients. Each skipped entry is checked against a search of its own.
Both theorems hold for a row of one operator, and are checked there, but the
search keeps such rows on their closed form without asking either."""
from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations, compress

import numpy as np
import pytest

from _reference import shifts_upb_state
from concbound import optimizer
from concbound.bounds_bipartite import _entry_rows, _gaps, decomposition_average, delta_k, lambda_spectrum, observation1_bound
from concbound.bounds_multipartite import delta_tot_k, observation3_bound
from concbound.generators import GeneratorSet, bipartite_generators, canonical_triple, tripartite_generators
from concbound.numerics import _WEIGHT_FLOOR, psd_sqrt
from concbound.optimizer import (
    _STRATEGIES,
    OptimizerConfig,
    _lemma_zero,
    _sqrt_averages,
    _sqrt_zero,
    optimize_bound_bipartite,
    optimize_bound_multipartite,
    optimize_u,
)
from concbound.states import Decomposition, PureState, ghz_state, horodecki_state, random_density, w_state, white_noise_mix

CFG = OptimizerConfig(restarts=2, iterations=10)
PAIRS = list(combinations(range(9), 2))

STATES = {
    "horodecki-0.2": (horodecki_state(0.2), 18),
    "horodecki-0.5": (horodecki_state(0.5), 18),
    "horodecki-0.8": (horodecki_state(0.8), 18),
    "horodecki-0.35-noisy": (white_noise_mix(horodecki_state(0.35), 0.5), 18),
    "random-npt": (random_density((3, 3), 2, seed=1), 0),
}


def _rows(mode, ops, entries) -> np.ndarray:
    return np.array(_entry_rows(mode, entries, ops.shape[-3]))


def _all_ones(entry) -> bool:
    return all(c == 1.0 for vec in entry.coefficients.values() for c in vec)


@pytest.mark.parametrize("name", STATES)
def test_obs1_skips_exactly_the_pairs_the_lemma_proves_zero(name):
    rho, n_zero = STATES[name]
    ops = bipartite_generators(3, 3).operators
    zero = _lemma_zero(rho, ops, _rows("obs1", ops, [(0, t) for t in PAIRS]))
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
    ops = canonical_triple(2).operators
    zero = _lemma_zero(rho, ops, _rows("obs3", ops, entries))
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
    assert searched[0] == searched[1] and len(searched[0]) == 12


def _all_ones_report(rho, rep):
    """The fixed-coefficient report on a searched report's subsets at all-ones coefficients."""
    ones = {}
    for e in rep.per_subset:
        ones.setdefault(e.split, {})[e.subset] = [1.0] * rep.k
    if rep.mode == "obs1":
        return observation1_bound(rho, rep.k, ones[None])
    return observation3_bound(rho, rep.k, {("1|23", "2|13", "3|12").index(s): a for s, a in ones.items()})


def _k1_keeps_the_closed_form(rho, search, monkeypatch):
    """k=1 reports, exhaustive and top_singletons, equal their all-ones reports byte for
    byte, and no row of one enters either certificate."""
    def longer_rows_only(cert):
        def checked(rho, ops, rows):
            assert rows.shape[1] > 1, "a row of one entered a certificate"
            return cert(rho, ops, rows)
        return checked

    for name in ("_lemma_zero", "_sqrt_zero"):
        monkeypatch.setattr(optimizer, name, longer_rows_only(getattr(optimizer, name)))
    for strategy in _STRATEGIES:
        rep = search(rho, OptimizerConfig(restarts=2, iterations=10, subset_strategy=strategy, top_count=3))
        assert json.dumps({**rep.to_dict(False), "config": None}, sort_keys=True) == _all_ones_report(rho, rep).to_json(False)


def test_k1_and_obs2_are_never_pruned(monkeypatch):
    # The lemma holds on a row of one: it marks all nine singletons of the PPT
    # Horodecki state, whose closed forms read round-off (1.1e-16 at generator 0),
    # yet the search keeps them. obs2's rows mix families, so the lemma never reads them.
    rho = horodecki_state(0.2)
    ops = bipartite_generators(3, 3).operators
    assert _lemma_zero(rho, ops, _rows("obs1", ops, [(0, (i,)) for i in range(9)])).all()
    w = white_noise_mix(w_state().density(), 0.13)
    triple = canonical_triple(2).operators
    assert not _lemma_zero(w, triple, _rows("obs2", triple, [(0, t) for t in combinations(range(6), 2)])).any()
    _k1_keeps_the_closed_form(rho, lambda r, cfg: optimize_bound_bipartite(r, 1, cfg), monkeypatch)


def test_a_ppt_state_on_2x3_searches_nothing(monkeypatch):
    # Every pair of the 2x3 family spans at most 2x3, so no row is left to search.
    monkeypatch.setattr(optimizer, "_search", lambda *a: pytest.fail("searched a pair the lemma proves zero"))
    rep = optimize_bound_bipartite(white_noise_mix(random_density((2, 3), 6, seed=4), 0.2), 2, CFG)
    assert len(rep.per_subset) == 3 and rep.bound_on_c_squared == 0.0
    assert all(e.delta == 0.0 and _all_ones(e) for e in rep.per_subset)


TRIPLE = canonical_triple(2)
NOISY = {
    f"{name}-{p}": (white_noise_mix(pure.density(), p), n_zero)
    for name, pure, n_zero in (("ghz", ghz_state(), 5), ("w", w_state(), 4))
    for p in (0.13, 0.9)
}


def _sqrt_ensemble(rho) -> Decomposition:
    """Members sqrt(rho)|j> / norm with weights <j|rho|j>, dropping weights below the floor."""
    root, weights = psd_sqrt(rho.matrix), np.diag(rho.matrix).real
    keep = np.flatnonzero(weights >= _WEIGHT_FLOOR)
    members = [PureState(root[:, j] / np.linalg.norm(root[:, j]), rho.dims) for j in keep]
    return Decomposition(rho, weights[keep], members)


def _proved_zero(rho, mode, ops, entries) -> np.ndarray:
    """The entries the search skips: the lemma's or the certificate's."""
    rows = _rows(mode, ops, entries)
    return _lemma_zero(rho, ops, rows) | _sqrt_zero(rho, rho._frame(ops), rows)


def _searched_rows(monkeypatch) -> list:
    """Patch the search to record the rows of every call."""
    searched = []
    search = optimizer._search
    monkeypatch.setattr(optimizer, "_search", lambda stack, rows, *a: searched.append(np.asarray(rows).tolist()) or search(stack, rows, *a))
    return searched


@pytest.mark.parametrize("seed", range(4))
def test_the_square_root_averages_are_those_of_the_ensemble(seed):
    # Full rank: the ensemble's root and the support's agree to round-off. Below
    # full rank, psd_sqrt keeps eigenvalues of order eps that the support cut
    # drops, whose square roots are of order 1e-8.
    cases = [(dims, bipartite_generators(*dims).operators) for dims in ((2, 3), (3, 3))]
    cases.append(((2, 2, 2), TRIPLE.operators))
    for dims, ops in cases:
        dim = math.prod(dims)
        for rank, atol in ((dim, 1e-13), (2 + seed, 1e-7)):
            rho = random_density(dims, rank, seed=seed)
            dec = _sqrt_ensemble(rho)
            expect = [decomposition_average(dec, op) for op in ops.reshape(-1, dim, dim)]
            assert np.allclose(_sqrt_averages(rho, rho._frame(ops)), expect, rtol=0.0, atol=atol)


def test_rows_of_one_are_never_certified(monkeypatch):
    # Generators 1, 2, 3, 5 and 7 average to zero on Horodecki, and several
    # canonical operators on noisy W, so the certificate marks their rows of
    # one, yet the search keeps every singleton on its closed form.
    rho = horodecki_state(0.2)
    ops = bipartite_generators(3, 3).operators
    assert (_sqrt_averages(rho, rho._frame(ops)) < 1e-15).sum() == 5
    assert _sqrt_zero(rho, rho._frame(ops), _rows("obs1", ops, [(0, (i,)) for i in range(9)])).sum() == 5
    w = white_noise_mix(w_state().density(), 0.13)
    singles = [(s, (i,)) for s in range(3) for i in range(6)]
    assert (_sqrt_averages(w, w._frame(TRIPLE.operators)) < 1e-15).any()
    assert _sqrt_zero(w, w._frame(TRIPLE.operators), _rows("obs3", TRIPLE.operators, singles)).any()
    _k1_keeps_the_closed_form(rho, lambda r, cfg: optimize_bound_bipartite(r, 1, cfg), monkeypatch)
    _k1_keeps_the_closed_form(w, lambda r, cfg: optimize_bound_multipartite(r, 1, cfg, "obs3"), monkeypatch)


def _single_cases():
    """(kind, state, mode, stacked families): structured states where the
    certificates mark rows of one, and random states where they mark none."""
    h33, h23 = bipartite_generators(3, 3).operators, bipartite_generators(2, 3).operators
    cases = [("structured", white_noise_mix(horodecki_state(a), p), "obs1", h33) for a in (0.2, 0.5, 0.8) for p in (1.0, 0.6)]
    cases += [("structured", white_noise_mix(pure.density(), p), "obs3", TRIPLE.operators)
              for pure in (ghz_state(), w_state()) for p in (1.0, 0.5, 0.15)]
    cases += [("structured", shifts_upb_state(), "obs3", TRIPLE.operators),
              ("structured", shifts_upb_state(), "obs1", tripartite_generators(2, 0).operators)]
    for seed in range(8):
        cases += [("random", random_density((2, 3), 1 + seed % 6, seed=seed), "obs1", h23),
                  ("random", random_density((3, 3), 1 + seed, seed=seed), "obs1", h33),
                  ("random", random_density((2, 2, 2), 1 + seed, seed=seed), "obs3", TRIPLE.operators)]
    return cases


def test_both_certificates_are_sound_on_rows_of_one():
    # Each certificate states a theorem that holds for a row of any length. Over
    # these 426 rows the lemma marks 114 and the certificate 111, none on the 24
    # random states; the largest gap among the marked rows reads 2.2e-16.
    marked = Counter()
    for kind, rho, mode, ops in _single_cases():
        n, n_splits = ops.shape[-3], 3 if mode == "obs3" else 1
        rows, stack = _rows(mode, ops, [(s, (i,)) for s in range(n_splits) for i in range(n)]), rho._frame(ops)
        lemma, sqrt = _lemma_zero(rho, ops, rows), _sqrt_zero(rho, stack, rows)
        marked[kind, "lemma"] += int(lemma.sum())
        marked[kind, "sqrt"] += int(sqrt.sum())
        # The unit coefficient is optimal for one operator, so its closed form is
        # the row's gap; the eigenvalue route of lambda_spectrum checks it apart.
        assert np.all(_gaps(stack, rows, np.ones(rows.shape))[lemma | sqrt] <= 1e-15)
        for op in ops.reshape((-1,) + ops.shape[-2:])[rows[lemma | sqrt, 0]]:
            lam = lambda_spectrum(rho, op)
            assert 2.0 * lam[0] - lam.sum() <= 1e-15
    assert marked == {("structured", "lemma"): 114, ("structured", "sqrt"): 111, ("random", "lemma"): 0, ("random", "sqrt"): 0}


@pytest.mark.parametrize("name", NOISY)
def test_obs2_k1_on_noisy_ghz_and_w_searches_only_the_uncertified_triples(name, monkeypatch):
    rho, n_zero = NOISY[name]
    entries = [(0, (i,)) for i in range(6)]
    stack = rho._frame(TRIPLE.operators)
    zero = _proved_zero(rho, "obs2", TRIPLE.operators, entries)
    assert zero.sum() == n_zero and not _lemma_zero(rho, TRIPLE.operators, _rows("obs2", TRIPLE.operators, entries)).any()
    search = optimizer._search
    searched = _searched_rows(monkeypatch)
    rep = optimize_bound_multipartite(rho, 1, CFG, "obs2")
    assert [len(rows) for rows in searched] == [6 - n_zero]
    assert [e.subset for e in rep.per_subset] == [t for _, t in entries]
    for (_, t), entry, pruned in zip(entries, rep.per_subset, zero):
        # A search of the row alone, salted by its subset as the aggregate salts it.
        delta = search(stack, _entry_rows("obs2", [(0, t)], 6), [t], CFG)[1][0]
        if pruned:
            assert entry.delta == 0.0 and _all_ones(entry)
            assert delta <= 1e-15
        else:
            assert np.float64(entry.delta).tobytes() == np.float64(delta).tobytes()


@pytest.mark.parametrize("name", [n for n in STATES if n.startswith("horodecki")])
def test_obs1_k2_searches_twelve_pairs_on_the_horodecki_states(name, monkeypatch):
    # Generators 1, 2, 3, 5 and 7 average to zero over the square-root
    # ensemble: their 10 pairs are certified, 4 of them also by the lemma.
    rho, _ = STATES[name]
    ops = bipartite_generators(3, 3).operators
    entries = [(0, t) for t in PAIRS]
    zero = _proved_zero(rho, "obs1", ops, entries)
    assert zero.sum() == 24 and (zero & ~_lemma_zero(rho, ops, _rows("obs1", ops, entries))).sum() == 6
    searched = _searched_rows(monkeypatch)
    rep = optimize_bound_bipartite(rho, 2, CFG)
    assert [len(rows) for rows in searched] == [12]
    for entry, pruned in zip(rep.per_subset, zero):
        _, delta = optimize_u(rho, None, entry.subset, CFG)
        if pruned:
            assert entry.delta == 0.0 and _all_ones(entry)
            assert delta <= 1e-15
        else:
            assert np.float64(entry.delta).tobytes() == np.float64(delta).tobytes()


SOUNDNESS = {
    "obs1-horodecki-0.2": (STATES["horodecki-0.2"][0], "obs1", 2),
    "obs1-horodecki-0.35-noisy": (STATES["horodecki-0.35-noisy"][0], "obs1", 2),
    "obs2-ghz-0.13": (NOISY["ghz-0.13"][0], "obs2", 1),
    "obs2-w-0.9": (NOISY["w-0.9"][0], "obs2", 1),
    "obs2-w-0.13-k2": (NOISY["w-0.13"][0], "obs2", 2),
    "obs3-w-0.13-k2": (NOISY["w-0.13"][0], "obs3", 2),
}


@pytest.mark.parametrize("name", SOUNDNESS)
def test_the_square_root_ensemble_bounds_every_gap_and_certifies_the_pruned_rows(name):
    rho, mode, k = SOUNDNESS[name]
    ops = bipartite_generators(3, 3).operators if mode == "obs1" else TRIPLE.operators
    n, n_splits = ops.shape[-3], 3 if mode == "obs3" else 1
    entries = [(s, t) for s in range(n_splits) for t in combinations(range(n), k)]
    rows = _rows(mode, ops, entries)
    zero = _sqrt_zero(rho, rho._frame(ops), rows)
    dec = _sqrt_ensemble(rho)
    rng = np.random.default_rng(11)
    sums = []
    for i, (s, t) in enumerate(entries):
        row = ops.reshape((-1,) + ops.shape[-2:])[rows[i]]
        sums.append(sum(decomposition_average(dec, op) for op in row))
        for _ in range(3):
            c = rng.random(len(row)) * np.exp(2j * np.pi * rng.random(len(row)))
            average = decomposition_average(dec, np.tensordot(c, row, axes=1))
            if mode == "obs2":
                gap = delta_tot_k(rho, TRIPLE, t, c.reshape(3, k))
            else:
                gap = delta_k(rho, None if mode == "obs1" else tripartite_generators(2, s), t, c)
            # Wootters/Uhlmann: every ensemble's average dominates the gap.
            assert gap <= average + 1e-14
            if zero[i]:
                assert average <= 1e-15
    # The certified rows are exactly those whose operators all average to zero.
    assert zero.any() and np.array_equal(zero, np.array(sums) <= 1e-12)


PURE = {
    "ghz": ghz_state(),
    "w": w_state(),
    # sum_j psi_j^2 = 0, so every trace of sqrt(rho) S sqrt(rho)* is 0; only its diagonal's moduli see S.
    "ghz-phase": PureState((np.eye(8)[0] + 1j * np.eye(8)[7]) / math.sqrt(2.0), (2, 2, 2)),
    # Nearly a product: one triple's expectations are 2e-4, far above round-off and below 1e-3.
    "ghz-like-1e-4": PureState(np.eye(8)[0] * math.cos(1e-4) + np.eye(8)[7] * math.sin(1e-4), (2, 2, 2)),
}


@pytest.mark.parametrize("name", PURE)
def test_on_a_pure_state_the_certificate_is_the_expectation(name):
    psi = PURE[name]
    rho = psi.density()
    ops = TRIPLE.operators.reshape(-1, 8, 8)
    expect = np.array([abs(psi.amplitudes.conj() @ op @ psi.amplitudes.conj()) for op in ops])
    assert np.allclose(_sqrt_averages(rho, rho._frame(TRIPLE.operators)), expect, rtol=1e-12, atol=1e-16)
    dec = _sqrt_ensemble(rho)
    assert np.allclose([decomposition_average(dec, op) for op in ops], expect, rtol=1e-12, atol=1e-16)
    entries = [(0, (i,)) for i in range(6)]
    zero = _sqrt_zero(rho, rho._frame(TRIPLE.operators), _rows("obs2", TRIPLE.operators, entries))
    kept = expect.reshape(3, 6).sum(axis=0) > 1e-12
    assert kept.any() and np.array_equal(zero, ~kept)
    rep = optimize_bound_multipartite(psi, 1, CFG, "obs2")
    for entry, keep in zip(rep.per_subset, kept):
        assert entry.delta > 0.0 if keep else entry.delta == 0.0 and _all_ones(entry)


@pytest.mark.parametrize("seed", range(5))
def test_random_states_certify_nothing(seed):
    cases = [(random_density(dims, rank, seed=seed), "obs1", bipartite_generators(*dims).operators, 2)
             for dims, rank in (((2, 3), 1 + seed), ((2, 4), 2 + seed), ((3, 3), 4 + seed))]
    rho = random_density((2, 2, 2), 1 + seed, seed=seed)
    cases += [(rho, "obs2", TRIPLE.operators, k) for k in (1, 2)]
    for rho, mode, ops, k in cases:
        rows = _rows(mode, ops, [(0, t) for t in combinations(range(ops.shape[-3]), k)])
        assert not _sqrt_zero(rho, rho._frame(ops), rows).any()


def _diagonal_family() -> GeneratorSet:
    """The operators |t><t| on 3x3: symmetric, yet S^{T_A} = S, so the lemma's premise fails."""
    ops = np.zeros((9, 9, 9))
    ops[np.arange(9), np.arange(9), np.arange(9)] = 1.0
    return GeneratorSet(ops, tuple(((0, 1), (0, 1)) for _ in range(9)), (3, 3))


def test_a_family_without_the_premise_is_never_pruned_by_the_lemma():
    # On a PPT state every pair of |t><t| spans at most 2x2, so a lemma that
    # skipped its premise would prune all 36 pairs and report 0; pair (0, 4)'s
    # all-ones gap is 0.15.
    rho, gens = horodecki_state(0.2), _diagonal_family()
    rep = optimize_bound_bipartite(rho, 2, OptimizerConfig(restarts=2, iterations=20), gens)
    ones = [delta_k(rho, gens, t, [1.0, 1.0]) for t in PAIRS]
    assert max(ones) > 0.1 and rep.bound_on_c_squared > 0.0
    assert all(e.delta >= g for e, g in zip(rep.per_subset, ones))
    rows = _rows("obs1", gens.operators, [(0, t) for t in PAIRS])
    assert not _lemma_zero(rho, gens.operators, rows).any()
    # The premise is computed from the matrices: a copy of the library family still qualifies.
    library = bipartite_generators(3, 3)
    copy = GeneratorSet(np.array(library.operators), library.index_map, (3, 3))
    zero = _lemma_zero(rho, copy.operators, rows)
    assert zero.sum() == 18 and np.array_equal(zero, _lemma_zero(rho, library.operators, rows))


def _factor(rng, d: int, sign: int) -> np.ndarray:
    """M + sign M^T for M random on one or two random planes, so the supports vary."""
    m = np.zeros((d, d))
    for _ in range(rng.integers(1, 3)):
        i, j = rng.choice(d, 2, replace=False)
        m[i, j] = rng.standard_normal()
    return m + sign * m.T


def _product_family(dims, n: int, seed: int, sign: int = -1) -> GeneratorSet:
    """n random products A (x) B, A = M + sign M^T on the first party and B built the same
    way on the rest. At sign -1, S^{T_A} = A^T (x) B = -S holds bit for bit; at +1,
    S^{T_A} = S, so the family lacks the lemma's premise."""
    rng = np.random.default_rng(seed)
    rest = math.prod(dims[1:])
    ops = [np.kron(_factor(rng, dims[0], sign), _factor(rng, rest, sign)) for _ in range(n)]
    return GeneratorSet(ops, tuple(((0, 1), (0, 1)) for _ in range(n)), dims)


# PPT inputs, where the lemma fires, next to random rank-deficient ones, where it mostly cannot.
PPT_INPUTS = {
    (2, 3): [white_noise_mix(random_density((2, 3), 2, seed=5), 0.3)],
    (3, 3): [horodecki_state(0.3)],
    (2, 2, 2): [shifts_upb_state(), white_noise_mix(w_state().density(), 0.15)],
}


def _generic_cases():
    """(label, state, mode, k, family or None): obs1 at k = 1, 2 with the library
    families and random product families, with and without the lemma's premise;
    on three qubits also obs2 k=1 and obs3 at k = 1, 2."""
    cases = []
    for dims, ppt in PPT_INPUTS.items():
        if len(dims) == 3:
            library = {"1|23": tripartite_generators(2, 0), "2|13": tripartite_generators(2, 1)}
        else:
            library = {"library": bipartite_generators(*dims)}
        n = next(iter(library.values())).count
        for i, rho in enumerate([random_density(dims, rank, seed=rank) for rank in (2, 3)] + ppt):
            products = {"product": _product_family(dims, n, seed=i), "symmetric": _product_family(dims, n, i, sign=1)}
            for label, gens in {**library, **products}.items():
                cases += [(label, rho, "obs1", k, gens) for k in (1, 2)]
            if len(dims) == 3:
                cases += [("obs2", rho, "obs2", 1, None)] + [("obs3", rho, "obs3", k, None) for k in (1, 2)]
    return cases


def test_on_generic_inputs_every_pruned_entry_is_zero_and_no_entry_is_below_all_ones():
    lemma_marked = Counter()
    for label, rho, mode, k, gens in _generic_cases():
        if mode == "obs1":
            ops, rep = gens.operators, optimize_bound_bipartite(rho, k, CFG, gens)
        else:
            ops, rep = TRIPLE.operators, optimize_bound_multipartite(rho, k, CFG, mode)
        n_splits = 3 if mode == "obs3" else 1
        entries = [(s, t) for s in range(n_splits) for t in combinations(range(ops.shape[-3]), k)]
        rows, stack = _rows(mode, ops, entries), rho._frame(ops)
        lemma = _lemma_zero(rho, ops, rows)
        zero = lemma | _sqrt_zero(rho, stack, rows)
        lemma_marked[label, k] += int(lemma.sum())
        ones = _gaps(stack, rows, np.ones(rows.shape))
        deltas = np.array([e.delta for e in rep.per_subset])
        assert np.all(deltas[~zero] >= ones[~zero])
        if zero.any():
            # A search of the marked rows on their own, apart from the aggregate.
            alone = optimizer._search(stack, rows[zero], [(s,) + t for s, t in compress(entries, zero)], CFG)[1]
            assert alone.max() <= 1e-15 and ones[zero].max() <= 1e-15
        if rows.shape[1] > 1:
            assert np.all(deltas[zero] == 0.0)
        else:
            # Rows of one are searched whatever a certificate says: their closed form, round-off and all.
            assert np.array_equal(deltas, ones)
    # obs1 reads its family across party 1 versus the rest: the 1|23 family
    # prunes 12 of the 15 pairs on the Shifts UPB state and on W at p = 0.15,
    # while the 2|13 family lacks the premise S^{T_A} = -S there.
    assert lemma_marked["1|23", 2] == 24 and lemma_marked["2|13", 2] == 0 and lemma_marked["obs2", 1] == 0
    assert lemma_marked["library", 2] > 0 and lemma_marked["product", 2] > 0 and lemma_marked["obs3", 2] > 0
    assert lemma_marked["symmetric", 2] == 0
    # On the same inputs the lemma marks rows of one as well, which the search keeps.
    assert min(lemma_marked[label, 1] for label in ("1|23", "library", "product", "obs3")) > 0
    assert lemma_marked["2|13", 1] == 0 and lemma_marked["symmetric", 1] == 0
