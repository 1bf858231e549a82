"""The support basis and its operator stacks: every gap is the singular
value gap of B = X^dag S conj(X), X = Q D^(1/2) on the support of rho,
with B formed once per (state, family)."""
from __future__ import annotations

import numpy as np
import pytest

from concbound.bounds_bipartite import (
    delta_k,
    lambda_spectrum,
    observation1_bound,
    wootters_concurrence,
)
from concbound.bounds_multipartite import delta_tot_k, observation2_bound, observation3_bound
from concbound.generators import bipartite_generators, canonical_triple
from concbound.numerics import psd_sqrt
from concbound.optimizer import OptimizerConfig, optimize_bound_bipartite, optimize_bound_multipartite, optimize_u
from concbound.states import (
    SupportBasis,
    ghz_state,
    horodecki_state,
    random_density,
    w_state,
    white_noise_mix,
)

CFG = OptimizerConfig(restarts=2, iterations=20)

# Every rank of every bipartite size up to 3x3, the Horodecki family and
# a noisy Horodecki state.
STATES = [
    (f"{'x'.join(map(str, dims))}-rank{rank}", lambda dims=dims, rank=rank: random_density(dims, rank, seed=rank))
    for dims in [(2, 2), (2, 3), (3, 3)]
    for rank in range(1, int(np.prod(dims)) + 1)
] + [
    (f"horodecki-{a}", lambda a=a: horodecki_state(a)) for a in (0.2, 0.5, 0.8)
] + [
    ("horodecki-0.2-noisy", lambda: white_noise_mix(horodecki_state(0.2), 0.9)),
]


def _gap(a: np.ndarray) -> float:
    lam = np.linalg.svd(a, compute_uv=False)
    return max(0.0, 2.0 * float(lam[0]) - float(np.sum(lam)))


def _random_cases(rng, rho, count):
    """(subset, coefficients, S) for ``count`` random subsets of up to four generators."""
    gens = bipartite_generators(*rho.dims)
    for _ in range(count):
        k = int(rng.integers(1, min(gens.count, 4) + 1))
        t = tuple(sorted(rng.choice(gens.count, k, replace=False).tolist()))
        u = rng.random(k) * np.exp(2j * np.pi * rng.random(k))
        yield t, u, np.tensordot(u, gens.operators[list(t)], axes=1)


def _mp_gap(rho, s_op) -> float:
    """The gap of sqrt(rho) S conj(sqrt(rho)) in 40-digit arithmetic."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    w, q = mp.eighe(mp.matrix(rho.matrix.tolist()))
    root = q * mp.diag([mp.sqrt(max(x.real, 0)) for x in w]) * q.H
    conj = mp.matrix([[root[i, j].conjugate() for j in range(root.cols)] for i in range(root.rows)])
    lam = mp.svd_c(root * mp.matrix(s_op.tolist()) * conj, compute_uv=False)
    return max(0.0, float(2 * max(lam) - sum(lam)))


class TestCrossRoute:
    """The engine's gaps against the full-matrix route through psd_sqrt,
    which keeps every eigenvalue, and against a 40-digit oracle."""

    def test_gaps_match_the_root_sandwich(self):
        rng = np.random.default_rng(7)
        worst = []
        for _, build in STATES:
            rho = build()
            gens = bipartite_generators(*rho.dims)
            r = psd_sqrt(rho.matrix)
            for t, u, s_op in _random_cases(rng, rho, 27):
                got = delta_k(rho, gens, t, u)
                worst.append((abs(got - _gap(r @ s_op @ r.conj())), rho, s_op, got))
        # Both routes round: the full-matrix one is up to 1.1e-15 off the
        # exact gap on this set, the support route up to 4.4e-16.
        assert max(w[0] for w in worst) <= 2e-15
        # Where the routes differ most, the support route is the accurate one.
        for _, rho, s_op, got in sorted(worst, key=lambda w: -w[0])[:4]:
            assert abs(got - _mp_gap(rho, s_op)) <= 1e-15

    @pytest.mark.parametrize("pure", [ghz_state(), w_state()], ids=["ghz", "w"])
    def test_pure_state_gap_is_the_expectation(self, pure):
        # Rank one: every gap matrix is 1x1, the value |<psi|S|psi*>|.
        rho = pure.density()
        assert rho._basis.rank == 1
        triple = canonical_triple(2)
        rng = np.random.default_rng(3)
        conj = pure.amplitudes.conj()
        for _ in range(20):
            k = int(rng.integers(1, 4))
            t = tuple(sorted(rng.choice(triple.count, k, replace=False).tolist()))
            x = [rng.random(k) * np.exp(2j * np.pi * rng.random(k)) for _ in range(3)]
            s_op = sum(np.tensordot(c, triple.operators[s][list(t)], axes=1) for s, c in enumerate(x))
            want = abs(complex(conj @ s_op @ conj))
            assert abs(delta_tot_k(rho, triple, t, x) - want) <= 1e-15 * max(1.0, want)

    @pytest.mark.parametrize("name, build", STATES, ids=[n for n, _ in STATES])
    def test_spectrum_keeps_the_full_length(self, name, build):
        rho = build()
        s_op = bipartite_generators(*rho.dims).operators.sum(axis=0)
        lam = lambda_spectrum(rho, s_op)
        assert lam.shape == (rho.dim,)
        assert np.all(lam[rho._basis.rank :] == 0.0)
        assert np.all(np.diff(lam) <= 0.0)


class TestStackBuiltOnce:
    """A state forms the gap matrices of a family once, whatever and
    however often its bounds read them."""

    @pytest.fixture
    def frames(self, monkeypatch):
        calls = []
        frame = SupportBasis.frame

        def spy(self, ops):
            calls.append(ops)
            return frame(self, ops)

        monkeypatch.setattr(SupportBasis, "frame", spy)
        return calls

    def test_bipartite_search(self, frames):
        rho = horodecki_state(0.2)
        gens = bipartite_generators(3, 3)
        optimize_bound_bipartite(rho, 2, CFG)
        optimize_bound_bipartite(rho, 1, OptimizerConfig(restarts=1, iterations=2, subset_strategy="top_singletons"))
        observation1_bound(rho, 2, {(4, 8): [1.0, 1.0]})
        assert len(frames) == 1 and frames[0] is gens.operators
        optimize_bound_bipartite(horodecki_state(0.5), 2, CFG)
        assert len(frames) == 2

    def test_tripartite_modes_share_the_canonical_stack(self, frames):
        rho = white_noise_mix(w_state().density(), 0.5)
        optimize_bound_multipartite(rho, 1, CFG, "obs2")
        optimize_bound_multipartite(rho, 1, CFG, "obs3")
        observation2_bound(rho, 1, {(0,): ([1.0], [1.0], [1.0])})
        observation3_bound(rho, 1, {0: {(0,): [1.0]}})
        assert len(frames) == 1 and frames[0] is canonical_triple(2).operators

    def test_wootters_reads_the_obs1_stack(self, frames):
        rho = random_density((2, 2), 3, seed=5)
        observation1_bound(rho, 1, {(0,): [1.0]})
        wootters_concurrence(rho)
        assert len(frames) == 1

    def test_stacks_per_state_are_bounded(self, frames):
        # One slot: the stack of the last family array, compared by identity.
        rho = random_density((2, 2), 4, seed=1)
        ops = [np.array(bipartite_generators(2, 2).operators) for _ in range(3)]
        for o in ops:
            rho._basis.stack(o)
        assert len(frames) == 3
        assert rho._basis.stack(ops[-1]) is rho._basis.stack(ops[-1])
        assert len(frames) == 3
        rho._basis.stack(ops[0])
        assert len(frames) == 4

    def test_single_subset_calls_frame_only_their_operators(self, frames):
        rho = white_noise_mix(horodecki_state(0.2), 0.9)
        gens = bipartite_generators(3, 3)
        delta_k(rho, gens, (4, 8), [1.0, 0.5])
        optimize_u(rho, gens, (1, 5, 7), CFG)
        rho3 = white_noise_mix(w_state().density(), 0.5)
        delta_tot_k(rho3, canonical_triple(2), (0, 3), ([1.0, 1.0], [1.0, 0.5], [0.5, 1.0]))
        assert [f.shape[:-2] for f in frames] == [(2,), (3,), (3, 2)]

    def test_single_subset_calls_leave_the_family_stack(self, frames):
        rho = horodecki_state(0.2)
        observation1_bound(rho, 2, {(4, 8): [1.0, 1.0]})
        delta_k(rho, bipartite_generators(3, 3), (4, 8), [1.0, 0.5])
        observation1_bound(rho, 2, {(4, 8): [1.0, 0.5]})
        assert len(frames) == 2

    def test_delta_k_on_a_large_family_frames_its_subset(self, frames):
        # N = 225 operators; the gap reads two of them.
        rho = random_density((6, 6), 36, seed=1)
        delta_k(rho, bipartite_generators(6, 6), (0, 1), [1.0, 0.5])
        assert len(frames) == 1 and frames[0].shape == (2, 36, 36)
