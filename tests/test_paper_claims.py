"""The paper's two headline claims, pinned on states built from the public API.

(a) Multiparticle bound entangled states: the Shifts UPB state
rho = (I - sum_i |psi_i><psi_i|) / 4 (Bennett et al., PRL 82, 5385 (1999))
is PPT across every split, so the split-wise obs3 bound is 0, while the
cross-split obs2 bound detects it, and keeps detecting it under white noise
in a window of states that stay PPT.

(b) A bipartite criterion stronger than the known ones on some families: on
the PPT Horodecki states obs1 beats the Chen-Albeverio-Fei bound (PRL 95,
040504 (2005)), which combines PPT with realignment, and near a = 0.2 it
detects noisy states that realignment misses. On the two-qutrit Tiles UPB
state (Bennett et al., PRL 82, 5385 (1999)) obs1 beats it at k = 4, where
k <= 2 stays silent in the computational frame.

Next to each threshold stands the measured value it guards and the margin
between them."""
from __future__ import annotations

import numpy as np
import pytest

from _reference import shifts_upb_state, tiles_upb_state
from concbound.bounds_bipartite import ppt_min_eigenvalue
from concbound.optimizer import OptimizerConfig, optimize_bound_bipartite, optimize_bound_multipartite, threshold_scan
from concbound.states import horodecki_state, white_noise_mix

CFG = OptimizerConfig(restarts=2, iterations=25)
CFG_OBS1 = OptimizerConfig(restarts=2, iterations=20)
CFG_TILES = OptimizerConfig(restarts=8, iterations=100)


@pytest.mark.parametrize("party", range(3))
def test_the_shifts_upb_state_is_ppt_across_every_split(party):
    # Measured -4.6e-17, round-off: 1e-12 leaves a margin of 2e4.
    assert ppt_min_eigenvalue(shifts_upb_state(), (party,)) >= -1e-12


@pytest.mark.parametrize("k", (1, 2))
def test_obs3_is_zero_on_the_shifts_upb_state(k):
    # Measured 8.8e-32 (k=1) and 1.4e-32 (k=2): 1e-20 leaves a margin of 1e11.
    assert optimize_bound_multipartite(shifts_upb_state(), k, CFG, "obs3").bound_on_c_squared <= 1e-20


def test_obs2_detects_the_shifts_upb_state():
    # Measured 2.76e-3 at (2, 25), 7.81e-3 at (4, 60): 1e-3 leaves a factor of 2.76.
    assert optimize_bound_multipartite(shifts_upb_state(), 1, CFG, "obs2").bound_on_c_squared > 1e-3


def _noisy_shifts(p: float):
    return white_noise_mix(shifts_upb_state(), p)


def test_obs2_detects_noisy_shifts_states_above_a_threshold():
    # Measured 0.8735 +- 0.0005 in 11 evaluations: [0.86, 0.89] leaves 0.013 below and 0.016 above.
    scan = threshold_scan(_noisy_shifts, lambda rho: optimize_bound_multipartite(rho, 1, CFG, "obs2").bound_on_c_squared,
                          0.5, 1.0, tol_p=1e-3, tol_detect=1e-7)
    assert 0.86 <= scan.threshold - scan.bracket_width and scan.threshold + scan.bracket_width <= 0.89


def test_inside_the_window_the_noisy_shifts_state_is_ppt_and_bound_entangled():
    rho = _noisy_shifts(0.9)
    for party in range(3):
        # Measured (1 - p) / 8 = 1.25e-2 on every split: 1e-2 leaves a margin of 1.25.
        assert ppt_min_eigenvalue(rho, (party,)) >= 1e-2
    for k in (1, 2):
        # Measured 0.0 at k = 1 and 2: 1e-20 leaves the same margin as on the pure Shifts state.
        assert optimize_bound_multipartite(rho, k, CFG, "obs3").bound_on_c_squared <= 1e-20
    # Measured 9.08e-5: 1e-5 leaves a factor of 9.
    assert optimize_bound_multipartite(rho, 1, CFG, "obs2").bound_on_c_squared > 1e-5


def _trace_norms(rho):
    """||rho^Gamma||_1 and the realignment's ||R(rho)||_1, R_(ij),(kl) = rho_(ik),(jl)."""
    da, db = rho.dims
    t = rho.matrix.reshape(da, db, da, db)
    return (np.linalg.norm(t.transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim), "nuc"),
            np.linalg.norm(t.transpose(0, 2, 1, 3).reshape(da * da, db * db), "nuc"))


def _caf_squared(rho) -> float:
    """The square of C >= sqrt(2 / (m (m - 1))) (max(||rho^Gamma||_1, ||R(rho)||_1) - 1), m = min(dims)."""
    m = min(rho.dims)
    return 2.0 / (m * (m - 1)) * max(max(_trace_norms(rho)) - 1.0, 0.0) ** 2


@pytest.mark.parametrize("a", [0.1, 0.2, 0.5, 0.8, 0.9])
def test_obs1_beats_caf_on_the_horodecki_states(a):
    # obs1 k=2 at (2, 20) over CAF^2 measures 10.7, 9.15, 6.80, 5.95 and 5.93 at
    # these a: 4 leaves a margin of 1.48 on the worst, a = 0.9.
    rho = horodecki_state(a)
    assert optimize_bound_bipartite(rho, 2, CFG_OBS1).bound_on_c_squared > 4.0 * _caf_squared(rho)


def test_obs1_detects_a_noisy_horodecki_state_that_realignment_misses():
    # Thresholds on horodecki(0.2): 0.9582 for obs1, 0.99546 for realignment (CCNR).
    rho = white_noise_mix(horodecki_state(0.2), 0.98)
    pt, realigned = _trace_norms(rho)
    # Measured 0.9896, a margin of 0.0104; and PPT to round-off (-1.1e-16).
    assert realigned < 1.0 and pt - 1.0 <= 1e-12
    # Measured 6.6e-6: 1e-6 leaves a factor of 6.6.
    assert optimize_bound_bipartite(rho, 2, CFG_OBS1).bound_on_c_squared > 1e-6


@pytest.mark.parametrize("k", (1, 2))
def test_obs1_up_to_pairs_is_silent_on_the_tiles_upb_state(k):
    # Measured 1.1e-31 (k=1) and 2.1e-32 (k=2) in the computational frame: 1e-20 leaves a margin of 1e11.
    assert optimize_bound_bipartite(tiles_upb_state(), k, CFG_OBS1).bound_on_c_squared <= 1e-20


def test_obs1_beats_caf_on_the_tiles_upb_state_at_k4():
    rho = tiles_upb_state()
    # Measured -1.4e-16 on both splits, round-off: 1e-12 leaves a margin of 7e3.
    assert min(ppt_min_eigenvalue(rho, (party,)) for party in (0, 1)) >= -1e-12
    # obs1 k=4 at (8, 100) measures 5.03e-3 against CAF^2 = 2.547e-3, 1.98x: 1.5 leaves a margin of 1.32.
    assert optimize_bound_bipartite(rho, 4, CFG_TILES).bound_on_c_squared > 1.5 * _caf_squared(rho)
