"""The paper's claim of multiparticle bound entangled states, pinned on the
Shifts UPB state rho = (I - sum_i |psi_i><psi_i|) / 4 (Bennett et al., PRL 82,
5385 (1999)): it is PPT across every split, so the split-wise obs3 bound is 0,
while the cross-split obs2 bound detects it. Next to each threshold stands the
measured value it guards and the margin between them."""
from __future__ import annotations

import pytest

from _reference import shifts_upb_state
from concbound.bounds_bipartite import ppt_min_eigenvalue
from concbound.optimizer import OptimizerConfig, optimize_bound_multipartite

CFG = OptimizerConfig(restarts=2, iterations=25)


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
