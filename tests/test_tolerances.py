"""Every validation tolerance, pinned at its boundary through the public
call that reads it: an input just inside passes, one just outside raises.
A change to any tolerance value fails here, not only in its docstring."""
from __future__ import annotations

import math

import numpy as np
import pytest

from concbound import (
    Decomposition,
    DensityMatrix,
    PureState,
    bipartite_generators,
    delta_k,
    delta_total_bound,
)
from concbound.errors import (
    CoefficientBoundError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveSemidefiniteError,
    ParameterRangeError,
)
from concbound.numerics import psd_sqrt

KET = np.eye(4)
MIXED = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
GENS = bipartite_generators(2, 2)


def _trace(x):
    DensityMatrix(np.diag([0.5, 0.5 + x, 0.0, 0.0]), (2, 2))


def _hermitian(x):
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 1] = x
    DensityMatrix(m, (2, 2))


def _eigenvalue(x):
    DensityMatrix(np.diag([0.5 + x, 0.5, -x, 0.0]), (2, 2))


def _pure_norm(x):
    # <psi|psi> = 1 + x, the trace of the state's density matrix.
    PureState(math.sqrt(1.0 + x) * KET[0], (2, 2))


def _weight_sum(x):
    Decomposition(MIXED, [0.5, 0.5 + x], [PureState(KET[0], (2, 2)), PureState(KET[1], (2, 2))])


def _reconstruction(x):
    rho = DensityMatrix(np.diag([0.5 + x, 0.5 - x, 0.0, 0.0]), (2, 2))
    Decomposition(rho, [0.5, 0.5], [PureState(KET[0], (2, 2)), PureState(KET[1], (2, 2))])


def _negative_weight(x):
    Decomposition(MIXED, [0.5 + x, 0.5, -x], [PureState(KET[i], (2, 2)) for i in range(3)])


def _coefficient_modulus(x):
    delta_k(MIXED, GENS, (0,), [1.0 + x])


def _total_norm(x):
    delta_total_bound(MIXED, GENS, [1.0 + x])


def _psd_clamp(x):
    psd_sqrt(np.diag([1.0, -x]))  # clamp 1e-10 * (max|h| + 1) = 2e-10


# (entry, check, input just inside, input just outside, error outside)
BOUNDARIES = [
    ("trace 1e-10", _trace, 0.5e-10, 2e-10, NotNormalizedError),
    ("hermitian 1e-10", _hermitian, 0.5e-10, 2e-10, NotHermitianError),
    ("pure norm 1e-10", _pure_norm, 0.5e-10, 2e-10, NotNormalizedError),
    ("weight sum 1e-10", _weight_sum, 0.5e-10, 2e-10, NotNormalizedError),
    ("delta_total norm 1e-10", _total_norm, 0.5e-10, 2e-10, NotNormalizedError),
    ("psd_sqrt clamp 1e-10", _psd_clamp, 1e-10, 4e-10, NotPositiveSemidefiniteError),
    ("eigenvalue 1e-9", _eigenvalue, 0.5e-9, 2e-9, NotPositiveSemidefiniteError),
    ("reconstruction 1e-9", _reconstruction, 0.5e-9, 2e-9, ParameterRangeError),
    ("coefficient modulus 1e-12", _coefficient_modulus, 0.5e-12, 2e-12, CoefficientBoundError),
    ("negative weight 1e-14", _negative_weight, 0.5e-14, 2e-14, ParameterRangeError),
]


@pytest.mark.parametrize("check,inside,outside,error", [b[1:] for b in BOUNDARIES], ids=[b[0] for b in BOUNDARIES])
def test_tolerance_boundary(check, inside, outside, error):
    check(inside)
    with pytest.raises(error):
        check(outside)
