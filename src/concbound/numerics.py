"""Dense linear-algebra kernels: validated symmetrization and PSD square roots.

All routines validate their structural preconditions and raise typed
errors instead of repairing bad input; every input check of the package
reads its tolerance from the table below. Everything is dense. The bounds
never form sqrt(rho): they read its support factor off a state's own
eigendecomposition (``DensityMatrix._xc``), which is tested against the
full-matrix root ``psd_sqrt``.
"""
from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
)

# Validation tolerances, one per reason; checks raise on ``not dev <= tol``, so NaN fails them. The CLI's
# --tol-detect defaults and demo pass criteria are user options and reproduction criteria, not these.
_ROUNDOFF = 1e-10  # float error in a quantity exact in theory: A vs A^dag or A^T per entry, a norm, trace or weight sum vs 1; psd_sqrt clamps at this times max|h| + 1; a search row stops at c = 0 once a trial from there reads at most -this times its largest radius
_EIG_FLOOR = 1e-9  # how far below 0 a state's smallest eigenvalue may lie: eigh's round-off on matrices built in floats
_RECONSTRUCTION = 1e-9  # per-entry deviation of an ensemble's sum of p |psi><psi| from its state, which sums many products
_MODULUS = 1e-12  # how far a coefficient's modulus may exceed 1, for vectors rescaled to max modulus 1 in floats
_WEIGHT_FLOOR = 1e-14  # ensemble weights below -this are negative; random_decomposition drops members below +this
# On horodecki_state(0.2), -7.1e-18 and 1.1e-16 fall under a cut of 8.8e-16; the next eigenvalue is 0.077.
_SUPPORT_CUT = np.finfo(float).eps  # support, PPT and square-root-ensemble cuts per unit of D * max|lambda|: eigh's eigenvalues are exact to about D * eps * max|lambda|


def _as_index(x, error) -> int:
    """``operator.index(x)``, raising ``error`` for a non-integer or a bool."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise error(f"{x!r} is not an integer")


def require_square(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a complex square ndarray or raise NonSquareError."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def _symmetrized(a, partner, error, name: str) -> np.ndarray:
    """Validate A = partner(A) within ``_ROUNDOFF`` per entry and return their mean.

    A NaN or infinite entry makes the deviation non-finite, which is
    checked before the tolerance, and entries near the float
    maximum can overflow the mean, its trace or its product with a
    state's root; the sum of |mean| bounds all three. Each raises
    NonFiniteError, the only signal (numpy's warnings are silenced).
    """
    a = require_square(a)
    with np.errstate(invalid="ignore", over="ignore"):
        b = partner(a)
        dev = np.abs(a - b).max() if a.size else 0.0
        mean = 0.5 * (a + b)
        total = np.abs(mean).sum()
    if not math.isfinite(dev):
        raise NonFiniteError(f"max |A - {name}| = {dev!r}: NaN, infinite or overflowing entries")
    if not dev <= _ROUNDOFF:
        raise error(f"max |A - {name}| = {dev:.3e} exceeds tol {_ROUNDOFF:.3e}")
    if not math.isfinite(total):
        raise NonFiniteError(f"sum of |entries| = {total!r}: overflowing entries")
    return mean


def as_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within 1e-10 per entry and return the symmetrized matrix.

    Symmetrization only strips floating-point asymmetry below that;
    larger deviations raise NotHermitianError.
    """
    return _symmetrized(a, lambda m: m.conj().T, NotHermitianError, "A^dag")


def as_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate complex symmetry (A = A^T) within 1e-10 per entry and symmetrize."""
    return _symmetrized(a, lambda m: m.T, NotSymmetricError, "A^T")


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-tol, 0) are clamped to zero before the root is formed,
    with tol = 1e-10 * (max-norm + 1), which scales with the matrix without
    vanishing for the zero matrix; lower ones raise NotPositiveSemidefiniteError.
    """
    h = as_hermitian(h)
    tol = _ROUNDOFF * (float(np.max(np.abs(h), initial=0.0)) + 1.0)
    w, q = np.linalg.eigh(h)
    if w.size and not w[0] >= -tol:
        raise NotPositiveSemidefiniteError(
            f"minimum eigenvalue {w[0]:.3e} below -tol = {-tol:.3e}"
        )
    s = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T
    return 0.5 * (s + s.conj().T)
