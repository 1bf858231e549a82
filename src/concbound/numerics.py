"""Dense linear-algebra kernels: validated symmetrization, PSD square roots,
and the symmetric-matrix (Autonne-Takagi) factorization.

All routines validate their structural preconditions and raise typed
errors instead of repairing bad input. Everything is dense; no attempt
is made to exploit sparsity. The bounds never form sqrt(rho): they read
a state's support basis (``states.SupportBasis``), which is tested
against the full-matrix root ``psd_sqrt``.
"""
from __future__ import annotations

import operator

import numpy as np
import scipy.linalg

from .errors import (
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
)

# Relative gap under which singular values are treated as degenerate when
# pairing Takagi vectors. Stress-tested down to gaps of 1e-7 (merged) and
# up from 1e-4 (split); reconstruction stays below 1e-11 either way.
_TAKAGI_CLUSTER_TOL = 1e-6


def _as_index(x, error) -> int:
    """``operator.index(x)``, raising ``error`` for a non-integer or a bool."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise error(f"{x!r} is not an integer")


def _frozen(a) -> np.ndarray:
    """A read-only copy of ``a`` (a sequence of arrays is stacked), in its own dtype."""
    out = np.array(a)
    out.setflags(write=False)
    return out


def require_square(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a complex square ndarray or raise NonSquareError."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def _symmetrized(a, tol: float, partner, error, name: str) -> np.ndarray:
    """Validate A = partner(A) within ``tol`` and return their mean.

    A NaN or infinite entry makes the deviation non-finite, which no
    comparison with ``tol`` would catch, and entries near the float
    maximum can overflow the mean, its trace or its product with a
    state's root; the sum of |mean| bounds all three. Each raises
    NonFiniteError, the only signal (numpy's warnings are silenced).
    """
    a = require_square(a)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.max(np.abs(a - partner(a))) if a.size else 0.0
        mean = 0.5 * (a + partner(a))
        total = np.abs(mean).sum()
    if not np.isfinite(dev):
        raise NonFiniteError(f"max |A - {name}| = {dev!r}: NaN, infinite or overflowing entries")
    if dev > tol:
        raise error(f"max |A - {name}| = {dev:.3e} exceeds tol {tol:.3e}")
    if not np.isfinite(total):
        raise NonFiniteError(f"sum of |entries| = {total!r}: overflowing entries")
    return mean


def as_hermitian(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity within ``tol`` and return the symmetrized matrix.

    Symmetrization only strips floating-point asymmetry below ``tol``;
    larger deviations raise NotHermitianError.
    """
    return _symmetrized(a, tol, lambda m: m.conj().T, NotHermitianError, "A^dag")


def as_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate complex symmetry (A = A^T) within ``tol`` and symmetrize."""
    return _symmetrized(a, tol, lambda m: m.T, NotSymmetricError, "A^T")


def psd_sqrt(h: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-tol, 0) are clamped to zero before the root is
    formed; anything below -tol raises NotPositiveSemidefiniteError.
    ``tol`` defaults to 1e-10 * (max-norm + 1) so that the clamp scales
    with the matrix without vanishing for the zero matrix.
    """
    h = as_hermitian(h)
    if tol is None:
        tol = 1e-10 * (float(np.max(np.abs(h))) + 1.0) if h.size else 1e-10
    w, q = np.linalg.eigh(h)
    if w.size and w[0] < -tol:
        raise NotPositiveSemidefiniteError(
            f"minimum eigenvalue {w[0]:.3e} below -tol = {-tol:.3e}"
        )
    s = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T
    return 0.5 * (s + s.conj().T)


def takagi(y: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as Y = V diag(d) V^T.

    Parameters
    ----------
    y : ndarray
        Square matrix, symmetric (Y = Y^T) within ``tol``.
    tol : float
        Symmetry tolerance.

    Returns
    -------
    (v, d) : (ndarray, ndarray)
        Unitary ``v`` and nonnegative ``d`` in descending order; ``d``
        equals the singular values of ``y``.

    Notes
    -----
    Built on the SVD, Y = A diag(d) B^dag. Symmetry makes A and B agree
    up to a block-orthogonal rotation on each degenerate singular-value
    cluster; the rotation is recovered per cluster via a matrix square
    root and folded into the left factor.
    """
    y = as_symmetric(y, tol)
    n = y.shape[0]
    a, d, bh = np.linalg.svd(y)
    b = bh.conj().T
    # Cluster boundaries: relative gap in the descending singular values.
    scale = (d[0] + 1.0) if n else 1.0
    q = np.zeros((n, n), dtype=complex)
    start = 0
    for i in range(1, n + 1):
        if i < n and (d[i - 1] - d[i]) <= _TAKAGI_CLUSTER_TOL * scale:
            continue
        blk = slice(start, i)
        if d[start] <= 1e-12 * scale:
            # Null cluster: left/right bases are unconstrained relative to
            # each other and the block carries zero weight, so any unitary
            # pairing is valid.
            q[blk, blk] = np.eye(i - start)
        else:
            z = a[:, blk].T @ b[:, blk]
            # Z is orthogonal-symmetric on a degeneracy cluster; the
            # symmetrized square root stays within the cluster's rotation group.
            q[blk, blk] = scipy.linalg.sqrtm(0.5 * (z + z.T))
        start = i
    v = a @ q.conj()
    return v, d
