"""Reference routines that only the tests read: the Autonne-Takagi
factorization of a complex symmetric matrix, the eigenvalue route to
the lambda spectrum, an independent cross-check of ``lambda_spectrum``,
and two bound entangled UPB states: three-qubit Shifts and two-qutrit Tiles."""
from __future__ import annotations

import math

import numpy as np

from concbound.bounds_bipartite import _check_operator
from concbound.numerics import as_symmetric
from concbound.states import DensityMatrix


def takagi(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as Y = V diag(d) V^T.

    Parameters
    ----------
    y : ndarray
        Square matrix, symmetric (Y = Y^T) within 1e-10 per entry.

    Returns
    -------
    (v, d) : (ndarray, ndarray)
        Unitary ``v`` and nonnegative ``d`` in descending order; ``d``
        equals the singular values of ``y``.

    Notes
    -----
    With Y = A + iB, the condition Y conj(v) = sigma v on v = x + iy is
    the real symmetric eigenproblem [[A, B], [B, -A]] [x; y] = sigma [x; y],
    whose spectrum is +-sigma: the n largest eigenpairs give d and V.
    ``eigh`` returns orthonormal vectors within each degenerate eigenspace,
    so the columns for sigma > 0 are orthonormal as they come. Only the
    zero eigenspace can hold a dependent pair (v, iv); the QR leaves the
    other columns as they are up to sign, since (-v)(-v)^T = v v^T, and
    completes that pair orthonormally, which d = 0 allows.
    """
    y = as_symmetric(y)
    n = y.shape[0]
    w, x = np.linalg.eigh(np.block([[y.real, y.imag], [y.imag, -y.real]]))
    v, _ = np.linalg.qr(x[:n, ::-1][:, :n] + 1j * x[n:, ::-1][:, :n])
    return v, np.clip(w[::-1][:n], 0.0, None)


def lambda_spectrum_product_route(rho: DensityMatrix, s_op: np.ndarray) -> np.ndarray:
    """Same spectrum through the non-Hermitian product rho S rho* S^dag.

    Square roots of that product's eigenvalues, descending. Less
    accurate near zero than ``lambda_spectrum``; retained as an
    independent cross-check of the spectral route.
    """
    rho, s_op = _check_operator(rho, s_op)
    x = rho.matrix @ s_op @ rho.matrix.conj() @ s_op.conj().T
    ev = np.linalg.eigvals(x)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    return np.sort(lam)[::-1]


def shifts_upb_state() -> DensityMatrix:
    """(I - sum_i |psi_i><psi_i|) / 4 on three qubits over the Shifts UPB
    {|0,1,+>, |1,+,0>, |+,0,1>, |-,-,->} (Bennett et al., PRL 82, 5385
    (1999)): PPT across every split, yet entangled, since no product
    vector lies in its range."""
    zero, one = np.eye(2)
    plus, minus = (zero + one) / math.sqrt(2.0), (zero - one) / math.sqrt(2.0)
    upb = [(zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)]
    vecs = [np.kron(np.kron(a, b), c) for a, b, c in upb]
    return DensityMatrix((np.eye(8) - sum(np.outer(v, v) for v in vecs)) / 4.0, (2, 2, 2))


def tiles_upb_state() -> DensityMatrix:
    """(I - sum_i |psi_i><psi_i|) / 4 on two qutrits over the Tiles UPB
    {|0>(|0>-|1>), (|0>-|1>)|2>, |2>(|1>-|2>), (|1>-|2>)|0>, (|0>+|1>+|2>)^(x2)},
    each normalized (Bennett et al., PRL 82, 5385 (1999)): PPT, yet
    entangled, since no product vector lies in its range."""
    e0, e1, e2 = np.eye(3)
    stopper = (e0 + e1 + e2) / math.sqrt(3.0)
    upb = [(e0, (e0 - e1) / math.sqrt(2.0)), ((e0 - e1) / math.sqrt(2.0), e2), (e2, (e1 - e2) / math.sqrt(2.0)),
           ((e1 - e2) / math.sqrt(2.0), e0), (stopper, stopper)]
    vecs = [np.kron(a, b) for a, b in upb]
    return DensityMatrix((np.eye(9) - sum(np.outer(v, v) for v in vecs)) / 4.0, (3, 3))
