"""Linear-algebra kernel checks: validators, PSD root, Takagi factorization."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concbound
from concbound.errors import (
    NonFiniteError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
)
from concbound.numerics import as_hermitian, as_symmetric, psd_sqrt

from _reference import takagi


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.T


class TestValidators:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_entries_raise_typed_error(self, bad):
        a = np.eye(3, dtype=complex)
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(NonFiniteError):
            as_hermitian(a)
        with pytest.raises(NonFiniteError):
            as_symmetric(a)
        with pytest.raises(NonFiniteError):
            psd_sqrt(a)


class TestPsdSqrt:
    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(psd_sqrt(np.zeros((3, 3))), 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_clamps_float_noise(self):
        # An eigenvalue at -1e-12 sits inside the default clamp window.
        s = psd_sqrt(np.diag([1.0, -1e-12]))
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-6)

    @pytest.mark.parametrize("n", [2, 6, 9])
    def test_square_recovers_input(self, n):
        rng = np.random.default_rng(23 + n)
        for _ in range(20):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = a @ a.conj().T
            s = psd_sqrt(h)
            assert np.max(np.abs(s @ s - h)) < 1e-8
            assert np.max(np.abs(s - s.conj().T)) < 1e-12


class TestTakagi:
    def test_zero_matrix(self):
        v, d = takagi(np.zeros((3, 3)))
        assert np.allclose(d, 0.0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-9

    def test_real_offdiagonal(self):
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        v, d = takagi(y)
        assert np.allclose(d, [1.0, 1.0])
        assert np.max(np.abs(v @ np.diag(d) @ v.T - y)) < 1e-10

    def test_complex_diagonal(self):
        y = np.diag([2.0, 3.0j])
        v, d = takagi(y)
        assert np.allclose(d, [3.0, 2.0])
        assert np.max(np.abs(v @ np.diag(d) @ v.T - y)) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            takagi(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_random_reconstruction(self, n):
        rng = np.random.default_rng(37 + n)
        for _ in range(30):
            y = random_symmetric(rng, n)
            v, d = takagi(y)
            assert np.all(np.diff(d) <= 1e-12)
            assert np.all(d >= -1e-14)
            assert np.max(np.abs(v @ np.diag(d) @ v.T - y)) < 1e-8
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-9
            assert np.max(np.abs(d - np.linalg.svd(y, compute_uv=False))) < 1e-9

    @pytest.mark.parametrize(
        "vals",
        [pytest.param([2.0, 2.0 - g, 2.0 - 2 * g, 1.0, 1.0 - g, 0.0], id=str(g)) for g in (0.0, 1e-9, 1e-4, 1.0)]
        # Many distinct values far below the largest: no relative-gap
        # clustering can tell them apart.
        + [pytest.param(np.logspace(0, -18, 27), id="logspace")],
    )
    def test_degenerate_clusters(self, vals):
        # Spectra with exact and near ties, a zero, and a wide dynamic range.
        rng = np.random.default_rng(53)
        n = len(vals)
        for _ in range(10):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, r = np.linalg.qr(a)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            y = q @ np.diag(vals) @ q.T
            v, d = takagi(y)
            assert np.all(np.diff(d) <= 0.0) and np.all(d >= 0.0)
            assert np.max(np.abs(d - np.linalg.svd(y, compute_uv=False))) < 1e-9
            assert np.max(np.abs(v @ np.diag(d) @ v.T - y)) < 1e-8
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-9


class TestAsHermitian:
    def test_strips_noise_below_tol(self):
        h = np.eye(2) + np.array([[0.0, 1e-12], [0.0, 0.0]])
        out = as_hermitian(h)
        assert np.max(np.abs(out - out.conj().T)) == 0.0

    def test_rejects_above_tol(self):
        with pytest.raises(NotHermitianError):
            as_hermitian(np.eye(2) + np.array([[0.0, 1e-8], [0.0, 0.0]]))


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency: a scipy import anywhere in the
    # package fails here, where the module is blocked.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(concbound.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    code = "import sys; sys.modules['scipy'] = None; import concbound, concbound.cli"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
