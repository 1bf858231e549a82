"""The checks that need a process of their own: a BLAS kernel picked by
environment variable, a peak resident set size, and the module entry point.
Each starts one fresh Python child with ``src/`` on its path."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _child(args, env=None) -> subprocess.CompletedProcess:
    """Run ``python args`` from the repository root with ``src/`` first on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with every kernel set, of which OPENBLAS_CORETYPE picks one per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: show_config takes no mode
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_golden_tiers_under_an_emulated_kernel(core):
    # OPENBLAS_CORETYPE acts on the child alone. The replay tier must pass on every kernel; the byte test holds only
    # on the corpus's own, and on another skips, naming the kernel the child ran on last in the dict of its build.
    # test_golden.py uses no hypothesis, whose plugin's import would be most of the child's time.
    argv = ["-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", "tests/test_golden.py"]
    run = _child(argv, env={"OPENBLAS_CORETYPE": core})
    assert run.returncode == 0, run.stdout + run.stderr
    assert "PASSED tests/test_golden.py::test_printed_gaps_replay_from_printed_coefficients" in run.stdout, run.stdout
    corpus = json.loads((ROOT / "tests" / "golden" / "corpus.json").read_text(encoding="utf-8"))
    assert core == corpus["environment"]["blas_core"] or f"'blas_core': '{core}'}}" in run.stdout, run.stdout


# Peak RSS in MB after the ghz-noise ppt scan with argv[1] grid rows, then with argv[2], in one process.
_PEAK_RSS = """
import contextlib, io, resource, sys
from concbound import cli

for points in sys.argv[1:3]:
    argv = ["scan", "--family", "ghz-noise", "--mode", "ppt", "--p-range", "0.01:1.0", "--points", points]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", sys.argv[3]]) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)  # KiB on Linux
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_a_scan_keeps_only_its_bisection_states(tmp_path):
    # Without --record a scan keeps no grid row, so 20001 rows peak within 6 MB of 21 (31 -> 34 MB, numpy 2.4, x86-64).
    run = _child(["-W", "error", "-c", _PEAK_RSS, "21", "20001", str(tmp_path / "rss.csv")])
    assert run.returncode == 0, run.stderr
    small, large = map(float, run.stdout.split())
    assert large - small <= 6.0, f"peak RSS {small:.1f} MB after 21 grid rows, {large:.1f} MB after 20001"


def test_the_module_runs_as_a_program():
    run = _child(["-W", "error", "-m", "concbound.cli", "demo", "ghz"])
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.count("PASS") == 3 and "FAIL" not in run.stdout
