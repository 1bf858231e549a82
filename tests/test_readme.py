"""The README's library quick start runs and prints what its comments say."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    wootters, obs1, ghz, horodecki = out.getvalue().splitlines()
    # Two qubits, Bell state at p = 0.9: C^2 = ((3p - 1)/2)^2 = 0.7225.
    assert abs(float(wootters) - float(obs1)) <= 1e-12
    assert abs(float(obs1) - 0.7225) <= 1e-12
    assert abs(float(ghz) - 0.2109375) <= 1e-12
    assert float(horodecki.split()[0]) > 1e-7
