"""The README's library quick start runs and prints what its comments say,
and its `concbound bound` and `scan` examples run."""
from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from concbound import cli
from concbound.states import horodecki_state, save_state

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


def test_command_line_examples(tmp_path):
    text = "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)).replace("\\\n", " ")
    examples = [shlex.split(line)[1:] for line in text.splitlines() if re.match(r"concbound (bound|scan) ", line)]
    # The one example that reads a state file reads a PPT-entangled state.
    save_state(horodecki_state(0.3), tmp_path / "mystate.json")
    for argv in examples:
        argv = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg for arg in argv]
        assert cli.main(argv) == 0, argv
    assert [argv[:2] for argv in examples] == [["bound", "--state"]] * 4 + [["scan", "--family"]] * 2
