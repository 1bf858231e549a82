"""The CI workflow installs, reports the BLAS, and runs tier-1 and the bench
self-test; every behavioural check lives in tier-1, where a local run makes
it too. The workflow is read as text: the ``test`` extra has no YAML parser."""
from __future__ import annotations

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_keeps_no_second_home_for_checks():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "python -m pytest" in text
    # Every line but comments and step names is a key of a step or a line of its shell.
    commands = [line for line in text.splitlines() if not re.match(r"\s*(#|(- )?name:)", line)]
    offending = [line.strip() for line in commands if re.search(r"\bconcbound\b|<<", line)]
    assert not offending, (
        f"a workflow step runs concbound or feeds Python a heredoc: {offending}. Behavioural checks belong in tier-1 "
        "(tests/), which every local run makes too; where a check needs a process of its own, start a child there, "
        "as tests/test_processes.py does."
    )
