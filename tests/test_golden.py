"""Byte-identity corpus: every entry of ``tests/golden/corpus.json``,
recomputed here, must match the committed text field by field.

The corpus is written by ``tests/golden/regen.py`` on the reference
commit, and its bytes hold only on the build named in its header:
another numpy, BLAS or BLAS kernel may round differently. The test
therefore skips on any other environment, and a mismatch names the
entry, the field and the first differing line. A second tier runs on
every build: each printed gap replays from its printed coefficients
through the public gap functions, which does not rerun the search.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from concbound import BoundReport, GeneratorTriple, SubsetEntry, delta_k, delta_tot_k

REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _describe(field: str, want: str, got: str) -> str:
    """The first line where ``got`` departs from ``want``."""
    lines = list(zip(want.splitlines(), got.splitlines()))
    line = next((i for i, (w, g) in enumerate(lines) if w != g), None)
    if line is None:
        return f"field {field!r}: {len(want.splitlines())} lines in the corpus, {len(got.splitlines())} now"
    w, g = lines[line]
    return f"field {field!r}, line {line + 1}: corpus {w!r}, now {g!r}"


def test_corpus_reproduces(monkeypatch):
    monkeypatch.delenv("CONCBOUND_SEED", raising=False)
    regen = _regen()
    corpus = json.loads(regen.CORPUS.read_text(encoding="utf-8"))
    here = regen.environment()
    if here != corpus["environment"]:
        pytest.skip(f"the corpus holds only on its own build: corpus {corpus['environment']}, here {here}")
    now = dict(regen.entries())
    assert sorted(now) == sorted(corpus["entries"]), "the corpus lists other entries than regen.py yields"
    failures = [
        f"{name}: {_describe(field, text, now[name].get(field, '<missing>'))}"
        for name, fields in corpus["entries"].items()
        for field, text in fields.items()
        if now[name].get(field) != text
    ]
    failures += [f"{name}: field {field!r} is new" for name in now for field in now[name].keys() - corpus["entries"][name].keys()]
    assert not failures, f"{len(failures)} corpus mismatches on {here}\n" + "\n".join(failures[:20])


def test_diff_reads_gaps_per_subset():
    regen = _regen()

    def entry(deltas, bound):
        per_subset = [{"subset": list(t), "coefficients": {"u": [[1.0, 0.0]] * len(t)}, "delta": d} for t, d in deltas.items()]
        report = json.dumps({"bound_on_c_squared": bound, "per_subset": per_subset})
        return {"report": report, "cli": "mode: obs1\n" + json.dumps({"command": [], "report": json.loads(report)})}

    old = {"same": {"repr": "1.0"}, "moved": entry({(0, 1): 2e-16, (0, 2): 0.5, (1, 2): 0.25}, 0.3125)}
    new = {"same": {"repr": "1.0"}, "moved": entry({(0, 1): 0.0, (0, 2): 0.5, (0, 3): 0.125}, 0.265625), "added": {"repr": "2.0"}}
    lines = regen.diff(old, new)
    assert lines[0] == "added: new"
    assert lines[1] == "moved: fields cli, report differ"
    assert lines[2:7] == [
        "  cli: bound 0.3125 -> 0.265625 (relative -0.15)",
        "    (0, 1): 2e-16 -> 0.0 (relative -1)",
        "    (0, 3): new in the pool, 0.125",
        "    (1, 2): 0.25, gone from the pool",
        "    largest fall of a gap: 0.25",
    ]
    assert lines[7:] == [line.replace("cli:", "report:") for line in lines[2:7]]


def _replay(rho, family, entry) -> float:
    """An entry's gap from its printed coefficients, through ``delta_k`` or ``delta_tot_k``."""
    coeffs = {name: [complex(*c) for c in vec] for name, vec in entry["coefficients"].items()}
    family = family[entry["split"]] if isinstance(family, dict) else family
    if isinstance(family, GeneratorTriple):
        return delta_tot_k(rho, family, entry["subset"], (coeffs["u"], coeffs["v"], coeffs["w"]))
    return delta_k(rho, family, entry["subset"], coeffs["u"])


def test_printed_gaps_replay_from_printed_coefficients():
    # Runs on every build: bit for bit on the corpus's own, and elsewhere within
    # 1e-13 relative on gaps above 1e-12 and 1e-15 absolute below, the round-off
    # another BLAS kernel adds to one SVD.
    regen = _regen()
    corpus = json.loads(regen.CORPUS.read_text(encoding="utf-8"))
    native = regen.environment() == corpus["environment"]
    replays = list(regen.replays())
    assert {name for name, fields in corpus["entries"].items() if regen._reports(fields)} == {r[0] for r in replays}
    failures, gaps = [], 0
    for name, field, rho, mode, family in replays:
        doc = regen._reports(corpus["entries"][name])[field]
        entries = tuple(SubsetEntry(tuple(e["subset"]), {}, e["delta"], e.get("split")) for e in doc["per_subset"])
        report = BoundReport(doc["bound_on_c_squared"], entries, doc["k"], doc["n_generators"], doc["prefactor"], doc["mode"], 0.0)
        assert doc["mode"] == mode and report.recompute() == report.bound_on_c_squared, name
        for e in doc["per_subset"]:
            got, want = _replay(rho, family, e), e["delta"]
            close = abs(got - want) <= (1e-13 * abs(want) if abs(want) > 1e-12 else 1e-15)
            if not (got.hex() == want.hex() if native else close):
                failures.append(f"{name} {e.get('split') or ''}{tuple(e['subset'])}: printed {want!r}, replayed {got!r}")
            gaps += 1
    assert gaps > 550 and not failures, f"{len(failures)} of {gaps} gaps do not replay\n" + "\n".join(failures[:20])
