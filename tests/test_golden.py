"""Byte-identity corpus: every entry of ``tests/golden/corpus.json``,
recomputed here, must match the committed text field by field.

The corpus is written by ``tests/golden/regen.py`` on the reference
commit, and its bytes hold only on the build named in its header:
another numpy, BLAS or BLAS kernel may round differently. The test
therefore skips on any other environment, and a mismatch names the
entry, the field and the first differing line.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

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
