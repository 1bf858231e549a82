"""Write the byte-identity corpus: the canonical text of reports, values
and CLI runs that a change which claims "same outputs" must reproduce.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python tests/golden/regen.py

It rewrites ``tests/golden/corpus.json``; ``tests/test_golden.py``
recomputes every entry and compares it field by field. With ``--diff`` it
writes nothing and prints how the recomputed entries depart from the
committed ones: per report, the bound and each (split, subset) gap that
moved, with its relative change, and the largest fall of a gap. The header
records the numpy build, the BLAS and the kernel it picked for the CPU
that produced the bytes, since another BLAS or kernel may round an SVD
differently; the test compares only on that environment.
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import re
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from concbound import (
    OptimizerConfig,
    bell_state,
    bipartite_generators,
    canonical_triple,
    concurrence_pure_sumrule,
    delta_k,
    delta_tot_k,
    delta_total_bound,
    example_operators,
    ghz_state,
    horodecki_state,
    lambda_spectrum,
    observation1_bound,
    observation2_bound,
    observation3_bound,
    optimize_bound_bipartite,
    optimize_bound_multipartite,
    optimize_u,
    random_density,
    random_pure,
    tripartite_generators,
    w_state,
    white_noise_mix,
    wootters_concurrence,
)
from concbound.cli import main, parse_state

CORPUS = Path(__file__).resolve().parent / "corpus.json"

# A short search: the corpus pins the arithmetic, not the optimum.
FAST = {"restarts": 2, "iterations": 10}
FAST_JSON = json.dumps(FAST)

# CLI argv lists; a scan writes its CSV to a scratch file.
CLI_RUNS = {
    "bound/horodecki-obs1-k2-json": ["bound", "--state", "family:horodecki,a=0.2", "--mode", "obs1", "--k", "2", "--optimizer", FAST_JSON, "--format", "json"],
    "bound/w-obs3-k2": ["bound", "--state", "family:w-noise,p=0.5", "--mode", "obs3", "--k", "2", "--optimizer", FAST_JSON],
    "bound/ghz-obs2-csv": ["bound", "--state", "family:ghz-noise,p=0.5", "--mode", "obs2", "--format", "csv"],
    "bound/horodecki-ppt": ["bound", "--state", "family:horodecki,a=0.5", "--mode", "ppt"],
    "bound/bell-wootters-json": ["bound", "--state", "family:bell-noise,p=0.8", "--mode", "wootters", "--format", "json"],
    "bound/w-obs2-json": ["bound", "--state", "family:w-noise,p=0.5", "--mode", "obs2", "--format", "json"],
    "scan/bell-obs1": ["scan", "--family", "bell-noise", "--mode", "obs1", "--p-range", "0.05:1.0", "--points", "4", "--tol", "1e-2"],
    "scan/ghz-obs2": ["scan", "--family", "ghz-noise", "--mode", "obs2", "--p-range", "0.01:1.0", "--points", "5", "--tol", "1e-4"],
    "scan/w-obs2": ["scan", "--family", "w-noise", "--mode", "obs2", "--p-range", "0.01:1.0", "--points", "5", "--tol", "1e-4"],
    "scan/bell-wootters": ["scan", "--family", "bell-noise", "--mode", "wootters", "--p-range", "0.05:1.0", "--points", "5", "--tol", "1e-4"],
    "scan/w-obs3": ["scan", "--family", "w-noise", "--mode", "obs3", "--p-range", "0.05:1.0", "--points", "4", "--tol", "1e-2", "--optimizer", FAST_JSON],
    "scan/horodecki-ppt-undetected": ["scan", "--family", "horodecki:a=0.5", "--mode", "ppt", "--p-range", "0.5:1.0", "--points", "3", "--tol", "1e-2"],
}


def _blas_core() -> str:
    """The kernel a DYNAMIC_ARCH OpenBLAS picked for this CPU, or "" if not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return ""


def environment() -> dict:
    """The build that produced (or recomputes) the corpus bytes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: show_config takes no mode
        blas = {}
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_core": _blas_core(),
    }


def _mask_times(text: str) -> str:
    text = re.sub(r'"wall_time": [^,}]+', '"wall_time": "<masked>"', text)
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "<masked>"', text)


def _cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "scan.csv"
        full = argv + ["--out", str(csv)] if argv[0] == "scan" else argv
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full)
        fields = {"exit": str(code), "stdout": _mask_times(out.getvalue()), "stderr": err.getvalue()}
        if csv.exists():
            fields["csv"] = csv.read_text(encoding="utf-8")
    return fields


def _report(rep) -> dict:
    return {"report": rep.to_json(include_timing=False)}


# The JSON bound records of CLI_RUNS: run -> (the report's mode, the family
# its gaps are taken over); the state is the one its --state names.
CLI_REPORTS = {
    "bound/horodecki-obs1-k2-json": ("obs1", lambda: bipartite_generators(3, 3)),
    "bound/bell-wootters-json": ("wootters", lambda: bipartite_generators(2, 2)),
    "bound/w-obs2-json": ("obs2-w", lambda: example_operators("w")),
}


def reports():
    """(name, state, mode, family, make) for every report entry: make()
    builds the report, of ``mode`` on ``state``, whose gaps are those of
    ``family``: a GeneratorSet, a GeneratorTriple, or (obs3) a GeneratorSet
    per split label."""
    fast = OptimizerConfig(**FAST)
    top = OptimizerConfig(**FAST, subset_strategy="top_singletons", top_count=4)
    gens, triple = bipartite_generators(3, 3), canonical_triple(2)
    splits = {g.split: g for g in (tripartite_generators(2, s) for s in range(3))}
    for a in (0.2, 0.8):
        for p in (1.0, 0.6):
            rho = white_noise_mix(horodecki_state(a), p)
            for k in (1, 2):
                for pool, cfg in (("exhaustive", fast), ("top_singletons", top)):
                    yield f"obs1/a={a}/p={p}/k={k}/{pool}", rho, "obs1", gens, partial(optimize_bound_bipartite, rho, k, cfg)
    for mode, family in (("obs2", triple), ("obs3", splits)):
        for name, state in (("ghz", ghz_state), ("w", w_state)):
            for p in (1.0, 0.5):
                rho = white_noise_mix(state().density(), p)
                for k in (1, 2):
                    yield f"{mode}/{name}/p={p}/k={k}", rho, mode, family, partial(optimize_bound_multipartite, rho, k, fast, mode)

    rho = horodecki_state(0.2)
    w_mix = white_noise_mix(w_state().density(), 0.5)
    yield "fixed/obs1", rho, "obs1", gens, partial(observation1_bound, rho, 2, {(4, 8): [0.5333, 1.0], (0, 1): [1.0, 1j]})
    yield "fixed/obs2", w_mix, "obs2", triple, partial(observation2_bound, w_mix, 1, {(0,): ([1.0], [1.0], [1.0]), (5,): ([1j], [0.5], [1.0])})
    yield "fixed/obs2-w", w_mix, "obs2-w", example_operators("w"), partial(observation2_bound, w_mix, 1, {(0,): ([1.0], [1.0], [1.0])}, "w")
    yield "fixed/obs3", w_mix, "obs3", splits, partial(observation3_bound, w_mix, 1, {0: {(0,): [1.0]}, 2: {(3,): [0.5j]}})
    yield "empty/obs1", rho, "obs1", gens, partial(observation1_bound, rho, 2, {})
    yield "empty/obs2", w_mix, "obs2", triple, partial(observation2_bound, w_mix, 2, {})
    yield "empty/obs3", w_mix, "obs3", splits, partial(observation3_bound, w_mix, 1, {})


def replays():
    """(name, field, state, mode, family) for every report the corpus
    prints, ``reports()``'s and those in the JSON records of CLI_REPORTS."""
    for name, rho, mode, family, _ in reports():
        yield name, "report", rho, mode, family
    for run, (mode, family) in CLI_REPORTS.items():
        argv = CLI_RUNS[run]
        yield f"cli/{run}", "stdout", parse_state(argv[argv.index("--state") + 1])[0], mode, family()


def entries():
    """(name, {field: text}) for every corpus entry, in a fixed order."""
    for name, _, _, _, make in reports():
        yield name, _report(make())

    rho = horodecki_state(0.2)
    gens = bipartite_generators(3, 3)
    w_mix = white_noise_mix(w_state().density(), 0.5)
    yield "repr/delta_k", {"repr": repr(delta_k(rho, gens, (4, 8), [0.5333, 1.0]))}
    yield "repr/delta_tot_k", {"repr": repr(delta_tot_k(w_mix, canonical_triple(2), (0, 5), ([1.0, 0.5], [1j, 1.0], [1.0, -1.0])))}
    yield "repr/optimize_u", {"repr": repr(optimize_u(rho, gens, (4, 8), OptimizerConfig(**FAST)))}
    u_full = np.zeros(gens.count, dtype=complex)
    u_full[[0, 4, 8]] = 0.1j, 0.5333, 1.0
    yield "repr/delta_total_bound", {"repr": repr(delta_total_bound(rho, gens, u_full / np.linalg.norm(u_full)))}
    yield "repr/concurrence_pure_sumrule", {"repr": repr(concurrence_pure_sumrule(random_pure((3, 3), seed=7), gens))}
    yield "repr/lambda_spectrum", {"repr": repr(lambda_spectrum(rho, gens.operators[4] + 0.5 * gens.operators[8]).tolist())}
    for seed in range(4):
        two = random_density((2, 2), seed + 1, seed=seed)
        yield f"repr/wootters_concurrence/rank={seed + 1}", {"repr": repr(wootters_concurrence(two))}
    # Noise eigenvalues of 2.5e-5 next to 0.75: a coarse support cut drops them.
    yield "repr/wootters_concurrence/bell-p=0.9999", {"repr": repr(wootters_concurrence(white_noise_mix(bell_state().density(), 0.9999)))}

    for name, argv in CLI_RUNS.items():
        yield f"cli/{name}", _cli(argv)


def corpus() -> dict:
    return {"environment": environment(), "entries": dict(entries())}


def _reports(fields: dict) -> dict:
    """The BoundReport dicts in an entry, by field: a report field, or a JSON
    line of CLI output that holds one under "report"."""
    found = {}
    for field, text in fields.items():
        for line in text.splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            doc = doc.get("report", doc) if isinstance(doc, dict) else None
            if isinstance(doc, dict) and "per_subset" in doc:
                found[field] = doc
    return found


def _rel(old: float, new: float) -> str:
    return f"{(new - old) / abs(old):+.3g}" if old else ("0" if new == old else "from 0")


def diff(old: dict, new: dict) -> list[str]:
    """Lines describing how the corpus entries ``new`` depart from ``old``."""
    out = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{name}: {'new' if a is None else 'gone'}")
            continue
        out.append(f"{name}: fields {', '.join(sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f)))} differ")
        ra, rb = _reports(a), _reports(b)
        for field in sorted(ra.keys() & rb.keys()):
            x, y = ra[field], rb[field]
            bx, by = x["bound_on_c_squared"], y["bound_on_c_squared"]
            out.append(f"  {field}: bound {bx!r} -> {by!r} (relative {_rel(bx, by)})")
            gx, gy = ({(e.get("split"), tuple(e["subset"])): e["delta"] for e in r["per_subset"]} for r in (x, y))
            falls = [0.0]
            for key in sorted(gx.keys() | gy.keys(), key=str):
                label, dx, dy = f"    {key[0] or ''}{key[1]}", gx.get(key), gy.get(key)
                if dy is None:
                    out.append(f"{label}: {dx!r}, gone from the pool")
                    falls.append(dx)
                elif dx is None:
                    out.append(f"{label}: new in the pool, {dy!r}")
                elif dx != dy:
                    out.append(f"{label}: {dx!r} -> {dy!r} (relative {_rel(dx, dy)})")
                    falls.append(dx - dy)
            out.append(f"    largest fall of a gap: {max(falls)!r}")
    return out


if __name__ == "__main__":
    os.environ.pop("CONCBOUND_SEED", None)
    fresh = corpus()
    if sys.argv[1:] == ["--diff"]:
        committed = json.loads(CORPUS.read_text(encoding="utf-8"))
        print("\n".join(diff(committed["entries"], fresh["entries"])) or "no entry differs")
    else:
        CORPUS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {CORPUS}", file=sys.stderr)
