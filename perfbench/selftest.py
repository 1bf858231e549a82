"""Smoke test of the benchmark harness, one item per workload and pass.

    python3 perfbench/selftest.py

For every workload it runs one item plainly and the same item traced,
then checks that every metric declared in BENCHMARK.json comes out with
its declared unit, that no item failed its correctness check, that the
span tree is well formed with self times summing to the items' wall
time, and that every module attribute the tracer patched is bound to
the original object again afterwards. Exits 1 on the first workload
with a problem. Takes a few seconds, most of it in the two search
workloads.
"""
import json
import math
import shutil
import sys
import tempfile

import run  # first: pins the BLAS thread pools before numpy loads


def bindings(tracer) -> dict:
    return {(owner.__name__, k): v for owner in tracer.owners() for k, v in vars(owner).items()}


def check_workload(cb, workload, declared, setup) -> list[str]:
    from tracer import Tracer

    problems = []
    before = bindings(Tracer(cb))
    run.OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        plain, traced, layers, tracer = run.measure(
            cb, workload, seed=1, seconds=0.0, trace=True, scratch=scratch, chunk_s=0.0
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    e2e = run.end_to_end(plain, setup)
    for kind, produced in (("end_to_end", e2e), ("per_layer", layers)):
        for m in declared[kind]:
            if m["name"] not in produced:
                problems.append(f"{kind} metric {m['name']} missing")
            elif produced[m["name"]][1] != m["unit"]:
                problems.append(f"{m['name']} in {produced[m['name']][1]}, declared {m['unit']}")
            elif not math.isfinite(produced[m["name"]][0]):
                problems.append(f"{m['name']} is not finite")
    if e2e["error_rate"][0] != 0.0 or traced.failed:
        problems.append(f"failed items: {plain.errors + traced.errors}")
    if plain.attempted != 1 or traced.attempted != 1:
        problems.append(f"expected 1 + 1 items, ran {plain.attempted} + {traced.attempted}")
    problems += tracer.check_tree()
    roots = [s for s in tracer.spans if s.parent is None]
    if len(roots) != traced.attempted:
        problems.append(f"{len(roots)} root spans for {traced.attempted} items")
    total_self = math.fsum(tracer.self_times().values())
    if abs(total_self - tracer.root_time()) > 1e-6 + 1e-9 * tracer.root_time():
        problems.append(f"self times sum to {total_self}, root spans to {tracer.root_time()}")
    if len(tracer.spans) < 2:
        problems.append("no library spans recorded")
    after = bindings(tracer)
    if before.keys() != after.keys() or any(before[k] is not after[k] for k in before):
        changed = sorted(k for k in before.keys() | after.keys() if before.get(k) is not after.get(k))
        problems.append(f"library bindings changed after tracing: {changed[:5]}")
    return problems


def main() -> int:
    cb = run.import_library()
    from workloads import WORKLOADS

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads {names} vs harness {sorted(WORKLOADS)}")
        return 1
    setup = run.measure_setup(names[0], 1, 0.0, 1)
    if not min(setup) > 0.0:
        print(f"FAIL setup probe returned {setup}")
        return 1
    for name in names:
        problems = check_workload(cb, WORKLOADS[name], declared, setup)
        for p in problems:
            print(f"FAIL {name}: {p}")
        if problems:
            return 1
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
