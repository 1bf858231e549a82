"""Run one concbound benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fixed-eval --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy. One client drives the library
in a closed loop: the next item starts only after the previous one has
returned and been checked. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP pools before numpy loads: the library's matrices are
# 8x8 and 9x9, where extra threads only add noise.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_REF_REPEATS = 30
# setup_s is in seconds of a machine on which one reference kernel run
# takes this long; see README.md.
REFERENCE_RUN_S = 1e-3
TAIL_BEYOND = 10
CHUNK_S = 0.5


def import_library():
    """Import concbound from this checkout's sources, or exit non-zero."""
    pkg = SRC / "concbound"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no concbound sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import concbound
    import concbound.cli  # noqa: F401  (binds concbound.cli for the cli-scan workload)

    if Path(concbound.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: imported concbound from {concbound.__file__}, not {pkg}")
    return concbound


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(cb, args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "concbound": cb.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "concbound_seed_env": os.environ.get("CONCBOUND_SEED"),
        "machine": platform.machine(),
    }


@dataclass
class Pass:
    """Outcome of one closed-loop pass over a workload's specs."""

    latencies: list = field(default_factory=list)
    relative: list = field(default_factory=list)
    references: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    prefix_done: int = 0


def reference_kernel(repeats: int, small: bool = False) -> float:
    """Wall time of ``repeats`` runs of a fixed piece of numpy and
    Python work shaped like the library's own, divided by ``repeats``.
    The default shape is that of the searches: Kronecker products, SVD
    and eigvalsh of 9x9 matrices and a short Python loop. ``small`` is
    that of the fixed-coefficient detectors: validation, eigh, square
    root, partial transpose and eigvalsh of 4x4 matrices. It calls
    nothing in concbound, so a change to the library cannot move it;
    only the machine's speed does."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    t0 = time.perf_counter()
    for _ in range(20 * repeats):
        if small:
            h = np.asarray(np.kron(a[:2, :2], b[:2, :2]), dtype=complex)
            h = h @ h.conj().T
            if h.ndim != 2 or h.shape[0] != h.shape[1] or np.max(np.abs(h - h.conj().T)) > 1e-10:
                raise AssertionError("reference kernel input")
            w, q = np.linalg.eigh(0.5 * (h + h.conj().T))
            root = (q * np.sqrt(np.where(w < 0.0, 0.0, w))) @ q.conj().T
            pt = h.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            float(np.min(np.linalg.eigvalsh(pt)))
            float(np.real(np.trace(root @ np.kron(b[:2, :2], np.eye(2)))))
        else:
            k = np.kron(a, b)
            np.linalg.svd(k, compute_uv=False)
            np.linalg.eigvalsh(k @ k.conj().T)
            sum(float(x) for x in range(40))
    return (time.perf_counter() - t0) / repeats


def run_item(cb, workload, specs, ctx, i, out: Pass, tracer=None) -> float:
    """Run, time and check item ``i``, recording the outcome in ``out``;
    returns the wall time of the whole item, check included. Every
    ``ref_every``-th item is preceded by the reference kernel, outside
    its timing, and each item's latency is also recorded relative to the
    kernel's latest time."""
    spec = specs[i]
    out.attempted += 1
    begin = time.perf_counter()
    if i % workload.ref_every == 0 or not out.references:
        out.references.append(reference_kernel(workload.ref_repeats, workload.ref_small))
    ref = out.references[-1]
    scope = tracer.item(i) if tracer else contextlib.nullcontext()
    quiet = tracer.paused() if tracer else contextlib.nullcontext()
    try:
        t0 = time.perf_counter()
        with scope:
            result = workload.run(cb, spec, ctx)
        out.latencies.append(time.perf_counter() - t0)
        out.relative.append(out.latencies[-1] / ref)
        with quiet:
            values = workload.check(cb, spec, result, ctx)
    except Exception as exc:  # a failing item is counted, reported, and the loop goes on
        out.failed += 1
        if len(out.errors) < 5:
            out.errors.append(f"item {i} {spec!r}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - begin
    if i < workload.prefix:
        out.bounds.extend(values)
        out.prefix_done += 1
    return time.perf_counter() - begin


def latency_tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it, as
    (value, percentile, samples beyond); the maximum for short runs."""
    lat = sorted(latencies)
    n = len(lat)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return lat[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(p: Pass, setup: tuple) -> dict:
    """name -> (value, unit, note), given ``setup`` from measure_setup.
    See README.md for the definitions."""
    from workloads import TOL_DETECT

    lat, bounds = p.latencies, p.bounds
    rate = p50 = tail = pct = 0.0
    beyond = 0
    if lat:
        rate, p50 = len(lat) / math.fsum(lat), statistics.median(lat)
        tail, pct, beyond = latency_tail(lat)
    rel50 = statistics.median(p.relative) if p.relative else 0.0
    ref = statistics.median(p.references) if p.references else 0.0
    return {
        "setup_s": (setup[1], "s", f"median of {SETUP_REPEATS} fresh interpreters, at reference speed"),
        "setup_wall_s": (setup[0], "s", "median of the same, wall clock"),
        "items_per_s": (rate, "1/s", "items per busy second, whole run"),
        "latency_p50_s": (p50, "s", f"median of {len(lat)} items"),
        "latency_tail_s": (tail, "s", f"p{pct:.4g} of {len(lat)} items, {beyond} beyond"),
        "latency_p50_ref": (rel50, "ref", "median of item latency over the reference kernel run before it"),
        "reference_s": (ref, "s", f"median of {len(p.references)} reference kernel runs"),
        "error_rate": (p.failed / p.attempted if p.attempted else 1.0, "ratio", f"{p.failed} of {p.attempted}"),
        "detect_rate": (
            sum(b > TOL_DETECT for b in bounds) / len(bounds) if bounds else 0.0,
            "ratio",
            f"{len(bounds)} bounds from the first {p.prefix_done} items",
        ),
        "bound_mean": (math.fsum(bounds) / len(bounds) if bounds else 0.0, "dimensionless", ""),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
    }


def measure_setup(workload: str, seed: int, seconds: float, repeats: int) -> tuple:
    """Median set-up time over ``repeats`` fresh interpreters, each timed
    from the start of this script to concbound imported and the
    workload's inputs generated; returns (wall seconds, seconds at
    reference speed). The second scales each probe by REFERENCE_RUN_S
    over the reference kernel's time measured just before it."""
    walls, scaled = [], []
    for _ in range(repeats):
        ref = reference_kernel(SETUP_REF_REPEATS)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(walls[-1] * REFERENCE_RUN_S / ref)
    return statistics.median(walls), statistics.median(scaled)


def measure(cb, workload, seed, seconds, trace, scratch=None, chunk_s=CHUNK_S):
    """Run one workload; returns (plain pass, traced pass, per-layer, tracer).

    Untraced: items in order, at least the workload's ``prefix``, then
    more while the last item's duration predicts the next one ends
    within ``seconds``. Traced: chunks of about ``chunk_s`` busy
    seconds, each run plainly and then again under the tracer, so both
    sides of ``trace.overhead_ratio`` see the same items and nearly the
    same machine load; at least one chunk, more under the same rule.
    """
    from tracer import Tracer

    specs = workload.make_inputs(seed, workload.capacity(seconds))
    ctx = workload.context(cb, scratch)
    plain = Pass()
    start = time.perf_counter()
    if not trace:
        i, last = 0, 0.0
        while i < len(specs) and (i < workload.prefix or time.perf_counter() - start + last < seconds):
            last = run_item(cb, workload, specs, ctx, i, plain)
            i += 1
        return plain, None, None, None
    traced = Pass()
    tracer = Tracer(cb)
    i, last = 0, 0.0
    while i < len(specs) and (i == 0 or time.perf_counter() - start + last < seconds):
        t0 = time.perf_counter()
        busy, j = 0.0, i
        while j < len(specs) and (j == i or busy < chunk_s):
            busy += run_item(cb, workload, specs, ctx, j, plain)
            j += 1
        with tracer:
            for k in range(i, j):
                run_item(cb, workload, specs, ctx, k, traced, tracer)
        last = time.perf_counter() - t0
        i = j
    layers = tracer.layer_metrics()
    ratio = math.fsum(traced.latencies) / math.fsum(plain.latencies) if plain.latencies else 0.0
    layers["trace.overhead_ratio"] = (ratio, "ratio")
    return plain, traced, layers, tracer


def write_trace(path: Path, record: dict, tracer, layers: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": record, "metrics": {k: v[0] for k, v in layers.items()},
                             "self_s": tracer.self_times(), "root_s": tracer.root_time()}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span.to_dict()) + "\n")


def run_all(args, names) -> int:
    """Run every workload in its own process, relay its output, and end
    with one JSON line whose metrics are prefixed by workload name."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cb = import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.make_inputs(args.seed, workload.capacity(args.seconds))
        print(time.perf_counter() - _T0)
        return 0

    # CLI items read the optimizer seed from the environment; fix it so
    # the caller's shell cannot change their results.
    os.environ["CONCBOUND_SEED"] = str(args.seed)
    record = run_record(cb, args)
    print("record: " + json.dumps(record, sort_keys=True))
    setup = (0.0, 0.0) if args.trace else measure_setup(args.workload, args.seed, args.seconds, SETUP_REPEATS)

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        plain, traced, layers, tracer = measure(cb, workload, args.seed, args.seconds, args.trace, scratch=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = [p for p in (plain, traced) if p is not None]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for err in p.errors:
            print(f"FAILED {err}", file=sys.stderr)
    e2e = end_to_end(plain, setup)
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        write_trace(path, record, tracer, layers)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    shown = {m["name"]: (layers if args.trace else e2e)[m["name"]] for m in declared}
    for name, (value, unit, *note) in {**e2e, **(layers or {})}.items():
        if args.trace and name.startswith("setup_"):
            continue
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note[0]})" if note and note[0] else ""))
    metrics = {name: {"value": v[0], "unit": v[1]} for name, v in shown.items()}
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
