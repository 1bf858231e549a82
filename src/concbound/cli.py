"""Command line front end: one-shot bounds, threshold scans, and demos.

Three subcommands:

``bound``
    Evaluate one detector on one state and print the bound, its square
    root, the worst-split partial-transpose eigenvalue, and a verdict.
``scan``
    Sweep a one-parameter noise family, write a CSV of per-point values
    plus a bisected detection threshold.
``demo``
    Self-contained reproduction scenarios with PASS/FAIL lines.

States come from JSON files or inline family descriptors such as
``family:ghz-noise,p=0.6``. All numeric output uses 12 significant
digits. Scan CSV files contain no timestamps, so identical invocations
produce identical bytes; timing and provenance live in the optional
JSON run record instead.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ParameterRangeError, ThresholdNotDetectedError, _parse_json
from .bounds_bipartite import _fixed, _resolve_gens, observation1_bound, wootters_concurrence
from .bounds_multipartite import _resolve_triple, ctau_pure
from .generators import _EXAMPLES, Bipartition, bipartite_generators
from .optimizer import (
    OptimizerConfig,
    _check_tol_detect,
    optimize_bound_bipartite,
    optimize_bound_multipartite,
    threshold_scan,
)
from .states import (
    DensityMatrix,
    _check_state,
    bell_state,
    ghz_state,
    horodecki_state,
    load_state,
    maximally_mixed,
    random_density,
    w_state,
    white_noise_mix,
)

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _record(argv, descriptor: dict, report: dict) -> str:
    """The JSON run record of one CLI invocation."""
    return json.dumps(
        {
            "command": list(argv),
            "descriptor": descriptor,
            "report": report,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        sort_keys=True,
    )


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for chunk in text.split(","):
        key, eq, val = (part.strip() for part in chunk.partition("="))
        if not eq:
            raise ValueError(f"malformed parameter {chunk!r}, expected key=value")
        if key in params:
            raise ValueError(f"parameter {key!r} given twice")
        params[key] = val
    return params


def _mixed_dims(params: dict) -> tuple[int, ...]:
    if len(params) != 1 or not params.keys() <= {"d", "dims"}:
        raise ValueError(f"maximally-mixed takes one of dims=AxB or a square total d=N, got {sorted(params)}")
    if "dims" in params:
        return tuple(int(x) for x in params["dims"].split("x"))
    d = int(params["d"])
    root = round(math.sqrt(d))
    if root * root == d and root >= 2:
        return (root, root)
    raise ValueError(f"cannot infer square dims from d={d}; pass dims=AxB")


# Noise family -> (base state from the descriptor parameters, obs2
# generator source, the descriptor's keys, all required); a family's state
# at p is white_noise_mix(base, p).
_FAMILIES = {
    "ghz-noise": (lambda params: ghz_state().density(), "ghz", ()),
    "w-noise": (lambda params: w_state().density(), "w", ()),
    "bell-noise": (lambda params: bell_state().density(), "canonical", ()),
    "horodecki": (lambda params: horodecki_state(float(params["a"])), "canonical", ("a",)),
}


def _noise_family(name: str, params: dict, optional=()):
    """p -> state along the named noise family; ``params`` holds the
    family's keys and may hold those in ``optional``, and no other."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    make, _, keys = _FAMILIES[name]
    if not set(keys) <= params.keys() <= set(keys + optional):
        raise ValueError(f"{name} needs the keys {list(keys)} and takes {list(optional)}, got {sorted(params)}")
    base = make(params)
    return lambda p: white_noise_mix(base, p)


def parse_state(text: str) -> tuple[DensityMatrix, dict]:
    """Resolve a --state argument to a density matrix and a descriptor."""
    if text.startswith("family:"):
        name, _, rest = text[len("family:") :].partition(",")
        name, params = name.strip(), _parse_params(rest)
        p = float(params.get("p", 1.0))
        # maximally-mixed is a bound-only family: it has no noise parameter.
        rho = maximally_mixed(_mixed_dims(params)) if name == "maximally-mixed" else _noise_family(name, params, ("p",))(p)
        return rho, {"source": "family", "family": name, "params": params}
    rho = _check_state(load_state(text))
    return rho, {"source": "file", "path": text, "dims": list(rho.dims)}


_labels = functools.cache(lambda n: [Bipartition.single(s, n).label for s in range(n)])  # n -> label of party s's split


def _ppt_summary(rho: DensityMatrix) -> dict:
    vals = dict(zip(_labels(len(rho.dims)), rho._pt[:, 0].tolist()))  # one split per row of rho._pt
    worst_label = min(vals, key=vals.get)
    return {"per_split": vals, "worst": vals[worst_label], "worst_split": worst_label}


def _make_config(blob: str | None) -> OptimizerConfig:
    user = _parse_json(json.loads, blob, "--optimizer") if blob else {}
    env = os.environ.get("CONCBOUND_SEED")
    if env is not None and isinstance(user, dict):
        user = {"seed": int(env), **user}
    return OptimizerConfig.from_dict(user)


# Report mode -> (the options besides --mode that it reads; its report, (rho, k, optimizer config) -> BoundReport, None for ppt;
# its scan value, (rho, k) -> float, where that skips the report). The closed forms wootters (two qubits: any other state fails before
# output) and obs2-<family> (--mode obs2 on an example family's generator source, at its optimum u = v = w = 1) take both from one gap
# call of ``_fixed``. This is the only check of which options a mode takes: wootters reads none, obs2-<family> only --gen-source.
_MODES = {
    "obs1": ({"k", "optimizer"}, lambda rho, k, cfg: optimize_bound_bipartite(rho, k, cfg), None),
    "obs2": ({"k", "gen_source", "optimizer"}, lambda rho, k, cfg: optimize_bound_multipartite(rho, k, cfg, "obs2"), None),
    "obs3": ({"k", "optimizer"}, lambda rho, k, cfg: optimize_bound_multipartite(rho, k, cfg, "obs3"), None),
    "wootters": (set(), *_fixed("wootters", lambda rho: _resolve_gens(rho, bipartite_generators(2, 2)).operators, [1.0])),
    "ppt": (set(), None, lambda rho, k: max(0.0, -_ppt_summary(rho)["worst"])),
    **{f"obs2-{f}": ({"gen_source"}, *_fixed(f"obs2-{f}", lambda rho, f=f: _resolve_triple(rho, f).operators[:, 0], [1.0] * 3)) for f in _EXAMPLES},
}


def _pick_mode(args, family: str | None):
    """The _MODES row that --mode picks on the generator source: --gen-source, whose
    auto (and scan, which has none) takes the noise family's, else canonical. Rejects
    a non-default --k, --gen-source or --optimizer that the row never reads."""
    gen_source = getattr(args, "gen_source", "auto")
    source = _FAMILIES.get(family, (None, "canonical"))[1] if gen_source == "auto" else gen_source
    mode = f"{args.mode}-{source}" if f"{args.mode}-{source}" in _MODES else args.mode
    given = {"k": args.k != 1, "gen_source": gen_source != "auto", "optimizer": args.optimizer is not None}
    unread = [f"--{name.replace('_', '-')}" for name in given if given[name] and name not in _MODES[mode][0]]
    if unread:
        where = f" on generator source {source}" if mode != args.mode else ""
        raise ParameterRangeError(f"--mode {args.mode}{where} does not read {', '.join(unread)}")
    return _MODES[mode]


def cmd_bound(args, argv) -> int:
    _check_tol_detect(args.tol_detect)
    rho, descriptor = parse_state(args.state)
    _, report_of, value_of = _pick_mode(args, descriptor.get("family"))
    cfg = _make_config(args.optimizer)
    ppt = _ppt_summary(rho)
    rep = report_of(rho, args.k, cfg) if report_of else None
    report = rep.to_dict() if rep is not None else {"mode": args.mode}
    report["ppt"] = ppt
    value = rep.bound_on_c_squared if rep is not None else value_of(rho, args.k)
    verdict = "ENTANGLED" if value > args.tol_detect else "UNDETECTED"
    report["verdict"] = verdict
    record = _record(argv, descriptor, report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(record + "\n")
    print(f"mode: {report['mode']}")
    if rep is not None:
        print(f"bound_on_c_squared: {_fmt(rep.bound_on_c_squared)}")
        print(f"sqrt_bound: {_fmt(math.sqrt(max(0.0, rep.bound_on_c_squared)))}")
    print(f"ppt_min_eig ({ppt['worst_split']}): {_fmt(ppt['worst'])}")
    print(f"verdict: {verdict}")
    if args.format == "json":
        print(record)
    elif args.format == "csv":
        bound_txt = _fmt(rep.bound_on_c_squared) if rep is not None else ""
        print("mode,bound_on_c_squared,ppt_min_eig_worst_split,verdict")
        print(f"{report['mode']},{bound_txt},{_fmt(ppt['worst'])},{verdict}")
    return 0


def cmd_scan(args, argv) -> int:
    name, _, rest = args.family.partition(":")
    name, params = name.strip(), _parse_params(rest)
    family = _noise_family(name, params)
    _, report, value = _pick_mode(args, name)
    lo_txt, _, hi_txt = args.p_range.partition(":")
    p_lo, p_hi = float(lo_txt), float(hi_txt)
    if args.points < 1:
        raise ParameterRangeError(f"--points must be at least 1, got {args.points}")
    cfg = _make_config(args.optimizer)
    detector = (lambda rho: value(rho, args.k)) if value else (lambda rho: report(rho, args.k, cfg).bound_on_c_squared)
    # The bisection's points (state, value) by p, which it never repeats: the grid reuses them and keeps no other state.
    visited, point = {}, lambda p: (rho := family(p), detector(rho))
    # threshold_scan checks every input first; its outcome is printed after the grid.
    try:
        result = threshold_scan(lambda p: visited.setdefault(p, point(p)), lambda pt: pt[1], p_lo, p_hi, args.tol, args.tol_detect)
    except ThresholdNotDetectedError as exc:
        result, missed = None, exc
    rows, lines = [], ["p,bound,ppt_min_eig_worst_split"]
    for p in map(float, np.linspace(p_lo, p_hi, args.points)):
        rho, bound = visited.get(p) or point(p)
        row = [p, float(bound), _ppt_summary(rho)["worst"]]
        lines.append(",".join(map(_fmt, row)))
        if args.record:  # the record's rows; a scan without one keeps only the CSV lines
            rows.append(row)
    if result is not None:
        summary_line = (
            f"# threshold={_fmt(result.threshold)}"
            f" bracket_width={_fmt(result.bracket_width)}"
            f" evaluations={result.evaluations}"
        )
        message = (
            f"threshold: {_fmt(result.threshold)} (bracket {_fmt(result.bracket_width)},"
            f" {result.evaluations} evaluations)"
        )
    else:
        summary_line = "# threshold=not-detected"
        message = f"threshold: not detected ({missed})"
    lines.append(summary_line)
    # Both or neither: an unwritable record leaves no CSV, an unwritable CSV removes the record.
    if args.record:
        scan_report = {"family": name, "params": params, "mode": args.mode, "rows": rows, "scan": result and result.to_dict()}
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write(_record(argv, {"source": "family", "family": name, "params": params}, scan_report) + "\n")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError:
        if args.record:
            os.remove(args.record)
        raise
    print(message, file=sys.stdout if result is not None else sys.stderr)
    return 0 if result is not None else 3


def _demo_wootters_check() -> list[tuple[str, bool, str]]:
    worst, gens, start = 0.0, bipartite_generators(2, 2), time.perf_counter()
    for i in range(1000):
        rho = random_density((2, 2), i % 4 + 1, seed=i)
        c = wootters_concurrence(rho)
        worst = max(worst, abs(observation1_bound(rho, 1, {(0,): [1.0]}, gens).bound_on_c_squared - c * c))
    dt = time.perf_counter() - start
    ok = worst < 1e-9
    return [("singleton aggregate equals squared two-qubit concurrence on 1000 states", ok, f"worst deviation {worst:.2e} in {dt:.1f}s")]


def _demo_ghz() -> list[tuple[str, bool, str]]:
    checks = []
    worst = 0.0
    fam = _noise_family("ghz-noise", {})
    det = lambda rho: _MODES["obs2-ghz"][1](rho, 1, None).bound_on_c_squared
    for p in (0.25, 0.5, 0.75, 1.0):
        closed = (0.75 * (5.0 * p - 1.0)) ** 2 / 6.0
        worst = max(worst, abs(det(fam(p)) - closed))
    checks.append(("noisy GHZ bound matches its closed form on the p-grid", worst < 1e-9, f"worst deviation {worst:.2e}"))
    pure = det(ghz_state().density())
    tau = ctau_pure(ghz_state()) ** 2
    checks.append(("pure GHZ bound reproduces the squared tripartite concurrence 3/2", abs(pure - 1.5) < 1e-9 and abs(pure - tau) < 1e-9, f"bound {pure!r}"))
    res = threshold_scan(fam, det, 0.01, 1.0, 1e-5, 1e-9)
    checks.append(("detection threshold sits at p = 0.2000 within 1e-4", abs(res.threshold - 0.2) < 1e-4, f"threshold {_fmt(res.threshold)}"))
    return checks


def _demo_w() -> list[tuple[str, bool, str]]:
    rt3 = math.sqrt(3.0)
    checks = []
    worst = 0.0
    fam = _noise_family("w-noise", {})
    det = lambda rho: _MODES["obs2-w"][1](rho, 1, None).bound_on_c_squared
    for p in (0.2, 0.35, 0.5, 0.65, 0.8, 1.0):
        closed = (p * (8.0 + rt3) - rt3) ** 2 / 96.0
        worst = max(worst, abs(det(fam(p)) - closed))
    checks.append(("noisy W bound matches its closed form on the p-grid", worst < 1e-9, f"worst deviation {worst:.2e}"))
    res = threshold_scan(fam, det, 0.01, 1.0, 1e-5, 1e-9)
    checks.append(("detection threshold sits at p = 0.17797 within 1e-4", abs(res.threshold - rt3 / (8.0 + rt3)) < 1e-4, f"threshold {_fmt(res.threshold)}"))
    neg = threshold_scan(fam, lambda rho: _MODES["ppt"][2](rho, 1), 0.01, 1.0, 1e-5, 1e-9)
    boundary = 3.0 * (8.0 * math.sqrt(2.0) - 3.0) / 119.0
    checks.append(("worst-split transposition eigenvalue changes sign at p = 0.20959", abs(neg.threshold - boundary) < 1e-4, f"threshold {_fmt(neg.threshold)}"))
    rho02 = fam(0.2)
    ppt = _ppt_summary(rho02)
    joint = det(rho02)
    checks.append(("at p = 0.2 every bipartition is PPT yet the joint bound fires", ppt["worst"] >= -1e-9 and joint > 1e-4, f"worst PPT eig {ppt['worst']:.2e}, bound {joint:.3e}"))
    split = optimize_bound_multipartite(rho02, 1, OptimizerConfig(restarts=8, iterations=100), "obs3").bound_on_c_squared
    checks.append(("the split-wise aggregate stays silent at p = 0.2", split <= 1e-8, f"obs3 bound {split:.2e} versus obs2 {joint:.3e}"))
    return checks


def _demo_horodecki() -> list[tuple[str, bool, str]]:
    checks = []
    for a in (0.2, 0.5, 0.8):
        rho = horodecki_state(a)
        ppt = _ppt_summary(rho)
        checks.append((f"a={a}: both transpositions stay positive", ppt["worst"] >= -1e-9, f"worst eig {ppt['worst']:.2e}"))
    rho = horodecki_state(0.2)
    single = optimize_bound_bipartite(rho, 1, OptimizerConfig(restarts=4, iterations=40))
    checks.append(("a=0.2: singleton aggregate never fires (k=1 blind to PPT entanglement)", single.bound_on_c_squared <= 1e-12, f"bound {single.bound_on_c_squared:.3e}"))
    pair = optimize_bound_bipartite(rho, 2, OptimizerConfig(restarts=6, iterations=80))
    best = max(pair.per_subset, key=lambda e: e.delta)
    checks.append(("a=0.2: pair subsets detect the PPT-entangled state", pair.bound_on_c_squared > 1e-7, f"bound {pair.bound_on_c_squared:.3e}, best subset {best.subset}"))
    return checks


# Scenario name -> checks, in the order `demo --help` lists them.
_DEMOS = {
    "ghz": _demo_ghz,
    "w": _demo_w,
    "horodecki": _demo_horodecki,
    "wootters-check": _demo_wootters_check,
}


def cmd_demo(args, argv) -> int:
    checks = _DEMOS[args.scenario]()
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concbound",
        description="Certified lower bounds on bipartite and tripartite concurrence.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # A row obs2-<family> is picked by --gen-source, not named by --mode.
    modes = [mode for mode in _MODES if "-" not in mode]

    b = sub.add_parser("bound", help="evaluate one detector on one state")
    b.add_argument("--state", required=True, help="JSON file or family:<name>,key=value,...")
    b.add_argument("--mode", choices=modes, default="obs1")
    b.add_argument("--k", type=int, default=1, help="subset size for aggregated modes")
    b.add_argument("--optimizer", help="JSON object overriding optimizer fields")
    b.add_argument("--gen-source", choices=("auto", "canonical", *_EXAMPLES), default="auto", help="generator family for obs2")
    b.add_argument("--tol-detect", type=float, default=1e-7, help="verdict threshold on the bound")
    b.add_argument("--out", help="write the JSON run record here")
    b.add_argument("--format", choices=("text", "json", "csv"), default="text")

    s = sub.add_parser("scan", help="sweep a noise family and bisect its threshold")
    s.add_argument("--family", required=True, help="ghz-noise | w-noise | bell-noise | horodecki:a=...")
    s.add_argument("--mode", choices=modes, default="obs2")
    s.add_argument("--p-range", required=True, help="lo:hi")
    s.add_argument("--tol", type=float, default=1e-4, help="bisection bracket target on p")
    s.add_argument("--tol-detect", type=float, default=1e-9, help="detection tolerance on the bound")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--points", type=int, default=21, help="grid rows written to the CSV")
    s.add_argument("--optimizer", help="JSON object overriding optimizer fields")
    s.add_argument("--out", required=True, help="CSV output path")
    s.add_argument("--record", help="optional JSON run record path")

    d = sub.add_parser("demo", help="self-contained reproduction scenarios")
    d.add_argument("scenario", choices=_DEMOS)
    return parser


_parser = functools.cache(build_parser)  # main's parser, built on its first call


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        if args.subcommand == "bound":
            return cmd_bound(args, argv)
        if args.subcommand == "scan":
            return cmd_scan(args, argv)
        return cmd_demo(args, argv)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
