"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Each workload turns a seed into a list of input specs (plain numbers and
strings; the library only ever sees these), runs one spec per item
through the public API, and then checks the item's outputs against
reference answers that do not come from the code under test: the
Wootters formula and its negativity bounds, the paper's GHZ/W closed
forms and thresholds, and the report invariants every bound must meet.
``check`` returns the item's bound values (for ``bound_mean`` and
``detect_rate``) and raises ``CheckFailed`` on a wrong answer.

See README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

TOL_DETECT = 1e-7
RT3 = math.sqrt(3.0)
GHZ_THRESHOLD = 0.2
W_THRESHOLD = RT3 / (8.0 + RT3)
W_PPT_THRESHOLD = 3.0 * (8.0 * math.sqrt(2.0) - 3.0) / 119.0
BELL_THRESHOLD = 1.0 / 3.0
# At tol_detect = 1e-9 each scanned detector first fires less than
# 3.3e-5 above its analytic threshold (W obs2 is the widest), so the
# analytic value may sit that far below the reported bracket.
SCAN_FIRE_SLACK = 5e-5


class CheckFailed(Exception):
    """An item's output disagrees with its reference answer."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def ghz_closed_form(p: float) -> float:
    return (0.75 * (5.0 * p - 1.0)) ** 2 / 6.0 if p > GHZ_THRESHOLD else 0.0


def w_closed_form(p: float) -> float:
    return (p * (8.0 + RT3) - RT3) ** 2 / 96.0 if p > W_THRESHOLD else 0.0


def check_report(rep, cap: float) -> float:
    """Invariants of every BoundReport; returns its bound."""
    bound = rep.bound_on_c_squared
    _require(math.isfinite(bound) and bound >= 0.0, f"bound {bound!r} not finite and >= 0")
    _require(
        abs(rep.recompute() - bound) <= 1e-15 + 1e-12 * abs(bound),
        f"recompute() {rep.recompute()!r} differs from bound {bound!r}",
    )
    for entry in rep.per_subset:
        _require(entry.delta >= 0.0, f"negative gap {entry.delta!r} on subset {entry.subset}")
        for vec in entry.coefficients.values():
            worst = max((abs(c) for c in vec), default=0.0)
            _require(worst <= 1.0 + 1e-12, f"coefficient modulus {worst!r} above 1")
    _require(bound <= cap + 1e-9, f"bound {bound!r} above the cap {cap}")
    return bound


def _not_below(optimized: float, reference: float, label: str) -> None:
    _require(
        optimized >= reference - 1e-12,
        f"optimized {label} bound {optimized!r} below all-ones value {reference!r}",
    )


def stratified(seed: list, n: int, block: int = 120) -> np.ndarray:
    """n draws in [0, 1), one in each 1/block-wide stratum per block of
    ``block`` consecutive items (in seeded order). Any run-length prefix
    of whole blocks then covers the range evenly, which keeps per-run
    means steady across seeds. Block by block, the draws are the same
    whatever ``n`` is."""
    rows = -(-n // block)
    draws = np.random.default_rng(seed).random((rows, 2, block))
    strata = np.argsort(draws[:, 0], axis=1)
    return ((strata + draws[:, 1]) / block).ravel()[:n]


class Workload:
    """One closed-loop workload.

    ``prefix`` items are completed in every run whatever ``--seconds``
    says; ``bound_mean`` and ``detect_rate`` are taken over them, so both
    repeat exactly for a given seed. ``max_rate`` is about one and a half
    times the items per second reached on the machine described in
    README.md; a run gets inputs for that rate, so only a faster machine
    runs out of them before ``--seconds``, and then ends early.
    ``ref_repeats`` runs of the reference kernel, in its ``small`` shape
    if ``ref_small``, precede every ``ref_every``-th item, a tenth to a
    fifth of the items' time.
    """

    name = ""
    prefix = 1
    max_rate = 1.0
    ref_repeats = 1
    ref_every = 1
    ref_small = False

    def capacity(self, seconds: float) -> int:
        return self.prefix + math.ceil(seconds * self.max_rate)

    def make_inputs(self, seed: int, n: int) -> list:
        raise NotImplementedError

    def context(self, cb, scratch: str) -> dict:
        """Per-run context built before the loop (not timed)."""
        return {}

    def run(self, cb, spec, ctx):
        raise NotImplementedError

    def check(self, cb, spec, result, ctx) -> list[float]:
        raise NotImplementedError


class SearchBipartite(Workload):
    name = "search-bipartite"
    prefix = 16
    max_rate = 3.5
    ref_repeats = 30

    def make_inputs(self, seed, n):
        # Blocks of four: one Horodecki state near each of a = 0.2, 0.5,
        # 0.8 and one heavily white-noised state, in a seeded order. Fixed
        # strata keep bound_mean comparable across seeds.
        rng = np.random.default_rng([seed, 1])
        specs = []
        while len(specs) < n:
            block = [(c + rng.uniform(-0.02, 0.02), 1.0) for c in (0.2, 0.5, 0.8)]
            block.append((0.35 + rng.uniform(-0.02, 0.02), rng.uniform(0.4, 0.6)))
            specs.extend(block[i] for i in rng.permutation(4))
        return [(float(a), float(p)) for a, p in specs[:n]]

    def context(self, cb, scratch):
        return {"cfg": cb.OptimizerConfig(restarts=2, iterations=20)}

    def run(self, cb, spec, ctx):
        a, p = spec
        rho = cb.horodecki_state(a)
        if p < 1.0:
            rho = cb.white_noise_mix(rho, p)
        return rho, cb.optimize_bound_bipartite(rho, 2, ctx["cfg"])

    def check(self, cb, spec, result, ctx):
        rho, rep = result
        bound = check_report(rep, 4.0 / 3.0)
        _require(rep.k == 2 and len(rep.per_subset) == 36, "expected 36 pair subsets")
        ones = {e.subset: [1.0, 1.0] for e in rep.per_subset}
        _not_below(bound, cb.observation1_bound(rho, 2, ones).bound_on_c_squared, "obs1")
        return [bound]


class SearchTripartite(Workload):
    name = "search-tripartite"
    prefix = 16
    max_rate = 6.0
    ref_repeats = 30

    def make_inputs(self, seed, n):
        # Blocks of four: GHZ and W, each once below every detection
        # threshold (p near 0.13) and once well above (p near 0.9), in a
        # seeded order, so detect_rate is 1/2 by design and bound_mean
        # moves little between seeds.
        rng = np.random.default_rng([seed, 2])
        specs = []
        while len(specs) < n:
            block = [
                (fam, centre + rng.uniform(-0.01, 0.01))
                for fam in ("ghz", "w")
                for centre in (0.13, 0.9)
            ]
            specs.extend(block[i] for i in rng.permutation(4))
        return [(fam, float(p)) for fam, p in specs[:n]]

    def context(self, cb, scratch):
        return {"cfg": cb.OptimizerConfig(restarts=2, iterations=25)}

    def run(self, cb, spec, ctx):
        fam, p = spec
        pure = cb.ghz_state() if fam == "ghz" else cb.w_state()
        rho = cb.white_noise_mix(pure.density(), p)
        obs2 = cb.optimize_bound_multipartite(rho, 1, ctx["cfg"], "obs2")
        obs3 = cb.optimize_bound_multipartite(rho, 1, ctx["cfg"], "obs3")
        return rho, obs2, obs3

    def check(self, cb, spec, result, ctx):
        rho, obs2, obs3 = result
        b2 = check_report(obs2, 1.5)
        b3 = check_report(obs3, 1.5)
        n = obs2.n_generators
        _require(len(obs2.per_subset) == n and len(obs3.per_subset) == 3 * n, "subset counts")
        ones2 = {(i,): ([1.0], [1.0], [1.0]) for i in range(n)}
        ones3 = {s: {(i,): [1.0] for i in range(n)} for s in range(3)}
        _not_below(b2, cb.observation2_bound(rho, 1, ones2).bound_on_c_squared, "obs2")
        _not_below(b3, cb.observation3_bound(rho, 1, ones3).bound_on_c_squared, "obs3")
        return [b2, b3]


class FixedEval(Workload):
    """Per-call cost without search: one fresh state per item through
    every fixed-coefficient detector that applies to it. No two items
    share a state, so an input-keyed cache cannot help here."""

    name = "fixed-eval"
    prefix = 4800
    max_rate = 2200.0
    ref_every = 32
    ref_small = True

    def make_inputs(self, seed, n):
        # Two thirds random two-qubit states (ranks 1-4 equally often),
        # one third noisy GHZ/W with p spread evenly over [0.1, 1]. Each
        # draw sequence is consumed only by the items that use it, so the
        # two-qubit items' ranks and each family's p are stratified too.
        kind = stratified([seed, 3, 0], n) < 2.0 / 3.0
        rank = iter(1 + (4 * stratified([seed, 3, 1], n)).astype(int))
        state_seed = iter(np.random.default_rng([seed, 3, 2]).integers(0, 2**63 - 1, size=n))
        ghz = iter(stratified([seed, 3, 3], n) < 0.5)
        p = {fam: iter(0.1 + 0.9 * stratified([seed, 3, 4, j], n)) for j, fam in enumerate(("ghz", "w"))}
        specs = []
        for two_qubit in kind:
            if two_qubit:
                specs.append(("2q", int(next(rank)), int(next(state_seed))))
            else:
                fam = "ghz" if next(ghz) else "w"
                specs.append((fam, float(next(p[fam]))))
        return specs

    def context(self, cb, scratch):
        return {
            "pair": cb.Bipartition((0,), (1,)),
            "splits": [cb.Bipartition.single(i, 3) for i in range(3)],
            "ones1": {(0,): [1.0]},
            "ones3": {(0,): ([1.0], [1.0], [1.0])},
        }

    def run(self, cb, spec, ctx):
        if spec[0] == "2q":
            rho = cb.random_density((2, 2), spec[1], seed=spec[2])
            rep = cb.observation1_bound(rho, 1, ctx["ones1"])
            return rep, cb.wootters_concurrence(rho), cb.ppt_min_eigenvalue(rho, ctx["pair"])
        fam, p = spec
        pure = cb.ghz_state() if fam == "ghz" else cb.w_state()
        rho = cb.white_noise_mix(pure.density(), p)
        rep = cb.observation2_bound(rho, 1, ctx["ones3"], fam)
        return rep, [cb.ppt_min_eigenvalue(rho, s) for s in ctx["splits"]]

    def check(self, cb, spec, result, ctx):
        if spec[0] == "2q":
            rep, c, ppt = result
            bound = check_report(rep, 1.0)
            _require(abs(bound - c * c) <= 1e-9, f"Wootters identity: {bound!r} vs C^2 {c * c!r}")
            # Two-qubit negativity N and concurrence C obey
            # sqrt((1-C)^2 + C^2) - (1-C) <= N <= C (Verstraete et al. 2001).
            neg = max(0.0, -2.0 * ppt)
            _require(neg <= c + 1e-9, f"negativity {neg!r} above concurrence {c!r}")
            floor = math.sqrt((1.0 - c) ** 2 + c * c) - (1.0 - c)
            _require(neg >= floor - 1e-9, f"negativity {neg!r} below its floor {floor!r}")
            return [bound]
        fam, p = spec
        rep, ppts = result
        bound = check_report(rep, 1.5)
        expected = ghz_closed_form(p) if fam == "ghz" else w_closed_form(p)
        _require(abs(bound - expected) <= 1e-9, f"{fam} p={p!r}: bound {bound!r} vs closed form {expected!r}")
        _require(max(ppts) - min(ppts) <= 1e-12, f"symmetric state, unequal split eigenvalues {ppts}")
        if fam == "ghz":
            exact = (1.0 - p) / 8.0 - p / 2.0
            _require(abs(ppts[0] - exact) <= 1e-12, f"GHZ PPT eigenvalue {ppts[0]!r} vs {exact!r}")
        elif abs(p - W_PPT_THRESHOLD) > 1e-6:
            _require((ppts[0] < 0.0) == (p > W_PPT_THRESHOLD), f"W PPT sign wrong at p={p!r}")
        return [bound]


class CliScan(Workload):
    """One in-process ``concbound scan`` per item. A scan reuses one base
    state and its operators across ~20 evaluations, so an input-keyed
    cache pays off here first."""

    name = "cli-scan"
    prefix = 600
    max_rate = 220.0
    ref_every = 2

    SCANS = (
        ("ghz-noise", "obs2", GHZ_THRESHOLD),
        ("w-noise", "obs2", W_THRESHOLD),
        ("w-noise", "ppt", W_PPT_THRESHOLD),
        ("bell-noise", "wootters", BELL_THRESHOLD),
    )

    def make_inputs(self, seed, n):
        which = (len(self.SCANS) * stratified([seed, 4, 0], n)).astype(int)
        lo = 0.01 + 0.09 * stratified([seed, 4, 1], n)
        hi = 0.6 + 0.4 * stratified([seed, 4, 2], n)
        tol = np.where(stratified([seed, 4, 3], n) < 0.5, 1e-3, 1e-4)
        return [(int(which[i]), f"{lo[i]:.6f}:{hi[i]:.6f}", f"{tol[i]:g}") for i in range(n)]

    def context(self, cb, scratch):
        return {"out": os.path.join(scratch, "scan.csv")}

    def run(self, cb, spec, ctx):
        family, mode, _ = self.SCANS[spec[0]]
        argv = [
            "scan", "--family", family, "--mode", mode, "--p-range", spec[1],
            "--tol", spec[2], "--points", "5", "--out", ctx["out"],
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cb.cli.main(argv)
        return code, buf.getvalue()

    def check(self, cb, spec, result, ctx):
        code, stdout = result
        family, mode, truth = self.SCANS[spec[0]]
        _require(code == 0, f"scan {family}/{mode} exited {code}")
        _require(stdout.startswith("threshold: "), f"unexpected stdout {stdout!r}")
        with open(ctx["out"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(len(lines) == 7 and lines[0] == "p,bound,ppt_min_eig_worst_split", "CSV shape")
        bounds = [float(line.split(",")[1]) for line in lines[1:6]]
        fields = dict(kv.split("=", 1) for kv in lines[6].lstrip("# ").split(" "))
        thr, width = float(fields["threshold"]), float(fields["bracket_width"])
        _require(
            thr - width - SCAN_FIRE_SLACK <= truth <= thr + width,
            f"{family}/{mode}: threshold {truth} outside [{thr - width}, {thr + width}]",
        )
        return bounds


WORKLOADS = {w.name: w for w in (SearchBipartite(), SearchTripartite(), FixedEval(), CliScan())}
