"""Time to a verified verdict for kpalg.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. One run is one process on one workload. It
imports ``kpalg`` from ``src/``, generates the workload's ``kgraph v1``
texts from the seed (``gen.py``), and then repeats a verdict pass and an
audit pass until ``--seconds`` is spent (at least twice):

- verdict pass, timed as ``verdict_s``: for every case, parse the text,
  ``classify_pure_infiniteness``, ``report_json`` and ``json.dumps`` as
  ``kpalg classify --json`` does;
- audit pass, timed as ``audit_s``: re-verify every certificate and
  separator the verdict pass emitted (``audit.py``).

Each case verdict and each audited certificate or separator is one
operation; a wrong verdict, an exception or a failed check makes it fail.

With ``--trace 1`` the run makes one untraced and one traced verdict pass
instead and reports per-layer counts and self times (``tracing.py``), and
writes the spans to ``perfbench/out/``. The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary. The metric names
and units must be those listed in ``BENCHMARK.json``, or the run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import typing
from contextlib import nullcontext
from pathlib import Path

import audit
import gen
import tracing
from speed import REFERENCE_S, Speed, clock, unsampled
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / "perfbench" / "out"
# Set-up is rescaled by the loop samples taken inside it. 25 set-ups hold
# 50-100 of them; 9 held 20-36, and a few slow samples then once scaled
# the set-up time down to a third of the measured one.
SETUP_REPS = 25
MIN_ITERATIONS = 2
AUDIT_MIN_S = 1.0


class BenchmarkError(RuntimeError):
    """The benchmark itself is broken; no result is printed."""


def import_kpalg():
    """A fresh import of kpalg from the checkout's src/."""
    for name in [m for m in sys.modules if m == "kpalg" or m.startswith("kpalg.")]:
        del sys.modules[name]
    kp = importlib.import_module("kpalg")
    if Path(kp.__file__).resolve().parent != ROOT / "src" / "kpalg":
        raise BenchmarkError("kpalg was imported from %s, not src/" % kp.__file__)
    return kp


def forget_imports() -> None:
    """Free the kpalg modules that a fresh import replaced. typing's caches
    hold their classes, and through them the modules: without this each
    set-up left about 0.5 MiB alive, and 25 of them raised peak_rss_mb by
    8 MiB."""
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def setup(workload: str, seed: int, speed):
    """Import kpalg, generate the texts and parse them, SETUP_REPS times;
    returns one timed section per repetition and the objects of the last."""
    secs = []
    for _ in range(SETUP_REPS):
        with speed.section() as sec:
            kp = import_kpalg()
            cases = gen.workload_cases(workload, seed)
            graphs = [kp.parse_kgraph(c.text) for c in cases]
        secs.append(sec)
        forget_imports()
    for c, g in zip(cases, graphs):
        rep = kp.validate(g)
        if not rep.ok:
            raise BenchmarkError("generated case %s is invalid:\n%s" % (c.name, rep))
    return secs, kp, cases


def _span(tracer, name, label=None):
    return nullcontext() if tracer is None else tracer.span(name, label)


def verdict_pass(kp, cases, section, tracer=None):
    """Returns one timed section per case and, per case, (graph, report)
    or the exception that stopped it."""
    out, secs = [], []
    for c in cases:
        gc.collect()
        with section() as sec, _span(tracer, "case", c.name):
            try:
                g = kp.parse_kgraph(c.text)
                rep = kp.classify_pure_infiniteness(g, c.depth)
                with _span(tracer, "report"):
                    json.dumps(kp.report_json(rep), indent=2)
                out.append((g, rep))
            except Exception as exc:  # a crash on the verdict path is a failed case
                out.append(exc)
        secs.append(sec)
    return secs, out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def verdicts(self, cases, results) -> None:
        for c, r in zip(cases, results):
            self.attempted += 1
            if isinstance(r, Exception):
                self.failures.append("%s: %s: %s" % (c.name, type(r).__name__, r))
            else:
                fails = audit.case_failures(c, *r)
                if fails:
                    self.failures.append("%s: %s" % (c.name, "; ".join(fails)))

    def audit(self, kp, cases, results, section):
        """Audit every report, repeating the whole audit until the section
        has lasted AUDIT_MIN_S so that short audits time steadily; returns
        the section, holding the time of one audit."""
        gc.collect()
        reps = 0
        with section() as sec:
            t0 = clock()
            while reps == 0 or clock() - t0 < AUDIT_MIN_S:
                ops, fails = 0, []
                for c, r in zip(cases, results):
                    if isinstance(r, Exception):
                        continue
                    try:
                        n, f = audit.audit(kp, c, r[1])
                    except Exception as exc:  # the audit could not finish: count one failure
                        n, f = 1, ["%s: audit raised %s: %s" % (c.name, type(exc).__name__, exc)]
                    ops += n
                    fails += f
                reps += 1
        self.attempted += ops
        self.failures += fails
        sec.elapsed /= reps
        return sec


def self_test(kp) -> None:
    """The checks must count a wrong expected verdict, a corrupted
    certificate, a separator that is no boundary path and one that does
    not split a pair as failed."""
    case = gen.Case(
        "self-test", gen.render(gen.bouquet_product((2,)), random.Random(0)), 2,
        "ProperlyPurelyInfinite", 2, False, "")
    g = kp.parse_kgraph(case.text)
    rep = kp.classify_pure_infiniteness(g, case.depth)
    if audit.case_failures(case, g, rep) or audit.audit(kp, case, rep)[1]:
        raise BenchmarkError("self-test: a correct report was refused")
    wrong = dataclasses.replace(case, verdict="NotPurelyInfinite")
    if not audit.case_failures(wrong, g, rep):
        raise BenchmarkError("self-test: a wrong expected verdict was accepted")

    w = rep.witnesses[0]
    cert = w.cases[0].certificate
    (name, part), rest = cert.parts[0], cert.parts[1:]
    bad_cert = dataclasses.replace(cert, parts=((name, part + part),) + rest)
    bad_w = dataclasses.replace(
        w, cases=(dataclasses.replace(w.cases[0], certificate=bad_cert),) + w.cases[1:])
    bad = dataclasses.replace(rep, witnesses=(bad_w,) + rep.witnesses[1:])
    if not audit.audit(kp, case, bad)[1]:
        raise BenchmarkError("self-test: a corrupted certificate was accepted")

    # A trivial separator is no boundary path. The boundary path e^(depth+1)
    # repeating one loop e does not split the pair (v, e): both composites
    # start with e^(depth+1).
    h, verd = rep.sweep[0]
    ev = verd.evidence[0]
    loop = g.edges_by_range(ev.vertex)[0].id
    for x, what in (
        (g.trivial_path(ev.vertex), "is not a boundary path"),
        (g.path_from_edges([loop] * (case.depth + 1)), "does not split"),
    ):
        bad_ev = dataclasses.replace(ev, separator=x)
        bad_verd = dataclasses.replace(verd, evidence=(bad_ev,) + verd.evidence[1:])
        bad = dataclasses.replace(rep, sweep=((h, bad_verd),) + rep.sweep[1:])
        fails = audit.audit(kp, case, bad)[1]
        if not any(what in f for f in fails):
            raise BenchmarkError("self-test: a separator that %s was accepted" % what)


def _median(name, measured, reported):
    lo, _, hi = statistics.quantiles(reported, n=4)
    print("%-9s reported median %.4f s, quartiles %.4f-%.4f, n=%d; measured median %.4f s" % (
        name, statistics.median(reported), lo, hi, len(reported), statistics.median(measured)))
    return statistics.median(reported)


def timed_run(kp, cases, seconds: float, speed, setup_secs):
    tally = Tally()
    verdict, audits = [], []
    start = clock()
    while True:
        secs, results = verdict_pass(kp, cases, speed.section)
        tally.verdicts(cases, results)
        audits.append([tally.audit(kp, cases, results, speed.section)])
        verdict.append(secs)
        spent, n = clock() - start, len(verdict)
        if n >= MIN_ITERATIONS and spent + spent / n > seconds:
            break
    terms = sum(audit.evidence_terms(r[1]) for r in results if not isinstance(r, Exception))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for name, passes in (("verdict_s", verdict), ("audit_s", audits)):
        measured = [sum(sec.elapsed for sec in p) for p in passes]
        metrics[name] = (_median(name, measured, [speed.reported(p) for p in passes]), "s")
    # one repetition of the set-up is too short to hold enough loop
    # samples, so all of them are rescaled by the loop times seen in set-up
    measured = [sec.elapsed for sec in setup_secs]
    f = speed.factor([x for sec in setup_secs for x in sec.samples])
    metrics["setup_s"] = (_median("setup_s", measured, [x * f for x in measured]), "s")
    metrics["peak_rss_mb"] = (rss, "MiB")
    metrics["cert_terms"] = (terms, "count")
    return tally, metrics


def traced_run(kp, cases, workload: str, seed: int):
    tally = Tally()
    secs, results = verdict_pass(kp, cases, unsampled)
    plain_s = sum(sec.elapsed for sec in secs)
    tally.verdicts(cases, results)

    tracer = Tracer()
    tracer.install()
    try:
        secs, results = verdict_pass(kp, cases, unsampled, tracer)
    finally:
        tracer.restore()
    traced_s = sum(sec.elapsed for sec in secs)
    tally.verdicts(cases, results)
    with tracer.span("audit", "audit"):
        tally.audit(kp, cases, results, unsampled)

    silent = sorted(n for n in tracing.expected(workload) if not tracer.calls[n])
    if silent:
        raise BenchmarkError("wrappers recorded no calls on %s: %s" % (workload, ", ".join(silent)))

    reports = [r[1] for r in results if not isinstance(r, Exception)]
    calls, totals = tracer.calls, tracer.totals
    certs = sum(len(w.cases) + (w.proper is not None) for rep in reports for w in rep.witnesses)
    metrics = tracing.reported(tracer)
    metrics.update({
        "aperiodicity.separates.hit_ratio": (
            totals["aperiodicity.separates.true"] / max(calls["aperiodicity.separates"], 1),
            "ratio"),
        "aperiodicity.certify.states": (totals["aperiodicity.certify.states"], "count"),
        "ideals.lattice_size": (sum(len(rep.sweep) for rep in reports), "count"),
        "kpelement.kp_mul.terms_out": (totals["kpelement.kp_mul.terms_out"], "count"),
        "witness.certificates": (certs, "count"),
        "witness.checks_per_cert": (calls["witness.failing_checks"] / max(certs, 1), "ratio"),
        "classify.sweep_s": (tracer.incl_s["classify.sweep"], "s"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    })

    names = sorted(set(tracer.calls) | set(tracer.self_s))
    print("%-34s %10s %10s %10s" % ("wrapper", "calls", "self_s", "incl_s"))
    for n in names:
        print("%-34s %10d %10.4f %10.4f" % (n, calls[n], tracer.self_s[n], tracer.incl_s[n]))
    print("verdict_s untraced %.4f traced %.4f" % (plain_s, traced_s))
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("trace-%s-%d.json" % (workload, seed)), "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "spans": [
                dict(zip(("id", "parent", "name", "case", "start", "end"), s))
                for s in tracer.spans
            ],
            "wrappers": {
                n: {"calls": calls[n], "self_s": tracer.self_s[n], "incl_s": tracer.incl_s[n]}
                for n in names
            },
            "totals": dict(totals),
        }, fh, indent=1)
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    speed = Speed()
    speed.calibrate()
    setup_secs, kp, cases = setup(args.workload, args.seed, speed)
    for c in cases:
        print("case %s: depth %d, expect %s with %d ideals: %s" % (
            c.name, c.depth, c.verdict, c.ideals, c.reason))
    self_test(kp)
    if args.trace:
        tally, metrics = traced_run(kp, cases, args.workload, args.seed)
    else:
        tally, metrics = timed_run(kp, cases, args.seconds, speed, setup_secs)
    print("speed loop: mean %.4f ms over %d samples, reference %.4f ms" % (
        statistics.fmean(speed.samples) * 1e3, len(speed.samples), REFERENCE_S * 1e3))

    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    want = {(m["name"], m["unit"]) for m in spec}
    got = {(n, u) for n, (_, u) in metrics.items()}
    if got != want:
        raise BenchmarkError("metrics differ from %s: %s" % (SPEC.name, sorted(got ^ want)))

    for f in tally.failures:
        print("FAILED %s" % f)
    failed = len(tally.failures)
    print("workload %s seed %d: %d operations, %d failed, wrong_share %.4f" % (
        args.workload, args.seed, tally.attempted, failed, failed / tally.attempted))
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
