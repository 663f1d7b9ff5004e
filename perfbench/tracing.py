"""Per-layer timing from outside the program.

``Tracer.install`` replaces public functions of ``kpalg`` with wrappers, in
every ``kpalg`` module that holds a reference to them, and methods on their
classes. Hot kernels are aggregated (calls, self time, inclusive time); a
few coarse boundaries also record one span per call. Spans stay in memory
until the run writes them out. ``restore`` puts every original back.

Self time is a call's duration minus the time of the wrapped calls and
spans nested inside it, so the self times of all wrappers and spans add
up to the traced time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional, Tuple

from gen import WORKLOADS


class Wrapped(NamedTuple):
    """One wrapper. ``attr`` of the form ``Class.method`` is patched on the
    class, anything else in every kpalg module that imported it. A traced
    run fails when the wrapper records no call on a workload in
    ``fires_on``. ``report`` names the per-layer metrics made from it,
    ``<name>.calls`` and ``<name>.self_s``; a self time is reported only
    when the wrapper fires on every workload, since elsewhere it would read
    exactly 0. An untimed wrapper only counts calls, reported as ``<name>``.
    """

    name: str
    module: str
    attr: str
    span: Optional[str]
    fires_on: Tuple[str, ...]
    report: Tuple[str, ...]
    timed: bool = True


ALL = WORKLOADS
# the workloads whose graphs are aperiodic, so witnesses are built
WITNESSED = ("sweep", "lattice")
BOTH = ("calls", "self_s")

TIMED: Tuple[Wrapped, ...] = (
    Wrapped("kgraph.compose", "kgraph", "KGraph.compose", None, ALL, BOTH),
    Wrapped("kgraph.factorize", "kgraph", "KGraph.factorize", None, ALL, BOTH),
    Wrapped("kgraph.mce", "kgraph", "KGraph.mce", None, WITNESSED, ("calls",)),
    Wrapped("kgraph.boundary_paths", "kgraph", "KGraph.boundary_paths", None, ALL, BOTH),
    Wrapped("kgraph.paths", "kgraph", "KGraph.paths", None, ALL, ("calls",)),
    Wrapped("kgraph.parse", "kgraph", "parse_kgraph", "parse", ALL, ("self_s",)),
    Wrapped("kgraph.validate", "kgraph", "validate", "validate", ALL, ("self_s",)),
    # constructions are too frequent and too short to time
    Wrapped("kgraph.path_objects", "kgraph", "Path.__post_init__", None, ALL, ("calls",),
            timed=False),
    Wrapped("aperiodicity.check", "aperiodicity", "aperiodicity_check", "sweep", ALL, BOTH),
    Wrapped("aperiodicity.separates", "aperiodicity", "separates", None, ALL, BOTH),
    Wrapped("aperiodicity.certify", "aperiodicity", "certify_never_separated", None,
            ("periodic",), ("calls",)),
    Wrapped("ideals.enumerate", "ideals", "enumerate_sat_her", None, ALL, BOTH),
    Wrapped("ideals.quotient", "ideals", "quotient", None, ALL, BOTH),
    Wrapped("kpelement.kp_mul", "kpelement", "kp_mul", None, WITNESSED, ("calls",)),
    Wrapped("kpelement.normal_form", "kpelement", "normal_form", None, WITNESSED, ("calls",)),
    Wrapped("kpelement.equals", "kpelement", "equals", None, WITNESSED, ("calls",)),
    Wrapped("witness.prove_vertex", "witness", "prove_vertex_properly_infinite", "witness",
            WITNESSED, ("calls",)),
    Wrapped("witness.failing_checks", "witness", "failing_checks", None, WITNESSED,
            ("calls",)),
    # the generalized-cycle route: no workload takes it, so it reports
    # nothing; should a change make it run, its calls show in the summary
    # and the trace file
    Wrapped("paths.find_reaching_gen_cycle", "paths", "find_reaching_gen_cycle", None,
            (), ()),
    Wrapped("paths.is_generalized_cycle", "paths", "is_generalized_cycle", None, (), ()),
    Wrapped("paths.find_cycle_reaching", "paths", "find_cycle_reaching", None, ALL, BOTH),
    Wrapped("paths.reachable_to", "paths", "reachable_to", None, ALL, ("calls",)),
    Wrapped("classify.conditions", "classify", "vertex_conditions", "conditions", ALL,
            ("self_s",)),
    # reported by its inclusive time, as classify.sweep_s
    Wrapped("classify.sweep", "classify", "strong_aperiodicity_sweep", None, ALL, ()),
    Wrapped("classify.report_json", "classify", "report_json", None, ALL, ("self_s",)),
    Wrapped("expr.format_element", "expr", "format_element", None, WITNESSED, ("calls",)),
)

for _w in TIMED:
    if "self_s" in _w.report and _w.fires_on != ALL:
        raise ValueError("%s: a self time needs a wrapper firing everywhere" % _w.name)


def expected(workload: str) -> List[str]:
    """Wrappers that must record calls on the workload."""
    return [w.name for w in TIMED if workload in w.fires_on]


def reported(tracer: "Tracer") -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics made directly from wrapper counts and times."""
    out: Dict[str, Tuple[float, str]] = {}
    for w in TIMED:
        if "calls" in w.report:
            out[w.name + ".calls" if w.timed else w.name] = (tracer.calls[w.name], "count")
        if "self_s" in w.report:
            out[w.name + ".self_s"] = (tracer.self_s[w.name], "s")
    return out


clock = time.perf_counter

# Span: (id, parent id, name, label, start, end); label names the case
Span = Tuple[int, int, str, str, float, float]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        # values summed from results: separates hits, machine states, terms
        self.totals: Counter = Counter()
        self.spans: List[Span] = []
        self.label = ""
        # one frame per open wrapped call: [time of nested calls, span id]
        self._stack: List[list] = [[0.0, -1]]
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1][1], name, self.label, clock(), 0.0))
        return sid

    def _close(self, sid: int) -> None:
        s = self.spans[sid]
        self.spans[sid] = s[:5] + (clock(),)

    def timed(self, name: str, fn, span: Optional[str] = None, on_result=None):
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        stack = self._stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0, self._open(span) if span else stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                incl_s[name] += dt
                stack[-1][0] += dt
                if span:
                    self._close(frame[1])
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, label: Optional[str] = None):
        """A span around the benchmark's own code (case, report, audit)."""
        if label is not None:
            self.label = label
        frame = [0.0, self._open(name)]
        self._stack.append(frame)
        t0 = clock()
        try:
            yield
        finally:
            dt = clock() - t0
            self._stack.pop()
            self.self_s[name] += dt - frame[0]
            self.incl_s[name] += dt
            self._stack[-1][0] += dt
            self._close(frame[1])

    # -- patching --------------------------------------------------------------

    def _on_result(self, name: str):
        totals = self.totals
        if name == "aperiodicity.separates":
            def hit(out):
                totals["aperiodicity.separates.true"] += bool(out)
            return hit
        if name == "aperiodicity.certify":
            def states(out):
                totals["aperiodicity.certify.states"] += out or 0
            return states
        if name == "kpelement.kp_mul":
            def terms(out):
                totals["kpelement.kp_mul.terms_out"] += len(out.terms)
            return terms
        return None

    def _patch(self, package: str, module: str, attr: str, make) -> None:
        mod = sys.modules["%s.%s" % (package, module)]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        holders = [
            (m, k)
            for mname, m in list(sys.modules.items())
            if mname == package or mname.startswith(package + ".")
            for k, v in list(vars(m).items())
            if v is orig
        ]
        for m, k in holders:
            self._undo.append((m, k, orig))
            setattr(m, k, wrapper)

    def install(self, package: str = "kpalg") -> None:
        for w in TIMED:
            if w.timed:
                make = lambda fn, w=w: self.timed(w.name, fn, w.span, self._on_result(w.name))
            else:
                make = lambda fn, w=w: self.counted(w.name, fn)
            self._patch(package, w.module, w.attr, make)

    def restore(self) -> None:
        while self._undo:
            obj, k, orig = self._undo.pop()
            setattr(obj, k, orig)
