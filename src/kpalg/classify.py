"""Top-level decision procedure for proper pure infiniteness.

Every positive verdict is backed by checkable artifacts: per-vertex
receiving and cycle data computed by two independent routes, an
aperiodicity verdict for the quotient by every hereditary saturated set,
each saying whether it is certified or bounded by the search depth, the
one-vertex answers those verdicts are combined from, one per vertex v and
trace H & D(v), and a verified infiniteness certificate for every vertex
in every admissible quotient, one per trace H & D(v) of the ideals.
Negative verdicts carry the obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .aperiodicity import AperiodicityVerdict, aperiodicity_check, check_input, combine_verdicts
from .field import Field, QQ
from .ideals import Ideal, enumerate_sat_her, quotient, traces
from .kgraph import KGraph, KGraphError, Path
from .paths import find_cycle_reaching, reachable_to
from .witness import (
    VertexInfinitenessReport,
    prove_vertex_properly_infinite,
    vertex_report_json,
)


class InternalConsistencyError(RuntimeError):
    """Two computations that must agree did not. Always a bug, never data."""


@dataclass(frozen=True)
class VertexConditions:
    """Receiving and cycle data for one vertex.

    receives: some nontrivial path ends at the vertex (checked on edges
    directly). cycle/via: a cycle at some vertex together with a path
    carrying it to this one, found by depth-first search; None when no
    cycle reaches the vertex at all.
    """

    vertex: str
    receives: bool
    cycle: Optional[Path]
    via: Optional[Path]


@dataclass(frozen=True)
class TraceAnswer:
    """The one-vertex aperiodicity verdict at a vertex for one trace
    T = H & D(v), searched in the quotient by ``ideal`` = closure(T); it
    holds in the quotient by every ideal H avoiding v of that trace."""

    vertex: str
    trace: Ideal
    ideal: Ideal
    verdict: AperiodicityVerdict


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # ProperlyPurelyInfinite | NotPurelyInfinite | Inconclusive
    conditions: Tuple[VertexConditions, ...]
    sweep: Tuple[Tuple[Ideal, AperiodicityVerdict], ...]
    answers: Tuple[TraceAnswer, ...]
    assumed_aperiodic: bool
    witnesses: Tuple[VertexInfinitenessReport, ...]
    depth: int
    field_name: str
    notes: Tuple[str, ...]


def vertex_conditions(g: KGraph) -> Tuple[VertexConditions, ...]:
    """Receiving and cycle-reaching data, each by its own route."""
    out: List[VertexConditions] = []
    for v in g.vertices:
        receives = g.receives(v)
        cyc, via = find_cycle_reaching(g, v) or (None, None)
        out.append(VertexConditions(v, receives, cyc, via))
    return tuple(out)


def _assert_consistent(conds: Tuple[VertexConditions, ...]) -> None:
    # a reaching cycle forces a received edge, and over the whole graph
    # the two conditions are equivalent; disagreement means a bug
    for c in conds:
        if c.cycle is not None and not c.receives:
            raise InternalConsistencyError(
                "vertex %s is reached by a cycle yet receives no edge" % c.vertex
            )
    every_receives = all(c.receives for c in conds)
    every_cycled = all(c.cycle is not None for c in conds)
    if every_receives != every_cycled:
        raise InternalConsistencyError(
            "every vertex receives an edge: %s, every vertex is reached by "
            "a cycle: %s; on a finite graph these must agree"
            % (every_receives, every_cycled)
        )


def strong_aperiodicity_sweep(
    g: KGraph, depth: int = 6
) -> Tuple[Tuple[Tuple[Ideal, AperiodicityVerdict], ...], Tuple[TraceAnswer, ...]]:
    """Aperiodicity verdict for the quotient by every hereditary
    saturated set, the empty quotient included (vacuously aperiodic),
    and the one-vertex answers they are combined from.
    A vertex's answer depends only on (v, T), T = H & D(v) its trace and
    D(v) the vertices v reaches (aperiodicity's locality across
    quotients). ``ideals.traces`` lists the keys, each with closure(T),
    the least ideal of its trace, and an answer is searched in the
    quotient by it (built once and kept on g by ``quotient``, where the
    witness search reads it) when a combine first reads it, and kept:
    each key at most once, none past the first periodic vertex of an
    ideal. A key a combine reads that is not listed raises KeyError. The
    answers come back in the order of the keys, by vertex and then as
    ``traces`` lists them; a trace whose answer no combine read is left out."""
    reach = {v: frozenset(reachable_to(g, v)) for v in g.vertices}
    # (v, H & D(v)) -> closure(H & D(v)); answers keeps the answer at v once read
    home = {(v, reach[v].intersection(h)): h for v in g.vertices for h in traces(g, v)}
    answers: Dict = {}

    def answer(key: Tuple[str, frozenset]) -> AperiodicityVerdict:
        if key not in answers:
            answers[key] = aperiodicity_check(quotient(g, home[key]), depth, (key[0],))
        return answers[key]

    out = []
    for h in enumerate_sat_her(g).sets:
        hs = frozenset(h)
        keys = [(v, reach[v] & hs) for v in g.vertices if v not in hs]
        out.append((h, combine_verdicts(map(answer, keys), depth)))
    return tuple(out), tuple(
        TraceAnswer(v, tuple(sorted(t)), h, answers[v, t])
        for (v, t), h in home.items()
        if (v, t) in answers
    )


def _describe(h: Ideal) -> str:
    if len(h) == 0:
        return "the graph itself"
    return "the quotient by {%s}" % ", ".join(h)


def check_vertices(g: KGraph) -> None:
    """Refuse a presentation with no vertices: a verdict on it is vacuous."""
    if not g.vertices:
        raise KGraphError(
            "the presentation has no vertices; its algebra is zero, and no "
            "verdict on it would rest on anything"
        )


def classify_pure_infiniteness(
    g: KGraph,
    depth: int = 6,
    fld: Field = QQ,
    assume_aperiodic: bool = False,
) -> ClassificationReport:
    """Decide whether the graph algebra over fld is properly purely
    infinite.

    ProperlyPurelyInfinite needs a verified certificate for every vertex
    in every admissible quotient. A vertex receiving no nontrivial path
    is a definitive obstruction (it generates a finite dimensional
    ideal), as is a quotient where no cycle reaches some vertex. A
    certified periodic quotient makes the result Inconclusive even under
    assume_aperiodic: an assumption cannot override a counterexample. A
    depth below 1 raises ValueError and an invalid presentation
    KGraphError (``check_input``), and so does one with no vertices,
    whose verdict would be vacuous.
    """
    check_input(g, depth)
    check_vertices(g)

    notes: List[str] = []
    conds = vertex_conditions(g)
    _assert_consistent(conds)
    sweep, answers = strong_aperiodicity_sweep(g, depth)

    starved = [c.vertex for c in conds if not c.receives]
    periodic = [(h, verd) for h, verd in sweep if verd.status == "periodic"]
    unsettled = [h for h, verd in sweep if verd.status == "unknown"]
    assumed = False
    witnesses: Tuple[VertexInfinitenessReport, ...] = ()
    if starved:
        verdict = "NotPurelyInfinite"
        notes.append(
            "vertex %s receives no nontrivial path, so it generates a "
            "finite dimensional ideal; the algebra cannot be purely "
            "infinite" % starved[0]
        )
    elif periodic:
        verdict = "Inconclusive"
        h, verd = periodic[0]
        msg = "%s is certified periodic" % _describe(h)
        if verd.certificate is not None:
            msg += " (pair %s, %s at %s)" % (
                verd.certificate.alpha,
                verd.certificate.beta,
                verd.certificate.vertex,
            )
        if assume_aperiodic:
            msg += (
                "; the aperiodicity assertion is refused because it "
                "contradicts this certificate"
            )
        notes.append(msg)
    elif unsettled and not assume_aperiodic:
        verdict = "Inconclusive"
        notes.append(
            "aperiodicity of %s is unknown at depth %d; raise the depth "
            "or assert aperiodicity to proceed" % (_describe(unsettled[0]), depth)
        )
    else:
        if unsettled:
            assumed = True
            notes.append(
                "aperiodicity accepted by assertion for %d quotient(s) the "
                "check could not settle at depth %d" % (len(unsettled), depth)
            )
        gate = next(verd for h, verd in sweep if len(h) == 0)
        witnesses = tuple(
            prove_vertex_properly_infinite(g, c.vertex, depth, fld, aperiodicity=gate)
            for c in conds
        )
        # no witness is Negative: a vertex outside a saturated hereditary H
        # keeps, for each color it receives, an edge of that color from
        # outside H, so with no vertex starved every vertex of every quotient
        # receives an edge, and a cycle reaches it
        if all(w.status == "ProperlyInfinite" for w in witnesses):
            bounded = sum(
                verd.status == "aperiodic" and verd.basis == "bounded" for _, verd in sweep
            )
            if bounded:
                notes.append(
                    "aperiodicity of %d of the %d quotient(s) rests on a separator "
                    "search bounded at depth %d, not on a certificate"
                    % (bounded, len(sweep), depth)
                )
            notes.append(
                "every vertex carries a verified infiniteness certificate in "
                "every admissible quotient"
            )
            verdict = "ProperlyPurelyInfinite"
        else:
            stuck = next(w for w in witnesses if w.status != "ProperlyInfinite")
            notes.append("vertex %s: %s" % (stuck.vertex, stuck.failure))
            verdict = "Inconclusive"
    return ClassificationReport(
        verdict, conds, sweep, answers, assumed, witnesses, depth, fld.name, tuple(notes)
    )


# -- serialization ----------------------------------------------------------------


def aperiodicity_json(verd: AperiodicityVerdict) -> Dict:
    out: Dict = {"status": verd.status, "basis": verd.basis, "depth": verd.depth}
    if verd.note:
        out["note"] = verd.note
    if verd.certificate is not None:
        c = verd.certificate
        out["certificate"] = {
            "vertex": c.vertex,
            "alpha": str(c.alpha),
            "beta": str(c.beta),
            "extensions_checked": c.extensions_checked,
            "machine_states": c.machine_states,
        }
    if verd.evidence:
        out["evidence"] = [
            {
                "vertex": e.vertex,
                "separator": str(e.separator),
                "pairs_checked": e.pairs_checked,
            }
            for e in verd.evidence
        ]
    return out


def conditions_json(c: VertexConditions) -> Dict:
    return {
        "vertex": c.vertex,
        "receives": c.receives,
        "cycle": None if c.cycle is None else str(c.cycle),
        "via": None if c.via is None else str(c.via),
    }


def report_json(rep: ClassificationReport) -> Dict:
    """Report format 4. ``aperiodicity`` lists each one-vertex answer the
    sweep searched, once, as ``vertex``, its ``trace`` T = H & D(v), the
    ``ideal`` closure(T) whose quotient it was searched in, and the
    verdict; it holds for every ideal H avoiding the vertex with trace T,
    and an ideal's verdict combines those of its vertices
    (``combine_verdicts``). ``aperiodicity_basis`` reads the per-ideal
    verdicts; ``witnesses`` lists each vertex's cases by the same traces
    (``vertex_report_json``)."""
    certified = all(verd.basis == "certified" for _, verd in rep.sweep)
    return {
        "format": 4,
        "verdict": rep.verdict,
        "depth": rep.depth,
        "field": rep.field_name,
        "assumed_aperiodic": rep.assumed_aperiodic,
        "aperiodicity_basis": "certified" if certified else "bounded",
        "conditions": [conditions_json(c) for c in rep.conditions],
        "aperiodicity": [
            dict(
                vertex=a.vertex,
                trace=list(a.trace),
                ideal=list(a.ideal),
                **aperiodicity_json(a.verdict),
            )
            for a in rep.answers
        ],
        "witnesses": [vertex_report_json(w) for w in rep.witnesses],
        "notes": list(rep.notes),
    }
