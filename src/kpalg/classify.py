"""Top-level decision procedure for proper pure infiniteness.

Every positive verdict is backed by checkable artifacts: per-vertex
receiving and cycle data computed by two independent routes, an
aperiodicity verdict for the quotient by every hereditary saturated set,
and a verified infiniteness certificate for every vertex in every
admissible quotient. Negative verdicts carry the obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .aperiodicity import AperiodicityVerdict, aperiodicity_check, check_depth
from .field import Field, QQ
from .ideals import QuotientTable, SatHerSet, quotient_table
from .kgraph import KGraph, KGraphError, Path, validate
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
class ClassificationReport:
    verdict: str  # ProperlyPurelyInfinite | NotPurelyInfinite | Inconclusive
    conditions: Tuple[VertexConditions, ...]
    sweep: Tuple[Tuple[SatHerSet, AperiodicityVerdict], ...]
    assumed_aperiodic: bool
    witnesses: Tuple[VertexInfinitenessReport, ...]
    depth: int
    field_name: str
    notes: Tuple[str, ...]


def vertex_conditions(g: KGraph) -> Tuple[VertexConditions, ...]:
    """Receiving and cycle-reaching data, each by its own route."""
    out: List[VertexConditions] = []
    for v in g.vertices:
        receives = len(g.edges_by_range(v)) > 0
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
    g: KGraph, depth: int = 6, quotients: Optional[QuotientTable] = None
) -> Tuple[Tuple[SatHerSet, AperiodicityVerdict], ...]:
    """Aperiodicity verdict for the quotient by every hereditary
    saturated set, the empty quotient included (vacuously aperiodic).
    ``quotients`` is the quotient table to read, built here when absent.
    A separator found at v serves every quotient with the same H & D(v),
    D(v) being the vertices v reaches (aperiodicity's locality across
    quotients); only winners are kept, so a miss is searched again."""
    if quotients is None:
        quotients = quotient_table(g)
    reach = {v: frozenset(reachable_to(g, v)) for v in g.vertices}
    # (v, H & D(v)) -> the separation evidence found at v
    winners: Dict = {}
    out = []
    for h, gq in quotients:
        keys = {v: (v, reach[v].intersection(h)) for v in gq.vertices}
        known = {v: winners[key] for v, key in keys.items() if key in winners}
        verd = aperiodicity_check(gq, depth, known)
        for ev in verd.evidence:
            winners.setdefault(keys[ev.vertex], ev)
        out.append((h, verd))
    return tuple(out)


def _describe(h: SatHerSet) -> str:
    if len(h) == 0:
        return "the graph itself"
    return "the quotient by {%s}" % ", ".join(h)


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
    depth below 1 raises ValueError.
    """
    check_depth(depth)
    rep = validate(g)
    if not rep.ok:
        raise KGraphError("invalid presentation:\n%s" % rep)

    notes: List[str] = []
    conds = vertex_conditions(g)
    _assert_consistent(conds)
    quotients = quotient_table(g)
    sweep = strong_aperiodicity_sweep(g, depth, quotients)

    starved = [c.vertex for c in conds if not c.receives]
    if starved:
        notes.append(
            "vertex %s receives no nontrivial path, so it generates a "
            "finite dimensional ideal; the algebra cannot be purely "
            "infinite" % starved[0]
        )
        return ClassificationReport(
            "NotPurelyInfinite", conds, sweep, False, (), depth, fld.name, tuple(notes)
        )

    periodic = [(h, verd) for h, verd in sweep if verd.status == "periodic"]
    if periodic:
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
        return ClassificationReport(
            "Inconclusive", conds, sweep, False, (), depth, fld.name, tuple(notes)
        )

    unsettled = [h for h, verd in sweep if verd.status == "unknown"]
    assumed = False
    if unsettled:
        if not assume_aperiodic:
            notes.append(
                "aperiodicity of %s is unknown at depth %d; raise the depth "
                "or assert aperiodicity to proceed"
                % (_describe(unsettled[0]), depth)
            )
            return ClassificationReport(
                "Inconclusive", conds, sweep, False, (), depth, fld.name, tuple(notes)
            )
        assumed = True
        notes.append(
            "aperiodicity accepted by assertion for %d quotient(s) the "
            "check could not settle at depth %d" % (len(unsettled), depth)
        )

    gate = next(verd for h, verd in sweep if len(h) == 0)
    witnesses = tuple(
        prove_vertex_properly_infinite(
            g, c.vertex, depth, fld, aperiodicity=gate, quotients=quotients
        )
        for c in conds
    )

    negative = [w for w in witnesses if w.status == "Negative"]
    if negative:
        notes.append("vertex %s: %s" % (negative[0].vertex, negative[0].failure))
        verdict = "NotPurelyInfinite"
    elif all(w.status == "ProperlyInfinite" for w in witnesses):
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
        verdict, conds, sweep, assumed, witnesses, depth, fld.name, tuple(notes)
    )


# -- serialization ----------------------------------------------------------------


def aperiodicity_json(verd: AperiodicityVerdict) -> Dict:
    out: Dict = {"status": verd.status, "depth": verd.depth}
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
    return {
        "format": 2,
        "verdict": rep.verdict,
        "depth": rep.depth,
        "field": rep.field_name,
        "assumed_aperiodic": rep.assumed_aperiodic,
        "conditions": [conditions_json(c) for c in rep.conditions],
        "aperiodicity": [
            dict(ideal=list(h), **aperiodicity_json(verd)) for h, verd in rep.sweep
        ],
        "witnesses": [vertex_report_json(w) for w in rep.witnesses],
        "notes": list(rep.notes),
    }
