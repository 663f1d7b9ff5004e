"""Hereditary and saturated vertex sets, their lattice, and quotient graphs.

These vertex sets index the graded ideals of the path algebra; the quotient
graph realizes the quotient algebra on the k-graph side. Such a set is
passed around as the sorted tuple of its vertex ids; ``quotient`` refuses a
set that is not hereditary and saturated, read off the graph it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .kgraph import KGraph, KGraphError
from .paths import reachable_to

# a saturated hereditary set: its vertex ids, sorted
Ideal = Tuple[str, ...]
Above = Dict[FrozenSet[str], Set[FrozenSet[str]]]


def _close(g: KGraph, closed: FrozenSet[str], start: Iterable[str]) -> Set[str]:
    # close(closed + start) for a closed set, grown from it in one walk over
    # the vertices that join: a vertex joining h brings the sources of its
    # in-edges (heredity), and each range w of its out-edges once every
    # in-edge of w of that color starts in h (saturation); ``missing``
    # counts, for each (w, color) met, the in-edges whose source has not
    # joined yet, starting from those whose source lies outside ``closed``
    by_range, edges = g._by_range, g.edges
    h = set(closed)
    missing: Dict[Tuple[str, int], int] = {}
    work = list(start)
    while work:
        v = work.pop()
        if v in h:
            continue
        h.add(v)
        for c in range(1, g.k + 1):
            for i in by_range.get((v, c), ()):
                if edges[i].source not in h:
                    work.append(edges[i].source)
        for i in g._by_source.get(v, ()):
            e = edges[i]
            if e.range in h:
                continue
            key = (e.range, e.color)
            left = missing.get(key)
            if left is None:
                left = sum(edges[j].source not in closed for j in by_range[key])
            missing[key] = left = left - 1
            if not left:
                work.append(e.range)
    return h


def _known(g: KGraph, vertices: Iterable[str]) -> List[str]:
    vs = list(vertices)
    for v in vs:
        if not g.has_vertex(v):
            raise KGraphError("unknown vertex %r" % v)
    return vs


def sat_her_closure(g: KGraph, vertices: Iterable[str]) -> Ideal:
    """Smallest saturated hereditary set containing the given vertices."""
    return tuple(sorted(_close(g, frozenset(), _known(g, vertices))))


def _walk(g: KGraph, among: Collection[str], avoid: Optional[str] = None) -> Above:
    """Each closure reached from the empty set by closing one-vertex
    augmentations from ``among``, leaving out any that holds ``avoid``,
    mapped to the closures one step above it, in lattice order. Each
    close(h + u) grows from the closed set h, walking only what joins."""
    above: Above = {}
    work = [frozenset()]
    while work:
        h = work.pop()
        if h in above:
            continue
        bigger = (frozenset(_close(g, h, (u,))) for u in among if u not in h)
        above[h] = {b for b in bigger if avoid not in b}
        work.extend(above[h])
    return {h: above[h] for h in sorted(above, key=lambda s: (len(s), sorted(s)))}


@dataclass(frozen=True)
class IdealLattice:
    """All saturated hereditary sets, ordered by inclusion.

    ``covers`` lists index pairs (i, j) with sets[i] covered by sets[j].
    """

    sets: Tuple[Ideal, ...]
    covers: Tuple[Tuple[int, int], ...]


def enumerate_sat_her(g: KGraph) -> IdealLattice:
    """Materialize the lattice by closing single-vertex augmentations.

    Every saturated hereditary set above h contains close(h + v) for each
    of its vertices v outside h, so the sets covering h are the minimal
    ones among those closures.
    """
    above = _walk(g, g.vertices)
    index = {h: i for i, h in enumerate(above)}
    covers = sorted(
        (index[h], index[c])
        for h, bigger in above.items()
        for c in bigger
        if not any(b < c for b in bigger)
    )
    return IdealLattice(tuple(tuple(sorted(h)) for h in above), tuple(covers))


def traces(g: KGraph, v: str) -> Tuple[Ideal, ...]:
    """closure(T) for each trace T = H & D(v) of the ideals H avoiding v,
    in lattice order: the fixed points avoiding v of closure(T) & D(v)
    (``aperiodicity.py`` docstring), found by ``_walk`` inside D(v), the
    key set of ``paths.reachable_to(g, v)``, kept on g.

    An ideal holding u holds D(u), so the walk skips every u with v in
    D(u): the u that v reaches along edges, from source to range. Each
    vertex on such a way reaches v too, so the search stays inside D(v).
    """
    _known(g, [v])
    reach = reachable_to(g, v)
    ahead = {v}
    work = [v]
    while work:
        for i in g._by_source.get(work.pop(), ()):
            u = g.edges[i].range
            if u in reach and u not in ahead:
                ahead.add(u)
                work.append(u)
    among = [u for u in reach if u not in ahead]
    return tuple(tuple(sorted(h)) for h in _walk(g, among, v))


def quotient(g: KGraph, h: Ideal) -> KGraph:
    """The k-graph on the vertices outside h, with paths avoiding h.

    Only edges whose source survives are kept, and every square either
    survives whole or loses its shared source. The quotient by the empty
    set is g itself. Unknown names are refused, and so is h when a kept
    edge has its range in h (not hereditary) or a vertex left loses every
    edge of a color it received (not saturated).

    The quotient is built once and kept on g, so every caller, the sweep
    and the witness search included, reads one object per ideal, with its
    path caches. It takes g's kept ``validate`` report when that report
    is ok: the quotient keeps exactly the edges of g whose source lies
    outside h, so each of its squares, hexagons and local-convexity
    conditions is one of g's.
    """
    _known(g, h)
    if len(h) == 0:
        return g
    hs = frozenset(h)
    kept = g._quotients.get(hs)
    if kept is not None:
        return kept
    vertices = [v for v in g.vertices if v not in hs]
    keep = {
        eid for eid, e in g.edges.items() if e.source not in hs
    }
    edges = [g.edges[eid] for eid in sorted(keep)]
    squares = [
        (e, f, fp, ep)
        for (e, f), (fp, ep) in sorted(g.square_fwd.items())
        if e in keep and f in keep and fp in keep and ep in keep
    ]
    gq = KGraph(g.k, vertices, edges, squares)
    if any(e.range in hs for e in edges) or any(
        key[0] not in hs and key not in gq._by_range for key in g._by_range
    ):
        raise KGraphError(
            "{%s} is not hereditary and saturated; its closure is {%s}"
            % (", ".join(sorted(hs)), ", ".join(sat_her_closure(g, h)))
        )
    if g._validation is not None and g._validation.ok:
        gq._validation = g._validation
    return g._quotients.setdefault(hs, gq)
