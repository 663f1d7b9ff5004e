"""Hereditary and saturated vertex sets, their lattice, and quotient graphs.

These vertex sets index the graded ideals of the path algebra; the quotient
graph realizes the quotient algebra on the k-graph side. Such a set is
passed around as the sorted tuple of its vertex ids; ``quotient`` refuses a
set that is not its own closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from .kgraph import KGraph, KGraphError
from .paths import reachable_to

# a saturated hereditary set: its vertex ids, sorted
Ideal = Tuple[str, ...]


def _close(g: KGraph, start: Set[str]) -> Set[str]:
    h = set(start)
    changed = True
    while changed:
        changed = False
        for eid in g.edges:
            e = g.edges[eid]
            if e.range in h and e.source not in h:
                h.add(e.source)
                changed = True
        for v in g.vertices:
            if v in h:
                continue
            for c in range(1, g.k + 1):
                ins = g.edges_by_range(v, c)
                # saturation: a vertex all of whose color-c feeders lie in h
                # is forced into h
                if ins and all(e.source in h for e in ins):
                    h.add(v)
                    changed = True
                    break
    return h


def sat_her_closure(g: KGraph, vertices: Iterable[str]) -> Ideal:
    """Smallest saturated hereditary set containing the given vertices."""
    vs = list(vertices)
    for v in vs:
        if not g.has_vertex(v):
            raise KGraphError("unknown vertex %r" % v)
    return tuple(sorted(_close(g, set(vs))))


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
    above: Dict[FrozenSet[str], Set[FrozenSet[str]]] = {}
    work = [frozenset()]
    while work:
        h = work.pop()
        if h in above:
            continue
        above[h] = {
            frozenset(_close(g, set(h) | {v})) for v in g.vertices if v not in h
        }
        work.extend(above[h])
    order = sorted(above, key=lambda s: (len(s), tuple(sorted(s))))
    index = {h: i for i, h in enumerate(order)}
    covers = sorted(
        (index[h], index[c])
        for h, bigger in above.items()
        for c in bigger
        if not any(b < c for b in bigger)
    )
    sets = tuple(tuple(sorted(h)) for h in order)
    return IdealLattice(sets, tuple(covers))


def traces(g: KGraph, v: str) -> Tuple[Ideal, ...]:
    """closure(T) for each trace T = H & D(v) of the ideals H avoiding v,
    in lattice order: the fixed points avoiding v of closure(T) & D(v)
    (``aperiodicity.py`` docstring), found by closing one-vertex
    augmentations inside D(v) as ``enumerate_sat_her`` does."""
    if not g.has_vertex(v):
        raise KGraphError("unknown vertex %r" % v)
    reach = frozenset(reachable_to(g, v))
    found: Set[FrozenSet[str]] = set()
    work = [frozenset()]
    while work:
        h = work.pop()
        if h in found:
            continue
        found.add(h)
        for u in reach.difference(h, (v,)):
            big = frozenset(_close(g, h | {u}))
            if v not in big:
                work.append(big)
    sets = (tuple(sorted(h)) for h in found)
    return tuple(sorted(sets, key=lambda h: (len(h), h)))


def quotient(g: KGraph, h: Ideal, *, _closed: bool = False) -> KGraph:
    """The k-graph on the vertices outside h, with paths avoiding h.

    Only edges whose source survives are kept; heredity guarantees their
    ranges survive too, and every square either survives whole or loses its
    shared source. The quotient by the empty set is g itself. A set that
    is not its own closure is refused; ``_closed`` skips that check, for
    the closures the sweep and the witness search take from
    ``enumerate_sat_her`` and ``traces``.
    """
    if len(h) == 0:
        return g
    hs = set(h)
    if not _closed and set(sat_her_closure(g, h)) != hs:
        raise KGraphError("vertex set %r is not saturated hereditary" % sorted(hs))
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
    return KGraph(g.k, vertices, edges, squares)
