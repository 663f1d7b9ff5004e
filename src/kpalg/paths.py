"""Cylinder containment, generalized cycles, entrances.

A generalized cycle is a pair (mu, nu) of distinct paths with common source
and range such that every extension of mu stays compatible with nu; an
entrance is an extension of nu incompatible with mu. These pairs drive the
infiniteness witnesses: the contained cylinder is strictly smaller exactly
when an entrance exists, so a ``GeneralizedCycle`` always carries one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .degrees import Degree, join, sub
from .kgraph import KGraph, KGraphError, Path


@dataclass(frozen=True)
class NotFoundUpTo:
    """Negative search result: nothing found within the depth budget.

    This is a semi-decision outcome, not a proof of absence.
    """

    depth: int
    detail: str = ""

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class GeneralizedCycle:
    """Pair (mu, nu) with Z(mu) contained in Z(nu), and its entrance.

    The entrance tau extends nu with MCE(mu, nu tau) empty, so the
    containment is strict.
    """

    mu: Path
    nu: Path
    entrance: Path


@dataclass(frozen=True)
class ReachingCycle:
    """A generalized cycle with entrance plus a path from its source to the
    query vertex."""

    cycle: GeneralizedCycle
    gamma: Path


def is_generalized_cycle(g: KGraph, mu: Path, nu: Path) -> bool:
    """Decide whether (mu, nu) is a generalized cycle, stopping at the
    first boundary extension of mu that escapes nu."""
    if mu == nu:
        raise KGraphError("generalized cycle needs distinct paths")
    if mu.source != nu.source or mu.range != nu.range:
        raise KGraphError(
            "generalized cycle needs common source and range, got "
            "s=%s/%s r=%s/%s" % (mu.source, nu.source, mu.range, nu.range)
        )
    # Z(mu) lies in Z(nu) iff every boundary extension of mu up to the
    # degree slack stays compatible with nu
    taus = g.iter_boundary_paths(mu.source, sub(join(mu.degree, nu.degree), mu.degree))
    return all(g.mce(g.compose(mu, tau), nu) for tau in taus)


def _degrees_with_total(k: int, t: int) -> Iterator[Degree]:
    # lexicographic enumeration of nonnegative vectors with given sum
    for vec in itertools.product(range(t + 1), repeat=k):
        if sum(vec) == t:
            yield vec


def reachable_to(g: KGraph, v: str) -> Dict[str, Path]:
    """For each vertex w reaching v, a shortest path in vLambda w.

    Breadth-first over in-edges; deterministic by edge-id order. The
    answer is kept on the graph; callers must not change the dict.
    """
    cached = g._reach.get(v)
    if cached is not None:
        return cached
    out: Dict[str, Path] = {v: g.trivial_path(v)}
    frontier = [v]
    while frontier:
        nxt: List[str] = []
        for w in frontier:
            gamma = out[w]
            for e in g.edges_by_range(w):
                if e.source not in out:
                    out[e.source] = g.compose(gamma, g.path_from_edges([e.id]))
                    nxt.append(e.source)
        frontier = nxt
    g._reach[v] = out
    return out


def find_cycle_reaching(
    g: KGraph, v: str
) -> Optional[Tuple[Path, Path]]:
    """A nontrivial closed path at some w, plus a connecting path in
    vLambda w, if any cycle reaches v.

    Only vertices reaching v matter, and a closed walk through one of them
    stays among them, so this is a cycle hunt in the edge digraph induced
    on the reachable set; a simple cycle there uses at most as many edges
    as that set has vertices. Returns None when the induced digraph is
    acyclic, which decides the question outright.
    """
    reach = reachable_to(g, v)
    verts = sorted(reach)
    arcs: Dict[str, List] = {}
    for u in verts:
        arcs[u] = [e for e in g.edges_by_range(u) if e.source in reach]
    state = {u: 0 for u in verts}
    for root in verts:
        if state[root]:
            continue
        stack = [(root, iter(arcs[root]))]
        trail: List = []
        state[root] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for e in it:
                w = e.source
                if state[w] == 1:
                    idx = [node for node, _ in stack].index(w)
                    cyc = [t.id for t in trail[idx:]] + [e.id]
                    return g.path_from_edges(cyc), reach[w]
                if state[w] == 0:
                    state[w] = 1
                    trail.append(e)
                    stack.append((w, iter(arcs[w])))
                    advanced = True
                    break
            if not advanced:
                state[u] = 2
                stack.pop()
                if trail:
                    trail.pop()
    return None


def find_reaching_gen_cycle(
    g: KGraph, v: str, depth: int
) -> Union[ReachingCycle, NotFoundUpTo]:
    """Find a generalized cycle with an entrance whose source reaches v.

    Candidate pairs have both legs nontrivial and are enumerated by total
    degree, then degree pair, then range vertex, then edge words; the
    entrance of a generalized cycle is the first tau extending nu with
    MCE(mu, nu tau) empty, by total degree (at most the depth), then
    degree, then word. So the certificate for a fixed graph and depth is
    reproducible.
    """
    reach = reachable_to(g, v)
    tau_degrees = [n for t in range(1, depth + 1) for n in _degrees_with_total(g.k, t)]
    cycles_without_entrance = 0
    for s_total in range(2, 2 * depth + 1):
        # the sorted degree pairs (d(mu), d(nu)) of total s_total, each
        # leg's total in [1, depth]
        legs = sorted(
            (dm, dn)
            for t1 in range(max(1, s_total - depth), min(depth, s_total - 1) + 1)
            for dm in _degrees_with_total(g.k, t1)
            for dn in _degrees_with_total(g.k, s_total - t1)
        )
        for dm, dn in legs:
            for u in g.vertices:
                for mu in g.paths(u, dm):
                    if mu.source not in reach:
                        continue
                    for nu in g.paths(u, dn):
                        if nu.source != mu.source or nu == mu:
                            continue
                        if not is_generalized_cycle(g, mu, nu):
                            continue
                        tau = next(
                            (
                                tau
                                for n in tau_degrees
                                for tau in g.paths(nu.source, n)
                                if not g.mce(mu, g.compose(nu, tau))
                            ),
                            None,
                        )
                        if tau is None:
                            cycles_without_entrance += 1
                            continue
                        return ReachingCycle(GeneralizedCycle(mu, nu, tau), reach[mu.source])
    detail = ""
    if cycles_without_entrance:
        detail = (
            "found %d generalized cycle(s) but none with an entrance"
            % cycles_without_entrance
        )
    return NotFoundUpTo(depth, detail)
