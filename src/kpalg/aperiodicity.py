"""Aperiodicity semi-decision.

Aperiodicity asks, at every vertex v, for a boundary path x with range v
such that distinct paths with source v stay distinct after composing with
x. The check here is depth-bounded on both the pair degrees and the
separator, so the positive verdict means "separated up to the stated
depth"; the Periodic verdict is certified by a finite state-pair machine
and is sound unconditionally. Each verdict names its ``basis``:
``certified`` for a periodic answer and for the empty quotient (no
vertices, vacuously aperiodic), ``bounded`` for an answer of the separator
search, which a deeper search may overturn.

Truncated comparison: alpha x = beta x "as truncated paths" means the two
composites agree up to their common (meet) degree; when x is maximal
(its source supports no further edges) the composites are genuine boundary
paths and different degrees already separate them.

Residual pairs: the pairs checked at v are the comparable pairs, distinct
paths with source v and a common range, of different degrees and total
degree at most the depth. Write such a pair as alpha = h tau and
beta = h' tau' with d(h) = d(h') = meet(d(alpha), d(beta)). If h != h',
the composites alpha x and beta x already differ at that degree, so every
x separates the pair. If h = h', left cancellation in the unique
factorization (h p = h q only when p = q) gives separates(alpha, beta, x)
== separates(tau, tau', x) for every x, the degree difference being the
same. The residual pair (tau, tau') is itself a comparable pair at v, one
whose degrees have meet 0. So a path separates all comparable pairs
exactly when it separates those of meet 0, and only these are tested: the
finite-path form of aperiodicity (Lewin-Sims, Math. Proc. Camb. Phil. Soc.
149, 2010). Separator candidates are generated lazily in path_sort_key
order, so the first one found is the one a scan of the whole sorted box
reports; ``pairs_checked`` still counts every comparable pair, from the
sizes of the degree classes.

Degree-class joins: for a residual pair (a, b) and a candidate x,
meet(d(a x), d(b x)) = d(x) + meet(d(a), d(b)) = d(x). So x separates
(a, b) exactly when x is maximal or the heads of a x and b x, their
prefixes at d(x), differ (``_head``; heads in one range group share range
and degree, so their edge words tell them apart). The head of a x depends
on a and x only, so the search computes it once per path and candidate
rather than once per pair: within a range group, the paths of one degree
form a degree class, and for each two classes whose degrees have meet 0
the first pair x leaves unseparated is the first head collision in a
bucket join of the two classes. The residual pairs are never listed. The
compose memo of the path kernel (``kgraph._memo``) holds one candidate's
composites, and each composite keeps its last split, so a head computed
twice, or again by ``separates``, is neither composed nor split again.
``separates`` itself is called only where one pair meets one candidate:
the pair that defeated the last candidate is tried first on the next (the
first residual pair on the first).

The machine probe: when the pair that defeated one candidate defeats the
next as well, the search asks the closed machine about it
(``certify_never_separated``), once per pair and vertex search. A pair
the machine certifies is separated by no extension at all, so by no
candidate of the box, later ones included: the walk would lose on every
remaining candidate, and it stops there. The certificate is then the
first pair, in ``_pairs_at`` order, whose residual pair the first
candidate leaves unseparated (equal heads) and the machine certifies; the
machine keeps the probe's answers, so verdict and certificate are those
of the full walk. A pair the machine refuses is separated by a boundary
path, perhaps outside the box; it costs only its states, and the walk
goes on. The runs in one vertex search share their moves (``Moves``).

Locality across quotients: the quotient by a hereditary saturated set H
keeps the edges with source outside H, and by heredity an edge with range
in H has its source in H. So for v outside H the paths with source v,
their squares and comparable pairs are those of the whole graph, while
the candidates and the edges into their sources run among D(v), the
vertices v reaches, and see H only through H & D(v) (``_immortal`` only
skips degrees that give no boundary path anyway). The winning separator
at v and its ``pairs_checked`` thus depend only on (v, H & D(v)), and so
does a periodic answer: the machine walks the edges into its states'
sources, which in the quotient come from D(v) - H, and checks the colors
of the gap there alone (``certify_never_separated``).

Locality of the witness search: ``prove_vertex_properly_infinite`` makes
one case per trace T = H & D(v) of the ideals H avoiding v, at the ideal
closure(T) (``sat_her_closure``), and that case serves every ideal of
trace T exactly:
- Heredity. A path whose source lies outside H has every vertex outside
  H, so the quotient by H keeps it unchanged. A vertex of D(v) receives
  edges only from D(v), and keeps one exactly when its source is outside
  T. So the paths with source in D(v) - T, their boundary paths and their
  minimal common extensions, all of which start above a vertex of
  D(v) - T, are the same in every quotient by an ideal of trace T.
- The least ideal. An ideal H of trace T avoiding v contains T, hence
  closure(T). So T <= closure(T) & D(v) <= H & D(v) = T, and v lies
  outside closure(T): closure(T) is the least ideal of trace T, and it
  avoids v. So the traces at v are the fixed points avoiding v of the
  closure operator c_v(T) = closure(T) & D(v) on subsets of D(v), and a
  fixed point above T contains c_v(T + u) for each of its vertices u
  outside T: ``traces`` lists them by closing one-vertex augmentations.
- Route two. ``find_reaching_gen_cycle`` tries pairs (mu, nu) whose
  common source lies in D(v) - T, in an order fixed by degrees, the
  vertex order of the graph and edge words. It tests containment with the
  boundary paths at that source, looks for an entrance among the paths
  extending nu, and compares them by MCE; the connecting path comes from
  the same in-edge search as D(v). All of it lies above D(v) - T, so the
  route returns the same paths, or the same miss, for every ideal of
  trace T. Route one (``_disjoint_cycle_pair``) reads only cycles at
  vertices of D(v) - T and their paths to v, and ``find_cycle_reaching``,
  the test that makes a miss Negative, only the edges among D(v) - T.
- The certificate. Every term of its target and parts has its source in
  D(v), hence in D(v) - T; this is checked where the certificate is
  built, in the quotient by closure(T). Products and normal forms refine a
  term only by boundary paths at its source, so every relation evaluates
  term for term alike in every quotient of trace T: read over any of them,
  the certificate is the one a build there would check.
- Strictness (q != p). A homomorphism can send q and p to one element,
  so the quotient map alone does not keep it. But the normal form of
  p - q in the quotient by H refines terms whose sources lie in D(v) - T
  by boundary paths there, which are the same as in the quotient by
  closure(T). So both quotients give p - q the same normal form, nonzero
  in one exactly when nonzero in the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .degrees import Degree, meet
from .kgraph import KGraph, Path, path_sort_key
from .paths import _degrees_with_total


@dataclass(frozen=True)
class SeparationEvidence:
    """One vertex's witness: a single boundary path separating all checked
    pairs."""

    vertex: str
    separator: Path
    pairs_checked: int


@dataclass(frozen=True)
class PeriodicCertificate:
    """A pair that provably stays identified under every extension.

    ``extensions_checked`` counts the boundary paths in the search box at
    the depth, none of which can separate the pair; ``machine_states`` is
    the size of the closed state-pair set proving the invariant for
    arbitrary extensions.
    """

    alpha: Path
    beta: Path
    vertex: str
    extensions_checked: int
    machine_states: int


@dataclass(frozen=True)
class AperiodicityVerdict:
    status: str  # aperiodic | periodic | unknown
    depth: int
    evidence: Tuple[SeparationEvidence, ...] = ()
    certificate: Optional[PeriodicCertificate] = None
    note: str = ""
    # what the status rests on: "certified" (a proof) or "bounded" (a
    # search up to the depth); bounded unless a proof is at hand
    basis: str = "bounded"


def separates(g: KGraph, alpha: Path, beta: Path, x: Path) -> bool:
    """True when composing with x tells alpha and beta apart (truncated
    comparison as described in the module docstring)."""
    ax = g.compose(alpha, x)
    bx = g.compose(beta, x)
    m = meet(ax.degree, bx.degree)
    # the prefix at m; a composite of degree m is its own prefix
    ha = ax if ax.degree == m else g.factorize(ax, m)[0]
    hb = bx if bx.degree == m else g.factorize(bx, m)[0]
    if ha != hb:
        return True
    return ax.degree != bx.degree and not g.edges_by_range(x.source)


def _paths_by_source(g: KGraph, depth: int) -> Dict[str, List[List[Path]]]:
    # paths of total degree <= depth by source, each source's paths grouped
    # by range (in vertex order) and sorted by path_sort_key within a group
    by_source: Dict[str, Dict[str, List[Path]]] = {}
    for u in g.vertices:
        for t in range(0, depth + 1):
            for n in _degrees_with_total(g.k, t):
                for p in g.paths(u, n):
                    by_source.setdefault(p.source, {}).setdefault(u, []).append(p)
    return {
        v: [sorted(by_range[u], key=path_sort_key) for u in sorted(by_range)]
        for v, by_range in by_source.items()
    }


def _pairs_at(groups: List[List[Path]]) -> Iterator[Tuple[Path, Path]]:
    # pairs of distinct paths with source v and a common range; pairs of
    # equal degree are skipped since unique factorization separates them
    # under any extension
    for ps in groups:
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                if a.degree != b.degree:
                    yield a, b


def _choose2(n: int) -> int:
    return n * (n - 1) // 2


# A degree class is the paths of one degree in one range group, in group
# order. A join pairs the index of a class with the indices of the later
# classes of its group whose degrees meet its own in 0; the residual pairs
# are (a, b) for a in the class and b in one of those.
Join = Tuple[int, Tuple[int, ...]]


def _residual_classes(
    groups: List[List[Path]],
) -> Tuple[int, List[List[Path]], List[Join]]:
    """The number of pairs ``_pairs_at`` yields, the degree classes, and
    the joins that hold the residual pairs (those of its pairs whose
    degrees have meet 0)."""
    count = 0
    classes: List[List[Path]] = []
    joins: List[Join] = []
    for ps in groups:
        by_degree: Dict[Degree, List[Path]] = {}
        for p in ps:
            by_degree.setdefault(p.degree, []).append(p)
        same_degree = sum(_choose2(len(q)) for q in by_degree.values())
        count += _choose2(len(ps)) - same_degree
        first = len(classes)
        classes += by_degree.values()
        degrees = list(by_degree)
        for i, d in enumerate(degrees):
            later = tuple(
                first + j
                for j in range(i + 1, len(degrees))
                if not any(meet(d, degrees[j]))
            )
            if later:
                joins.append((first + i, later))
    return count, classes, joins


def _head(g: KGraph, p: Path, x: Path) -> Tuple[str, ...]:
    """The edge word of the prefix of p x at d(x) (module docstring)."""
    px = g.compose(p, x)
    return (px if px.degree == x.degree else g.factorize(px, x.degree)[0]).edges


def _unseparated(
    g: KGraph, classes: List[List[Path]], joins: List[Join], x: Path
) -> Optional[Tuple[Path, Path]]:
    """The first residual pair, in ``_pairs_at`` order, that x does not
    separate, or None: x is not maximal and the heads of a x and b x agree.
    Each a probes the later classes, keyed by head."""
    # per class, the first path of each head, on first use
    tables: Dict[int, Dict[Tuple[str, ...], Path]] = {}
    for i, later in joins:
        for a in classes[i]:
            h = _head(g, a, x)
            for j in later:
                table = tables.get(j)
                if table is None:
                    table = tables[j] = {}
                    for b in classes[j]:
                        table.setdefault(_head(g, b, x), b)
                b = table.get(h)
                if b is not None:
                    # a maximal x separates every pair; asked at the first
                    # collision only, so a candidate that wins never asks
                    return (a, b) if g.edges_by_range(x.source) else None
    return None


def _first_separator(
    g: KGraph,
    classes: List[List[Path]],
    joins: List[Join],
    candidates: Iterable[Path],
    machine: _Machine,
) -> Optional[Path]:
    # the first candidate separating every residual pair; the pair that
    # defeats one candidate is tried first on the next, so losing
    # candidates fail fast, and the first candidate is tried first on the
    # first residual pair. A pair that defeats a second candidate goes to
    # the closed machine; once it certifies one, no candidate can win and
    # the walk stops (module docstring)
    defeating = None
    if joins:
        i, later = joins[0]
        defeating = (classes[i][0], classes[later[0]][0])
    defeats = 0
    for x in candidates:
        if defeating is not None and not separates(g, *defeating, x):
            defeats += 1
            if defeats == 2 and machine.states(*defeating) is not None:
                return None
            continue
        defeating = _unseparated(g, classes, joins, x)
        if defeating is None:
            return x
        defeats = 1
    return None


def _strip(g: KGraph, p: Path, q: Path) -> Optional[Tuple[Path, Path]]:
    # factor out the common prefix at the meet degree; None means the
    # prefixes already disagree (the pair is separated)
    w = meet(p.degree, q.degree)
    hp, tp = g.factorize(p, w)
    hq, tq = g.factorize(q, w)
    if hp != hq:
        return None
    return tp, tq


# The closed machine's moves, shared by its runs on one graph: each
# residual path t maps to its composites t e with the edges e into its
# source, in ``edges_by_range`` order, so no run composes t e again.
Moves = Dict[Path, Tuple[Path, ...]]


def _extensions(g: KGraph, t: Path, moves: Moves) -> Tuple[Path, ...]:
    out = moves.get(t)
    if out is None:
        if t.edges:
            steps = _extensions(g, g.trivial_path(t.source), moves)
            out = tuple(g.compose(t, step) for step in steps)
        else:
            # a vertex extends to the single edges into it, taken from the
            # path cache so that no run builds them again
            units = [tuple(int(i == c) for i in range(g.k)) for c in range(g.k)]
            out = tuple(e for n in units for e in g.paths(t.range, n))
        moves[t] = out
    return out


def certify_never_separated(
    g: KGraph, alpha: Path, beta: Path, moves: Optional[Moves] = None
) -> Optional[int]:
    """Decide whether some boundary path separates (alpha, beta): None if
    one does, else the state count of the closed machine. ``moves`` lets
    runs on one graph share their moves; the answer does not depend on it.

    State: the residual pair after stripping the common prefix. Extending
    by a color-c edge and stripping the common head of degree e_c gives
    back the start degrees (d1, d2), so a state is a pair of paths of
    degrees d1 and d2 with a common source and range, one of at most
    sum_(u,w) |u Lambda^d1 w| |u Lambda^d2 w|: the machine always stops.
    It refuses at a state whose heads disagree or whose source misses a
    color of the gap, where d1 and d2 differ: a boundary path x at v has
    finite degree in color c exactly when it ends at a vertex of D(v)
    receiving no color-c edge, and for c in the gap alpha x and beta x
    then differ in degree. A closed run extends every state by every edge
    into its source, so it checks every vertex of D(v). Local convexity
    carries a gap color from the common range to the source along the
    residual path of degree 0 in it, edge by edge, so only a presentation
    that does not validate fails the second test.
    """
    gap = [c + 1 for c, (a, b) in enumerate(zip(alpha.degree, beta.degree)) if a != b]
    start = _strip(g, alpha, beta)
    if start is None:
        return None
    if moves is None:
        moves = {}
    seen = {start}
    stack = [start]
    while stack:
        t1, t2 = stack.pop()
        if not all(g.edges_by_range(t1.source, c) for c in gap):
            return None
        for p, q in zip(_extensions(g, t1, moves), _extensions(g, t2, moves)):
            nxt = _strip(g, p, q)
            if nxt is None:
                return None
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


class _Machine:
    """The closed machine for one vertex search: its answers by residual
    pair, in either order (the answer depends on nothing else), and the
    moves its runs share."""

    def __init__(self, g: KGraph):
        self.g = g
        self.answers: Dict[FrozenSet[Path], Optional[int]] = {}
        self.moves: Moves = {}

    def states(self, a: Path, b: Path) -> Optional[int]:
        """``certify_never_separated`` of the residual pair (a, b), run once."""
        key = frozenset((a, b))
        if key not in self.answers:
            self.answers[key] = certify_never_separated(self.g, a, b, self.moves)
        return self.answers[key]


def _periodic_certificate(
    g: KGraph,
    v: str,
    groups: List[List[Path]],
    candidates: Tuple[Path, ...],
    machine: _Machine,
) -> Optional[PeriodicCertificate]:
    """The first pair in ``_pairs_at`` order whose residual pair the first
    candidate leaves unseparated and the machine certifies, or None."""
    # a pair the machine certifies is separated by no extension, so by no
    # candidate: the first candidate's test only skips pairs the machine
    # would refuse. A maximal first candidate separates every residual
    # pair, so it has won and no scan runs. Only a presentation that does
    # not validate has no candidate at all; there every residual pair is
    # asked.
    x = candidates[0] if candidates else None
    heads: Dict[Path, Tuple[str, ...]] = {}
    for a, b in _pairs_at(groups):
        res = _strip(g, a, b)
        if res is None:
            continue
        if x is not None:
            for t in res:
                if t not in heads:
                    heads[t] = _head(g, t, x)
            if heads[res[0]] != heads[res[1]]:
                continue
        states = machine.states(*res)
        if states is not None:
            return PeriodicCertificate(a, b, v, len(candidates), states)
    return None


def check_depth(depth: int) -> None:
    """Refuse a depth bound below 1: with no pairs to check, the search
    would call every graph aperiodic."""
    if depth < 1:
        raise ValueError("depth must be >= 1, got %d" % depth)


def aperiodicity_check(
    g: KGraph, depth: int = 6, known: Optional[Dict[str, SeparationEvidence]] = None
) -> AperiodicityVerdict:
    """Three-valued aperiodicity check with explicit certificates.
    ``known`` maps vertices v to the evidence found in another quotient of
    the same graph by an ideal with the same H & D(v) (module docstring).
    ``unknown`` comes only after every vertex has been tried, and names
    the first vertex left unsettled."""
    check_depth(depth)
    evidence: List[SeparationEvidence] = []
    paths = None
    stuck = None
    for v in g.vertices:
        if known and v in known:
            ev = known[v]
            x = ev.separator
            x = Path(g, x.range, x.edges, x.degree, x.source)
            evidence.append(replace(ev, separator=x))
            continue
        if paths is None:
            paths = _paths_by_source(g, depth)
        cap = (depth + 1,) * g.k
        groups = paths[v]
        pairs_checked, classes, joins = _residual_classes(groups)
        machine = _Machine(g)
        winner = _first_separator(
            g, classes, joins, g.iter_boundary_paths(v, cap), machine
        )
        if winner is not None:
            evidence.append(SeparationEvidence(v, winner, pairs_checked))
            continue
        candidates = g.boundary_paths(v, cap)
        cert = _periodic_certificate(g, v, groups, candidates, machine)
        if cert is not None:
            return AperiodicityVerdict("periodic", depth, (), cert, basis="certified")
        if stuck is None:
            stuck = v
    if stuck is not None:
        return AperiodicityVerdict(
            "unknown",
            depth,
            note="vertex %s: no single separating boundary path within depth %d"
            % (stuck, depth),
        )
    # with no vertex there is nothing to separate: vacuously aperiodic
    basis = "bounded" if g.vertices else "certified"
    return AperiodicityVerdict("aperiodic", depth, tuple(evidence), basis=basis)
