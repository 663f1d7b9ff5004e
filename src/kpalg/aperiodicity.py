"""Aperiodicity semi-decision.

Aperiodicity asks, at every vertex v, for a boundary path x with range v
such that distinct paths with source v stay distinct after composing with
x. The check here is depth-bounded on both the pair degrees and the
separator, so the positive verdict means "separated up to the stated
depth"; the Periodic verdict is certified by a finite state-pair machine
and is sound unconditionally.

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
prefixes at d(x), differ. The head of a x depends on a and x only, so the
search computes it once per path and candidate rather than once per pair:
within a range group, the paths of one degree form a degree class, and
for each two classes whose degrees have meet 0 the pairs x leaves
unseparated are those whose heads collide in a bucket join of the two
classes (heads in one group share range and degree, so their edge words
tell them apart). The residual pairs are never listed as a whole, only
those a candidate leaves unseparated. The compose memo of the path kernel
(``kgraph._memo``) holds one candidate's composites and their last
prefix, so a head computed twice, or again by ``separates``, is not
composed again. ``separates`` itself is called only where one pair meets
one candidate: the pair that defeated the last candidate is tried first
on the next (the first residual pair on the first). When no candidate
wins, the stubborn-pair scan hands the first candidate's survivors to the
machine, since a pair it certifies is separated by no extension at all.

Locality across quotients: the quotient by a hereditary saturated set H
keeps the edges with source outside H, and by heredity an edge with range
in H has its source in H. So for v outside H the paths with source v,
their squares and comparable pairs are those of the whole graph, while
the candidates and the edges into their sources run among D(v), the
vertices v reaches, and see H only through H & D(v) (``_immortal`` only
skips degrees that give no boundary path anyway). The winning separator
at v and its ``pairs_checked`` thus depend only on (v, H & D(v)).
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

    ``extensions_checked`` counts the exhaustive boundary separators tried
    at the search depth; ``machine_states`` is the size of the closed
    state-pair set proving the invariant for arbitrary extensions.
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


def _is_maximal(g: KGraph, x: Path) -> bool:
    return not g.edges_by_range(x.source)


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
    return ax.degree != bx.degree and _is_maximal(g, x)


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


def _unseparated(
    g: KGraph,
    classes: List[List[Path]],
    joins: List[Join],
    x: Path,
    first_only: bool = False,
) -> List[Tuple[Path, Path]]:
    """The residual pairs x does not separate, in ``_pairs_at`` order; with
    ``first_only`` only the first of them. A pair is unseparated when x is
    not maximal and the heads of a x and b x at d(x) agree (module
    docstring): each a probes the later classes, bucketed by head."""
    d = x.degree

    def head(p: Path) -> Tuple[str, ...]:
        px = g.compose(p, x)
        return (px if px.degree == d else g.factorize(px, d)[0]).edges

    # per class, its paths bucketed by head, on first use
    tables: Dict[int, Dict[Tuple[str, ...], List[Path]]] = {}

    def bucket(j: int, h: Tuple[str, ...]) -> List[Path]:
        table = tables.get(j)
        if table is None:
            table = tables[j] = {}
            for b in classes[j]:
                table.setdefault(head(b), []).append(b)
        return table.get(h, [])

    out: List[Tuple[Path, Path]] = []
    for i, later in joins:
        for a in classes[i]:
            h = head(a)
            for j in later:
                hit = bucket(j, h)
                # a maximal x separates every pair; asked at the first
                # collision only, so a candidate that wins never asks
                if hit and not out and _is_maximal(g, x):
                    return out
                for b in hit:
                    out.append((a, b))
                    if first_only:
                        return out
    return out


def _first_separator(
    g: KGraph,
    classes: List[List[Path]],
    joins: List[Join],
    candidates: Iterable[Path],
) -> Optional[Path]:
    # the first candidate separating every residual pair; the pair that
    # defeats one candidate is tried first on the next, so losing
    # candidates fail fast, and the first candidate is tried first on the
    # first residual pair
    defeating = [(classes[i][0], classes[later[0]][0]) for i, later in joins[:1]]
    for x in candidates:
        if defeating and not separates(g, *defeating[0], x):
            continue
        defeating = _unseparated(g, classes, joins, x, first_only=True)
        if not defeating:
            return x
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


def certify_never_separated(
    g: KGraph, alpha: Path, beta: Path, max_states: int = 4000
) -> Optional[int]:
    """Prove that no extension separates (alpha, beta); returns the state
    count of the closed machine, or None when no proof is obtained.

    State: the residual pair after stripping the common prefix. Extending
    by one edge maps residuals to residuals, so a closed consistent set of
    reachable states shows prefix agreement for every extension. Soundness
    of the overall claim additionally needs every color in the degree
    difference to be immortal (every vertex receives an edge of it);
    otherwise a maximal boundary path of deficient degree could separate
    the pair literally, and we refuse to certify.
    """
    delta = [a - b for a, b in zip(alpha.degree, beta.degree)]
    for i, d in enumerate(delta):
        if d != 0 and any(not g.edges_by_range(w, i + 1) for w in g.vertices):
            return None
    start = _strip(g, alpha, beta)
    if start is None:
        return None
    seen = {start}
    stack = [start]
    steps: Dict[str, Path] = {}
    while stack:
        if len(seen) > max_states:
            return None
        t1, t2 = stack.pop()
        in_edges = g.edges_by_range(t1.source)
        if not in_edges:
            # dead end with distinct residuals: a maximal boundary path
            # separates the pair, so it is not periodic
            return None
        for e in in_edges:
            step = steps.get(e.id)
            if step is None:
                step = steps[e.id] = g.path_from_edges([e.id])
            nxt = _strip(g, g.compose(t1, step), g.compose(t2, step))
            if nxt is None:
                return None
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def _periodic_certificate(
    g: KGraph,
    v: str,
    groups: List[List[Path]],
    classes: List[List[Path]],
    joins: List[Join],
    candidates: Tuple[Path, ...],
) -> Optional[PeriodicCertificate]:
    """The first pair in ``_pairs_at`` order whose residual pair no
    candidate separates and the machine certifies, or None. The machine's
    answer depends on the residual pair only, in either order, so it runs
    once per residual pair."""
    # only the first candidate's survivors are scanned: a pair the machine
    # certifies is separated by no extension, so by no later candidate
    # either. Only a presentation that does not validate has no candidate
    # at all; there every residual pair survives.
    if candidates:
        left = _unseparated(g, classes, joins, candidates[0])
    else:
        left = [
            (a, b)
            for i, later in joins
            for j in later
            for a in classes[i]
            for b in classes[j]
        ]
    if not left:
        return None
    stubborn = set(left) | {(b, a) for a, b in left}
    states: Dict[FrozenSet[Path], Optional[int]] = {}
    for a, b in _pairs_at(groups):
        res = _strip(g, a, b)
        if res not in stubborn:
            continue
        key = frozenset(res)
        if key not in states:
            states[key] = certify_never_separated(g, a, b)
        if states[key] is not None:
            return PeriodicCertificate(a, b, v, len(candidates), states[key])
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
    the same graph by an ideal with the same H & D(v) (module docstring)."""
    check_depth(depth)
    evidence: List[SeparationEvidence] = []
    paths = None
    for v in g.vertices:
        if known and v in known:
            ev = known[v]
            evidence.append(replace(ev, separator=replace(ev.separator, graph=g)))
            continue
        if paths is None:
            paths = _paths_by_source(g, depth)
        cap = (depth + 1,) * g.k
        groups = paths[v]
        pairs_checked, classes, joins = _residual_classes(groups)
        winner = _first_separator(g, classes, joins, g.iter_boundary_paths(v, cap))
        if winner is not None:
            evidence.append(SeparationEvidence(v, winner, pairs_checked))
            continue
        candidates = g.boundary_paths(v, cap)
        cert = _periodic_certificate(g, v, groups, classes, joins, candidates)
        if cert is not None:
            return AperiodicityVerdict("periodic", depth, (), cert)
        return AperiodicityVerdict(
            "unknown",
            depth,
            note="vertex %s: no single separating boundary path within depth %d"
            % (v, depth),
        )
    return AperiodicityVerdict("aperiodic", depth, tuple(evidence))
