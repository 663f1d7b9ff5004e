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
reports; ``pairs_checked`` still counts every comparable pair.

Sharing within a candidate: the residual pairs at v share their paths, so
the searches test them candidate by candidate. The compose memo of the
path kernel (``kgraph._memo``) then composes each path with a candidate x
once rather than once per pair, and keeps the last prefix of each
composite; it holds one candidate's composites at a time. ``separates``
is still called once for each (pair, candidate) tested.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _paths_by_range(g: KGraph, v: str, depth: int) -> List[List[Path]]:
    # paths with source v and total degree <= depth, grouped by range (in
    # vertex order) and sorted by path_sort_key within a group
    by_range: Dict[str, List[Path]] = {}
    for u in g.vertices:
        for t in range(0, depth + 1):
            for n in _degrees_with_total(g.k, t):
                for p in g.paths(u, n):
                    if p.source == v:
                        by_range.setdefault(u, []).append(p)
    return [sorted(by_range[u], key=path_sort_key) for u in sorted(by_range)]


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


def _count_and_residual_pairs(
    groups: List[List[Path]],
) -> Tuple[int, List[Tuple[Path, Path]]]:
    """The number of pairs ``_pairs_at`` yields, and those of its pairs
    whose degrees have meet 0 (the residual pairs), oriented as there."""
    count = 0
    residual: List[Tuple[Path, Path]] = []
    for ps in groups:
        by_degree: Dict[Degree, List[Path]] = {}
        for p in ps:
            by_degree.setdefault(p.degree, []).append(p)
        same_degree = sum(_choose2(len(q)) for q in by_degree.values())
        count += _choose2(len(ps)) - same_degree
        degrees = list(by_degree)
        for i, m in enumerate(degrees):
            for n in degrees[i + 1 :]:
                if not any(meet(m, n)):
                    residual += [(a, b) for a in by_degree[m] for b in by_degree[n]]
    return count, residual


def _first_separator(
    g: KGraph, pairs: List[Tuple[Path, Path]], candidates: Iterable[Path]
) -> Optional[Path]:
    # the first candidate separating every pair; the pair that defeats one
    # candidate is tried first on the next, so losing candidates fail fast
    pairs = list(pairs)
    for x in candidates:
        for i, (a, b) in enumerate(pairs):
            if not separates(g, a, b, x):
                pairs[0], pairs[i] = pairs[i], pairs[0]
                break
        else:
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
    residual: List[Tuple[Path, Path]],
    candidates: Tuple[Path, ...],
) -> Optional[PeriodicCertificate]:
    """The first pair in ``_pairs_at`` order whose residual pair no
    candidate separates and the machine certifies, or None. The machine's
    answer depends on the residual pair only, in either order, so it runs
    once per residual pair."""
    # a pair meets each candidate until one separates it, as a scan per
    # pair would, but candidate by candidate, so the kernel's compose memo
    # serves a candidate
    left = residual
    for x in candidates:
        if not left:
            break
        left = [(a, b) for a, b in left if not separates(g, a, b, x)]
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


def aperiodicity_check(g: KGraph, depth: int = 6) -> AperiodicityVerdict:
    """Three-valued aperiodicity check with explicit certificates."""
    check_depth(depth)
    evidence: List[SeparationEvidence] = []
    for v in g.vertices:
        cap = (depth + 1,) * g.k
        groups = _paths_by_range(g, v, depth)
        pairs_checked, residual = _count_and_residual_pairs(groups)
        winner = _first_separator(g, residual, g.iter_boundary_paths(v, cap))
        if winner is not None:
            evidence.append(SeparationEvidence(v, winner, pairs_checked))
            continue
        candidates = g.boundary_paths(v, cap)
        cert = _periodic_certificate(g, v, groups, residual, candidates)
        if cert is not None:
            return AperiodicityVerdict("periodic", depth, (), cert)
        return AperiodicityVerdict(
            "unknown",
            depth,
            note="vertex %s: no single separating boundary path within depth %d"
            % (v, depth),
        )
    return AperiodicityVerdict("aperiodic", depth, tuple(evidence))
