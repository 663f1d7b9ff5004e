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
(its source receives no edge) the composites are genuine boundary paths
and different degrees already separate them. On a presentation that
validates, they then differ at the meet already, by this lemma: let t
and t' be paths with a common range, a common source u, and different
degrees whose meet is 0; then u receives an edge of each color of d(t')
(and of d(t), alike). Let j be a color of d(t'). If t has degree 0, then
t = u, and the head of t' at e_j is a color-j edge with range u.
Otherwise j is not a color of d(t), and r(t) receives a color-j edge,
the head of t' at e_j. Local convexity (``validate``: if r(e) receives a
color j != c(e), so does s(e)) carries "receives color j" edge by edge
along t, from r(t) to u. A pair whose composites with x agree at the meet
leaves such tails at s(x) (Stepping a pair), so x is not maximal, and the
search tests heads alone. Every entry point refuses input that does not
validate (``check_input``), and the degree-class join relies on it: it
leaves out the classes this lemma rules out (Degree-class joins).

Residual pairs: the pairs checked at v are the comparable pairs, distinct
paths with source v and a common range, of different degrees and total
degree at most the depth; pair order lists them range group by range
group (the paths with one range, in vertex order), as (a, b) with a
before b in path_sort_key order. Write such a pair as alpha = h tau and
beta = h' tau' with d(h) = d(h') = meet(d(alpha), d(beta)). If h != h',
the composites alpha x and beta x already differ at that degree, so every
x separates the pair. If h = h', left cancellation in the unique
factorization (h p = h q only when p = q) gives separates(alpha, beta, x)
== separates(tau, tau', x) for every x, the degree difference being the
same. The residual pair (tau, tau') is itself a comparable pair at v, one
whose degrees have meet 0, and it is its own residual. So a path
separates all comparable pairs exactly when it separates those of meet 0,
and only these are tested: the finite-path form of aperiodicity
(Lewin-Sims, Math. Proc. Camb. Phil. Soc. 149, 2010). Separator
candidates are generated lazily in path_sort_key order, so the first one
found is the one a scan of the whole sorted box reports; ``pairs_checked``
still counts every comparable pair, from the sizes of the degree classes.

Degree-class joins: for a residual pair (a, b) and a candidate x,
meet(d(a x), d(b x)) = d(x) + meet(d(a), d(b)) = d(x). So x separates
(a, b) exactly when the heads of a x and b x, their prefixes at d(x),
differ (Truncated comparison; heads in one range group share range and
degree, so their edge words tell them apart). The head of a x depends on
a and x only, so the search computes it once per path and candidate
rather than once per pair: within a range group, the paths of one degree
form a degree class, and for each two classes whose degrees have meet 0
the pairs x leaves unseparated are the head collisions in a bucket join
of the two classes (``_unseparated``), made lazily in pair order; the
residual pairs are never listed. Per candidate, each class gets one table
from head to path, and a later class is probed with each head of an
earlier one:
- Injective heads. For a class of degree d <= d(x), let n = d(x) - d and
  x = x1 x2 with d(x1) = n. For p in the class, p x = (p x1) x2 with
  d(p x1) = d(x), so by unique factorization the head of p x at d(x) is
  p x1. Its word comes from those of p and x1 (``KGraph.prefix_word``,
  once per degree n, and ``KGraph.composite_word``); no composite p x is
  built or split. The head of p x1 at d(p) is p, so the paths of the
  class have distinct heads, and the table keeps every one.
- Skipped classes lose nothing. A class of degree d not <= d(x) gets an
  empty table. If x leaves (a, b) unseparated, the tails that a x and
  b x leave at d(x) have source s(x) and the degrees d(a) and d(b), whose
  meet is 0, so s(x) receives every color of d(a) and of d(b) (the lemma
  of Truncated comparison, on a presentation that validates). A boundary
  path of the box has d(x)_c = depth + 1 in each color c that s(x)
  receives, and depth + 1 exceeds every color of d(a) and d(b); so
  d(a), d(b) <= d(x), and no such pair has a path in a skipped class.
The join has two readers, and neither strips a pair, a residual pair
being its own residual:
- the separator walk takes the first collision, the pair that defeats x
  (``_first_separator``);
- the certificate scan takes the first candidate's collisions until the
  closed machine certifies one, and reads no further
  (``_periodic_certificate``). A scan that instead kept every comparable
  pair whose heads under x agree at d(x) + meet, and handed the machine
  its residual, certifies at the same vertices: the residuals of its kept
  pairs are the collisions. On one vertex it names the same pair, as every
  path lies in one range group: a pair of nonzero meet w has a residual
  (t, t') with d(t) = d(a) - w, so t, and with it (t, t'), comes before
  (a, b) in pair order, and that scan's first certified pair had meet 0.
  With more vertices a residual can lie in a later range group, and the
  pairs can differ.
``separates`` itself is called only where one pair meets one candidate:
the pair that defeated the last candidate is tried first on the next (the
first residual pair on the first). It reads no head word: it steps the
pair along the candidate's word (Stepping a pair).

Stepping a pair: ``separates`` strips (alpha, beta) at
w = meet(d(alpha), d(beta)) first. Different heads at w separate the pair
under every x (Residual pairs); with w = 0 they are the ranges. Equal
heads h leave the tails (t, t'), and the head of alpha x at d(x) + w is
h (t x)(0, d(x)), as d(t x) >= d(x), and the same for beta. Let
x = x1 ... xn be x's canonical word and t0 = t. Factor
t(i-1) xi = hi ti with d(hi) = d(xi), a single edge, so d(ti) = d(t) for
every i; likewise t'(i-1) xi = h'i t'i. Then t x = h1 ... hn tn with
d(h1 ... hn) = d(x), so by unique factorization
(t x)(0, d(x)) = h1 ... hn, and (t' x)(0, d(x)) = h'1 ... h'n. If
hi = h'i for every i, the heads at d(x) + w agree, and x does not
separate: tn and t'n have source s(x), so x is not maximal when the
degrees differ (Truncated comparison). If hi is the first that differs,
the heads of t x and t' x at d(x1 ... xi) are h1 ... hi and
h1 ... h(i-1) h'i, which differ by left cancellation; as
d(x1 ... xi) <= d(x), the heads at d(x) differ too, and the walk stops at
xi. A step depends only on the state (t(i-1), t'(i-1)) and the edge xi,
and keeps the degrees (d(t), d(t')), so the states one pair reaches are
pairs of tail words of its two degrees, finitely many. A vertex search
keeps one table from (state, edge) to the next state, or -1 at an edge
that separates (``Steps``), on its closed machine, and every
``separates`` call of the search reads it. A call strips its pair unless
the call before asked the same pair (``Steps.last``); a hit then costs
one lookup per edge, and a miss sorts the two words t(i-1) xi and
t'(i-1) xi (``KGraph._sort_word``) and splits off their one-edge heads
(``KGraph._split_word``), building no path. On the ``sweep`` benchmark
workload the one vertex search of bouquet3x3 computes 9 steps for its 245
calls, and that of bouquet2x2x2 18 for 274.

The machine probe: when the pair that defeated one candidate defeats the
next as well, the search asks the closed machine about it
(``certify_never_separated``), once per pair and vertex search. A pair
the machine certifies is separated by no extension at all, so by no
candidate of the box, later ones included: the walk would lose on every
remaining candidate, and it stops there; the machine keeps the probe's
answers, so the certificate scan gives the verdict and certificate of the
full walk. A pair the machine refuses is separated by a boundary path,
perhaps outside the box; it costs only its states, and the walk goes on.

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
of the gap there alone (``certify_never_separated``). So does an unknown
answer, which is the miss of both. The unit of work is therefore the
one-vertex search (``_vertex_verdict``), whose answer is a one-vertex
verdict, and a graph's verdict is combined from those of its vertices
(``combine_verdicts``): ``strong_aperiodicity_sweep`` combines every
ideal's verdict from stored answers, and searches each (v, H & D(v))
only when a combine first reads it, so at most once, in the quotient by
the least ideal of that trace.

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

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .degrees import Degree, meet
from .kgraph import KGraph, KGraphError, Path, not_composable, path_sort_key, validate
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


Word = Tuple[str, ...]


class Steps:
    """The step table of one vertex search (module docstring, "Stepping a
    pair"). A state is a residual pair of tail words, interned as an int;
    ``states`` lists each state's words and degrees, and ``next`` maps
    (state, edge id) to the next state, or -1 where the pair is separated
    on that edge. Only ``_step`` writes ``next``. ``last`` holds the last
    pair a call stripped and its state, since the search asks one pair on
    candidate after candidate."""

    def __init__(self):
        self.ids: Dict[Tuple[Word, Word], int] = {}
        self.states: List[Tuple[Word, Word, Degree, Degree]] = []
        self.next: Dict[Tuple[int, str], int] = {}
        self.last: Tuple[Optional[Path], Optional[Path], int] = (None, None, -1)

    def state(self, ta: Word, tb: Word, da: Degree, db: Degree) -> int:
        s = self.ids.get((ta, tb))
        if s is None:
            s = self.ids[(ta, tb)] = len(self.states)
            self.states.append((ta, tb, da, db))
        return s


def _step(g: KGraph, steps: Steps, s: int, e: str) -> int:
    """The state after s on the edge e, from words only: each tail t is
    extended to t e, sorted, and split at its one-edge head of color c(e);
    -1 when the two heads differ."""
    ta, tb, da, db = steps.states[s]
    c = g._color[e] - 1
    unit = tuple(int(i == c) for i in range(g.k))
    cut = []
    for t, d in ((ta, da), (tb, db)):
        word, _ = g._split_word(
            g._sort_word(list(t + (e,)), len(t)), tuple(map(operator.add, d, unit)), unit
        )
        cut.append((word[0], tuple(word[1:])))
    (ha, ta), (hb, tb) = cut
    nxt = steps.next[(s, e)] = steps.state(ta, tb, da, db) if ha == hb else -1
    return nxt


def _start(g: KGraph, steps: Steps, alpha: Path, beta: Path) -> int:
    """The state of (alpha, beta) stripped at w = meet(d(alpha), d(beta)),
    from words only, or -1 when the heads at w differ (with w = 0, the
    ranges)."""
    w = meet(alpha.degree, beta.degree)
    if any(w):
        # heads with equal words at a nonzero degree share their range
        (a, h), (b, hb) = (g._split_word(p.edges, p.degree, w) for p in (alpha, beta))
        if tuple(a[:h]) != tuple(b[:hb]):
            return -1
        ta, tb = tuple(a[h:]), tuple(b[hb:])
    elif alpha.range != beta.range:
        return -1
    else:
        ta, tb = alpha.edges, beta.edges
    return steps.state(ta, tb, *(tuple(map(operator.sub, p.degree, w)) for p in (alpha, beta)))


def separates(
    g: KGraph, alpha: Path, beta: Path, x: Path, steps: Optional[Steps] = None
) -> bool:
    """True when composing with x tells alpha and beta apart (truncated
    comparison as described in the module docstring). The pair is stripped
    at the meet of its degrees and stepped along x's word (``Steps``);
    ``steps`` lets the calls of one vertex search share their steps, and
    the answer does not depend on it."""
    for p in (alpha, beta):
        if p.source != x.range:
            raise not_composable(p, x)
    if steps is None:
        steps = Steps()
    last_alpha, last_beta, s = steps.last
    if last_alpha is not alpha or last_beta is not beta:
        s = _start(g, steps, alpha, beta)
        if s < 0:
            return True
        steps.last = (alpha, beta, s)
    table = steps.next
    for e in x.edges:
        nxt = table.get((s, e))
        if nxt is None:
            nxt = _step(g, steps, s, e)
        if nxt < 0:
            return True
        s = nxt
    return False


def _groups_at(g: KGraph, v: str, depth: int) -> List[List[Path]]:
    # the paths of total degree <= depth with source v, grouped by range
    # (in vertex order) and sorted by path_sort_key within a group; the
    # paths of g up to the depth are listed by source once, on first use,
    # and kept on the graph for every vertex's search
    if depth not in g._groups:
        lists: Dict[str, Dict[str, List[Path]]] = {}
        degrees = [n for t in range(depth + 1) for n in _degrees_with_total(g.k, t)]
        for p in (p for u in g.vertices for n in degrees for p in g.paths(u, n)):
            lists.setdefault(p.source, {}).setdefault(p.range, []).append(p)
        g._groups[depth] = {
            s: [sorted(ps, key=path_sort_key) for ps in by_range.values()]
            for s, by_range in lists.items()
        }
    return g._groups[depth].get(v, [])


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
    """The number of comparable pairs in the groups, the degree classes,
    and the joins that hold the residual pairs (those whose degrees have
    meet 0)."""
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
    g: KGraph, classes: List[List[Path]], joins: List[Join], x: Path
) -> Iterator[Tuple[Path, Path]]:
    """The residual pairs that x does not separate, in pair order, made as
    they are asked for: those where the heads of a x and b x agree. Each
    class gets one table from head to path on first use, empty for a
    degree not <= d(x), and x is split once per degree n; each a probes
    the later classes' tables (module docstring, "Degree-class joins")."""
    tables: Dict[int, Dict[Word, Path]] = {}
    prefixes: Dict[Degree, Word] = {}

    def table(i: int) -> Dict[Word, Path]:
        heads = tables.get(i)
        if heads is None:
            heads = tables[i] = {}
            n = tuple(map(operator.sub, x.degree, classes[i][0].degree))
            if min(n) >= 0:
                if n not in prefixes:
                    prefixes[n] = g.prefix_word(x.edges, x.degree, n)
                for p in classes[i]:
                    heads[g.composite_word(p, prefixes[n])] = p
        return heads

    for i, later in joins:
        for h, a in table(i).items():
            for j in later:
                b = table(j).get(h)
                if b is not None:
                    yield a, b


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
        if defeating is not None and not separates(g, *defeating, x, machine.steps):
            defeats += 1
            if defeats == 2 and machine.states(*defeating) is not None:
                return None
            continue
        defeating = next(_unseparated(g, classes, joins, x), None)
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


def _extensions(g: KGraph, t: Path) -> List[Path]:
    # t e for the edges e into s(t), color by color in ``edges_by_range``
    # order; a vertex extends to those edges themselves
    units = [tuple(int(i == c) for i in range(g.k)) for c in range(g.k)]
    return [g.compose(t, e) for n in units for e in g.paths(t.source, n)]


def certify_never_separated(g: KGraph, alpha: Path, beta: Path) -> Optional[int]:
    """Decide whether some boundary path separates (alpha, beta): None if
    one does, else the state count of the closed machine.

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
    that does not validate fails the second test; the entry points refuse
    such input (``check_input``), and the test guards direct calls.
    """
    gap = [c + 1 for c, (a, b) in enumerate(zip(alpha.degree, beta.degree)) if a != b]
    start = _strip(g, alpha, beta)
    if start is None:
        return None
    seen = {start}
    stack = [start]
    while stack:
        t1, t2 = stack.pop()
        if not all(g.receives(t1.source, c) for c in gap):
            return None
        for p, q in zip(_extensions(g, t1), _extensions(g, t2)):
            nxt = _strip(g, p, q)
            if nxt is None:
                return None
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


class _Machine:
    """The closed machine for one vertex search: its answers by residual
    pair (the answer depends on nothing else), and the step table the
    search's ``separates`` calls share. Both callers hand it pairs in pair
    order, so one key per pair is enough."""

    def __init__(self, g: KGraph):
        self.g = g
        self.answers: Dict[Tuple[Path, Path], Optional[int]] = {}
        self.steps = Steps()

    def states(self, a: Path, b: Path) -> Optional[int]:
        """``certify_never_separated`` of the residual pair (a, b), run once."""
        key = (a, b)
        if key not in self.answers:
            self.answers[key] = certify_never_separated(self.g, a, b)
        return self.answers[key]


def _periodic_certificate(
    g: KGraph,
    v: str,
    classes: List[List[Path]],
    joins: List[Join],
    candidates: Tuple[Path, ...],
    machine: _Machine,
) -> Optional[PeriodicCertificate]:
    """The first residual pair, in pair order, that the first candidate
    leaves unseparated and the machine certifies, or None."""
    # a pair the machine certifies is separated by no extension, so by no
    # candidate: the first candidate's join only skips pairs the machine
    # would refuse. A maximal first candidate separates every residual
    # pair, so it has won and no scan runs. A presentation that validates
    # has a boundary path at every vertex, so a first candidate exists
    for a, b in _unseparated(g, classes, joins, candidates[0]):
        states = machine.states(a, b)
        if states is not None:
            return PeriodicCertificate(a, b, v, len(candidates), states)
    return None


def check_input(g: KGraph, depth: int) -> None:
    """The one gate of the entry points (``aperiodicity_check``,
    ``classify_pure_infiniteness``, ``prove_vertex_properly_infinite`` and
    every command but ``validate``). It refuses a depth bound below 1
    (ValueError): with no pairs to check, the search would call every
    graph aperiodic. It refuses a presentation whose kept ``validate``
    report is not ok (KGraphError): the searches behind it assume the
    axioms, and would answer it without meaning. A quotient takes its
    parent's ok report (``ideals.quotient``), so the gate validates each
    presentation once."""
    if depth < 1:
        raise ValueError("depth must be >= 1, got %d" % depth)
    rep = validate(g)
    if not rep.ok:
        raise KGraphError("invalid presentation:\n%s" % rep)


def _vertex_verdict(g: KGraph, v: str, depth: int) -> AperiodicityVerdict:
    """The one-vertex verdict at v: aperiodic with v's separator, periodic
    with a certified pair at v, or unknown."""
    cap = (depth + 1,) * g.k
    pairs_checked, classes, joins = _residual_classes(_groups_at(g, v, depth))
    machine = _Machine(g)
    winner = _first_separator(g, classes, joins, g.iter_boundary_paths(v, cap), machine)
    if winner is not None:
        evidence = (SeparationEvidence(v, winner, pairs_checked),)
        return AperiodicityVerdict("aperiodic", depth, evidence)
    cert = _periodic_certificate(g, v, classes, joins, g.boundary_paths(v, cap), machine)
    if cert is not None:
        return AperiodicityVerdict("periodic", depth, (), cert, basis="certified")
    note = "vertex %s: no single separating boundary path within depth %d" % (v, depth)
    return AperiodicityVerdict("unknown", depth, note=note)


def combine_verdicts(
    answers: Iterable[AperiodicityVerdict], depth: int
) -> AperiodicityVerdict:
    """A graph's verdict from the one-vertex verdicts of its vertices, in
    vertex order: the first periodic one, else the first unknown one, else
    aperiodic with every vertex's evidence. The answers are read up to the
    first periodic one. With no vertex there is nothing to separate, so the
    graph is vacuously, and certifiably, aperiodic."""
    evidence: List[SeparationEvidence] = []
    stuck = None
    for verd in answers:
        if verd.status == "periodic":
            return verd
        if verd.status == "unknown" and stuck is None:
            stuck = verd
        evidence += verd.evidence
    if stuck is not None:
        return stuck
    basis = "bounded" if evidence else "certified"
    return AperiodicityVerdict("aperiodic", depth, tuple(evidence), basis=basis)


def aperiodicity_check(
    g: KGraph, depth: int = 6, vertices: Optional[Iterable[str]] = None
) -> AperiodicityVerdict:
    """Three-valued aperiodicity check with explicit certificates, over the
    given vertices of g, all of them by default. Each vertex is searched
    on its own and the answers are combined by ``combine_verdicts``, so
    ``unknown`` comes only after every vertex has been tried, and names
    the first vertex left unsettled. With vertices given, the verdict
    covers those vertices alone: ``aperiodic`` then says only that each of
    them has a separator, not that g is aperiodic. A vertex's answer
    depends only on (v, H & D(v)) (module docstring), so the sweep asks
    for one vertex at a time and keeps the answer for every quotient of
    that trace. A bad depth or an invalid presentation is refused
    (``check_input``); a valid one with no vertices, such as the quotient
    by H = V, is certified aperiodic."""
    check_input(g, depth)
    vs = g.vertices if vertices is None else vertices
    return combine_verdicts((_vertex_verdict(g, v, depth) for v in vs), depth)
