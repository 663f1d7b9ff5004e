"""Independent brute-force oracles the library is tested against.

Each oracle recomputes a quantity from the definitions, avoiding the
library's search strategies and caches. They are exponential and only
meant for the small corpus graphs.

``regular_action`` multiplies elements as operators: the regular
representation of the boundary-path groupoid at a point, which checks
``kp_mul``. It works on edge words alone and makes no call into the path
kernel (``mce``, ``factorize``, ``compose``, ``paths``,
``boundary_paths``), so a fault there cannot hide in both routes.
"""

import operator
from functools import lru_cache
from itertools import combinations, product

from kpalg import (
    QQ,
    AperiodicityVerdict,
    DerivationStep,
    KGraph,
    NotFoundUpTo,
    Path,
    PeriodicCertificate,
    ReachingCycle,
    SeparationEvidence,
    VertexInfinitenessReport,
    certify_never_separated,
    enumerate_sat_her,
    find_cycle_reaching,
    find_reaching_gen_cycle,
    generator,
    infinite_vertex_from_reaching_cycle,
    orthogonal_witness,
    path_sort_key,
    quotient,
    spanning_term,
    star_generator,
    vertex_unit,
    zero as zero_element,
)
from kpalg.degrees import below, join, total, zero
from kpalg.kpelement import _make
from kpalg.witness import IdealCase, _disjoint_cycle_pair, _finish


@lru_cache(maxsize=1 << 14)
def brute_path_words(g, v, n):
    """Canonical words of degree-n paths with range v, as a frozenset.

    A canonical word is a composable edge sequence, read range to source,
    whose colors never decrease. The DFS extends words at the source end
    one edge at a time, so it never touches the square relations or the
    library's path cache. Memoized by (graph, vertex, degree), since the
    exhaustive searches below ask for the same words many times.
    """
    n = tuple(n)
    out = set()

    def grow(word, at, counts, last_color):
        if counts == n:
            out.add(tuple(word))
            return
        for e in g.edges_by_range(at):
            if e.color < last_color:
                continue
            if counts[e.color - 1] >= n[e.color - 1]:
                continue
            nxt = list(counts)
            nxt[e.color - 1] += 1
            word.append(e.id)
            grow(word, e.source, tuple(nxt), e.color)
            word.pop()

    grow([], v, tuple(zero(g.k)), 0)
    return frozenset(out)


def canonical_word(g, word):
    """The canonical form of a composable edge word, by bubble sort.

    Adjacent edges of descending colors are rewritten through the square
    relations (``g.square_rev``) until no descent is left; unique
    factorization makes the result independent of the order of the swaps.
    Shares no code with the library's insertion sort.
    """
    w = list(word)
    done = False
    while not done:
        done = True
        for i in range(len(w) - 1):
            if g.edges[w[i]].color > g.edges[w[i + 1]].color:
                w[i], w[i + 1] = g.square_rev[(w[i], w[i + 1])]
                done = False
    return tuple(w)


def brute_factorize(g, p, m):
    """The pair (head, tail) with d(head) = m and head tail = p.

    Tries every path of degree m at r(p) against every path of degree
    d(p) - m at its source, and keeps the pairs whose joined word has p's
    canonical word; unique factorization says there is exactly one.
    """
    rest = tuple(a - b for a, b in zip(p.degree, m))
    found = [
        (head, tail)
        for head in g.paths(p.range, tuple(m))
        for tail in g.paths(head.source, rest)
        if canonical_word(g, head.edges + tail.edges) == p.edges
    ]
    assert len(found) == 1, "%s has %d factorizations at %r" % (p, len(found), m)
    return found[0]


def word_to_path(g, v, word):
    if not word:
        return g.trivial_path(v)
    return g.path_from_edges(list(word))


def brute_mce(g, mu, nu):
    """Minimal common extensions as a set of canonical strings.

    Enumerates every path of the join degree at the shared range vertex
    and keeps the ones extending both inputs, so it is insensitive to how
    mce() builds its candidate set or which fast path it takes.
    """
    if mu.range != nu.range:
        return set()
    m = join(mu.degree, nu.degree)
    found = set()
    for lam in brute_paths(g, mu.range, m):
        if g.factorize(lam, mu.degree)[0] != mu:
            continue
        if g.factorize(lam, nu.degree)[0] != nu:
            continue
        found.add(str(lam))
    return found


def kp_mul_via_mce(a, b):
    """The product of two elements with every term pair through ``g.mce``.

    Each common extension xi = mu alpha = nu beta is split at d(mu) and at
    d(nu) to read alpha and beta off, whatever the degrees of mu and nu,
    so it takes none of ``kp_mul``'s shortcuts for comparable degrees.
    """
    g, fld = a.graph, a.field
    acc = {}
    for (lam, mu), c1 in a.terms:
        for (nu, rho), c2 in b.terms:
            for xi in g.mce(mu, nu):
                alpha = g.factorize(xi, mu.degree)[1]
                beta = g.factorize(xi, nu.degree)[1]
                key = (g.compose(lam, alpha), g.compose(rho, beta))
                acc[key] = acc.get(key, fld.zero) + c1 * c2
    return _make(g, fld, acc)


def vertex_relations(g):
    """s_v - sum of s_e s_e* over the color-i edges e received by v, for
    each (v, i) that receives an edge: zero by (KP4)."""
    out = []
    for v, i in sorted({(e.range, e.color) for e in g.edges.values()}):
        rel = vertex_unit(g, QQ, v)
        for e in g.edges.values():
            if (e.range, e.color) == (v, i):
                p = g.path_from_edges([e.id])
                rel = rel - spanning_term(g, QQ, p, p)
        out.append(rel)
    return out


def brute_sat_her(g):
    """All saturated hereditary vertex sets by filtering every subset."""
    vs = sorted(g.vertices)
    out = set()
    for r in range(len(vs) + 1):
        for sub in combinations(vs, r):
            h = set(sub)
            ok = all(
                g.edges[eid].source in h
                for eid in g.edges
                if g.edges[eid].range in h
            )
            if ok:
                for v in vs:
                    if v in h:
                        continue
                    for c in range(1, g.k + 1):
                        ins = g.edges_by_range(v, c)
                        if ins and all(e.source in h for e in ins):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                out.add(frozenset(h))
    return out


def paths_upto(g, v, n):
    """Every path of degree <= n with range v, degree by degree in
    lexicographic order, from the exact-degree lists of ``g.paths``."""
    return [p for m in below(tuple(n)) for p in g.paths(v, m)]


def brute_boundary_paths(g, v, n):
    """vLambda^{<=n} by its definition, in ``path_sort_key`` order.

    Filters the whole box ``paths_upto(g, v, n)``: a path counts when its
    source receives no edge in any color i with d(p)_i < n_i. Unlike
    ``g.boundary_paths`` it skips no degree and walks no words itself.
    """
    return sorted(
        (
            p
            for p in paths_upto(g, v, n)
            if not any(
                p.degree[i] < n[i] and g.edges_by_range(p.source, i + 1)
                for i in range(g.k)
            )
        ),
        key=path_sort_key,
    )


@lru_cache(maxsize=1 << 12)
def brute_paths(g, v, n):
    """vLambda^n sorted by word, from ``brute_path_words``, as a tuple.
    Memoized, since ``brute_mce`` walks the same boxes again and again."""
    return tuple(word_to_path(g, v, w) for w in sorted(brute_path_words(g, v, n)))


def brute_compose(g, p, q):
    """p q from the joined word, put in canonical form by ``canonical_word``."""
    return word_to_path(g, p.range, canonical_word(g, p.edges + q.edges))


@lru_cache(maxsize=1 << 14)
def brute_contains(g, outer, inner):
    """(holds, boundary paths tried) for Z(inner) inside Z(outer): every
    boundary path tau at s(inner) of the degree slack d(inner) v d(outer) -
    d(inner) leaves inner tau a common extension with outer. Memoized,
    since the searches below ask it again for each pair and region."""
    slack = tuple(max(a, b) - a for a, b in zip(inner.degree, outer.degree))
    taus = brute_boundary_paths(g, inner.source, slack)
    holds = all(brute_mce(g, brute_compose(g, inner, tau), outer) for tau in taus)
    return holds, len(taus)


def _degrees_upto(k, least, most):
    return [n for n in product(range(most + 1), repeat=k) if least <= sum(n) <= most]


@lru_cache(maxsize=1 << 14)
def brute_entrance(g, mu, nu, depth):
    """The entrance of (mu, nu) that comes first in ``path_sort_key``
    order among the paths tau at s(nu) of total degree 1 to depth, or
    None: the first tau for which mu and nu tau have no common extension.
    Memoized, since the regions of one vertex share their candidates."""
    taus = sorted(
        (
            tau
            for n in _degrees_upto(g.k, 1, depth)
            for tau in brute_paths(g, nu.source, n)
        ),
        key=path_sort_key,
    )
    escaping = (t for t in taus if not brute_mce(g, mu, brute_compose(g, nu, t)))
    return next(escaping, None)


def brute_connector_lengths(g, v):
    """For each vertex w that reaches v, the least total degree of a path
    in vLambda w. A shortest one repeats no vertex, so totals below the
    vertex count suffice."""
    out = {}
    for n in sorted(_degrees_upto(g.k, 0, len(g.vertices) - 1), key=sum):
        for p in brute_paths(g, v, n):
            out.setdefault(p.source, sum(n))
    return out


def brute_reaching_gen_cycle(g, v, depth):
    """What ``find_reaching_gen_cycle`` must report, as a tuple.

    Lists the candidates (mu, nu) of each total degree s in turn: distinct
    paths of total degree 1 to depth with a common range and a common
    source reaching v. Sorts them by degree pair, range vertex and the two
    words, and takes the first generalized cycle with an entrance:
    ``("hit", mu, nu, tau, v, s(mu), least connector total)``. Without
    one, ``("miss", depth, detail)`` counts the generalized cycles without
    an entrance.
    """
    reach = brute_connector_lengths(g, v)
    degs = _degrees_upto(g.k, 1, depth)
    without = 0
    for s in range(2, 2 * depth + 1):
        cands = sorted(
            (dm, dn, i, mu.edges, nu.edges, mu, nu)
            for i, u in enumerate(g.vertices)
            for dm in degs
            for dn in degs
            if sum(dm) + sum(dn) == s
            for mu in brute_paths(g, u, dm)
            if mu.source in reach
            for nu in brute_paths(g, u, dn)
            if nu.source == mu.source and nu != mu
        )
        for *_, mu, nu in cands:
            if not brute_contains(g, nu, mu)[0]:
                continue
            tau = brute_entrance(g, mu, nu, depth)
            if tau is None:
                without += 1
                continue
            return ("hit", mu, nu, tau, v, mu.source, reach[mu.source])
    detail = ""
    if without:
        detail = "found %d generalized cycle(s) but none with an entrance" % without
    return ("miss", depth, detail)


def brute_contraction(g, kappa, depth):
    """What ``locally_contracting_on`` must report, as a tuple.

    Lists the candidates (mu, nu) of each total degree s up to 2 depth in
    turn: distinct paths with range r(kappa), a common source and total
    degrees at least 1, with Z(nu) inside Z(kappa). Sorts them by degree
    pair and the words of nu and mu, and takes the first generalized cycle
    with an entrance: ``("hit", nu, mu, tau, kappa, boundary paths
    tried)``. Without one, ``("miss", depth, detail)`` counts the
    candidates. ``brute_contains`` is memoized, so whether Z(nu) lies
    inside Z(kappa) is decided once per nu, not once per (mu, nu), and the
    regions at one vertex share their tests of Z(mu) inside Z(nu).
    """
    v = kappa.range
    degs = _degrees_upto(g.k, 1, 2 * depth - 1)
    checked = 0
    for s in range(2, 2 * depth + 1):
        cands = sorted(
            (dm, dn, nu.edges, mu.edges, mu, nu)
            for dm in degs
            for dn in degs
            if sum(dm) + sum(dn) == s
            for nu in brute_paths(g, v, dn)
            for mu in brute_paths(g, v, dm)
            if mu.source == nu.source and mu != nu
        )
        for *_, mu, nu in cands:
            inside, tried = brute_contains(g, kappa, nu)
            if not inside:
                continue
            checked += 1
            if not brute_contains(g, nu, mu)[0]:
                continue
            tau = brute_entrance(g, mu, nu, depth)
            if tau is not None:
                return ("hit", nu, mu, tau, kappa, tried)
    return ("miss", depth, "checked %d candidate pairs inside Z(%s)" % (checked, kappa))


def _source(g, r, word):
    # s(x) of the point with range r and word
    return g.edges[word[-1]].source if word else r


@lru_cache(maxsize=1 << 8)
def _received(g):
    # the (vertex, color) pairs that receive an edge
    return frozenset((e.range, e.color) for e in g.edges.values())


def _word_degree(g, word):
    n = [0] * g.k
    for eid in word:
        n[g.edges[eid].color - 1] += 1
    return tuple(n)


@lru_cache(maxsize=1 << 16)
def _canonical(g, word):
    return canonical_word(g, word)


@lru_cache(maxsize=1 << 12)
def _tails(g, mu, v, n):
    # {canonical_word(mu t): t} over the words t of degree n at s(mu), for
    # the word mu with range v
    return {_canonical(g, mu + t): t for t in brute_path_words(g, _source(g, v, mu), n)}


def regular_action(g, elements, point):
    """pi_x(e_1) ... pi_x(e_n) delta_x for the point x = (range, word), as
    ``{(range, word, shift): coefficient}`` with the zero coefficients left
    out: the regular representation of the boundary-path groupoid on the
    arrows with source x, read on a truncation of x.

    A basis vector is a point word and its accumulated shift. The term
    (lam, mu), the indicator of Z(lam*mu), sends a point mu tau to lam tau
    and adds d(lam) - d(mu) to the shift; tau is read off the table of
    canonical_word(mu t) -> t over every word t of degree d(x) - d(mu). A
    point shorter than mu in some color decides Z(mu) only when its source
    receives no edge of that color, so that no boundary point it truncates
    is longer there; any other short point is refused with ValueError.

    Works on edge words alone, from ``brute_path_words``,
    ``canonical_word``, ``g.edges`` and ``g.square_rev``: no ``mce``,
    ``factorize``, ``compose``, ``paths`` or ``boundary_paths``. Since f(gamma)
    is the coefficient of delta_gamma in pi_{s(gamma)}(f) delta_{s(gamma)},
    two elements are equal exactly when they act alike at every point.
    """
    return _act(g, [_operator(el) for el in elements], point, elements[0].field)


def _operator(el):
    # the terms (lam, mu) of el, keyed for the action as {r(mu): {d(mu):
    # {word of mu: [(lam, d(lam) - d(mu), coefficient)]}}}
    out = {}
    for (lam, mu), c in el.terms:
        moved = tuple(a - b for a, b in zip(lam.degree, mu.degree))
        heads = out.setdefault(mu.range, {}).setdefault(mu.degree, {})
        heads.setdefault(mu.edges, []).append((lam, moved, c))
    return out


def _act(g, operators, point, field):
    # regular_action with each element's terms keyed by _operator
    received = _received(g)
    vec = {(point[0], tuple(point[1]), zero(g.k)): field.one}
    for op in reversed(operators):
        out = {}
        for (r, word, shift), c in vec.items():
            d = _word_degree(g, word)
            for m, by_head in op.get(r, {}).items():
                rest = tuple(map(operator.sub, d, m))
                if min(rest) < 0:
                    src = _source(g, r, word)
                    if any((src, i + 1) in received for i, n in enumerate(rest) if n < 0):
                        mu = next(iter(by_head))
                        raise ValueError(
                            "point %s too short to decide Z(%s)"
                            % (".".join(word) or r, ".".join(mu) or r)
                        )
                    continue
                for mu, terms in by_head.items():
                    tail = _tails(g, mu, r, rest).get(word)
                    if tail is None:
                        continue
                    for lam, moved, c2 in terms:
                        key = (
                            lam.range,
                            _canonical(g, lam.edges + tail),
                            tuple(map(operator.add, shift, moved)),
                        )
                        out[key] = out.get(key, field.zero) + c2 * c
        vec = {key: c for key, c in out.items() if c}
    return vec


@lru_cache(maxsize=1 << 12)
def _extensions(g, mu, n):
    # the points mu tau of boundary_points for one leg mu
    received = _received(g)
    out = []
    for m in below(n):
        slack = [i + 1 for i in range(g.k) if m[i] < n[i]]
        for t in brute_path_words(g, mu.source, m):
            src = _source(g, mu.source, t)
            if not any((src, i) in received for i in slack):
                out.append((mu.range, _canonical(g, mu.edges + t)))
    return out


def boundary_points(g, legs, n):
    """The points mu tau, as (range, canonical word), for each path mu of
    legs and each boundary path tau at s(mu) of degree <= n by definition:
    a word of ``brute_path_words`` whose source receives no edge of a color
    i with d(tau)_i < n_i. The points of one leg partition its cylinder."""
    return sorted({x for mu in set(legs) for x in _extensions(g, mu, tuple(n))})


def first_disagreement(g, lhs, rhs, points):
    """The first of the points at which the products of the element lists
    lhs and rhs act differently by ``regular_action``, or None."""
    field = lhs[0].field
    left, right = [_operator(el) for el in lhs], [_operator(el) for el in rhs]
    for x in points:
        if _act(g, left, x, field) != _act(g, right, x, field):
            return x
    return None


def brute_comparable_pairs(g, v, depth):
    """The comparable pairs at v up to the depth: distinct paths with
    source v, a common range and different degrees, of total degree at
    most depth, range by range in vertex order and in ``path_sort_key``
    order within a range."""
    pairs = []
    for u in g.vertices:
        ps = sorted(
            (
                p
                for n in below((depth,) * g.k)
                if total(n) <= depth
                for p in g.paths(u, n)
                if p.source == v
            ),
            key=path_sort_key,
        )
        pairs += [(a, b) for a, b in combinations(ps, 2) if a.degree != b.degree]
    return pairs


def heads_differ(g, a, b, x):
    """Whether a x and b x differ in their prefixes at the meet of their
    degrees: ``splits`` without its maximal clause."""
    ax, bx = g.compose(a, x), g.compose(b, x)
    m = tuple(min(i, j) for i, j in zip(ax.degree, bx.degree))
    return g.factorize(ax, m)[0] != g.factorize(bx, m)[0]


def splits(g, a, b, x):
    """Whether composing with x tells a and b apart, written out here
    rather than taken from ``kpalg.separates``: a x and b x differ in their
    prefixes at the meet of their degrees, or x is maximal (its source
    receives no edge) and their degrees differ."""
    if heads_differ(g, a, b, x):
        return True
    return a.degree != b.degree and not g.edges_by_range(x.source)


def box_separator(g, a, b, n):
    """The first path of ``brute_boundary_paths(g, s(a), n)`` that
    separates (a, b) by ``splits``, or None."""
    box = brute_boundary_paths(g, a.source, n)
    return next((x for x in box if splits(g, a, b, x)), None)


def strip_scan_certificate(g, v, depth):
    """The periodic certificate at v by the strip-based scan, the rule of
    ``aperiodicity._periodic_certificate`` before it read the degree-class
    join: both must certify at the same vertices, and on one vertex name
    the same pair. It is the first pair (a, b) of
    ``brute_comparable_pairs`` whose prefixes at the meet of their degrees
    agree, whose tails there have equal heads at d(x) once composed with
    the first path x of ``brute_boundary_paths``, and whose tails
    ``certify_never_separated`` certifies; None if no pair is certified.
    Every pair is stripped, and every head split off a built composite."""
    box = brute_boundary_paths(g, v, (depth + 1,) * g.k)
    x = box[0]
    for a, b in brute_comparable_pairs(g, v, depth):
        w = tuple(map(min, a.degree, b.degree))
        (ha, ta), (hb, tb) = g.factorize(a, w), g.factorize(b, w)
        if ha != hb:
            continue
        if g.factorize(g.compose(ta, x), x.degree)[0] != g.factorize(g.compose(tb, x), x.degree)[0]:
            continue
        states = certify_never_separated(g, ta, tb)
        if states is not None:
            return PeriodicCertificate(a, b, v, len(box), states)
    return None


def aperiodicity_exhaustive(g, depth):
    """Aperiodicity by exhaustive search, the verdict aperiodicity_check
    must reproduce exactly.

    Takes every boundary path of degree <= (depth+1, ..., depth+1) from
    ``brute_boundary_paths``, in order, and tries each by ``splits``
    against every comparable pair: distinct paths with source v, a common
    range and different degrees, of total degree <= depth. With no
    separator, the pairs whose degrees meet in 0 and that no candidate
    separates are offered to certify_never_separated in pair order.
    ``unknown`` comes only after every vertex has been tried, and names
    the first vertex left unsettled.
    """
    cap = (depth + 1,) * g.k
    evidence = []
    stuck = None
    for v in g.vertices:
        candidates = brute_boundary_paths(g, v, cap)
        pairs = brute_comparable_pairs(g, v, depth)
        winner = next(
            (x for x in candidates if all(splits(g, a, b, x) for a, b in pairs)),
            None,
        )
        if winner is not None:
            evidence.append(SeparationEvidence(v, winner, len(pairs)))
            continue
        for a, b in pairs:
            if any(map(min, a.degree, b.degree)):
                continue
            if any(splits(g, a, b, x) for x in candidates):
                continue
            states = certify_never_separated(g, a, b)
            if states is not None:
                cert = PeriodicCertificate(a, b, v, len(candidates), states)
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
    # a search found the separators; only an empty graph is aperiodic outright
    basis = "certified" if not g.vertices else "bounded"
    return AperiodicityVerdict("aperiodic", depth, tuple(evidence), basis=basis)


def reaching(g, v):
    """D(v), the vertices with a path to v, as a fixpoint over the edges."""
    out = {v}
    while True:
        more = {e.source for e in g.edges.values() if e.range in out} - out
        if not more:
            return out
        out |= more


def brute_traces(g, v):
    """closure(H & D(v)) for every saturated hereditary H avoiding v, in
    lattice order; the lattice is ``brute_sat_her`` and the closure of T
    the meet of its sets containing T."""
    lattice = brute_sat_her(g)
    reach = reaching(g, v)
    out = set()
    for h in lattice:
        if v not in h:
            t = h & reach
            out.add(frozenset.intersection(*[m for m in lattice if t <= m]))
    return sorted((tuple(sorted(h)) for h in out), key=lambda h: (len(h), h))


def orthogonal_splitting(g, w, mu1, mu2, fld=QQ):
    """The ProperlyInfinite certificate for s_w from two cycles mu1, mu2 at
    w with no common extension: s_w = s_mu_i* (s_mu_i s_mu_i*) s_mu_i for
    two orthogonal corners."""
    return orthogonal_witness(
        vertex_unit(g, fld, w),
        spanning_term(g, fld, mu1, mu1),
        spanning_term(g, fld, mu2, mu2),
        star_generator(g, fld, mu1),
        generator(g, fld, mu1),
        star_generator(g, fld, mu2),
        generator(g, fld, mu2),
    )


def strict_copy(cert):
    """The Infinite certificate for p split off a ProperlyInfinite one: the
    two rows of A p B = p (+) p give orthogonal copies f_1, f_2 of p below
    p, so f_1 is a strict copy whenever p != 0. The library's routes never
    build it; it rebuilds the chains of tests that start from a splitting."""
    p = cert.target
    a, b = cert.part("A"), cert.part("B")
    z = zero_element(p.graph, p.field)
    c1 = p * a.rows[0][0] * p
    d1 = p * b.rows[0][0] * p
    c2 = p * a.rows[1][0] * p
    d2 = p * b.rows[0][1] * p
    f1, f2 = d1 * c1, d2 * c2
    step = DerivationStep(
        "split-off-copies",
        "the two matrix rows give orthogonal copies of p below p",
        (("c1", c1), ("d1", d1), ("c2", c2), ("d2", d2), ("f2", f2)),
        (
            ("c1 d1 = p", c1 * d1, p),
            ("c2 d2 = p", c2 * d2, p),
            ("c1 d2 = 0", c1 * d2, z),
            ("c2 d1 = 0", c2 * d1, z),
            ("f1 f2 = 0", f1 * f2, z),
        ),
    )
    return _finish(
        "Infinite", p, (("q", f1), ("r", c1), ("s", d1)), cert.derivation, (step,), "strict_copy"
    )


def prove_vertex_from_scratch(g, v, depth, fld=QQ):
    """``prove_vertex_properly_infinite`` per ideal rather than per trace,
    for a graph not certified periodic.

    Enumerates the lattice afresh, builds a fresh quotient for every ideal
    avoiding v, and builds every certificate from scratch in its quotient
    by the same route search. Each case records its ideal's trace
    H & D(v); expanding the library's per-trace cases to every ideal must
    give this report.
    """
    reach = reaching(g, v)
    reaches = tuple(sorted(reach))
    cases = []
    proper = None
    for h in enumerate_sat_her(g).sets:
        if v in h:
            continue
        trace = tuple(sorted(reach.intersection(h)))
        gq = quotient(g, h)
        pair = _disjoint_cycle_pair(gq, v, depth)
        if pair is not None:
            cert_v = infinite_vertex_from_reaching_cycle(gq, pair, fld)
            cases.append(IdealCase(h, "orthogonal-pair", cert_v, trace))
            if len(h) == 0 and pair.gamma.is_trivial:
                proper = orthogonal_splitting(gq, v, pair.cycle.mu, pair.cycle.entrance, fld)
            continue
        rc = find_reaching_gen_cycle(gq, v, depth)
        if isinstance(rc, ReachingCycle):
            cert_v = infinite_vertex_from_reaching_cycle(gq, rc, fld)
            cases.append(IdealCase(h, "generalized-cycle", cert_v, trace))
            continue
        if find_cycle_reaching(gq, v) is None:
            return VertexInfinitenessReport(
                v,
                "Negative",
                tuple(cases),
                proper,
                "no cycle reaches %s in the quotient by {%s}; that corner is "
                "finite dimensional, so its vertex idempotent cannot be infinite"
                % (v, ", ".join(h)),
                h,
                reaches,
            )
        detail = rc.detail if isinstance(rc, NotFoundUpTo) else ""
        return VertexInfinitenessReport(
            v,
            "Inconclusive",
            tuple(cases),
            proper,
            "no witness found in the quotient by {%s} within depth %d%s"
            % (", ".join(h), depth, ("; " + detail) if detail else ""),
            h,
            reaches,
        )
    return VertexInfinitenessReport(
        v, "ProperlyInfinite", tuple(cases), proper, reaches=reaches
    )
