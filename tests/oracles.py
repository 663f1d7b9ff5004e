"""Independent brute-force oracles the library is tested against.

Each oracle recomputes a quantity from the definitions, avoiding the
library's search strategies and caches. They are exponential and only
meant for the small corpus graphs.
"""

from itertools import combinations

from kpalg import (
    QQ,
    AperiodicityVerdict,
    CylinderBisection,
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
    infinite_vertex_from_reaching_cycle,
    path_sort_key,
    quotient,
    separates,
    spanning_term,
    vertex_unit,
)
from kpalg.degrees import below, join, leq, total, zero
from kpalg.kpelement import _make
from kpalg.witness import IdealCase, _disjoint_cycle_pair, _vertex_cert_via_orthogonal


def brute_path_words(g, v, n):
    """Canonical words of degree-n paths with range v.

    A canonical word is a composable edge sequence, read range to source,
    whose colors never decrease. The DFS extends words at the source end
    one edge at a time, so it never touches the square relations or the
    library's path cache.
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
    return out


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
    for word in brute_path_words(g, mu.range, m):
        lam = word_to_path(g, mu.range, word)
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


def apply_bisection(g, b, x):
    """Point action of Z(lam*mu) on a path x, or None off the source set.

    x represents the cylinder point it truncates; when x = mu.tau the
    image point is lam.tau.
    """
    if not leq(b.mu.degree, x.degree) or x.range != b.mu.range:
        return None
    head, tail = g.factorize(x, b.mu.degree)
    if head != b.mu:
        return None
    return g.compose(b.lam, tail)


def apply_family(g, bisections, x):
    """Action of a disjoint family; asserts at most one member moves x."""
    hits = [y for b in bisections if (y := apply_bisection(g, b, x)) is not None]
    assert len(hits) <= 1, "bisection family is not disjoint"
    return hits[0] if hits else None


def boundary_test_points(g, b, extra):
    """Boundary truncations long enough to exercise the bisection b.

    Points are x = mu.tau with tau a boundary path of degree <= extra
    from s(mu); dead-short truncations are genuine boundary points, so
    the action on them is exact.
    """
    return [g.compose(b.mu, tau) for tau in g.boundary_paths(b.mu.source, extra)]


def aperiodicity_exhaustive(g, depth):
    """Aperiodicity by exhaustive search, the verdict aperiodicity_check
    must reproduce exactly.

    Takes every boundary path of degree <= (depth+1, ..., depth+1) from
    ``brute_boundary_paths``, in order, and tries each against every
    comparable pair: distinct paths with source v, a common range and
    different degrees, of total degree <= depth. With no separator, the
    pairs no candidate separates are offered to certify_never_separated
    in pair order.
    """
    cap = (depth + 1,) * g.k
    evidence = []
    for v in g.vertices:
        candidates = brute_boundary_paths(g, v, cap)
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
            pairs += [
                (a, b) for a, b in combinations(ps, 2) if a.degree != b.degree
            ]
        winner = next(
            (x for x in candidates if all(separates(g, a, b, x) for a, b in pairs)),
            None,
        )
        if winner is not None:
            evidence.append(SeparationEvidence(v, winner, len(pairs)))
            continue
        for a, b in pairs:
            if any(separates(g, a, b, x) for x in candidates):
                continue
            states = certify_never_separated(g, a, b)
            if states is not None:
                cert = PeriodicCertificate(a, b, v, len(candidates), states)
                return AperiodicityVerdict("periodic", depth, (), cert)
        return AperiodicityVerdict(
            "unknown",
            depth,
            note="vertex %s: no single separating boundary path within depth %d"
            % (v, depth),
        )
    return AperiodicityVerdict("aperiodic", depth, tuple(evidence))


def prove_vertex_from_scratch(g, v, depth, fld=QQ):
    """``prove_vertex_properly_infinite`` without a shared quotient table
    or pushed certificates, for a graph not certified periodic.

    Enumerates the lattice afresh, builds a fresh quotient for every ideal
    avoiding v, and builds every certificate from scratch in its quotient
    by the same route search; the report must equal the library's.
    """
    cases = []
    proper = None
    for h in enumerate_sat_her(g).sets:
        if v in h:
            continue
        gq = quotient(g, h)
        pair = _disjoint_cycle_pair(gq, v, depth)
        if pair is not None:
            w, mu1, mu2, gamma = pair
            cert_v, proper_w = _vertex_cert_via_orthogonal(gq, v, w, mu1, mu2, gamma, fld)
            cases.append(IdealCase(h, "orthogonal-pair", cert_v))
            if len(h) == 0 and w == v and proper is None:
                proper = proper_w
            continue
        rc = find_reaching_gen_cycle(gq, v, depth)
        if isinstance(rc, ReachingCycle):
            cert_v = infinite_vertex_from_reaching_cycle(gq, rc, fld)
            cases.append(IdealCase(h, "generalized-cycle", cert_v))
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
        )
    return VertexInfinitenessReport(v, "ProperlyInfinite", tuple(cases), proper)
