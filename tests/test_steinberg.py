"""Groupoid function model: bisections, convolution, contraction search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import NAMES, RANDOM_GRAPHS, build
from kpalg import (
    CylinderBisection,
    KP,
    KGraphError,
    NotFoundUpTo,
    QQ,
    bouquet,
    compose_bisections,
    convolve,
    equals,
    grid,
    kp_mul,
    locally_contracting_on,
)
from oracles import (
    apply_bisection,
    apply_family,
    boundary_test_points,
    brute_contraction,
    paths_upto,
    vertex_relations,
)


def test_bisection_needs_common_source():
    g = build("single_edge")
    with pytest.raises(KGraphError):
        CylinderBisection(g, g.path_from_edges(["e"]), g.trivial_path("v"))


def test_bisection_str():
    g = bouquet(2)
    b = CylinderBisection(g, g.path_from_edges(["a"]), g.path_from_edges(["a", "b"]))
    assert str(b) == "Z(a*a.b)"


def test_compose_bisections_matches_point_action():
    graphs = ["e2", "flip_loop_pair", "t2", "omega11"]
    cap = (2,) * 3
    for name in graphs:
        g = build(name)
        pool = []
        for v in g.vertices:
            for lam in paths_upto(g, v, (1,) * g.k):
                for mu in paths_upto(g, v, (1,) * g.k):
                    if lam.source == mu.source:
                        pool.append(CylinderBisection(g, lam, mu))
        pool = pool[:12]
        for b in pool:
            for c in pool:
                fam = compose_bisections(b, c)
                for x in boundary_test_points(g, c, cap[: g.k]):
                    via_def = apply_bisection(g, c, x)
                    if via_def is not None:
                        via_def = apply_bisection(g, b, via_def)
                    assert apply_family(g, fam, x) == via_def, (name, b, c, x)


def test_compose_with_inverse_is_range_projection():
    g = bouquet(2)
    lam = g.path_from_edges(["a"])
    mu = g.path_from_edges(["b", "a"])
    b = CylinderBisection(g, lam, mu)
    out = compose_bisections(b, CylinderBisection(g, mu, lam))
    assert len(out) == 1
    assert out[0].lam == lam and out[0].mu == lam


def test_disjoint_sources_compose_to_nothing():
    g = bouquet(2)
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    assert compose_bisections(
        CylinderBisection(g, a, a), CylinderBisection(g, b, b)
    ) == []


def test_function_model_identifies_reconstruction():
    # s_v and s_a s_a* + s_b s_b* are one function on the groupoid, so they
    # convolve alike with every element; s_a s_a* alone does not
    g = build("e2")
    kp = KP(g, QQ)
    a, b = kp.path("a"), kp.path("b")
    unit, cover = kp.s("v"), kp.term(a, a) + kp.term(b, b)
    for x in [kp.s(a), kp.star(b), kp.term(a, b) - 2 * kp.star(b)]:
        assert equals(convolve(unit, x), convolve(cover, x))
        assert equals(convolve(x, unit), convolve(x, cover))
    assert not equals(convolve(kp.term(a, a), kp.s(b)), convolve(unit, kp.s(b)))


def test_convolution_agrees_with_algebra_product():
    # generators, then sums of spanning terms: random sums, their sums and
    # differences, and the vertex relations, zero by (KP4), whose products
    # cancel coefficients
    rng = random.Random(2014)
    coefs = [QQ.of(c) for c in (-2, -1, 1, 2)]
    for name in ["e2", "t2", "flip_loop_pair", "prod_b2_b2", "rsq2"]:
        g = build(name)
        kp = KP(g, QQ)
        gens = [kp.s("v" if g.has_vertex("v") else list(g.vertices)[0])]
        for eid in sorted(g.edges)[:3]:
            p = g.path_from_edges([eid])
            gens.append(kp.s(p))
            gens.append(kp.star(p))
        terms = [
            (lam, mu)
            for v in g.vertices
            for lam in paths_upto(g, v, (1,) * g.k)
            for mu in paths_upto(g, v, (1,) * g.k)
            if lam.source == mu.source
        ]

        def random_sum():
            acc = kp.zero()
            for lam, mu in rng.sample(terms, 3):
                acc = acc + kp.term(lam, mu, rng.choice(coefs))
            return acc

        sums = vertex_relations(g)
        for _ in range(6):
            x, y = random_sum(), random_sum()
            sums += [x, x + y, x - y]
        for elements in (gens, sums):
            for x in elements:
                for y in elements:
                    assert equals(kp_mul(x, y), convolve(x, y)), (name, x, y)


def test_locally_contracting_on_free_loops():
    g = bouquet(2)
    w = locally_contracting_on(g, g.trivial_path("v"), depth=3)
    assert w
    assert str(w.bisection) == "Z(a*a.a)"
    assert w.cycle.entrance is not None
    assert w.containment.holds


def test_locally_contracting_inside_subcylinder():
    g = bouquet(2)
    w = locally_contracting_on(g, g.path_from_edges(["b"]), depth=3)
    assert w
    assert str(w.bisection) == "Z(b*b.a)"
    # the witness region really sits inside Z(b)
    assert w.region.edges == ("b",)


def test_no_contraction_on_single_loop_or_acyclic():
    g1 = bouquet(1)
    out = locally_contracting_on(g1, g1.trivial_path("v"), depth=3)
    assert isinstance(out, NotFoundUpTo)
    g2 = grid((1, 1))
    out = locally_contracting_on(g2, g2.trivial_path("p00"), depth=3)
    assert isinstance(out, NotFoundUpTo)


def test_contraction_region_must_belong_to_graph():
    g1, g2 = bouquet(2), bouquet(2)
    with pytest.raises(KGraphError, match="different graph"):
        locally_contracting_on(g1, g2.trivial_path("v"), depth=2)


def _contractions(g, depth):
    # locally_contracting_on in the shape of brute_contraction, for every
    # region Z(v) and Z(e), each paired with the oracle's answer
    for v in g.vertices:
        edges = [g.path_from_edges([e.id]) for e in g.edges_by_range(v)]
        for kappa in [g.trivial_path(v)] + edges:
            w = locally_contracting_on(g, kappa, depth)
            if isinstance(w, NotFoundUpTo):
                got = ("miss", w.depth, w.detail)
            else:
                b, c, ev = w.bisection, w.cycle, w.containment
                assert (c.mu, c.nu, ev.holds, ev.failing) == (b.mu, b.lam, True, ())
                got = ("hit", b.lam, b.mu, c.entrance, w.region, ev.checked)
            yield kappa, got, brute_contraction(g, kappa, depth)


@pytest.mark.parametrize("name", NAMES)
def test_locally_contracting_on_matches_oracle_on_corpus(name):
    g = build(name)
    for depth in (1, 2, 3):
        for kappa, got, want in _contractions(g, depth):
            assert got == want, (kappa, depth)


@settings(max_examples=40, deadline=None)
@given(g=RANDOM_GRAPHS, depth=st.integers(1, 3))
def test_locally_contracting_on_matches_oracle_on_random_graphs(g, depth):
    for kappa, got, want in _contractions(g, depth):
        assert got == want, kappa
