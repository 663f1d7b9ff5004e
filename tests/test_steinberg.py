"""Groupoid function model: bisections, the regular representation as the
check on products, contraction search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import NAMES, RANDOM_GRAPHS, build
from kpalg import (
    CylinderBisection,
    KGraph,
    KGraphError,
    NotFoundUpTo,
    QQ,
    bouquet,
    generator,
    grid,
    kp_mul,
    locally_contracting_on,
    spanning_term,
    star_generator,
    vertex_unit,
    zero,
)
from oracles import (
    boundary_points,
    brute_contraction,
    first_disagreement,
    paths_upto,
    regular_action,
    vertex_relations,
)


def _legs(*elements):
    return [mu for el in elements for (_, mu), _ in el.terms]


def test_bisection_needs_common_source():
    g = build("single_edge")
    with pytest.raises(KGraphError):
        CylinderBisection(g, g.path_from_edges(["e"]), g.trivial_path("v"))


def test_bisection_str():
    g = bouquet(2)
    b = CylinderBisection(g, g.path_from_edges(["a"]), g.path_from_edges(["a", "b"]))
    assert str(b) == "Z(a*a.b)"


def test_function_model_identifies_reconstruction():
    # s_v and s_a s_a* + s_b s_b* are one function on the groupoid, so they
    # act alike at every point, before or after any element; s_a s_a*
    # alone does not
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    unit, cover = vertex_unit(g, QQ, "v"), spanning_term(g, QQ, a, a) + spanning_term(g, QQ, b, b)
    points = boundary_points(g, [g.trivial_path("v")], (2,))
    sb_star = star_generator(g, QQ, b)
    for x in [generator(g, QQ, a), sb_star, spanning_term(g, QQ, a, b) - 2 * sb_star]:
        assert first_disagreement(g, [unit, x], [cover, x], points) is None
        assert first_disagreement(g, [x, unit], [x, cover], points) is None
    sb = generator(g, QQ, b)
    lone = first_disagreement(g, [spanning_term(g, QQ, a, a), sb], [unit, sb], points)
    assert lone is not None


def test_kp_mul_agrees_with_the_regular_action():
    # generators, then sums of spanning terms: random sums, their sums and
    # differences, and the vertex relations, zero by (KP4), whose products
    # cancel coefficients. The product acts on a point as its factors do;
    # the points are the source legs of the right factor and of the
    # product, extended by the boundary paths of degree <= (2,...,2)
    rng = random.Random(2014)
    coefs = [QQ.of(c) for c in (-2, -1, 1, 2)]
    for name in ["e2", "t2", "flip_loop_pair", "prod_b2_b2", "rsq2"]:
        g = build(name)
        gens = [vertex_unit(g, QQ, "v" if g.has_vertex("v") else list(g.vertices)[0])]
        for eid in sorted(g.edges)[:3]:
            p = g.path_from_edges([eid])
            gens.append(generator(g, QQ, p))
            gens.append(star_generator(g, QQ, p))
        terms = [
            (lam, mu)
            for v in g.vertices
            for lam in paths_upto(g, v, (1,) * g.k)
            for mu in paths_upto(g, v, (1,) * g.k)
            if lam.source == mu.source
        ]

        def random_sum():
            acc = zero(g, QQ)
            for lam, mu in rng.sample(terms, 3):
                acc = acc + spanning_term(g, QQ, lam, mu).scale(rng.choice(coefs))
            return acc

        sums = vertex_relations(g)
        for _ in range(6):
            x, y = random_sum(), random_sum()
            sums += [x, x + y, x - y]
        for elements in (gens, sums):
            for x in elements:
                for y in elements:
                    xy = kp_mul(x, y)
                    points = boundary_points(g, _legs(y, xy), (2,) * g.k)
                    assert first_disagreement(g, [xy], [x, y], points) is None, (name, x, y)


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS, data=st.data())
def test_products_act_as_their_factors_on_random_graphs(g, data):
    # random sums of spanning terms with legs of degree <= (1,...,1), and
    # the (KP4) elements, on periodic graphs too, where one point meets
    # itself at another shift. Every leg of a product of n such factors
    # has degree <= (n,...,n), and n factors applied in turn shorten a
    # point by at most that much, so the boundary paths of degree
    # <= (n,...,n) decide every cylinder met
    terms = [
        (lam, mu)
        for v in g.vertices
        for lam in paths_upto(g, v, (1,) * g.k)
        for mu in paths_upto(g, v, (1,) * g.k)
        if lam.source == mu.source
    ]
    coef = st.sampled_from([QQ.of(c) for c in (-2, -1, 1, 2)])
    spanning = st.lists(st.tuples(st.sampled_from(terms), coef), min_size=1, max_size=3).map(
        lambda ts: sum(
            (spanning_term(g, QQ, lam, mu).scale(c) for (lam, mu), c in ts), zero(g, QQ)
        )
    )
    relations = vertex_relations(g)
    elements = (spanning | st.sampled_from(relations)) if relations else spanning
    a, b, c = (data.draw(elements) for _ in range(3))
    vertices = [g.trivial_path(v) for v in g.vertices]
    pair = boundary_points(g, vertices, (2,) * g.k)
    assert first_disagreement(g, [kp_mul(a, b)], [a, b], pair) is None
    triple = boundary_points(g, vertices, (3,) * g.k)
    for abc in (kp_mul(kp_mul(a, b), c), kp_mul(a, kp_mul(b, c))):
        assert first_disagreement(g, [abc], [a, b, c], triple) is None


def test_regular_action_makes_no_kernel_call(monkeypatch):
    # the products and the elements are built first; the points and the
    # action then run with the path kernel patched to raise
    for name in ["e2", "flip_loop_pair", "rsq2", "chain3"]:
        g = build(name)
        terms = [
            spanning_term(g, QQ, lam, mu)
            for v in g.vertices
            for lam in paths_upto(g, v, (1,) * g.k)
            for mu in paths_upto(g, v, (1,) * g.k)
            if lam.source == mu.source
        ]
        a, b = sum(terms[::2], zero(g, QQ)), sum(terms[1::2], zero(g, QQ))
        ab = kp_mul(a, b)
        legs = _legs(b, ab)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the path kernel")

        for f in ("mce", "factorize", "compose", "paths", "boundary_paths"):
            monkeypatch.setattr(KGraph, f, refuse)
        points = boundary_points(g, legs, (2,) * g.k)
        acted = [regular_action(g, [a, b], x) for x in points]
        bad = first_disagreement(g, [ab], [a, b], points)
        monkeypatch.undo()
        assert any(acted) and bad is None, name


def test_regular_action_refuses_a_point_too_short():
    # in e2 every vertex receives an edge, so the point v cannot tell
    # whether it lies in Z(a); in single_edge the point w receives none,
    # so every boundary point it truncates is w itself, outside Z(e)
    g = build("e2")
    with pytest.raises(ValueError, match="too short"):
        regular_action(g, [star_generator(g, QQ, g.path_from_edges(["a"]))], ("v", ()))
    h = build("single_edge")
    e = h.path_from_edges(["e"])
    assert regular_action(h, [spanning_term(h, QQ, e, e)], ("w", ())) == {}
    got = regular_action(h, [star_generator(h, QQ, e)], ("v", ("e",)))
    assert got == {("w", (), (-1,)): QQ.one}


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
