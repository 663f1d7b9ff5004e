"""Groupoid function model: the regular representation as the check on
products."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import RANDOM_GRAPHS, build
from kpalg import (
    KGraph,
    QQ,
    generator,
    kp_mul,
    spanning_term,
    star_generator,
    vertex_unit,
    zero,
)
from oracles import (
    boundary_points,
    first_disagreement,
    paths_upto,
    regular_action,
    vertex_relations,
)


def _legs(*elements):
    return [mu for el in elements for (_, mu), _ in el.terms]


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
