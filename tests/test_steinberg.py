"""Groupoid function model: bisections, convolution, contraction search."""

import pytest

from corpus import build
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
    from_steinberg,
    grid,
    kp_mul,
    locally_contracting_on,
    to_steinberg,
)
from oracles import apply_bisection, apply_family, boundary_test_points, paths_upto


def test_bisection_needs_common_source():
    g = build("single_edge")
    with pytest.raises(KGraphError):
        CylinderBisection(g, g.path_from_edges(["e"]), g.trivial_path("v"))


def test_bisection_shift_and_str():
    g = bouquet(2)
    b = CylinderBisection(g, g.path_from_edges(["a"]), g.path_from_edges(["a", "b"]))
    assert b.shift == (-1,)
    assert str(b) == "Z(a*a.b)"
    assert b.invert().shift == (1,)


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
    out = compose_bisections(b, b.invert())
    assert len(out) == 1
    assert out[0].lam == lam and out[0].mu == lam


def test_disjoint_sources_compose_to_nothing():
    g = bouquet(2)
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    assert compose_bisections(
        CylinderBisection(g, a, a), CylinderBisection(g, b, b)
    ) == []


def test_round_trip_through_function_model():
    g = build("e2")
    kp = KP(g, QQ)
    a, b = kp.path("a"), kp.path("b")
    for x in [kp.s("v"), kp.s(a), kp.term(a, b) - 2 * kp.star(b)]:
        assert equals(from_steinberg(to_steinberg(x)), x)


def test_function_model_identifies_reconstruction():
    g = build("e2")
    kp = KP(g, QQ)
    a, b = kp.path("a"), kp.path("b")
    lhs = to_steinberg(kp.s("v"))
    rhs = to_steinberg(kp.term(a, a) + kp.term(b, b))
    assert (lhs - rhs).is_zero()
    assert not (lhs - to_steinberg(kp.term(a, a))).is_zero()


def test_convolution_agrees_with_algebra_product():
    for name in ["e2", "t2", "flip_loop_pair"]:
        g = build(name)
        kp = KP(g, QQ)
        gens = [kp.s("v" if g.has_vertex("v") else list(g.vertices)[0])]
        for eid in sorted(g.edges)[:3]:
            p = g.path_from_edges([eid])
            gens.append(kp.s(p))
            gens.append(kp.star(p))
        for x in gens:
            for y in gens:
                direct = to_steinberg(kp_mul(x, y))
                dual = convolve(to_steinberg(x), to_steinberg(y))
                assert (direct - dual).is_zero(), (name, x, y)


def test_steinberg_linear_ops():
    g = build("e2")
    kp = KP(g, QQ)
    f = to_steinberg(kp.s(kp.path("a")))
    assert (f - f).is_zero()
    assert (f + f - f.scale(QQ.of(2))).is_zero()
    assert (-f + f).is_zero()


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
