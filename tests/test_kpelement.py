"""Exact symbolic arithmetic in the path algebra over a chosen field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, build
from oracles import kp_mul_via_mce, vertex_relations
from kpalg import (
    KP,
    AlgebraError,
    KGraph,
    KPElement,
    PrimeField,
    QQ,
    as_matrix,
    bouquet,
    column,
    equals,
    generator,
    grid,
    is_idempotent,
    kp_mul,
    matrix_equals,
    normal_form,
    oplus,
    random_square_graph,
    row,
    spanning_term,
    star_generator,
    subidempotent_verify,
    torus,
    vertex_unit,
    zero,
)
from kpalg.degrees import below, leq, total


def algebra(name="e2"):
    return KP(build(name), QQ)


# -- defining relations --------------------------------------------------------


def test_vertex_idempotents_are_orthogonal():
    kp = algebra("single_edge")
    pv, pw = kp.s("v"), kp.s("w")
    assert equals(pv * pv, pv)
    assert (pv * pw).is_zero()
    assert is_idempotent(pv + pw)


def test_generators_compose_along_paths():
    kp = algebra()
    sa, sb = kp.s(kp.path("a")), kp.s(kp.path("b"))
    assert equals(sa * sb, kp.s(kp.path("a", "b")))
    assert equals(kp.s("v") * sa, sa)
    assert equals(sa * kp.s("v"), sa)


def test_star_relations_contract_to_source():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    assert equals(kp.star(a) * kp.s(a), kp.s("v"))
    assert (kp.star(a) * kp.s(b)).is_zero()


def test_mixed_product_uses_common_extensions():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    # (s_a s_b*)(s_b s_a*) = s_a s_a*
    left = kp.term(a, b) * kp.term(b, a)
    assert equals(left, kp.term(a, a))


def test_star_product_on_torus_refactors():
    g = torus(2)
    kp = KP(g, QQ)
    e, f = kp.path("e"), kp.path("f")
    # s_e* s_f = s_f s_e* after sliding through the commuting square
    got = kp.star(e) * kp.s(f)
    assert equals(got, kp.term(f, e))


def test_reconstruction_at_depth_one():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    total = kp.term(a, a) + kp.term(b, b)
    assert equals(kp.s("v"), total)
    assert normal_form(kp.s("v") - total).is_zero()


def test_reconstruction_fails_without_full_cover():
    kp = algebra()
    a = kp.path("a")
    assert not equals(kp.s("v"), kp.term(a, a))


# -- ring structure -------------------------------------------------------------


def test_linear_structure_and_scaling():
    kp = algebra()
    a = kp.s(kp.path("a"))
    x = 2 * a - a.scale(QQ.of(1, 2))
    assert x.terms == (((kp.path("a"), kp.vertex("v")), QQ.of(3, 2)),)
    assert (x - x).is_zero()
    assert (0 * x).is_zero()


def test_multiplication_is_associative_on_samples():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    xs = [kp.s(a), kp.star(b), kp.term(a, b) - 2 * kp.s("v"), kp.term(b, a)]
    for x in xs:
        for y in xs:
            for z in xs:
                assert equals(kp_mul(kp_mul(x, y), z), kp_mul(x, kp_mul(y, z)))


def test_incompatible_elements_rejected():
    g1, g2 = bouquet(2), bouquet(2)
    x = vertex_unit(g1, QQ, "v")
    y = vertex_unit(g2, QQ, "v")
    with pytest.raises(AlgebraError):
        kp_mul(x, y)
    z = vertex_unit(g1, PrimeField(5), "v")
    with pytest.raises(AlgebraError):
        x + z


def test_spanning_term_needs_common_source():
    g = build("single_edge")
    e = g.path_from_edges(["e"])
    with pytest.raises(AlgebraError):
        spanning_term(g, QQ, e, g.trivial_path("v"))


def test_normal_form_keeps_degree_shifts_apart():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    # shifts 1, 0, 0 and -1: only s_v is expanded, to the depth of s_a s_b*
    # in its own shift; s_b* keeps depth 0 though s_a has degree 1
    x = kp.s(a) + kp.term(a, b) + kp.s("v") + kp.star(b)
    expanded = kp.s(a) + kp.term(a, b) + kp.term(a, a) + kp.term(b, b) + kp.star(b)
    assert normal_form(x).terms == expanded.terms


# -- products and equality against the definitions ---------------------------------


def _paths_upto_total(g, t):
    return [
        p
        for v in g.vertices
        for n in below((t,) * g.k)
        if total(n) <= t
        for p in g.paths(v, n)
    ]


_GRAPHS = st.one_of(
    st.sampled_from([name for name, _ in CORPUS]).map(build),
    st.builds(random_square_graph, st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3)),
)


def _draw_element(data, g, paths):
    x = zero(g, QQ)
    for _ in range(data.draw(st.integers(0, 3))):
        lam = data.draw(st.sampled_from(paths))
        mu = data.draw(st.sampled_from([p for p in paths if p.source == lam.source]))
        x = x + spanning_term(g, QQ, lam, mu, QQ.of(data.draw(st.integers(-2, 2))))
    return x


@settings(max_examples=100, deadline=None)
@given(g=_GRAPHS, data=st.data())
def test_kp_mul_matches_the_product_through_mce(g, data):
    paths = _paths_upto_total(g, 2)
    a, b = _draw_element(data, g, paths), _draw_element(data, g, paths)
    assert kp_mul(a, b).terms == kp_mul_via_mce(a, b).terms


def test_comparable_legs_need_no_mce(monkeypatch):
    calls = []
    mce = KGraph.mce

    def counted(self, mu, nu):
        calls.append((mu, nu))
        return mce(self, mu, nu)

    monkeypatch.setattr(KGraph, "mce", counted)
    incomparable = 0
    for _, mk in CORPUS:
        g = mk()
        paths = _paths_upto_total(g, 2)
        for mu in paths:
            for nu in paths:
                if mu.range != nu.range:
                    continue
                x, y = star_generator(g, QQ, mu), generator(g, QQ, nu)
                want = kp_mul_via_mce(x, y)
                del calls[:]
                assert kp_mul(x, y).terms == want.terms, (mu, nu)
                if leq(mu.degree, nu.degree) or leq(nu.degree, mu.degree):
                    assert calls == [], (mu, nu)
                else:
                    incomparable += 1
                    assert calls == [(mu, nu)]
    # the counter does see the mce calls that remain
    assert incomparable > 0


def test_equals_sees_through_the_vertex_relations():
    # s_v and the sum of s_e s_e* over the edges of one color it receives
    # are equal with different terms
    for _, mk in CORPUS:
        g = mk()
        for rel in vertex_relations(g):
            (v, _), c = rel.terms[0]
            assert c == QQ.one and not v.edges
            sums = vertex_unit(g, QQ, v.range) - rel
            assert sums.terms != vertex_unit(g, QQ, v.range).terms
            assert equals(vertex_unit(g, QQ, v.range), sums)
            assert normal_form(vertex_unit(g, QQ, v.range) - sums).is_zero()


def test_equals_compares_coefficients_of_the_same_keys():
    kp = algebra()
    a = kp.path("a")
    x, y = kp.s("v") + kp.s(a), kp.s("v") + 2 * kp.s(a)
    assert [k for k, _ in x.terms] == [k for k, _ in y.terms]
    assert not equals(x, y) and not equals(y, x)
    assert equals(x, KPElement(x.graph, x.field, x.terms))


@settings(max_examples=100, deadline=None)
@given(g=_GRAPHS, data=st.data())
def test_equals_agrees_with_normal_form(g, data):
    paths = _paths_upto_total(g, 2)
    a = _draw_element(data, g, paths)
    kind = data.draw(st.sampled_from(["other", "copy", "plus_zero", "rescaled"]))
    if kind == "other":
        b = _draw_element(data, g, paths)
    elif kind == "copy":
        b = KPElement(g, QQ, a.terms)
    elif kind == "plus_zero":
        # add x rel y with rel zero by (KP4): equal, with other terms
        rel = data.draw(st.sampled_from(vertex_relations(g)))
        x, y = _draw_element(data, g, paths), _draw_element(data, g, paths)
        b = a + x * rel * y
    else:
        # the same keys, one coefficient doubled
        i = data.draw(st.integers(0, max(len(a.terms) - 1, 0)))
        b = KPElement(
            g, QQ, tuple((k, 2 * c if j == i else c) for j, (k, c) in enumerate(a.terms))
        )
    got = equals(a, b)
    assert got == normal_form(a - b).is_zero()
    if kind in ("copy", "plus_zero"):
        assert got
    if kind == "rescaled" and a.terms:
        assert not got


def test_prime_field_coefficients():
    g = bouquet(2)
    f2 = PrimeField(2)
    kp = KP(g, f2)
    a = kp.s(kp.path("a"))
    assert (a + a).is_zero()
    assert equals(kp.star(kp.path("a")) * a, kp.s("v"))


# -- normal form ----------------------------------------------------------------


def test_normal_form_is_canonical_for_equal_elements():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    lhs = normal_form(kp.s("v"), target=(1,))
    rhs = normal_form(kp.term(a, a) + kp.term(b, b))
    assert lhs.terms == rhs.terms


def test_normal_form_respects_boundary_on_acyclic():
    g = grid((1, 1))
    kp = KP(g, QQ)
    # p00 splits through its unique boundary square path
    sq = kp.path("e1_00", "e2_10")
    assert equals(kp.s("p00"), kp.term(sq, sq))


def test_zero_detection_via_normal_form():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    x = kp.s("v") - kp.term(a, a) - kp.term(b, b)
    assert not x.is_zero()  # syntactically nonzero
    assert normal_form(x).is_zero()


# -- matrices --------------------------------------------------------------------


def test_matrix_shapes_and_product():
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    col = column(kp.star(a), kp.star(b))
    rw = row(kp.s(a), kp.s(b))
    assert col.shape == (2, 1) and rw.shape == (1, 2)
    prod = rw @ col
    assert prod.shape == (1, 1)
    # s_a s_a* + s_b s_b* reconstructs the vertex idempotent
    assert equals(prod.entry(0, 0), kp.s("v"))


def test_oplus_builds_block_diagonal():
    kp = algebra()
    p = kp.s("v")
    bd = oplus(p, p)
    assert bd.shape == (2, 2)
    assert equals(bd.entry(0, 0), p) and equals(bd.entry(1, 1), p)
    assert bd.entry(0, 1).is_zero()
    assert is_idempotent(bd)


def test_matrix_equals_needs_matching_shape():
    kp = algebra()
    p = kp.s("v")
    assert not matrix_equals(oplus(p, p), p)
    assert matrix_equals(p, p)


def test_shape_mismatch_in_matmul_rejected():
    kp = algebra()
    p = kp.s("v")
    with pytest.raises(AlgebraError):
        oplus(p, p) @ row(p, p)


# -- relation verifiers -----------------------------------------------------------


def test_subidempotent_verifier():
    kp = algebra()
    a = kp.path("a")
    assert subidempotent_verify(kp.term(a, a), kp.s("v"))
    assert not subidempotent_verify(kp.s("v"), kp.term(a, a))


def test_split_unit_into_two_copies():
    # the standard splitting: A p B = p (+) p over the two loops
    kp = algebra()
    a, b = kp.path("a"), kp.path("b")
    p = kp.s("v")
    A = column(kp.star(a), kp.star(b))
    B = row(kp.s(a), kp.s(b))
    assert matrix_equals(A @ as_matrix(p) @ B, oplus(p, p))
