"""Exact symbolic arithmetic in the path algebra over a chosen field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, build
from oracles import boundary_points, first_disagreement, kp_mul_via_mce, vertex_relations
from kpalg import (
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
    torus,
    vertex_unit,
    zero,
)
from kpalg.degrees import below, leq, total


# -- defining relations --------------------------------------------------------


def test_vertex_idempotents_are_orthogonal():
    g = build("single_edge")
    pv, pw = vertex_unit(g, QQ, "v"), vertex_unit(g, QQ, "w")
    assert equals(pv * pv, pv)
    assert (pv * pw).is_zero()
    assert is_idempotent(pv + pw)


def test_generators_compose_along_paths():
    g = build("e2")
    sa, sb = generator(g, QQ, g.path_from_edges(["a"])), generator(g, QQ, g.path_from_edges(["b"]))
    assert equals(sa * sb, generator(g, QQ, g.path_from_edges(["a", "b"])))
    assert equals(vertex_unit(g, QQ, "v") * sa, sa)
    assert equals(sa * vertex_unit(g, QQ, "v"), sa)


def test_star_relations_contract_to_source():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    assert equals(star_generator(g, QQ, a) * generator(g, QQ, a), vertex_unit(g, QQ, "v"))
    assert (star_generator(g, QQ, a) * generator(g, QQ, b)).is_zero()


def test_mixed_product_uses_common_extensions():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    # (s_a s_b*)(s_b s_a*) = s_a s_a*
    left = spanning_term(g, QQ, a, b) * spanning_term(g, QQ, b, a)
    assert equals(left, spanning_term(g, QQ, a, a))


def test_star_product_on_torus_refactors():
    g = torus(2)
    e, f = g.path_from_edges(["e"]), g.path_from_edges(["f"])
    # s_e* s_f = s_f s_e* after sliding through the commuting square
    got = star_generator(g, QQ, e) * generator(g, QQ, f)
    assert equals(got, spanning_term(g, QQ, f, e))


def test_reconstruction_at_depth_one():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    total = spanning_term(g, QQ, a, a) + spanning_term(g, QQ, b, b)
    assert equals(vertex_unit(g, QQ, "v"), total)
    assert normal_form(vertex_unit(g, QQ, "v") - total).is_zero()


def test_reconstruction_fails_without_full_cover():
    g = build("e2")
    a = g.path_from_edges(["a"])
    assert not equals(vertex_unit(g, QQ, "v"), spanning_term(g, QQ, a, a))


# -- ring structure -------------------------------------------------------------


def test_linear_structure_and_scaling():
    g = build("e2")
    a = generator(g, QQ, g.path_from_edges(["a"]))
    x = 2 * a - a.scale(QQ.of(1, 2))
    assert x.terms == (((g.path_from_edges(["a"]), g.trivial_path("v")), QQ.of(3, 2)),)
    assert (x - x).is_zero()
    assert (0 * x).is_zero()


def test_multiplication_is_associative_on_samples():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    xs = [
        generator(g, QQ, a),
        star_generator(g, QQ, b),
        spanning_term(g, QQ, a, b) - 2 * vertex_unit(g, QQ, "v"),
        spanning_term(g, QQ, b, a),
    ]
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
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    # shifts 1, 0, 0 and -1: only s_v is expanded, to the depth of s_a s_b*
    # in its own shift; s_b* keeps depth 0 though s_a has degree 1
    sa, sab, sb_star = generator(g, QQ, a), spanning_term(g, QQ, a, b), star_generator(g, QQ, b)
    x = sa + sab + vertex_unit(g, QQ, "v") + sb_star
    expanded = sa + sab + spanning_term(g, QQ, a, a) + spanning_term(g, QQ, b, b) + sb_star
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
        x = x + spanning_term(g, QQ, lam, mu).scale(data.draw(st.integers(-2, 2)))
    return x


def _deciding_points(g, a, b, ab):
    # a point x must reach, in each color its source receives, the source
    # legs of b and ab, and d(mu_b) + d(mu_a) - d(lam_b), so that the point
    # lam_b tau left after b reaches mu_a; a leg is extended by what it
    # lacks of that
    def legs(x):
        return [(lam.degree, mu.degree) for (lam, mu), _ in x.terms]

    need = [mu for _, mu in legs(b) + legs(ab)]
    need += [
        tuple(ma + mb - lb for ma, mb, lb in zip(mu_a, mu_b, lam_b))
        for _, mu_a in legs(a)
        for lam_b, mu_b in legs(b)
    ]
    least = [max([0] + [n[i] for n in need]) for i in range(g.k)]
    out = set()
    for (_, mu), _ in b.terms + ab.terms:
        n = tuple(max(0, r - m) for r, m in zip(least, mu.degree))
        out.update(boundary_points(g, [mu], n))
    return sorted(out)


@settings(max_examples=100, deadline=None)
@given(g=_GRAPHS, data=st.data())
def test_kp_mul_matches_the_product_through_mce(g, data):
    paths = _paths_upto_total(g, 2)
    a, b = _draw_element(data, g, paths), _draw_element(data, g, paths)
    # terms with a trivial inner leg on either side: s_lam and s_{rho*}
    if data.draw(st.booleans()):
        a = a + generator(g, QQ, data.draw(st.sampled_from(paths)))
    if data.draw(st.booleans()):
        b = b + star_generator(g, QQ, data.draw(st.sampled_from(paths)))
    ab = kp_mul(a, b)
    assert ab.terms == kp_mul_via_mce(a, b).terms
    # kp_mul_via_mce shares mce, factorize and compose with kp_mul; the
    # regular representation reads edge words alone, so a fault of the
    # kernel shows here: the product must act as a then b at the source
    # legs of b and of the product, each extended far enough that every
    # point decides every cylinder it meets (``_deciding_points``)
    points = _deciding_points(g, a, b, ab)
    assert first_disagreement(g, [ab], [a, b], points) is None


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
    g = build("e2")
    a = g.path_from_edges(["a"])
    pv, sa = vertex_unit(g, QQ, "v"), generator(g, QQ, a)
    x, y = pv + sa, pv + 2 * sa
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
    a = generator(g, f2, g.path_from_edges(["a"]))
    assert (a + a).is_zero()
    assert equals(star_generator(g, f2, g.path_from_edges(["a"])) * a, vertex_unit(g, f2, "v"))


# -- normal form ----------------------------------------------------------------


def test_normal_form_is_canonical_for_equal_elements():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    aa, ab, ba, bb = (g.path_from_edges([x, y]) for x in "ab" for y in "ab")
    # two different sums equal to s_v, each expanded to degree 2
    lhs = normal_form(
        spanning_term(g, QQ, aa, aa) + spanning_term(g, QQ, ab, ab) + spanning_term(g, QQ, b, b)
    )
    rhs = normal_form(
        spanning_term(g, QQ, a, a) + spanning_term(g, QQ, ba, ba) + spanning_term(g, QQ, bb, bb)
    )
    assert lhs.terms == rhs.terms


def test_normal_form_respects_boundary_on_acyclic():
    g = grid((1, 1))
    # p00 splits through its unique boundary square path
    sq = g.path_from_edges(["e1_00", "e2_10"])
    assert equals(vertex_unit(g, QQ, "p00"), spanning_term(g, QQ, sq, sq))


def test_zero_detection_via_normal_form():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    x = vertex_unit(g, QQ, "v") - spanning_term(g, QQ, a, a) - spanning_term(g, QQ, b, b)
    assert not x.is_zero()  # syntactically nonzero
    assert normal_form(x).is_zero()


# -- matrices --------------------------------------------------------------------


def test_matrix_shapes_and_product():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    col = column(star_generator(g, QQ, a), star_generator(g, QQ, b))
    rw = row(generator(g, QQ, a), generator(g, QQ, b))
    assert col.shape == (2, 1) and rw.shape == (1, 2)
    prod = rw @ col
    assert prod.shape == (1, 1)
    # s_a s_a* + s_b s_b* reconstructs the vertex idempotent
    assert equals(prod.rows[0][0], vertex_unit(g, QQ, "v"))


def test_oplus_builds_block_diagonal():
    g = build("e2")
    p = vertex_unit(g, QQ, "v")
    bd = oplus(p, p)
    assert bd.shape == (2, 2)
    assert equals(bd.rows[0][0], p) and equals(bd.rows[1][1], p)
    assert bd.rows[0][1].is_zero()
    assert is_idempotent(bd)


def test_matrix_equals_needs_matching_shape():
    g = build("e2")
    p = vertex_unit(g, QQ, "v")
    assert not matrix_equals(oplus(p, p), p)
    assert matrix_equals(p, p)


def test_shape_mismatch_in_matmul_rejected():
    g = build("e2")
    p = vertex_unit(g, QQ, "v")
    with pytest.raises(AlgebraError):
        oplus(p, p) @ row(p, p)


# -- relation verifiers -----------------------------------------------------------


def test_split_unit_into_two_copies():
    # the standard splitting: A p B = p (+) p over the two loops
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    p = vertex_unit(g, QQ, "v")
    A = column(star_generator(g, QQ, a), star_generator(g, QQ, b))
    B = row(generator(g, QQ, a), generator(g, QQ, b))
    assert matrix_equals(A @ as_matrix(p) @ B, oplus(p, p))
