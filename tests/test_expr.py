"""Expression grammar: parsing, disambiguation, round-trip with formatting."""

import pytest

from corpus import build
from kpalg import (
    ExprError,
    PrimeField,
    QQ,
    equals,
    format_element,
    generator,
    normal_form,
    parse_expression,
    spanning_term,
    star_generator,
    vertex_unit,
    zero,
)


def parse(text, name="e2"):
    g = build(name)
    return g, parse_expression(text, g, QQ)


def test_vertex_and_edge_atoms():
    g, el = parse("v")
    assert equals(el, vertex_unit(g, QQ, "v"))
    g, el = parse("a")
    assert el.terms[0][0][0].edges == ("a",)


def test_dotted_path_and_star():
    g, el = parse("a.b^*")
    assert equals(el, star_generator(g, QQ, g.path_from_edges(["a", "b"])))


def test_juxtaposition_is_product():
    g, el = parse("a^* a")
    assert equals(el, vertex_unit(g, QQ, "v"))
    g, el = parse("a b^*")
    assert equals(el, spanning_term(g, QQ, g.path_from_edges(["a"]), g.path_from_edges(["b"])))


def test_scalars_and_signs():
    g, el = parse("2 * a - 1/2 * a")
    assert equals(el, generator(g, QQ, g.path_from_edges(["a"])).scale(QQ.of(3, 2)))
    g, el = parse("-a + a")
    assert el.is_zero()


def test_parentheses_group_sums():
    g, el = parse("a (a^* + b^*)")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    want = spanning_term(g, QQ, a, a) + spanning_term(g, QQ, a, b)
    assert equals(el, want)


def test_zero_literal():
    g, el = parse("0")
    assert el.is_zero()
    g, el = parse("0 + a - a")
    assert el.is_zero()


def test_all_digit_token_is_path_when_not_scaling():
    # a vertex named 0 shadows the zero literal
    from kpalg import KGraph

    g0 = KGraph(1, ["0"], [])
    el = parse_expression("0", g0, QQ)
    assert not el.is_zero() and equals(el, vertex_unit(g0, QQ, "0"))
    # and an all-digit token followed by '*' is still a scalar
    el2 = parse_expression("2 * 0", g0, QQ)
    assert list(el2.terms)[0][1] == QQ.of(2)


def test_comments_ignored():
    g, el = parse("a # trailing words\n + b")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    assert equals(el, generator(g, QQ, a) + generator(g, QQ, b))


def test_unknown_name_rejected():
    with pytest.raises(ExprError, match="unknown vertex or edge"):
        parse("nope")


def test_bad_path_rejected():
    g = build("single_edge")
    with pytest.raises(ExprError, match="bad path|not composable"):
        parse_expression("e.e", g, QQ)


def test_trailing_junk_rejected():
    with pytest.raises(ExprError):
        parse("a )")


@pytest.mark.parametrize(
    "text, field, where",
    [("1/0 * v", QQ, "division by 0 in Q at position 2"),
     ("a + 3/7 * a", PrimeField(7), "division by 0 in F7 at position 6")],
)
def test_zero_denominator_rejected(text, field, where):
    with pytest.raises(ExprError, match=where):
        parse_expression(text, build("e2"), field)


def test_unexpected_character_rejected():
    with pytest.raises(ExprError, match="unexpected character"):
        parse("a @ b")


def test_format_round_trip_on_samples():
    g = build("e2")
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    samples = [
        zero(g, QQ),
        vertex_unit(g, QQ, "v"),
        generator(g, QQ, a),
        star_generator(g, QQ, b),
        spanning_term(g, QQ, a, b),
        2 * spanning_term(g, QQ, a, b) - vertex_unit(g, QQ, "v").scale(QQ.of(1, 3)),
        generator(g, QQ, g.path_from_edges(["a", "a"]))
        + spanning_term(g, QQ, b, a)
        - star_generator(g, QQ, g.path_from_edges(["b", "b"])),
    ]
    for el in samples:
        text = format_element(el)
        back = parse_expression(text, g, QQ)
        assert back.terms == el.terms, text


def test_format_of_normal_form_round_trips():
    g = build("e2")
    aa, ab, b = (g.path_from_edges(w) for w in (["a", "a"], ["a", "b"], ["b"]))
    # normal_form expands s_b s_b* to the two terms of degree 2 below it
    el = normal_form(
        spanning_term(g, QQ, aa, aa) + spanning_term(g, QQ, ab, ab) + spanning_term(g, QQ, b, b)
    )
    assert len(el.terms) == 4
    back = parse_expression(format_element(el), g, QQ)
    assert back.terms == el.terms
