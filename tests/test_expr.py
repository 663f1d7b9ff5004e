"""Expression grammar: parsing, disambiguation, round-trip with formatting."""

import pytest

from corpus import build
from kpalg import (
    ExprError,
    KP,
    QQ,
    equals,
    format_element,
    normal_form,
    parse_expression,
)


def parse(text, name="e2"):
    g = build(name)
    return g, parse_expression(text, g, QQ)


def test_vertex_and_edge_atoms():
    g, el = parse("v")
    kp = KP(g, QQ)
    assert equals(el, kp.s("v"))
    g, el = parse("a")
    assert el.terms[0][0][0].edges == ("a",)


def test_dotted_path_and_star():
    g, el = parse("a.b^*")
    kp = KP(g, QQ)
    assert equals(el, kp.star(kp.path("a", "b")))


def test_juxtaposition_is_product():
    g, el = parse("a^* a")
    kp = KP(g, QQ)
    assert equals(el, kp.s("v"))
    g, el = parse("a b^*")
    assert equals(el, KP(g, QQ).term(g.path_from_edges(["a"]), g.path_from_edges(["b"])))


def test_scalars_and_signs():
    g, el = parse("2 * a - 1/2 * a")
    kp = KP(g, QQ)
    assert equals(el, kp.s(kp.path("a")).scale(QQ.of(3, 2)))
    g, el = parse("-a + a")
    assert el.is_zero()


def test_parentheses_group_sums():
    g, el = parse("a (a^* + b^*)")
    kp = KP(g, QQ)
    want = kp.term(kp.path("a"), kp.path("a")) + kp.term(kp.path("a"), kp.path("b"))
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
    assert not el.is_zero() and equals(el, KP(g0, QQ).s("0"))
    # and an all-digit token followed by '*' is still a scalar
    el2 = parse_expression("2 * 0", g0, QQ)
    assert list(el2.terms)[0][1] == QQ.of(2)


def test_comments_ignored():
    g, el = parse("a # trailing words\n + b")
    kp = KP(g, QQ)
    assert equals(el, kp.s(kp.path("a")) + kp.s(kp.path("b")))


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


def test_unexpected_character_rejected():
    with pytest.raises(ExprError, match="unexpected character"):
        parse("a @ b")


def test_format_round_trip_on_samples():
    g = build("e2")
    kp = KP(g, QQ)
    a, b = kp.path("a"), kp.path("b")
    samples = [
        kp.zero(),
        kp.s("v"),
        kp.s(a),
        kp.star(b),
        kp.term(a, b),
        2 * kp.term(a, b) - kp.s("v").scale(QQ.of(1, 3)),
        kp.s(kp.path("a", "a")) + kp.term(b, a) - kp.star(kp.path("b", "b")),
    ]
    for el in samples:
        text = format_element(el)
        back = parse_expression(text, g, QQ)
        assert back.terms == el.terms, text


def test_format_of_normal_form_round_trips():
    g = build("e2")
    kp = KP(g, QQ)
    el = normal_form(kp.s("v"), target=(2,))
    back = parse_expression(format_element(el), g, QQ)
    assert back.terms == el.terms
