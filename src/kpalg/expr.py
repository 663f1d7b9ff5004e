"""Expression grammar for algebra elements.

    expr    := term | expr '+' expr | expr '-' expr | scalar '*' expr
             | '(' expr ')'
    term    := pathref | pathref '^*' | term term     (juxtaposition = product)
    pathref := vertex-id | edge-id ('.' edge-id)*     (dot = composition)
    scalar  := integer | integer '/' integer

Multiplication binds tighter than addition, juxtaposition tighter than
scalar multiplication, and '^*' attaches to the nearest pathref. Two
pragmatic extensions beyond the grammar above: a leading '-' negates, and
a parenthesized expression may appear as a juxtaposition factor. An
all-digit token is a scalar only when followed by '*' or '/'; otherwise it
names a vertex or edge. '#' starts a comment. The literal 0 denotes the
zero element.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .field import Field
from .kgraph import KGraph, KGraphError, Path
from .kpelement import (
    KPElement,
    generator,
    star_generator,
    vertex_unit,
    zero,
)


class ExprError(KGraphError):
    pass


_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*|(?P<id>[A-Za-z0-9_]+)|(?P<star>\^\*)|(?P<op>[-+*/().])"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprError("unexpected character %r at position %d" % (text[pos], pos))
        if m.lastgroup == "id":
            out.append(("id", m.group(), pos))
        elif m.lastgroup == "star":
            out.append(("^*", m.group(), pos))
        elif m.lastgroup == "op":
            out.append((m.group(), m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, g: KGraph, field: Field):
        self.tokens = _tokenize(text)
        self.i = 0
        self.g = g
        self.field = field

    def peek(self, ahead: int = 0) -> Tuple[str, str, int]:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def take(self, kind: Optional[str] = None) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprError(
                "expected %s at position %d, got %r" % (kind, tok[2], tok[1])
            )
        self.i += 1
        return tok

    # expr := sum of scalar-multiplied juxtaposition products
    def parse_expr(self) -> KPElement:
        acc = self.parse_signed()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_signed()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_signed(self) -> KPElement:
        if self.peek()[0] == "-":
            self.take()
            return -self.parse_signed()
        return self.parse_scaled()

    def _scalar_ahead(self) -> bool:
        t0, v0, _ = self.peek()
        if t0 != "id" or not v0.isdigit():
            return False
        t1 = self.peek(1)[0]
        if t1 == "*":
            return True
        if t1 == "/":
            t2, v2, _ = self.peek(2)
            return t2 == "id" and v2.isdigit() and self.peek(3)[0] == "*"
        return False

    def parse_scaled(self) -> KPElement:
        if self._scalar_ahead():
            num = int(self.take("id")[1])
            den = 1
            if self.peek()[0] == "/":
                self.take()
                _, text, pos = self.take("id")
                den = int(text)
                if not self.field.of(den):
                    raise ExprError("division by 0 in %s at position %d" % (self.field.name, pos))
            self.take("*")
            return self.parse_scaled().scale(self.field.of(num, den))
        return self.parse_juxt()

    def parse_juxt(self) -> KPElement:
        acc = self.parse_atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "(" or (kind == "id" and not self._scalar_ahead()):
                acc = acc * self.parse_atom()
            else:
                return acc

    def parse_atom(self) -> KPElement:
        kind, val, pos = self.peek()
        if kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        if kind != "id":
            raise ExprError("expected a path or '(' at position %d, got %r" % (pos, val))
        segs = [self.take("id")[1]]
        while self.peek()[0] == ".":
            self.take()
            segs.append(self.take("id")[1])
        starred = False
        if self.peek()[0] == "^*":
            self.take()
            starred = True
        return self._resolve(segs, starred, pos)

    def _resolve(self, segs: List[str], starred: bool, pos: int) -> KPElement:
        g = self.g
        if len(segs) == 1 and segs[0] == "0" and not g.has_vertex("0") and "0" not in g.edges:
            return zero(g, self.field)
        if len(segs) == 1 and g.has_vertex(segs[0]):
            return vertex_unit(g, self.field, segs[0])
        for s in segs:
            if s not in g.edges:
                raise ExprError(
                    "unknown vertex or edge %r at position %d" % (s, pos)
                )
        try:
            p = g.path_from_edges(segs)
        except KGraphError as exc:
            raise ExprError("bad path near position %d: %s" % (pos, exc))
        return star_generator(g, self.field, p) if starred else generator(g, self.field, p)


def parse_expression(text: str, g: KGraph, field: Field) -> KPElement:
    parser = _Parser(text, g, field)
    out = parser.parse_expr()
    parser.take("eof")
    return out


# -- formatting ----------------------------------------------------------------


def _format_term(lam: Path, mu: Path) -> str:
    if mu.is_trivial and lam.is_trivial:
        return lam.range
    if mu.is_trivial:
        return str(lam)
    if lam.is_trivial:
        return "%s^*" % mu
    return "%s %s^*" % (lam, mu)


def format_element(a: KPElement) -> str:
    """Render an element in the grammar above; parsing it back gives an
    element with the same term map."""
    if a.is_zero():
        return "0"
    parts = []
    for (lam, mu), c in a.terms:
        body = _format_term(lam, mu)
        cs = str(c)
        if cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append("-%s" % body)
        else:
            parts.append("%s * %s" % (cs, body))
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
