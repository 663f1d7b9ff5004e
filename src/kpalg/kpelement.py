"""Exact arithmetic in the path algebra of a k-graph.

Elements are finite linear combinations of spanning terms s_lam s_{mu*}
with s(lam) = s(mu), stored sparsely with nonzero exact coefficients. The
product reduces cross terms through minimal common extensions:

    (s_lam s_{mu*})(s_nu s_{rho*}) = sum over mu a = nu b in MCE(mu, nu)
                                     of s_{lam a} s_{(rho b)*}

When d(mu) <= d(nu) the only candidate is nu itself, so no MCE search is
needed: nu splits once at d(mu) as nu = head tail, and the product is
s_{lam tail} s_{rho*} when head = mu and 0 otherwise (symmetrically when
d(nu) <= d(mu)). Only incomparable degrees search ``KGraph.mce``.

Structural equality (==) compares term maps; algebraic equality is
``equals``. Identical term tuples denote the same sum, so ``equals``
accepts them without normalizing; any other pair is compared by
normalizing the difference by boundary expansion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .degrees import Degree, join, leq, sub
from .field import Field, Scalar
from .kgraph import KGraph, KGraphError, Path, path_sort_key

TermKey = Tuple[Path, Path]


class AlgebraError(KGraphError):
    pass


def _term_sort_key(key: TermKey):
    lam, mu = key
    return (path_sort_key(lam), path_sort_key(mu))


@dataclass(frozen=True)
class KPElement:
    graph: KGraph
    field: Field
    terms: Tuple[Tuple[TermKey, Scalar], ...]

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "KPElement") -> "KPElement":
        _check_compatible(self, other)
        acc = dict(self.terms)
        for key, c in other.terms:
            acc[key] = acc.get(key, self.field.zero) + c
        return _make(self.graph, self.field, acc)

    def __sub__(self, other: "KPElement") -> "KPElement":
        return self + (-other)

    def __neg__(self) -> "KPElement":
        return KPElement(
            self.graph, self.field, tuple((k, -c) for k, c in self.terms)
        )

    def __mul__(self, other):
        if isinstance(other, KPElement):
            return kp_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "KPElement":
        if isinstance(c, int):
            c = self.field.of(c)
        if not c:
            return zero(self.graph, self.field)
        return KPElement(
            self.graph, self.field, tuple((k, c * v) for k, v in self.terms)
        )

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        from .expr import format_element

        return format_element(self)


def _check_compatible(a: KPElement, b: KPElement) -> None:
    if a.graph is not b.graph:
        raise AlgebraError("elements live over different graphs")
    if a.field != b.field:
        raise AlgebraError("elements live over different fields")


def _make(g: KGraph, field: Field, terms: Dict[TermKey, Scalar]) -> KPElement:
    kept = [(k, c) for k, c in terms.items() if c]
    if len(kept) > 1:
        kept.sort(key=lambda it: _term_sort_key(it[0]))
    return KPElement(g, field, tuple(kept))


# -- constructors -------------------------------------------------------------


def zero(g: KGraph, field: Field) -> KPElement:
    return KPElement(g, field, ())


def spanning_term(
    g: KGraph, field: Field, lam: Path, mu: Path, coef: Optional[Scalar] = None
) -> KPElement:
    if lam.source != mu.source:
        raise AlgebraError(
            "spanning term needs s(lam) = s(mu), got %s and %s"
            % (lam.source, mu.source)
        )
    c = field.one if coef is None else coef
    return _make(g, field, {(lam, mu): c})


def generator(g: KGraph, field: Field, p: Path) -> KPElement:
    """s_p, the generator attached to a path."""
    return spanning_term(g, field, p, g.trivial_path(p.source))


def star_generator(g: KGraph, field: Field, p: Path) -> KPElement:
    """s_{p*}."""
    return spanning_term(g, field, g.trivial_path(p.source), p)


def vertex_unit(g: KGraph, field: Field, v: str) -> KPElement:
    t = g.trivial_path(v)
    return spanning_term(g, field, t, t)


@dataclass(frozen=True)
class KP:
    """Convenience handle pairing a graph with a coefficient field."""

    graph: KGraph
    field: Field

    def zero(self) -> KPElement:
        return zero(self.graph, self.field)

    def s(self, p: Union[Path, str]) -> KPElement:
        if isinstance(p, str):
            return vertex_unit(self.graph, self.field, p)
        return generator(self.graph, self.field, p)

    def star(self, p: Path) -> KPElement:
        return star_generator(self.graph, self.field, p)

    def term(self, lam: Path, mu: Path, coef: Optional[Scalar] = None) -> KPElement:
        return spanning_term(self.graph, self.field, lam, mu, coef)

    def path(self, *edge_ids: str) -> Path:
        return self.graph.path_from_edges(list(edge_ids))

    def vertex(self, v: str) -> Path:
        return self.graph.trivial_path(v)


# -- multiplication ------------------------------------------------------------


def kp_mul(a: KPElement, b: KPElement) -> KPElement:
    _check_compatible(a, b)
    g = a.graph
    zero_c = a.field.zero
    acc: Dict[TermKey, Scalar] = {}
    for (lam, mu), c1 in a.terms:
        for (nu, rho), c2 in b.terms:
            if mu.range != nu.range:
                continue
            c = c1 * c2
            if leq(mu.degree, nu.degree):
                # the only candidate extension is nu = mu tail
                head, tail = g.factorize(nu, mu.degree)
                keys = [(g.compose(lam, tail), rho)] if head == mu else []
            elif leq(nu.degree, mu.degree):
                # the only candidate extension is mu = nu tail
                head, tail = g.factorize(mu, nu.degree)
                keys = [(lam, g.compose(rho, tail))] if head == nu else []
            else:
                keys = [
                    (
                        g.compose(lam, g.factorize(xi, mu.degree)[1]),
                        g.compose(rho, g.factorize(xi, nu.degree)[1]),
                    )
                    for xi in g.mce(mu, nu)
                ]
            for key in keys:
                acc[key] = acc.get(key, zero_c) + c
    return _make(g, a.field, acc)


# -- normal form and equality ---------------------------------------------------


def _refine(g: KGraph, lam: Path, mu: Path, slack: Degree) -> List[TermKey]:
    """The pairs (lam tau, mu tau) over the boundary paths tau of degree
    ``slack`` at s(lam), which together span the term (lam, mu)."""
    if not any(slack):
        # the trivial path is the only boundary path of degree 0
        return [(lam, mu)]
    return [
        (g.compose(lam, tau), g.compose(mu, tau))
        for tau in g.boundary_paths(lam.source, slack)
    ]


def normal_form(a: KPElement, target: Optional[Degree] = None) -> KPElement:
    """Expand each graded component to a common boundary depth.

    Within the component of grading d(lam) - d(mu), every term is expanded
    over the boundary extensions of its source up to the componentwise max
    of the occurring lam-degrees (joined with ``target`` when given). The
    result is canonical relative to that expansion depth, and identical
    maps certify equality.
    """
    g, field = a.graph, a.field
    # the nonzero terms of each grading d(lam) - d(mu), in one pass
    groups: Dict[Degree, List[Tuple[Path, Path, Scalar]]] = {}
    for (lam, mu), c in a.terms:
        if c:
            gdeg = tuple(map(operator.sub, lam.degree, mu.degree))
            groups.setdefault(gdeg, []).append((lam, mu, c))
    acc: Dict[TermKey, Scalar] = {}
    for terms in groups.values():
        m = terms[0][0].degree
        for lam, _, _ in terms[1:]:
            m = join(m, lam.degree)
        if target is not None:
            m = join(m, tuple(target))
        for lam, mu, c in terms:
            for key in _refine(g, lam, mu, sub(m, lam.degree)):
                acc[key] = acc.get(key, field.zero) + c
    return _make(g, field, acc)


def equals(a: KPElement, b: KPElement) -> bool:
    """Algebraic equality. Identical term tuples denote the same sum and
    are equal without normalizing; any other pair is equal exactly when
    ``normal_form(a - b)`` is zero."""
    _check_compatible(a, b)
    return a.terms == b.terms or normal_form(a - b).is_zero()


# -- matrices -------------------------------------------------------------------


@dataclass(frozen=True)
class KPMatrix:
    rows: Tuple[Tuple[KPElement, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise AlgebraError("matrix needs at least one entry")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise AlgebraError("ragged matrix")
        first = self.rows[0][0]
        for r in self.rows:
            for x in r:
                _check_compatible(first, x)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def graph(self) -> KGraph:
        return self.rows[0][0].graph

    @property
    def field(self) -> Field:
        return self.rows[0][0].field

    def __add__(self, other: "KPMatrix") -> "KPMatrix":
        if self.shape != other.shape:
            raise AlgebraError("shape mismatch %r vs %r" % (self.shape, other.shape))
        return KPMatrix(
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __matmul__(self, other: "KPMatrix") -> "KPMatrix":
        m, n = self.shape
        n2, p = other.shape
        if n != n2:
            raise AlgebraError("shape mismatch %r vs %r" % (self.shape, other.shape))
        z = zero(self.graph, self.field)
        out = []
        for i in range(m):
            row = []
            for j in range(p):
                acc = z
                for l in range(n):
                    acc = acc + kp_mul(self.rows[i][l], other.rows[l][j])
                row.append(acc)
            out.append(tuple(row))
        return KPMatrix(tuple(out))

    def entry(self, i: int, j: int) -> KPElement:
        return self.rows[i][j]


def as_matrix(x: Union[KPElement, KPMatrix]) -> KPMatrix:
    if isinstance(x, KPMatrix):
        return x
    return KPMatrix(((x,),))


def column(*entries: KPElement) -> KPMatrix:
    return KPMatrix(tuple((e,) for e in entries))


def row(*entries: KPElement) -> KPMatrix:
    return KPMatrix((tuple(entries),))


def oplus(a: Union[KPElement, KPMatrix], b: Union[KPElement, KPMatrix]) -> KPMatrix:
    """Block-diagonal sum."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_compatible(ma.rows[0][0], mb.rows[0][0])
    z = zero(ma.graph, ma.field)
    ra, ca = ma.shape
    rb, cb = mb.shape
    out = []
    for i in range(ra):
        out.append(tuple(ma.rows[i]) + (z,) * cb)
    for i in range(rb):
        out.append((z,) * ca + tuple(mb.rows[i]))
    return KPMatrix(tuple(out))


def _product(a: Union[KPElement, KPMatrix], b: Union[KPElement, KPMatrix]):
    # two elements multiply as elements; anything else as matrices
    if isinstance(a, KPElement) and isinstance(b, KPElement):
        return kp_mul(a, b)
    return as_matrix(a) @ as_matrix(b)


def matrix_equals(a: Union[KPElement, KPMatrix], b: Union[KPElement, KPMatrix]) -> bool:
    """Entrywise ``equals``; an element counts as a 1x1 matrix."""
    if isinstance(a, KPElement) and isinstance(b, KPElement):
        return equals(a, b)
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        return False
    for r1, r2 in zip(ma.rows, mb.rows):
        for x, y in zip(r1, r2):
            if not equals(x, y):
                return False
    return True


# -- relation verifiers ----------------------------------------------------------


def subidempotent_verify(
    a: Union[KPElement, KPMatrix], b: Union[KPElement, KPMatrix]
) -> bool:
    """Check ab = ba = a."""
    try:
        return matrix_equals(_product(a, b), a) and matrix_equals(_product(b, a), a)
    except AlgebraError:
        return False


def is_idempotent(a: Union[KPElement, KPMatrix]) -> bool:
    return matrix_equals(_product(a, a), a)
