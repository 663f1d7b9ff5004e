"""Groupoid model backend: cylinder bisections and convolution.

The boundary-path groupoid of a k-graph has a basis of compact open
bisections Z(lam*mu) indexed by path pairs with a common source: the
bisection's range is the cylinder Z(lam), its source is Z(mu), and it
shifts by d(lam) - d(mu). Finitely supported functions on the groupoid,
with convolution, form an algebra isomorphic to the Kumjian-Pask algebra,
so they give a second, independently coded route to products and equality
tests. Elements here are kept over a mutually disjoint refinement of
their support: within a fixed shift class, expanding every pair to a
common degree cap along boundary extensions makes distinct pairs label
disjoint bisections, so a function is zero exactly when all coefficients
vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .degrees import join, sub
from .field import Field, Scalar
from .kgraph import KGraph, KGraphError, Path
from .kpelement import KPElement, TermKey, _refine, _term_sort_key
from .paths import (
    ContainmentEvidence,
    GeneralizedCycle,
    NotFoundUpTo,
    _degrees_with_total,
    cylinder_contains,
    find_entrance,
    is_generalized_cycle,
)


@dataclass(frozen=True)
class CylinderBisection:
    """Z(lam*mu): range cylinder Z(lam), source cylinder Z(mu)."""

    graph: KGraph
    lam: Path
    mu: Path

    def __post_init__(self) -> None:
        if self.lam.source != self.mu.source:
            raise KGraphError(
                "bisection paths must share a source: %s vs %s"
                % (self.lam.source, self.mu.source)
            )

    @property
    def shift(self) -> Tuple[int, ...]:
        return tuple(a - b for a, b in zip(self.lam.degree, self.mu.degree))

    def invert(self) -> "CylinderBisection":
        return CylinderBisection(self.graph, self.mu, self.lam)

    def __str__(self) -> str:
        return "Z(%s*%s)" % (self.lam, self.mu)


def compose_bisections(
    b: CylinderBisection, c: CylinderBisection
) -> List[CylinderBisection]:
    """Pointwise product set of two bisections.

    A composable pair (lam.x, mu.x) (nu.y, rho.y) needs mu.x = nu.y, so
    the products are classified by the minimal common extensions of mu
    and nu; each xi = mu.alpha = nu.beta contributes Z(lam.alpha * rho.beta).
    The returned bisections are pairwise disjoint.
    """
    g = b.graph
    if g is not c.graph:
        raise KGraphError("bisections live over different graphs")
    out = []
    for xi in g.mce(b.mu, c.lam):
        _, alpha = g.factorize(xi, b.mu.degree)
        _, beta = g.factorize(xi, c.lam.degree)
        out.append(
            CylinderBisection(g, g.compose(b.lam, alpha), g.compose(c.mu, beta))
        )
    return out


def _shift(key: TermKey) -> Tuple[int, ...]:
    lam, mu = key
    return tuple(a - b for a, b in zip(lam.degree, mu.degree))


def _normalize(
    g: KGraph, fld: Field, items: Iterable[Tuple[TermKey, Scalar]]
) -> Tuple[Tuple[TermKey, Scalar], ...]:
    # bucket by shift class, then refine each class to its degree cap
    classes: Dict[Tuple[int, ...], List[Tuple[TermKey, Scalar]]] = {}
    for key, coef in items:
        if coef == fld.zero:
            continue
        classes.setdefault(_shift(key), []).append((key, coef))
    acc: Dict[TermKey, Scalar] = {}
    for cls in classes.values():
        cap = None
        for (lam, _), _c in cls:
            cap = lam.degree if cap is None else join(cap, lam.degree)
        for (lam, mu), coef in cls:
            for key2 in _refine(g, lam, mu, sub(cap, lam.degree)):
                tot = acc.get(key2, fld.zero) + coef
                if tot == fld.zero:
                    acc.pop(key2, None)
                else:
                    acc[key2] = tot
    return tuple(sorted(acc.items(), key=lambda kv: _term_sort_key(kv[0])))


@dataclass(frozen=True)
class SteinbergElement:
    """Finitely supported function on the groupoid, stored over a
    disjoint refinement of its supporting bisections.

    == compares refined term maps, which can distinguish two
    representations of the same function when their caps differ; use
    equals() for semantic equality.
    """

    graph: KGraph
    fld: Field
    terms: Tuple[Tuple[TermKey, Scalar], ...]

    def support(self) -> List[Tuple[CylinderBisection, Scalar]]:
        return [
            (CylinderBisection(self.graph, lam, mu), c)
            for (lam, mu), c in self.terms
        ]

    def is_zero(self) -> bool:
        return not self.terms

    def _compat(self, other: "SteinbergElement") -> None:
        if self.graph is not other.graph or self.fld != other.fld:
            raise KGraphError("elements live over different graphs or fields")

    def __add__(self, other: "SteinbergElement") -> "SteinbergElement":
        self._compat(other)
        return SteinbergElement(
            self.graph,
            self.fld,
            _normalize(self.graph, self.fld, list(self.terms) + list(other.terms)),
        )

    def __neg__(self) -> "SteinbergElement":
        return SteinbergElement(
            self.graph, self.fld, tuple((k, -c) for k, c in self.terms)
        )

    def __sub__(self, other: "SteinbergElement") -> "SteinbergElement":
        return self + (-other)

    def scale(self, c: Scalar) -> "SteinbergElement":
        if c == self.fld.zero:
            return SteinbergElement(self.graph, self.fld, ())
        return SteinbergElement(
            self.graph, self.fld, tuple((k, c * x) for k, x in self.terms)
        )

    def __mul__(self, other: "SteinbergElement") -> "SteinbergElement":
        return convolve(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            "%s * %s" % (c, CylinderBisection(self.graph, lam, mu))
            for (lam, mu), c in self.terms
        )


def steinberg_from_terms(
    g: KGraph, fld: Field, items: Iterable[Tuple[TermKey, Scalar]]
) -> SteinbergElement:
    return SteinbergElement(g, fld, _normalize(g, fld, items))


def convolve(f: SteinbergElement, h: SteinbergElement) -> SteinbergElement:
    """Convolution product, computed bisection by bisection.

    Indicator functions of bisections multiply as 1_B * 1_C = 1_{BC}
    because source and range maps are injective on bisections; the
    bilinear extension runs over the refined supports of f and h.
    """
    f._compat(h)
    g = f.graph
    raw: List[Tuple[TermKey, Scalar]] = []
    for (lam, mu), c1 in f.terms:
        for (nu, rho), c2 in h.terms:
            b = CylinderBisection(g, lam, mu)
            c = CylinderBisection(g, nu, rho)
            for d in compose_bisections(b, c):
                raw.append(((d.lam, d.mu), c1 * c2))
    return steinberg_from_terms(g, f.fld, raw)


def to_steinberg(a: KPElement) -> SteinbergElement:
    return steinberg_from_terms(a.graph, a.field, a.terms)


def from_steinberg(f: SteinbergElement) -> KPElement:
    # each indicator 1_{Z(lam*mu)} corresponds to the spanning pair (lam, mu)
    from .kpelement import _make

    return _make(f.graph, f.fld, dict(f.terms))


@dataclass(frozen=True)
class ContractionWitness:
    """A bisection B with s(B) strictly inside r(B) inside Z(region).

    Built from a generalized cycle (mu, nu) with an entrance: B = Z(nu*mu)
    has range Z(nu) and source Z(mu), the cycle gives Z(mu) contained in
    Z(nu), and the entrance makes the containment strict.
    """

    bisection: CylinderBisection
    cycle: GeneralizedCycle
    region: Path
    containment: ContainmentEvidence

    def __bool__(self) -> bool:
        return True


def locally_contracting_on(g: KGraph, kappa: Path, depth: int):
    """Search for a strictly contracting bisection inside Z(kappa).

    Candidate pairs use nontrivial paths only and are scanned by total
    degree, so reported witnesses are minimal. Returns NotFoundUpTo when
    the search space up to the depth bound is exhausted.
    """
    if kappa.graph is not g:
        raise KGraphError("region path belongs to a different graph")
    v = kappa.range
    checked = 0
    for s_total in range(2, 2 * depth + 1):
        pairs = []
        for t_mu in range(1, s_total):
            t_nu = s_total - t_mu
            if t_nu < 1:
                continue
            for dm in _degrees_with_total(g.k, t_mu):
                for dn in _degrees_with_total(g.k, t_nu):
                    pairs.append((dm, dn))
        for dm, dn in sorted(pairs):
            for nu in g.paths(v, dn):
                hold = cylinder_contains(g, kappa, nu)
                if not hold:
                    continue
                for mu in g.paths(v, dm):
                    if mu == nu or mu.source != nu.source:
                        continue
                    checked += 1
                    if not is_generalized_cycle(g, mu, nu):
                        continue
                    tau = find_entrance(
                        g, GeneralizedCycle(mu, nu), depth
                    )
                    if isinstance(tau, NotFoundUpTo):
                        continue
                    cyc = GeneralizedCycle(mu, nu, tau)
                    return ContractionWitness(
                        CylinderBisection(g, nu, mu), cyc, kappa, hold
                    )
    return NotFoundUpTo(
        depth, "checked %d candidate pairs inside Z(%s)" % (checked, kappa)
    )
