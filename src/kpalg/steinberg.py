"""Groupoid model backend: cylinder bisections and convolution.

The boundary-path groupoid of a k-graph has a basis of compact open
bisections Z(lam*mu) indexed by path pairs with a common source: the
bisection's range is the cylinder Z(lam), its source is Z(mu), and it
shifts by d(lam) - d(mu). Finitely supported functions on the groupoid,
with convolution, form an algebra isomorphic to the Kumjian-Pask algebra
(Clark-Farthing-Sims-Tomforde, Semigroup Forum 89, 2014) in which the
indicator of Z(lam*mu) is the spanning term s_lam s_{mu*}. So elements
here are ``KPElement``s, and equality is ``kpelement.equals``.

``convolve`` shares the path kernel (``mce``, ``factorize``, ``compose``)
with ``kp_mul``. What stays independent is the product rule:
``compose_bisections`` applies the general MCE formula to every pair,
without ``kp_mul``'s shortcut for comparable degrees, and the tests check
it against the point action of bisections on boundary paths.

``locally_contracting_on`` (the ``contract`` command) builds its
contracting bisections from generalized cycles with entrances, through
the same core in ``paths`` as the witness search's second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .field import Scalar
from .kgraph import KGraph, KGraphError, Path
from .kpelement import KPElement, TermKey, _check_compatible, _make
from .paths import (
    ContainmentEvidence,
    GeneralizedCycle,
    NotFoundUpTo,
    _entered_cycle,
    _leg_degrees,
    cylinder_contains,
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


def convolve(f: KPElement, h: KPElement) -> KPElement:
    """Convolution product, computed bisection by bisection.

    Indicator functions of bisections multiply as 1_B * 1_C = 1_{BC}
    because source and range maps are injective on bisections; the
    bilinear extension runs over the spanning terms of f and h, each the
    indicator of Z(lam*mu).
    """
    _check_compatible(f, h)
    g = f.graph
    zero_c = f.field.zero
    acc: Dict[TermKey, Scalar] = {}
    for (lam, mu), c1 in f.terms:
        b = CylinderBisection(g, lam, mu)
        for (nu, rho), c2 in h.terms:
            for d in compose_bisections(b, CylinderBisection(g, nu, rho)):
                key = (d.lam, d.mu)
                acc[key] = acc.get(key, zero_c) + c1 * c2
    return _make(g, f.field, acc)


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

    Candidate pairs (mu, nu) use nontrivial paths only and are scanned by
    total degree up to 2 depth, then degree pair, then the words of nu and
    mu, so reported witnesses are minimal; each leg's total is at most
    2 depth - 1. Returns NotFoundUpTo when the search space up to the
    depth bound is exhausted.
    """
    if kappa.graph is not g:
        raise KGraphError("region path belongs to a different graph")
    v = kappa.range
    checked = 0
    for s_total in range(2, 2 * depth + 1):
        for dm, dn in _leg_degrees(g.k, s_total, 2 * depth - 1):
            for nu in g.paths(v, dn):
                hold = cylinder_contains(g, kappa, nu)
                if not hold:
                    continue
                for mu in g.paths(v, dm):
                    if mu == nu or mu.source != nu.source:
                        continue
                    checked += 1
                    cyc = _entered_cycle(g, mu, nu, depth)
                    if cyc is None or cyc.entrance is None:
                        continue
                    return ContractionWitness(
                        CylinderBisection(g, nu, mu), cyc, kappa, hold
                    )
    return NotFoundUpTo(
        depth, "checked %d candidate pairs inside Z(%s)" % (checked, kappa)
    )
