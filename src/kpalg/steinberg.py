"""Groupoid model: cylinder bisections and contracting bisections.

The boundary-path groupoid of a k-graph has a basis of compact open
bisections Z(lam*mu) indexed by path pairs with a common source: the
bisection's range is the cylinder Z(lam), its source is Z(mu), and it
shifts by d(lam) - d(mu). Its Steinberg algebra is the Kumjian-Pask
algebra, with the indicator of Z(lam*mu) as the spanning term s_lam s_{mu*}
(Clark-Farthing-Sims-Tomforde, Semigroup Forum 89, 2014); kpalg multiplies
elements through ``kp_mul`` alone.

A bisection contracts when its source lies strictly inside its range.
``locally_contracting_on`` (the ``contract`` command) looks for one inside
a given cylinder, built from a generalized cycle with an entrance through
the same core in ``paths`` as the witness search's second route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kgraph import KGraph, KGraphError, Path
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
