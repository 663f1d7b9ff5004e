"""Infiniteness witnesses: explicit elements, mandatory verification.

A certificate never asserts anything on trust: it carries the algebra
elements realizing the claimed relations, and ``failing_checks``
rechecks every relation by symbolic arithmetic, naming each that fails.
Two kinds exist:

    Infinite(q, r, s) for p:   r s = p, s r = q, q <= p, q != p
    ProperlyInfinite(A, B) for p:   A is 2x1, B is 1x2, A p B = p (+) p

One rule for the constructors: a constructor checks its output's
relations and its new step, nothing else. It decides no precondition that
those checks decide again: not the input's relations, not the idempotence,
containment or orthogonality of its arguments. A bad argument makes the
output fail, so the constructor raises WitnessError naming the failed
relation, or gives a certificate whose own relations hold. The checks a
certificate gets when it is made are exactly those ``failing_checks``
replays for its steps; without ``steps`` it replays the whole derivation,
which is the audit. Only checks that cost no product stay in front: the
certificate kind and the entrance of a generalized cycle (the one
support of its step's note).

Transport and lifting first normalize the moving elements into the
relevant corners (r -> p r q, x -> p x e, and so on), so the transported
relations follow from the input's relations by pure ring identities.

One builder. ``infinite_vertex_from_reaching_cycle`` makes every case's
certificate from a generalized cycle (mu, nu) with an entrance whose
source reaches v along a path gamma. With p = s_nu s_nu*, x = s_nu s_gamma*,
y = s_gamma s_nu* and e = y x = s_gamma s_gamma*, the full build has three
steps: the cycle-pair witness q = s_mu s_mu*, r = s_nu s_mu*, s = s_mu s_nu*
for p, a transport along (x, y) to e, and a lift to s_v by the complement
s_v - e. The transport runs only when gamma != nu or d(nu) is not
<= d(mu), and the lift only when gamma is nontrivial, so a certificate
has 1 + [transported] + [gamma nontrivial] steps. Both tests compare
paths and degrees, before any product. A skipped step is the identity on
kind, target and parts, term for term:

- The cycle-pair certificate is corner-normal: p r = r = r q and
  q s = s = s p, as s_lam* s_lam = s_{s(lam)} and mu, nu share a source.
- With gamma = nu, x = y = p and e = p p = p. The transport's
  normalization gives r, s back (p r q = r, q s p = s) and x, y as p; its
  parts are p q p = q, p r p = r q p = r and p s p = p q s = s, by the
  input's checked relations q p = q and p q = q. These are equalities of
  elements. When d(nu) <= d(mu), mu = nu mu' (mu and nu have a common
  extension, so the head of mu at d(nu) is nu), s_nu* s_mu = s_mu' is one
  term, and every product gives the input's terms back. Otherwise the
  products refine them to degree d(mu) v d(nu), and the transport, though
  it fixes q, r and s as elements, is made.
- With gamma trivial, gamma is the vertex v, so e = s_v is the lift's
  target and the complement is zero. The lift's parts q, e r q and q s e
  are then q, r and s, because its input is corner-normal at (e, q):
  e r = r = r q and q s = s = s e. Untransported, it is the cycle-pair
  certificate, with e = p. Transported, its r and s are y' r' x' and
  y' s' x', with y' = e y p and x' = p x e, so e absorbs them on both
  sides; and the transport's checked x' y' = p with q p = q = p q gives
  (y' r' x')(y' q x') = y' r' q x' = y' r' x', and likewise for s.

One case per trace. ``prove_vertex_properly_infinite`` builds one
certificate for s_v per trace T = H & D(v) of the ideals H avoiding v,
D(v) being the vertices v reaches, in the quotient by closure(T), the
least ideal of that trace. Every term starts in D(v), which the builder
checks, so the certificate serves every ideal of trace T; the proof,
strictness included, is the witness search paragraph of the
``aperiodicity.py`` docstring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .aperiodicity import AperiodicityVerdict, aperiodicity_check, check_input
from .degrees import leq, total
from .field import Field, QQ
from .ideals import Ideal, quotient, traces
from .kgraph import KGraph, KGraphError, Path
from .kpelement import (
    KPElement,
    KPMatrix,
    as_matrix,
    column,
    equals,
    generator,
    is_idempotent,
    matrix_equals,
    oplus,
    row,
    spanning_term,
    star_generator,
    vertex_unit,
    zero,
)
from .paths import (
    GeneralizedCycle,
    NotFoundUpTo,
    ReachingCycle,
    _degrees_with_total,
    find_cycle_reaching,
    find_reaching_gen_cycle,
    reachable_to,
)


class WitnessError(KGraphError):
    pass


Payload = Union[KPElement, KPMatrix, Path]
Check = Tuple[str, Union[KPElement, KPMatrix], Union[KPElement, KPMatrix]]


@dataclass(frozen=True)
class DerivationStep:
    """One constructive move, with the elements it introduced and the
    equations that justify it."""

    rule: str
    note: str
    elements: Tuple[Tuple[str, Payload], ...]
    checks: Tuple[Check, ...] = ()


@dataclass(frozen=True)
class WitnessCertificate:
    kind: str  # "Infinite" or "ProperlyInfinite"
    target: KPElement
    parts: Tuple[Tuple[str, Union[KPElement, KPMatrix]], ...]
    derivation: Tuple[DerivationStep, ...]

    def part(self, name: str) -> Union[KPElement, KPMatrix]:
        for nm, val in self.parts:
            if nm == name:
                return val
        raise WitnessError("certificate has no part %r" % name)

    @property
    def graph(self) -> KGraph:
        return self.target.graph


def failing_checks(
    cert: WitnessCertificate, steps: Optional[Sequence[DerivationStep]] = None
) -> List[str]:
    """Re-verify a certificate; list every failed relation.

    The final relations are always checked. ``steps`` chooses the
    derivation checks replayed with them: the whole derivation by default,
    which is the from-scratch audit, or just the given steps.
    """
    fails: List[str] = []
    p = cert.target
    if not is_idempotent(p):
        fails.append("target is not idempotent")
    if cert.kind == "Infinite":
        q = cert.part("q")
        r = cert.part("r")
        s = cert.part("s")
        pairs = [
            ("q is idempotent", q * q, q),
            ("r s = p", r * s, p),
            ("s r = q", s * r, q),
            ("q p = q", q * p, q),
            ("p q = q", p * q, q),
        ]
        for desc, lhs, rhs in pairs:
            if not equals(lhs, rhs):
                fails.append(desc)
        if equals(q, p):
            fails.append("q = p, witness is not strict")
    elif cert.kind == "ProperlyInfinite":
        a = cert.part("A")
        b = cert.part("B")
        if a.shape != (2, 1) or b.shape != (1, 2):
            fails.append("A, B must be 2x1 and 1x2")
        elif not matrix_equals(a @ as_matrix(p) @ b, oplus(p, p)):
            fails.append("A p B = p (+) p")
    else:
        fails.append("unknown certificate kind %r" % cert.kind)
    for step in cert.derivation if steps is None else steps:
        for desc, lhs, rhs in step.checks:
            if not matrix_equals(lhs, rhs):
                fails.append("step %s: %s" % (step.rule, desc))
    return fails


def _finish(
    kind: str,
    target: KPElement,
    parts,
    derivation: Tuple[DerivationStep, ...],
    new: Tuple[DerivationStep, ...],
    context: str,
) -> WitnessCertificate:
    # the input's steps were checked when they were made; check the new
    # ones and the final relations
    cert = WitnessCertificate(kind, target, tuple(parts), derivation + new)
    fails = failing_checks(cert, new)
    if fails:
        raise WitnessError("%s: verification failed: %s" % (context, fails[0]))
    return cert


# -- constructions ---------------------------------------------------------------


def witness_from_gen_cycle(
    g: KGraph, c: GeneralizedCycle, fld: Field = QQ
) -> WitnessCertificate:
    """Infinite witness for p = s_nu s_{nu*} from a generalized cycle with
    an entrance.

    The containment gives p >= q = s_mu s_{mu*} with an explicit
    equivalence p ~ q through r = s_nu s_{mu*}, s = s_mu s_{nu*}; the
    entrance forces q != p. The containment Z(mu) <= Z(nu) itself is the
    output's relation q p = q, checked there and nowhere before.
    """
    if c.entrance is None:
        raise WitnessError(
            "generalized cycle (%s, %s) carries no entrance; the contained "
            "cylinder may be all of Z(nu) and no strict witness exists" % (c.mu, c.nu)
        )
    tau = c.entrance
    if tau.range != c.nu.source:
        raise WitnessError("entrance %s does not extend nu = %s" % (tau, c.nu))
    if g.mce(c.mu, g.compose(c.nu, tau)):
        raise WitnessError(
            "claimed entrance %s stays compatible with mu = %s" % (tau, c.mu)
        )
    p = spanning_term(g, fld, c.nu, c.nu)
    q = spanning_term(g, fld, c.mu, c.mu)
    r = spanning_term(g, fld, c.nu, c.mu)
    s = spanning_term(g, fld, c.mu, c.nu)
    step = DerivationStep(
        "cycle-pair-witness",
        "entrance %s escapes Z(%s), so the subidempotent is strict" % (tau, c.mu),
        (("mu", c.mu), ("nu", c.nu), ("entrance", tau)),
    )
    return _finish(
        "Infinite", p, (("q", q), ("r", r), ("s", s)), (), (step,), "witness_from_gen_cycle"
    )


def transport_infinite(
    cert: WitnessCertificate, x: KPElement, y: KPElement
) -> WitnessCertificate:
    """Move an Infinite witness across an equivalence x y = p, y x = e.

    x and y are normalized to p x e and e y p, and r, s to p r q and
    q s p; afterwards the transported relations hold identically.
    """
    if cert.kind != "Infinite":
        raise WitnessError("transport_infinite needs an Infinite certificate")
    p = cert.target
    e = y * x
    q, r, s = cert.part("q"), cert.part("r"), cert.part("s")
    rr, ss = p * r * q, q * s * p
    xx, yy = p * x * e, e * y * p
    q2, r2, s2 = yy * q * xx, yy * rr * xx, yy * ss * xx
    step = DerivationStep(
        "equivalence-transport",
        "conjugate the witness into the corner of y x",
        (("x", xx), ("y", yy)),
        (("x y = p", xx * yy, p), ("y x = e", yy * xx, e)),
    )
    return _finish(
        "Infinite",
        e,
        (("q", q2), ("r", r2), ("s", s2)),
        cert.derivation,
        (step,),
        "transport_infinite",
    )


def lift_infinite(cert: WitnessCertificate, big: KPElement) -> WitnessCertificate:
    """Extend an Infinite witness for e <= big to one for big.

    Adding the complement big - e to each of q, r, s fixes it pointwise,
    so the equivalence stays put on the new part and remains strict.
    """
    if cert.kind != "Infinite":
        raise WitnessError("lift_infinite needs an Infinite certificate")
    e = cert.target
    q, r, s = cert.part("q"), cert.part("r"), cert.part("s")
    rr, ss = e * r * q, q * s * e
    d = big - e
    step = DerivationStep(
        "subidempotent-lift",
        "fix the complement of e inside the larger idempotent",
        (("complement", d),),
        (("e big = e", e * big, e),),
    )
    return _finish(
        "Infinite",
        big,
        (("q", q + d), ("r", rr + d), ("s", ss + d)),
        cert.derivation,
        (step,),
        "lift_infinite",
    )


def orthogonal_witness(
    p: KPElement,
    q1: KPElement,
    q2: KPElement,
    a1: KPElement,
    b1: KPElement,
    a2: KPElement,
    b2: KPElement,
) -> WitnessCertificate:
    """ProperlyInfinite witness for p from two orthogonal idempotents that
    each absorb p: p = a_i q_i b_i with q1 q2 = q2 q1 = 0.

    Factoring p through each q_i gives v_i = p a_i q_i, w_i = q_i b_i p
    with v_i w_i = p, and orthogonality kills the cross products, so
    A = col(v_1, v_2), B = row(w_1, w_2) satisfy A p B = p (+) p.
    Like every constructor, it checks only its output's relations and its
    new steps. It does not decide beforehand that p, q1, q2 are
    idempotent, that q1 q2 = q2 q1 = 0 or that p = a_i q_i b_i; what the
    certificate needs of them, the target's idempotence and
    A p B = p (+) p, is checked on the output.
    """
    z = zero(p.graph, p.field)
    v1, w1 = p * a1 * q1, q1 * b1 * p
    v2, w2 = p * a2 * q2, q2 * b2 * p
    x1, x2 = w1 * v1, w2 * v2
    steps = (
        DerivationStep(
            "factor-through-orthogonal",
            "p ~ x1 inside the q1 corner",
            (("v1", v1), ("w1", w1), ("x1", x1)),
            (("v1 w1 = p", v1 * w1, p),),
        ),
        DerivationStep(
            "factor-through-orthogonal",
            "p ~ x2 inside the q2 corner",
            (("v2", v2), ("w2", w2), ("x2", x2)),
            (("v2 w2 = p", v2 * w2, p),),
        ),
        DerivationStep(
            "orthogonal-composition",
            "orthogonality of q1, q2 kills the cross products",
            (),
            (
                ("x1 x2 = 0", x1 * x2, z),
                ("v1 p w2 = 0", v1 * p * w2, z),
                ("v2 p w1 = 0", v2 * p * w1, z),
            ),
        ),
    )
    return _finish(
        "ProperlyInfinite",
        p,
        (("A", column(v1, v2)), ("B", row(w1, w2))),
        (),
        steps,
        "orthogonal_witness",
    )


# -- per-vertex procedure ---------------------------------------------------------


@dataclass(frozen=True)
class IdealCase:
    """Certificate for s_v built in the quotient by ``ideal``, the least
    ideal whose trace H & D(v) is ``trace``, and checked once, when it was
    made. Read over the quotient by any ideal H avoiding v with that trace,
    it is the certificate for the image of s_v there."""

    ideal: Ideal
    route: str  # "orthogonal-pair" or "generalized-cycle"
    certificate: WitnessCertificate
    trace: Ideal


@dataclass(frozen=True)
class VertexInfinitenessReport:
    vertex: str
    status: str  # "ProperlyInfinite", "Inconclusive", "Negative", "Refused"
    cases: Tuple[IdealCase, ...]
    proper: Optional[WitnessCertificate] = None
    failure: str = ""
    failed_ideal: Optional[Ideal] = None
    # D(v), the vertices v reaches, sorted
    reaches: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.status == "ProperlyInfinite"


def _disjoint_cycle_pair(g: KGraph, v: str, depth: int) -> Optional[ReachingCycle]:
    # a vertex w reaching v carrying two cycles mu1, mu2 with no common
    # extension: (mu1, w) is a generalized cycle, as Z(mu1) lies in Z(w),
    # and mu2 an entrance, as MCE(mu1, w mu2) is empty
    reach = reachable_to(g, v)
    ordered = sorted(reach.items(), key=lambda kv: (total(kv[1].degree), str(kv[1])))
    for w, gamma in ordered:
        cycles: List[Path] = []
        for t in range(1, depth + 1):
            # the pairs of cycles of lower totals were tested at those
            # totals: only pairs with a cycle of total t are new
            new = len(cycles)
            for n in _degrees_with_total(g.k, t):
                for p in g.paths(w, n):
                    if p.source == w:
                        cycles.append(p)
            for i in range(len(cycles)):
                for j in range(max(i + 1, new), len(cycles)):
                    if not g.mce(cycles[i], cycles[j]):
                        cycle = GeneralizedCycle(cycles[i], g.trivial_path(w), cycles[j])
                        return ReachingCycle(cycle, gamma)
    return None


def infinite_vertex_from_reaching_cycle(
    g: KGraph, rc: ReachingCycle, fld: Field = QQ
) -> WitnessCertificate:
    """Infinite witness for s_v from a generalized cycle (mu, nu) with
    entrance, reached from v along gamma: build it at the cycle for
    p = s_nu s_nu*, carry it along x = s_nu s_gamma*, y = s_gamma s_nu* to
    e = s_gamma s_gamma*, and lift it to s_v by the complement s_v - e.

    The transport runs only when gamma != nu or d(nu) is not <= d(mu),
    and the lift only when gamma is nontrivial; both tests compare paths
    and degrees, before any product. A skipped step is the identity on
    kind, target and parts, term for term (the "One builder" paragraph of
    the module docstring), so the certificate has
    1 + [transported] + [gamma nontrivial] steps."""
    cert = witness_from_gen_cycle(g, rc.cycle, fld)
    nu, gamma = rc.cycle.nu, rc.gamma
    if gamma != nu or not leq(nu.degree, rc.cycle.mu.degree):
        # along nu itself x = y = p keeps q, r and s as elements, but still
        # refines their terms to degree d(mu) v d(nu) when d(nu) is not <= d(mu)
        x = spanning_term(g, fld, nu, gamma)
        y = spanning_term(g, fld, gamma, nu)
        cert = transport_infinite(cert, x, y)
    if not gamma.is_trivial:
        cert = lift_infinite(cert, vertex_unit(g, fld, gamma.range))
    return cert


def _require_local(cert: WitnessCertificate, v: str, reach: FrozenSet[str]) -> None:
    # every term of the target and the parts starts in D(v), which makes
    # the certificate serve every ideal of its trace
    for nm, x in (("target", cert.target),) + cert.parts:
        entries = [y for r in x.rows for y in r] if isinstance(x, KPMatrix) else [x]
        for el in entries:
            for (lam, _), _ in el.terms:
                if lam.source not in reach:
                    raise WitnessError(
                        "certificate for %s: a term of %s has its source %s, "
                        "which does not reach %s" % (v, nm, lam.source, v)
                    )


def prove_vertex_properly_infinite(
    g: KGraph,
    v: str,
    depth: int = 6,
    fld: Field = QQ,
    aperiodicity: Optional[AperiodicityVerdict] = None,
) -> VertexInfinitenessReport:
    """Certify the image of s_v infinite in the quotient by every ideal
    avoiding v.

    Refuses outright when the graph is certified periodic: the reading of
    these certificates as proper infiniteness needs aperiodicity, and a
    certified counterexample cannot be argued away. Otherwise one loop
    makes one case per trace T = H & D(v) of the ideals H avoiding v, in
    the order of ``traces``, and reads the quotient by closure(T), kept on
    g by ``quotient``, for its certificate. That case serves every ideal
    of trace T (the witness search paragraph of ``aperiodicity.py``);
    every term of its certificate must start in D(v), or WitnessError is
    raised. In each case, route one looks for a vertex w reaching v
    carrying two cycles mu1, mu2 with no common extension, that is the
    generalized cycle (mu1, w) with entrance mu2; route two falls back to
    any generalized cycle with an entrance. A pair at v in g itself also
    gives ``proper``, the splitting of s_v. The first trace that neither
    route certifies ends the search: it is a definitive negative when no
    cycle reaches v there, since that corner is finite dimensional, and
    merely inconclusive otherwise, a depth-bounded miss. A depth below 1
    or an invalid presentation is refused (``check_input``). D(v) is the
    key set of ``reachable_to(g, v)``, kept on g.
    """
    check_input(g, depth)
    if not g.has_vertex(v):
        raise KGraphError("unknown vertex %r" % v)
    reach = frozenset(reachable_to(g, v))
    reaches = tuple(sorted(reach))
    if aperiodicity is None:
        aperiodicity = aperiodicity_check(g, depth)
    if aperiodicity.status == "periodic":
        what = ""
        if aperiodicity.certificate is not None:
            c = aperiodicity.certificate
            what = ": the pair (%s, %s) at %s is never separated" % (
                c.alpha,
                c.beta,
                c.vertex,
            )
        return VertexInfinitenessReport(
            v,
            "Refused",
            (),
            failure="the graph is certified periodic%s; vertex idempotents "
            "cannot be certified properly infinite there, so no witness "
            "search was attempted" % what,
            reaches=reaches,
        )
    cases: List[IdealCase] = []
    proper: Optional[WitnessCertificate] = None
    for h in traces(g, v):
        gq = quotient(g, h)
        route = "orthogonal-pair"
        rc = _disjoint_cycle_pair(gq, v, depth)
        if rc is None:
            route = "generalized-cycle"
            rc = find_reaching_gen_cycle(gq, v, depth)
            if isinstance(rc, NotFoundUpTo):
                # no route certifies v here: the shared exit below
                break
        elif not h and rc.gamma.is_trivial:
            # h = () is the first trace, g itself: the pair at v splits s_v
            pair = (rc.cycle.mu, rc.cycle.entrance)
            corners = [spanning_term(gq, fld, mu, mu) for mu in pair]
            moves = [f(gq, fld, mu) for mu in pair for f in (star_generator, generator)]
            proper = orthogonal_witness(vertex_unit(gq, fld, v), *corners, *moves)
        cert_v = infinite_vertex_from_reaching_cycle(gq, rc, fld)
        _require_local(cert_v, v, reach)
        trace = tuple(sorted(reach.intersection(h)))
        cases.append(IdealCase(h, route, cert_v, trace))
    else:
        # every trace certified
        return VertexInfinitenessReport(
            v, "ProperlyInfinite", tuple(cases), proper, reaches=reaches
        )
    if find_cycle_reaching(gq, v) is None:
        status = "Negative"
        failure = (
            "no cycle reaches %s in the quotient by {%s}; that corner is "
            "finite dimensional, so its vertex idempotent cannot be infinite"
            % (v, ", ".join(h))
        )
    else:
        status = "Inconclusive"
        failure = "no witness found in the quotient by {%s} within depth %d%s" % (
            ", ".join(h),
            depth,
            "; " + rc.detail if rc.detail else "",
        )
    return VertexInfinitenessReport(
        v, status, tuple(cases), proper, failure, h, reaches=reaches
    )


# -- serialization ----------------------------------------------------------------


def _payload_json(x: Payload):
    from .expr import format_element

    if isinstance(x, KPMatrix):
        return [[format_element(e) for e in r] for r in x.rows]
    if isinstance(x, KPElement):
        return format_element(x)
    return str(x)


def step_json(step: DerivationStep) -> Dict:
    return {
        "rule": step.rule,
        "note": step.note,
        "elements": {nm: _payload_json(val) for nm, val in step.elements},
        "checks": [desc for desc, _, _ in step.checks],
    }


def certificate_json(cert: WitnessCertificate) -> Dict:
    out: Dict = {
        "kind": cert.kind,
        "target": _payload_json(cert.target),
        "derivation": [step_json(s) for s in cert.derivation],
    }
    for nm, val in cert.parts:
        out[nm] = _payload_json(val)
    return out


def vertex_report_json(rep: VertexInfinitenessReport) -> Dict:
    """A vertex's entry in report format 4, and the output of ``witness
    --json``: ``reaches`` lists D(v), the vertices v reaches.
    ``certificates`` lists each distinct certificate text once, with the
    ideal of the first case that uses it (``[]`` for ``proper``). A case
    names its ``trace`` T = H & D(v), its least ideal closure(T) as
    ``ideal``, its route and its entry; read over the quotient by the
    case's ideal, the entry is the case's certificate, which serves every
    ideal H avoiding v with trace T. A vertex certified in every case
    lists the (trace, ideal) pairs of its answers in the report's
    ``aperiodicity`` section, in the same order."""
    certs: List[Dict] = []
    index: Dict[str, int] = {}
    cases = []
    for c in rep.cases:
        entry = certificate_json(c.certificate)
        text = json.dumps(entry)
        if text not in index:
            index[text] = len(certs)
            certs.append(dict(ideal=list(c.ideal), **entry))
        cases.append(
            {
                "trace": list(c.trace),
                "ideal": list(c.ideal),
                "route": c.route,
                "certificate": index[text],
            }
        )
    out: Dict = dict(
        vertex=rep.vertex,
        status=rep.status,
        reaches=list(rep.reaches),
        certificates=certs,
        cases=cases,
    )
    if rep.proper is not None:
        out["properly_infinite"] = len(certs)
        certs.append(dict(ideal=[], **certificate_json(rep.proper)))
    if rep.failure:
        out["failure"] = rep.failure
    if rep.failed_ideal is not None:
        out["failed_ideal"] = list(rep.failed_ideal)
    return out
