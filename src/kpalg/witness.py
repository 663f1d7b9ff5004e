"""Infiniteness witnesses: explicit elements, mandatory verification.

A certificate never asserts anything on trust: it carries the algebra
elements realizing the claimed relations, and ``verify_certificate``
rechecks every relation by symbolic arithmetic. Two kinds exist:

    Infinite(q, r, s) for p:   r s = p, s r = q, q <= p, q != p
    ProperlyInfinite(A, B) for p:   A is 2x1, B is 1x2, A p B = p (+) p

Constructors raise WitnessError when a precondition or a post-hoc check
fails; a verification failure after good preconditions means a bug and is
never downgraded to a soft result.

Transport and lifting first normalize the moving elements into the
relevant corners (r -> p r q, x -> p x e, and so on). With that
normalization, the transported relations follow from the verified inputs
by pure ring identities, so the constructions stay sound on any verified
input, not just the ones produced by the cycle search. Each constructor
checks the final relations of its input and output plus the checks of
the one step it adds, so every step is checked once, when it is made;
``failing_checks`` without ``steps`` replays the whole derivation.

Quotient images. The quotient map KP(Lambda) -> KP(Lambda/H), which
sends s_lam to s_lam, or to 0 when s(lam) lies in H, is a ring
homomorphism (Aranda Pino, Clark, an Huef and Raeburn, Trans. AMS 365,
2013), and so is Lambda/H' -> Lambda/H for H' inside H. A certificate
built in the quotient by H' therefore proves its image in the quotient by
H: ``quotient_image`` drops the terms whose source lies in H and keeps the
others term for term. The paths of Lambda/H are the paths of Lambda/H'
with source outside H, and by saturation so are its boundary paths, so
the image equals what a fresh build in Lambda/H would give. The
derivation checks hold in the image by the homomorphism and are not
replayed. The final relations are checked again in Lambda/H, as a guard
on the image map itself, and so is strictness (q != p), which a
homomorphism need not preserve: it can send q and p to the same element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .aperiodicity import AperiodicityVerdict, aperiodicity_check, check_depth
from .degrees import total
from .field import Field, QQ
from .ideals import QuotientTable, SatHerSet, enumerate_sat_her, quotient
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
    subidempotent_verify,
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
    is_generalized_cycle,
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


def verify_certificate(cert: WitnessCertificate) -> bool:
    return not failing_checks(cert)


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


def _require_verified(cert: WitnessCertificate, context: str) -> None:
    fails = failing_checks(cert, ())
    if fails:
        raise WitnessError("%s: input certificate does not verify: %s" % (context, fails[0]))


# -- constructions ---------------------------------------------------------------


def witness_from_gen_cycle(
    g: KGraph, c: GeneralizedCycle, fld: Field = QQ
) -> WitnessCertificate:
    """Infinite witness for p = s_nu s_{nu*} from a generalized cycle with
    an entrance.

    The containment gives p >= q = s_mu s_{mu*} with an explicit
    equivalence p ~ q through r = s_nu s_{mu*}, s = s_mu s_{nu*}; the
    entrance forces q != p.
    """
    if c.entrance is None:
        raise WitnessError(
            "generalized cycle (%s, %s) carries no entrance; the contained "
            "cylinder may be all of Z(nu) and no strict witness exists" % (c.mu, c.nu)
        )
    ev = is_generalized_cycle(g, c.mu, c.nu)
    if not ev:
        raise WitnessError(
            "(%s, %s) is not a generalized cycle; escape at %s"
            % (c.mu, c.nu, ev.failing[0])
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
    _require_verified(cert, "transport_infinite")
    p = cert.target
    if not equals(x * y, p):
        raise WitnessError("transport needs x y = p")
    e = y * x
    if not is_idempotent(e):
        raise WitnessError("transport target y x is not idempotent")
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
    _require_verified(cert, "lift_infinite")
    e = cert.target
    if not subidempotent_verify(e, big):
        raise WitnessError("lift needs e <= big")
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
    """
    for nm, el in (("p", p), ("q1", q1), ("q2", q2)):
        if not is_idempotent(el):
            raise WitnessError("%s is not idempotent" % nm)
    z = zero(p.graph, p.field)
    if not (equals(q1 * q2, z) and equals(q2 * q1, z)):
        raise WitnessError("q1 and q2 are not orthogonal")
    for i, (ai, qi, bi) in enumerate(((a1, q1, b1), (a2, q2, b2)), start=1):
        if not equals(ai * qi * bi, p):
            raise WitnessError("p != a%d q%d b%d" % (i, i, i))
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


def properly_infinite_to_infinite(cert: WitnessCertificate) -> WitnessCertificate:
    """Extract an Infinite witness for p from a ProperlyInfinite one.

    The two rows of A p B = p (+) p give orthogonal copies f_1, f_2 of p
    below p; if f_1 were all of p, the second copy would vanish, so the
    first copy is strict whenever p != 0.
    """
    if cert.kind != "ProperlyInfinite":
        raise WitnessError("need a ProperlyInfinite certificate")
    _require_verified(cert, "properly_infinite_to_infinite")
    p = cert.target
    if p.is_zero():
        raise WitnessError("zero idempotent has no strict subidempotent")
    a, b = cert.part("A"), cert.part("B")
    z = zero(p.graph, p.field)
    c1 = p * a.entry(0, 0) * p
    d1 = p * b.entry(0, 0) * p
    c2 = p * a.entry(1, 0) * p
    d2 = p * b.entry(0, 1) * p
    f1, f2 = d1 * c1, d2 * c2
    step = DerivationStep(
        "split-off-copies",
        "the two matrix rows give orthogonal copies of p below p",
        (("c1", c1), ("d1", d1), ("c2", c2), ("d2", d2), ("f2", f2)),
        (
            ("c1 d1 = p", c1 * d1, p),
            ("c2 d2 = p", c2 * d2, p),
            ("c1 d2 = 0", c1 * d2, z),
            ("c2 d1 = 0", c2 * d1, z),
            ("f1 f2 = 0", f1 * f2, z),
        ),
    )
    return _finish(
        "Infinite",
        p,
        (("q", f1), ("r", c1), ("s", d1)),
        cert.derivation,
        (step,),
        "properly_infinite_to_infinite",
    )


def transport_witness(
    p: KPElement,
    q: KPElement,
    x: KPElement,
    y: KPElement,
    w: WitnessCertificate,
) -> WitnessCertificate:
    """Move a ProperlyInfinite witness for p across x y = p, y x = q."""
    if w.kind != "ProperlyInfinite":
        raise WitnessError("transport_witness needs a ProperlyInfinite certificate")
    _require_verified(w, "transport_witness")
    if not equals(w.target, p):
        raise WitnessError("certificate target differs from p")
    if not equals(x * y, p):
        raise WitnessError("transport needs x y = p")
    if not equals(y * x, q):
        raise WitnessError("transport needs y x = q")
    if not is_idempotent(q):
        raise WitnessError("transport target q is not idempotent")
    xx, yy = p * x * q, q * y * p
    a2 = oplus(yy, yy) @ w.part("A") @ as_matrix(xx)
    b2 = as_matrix(yy) @ w.part("B") @ oplus(xx, xx)
    step = DerivationStep(
        "equivalence-transport",
        "conjugate the splitting matrices into the corner of q",
        (("x", xx), ("y", yy)),
        (("x y = p", xx * yy, p), ("y x = q", yy * xx, q)),
    )
    return _finish(
        "ProperlyInfinite",
        q,
        (("A", a2), ("B", b2)),
        w.derivation,
        (step,),
        "transport_witness",
    )


# -- per-vertex procedure ---------------------------------------------------------


@dataclass(frozen=True)
class IdealCase:
    """Certificate for the image of s_v in the quotient by ``ideal``. It is
    the image of the one built in the quotient by ``built_in``, which is
    ``ideal`` when the case built its own."""

    ideal: SatHerSet
    route: str  # "orthogonal-pair" or "generalized-cycle"
    certificate: WitnessCertificate
    built_in: SatHerSet


@dataclass(frozen=True)
class VertexInfinitenessReport:
    vertex: str
    status: str  # "ProperlyInfinite", "Inconclusive", "Negative", "Refused"
    cases: Tuple[IdealCase, ...]
    proper: Optional[WitnessCertificate] = None
    failure: str = ""
    failed_ideal: Optional[SatHerSet] = None

    def __bool__(self) -> bool:
        return self.status == "ProperlyInfinite"


def _disjoint_cycle_pair(
    g: KGraph, v: str, depth: int
) -> Optional[Tuple[str, Path, Path, Path]]:
    # a vertex w reaching v carrying two cycles with no common extension
    reach = reachable_to(g, v)
    ordered = sorted(reach.items(), key=lambda kv: (total(kv[1].degree), str(kv[1])))
    for w, gamma in ordered:
        cycles: List[Path] = []
        for t in range(1, depth + 1):
            for n in _degrees_with_total(g.k, t):
                for p in g.paths(w, n):
                    if p.source == w:
                        cycles.append(p)
            for i in range(len(cycles)):
                for j in range(i + 1, len(cycles)):
                    if not g.mce(cycles[i], cycles[j]):
                        return w, cycles[i], cycles[j], gamma
    return None


def infinite_vertex_from_reaching_cycle(
    g: KGraph, rc: ReachingCycle, fld: Field = QQ
) -> WitnessCertificate:
    """Infinite witness for s_v from a generalized cycle with entrance
    reached from v: build it at the cycle, carry it along the connecting
    path, and fill up the rest of the vertex idempotent."""
    cert0 = witness_from_gen_cycle(g, rc.cycle, fld)
    nu, gamma = rc.cycle.nu, rc.gamma
    x = spanning_term(g, fld, nu, gamma)
    y = spanning_term(g, fld, gamma, nu)
    cert_e = transport_infinite(cert0, x, y)
    return lift_infinite(cert_e, vertex_unit(g, fld, gamma.range))


def _vertex_cert_via_orthogonal(
    g: KGraph, v: str, w: str, mu1: Path, mu2: Path, gamma: Path, fld: Field
) -> Tuple[WitnessCertificate, WitnessCertificate]:
    # returns (Infinite cert for s_v, ProperlyInfinite cert for s_w)
    pw = vertex_unit(g, fld, w)
    t1 = spanning_term(g, fld, mu1, mu1)
    t2 = spanning_term(g, fld, mu2, mu2)
    proper = orthogonal_witness(
        pw,
        t1,
        t2,
        star_generator(g, fld, mu1),
        generator(g, fld, mu1),
        star_generator(g, fld, mu2),
        generator(g, fld, mu2),
    )
    inf_w = properly_infinite_to_infinite(proper)
    x = star_generator(g, fld, gamma)
    y = generator(g, fld, gamma)
    cert_e = transport_infinite(inf_w, x, y)
    cert_v = lift_infinite(cert_e, vertex_unit(g, fld, v))
    return cert_v, proper


def quotient_image(cert: WitnessCertificate, gq: KGraph) -> WitnessCertificate:
    """The image of a certificate under the quotient map onto gq.

    gq must be a quotient of the certificate's graph by a larger ideal H.
    A spanning term s_lam s_{mu*} goes to zero when its common source lies
    in H and to the same term over gq otherwise. The final relations and
    strictness are checked in gq; the derivation checks hold there by the
    homomorphism and are not replayed. A failure raises WitnessError.

    Paths are mapped once per word, and every other object once, by
    ``id`` (safe, since cert keeps them alive), so the image shares
    structure as its source does: p recurs in the checks, parts in steps.
    """
    images: Dict = {}

    def image(x):
        key = (x.range, x.edges) if isinstance(x, Path) else id(x)
        if key in images:
            return images[key]
        if isinstance(x, KPMatrix):
            out = KPMatrix(tuple(tuple(image(y) for y in r) for r in x.rows))
        elif isinstance(x, KPElement):
            out = KPElement(
                gq,
                x.field,
                tuple(
                    ((image(lam), image(mu)), c)
                    for (lam, mu), c in x.terms
                    if gq.has_vertex(lam.source)
                ),
            )
        else:
            out = Path(gq, x.range, x.edges, x.degree, x.source)
        images[key] = out
        return out

    out = WitnessCertificate(
        cert.kind,
        image(cert.target),
        tuple((nm, image(x)) for nm, x in cert.parts),
        tuple(
            DerivationStep(
                st.rule,
                st.note,
                tuple((nm, image(x)) for nm, x in st.elements),
                tuple((desc, image(a), image(b)) for desc, a, b in st.checks),
            )
            for st in cert.derivation
        ),
    )
    fails = failing_checks(out, ())
    if fails:
        raise WitnessError("quotient image: verification failed: %s" % fails[0])
    return out


# certificates by route: the route name with the (range, word) of each
# path that determines it, and every (ideal, certificate) built for it
Built = Dict[Tuple, List[Tuple[SatHerSet, WitnessCertificate]]]


def _route_key(route: str, *paths: Path) -> Tuple:
    return (route,) + tuple((p.range, p.edges) for p in paths)


def _pushed(built: Built, key: Tuple, h: SatHerSet, gq: KGraph):
    # (h0, image) for a certificate of the same route built in the
    # quotient by a smaller ideal h0, or (h, None) when there is none
    for h0, cert in built.get(key, ()):
        if h0.as_set() <= h.as_set():
            return h0, quotient_image(cert, gq)
    return h, None


def prove_vertex_properly_infinite(
    g: KGraph,
    v: str,
    depth: int = 6,
    fld: Field = QQ,
    aperiodicity: Optional[AperiodicityVerdict] = None,
    quotients: Optional[QuotientTable] = None,
) -> VertexInfinitenessReport:
    """Certify the image of s_v infinite in the quotient by every ideal
    avoiding v.

    Refuses outright when the graph is certified periodic: the reading of
    these certificates as proper infiniteness needs aperiodicity, and a
    certified counterexample cannot be argued away. Otherwise route one
    looks for a vertex reaching v that carries two cycles with no common
    extension; route two falls back to a generalized cycle with an
    entrance. A quotient in which no cycle reaches v at all is a
    definitive negative: the corner there is finite dimensional. A
    depth-bounded miss is merely inconclusive. A depth below 1 raises
    ValueError.

    ``quotients`` is the quotient table to read; when absent, the quotient
    by each ideal avoiding v is built as the search reaches it. A route
    already certified in the quotient by a smaller ideal is not built
    again: its certificate is pushed through the quotient map.
    """
    check_depth(depth)
    if not g.has_vertex(v):
        raise KGraphError("unknown vertex %r" % v)
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
        )
    cases: List[IdealCase] = []
    proper: Optional[WitnessCertificate] = None
    built: Built = {}
    if quotients is None:
        # only the quotients by ideals avoiding v, each when it is reached
        quotients = (
            (h, quotient(g, h)) for h in enumerate_sat_her(g).sets if v not in h
        )
    for h, gq in quotients:
        if v in h:
            continue
        pair = _disjoint_cycle_pair(gq, v, depth)
        if pair is not None:
            w, mu1, mu2, gamma = pair
            route = "orthogonal-pair"
            key = _route_key(route, mu1, mu2, gamma)
            built_in, cert_v = _pushed(built, key, h, gq)
            if cert_v is None:
                cert_v, proper_w = _vertex_cert_via_orthogonal(
                    gq, v, w, mu1, mu2, gamma, fld
                )
                built.setdefault(key, []).append((h, cert_v))
                if len(h) == 0 and w == v and proper is None:
                    proper = proper_w
            cases.append(IdealCase(h, route, cert_v, built_in))
            continue
        rc = find_reaching_gen_cycle(gq, v, depth)
        if isinstance(rc, ReachingCycle):
            route = "generalized-cycle"
            c = rc.cycle
            key = _route_key(route, c.mu, c.nu, c.entrance, rc.gamma)
            built_in, cert_v = _pushed(built, key, h, gq)
            if cert_v is None:
                cert_v = infinite_vertex_from_reaching_cycle(gq, rc, fld)
                built.setdefault(key, []).append((h, cert_v))
            cases.append(IdealCase(h, route, cert_v, built_in))
            continue
        if find_cycle_reaching(gq, v) is None:
            return VertexInfinitenessReport(
                v,
                "Negative",
                tuple(cases),
                proper,
                "no cycle reaches %s in the quotient by {%s}; that corner is "
                "finite dimensional, so its vertex idempotent cannot be infinite"
                % (v, ", ".join(h)),
                h,
            )
        detail = rc.detail if isinstance(rc, NotFoundUpTo) else ""
        return VertexInfinitenessReport(
            v,
            "Inconclusive",
            tuple(cases),
            proper,
            "no witness found in the quotient by {%s} within depth %d%s"
            % (", ".join(h), depth, ("; " + detail) if detail else ""),
            h,
        )
    return VertexInfinitenessReport(v, "ProperlyInfinite", tuple(cases), proper)


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
    """Report format 2: ``certificates`` lists each certificate once, as
    built, with the ideal of its quotient (``[]`` for ``proper``). A case
    names its entry; dropping the terms whose source lies in the case's
    ideal gives its image."""
    certs: List[Dict] = []
    index: Dict[SatHerSet, int] = {}
    cases = []
    for c in rep.cases:
        if c.built_in == c.ideal:
            index[c.ideal] = len(certs)
            certs.append(dict(ideal=list(c.ideal), **certificate_json(c.certificate)))
        cases.append(
            {"ideal": list(c.ideal), "route": c.route, "certificate": index[c.built_in]}
        )
    out: Dict = dict(vertex=rep.vertex, status=rep.status, certificates=certs, cases=cases)
    if rep.proper is not None:
        out["properly_infinite"] = len(certs)
        certs.append(dict(ideal=[], **certificate_json(rep.proper)))
    if rep.failure:
        out["failure"] = rep.failure
    if rep.failed_ideal is not None:
        out["failed_ideal"] = list(rep.failed_ideal)
    return out
