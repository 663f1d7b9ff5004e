"""Witness certificates: constructors, transports, verification, reports."""

import json
from collections import Counter

import pytest

from corpus import build, lattice8, two_loop_lattice
from kpalg import (
    KP,
    DerivationStep,
    Edge,
    GeneralizedCycle,
    KGraph,
    KGraphError,
    KPMatrix,
    PrimeField,
    QQ,
    ReachingCycle,
    SatHerSet,
    WitnessCertificate,
    WitnessError,
    aperiodicity_check,
    certificate_json,
    classify_pure_infiniteness,
    column,
    equals,
    failing_checks,
    find_reaching_gen_cycle,
    infinite_vertex_from_reaching_cycle,
    lift_infinite,
    matrix_equals,
    orthogonal_witness,
    properly_infinite_to_infinite,
    prove_vertex_properly_infinite,
    quotient,
    row,
    transport_infinite,
    transport_witness,
    verify_certificate,
    vertex_report_json,
    witness_from_gen_cycle,
)
from kpalg import witness
from kpalg.witness import _disjoint_cycle_pair, _pushed, quotient_image


@pytest.fixture()
def e2():
    g = build("e2")
    return g, KP(g, QQ)


def strict_cycle(kp):
    # Z(a.a) sits strictly inside Z(a); b escapes
    return GeneralizedCycle(kp.path("a", "a"), kp.path("a"), kp.path("b"))


def canonical_splitting(kp):
    pa, pb = kp.path("a"), kp.path("b")
    return orthogonal_witness(
        kp.s("v"),
        kp.term(pa, pa),
        kp.term(pb, pb),
        kp.star(pa),
        kp.s(pa),
        kp.star(pb),
        kp.s(pb),
    )


# -- generalized cycle constructor -----------------------------------------------


def test_gen_cycle_witness_verifies(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    assert cert.kind == "Infinite"
    pa = kp.path("a")
    assert equals(cert.target, kp.term(pa, pa))
    assert verify_certificate(cert)
    assert failing_checks(cert) == []
    assert equals(cert.part("r") * cert.part("s"), cert.target)
    assert not equals(cert.part("q"), cert.target)
    assert [st.rule for st in cert.derivation] == ["cycle-pair-witness"]


def test_gen_cycle_witness_over_prime_field(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp), PrimeField(5))
    assert cert.target.field.name == "F5"
    assert verify_certificate(cert)


def test_gen_cycle_requires_entrance(e2):
    g, kp = e2
    cyc = GeneralizedCycle(kp.path("a", "a"), kp.path("a"))
    with pytest.raises(WitnessError, match="carries no entrance"):
        witness_from_gen_cycle(g, cyc)


def test_gen_cycle_rejects_escaping_pair(e2):
    g, kp = e2
    # Z(a) is not contained in Z(b)
    cyc = GeneralizedCycle(kp.path("a"), kp.path("b"), kp.path("a"))
    with pytest.raises(WitnessError, match="not a generalized cycle"):
        witness_from_gen_cycle(g, cyc)


def test_gen_cycle_entrance_must_extend_nu():
    g = build("entered_loop")
    kp = KP(g, QQ)
    cyc = GeneralizedCycle(kp.path("d", "d"), kp.path("d"), kp.path("a"))
    with pytest.raises(WitnessError, match="does not extend nu"):
        witness_from_gen_cycle(g, cyc)


def test_gen_cycle_rejects_compatible_entrance(e2):
    g, kp = e2
    cyc = GeneralizedCycle(kp.path("a", "a"), kp.path("a"), kp.path("a"))
    with pytest.raises(WitnessError, match="stays compatible with mu"):
        witness_from_gen_cycle(g, cyc)


# -- re-verification catches tampering --------------------------------------------


def test_failing_checks_flags_widened_subidempotent(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    parts = (("q", cert.target), ("r", cert.part("r")), ("s", cert.part("s")))
    tampered = WitnessCertificate("Infinite", cert.target, parts, cert.derivation)
    fails = failing_checks(tampered)
    assert "q = p, witness is not strict" in fails
    assert "s r = q" in fails
    assert not verify_certificate(tampered)


def test_failing_checks_flags_bad_target(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    bad = WitnessCertificate("Infinite", kp.s(kp.path("a")), cert.parts, ())
    assert "target is not idempotent" in failing_checks(bad)


def test_failing_checks_flags_unknown_kind(e2):
    g, kp = e2
    bogus = WitnessCertificate("Bogus", kp.s("v"), (), ())
    assert failing_checks(bogus) == ["unknown certificate kind 'Bogus'"]


def test_failing_checks_flags_swapped_matrices(e2):
    g, kp = e2
    cert = canonical_splitting(kp)
    parts = (("A", cert.part("B")), ("B", cert.part("A")))
    tampered = WitnessCertificate("ProperlyInfinite", cert.target, parts, ())
    assert failing_checks(tampered) == ["A, B must be 2x1 and 1x2"]


def test_failing_checks_replays_derivation_steps(e2):
    g, kp = e2
    cert = canonical_splitting(kp)
    forged = DerivationStep(
        "orthogonal-composition", "made up", (), (("fabricated", kp.s("v"), kp.zero()),)
    )
    tampered = WitnessCertificate(
        cert.kind, cert.target, cert.parts, cert.derivation + (forged,)
    )
    assert failing_checks(tampered) == ["step orthogonal-composition: fabricated"]


# -- transport and lifting ---------------------------------------------------------


def test_transport_infinite_into_vertex_corner(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    pa = kp.path("a")
    moved = transport_infinite(cert, kp.s(pa), kp.star(pa))
    assert moved.kind == "Infinite"
    assert equals(moved.target, kp.s("v"))
    assert verify_certificate(moved)
    assert moved.derivation[-1].rule == "equivalence-transport"
    assert len(moved.derivation) == len(cert.derivation) + 1


def test_transport_infinite_rejects_wrong_kind(e2):
    g, kp = e2
    proper = canonical_splitting(kp)
    with pytest.raises(WitnessError, match="needs an Infinite certificate"):
        transport_infinite(proper, kp.s("v"), kp.s("v"))


def test_transport_infinite_needs_equivalence(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    with pytest.raises(WitnessError, match="transport needs x y = p"):
        transport_infinite(cert, kp.s("v"), kp.s("v"))


def test_lift_infinite_to_vertex_unit(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    lifted = lift_infinite(cert, kp.s("v"))
    assert equals(lifted.target, kp.s("v"))
    assert verify_certificate(lifted)
    assert lifted.derivation[-1].rule == "subidempotent-lift"


def test_lift_infinite_requires_containment(e2):
    g, kp = e2
    cert = witness_from_gen_cycle(g, strict_cycle(kp))
    lifted = lift_infinite(cert, kp.s("v"))
    pa = kp.path("a")
    with pytest.raises(WitnessError, match="lift needs e <= big"):
        lift_infinite(lifted, kp.term(pa, pa))


# -- orthogonal pair splitting ------------------------------------------------------


def test_orthogonal_witness_gives_canonical_splitting(e2):
    g, kp = e2
    cert = canonical_splitting(kp)
    assert cert.kind == "ProperlyInfinite"
    assert verify_certificate(cert)
    pa, pb = kp.path("a"), kp.path("b")
    assert matrix_equals(cert.part("A"), column(kp.star(pa), kp.star(pb)))
    assert matrix_equals(cert.part("B"), row(kp.s(pa), kp.s(pb)))
    assert [st.rule for st in cert.derivation] == [
        "factor-through-orthogonal",
        "factor-through-orthogonal",
        "orthogonal-composition",
    ]


def test_orthogonal_witness_rejects_non_idempotent(e2):
    g, kp = e2
    pa, pb = kp.path("a"), kp.path("b")
    with pytest.raises(WitnessError, match="p is not idempotent"):
        orthogonal_witness(
            kp.s(pa),
            kp.term(pa, pa),
            kp.term(pb, pb),
            kp.star(pa),
            kp.s(pa),
            kp.star(pb),
            kp.s(pb),
        )


def test_orthogonal_witness_rejects_overlapping_corners(e2):
    g, kp = e2
    pa = kp.path("a")
    q = kp.term(pa, pa)
    with pytest.raises(WitnessError, match="not orthogonal"):
        orthogonal_witness(kp.s("v"), q, q, kp.star(pa), kp.s(pa), kp.star(pa), kp.s(pa))


def test_orthogonal_witness_rejects_bad_factorization(e2):
    g, kp = e2
    pa, pb = kp.path("a"), kp.path("b")
    with pytest.raises(WitnessError, match="p != a1 q1 b1"):
        orthogonal_witness(
            kp.s("v"),
            kp.term(pa, pa),
            kp.term(pb, pb),
            kp.star(pa),
            kp.s(pb),
            kp.star(pb),
            kp.s(pb),
        )


def test_properly_infinite_yields_strict_subcopy(e2):
    g, kp = e2
    inf = properly_infinite_to_infinite(canonical_splitting(kp))
    assert inf.kind == "Infinite"
    assert equals(inf.target, kp.s("v"))
    assert verify_certificate(inf)
    pa = kp.path("a")
    assert equals(inf.part("q"), kp.term(pa, pa))


def test_properly_infinite_rejects_zero_idempotent(e2):
    g, kp = e2
    z = kp.zero()
    degenerate = orthogonal_witness(z, z, z, z, z, z, z)
    assert verify_certificate(degenerate)
    with pytest.raises(WitnessError, match="zero idempotent"):
        properly_infinite_to_infinite(degenerate)


# -- moving proper witnesses --------------------------------------------------------


def test_transport_witness_into_cylinder_corner(e2):
    g, kp = e2
    proper = canonical_splitting(kp)
    pa = kp.path("a")
    q = kp.term(pa, pa)
    moved = transport_witness(kp.s("v"), q, kp.star(pa), kp.s(pa), proper)
    assert moved.kind == "ProperlyInfinite"
    assert equals(moved.target, q)
    assert verify_certificate(moved)


def test_transport_witness_guards(e2):
    g, kp = e2
    proper = canonical_splitting(kp)
    inf = properly_infinite_to_infinite(proper)
    pa = kp.path("a")
    q = kp.term(pa, pa)
    with pytest.raises(WitnessError, match="ProperlyInfinite certificate"):
        transport_witness(kp.s("v"), q, kp.star(pa), kp.s(pa), inf)
    with pytest.raises(WitnessError, match="target differs from p"):
        transport_witness(q, q, q, q, proper)


@pytest.mark.parametrize(
    "build_input, construct",
    [
        (
            lambda g, kp: witness_from_gen_cycle(g, strict_cycle(kp)),
            lambda kp, c: transport_infinite(c, kp.s(kp.path("a")), kp.star(kp.path("a"))),
        ),
        (
            lambda g, kp: witness_from_gen_cycle(g, strict_cycle(kp)),
            lambda kp, c: lift_infinite(c, kp.s("v")),
        ),
        (
            lambda g, kp: canonical_splitting(kp),
            lambda kp, c: properly_infinite_to_infinite(c),
        ),
        (
            lambda g, kp: canonical_splitting(kp),
            lambda kp, c: transport_witness(
                kp.s("v"),
                kp.term(kp.path("a"), kp.path("a")),
                kp.star(kp.path("a")),
                kp.s(kp.path("a")),
                c,
            ),
        ),
    ],
    ids=[
        "transport_infinite",
        "lift_infinite",
        "properly_infinite_to_infinite",
        "transport_witness",
    ],
)
def test_constructors_refuse_unverified_input(e2, build_input, construct):
    g, kp = e2
    cert = build_input(g, kp)
    (name, val), rest = cert.parts[0], cert.parts[1:]
    doubled = WitnessCertificate(
        cert.kind, cert.target, ((name, val + val),) + rest, cert.derivation
    )
    with pytest.raises(WitnessError, match="input certificate does not verify"):
        construct(kp, doubled)


def test_constructors_check_each_step_once(e2, monkeypatch):
    # every derivation check runs once, when its step is made; inputs and
    # outputs are otherwise checked by their final relations only
    import kpalg.witness as witness_module

    replayed = []
    orig = witness_module.failing_checks

    def spy(cert, steps=None):
        replayed.extend(cert.derivation if steps is None else steps)
        return orig(cert, steps)

    monkeypatch.setattr(witness_module, "failing_checks", spy)
    g, kp = e2
    cert = prove_vertex_properly_infinite(g, "v", depth=3).cases[0].certificate
    assert len(cert.derivation) == 6
    assert sorted(map(id, replayed)) == sorted(map(id, cert.derivation))


def test_transport_chain_round_trip(e2):
    # proper at the vertex -> corner of a.a -> strict copy -> lift back up
    g, kp = e2
    proper = canonical_splitting(kp)
    lam = kp.path("a", "a")
    at_corner = transport_witness(
        kp.s("v"), kp.term(lam, lam), kp.star(lam), kp.s(lam), proper
    )
    inf = properly_infinite_to_infinite(at_corner)
    back = lift_infinite(inf, kp.s("v"))
    assert equals(back.target, kp.s("v"))
    assert verify_certificate(back)
    rules = [st.rule for st in back.derivation]
    assert rules[-1] == "subidempotent-lift"
    assert "equivalence-transport" in rules


# -- reaching cycle route -----------------------------------------------------------


def test_infinite_vertex_from_reaching_cycle(e2):
    g, kp = e2
    rc = find_reaching_gen_cycle(g, "v", 4)
    assert isinstance(rc, ReachingCycle)
    cert = infinite_vertex_from_reaching_cycle(g, rc)
    assert equals(cert.target, kp.s("v"))
    assert verify_certificate(cert)


def test_reaching_cycle_route_across_connecting_path():
    g = build("two_loops_plus_exit")
    kp = KP(g, QQ)
    rc = find_reaching_gen_cycle(g, "w", 4)
    assert isinstance(rc, ReachingCycle)
    assert rc.gamma.source != rc.gamma.range or rc.gamma.degree != (0,)
    cert = infinite_vertex_from_reaching_cycle(g, rc)
    assert equals(cert.target, kp.s("w"))
    assert verify_certificate(cert)


# -- per-vertex procedure -----------------------------------------------------------


def test_prove_vertex_on_bouquet(e2):
    g, kp = e2
    rep = prove_vertex_properly_infinite(g, "v", depth=3)
    assert rep.status == "ProperlyInfinite"
    assert bool(rep)
    assert len(rep.cases) == 1
    case = rep.cases[0]
    assert len(case.ideal) == 0
    assert case.route == "orthogonal-pair"
    assert verify_certificate(case.certificate)
    assert rep.proper is not None
    assert rep.proper.kind == "ProperlyInfinite"
    assert equals(rep.proper.target, kp.s("v"))


def test_prove_vertex_reached_from_cycles():
    g = build("two_loops_plus_exit")
    rep = prove_vertex_properly_infinite(g, "w", depth=3)
    assert rep.status == "ProperlyInfinite"
    assert all(verify_certificate(c.certificate) for c in rep.cases)
    # the disjoint pair lives at the other vertex, so no proper witness for w
    assert rep.proper is None


def test_prove_vertex_refuses_on_periodic_graph():
    g = build("t2")
    rep = prove_vertex_properly_infinite(g, "v", depth=3)
    assert rep.status == "Refused"
    assert not rep
    assert rep.cases == ()
    assert "certified periodic" in rep.failure
    assert "never separated" in rep.failure


def test_prove_vertex_negative_on_acyclic_graph():
    g = build("omega11")
    rep = prove_vertex_properly_infinite(g, "p00", depth=3)
    assert rep.status == "Negative"
    assert not rep
    assert rep.failed_ideal is not None
    assert "no cycle reaches p00" in rep.failure
    assert "finite dimensional" in rep.failure


@pytest.mark.parametrize("depth", [0, -3])
def test_prove_vertex_refuses_depth_below_one(e2, depth):
    # also when an aperiodicity verdict is supplied, so no check runs
    g, kp = e2
    ap = aperiodicity_check(g, 2)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        prove_vertex_properly_infinite(g, "v", depth=depth, aperiodicity=ap)


def test_prove_vertex_unknown_vertex(e2):
    g, kp = e2
    with pytest.raises(KGraphError, match="unknown vertex"):
        prove_vertex_properly_infinite(g, "nope")


# -- images under quotient maps -----------------------------------------------------


def fed_pair(fed_loops, feeder_loops):
    # v with its own loops, fed by the edge c from z with its own loops;
    # {z} is hereditary and saturated
    edges = [Edge("v%d" % i, 1, "v", "v") for i in range(fed_loops)]
    edges += [Edge("z%d" % i, 1, "z", "z") for i in range(feeder_loops)]
    return KGraph(1, ["v", "z"], edges + [Edge("c", 1, "z", "v")])


def test_quotient_image_drops_terms_at_the_ideal():
    # a certificate for s_v + s_z goes to the one a fresh build in the
    # quotient by {z} gives for s_v: the s_z terms vanish, the rest stays
    g = fed_pair(2, 2)
    cert = prove_vertex_properly_infinite(g, "v", 2).cases[0].certificate
    both = lift_infinite(cert, KP(g, QQ).s("v") + KP(g, QQ).s("z"))
    gq = quotient(g, SatHerSet(("z",)))
    image = quotient_image(both, gq)
    fresh = prove_vertex_properly_infinite(gq, "v", 2).cases[0].certificate
    expected = lift_infinite(fresh, KP(gq, QQ).s("v"))
    assert certificate_json(image) == certificate_json(expected)
    assert image.graph is gq
    assert all(lam.source == "v" for _, x in image.parts for (lam, _), _ in x.terms)
    assert verify_certificate(image)


def test_certificates_are_pushed_only_into_larger_ideals():
    # a certificate built in the quotient by {x} has lost its terms at x,
    # so it may serve the quotient by {x, z} but not the one by {z}
    g = KGraph(
        1,
        ["v", "x", "z"],
        [Edge("v0", 1, "v", "v"), Edge("v1", 1, "v", "v")]
        + [Edge(u + i, 1, u, u) for u in "xz" for i in "01"]
        + [Edge("c", 1, "x", "v"), Edge("d", 1, "z", "v")],
    )
    hx, hz, hxz = SatHerSet(("x",)), SatHerSet(("z",)), SatHerSet(("x", "z"))
    gx = quotient(g, hx)
    cert = prove_vertex_properly_infinite(gx, "v", 2).cases[0].certificate
    built = {"route": [(hx, cert)]}
    assert _pushed(built, "route", hz, quotient(g, hz)) == (hz, None)
    built_in, image = _pushed(built, "route", hxz, quotient(g, hxz))
    assert built_in == hx
    assert certificate_json(image) == certificate_json(cert)


def test_quotient_image_into_ideal_holding_the_cycle_raises():
    # the route runs through the loops at z; in the quotient by {z} the
    # image of q fills all of s_v, so the witness is no longer strict
    g = fed_pair(1, 2)
    assert _disjoint_cycle_pair(g, "v", 2)[0] == "z"
    case = prove_vertex_properly_infinite(g, "v", 2).cases[0]
    assert len(case.ideal) == 0 and case.route == "orthogonal-pair"
    cert = case.certificate
    with pytest.raises(WitnessError, match="quotient image: .*not strict"):
        quotient_image(cert, quotient(g, SatHerSet(("z",))))


def _payloads(cert):
    # every element, matrix entry and path a certificate holds, in order
    out = []

    def add(x):
        out.append(x)
        if isinstance(x, KPMatrix):
            for r in x.rows:
                for y in r:
                    add(y)

    add(cert.target)
    for _, x in cert.parts:
        add(x)
    for step in cert.derivation:
        for _, x in step.elements:
            add(x)
        for _, lhs, rhs in step.checks:
            add(lhs)
            add(rhs)
    return out


def test_quotient_image_maps_each_shared_object_once():
    # an object the source holds in several places, like p in its checks,
    # has one image object, which the image holds in the same places
    g = two_loop_lattice()
    pushed = 0
    for w in classify_pure_infiniteness(g, 2).witnesses:
        built = {c.ideal: c.certificate for c in w.cases if c.built_in == c.ideal}
        for c in w.cases:
            if c.built_in == c.ideal:
                continue
            pushed += 1
            src, img = _payloads(built[c.built_in]), _payloads(c.certificate)
            assert len(src) == len(img)
            images = {}
            for x, y in zip(src, img):
                images.setdefault(id(x), set()).add(id(y))
            assert all(len(ys) == 1 for ys in images.values()), c.ideal
            assert len(images) < len(src)
    assert pushed == 40


def test_each_pushed_image_is_checked_once(monkeypatch):
    # every image is still checked in its own quotient, each exactly once
    g = lattice8()
    checked = []
    inner = witness.failing_checks

    def counting(cert, steps=None):
        checked.append(cert)
        return inner(cert, steps)

    monkeypatch.setattr(witness, "failing_checks", counting)
    rep = classify_pure_infiniteness(g, 2)
    pushed = [c for w in rep.witnesses for c in w.cases if c.built_in != c.ideal]
    certs = sum(len(w.cases) + (w.proper is not None) for w in rep.witnesses)
    assert (len(checked), certs, len(pushed)) == (480, 440, 424)
    times = Counter(id(cert) for cert in checked)
    assert all(times[id(c.certificate)] == 1 for c in pushed)
    for c in pushed:
        assert set(c.certificate.graph.vertices) == set(g.vertices) - set(c.ideal)


def _pushable():
    # a certificate for s_v built over the whole graph, and the quotient by
    # {z}, which its image survives
    g = fed_pair(2, 2)
    cert = prove_vertex_properly_infinite(g, "v", 2).cases[0].certificate
    gq = quotient(g, SatHerSet(("z",)))
    assert verify_certificate(quotient_image(cert, gq))
    return cert, gq


def test_quotient_image_with_a_doubled_part_raises(monkeypatch):
    cert, gq = _pushable()

    def doubled(kind, target, parts, derivation):
        parts = tuple((nm, x + x if nm == "r" else x) for nm, x in parts)
        return WitnessCertificate(kind, target, parts, derivation)

    monkeypatch.setattr(witness, "WitnessCertificate", doubled)
    with pytest.raises(WitnessError, match="quotient image: .*r s = p"):
        quotient_image(cert, gq)


def test_quotient_image_with_a_confused_memo_raises(monkeypatch):
    # were the memo to confuse two source objects, here all of them, each
    # part would be the image of the target
    cert, gq = _pushable()
    monkeypatch.setattr(witness, "id", lambda x: 0, raising=False)
    with pytest.raises(WitnessError, match="quotient image: .*not strict"):
        quotient_image(cert, gq)


# -- serialization ------------------------------------------------------------------


def test_certificate_json_shapes(e2):
    g, kp = e2
    inf = witness_from_gen_cycle(g, strict_cycle(kp))
    data = certificate_json(inf)
    assert set(data) == {"kind", "target", "derivation", "q", "r", "s"}
    assert data["kind"] == "Infinite"
    assert isinstance(data["target"], str)
    step = data["derivation"][0]
    assert set(step) == {"rule", "note", "elements", "checks"}
    proper = canonical_splitting(kp)
    pd = certificate_json(proper)
    assert set(pd) == {"kind", "target", "derivation", "A", "B"}
    assert len(pd["A"]) == 2 and len(pd["A"][0]) == 1
    assert len(pd["B"]) == 1 and len(pd["B"][0]) == 2
    json.dumps(pd)


def test_vertex_report_json_shapes(e2):
    g, kp = e2
    rep = prove_vertex_properly_infinite(g, "v", depth=3)
    data = vertex_report_json(rep)
    assert data["vertex"] == "v"
    assert data["status"] == "ProperlyInfinite"
    assert data["cases"] == [{"ideal": [], "route": "orthogonal-pair", "certificate": 0}]
    inf, proper = data["certificates"]
    assert inf == dict(ideal=[], **certificate_json(rep.cases[0].certificate))
    assert proper == dict(ideal=[], **certificate_json(rep.proper))
    assert data["properly_infinite"] == 1
    neg = vertex_report_json(prove_vertex_properly_infinite(build("omega11"), "p11", depth=3))
    assert neg["status"] == "Negative"
    assert "failure" in neg and "failed_ideal" in neg
    assert "properly_infinite" not in neg
    assert all(0 <= c["certificate"] < len(neg["certificates"]) for c in neg["cases"])
    json.dumps(neg)
