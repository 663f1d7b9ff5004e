"""Witness certificates: constructors, transports, verification, reports."""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    FED_CHAINS,
    NAMES,
    RANDOM_GRAPHS,
    build,
    doubled_two_cycle,
    fed_loop,
    lattice8,
    ring,
    three_components,
    torus_beside_cycles,
    two_loop_lattice,
)
from kpalg import (
    DerivationStep,
    Edge,
    GeneralizedCycle,
    KGraph,
    KGraphError,
    KPElement,
    KPMatrix,
    PrimeField,
    QQ,
    ReachingCycle,
    WitnessCertificate,
    WitnessError,
    aperiodicity_check,
    certificate_json,
    classify_pure_infiniteness,
    column,
    enumerate_sat_her,
    equals,
    failing_checks,
    find_reaching_gen_cycle,
    generator,
    infinite_vertex_from_reaching_cycle,
    lift_infinite,
    matrix_equals,
    orthogonal_witness,
    prove_vertex_properly_infinite,
    reachable_to,
    row,
    spanning_term,
    star_generator,
    transport_infinite,
    vertex_report_json,
    vertex_unit,
    witness_from_gen_cycle,
    zero,
)
from kpalg import kpelement, witness
from kpalg.degrees import below, leq, total
from kpalg.witness import _disjoint_cycle_pair
from oracles import orthogonal_splitting, strict_copy


@pytest.fixture()
def e2():
    return build("e2")


def strict_cycle(g):
    # Z(a.a) sits strictly inside Z(a); b escapes
    return GeneralizedCycle(*(g.path_from_edges(w) for w in (["a", "a"], ["a"], ["b"])))


def canonical_splitting(g):
    pa, pb = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    return orthogonal_witness(
        vertex_unit(g, QQ, "v"),
        spanning_term(g, QQ, pa, pa),
        spanning_term(g, QQ, pb, pb),
        star_generator(g, QQ, pa),
        generator(g, QQ, pa),
        star_generator(g, QQ, pb),
        generator(g, QQ, pb),
    )


# -- generalized cycle constructor -----------------------------------------------


def test_gen_cycle_witness_verifies(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    assert cert.kind == "Infinite"
    pa = g.path_from_edges(["a"])
    assert equals(cert.target, spanning_term(g, QQ, pa, pa))
    assert failing_checks(cert) == []
    assert equals(cert.part("r") * cert.part("s"), cert.target)
    assert not equals(cert.part("q"), cert.target)
    assert [st.rule for st in cert.derivation] == ["cycle-pair-witness"]


def test_gen_cycle_witness_over_prime_field(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g), PrimeField(5))
    assert cert.target.field.name == "F5"
    assert failing_checks(cert) == []


def test_gen_cycle_requires_entrance(e2):
    g = e2
    cyc = GeneralizedCycle(g.path_from_edges(["a", "a"]), g.path_from_edges(["a"]))
    with pytest.raises(WitnessError, match="carries no entrance"):
        witness_from_gen_cycle(g, cyc)


def test_gen_cycle_rejects_escaping_pair(e2):
    g = e2
    # Z(a) is not contained in Z(b): the output's q p = q is that
    # containment, and it fails
    cyc = GeneralizedCycle(*(g.path_from_edges(w) for w in (["a"], ["b"], ["a"])))
    with pytest.raises(WitnessError, match="verification failed: q p = q"):
        witness_from_gen_cycle(g, cyc)


def test_gen_cycle_entrance_must_extend_nu():
    g = build("entered_loop")
    cyc = GeneralizedCycle(*(g.path_from_edges(w) for w in (["d", "d"], ["d"], ["a"])))
    with pytest.raises(WitnessError, match="does not extend nu"):
        witness_from_gen_cycle(g, cyc)


def test_gen_cycle_rejects_compatible_entrance(e2):
    g = e2
    cyc = GeneralizedCycle(*(g.path_from_edges(w) for w in (["a", "a"], ["a"], ["a"])))
    with pytest.raises(WitnessError, match="stays compatible with mu"):
        witness_from_gen_cycle(g, cyc)


# -- re-verification catches tampering --------------------------------------------


def test_failing_checks_flags_widened_subidempotent(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    parts = (("q", cert.target), ("r", cert.part("r")), ("s", cert.part("s")))
    tampered = WitnessCertificate("Infinite", cert.target, parts, cert.derivation)
    fails = failing_checks(tampered)
    assert "q = p, witness is not strict" in fails
    assert "s r = q" in fails


def test_failing_checks_flags_bad_target(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    sa = generator(g, QQ, g.path_from_edges(["a"]))
    bad = WitnessCertificate("Infinite", sa, cert.parts, ())
    assert "target is not idempotent" in failing_checks(bad)


def test_failing_checks_flags_unknown_kind(e2):
    g = e2
    bogus = WitnessCertificate("Bogus", vertex_unit(g, QQ, "v"), (), ())
    assert failing_checks(bogus) == ["unknown certificate kind 'Bogus'"]


def test_failing_checks_flags_swapped_matrices(e2):
    g = e2
    cert = canonical_splitting(g)
    parts = (("A", cert.part("B")), ("B", cert.part("A")))
    tampered = WitnessCertificate("ProperlyInfinite", cert.target, parts, ())
    assert failing_checks(tampered) == ["A, B must be 2x1 and 1x2"]


def test_failing_checks_replays_derivation_steps(e2):
    g = e2
    cert = canonical_splitting(g)
    forged = DerivationStep(
        "orthogonal-composition",
        "made up",
        (),
        (("fabricated", vertex_unit(g, QQ, "v"), zero(g, QQ)),),
    )
    tampered = WitnessCertificate(
        cert.kind, cert.target, cert.parts, cert.derivation + (forged,)
    )
    assert failing_checks(tampered) == ["step orthogonal-composition: fabricated"]


# -- transport and lifting ---------------------------------------------------------


def test_transport_infinite_into_vertex_corner(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    pa = g.path_from_edges(["a"])
    moved = transport_infinite(cert, generator(g, QQ, pa), star_generator(g, QQ, pa))
    assert moved.kind == "Infinite"
    assert equals(moved.target, vertex_unit(g, QQ, "v"))
    assert failing_checks(moved) == []
    assert moved.derivation[-1].rule == "equivalence-transport"
    assert len(moved.derivation) == len(cert.derivation) + 1


def test_transport_infinite_rejects_wrong_kind(e2):
    g = e2
    proper = canonical_splitting(g)
    with pytest.raises(WitnessError, match="needs an Infinite certificate"):
        transport_infinite(proper, vertex_unit(g, QQ, "v"), vertex_unit(g, QQ, "v"))


def test_transport_infinite_needs_equivalence(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    # x y = s_v is not p; corner-normalized, the witness lands on p, not on
    # the target s_v, and its r s = p fails
    with pytest.raises(WitnessError, match="verification failed: r s = p"):
        transport_infinite(cert, vertex_unit(g, QQ, "v"), vertex_unit(g, QQ, "v"))


def test_lift_infinite_to_vertex_unit(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    lifted = lift_infinite(cert, vertex_unit(g, QQ, "v"))
    assert equals(lifted.target, vertex_unit(g, QQ, "v"))
    assert failing_checks(lifted) == []
    assert lifted.derivation[-1].rule == "subidempotent-lift"


def test_lift_infinite_requires_containment(e2):
    g = e2
    cert = witness_from_gen_cycle(g, strict_cycle(g))
    lifted = lift_infinite(cert, vertex_unit(g, QQ, "v"))
    pa = g.path_from_edges(["a"])
    with pytest.raises(
        WitnessError, match="verification failed: step subidempotent-lift: e big = e"
    ):
        lift_infinite(lifted, spanning_term(g, QQ, pa, pa))


# -- orthogonal pair splitting ------------------------------------------------------


def test_orthogonal_witness_gives_canonical_splitting(e2):
    g = e2
    cert = canonical_splitting(g)
    assert cert.kind == "ProperlyInfinite"
    assert failing_checks(cert) == []
    pa, pb = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    stars = column(star_generator(g, QQ, pa), star_generator(g, QQ, pb))
    assert matrix_equals(cert.part("A"), stars)
    assert matrix_equals(cert.part("B"), row(generator(g, QQ, pa), generator(g, QQ, pb)))
    assert [st.rule for st in cert.derivation] == [
        "factor-through-orthogonal",
        "factor-through-orthogonal",
        "orthogonal-composition",
    ]


def test_orthogonal_witness_rejects_non_idempotent(e2):
    g = e2
    pa, pb = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    with pytest.raises(WitnessError, match="verification failed: target is not idempotent"):
        orthogonal_witness(
            generator(g, QQ, pa),
            spanning_term(g, QQ, pa, pa),
            spanning_term(g, QQ, pb, pb),
            star_generator(g, QQ, pa),
            generator(g, QQ, pa),
            star_generator(g, QQ, pb),
            generator(g, QQ, pb),
        )


def test_orthogonal_witness_rejects_overlapping_corners(e2):
    g = e2
    pa = g.path_from_edges(["a"])
    q = spanning_term(g, QQ, pa, pa)
    x, y = star_generator(g, QQ, pa), generator(g, QQ, pa)
    # q1 = q2 overlap: the two copies of p collide in A p B
    with pytest.raises(WitnessError, match=r"verification failed: A p B = p \(\+\) p"):
        orthogonal_witness(vertex_unit(g, QQ, "v"), q, q, x, y, x, y)


def test_orthogonal_witness_rejects_bad_factorization(e2):
    g = e2
    pa, pb = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    # a1 q1 b1 = 0, not p: the first copy of p is missing from A p B
    with pytest.raises(WitnessError, match=r"verification failed: A p B = p \(\+\) p"):
        orthogonal_witness(
            vertex_unit(g, QQ, "v"),
            spanning_term(g, QQ, pa, pa),
            spanning_term(g, QQ, pb, pb),
            star_generator(g, QQ, pa),
            generator(g, QQ, pb),
            star_generator(g, QQ, pb),
            generator(g, QQ, pb),
        )


# each constructor that takes a certificate, with an input for it
CONSTRUCTORS = [
    (
        lambda g: witness_from_gen_cycle(g, strict_cycle(g)),
        lambda g, c: transport_infinite(
            c,
            generator(g, QQ, g.path_from_edges(["a"])),
            star_generator(g, QQ, g.path_from_edges(["a"])),
        ),
    ),
    (
        lambda g: witness_from_gen_cycle(g, strict_cycle(g)),
        lambda g, c: lift_infinite(c, vertex_unit(g, QQ, "v")),
    ),
]
CONSTRUCTOR_IDS = [
    "transport_infinite",
    "lift_infinite",
]


@pytest.mark.parametrize("build_input, construct", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
def test_constructors_refuse_unverified_input(e2, build_input, construct):
    g = e2
    cert = build_input(g)
    (name, val), rest = cert.parts[0], cert.parts[1:]
    doubled = WitnessCertificate(
        cert.kind, cert.target, ((name, val + val),) + rest, cert.derivation
    )
    # the input is not re-checked: the output it gives fails its check
    with pytest.raises(WitnessError, match="verification failed"):
        construct(g, doubled)


def _corruptions(cert):
    # each part doubled; for an Infinite certificate also r and s swapped,
    # and q scaled by 2
    parts = dict(cert.parts)
    out = [{**parts, nm: x + x} for nm, x in cert.parts]
    if cert.kind == "Infinite":
        out.append({**parts, "r": parts["s"], "s": parts["r"]})
        out.append({**parts, "q": parts["q"].scale(2)})
    return [
        WitnessCertificate(cert.kind, cert.target, tuple(p.items()), cert.derivation)
        for p in out
    ]


@pytest.mark.parametrize("build_input, construct", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
def test_constructors_on_corrupted_input_raise_or_verify(e2, build_input, construct):
    # with no input re-check, a corrupted input is sound either way: the
    # constructor raises, or its output passes every check
    g = e2
    for bad in _corruptions(build_input(g)):
        try:
            out = construct(g, bad)
        except WitnessError:
            continue
        assert failing_checks(out) == []


@lru_cache(maxsize=None)
def _random_input_case(name):
    # a graph, its paths of total degree <= 2, and a verified Infinite
    # certificate on it to transport or lift
    g = build(name)
    paths = [
        p
        for v in g.vertices
        for n in below((2,) * g.k)
        if total(n) <= 2
        for p in g.paths(v, n)
    ]
    rc = _disjoint_cycle_pair(g, g.vertices[0], 2)
    return g, paths, witness_from_gen_cycle(g, rc.cycle)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["e2", "prod_b2_b2"]),
    construct=st.sampled_from(
        ["witness_from_gen_cycle", "transport_infinite", "lift_infinite", "orthogonal_witness"]
    ),
    data=st.data(),
)
def test_constructors_on_random_elements_raise_or_verify(name, construct, data):
    # no constructor decides a precondition on its arguments, so any
    # element or path it is fed is sound either way: it raises, or its
    # output passes every check
    g, paths, cert = _random_input_case(name)
    short = [p for p in paths if total(p.degree) <= 1]

    def path():
        return data.draw(st.sampled_from(paths))

    def element_and_adjoint():
        # a sum of spanning terms s_lam s_mu* and the same sum of s_mu s_lam*
        x = x_adj = zero(g, QQ)
        for _ in range(data.draw(st.integers(1, 2))):
            lam = data.draw(st.sampled_from(short))
            mu = data.draw(st.sampled_from([p for p in short if p.source == lam.source]))
            c = QQ.of(data.draw(st.sampled_from([1, -1, 2])))
            x = x + spanning_term(g, QQ, lam, mu).scale(c)
            x_adj = x_adj + spanning_term(g, QQ, mu, lam).scale(c)
        return x, x_adj

    def element():
        return element_and_adjoint()[0]

    try:
        if construct == "witness_from_gen_cycle":
            out = witness_from_gen_cycle(g, GeneralizedCycle(path(), path(), path()))
        elif construct == "transport_infinite":
            x, x_adj = element_and_adjoint()
            out = transport_infinite(cert, x, x_adj if data.draw(st.booleans()) else element())
        elif construct == "lift_infinite":
            out = lift_infinite(cert, element())
        else:
            out = orthogonal_witness(*(element() for _ in range(7)))
    except KGraphError:
        return
    assert failing_checks(out) == []


def test_constructors_check_each_step_once(e2, monkeypatch):
    # every derivation check runs once, when its step is made; a
    # constructor checks only its output's final relations and its own step
    import kpalg.witness as witness_module

    replayed = []
    orig = witness_module.failing_checks

    def spy(cert, steps=None):
        replayed.extend(cert.derivation if steps is None else steps)
        return orig(cert, steps)

    monkeypatch.setattr(witness_module, "failing_checks", spy)
    # at v in e2 the pair sits at v, so no step moves the witness; at w in
    # two_loops_plus_exit the pair at v is carried along c and lifted
    for g, v, rules in (
        (e2, "v", ["cycle-pair-witness"]),
        (
            build("two_loops_plus_exit"),
            "w",
            ["cycle-pair-witness", "equivalence-transport", "subidempotent-lift"],
        ),
    ):
        del replayed[:]
        rep = prove_vertex_properly_infinite(g, v, depth=3)
        cert = rep.cases[0].certificate
        assert [st.rule for st in cert.derivation] == rules
        made = cert.derivation + (rep.proper.derivation if rep.proper else ())
        assert sorted(map(id, replayed)) == sorted(map(id, made))


def test_transport_chain_round_trip(e2):
    # strict copy s_a s_a* of the vertex, b escaping -> corner of a.a ->
    # lift back up
    g = e2
    lam = g.path_from_edges(["a", "a"])
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    inf = witness_from_gen_cycle(g, GeneralizedCycle(a, g.trivial_path("v"), b))
    assert equals(inf.target, vertex_unit(g, QQ, "v"))
    at_corner = transport_infinite(inf, star_generator(g, QQ, lam), generator(g, QQ, lam))
    assert equals(at_corner.target, spanning_term(g, QQ, lam, lam))
    back = lift_infinite(at_corner, vertex_unit(g, QQ, "v"))
    assert equals(back.target, vertex_unit(g, QQ, "v"))
    assert failing_checks(back) == []
    rules = [st.rule for st in back.derivation]
    assert rules[-1] == "subidempotent-lift"
    assert "equivalence-transport" in rules


# -- reaching cycle route -----------------------------------------------------------


def test_infinite_vertex_from_reaching_cycle(e2):
    g = e2
    rc = find_reaching_gen_cycle(g, "v", 4)
    assert isinstance(rc, ReachingCycle)
    cert = infinite_vertex_from_reaching_cycle(g, rc)
    assert equals(cert.target, vertex_unit(g, QQ, "v"))
    assert failing_checks(cert) == []


def test_reaching_cycle_route_across_connecting_path():
    g = build("two_loops_plus_exit")
    rc = find_reaching_gen_cycle(g, "w", 4)
    assert isinstance(rc, ReachingCycle)
    assert rc.gamma.source != rc.gamma.range or rc.gamma.degree != (0,)
    cert = infinite_vertex_from_reaching_cycle(g, rc)
    assert equals(cert.target, vertex_unit(g, QQ, "w"))
    assert failing_checks(cert) == []


# -- per-vertex procedure -----------------------------------------------------------


def test_prove_vertex_on_bouquet(e2):
    g = e2
    rep = prove_vertex_properly_infinite(g, "v", depth=3)
    assert rep.status == "ProperlyInfinite"
    assert bool(rep)
    assert len(rep.cases) == 1
    case = rep.cases[0]
    assert len(case.ideal) == 0
    assert case.route == "orthogonal-pair"
    assert failing_checks(case.certificate) == []
    assert rep.proper is not None
    assert rep.proper.kind == "ProperlyInfinite"
    assert equals(rep.proper.target, vertex_unit(g, QQ, "v"))


def test_prove_vertex_reached_from_cycles():
    g = build("two_loops_plus_exit")
    rep = prove_vertex_properly_infinite(g, "w", depth=3)
    assert rep.status == "ProperlyInfinite"
    assert [f for c in rep.cases for f in failing_checks(c.certificate)] == []
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
    g = e2
    ap = aperiodicity_check(g, 2)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        prove_vertex_properly_infinite(g, "v", depth=depth, aperiodicity=ap)


def test_prove_vertex_unknown_vertex(e2):
    g = e2
    with pytest.raises(KGraphError, match="unknown vertex"):
        prove_vertex_properly_infinite(g, "nope")


# -- one case per trace --------------------------------------------------------------


def test_each_certificate_is_checked_once_when_made(monkeypatch):
    # every constructor call checks its output once, and nothing else runs
    # failing_checks: 11 cases on one constructor call each, as every
    # case's pair sits at its vertex (no transport, no lift), and 8 proper
    # splittings on one each, no input re-checked and no certificate
    # checked a second time
    g = lattice8()
    calls, checked = [], []
    inner = witness.failing_checks

    def counting(cert, steps=None):
        checked.append(cert)
        return inner(cert, steps)

    def called(name):
        made = getattr(witness, name)

        def wrapper(*args):
            calls.append(name)
            return made(*args)

        return wrapper

    monkeypatch.setattr(witness, "failing_checks", counting)
    for name in (
        "witness_from_gen_cycle",
        "transport_infinite",
        "lift_infinite",
        "orthogonal_witness",
    ):
        monkeypatch.setattr(witness, name, called(name))
    rep = classify_pure_infiniteness(g, 2)
    cases = [c for w in rep.witnesses for c in w.cases]
    certs = len(cases) + sum(w.proper is not None for w in rep.witnesses)
    assert (len(checked), len(calls), len(cases), certs) == (19, 19, 11, 19)
    assert not {"transport_infinite", "lift_infinite"} & set(calls)
    # one builder for both routes: the splitting is made only for the 8
    # proper certificates, and no case goes through it
    assert Counter(calls)["orthogonal_witness"] == certs - len(cases) == 8
    made = {id(cert) for cert in checked}
    assert len(made) == len(checked)
    assert all(id(c.certificate) in made for c in cases)
    for c in cases:
        assert set(c.certificate.graph.vertices) == set(g.vertices) - set(c.ideal)


def test_witness_search_decides_no_precondition_again(monkeypatch):
    # a constructor checks its output and its new step, nothing before:
    # the search at every vertex of lattice8 fits in the products and MCEs
    # of those checks and of the searches themselves (632 products when
    # every case also ran an identity transport and a zero lift)
    calls = Counter()
    mul, mce = kpelement.kp_mul, KGraph.mce

    def counted_mul(a, b):
        calls["kp_mul"] += 1
        return mul(a, b)

    def counted_mce(self, mu, nu):
        calls["mce"] += 1
        return mce(self, mu, nu)

    monkeypatch.setattr(kpelement, "kp_mul", counted_mul)
    monkeypatch.setattr(KGraph, "mce", counted_mce)
    g = lattice8()
    for v in g.vertices:
        assert prove_vertex_properly_infinite(g, v, 3)
    assert calls["kp_mul"] <= 258 and calls["mce"] <= 22, calls


def test_route_search_runs_once_per_trace_of_the_ideal(monkeypatch):
    g = lattice8()
    searched = []
    inner = witness._disjoint_cycle_pair

    def counting(gq, v, depth):
        searched.append(v)
        return inner(gq, v, depth)

    monkeypatch.setattr(witness, "_disjoint_cycle_pair", counting)
    ideals = enumerate_sat_her(g).sets
    traces = {
        v: {frozenset(reachable_to(g, v)).intersection(h) for h in ideals if v not in h}
        for v in g.vertices
    }
    rep = classify_pure_infiniteness(g, 2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert Counter(searched) == {v: len(keys) for v, keys in traces.items()}
    # 11 searches for 11 cases, one per trace, covering 432 (vertex,
    # quotient) pairs
    cases = sum(len(w.cases) for w in rep.witnesses)
    assert (len(searched), cases) == (11, 11)
    # a standalone call, which lists its own traces
    searched.clear()
    assert prove_vertex_properly_infinite(g, "x1", 2)
    assert searched == ["x1"] * len(traces["x1"])


@pytest.mark.parametrize("n, depth, calls", [(40, 3, 120), (20, 5, 31)])
def test_route_one_tests_each_cycle_pair_once(monkeypatch, n, depth, calls):
    # after each total degree only the pairs with a cycle of that total are
    # new, so no pair goes through mce twice in one search (160 and 39
    # calls here when every pair found so far was tested again)
    asked = []
    inner = KGraph.mce

    def counting(self, mu, nu):
        asked.append((mu, nu))
        return inner(self, mu, nu)

    monkeypatch.setattr(KGraph, "mce", counting)
    g = ring(n)
    total_calls = 0
    for v in g.vertices:
        del asked[:]
        _disjoint_cycle_pair(g, v, depth)
        assert len(asked) == len(set(asked)), v
        total_calls += len(asked)
    assert total_calls == calls


def former_orthogonal_chain(cert, v):
    # route one as it was built before it went through
    # infinite_vertex_from_reaching_cycle: split s_w by the pair, extract a
    # strict copy, carry it along gamma, lift it to s_v
    g = cert.graph
    found = dict(cert.derivation[0].elements)
    w = found["nu"].source
    gamma = reachable_to(g, v)[w]
    proper = orthogonal_splitting(g, w, found["mu"], found["entrance"])
    inf_w = strict_copy(proper)
    at_v = transport_infinite(inf_w, star_generator(g, QQ, gamma), generator(g, QQ, gamma))
    return lift_infinite(at_v, vertex_unit(g, QQ, v))


def test_orthogonal_pair_certificates_match_the_former_chain():
    # one builder for both routes changes only the derivation: each
    # orthogonal-pair case has the kind, target and parts of the former
    # four-constructor chain on the same pair, rebuilt in its quotient
    def answer(cert):
        return {k: x for k, x in certificate_json(cert).items() if k != "derivation"}

    compared, in_quotients, moved = 0, 0, 0
    for g in [build(name) for name in NAMES] + [lattice8()]:
        for depth in (2, 3):
            for w in classify_pure_infiniteness(g, depth).witnesses:
                for c in w.cases:
                    if c.route == "orthogonal-pair":
                        # nu is the trivial path at the pair's vertex, and
                        # gamma runs from there to v
                        found = dict(c.certificate.derivation[0].elements)
                        mu, nu = found["mu"], found["nu"]
                        gamma = reachable_to(c.certificate.graph, w.vertex)[nu.source]
                        assert len(c.certificate.derivation) == 1 + sum(_shape(mu, nu, gamma))
                        old = former_orthogonal_chain(c.certificate, w.vertex)
                        assert answer(old) == answer(c.certificate), (w.vertex, c.ideal)
                        at = nu.source
                        compared += 1
                        in_quotients += bool(c.ideal)
                        moved += at != w.vertex
    # some cases live in a proper quotient, some carry the pair to v
    # along a nontrivial path
    assert (compared, in_quotients, moved) == (38, 6, 2)


def _shape(mu, nu, gamma):
    # (transported, lifted): the builder makes the cycle-pair witness, a
    # transport when gamma != nu or d(nu) is not <= d(mu), and a lift when
    # gamma is nontrivial
    return gamma != nu or not leq(nu.degree, mu.degree), not gamma.is_trivial


def full_chain(g, rc):
    # every step of the builder made explicitly, skipped or not
    nu, gamma = rc.cycle.nu, rc.gamma
    cert = witness_from_gen_cycle(g, rc.cycle)
    x, y = spanning_term(g, QQ, nu, gamma), spanning_term(g, QQ, gamma, nu)
    moved = transport_infinite(cert, x, y)
    return lift_infinite(moved, vertex_unit(g, QQ, gamma.range))


def _terms(cert):
    return cert.kind, cert.target.terms, tuple((nm, x.terms) for nm, x in cert.parts)


def _check_against_full_chain(g, rc, cert):
    # a skipped step is the identity: the same kind, target and parts,
    # term for term, and one step fewer for each skip; returns the shape
    shape = _shape(rc.cycle.mu, rc.cycle.nu, rc.gamma)
    assert _terms(cert) == _terms(full_chain(g, rc)), (rc, shape)
    assert len(cert.derivation) == 1 + sum(shape), (rc, shape)
    return shape


def _case_shapes(g, depth):
    # every case certificate of the classification checked against the
    # full chain; the shapes met, counted
    made = []
    inner = witness.infinite_vertex_from_reaching_cycle

    def recording(gq, rc, fld=QQ):
        cert = inner(gq, rc, fld)
        made.append((gq, rc, cert))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "infinite_vertex_from_reaching_cycle", recording)
        rep = classify_pure_infiniteness(g, depth)
    built = {id(cert) for _, _, cert in made}
    assert all(id(c.certificate) in built for w in rep.witnesses for c in w.cases)
    return Counter(_check_against_full_chain(*m) for m in made)


FIXTURES = [
    three_components,
    two_loop_lattice,
    lattice8,
    torus_beside_cycles,
    doubled_two_cycle,
    fed_loop,
]


def test_case_certificates_match_the_full_chain():
    # the corpus gives the one-step shape (the pair at v) and the
    # three-step one (a pair reached along a nontrivial path)
    shapes = Counter()
    for g in [build(name) for name in NAMES] + [mk() for mk in FIXTURES]:
        for depth in (1, 2, 3):
            shapes += _case_shapes(g, depth)
    assert shapes[False, False] and shapes[True, True]
    # the two two-step shapes, by hand on e2: (a a, a) at v with gamma = v
    # is transported and not lifted, with gamma = nu = a lifted and not
    # transported
    g = build("e2")
    a, aa, b = (g.path_from_edges(w) for w in (["a"], ["a", "a"], ["b"]))
    cycle = GeneralizedCycle(aa, a, b)
    for gamma, shape, rule in (
        (g.trivial_path("v"), (True, False), "equivalence-transport"),
        (a, (False, True), "subidempotent-lift"),
    ):
        rc = ReachingCycle(cycle, gamma)
        cert = infinite_vertex_from_reaching_cycle(g, rc)
        assert _check_against_full_chain(g, rc, cert) == shape
        assert [st.rule for st in cert.derivation] == ["cycle-pair-witness", rule]
        assert equals(cert.target, vertex_unit(g, QQ, "v"))
        assert failing_checks(cert) == []


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(RANDOM_GRAPHS, FED_CHAINS), depth=st.integers(1, 2))
def test_case_certificates_match_the_full_chain_on_random_graphs(g, depth):
    # FED_CHAINS gives cases whose pair is reached along a nontrivial path
    _case_shapes(g, depth)


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(RANDOM_GRAPHS, FED_CHAINS), depth=st.integers(1, 2))
def test_two_step_certificates_match_the_full_chain_on_random_graphs(g, depth):
    # the classification builds no two-step case on these graphs, so both
    # are made off each reaching cycle with nontrivial nu: gamma = s(nu) is
    # transported alone, and gamma = nu is lifted alone where d(nu) <= d(mu)
    # (else the transport along p refines the terms, and is made)
    for v in g.vertices:
        rc = find_reaching_gen_cycle(g, v, depth)
        if not isinstance(rc, ReachingCycle) or rc.cycle.nu.is_trivial:
            continue
        mu, nu = rc.cycle.mu, rc.cycle.nu
        for gamma, shape in (
            (nu, (not leq(nu.degree, mu.degree), True)),
            (g.trivial_path(nu.source), (True, False)),
        ):
            case = ReachingCycle(rc.cycle, gamma)
            cert = infinite_vertex_from_reaching_cycle(g, case)
            assert _check_against_full_chain(g, case, cert) == shape
            assert failing_checks(cert) == []


def test_certificate_coefficients_are_exact_rationals():
    # over Q a coefficient is an int until a real fraction appears, never
    # a float: in the target, the parts, and each step's elements and checks
    def coefficients(x):
        if isinstance(x, KPMatrix):
            return [c for r in x.rows for e in r for c in coefficients(e)]
        if isinstance(x, KPElement):
            return [c for _, c in x.terms]
        return []  # a path

    seen = set()
    for g in [build(name) for name in NAMES] + [lattice8()]:
        for w in classify_pure_infiniteness(g, 2).witnesses:
            for cert in [c.certificate for c in w.cases] + [w.proper]:
                if cert is None:
                    continue
                xs = [cert.target] + [x for _, x in cert.parts]
                for step in cert.derivation:
                    xs += [x for _, x in step.elements]
                    xs += [x for _, lhs, rhs in step.checks for x in (lhs, rhs)]
                for x in xs:
                    seen.update(type(c) for c in coefficients(x))
    assert int in seen and seen <= {int, Fraction}


def test_certificate_term_outside_the_reach_of_its_vertex_raises(monkeypatch):
    # z does not reach v, so a certificate for s_v with a term at z would
    # not serve every ideal of its trace
    g = KGraph(1, ["v", "z"], [Edge(u + i, 1, u, u) for u in "vz" for i in "01"])
    rc = witness._disjoint_cycle_pair(g, "v", 2)
    cert = infinite_vertex_from_reaching_cycle(g, rc)
    both = lift_infinite(cert, vertex_unit(g, QQ, "v") + vertex_unit(g, QQ, "z"))
    monkeypatch.setattr(witness, "infinite_vertex_from_reaching_cycle", lambda *args: both)
    with pytest.raises(WitnessError, match="source z, which does not reach v"):
        prove_vertex_properly_infinite(g, "v", 2)


# -- serialization ------------------------------------------------------------------


def test_certificate_json_shapes(e2):
    g = e2
    inf = witness_from_gen_cycle(g, strict_cycle(g))
    data = certificate_json(inf)
    assert set(data) == {"kind", "target", "derivation", "q", "r", "s"}
    assert data["kind"] == "Infinite"
    assert isinstance(data["target"], str)
    step = data["derivation"][0]
    assert set(step) == {"rule", "note", "elements", "checks"}
    proper = canonical_splitting(g)
    pd = certificate_json(proper)
    assert set(pd) == {"kind", "target", "derivation", "A", "B"}
    assert len(pd["A"]) == 2 and len(pd["A"][0]) == 1
    assert len(pd["B"]) == 1 and len(pd["B"][0]) == 2
    json.dumps(pd)


def test_vertex_report_json_shapes(e2):
    g = e2
    rep = prove_vertex_properly_infinite(g, "v", depth=3)
    data = vertex_report_json(rep)
    assert data["vertex"] == "v"
    assert data["status"] == "ProperlyInfinite"
    assert data["reaches"] == ["v"]
    assert data["cases"] == [
        {"trace": [], "ideal": [], "route": "orthogonal-pair", "certificate": 0}
    ]
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
