"""End-to-end classification: verdicts, consistency guards, serialization."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, build, lattice8, three_components, two_loop_lattice
from kpalg import (
    AperiodicityVerdict,
    Edge,
    InternalConsistencyError,
    KGraph,
    KGraphError,
    KPElement,
    PrimeField,
    QQ,
    SatHerSet,
    VertexConditions,
    VertexInfinitenessReport,
    certificate_json,
    classify_pure_infiniteness,
    format_element,
    lift_infinite,
    parse_expression,
    quotient,
    report_json,
    strong_aperiodicity_sweep,
    vertex_conditions,
    prove_vertex_properly_infinite,
    verify_certificate,
    vertex_report_json,
    vertex_unit,
)
from kpalg.classify import _assert_consistent, aperiodicity_json, conditions_json
from kpalg.ideals import quotient_table
from kpalg.witness import IdealCase, quotient_image
from oracles import prove_vertex_from_scratch


def torus_with_deaf_cycle():
    # disjoint color-1 cycle next to a torus: genuinely periodic, and the
    # checker certifies it at the torus vertex before reaching the cycle
    edges = [
        Edge("e", 1, "v", "v"),
        Edge("f", 2, "v", "v"),
        Edge("m1", 1, "x2", "x1"),
        Edge("m2", 1, "x1", "x2"),
    ]
    return KGraph(2, ["v", "x1", "x2"], edges, [("e", "f", "f", "e")])


# -- verdicts ----------------------------------------------------------------------


def test_bouquet_is_properly_purely_infinite():
    rep = classify_pure_infiniteness(build("e2"), depth=6)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert not rep.assumed_aperiodic
    assert rep.depth == 6 and rep.field_name == "Q"
    assert all(bool(w) for w in rep.witnesses)
    assert all(verify_certificate(c.certificate) for w in rep.witnesses for c in w.cases)
    assert "every vertex carries a verified infiniteness certificate" in rep.notes[-1]


def test_two_loops_plus_exit_covers_both_vertices():
    rep = classify_pure_infiniteness(build("two_loops_plus_exit"), depth=3)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert sorted(w.vertex for w in rep.witnesses) == ["v", "w"]


def test_product_bouquets_classify_fast():
    rep = classify_pure_infiniteness(build("prod_b2_b2"), depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"


def test_properly_purely_infinite_over_prime_field():
    rep = classify_pure_infiniteness(build("e2"), depth=3, fld=PrimeField(3))
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert rep.field_name == "F3"


def test_grid_is_not_purely_infinite():
    rep = classify_pure_infiniteness(build("omega11"), depth=3)
    assert rep.verdict == "NotPurelyInfinite"
    assert rep.witnesses == ()
    assert "vertex p11 receives no nontrivial path" in rep.notes[0]
    starved = [c.vertex for c in rep.conditions if not c.receives]
    assert starved == ["p11"]


def test_torus_is_inconclusive_with_certificate():
    rep = classify_pure_infiniteness(build("t2"), depth=3)
    assert rep.verdict == "Inconclusive"
    assert rep.witnesses == ()
    assert "certified periodic" in rep.notes[0]
    assert any(verd.status == "periodic" for _, verd in rep.sweep)


def test_aperiodicity_assertion_is_refused_against_certificate():
    rep = classify_pure_infiniteness(build("t2"), depth=3, assume_aperiodic=True)
    assert rep.verdict == "Inconclusive"
    assert not rep.assumed_aperiodic
    assert "assertion is refused because it contradicts this certificate" in rep.notes[0]


def test_periodic_quotient_blocks_entered_loop():
    rep = classify_pure_infiniteness(build("entered_loop"), depth=3)
    assert rep.verdict == "Inconclusive"
    assert "certified periodic" in rep.notes[0]


def test_disjoint_periodic_component_detected():
    rep = classify_pure_infiniteness(torus_with_deaf_cycle(), depth=2)
    assert rep.verdict == "Inconclusive"
    assert "certified periodic" in rep.notes[0]


@pytest.mark.parametrize("depth", [0, -3])
def test_depth_below_one_is_refused(depth):
    with pytest.raises(ValueError, match="depth must be >= 1"):
        classify_pure_infiniteness(build("two_loops_plus_exit"), depth=depth)


def test_classify_rejects_invalid_presentation():
    bad = KGraph(2, ["v"], [Edge("e", 1, "v", "v"), Edge("f", 2, "v", "v")], [])
    with pytest.raises(KGraphError, match="invalid presentation"):
        classify_pure_infiniteness(bad, depth=2)


# -- per-vertex conditions ----------------------------------------------------------


def test_vertex_conditions_two_routes():
    conds = vertex_conditions(build("two_loops_plus_exit"))
    by_v = {c.vertex: c for c in conds}
    assert by_v["v"].receives and by_v["w"].receives
    assert str(by_v["v"].cycle) == "a" and str(by_v["v"].via) == "v"
    assert str(by_v["w"].cycle) == "a" and str(by_v["w"].via) == "c"


def test_vertex_conditions_on_acyclic_graph():
    conds = vertex_conditions(build("chain3"))
    assert all(c.cycle is None and c.via is None for c in conds)


def test_consistency_guard_cycle_without_edge():
    g = build("e2")
    cyc = g.path_from_edges(["a"])
    forged = (VertexConditions("v", False, cyc, g.trivial_path("v")),)
    with pytest.raises(InternalConsistencyError, match="receives no edge"):
        _assert_consistent(forged)


def test_consistency_guard_global_mismatch():
    forged = (VertexConditions("v", True, None, None),)
    with pytest.raises(InternalConsistencyError, match="must agree"):
        _assert_consistent(forged)


def test_strong_sweep_covers_every_ideal():
    sweep = strong_aperiodicity_sweep(build("entered_loop"), 3)
    assert [(tuple(h), v.status) for h, v in sweep] == [
        ((), "periodic"),
        (("w",), "periodic"),
        (("v", "w"), "aperiodic"),
    ]


# -- one quotient table, certificates pushed through the quotient maps --------------


def in_memory(rep):
    # a vertex report with every case's in-memory certificate written out;
    # unlike the JSON table it does not depend on which quotient built it
    return (
        rep.vertex,
        rep.status,
        [(c.ideal, c.route, certificate_json(c.certificate)) for c in rep.cases],
        None if rep.proper is None else certificate_json(rep.proper),
        rep.failure,
        rep.failed_ideal,
    )


def assert_witnesses_match_from_scratch(g, depth):
    # the witnesses classify returns, and a witness search for every vertex
    # over one shared table with the gate forced open, against fresh builds
    for w in classify_pure_infiniteness(g, depth).witnesses:
        expected = prove_vertex_from_scratch(g, w.vertex, depth)
        assert in_memory(w) == in_memory(expected), w.vertex
    table = quotient_table(g)
    gate = AperiodicityVerdict("unknown", depth)
    for v in g.vertices:
        got = prove_vertex_properly_infinite(
            g, v, depth, aperiodicity=gate, quotients=table
        )
        expected = prove_vertex_from_scratch(g, v, depth)
        assert in_memory(got) == in_memory(expected), v


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_witnesses_match_from_scratch_on_corpus(name):
    for depth in (1, 2, 3):
        assert_witnesses_match_from_scratch(build(name), depth)


@pytest.mark.parametrize(
    "mk", [three_components, two_loop_lattice], ids=lambda mk: mk.__name__
)
def test_witnesses_match_from_scratch_on_lattices(mk):
    for depth in (1, 2):
        assert_witnesses_match_from_scratch(mk(), depth)


@st.composite
def looped_one_graphs(draw):
    # every vertex keeps one or two loops, so none is starved; feeders
    # between distinct vertices give the lattice its shape
    n = draw(st.integers(2, 4))
    edges = [
        Edge("l%d_%d" % (i, j), 1, "v%d" % i, "v%d" % i)
        for i in range(n)
        for j in range(draw(st.integers(1, 2)))
    ]
    end = st.integers(0, n - 1)
    feeders = draw(st.lists(st.tuples(end, end).filter(lambda e: e[0] != e[1]), max_size=4))
    edges += [
        Edge("f%d" % i, 1, "v%d" % s, "v%d" % r) for i, (s, r) in enumerate(feeders)
    ]
    return KGraph(1, ["v%d" % i for i in range(n)], edges)


@settings(max_examples=60, deadline=None)
@given(g=looped_one_graphs(), depth=st.integers(1, 2))
def test_witnesses_match_from_scratch_on_random_graphs(g, depth):
    assert_witnesses_match_from_scratch(g, depth)


def _count_calls(monkeypatch, name):
    # wrap an ideals function in every kpalg module that holds it
    from kpalg import ideals

    orig = getattr(ideals, name)
    seen = []

    def counted(*args):
        seen.append(tuple(args[1]) if len(args) > 1 else ())
        return orig(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "kpalg" and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return seen


def test_classify_builds_each_quotient_once(monkeypatch):
    g = two_loop_lattice()
    enumerated = _count_calls(monkeypatch, "enumerate_sat_her")
    quotients = _count_calls(monkeypatch, "quotient")
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(rep.sweep) == 18
    assert len(enumerated) == 1
    assert quotients == [tuple(h) for h, _ in rep.sweep]


def test_standalone_witness_builds_only_quotients_avoiding_the_vertex(monkeypatch):
    g = two_loop_lattice()
    lattice = [tuple(h) for h, _ in quotient_table(g)]
    quotients = _count_calls(monkeypatch, "quotient")
    for v in g.vertices:
        del quotients[:]
        rep = prove_vertex_properly_infinite(g, v, depth=2)
        assert rep.status == "ProperlyInfinite"
        assert quotients == [h for h in lattice if v not in h], v


# -- serialization ------------------------------------------------------------------


def test_report_json_positive():
    rep = classify_pure_infiniteness(build("e2"), depth=3)
    data = report_json(rep)
    assert set(data) == {
        "format",
        "verdict",
        "depth",
        "field",
        "assumed_aperiodic",
        "conditions",
        "aperiodicity",
        "witnesses",
        "notes",
    }
    assert data["format"] == 2
    assert data["verdict"] == "ProperlyPurelyInfinite"
    assert data["aperiodicity"][0]["ideal"] == []
    w = data["witnesses"][0]
    assert w["status"] == "ProperlyInfinite"
    assert set(w) == {"vertex", "status", "certificates", "cases", "properly_infinite"}
    assert w["cases"] == [{"ideal": [], "route": "orthogonal-pair", "certificate": 0}]
    assert [(c["ideal"], c["kind"]) for c in w["certificates"]] == [
        ([], "Infinite"),
        ([], "ProperlyInfinite"),
    ]
    assert w["properly_infinite"] == 1
    json.dumps(data)


@pytest.fixture(scope="module")
def lattice8_report():
    g = lattice8()
    return g, classify_pure_infiniteness(g, depth=2)


def test_report_json_holds_each_certificate_once(lattice8_report):
    _, rep = lattice8_report
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(rep.sweep) == 108
    data = report_json(rep)
    witnesses = data["witnesses"]
    # per vertex one built certificate and its proper certificate
    assert sum(len(w["certificates"]) for w in witnesses) == 16
    assert sum(len(w["cases"]) for w in witnesses) == 432
    assert len(json.dumps(data, indent=2)) < 200_000


def image_from_text(text, g, built_in, ideal):
    # the image map, written here: parse over the quotient that built the
    # certificate, drop the terms whose source lies in the case's ideal, and
    # rebuild the surviving paths by edge word over the case's quotient
    el = parse_expression(text, quotient(g, SatHerSet(tuple(built_in))), QQ)
    gq = quotient(g, SatHerSet(tuple(ideal)))

    def path(p):
        return gq.path_from_edges(p.edges) if p.edges else gq.trivial_path(p.range)

    kept = tuple(
        ((path(lam), path(mu)), c) for (lam, mu), c in el.terms if lam.source not in ideal
    )
    return format_element(KPElement(gq, QQ, kept))


def assert_text_gives_images(g, witnesses):
    # every case's in-memory certificate from the text of its table entry
    # alone; returns the number of pushed cases
    pushed = 0
    for w in witnesses:
        data = json.loads(json.dumps(vertex_report_json(w)))
        assert len(data["cases"]) == len(w.cases)
        for case, c in zip(w.cases, data["cases"]):
            entry = data["certificates"][c["certificate"]]
            assert entry["ideal"] == list(case.built_in)
            cert = case.certificate
            for part, x in [("target", cert.target)] + list(cert.parts):
                got = image_from_text(entry[part], g, entry["ideal"], c["ideal"])
                assert got == format_element(x), (w.vertex, c["ideal"], part)
            pushed += entry["ideal"] != c["ideal"]
    return pushed


def test_report_text_determines_every_image(lattice8_report):
    # no CORPUS graph has a pushed case: the two with more than two ideals
    # are certified periodic, so only the two lattices carry pushed cases
    for name, _ in CORPUS:
        g = build(name)
        assert assert_text_gives_images(g, classify_pure_infiniteness(g, 2).witnesses) == 0
    g = two_loop_lattice()
    assert assert_text_gives_images(g, classify_pure_infiniteness(g, 2).witnesses) > 0
    g, rep = lattice8_report
    assert assert_text_gives_images(g, rep.witnesses) == 432 - 8


def test_report_text_determines_an_image_that_drops_terms():
    # the images above keep every term; a certificate lifted to s_v + s_z
    # loses its terms at z in the quotient by {z}
    g = KGraph(
        1,
        ["v", "z"],
        [Edge(u + i, 1, u, u) for u in "vz" for i in "01"] + [Edge("c", 1, "z", "v")],
    )
    cert = prove_vertex_properly_infinite(g, "v", 2).cases[0].certificate
    built = lift_infinite(cert, vertex_unit(g, QQ, "v") + vertex_unit(g, QQ, "z"))
    empty, hz = SatHerSet(()), SatHerSet(("z",))
    image = quotient_image(built, quotient(g, hz))
    assert format_element(image.target) == "v" != format_element(built.target)
    cases = (
        IdealCase(empty, "orthogonal-pair", built, empty),
        IdealCase(hz, "orthogonal-pair", image, empty),
    )
    rep = VertexInfinitenessReport("v", "ProperlyInfinite", cases)
    assert assert_text_gives_images(g, [rep]) == 1


def test_aperiodicity_json_carries_certificate():
    rep = classify_pure_infiniteness(build("t2"), depth=3)
    data = aperiodicity_json(rep.sweep[0][1])
    assert data["status"] == "periodic"
    cert = data["certificate"]
    assert set(cert) == {
        "vertex",
        "alpha",
        "beta",
        "extensions_checked",
        "machine_states",
    }
    assert cert["vertex"] == "v"


def test_conditions_json_round_trip():
    conds = vertex_conditions(build("t2"))
    data = conditions_json(conds[0])
    assert data == {
        "vertex": "v",
        "receives": True,
        "cycle": "e",
        "via": "v",
    }
