"""End-to-end classification: verdicts, consistency guards, serialization."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, build, three_components
from kpalg import (
    AperiodicityVerdict,
    Edge,
    InternalConsistencyError,
    KGraph,
    KGraphError,
    PrimeField,
    VertexConditions,
    classify_pure_infiniteness,
    report_json,
    strong_aperiodicity_sweep,
    vertex_conditions,
    prove_vertex_properly_infinite,
    verify_certificate,
    vertex_report_json,
)
from kpalg.classify import _assert_consistent, aperiodicity_json, conditions_json
from kpalg.ideals import quotient_table
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
    # pigeonhole cap: |reachable set| ** k
    assert by_v["v"].search_bound == 1
    assert by_v["w"].search_bound == 2


def test_vertex_conditions_on_acyclic_graph():
    conds = vertex_conditions(build("chain3"))
    assert all(c.cycle is None and c.via is None for c in conds)


def test_consistency_guard_cycle_without_edge():
    g = build("e2")
    cyc = g.path_from_edges(["a"])
    forged = (VertexConditions("v", False, cyc, g.trivial_path("v"), 1),)
    with pytest.raises(InternalConsistencyError, match="receives no edge"):
        _assert_consistent(forged)


def test_consistency_guard_global_mismatch():
    forged = (VertexConditions("v", True, None, None, 1),)
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


def two_loop_lattice(n=5, feeders=((0, 1), (2, 3))):
    """n vertices with two loops each, plus feeder edges joining disjoint
    pairs: every down-set of the feeders is an ideal (here 3 * 3 * 2)."""
    vs = ["x%d" % i for i in range(n)]
    edges = [Edge(v + ab, 1, v, v) for v in vs for ab in "ab"]
    edges += [
        Edge("f%d" % i, 1, vs[s], vs[r]) for i, (s, r) in enumerate(feeders)
    ]
    return KGraph(1, vs, edges)


def assert_witnesses_match_from_scratch(g, depth):
    # the witnesses classify returns, and a witness search for every vertex
    # over one shared table with the gate forced open, against fresh builds
    for w in classify_pure_infiniteness(g, depth).witnesses:
        expected = prove_vertex_from_scratch(g, w.vertex, depth)
        assert vertex_report_json(w) == vertex_report_json(expected), w.vertex
    table = quotient_table(g)
    gate = AperiodicityVerdict("unknown", depth)
    for v in g.vertices:
        got = prove_vertex_properly_infinite(
            g, v, depth, aperiodicity=gate, quotients=table
        )
        expected = prove_vertex_from_scratch(g, v, depth)
        assert vertex_report_json(got) == vertex_report_json(expected), v


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


# -- serialization ------------------------------------------------------------------


def test_report_json_positive():
    rep = classify_pure_infiniteness(build("e2"), depth=3)
    data = report_json(rep)
    assert set(data) == {
        "verdict",
        "depth",
        "field",
        "assumed_aperiodic",
        "conditions",
        "aperiodicity",
        "witnesses",
        "notes",
    }
    assert data["verdict"] == "ProperlyPurelyInfinite"
    assert data["aperiodicity"][0]["ideal"] == []
    assert data["witnesses"][0]["status"] == "ProperlyInfinite"
    json.dumps(data)


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
        "search_bound": 1,
    }
