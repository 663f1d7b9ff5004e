"""End-to-end classification: verdicts, consistency guards, serialization."""

import json

import pytest

from corpus import build
from kpalg import (
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
    verify_certificate,
)
from kpalg.classify import _assert_consistent, aperiodicity_json, conditions_json


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
