"""End-to-end classification: verdicts, consistency guards, serialization."""

import gc
import json
import random
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    CORPUS,
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
    AperiodicityVerdict,
    Edge,
    InternalConsistencyError,
    KGraph,
    KGraphError,
    KPMatrix,
    PrimeField,
    QQ,
    VertexConditions,
    bouquet,
    certificate_json,
    classify_pure_infiniteness,
    failing_checks,
    format_element,
    format_kgraph,
    parse_expression,
    parse_kgraph,
    product,
    quotient,
    random_square_graph,
    report_json,
    strong_aperiodicity_sweep,
    validate,
    vertex_conditions,
    prove_vertex_properly_infinite,
    vertex_report_json,
    WitnessCertificate,
)
from kpalg.classify import _assert_consistent, aperiodicity_json, conditions_json
from kpalg.ideals import enumerate_sat_her, sat_her_closure, traces
from kpalg.witness import IdealCase
from oracles import prove_vertex_from_scratch, reaching


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
    assert rep.depth == 6
    assert all(bool(w) for w in rep.witnesses)
    certs = [c.certificate for w in rep.witnesses for c in w.cases]
    assert [f for cert in certs for f in failing_checks(cert)] == []
    assert "every vertex carries a verified infiniteness certificate" in rep.notes[-1]


def test_two_loops_plus_exit_covers_both_vertices():
    rep = classify_pure_infiniteness(build("two_loops_plus_exit"), depth=3)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert sorted(w.vertex for w in rep.witnesses) == ["v", "w"]


def test_product_bouquets_classify_fast():
    rep = classify_pure_infiniteness(build("prod_b2_b2"), depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"


def test_three_factor_product_classifies():
    # the left factor is itself a 2-graph, so its squares are copied into
    # the product; validation runs the k = 3 hexagon check
    g = product(bouquet(2), bouquet(2, "u"), bouquet(2, "w"))
    assert g.k == 3 and validate(g).ok
    assert len(g.square_fwd) == 12
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"


def test_ring_product_is_certified_by_route_two(monkeypatch):
    # no census graph takes route two inside classify; on this product of
    # two rings route one finds no orthogonal pair at any vertex, so every
    # vertex is certified by a generalized cycle (0.4 s). Each
    # containment test stops at the first boundary extension of mu that
    # escapes nu, here always the first: one mce call per test
    from kpalg import paths

    g = product(ring(7, 1), ring(7, 2))
    contains, mce = paths.is_generalized_cycle, KGraph.mce
    calls = {"tests": 0, "mce": 0, "inside": False}

    def counted_contains(*args):
        calls["tests"] += 1
        calls["inside"] = True
        try:
            return contains(*args)
        finally:
            calls["inside"] = False

    def counted_mce(self, *args):
        calls["mce"] += calls["inside"]
        return mce(self, *args)

    monkeypatch.setattr(paths, "is_generalized_cycle", counted_contains)
    monkeypatch.setattr(KGraph, "mce", counted_mce)
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(rep.witnesses) == 49
    assert [[c.route for c in w.cases] for w in rep.witnesses] == [["generalized-cycle"]] * 49
    assert (calls["tests"], calls["mce"]) == (13181, 13181)


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


def test_unsettled_aperiodicity_is_inconclusive_unless_asserted():
    # at depth 1 the aperiodicity check settles neither way on this graph
    g = random_square_graph(1, 1, 2)
    rep = classify_pure_infiniteness(g, depth=1)
    assert rep.verdict == "Inconclusive"
    assert rep.witnesses == () and not rep.assumed_aperiodic
    assert rep.notes == (
        "aperiodicity of the graph itself is unknown at depth 1; raise the "
        "depth or assert aperiodicity to proceed",
    )
    rep = classify_pure_infiniteness(g, depth=1, assume_aperiodic=True)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert rep.assumed_aperiodic
    assert rep.notes[0] == (
        "aperiodicity accepted by assertion for 1 quotient(s) the check "
        "could not settle at depth 1"
    )


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


def test_classify_refuses_a_presentation_without_vertices():
    # every vertex of none carries a certificate: the verdict would be
    # vacuous, so it is refused like an invalid presentation; the sweep's
    # quotient by H = V, which has no vertices either, stays certified
    # aperiodic
    with pytest.raises(KGraphError, match="has no vertices"):
        classify_pure_infiniteness(KGraph(1, [], []), depth=2)
    h, verd = classify_pure_infiniteness(bouquet(2), depth=2).sweep[-1]
    assert (h, verd.status, verd.basis) == (("v",), "aperiodic", "certified")


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
    sweep, _ = strong_aperiodicity_sweep(build("entered_loop"), 3)
    assert [(tuple(h), v.status) for h, v in sweep] == [
        ((), "periodic"),
        (("w",), "periodic"),
        (("v", "w"), "aperiodic"),
    ]


# -- one quotient table, one case per trace ---------------------------------------


def in_memory(rep):
    # a vertex report with every case's in-memory certificate written out,
    # not shared between cases as in the JSON table
    return (
        rep.vertex,
        rep.status,
        rep.reaches,
        [(c.ideal, c.trace, c.route, certificate_json(c.certificate)) for c in rep.cases],
        None if rep.proper is None else certificate_json(rep.proper),
        rep.failure,
        rep.failed_ideal,
    )


def term_sources(cert):
    # the source of every term of the target and the parts
    out = set()
    for _, x in (("target", cert.target),) + cert.parts:
        rows = x.rows if hasattr(x, "rows") else ((x,),)
        out |= {lam.source for r in rows for el in r for (lam, _), _ in el.terms}
    return out


def per_ideal(g, rep):
    """The report with each per-trace case's own certificate serving every
    ideal avoiding v with its trace, up to the ideal at which a failed
    search stopped. Each case must sit at the closure of its trace, every
    trace met must have a case, and no term of a certificate may start in
    an ideal it serves, so the quotient map drops none."""
    reach = set(rep.reaches)
    by_trace = {c.trace: c for c in rep.cases}
    assert len(by_trace) == len(rep.cases)
    for c in rep.cases:
        assert c.ideal == sat_her_closure(g, c.trace), c
    cases = []
    for h in enumerate_sat_her(g).sets:
        if h == rep.failed_ideal:
            break
        if rep.vertex in h:
            continue
        c = by_trace[tuple(sorted(reach.intersection(h)))]
        assert term_sources(c.certificate).isdisjoint(h), (c, h)
        cases.append(IdealCase(h, c.route, c.certificate, c.trace))
    assert {c.trace for c in cases} == set(by_trace)
    return replace(rep, cases=tuple(cases))


def assert_witnesses_match_from_scratch(g, depth):
    # the witnesses classify returns, and a witness search for every vertex
    # with the gate forced open, expanded to every ideal, against fresh
    # builds in every quotient
    for w in classify_pure_infiniteness(g, depth).witnesses:
        expected = prove_vertex_from_scratch(g, w.vertex, depth)
        assert in_memory(per_ideal(g, w)) == in_memory(expected), w.vertex
    gate = AperiodicityVerdict("unknown", depth)
    for v in g.vertices:
        got = prove_vertex_properly_infinite(g, v, depth, aperiodicity=gate)
        expected = prove_vertex_from_scratch(g, v, depth)
        assert in_memory(per_ideal(g, got)) == in_memory(expected), v


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_witnesses_match_from_scratch_on_corpus(name):
    for depth in (1, 2, 3):
        assert_witnesses_match_from_scratch(build(name), depth)


@pytest.mark.parametrize(
    "mk", [three_components, two_loop_lattice, lattice8], ids=lambda mk: mk.__name__
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


@settings(max_examples=40, deadline=None)
@given(g=RANDOM_GRAPHS, depth=st.integers(1, 2))
def test_witnesses_match_from_scratch_on_random_presentations(g, depth):
    assert_witnesses_match_from_scratch(g, depth)


@settings(max_examples=100, deadline=None)
@given(
    g=st.one_of(RANDOM_GRAPHS, st.sampled_from([mk for _, mk in CORPUS]).map(lambda mk: mk())),
    depth=st.integers(1, 2),
    assume=st.booleans(),
)
def test_classify_never_reports_a_negative_witness(g, depth, assume):
    # witnesses are built only when no vertex is starved, and then a cycle
    # reaches every vertex of every quotient
    rep = classify_pure_infiniteness(g, depth, assume_aperiodic=assume)
    assert {w.status for w in rep.witnesses} <= {"ProperlyInfinite", "Inconclusive"}


def _count_calls(monkeypatch, name):
    # wrap an ideals function in every kpalg module that holds it
    from kpalg import ideals

    orig = getattr(ideals, name)
    seen = []

    def counted(*args, **kwargs):
        seen.append(tuple(args[1]) if len(args) > 1 else ())
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "kpalg" and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return seen


def _distinct(ideals):
    # the distinct ideals in lattice order: by size, then vertex ids
    return sorted(set(ideals), key=lambda h: (len(h), h))


def _count_builds(monkeypatch, g):
    # the ideal of each quotient of g that ``ideals.quotient`` builds, read
    # off the vertices of the KGraph it constructs
    from kpalg import ideals

    orig = ideals.KGraph
    built = []

    def counted(k, vertices, *args):
        vertices = list(vertices)
        built.append(tuple(sorted(set(g.vertices) - set(vertices))))
        return orig(k, vertices, *args)

    monkeypatch.setattr(ideals, "KGraph", counted)
    return built


def _assert_cases_read_the_kept_quotients(g, rep, built):
    # every case certificate lives on the one quotient kept for its ideal,
    # and looking the kept quotients up builds nothing more
    before = list(built)
    for w in rep.witnesses:
        for c in w.cases:
            assert c.certificate.graph is quotient(g, c.ideal), (w.vertex, c.ideal)
    assert built == before


def test_classify_builds_each_nonempty_case_ideal_once(monkeypatch):
    # the sweep builds a quotient only where a vertex meets a new trace, at
    # the least ideal of that trace, and keeps it on g; the witness cases
    # read the same quotients, and the quotient by () is g itself
    g = two_loop_lattice()
    enumerated = _count_calls(monkeypatch, "enumerate_sat_her")
    built = _count_builds(monkeypatch, g)
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(rep.sweep) == 18
    assert len(enumerated) == 1
    cases = [c.ideal for w in rep.witnesses for c in w.cases]
    assert len(cases) == 7
    assert built == [("x0",), ("x2",)]
    assert built == [h for h in _distinct(cases) if h]
    _assert_cases_read_the_kept_quotients(g, rep, built)


def test_standalone_witness_builds_only_quotients_avoiding_the_vertex(monkeypatch):
    # and of those only the quotient by the least ideal of each trace
    g = two_loop_lattice()
    quotients = _count_calls(monkeypatch, "quotient")
    built = {}
    for v in g.vertices:
        del quotients[:]
        rep = prove_vertex_properly_infinite(g, v, depth=2)
        assert rep.status == "ProperlyInfinite"
        assert quotients == [c.ideal for c in rep.cases], v
        built[v] = list(quotients)
    # x0 feeds x1 and x2 feeds x3; the 18 ideals give x1 and x3 two traces
    assert built == {
        "x0": [()],
        "x1": [(), ("x0",)],
        "x2": [()],
        "x3": [(), ("x2",)],
        "x4": [()],
    }


def test_a_dropped_graph_is_freed_with_its_quotients_once_its_report_goes():
    # no path holds its graph, so nothing but the report's certificates
    # keeps the graph and its quotients alive, and dropping the report
    # frees them by reference counting, with the collector off
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = parse_kgraph(format_kgraph(two_loop_lattice()))
        rep = classify_pure_infiniteness(g, depth=2)
        text = json.dumps(report_json(rep), indent=2)
        cases = _distinct(c.ideal for w in rep.witnesses for c in w.cases)
        # the quotients of the case ideals, the one by () being g itself
        assert len(cases) == 3
        refs = [weakref.ref(g)] + [weakref.ref(quotient(g, h)) for h in cases]
        del g
        assert json.dumps(report_json(rep), indent=2) == text
        del rep
        assert [r() for r in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def _lattice_972():
    # the benchmark generator's two_loop_lattice(12, 5) under seed 7: the
    # same feeder matching, drawn the same way
    ends = random.Random(7).sample(range(12), 10)
    return two_loop_lattice(12, tuple(zip(ends[::2], ends[1::2])))


def test_classify_makes_one_case_per_trace_on_a_972_ideal_lattice(monkeypatch):
    g = _lattice_972()
    built = _count_builds(monkeypatch, g)
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(rep.sweep) == 972
    # 5832 (vertex, ideal) pairs avoid their vertex; a fed vertex has two
    # traces, every other vertex one
    assert sum(len(w.cases) for w in rep.witnesses) == 17
    assert sorted(len(w.cases) for w in rep.witnesses) == [1] * 7 + [2] * 5
    # the quotients by the 5 distinct non-empty case ideals are built once
    # each, in lattice order, and every case reads the kept one
    cases = [c.ideal for w in rep.witnesses for c in w.cases]
    assert len(built) == 5
    assert built == [h for h in _distinct(cases) if h]
    _assert_cases_read_the_kept_quotients(g, rep, built)


def test_standalone_witness_does_not_enumerate_the_lattice(monkeypatch):
    # the traces are listed inside D(v), so a single vertex costs closures
    # of its own traces, not the 972 ideals
    g = _lattice_972()
    enumerated = _count_calls(monkeypatch, "enumerate_sat_her")
    quotients = _count_calls(monkeypatch, "quotient")
    for v in g.vertices:
        rep = prove_vertex_properly_infinite(g, v, depth=2)
        assert rep.status == "ProperlyInfinite", v
    assert enumerated == []
    assert len(quotients) == 17


def test_classify_lists_the_traces_twice_per_vertex(monkeypatch):
    # once in the sweep and once in the witness search, and the lattice once
    g = lattice8()
    enumerated = _count_calls(monkeypatch, "enumerate_sat_her")
    listed = _count_calls(monkeypatch, "traces")
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(enumerated) == 1
    assert ["".join(v) for v in listed] == list(g.vertices) * 2


def test_classify_computes_each_reach_set_once(monkeypatch):
    # D(v) is kept on the graph: the cycle search, the sweep and both
    # witness routes read one answer per (graph, vertex)
    from kpalg import paths

    g = lattice8()
    orig = paths.reachable_to
    answers = []

    def recorded(gr, v):
        out = orig(gr, v)
        answers.append((gr, v, out))
        return out

    for mod_name, mod in list(sys.modules.items()):
        held = getattr(mod, "reachable_to", None)
        if mod_name.split(".")[0] == "kpalg" and held is orig:
            monkeypatch.setattr(mod, "reachable_to", recorded)
    rep = classify_pure_infiniteness(g, depth=2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    first = {}
    for gr, v, out in answers:
        assert first.setdefault((id(gr), v), out) is out
    # the 8 vertices of g and 3 (quotient, vertex) pairs of route one
    assert len(first) == 11
    assert [w.reaches for w in rep.witnesses] == [
        tuple(sorted(orig(g, v))) for v in g.vertices
    ]


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
        "aperiodicity_basis",
        "conditions",
        "aperiodicity",
        "witnesses",
        "notes",
    }
    assert data["format"] == 4
    assert data["verdict"] == "ProperlyPurelyInfinite"
    assert data["aperiodicity_basis"] == "bounded"
    # one answer: v in g itself; the quotient by {v} has no vertex to search
    (a,) = data["aperiodicity"]
    assert list(a) == ["vertex", "trace", "ideal", "status", "basis", "depth", "evidence"]
    assert (a["vertex"], a["trace"], a["ideal"]) == ("v", [], [])
    assert (a["status"], a["basis"], a["depth"]) == ("aperiodic", "bounded", 3)
    assert [e["vertex"] for e in a["evidence"]] == ["v"]
    w = data["witnesses"][0]
    assert w["status"] == "ProperlyInfinite"
    assert set(w) == {
        "vertex",
        "status",
        "reaches",
        "certificates",
        "cases",
        "properly_infinite",
    }
    assert w["reaches"] == ["v"]
    assert w["cases"] == [
        {"trace": [], "ideal": [], "route": "orthogonal-pair", "certificate": 0}
    ]
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
    # per vertex one certificate text, which its cases share, and its
    # proper certificate
    assert sum(len(w["certificates"]) for w in witnesses) == 16
    # one case per trace: 11 for the 432 (vertex, ideal) pairs, and one
    # aperiodicity answer per trace for the 108 ideals
    assert sum(len(w["cases"]) for w in witnesses) == 11
    assert len(data["aperiodicity"]) == 11
    # every case's pair sits at its vertex, so each derivation is the
    # cycle-pair step alone (28,114 bytes when each also carried an
    # identity transport and a zero lift)
    assert len(json.dumps(data, indent=2)) < 24_000


def test_report_json_tracks_the_traces_not_the_ideals():
    # 14 vertices and 6 matched feeders: 3 ** 6 * 2 ** 2 = 2,916 ideals,
    # and one trace per vertex plus one more at each fed vertex
    g = two_loop_lattice(14, tuple((2 * i, 2 * i + 1) for i in range(6)))
    rep = classify_pure_infiniteness(g, 2)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert len(rep.sweep) == 2916
    data = report_json(rep)
    assert len(data["aperiodicity"]) == 20
    assert len(json.dumps(data, indent=2)) < 100_000


FIXTURES = (
    three_components,
    two_loop_lattice,
    lattice8,
    torus_beside_cycles,
    doubled_two_cycle,
    fed_loop,
)
GRAPHS = CORPUS + [(mk.__name__, mk) for mk in FIXTURES]


def test_answers_list_the_traces_of_the_witness_cases():
    # a ProperlyPurelyInfinite report searched every trace at every
    # vertex, so each vertex's answers name the (trace, ideal) pairs of its
    # witness cases, in the same order
    checked = 0
    for name, mk in GRAPHS:
        g = mk()
        for depth in (1, 2, 3):
            data = report_json(classify_pure_infiniteness(g, depth))
            if data["verdict"] != "ProperlyPurelyInfinite":
                continue
            for w in data["witnesses"]:
                at_v = [a for a in data["aperiodicity"] if a["vertex"] == w["vertex"]]
                got = [(a["trace"], a["ideal"]) for a in at_v]
                assert got == [(c["trace"], c["ideal"]) for c in w["cases"]], (name, depth)
                checked += 1
    assert checked == 67


def expand_answers(g, data):
    """Each ideal's aperiodicity entry of the report, rebuilt from the
    answers at (v, H & D(v)) for the vertices v outside H in vertex order:
    the first periodic answer, else the first unknown one, else aperiodic
    with the evidence of every answer. Returns the entries and the keys
    read, for the ideals of ``enumerate_sat_her``."""
    by_key = {(a["vertex"], tuple(a["trace"])): a for a in data["aperiodicity"]}
    assert len(by_key) == len(data["aperiodicity"])
    entries, read = [], set()
    for h in enumerate_sat_her(g).sets:
        got = []
        for v in g.vertices:
            if v in h:
                continue
            key = (v, tuple(sorted(reaching(g, v) & set(h))))
            read.add(key)
            a = by_key[key]
            got.append({x: y for x, y in a.items() if x not in ("vertex", "trace", "ideal")})
            if a["status"] == "periodic":
                break
        stuck = [a for a in got if a["status"] == "periodic"]
        stuck = stuck or [a for a in got if a["status"] == "unknown"]
        if stuck:
            entries.append(dict(ideal=list(h), **stuck[0]))
            continue
        evidence = [e for a in got for e in a.get("evidence", [])]
        basis = "bounded" if evidence else "certified"
        entry = dict(ideal=list(h), status="aperiodic", basis=basis, depth=data["depth"])
        if evidence:
            entry["evidence"] = evidence
        entries.append(entry)
    return entries, read


def assert_answers_expand_to_the_sweep(g, depth):
    rep = classify_pure_infiniteness(g, depth)
    data = json.loads(json.dumps(report_json(rep)))
    entries, read = expand_answers(g, data)
    assert entries == [dict(ideal=list(h), **aperiodicity_json(verd)) for h, verd in rep.sweep]
    # every answer serves some ideal, and each names the closure of its trace
    assert read == {(a["vertex"], tuple(a["trace"])) for a in data["aperiodicity"]}
    for a in data["aperiodicity"]:
        assert tuple(a["ideal"]) == sat_her_closure(g, a["trace"]), a
    # the answers follow the vertices, and at each vertex the order of traces
    listed = [(v, h) for v in g.vertices for h in traces(g, v)]
    got = [listed.index((a["vertex"], tuple(a["ideal"]))) for a in data["aperiodicity"]]
    assert got == sorted(got)


@pytest.mark.parametrize("name, mk", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_answers_expand_to_the_sweep(name, mk):
    for depth in (1, 2, 3):
        assert_answers_expand_to_the_sweep(mk(), depth)


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS, depth=st.integers(1, 2))
def test_answers_expand_to_the_sweep_on_random_graphs(g, depth):
    assert_answers_expand_to_the_sweep(g, depth)


def assert_text_gives_images(g, witnesses):
    # every case's in-memory certificate from the text of its table entry
    # alone, read over the case's own quotient; returns the number of cases
    # whose entry an earlier case of the vertex made
    shared = 0
    for w in witnesses:
        data = json.loads(json.dumps(vertex_report_json(w)))
        assert len(data["cases"]) == len(w.cases)
        for case, c in zip(w.cases, data["cases"]):
            entry = data["certificates"][c["certificate"]]
            gq = quotient(g, tuple(c["ideal"]))
            cert = case.certificate
            for part, x in [("target", cert.target)] + list(cert.parts):
                got = format_element(parse_expression(entry[part], gq, QQ))
                assert got == format_element(x), (w.vertex, c["ideal"], part)
            shared += entry["ideal"] != c["ideal"]
    return shared


def test_report_text_determines_every_image(lattice8_report):
    # no CORPUS graph shares an entry: the two with more than two ideals
    # are certified periodic, so only the two lattices have cases whose
    # certificate text an earlier case already wrote
    for name, _ in CORPUS:
        g = build(name)
        witnesses = classify_pure_infiniteness(g, 2).witnesses
        assert assert_text_gives_images(g, witnesses) == 0
    g = two_loop_lattice()
    witnesses = classify_pure_infiniteness(g, 2).witnesses
    assert assert_text_gives_images(g, witnesses) == 2
    g, rep = lattice8_report
    # 11 cases, 8 distinct certificate texts
    assert assert_text_gives_images(g, rep.witnesses) == 11 - 8


def _read(x, g, fld):
    # an element from its report text, or a matrix from nested lists of them
    if isinstance(x, list):
        return KPMatrix(tuple(tuple(_read(y, g, fld) for y in r) for r in x))
    return parse_expression(x, g, fld)


def _checked_over(g, rep, fields):
    # every certificate of the report, read from its text over each field
    # in the quotient by its ideal, passes its final relations; returns
    # how many were checked
    data = report_json(rep)
    checked = 0
    for entry in [e for w in data["witnesses"] for e in w["certificates"]]:
        gq = quotient(g, tuple(entry["ideal"]))
        names = ("q", "r", "s") if entry["kind"] == "Infinite" else ("A", "B")
        for fld in fields:
            parts = tuple((n, _read(entry[n], gq, fld)) for n in names)
            target = _read(entry["target"], gq, fld)
            cert = WitnessCertificate(entry["kind"], target, parts, ())
            assert failing_checks(cert) == [], (entry, fld.name)
            checked += 1
    return checked


def test_properly_purely_infinite_over_prime_field():
    # the builders take no field: the verdict's integer certificates,
    # read over F3, pass their final relations there too
    g = build("e2")
    rep = classify_pure_infiniteness(g, depth=3)
    assert rep.verdict == "ProperlyPurelyInfinite"
    assert _checked_over(g, rep, (PrimeField(3),)) > 0


def test_report_certificates_hold_over_prime_fields(lattice8_report):
    # every certificate of the report passes over F2, F3 and F7, q != p
    # included: the integer certificates hold over every field (the
    # witness.py docstring)
    reports = [(build(name), None) for name, _ in CORPUS] + [lattice8_report]
    fields = (PrimeField(2), PrimeField(3), PrimeField(7))
    checked = sum(
        _checked_over(g, rep or classify_pure_infiniteness(g, 2), fields)
        for g, rep in reports
    )
    # 15 certificates on the corpus and 16 on lattice8, over 3 fields
    assert checked == 3 * (15 + 16)


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
