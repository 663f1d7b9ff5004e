"""Saturated hereditary sets: closure, lattice, quotients."""

import json
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from corpus import (
    CORPUS,
    RANDOM_GRAPHS,
    entered_loop,
    lattice8,
    ring,
    three_components,
    two_loop_lattice,
)
from kpalg import (
    Edge,
    KGraph,
    KGraphError,
    chain,
    enumerate_sat_her,
    grid,
    quotient,
    sat_her_closure,
    two_loops_plus_exit,
    validate,
)
from kpalg import format_kgraph, ideals, parse_kgraph, strong_aperiodicity_sweep
from kpalg.cli import main
from kpalg.ideals import traces
from oracles import brute_sat_her, brute_traces


def test_closure_pulls_in_sources():
    g = two_loops_plus_exit()
    # w is closed on its own: heredity follows edges out of the set's
    # ranges, and nothing ranges at w except c whose source is v
    assert set(sat_her_closure(g, ["w"])) == {"v", "w"}
    assert set(sat_her_closure(g, [])) == set()


def test_closure_saturation_forces_vertices():
    g = entered_loop()
    assert set(sat_her_closure(g, ["w"])) == {"w"}
    # v sits on its own loop, so heredity drags in w via c and then all of v
    assert set(sat_her_closure(g, ["v"])) == {"v", "w"}


def test_closure_saturation_on_chain():
    g = chain(3)
    # v2 is the only feeder of v1, and v1 of v0: saturation forces both
    assert set(sat_her_closure(g, ["v2"])) == {"v0", "v1", "v2"}
    assert set(sat_her_closure(g, ["v0"])) == {"v0", "v1", "v2"}


def test_closure_walks_the_edge_indexes_once(monkeypatch):
    # one walk over the kept edge indexes: closing the lattice of a long
    # chain asks for no D(u) and builds no tuple of in-edges
    calls = Counter()

    def counted(owner, name):
        inner = getattr(owner, name)

        def spy(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, spy)

    # every kpalg module that holds the name, should one import it again
    for name, mod in list(sys.modules.items()):
        if name.startswith("kpalg") and hasattr(mod, "reachable_to"):
            counted(mod, "reachable_to")
    counted(KGraph, "edges_by_range")
    lat = enumerate_sat_her(chain(40))
    assert calls == Counter()
    assert lat.sets == ((), tuple(sorted("v%d" % i for i in range(40))))


def test_closure_rejects_unknown_vertex():
    with pytest.raises(KGraphError):
        sat_her_closure(chain(3), ["nope"])


def test_closure_fixes_exactly_the_sat_her_sets():
    g = entered_loop()
    assert sat_her_closure(g, []) == ()
    assert sat_her_closure(g, ["w"]) == ("w",)
    assert sat_her_closure(g, ["w", "v"]) == ("v", "w")
    assert sat_her_closure(g, ["v"]) != ("v",)


def assert_closures_are_least_sat_her_sets(g):
    lattice = brute_sat_her(g)
    vs = sorted(g.vertices)
    for r in range(len(vs) + 1):
        for sub in combinations(vs, r):
            least = frozenset.intersection(*[h for h in lattice if h >= set(sub)])
            assert sat_her_closure(g, sub) == tuple(sorted(least)), sub


@pytest.mark.parametrize("mk", [pytest.param(mk, id=name) for name, mk in CORPUS])
def test_closure_is_least_sat_her_set_on_corpus(mk):
    assert_closures_are_least_sat_her_sets(mk())


@settings(max_examples=100, deadline=None)
@given(g=RANDOM_GRAPHS)
def test_closure_is_least_sat_her_set_on_random_graphs(g):
    assert_closures_are_least_sat_her_sets(g)


def assert_closures_grow_from_closed_sets(g):
    # close(h + u) grown from a closed h, walking only what joins, is the
    # closure of h + u walked from the empty set
    for h in brute_sat_her(g):
        for u in sorted(set(g.vertices) - h):
            grown = ideals._close(g, h, (u,))
            assert tuple(sorted(grown)) == sat_her_closure(g, tuple(h) + (u,)), (h, u)


@pytest.mark.parametrize("mk", [pytest.param(mk, id=name) for name, mk in CORPUS])
def test_closure_grows_from_a_closed_set_on_corpus(mk):
    assert_closures_grow_from_closed_sets(mk())


@settings(max_examples=100, deadline=None)
@given(g=RANDOM_GRAPHS)
def test_closure_grows_from_a_closed_set_on_random_graphs(g):
    assert_closures_grow_from_closed_sets(g)


def test_lattice_on_entered_loop():
    lat = enumerate_sat_her(entered_loop())
    got = [tuple(h) for h in lat.sets]
    assert got == [(), ("w",), ("v", "w")]
    # covers form the 3-chain
    assert set(lat.covers) == {(0, 1), (1, 2)}


def test_lattice_is_trivial_on_strongly_connected_graphs():
    for name in ["e2", "t2", "cycle3", "two_loops_plus_exit"]:
        g = dict(CORPUS)[name]()
        lat = enumerate_sat_her(g)
        assert len(lat.sets) == 2
        assert len(lat.sets[0]) == 0
        assert set(lat.sets[-1]) == set(g.vertices)


def test_lattice_matches_brute_force_on_corpus():
    for name, mk in CORPUS:
        g = mk()
        expected = brute_sat_her(g)
        got = {frozenset(h) for h in enumerate_sat_her(g).sets}
        assert got == expected, name


def test_lattice_covers_are_inclusions_without_middle():
    # covers by definition: every i < j with nothing in between, in (i, j)
    # order
    assert len(enumerate_sat_her(three_components()).sets) == 12
    for name, mk in CORPUS + [("three_components", three_components)]:
        lat = enumerate_sat_her(mk())
        sets = [set(h) for h in lat.sets]
        expected = [
            (i, j)
            for i in range(len(sets))
            for j in range(len(sets))
            if sets[i] < sets[j]
            and not any(sets[i] < m < sets[j] for m in sets)
        ]
        assert list(lat.covers) == expected, name


def test_quotient_removes_ideal_and_validates():
    g = entered_loop()
    q = quotient(g, ("w",))
    assert list(q.vertices) == ["v"]
    assert set(q.edges) == {"a"}
    assert validate(q).ok


def test_quotient_by_empty_set_is_same_presentation():
    g = grid((1, 1))
    q = quotient(g, ())
    assert set(q.edges) == set(g.edges)
    assert list(q.vertices) == list(g.vertices)


def test_quotient_rejects_non_sat_her():
    g = entered_loop()
    with pytest.raises(KGraphError):
        quotient(g, ("v",))


def test_quotient_refusal_messages():
    with pytest.raises(KGraphError, match="unknown vertex 'nope'"):
        quotient(chain(3), ("nope",))
    # unknown names come first, in the order given
    with pytest.raises(KGraphError, match="unknown vertex 'nope'"):
        quotient(entered_loop(), ("v", "nope", "zz"))
    with pytest.raises(
        KGraphError,
        match=r"^\{v\} is not hereditary and saturated; its closure is \{v, w\}$",
    ):
        quotient(entered_loop(), ("v",))


def test_quotient_refuses_each_rule_on_its_own():
    g = chain(3)
    # hereditary: nothing enters v2, but v2 is v1's only feeder
    with pytest.raises(
        KGraphError,
        match=r"^\{v2\} is not hereditary and saturated; its closure is \{v0, v1, v2\}$",
    ):
        quotient(g, ("v2",))
    # saturated: v1 keeps its feeder v2, but v1 -> v0 enters the set
    with pytest.raises(
        KGraphError,
        match=r"^\{v0\} is not hereditary and saturated; its closure is \{v0, v1, v2\}$",
    ):
        quotient(g, ("v0",))


def _validate_from_scratch(g):
    # a fresh parse keeps no report, so nothing is inherited
    return validate(parse_kgraph(format_kgraph(g)))


def test_all_corpus_quotients_validate():
    for name, mk in CORPUS:
        g = mk()
        for h in enumerate_sat_her(g).sets:
            if len(h) == len(list(g.vertices)):
                continue
            assert _validate_from_scratch(quotient(g, h)).ok, (name, tuple(h))


def test_quotients_of_a_validated_graph_keep_its_report():
    for name, mk in CORPUS:
        g = mk()
        rep = validate(g)
        assert rep.ok, name
        for h in enumerate_sat_her(g).sets:
            gq = quotient(g, h)
            assert validate(gq) is rep, (name, h)
            assert _validate_from_scratch(gq).ok, (name, h)


def test_quotients_inherit_no_report_unvalidated_or_invalid():
    # never validated: the kept quotient makes its own report, even once
    # the parent has one
    for name, mk in CORPUS:
        g = mk()
        kept = [quotient(g, h) for h in enumerate_sat_her(g).sets if h]
        rep = validate(g)
        for gq in kept:
            assert validate(gq) is not rep and validate(gq).ok, name
    # invalid: the loop pair at v has no square, and {v} is an ideal, so
    # the quotient is the valid torus at x, with a report of its own
    bad = KGraph(
        2,
        ["v", "x"],
        [Edge("e", 1, "v", "v"), Edge("f", 2, "v", "v"), Edge("l", 1, "x", "x"), Edge("m", 2, "x", "x")],
        [("l", "m", "m", "l")],
    )
    assert not validate(bad).ok
    gq = quotient(bad, ("v",))
    assert validate(gq).ok and validate(gq) is not validate(bad)
    assert _validate_from_scratch(gq).ok


def test_quotient_is_kept_once_per_ideal():
    g = two_loop_lattice()
    for h in enumerate_sat_her(g).sets:
        assert quotient(g, h) is quotient(g, tuple(reversed(h))), h
    assert quotient(g, ()) is g


def test_sweep_closes_no_lattice_set_again(monkeypatch):
    # the lattice makes each set as a closure, and quotient reads
    # closedness off the graph it builds, so neither the sweep nor a
    # quotient by a closed set closes it again; a set that is not closed
    # is still refused. The sweep's other closures are those of its trace
    # listing
    g = lattice8()
    calls = []
    inner = ideals._close

    def counted(gr, closed, start):
        calls.append(closed | frozenset(start))
        return inner(gr, closed, start)

    monkeypatch.setattr(ideals, "_close", counted)
    for v in g.vertices:
        traces(g, v)
    listed = list(calls)
    del calls[:]
    enumerate_sat_her(g)
    enumerated = list(calls)
    del calls[:]
    sweep, _ = strong_aperiodicity_sweep(g, 1)
    assert (len(sweep), len(enumerated), len(listed)) == (108, 432, 3)
    assert calls == listed + enumerated
    del calls[:]
    quotient(g, ("x0",))
    assert calls == []
    with pytest.raises(KGraphError, match="not hereditary and saturated"):
        quotient(g, ("x1",))


def test_classify_closes_once_per_vertex_on_a_ring(monkeypatch, tmp_path, capsys):
    # ring(160) is strongly connected: every u has every v in D(u), so the
    # witness search at v closes no augmentation, and the only closures
    # are the lattice's, one per vertex; the console smoke run in CI
    # expects this exit code
    g = ring(160)
    path = tmp_path / "ring.kg"
    path.write_text(format_kgraph(g))
    calls = []
    inner = ideals._close

    def counted(gr, closed, start):
        calls.append(closed | frozenset(start))
        return inner(gr, closed, start)

    monkeypatch.setattr(ideals, "_close", counted)
    assert main(["classify", str(path), "--depth", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ProperlyPurelyInfinite"
    assert len(calls) <= len(g.vertices)


def closure_leaves_the_reach():
    # saturation adds v1 outside D(v2) = {v0, v2, v3}: v1's only feeder is
    # v3, so the trace {v0, v3} at v2 has the closure {v0, v1, v3}
    ends = [("v0", "v2"), ("v2", "v2"), ("v3", "v1"), ("v3", "v0")]
    edges = [Edge("e%d" % i, 1, s, r) for i, (s, r) in enumerate(ends)]
    return KGraph(1, ["v0", "v1", "v2", "v3"], edges)


def assert_traces_match_brute_force(g):
    for v in g.vertices:
        assert list(traces(g, v)) == brute_traces(g, v), v


@pytest.mark.parametrize(
    "mk",
    [pytest.param(mk, id=name) for name, mk in CORPUS]
    + [
        pytest.param(mk, id=mk.__name__)
        for mk in (
            lattice8,
            three_components,
            two_loop_lattice,
            closure_leaves_the_reach,
        )
    ],
)
def test_traces_match_brute_force(mk):
    assert_traces_match_brute_force(mk())


@settings(max_examples=150, deadline=None)
@given(g=RANDOM_GRAPHS)
def test_traces_match_brute_force_on_random_graphs(g):
    assert_traces_match_brute_force(g)
