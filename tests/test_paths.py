"""Path queries: enumeration, containment, generalized cycles, reach."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import NAMES, RANDOM_GRAPHS, build, entered_loop
from kpalg import (
    GeneralizedCycle,
    KGraphError,
    NotFoundUpTo,
    ReachingCycle,
    bouquet,
    chain,
    cylinder_contains,
    find_cycle_reaching,
    find_entrance,
    find_reaching_gen_cycle,
    grid,
    is_generalized_cycle,
    loop_with_exit,
    path_sort_key,
    reachable_to,
    torus,
)
from kpalg.degrees import total
from oracles import brute_reaching_gen_cycle


def test_enumerate_paths_exact_is_sorted_and_complete():
    g = bouquet(2)
    ps = g.paths("v", (2,))
    assert [str(p) for p in ps] == ["a.a", "a.b", "b.a", "b.b"]
    assert list(ps) == sorted(ps, key=path_sort_key)
    assert g.path_from_edges(["a", "b"]) in ps


def test_enumerate_paths_boundary_mode():
    g = grid((1, 1))
    ps = g.boundary_paths("p00", (1, 1))
    assert len(ps) == 1 and ps[0].degree == (1, 1)
    with pytest.raises(KGraphError):
        g.boundary_paths("p00", (1,))


def test_not_found_is_falsy():
    assert not NotFoundUpTo(6)
    assert NotFoundUpTo(6, "nothing").depth == 6


def test_cylinder_contains_on_bouquet():
    g = bouquet(2)
    a = g.path_from_edges(["a"])
    aa = g.path_from_edges(["a", "a"])
    ab = g.path_from_edges(["a", "b"])
    assert cylinder_contains(g, a, aa)
    assert cylinder_contains(g, a, ab)
    ev = cylinder_contains(g, aa, a)
    assert not ev and ev.failing


def test_generalized_cycle_requires_distinct_matching_paths():
    g = bouquet(2)
    a = g.path_from_edges(["a"])
    with pytest.raises(KGraphError):
        is_generalized_cycle(g, a, a)


def test_loop_pair_on_torus_is_gen_cycle_without_entrance():
    g = torus(2)
    e = g.path_from_edges(["e"])
    f = g.path_from_edges(["f"])
    assert is_generalized_cycle(g, e, f)
    tau = find_entrance(g, GeneralizedCycle(e, f), depth=4)
    assert isinstance(tau, NotFoundUpTo)


def test_entrance_found_on_bouquet():
    g = bouquet(2)
    aa = g.path_from_edges(["a", "a"])
    a = g.path_from_edges(["a"])
    assert is_generalized_cycle(g, aa, a)
    tau = find_entrance(g, GeneralizedCycle(aa, a), depth=4)
    assert str(tau) == "b"


def test_reachable_to_gives_shortest_connectors():
    g = chain(3)
    reach = reachable_to(g, "v0")
    assert set(reach) == {"v0", "v1", "v2"}
    assert reach["v0"].is_trivial
    assert str(reach["v1"]) == "e1"
    assert str(reach["v2"]) == "e1.e2"
    assert reachable_to(g, "v2") == {"v2": g.trivial_path("v2")}


def test_find_cycle_reaching_positive_and_negative():
    g = loop_with_exit()
    hit = find_cycle_reaching(g, "w")
    assert hit is not None
    cyc, gamma = hit
    assert str(cyc) == "a" and str(gamma) == "b"
    assert find_cycle_reaching(chain(3), "v0") is None


def test_find_cycle_reaching_through_second_loop():
    g = entered_loop()
    hit = find_cycle_reaching(g, "v")
    assert hit is not None
    cyc, gamma = hit
    assert cyc.range == cyc.source and not cyc.is_trivial
    assert gamma.range == "v" and gamma.source == cyc.range


def test_find_reaching_gen_cycle_on_bouquet():
    g = bouquet(2)
    hit = find_reaching_gen_cycle(g, "v", depth=4)
    assert isinstance(hit, ReachingCycle)
    assert str(hit.cycle.mu) == "a.a"
    assert str(hit.cycle.nu) == "a"
    assert str(hit.cycle.entrance) == "b"
    assert hit.gamma.is_trivial


def test_find_reaching_gen_cycle_negative_on_torus():
    out = find_reaching_gen_cycle(torus(2), "v", depth=3)
    assert isinstance(out, NotFoundUpTo)
    assert "none with an entrance" in out.detail


def test_find_reaching_gen_cycle_negative_on_acyclic():
    out = find_reaching_gen_cycle(grid((1, 1)), "p00", depth=3)
    assert isinstance(out, NotFoundUpTo)
    assert out.detail == ""


def _reaching(g, v, depth):
    # find_reaching_gen_cycle in the shape of brute_reaching_gen_cycle
    rc = find_reaching_gen_cycle(g, v, depth)
    if isinstance(rc, NotFoundUpTo):
        return ("miss", rc.depth, rc.detail)
    c, gamma = rc.cycle, rc.gamma
    connector = (gamma.range, gamma.source, total(gamma.degree))
    return ("hit", c.mu, c.nu, c.entrance) + connector


@pytest.mark.parametrize("name", NAMES)
def test_find_reaching_gen_cycle_matches_oracle_on_corpus(name):
    g = build(name)
    for depth in (1, 2, 3):
        for v in g.vertices:
            want = brute_reaching_gen_cycle(g, v, depth)
            assert _reaching(g, v, depth) == want, (v, depth)


@settings(max_examples=40, deadline=None)
@given(g=RANDOM_GRAPHS, depth=st.integers(1, 3))
def test_find_reaching_gen_cycle_matches_oracle_on_random_graphs(g, depth):
    for v in g.vertices:
        assert _reaching(g, v, depth) == brute_reaching_gen_cycle(g, v, depth), v
