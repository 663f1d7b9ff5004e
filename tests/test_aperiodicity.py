"""Aperiodicity verdicts on known graphs, plus certificate re-verification."""

import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, build, entered_loop, lattice8, two_loop_lattice
from oracles import aperiodicity_exhaustive, brute_path_words, word_to_path
from kpalg import (
    Edge,
    KGraph,
    aperiodicity_check,
    bouquet,
    certify_never_separated,
    chain,
    cycle_graph,
    flip_loop_pair,
    grid,
    product,
    random_square_graph,
    separates,
    strong_aperiodicity_sweep,
    torus,
    two_loops_plus_exit,
    validate,
)
from kpalg import aperiodicity, kgraph
from kpalg.aperiodicity import _pairs_at, _paths_by_source, _residual_classes, _unseparated
from kpalg.classify import aperiodicity_json
from kpalg.degrees import below, meet, total
from kpalg.ideals import quotient_table

# depth 2 keeps the separator search cheap on the product graphs while
# still exercising nontrivial pair sets
APERIODIC = ["e2", "b3", "two_loops_plus_exit", "prod_b2_b2",
             "rsq1", "rsq2", "rsq23"]
ACYCLIC = ["single_edge", "chain3", "chain5", "omega11", "grid21"]
# a product with a single-loop or plain-cycle factor is periodic: the shift
# acts trivially on that coordinate of the infinite path space
PERIODIC = ["e1", "cycle2", "cycle3", "loop_with_exit", "entered_loop",
            "t2", "t3", "prod_b2_b1", "prod_c2_b2", "prod_c2_t2",
            "flip_loop_pair"]


def test_known_aperiodic_graphs():
    for name in APERIODIC:
        g = build(name)
        verdict = aperiodicity_check(g, depth=2)
        assert verdict.status == "aperiodic", "%s: %s" % (name, verdict.status)
        assert len(verdict.evidence) == len(g.vertices)


def test_acyclic_graphs_are_aperiodic():
    # with finite path lengths no identified pair survives, so the verdict
    # is aperiodic (often vacuously at vertices without comparable pairs)
    for name in ACYCLIC:
        verdict = aperiodicity_check(build(name), depth=4)
        assert verdict.status == "aperiodic", name


def test_known_periodic_graphs():
    for name in PERIODIC:
        verdict = aperiodicity_check(build(name), depth=3)
        assert verdict.status == "periodic", "%s: %s" % (name, verdict.status)
        assert verdict.certificate is not None


def test_separating_evidence_actually_separates():
    g = bouquet(2)
    verdict = aperiodicity_check(g, depth=3)
    assert verdict.status == "aperiodic"
    for ev in verdict.evidence:
        assert ev.separator.range == ev.vertex
        assert ev.pairs_checked > 0


def test_periodic_certificate_is_machine_checked():
    g = torus(2)
    verdict = aperiodicity_check(g, depth=3)
    cert = verdict.certificate
    assert cert is not None
    alpha, beta = cert.alpha, cert.beta
    assert alpha != beta
    assert alpha.source == beta.source and alpha.range == beta.range
    assert cert.machine_states >= 1
    # independent bounded re-check: no boundary extension separates the pair
    for x in g.boundary_paths(alpha.source, (3, 3)):
        assert not separates(g, alpha, beta, x)
    # and the machine closure reproduces independently
    assert certify_never_separated(g, alpha, beta) == cert.machine_states


def test_single_loop_is_periodic_at_any_depth():
    verdict = aperiodicity_check(bouquet(1), depth=3)
    assert verdict.status == "periodic" and verdict.certificate is not None
    assert aperiodicity_check(bouquet(1), depth=6).status == "periodic"


def test_deterministic_tail_is_periodic():
    g = entered_loop()
    verdict = aperiodicity_check(g, depth=4)
    assert verdict.status == "periodic"
    cert = verdict.certificate
    assert cert.vertex == "w"
    for x in g.boundary_paths(cert.alpha.source, (4,)):
        assert not separates(g, cert.alpha, cert.beta, x)


def test_flip_loop_pair_is_periodic():
    # the color-2 tail through w is deterministic and the twist square
    # b fw ~ f b carries it back into v, identifying f-shifted pairs
    verdict = aperiodicity_check(flip_loop_pair(), depth=3)
    assert verdict.status == "periodic"


def test_certify_never_separated_refuses_separable_pairs():
    g = two_loops_plus_exit()
    a = g.path_from_edges(["a"])
    aa = g.path_from_edges(["a", "a"])
    # extending by b tells a and a.a apart, and the machine sees it
    assert certify_never_separated(g, a, aa) is None


def test_certify_refuses_mortal_colors():
    # in a finite acyclic graph colors die out, so a degree-shifted pair
    # may be separated by a maximal extension; no certificate is issued
    g = grid((1, 1))
    alpha = g.path_from_edges(["e1_00"])
    beta = g.trivial_path("p10")
    assert alpha.source == beta.source
    assert certify_never_separated(g, alpha, beta) is None


def test_depth_is_recorded():
    verdict = aperiodicity_check(chain(3), depth=5)
    assert verdict.depth == 5


@pytest.mark.parametrize("depth", [0, -3])
def test_depth_below_one_is_refused(depth):
    # with no pairs to check the periodic torus would pass as aperiodic
    with pytest.raises(ValueError, match="depth must be >= 1"):
        aperiodicity_check(torus(2), depth)


def test_vertex_without_boundary_paths_is_unknown():
    # the descending pair (f, b) is the image of no square, so f.b has no
    # canonical form: v receives color 2 only from u, which receives color
    # 1, and no path from v is a boundary path at any cap. A presentation
    # that validates always has one; here v gets no evidence.
    g = KGraph(2, ["u", "v", "w"], [Edge("b", 1, "w", "u"), Edge("f", 2, "u", "v")])
    assert not validate(g).ok
    assert g.boundary_paths("v", (4, 4)) == ()
    verdict = aperiodicity_check(g, 3)
    assert verdict.status == "unknown"
    assert verdict.note.startswith("vertex v: ")


# -- agreement with the exhaustive search ---------------------------------------


def _fork():
    # v reaches u directly (e) and through w (f.g): the comparable pair
    # (e, f.g) has meet degree 1, so v has no residual pair
    return KGraph(
        1,
        ["u", "v", "w"],
        [Edge("e", 1, "v", "u"), Edge("f", 1, "w", "u"), Edge("g", 1, "v", "w")],
    )


GRAPHS = CORPUS + [("fork", _fork)]


def test_matches_exhaustive_oracle_on_corpus():
    for name, mk in GRAPHS:
        for depth in (1, 2, 3):
            g = mk()
            fast = aperiodicity_json(aperiodicity_check(g, depth))
            slow = aperiodicity_json(aperiodicity_exhaustive(g, depth))
            assert fast == slow, (name, depth)


def test_matches_exhaustive_oracle_without_verdict():
    # one color-1 loop against two color-2 loops: no separator within
    # depth 1 and no certified pair, so the check answers unknown
    g = random_square_graph(1, 1, 2)
    verdict = aperiodicity_check(g, 1)
    assert verdict.status == "unknown"
    assert aperiodicity_json(verdict) == aperiodicity_json(
        aperiodicity_exhaustive(g, 1)
    )


def _small_graph(kind, a, b, seed):
    if kind == "square":
        return random_square_graph(seed, a, b)
    if kind == "bouquets":
        return product(bouquet(a), bouquet(b, "u"))
    if kind == "bouquet_cycle":
        return product(bouquet(a), cycle_graph(b))
    return product(cycle_graph(a), bouquet(b, "u"))


@st.composite
def _one_graphs(draw):
    # small 1-graphs, acyclic (every edge runs to a lower vertex) or mixed
    # (loops and cycles allowed); unlike the square graphs and products,
    # these have vertices without residual pairs
    n = draw(st.integers(2, 4))
    end = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(end, end), min_size=2, max_size=6))
    if draw(st.booleans()):
        ends = [(max(s, r), min(s, r)) for s, r in ends if s != r]
    edges = [Edge("e%d" % i, 1, "v%d" % s, "v%d" % r) for i, (s, r) in enumerate(ends)]
    return KGraph(1, ["v%d" % i for i in range(n)], edges)


_PRODUCTS = st.builds(
    _small_graph,
    st.sampled_from(["square", "bouquets", "bouquet_cycle", "cycle_bouquet"]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 10**6),
)


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(_PRODUCTS, _one_graphs()), depth=st.integers(1, 2))
def test_matches_exhaustive_oracle_on_random_graphs(g, depth):
    fast = aperiodicity_json(aperiodicity_check(g, depth))
    assert fast == aperiodicity_json(aperiodicity_exhaustive(g, depth))


def _comparable_pairs(g, v, depth):
    # brute force over canonical words: distinct paths with source v and a
    # common range, of different degrees and total degree <= depth
    pairs = []
    for u in g.vertices:
        ps = [
            word_to_path(g, u, w)
            for n in below((depth,) * g.k)
            if total(n) <= depth
            for w in brute_path_words(g, u, n)
        ]
        ps = [p for p in ps if p.source == v]
        pairs += [(p, q) for p, q in combinations(ps, 2) if p.degree != q.degree]
    return pairs


def test_pairs_checked_counts_every_comparable_pair():
    for name, mk in GRAPHS:
        for depth in (1, 2, 3):
            g = mk()
            verdict = aperiodicity_check(g, depth)
            for ev in verdict.evidence:
                count = len(_comparable_pairs(g, ev.vertex, depth))
                assert ev.pairs_checked == count, (name, depth, ev.vertex)


# -- sharing composites within a candidate --------------------------------------


def test_memoized_separates_matches_reset_memo(monkeypatch):
    # every comparable pair, not only the residual ones, so prefixes at
    # nonzero meet degrees go through the kernel's compose memo as well
    for name, mk in CORPUS:
        g = mk()
        for v in g.vertices:
            pairs = _comparable_pairs(g, v, 2)
            for x in g.boundary_paths(v, (3,) * g.k):
                memoized = [separates(g, a, b, x) for a, b in pairs]
                fresh = []
                for a, b in pairs:
                    monkeypatch.setattr(kgraph, "_memo", (None, None, {}, {}))
                    fresh.append(separates(g, a, b, x))
                assert memoized == fresh, (name, v, x)


def test_each_path_is_composed_once_per_candidate():
    # counts the compositions compose really makes, by the words it sorts;
    # the calls it answers from its memo are not counted
    graphs = [build(name) for name in APERIODIC]
    graphs.append(product(bouquet(3), bouquet(3, "u")))
    for g in graphs:
        calls = Counter()
        sort_word = g._sort_word

        def counting(word, start):
            calls[(tuple(word[:start]), tuple(word[start:]))] += 1
            return sort_word(word, start)

        g._sort_word = counting
        assert aperiodicity_check(g, 3).status == "aperiodic"
        assert calls and max(calls.values()) == 1, (g, calls.most_common(1))


# -- degree-class joins ----------------------------------------------------------


_SQUARES = st.builds(
    random_square_graph, st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 2)
)


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(_SQUARES, _one_graphs()), depth=st.integers(1, 3))
def test_join_leaves_exactly_the_unseparated_residual_pairs(g, depth):
    # brute force: every pair of _pairs_at whose degrees meet in 0 and
    # that separates does not split, in that order
    by_source = _paths_by_source(g, depth)
    for v in g.vertices:
        groups = by_source[v]
        _, classes, joins = _residual_classes(groups)
        residual = [(a, b) for a, b in _pairs_at(groups) if not any(meet(a.degree, b.degree))]
        for x in g.boundary_paths(v, (depth + 1,) * g.k):
            left = [(a, b) for a, b in residual if not separates(g, a, b, x)]
            assert _unseparated(g, classes, joins, x) == left, (v, x)
            assert _unseparated(g, classes, joins, x, first_only=True) == left[:1], (v, x)


def test_separator_search_does_not_test_pair_by_pair(monkeypatch):
    # the winning candidate meets the residual pairs through the head join,
    # so separates is called fewer times than there are residual pairs
    g = product(bouquet(3), bouquet(3, "u"))
    residual = 0
    for groups in _paths_by_source(g, 4).values():
        residual += sum(1 for a, b in _pairs_at(groups) if not any(meet(a.degree, b.degree)))
    calls = []
    inner = aperiodicity.separates

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(aperiodicity, "separates", counting)
    assert aperiodicity_check(g, 4).status == "aperiodic"
    assert residual == 14946
    assert len(calls) < residual


def test_separator_search_does_not_list_the_residual_pairs():
    # at depth 5 the 3x3 bouquet product has 133,773 residual pairs; a
    # search that lists them as tuples peaks at 11.8 MiB here (12.1 MiB on
    # Python 3.9), the join at 2.8 MiB (3.1 MiB on 3.9)
    g = product(bouquet(3), bouquet(3, "u"))
    tracemalloc.start()
    try:
        assert aperiodicity_check(g, 5).status == "aperiodic"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


# -- locality across quotients ----------------------------------------------------


def assert_sweep_matches_fresh_checks(g, depth):
    # the sweep reuses separators across quotients; a fresh check of each
    # quotient must give the same verdict, with evidence over the quotient
    table = quotient_table(g)
    sweep = strong_aperiodicity_sweep(g, depth, table)
    assert [h for h, _ in sweep] == [h for h, _ in table]
    for (h, verd), (_, gq) in zip(sweep, table):
        fresh = aperiodicity_check(gq, depth)
        got = (verd.status, verd.depth, verd.certificate, verd.note)
        assert got == (fresh.status, fresh.depth, fresh.certificate, fresh.note), h
        # vertex, separator word and graph, pairs_checked
        assert verd.evidence == fresh.evidence, h
        assert all(ev.separator.graph is gq for ev in verd.evidence), h


def test_sweep_matches_fresh_checks_on_corpus():
    for name, mk in GRAPHS + [("two_loop_lattice", two_loop_lattice)]:
        for depth in (1, 2, 3):
            assert_sweep_matches_fresh_checks(mk(), depth)


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(_PRODUCTS, _one_graphs()), depth=st.integers(1, 2))
def test_sweep_matches_fresh_checks_on_random_graphs(g, depth):
    assert_sweep_matches_fresh_checks(g, depth)


def _reaches(g, v):
    # D(v), the vertices w with a path from w to v: {v} closed under the
    # sources of the edges into it
    out = {v}
    grown = True
    while grown:
        grown = False
        for e in g.edges.values():
            if e.range in out and e.source not in out:
                out.add(e.source)
                grown = True
    return out


@pytest.mark.parametrize(
    "mk",
    [pytest.param(lambda name=name: build(name), id=name) for name in APERIODIC]
    + [pytest.param(mk, id=mk.__name__) for mk in (two_loop_lattice, lattice8)],
)
def test_sweep_searches_each_vertex_once_per_trace_of_the_ideal(monkeypatch, mk):
    # on a graph whose every quotient is aperiodic, the separator search
    # runs once per distinct (v, H & D(v)) and never again
    g = mk()
    calls = []
    inner = aperiodicity._first_separator

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(aperiodicity, "_first_separator", counting)
    sweep = strong_aperiodicity_sweep(g, 2)
    assert all(verd.status == "aperiodic" for _, verd in sweep)
    keys = {
        (v, frozenset(_reaches(g, v) & set(h)))
        for h, _ in sweep
        for v in g.vertices
        if v not in h
    }
    assert len(calls) == len(keys)
    if mk is lattice8:
        searches = sum(len(g.vertices) - len(h) for h, _ in sweep)
        assert (searches, len(keys)) == (432, 11)
