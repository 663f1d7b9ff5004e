"""Aperiodicity verdicts on known graphs, plus certificate re-verification."""

import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    CORPUS,
    RANDOM_GRAPHS,
    build,
    doubled_two_cycle,
    entered_loop,
    lattice8,
    torus_beside_cycles,
    two_loop_lattice,
)
from oracles import (
    aperiodicity_exhaustive,
    box_separator,
    brute_comparable_pairs,
    brute_path_words,
    word_to_path,
)
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
    classify_pure_infiniteness,
    quotient,
    validate,
)
from kpalg import aperiodicity, kgraph
from kpalg.aperiodicity import _pairs_at, _paths_by_source, _residual_classes, _unseparated
from kpalg.classify import aperiodicity_json
from kpalg.degrees import below, meet, total
from kpalg.ideals import enumerate_sat_her

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


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_periodic_answer_reads_only_the_vertices_the_machine_walks(depth):
    # the colors of the gap are checked at the sources the machine visits,
    # D(v) = {v}, not at every vertex: x1, x2 receiving no color 2 does
    # not hide the pair (v, f), so the graph itself is certified periodic
    g = torus_beside_cycles()
    verd = aperiodicity_check(g, depth)
    assert (verd.status, verd.basis) == ("periodic", "certified")
    cert = verd.certificate
    assert (str(cert.alpha), str(cert.beta), cert.vertex) == ("v", "f", "v")
    assert cert.machine_states == 1
    note = classify_pure_infiniteness(g, depth).notes[0]
    assert note.startswith("the graph itself is certified periodic")


def test_machine_refuses_a_source_missing_a_color_of_the_gap():
    # e and f run from v to w in different colors, and v receives no
    # edge, so the trivial path at v separates them. Local convexity
    # forbids this, so only a presentation that does not validate reaches
    # the machine's check on the colors of the gap
    g = KGraph(2, ["v", "w"], [Edge("e", 1, "v", "w"), Edge("f", 2, "v", "w")])
    assert not validate(g).ok
    e, f = g.path_from_edges(["e"]), g.path_from_edges(["f"])
    assert certify_never_separated(g, e, f) is None
    assert box_separator(g, e, f, (1, 1)) == g.trivial_path("v")


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


# every 3-vertex 1-graph with at most 4 edges where a vertex left unsettled
# at depth 2 comes before one with a certified pair; each edge e<i> is the
# i-th (source, range) of vertex indices
STUCK_BEFORE_PERIODIC = [
    ((0, 1), (0, 1), (1, 0), (2, 2)),
    ((0, 1), (1, 0), (1, 0), (2, 2)),
    ((0, 2), (0, 2), (1, 1), (2, 0)),
]


@pytest.mark.parametrize(
    "ends", STUCK_BEFORE_PERIODIC, ids=["double_out", "double_back", "loop_between"]
)
def test_matches_exhaustive_oracle_past_a_stuck_vertex(ends):
    # both walks go on past the stuck vertex to the certified pair
    edges = [Edge("e%d" % i, 1, "v%d" % s, "v%d" % r) for i, (s, r) in enumerate(ends)]
    g = KGraph(1, ["v0", "v1", "v2"], edges)
    fast = aperiodicity_check(g, 2)
    assert (fast.status, fast.basis) == ("periodic", "certified")
    assert aperiodicity_json(fast) == aperiodicity_json(aperiodicity_exhaustive(g, 2))


def _machine_answers(g, depth):
    # the machine's answer on every comparable pair up to the depth
    return [
        ((a, b), certify_never_separated(g, a, b))
        for v in g.vertices
        for a, b in brute_comparable_pairs(g, v, depth)
    ]


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(_PRODUCTS, _one_graphs()), depth=st.integers(1, 2))
def test_machine_certifies_no_pair_a_box_path_separates(g, depth):
    for (a, b), states in _machine_answers(g, depth):
        if states is not None:
            assert box_separator(g, a, b, (depth + 1,) * g.k) is None, (a, b)


@pytest.mark.parametrize(
    "mk, certified", [(torus_beside_cycles, 19), (doubled_two_cycle, 0)]
)
def test_machine_refuses_only_pairs_a_box_path_separates(mk, certified):
    # on these fixtures the machine and the box of depth 3 agree on every
    # pair up to depth 2: a refused pair has a separator there
    g = mk()
    answers = _machine_answers(g, 2)
    assert sum(states is not None for _, states in answers) == certified
    for (a, b), states in answers:
        assert (box_separator(g, a, b, (3,) * g.k) is None) == (states is not None)


@pytest.mark.parametrize(
    "mk, depth",
    [pytest.param(lambda s=s: random_square_graph(s), 3, id="rsq%d" % s) for s in range(6)]
    + [
        pytest.param(lambda a=a: random_square_graph(*a), 3, id="rsq%d_%d_%d" % a)
        for a in ((0, 1, 3), (3, 3, 2), (5, 2, 3))
    ]
    + [
        pytest.param(
            lambda n=n: product(bouquet(n), bouquet(1, "u")), d, id="b%d_x_b1-%d" % (n, d)
        )
        for n in (1, 2, 3)
        for d in (3, 4)
    ]
    + [
        pytest.param(
            lambda m=m: product(bouquet(2), cycle_graph(m)), d, id="b2_x_c%d-%d" % (m, d)
        )
        for m in (2, 3, 4)
        for d in (3, 4)
    ],
)
def test_matches_exhaustive_oracle_where_the_machine_probe_runs(mk, depth):
    # deeper than the random-graph property: most of these walks meet a
    # pair that defeats two candidates in a row and ask the machine; the
    # periodic ones stop there, the aperiodic ones go on past the refused
    # probes to a winner
    g = mk()
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
                    monkeypatch.setattr(kgraph, "_memo", (None, None, {}))
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
    # brute force: the first pair of _pairs_at whose degrees meet in 0 and
    # that separates does not split
    by_source = _paths_by_source(g, depth)
    for v in g.vertices:
        groups = by_source[v]
        _, classes, joins = _residual_classes(groups)
        residual = [(a, b) for a, b in _pairs_at(groups) if not any(meet(a.degree, b.degree))]
        for x in g.boundary_paths(v, (depth + 1,) * g.k):
            left = [(a, b) for a, b in residual if not separates(g, a, b, x)]
            assert _unseparated(g, classes, joins, x) == (left[0] if left else None), (v, x)


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


# -- stopping at a certified pair ------------------------------------------------


@pytest.mark.parametrize(
    "mk, depth, boxed",
    [
        pytest.param(lambda: random_square_graph(4), 3, 256, id="rsq4"),
        pytest.param(lambda: product(bouquet(3), bouquet(1, "u")), 4, 243, id="b3_x_b1"),
    ],
)
def test_periodic_search_stops_at_the_certified_pair(monkeypatch, mk, depth, boxed):
    # the pair that defeats the first two candidates is certified, so the
    # walk stops there rather than losing on every candidate of the box;
    # the certificate still counts the whole box
    g = mk()
    calls = []
    inner = aperiodicity.separates

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(aperiodicity, "separates", counting)
    verdict = aperiodicity_check(g, depth)
    assert verdict.status == "periodic"
    assert verdict.certificate.extensions_checked == boxed
    assert len(calls) <= 5 * len(g.vertices)


@pytest.mark.parametrize(
    "mk, depth, most",
    [
        # a scan over the first candidate's full join makes 230 here
        pytest.param(lambda: product(bouquet(3), bouquet(1, "u")), 4, 20, id="b3_x_b1"),
        # computing both heads afresh for every pair makes 426 here
        pytest.param(lambda: random_square_graph(4), 3, 159, id="rsq4"),
    ],
)
def test_periodic_certificate_composes_each_head_once(monkeypatch, mk, depth, most):
    # the certificate scan skips a pair on two heads under the first
    # candidate, computed once per residual path, not on a full join
    g = mk()
    calls = []
    inner = KGraph.compose

    def counting(self, p, q):
        calls.append((p, q))
        return inner(self, p, q)

    monkeypatch.setattr(KGraph, "compose", counting)
    assert aperiodicity_check(g, depth).status == "periodic"
    assert len(calls) <= most, len(calls)


def _counting_machine(monkeypatch):
    # the residual pairs handed to the machine, by unordered pair
    asked = Counter()
    inner = aperiodicity.certify_never_separated

    def counting(g, a, b, *rest):
        asked[frozenset((a, b))] += 1
        return inner(g, a, b, *rest)

    monkeypatch.setattr(aperiodicity, "certify_never_separated", counting)
    return asked


def test_aperiodic_lattice_never_asks_the_machine(monkeypatch):
    # on every quotient a separator comes before any pair defeats two
    # candidates in a row, so the machine is never asked
    asked = _counting_machine(monkeypatch)
    sweep = strong_aperiodicity_sweep(lattice8(), 2)
    assert all(verd.status == "aperiodic" for _, verd in sweep)
    assert not asked


@pytest.mark.parametrize(
    "mk",
    [
        pytest.param(lambda: product(bouquet(3), bouquet(3, "u")), id="b3_x_b3"),
        # one pair here defeats two candidates in a row six times over
        pytest.param(lambda: random_square_graph(5, 2, 3), id="rsq5_2_3"),
    ],
)
def test_each_defeating_pair_goes_to_the_machine_once(monkeypatch, mk):
    asked = _counting_machine(monkeypatch)
    assert aperiodicity_check(mk(), 3).status == "aperiodic"
    assert asked and max(asked.values()) == 1, asked


# -- locality across quotients ----------------------------------------------------


def _presentation(g):
    return g.k, g.vertices, g.edges, g.square_fwd


def assert_sweep_matches_fresh_checks(g, depth):
    # the sweep reuses separators across quotients; a fresh check of each
    # quotient must give the same verdict, with evidence over the quotient
    sweep = strong_aperiodicity_sweep(g, depth)
    assert [h for h, _ in sweep] == list(enumerate_sat_her(g).sets)
    for h, verd in sweep:
        gq = quotient(g, h)
        fresh = aperiodicity_check(gq, depth)
        # status, basis, depth, note, certificate, and per vertex the
        # separator word and pairs_checked
        assert aperiodicity_json(verd) == aperiodicity_json(fresh), h
        homes = [ev.separator.graph for ev in verd.evidence]
        if verd.certificate is not None:
            homes += [verd.certificate.alpha.graph, verd.certificate.beta.graph]
        assert all(_presentation(q) == _presentation(gq) for q in homes), h


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


# -- what each answer rests on --------------------------------------------------


@pytest.mark.parametrize(
    "mk, periodic_from",
    [
        pytest.param(lambda: build("prod_c2_b2"), 2, id="prod_c2_b2"),
        pytest.param(lambda: build("cycle2"), 2, id="cycle2"),
        pytest.param(lambda: build("cycle3"), 3, id="cycle3"),
    ]
    + [
        pytest.param(lambda n=n: product(bouquet(2), cycle_graph(n)), n, id="b2_x_c%d" % n)
        for n in (2, 3, 4)
    ],
)
def test_separator_search_answers_are_bounded_until_certified_periodic(mk, periodic_from):
    # periodic graphs the separator search calls aperiodic below some
    # depth: those answers say they are bounded, the later ones certified
    g = mk()
    for depth in range(1, periodic_from + 2):
        verd = aperiodicity_check(g, depth)
        data = aperiodicity_json(verd)
        if depth < periodic_from:
            assert (verd.status, verd.basis) == ("aperiodic", "bounded"), depth
        else:
            assert (verd.status, verd.basis) == ("periodic", "certified"), depth
            assert verd.certificate is not None
        assert data["basis"] == verd.basis
    if g.k == 2 and periodic_from > 2:
        # classify builds on the bounded answer and says so
        rep = classify_pure_infiniteness(g, periodic_from - 1)
        assert rep.verdict == "ProperlyPurelyInfinite"
        assert rep.notes[-2] == (
            "aperiodicity of 1 of the 2 quotient(s) rests on a separator "
            "search bounded at depth %d, not on a certificate" % (periodic_from - 1)
        )


def test_empty_quotient_is_certified_aperiodic():
    g = bouquet(2)
    verd = aperiodicity_check(quotient(g, tuple(g.vertices)), 2)
    assert (verd.status, verd.basis, verd.evidence) == ("aperiodic", "certified", ())
    assert aperiodicity_check(g, 2).basis == "bounded"


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS)
def test_certified_answers_do_not_change_with_depth(g):
    # a bounded answer may later turn certified periodic; a certified one
    # stays as it is at every greater depth
    verdicts = [aperiodicity_check(g, depth) for depth in (1, 2, 3)]
    for i, verd in enumerate(verdicts):
        if verd.basis == "certified":
            assert all(
                (later.status, later.basis) == (verd.status, "certified")
                for later in verdicts[i + 1 :]
            )
        else:
            assert verd.status in ("aperiodic", "unknown")


def test_a_stuck_vertex_does_not_hide_a_later_periodic_one():
    # v0 is settled by no separator at even depths; the check goes on to
    # v1, whose loop e2 gives a certified pair, at every depth
    ends = [("v0", "v2"), ("v0", "v2"), ("v1", "v1"), ("v2", "v0")]
    edges = [Edge("e%d" % i, 1, s, r) for i, (s, r) in enumerate(ends)]
    g = KGraph(1, ["v0", "v1", "v2"], edges)
    for depth in (1, 2, 3, 4):
        verd = aperiodicity_check(g, depth)
        assert (verd.status, verd.basis) == ("periodic", "certified"), depth
        c = verd.certificate
        assert (c.vertex, str(c.alpha), str(c.beta)) == ("v1", "v1", "e2"), depth
