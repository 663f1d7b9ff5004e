"""Aperiodicity verdicts on known graphs, plus certificate re-verification."""

import random
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    CORPUS,
    NAMES,
    RANDOM_GRAPHS,
    RANDOM_PRODUCTS,
    SMALL_PRODUCTS,
    build,
    doubled_two_cycle,
    entered_loop,
    fed_loop,
    lattice8,
    three_components,
    torus_beside_cycles,
    two_loop_lattice,
)
from oracles import (
    aperiodicity_exhaustive,
    box_separator,
    brute_boundary_paths,
    brute_comparable_pairs,
    brute_path_words,
    heads_differ,
    reaching,
    splits,
    strip_scan_certificate,
    word_to_path,
)
from kpalg import (
    Edge,
    KGraph,
    KGraphError,
    aperiodicity_check,
    bouquet,
    certify_never_separated,
    chain,
    cycle_graph,
    flip_loop_pair,
    format_kgraph,
    grid,
    parse_kgraph,
    product,
    random_square_graph,
    separates,
    single_edge,
    strong_aperiodicity_sweep,
    torus,
    two_loops_plus_exit,
    classify_pure_infiniteness,
    prove_vertex_properly_infinite,
    quotient,
    validate,
)
from kpalg import aperiodicity, kgraph
from kpalg.aperiodicity import (
    _groups_at,
    _periodic_certificate,
    _residual_classes,
    _unseparated,
)
from kpalg.classify import aperiodicity_json
from kpalg.degrees import below, leq, meet, sub, total
from kpalg.ideals import enumerate_sat_her, sat_her_closure


def add(m, n):
    return tuple(a + b for a, b in zip(m, n))


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


def _check_maximal_candidates(g, depth):
    # the lemma of "Truncated comparison": where a box candidate's source
    # receives no edge, the heads alone separate every comparable pair;
    # returns the number of (candidate, pair) checks
    checked = 0
    for v in g.vertices:
        pairs = brute_comparable_pairs(g, v, depth)
        for x in brute_boundary_paths(g, v, (depth + 1,) * g.k):
            if not g.edges_by_range(x.source):
                for a, b in pairs:
                    assert heads_differ(g, a, b, x) == splits(g, a, b, x), (v, a, b, x)
                checked += len(pairs)
    return checked


def test_maximal_clause_is_idle_on_corpus():
    # no CORPUS graph has a maximal candidate at a vertex with a comparable
    # pair; fed_loop has them, and so does its product with an edge (k = 2)
    graphs = CORPUS + [
        ("fed_loop", fed_loop),
        ("fed_edge", lambda: product(fed_loop(), single_edge())),
    ]
    checked = {
        name: sum(_check_maximal_candidates(mk(), d) for d in (1, 2, 3)) for name, mk in graphs
    }
    assert (checked["fed_loop"], checked["fed_edge"]) == (39, 94)


# RANDOM_GRAPHS's 2-graphs have no maximal candidate, so the products are
# the k = 2 examples that check anything; 200 examples keep a few of them
@settings(max_examples=200, deadline=None)
@given(g=st.one_of(RANDOM_GRAPHS, RANDOM_PRODUCTS), depth=st.integers(1, 2))
def test_maximal_clause_is_idle_on_random_graphs(g, depth):
    _check_maximal_candidates(g, depth)


def test_maximal_clause_matters_only_without_local_convexity():
    # the smallest graph outside the lemma's hypothesis: r receives a and
    # b from v in two colors, and v receives nothing. Only the maximal
    # clause separates (a, b) at the trivial path v, which separates
    # therefore takes for a loss; every entry point refuses the graph
    g = KGraph(2, ["r", "v"], [Edge("a", 1, "v", "r"), Edge("b", 2, "v", "r")])
    assert {v.kind for v in validate(g).violations} == {"not-locally-convex"}
    with pytest.raises(KGraphError, match="invalid presentation"):
        aperiodicity_check(g, 1)
    a, b, v = g.path_from_edges(["a"]), g.path_from_edges(["b"]), g.trivial_path("v")
    assert splits(g, a, b, v) and not heads_differ(g, a, b, v)
    assert not separates(g, a, b, v)


def test_depth_is_recorded():
    verdict = aperiodicity_check(chain(3), depth=5)
    assert verdict.depth == 5


@pytest.mark.parametrize("depth", [0, -3])
def test_depth_below_one_is_refused(depth):
    # with no pairs to check the periodic torus would pass as aperiodic
    with pytest.raises(ValueError, match="depth must be >= 1"):
        aperiodicity_check(torus(2), depth)


def test_vertex_without_boundary_paths_is_refused_as_invalid():
    # the descending pair (f, b) is the image of no square, so f.b has no
    # canonical form: v receives color 2 only from u, which receives color
    # 1, and no path from v is a boundary path at any cap. A presentation
    # that validates always has one, so the searches never meet a vertex
    # without candidates: both entry points refuse this one outright
    g = KGraph(2, ["u", "v", "w"], [Edge("b", 1, "w", "u"), Edge("f", 2, "u", "v")])
    assert not validate(g).ok
    assert g.boundary_paths("v", (4, 4)) == ()
    for entry in (
        lambda: aperiodicity_check(g, 3),
        lambda: prove_vertex_properly_infinite(g, "v", 3),
    ):
        with pytest.raises(KGraphError) as info:
            entry()
        assert str(info.value).startswith("invalid presentation:\n")
        assert "non-bijective-square: descending pair (f, b)" in str(info.value)


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


# -- heads within a candidate -------------------------------------------------


def _cuts(a, b, x):
    # whether the head of a x or b x at m = d(x) + meet(d(a), d(b)) is cut
    # off a p x(0, n) longer than m: d(p) not <= m
    m = add(x.degree, meet(a.degree, b.degree))
    return any(n > i for p in (a, b) for n, i in zip(p.degree, m))


def _walked(g, a, b):
    # whether a pair of nonzero meet w keeps a common head at w, so that
    # separates strips it and steps its tails
    w = meet(a.degree, b.degree)
    return any(w) and g.factorize(a, w)[0] == g.factorize(b, w)[0]


def test_separates_matches_splits_and_composes_nothing(monkeypatch):
    # every comparable pair, not only the residual ones, so pairs of nonzero
    # meet are stripped and stepped as well. The expected answer composes
    # and splits (oracles.splits) from an empty compose memo, sharing no
    # code with separates, which neither composes nor factorizes. On
    # flip_loop_pair and fed_loop some candidate is shorter than a path in
    # a color some vertex does not receive, so some heads at m are cut off
    # a longer composite. Each vertex's pairs and candidates are asked a
    # second time, in shuffled order and with the pair either way round,
    # through one step table, which fills in that order
    inner = {f: getattr(KGraph, f) for f in ("compose", "factorize")}
    called = []

    def recording(f):
        def call(self, *args):
            called.append((f, args))
            return inner[f](self, *args)

        return call

    def composing_nothing(f, *args):
        for name in inner:
            monkeypatch.setattr(KGraph, name, recording(name))
        try:
            return f(*args)
        finally:
            for name, method in inner.items():
                monkeypatch.setattr(KGraph, name, method)

    rng = random.Random(35)
    cut, walked, shared = set(), set(), 0
    for name, mk in CORPUS + [("fed_loop", fed_loop)]:
        g = mk()
        for v in g.vertices:
            pairs = _comparable_pairs(g, v, 2)
            expected = {}
            for x in g.boundary_paths(v, (3,) * g.k):
                got = composing_nothing(lambda: [separates(g, a, b, x) for a, b in pairs])
                assert not called, (name, v, x, called[:1])
                fresh = []
                for a, b in pairs:
                    monkeypatch.setattr(kgraph, "_memo", (None, None, {}))
                    fresh.append(splits(g, a, b, x))
                assert got == fresh, (name, v, x)
                expected.update(((a, b, x), f) for (a, b), f in zip(pairs, fresh))
                if any(_cuts(a, b, x) for a, b in pairs):
                    cut.add(name)
            if any(_walked(g, a, b) for a, b in pairs):
                walked.add(name)
            asked = [(b, a, x) if rng.random() < 0.5 else (a, b, x) for a, b, x in expected]
            rng.shuffle(asked)
            steps = aperiodicity.Steps()
            got = composing_nothing(lambda: [separates(g, *q, steps) for q in asked])
            assert not called, (name, v, called[:1])
            want = [expected.get(q, expected.get((q[1], q[0], q[2]))) for q in asked]
            assert got == want, (name, v)
            shared += len(steps.next)
    assert {"flip_loop_pair", "fed_loop"} <= cut, cut
    assert {"prod_b2_b2", "t2", "rsq1"} <= walked, walked
    assert shared, shared


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS, depth=st.integers(1, 2), rng=st.randoms(use_true_random=False))
def test_a_shared_step_table_a_fresh_one_and_splits_agree(g, depth, rng):
    # every ordered pair of paths with source v up to the depth, equal
    # pairs, equal degrees and different ranges included, against the first
    # candidates of v's box: asked pair by pair, as the search asks them,
    # through one table, in a shuffled order through another, and each
    # through a fresh table
    for v in g.vertices:
        ps = [
            p
            for u in g.vertices
            for n in below((depth,) * g.k)
            if total(n) <= depth
            for p in g.paths(u, n)
            if p.source == v
        ]
        box = g.boundary_paths(v, (depth + 1,) * g.k)[:12]
        asked = [(a, b, x) for a in ps for b in ps for x in box]
        want = [splits(g, a, b, x) for a, b, x in asked]
        steps = aperiodicity.Steps()
        by_pair = [separates(g, a, b, x, steps) for a, b, x in asked]
        order = list(range(len(asked)))
        rng.shuffle(order)
        steps = aperiodicity.Steps()
        shuffled = {i: separates(g, *asked[i], steps) for i in order}
        fresh = [separates(g, a, b, x) for a, b, x in asked]
        assert by_pair == fresh == want, v
        assert [shuffled[i] for i in range(len(asked))] == want, v


def test_aperiodicity_check_is_safe_across_threads():
    # the search keeps no state between calls: each candidate's head table
    # belongs to the reader that made it. More threads than the two cores
    # of a small runner check the same graphs at depths 1-3, with a tiny
    # switch interval; each answer equals a single-thread run on graphs of
    # its own
    def graphs():
        return [flip_loop_pair(), fed_loop(), random_square_graph(1, 2, 2)]

    depths = (1, 2, 3)
    want = [aperiodicity_json(aperiodicity_check(g, d)) for g in graphs() for d in depths]
    jobs = [(g, d) for g in graphs() for d in depths]
    got = [None] * 4

    def work(i):
        # half the threads take the jobs in reverse order
        step = 1 if i % 2 else -1
        got[i] = [
            [aperiodicity_json(aperiodicity_check(g, d)) for g, d in jobs[::step]][::step]
            for _ in range(8)
        ]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * 8] * len(got)


def test_separates_refuses_paths_not_composable_with_the_candidate():
    # the message compose gives for s(alpha) != r(x), naming the first
    # argument that does not compose
    g = build("cycle2")
    u, v = g.vertices
    at_u, at_v = g.trivial_path(u), g.trivial_path(v)
    x = g.boundary_paths(v, (2,))[0]
    assert x.range == v
    for alpha, beta, bad in ((at_u, at_v, at_u), (at_v, at_u, at_u)):
        with pytest.raises(KGraphError) as err:
            separates(g, alpha, beta, x)
        assert str(err.value) == "paths are not composable: s(%s)=%s but r(%s)=%s" % (
            bad, u, x, v,
        )
    # a pair whose degrees meet in 1, not 0
    e = g.paths(u, (1,))[0]
    y = g.boundary_paths(u, (2,))[0]
    with pytest.raises(KGraphError) as err:
        separates(g, e, e, y)
    assert str(err.value) == "paths are not composable: s(%s)=%s but r(%s)=%s" % (e, v, y, u)


def test_each_head_is_sorted_once_per_candidate_and_nothing_composed(monkeypatch):
    # on every CORPUS graph and the 3x3 bouquet product: the join sorts
    # each (candidate, path) head at most once, into its class's table. A
    # separates call sorts only where its step table misses, two words per
    # step it computes; each vertex search hands one table to all its
    # calls, and computes each (state, edge) step at most once. No
    # composite p x with a candidate x is built (the closed machine,
    # probed on a pair that defeats two candidates, still composes its
    # residual paths with single edges)
    graphs = [(name, mk()) for name, mk in CORPUS]
    graphs.append(("b3_x_b3", product(bouquet(3), bouquet(3, "u"))))
    composed = []
    compose = KGraph.compose

    def composing(self, p, q):
        composed.append(q)
        return compose(self, p, q)

    # the reader whose sorts are counted: ("join", n) for the n-th join,
    # one per candidate, ("separates", n) for the n-th separates call,
    # None between reads
    reader = [None]

    def read(key, f, *args):
        reader[0] = key
        try:
            return f(*args)
        finally:
            reader[0] = None

    made = Counter()
    join, separate = aperiodicity._unseparated, aperiodicity.separates
    vertex_verdict, step = aperiodicity._vertex_verdict, aperiodicity._step

    def joining(g, classes, joins, x):
        # the join runs lazily, so the reader is set around each next()
        made["join"] += 1
        key = ("join", made["join"])
        pairs = join(g, classes, joins, x)
        while True:
            try:
                pair = read(key, next, pairs)
            except StopIteration:
                return
            yield pair

    # the steps each separates call adds to its table, the tables each
    # vertex search passes, and the computed steps by table; the tables
    # are kept so that no two share an id
    grown, passed, computed, kept = Counter(), {}, Counter(), []

    def separating(g, a, b, x, steps):
        made["separates"] += 1
        key = ("separates", made["separates"])
        passed.setdefault(made["search"], set()).add(id(steps))
        kept.append(steps)
        before = len(steps.next)
        try:
            return read(key, separate, g, a, b, x, steps)
        finally:
            grown[key] = len(steps.next) - before

    def searching(*args):
        made["search"] += 1
        return vertex_verdict(*args)

    def stepping(g, steps, s, e):
        computed[(id(steps), s, e)] += 1
        return step(g, steps, s, e)

    kinds = set()
    monkeypatch.setattr(KGraph, "compose", composing)
    monkeypatch.setattr(aperiodicity, "_unseparated", joining)
    monkeypatch.setattr(aperiodicity, "separates", separating)
    monkeypatch.setattr(aperiodicity, "_vertex_verdict", searching)
    monkeypatch.setattr(aperiodicity, "_step", stepping)
    for name, g in graphs:
        sorts = Counter()
        candidates = []
        sort_word, boundary = g._sort_word, g.iter_boundary_paths

        def counting(word, start):
            sorts[(reader[0], tuple(word[:start]), tuple(word[start:]))] += 1
            return sort_word(word, start)

        def tracking(v, n):
            for x in boundary(v, n):
                candidates.append(x)
                yield x

        g._sort_word, g.iter_boundary_paths = counting, tracking
        del composed[:]
        grown.clear()
        aperiodicity_check(g, 3)
        by_reader = Counter()
        for (key, _, _), n in sorts.items():
            if key is not None:
                kinds.add(key[0])
                by_reader[key] += n
                assert key[0] == "separates" or n == 1, (name, key)
        for key, n in grown.items():
            assert by_reader[key] == 2 * n, (name, key)
        tried = {id(x) for x in candidates}
        assert not [q for q in composed if id(q) in tried], name
    assert kinds == {"join", "separates"}
    assert all(len(ids) == 1 for ids in passed.values()), passed
    assert computed and max(computed.values()) == 1


def test_separator_search_steps_through_a_small_table(monkeypatch):
    # counts, not times, on the 3x3 bouquet product at depth 4: the walk
    # makes the 245 separates calls and 3 joins it made when each call
    # sorted and split two head words, and its one vertex search computes
    # 9 steps, over 2 states, for all 245 calls
    g = product(bouquet(3), bouquet(3, "u"))
    calls, tables = Counter(), []
    for f in ("separates", "_unseparated", "_step"):
        inner = getattr(aperiodicity, f)

        def counting(*args, f=f, inner=inner):
            calls[f] += 1
            if f == "separates" and not any(args[4] is t for t in tables):
                tables.append(args[4])
            return inner(*args)

        monkeypatch.setattr(aperiodicity, f, counting)
    assert aperiodicity_check(g, 4).status == "aperiodic"
    assert (calls["separates"], calls["_unseparated"]) == (245, 3)
    assert len(tables) == 1
    assert calls["_step"] == len(tables[0].next) <= 9
    assert len(tables[0].states) <= 2


# -- degree-class joins ----------------------------------------------------------


_SQUARES = st.builds(
    random_square_graph, st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 2)
)


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(_SQUARES, _one_graphs()), depth=st.integers(1, 2))
def test_head_is_the_path_followed_by_the_prefix_of_the_candidate(g, depth):
    # for d(p) <= d(x), (p x)(0, d(x)) is p x(0, n), n = d(x) - d(p): the
    # word the join reads, composing and factorizing nothing, is that of
    # the composite's head. The heads of one degree class, one range and
    # one degree, are pairwise distinct, as the head at d(p) gives p back
    for v in g.vertices:
        ps = [
            p
            for u in g.vertices
            for n in below((depth,) * g.k)
            if total(n) <= depth
            for p in g.paths(u, n)
            if p.source == v
        ]
        for x in g.boundary_paths(v, (depth + 1,) * g.k):
            with mock.patch.object(KGraph, "compose", side_effect=AssertionError("composed")), \
                    mock.patch.object(KGraph, "factorize", side_effect=AssertionError("split")):
                got = {
                    p: g.composite_word(
                        p, g.prefix_word(x.edges, x.degree, sub(x.degree, p.degree))
                    )
                    for p in ps
                    if leq(p.degree, x.degree)
                }
            classes = {}
            for p, word in got.items():
                assert word == g.factorize(g.compose(p, x), x.degree)[0].edges, (p, x)
                classes.setdefault((p.range, p.degree), []).append(word)
            for words in classes.values():
                assert len(set(words)) == len(words), (x, words)


def test_the_join_splits_the_candidate_once_per_degree():
    # a torus a, b at v with a red edge e and a blue edge f from v to u,
    # e b = f a: the range groups u and v both hold joined classes of
    # degrees (0, 1), (1, 0), ..., so a split per class would split x at
    # some n twice. No census graph meets this: on every one, splitting
    # per class never splits a candidate twice at one n
    edges = [
        Edge("a", 1, "v", "v"),
        Edge("b", 2, "v", "v"),
        Edge("e", 1, "v", "u"),
        Edge("f", 2, "v", "u"),
    ]
    g = KGraph(2, ["u", "v"], edges, [("a", "b", "b", "a"), ("e", "b", "f", "a")])
    assert validate(g).ok
    for depth in (1, 2, 3):
        _, classes, joins = _residual_classes(_groups_at(g, "v", depth))
        joined = {i for i, _ in joins} | {j for _, later in joins for j in later}
        degrees = {
            u: {classes[i][0].degree for i in joined if classes[i][0].range == u} for u in "uv"
        }
        assert degrees["u"] and degrees["u"] <= degrees["v"], degrees
        (x,) = g.boundary_paths("v", (depth + 1,) * 2)
        split = []
        prefix_word = g.prefix_word

        def splitting(word, d, m):
            split.append(m)
            return prefix_word(word, d, m)

        g.prefix_word = splitting
        list(_unseparated(g, classes, joins, x))
        del g.prefix_word
        assert sorted(split) == sorted(set(split)), (depth, split)
        assert {sub(x.degree, d) for d in degrees["u"]} <= set(split), (depth, split)


@settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.one_of(_SQUARES, _one_graphs()), st.integers(1, 3)),
        st.tuples(SMALL_PRODUCTS, st.integers(1, 2)),
    )
)
def test_join_leaves_exactly_the_unseparated_residual_pairs(case):
    # brute force: the comparable pairs whose degrees meet in 0 and that
    # splits does not split, every one in pair order; the groups are every
    # path with source v up to the depth, by range in vertex order, sorted
    # in a group. Both paths of such a pair have degree <= d(x), so a class
    # table needs one path per head (module docstring); the products have
    # candidates short in one color, where a factor vertex receives no edge
    g, depth = case
    for v in g.vertices:
        groups = _groups_at(g, v, depth)
        by_range = {}
        for u in g.vertices:
            for n in below((depth,) * g.k):
                if total(n) <= depth:
                    by_range.setdefault(u, []).extend(p for p in g.paths(u, n) if p.source == v)
        assert groups == [sorted(ps, key=kgraph.path_sort_key) for ps in by_range.values() if ps], v
        _, classes, joins = _residual_classes(groups)
        residual = [
            (a, b)
            for a, b in brute_comparable_pairs(g, v, depth)
            if not any(meet(a.degree, b.degree))
        ]
        for x in g.boundary_paths(v, (depth + 1,) * g.k):
            left = [(a, b) for a, b in residual if not splits(g, a, b, x)]
            assert list(_unseparated(g, classes, joins, x)) == left, (v, x)
            below_x = set(below(x.degree))
            assert all({a.degree, b.degree} <= below_x for a, b in left), (v, x)


def test_separator_search_does_not_test_pair_by_pair(monkeypatch):
    # the winning candidate meets the residual pairs through the head join,
    # so separates is called fewer times than there are residual pairs
    g = product(bouquet(3), bouquet(3, "u"))
    residual = sum(
        1
        for v in g.vertices
        for a, b in brute_comparable_pairs(g, v, 4)
        if not any(meet(a.degree, b.degree))
    )
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
    # the certificate scan reads the first candidate's join lazily, with
    # each head computed once per path, and stops at the first certified
    # pair rather than listing the whole join (8 and 32 composes here)
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
    sweep, _ = strong_aperiodicity_sweep(lattice8(), 2)
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


def _scan_graphs():
    # CORPUS, the bouquet x cycle products and the one-vertex 2-graphs
    # random_square_graph(s, 2, 2)
    graphs = [(name, mk()) for name, mk in CORPUS]
    graphs += [
        ("b%d_x_c%d" % (a, b), product(bouquet(a), cycle_graph(b)))
        for a in (1, 2, 3)
        for b in (1, 2, 3)
    ]
    graphs += [("rsq%d_2_2" % s, random_square_graph(s, 2, 2)) for s in range(25)]
    return graphs


def _scan(g, v, depth):
    # the certificate scan at v, with the first candidate of v's box
    box = g.boundary_paths(v, (depth + 1,) * g.k)
    _, classes, joins = _residual_classes(_groups_at(g, v, depth))
    return _periodic_certificate(g, v, classes, joins, box, aperiodicity._Machine(g))


def test_periodic_certificate_keeps_the_strip_scan_answer():
    # the residuals of the pairs the strip-based scan keeps are exactly the
    # residual pairs the first candidate leaves unseparated, so both scans
    # certify at the same vertices, over the same box. The join's pair has
    # meet 0; on one vertex it is the strip scan's own pair, since there a
    # pair's residual comes before it in pair order (module docstring)
    answers, moved = Counter(), []
    for name, g in _scan_graphs():
        for depth in (1, 2, 3):
            for v in g.vertices:
                want, got = strip_scan_certificate(g, v, depth), _scan(g, v, depth)
                assert (got is None) == (want is None), (name, depth, v)
                answers[want is None] += 1
                if got is None:
                    continue
                assert (got.vertex, got.extensions_checked) == (v, want.extensions_checked)
                assert not any(meet(got.alpha.degree, got.beta.degree)), (name, depth, v)
                if len(g.vertices) == 1:
                    assert got == want, (name, depth, v)
                elif (got.alpha, got.beta) != (want.alpha, want.beta):
                    moved.append(name)
    assert answers[True] and answers[False], answers
    assert "entered_loop" in moved, moved


def test_periodic_certificate_factorizes_only_in_the_machine(monkeypatch):
    # a residual pair is its own residual, so the scan strips nothing:
    # every factorize call of the scan comes from the closed machine
    outside, in_machine, runs = [], [0], [0]
    factorize, certify = KGraph.factorize, aperiodicity.certify_never_separated

    def splitting(self, p, m):
        if not in_machine[0]:
            outside.append((p, tuple(m)))
        return factorize(self, p, m)

    def certifying(*args):
        in_machine[0] += 1
        runs[0] += 1
        try:
            return certify(*args)
        finally:
            in_machine[0] -= 1

    monkeypatch.setattr(KGraph, "factorize", splitting)
    monkeypatch.setattr(aperiodicity, "certify_never_separated", certifying)
    for name, g in _scan_graphs():
        for depth in (1, 2, 3):
            for v in g.vertices:
                _scan(g, v, depth)
                assert not outside, (name, depth, v, outside)
    assert runs[0]


# -- locality across quotients ----------------------------------------------------


def assert_sweep_matches_fresh_checks(g, depth):
    # the sweep searches each (v, H & D(v)) once, in the quotient by the
    # least ideal of that trace; a fresh check of each quotient, parsed
    # anew so that it shares no cache or report with the sweep's, must
    # give the same verdict, and each separator or pair at v must live in
    # the quotient by closure(H & D(v)) that g keeps
    sweep, _ = strong_aperiodicity_sweep(g, depth)
    assert [h for h, _ in sweep] == list(enumerate_sat_her(g).sets)
    for h, verd in sweep:
        fresh = aperiodicity_check(parse_kgraph(format_kgraph(quotient(g, h))), depth)
        # status, basis, depth, note, certificate, and per vertex the
        # separator word and pairs_checked
        assert aperiodicity_json(verd) == aperiodicity_json(fresh), h
        homes = [(ev.vertex, ev.separator.graph) for ev in verd.evidence]
        if verd.certificate is not None:
            c = verd.certificate
            homes += [(c.vertex, c.alpha.graph), (c.vertex, c.beta.graph)]
        for v, q in homes:
            least = sat_her_closure(g, reaching(g, v) & set(h))
            assert q is quotient(g, least), (h, v)


def test_sweep_matches_fresh_checks_on_corpus():
    for name, mk in GRAPHS + [("two_loop_lattice", two_loop_lattice)]:
        for depth in (1, 2, 3):
            assert_sweep_matches_fresh_checks(mk(), depth)


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(_PRODUCTS, _one_graphs()), depth=st.integers(1, 2))
def test_sweep_matches_fresh_checks_on_random_graphs(g, depth):
    assert_sweep_matches_fresh_checks(g, depth)


@pytest.mark.parametrize(
    "mk",
    [pytest.param(lambda name=name: build(name), id=name) for name in NAMES]
    + [
        pytest.param(mk, id=mk.__name__)
        for mk in (
            two_loop_lattice,
            lattice8,
            three_components,
            torus_beside_cycles,
            doubled_two_cycle,
        )
    ],
)
def test_sweep_searches_each_vertex_once_per_trace_of_the_ideal(monkeypatch, mk):
    # whatever the answers, periodic and unknown ones included, a
    # (v, H & D(v)) is searched only when an ideal's combine reads it,
    # that is up to the ideal's first periodic vertex, and never again;
    # the sweep hands back each answer it searched, once, in vertex order
    # and per vertex in lattice order of closure(T)
    g = mk()
    searched, calls, found = [], [], {}
    vertex_verdict = aperiodicity._vertex_verdict
    first_separator = aperiodicity._first_separator

    def counting_vertex(gq, v, depth):
        # gq is the quotient by closure(T), whose trace at v is T itself
        key = (v, frozenset(reaching(g, v) - set(gq.vertices)))
        searched.append(key)
        found[key] = vertex_verdict(gq, v, depth)
        return found[key]

    def counting(*args):
        calls.append(args)
        return first_separator(*args)

    monkeypatch.setattr(aperiodicity, "_vertex_verdict", counting_vertex)
    monkeypatch.setattr(aperiodicity, "_first_separator", counting)
    for depth in (1, 2, 3):
        del searched[:], calls[:]
        sweep, answers = strong_aperiodicity_sweep(g, depth)
        keys, read = set(), set()
        for h, verd in sweep:
            outside = [v for v in g.vertices if v not in h]
            keys |= {(v, frozenset(reaching(g, v) & set(h))) for v in outside}
            if verd.status == "periodic":
                outside = outside[: outside.index(verd.certificate.vertex) + 1]
            read |= {(v, frozenset(reaching(g, v) & set(h))) for v in outside}
        assert len(searched) == len(set(searched)) == len(calls), depth
        assert set(searched) == read, depth
        order = [(g.vertices.index(a.vertex), len(a.ideal), a.ideal) for a in answers]
        assert order == sorted(order) and len(answers) == len(searched), depth
        for a in answers:
            want = found[a.vertex, frozenset(a.trace)]
            assert a.ideal == sat_her_closure(g, a.trace), (depth, a)
            got = (a.verdict.status, a.verdict.evidence, a.verdict.certificate)
            assert got == (want.status, want.evidence, want.certificate), (depth, a)
        if mk is lattice8:
            searches = sum(len(g.vertices) - len(h) for h, _ in sweep)
            assert (searches, len(keys), len(read)) == (432, 11, 11)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_sweep_stops_a_periodic_cycle_at_its_first_vertex(monkeypatch, n):
    # a strongly connected periodic graph: one vertex is searched, and the
    # others, whose answers would not change the verdict, are not
    calls = []
    first_separator = aperiodicity._first_separator

    def counting(*args):
        calls.append(args)
        return first_separator(*args)

    monkeypatch.setattr(aperiodicity, "_first_separator", counting)
    sweep, _ = strong_aperiodicity_sweep(cycle_graph(n), n + 1)
    assert [verd.status for _, verd in sweep] == ["periodic", "aperiodic"]
    assert len(calls) == 1


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
