"""Presentation core: construction, canonical words, validation, file format."""

import sys
import threading
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, RANDOM_GRAPHS, branches, lattice8, two_loop_lattice
from oracles import (
    brute_boundary_paths,
    brute_factorize,
    brute_path_words,
    canonical_word,
    paths_upto,
)
from kpalg import (
    Edge,
    KGraph,
    KGraphError,
    ParseError,
    Path,
    bouquet,
    classify_pure_infiniteness,
    enumerate_sat_her,
    format_kgraph,
    grid,
    parse_kgraph,
    path_sort_key,
    product,
    quotient,
    random_square_graph,
    report_json,
    torus,
    validate,
)
from kpalg.cli import main
from kpalg.degrees import below, total


# -- construction guards -----------------------------------------------------


def test_rank_must_be_positive():
    with pytest.raises(KGraphError):
        KGraph(0, ["v"], [])


def test_duplicate_vertex_rejected():
    with pytest.raises(KGraphError):
        KGraph(1, ["v", "v"], [])


def test_duplicate_edge_id_rejected():
    with pytest.raises(KGraphError):
        KGraph(1, ["v"], [Edge("a", 1, "v", "v"), Edge("a", 1, "v", "v")])


def test_edge_color_out_of_range_rejected():
    with pytest.raises(KGraphError):
        KGraph(1, ["v"], [Edge("a", 2, "v", "v")])


def test_square_with_bad_color_pattern_rejected():
    # both legs must pair one color-1 with one color-2 edge
    g_edges = [Edge("a", 1, "v", "v"), Edge("f", 2, "v", "v")]
    with pytest.raises(KGraphError):
        KGraph(2, ["v"], g_edges, [("a", "a", "f", "f")])


def test_duplicate_square_for_pair_rejected():
    g_edges = [Edge("a", 1, "v", "v"), Edge("f", 2, "v", "v")]
    with pytest.raises(KGraphError):
        KGraph(2, ["v"], g_edges, [("a", "f", "f", "a"), ("a", "f", "f", "a")])


# -- canonical words, composition, factorization ------------------------------


def test_trivial_path_str_is_vertex():
    g = bouquet(2)
    assert str(g.trivial_path("v")) == "v"
    with pytest.raises(KGraphError):
        g.trivial_path("nope")


def test_word_is_sorted_to_nondecreasing_colors():
    g = torus(2)
    p = g.path_from_edges(["f", "e"])
    assert str(p) == "e.f"
    assert p.degree == (1, 1)


def test_compose_respects_endpoints():
    g = grid((1, 1))
    e1 = g.path_from_edges(["e1_00"])
    e2_10 = g.path_from_edges(["e2_10"])
    q = g.compose(e1, e2_10)
    assert q.range == "p00" and q.source == "p11"
    bad = g.path_from_edges(["e2_00"])
    with pytest.raises(KGraphError):
        g.compose(e1, bad)


def test_receives_reads_the_edges_into_each_vertex():
    for _, mk in CORPUS:
        g = mk()
        for v in g.vertices:
            assert g.receives(v) == bool(g.edges_by_range(v)), v
            for c in range(1, g.k + 1):
                assert g.receives(v, c) == bool(g.edges_by_range(v, c)), (v, c)


def _block_head(d, m):
    # m takes whole blocks of the lower colors: m = d up to some color c,
    # any m_c <= d_c, then 0
    c = 0
    while c < len(m) and m[c] == d[c]:
        c += 1
    return not any(m[c + 1 :])


def _check_words(g, t, seen):
    # composite_word and prefix_word against the oracles on the paths of
    # total degree <= t, composites up to t + 1, and the words of
    # ``paths`` in sorted order; ``seen`` counts the cases each shortcut
    # answers: a joined word already in color order is not sorted, and a
    # head taking whole blocks of the lower colors is the word's prefix
    sorts = []
    sort_word = g._sort_word
    g._sort_word = lambda word, start: sorts.append(start) or sort_word(word, start)
    try:
        ps = _paths_upto_total(g, t)
        for p in ps:
            for q in ps:
                if q.range != p.source or total(p.degree) + total(q.degree) > t + 1:
                    continue
                del sorts[:]
                got = g.composite_word(p, q.edges)
                assert got == canonical_word(g, p.edges + q.edges), (p, q)
                if p.edges and q.edges:
                    ordered = g.edges[p.edges[-1]].color <= g.edges[q.edges[0]].color
                    assert len(sorts) == (not ordered), (p, q)
                    seen["ordered" if ordered else "sorted"] += 1
            for m in below(p.degree):
                want = brute_factorize(g, p, m)[0].edges
                assert g.prefix_word(p.edges, p.degree, m) == want, (p, m)
                if any(m) and m != p.degree:
                    block = _block_head(p.degree, m)
                    assert (g._split_word(p.edges, p.degree, m)[0] is p.edges) == block
                    seen["block" if block else "split"] += 1
    finally:
        del g._sort_word
    for v in g.vertices:
        for n in below((t,) * g.k):
            if total(n) <= t:
                got = [p.edges for p in g.paths(v, n)]
                assert got == sorted(brute_path_words(g, v, n)), (v, n)


def test_composite_and_prefix_words_are_those_of_the_paths():
    seen = Counter()
    graphs = [mk() for _, mk in CORPUS] + [grid((2, 1)), random_square_graph(3, 2, 2)]
    for g in graphs:
        _check_words(g, 3, seen)
    # both shortcuts and both full routes are taken
    assert set(seen) == {"ordered", "sorted", "block", "split"}, seen


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS)
def test_composite_and_prefix_words_are_those_of_the_paths_on_random_graphs(g):
    _check_words(g, 3, Counter())


def test_noncomposable_word_rejected():
    g = grid((1, 1))
    with pytest.raises(KGraphError):
        g.path_from_edges(["e1_00", "e1_00"])


def test_factorize_splits_at_degree():
    g = torus(2)
    p = g.path_from_edges(["e", "f"])
    head, tail = g.factorize(p, (0, 1))
    assert str(head) == "f" and str(tail) == "e"
    head, tail = g.factorize(p, (1, 0))
    assert str(head) == "e" and str(tail) == "f"
    with pytest.raises(KGraphError):
        g.factorize(p, (2, 0))


def test_factorize_round_trips_on_grid():
    g = grid((2, 1))
    for v in g.vertices:
        for p in paths_upto(g, v, (2, 1)):
            for m in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                if all(a <= b for a, b in zip(m, p.degree)):
                    head, tail = g.factorize(p, m)
                    assert g.compose(head, tail) == p


# -- compose and factorize against the oracles --------------------------------------


def _paths_upto_total(g, t):
    # every path of total degree <= t, built from the oracle's words
    return [
        Path(g, v, tuple(w))
        for v in g.vertices
        for n in below((t,) * g.k)
        if total(n) <= t
        for w in brute_path_words(g, v, n)
    ]


def _assert_fields_from_word(g, p):
    # compose and factorize hand Path the degree and source they know;
    # both must be what Path computes from the word
    rebuilt = Path(g, p.range, p.edges)
    assert (p.degree, p.source) == (rebuilt.degree, rebuilt.source), p


def _check_compose(g, p, q):
    pq = g.compose(p, q)
    assert pq.range == p.range
    assert pq.edges == canonical_word(g, p.edges + q.edges), (p, q)
    _assert_fields_from_word(g, pq)


def _check_factorize(g, p, m):
    parts = g.factorize(p, m)
    assert parts == brute_factorize(g, p, m), (p, m)
    for part in parts:
        _assert_fields_from_word(g, part)


def test_compose_and_factorize_match_oracles_on_corpus():
    for name, mk in CORPUS:
        g = mk()
        ps = _paths_upto_total(g, 3)
        for p in ps:
            for m in below(p.degree):
                _check_factorize(g, p, m)
            for q in ps:
                if q.range == p.source and total(p.degree) + total(q.degree) <= 3:
                    _check_compose(g, p, q)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n1=st.integers(1, 3),
    n2=st.integers(1, 3),
    data=st.data(),
)
def test_compose_and_factorize_match_oracles_on_random_squares(seed, n1, n2, data):
    g = random_square_graph(seed, n1, n2)
    ps = _paths_upto_total(g, 2)
    # one vertex, so every pair composes
    p, q = data.draw(st.sampled_from(ps)), data.draw(st.sampled_from(ps))
    _check_compose(g, p, q)
    pq = g.compose(p, q)
    _check_factorize(g, pq, data.draw(st.sampled_from(list(below(pq.degree)))))


@settings(max_examples=30, deadline=None)
@given(seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), data=st.data())
def test_memoized_compose_and_factorize_match_oracles(seeds, data):
    # two one-vertex graphs with the same edges and their own squares, so
    # every sorted word is a path of both; the right factors come from a
    # pool of at most four, used with either graph, so the calls repeat a
    # right factor, alternate between right factors and switch graphs
    graphs = [random_square_graph(s, 2, 2) for s in seeds]
    paths = [_paths_upto_total(g, 2) for g in graphs]
    rights = data.draw(st.lists(st.sampled_from(paths[0] + paths[1]), min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(1, 20))):
        i = data.draw(st.integers(0, 1))
        g = graphs[i]
        p, q = data.draw(st.sampled_from(paths[i])), data.draw(st.sampled_from(rights))
        _check_compose(g, p, q)
        pq = g.compose(p, q)
        # a result is built over the graph called, unless it is an input
        assert pq.graph is g or pq is p or pq is q
        degrees = st.sampled_from(list(below(pq.degree)))
        for m in data.draw(st.lists(degrees, min_size=1, max_size=3)):
            # split the composite in either graph
            h = graphs[data.draw(st.integers(0, 1))]
            parts = h.factorize(pq, m)
            words = [(x.range, x.edges) for x in brute_factorize(h, pq, m)]
            assert [(x.range, x.edges) for x in parts] == words, (pq, m)
            assert all(x.graph is h or x is pq for x in parts)
            for x in parts:
                _assert_fields_from_word(h, x)


def test_memo_frees_the_composites_of_the_old_right_factor():
    g = bouquet(2)
    a, b = g.path_from_edges(["a"]), g.path_from_edges(["b"])
    ab = weakref.ref(g.compose(a, b))
    head = weakref.ref(g.factorize(ab(), (1,))[0])
    # the memo keeps the composite alive and answers from it, and the
    # composite keeps its last split
    assert g.compose(a, b) is ab()
    assert g.factorize(ab(), (1,))[0] is head()
    g.compose(b, a)
    assert ab() is None and head() is None


def test_memo_is_safe_across_threads():
    # threads composing with right factors in different orders on two
    # graphs with the same edge ids: a memo read while another thread
    # replaces it would hand out a composite built for another right
    # factor or graph; by unique factorization, p q splits at d(p) into p, q
    graphs = [random_square_graph(seed, 2, 2) for seed in (1, 2)]
    errors = []

    def work(g, order):
        ps = _paths_upto_total(g, 2)
        rights = [q for q in ps if q.edges][::order]
        for _ in range(100):
            for q in rights:
                for p in ps:
                    pq = g.compose(p, q)
                    if pq.graph is not g or pq.edges != canonical_word(g, p.edges + q.edges):
                        errors.append(("compose", p, q, pq))
                    elif g.factorize(pq, p.degree) != (p, q):
                        errors.append(("factorize", p, q, pq))

    threads = [
        threading.Thread(target=work, args=(graphs[i % 2], 1 if i < 3 else -1))
        for i in range(6)
    ]
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
    assert not errors, errors[:3]


def test_classify_is_safe_across_threads():
    # more threads than the two cores of a small runner classify one graph:
    # each report equals a single-thread run on a graph of its own, and the
    # quotient by each ideal is one object, the one every witness case of
    # every thread reads
    want = report_json(classify_pure_infiniteness(two_loop_lattice(), depth=2))
    g = two_loop_lattice()
    reports = [None] * 3

    def work(i):
        reports[i] = classify_pure_infiniteness(g, depth=2)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(reports))]
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
    assert [report_json(rep) for rep in reports] == [want] * len(reports)
    kept = {h: quotient(g, h) for h in enumerate_sat_her(g).sets}
    for rep in reports:
        for w in rep.witnesses:
            for c in w.cases:
                assert c.certificate.graph is kept[c.ideal], (w.vertex, c.ideal)


def test_incomplete_presentation_raises_on_sort():
    g = KGraph(
        2, ["v"], [Edge("a", 1, "v", "v"), Edge("f", 2, "v", "v")], []
    )
    with pytest.raises(KGraphError, match="presentation is incomplete"):
        g.path_from_edges(["f", "a"])


def test_path_sort_key_orders_by_length_then_word():
    g = bouquet(2)
    words = [g.path_from_edges(list(w)) for w in ["b", "aa", "ab", "a"]]
    ordered = sorted(words, key=path_sort_key)
    assert [str(p) for p in ordered] == ["a", "b", "a.a", "a.b"]


# -- enumeration --------------------------------------------------------------


def test_paths_exact_degree_on_bouquet():
    g = bouquet(2)
    assert sorted(str(p) for p in g.paths("v", (2,))) == [
        "a.a",
        "a.b",
        "b.a",
        "b.b",
    ]


def test_paths_upto_counts_on_square_graph():
    g = grid((1, 1))
    # 4 trivial + 2 color-1 + 2 color-2 + 1 full square
    assert sum(len(paths_upto(g, v, (1, 1))) for v in g.vertices) == 9


def test_boundary_paths_stop_at_dead_sources():
    g = grid((1, 1))
    # from p00 the only boundary truncation of depth (1,1) is the full square
    bps = g.boundary_paths("p00", (1, 1))
    assert len(bps) == 1 and bps[0].degree == (1, 1)
    # the far corner has no extensions at all
    bps = g.boundary_paths("p11", (1, 1))
    assert len(bps) == 1 and bps[0].is_trivial


def test_boundary_paths_match_brute_oracle():
    # in the product, (1, 3) precedes (2, 1) as a tuple but not by total
    # degree, so the degrees must be visited by total first
    branched = product(branches((1, 2), "x"), branches((1, 3), "y"))
    graphs = [(name, mk()) for name, mk in CORPUS] + [("branches", branched)]
    for name, g in graphs:
        for n in below((3,) * g.k):
            for v in g.vertices:
                # the exact-degree lists the oracle filters, in word order
                words = [p.edges for p in g.paths(v, n)]
                assert words == sorted(brute_path_words(g, v, n)), (name, v, n)
                brute = brute_boundary_paths(g, v, n)
                assert list(g.boundary_paths(v, n)) == brute, (name, v, n)
                lazy = list(g.iter_boundary_paths(v, n))
                assert lazy == brute, (name, v, n)
                for p in lazy:
                    _assert_fields_from_word(g, p)


def test_iter_boundary_paths_rejects_bad_arguments():
    g = grid((1, 1))
    with pytest.raises(KGraphError):
        next(g.iter_boundary_paths("nowhere", (1, 1)))
    with pytest.raises(KGraphError):
        next(g.iter_boundary_paths("p00", (1,)))


def test_iter_boundary_paths_builds_no_box():
    g = product(bouquet(3), bouquet(3, "u"))
    (v,) = g.vertices
    # every vertex receives both colors, so only the cap degree has
    # boundary paths; the first comes from a depth-first walk
    first = next(g.iter_boundary_paths(v, (6, 6)))
    assert first.degree == (6, 6)
    assert first.edges == ("a_u",) * 6 + ("v_a",) * 6
    assert not [n for _, n in g._paths_cache if n == (6, 6)]


def test_mce_fast_path_comparable_degrees():
    g = bouquet(2)
    a = g.path_from_edges(["a"])
    aa = g.path_from_edges(["a", "a"])
    b = g.path_from_edges(["b"])
    assert g.mce(a, aa) == (aa,)
    assert g.mce(aa, a) == (aa,)
    assert g.mce(a, b) == ()


def test_mce_on_grid_square():
    g = grid((1, 1))
    mu = g.path_from_edges(["e1_00"])
    nu = g.path_from_edges(["e2_00"])
    ext = g.mce(mu, nu)
    assert len(ext) == 1
    lam = ext[0]
    assert lam.degree == (1, 1)
    assert g.factorize(lam, mu.degree)[0] == mu
    assert g.factorize(lam, nu.degree)[0] == nu


def test_mce_range_mismatch_is_empty():
    g = grid((1, 1))
    mu = g.path_from_edges(["e1_00"])
    nu = g.path_from_edges(["e2_10"])
    assert g.mce(mu, nu) == ()


# -- validation ---------------------------------------------------------------


def test_corpus_graphs_validate_clean():
    for name, mk in CORPUS:
        rep = validate(mk())
        assert rep.ok, "%s: %s" % (name, rep)


def test_validate_flags_dangling_edge():
    g = KGraph(1, ["v"], [Edge("e", 1, "u", "v")])
    rep = validate(g)
    assert not rep.ok
    assert "dangling-edge" in {v.kind for v in rep.violations}


def test_validate_flags_missing_square():
    g = KGraph(2, ["v"], [Edge("a", 1, "v", "v"), Edge("f", 2, "v", "v")], [])
    rep = validate(g)
    assert "missing-square" in {v.kind for v in rep.violations}
    # the descending pair (f, a) is not hit by any square either
    assert "non-bijective-square" in {v.kind for v in rep.violations}


def test_validate_flags_duplicate_square_image():
    edges = [
        Edge("a", 1, "v", "v"),
        Edge("b", 1, "v", "v"),
        Edge("f", 2, "v", "v"),
    ]
    squares = [("a", "f", "f", "a"), ("b", "f", "f", "a")]
    rep = validate(KGraph(2, ["v"], edges, squares))
    msgs = [str(v) for v in rep.violations if v.kind == "non-bijective-square"]
    assert any("same factorization" in m for m in msgs)


def test_validate_flags_endpoint_mismatch_in_square():
    edges = [
        Edge("a", 1, "v", "v"),
        Edge("f", 2, "v", "v"),
        Edge("b", 1, "w", "w"),
    ]
    rep = validate(KGraph(2, ["v", "w"], edges, [("a", "f", "f", "b")]))
    msgs = [str(v) for v in rep.violations if v.kind == "non-bijective-square"]
    assert any("endpoint mismatch" in m for m in msgs)


def test_validate_flags_noncomposable_square_side():
    edges = [
        Edge("a", 1, "v", "v"),
        Edge("f", 2, "w", "w"),
    ]
    rep = validate(KGraph(2, ["v", "w"], edges, [("a", "f", "f", "a")]))
    msgs = [str(v) for v in rep.violations if v.kind == "non-bijective-square"]
    assert any("not composable" in m for m in msgs)


def hexagon_breaker() -> KGraph:
    # three color-1 loops twisted by a 3-cycle through f and a transposition
    # through g; the permutations do not commute, so associativity of the
    # three-color factorization fails even though every square exists
    edges = [
        Edge("a", 1, "v", "v"),
        Edge("b", 1, "v", "v"),
        Edge("c", 1, "v", "v"),
        Edge("f", 2, "v", "v"),
        Edge("g", 3, "v", "v"),
    ]
    squares = [
        ("a", "f", "f", "b"),
        ("b", "f", "f", "c"),
        ("c", "f", "f", "a"),
        ("a", "g", "g", "b"),
        ("b", "g", "g", "a"),
        ("c", "g", "g", "c"),
        ("f", "g", "g", "f"),
    ]
    return KGraph(3, ["v"], edges, squares)


def test_validate_flags_hexagon_failure():
    rep = validate(hexagon_breaker())
    assert not rep.ok
    assert {v.kind for v in rep.violations} == {"hexagon-failure"}


def test_validate_flags_local_convexity():
    g = KGraph(
        2,
        ["v", "u", "w"],
        [Edge("e", 1, "u", "v"), Edge("f", 2, "w", "v")],
        [],
    )
    rep = validate(g)
    assert {v.kind for v in rep.violations} == {"not-locally-convex"}
    flagged = {v.items[0] for v in rep.violations}
    assert flagged == {"e", "f"}


# -- file format ---------------------------------------------------------------


SAMPLE = """\
kgraph v1
k: 2
vertices: v w
edge a color=1 from=v to=v  # a loop
edge b color=1 from=w to=v
edge f color=2 from=v to=v
edge fw color=2 from=w to=w
square a f ~ f a
square b fw ~ f b
"""


def test_parse_format_round_trip():
    g = parse_kgraph(SAMPLE)
    text = format_kgraph(g)
    assert format_kgraph(parse_kgraph(text)) == text
    assert set(g.edges) == {"a", "b", "f", "fw"}
    assert g.k == 2 and validate(g).ok


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS)
def test_parse_format_round_trip_on_random_graphs(g):
    text = format_kgraph(g)
    h = parse_kgraph(text)
    assert format_kgraph(h) == text
    assert h.k == g.k
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert h.square_fwd == g.square_fwd


def test_format_of_library_graph_parses_back():
    g = torus(3)
    h = parse_kgraph(format_kgraph(g))
    assert format_kgraph(h) == format_kgraph(g)


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError) as ei:
        parse_kgraph("kgraph v2\nk: 1\n")
    assert ei.value.line == 1


def test_parse_rejects_duplicate_k():
    with pytest.raises(ParseError) as ei:
        parse_kgraph("kgraph v1\nk: 1\nk: 2\n")
    assert ei.value.line == 3


def test_parse_rejects_edge_before_k():
    with pytest.raises(ParseError, match="before k:"):
        parse_kgraph("kgraph v1\nedge a color=1 from=v to=v\n")


def test_parse_rejects_color_out_of_range():
    text = "kgraph v1\nk: 2\nvertices: v\nedge a color=3 from=v to=v\n"
    with pytest.raises(ParseError, match="expected 1..2"):
        parse_kgraph(text)


def test_parse_rejects_malformed_square():
    text = "kgraph v1\nk: 2\nvertices: v\nsquare a ~ b\n"
    with pytest.raises(ParseError) as ei:
        parse_kgraph(text)
    assert ei.value.line == 4


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("kgraph v1\nk: two\n", 2, "bad k: line"),
        ("kgraph v1\nk: 0\n", 2, "k must be >= 1"),
        ("kgraph v1\nk: 1\nvertices: v\nk: 1\n", 4, "duplicate k: line"),
        ("kgraph v1\n\nedge a color=1 from=v to=v\nk: 1\n", 3, "edge line before k:"),
        ("kgraph v1\nk: 1\nvertices: v w-1\n", 3, "bad vertex id 'w-1'"),
        ("kgraph v1\nk: 1\nvertices: v\nedge a color=1 from=v\n", 4, "bad edge line"),
    ],
    ids=["bad_k", "k_zero", "duplicate_k", "edge_before_k", "bad_vertex_id", "bad_edge"],
)
def test_parse_refusals_name_their_line(tmp_path, capsys, text, line, message):
    with pytest.raises(ParseError) as ei:
        parse_kgraph(text)
    assert ei.value.line == line
    assert str(ei.value).startswith("line %d: %s" % (line, message))
    # the command line reports it as an error, not a traceback
    f = tmp_path / "bad.kg"
    f.write_text(text)
    assert main(["validate", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line %d: " % line)
    assert "Traceback" not in err


def test_parse_rejects_unknown_line():
    with pytest.raises(ParseError, match="unrecognized"):
        parse_kgraph("kgraph v1\nk: 1\nfoo bar\n")


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="header"):
        parse_kgraph("\n# only a comment\n")


def test_parse_rejects_missing_k():
    with pytest.raises(ParseError, match="missing k:"):
        parse_kgraph("kgraph v1\nvertices: v\n")


def test_parse_wraps_constructor_errors():
    text = "kgraph v1\nk: 1\nvertices: v\n" + (
        "edge a color=1 from=v to=v\n" * 2
    )
    with pytest.raises(ParseError):
        parse_kgraph(text)


def test_comments_and_blank_lines_ignored():
    noisy = "\n# head\n" + SAMPLE.replace("k: 2", "k: 2   # rank") + "\n\n"
    assert format_kgraph(parse_kgraph(noisy)) == format_kgraph(parse_kgraph(SAMPLE))


# -- shared trivial paths, path equality, kernel errors ----------------------------


def test_trivial_paths_are_shared_per_vertex_and_graph():
    g = grid((1, 1))
    # built when first asked for, not with the graph
    assert not g._trivial
    for v in g.vertices:
        assert g.trivial_path(v) is g.trivial_path(v)
        assert g.trivial_path(v) == Path(g, v, ())
    p = g.compose(g.path_from_edges(["e1_00"]), g.path_from_edges(["e2_10"]))
    # the tail at m = d(p) and the head at m = 0 are the shared objects
    assert g.factorize(p, p.degree)[1] is g.trivial_path(p.source)
    assert g.factorize(p, (0, 0))[0] is g.trivial_path(p.range)
    other = grid((1, 1))
    assert other.trivial_path("p00") is not g.trivial_path("p00")
    assert other.trivial_path("p00") != g.trivial_path("p00")


def test_path_equality_is_graph_range_and_word():
    g = lattice8()
    h, gq = next((h, quotient(g, h)) for h in enumerate_sat_her(g).sets if len(h))
    ps = [p for p in _paths_upto_total(g, 2) if gq.has_vertex(p.source)]
    for p in ps:
        q = Path(g, p.range, p.edges)
        assert p == q and not p != q and hash(p) == hash(q)
        # the same word over the quotient is another path
        pq = Path(gq, p.range, p.edges)
        assert p != pq and not p == pq and pq == Path(gq, p.range, p.edges)
        for r in (ps[0], ps[-1], pq):
            # the equivalence the generated dataclass methods gave
            assert (p == r) == ((p.graph, p.range, p.edges) == (r.graph, r.range, r.edges))
    p = ps[-1]
    assert (p == "x") is False and p != "x"
    assert p.__eq__("x") is NotImplemented


def test_paths_are_frozen_and_have_no_dict():
    g = grid((1, 1))
    p = g.compose(g.path_from_edges(["e1_00"]), g.path_from_edges(["e2_10"]))
    g.factorize(p, (1, 0))
    for x in (p, g.trivial_path("p00"), Path(g, p.range, p.edges)):
        assert not hasattr(x, "__dict__")
        before = (x.graph, x.range, x.edges, x.degree, x.source, x.split)
        for name in ("graph", "range", "edges", "degree", "source", "split", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(x, name)
        assert (x.graph, x.range, x.edges, x.degree, x.source, x.split) == before


def test_ne_is_the_negation_of_eq():
    for name, mk in CORPUS:
        g = mk()
        ps = _paths_upto_total(g, 2)
        for a in ps:
            for b in ps + [Path(g, a.range, a.edges)]:
                assert (a != b) == (not a == b), (name, a, b)
            assert (a != "x") is True and a.__ne__("x") is NotImplemented
    # the same word over a quotient is another path
    g = lattice8()
    gq = quotient(g, next(h for h in enumerate_sat_her(g).sets if len(h)))
    for p in _paths_upto_total(g, 2):
        if gq.has_vertex(p.source):
            for r in (Path(gq, p.range, p.edges), p):
                for x, y in ((p, r), (r, p), (r, Path(gq, r.range, r.edges))):
                    assert (x != y) == (not x == y), (x, y)


def test_post_init_runs_once_per_path(monkeypatch):
    # the benchmark counts constructed paths by wrapping this method
    built = []
    inner = Path.__dict__["__post_init__"]

    def counted(self):
        built.append(self)
        inner(self)

    monkeypatch.setattr(Path, "__post_init__", counted)
    g = torus(2)
    direct = [Path(g, "v", ("e", "f")), Path(g, "v", ("e",), (1, 0), "v"), Path(g, "v", ())]
    f = g.path_from_edges(["f"])
    ef = g.compose(direct[1], f)
    parts = g.factorize(ef, (0, 1))
    made = direct + [f, ef, *parts, g.trivial_path("v")]
    assert [id(x) for x in built] == [id(x) for x in made]


@settings(max_examples=60, deadline=None)
@given(g=RANDOM_GRAPHS, data=st.data())
def test_factorize_inverts_compose_on_random_graphs(g, data):
    ps = _paths_upto_total(g, 2)
    a = data.draw(st.sampled_from(ps))
    b = data.draw(st.sampled_from([q for q in ps if q.range == a.source]))
    assert g.factorize(g.compose(a, b), a.degree) == (a, b)


def test_kernel_errors_keep_their_messages():
    g = torus(2)
    p = g.path_from_edges(["e", "f"])
    with pytest.raises(KGraphError, match=r"^degree \(1,\) has wrong rank$"):
        g.factorize(p, (1,))
    with pytest.raises(
        KGraphError, match=r"^cannot factorize e\.f at degree \(2, 0\) \(path degree \(1, 1\)\)$"
    ):
        g.factorize(p, (2, 0))
    g.trivial_path("v")
    for _ in range(2):
        # also once the graph holds trivial paths
        with pytest.raises(KGraphError, match=r"^unknown vertex 'nope'$"):
            g.trivial_path("nope")
    bare = KGraph(2, ["v"], [Edge("a", 1, "v", "v"), Edge("f", 2, "v", "v")])
    af = bare.path_from_edges(["a", "f"])
    with pytest.raises(
        KGraphError, match=r"^no square relation rewrites \(a, f\); presentation is incomplete$"
    ):
        bare.factorize(af, (0, 1))


def test_kernel_refuses_a_degree_with_a_negative_component():
    # no path has such a degree: the kernel refuses it as it does a wrong
    # rank, rather than give a path whose degree disagrees with its word
    g = bouquet(2)
    ab = g.path_from_edges(["a", "b"])
    calls = (
        lambda: g.paths("v", (-1,)),
        lambda: g.factorize(ab, (-1,)),
        lambda: list(g.iter_boundary_paths("v", (-1,))),
        lambda: g.boundary_paths("v", (-1,)),
    )
    for call in calls:
        with pytest.raises(KGraphError, match=r"^degree \(-1,\) has a negative component$"):
            call()
    assert ("v", (-1,)) not in g._paths_cache
    h = torus(2)
    with pytest.raises(KGraphError, match=r"^degree \(1, -1\) has a negative component$"):
        h.paths("v", (1, -1))
    # a composite's kept split is still read before any check
    ef = h.compose(h.path_from_edges(["e"]), h.path_from_edges(["f"]))
    parts = h.factorize(ef, (1, 0))
    assert h.factorize(ef, (1, 0)) is parts
