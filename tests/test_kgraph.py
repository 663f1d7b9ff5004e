"""Presentation core: construction, canonical words, validation, file format."""

import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, branches
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
    format_kgraph,
    grid,
    parse_kgraph,
    path_sort_key,
    product,
    random_square_graph,
    torus,
    validate,
)
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
    g.factorize(ab(), (1,))
    # the memo keeps the composite alive and answers from it
    assert g.compose(a, b) is ab()
    g.compose(b, a)
    assert ab() is None


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
    assert "dangling-edge" in rep.kinds()


def test_validate_flags_missing_square():
    g = KGraph(2, ["v"], [Edge("a", 1, "v", "v"), Edge("f", 2, "v", "v")], [])
    rep = validate(g)
    assert "missing-square" in rep.kinds()
    # the descending pair (f, a) is not hit by any square either
    assert "non-bijective-square" in rep.kinds()


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
    assert rep.kinds() == ("hexagon-failure",)


def test_validate_flags_local_convexity():
    g = KGraph(
        2,
        ["v", "u", "w"],
        [Edge("e", 1, "u", "v"), Edge("f", 2, "w", "v")],
        [],
    )
    rep = validate(g)
    assert rep.kinds() == ("not-locally-convex",)
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
