"""Shared graph corpus for the test suite.

Every entry stays within k in {1, 2, 3}, at most 6 vertices and at most
12 edges. Factories build a fresh instance per call; algebra elements
are only compatible within one instance, so tests construct the graph
once and thread it through.
"""

import random

from hypothesis import strategies as st

from kpalg import (
    Edge,
    KGraph,
    bouquet,
    chain,
    cycle_graph,
    flip_loop_pair,
    grid,
    loop_with_exit,
    product,
    random_square_graph,
    single_edge,
    torus,
    two_loops_plus_exit,
)


def entered_loop() -> KGraph:
    """A loop at v fed from a second loop vertex w.

    The tail through w is deterministic, so the graph is periodic, and
    the quotient by {w} is a bare loop. Exercises quotient periodicity
    and the generalized-cycle route.
    """
    return KGraph(
        1,
        ["v", "w"],
        [
            Edge("a", 1, "v", "v"),
            Edge("c", 1, "w", "v"),
            Edge("d", 1, "w", "w"),
        ],
    )


def branches(lengths, root: str) -> KGraph:
    """A 1-graph in which root receives one chain of each given length, so
    its boundary paths have exactly those lengths."""
    vs, edges = [root], []
    for i, n in enumerate(lengths):
        at = root
        for j in range(n):
            src = "%s%d_%d" % (root, i, j)
            vs.append(src)
            edges.append(Edge("e%s%d_%d" % (root, i, j), 1, src, at))
            at = src
    return KGraph(1, vs, edges)


def three_components() -> KGraph:
    """An edge, an entered loop and an edge side by side: the lattice is
    the product of chains of lengths 2, 3 and 2, so not itself a chain."""
    return KGraph(
        1,
        ["p", "q", "v", "w", "x", "y"],
        [
            Edge("e", 1, "p", "q"),
            Edge("a", 1, "v", "v"),
            Edge("c", 1, "w", "v"),
            Edge("d", 1, "w", "w"),
            Edge("f", 1, "x", "y"),
        ],
    )


def two_loop_lattice(n=5, feeders=((0, 1), (2, 3))):
    """n vertices with two loops each, plus feeder edges joining disjoint
    pairs: every down-set of the feeders is an ideal (here 3 * 3 * 2)."""
    vs = ["x%d" % i for i in range(n)]
    edges = [Edge(v + ab, 1, v, v) for v in vs for ab in "ab"]
    edges += [
        Edge("f%d" % i, 1, vs[s], vs[r]) for i, (s, r) in enumerate(feeders)
    ]
    return KGraph(1, vs, edges)


def lattice8():
    """Eight vertices with two loops each and three matched feeder edges:
    3 ** 3 * 2 ** 2 = 108 ideals."""
    return two_loop_lattice(8, ((0, 1), (2, 3), (4, 5)))


def torus_beside_cycles() -> KGraph:
    """A torus at v beside two single-color 2-cycles. The pair (v, f) at v
    is certified periodic in the graph itself: the closed machine checks
    only D(v) = {v}, which receives both colors, while x1, x2 receive no
    color 2 and y1, y2 no color 1."""
    edges = [
        Edge("e", 1, "v", "v"),
        Edge("f", 2, "v", "v"),
        Edge("m1", 1, "x2", "x1"),
        Edge("m2", 1, "x1", "x2"),
        Edge("n1", 2, "y2", "y1"),
        Edge("n2", 2, "y1", "y2"),
    ]
    return KGraph(2, ["v", "x1", "x2", "y1", "y2"], edges, [("e", "f", "f", "e")])


def doubled_two_cycle() -> KGraph:
    """Two edges e0, e1 from v0 to v1 and one edge e2 back: aperiodic (the
    cycle has an entrance), but at depths 2 and 4 no single boundary path
    of the search box separates every pair at v0, so the check answers
    unknown there; at depths 1 and 3 it answers bounded aperiodic."""
    edges = [Edge("e0", 1, "v0", "v1"), Edge("e1", 1, "v0", "v1"), Edge("e2", 1, "v1", "v0")]
    return KGraph(1, ["v0", "v1"], edges)


def fed_loop() -> KGraph:
    """A loop at v fed from a source u by one edge e: a separator candidate
    at u is the single edge e, shorter than the paths of degree 2 at v."""
    return KGraph(1, ["u", "v"], [Edge("a", 1, "v", "v"), Edge("e", 1, "u", "v")])


def ring(n=160, seed=1) -> KGraph:
    """A 1-graph: the n-cycle r0 -> r1 -> ... -> r0 plus n more edges, each
    between two vertices drawn by ``random.Random(seed)``. It is strongly
    connected, so its only ideals are the empty set and all of it, and
    every vertex u has each vertex v in D(u)."""
    rng = random.Random(seed)
    vs = ["r%d" % i for i in range(n)]
    edges = [Edge("c%d" % i, 1, vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges += [Edge("x%d" % i, 1, rng.choice(vs), rng.choice(vs)) for i in range(n)]
    return KGraph(1, vs, edges)


CORPUS = [
    ("e1", lambda: bouquet(1)),
    ("e2", lambda: bouquet(2)),
    ("b3", lambda: bouquet(3)),
    ("cycle2", lambda: cycle_graph(2)),
    ("cycle3", lambda: cycle_graph(3)),
    ("single_edge", single_edge),
    ("chain3", lambda: chain(3)),
    ("chain5", lambda: chain(5)),
    ("two_loops_plus_exit", two_loops_plus_exit),
    ("loop_with_exit", loop_with_exit),
    ("entered_loop", entered_loop),
    ("t2", lambda: torus(2)),
    ("t3", lambda: torus(3)),
    ("omega11", lambda: grid((1, 1))),
    ("grid21", lambda: grid((2, 1))),
    ("prod_b2_b1", lambda: product(bouquet(2), bouquet(1, "u"))),
    ("prod_b2_b2", lambda: product(bouquet(2), bouquet(2, "u"))),
    ("prod_c2_b2", lambda: product(cycle_graph(2), bouquet(2, "u"))),
    ("prod_c2_t2", lambda: product(cycle_graph(2), torus(2))),
    ("flip_loop_pair", flip_loop_pair),
    ("rsq1", lambda: random_square_graph(1)),
    ("rsq2", lambda: random_square_graph(2)),
    ("rsq23", lambda: random_square_graph(5, 2, 3)),
]

NAMES = [name for name, _ in CORPUS]


def build(name: str) -> KGraph:
    for nm, mk in CORPUS:
        if nm == name:
            return mk()
    raise KeyError(name)


@st.composite
def _one_graphs(draw, vertices=4, edges=6):
    # any 1-graph on up to the given numbers of vertices and edges: loops,
    # parallel edges, sources, sinks and isolated vertices allowed
    n = draw(st.integers(1, vertices))
    end = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(end, end), max_size=edges))
    edges = [Edge("e%d" % i, 1, "v%d" % s, "v%d" % r) for i, (s, r) in enumerate(ends)]
    return KGraph(1, ["v%d" % i for i in range(n)], edges)


# random valid presentations: 2-graphs on one vertex and any 1-graph
RANDOM_GRAPHS = st.one_of(
    st.builds(
        random_square_graph, st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3)
    ),
    _one_graphs(),
)


@st.composite
def _fed_chains(draw):
    # w has two loops and feeds the chain c1 -> ... -> cn, n <= 3, with up
    # to 2 more edges between any two vertices: a vertex down the chain
    # reaches w's cycle pair along a nontrivial path
    n = draw(st.integers(1, 3))
    vs = ["w"] + ["c%d" % i for i in range(1, n + 1)]
    edges = [Edge("a", 1, "w", "w"), Edge("b", 1, "w", "w")]
    edges += [Edge("f%d" % i, 1, vs[i - 1], vs[i]) for i in range(1, n + 1)]
    end = st.sampled_from(vs)
    ends = draw(st.lists(st.tuples(end, end), max_size=2))
    edges += [Edge("x%d" % i, 1, s, r) for i, (s, r) in enumerate(ends)]
    return KGraph(1, vs, edges)


# 1-graphs in which a two-loop vertex feeds a short chain, whose witness
# certificates reach the cycle pair along a nontrivial path
FED_CHAINS = _fed_chains()

# products of two small 1-graphs: 2-graphs on up to 9 vertices, some of
# whose vertices receive no edge at all, where RANDOM_GRAPHS's 2-graphs
# have one vertex receiving both colors
RANDOM_PRODUCTS = st.builds(product, _one_graphs(3, 4), _one_graphs(3, 4))

# the same on at most 2 vertices and 3 edges per factor, for brute-force
# checks at depth 2
SMALL_PRODUCTS = st.builds(product, _one_graphs(2, 3), _one_graphs(2, 3))
