"""Shared graph corpus for the test suite.

Every entry stays within k in {1, 2, 3}, at most 6 vertices and at most
12 edges. Factories build a fresh instance per call; algebra elements
are only compatible within one instance, so tests construct the graph
once and thread it through.
"""

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
