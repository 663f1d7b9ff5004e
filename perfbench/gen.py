"""Seeded ``kgraph v1`` inputs for the benchmark, with their known answers.

Every case starts from a graph whose answer is known from theory. The seed
renames every vertex and edge and shuffles the order of the declarations;
for the ``lattice`` workload it also draws which vertices the feeder edges
join. The program under test only ever sees the resulting text.

Graphs are written out here as plain data rather than taken from
``kpalg.library``, so that a change to the library cannot change what the
benchmark measures.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from typing import List, Sequence, Tuple

# (id, color, source, range)
EdgeSpec = Tuple[str, int, str, str]
# square e f ~ f' e'
SquareSpec = Tuple[str, str, str, str]


@dataclass(frozen=True)
class Graph:
    k: int
    vertices: Tuple[str, ...]
    edges: Tuple[EdgeSpec, ...]
    squares: Tuple[SquareSpec, ...] = ()


@dataclass(frozen=True)
class Case:
    """One presentation to classify, and what the answer must be."""

    name: str
    text: str
    depth: int
    verdict: str  # expected classify verdict
    ideals: int  # expected size of the hereditary saturated lattice
    periodic: bool  # expects a periodicity certificate for the graph itself
    reason: str


def bouquet_product(loops: Sequence[int]) -> Graph:
    """Product of single-vertex bouquets: ``loops[i]`` loops of color i+1,
    every pair of loops of different colors commuting."""
    edges = [
        ("c%dl%d" % (c, i), c, "v", "v")
        for c, n in enumerate(loops, start=1)
        for i in range(n)
    ]
    squares = [
        (e, f, f, e)
        for (e, ce, _, _), (f, cf, _, _) in itertools.combinations(edges, 2)
        if ce < cf
    ]
    return Graph(len(loops), ("v",), tuple(edges), tuple(squares))


# The square bijection of ``random_square_graph(4)`` in kpalg.library: a
# single vertex with loops a0, a1 of color 1 and b0, b1 of color 2.
TWISTED_2X2 = Graph(
    2,
    ("v",),
    (("a0", 1, "v", "v"), ("a1", 1, "v", "v"), ("b0", 2, "v", "v"), ("b1", 2, "v", "v")),
    (
        ("a0", "b0", "b0", "a1"),
        ("a0", "b1", "b0", "a0"),
        ("a1", "b0", "b1", "a1"),
        ("a1", "b1", "b1", "a0"),
    ),
)


def two_loop_lattice(rng: random.Random, n: int = 8, feeders: int = 3) -> Graph:
    """n vertices with two loops each, plus ``feeders`` edges that join
    disjoint pairs of vertices drawn by rng.

    The feeders form a matching, so every draw has the same ideal lattice
    (3**feeders * 2**(n - 2*feeders) sets) and the same amount of work.
    """
    vs = ["x%d" % i for i in range(n)]
    edges: List[EdgeSpec] = []
    for v in vs:
        edges += [(v + "a", 1, v, v), (v + "b", 1, v, v)]
    ends = rng.sample(vs, 2 * feeders)
    for i in range(feeders):
        edges.append(("f%d" % i, 1, ends[2 * i], ends[2 * i + 1]))
    return Graph(1, tuple(vs), tuple(edges))


def _fresh_ids(rng: random.Random, count: int, taken: set) -> List[str]:
    out: List[str] = []
    while len(out) < count:
        s = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)
        )
        if s not in taken:
            taken.add(s)
            out.append(s)
    return out


def render(g: Graph, rng: random.Random) -> str:
    """The graph as ``kgraph v1`` text under fresh random ids, with the
    vertex list and the edge and square lines in random order."""
    taken: set = set()
    vname = dict(zip(g.vertices, _fresh_ids(rng, len(g.vertices), taken)))
    ename = dict(zip((e[0] for e in g.edges), _fresh_ids(rng, len(g.edges), taken)))
    vertices = [vname[v] for v in g.vertices]
    rng.shuffle(vertices)
    body = [
        "edge %s color=%d from=%s to=%s" % (ename[e], c, vname[s], vname[r])
        for e, c, s, r in g.edges
    ]
    body += ["square %s %s ~ %s %s" % tuple(ename[x] for x in sq) for sq in g.squares]
    rng.shuffle(body)
    lines = ["kgraph v1", "k: %d" % g.k, "vertices: " + " ".join(vertices)] + body
    return "\n".join(lines) + "\n"


_AAP = "products of aperiodic bouquets with >= 2 loops are aperiodic (Kumjian-Pask 2000)"


def workload_cases(workload: str, seed: int) -> List[Case]:
    """The cases of one workload; the same seed gives the same text."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "sweep":
        return [
            Case(
                "bouquet3x3", render(bouquet_product((3, 3)), rng), 4,
                "ProperlyPurelyInfinite", 2, False, _AAP,
            ),
            Case(
                "bouquet2x2x2", render(bouquet_product((2, 2, 2)), rng), 3,
                "ProperlyPurelyInfinite", 2, False, _AAP + "; k=3 runs the hexagon check",
            ),
        ]
    if workload == "lattice":
        g = two_loop_lattice(rng)
        return [
            Case(
                "two-loop-lattice", render(g, rng), 2,
                "ProperlyPurelyInfinite", 3 ** 3 * 2 ** 2, False,
                "every vertex keeps two loops in every quotient, so Condition (K) "
                "holds (Aranda Pino-Goodearl-Perera-Siles Molina 2010); the "
                "lattice is every down-set of three disjoint feeder edges",
            ),
        ]
    if workload == "periodic":
        return [
            Case(
                "bouquet3x1", render(bouquet_product((3, 1)), rng), 4,
                "Inconclusive", 2, True,
                "the only color-2 edge is a loop commuting with every other "
                "loop, so one color-2 shift fixes every infinite path: periodic",
            ),
            Case(
                "twisted2x2", render(TWISTED_2X2, rng), 3,
                "Inconclusive", 2, True,
                "periodic, backed by the closure-machine certificate",
            ),
        ]
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("sweep", "lattice", "periodic")
