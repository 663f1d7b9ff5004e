"""A fixed census of graphs with their CLI outputs, verdicts and depth
contradictions at depths 1-3, kept in census.json beside this file.

The graphs are, in this order:
- CORPUS;
- the fixtures three_components, two_loop_lattice, lattice8,
  torus_beside_cycles, doubled_two_cycle and fed_loop;
- the 21 products of two of bouquet(1..3) and cycle_graph(2..4), a
  bouquet before a cycle and the smaller factor first;
- random_square_graph(s, a, b) for s < 25 at (a, b) = (2, 2), (1, 2) and
  (2, 3);
- every labelled 1-graph on 1-3 vertices with 1-3 edges, the edges a
  multiset of (source, range) pairs.

For each graph and depth d, the census records one sha256 over the argv,
exit code, stdout and stderr of ``classify --json``, ``aperiodic --json``
and ``witness v --json`` for every vertex v, all at depth d, and the
``classify`` verdict. A depth contradiction is a ProperlyPurelyInfinite
verdict at some depth d beside another verdict at a depth d' > d; each is
listed as [d, d'].

Run this file as a script to rebuild census.json: it names every graph
and depth whose digest or verdict moved, and every changed contradiction,
and exits 1 if anything moved. With --write it rewrites the file.

    PYTHONPATH=src python tests/census.py [--write]
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement, product as pairs

from corpus import (
    CORPUS,
    doubled_two_cycle,
    fed_loop,
    lattice8,
    three_components,
    torus_beside_cycles,
    two_loop_lattice,
)
from kpalg import Edge, KGraph, bouquet, cycle_graph, format_kgraph, product, random_square_graph
from kpalg.cli import main

DEPTHS = (1, 2, 3)

PPI = "ProperlyPurelyInfinite"

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census.json")


def _factors():
    out = [("b%d" % n, lambda n=n: bouquet(n)) for n in (1, 2, 3)]
    return out + [("c%d" % n, lambda n=n: cycle_graph(n)) for n in (2, 3, 4)]


def _one_graph(n, ends):
    edges = [Edge("e%d" % i, 1, "v%d" % s, "v%d" % r) for i, (s, r) in enumerate(ends)]
    return KGraph(1, ["v%d" % i for i in range(n)], edges)


def _census():
    out = list(CORPUS)
    out += [
        ("three_components", three_components),
        ("two_loop_lattice", two_loop_lattice),
        ("lattice8", lattice8),
        ("torus_beside_cycles", torus_beside_cycles),
        ("doubled_two_cycle", doubled_two_cycle),
        ("fed_loop", fed_loop),
    ]
    for (n1, f1), (n2, f2) in combinations_with_replacement(_factors(), 2):
        out.append(("%sx%s" % (n1, n2), lambda f1=f1, f2=f2: product(f1(), f2())))
    for a, b in ((2, 2), (1, 2), (2, 3)):
        for s in range(25):
            out.append(
                ("rsq%d%d_%d" % (a, b, s), lambda s=s, a=a, b=b: random_square_graph(s, a, b))
            )
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for ends in combinations_with_replacement(list(pairs(range(n), repeat=2)), m):
                name = "one%d_%s" % (n, "_".join("%d%d" % e for e in ends))
                out.append((name, lambda n=n, ends=ends: _one_graph(n, ends)))
    return out


CENSUS = _census()


def cli(path, argv):
    """(exit code, stdout, stderr) of ``kpalg argv[0] path argv[1:]``, run
    in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([argv[0], path] + argv[1:])
    return code, stdout.getvalue(), stderr.getvalue()


def record(argv, out):
    """What a digest takes in for one command: its argv and the exit code,
    stdout and stderr of ``cli``."""
    return ("%s\n%d\n%s\n%s\n" % ((" ".join(argv),) + out)).encode()


def contradictions(verdicts):
    """[d, d'] for each depth d with a PPI verdict and each deeper d' with
    another verdict; verdicts are listed by DEPTHS."""
    return [
        [d, e]
        for i, d in enumerate(DEPTHS)
        for j, e in enumerate(DEPTHS)
        if j > i and verdicts[i] == PPI and verdicts[j] != PPI
    ]


def build(workdir, census=CENSUS):
    """The census of the given (name, factory) list, by default the whole
    CENSUS, the graphs written to workdir as presentation files."""
    graphs = {}
    for name, mk in census:
        g = mk()
        path = os.path.join(workdir, name + ".kg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_kgraph(g))
        digests, verdicts = [], []
        for d in DEPTHS:
            depth = ["--depth", str(d)]
            argvs = [["classify", "--json"] + depth, ["aperiodic", "--json"] + depth]
            argvs += [["witness", v, "--json"] + depth for v in g.vertices]
            h = hashlib.sha256()
            for argv in argvs:
                out = cli(path, argv)
                if argv[0] == "classify":
                    verdicts.append(json.loads(out[1])["verdict"])
                h.update(record(argv, out))
            digests.append(h.hexdigest())
        graphs[name] = {"digests": digests, "verdicts": verdicts}
    found = {name: contradictions(r["verdicts"]) for name, r in graphs.items()}
    return {
        "depths": list(DEPTHS),
        "graphs": graphs,
        "contradictions": {name: c for name, c in found.items() if c},
    }


def moved(old, new):
    """One line per graph and depth whose digest or verdict differs between
    two censuses, and per graph whose contradictions differ."""
    lines = []
    for name in sorted(set(old["graphs"]) | set(new["graphs"])):
        a, b = old["graphs"].get(name), new["graphs"].get(name)
        if a is None or b is None:
            lines.append("%s: %s" % (name, "added" if a is None else "removed"))
            continue
        for i, d in enumerate(DEPTHS):
            if a["digests"][i] != b["digests"][i]:
                lines.append("%s depth %d: digest %s" % (name, d, b["digests"][i]))
            if a["verdicts"][i] != b["verdicts"][i]:
                lines.append(
                    "%s depth %d: verdict %s -> %s" % (name, d, a["verdicts"][i], b["verdicts"][i])
                )
    for name in sorted(set(old["contradictions"]) | set(new["contradictions"])):
        a, b = old["contradictions"].get(name, []), new["contradictions"].get(name, [])
        if a != b:
            lines.append("%s: contradictions %s -> %s" % (name, a, b))
    return lines


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        fresh = build(workdir)
    old = load() if os.path.exists(PATH) else {"graphs": {}, "contradictions": {}}
    lines = moved(old, fresh)
    print("\n".join(lines) if lines else "census unchanged")
    if "--write" in sys.argv[1:]:
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump(fresh, fh, indent=1, sort_keys=True)
            fh.write("\n")
    sys.exit(1 if lines and "--write" not in sys.argv[1:] else 0)
