"""Checks on what ``classify_pure_infiniteness`` returned.

``case_failures`` compares a report with the case's known answer.
``audit`` re-verifies every piece of evidence in a report from scratch, on
a fresh parse of the case text and quotients built from it, so that no
graph object or cache of the verdict pass is reused:

- every witness and ``proper`` certificate: its graph must have the
  vertices, edges and squares of the fresh quotient by its ideal; it is
  then rebuilt over that quotient, its target must be the vertex
  idempotent it is for, and ``failing_checks`` must pass;
- every periodicity certificate through ``certify_never_separated``;
- every separator, against every comparable pair at its vertex up to the
  depth. The pairs are enumerated here from ``g.paths``, independently of
  the search that produced the separator, and the split test is written
  out here too (``splits``) rather than taken from ``kpalg.separates``,
  the function under test.

One audited certificate or separator is one operation; it fails when any
of its checks does.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from typing import List, Tuple


def case_failures(case, g, rep) -> List[str]:
    """Ways in which the report differs from the case's known answer."""
    out: List[str] = []
    if rep.verdict != case.verdict:
        out.append("verdict %s, expected %s" % (rep.verdict, case.verdict))
    if len(rep.sweep) != case.ideals:
        out.append("%d ideals, expected %d" % (len(rep.sweep), case.ideals))
    first = rep.sweep[0] if rep.sweep else ((None,), None)
    if case.periodic and (len(first[0]) != 0 or first[1].certificate is None):
        out.append("no periodicity certificate for the graph itself")
    for h, verd in rep.sweep:
        if verd.status == "aperiodic" and (
            {e.vertex for e in verd.evidence} != set(g.vertices) - set(h)
        ):
            out.append("separators for ideal {%s} miss a vertex" % ", ".join(h))
    if case.verdict == "ProperlyPurelyInfinite":
        proved = {w.vertex for w in rep.witnesses if w.status == "ProperlyInfinite"}
        if proved != set(g.vertices):
            out.append("vertices without a certificate: %s" % sorted(set(g.vertices) - proved))
    return out


def _rebuild(g, p):
    # the same edge word, as a path of the audit's own graph
    return g.path_from_edges(list(p.edges)) if p.edges else g.trivial_path(p.range)


def _same_graph(a, b) -> bool:
    return (a.k, a.vertices, a.edges, a.square_fwd) == (b.k, b.vertices, b.edges, b.square_fwd)


def _move(kp, g, x, paths):
    """A path, element or matrix rebuilt over g; paths memoizes rebuilt
    paths by edge word."""
    if isinstance(x, kp.KPMatrix):
        return kp.KPMatrix(tuple(tuple(_move(kp, g, y, paths) for y in r) for r in x.rows))
    if isinstance(x, kp.KPElement):
        return kp.KPElement(g, x.field, tuple(
            ((_move(kp, g, lam, paths), _move(kp, g, mu, paths)), c)
            for (lam, mu), c in x.terms))
    key = (x.range, x.edges)
    if key not in paths:
        paths[key] = _rebuild(g, x)
    return paths[key]


def _moved_certificate(kp, g, cert):
    """The certificate with every element and path rebuilt over g."""
    paths = {}

    def mv(x):
        return _move(kp, g, x, paths)

    return dataclasses.replace(
        cert,
        target=mv(cert.target),
        parts=tuple((n, mv(x)) for n, x in cert.parts),
        derivation=tuple(
            dataclasses.replace(
                st,
                elements=tuple((n, mv(x)) for n, x in st.elements),
                checks=tuple((d, mv(a), mv(b)) for d, a, b in st.checks),
            )
            for st in cert.derivation
        ),
    )


def comparable_pairs(g, v: str, depth: int):
    """Pairs of paths with source v, a common range, total degree at most
    depth and different degrees (equal degrees are always separated)."""
    by_range = defaultdict(list)
    for n in itertools.product(range(depth + 1), repeat=g.k):
        if sum(n) > depth:
            continue
        for u in g.vertices:
            by_range[u].extend(p for p in g.paths(u, n) if p.source == v)
    for ps in by_range.values():
        for a, b in itertools.combinations(ps, 2):
            if a.degree != b.degree:
                yield a, b


def splits(g, a, b, x) -> bool:
    """Whether composing with x tells a and b apart: a x and b x differ in
    their prefixes at the meet of their degrees, or x is maximal (its
    source receives no edge) and their degrees differ."""
    ax, bx = g.compose(a, x), g.compose(b, x)
    m = tuple(min(i, j) for i, j in zip(ax.degree, bx.degree))
    if g.factorize(ax, m)[0] != g.factorize(bx, m)[0]:
        return True
    return ax.degree != bx.degree and not g.edges_by_range(x.source)


def separator_failure(g, ev, depth: int) -> str:
    x = _rebuild(g, ev.separator)
    if ev.pairs_checked:
        if x.range != ev.vertex:
            return "separator %s does not start at %s" % (x, ev.vertex)
        for i in range(g.k):
            if x.degree[i] > depth + 1 or (
                x.degree[i] < depth + 1 and g.edges_by_range(x.source, i + 1)
            ):
                return "separator %s is not a boundary path within depth %d" % (x, depth + 1)
    n = 0
    for a, b in comparable_pairs(g, ev.vertex, depth):
        n += 1
        if not splits(g, a, b, x):
            return "separator %s does not split (%s, %s)" % (x, a, b)
    if n != ev.pairs_checked:
        return "%d comparable pairs at %s, evidence says %d" % (n, ev.vertex, ev.pairs_checked)
    return ""


def periodic_failure(kp, g, cert) -> str:
    a, b = _rebuild(g, cert.alpha), _rebuild(g, cert.beta)
    if a.source != cert.vertex or b.source != cert.vertex or a.range != b.range:
        return "pair (%s, %s) is not a pair at %s" % (a, b, cert.vertex)
    states = kp.certify_never_separated(g, a, b)
    if states != cert.machine_states:
        return "closure machine gives %s states, certificate says %d" % (
            states, cert.machine_states)
    return ""


def witness_failure(kp, gq, cert, kind: str, vertex: str) -> str:
    """Checks on a certificate for the quotient gq, built by the audit."""
    if cert.kind != kind:
        return "%s certificate where %s was expected" % (cert.kind, kind)
    if not _same_graph(cert.graph, gq):
        return "certificate graph %r is not the quotient %r" % (cert.graph, gq)
    cert = _moved_certificate(kp, gq, cert)
    p = cert.target
    if not kp.equals(p, kp.vertex_unit(gq, p.field, vertex)):
        return "target %s is not the idempotent of %s" % (p, vertex)
    return "; ".join(kp.failing_checks(cert))


def audit(kp, case, rep) -> Tuple[int, List[str]]:
    """Re-verify every certificate and separator in rep; returns the number
    of operations and a description of each failed one."""
    g = kp.parse_kgraph(case.text)
    quotients = {}
    attempted = 0
    failures: List[str] = []

    def quotient(h):
        if h not in quotients:
            quotients[h] = g if len(h) == 0 else kp.quotient(g, h)
        return quotients[h]

    def record(what: str, msg: str) -> None:
        nonlocal attempted
        attempted += 1
        if msg:
            failures.append("%s: %s: %s" % (case.name, what, msg))

    for h, verd in rep.sweep:
        gq = quotient(h)
        where = "ideal {%s}" % ", ".join(h)
        if verd.certificate is not None:
            record(where, periodic_failure(kp, gq, verd.certificate))
        for ev in verd.evidence:
            record(where, separator_failure(gq, ev, verd.depth))
    for w in rep.witnesses:
        for c in w.cases:
            record(
                "vertex %s, ideal {%s}" % (w.vertex, ", ".join(c.ideal)),
                witness_failure(kp, quotient(c.ideal), c.certificate, "Infinite", w.vertex),
            )
        if w.proper is not None:
            # the proper certificate is built on the graph itself
            record(
                "vertex %s, proper" % w.vertex,
                witness_failure(kp, g, w.proper, "ProperlyInfinite", w.vertex),
            )
    return attempted, failures


def evidence_terms(rep) -> int:
    """Size of the evidence in a report: spanning terms over all parts of
    every witness certificate, plus the two paths of every periodicity
    certificate and one path per separator."""
    n = 0
    for w in rep.witnesses:
        certs = [c.certificate for c in w.cases] + ([w.proper] if w.proper else [])
        for cert in certs:
            for _, val in cert.parts:
                rows = val.rows if hasattr(val, "rows") else ((val,),)
                n += sum(len(x.terms) for r in rows for x in r)
    for _, verd in rep.sweep:
        n += 2 * (verd.certificate is not None) + len(verd.evidence)
    return n
