"""Acceptance suite.

Each test prints one PASS/FAIL line (visible under pytest -s and through
capsys.disabled) and enforces its own time budget. Expected values come
from definition-level brute force oracles in oracles.py or from explicit
re-verification, never from recorded outputs.
"""

import itertools
import random
import time

from corpus import CORPUS, NAMES, build
from oracles import brute_mce, brute_sat_her, paths_upto
from kpalg import (
    KP,
    QQ,
    aperiodicity_check,
    classify_pure_infiniteness,
    column,
    convolve,
    enumerate_sat_her,
    equals,
    failing_checks,
    generator,
    kp_mul,
    lift_infinite,
    matrix_equals,
    orthogonal_witness,
    prove_vertex_properly_infinite,
    quotient,
    row,
    spanning_term,
    star_generator,
    strong_aperiodicity_sweep,
    transport_infinite,
    transport_witness,
    validate,
    vertex_conditions,
    vertex_unit,
)

SWEEP_DEPTH = 2  # deep enough to settle every corpus graph that settles at all


def _report(capsys, name, ok, detail):
    line = "ACCEPTANCE %s: %s — %s" % (name, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    return line


def _degree_box(k, top=2):
    return [n for n in itertools.product(range(top + 1), repeat=k)]


def _paths_box(g, top=2):
    box = (top,) * g.k
    out = []
    for v in g.vertices:
        out.extend(paths_upto(g, v, box))
    return out


def _aperiodic_names():
    out = []
    for name in NAMES:
        g = build(name)
        sweep = strong_aperiodicity_sweep(g, SWEEP_DEPTH)
        if all(verd.status == "aperiodic" for _, verd in sweep):
            out.append(name)
    return out


def test_mce_matches_brute_force_oracle(capsys):
    t0 = time.monotonic()
    graphs = 0
    pairs = 0
    mismatches = []
    for name in NAMES:
        g = build(name)
        ps = _paths_box(g, 2)
        for mu in ps:
            for nu in ps:
                got = sorted(str(x) for x in g.mce(mu, nu))
                want = sorted(brute_mce(g, mu, nu))
                pairs += 1
                if got != want:
                    mismatches.append((name, str(mu), str(nu), got, want))
        graphs += 1
    elapsed = time.monotonic() - t0
    ok = not mismatches and graphs >= 20 and elapsed < 60.0
    detail = "%d graphs, %d path pairs, %d mismatches, %.1fs" % (
        graphs,
        pairs,
        len(mismatches),
        elapsed,
    )
    line = _report(capsys, "mce-oracle", ok, detail)
    assert ok, line + ("; first: %r" % (mismatches[:1],) if mismatches else "")


def test_receiving_and_cycle_conditions_agree(capsys):
    # condition (1): every vertex receives a nontrivial path, read off the
    # edge lists; condition (2): a cycle reaches every vertex, decided here
    # by an independent transitive closure over the extension relation
    t0 = time.monotonic()
    checked = 0
    bad = []
    for name in NAMES:
        g = build(name)
        sweep = strong_aperiodicity_sweep(g, SWEEP_DEPTH)
        if not all(verd.status == "aperiodic" for _, verd in sweep):
            continue
        receives = {v: len(g.edges_by_range(v)) > 0 for v in g.vertices}
        step = {v: set() for v in g.vertices}
        for eid in g.edges:
            e = g.edges[eid]
            step[e.range].add(e.source)
        closure = {v: set(step[v]) for v in g.vertices}
        changed = True
        while changed:
            changed = False
            for v in g.vertices:
                grow = set()
                for u in closure[v]:
                    grow |= step[u]
                if not grow <= closure[v]:
                    closure[v] |= grow
                    changed = True
        cycled = {v: any(u in closure[u] for u in closure[v] | {v}) for v in g.vertices}
        conds = vertex_conditions(g)
        for c in conds:
            if c.receives != receives[c.vertex]:
                bad.append((name, c.vertex, "receives"))
            if (c.cycle is not None) != cycled[c.vertex]:
                bad.append((name, c.vertex, "cycle"))
        if all(receives.values()) != all(cycled.values()):
            bad.append((name, "*", "global equivalence"))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = not bad and checked > 0 and elapsed < 60.0
    detail = "%d aperiodic-sweep graphs, %d disagreements, %.1fs" % (
        checked,
        len(bad),
        elapsed,
    )
    line = _report(capsys, "conditions-equivalence", ok, detail)
    assert ok, line + ("; %r" % (bad[:3],) if bad else "")


def test_corpus_witness_certificates_reverify(capsys):
    t0 = time.monotonic()
    total = 0
    failures = []
    for name in NAMES:
        g = build(name)
        rep = classify_pure_infiniteness(g, depth=SWEEP_DEPTH)
        for w in rep.witnesses:
            for case in w.cases:
                total += 1
                fails = failing_checks(case.certificate)
                if fails:
                    failures.append((name, w.vertex, fails[0]))
            if w.proper is not None:
                total += 1
                fails = failing_checks(w.proper)
                if fails:
                    failures.append((name, w.vertex, fails[0]))
    # the canonical two-loop splitting comes out exactly as the star row
    # and generator column
    g = build("e2")
    kp = KP(g, QQ)
    rep = prove_vertex_properly_infinite(g, "v", depth=3)
    pa, pb = kp.path("a"), kp.path("b")
    canonical = rep.proper is not None and matrix_equals(
        rep.proper.part("A"), column(kp.star(pa), kp.star(pb))
    ) and matrix_equals(rep.proper.part("B"), row(kp.s(pa), kp.s(pb)))
    total += 1
    if not canonical:
        failures.append(("e2", "v", "canonical splitting matrices"))
    elapsed = time.monotonic() - t0
    ok = not failures and total > 0
    detail = "%d certificates re-verified, %d failures, %.1fs" % (
        total,
        len(failures),
        elapsed,
    )
    line = _report(capsys, "witness-soundness", ok, detail)
    assert ok, line + ("; %r" % (failures[:3],) if failures else "")


def test_multiplication_backends_agree(capsys):
    t0 = time.monotonic()
    rng = random.Random(90125)
    per_graph = 1000
    graphs = 0
    products = 0
    disagreements = []
    for name in _aperiodic_names():
        g = build(name)
        kp = KP(g, QQ)
        by_source = {}
        for p in _paths_box(g, 2):
            by_source.setdefault(p.source, []).append(p)
        sources = sorted(by_source)
        for _ in range(per_graph):
            s1, s2 = rng.choice(sources), rng.choice(sources)
            a = kp.term(rng.choice(by_source[s1]), rng.choice(by_source[s1]))
            b = kp.term(rng.choice(by_source[s2]), rng.choice(by_source[s2]))
            products += 1
            if not equals(kp_mul(a, b), convolve(a, b)):
                disagreements.append((name, str(a.terms), str(b.terms)))
        graphs += 1
    elapsed = time.monotonic() - t0
    ok = not disagreements and products >= 1000 * graphs and elapsed < 120.0
    detail = "%d graphs x %d products, %d disagreements, %.1fs" % (
        graphs,
        per_graph,
        len(disagreements),
        elapsed,
    )
    line = _report(capsys, "backend-agreement", ok, detail)
    assert ok, line + ("; %r" % (disagreements[:1],) if disagreements else "")


def test_vertex_unit_reconstruction(capsys):
    t0 = time.monotonic()
    checked = 0
    bad = []
    for name in NAMES:
        g = build(name)
        kp = KP(g, QQ)
        for v in g.vertices:
            unit = vertex_unit(g, QQ, v)
            for n in _degree_box(g.k, 2):
                acc = kp.zero()
                for lam in g.boundary_paths(v, n):
                    acc = acc + kp.term(lam, lam)
                checked += 1
                if not equals(unit, acc):
                    bad.append((name, v, n))
    elapsed = time.monotonic() - t0
    ok = not bad
    detail = "%d (vertex, degree) reconstructions, %d failures, %.1fs" % (
        checked,
        len(bad),
        elapsed,
    )
    line = _report(capsys, "unit-reconstruction", ok, detail)
    assert ok, line + ("; %r" % (bad[:3],) if bad else "")


def test_ideal_lattice_matches_brute_force(capsys):
    t0 = time.monotonic()
    graphs = 0
    quotients = 0
    bad = []
    for name in NAMES:
        g = build(name)
        got = {frozenset(h) for h in enumerate_sat_her(g).sets}
        want = brute_sat_her(g)
        if got != want:
            bad.append((name, "lattice"))
        for h in enumerate_sat_her(g).sets:
            gq = quotient(g, h)
            quotients += 1
            if not validate(gq).ok:
                bad.append((name, "quotient by {%s}" % ", ".join(h)))
        graphs += 1
    elapsed = time.monotonic() - t0
    ok = not bad
    detail = "%d graphs, %d quotients validated, %d failures, %.1fs" % (
        graphs,
        quotients,
        len(bad),
        elapsed,
    )
    line = _report(capsys, "ideal-lattice-oracle", ok, detail)
    assert ok, line + ("; %r" % (bad[:3],) if bad else "")


def test_end_to_end_classifications(capsys):
    results = []
    bad = []

    t0 = time.monotonic()
    rep = classify_pure_infiniteness(build("e2"), depth=6)
    dt = time.monotonic() - t0
    results.append(("e2", rep.verdict, dt))
    certs_ok = all(
        not failing_checks(c.certificate) for w in rep.witnesses for c in w.cases
    )
    if rep.verdict != "ProperlyPurelyInfinite" or not certs_ok or dt >= 10.0:
        bad.append("e2")

    t0 = time.monotonic()
    rep = classify_pure_infiniteness(build("omega11"), depth=6)
    dt = time.monotonic() - t0
    results.append(("omega11", rep.verdict, dt))
    if rep.verdict != "NotPurelyInfinite" or dt >= 10.0:
        bad.append("omega11")

    t0 = time.monotonic()
    rep = classify_pure_infiniteness(build("t2"), depth=6, assume_aperiodic=True)
    dt = time.monotonic() - t0
    results.append(("t2", rep.verdict, dt))
    has_periodic_cert = any(verd.status == "periodic" for _, verd in rep.sweep)
    refused = any("refused" in n for n in rep.notes)
    if rep.verdict != "Inconclusive" or not has_periodic_cert or not refused or dt >= 10.0:
        bad.append("t2")

    ok = not bad
    detail = "; ".join("%s -> %s in %.1fs" % r for r in results)
    line = _report(capsys, "end-to-end", ok, detail)
    assert ok, line + ("; failing: %r" % (bad,) if bad else "")


def test_randomized_transports_and_compositions(capsys):
    t0 = time.monotonic()
    rng = random.Random(5150)
    bad = []

    # transported witnesses: carry a verified vertex witness along a random
    # path into its cylinder corner, then lift it back up
    transport_graphs = ["e2", "b3", "two_loops_plus_exit", "prod_b2_b2", "rsq1"]
    base = {}
    for name in transport_graphs:
        g = build(name)
        for v in g.vertices:
            rep = prove_vertex_properly_infinite(g, v, depth=3)
            if rep:
                # the full-graph case lives in the algebra of g itself
                for case in rep.cases:
                    if len(case.ideal) == 0:
                        base[(name, v)] = (g, case.certificate)
    keys = sorted(base)
    transported = 0
    attempts = 0
    while transported < 100 and attempts < 10000 and keys:
        attempts += 1
        name, v = keys[rng.randrange(len(keys))]
        g, cert = base[(name, v)]
        word = []
        cur = v
        for _ in range(rng.randrange(1, 4)):
            ins = g.edges_by_range(cur)
            if not ins:
                break
            e = ins[rng.randrange(len(ins))]
            word.append(e.id)
            cur = e.source
        if not word:
            continue
        lam = g.path_from_edges(word)
        root = base.get((name, lam.source))
        if root is None:
            continue
        moved = transport_infinite(
            root[1], star_generator(g, QQ, lam), generator(g, QQ, lam)
        )
        lifted = lift_infinite(moved, vertex_unit(g, QQ, lam.range))
        transported += 1
        for stage, c in (("moved", moved), ("lifted", lifted)):
            fails = failing_checks(c)
            if fails:
                bad.append((name, str(lam), stage, fails[0]))

    # composed witnesses: split a vertex through a random pair of cycles
    # with no common extension, then push into a random cylinder corner
    composed = 0
    compose_graphs = ["e2", "b3", "two_loops_plus_exit", "prod_b2_b2", "rsq2"]
    pools = {}
    for name in compose_graphs:
        g = build(name)
        for v in g.vertices:
            cycles = [
                p
                for p in _paths_box(g, 2)
                if p.range == v and p.source == v and sum(p.degree) > 0
            ]
            pairs = [
                (m1, m2)
                for i, m1 in enumerate(cycles)
                for m2 in cycles[i + 1 :]
                if not g.mce(m1, m2)
            ]
            if pairs:
                pools[(name, v)] = (g, pairs)
    pool_keys = sorted(pools)
    while composed < 100 and pool_keys:
        name, v = pool_keys[rng.randrange(len(pool_keys))]
        g, pairs = pools[(name, v)]
        m1, m2 = pairs[rng.randrange(len(pairs))]
        pw = vertex_unit(g, QQ, v)
        proper = orthogonal_witness(
            pw,
            spanning_term(g, QQ, m1, m1),
            spanning_term(g, QQ, m2, m2),
            star_generator(g, QQ, m1),
            generator(g, QQ, m1),
            star_generator(g, QQ, m2),
            generator(g, QQ, m2),
        )
        lam = [m1, m2][rng.randrange(2)]
        corner = spanning_term(g, QQ, lam, lam)
        moved = transport_witness(
            pw, corner, star_generator(g, QQ, lam), generator(g, QQ, lam), proper
        )
        composed += 1
        for stage, c in (("orthogonal", proper), ("transported", moved)):
            fails = failing_checks(c)
            if fails:
                bad.append((name, str(lam), stage, fails[0]))

    elapsed = time.monotonic() - t0
    ok = not bad and transported >= 100 and composed >= 100
    detail = "%d transported + %d composed witnesses, %d failures, %.1fs" % (
        transported,
        composed,
        len(bad),
        elapsed,
    )
    line = _report(capsys, "randomized-constructions", ok, detail)
    assert ok, line + ("; %r" % (bad[:3],) if bad else "")
