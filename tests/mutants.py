"""Named mutants of the sources under src/, each with the test files that
must catch it.

A mutant is one named fault, written as exact-text edits: each edit
replaces an old text, which must appear exactly once in its file, by a
new one. For each mutant the runner copies src/ to a temporary
directory, makes the edits there, and runs the mutant's test files with
the copy first on the import path (``PYTHONPATH`` and pytest's
``pythonpath``), one pytest process at a time. The mutant is caught when
pytest reports failed tests (exit code 1); any other outcome, a passing
run, an error before the tests or an old text that is gone or repeated,
fails the runner. A change to the code that removes a mutant's old text
therefore makes the runner fail until the mutant is rewritten for the new
code or retired.

    python tests/mutants.py [name ...]

With no names every mutant runs. Exits 0 when each one asked for is
caught; a mutant not caught is printed with the fault it stands for.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Edit(NamedTuple):
    path: str  # relative to src/
    old: str
    new: str


class Mutant(NamedTuple):
    name: str
    what: str
    edits: Tuple[Edit, ...]
    tests: Tuple[str, ...]  # relative to the repository root


MUTANTS = (
    Mutant(
        "transport-only-along-nontrivial-gamma",
        "the witness builder skips the transport whenever gamma is trivial, "
        "also when nu is not: (a a, a) at v keeps the target s_a s_a*",
        (
            Edit(
                "kpalg/witness.py",
                "    if gamma != nu or not leq(nu.degree, rc.cycle.mu.degree):\n",
                "    if (gamma != nu or not leq(nu.degree, rc.cycle.mu.degree))"
                " and not gamma.is_trivial:\n",
            ),
        ),
        ("tests/test_witness.py",),
    ),
    Mutant(
        "lift-never-applied",
        "the witness builder never lifts, so a pair reached along a "
        "nontrivial path certifies s_gamma s_gamma*, not s_v",
        (
            Edit(
                "kpalg/witness.py",
                "    if not gamma.is_trivial:\n        cert = lift_infinite(",
                "    if False:\n        cert = lift_infinite(",
            ),
        ),
        ("tests/test_witness.py",),
    ),
    Mutant(
        "split-tail-skips-the-squares",
        "KGraph._split takes as tail p's own word with the head's edges "
        "struck out colour by colour, wherever that is a path",
        (
            Edit(
                "kpalg/kgraph.py",
                "        split = self.edges[word[h]].range\n        return (\n",
                "        split = self.edges[word[h]].range\n"
                "        left, tail = list(m), []\n"
                "        for eid in p.edges:\n"
                "            c = self._color[eid] - 1\n"
                "            if left[c]:\n"
                "                left[c] -= 1\n"
                "            else:\n"
                "                tail.append(eid)\n"
                "        ends = [split] + [self._source[e] for e in tail]\n"
                "        if all(self.edges[e].range == r for e, r in zip(tail, ends)):\n"
                "            word = tuple(word[:h]) + tuple(tail)\n"
                "        return (\n",
            ),
        ),
        ("tests/test_kgraph.py", "tests/test_steinberg.py"),
    ),
    Mutant(
        "step-table-keyed-by-edge",
        "the step table of a vertex search keys its moves by the edge "
        "alone, so one state's step is read back for every state",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "    nxt = steps.next[(s, e)] = ",
                "    nxt = steps.next[e] = ",
            ),
            Edit(
                "kpalg/aperiodicity.py",
                "        nxt = table.get((s, e))\n",
                "        nxt = table.get(e)\n",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "join-stops-at-the-first-collision",
        "the degree-class join yields only its first collision, so the "
        "certificate scan never meets a later unseparated pair",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "                    yield a, b\n",
                "                    yield a, b\n                    return\n",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "class-skip-at-equal-degree",
        "the degree-class join leaves empty the table of a class whose "
        "degree reaches d(x) in some color, so it misses the pairs there",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "min(n) >= 0",
                "min(n) > 0",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "class-head-off-the-whole-candidate",
        "the degree-class join reads each head off p x instead of "
        "p x(0, d(x) - d(p)), so heads of different degrees are compared",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "prefixes[n] = g.prefix_word(x.edges, x.degree, n)",
                "prefixes[n] = x.edges",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "step-without-sort",
        "a step of the step table splits the one-edge head off the word "
        "t e as written, without sorting it to put that head first",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "g._sort_word(list(t + (e,)), len(t))",
                "list(t + (e,))",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "start-without-head-comparison",
        "a pair stripped at a nonzero meet keeps its tails whatever its "
        "heads there, so a pair separated at the meet is stepped on",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "        if tuple(a[:h]) != tuple(b[:hb]):\n",
                "        if False:\n",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "steps-last-matched-on-alpha-alone",
        "separates reuses the last stripped state whenever alpha is the "
        "last call's alpha, though beta differs",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "if last_alpha is not alpha or last_beta is not beta:",
                "if last_alpha is not alpha:",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "probe-at-the-first-defeat",
        "the separator walk hands a pair to the closed machine at every "
        "defeat, also the first, not only when it defeats a second candidate",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "if defeats == 2 and machine.states(*defeating) is not None:",
                "if defeats >= 1 and machine.states(*defeating) is not None:",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "machine-without-its-memo",
        "_Machine.states runs the closed machine on every call, so a pair "
        "the walk and the certificate scan both ask about runs twice",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "        if key not in self.answers:\n",
                "        if True:\n",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "walk-goes-on-past-a-certified-probe",
        "the separator walk tries every later candidate after the machine "
        "has certified the defeating pair, though none can separate it",
        (
            Edit(
                "kpalg/aperiodicity.py",
                "is not None:\n                return None\n",
                "is not None:\n                pass\n",
            ),
        ),
        ("tests/test_aperiodicity.py",),
    ),
    Mutant(
        "composite-join-against-color-order",
        "composite_word joins p's word and the word after it as they are "
        "when they are out of color order, and sorts them when they are not",
        (
            Edit(
                "kpalg/kgraph.py",
                "self._color[edges[-1]] <= self._color[word[0]]",
                "self._color[edges[-1]] >= self._color[word[0]]",
            ),
        ),
        ("tests/test_kgraph.py",),
    ),
    Mutant(
        "split-word-never-moves",
        "_split_word takes the literal prefix as the head at every m, also "
        "where an edge of a higher color must move past left-over edges",
        (
            Edit(
                "kpalg/kgraph.py",
                "            if not (mc and skip):\n",
                "            if True:\n",
            ),
        ),
        ("tests/test_kgraph.py",),
    ),
    Mutant(
        "sweep-answers-out-of-trace-order",
        "the sweep keys each vertex's traces in reverse order of "
        "ideals.traces, so its answers come out of report order",
        (
            Edit(
                "kpalg/classify.py",
                "for h in traces(g, v)}",
                "for h in reversed(traces(g, v))}",
            ),
        ),
        ("tests/test_classify.py",),
    ),
    Mutant(
        "containment-any-extension",
        "is_generalized_cycle holds when some boundary extension of mu "
        "stays compatible with nu, not every one, so (a, a.a) on a bouquet "
        "passes",
        (
            Edit(
                "kpalg/paths.py",
                "    return all(g.mce(g.compose(mu, tau), nu) for tau in taus)\n",
                "    return any(g.mce(g.compose(mu, tau), nu) for tau in taus)\n",
            ),
        ),
        ("tests/test_paths.py",),
    ),
    Mutant(
        "entrance-stays-compatible",
        "the entrance search of find_reaching_gen_cycle takes the first tau "
        "whose extension nu tau stays compatible with mu, which is no "
        "entrance",
        (
            Edit(
                "kpalg/paths.py",
                "if not g.mce(mu, g.compose(nu, tau))",
                "if g.mce(mu, g.compose(nu, tau))",
            ),
        ),
        ("tests/test_paths.py",),
    ),
    Mutant(
        "traces-walk-ignores-avoid",
        "_walk keeps a closure that holds the vertex it must avoid, so "
        "ideals.traces lists closures of ideals that contain v",
        (
            Edit(
                "kpalg/ideals.py",
                "above[h] = {b for b in bigger if avoid not in b}",
                "above[h] = set(bigger)",
            ),
        ),
        ("tests/test_ideals.py",),
    ),
    Mutant(
        "path-keeps-its-graph",
        "a graph's home is a strong closure over the graph, so its paths "
        "and caches form a cycle with it and a dropped graph waits for the "
        "cycle collector",
        (
            Edit(
                "kpalg/kgraph.py",
                "        self._home = weakref.ref(self)\n",
                "        self._home = lambda: self\n",
            ),
        ),
        ("tests/test_kgraph.py",),
    ),
)


def apply(src: str, mutant: Mutant) -> None:
    """Make the mutant's edits in the source tree at src; raise
    ValueError when an old text does not appear exactly once."""
    for edit in mutant.edits:
        path = os.path.join(src, edit.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        n = text.count(edit.old)
        if n != 1:
            raise ValueError(
                "%s: the old text appears %d times in %s, not once: %r"
                % (mutant.name, n, edit.path, edit.old)
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(edit.old, edit.new))


def run(mutant: Mutant) -> str:
    """'caught', or why the mutant was not caught."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
        )
        try:
            apply(src, mutant)
        except ValueError as err:
            return str(err)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        argv += ["-o", "pythonpath=" + src] + list(mutant.tests)
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
    if proc.returncode == 1:
        return "caught"
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return "not caught: pytest exit %d (%s)" % (proc.returncode, last[0])


def main(argv) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [a for a in argv if a not in by_name]
    if unknown:
        print("unknown mutant(s): %s" % ", ".join(unknown))
        return 2
    failed = 0
    for m in [by_name[a] for a in argv] if argv else MUTANTS:
        outcome = run(m)
        if outcome != "caught":
            failed += 1
            outcome += "; the fault: " + m.what
        print("%s: %s" % (m.name, outcome), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
