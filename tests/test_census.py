"""The committed census (census.json) against fresh CLI outputs.

The whole census is checked: its two halves, the graphs at even and at
odd positions, run side by side in two subprocesses under PYTHONHASHSEED 0
and 1. A failure names every graph and depth whose digest or verdict
moved, and every changed depth contradiction; ``python tests/census.py
--write`` rebuilds the file. One more depth, 4, is checked on the graphs
with a PPI verdict only: it pins which of those answers it overturns.
"""

import json
import os
import re
import subprocess
import sys

from census import CENSUS, DEPTHS, PPI, contradictions, load, moved
from kpalg import classify_pure_infiniteness

BUILD = "import census, json, sys; print(json.dumps(census.build(sys.argv[1], census.CENSUS[int(sys.argv[2])::2])))"


def test_census_lists_each_graph_once():
    names = [name for name, _ in CENSUS]
    assert len(names) == len(set(names)) == 381
    assert sum(name.startswith("one") for name in names) == 256
    assert sum(bool(re.fullmatch(r"[bc]\dx[bc]\d", name)) for name in names) == 21


def test_contradictions_pair_a_ppi_verdict_with_a_deeper_other_one():
    assert DEPTHS == (1, 2, 3)
    assert contradictions([PPI, "Inconclusive", PPI]) == [[1, 2]]
    assert contradictions(["Inconclusive", PPI, PPI]) == []
    assert contradictions([PPI, PPI, "NotPurelyInfinite"]) == [[1, 3], [2, 3]]


def test_depth_four_overturns_these_ppi_answers():
    # the census stops at depth 3; at depth 4, 13 of its 76 graphs with a
    # PPI verdict at some depth 1-3 get another verdict. Besides the 8
    # listed contradictions, b2xc4 and b3xc4 are periodic (a bouquet times
    # a cycle is), so their PPI answers at depths 1-3 are wrong, and
    # doubled_two_cycle and its two labelled copies on 2 vertices are
    # aperiodic graphs whose aperiodicity is unknown at depth 4
    census = load()
    ppi = [(name, mk) for name, mk in CENSUS if PPI in census["graphs"][name]["verdicts"]]
    overturned = {
        name for name, mk in ppi if classify_pure_infiniteness(mk(), depth=4).verdict != PPI
    }
    assert len(ppi) == 76
    assert overturned == set(census["contradictions"]) | {
        "b2xc4",
        "b3xc4",
        "doubled_two_cycle",
        "one2_01_01_10",
        "one2_01_10_10",
    }


def test_census_matches_the_committed_file(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    procs = []
    for part in (0, 1):
        workdir = tmp_path / str(part)
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=str(part), PYTHONPATH=os.pathsep.join([src, here]))
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", BUILD, str(workdir), str(part)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    fresh = {"graphs": {}, "contradictions": {}}
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0 and not stderr, stderr
        half = json.loads(stdout)
        fresh["graphs"].update(half["graphs"])
        fresh["contradictions"].update(half["contradictions"])
    lines = moved(load(), fresh)
    assert not lines, "census moved; rebuild with tests/census.py --write:\n" + "\n".join(lines)
