"""The committed census (census.json) against fresh CLI outputs.

The whole census is checked: its two halves, the graphs at even and at
odd positions, run side by side in two subprocesses under PYTHONHASHSEED 0
and 1. A failure names every graph and depth whose digest or verdict
moved, and every changed depth contradiction; ``python tests/census.py
--write`` rebuilds the file.
"""

import json
import os
import re
import subprocess
import sys

from census import CENSUS, DEPTHS, PPI, contradictions, load, moved

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
