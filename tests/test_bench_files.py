"""Committed benchmark results: every BENCH_*.json holds a correct parent
and change run of each workload, with the end-to-end metrics and units that
BENCHMARK.json declares. The files are only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_has_a_correct_run_of_every_workload(path):
    spec = _benchmark()
    metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for side in ("parent", "change"):
        for w in spec["workloads"]:
            entry = data[side][w["name"]]
            assert entry["correct"] is True, (side, w["name"])
            got = [(name, m["unit"]) for name, m in entry["metrics"].items()]
            assert got == metrics, (side, w["name"])
