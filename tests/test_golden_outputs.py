"""Golden CLI outputs: one sha256 per graph over what the commands print.

For every corpus graph and for lattice8, the digest covers the argv, exit
code, stdout and stderr of:
- ``classify`` (text and ``--json``), ``aperiodic --json`` and
  ``witness --json`` for every vertex, at depths 2 and 3;
- ``ideals`` (text and ``--json``);
- ``closure --json`` and ``quotient`` for every vertex.

A refactor that keeps the outputs byte-identical keeps these digests. When
an output changes on purpose, the failure names each graph and prints its
new digest to commit. The digests are computed in two subprocesses, under
PYTHONHASHSEED 0 and 1, so no output may depend on hash order.

Run this file as a script with an empty directory as its argument to
print the digests as JSON.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from corpus import CORPUS, lattice8
from kpalg import format_kgraph
from kpalg.cli import main

DEPTHS = (2, 3)

GOLDEN = {
    "e1": "172e647b1c7d8da2603abcf0fc13b1d766f41544b3be03dd5387251c30c3fbd9",
    "e2": "933a7136875712df60e84a0951d82616d89c185f38efb473a9a7d72821917430",
    "b3": "5e1fc603bb468be54f7f2f5dd8a71b1edc0c509632e363a471011c4027efcb46",
    "cycle2": "41431723961bba8b8b0286440f7fc14e8fea4d3c3ab51b2094c0769138ade48b",
    "cycle3": "8d7c16c5a4797f18eadd78e9ce491cdacc2cb61df246f65f2c462d895779f253",
    "single_edge": "6363137d48a4a2698752eb2d51321254fb4b4972d47bb027b00ed6dde1c9a37d",
    "chain3": "8ee92041c1c996db1d592fbb2a8d033c504a760e05cf744ddef3bb0125a4fb6d",
    "chain5": "93bb24d9d4d0d8db5bc12c207e37257c74ccab2a9001b9f9db6b50d5bc1ff2af",
    "two_loops_plus_exit": "9e1d1ace4aa75c333b9b5e10121f685a78119c365a6817179fa5963833dad4d1",
    "loop_with_exit": "368c5d3ef311b1c5a214ce20f744b3a6568d6ecdf73d38cb44907bbc95e70b79",
    "entered_loop": "1458d824b0a6ec762f8f759fd5641456f986237e98bec1cf0a8a7812011fa202",
    "t2": "23056bcaf4f193f4779f66464fe60c652c750c12602579252fead4a59ec6c987",
    "t3": "b1903d9d5d6e28f40a515f5c55a6a8c7222c45aad720cc6d9f61645ab00bdbf4",
    "omega11": "b744458a2758c6ca5c79c9bbcc8ae49c52c9be62ebaf60f9ae5a3cff34b0b38b",
    "grid21": "f1eec6e2bbaf935c487db931a5f599e935850b97d088f97553ab19179dbec148",
    "prod_b2_b1": "6e81932a8b21c8fb375862c833ad18ff5121bd27a11ddf75aa9f1e697684da69",
    "prod_b2_b2": "d39e683eb287bf71f3d1c895b2a8d8fa803d2ea48a9b8e9a4d58ea0983dda344",
    "prod_c2_b2": "dfecefb90121a24c7fdb976174b76c38bbcc581995a260eeb66adf0740fd63d0",
    "prod_c2_t2": "2f438c0e27f9ef5816edf0c75e31fb318800d8acf9aa1c2d3e6686ac2dcd9bb6",
    "flip_loop_pair": "0847745d76fe6226ec534553c9534323e105207dc8cb25f03be9d116d58789fb",
    "rsq1": "704d7e3f49dff1d70daed13a25edc0e0b68903c23bbed5eeb4b33d38af958aad",
    "rsq2": "7a5cfdca42a1f346f6232e6a3efd30cd1fec648a0d863d75366df5605234f920",
    "rsq23": "ea168a5cff4ba8d0a0a4801843de0a5710cbc6e008ecc9d0cf98fd88979df873",
    "lattice8": "c76b629ac71b6af278aaccf632af3f870e3f8dde311d59837ff36640aec64812",
}


def _argvs(g):
    vs = list(g.vertices)
    out = []
    for d in DEPTHS:
        depth = ["--depth", str(d)]
        out += [["classify"] + depth, ["classify", "--json"] + depth]
        out += [["aperiodic", "--json"] + depth]
        out += [["witness", v, "--json"] + depth for v in vs]
    out += [["ideals"], ["ideals", "--json"]]
    for v in vs:
        out += [["closure", v, "--json"], ["quotient", v]]
    return out


def digests(workdir):
    """{graph name: sha256 of its CLI outputs}, the graphs written to
    workdir as presentation files."""
    out = {}
    for name, mk in CORPUS + [("lattice8", lattice8)]:
        g = mk()
        path = os.path.join(workdir, name + ".kg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_kgraph(g))
        h = hashlib.sha256()
        for argv in _argvs(g):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([argv[0], path] + argv[1:])
            record = (" ".join(argv), code, stdout.getvalue(), stderr.getvalue())
            h.update(("%s\n%d\n%s\n%s\n" % record).encode())
        out[name] = h.hexdigest()
    return out


def test_cli_outputs_match_golden_digests(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    procs = []
    for seed in ("0", "1"):
        workdir = tmp_path / seed
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        procs.append(
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(workdir)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    runs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0 and not stderr, stderr
        runs.append(json.loads(stdout))
    seeded = [name for name in runs[0] if runs[0][name] != runs[1][name]]
    assert not seeded, "CLI output depends on the hash seed: %s" % seeded
    changed = [
        "%s: %s" % (name, got) for name, got in runs[0].items() if GOLDEN.get(name) != got
    ]
    assert not changed, "CLI outputs changed; new digests:\n" + "\n".join(changed)


if __name__ == "__main__":
    print(json.dumps(digests(sys.argv[1]), indent=4))
