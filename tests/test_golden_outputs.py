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
import json
import os
import subprocess
import sys

from census import cli, record
from corpus import CORPUS, lattice8
from kpalg import format_kgraph

DEPTHS = (2, 3)

GOLDEN = {
    "e1": "cf0c054095ed872b55f8ffaf6398256c1441b05eb9f5991ba21a2363ebb09b3a",
    "e2": "c75350cd7f9138af4aea1b4249028bdb69e45ae7399e64511a7c3c142f9548e7",
    "b3": "84f5e2633d4f5a0abbda990bb1b1186a76b1057a3722066901dbc9ad3b92a08e",
    "cycle2": "4041fc329647050e56cc79a946064bb7804c6c7f2fa9d9636be14f0844d4a99a",
    "cycle3": "b65ce7c289d1d0e9469d0f7dd7ac4c402fe0a107ba570efe6ee4a282dcf6354b",
    "single_edge": "7a4f722e1d73e33ee62da638e533cc13c9a2dcf70d431d2da70d38b9301121ce",
    "chain3": "38ffe775b79940a12711260c825ce2d8745c7c47e342d540eb87ea23c7e239b4",
    "chain5": "81a1a5456643c0d240e0e8abe63b75b840b9df9e63befd9a36bcc16f86eeec67",
    "two_loops_plus_exit": "f3f1ea64bf12d871db5e30e7337d73a7bfec8c0b9d958f9e6f071bc412855438",
    "loop_with_exit": "f9d2e9425157be230be22600ca81537125a3395bacf2ab58787e5f5ef0e9348c",
    "entered_loop": "948fd76816e528a75db45cea40c7b78a9061a2ea69063fa698f97a5f60dbd88b",
    "t2": "449c4f2001029e809237e07b6c6b3d7b6e1b7be3b633d9a207312f634135440a",
    "t3": "ba041721d1ef2bd2b3cee5608a8953652d3b0ee8251807d7ac0af9a7b5f05220",
    "omega11": "007dd0f001f29bc3fbfdaedab8057cf8296a8f6bbb7fb77f49606a546251b30f",
    "grid21": "31c114e06787c09ac998815e1002d982347d3ff2e99d13a5918015f8a8379f5c",
    "prod_b2_b1": "23af918706c8e375b998f94ed03e1393545f2ff1bad8cc56122cdf9bb53811fc",
    "prod_b2_b2": "f3acf6d7cd5e6a1b7f1ce2a6916921e786bb41bc4c03a1edbabf8e02d80ead18",
    "prod_c2_b2": "da80799a52ca28cac3d833e1e64aa4e515d8c1221abd8d02e8b7975e88dd5174",
    "prod_c2_t2": "3251ac81c76fb64a2a9d3a76ae2e7c0e79de22b6082f24c827f19ea7d0038ead",
    "flip_loop_pair": "1f4d85e2e56f28377fc1bdc1ab721b5678843238bf9d0c533294a21d8b3a612c",
    "rsq1": "e447c59b8bc014cd055ca1cd7ede1d6e3540a67a735a45e3af20e367aa3be2bc",
    "rsq2": "331050e6062adcb2971f77088c0ef3e9abd2cb72cf042e7c65591042a2504923",
    "rsq23": "f9364853f3b9d6e4d4db7090b9c267d73e74d20b6d18088a897c2ac7ce9188b0",
    "lattice8": "bfc2a8831da511c0da2a8941f2a95f45cba10c0c9612b0dde9eac342afb24d82",
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


def _digest(path, argvs):
    h = hashlib.sha256()
    for argv in argvs:
        h.update(record(argv, cli(path, argv)))
    return h.hexdigest()


def digests(workdir):
    """{graph name: sha256 of its CLI outputs}, the graphs written to
    workdir as presentation files."""
    out = {}
    for name, mk in CORPUS + [("lattice8", lattice8)]:
        g = mk()
        path = os.path.join(workdir, name + ".kg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_kgraph(g))
        out[name] = _digest(path, _argvs(g))
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
    seeded = [name for name, got in runs[0].items() if got != runs[1][name]]
    assert not seeded, "CLI output depends on the hash seed: %s" % seeded
    changed = ["%s: %s" % (name, got) for name, got in runs[0].items() if GOLDEN.get(name) != got]
    assert not changed, "CLI outputs changed; new digests:\n" + "\n".join(changed)


if __name__ == "__main__":
    print(json.dumps(digests(sys.argv[1]), indent=4))
