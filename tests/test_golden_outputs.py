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
    "e1": "f6430352da8e7203cdfc4ab6bca65967b7b9bed5b31a91f3c6be6552660dd8e7",
    "e2": "8d9329de6a5aa6fee542d161fa6874016e2316bcbd0937741ae5cd8b67e0a30c",
    "b3": "c02d97d806b400a0368452a31b6aaefebb958f6933eab45bf9841e62783b19c3",
    "cycle2": "a514eb4bf573fc0d5f86a40d6a06b2c43ce05031b3ca36bd6e0f0cb698f8360b",
    "cycle3": "612fcba12e4af7777e8ec13a7d48c52531e091bd8b09d454f6c8003c6e937828",
    "single_edge": "4a1f5ed504d595b046dbe7752177d99ae26c368cf131bb5d13136e20e3cd3012",
    "chain3": "8021218d98f14d099d87a400d741f7b5622281842f6ba7282e1de2bf0ecdee11",
    "chain5": "9273c8318a5bc655544a621240b568afae369de8db3b011813de2f6f5b7ae8fe",
    "two_loops_plus_exit": "a9ee66ef65441159512e8dce99d4f54ffced29fe13b4cd94d854a86247db4c0c",
    "loop_with_exit": "a85c6a0f86c70cabc916fcda0f401b4233e1ad5eddfdeeb547265c5a8d9eef96",
    "entered_loop": "fc623d1ff707802085bdf3db13ca0e34dfd31f138753068d6c77ea7737240bae",
    "t2": "d7f609c4edb0b38949d8d88b0575bbd81da36fb58736d8cfff1106a326b04734",
    "t3": "87bf158e1875c59854d5cb3d0be95ed28636a048b494aea84741a3174c5762f4",
    "omega11": "16d2436270333053f2e7f6826d446be2a2b4d35ef6fb8567c56f698d22176eca",
    "grid21": "49aed571c34e5d90d3f7af0d6747f90a73925a5bfd0eefe5030145fdb0f53201",
    "prod_b2_b1": "97e4fb31697f3a662d14b4e2f7479a31db4d0b102e7c1ad4b709fb2fa31123ba",
    "prod_b2_b2": "dfe76ac7b200d5f8d40ba2095d44862b6bf2721cffc0cf544282e91e28dc6731",
    "prod_c2_b2": "0b6cfd0716ed8b1d7fb5c2bd3d25a372246e72708d75a94c75d4bddad90daf7f",
    "prod_c2_t2": "9ab4eab2e4467faea69cba36f7482cf28e9e0bc2828b7aa65ebd6e0d2df80792",
    "flip_loop_pair": "52a5b9cf5f3fb83e48bec157e68507155c84ae3e0bcc94d2b3d3f6a35d746c92",
    "rsq1": "5cb3b334fa0df17cbd1420d7b06120f452f318aa86cab887bb30a939d614f280",
    "rsq2": "e5d2e571dba699c4cd201aad66c2128cf2231cf7984a63f5372577e293f42b38",
    "rsq23": "348b9a64795e894adeb9c270634b49e5e3048d9007a0fff0130975ddbe0cfc7f",
    "lattice8": "d57134002cce9356d9dd32deb9002264d974d9ffbec07bfd06452ac81b7f0429",
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
