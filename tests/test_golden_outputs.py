"""Golden CLI outputs: one sha256 per graph over what the commands print.

For every corpus graph and for lattice8, the digest covers the argv, exit
code, stdout and stderr of:
- ``classify`` (text and ``--json``), ``aperiodic --json`` and
  ``witness --json`` for every vertex, at depths 2 and 3;
- ``ideals`` (text and ``--json``);
- ``closure --json`` and ``quotient`` for every vertex.

A second table, CONTRACT, holds one digest per corpus graph over
``contract v --json`` for every vertex v, at depths 2 and 3.

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

CONTRACT = {
    "e1": "6fdb2adfec8c5ec974c06db9115e91b76197a1e1a52186b86fda5dd2b60c8cc5",
    "e2": "ee580e1156b85fbdc279ab9c9d161a2b000125b62e0380c92323cb026db8ac17",
    "b3": "ee580e1156b85fbdc279ab9c9d161a2b000125b62e0380c92323cb026db8ac17",
    "cycle2": "3c7c5d2c95c51fb4bb4619be614573f89c939d6ad3a323b3d5de3e023662e6fb",
    "cycle3": "a92fe5257c442b317d2ceb3ae82a08a092bdd94047b3fc0cd7c24993c6bb9ff0",
    "single_edge": "48731dfcc08d9a995b50c05b332f213b01313aeaea70d84785a4ba60575bf5bb",
    "chain3": "7c9b8b193505d0e0584cbde00d87382afb715a15f8647bdc1f2fa51fa8a64f38",
    "chain5": "01ce87104d8eed239bbcd4dcebff7425b2527e67ba339dfcf46b54b2bef8f283",
    "two_loops_plus_exit": "02e56809541de0cfd6de336056ebb5ad01d3ffeff7ecf92c1f429a3b34c144c8",
    "loop_with_exit": "31f9affd5575bc0697d3282bca8b982ca0fca9f4597eb9a81c7f8a12dad5c8e1",
    "entered_loop": "afa4432d9ff923ef5f1ea4d394c3512eb3b7657e3317ae7e9dcb36d98b543f2b",
    "t2": "ea94e49fbc24528af188f9b0649baa8b38c46ae6960d2f35fc0490a661362e18",
    "t3": "8d1e6543f43004617c1b190448cca272966a7ec95643af263df2c21ca076678e",
    "omega11": "3792ed8da7f1f07893fd30650137db841d82fa6abce7bdfce712ea7af8ba6e3e",
    "grid21": "92c7b347d882b2265eab974341fe7a54a172706caf60b3acfcc3c35f9564e023",
    "prod_b2_b1": "437f022c7a9f2121318627a43d8f782360f95ddd9b54f478cf145f399f3b83cc",
    "prod_b2_b2": "b59459dc7225a6e32907b0ecc16c4895dab32fb9c0a589c241edf79641637963",
    "prod_c2_b2": "cb324a0b71b3ac0382906e9d14cd6f368379f52185c6d78364906b1d2bf71e18",
    "prod_c2_t2": "1e5564da1756a89506181c1c48da2c5f06ae32611410611315180d7c5281429f",
    "flip_loop_pair": "4206dc0c9e205074427d61d848e4bd851588a31302d09d660c85120a755ee1a8",
    "rsq1": "cbd02194a694e2ee1c8e8eeb9910878625a93115ba21b6ba381bf23dafa8a065",
    "rsq2": "cbd02194a694e2ee1c8e8eeb9910878625a93115ba21b6ba381bf23dafa8a065",
    "rsq23": "bd5afe641b43f39f8aafa557ffa1b296736334c9686bf90b0d762fb44be3bdf8",
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


def _contract_argvs(g):
    return [["contract", v, "--json", "--depth", str(d)] for d in DEPTHS for v in g.vertices]


def _digest(path, argvs):
    h = hashlib.sha256()
    for argv in argvs:
        h.update(record(argv, cli(path, argv)))
    return h.hexdigest()


def digests(workdir):
    """{"GOLDEN": {graph name: sha256 of its CLI outputs}, "CONTRACT":
    {corpus graph name: sha256 of its contract outputs}}, the graphs
    written to workdir as presentation files."""
    out = {"GOLDEN": {}, "CONTRACT": {}}
    for name, mk in CORPUS + [("lattice8", lattice8)]:
        g = mk()
        path = os.path.join(workdir, name + ".kg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_kgraph(g))
        out["GOLDEN"][name] = _digest(path, _argvs(g))
        if name in dict(CORPUS):
            out["CONTRACT"][name] = _digest(path, _contract_argvs(g))
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
    seeded = [
        "%s %s" % (table, name)
        for table, got in runs[0].items()
        for name in got
        if got[name] != runs[1][table][name]
    ]
    assert not seeded, "CLI output depends on the hash seed: %s" % seeded
    changed = [
        "%s %s: %s" % (table, name, got)
        for table, want in (("GOLDEN", GOLDEN), ("CONTRACT", CONTRACT))
        for name, got in runs[0][table].items()
        if want.get(name) != got
    ]
    assert not changed, "CLI outputs changed; new digests:\n" + "\n".join(changed)


if __name__ == "__main__":
    print(json.dumps(digests(sys.argv[1]), indent=4))
