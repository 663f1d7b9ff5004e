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
