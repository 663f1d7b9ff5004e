"""Command line interface: every subcommand, exit codes, JSON output."""

import io
import json
import os
import subprocess
import sys

import pytest

import kpalg
from corpus import branches, build, doubled_two_cycle, lattice8
from kpalg import format_kgraph, product, random_square_graph
from kpalg.cli import main

BAD_SQUARES = """\
kgraph v1
k: 2
vertices: v
edge e color=1 from=v to=v
edge f color=2 from=v to=v
"""


def write_graph(tmp_path, name):
    f = tmp_path / (name + ".kg")
    f.write_text(format_kgraph(build(name)))
    return str(f)


# -- validate ----------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", write_graph(tmp_path, "e2")]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_json(tmp_path, capsys):
    assert main(["validate", write_graph(tmp_path, "t2"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"ok": True, "violations": []}


def test_validate_reports_violations(tmp_path, capsys):
    f = tmp_path / "bad.kg"
    f.write_text(BAD_SQUARES)
    assert main(["validate", str(f), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["ok"]
    assert any(v["kind"] == "missing-square" for v in data["violations"])


# the descending pair (f, b) has no square
NO_SQUARE = """\
kgraph v1
k: 2
vertices: u v w
edge b color=1 from=w to=u
edge f color=2 from=u to=v
"""


@pytest.mark.parametrize(
    "command",
    [
        ["paths", "v", "2,2", "--boundary"],
        ["aperiodic"],
        ["witness", "v"],
        ["ideals"],
    ],
    ids=lambda c: c[0],
)
def test_invalid_presentation_is_refused_at_load(tmp_path, capsys, command):
    f = tmp_path / "nosquare.kg"
    f.write_text(NO_SQUARE)
    assert main([command[0], str(f)] + command[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid presentation")
    assert "(f, b)" in err


def test_classify_refuses_a_presentation_without_vertices(tmp_path, capsys):
    f = tmp_path / "empty.kg"
    f.write_text("kgraph v1\nk: 1\n")
    assert main(["classify", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the presentation has no vertices")
    assert "Traceback" not in err


def test_aperiodic_refuses_a_presentation_without_vertices(tmp_path, capsys):
    # aperiodicity_check itself answers certified aperiodic, as the fresh
    # check of the quotient by H = V in test_aperiodicity.py needs; the
    # command refuses the vacuous verdict as classify does
    f = tmp_path / "empty.kg"
    f.write_text("kgraph v1\nk: 1\n")
    assert main(["aperiodic", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the presentation has no vertices")
    assert "Traceback" not in err


def test_missing_file_is_a_load_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.kg")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_non_utf8_file_is_a_load_error(tmp_path, capsys):
    f = tmp_path / "latin1.kg"
    f.write_bytes(b"kgraph v1\n# caf\xe9\nk: 1\n")
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_file_is_a_load_error(tmp_path, capsys):
    f = tmp_path / "junk.kg"
    f.write_text("not a header\n")
    assert main(["paths", str(f), "v", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1" in err


# -- paths and mce -----------------------------------------------------------------


def test_paths_lists_words(tmp_path, capsys):
    assert main(["paths", write_graph(tmp_path, "e2"), "v", "2"]) == 0
    assert capsys.readouterr().out.split() == ["a.a", "a.b", "b.a", "b.b"]


def test_paths_boundary_json(tmp_path, capsys):
    f = write_graph(tmp_path, "omega11")
    assert main(["paths", f, "p00", "1,1", "--boundary", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertex"] == "p00"
    assert data["degree"] == [1, 1]
    assert data["boundary"] is True
    assert len(data["paths"]) == 1


def test_paths_boundary_lists_by_degree(tmp_path, capsys):
    # degrees (1,1), (1,3), (2,1), (2,3): listed in lexicographic degree
    # order, which is not the order by total degree
    f = tmp_path / "branches.kg"
    f.write_text(format_kgraph(product(branches((1, 2), "x"), branches((1, 3), "y"))))
    assert main(["paths", str(f), "x_y", "2,3", "--boundary"]) == 0
    assert capsys.readouterr().out.split() == [
        "ex0_0_y.x0_0_ey0_0",
        "ex0_0_y.x0_0_ey1_0.x0_0_ey1_1.x0_0_ey1_2",
        "ex1_0_y.ex1_1_y.x1_1_ey0_0",
        "ex1_0_y.ex1_1_y.x1_1_ey1_0.x1_1_ey1_1.x1_1_ey1_2",
    ]


def test_paths_unknown_vertex(tmp_path, capsys):
    assert main(["paths", write_graph(tmp_path, "e2"), "nope", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mce_on_torus(tmp_path, capsys):
    assert main(["mce", write_graph(tmp_path, "t2"), "e", "f"]) == 0
    assert capsys.readouterr().out.split() == ["e.f"]


def test_mce_disjoint_is_empty(tmp_path, capsys):
    assert main(["mce", write_graph(tmp_path, "e2"), "a", "b", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"mu": "a", "nu": "b", "mce": []}


def test_mce_bad_path(tmp_path, capsys):
    assert main(["mce", write_graph(tmp_path, "e2"), "a.zzz", "b"]) == 1
    assert "error:" in capsys.readouterr().err


# -- ideals ------------------------------------------------------------------------


def test_closure(tmp_path, capsys):
    f = write_graph(tmp_path, "two_loops_plus_exit")
    assert main(["closure", f, "w"]) == 0
    assert capsys.readouterr().out.split() == ["v", "w"]


def test_closure_json(tmp_path, capsys):
    f = write_graph(tmp_path, "two_loops_plus_exit")
    assert main(["closure", f, "w", "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "closure": [\n    "v",\n    "w"\n  ]\n}\n'


def test_ideals_lattice_text(tmp_path, capsys):
    f = write_graph(tmp_path, "entered_loop")
    assert main(["ideals", f]) == 0
    assert capsys.readouterr().out == "{}\n{w}\n{v, w}\n"


def test_ideals_lattice_json(tmp_path, capsys):
    f = write_graph(tmp_path, "entered_loop")
    assert main(["ideals", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sets"] == [[], ["w"], ["v", "w"]]
    assert data["covers"] == [[0, 1], [1, 2]]


def test_quotient_prints_presentation(tmp_path, capsys):
    f = write_graph(tmp_path, "entered_loop")
    assert main(["quotient", f, "w"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kgraph v1")
    assert "edge a" in out and "edge d" not in out


def test_quotient_json(tmp_path, capsys):
    f = write_graph(tmp_path, "entered_loop")
    assert main(["quotient", f, "w", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "kgraph": "kgraph v1\\nk: 1\\nvertices: v\\n'
        'edge a color=1 from=v to=v\\n"\n}\n'
    )


def test_quotient_rejects_non_ideal(tmp_path, capsys):
    f = write_graph(tmp_path, "entered_loop")
    assert main(["quotient", f, "v"]) == 1
    err = capsys.readouterr().err
    assert "not hereditary and saturated" in err
    assert "closure is {v, w}" in err


# -- aperiodicity ------------------------------------------------------------------


def test_aperiodic_positive(tmp_path, capsys):
    assert main(["aperiodic", write_graph(tmp_path, "e2"), "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "aperiodic (bounded at depth 2)"


def test_aperiodic_periodic_still_definite(tmp_path, capsys):
    assert main(["aperiodic", write_graph(tmp_path, "t2"), "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("periodic (certified): pair (")


def test_aperiodic_unknown_exits_one(tmp_path, capsys):
    f = tmp_path / "doubled.kg"
    f.write_text(format_kgraph(doubled_two_cycle()))
    assert main(["aperiodic", str(f), "--depth", "2"]) == 1
    assert capsys.readouterr().out.startswith("unknown at depth 2")


@pytest.mark.parametrize("command", ["aperiodic", "classify", "witness"])
@pytest.mark.parametrize("depth", ["0", "-3"])
def test_depth_below_one_is_a_usage_error(tmp_path, capsys, command, depth):
    args = [command, write_graph(tmp_path, "t2"), "--depth=" + depth]
    if command == "witness":
        args.insert(2, "v")
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "depth must be >= 1" in capsys.readouterr().err


def test_aperiodic_json(tmp_path, capsys):
    assert main(["aperiodic", write_graph(tmp_path, "t2"), "--depth", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "periodic"
    assert data["certificate"]["vertex"] == "v"


# -- classify ----------------------------------------------------------------------


def test_classify_positive(tmp_path, capsys):
    assert main(["classify", write_graph(tmp_path, "e2"), "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "verdict: ProperlyPurelyInfinite" in out
    assert "field: Q  depth: 3" in out
    assert "note:" in out


def test_classify_validates_once(tmp_path, monkeypatch, capsys):
    # the report is kept on the graph, so classify reads the one the CLI
    # made before dispatching
    from kpalg import kgraph

    built = []
    orig = kgraph.ValidationReport

    def counted(*args):
        built.append(orig(*args))
        return built[-1]

    monkeypatch.setattr(kgraph, "ValidationReport", counted)
    assert main(["classify", write_graph(tmp_path, "e2"), "--depth", "2"]) == 0
    assert len(built) == 1 and built[0].ok
    g = build("e2")
    assert kgraph.validate(g) is kgraph.validate(g)


def test_classify_negative_is_definite(tmp_path, capsys):
    assert main(["classify", write_graph(tmp_path, "omega11"), "--depth", "3"]) == 0
    assert "verdict: NotPurelyInfinite" in capsys.readouterr().out


def test_classify_inconclusive_exits_one(tmp_path, capsys):
    assert main(["classify", write_graph(tmp_path, "t2"), "--depth", "3"]) == 1
    assert "verdict: Inconclusive" in capsys.readouterr().out


def test_classify_assert_aperiodic_refused(tmp_path, capsys):
    f = write_graph(tmp_path, "t2")
    assert main(["classify", f, "--depth", "3", "--assert-aperiodic", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "Inconclusive"
    assert data["assumed_aperiodic"] is False
    assert any("assertion is refused" in n for n in data["notes"])


def test_classify_assert_aperiodic_accepted_where_unsettled(tmp_path, capsys):
    f = tmp_path / "g.kg"
    f.write_text(format_kgraph(random_square_graph(1, 1, 2)))
    assert main(["classify", str(f), "--depth", "1", "--assert-aperiodic"]) == 0
    out = capsys.readouterr().out
    assert "verdict: ProperlyPurelyInfinite" in out
    assert "aperiodicity assumed where the check was unsettled\n" in out


def test_classify_json_and_field(tmp_path, capsys):
    f = write_graph(tmp_path, "e2")
    assert main(["classify", f, "--depth", "3", "--field", "F5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == 4
    assert data["verdict"] == "ProperlyPurelyInfinite"
    assert data["field"] == "F5"
    assert data["aperiodicity_basis"] == "bounded"
    w = data["witnesses"][0]
    assert w["status"] == "ProperlyInfinite"
    assert w["cases"][0]["certificate"] == 0
    assert w["certificates"][w["properly_infinite"]]["kind"] == "ProperlyInfinite"


def test_classify_bad_field(tmp_path, capsys):
    assert main(["classify", write_graph(tmp_path, "e2"), "--field", "R"]) == 1
    assert "error:" in capsys.readouterr().err


# -- witness -----------------------------------------------------------------------


def test_witness_positive(tmp_path, capsys):
    assert main(["witness", write_graph(tmp_path, "e2"), "v", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "vertex v: ProperlyInfinite" in out
    assert "trace {}, ideal {}: orthogonal-pair route, certificate verified" in out
    assert "properly infinite over the full graph: verified" in out


def test_witness_refused_exits_one(tmp_path, capsys):
    assert main(["witness", write_graph(tmp_path, "t2"), "v", "--depth", "3"]) == 1
    out = capsys.readouterr().out
    assert "vertex v: Refused" in out
    assert "failure:" in out


def test_witness_negative_json(tmp_path, capsys):
    f = write_graph(tmp_path, "omega11")
    assert main(["witness", f, "p00", "--depth", "3", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Negative"
    assert "failed_ideal" in data
    assert data["reaches"] == ["p00", "p01", "p10", "p11"]
    assert data["certificates"] == [] and data["cases"] == []


def test_witness_unknown_vertex(tmp_path, capsys):
    assert main(["witness", write_graph(tmp_path, "e2"), "zz"]) == 1
    assert "error:" in capsys.readouterr().err


# -- eval and contract --------------------------------------------------------------


def test_eval_file(tmp_path, capsys):
    g = write_graph(tmp_path, "e2")
    expr = tmp_path / "reconstruct.expr"
    expr.write_text("a a^* + b b^* - v\n")
    assert main(["eval", g, str(expr)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_stdin_json(tmp_path, capsys, monkeypatch):
    g = write_graph(tmp_path, "e2")
    monkeypatch.setattr("sys.stdin", io.StringIO("2 * a^* a"))
    assert main(["eval", g, "-", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_zero"] is False
    assert data["value"] == "2 * v"


def test_eval_parse_error(tmp_path, capsys):
    g = write_graph(tmp_path, "e2")
    expr = tmp_path / "bad.expr"
    expr.write_text("a +")
    assert main(["eval", g, str(expr)]) == 1
    assert "error:" in capsys.readouterr().err


def test_classify_over_a_large_prime_field(tmp_path, capsys):
    # 2^61 - 1 is decided prime without trial division
    g = write_graph(tmp_path, "e2")
    assert main(["classify", g, "--field", "F2305843009213693951", "--depth", "1"]) == 0
    assert "field: F2305843009213693951" in capsys.readouterr().out


@pytest.mark.parametrize("text, field", [("1/0 * v", "Q"), ("3/7 * a", "F7")])
def test_eval_zero_denominator(tmp_path, capsys, text, field):
    g = write_graph(tmp_path, "e2")
    expr = tmp_path / "zero.expr"
    expr.write_text(text)
    assert main(["eval", g, str(expr), "--field", field]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "division by 0 in %s" % field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["missing.expr", "."])
def test_eval_unreadable_file(tmp_path, capsys, name):
    # a missing file and a directory
    g = write_graph(tmp_path, "e2")
    assert main(["eval", g, str(tmp_path / name)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_contract_finds_bisection(tmp_path, capsys):
    g = write_graph(tmp_path, "e2")
    assert main(["contract", g, "v", "--depth", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is True
    assert data["bisection"] == "Z(a*a.a)"
    assert data["entrance"] == "b"


def test_contract_not_found_exits_one(tmp_path, capsys):
    g = write_graph(tmp_path, "omega11")
    assert main(["contract", g, "p00", "--depth", "2"]) == 1
    assert "no contracting bisection found" in capsys.readouterr().out


def test_contract_text_on_success(tmp_path, capsys):
    g = write_graph(tmp_path, "e2")
    assert main(["contract", g, "v", "--depth", "3"]) == 0
    assert capsys.readouterr().out == (
        "contracting bisection: Z(a*a.a)\n"
        "cycle pair: (a.a, a) with entrance b\n"
        "region: Z(v)\n"
    )


def test_contract_json_on_failure(tmp_path, capsys):
    g = write_graph(tmp_path, "omega11")
    assert main(["contract", g, "p00", "--depth", "2", "--json"]) == 1
    assert capsys.readouterr().out == (
        '{\n  "found": false,\n  "depth": 2,\n'
        '  "detail": "checked 0 candidate pairs inside Z(p00)"\n}\n'
    )


@pytest.mark.parametrize(
    "make, verdict",
    [(lambda: build("prod_c2_b2"), "Inconclusive"), (lattice8, "ProperlyPurelyInfinite")],
)
def test_classify_json_is_the_same_under_every_hash_seed(tmp_path, make, verdict):
    # paths, ideals and terms live in sets and dicts keyed by hash; the
    # report must not depend on their iteration order
    f = tmp_path / "g.kg"
    f.write_text(format_kgraph(make()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(kpalg.__file__)))
    run = "import sys; from kpalg.cli import main; sys.exit(main(sys.argv[1:]))"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", run, "classify", str(f), "--json"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode in (0, 1) and not proc.stderr, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["verdict"] == verdict
    assert outs[0] == outs[1]


# -- usage -------------------------------------------------------------------------


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.kg"])
    assert exc.value.code == 2
