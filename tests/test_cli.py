import json
import os

import pytest

from kgraph_lab.catalog import builtin_graph
from kgraph_lab.cli import main, parse_job
from kgraph_lab.errors import UsageError
from kgraph_lab.kgraph import graph_to_dict


def read_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


# -- parsing ---------------------------------------------------------------


def test_parse_defaults():
    job = parse_job(["spectral", "--builtin", "ex3v8e"])
    assert job.command == "spectral"
    assert job.param("depth") == 4
    assert job.param("tol") == 1e-10
    assert job.param("resolution") == "1/32"
    assert job.param("format") == "tsv"


def test_parse_accepts_zero_tol():
    job = parse_job(["rep-verify", "--builtin", "ex3v8e", "--tol", "0"])
    assert job.param("tol") == 0


def test_parse_monic_with_builtin():
    job = parse_job(["monic", "--builtin", "exonevthreeed", "--depth", "5"])
    assert job.param("builtin") == "exonevthreeed"
    assert job.param("depth") == 5


def test_parse_requires_graph():
    with pytest.raises(UsageError):
        parse_job(["spectral"])


def test_parse_kakutani_requires_specs():
    with pytest.raises(UsageError):
        parse_job(["kakutani"])


def test_malformed_job_file(tmp_path):
    bad = tmp_path / "job.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        parse_job(["validate", "--job", str(bad)])


def test_malformed_graph_json_exit_2(tmp_path):
    bad = tmp_path / "graph.json"
    bad.write_text("{not json")
    code = main(["validate", "--graph", str(bad), "--out", str(tmp_path)])
    assert code == 2


# -- commands -----------------------------------------------------------------


def test_validate_builtin(tmp_path):
    code = main(["validate", "--builtin", "ex3v8e", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert report["results"]["vertices"] == 3


def test_validate_graph_file(tmp_path):
    data = graph_to_dict(builtin_graph("exonevtwoe"))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code = main(["validate", "--graph", str(path), "--out", str(tmp_path)])
    assert code == 0


def test_spectral_artifacts(tmp_path):
    code = main(["spectral", "--builtin", "lambda2N:N=2", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert report["results"]["exact"] is True
    assert report["results"]["kappa"]["v"] == "1/3"
    assert (tmp_path / "spectral.tsv").exists()


def test_measure_table(tmp_path):
    code = main(
        ["measure", "--builtin", "exonevtwoe", "--measure", "markov:x=1/3",
         "--depth", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    table = (tmp_path / "measure.tsv").read_text()
    assert table.startswith("depth\tpath\tvalue")


def test_rep_verify_standard(tmp_path):
    code = main(
        ["rep-verify", "--builtin", "ex3v8e", "--measure", "pf", "--depth", "3",
         "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path)
    assert report["results"]["max_residual"] < 1e-10


def test_rep_verify_faithful(tmp_path):
    code = main(
        ["rep-verify", "--builtin", "ehfg", "--rep", "faithful", "--depth", "4",
         "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path)
    assert report["results"]["gauge_residual"] == 0.0


def test_rep_verify_zero_blocks_exit_1(tmp_path):
    code = main(
        ["rep-verify", "--builtin", "ex3v8e", "--rep", "faithful", "--depth", "0",
         "--out", str(tmp_path)]
    )
    assert code == 1
    report = read_report(tmp_path)
    assert report["results"]["ok"] is False
    assert report["results"]["checks"][0]["blocks_checked"] == 0
    assert report["violations"][0]["check"] == "CK1"
    assert report["violations"][0]["blocks_checked"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["monic", "--builtin", "kawamura", "--resolution", "abc"],
        ["monic", "--builtin", "kawamura", "--resolution", "0"],
        ["measure", "--builtin", "exonevtwoe", "--measure", "markov:x=abc"],
        ["measure", "--builtin", "exonevtwoe", "--measure", "product:geometric:zz"],
        ["kakutani", "--markov-a", "x=1/3", "--markov-b", "x=q"],
        ["kakutani", "--product-a", "geometric:1/2", "--product-b", "const:1"],
        ["orbit", "--builtin", "ex3v8e", "--x-prefix", "nosuch", "--y-prefix", "nosuch"],
        ["rep-verify", "--builtin", "ex3v8e", "--depth", "-1"],
        ["rep-verify", "--builtin", "ex3v8e", "--depth", "2", "--tol", "-1"],
        ["rep-verify", "--builtin", "ex3v8e", "--depth", "2", "--tol", "nan"],
        ["rep-verify", "--builtin", "ex3v8e", "--depth", "2", "--tol", "inf"],
        ["rep-verify", "--builtin", "lambda2N:N=x"],
        ["rep-verify", "--builtin", "lambda2N:N=2,perm=1;x;3;4"],
        ["rep-verify", "--builtin", "lambda2N:N=0"],
        ["rep-verify", "--builtin", "lambda2N:N=2,perm=1;1;2;3"],
        ["monic", "--builtin", "kawamura:a=zz"],
        ["monic", "--builtin", "kawamura:a=1/0"],
        ["monic", "--builtin", "product-kawamura:a=2"],
        # the text after --job is written to a job file
        ["validate", "--job", "[1, 2]"],
        ["validate", "--job", '{"builtin": "ex3v8e", "params": [1, 2]}'],
        # job-file values get the checks argparse gives the flags
        ["rep-verify", "--job", '{"builtin": "ex3v8e", "params": {"rep": "faithul"}}'],
        ["measure", "--job", '{"builtin": "exonevtwoe", "params": {"format": "xml"}}'],
        ["rep-verify", "--job", '{"builtin": "ex3v8e", "params": {"depth": true}}'],
        ["rep-verify", "--job", '{"builtin": "ex3v8e", "params": {"tol": false}}'],
        ["rep-verify", "--job", '{"builtin": "ex3v8e", "params": {"seed": true}}'],
        # depth * k above the enumeration cap
        ["monic", "--builtin", "kawamura", "--depth", "40"],
        # Markov matrices that fail MarkovMeasureSpec.validated
        ["measure", "--builtin", "lambda2N:N=2", "--measure",
         "markov:1/4,1/4,1/4,1/4;1/2,1/2,0,0;0,0,1/2,1/2;1/4,1/4,1/4,1/4"],
        ["kakutani", "--markov-a", "1/2,1/2;1,0", "--markov-b", "x=1/3"],
        ["kakutani", "--markov-a", "x=1/3", "--markov-b", "x=2"],
        # degrees above the enumeration cap
        ["measure", "--builtin", "kawamura", "--depth", "30"],
        ["rep-verify", "--builtin", "ex3v8e", "--depth", "13"],
        ["rep-verify", "--builtin", "ex3v8e", "--depth", "13", "--rep", "faithful"],
        # product bias terms outside (-1/2, 1/2)
        ["measure", "--builtin", "lambda2N:N=2", "--measure", "product:geometric:1/2,1/2"],
        ["measure", "--builtin", "lambda2N:N=2", "--measure", "product:const:1/2"],
        ["kakutani", "--product-a", "const:3/4", "--product-b", "const:3/4"],
        ["kakutani", "--product-a", "geometric:1/4,3", "--product-b", "const:0"],
    ],
)
def test_bad_input_exit_2(argv, tmp_path, capsys):
    if "--job" in argv:
        at = argv.index("--job") + 1
        job = tmp_path / "job.json"
        job.write_text(argv[at])
        argv = argv[:at] + [str(job)] + argv[at + 1:]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_monic_above_the_enumeration_cap_names_it(tmp_path, capsys):
    argv = ["monic", "--builtin", "double-kawamura", "--depth", "13"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: monic depth 13 needs paths of total degree 26")
    assert "enumeration cap 24" in err


@pytest.mark.parametrize("rep", ["standard", "faithful"])
def test_rep_verify_not_strongly_connected_says_so(rep, tmp_path, capsys):
    argv = ["rep-verify", "--builtin", "exonevthreeed", "--rep", rep, "--depth", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: graph exonevthreeed is not strongly connected")
    assert "needs a strongly connected k-graph" in err


def test_kakutani_equivalent(tmp_path):
    code = main(
        ["kakutani", "--product-a", "geometric:1/2,1/2", "--product-b", "const:0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["results"]["verdict"] == "Equivalent"


def test_kakutani_markov_singular(tmp_path):
    code = main(
        ["kakutani", "--markov-a", "x=1/3", "--markov-b", "x=2/5", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["results"]["verdict"] == "MutuallySingular"


def test_monic_negative_exit_1(tmp_path):
    code = main(["monic", "--builtin", "exonevthreeed", "--out", str(tmp_path)])
    assert code == 1
    report = read_report(tmp_path)
    assert report["results"]["verdict"] == "NotMonic"
    assert report["violations"]
    lo, hi = report["results"]["witness"]
    assert lo == "1/2"


def test_monic_positive_exit_0(tmp_path):
    code = main(
        ["monic", "--builtin", "exonevtwoe", "--depth", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["results"]["verdict"] == "Monic"


def test_sbfs_check(tmp_path):
    code = main(["sbfs-check", "--builtin", "ex3v8e", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert report["results"]["ok"] is True
    assert report["results"]["cocycle_residual"] <= 1e-12


def test_orbit_command(tmp_path):
    code = main(
        ["orbit", "--builtin", "exonevtwoe",
         "--x-prefix", "f1.f2.e.e", "--y-prefix", "f1.f2.e.e",
         "--depth", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["results"]["orbit_equal"] is True


def test_export_dot(tmp_path):
    code = main(["export-dot", "--builtin", "ex3v8e", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "skeleton.dot").read_text().startswith("digraph")


def test_job_file_round(tmp_path):
    job = {"command": "spectral", "builtin": "ex3v8e", "params": {"depth": 3}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["spectral", "--job", str(path), "--out", str(tmp_path)])
    assert code == 0


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["rep-verify", "--builtin", "exonevtwoe", "--measure", "pf", "--depth", "3",
            "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_job_file_inline_graph(tmp_path):
    data = graph_to_dict(builtin_graph("exonevtwoe"))
    job = {"command": "validate", "graph": data}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["validate", "--job", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert read_report(tmp_path)["results"]["vertices"] == 1


def test_measure_format_json_embeds_table(tmp_path):
    code = main(
        ["measure", "--builtin", "exonevtwoe", "--measure", "pf", "--depth", "2",
         "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path)
    assert not (tmp_path / "measure.tsv").exists()
    rows = report["results"]["table"]
    assert ["0", "v", "1/1"] in rows
