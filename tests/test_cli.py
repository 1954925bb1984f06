import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from kgraph_lab import cli
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


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def loads_numpy(argv, out):
    """Run one CLI job in a fresh interpreter; whether it imported numpy."""
    script = (
        "import sys\n"
        "from kgraph_lab.cli import main\n"
        f"code = main({[*argv, '--out', str(out)]!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    code, loaded = done.stdout.split()
    assert code == "0", done.stderr
    return loaded == "True"


@pytest.mark.parametrize("argv, numpy_loaded", [
    (["rep-verify", "--builtin", "lambda2N:N=2", "--measure", "pf", "--depth", "2"], False),
    (["spectral", "--builtin", "exonevtwoe"], False),
    (["measure", "--builtin", "ex3v8e", "--measure", "pf", "--depth", "2"], False),
], ids=["exact-rep-verify", "exact-spectral", "float-measure"])
def test_exact_perron_data_never_loads_numpy(argv, numpy_loaded, tmp_path):
    # exact Perron data comes from the integer scan; irrational radii from a
    # power iteration in plain Python floats, so neither imports numpy
    assert loads_numpy(argv, tmp_path) is numpy_loaded


BENCHMARK_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_measure_jobs_match_the_benchmark_reference(tmp_path):
    # the seed-0 measure jobs of the benchmark, run through main(): exit code,
    # paths checked and the measure.tsv digest (exact measures) as recorded
    reference = json.loads(BENCHMARK_REFERENCE.read_text())
    assert reference["seed"] == 0
    jobs = {label: want for label, want in reference["jobs"].items() if label.startswith("measure ")}
    assert len(jobs) == 3 and sum("sha256" in want for want in jobs.values()) == 2
    for i, (label, want) in enumerate(sorted(jobs.items())):
        out = tmp_path / str(i)
        got = {"exit": main([*label.split(), "--out", str(out)]),
               "checked": read_report(out)["results"]["consistency_checked"]}
        if "sha256" in want:
            got["sha256"] = hashlib.sha256((out / "measure.tsv").read_bytes()).hexdigest()
        assert got == want, label


def test_ck_and_monic_jobs_match_the_benchmark_reference(tmp_path):
    # the seed-0 ck-verify and monic-interval jobs of the benchmark, run through
    # main(): exit code, ok and blocks per CK relation, or verdict and witness
    reference = json.loads(BENCHMARK_REFERENCE.read_text())
    assert reference["seed"] == 0
    jobs = {label: want for label, want in reference["jobs"].items()
            if label.startswith(("rep-verify ", "monic "))}
    assert len(jobs) == 5 and sum("witness" in want for want in jobs.values()) == 1
    for i, (label, want) in enumerate(sorted(jobs.items())):
        out = tmp_path / str(i)
        got = {"exit": main([*label.split(), "--out", str(out)])}
        results = read_report(out)["results"]
        if label.startswith("rep-verify "):
            got["ok"] = results["ok"]
            got["blocks"] = {c["relation"]: c["blocks_checked"] for c in results["checks"]}
        else:
            got.update((key, results[key]) for key in ("verdict", "witness") if key in results)
        assert got == want, label


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


def test_rep_verify_standard_zero_blocks_exit_1(tmp_path):
    # at depth 0 no edge has an image in the truncation: the rep is built and
    # the CK report shows the relations that checked nothing
    code = main(["rep-verify", "--builtin", "ex3v8e", "--depth", "0", "--out", str(tmp_path)])
    assert code == 1
    report = read_report(tmp_path)
    assert report["results"]["ok"] is False
    empty = [c["relation"] for c in report["results"]["checks"] if c["blocks_checked"] == 0]
    assert empty == ["CK3", "CK4", "CK4-min"]
    assert report["violations"][0]["check"] == "CK3"
    assert report["violations"][0]["blocks_checked"] == 0


# a bad builtin parameter value, under a command other than monic
BAD_BUILTIN_VALUES = [
    ["validate", "--builtin", "kawamura:a=foo"],
    ["spectral", "--builtin", "kawamura:a=3/2"],
    ["rep-verify", "--builtin", "double-kawamura:a=0"],
    ["export-dot", "--builtin", "product-kawamura:a=1"],
]


BAD_INPUTS = [
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
    # job-file values get the checks the flags get
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
    # flags and job-file params outside the flag names
    ["rep-verify", "--builtin", "ex3v8e", "--seed", "7"],
    ["rep-verify", "--job", '{"builtin": "ex3v8e", "params": {"dpeth": 3}}'],
    # measure specs whose shape does not fit the graph
    ["measure", "--builtin", "ehfg", "--measure", "product:const:0"],
    ["measure", "--builtin", "lambda2N:N=2", "--measure", "markov:x=1/3"],
    ["rep-verify", "--builtin", "kawamura", "--measure", "product:const:0"],
    # a 2D system without product structure
    ["monic", "--builtin", "noncstrn"],
    # sampled product specs without a term the top degree reads
    ["measure", "--builtin", "exonevtwoe", "--measure", "product:sampled:1/4", "--depth", "1"],
    ["measure", "--builtin", "lambda2N:N=2", "--measure", "product:sampled:1/4,1/4"],
    ["rep-verify", "--builtin", "exonevtwoe", "--measure", "product:sampled:1/4,1/8",
     "--depth", "2"],
    # builtin parameter keys the builtin does not take, or repeated ones
    ["monic", "--builtin", "kawamura:A=1/4", "--depth", "4"],
    ["validate", "--builtin", "ex3v8e:N=7"],
    ["rep-verify", "--builtin", "lambda2N:N=2,N=3"],
    # malformed skeletons: k below 1, a color that is no integer, a square
    # side that is no pair
    ["validate", "--job", '{"graph": {"k": 0, "vertices": ["v"], "edges": [], '
                          '"squares": []}}'],
    ["validate", "--job", '{"graph": {"k": 1, "vertices": ["v"], "edges": [{"id": "e", '
                          '"color": "blue", "source": "v", "range": "v"}], "squares": []}}'],
    ["validate", "--job", '{"graph": {"k": 2, "vertices": ["v"], "edges": ['
                          '{"id": "f", "color": 1, "source": "v", "range": "v"}, '
                          '{"id": "e", "color": 2, "source": "v", "range": "v"}], '
                          '"squares": [{"left": ["f"], "right": ["e", "f"]}]}}'],
    # a color or k that int() would truncate: a fraction part or a bool
    ["validate", "--job", '{"graph": {"k": 1, "vertices": ["v"], "edges": [{"id": "e", '
                          '"color": 1.7, "source": "v", "range": "v"}], "squares": []}}'],
    ["validate", "--job", '{"graph": {"k": 1, "vertices": ["v"], "edges": [{"id": "e", '
                          '"color": true, "source": "v", "range": "v"}], "squares": []}}'],
    ["validate", "--job", '{"graph": {"k": 2.5, "vertices": ["v"], "edges": [{"id": "e", '
                          '"color": 1, "source": "v", "range": "v"}], "squares": []}}'],
    # skeletons that fail a shape rule: DanglingEndpoint, InvalidSquare
    ["validate", "--job", '{"graph": {"k": 1, "vertices": ["v"], "edges": [{"id": "e", '
                          '"color": 1, "source": "w", "range": "v"}], "squares": []}}'],
    ["validate", "--job", '{"graph": {"k": 2, "vertices": ["v"], "edges": ['
                          '{"id": "f", "color": 1, "source": "v", "range": "v"}, '
                          '{"id": "e", "color": 2, "source": "v", "range": "v"}], '
                          '"squares": [{"left": ["f", "x"], "right": ["e", "f"]}]}}'],
    # builtin parameter values that do not parse or lie outside their range
    *BAD_BUILTIN_VALUES,
    # orbit prefixes of degree below (1,..,1): no shift window at any depth
    ["orbit", "--builtin", "ex3v8e", "--x-prefix", "a0", "--y-prefix", "a0", "--depth", "2"],
]


def with_job_file(argv, tmp_path):
    """argv with the text after --job written to a job file and replaced by its path."""
    if "--job" not in argv:
        return argv
    at = argv.index("--job") + 1
    job = tmp_path / "job.json"
    job.write_text(argv[at])
    return argv[:at] + [str(job)] + argv[at + 1:]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_exit_2(argv, tmp_path, capsys):
    argv = with_job_file(argv, tmp_path)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", BAD_BUILTIN_VALUES, ids=lambda argv: argv[0])
def test_bad_builtin_value_reads_as_under_monic(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert main(["monic", *argv[1:], "--out", str(tmp_path)]) == 2
    assert err == capsys.readouterr().err


# -- the flag reader against the argparse parser it replaced --------------------


def reference_parse_job(argv):
    """parse_job as it was on argparse: the same flags, with the choices of
    --format and --rep, and the same job-file reading and defaults."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="kgraph-lab")
    parser.add_argument("command", choices=cli.COMMANDS)
    parser.add_argument("--job")
    choices = {"format": cli.FORMATS, "rep": cli.REPS}
    for key, options in cli.FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=options.get("type"),
                            choices=choices.get(key))
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        raise UsageError("invalid arguments") from exc
    params = {}
    if ns.job:
        try:
            with open(ns.job) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read job file: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("job file must hold a JSON object")
        if not isinstance(data.get("params", {}), dict):
            raise UsageError("job file params must be a JSON object")
        if "command" in data and data["command"] != ns.command:
            raise UsageError("job file command disagrees with the CLI command")
        for key in data.get("params", {}):
            if key not in cli.FLAGS:
                raise UsageError(f"unknown job-file param {key!r}")
        params.update(data.get("params", {}))
        if data.get("graph"):
            params["graph"] = data["graph"]
        if data.get("builtin"):
            params["builtin"] = data["builtin"]
    for key in cli.FLAGS:
        val = getattr(ns, key)
        if val is not None:
            params[key] = val
    for key, val in cli.DEFAULTS.items():
        params.setdefault(key, val)
    job = cli.Job(ns.command, params)
    cli._validate_job(job)
    return job


def typed_job(job):
    """A job's command and params with the type of each value: 3 != 3.0."""
    return job.command, {key: (type(val), val) for key, val in job.params.items()}


BENCHMARK_ARGVS = [label.split() for label in json.loads(BENCHMARK_REFERENCE.read_text())["jobs"]]
# the argvs of the tests above that parse, the benchmark jobs, and the forms
# argparse read too: --flag=VALUE, repeated flags (the last wins), a job file
# with a flag over one of its fields
GOOD_INPUTS = [
    ["spectral", "--builtin", "ex3v8e"],
    ["rep-verify", "--builtin", "ex3v8e", "--tol", "0"],
    ["monic", "--builtin", "exonevthreeed", "--depth", "5"],
    ["validate", "--graph", "graph.json", "--out", "out"],
    ["validate", "--builtin", "ex3v8e", "--out", "out"],
    ["spectral", "--builtin", "lambda2N:N=2", "--out", "out"],
    ["measure", "--builtin", "exonevtwoe", "--measure", "markov:x=1/3", "--depth", "3"],
    ["rep-verify", "--builtin", "ex3v8e", "--measure", "pf", "--depth", "3"],
    ["rep-verify", "--builtin", "ehfg", "--rep", "faithful", "--depth", "4"],
    ["rep-verify", "--builtin", "ex3v8e", "--rep", "faithful", "--depth", "0"],
    ["rep-verify", "--builtin", "exonevthreeed", "--rep", "standard", "--depth", "2"],
    ["monic", "--builtin", "double-kawamura", "--depth", "13"],
    ["measure", "--builtin", "exonevtwoe", "--measure", "product:sampled:1/4,1/8", "--depth", "1"],
    ["kakutani", "--product-a", "geometric:1/2,1/2", "--product-b", "const:0"],
    ["kakutani", "--markov-a", "x=1/3", "--markov-b", "x=2/5"],
    ["monic", "--builtin", "product-kawamura", "--depth", "6"],
    ["sbfs-check", "--builtin", "ex3v8e"],
    ["orbit", "--builtin", "exonevtwoe", "--x-prefix", "f1.f2.e.e", "--y-prefix", "f1.f2.e.e",
     "--depth", "1"],
    ["export-dot", "--builtin", "ex3v8e"],
    ["spectral", "--job", '{"command": "spectral", "builtin": "ex3v8e", "params": {"depth": 3}}'],
    ["validate", "--job", '{"command": "validate", "graph": {"k": 1, "vertices": ["v"], '
                          '"edges": [], "squares": []}}'],
    ["measure", "--builtin", "exonevtwoe", "--measure", "pf", "--depth", "2", "--format", "json"],
    *BENCHMARK_ARGVS,
    ["measure", "--builtin=ex3v8e", "--measure=markov:x=1/3", "--depth=3", "--format=json"],
    ["rep-verify", "--builtin=ex3v8e", "--tol=1e-8", "--rep=faithful", "--out=a=b"],
    ["orbit", "--builtin", "ex3v8e", "--x-prefix=a0.b0", "--y-prefix", "a0.b0"],
    ["measure", "--builtin", "ex3v8e", "--depth", "2", "--depth", "3"],
    ["rep-verify", "--builtin", "kawamura", "--builtin=ex3v8e", "--tol", "0", "--tol=1e-6"],
    ["rep-verify", "--job", '{"builtin": "ex3v8e", "params": {"depth": 2, "tol": 0}}',
     "--depth", "3"],
]


@pytest.mark.parametrize("argv", GOOD_INPUTS)
def test_flags_read_as_argparse_read_them(argv, tmp_path):
    argv = with_job_file(argv, tmp_path)
    assert typed_job(parse_job(argv)) == typed_job(reference_parse_job(argv))


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_parses_as_under_argparse(argv, tmp_path):
    # a UsageError where argparse or the job checks gave one, else the same job
    argv = with_job_file(argv, tmp_path)
    try:
        want = reference_parse_job(argv)
    except UsageError:
        with pytest.raises(UsageError):
            parse_job(argv)
    else:
        assert typed_job(parse_job(argv)) == typed_job(want)


@pytest.mark.parametrize("argv, message, argparse_took_it", [
    (["rep-verify", "--builtin", "ex3v8e", "--dep", "3"], "unrecognized argument '--dep'", True),
    (["rep-verify", "--builtin", "ex3v8e", "--depth"], "argument --depth: expected one argument",
     False),
    (["rep-verify", "--builtin", "--depth", "3"], "argument --builtin: expected one argument",
     False),
    (["--depth", "3", "rep-verify", "--builtin", "ex3v8e"],
     "expected a command first (validate, spectral, measure, sbfs-check, rep-verify, kakutani, "
     "monic, orbit, export-dot), got '--depth'", True),
    ([], "expected a command first (validate, spectral, measure, sbfs-check, rep-verify, "
         "kakutani, monic, orbit, export-dot), got nothing", False),
    (["rep-verify", "--builtin", "ex3v8e", "--depth", "x"],
     "argument --depth: invalid int value: 'x'", False),
    (["rep-verify", "ex3v8e"], "unrecognized argument 'ex3v8e'", False),
    (["rep-verify", "-b", "ex3v8e"], "unrecognized argument '-b'", False),
], ids=["abbreviation", "missing-value", "flag-as-value", "flag-before-command", "no-command",
        "bad-int", "bare-value", "short-flag"])
def test_flag_reader_refuses(argv, message, argparse_took_it, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"usage error: {message}\n")
    if argparse_took_it:
        assert reference_parse_job(argv).param("depth") == 3
    else:
        with pytest.raises(UsageError):
            reference_parse_job(argv)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["rep-verify", "--builtin", "ex3v8e", "-h"],
                                  ["measure", "--help", "--depth", "x"]])
def test_help_prints_commands_and_flags_and_exits_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.startswith("usage: kgraph-lab COMMAND")
    assert "commands: " + ", ".join(cli.COMMANDS) in out
    for key, options in cli.OPTIONS.items():
        assert f"  --{key.replace('_', '-'):<12} {options.get('help', '')}".rstrip() in out
    assert err == "usage error: --help runs no job\n"


def loop_skeleton(k, edges, squares):
    """One vertex v with a loop per (id, color) in edges; squares as (left, right)."""
    return {"k": k, "vertices": ["v"],
            "edges": [{"id": e, "color": c, "source": "v", "range": "v"} for e, c in edges],
            "squares": [{"left": list(left), "right": list(right)} for left, right in squares]}


# three color-1 loops permuted by swap(1,2) through b and swap(1,3) through c,
# which do not commute
NONCOMMUTING_CUBE = loop_skeleton(
    3, [("a1", 1), ("a2", 1), ("a3", 1), ("b", 2), ("c", 3)],
    [(("b", "c"), ("c", "b"))]
    + [((f"a{i}", "b"), ("b", f"a{j}")) for i, j in zip((1, 2, 3), (2, 1, 3))]
    + [((f"a{i}", "c"), ("c", f"a{j}")) for i, j in zip((1, 2, 3), (3, 2, 1))])


@pytest.mark.parametrize("graph, message", [
    ({"k": 1, "vertices": ["v", "w"], "edges": [{"id": "e", "color": 1, "source": "v",
                                                  "range": "v"}], "squares": []},
     "vertex 'w' receives no edge of color 1"),
    (loop_skeleton(2, [("f", 1), ("e", 2)], []), "is uncovered by the square relation"),
    (NONCOMMUTING_CUBE, "the two square-reordering routes disagree"),
], ids=["source-vertex", "square-not-bijective", "cube-condition"])
def test_skeleton_that_presents_no_kgraph_exits_1(graph, message, tmp_path, capsys):
    # the shape rules pass, so the skeleton is well formed: a failed check, not bad input
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"graph": graph}))
    assert main(["validate", "--job", str(job), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: ") and message in err


@pytest.mark.parametrize(
    "command, builtin, spec, depth, code, missing",
    [
        ("measure", "exonevtwoe", "sampled:1/4", 1, 2, 2),  # the check reads squares (2, 2)
        ("measure", "exonevtwoe", "sampled:1/4,1/8", 1, 0, None),
        ("measure", "lambda2N:N=2", "sampled:1/4,1/4", 1, 2, 0),  # star shapes read gamma_0
        ("rep-verify", "exonevtwoe", "sampled:1/4,1/8", 2, 2, 3),
    ],
)
def test_short_sampled_spec_names_the_missing_term(command, builtin, spec, depth, code, missing,
                                                    tmp_path, capsys):
    argv = [command, "--builtin", builtin, "--measure", f"product:{spec}", "--depth", str(depth)]
    assert main(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if missing is None:
        assert err == ""
    else:
        assert err == (f"usage error: bad product spec {spec!r}: "
                       f"sampled sequence has no term {missing}\n")


def test_unknown_job_file_param_is_named(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text('{"builtin": "ex3v8e", "params": {"seed": 0}}')
    assert main(["rep-verify", "--job", str(job), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: unknown job-file param 'seed'")


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


def test_monic_on_a_nonproduct_2d_system_names_what_monic_accepts(tmp_path, capsys):
    assert main(["monic", "--builtin", "noncstrn", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: monic probe needs 1D or product structure")
    assert "1D interval systems and on products of two" in err


def test_monic_inconclusive_reports_the_widest_atom(tmp_path):
    # the product reports the widest atom of its inconclusive factors
    argv = ["monic", "--builtin", "product-kawamura", "--depth", "6", "--out", str(tmp_path)]
    assert main(argv) == 0
    results = read_report(tmp_path)["results"]
    assert results == {"verdict": "InconclusiveMonic", "max_atom_width": "1/16"}


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


@pytest.mark.parametrize("depth", [0, 8])
def test_orbit_names_the_short_prefix_at_any_depth(depth, tmp_path, capsys):
    # the shift pair (0, 0) is in the grid at every depth: a prefix of degree
    # below (1, 1) has no window at any depth
    argv = ["orbit", "--builtin", "ex3v8e", "--x-prefix", "a0", "--y-prefix", "a0",
            "--depth", str(depth), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("usage error: prefix Path<a0> has degree (1, 0): orbit "
                                       "windows need each prefix of degree >= (1, 1)\n")
    assert not (tmp_path / "report.json").exists()
    assert main([*argv[:4], "a0.b0", *argv[5:]]) == 2  # y is still short
    assert "prefix Path<a0> has degree (1, 0)" in capsys.readouterr().err


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
    args = ["rep-verify", "--builtin", "exonevtwoe", "--measure", "pf", "--depth", "3"]
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
