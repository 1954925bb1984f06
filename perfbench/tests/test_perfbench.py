"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kgraph_lab import cli, intervals, kgraph, operators, sbfs  # noqa: E402


def test_self_time_on_hand_built_tree():
    # 0: root [0, 100]; 1, 2: its children [10, 30] and [20, 50] overlap;
    # 3: child of 1 [12, 18]; 4: child of 0 sticking out of it [90, 120];
    # 5: a second root [200, 210].  Spans are listed out of start order.
    spans = [  # (id, parent, start, end)
        (4, 0, 90, 120),
        (0, -1, 0, 100),
        (2, 0, 20, 50),
        (1, 0, 10, 30),
        (3, 1, 12, 18),
        (5, -1, 200, 210),
    ]
    parent = array("l", [0] * 6)
    start = array("q", [0] * 6)
    end = array("q", [0] * 6)
    for sid, p, lo, hi in spans:
        parent[sid], start[sid], end[sid] = p, lo, hi
    own = tracing.self_times(parent, start, end)
    # root: 100 minus the union [10, 50] and [90, 100] of its children
    assert list(own) == [50, 14, 30, 6, 30, 10]


def _run_jobs(tmp_path, tag, tracer=None):
    jobs = [
        ("rep-verify", "--builtin", "ex3v8e", "--rep", "faithful", "--depth", "2"),
        ("rep-verify", "--builtin", "lambda2N:N=1", "--measure", "pf", "--depth", "2"),
        ("monic", "--builtin", "kawamura:a=1/2", "--depth", "4"),
        ("monic", "--builtin", "exonevthreeed", "--depth", "6"),
        ("measure", "--builtin", "exonevtwoe", "--measure", "markov:x=1/3", "--depth", "3"),
    ]
    reports = []
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        out = tmp_path / tag / str(i)
        cli.main([*argv, "--out", str(out)])
        reports.append((out / "report.json").read_bytes())
    return reports


def test_traced_reports_are_byte_identical_and_originals_restored(tmp_path):
    originals = {
        "factorize": kgraph.KGraph.factorize,
        "atoms": intervals.partition_atoms,
        "op_forward": operators.op_forward,
    }
    plain = _run_jobs(tmp_path, "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # patched at every name callers use, including names imported by value
        assert sbfs.partition_atoms is not originals["atoms"]
        assert intervals.partition_atoms is not originals["atoms"]
        assert kgraph.KGraph.factorize is not originals["factorize"]
        spanned = _run_jobs(tmp_path, "traced", tracer)
    finally:
        tracer.uninstall()
    assert spanned == plain
    assert kgraph.KGraph.factorize is originals["factorize"]
    assert intervals.partition_atoms is originals["atoms"]
    assert sbfs.partition_atoms is originals["atoms"]
    assert operators.op_forward is originals["op_forward"]

    stats = tracer.aggregate()
    for name in ["kgraph.lambda_min", "operators.op_forward", "sbfs.monic_probe",
                 "intervals.partition_atoms", "measures.CylinderMeasure.value"]:
        assert stats[name]["calls"] > 0, name
    assert set(tracer.job) == set(range(5))

    spans_file = tmp_path / "spans.bin"
    tracer.write(spans_file)
    names, cols = tracing.read_spans(spans_file)
    assert names == tracer.names
    assert cols["end"] == tracer.end and cols["parent"] == tracer.parent


def test_benchmark_json_matches_the_code():
    names = [name for _, _, name in tracing.SPANS]
    stats = tracing.aggregate(names, array("H"), array("l"), array("q"), array("q"),
                              {name: array("q") for name in tracing.SIZED},
                              {name: set() for name in tracing.DISTINCT})
    metrics = tracing.layer_metrics(stats, {}, 1.0)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    # empty trace: every count, time and ratio is 0, not missing
    assert all(value == 0 for name, (value, _) in metrics.items()
               if name != "trace.overhead_ratio")


def test_ck_blocks_read_either_field_and_zero_blocks_fail():
    job = workloads.jobs_for("ck-verify", 0)[1]
    results = {"ok": True, "checks": [
        {"relation": "CK1", "level": 3, "residual": 0.0},
        {"relation": "CK2", "blocks_checked": 0, "residual": 0.0},
    ]}
    assert gate.ck_blocks(results) == {"CK1": 3, "CK2": 0}
    obs = {"exit": 0, "ok": True, "blocks": gate.ck_blocks(results),
           "residuals": {"CK1": 0.0, "CK2": 0.0}}
    assert gate.problems(job, obs) == ["CK2 checked 0 blocks"]


def test_gate_residual_rules():
    exact, inexact = workloads.jobs_for("measure-exact", 0)[1:]
    obs = {"exit": 0, "checked": 5, "exact": True, "residuals": {"consistency": 1e-18}}
    assert gate.problems(exact, obs) == ["consistency residual 1e-18 is not exactly 0"]
    obs = {"exit": 0, "checked": 5, "exact": False, "residuals": {"consistency": 1e-12}}
    assert gate.problems(inexact, obs) == []
    obs["residuals"]["consistency"] = 1e-9
    assert gate.problems(inexact, obs) == ["consistency residual 1e-09 exceeds tol 1e-10"]


def test_seed_zero_is_the_reference_matrix_and_seeds_repeat():
    reference = gate.load_reference()
    for name in workloads.WORKLOADS:
        assert {job.label for job in workloads.jobs_for(name, 0)} <= set(reference)
        assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)


def test_normalized_times_follow_the_job_not_the_host():
    # the host runs at speeds 1, 2/3 and 1/2: job and calibration slow together
    def samples(job_s):
        return [{"wall_s": job_s * f, "cal_wall_s": 0.25 * f} for f in (1.0, 1.5, 2.0)]

    assert run.normalized([samples(1.0), samples(0.5)], "wall_s", "cal_wall_s", 0.5) == 3.0
    # halving one job's time halves its share, whatever the host did
    assert run.normalized([samples(0.5), samples(0.5)], "wall_s", "cal_wall_s", 0.5) == 2.0
