"""kgraph-lab benchmark: CLI jobs end to end, traced layers in process.

Run from the repository root:

    python3 perfbench/run.py --workload ck-verify --seed 0 --seconds 35 --trace 0

``--trace 0`` runs passes over the workload's jobs, one ``kgraph-lab``
subprocess at a time (closed loop, one client), until the next pass would
overrun ``--seconds``.  Each job is preceded by a set-up probe and
followed by calibrate.py, each in a fresh interpreter.  It reports
wall_s, cpu_s and setup_s as host-normalized seconds (see end_to_end)
and peak_rss_mb (the median over passes of the largest job RSS).  The
raw times are printed too, with the sample count.

``--trace 1`` runs three rounds of an untraced and a traced pass in
process, whatever ``--seconds`` says, so that counts repeat exactly from
run to run.  It reports per-layer metrics from the first traced pass's
spans.  Traced and untraced passes must write byte-identical report.json
files.

Every job's output goes through the correctness gate (gate.py).  The last
line of standard output is the result JSON; the lines before it say what
ran and on what.  Run artefacts go to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
MIN_PASSES = 3
# calibrate.py's wall time and import time on a quiet 2-vCPU host: the
# units of the end-to-end timings (see end_to_end)
CAL_REF_S = 0.5
CAL_IMPORT_REF_S = 0.15
TRACE_ROUNDS = 3

import gate  # noqa: E402
import workloads  # noqa: E402


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def environment():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "commit": commit()}


def commit():
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- end to end ---------------------------------------------------------------


def timed(cmd, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run cmd to completion; returns (exit code, wall seconds, rusage of the child)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def calibrate(env):
    """calibrate.py's wall seconds, CPU seconds and import seconds, in a fresh interpreter."""
    with tempfile.TemporaryFile() as out:
        code, wall, usage = timed([sys.executable, os.path.join(HERE, "calibrate.py")], env,
                                  stdout=out)
        out.seek(0)
        text = out.read().decode()
    if code != 0:
        raise SystemExit(f"calibrate.py exited with {code}")
    return wall, usage.ru_utime + usage.ru_stime, json.loads(text)["import_s"]


def setup_time(job, env):
    """Seconds to import kgraph_lab and build the job's inputs in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    proc = subprocess.run([sys.executable, probe, json.dumps(job.argv)], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed for {job.label}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_pass(jobs, env, outroot, cal):
    """One pass over the jobs: a set-up probe, the job, then calibrate.py, for each.

    cal is the (wall, CPU, import) calibration that ran just before the pass.  A
    job and its set-up probe are timed against the mean of the calibrations
    on either side of them.  Returns one sample per job, the (exit code,
    outdir) of each job and the pass's last calibration.
    """
    shutil.rmtree(outroot, ignore_errors=True)
    samples, results = [], []
    for i, job in enumerate(jobs):
        outdir = os.path.join(outroot, str(i))
        os.makedirs(outdir)
        setup = setup_time(job, env)
        with open(os.path.join(outdir, "stderr.txt"), "wb") as err:
            code, wall, usage = timed([sys.executable, "-m", "kgraph_lab.cli", *job.argv,
                                       "--out", outdir], env, stderr=err)
        after = calibrate(env)
        samples.append({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                        "rss_mb": usage.ru_maxrss / 1024, "setup_s": setup,
                        "cal_wall_s": (cal[0] + after[0]) / 2,
                        "cal_cpu_s": (cal[1] + after[1]) / 2,
                        "cal_import_s": (cal[2] + after[2]) / 2})
        results.append((code, outdir))
        cal = after
    return samples, results, cal


def check_outputs(jobs, results, reference, log):
    """Gate every job's output; returns the number that failed."""
    failed = 0
    for job, (code, outdir) in zip(jobs, results):
        bad = gate.problems(job, gate.summarize(job, code, outdir), reference.get(job.label))
        if bad:
            failed += 1
            log.append(f"FAIL {job.label}: {'; '.join(bad)}")
    return failed


def normalized(per_job, key, cal_key, ref):
    """ref times the sum over jobs of the median of key / cal_key."""
    return ref * sum(statistics.median(s[key] / s[cal_key] for s in samples)
                     for samples in per_job)


def end_to_end(jobs, seconds, log):
    """Passes until the next would overrun, at least MIN_PASSES of them.

    The host is shared: over minutes its speed changes by a third and
    more, and a job's fastest or median time in a run changes with it.
    So each job runs between two runs of calibrate.py, a fixed piece of
    pure-Python work that no change to the program changes, and what
    counts is the ratio of the job's time to their mean.  wall_s and
    cpu_s are the median of those ratios per job, summed over the jobs and
    scaled by CAL_REF_S: seconds on a host on which calibrate.py takes
    CAL_REF_S.  setup_s does the same with calibrate.py's import time and
    CAL_IMPORT_REF_S, because set-up is mostly imports.  On a 2-vCPU host
    whose raw job times spread by 20-34 % between 35-s windows, wall_s
    spread by 3-5 %.  A program change that halves a job's time halves
    its ratio.  peak_rss_mb is the median over passes of the largest job
    RSS.
    """
    env = child_env()
    reference = gate.load_reference()
    per_job = [[] for _ in jobs]
    attempted = failed = 0
    t0 = time.perf_counter()
    slowest = 0.0
    cal = calibrate(env)
    while True:
        t = time.perf_counter()
        samples, results, cal = run_pass(jobs, env, os.path.join(RUNS, "pass"), cal)
        slowest = max(slowest, time.perf_counter() - t)
        attempted += len(jobs)
        failed += check_outputs(jobs, results, reference, log)
        for runs, sample in zip(per_job, samples):
            runs.append(sample)
        if len(per_job[0]) >= MIN_PASSES and time.perf_counter() - t0 + slowest > seconds:
            break
    peak = [max(runs[i]["rss_mb"] for runs in per_job) for i in range(len(per_job[0]))]
    metrics = {
        "wall_s": (normalized(per_job, "wall_s", "cal_wall_s", CAL_REF_S), "s"),
        "cpu_s": (normalized(per_job, "cpu_s", "cal_cpu_s", CAL_REF_S), "s"),
        "setup_s": (normalized(per_job, "setup_s", "cal_import_s", CAL_IMPORT_REF_S), "s"),
        "peak_rss_mb": (statistics.median(peak), "MB"),
    }
    return metrics, {"jobs": per_job, "peak_rss_mb": peak}, attempted, failed


# -- traced -------------------------------------------------------------------


def in_process_pass(cli, jobs, outroot, tracer=None):
    shutil.rmtree(outroot, ignore_errors=True)
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        outdir = os.path.join(outroot, str(i))
        results.append((cli.main([*job.argv, "--out", outdir]), outdir))
    return time.perf_counter() - t0, results


def traced(jobs, tag, log):
    """TRACE_ROUNDS rounds of an untraced then a traced in-process pass.

    Per-layer metrics come from the first traced pass, so counts repeat
    exactly between runs; trace.overhead_ratio divides the fastest traced
    pass by the fastest untraced one.
    """
    import tracing

    from kgraph_lab import cli

    reference = gate.load_reference()
    times = {"untraced": [], "traced": []}
    first = first_blocks = None
    failed = 0
    for _ in range(TRACE_ROUNDS):
        plain_s, plain = in_process_pass(cli, jobs, os.path.join(RUNS, "untraced"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s, spanned = in_process_pass(cli, jobs, os.path.join(RUNS, "traced"), tracer)
        finally:
            tracer.uninstall()
        times["untraced"].append(plain_s)
        times["traced"].append(traced_s)
        failed += check_outputs(jobs, plain, reference, log)
        failed += check_outputs(jobs, spanned, reference, log)
        blocks = {}
        for job, (_, a), (_, b) in zip(jobs, plain, spanned):
            try:
                with open(os.path.join(a, "report.json"), "rb") as fa, \
                        open(os.path.join(b, "report.json"), "rb") as fb:
                    report, traced_report = fa.read(), fb.read()
            except OSError:
                continue  # the gate has already failed this job
            if report != traced_report:
                failed += 1
                log.append(f"FAIL {job.label}: traced report.json differs from untraced")
            for rel, n in gate.ck_blocks(json.loads(traced_report)["results"]).items():
                blocks[rel] = blocks.get(rel, 0) + n
        if first is None:
            first, first_blocks = tracer, blocks
    spans_path = os.path.join(RUNS, f"spans-{tag}.bin")
    first.write(spans_path)
    log.append(f"spans: {len(first.end)} written to {os.path.relpath(spans_path, ROOT)}")
    for kind, values in times.items():
        log.append(f"in-process pass {kind}: " + " ".join(f"{v:.3f}" for v in values) + " s")
    overhead = min(times["traced"]) / min(times["untraced"])
    metrics = tracing.layer_metrics(first.aggregate(), first_blocks, overhead)
    return metrics, 2 * TRACE_ROUNDS * len(jobs), failed


# -- main ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # exit through the handlers that stop a running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "kgraph_lab", "__init__.py")):
        print(f"kgraph_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    # the build: byte-compile once, as an installed package would be, so no
    # job pays for compiling whatever PYTHONDONTWRITEBYTECODE says
    if not compileall.compile_dir(os.path.join(SRC, "kgraph_lab"), quiet=1):
        print("kgraph_lab does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = workloads.WORKLOADS[args.workload]
    jobs = workloads.jobs_for(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = []
    print(f"workload {work.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print(f"why: {work.why}")
    for job in jobs:
        print(f"job: kgraph-lab {job.label}")
    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics, attempted, failed = traced(jobs, tag, log)
        samples = {}
    else:
        metrics, samples, attempted, failed = end_to_end(jobs, args.seconds, log)
    for line in log:
        print(line)
    for job, runs in zip(jobs, samples.get("jobs", [])):
        for key in ("wall_s", "cpu_s", "setup_s", "cal_wall_s", "cal_import_s"):
            raw = [t[key] for t in runs]
            print(f"raw {key} of {job.label}: min {min(raw):.4f} median "
                  f"{statistics.median(raw):.4f} max {max(raw):.4f}")
    n = f"  n={len(samples['peak_rss_mb'])} passes" if samples else ""
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:.6g} {unit}{n}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(RUNS, f"{tag}.json"), "w") as fh:
        json.dump({**result, "workload": work.name, "why": work.why, "seed": args.seed,
                   "jobs": [job.label for job in jobs], "env": env, "samples": samples,
                   "log": log}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
