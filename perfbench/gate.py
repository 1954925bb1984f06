"""Correctness gate: every job's output is checked before its time counts.

For any seed the gate checks invariants: the expected exit code and
verdict, ``ok``, a nonzero block count for every CK relation (``verify_ck``
itself reports ``ok`` for a relation that checked nothing), exact
residuals equal to 0 and float residuals within the job's tolerance.
For a job of the seed-0 matrix, whatever seed drew it, the gate also
compares exit code, verdict, blocks per CK relation, consistency counts,
the NotMonic witness and the SHA-256 of ``measure.tsv`` for exact
measures with the values stored in ``reference.json``.

Run ``python3 perfbench/gate.py`` to rewrite ``reference.json`` from the
current program (seed 0).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
COMPARED = ("exit", "verdict", "ok", "blocks", "checked", "witness", "sha256")


def ck_blocks(results):
    """Blocks checked per CK relation, from ``blocks_checked`` or ``level``."""
    out = {}
    for check in results.get("checks", []):
        blocks = check.get("blocks_checked", check.get("level"))
        out[check["relation"]] = blocks
    return out


def summarize(job, exit_code, outdir):
    """The facts the gate checks, read from one job's output directory."""
    obs = {"exit": exit_code}
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            results = json.load(fh)["results"]
    except (OSError, ValueError, KeyError) as exc:
        obs["error"] = f"no readable report.json: {exc}"
        return obs
    if job.kind == "ck":
        obs["ok"] = results.get("ok")
        obs["blocks"] = ck_blocks(results)
        obs["residuals"] = {c["relation"]: c["residual"] for c in results["checks"]}
        if "gauge_residual" in results:
            obs["residuals"]["gauge"] = results["gauge_residual"]
            obs["gauge_structural"] = results.get("gauge_structural")
    elif job.kind == "monic":
        obs["verdict"] = results.get("verdict")
        if "witness" in results:
            obs["witness"] = results["witness"]
    elif job.kind == "measure":
        obs["checked"] = results.get("consistency_checked")
        obs["exact"] = results.get("exact")
        obs["residuals"] = {"consistency": results.get("worst_residual")}
        if job.exact:
            try:
                with open(os.path.join(outdir, "measure.tsv"), "rb") as fh:
                    obs["sha256"] = hashlib.sha256(fh.read()).hexdigest()
            except OSError as exc:
                obs["error"] = f"no readable measure.tsv: {exc}"
    return obs


def problems(job, obs, reference=None):
    """Reasons the job's output is wrong; empty when it passes."""
    out = []
    if "error" in obs:
        return [obs["error"]]
    if obs["exit"] != job.exit_code:
        out.append(f"exit {obs['exit']}, expected {job.exit_code}")
    if job.kind == "ck":
        if obs.get("ok") is not True:
            out.append("ok is not true")
        if not obs["blocks"]:
            out.append("no CK relation reported")
        for rel, blocks in obs["blocks"].items():
            if not isinstance(blocks, int) or blocks <= 0:
                out.append(f"{rel} checked {blocks} blocks")
        if obs.get("gauge_structural") is False:
            out.append("gauge covariance not structural")
    if job.kind == "monic" and obs.get("verdict") != job.verdict:
        out.append(f"verdict {obs.get('verdict')}, expected {job.verdict}")
    if job.kind == "measure":
        if not isinstance(obs.get("checked"), int) or obs["checked"] <= 0:
            out.append(f"consistency checked {obs.get('checked')} paths")
        if obs.get("exact") is not job.exact:
            out.append(f"exact is {obs.get('exact')}, expected {job.exact}")
    for name, res in obs.get("residuals", {}).items():
        if not isinstance(res, (int, float)):
            out.append(f"{name} residual {res!r}")
        elif job.exact and res != 0:
            out.append(f"{name} residual {res!r} is not exactly 0")
        elif not job.exact and not abs(res) <= job.tol:
            out.append(f"{name} residual {res!r} exceeds tol {job.tol}")
    if reference is not None:
        for key in COMPARED:
            if reference.get(key) != obs.get(key):
                out.append(f"{key} {obs.get(key)!r}, reference {reference.get(key)!r}")
    return out


def load_reference():
    """Reference summaries by job label (the label fixes the job's input)."""
    with open(REFERENCE) as fh:
        return json.load(fh)["jobs"]


def _write_reference():
    import subprocess

    import workloads

    root = os.path.dirname(os.path.dirname(REFERENCE))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    seed, jobs = 0, {}
    for name in workloads.WORKLOADS:
        for i, job in enumerate(workloads.jobs_for(name, seed)):
            outdir = os.path.join(root, "perfbench", "_runs", "reference", name, str(i))
            cmd = [sys.executable, "-m", "kgraph_lab.cli", *job.argv, "--out", outdir]
            code = subprocess.run(cmd, env=env, cwd=root).returncode
            obs = summarize(job, code, outdir)
            bad = problems(job, obs)
            if bad:
                sys.exit(f"{job.label}: {'; '.join(bad)}")
            jobs[job.label] = {k: obs[k] for k in COMPARED if k in obs}
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": seed, "jobs": jobs}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _write_reference()
