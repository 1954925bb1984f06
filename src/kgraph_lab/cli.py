"""Batch command-line front end.

One job per process.  A job comes either from flags or from a single
JSON job file; all outputs land in the --out directory as report.json
plus TSV tables and a dot export where applicable.  Exit codes: 0 all
checks passed, 1 some mathematical check failed (the report names the
witness), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog, kgraph, measures, operators, sbfs
from .errors import (
    DegreeCapExceeded,
    GammaOutOfRange,
    KGraphLabError,
    NotComposable,
    SpecInvariantViolated,
    UsageError,
)

COMMANDS = [
    "validate",
    "spectral",
    "measure",
    "sbfs-check",
    "rep-verify",
    "kakutani",
    "monic",
    "orbit",
    "export-dot",
]


@dataclass
class Job:
    command: str
    graph: str = ""  # file path or builtin name (builtin: prefix)
    params: dict = field(default_factory=dict)

    def param(self, key, default=None):
        return self.params.get(key, default)


DEFAULTS = {
    "out": ".",
    "depth": 4,
    "tol": 1e-10,
    "resolution": "1/32",
    "seed": 0,
    "format": "tsv",
    "measure": "pf",
    "rep": "standard",
}
FORMATS = ["tsv", "json"]
REPS = ["standard", "faithful"]


def build_parser():
    p = argparse.ArgumentParser(prog="kgraph-lab", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--job", help="JSON job file; flags override its fields")
    p.add_argument("--graph", help="path to a skeleton JSON file")
    p.add_argument("--builtin", help="builtin name, e.g. ex3v8e or kawamura:a=1/2")
    p.add_argument("--depth", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--resolution", help="rational like 1/32")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--measure", help="pf | product:<spec> | markov:x=p/q")
    p.add_argument("--rep", choices=REPS)
    p.add_argument("--product-a", help="product spec, e.g. geometric:1/2,1/2")
    p.add_argument("--product-b")
    p.add_argument("--markov-a", help="markov spec, e.g. x=1/3")
    p.add_argument("--markov-b")
    p.add_argument("--x-prefix", help="'.'-joined edge ids for orbit checks")
    p.add_argument("--y-prefix")
    return p


def parse_job(argv):
    """Resolve flags plus optional job file into a fully defaulted Job."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
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
        params.update(data.get("params", {}))
        if data.get("graph"):
            params["graph"] = data["graph"]
        if data.get("builtin"):
            params["builtin"] = data["builtin"]
    for key in (
        "graph",
        "builtin",
        "depth",
        "tol",
        "resolution",
        "seed",
        "out",
        "format",
        "measure",
        "rep",
        "product_a",
        "product_b",
        "markov_a",
        "markov_b",
        "x_prefix",
        "y_prefix",
    ):
        val = getattr(ns, key, None)
        if val is not None:
            params[key] = val
    for key, val in DEFAULTS.items():
        params.setdefault(key, val)
    graph_ref = params.get("builtin") or params.get("graph") or ""
    job = Job(ns.command, graph_ref, params)
    _validate_job(job)
    return job


def _validate_job(job):
    needs_graph = job.command in (
        "validate",
        "spectral",
        "measure",
        "sbfs-check",
        "rep-verify",
        "monic",
        "orbit",
        "export-dot",
    )
    if needs_graph and not job.graph:
        raise UsageError(f"{job.command} needs --graph or --builtin")
    # job files bypass argparse: check what its types and choices check
    depth = job.param("depth")
    if not _is_int(depth) or depth < 0:
        raise UsageError(f"depth must be a non-negative integer, got {depth!r}")
    tol = job.param("tol")
    is_number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    if not is_number or not 0 <= tol < math.inf:  # NaN fails too
        raise UsageError(f"tol must be a finite non-negative number, got {tol!r}")
    if not _is_int(job.param("seed")):
        raise UsageError(f"seed must be an integer, got {job.param('seed')!r}")
    for key, choices in (("rep", REPS), ("format", FORMATS)):
        if job.param(key) not in choices:
            raise UsageError(f"{key} must be one of {choices}, got {job.param(key)!r}")
    if job.command == "kakutani":
        have_product = job.param("product_a") and job.param("product_b")
        have_markov = job.param("markov_a") and job.param("markov_b")
        if not (have_product or have_markov):
            raise UsageError("kakutani needs --product-a/-b or --markov-a/-b")
    if job.command == "orbit" and not (job.param("x_prefix") and job.param("y_prefix")):
        raise UsageError("orbit needs --x-prefix and --y-prefix")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _load_graph(job):
    if job.param("builtin"):
        return catalog.builtin_graph(job.param("builtin"))
    ref = job.param("graph")
    try:
        if isinstance(ref, dict):  # inline skeleton in a job file
            return kgraph.graph_from_dict(ref)
        return kgraph.load_graph(ref)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load graph: {exc}") from exc


def _load_measure(job, g):
    spec = job.param("measure", "pf")
    if spec == "pf":
        return measures.pf_measure(g)
    if spec.startswith("product:"):
        text = spec.split(":", 1)[1]
        product = _product_spec(text)
        m = measures.product_measure(g, product)
        try:
            measures.check_product_biases(g, product)
        except GammaOutOfRange as exc:
            raise UsageError(f"bad product spec {text!r}: {exc}") from exc
        return m
    if spec.startswith("markov:"):
        return measures.markov_measure(g, _markov_spec(spec.split(":", 1)[1]))
    raise UsageError(f"unknown measure spec {spec!r}")


def _product_spec(text):
    try:
        return measures.parse_product_spec(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad product spec {text!r}: {exc}") from exc


def _markov_spec(text):
    try:
        if text.startswith("x="):
            return measures.t_x_matrix(Fraction(text[2:]))
        rows = tuple(
            tuple(Fraction(x) for x in row.split(",")) for row in text.split(";")
        )
        return measures.MarkovMeasureSpec(rows).validated()
    except (ValueError, ZeroDivisionError, SpecInvariantViolated) as exc:
        raise UsageError(f"bad markov spec {text!r}: {exc}") from exc


def _resolution(job):
    text = job.param("resolution")
    try:
        res = Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad resolution {text!r}: {exc}") from exc
    if res <= 0:
        raise UsageError(f"resolution must be positive, got {text!r}")
    return res


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if hasattr(obj, "edges"):
        return ".".join(obj.edges) if obj.edges else obj.range
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return repr(obj)


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _emit_report(job, payload, violations):
    report = {
        "command": job.command,
        "params": {
            k: job.params[k]
            for k in sorted(job.params)
            if k not in ("out",)
        },
        "results": payload,
        "violations": violations,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    _write(job.param("out", "."), "report.json", text)
    return report


def run(job):
    """Execute a job; returns the exit code after writing artifacts."""
    handler = {
        "validate": _run_validate,
        "spectral": _run_spectral,
        "measure": _run_measure,
        "sbfs-check": _run_sbfs_check,
        "rep-verify": _run_rep_verify,
        "kakutani": _run_kakutani,
        "monic": _run_monic,
        "orbit": _run_orbit,
        "export-dot": _run_export_dot,
    }[job.command]
    payload, violations = handler(job)
    _emit_report(job, payload, violations)
    return 1 if violations else 0


def _run_validate(job):
    g = _load_graph(job)
    return {
        "name": g.name,
        "k": g.k,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "squares": len(g.squares),
        "strongly_connected": g.is_strongly_connected(),
    }, []


def _run_spectral(job):
    g = _load_graph(job)
    pf = measures.pf_data(g, tol=job.param("tol"))
    payload = {
        "rho": [measures.format_value(r) for r in pf.rho],
        "kappa": {v: measures.format_value(pf.kappa[v]) for v in g.vertices},
        "exact": pf.exact,
        "residual": pf.residual,
    }
    if job.param("format") == "tsv":
        rows = ["vertex\tkappa"]
        rows += [f"{v}\t{measures.format_value(pf.kappa[v])}" for v in g.vertices]
        _write(job.param("out", "."), "spectral.tsv", "\n".join(rows) + "\n")
    return payload, []


def _run_measure(job):
    g = _load_graph(job)
    m = _load_measure(job, g)
    depth = job.param("depth")
    rep = measures.check_consistency(m, depth, tol=job.param("tol"))
    table = measures.measure_table(m, depth)
    payload = {
        "measure": m.tag,
        "exact": m.exact,
        "consistency_checked": rep.checked,
        "worst_residual": rep.worst_residual,
    }
    if job.param("format") == "json":
        payload["table"] = [line.split("\t") for line in table.strip().split("\n")[1:]]
    else:
        _write(job.param("out", "."), "measure.tsv", table)
    violations = []
    if not rep.ok:
        violations.append(
            {"check": "consistency", "witness": rep.worst_path, "residual": rep.worst_residual}
        )
    return payload, violations


def _run_sbfs_check(job):
    name = job.param("builtin")
    if not name:
        raise UsageError("sbfs-check runs on builtin systems (--builtin)")
    sys_ = catalog.builtin_sbfs(name)
    report = sbfs.validate_sbfs(sys_, tol=job.param("tol"))
    violations = [
        {"check": c.name, "witness": c.witnesses[:4], "residual": c.worst_residual}
        for c in report.conditions
        if not c.ok
    ]
    payload = report.to_dict()
    if report.ok:
        proj = sbfs.canonical_projective(sys_)
        payload["cocycle_residual"] = proj.cocycle_report.worst_residual
        g = sys_.graph
        degrees = [kgraph.deg_unit(g.k, c) for c in range(1, g.k + 1)]
        degrees.append((1,) * g.k)
        kirchhoff = {}
        for n in degrees:
            rep_k = sbfs.kirchhoff_check(proj, n, tol=1e-9)
            kirchhoff[str(n)] = rep_k.worst_residual
            if not rep_k.ok:
                violations.append(
                    {"check": "kirchhoff", "witness": str(n), "residual": rep_k.worst_residual}
                )
        payload["kirchhoff_residuals"] = kirchhoff
    return payload, violations


def _run_rep_verify(job):
    g = _load_graph(job)
    depth = job.param("depth")
    if job.param("rep") == "faithful":
        rep = operators.faithful_rep(g, depth=depth)
        gauge = operators.gauge_covariance(rep)
        extra = {
            "gauge_structural": gauge.structural_ok,
            "gauge_residual": gauge.max_residual,
        }
    else:
        rep = operators.standard_rep(g, _load_measure(job, g), depth)
        extra = {}
    report = operators.verify_ck(rep, max_level=min(2, depth - 1), tol=job.param("tol"))
    payload = {"rep": job.param("rep"), **report.to_dict(), **extra}
    violations = []
    if not report.ok:
        worst = report.worst()
        violations.append(
            {
                "check": worst.relation,
                "witness": worst.witness,
                "residual": worst.residual,
                "blocks_checked": worst.blocks_checked,
            }
        )
    return payload, violations


def _run_kakutani(job):
    if job.param("product_a"):
        a = _product_spec(job.param("product_a"))
        b = _product_spec(job.param("product_b"))
    else:
        a = _markov_spec(job.param("markov_a"))
        b = _markov_spec(job.param("markov_b"))
    try:
        verdict = measures.kakutani_classify(a, b)
    except GammaOutOfRange as exc:
        raise UsageError(f"bad product spec: {exc}") from exc
    return {"verdict": type(verdict).__name__, "detail": repr(verdict)}, []


def _run_monic(job):
    name = job.param("builtin")
    if not name:
        raise UsageError("monic runs on builtin systems (--builtin)")
    resolution = _resolution(job)
    sys_ = catalog.builtin_sbfs(name)
    res = sbfs.monic_probe(sys_, depth=job.param("depth"), resolution=resolution)
    payload = {"verdict": type(res).__name__}
    violations = []
    if isinstance(res, sbfs.NotMonic):
        payload["witness"] = [
            measures.format_value(res.witness[0]),
            measures.format_value(res.witness[1]),
        ]
        violations.append({"check": "monic", "witness": payload["witness"]})
    elif isinstance(res, sbfs.Monic):
        payload["resolution"] = measures.format_value(res.resolution)
    return payload, violations


def _run_orbit(job):
    g = _load_graph(job)

    def parse_prefix(text):
        try:
            return g.path(text.split("."))
        except (KeyError, NotComposable) as exc:
            raise UsageError(f"prefix {text!r} is not a graph path: {exc}") from exc

    x = parse_prefix(job.param("x_prefix"))
    y = parse_prefix(job.param("y_prefix"))
    same = operators.orbit_equal(g, x, y, job.param("depth"))
    return {"orbit_equal": same}, []


def _run_export_dot(job):
    g = _load_graph(job)
    path = _write(job.param("out", "."), "skeleton.dot", kgraph.to_dot(g))
    return {"dot": os.path.basename(path)}, []


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    try:
        job = parse_job(argv)
        return run(job)
    except (UsageError, DegreeCapExceeded) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KGraphLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
