"""Batch command-line front end.

One job per process.  A job comes either from flags or from a single
JSON job file; all outputs land in the --out directory as report.json
plus TSV tables and a dot export where applicable.  Exit codes: 0 all
checks passed, 1 some mathematical check failed (the report names the
witness), 2 usage error.
"""

import json
import math
import os
import sys
from fractions import Fraction

from . import catalog, kgraph, measures, operators, sbfs
from .errors import (
    DanglingEndpoint,
    DegreeCapExceeded,
    DepthTooSmall,
    DimensionUnsupported,
    GammaOutOfRange,
    InvalidSquare,
    KGraphLabError,
    NotComposable,
    SpecInvariantViolated,
    UnsupportedGraphShape,
    UsageError,
)
from .records import Record


class Job(Record):
    command: str
    params: dict

    def param(self, key, default=None):
        return self.params.get(key, default)


DEFAULTS = {
    "out": ".",
    "depth": 4,
    "tol": 1e-10,
    "resolution": "1/32",
    "format": "tsv",
    "measure": "pf",
    "rep": "standard",
}
FORMATS = ["tsv", "json"]
REPS = ["standard", "faithful"]
# the options besides --job; each key is a job-file params key and, with _ as -,
# the flag name
FLAGS = {
    "graph": {"help": "path to a skeleton JSON file"},
    "builtin": {"help": "builtin name, e.g. ex3v8e or kawamura:a=1/2"},
    "depth": {"type": int, "help": "truncation depth (default: 4)"},
    "tol": {"type": float, "help": "residual tolerance (default: 1e-10)"},
    "resolution": {"help": "rational like 1/32"},
    "out": {"help": "output directory (default: current)"},
    "format": {"help": " | ".join(FORMATS)},
    "measure": {"help": "pf | product:<spec> | markov:x=p/q"},
    "rep": {"help": " | ".join(REPS)},
    "product_a": {"help": "product spec, e.g. geometric:1/2,1/2"},
    "product_b": {},
    "markov_a": {"help": "markov spec, e.g. x=1/3"},
    "markov_b": {},
    "x_prefix": {"help": "'.'-joined edge ids for orbit checks"},
    "y_prefix": {},
}
# every flag of the command line: --job, then FLAGS
OPTIONS = {"job": {"help": "JSON job file; flags override its fields"}, **FLAGS}


def _print_help():
    lines = ["usage: kgraph-lab COMMAND [--FLAG VALUE | --FLAG=VALUE ...]", "",
             __doc__.strip(), "", "commands: " + ", ".join(COMMANDS), "", "flags:"]
    for key, options in OPTIONS.items():
        lines.append(f"  --{key.replace('_', '-'):<12} {options.get('help', '')}".rstrip())
    print("\n".join(lines))


def _read_argv(argv):
    """(command, {key: value}) from `COMMAND --flag VALUE ...`; a flag may
    also read --flag=VALUE, the last of a repeated flag wins, and an
    OPTIONS entry's type converts its value."""
    if "-h" in argv or "--help" in argv:
        _print_help()
        raise UsageError("--help runs no job")
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "nothing"
        raise UsageError(f"expected a command first ({', '.join(COMMANDS)}), got {got}")
    values = {}
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        key = name[2:].replace("-", "_")
        if not name.startswith("--") or key not in OPTIONS:
            raise UsageError(f"unrecognized argument {arg!r}")
        if not eq:
            value = next(rest, None)
        if value is None or value.startswith("--"):
            raise UsageError(f"argument {name}: expected one argument")
        convert = OPTIONS[key].get("type", str)
        try:
            values[key] = convert(value)
        except ValueError as exc:
            raise UsageError(
                f"argument {name}: invalid {convert.__name__} value: {value!r}") from exc
    return argv[0], values


def parse_job(argv):
    """Resolve flags plus optional job file into a fully defaulted Job."""
    command, flags = _read_argv(argv)
    params = {}
    path = flags.pop("job", None)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read job file: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("job file must hold a JSON object")
        if not isinstance(data.get("params", {}), dict):
            raise UsageError("job file params must be a JSON object")
        if "command" in data and data["command"] != command:
            raise UsageError("job file command disagrees with the CLI command")
        for key in data.get("params", {}):
            if key not in FLAGS:
                raise UsageError(f"unknown job-file param {key!r}")
        params.update(data.get("params", {}))
        if data.get("graph"):
            params["graph"] = data["graph"]
        if data.get("builtin"):
            params["builtin"] = data["builtin"]
    params.update(flags)
    for key, val in DEFAULTS.items():
        params.setdefault(key, val)
    job = Job(command, params)
    _validate_job(job)
    return job


def _validate_job(job):
    """The checks of a job's typed values, from flags and job files alike."""
    if job.command != "kakutani" and not (job.param("builtin") or job.param("graph")):
        raise UsageError(f"{job.command} needs --graph or --builtin")
    depth = job.param("depth")
    if not _is_int(depth) or depth < 0:
        raise UsageError(f"depth must be a non-negative integer, got {depth!r}")
    tol = job.param("tol")
    is_number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    if not is_number or not 0 <= tol < math.inf:  # NaN fails too
        raise UsageError(f"tol must be a finite non-negative number, got {tol!r}")
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
    # JSONDecodeError is a ValueError; a skeleton that fails a shape rule is bad input
    try:
        if isinstance(ref, dict):  # inline skeleton in a job file
            return kgraph.graph_from_dict(ref)
        return kgraph.load_graph(ref)
    except (OSError, KeyError, TypeError, ValueError, DanglingEndpoint, InvalidSquare) as exc:
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
            # measure and the standard rep read the squares one level past the depth
            measures.check_product_terms(g, product, job.param("depth") + 1)
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
    return repr(obj)


def _open(outdir, name):
    """The file name in outdir, opened for writing; outdir is made if missing."""
    os.makedirs(outdir, exist_ok=True)
    return open(os.path.join(outdir, name), "w")


def _write(outdir, name, text):
    with _open(outdir, name) as fh:
        fh.write(text)
    return fh.name


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
    payload, violations = COMMANDS[job.command](job)
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
    payload = {
        "measure": m.tag,
        "exact": m.exact,
        "consistency_checked": rep.checked,
        "worst_residual": rep.worst_residual,
    }
    if job.param("format") == "json":  # each degree's rows split as they come
        rows = []
        measures.measure_table(m, depth, lambda text: rows.extend(
            line.split("\t") for line in text.split("\n")[:-1]))
        payload["table"] = rows[1:]
    else:  # written degree by degree, never held whole
        with _open(job.param("out", "."), "measure.tsv") as fh:
            measures.measure_table(m, depth, fh.write)
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
    try:
        res = sbfs.monic_probe(sys_, depth=job.param("depth"), resolution=resolution)
    except DimensionUnsupported as exc:
        raise UsageError(
            f"{exc}: monic runs on 1D interval systems and on products of two "
            f"(such as product-kawamura); {name} is neither") from exc
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
    else:
        payload["max_atom_width"] = measures.format_value(res.max_atom_width)
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
    try:
        same = operators.orbit_equal(g, x, y, job.param("depth"))
    except DepthTooSmall as exc:  # prefixes too short to compare: no witness to report
        raise UsageError(str(exc)) from exc
    return {"orbit_equal": same}, []


def _run_export_dot(job):
    g = _load_graph(job)
    path = _write(job.param("out", "."), "skeleton.dot", kgraph.to_dot(g))
    return {"dot": os.path.basename(path)}, []


# every command but kakutani reads a graph (--graph or --builtin)
COMMANDS = {
    "validate": _run_validate,
    "spectral": _run_spectral,
    "measure": _run_measure,
    "sbfs-check": _run_sbfs_check,
    "rep-verify": _run_rep_verify,
    "kakutani": _run_kakutani,
    "monic": _run_monic,
    "orbit": _run_orbit,
    "export-dot": _run_export_dot,
}


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    try:
        job = parse_job(argv)
        return run(job)
    except (UsageError, DegreeCapExceeded, UnsupportedGraphShape) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KGraphLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
