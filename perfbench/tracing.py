"""Span tracing of kgraph_lab from outside the program.

``Tracer.install`` wraps each function in ``SPANS`` at every name through
which callers look it up: the defining module's attribute, every other
kgraph_lab module that imported it by name (``sbfs.partition_atoms`` as
well as ``intervals.partition_atoms``), and every class attribute bound
to it.  ``Tracer.uninstall`` puts every original back.

A wrapped call records one span: name, start, end, parent span id and
job id.  Spans are kept in memory in typed arrays (a pass of a workload
makes a few hundred thousand) and written out when the run ends.  A
span's self time is its duration minus the part of it that its child
spans cover.

Layers are the package modules.  A module's self time is the self time
of its traced functions, so work a traced function does in untraced
helpers of another module counts for the caller's module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

# (module, attribute path, span name).  Span names are the metric prefixes.
SPANS = [
    ("kgraph", "KGraph.enumerate_paths", "kgraph.enumerate_paths"),
    ("kgraph", "KGraph.compose", "kgraph.compose"),
    ("kgraph", "KGraph.factorize", "kgraph.factorize"),
    ("kgraph", "KGraph.path", "kgraph.path"),
    ("kgraph", "KGraph.lambda_min", "kgraph.lambda_min"),
    ("measures", "CylinderMeasure.value", "measures.CylinderMeasure.value"),
    ("measures", "check_consistency", "measures.check_consistency"),
    ("measures", "measure_table", "measures.measure_table"),
    ("measures", "pf_data", "measures.pf_data"),
    ("measures", "pf_measure", "measures.pf_measure"),
    ("measures", "product_measure", "measures.product_measure"),
    ("measures", "markov_measure", "measures.markov_measure"),
    ("operators", "op_forward", "operators.op_forward"),
    ("operators", "op_adjoint", "operators.op_adjoint"),
    ("operators", "StandardRep.apply_path", "operators.StandardRep.apply_path"),
    ("operators", "StandardRep.apply_adjoint", "operators.StandardRep.apply_adjoint"),
    ("operators", "FaithfulRep.apply_path", "operators.FaithfulRep.apply_path"),
    ("operators", "FaithfulRep.apply_adjoint", "operators.FaithfulRep.apply_adjoint"),
    ("operators", "verify_ck", "operators.verify_ck"),
    ("operators", "standard_rep", "operators.standard_rep"),
    ("operators", "faithful_rep", "operators.faithful_rep"),
    ("operators", "gauge_covariance", "operators.gauge_covariance"),
    ("intervals", "IntervalUnion.intersect", "intervals.IntervalUnion.intersect"),
    ("intervals", "IntervalUnion.subtract", "intervals.IntervalUnion.subtract"),
    ("intervals", "partition_atoms", "intervals.partition_atoms"),
    ("sbfs", "monic_probe", "sbfs.monic_probe"),
    ("sbfs", "IntervalSBFS.path_range_1d", "sbfs.IntervalSBFS.path_range_1d"),
    ("catalog", "builtin_graph", "catalog.builtin_graph"),
    ("catalog", "builtin_sbfs", "catalog.builtin_sbfs"),
]
PACKAGE = "kgraph_lab"
MODULES = ["catalog", "cli", "errors", "intervals", "kgraph", "measures", "operators", "sbfs"]
LAYERS = ["kgraph", "measures", "operators", "intervals", "sbfs", "catalog"]


def _path_key(path):
    return path.range, path.edges


# Keys for distinct-call ratios: what makes two calls the same work.
DISTINCT = {
    "measures.CylinderMeasure.value": lambda args: (id(args[0]), *_path_key(args[1])),
    "operators.op_forward": lambda args: (id(args[0]), *_path_key(args[1]), args[2]),
    "operators.op_adjoint": lambda args: (id(args[0]), *_path_key(args[1]), args[2]),
}
# Result lengths recorded per span: pairs from lambda_min, atoms from partition_atoms.
SIZED = ["kgraph.lambda_min", "intervals.partition_atoms"]
# Names whose inclusive time is reported; only the outermost span of a name counts.
TOTAL = [
    "kgraph.lambda_min", "measures.check_consistency", "measures.measure_table",
    "measures.pf_data", "operators.standard_rep", "operators.faithful_rep",
    "operators.gauge_covariance", "intervals.partition_atoms", "sbfs.monic_probe",
    "catalog.builtin_graph", "catalog.builtin_sbfs",
]
FIELDS = [("span_name", "H"), ("start", "q"), ("end", "q"), ("parent", "l"), ("job", "H")]


class Tracer:
    """Records spans of wrapped kgraph_lab calls; one instance per traced pass."""

    def __init__(self):
        self.names = [name for _, _, name in SPANS]
        self.span_name = array("H")
        self.parent = array("l")
        self.job = array("H")
        self.start = array("q")
        self.end = array("q")
        self.job_id = 0
        self.sizes = {name: array("q") for name in SIZED}  # (span id, length) pairs
        self.distinct = {name: set() for name in DISTINCT}
        self._stack = [-1]
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, nid, name):
        span_name, parent, job = self.span_name.append, self.parent.append, self.job.append
        start, end_append, end = self.start.append, self.end.append, self.end
        stack, clock = self._stack, time.perf_counter_ns
        key_of = DISTINCT.get(name)
        seen = self.distinct.get(name)
        sizes = self.sizes[name].extend if name in self.sizes else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                seen.add((tracer.job_id, key_of(args)))
            sid = len(end)
            span_name(nid)
            parent(stack[-1])
            job(tracer.job_id)
            end_append(0)
            stack.append(sid)
            start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if sizes is not None:
                sizes((sid, len(result)))
            return result

        return traced

    def install(self):
        """Wrap every function in SPANS wherever the package binds it."""
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for nid, (mod, attr, name) in enumerate(SPANS):
            owner = importlib.import_module(f"{PACKAGE}.{mod}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner)[attr.split(".")[-1]]
            wrappers[fn] = self._wrap(fn, nid, name)
        holders = []
        for m in mods:
            holders.append(m)
            holders += [c for c in vars(m).values()
                        if inspect.isclass(c) and c.__module__.startswith(PACKAGE)]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((holder, key, val))
                    setattr(holder, key, wrappers[val])

    def uninstall(self):
        while self._patches:
            holder, key, val = self._patches.pop()
            setattr(holder, key, val)

    # -- results ------------------------------------------------------------

    def write(self, path):
        """Spans to ``path``: one JSON header line, then each field's raw array."""
        header = {"names": self.names, "count": len(self.end), "fields": FIELDS}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                getattr(self, field).tofile(fh)

    def aggregate(self):
        """Per-name calls, self and total seconds, plus derived counts."""
        return aggregate(self.names, self.span_name, self.parent, self.start,
                         self.end, self.sizes, self.distinct)


def read_spans(path):
    """(names, {field: array}) from a file written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["fields"]:
            cols[field] = array(code)
            cols[field].fromfile(fh, header["count"])
    return header["names"], cols


def self_times(parent, start, end):
    """Duration minus child coverage, for each span.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals inside the parent is subtracted.
    """
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)  # how far each parent is already covered
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def aggregate(names, span_name, parent, start, end, sizes, distinct):
    """Per-name statistics of spans in the order Tracer records them.

    That order puts every parent before its children, which the ancestor
    flags below rely on.
    """
    n = len(end)
    own = self_times(parent, start, end)
    nid = {name: i for i, name in enumerate(names)}
    lm, mp = nid["kgraph.lambda_min"], nid["sbfs.monic_probe"]
    fz, ix = nid["kgraph.factorize"], nid["intervals.IntervalUnion.intersect"]
    outermost = {nid[name] for name in TOTAL}
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    total_ns = [0] * len(names)
    # whether a span has a lambda_min / monic_probe ancestor, by span id
    under_lm = bytearray(n)
    under_mp = bytearray(n)
    fz_under_lm = ix_under_mp = 0
    for i in range(n):
        k = span_name[i]
        p = parent[i]
        calls[k] += 1
        self_ns[k] += own[i]
        if p >= 0:
            under_lm[i] = under_lm[p] or span_name[p] == lm
            under_mp[i] = under_mp[p] or span_name[p] == mp
        if k in outermost:
            q = p
            while q >= 0 and span_name[q] != k:
                q = parent[q]
            if q < 0:
                total_ns[k] += end[i] - start[i]
        if k == fz and under_lm[i]:
            fz_under_lm += 1
        elif k == ix and under_mp[i]:
            ix_under_mp += 1
    stats = {}
    for k, name in enumerate(names):
        stats[name] = {"calls": calls[k], "self_s": self_ns[k] / 1e9,
                       "total_s": total_ns[k] / 1e9}
    for name, keys in distinct.items():
        stats[name]["distinct"] = len(keys)
    pairs = sizes["kgraph.lambda_min"]
    stats["kgraph.lambda_min"]["pairs"] = sum(pairs[1::2])
    stats["kgraph.lambda_min"]["factorize_under"] = fz_under_lm
    atoms = sizes["intervals.partition_atoms"]
    stats["intervals.partition_atoms"]["atoms"] = sum(atoms[1::2])
    stats["sbfs.monic_probe"]["atoms_under"] = sum(
        size for sid, size in zip(atoms[::2], atoms[1::2]) if under_mp[sid])
    stats["sbfs.monic_probe"]["intersect_under"] = ix_under_mp
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, blocks, overhead_ratio):
    """Per-layer metrics as {name: (value, unit)}; ratios with a zero base are 0."""
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ["kgraph.enumerate_paths", "kgraph.compose", "kgraph.factorize", "kgraph.path"]:
        put(f"{name}.calls", stats[name]["calls"], "count")
        put(f"{name}.self_s", stats[name]["self_s"], "s")
    lm = stats["kgraph.lambda_min"]
    put("kgraph.lambda_min.calls", lm["calls"], "count")
    put("kgraph.lambda_min.total_s", lm["total_s"], "s")
    put("kgraph.factorize_per_lambda_min", _ratio(lm["factorize_under"], lm["calls"]), "ratio")
    put("kgraph.lambda_min.hit_ratio", _ratio(lm["pairs"], lm["factorize_under"]), "ratio")

    value = stats["measures.CylinderMeasure.value"]
    put("measures.CylinderMeasure.value.calls", value["calls"], "count")
    put("measures.CylinderMeasure.value.self_s", value["self_s"], "s")
    put("measures.CylinderMeasure.value.distinct_ratio",
        _ratio(value["distinct"], value["calls"]), "ratio")
    for name in ["check_consistency", "measure_table", "pf_data"]:
        put(f"measures.{name}.total_s", stats[f"measures.{name}"]["total_s"], "s")

    for name in ["operators.op_forward", "operators.op_adjoint"]:
        put(f"{name}.calls", stats[name]["calls"], "count")
        put(f"{name}.self_s", stats[name]["self_s"], "s")
        put(f"{name}.distinct_ratio", _ratio(stats[name]["distinct"], stats[name]["calls"]),
            "ratio")
    for rep in ["StandardRep", "FaithfulRep"]:
        for method in ["apply_path", "apply_adjoint"]:
            name = f"operators.{rep}.{method}"
            put(f"{name}.calls", stats[name]["calls"], "count")
            put(f"{name}.self_s", stats[name]["self_s"], "s")
    put("operators.verify_ck.self_s", stats["operators.verify_ck"]["self_s"], "s")
    for name in ["standard_rep", "faithful_rep", "gauge_covariance"]:
        put(f"operators.{name}.total_s", stats[f"operators.{name}"]["total_s"], "s")
    for relation in ["CK1", "CK2", "CK3", "CK4", "CK4-min"]:
        put(f"operators.verify_ck.blocks.{relation}", blocks.get(relation, 0), "count")

    for method in ["intersect", "subtract"]:
        name = f"intervals.IntervalUnion.{method}"
        put(f"{name}.calls", stats[name]["calls"], "count")
        put(f"{name}.self_s", stats[name]["self_s"], "s")
    atoms = stats["intervals.partition_atoms"]
    put("intervals.partition_atoms.calls", atoms["calls"], "count")
    put("intervals.partition_atoms.total_s", atoms["total_s"], "s")
    put("intervals.partition_atoms.atoms", atoms["atoms"], "count")

    probe = stats["sbfs.monic_probe"]
    put("sbfs.monic_probe.total_s", probe["total_s"], "s")
    put("sbfs.monic_probe.self_s", probe["self_s"], "s")
    ranges = stats["sbfs.IntervalSBFS.path_range_1d"]
    put("sbfs.IntervalSBFS.path_range_1d.calls", ranges["calls"], "count")
    put("sbfs.IntervalSBFS.path_range_1d.self_s", ranges["self_s"], "s")
    put("sbfs.monic.intersects_per_atom",
        _ratio(probe["intersect_under"], probe["atoms_under"]), "ratio")

    put("catalog.builtin_graph.total_s", stats["catalog.builtin_graph"]["total_s"], "s")
    put("catalog.builtin_sbfs.total_s", stats["catalog.builtin_sbfs"]["total_s"], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(st["self_s"] for name, st in stats.items()
                                   if name.split(".")[0] == layer), "s")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
