import collections
import functools
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from kgraph_lab import operators
from kgraph_lab.catalog import BUILTIN_GRAPH_NAMES, builtin_graph, builtin_sbfs
from kgraph_lab.errors import (
    DegreeCapExceeded,
    DepthTooSmall,
    DimensionUnsupported,
    NoPathBasis,
    NoPeriodFound,
    NotStronglyConnected,
    PeriodicOrbit,
    UnsupportedGraphShape,
    UnsupportedMeasure,
    ZeroDenominator,
)
from kgraph_lab.intervals import IntervalUnion
from kgraph_lab.kgraph import (
    KGraph,
    build_product,
    deg_add,
    deg_diag,
    deg_grid,
    deg_join,
    deg_le,
    deg_sub,
)
from kgraph_lab.measures import (
    PrefixRule,
    ProductMeasureSpec,
    check_consistency,
    markov_measure,
    parse_product_spec,
    pf_measure,
    product_measure,
    star_markov_matrix,
    t_x_matrix,
)
from kgraph_lab.operators import (
    orbit_restriction,
    DirectSumRep,
    EncodingTable,
    IntervalDiagonalRep,
    KPRep,
    atoms_report,
    decompose_permutative,
    encoding_map,
    faithful_rep,
    gauge_covariance,
    induced_measure,
    monic_vector_probe,
    nonfaithful_witness,
    op_adjoint,
    op_forward,
    orbit_equal,
    permutative_validate,
    prefix_has_period,
    pvm,
    pvm_additivity,
    standard_rep,
    tail_equivalence_map,
    verify_ck,
)
import numpy_free_routes
from test_kgraph import (
    random_graph,
    random_walk,
    reference_orbit_windows,
    reference_period_windows,
    shift_window_graphs,
)
from test_measures import loop_graph

SQRT2 = math.sqrt(2.0)


def measures_for(name):
    """Supported (tag, measure) pairs with constant RN data per class."""
    g = builtin_graph(name)
    out = [("pf", pf_measure(g))]
    if name == "exonevtwoe":
        out.append(("markov", markov_measure(g, t_x_matrix(Fraction(1, 3)))))
        out.append(
            ("product0", product_measure(g, ProductMeasureSpec("const", c=Fraction(0))))
        )
    if name == "lambda2N:N=1":
        spec = star_markov_matrix(2, [2, 1], [(Fraction(1, 3), Fraction(2, 3))])
        out.append(("markov", markov_measure(g, spec)))
    return g, out


def matrix(op, rep):
    """The dense matrix of a block operator of rep, rows the destination block."""
    mat = np.zeros((rep.block_dim(op.dst_key), rep.block_dim(op.src_key)))
    for s, outs in op.table.items():
        for d, c in outs.items():
            mat[d, s] = float(c)
    return mat


class ScaledRep:
    """Fault-injection wrapper: scales one edge generator by a factor."""

    def __init__(self, rep, edge_id, factor):
        self._rep = rep
        self.edge_id = edge_id
        self.factor = factor
        self.graph = rep.graph
        self.depth = rep.depth
        self.kind = rep.kind
        self.discrete = rep.discrete

    def __getattr__(self, name):
        return getattr(self._rep, name)

    def _scaled(self, lam, op):
        """Scale a block operator of lam by factor^(occurrences of the edge)."""
        return None if op is None else op.scaled(self.factor ** lam.edges.count(self.edge_id))

    def apply_path(self, lam, key):
        return self._scaled(lam, self._rep.apply_path(lam, key))

    def apply_adjoint(self, lam, key):
        return self._scaled(lam, self._rep.apply_adjoint(lam, key))


# -- standard representation ------------------------------------------------------


def test_vertex_action_is_projection():
    g = builtin_graph("ex3v8e")
    rep = standard_rep(g, pf_measure(g), 2)
    tv = op_forward(rep, g.vertex_path("v"), (1, 1))
    mat = matrix(tv, rep)
    assert np.array_equal(mat, mat @ mat)
    for i, eta in enumerate(rep.block((1, 1))):
        assert mat[i, i] == (1.0 if eta.range == "v" else 0.0)


def test_chi_basis_coefficient_matches_spectral_scale():
    # S_lam chi_eta = rho^{d/2} chi_{lam eta}: the chi coefficient equals
    # sqrt(w(eta)/w(lam eta)) since the orthonormalized coefficient is 1
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    rep = standard_rep(g, m, 3)
    lam = g.path(["a0", "b0"])
    eta = g.enumerate_paths((1, 1), g.s(lam))[0]
    coef = (float(m.value(eta)) / float(m.value(g.compose(lam, eta)))) ** 0.5
    assert abs(coef - 2 ** (2 / 4)) < 1e-12


def test_inner_product_weights():
    g = builtin_graph("exonevtwoe")
    m = pf_measure(g)
    rep = standard_rep(g, m, 2)
    for eta in rep.block((2, 1)):
        assert rep.weight(eta) == m.value(eta)


@pytest.mark.parametrize(
    "name",
    ["ex3v8e", "exonevtwoe", "kawamura", "lambda2N:N=1", "lambda2N:N=2", "ehfg",
     "double-kawamura", "product-kawamura"],
)
def test_verify_ck_all_supported_measures(name):
    g, pairs = measures_for(name)
    for tag, measure in pairs:
        rep = standard_rep(g, measure, 3)
        report = verify_ck(rep, max_level=2)
        assert report.ok, (name, tag, report.max_residual)
        assert report.max_residual < 1e-10


def test_verify_ck_faithful_exact_zero():
    for name in ("ex3v8e", "ehfg", "exonevtwoe"):
        g = builtin_graph(name)
        rep = faithful_rep(g, depth=4, cap=4)
        report = verify_ck(rep, max_level=2)
        assert report.ok
        assert report.max_residual == 0.0


def test_fault_injected_scaling_detected():
    g = builtin_graph("exonevtwoe")
    rep = ScaledRep(standard_rep(g, pf_measure(g), 3), "f1", 2.0)
    report = verify_ck(rep, max_level=2)
    assert not report.ok
    assert any(c.relation == "CK3" and c.residual > 1 for c in report.checks)
    assert [c.blocks_checked for c in report.checks] == [16, 164, 36, 37, 108]
    assert [c.residual for c in report.checks] == [0.0, 1.0, 3.0, 15.0, 3.0]
    # every relation was checked on some block: worst() is the largest residual
    assert report.worst().residual == report.max_residual == 15.0


CK_PINS = {
    "lambda2N-standard": (
        "lambda2N:N=2", lambda g: standard_rep(g, pf_measure(g), 2), 1, [45, 517, 96, 80, 480]
    ),
    "ex3v8e-faithful": (
        "ex3v8e", lambda g: faithful_rep(g, depth=4), 2, [156, 1460, 304, 379, 828]
    ),
    "exonevtwoe-kp": ("exonevtwoe", lambda g: KPRep(g, 3), 2, [16, 164, 36, 37, 108]),
}


@pytest.mark.parametrize("name, make, max_level, blocks", CK_PINS.values(), ids=CK_PINS)
def test_verify_ck_checks_the_pinned_blocks(name, make, max_level, blocks):
    # blocks checked per relation: CK1, CK2, CK3, CK4, CK4-min
    report = verify_ck(make(builtin_graph(name)), max_level=max_level)
    assert report.ok
    assert [c.relation for c in report.checks] == ["CK1", "CK2", "CK3", "CK4", "CK4-min"]
    assert [c.blocks_checked for c in report.checks] == blocks
    assert [c.residual for c in report.checks] == [0.0] * 5


def four_graph():
    """ex3v8e x exonevtwoe: a 4-graph with 3 vertices and 17 edges."""
    return build_product(builtin_graph("ex3v8e"), builtin_graph("exonevtwoe"))


FOUR_GRAPH_PINS = {
    "standard": (lambda g: standard_rep(g, pf_measure(g), 1), [48, 608, 136, 99, 792]),
    "kp": (lambda g: KPRep(g, 1), [48, 608, 136, 99, 792]),
    "faithful": (lambda g: faithful_rep(g, depth=1), [48, 608, 136, 99, 504]),
}


@pytest.mark.parametrize("make, blocks", FOUR_GRAPH_PINS.values(), ids=FOUR_GRAPH_PINS)
def test_verify_ck_on_a_4_graph(make, blocks):
    report = verify_ck(make(four_graph()), max_level=1)
    assert report.ok
    assert [c.blocks_checked for c in report.checks] == blocks


def test_standard_forward_tables_store_their_runs_not_their_blocks():
    # a forward table holds one entry per path of its run, on the 25-vertex
    # 4-graph where a block is many times longer than one run
    g = build_product(builtin_graph("lambda2N:N=2"), builtin_graph("lambda2N:N=2"))
    rep = standard_rep(g, pf_measure(g), 1)
    shorter = 0
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for m in rep.block_keys():
            op = rep.apply_path(lam, m)
            if op is not None:
                assert op.rows is None and op.coef is None
                assert len(op.dst) == len(g.run(m, g.s(lam)))
                shorter += len(op.dst) < rep.block_dim(m)
    assert shorter


def test_relation_checks_call_block_actions_through_the_module(monkeypatch):
    # the benchmark's tracer patches op_forward and op_adjoint on the module:
    # every call must reach the patched names, and no skipped block is built
    calls = collections.Counter()

    def counted(name):
        action = getattr(operators, name)

        def wrapper(*args):
            calls[name] += 1
            return action(*args)

        return wrapper

    for name in ("op_forward", "op_adjoint"):
        monkeypatch.setattr(operators, name, counted(name))
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, pf_measure(g), 3)
    verify_ck(rep, max_level=2)
    assert calls == {"op_forward": 1107, "op_adjoint": 314}
    calls.clear()
    pvm_additivity(rep, depth=1)
    assert calls == {"op_forward": 717, "op_adjoint": 639}


def strongly_connected_draws(k, count, seed=500):
    """The first `count` strongly connected random k-graphs from the seed on."""
    while count:
        g = random_graph(random.Random(seed), k)
        if g.is_strongly_connected():
            count -= 1
            yield g
        seed += 1


def assert_exact_and_fault_seen(rep):
    report = verify_ck(rep, max_level=2)
    assert report.ok
    assert report.max_residual == 0.0
    assert all(c.blocks_checked > 0 for c in report.checks)
    # negative control: doubling one edge generator breaks some relation
    assert not verify_ck(ScaledRep(rep, rep.graph.edges[0].eid, 2.0), max_level=2).ok


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(500, 508))
def test_verify_ck_exact_on_random_kp_reps(k, seed):
    g = random_graph(random.Random(seed), k)
    assert_exact_and_fault_seen(KPRep(g, 2 if k == 2 else 1))


@pytest.mark.parametrize("k", [2, 3])
def test_verify_ck_exact_on_random_faithful_reps(k):
    for g in strongly_connected_draws(k, 6):
        assert_exact_and_fault_seen(faithful_rep(g, depth=2 if k == 2 else 1))


def test_standard_rep_above_the_enumeration_cap_raises():
    # the blocks above enum_cap used to be dropped and the rep built anyway
    g = loop_graph(4)
    assert standard_rep(g, pf_measure(g), 3).block_keys() == [(0,), (1,), (2,), (3,)]
    # the Radon-Nikodym test reads block depth + 1
    with pytest.raises(DegreeCapExceeded, match="standard rep depth 4 needs paths of total degree 5"):
        standard_rep(g, pf_measure(g), 4)
    with pytest.raises(DegreeCapExceeded, match="standard rep depth 5 .* enumeration cap 4"):
        standard_rep(g, pf_measure(g), 5)
    assert KPRep(g, 4).block_keys() == [(0,), (1,), (2,), (3,), (4,)]
    with pytest.raises(DegreeCapExceeded, match="kp rep depth 5"):
        KPRep(g, 5)


@pytest.mark.parametrize("kind", ["pf", "markov", "kp"])
@pytest.mark.parametrize("depth", [2, 3])
def test_rep_at_its_enumeration_cap_never_raises_later(kind, depth):
    base = builtin_graph("exonevtwoe")

    def build(cap):
        g = KGraph(base.k, base.vertices, base.edges, base.squares, enum_cap=cap)
        if kind == "kp":
            return KPRep(g, depth)
        measure = pf_measure(g) if kind == "pf" else markov_measure(g, t_x_matrix(Fraction(1, 3)))
        return standard_rep(g, measure, depth)

    def admitted(cap):
        try:
            build(cap)
        except DegreeCapExceeded:
            return False
        return True

    # the smallest cap the rep's own cap check admits
    cap = next(c for c in range(depth * base.k, (depth + 2) * base.k) if admitted(c))
    assert cap == (depth + (kind != "kp")) * base.k
    rep = build(cap)
    g = rep.graph
    assert verify_ck(rep, max_level=min(2, depth - 1)).max_residual <= 1e-10
    assert pvm_additivity(rep, depth=1).ok
    keys = rep.block_keys()
    for m in keys:
        for target in keys:
            if all(a <= b for a, b in zip(m, target)):
                rep.refinement(m, target)
        for n in keys:
            for lam in g.enumerate_paths(n):
                rep.pvm_mask(lam, m)
                op_forward(rep, lam, m)
                op_adjoint(rep, lam, m)


def test_faithful_rep_above_the_enumeration_cap_raises():
    g = loop_graph(4)
    assert verify_ck(faithful_rep(g, depth=4)).ok
    with pytest.raises(DegreeCapExceeded, match="faithful rep cap 5 .* enumeration cap 4"):
        faithful_rep(g, depth=5)
    with pytest.raises(DegreeCapExceeded, match="faithful rep cap 5"):
        faithful_rep(g, depth=2, cap=5)


@pytest.mark.parametrize("name", ["exonevtwoe", "ex3v8e"])
@pytest.mark.parametrize("depth, cap", [(3, 3), (4, 2)])
def test_faithful_rep_at_its_enumeration_cap_never_raises_later(name, depth, cap):
    # tables whose paths pass the enumeration cap are read off the label actions
    base = builtin_graph(name)
    g = KGraph(base.k, base.vertices, base.edges, base.squares, enum_cap=cap * base.k)
    rep = faithful_rep(g, depth=depth, cap=cap)
    assert verify_ck(rep, max_level=2).ok
    assert gauge_covariance(rep).structural_ok
    defined, undefined = assert_faithful_tables_match_label_actions(rep)
    assert defined and undefined


def test_scaled_rep_over_a_verified_rep_sees_the_fault():
    # the base rep's remembered block tables must not hide the scaling
    g = builtin_graph("exonevtwoe")
    base = standard_rep(g, pf_measure(g), 3)
    assert verify_ck(base, max_level=2).ok
    warm = verify_ck(ScaledRep(base, "f1", 2.0), max_level=2)
    fresh_base = standard_rep(g, pf_measure(g), 3)
    fresh = verify_ck(ScaledRep(fresh_base, "f1", 2.0), max_level=2)
    assert not warm.ok
    assert warm.max_residual == fresh.max_residual == 15.0
    assert warm.to_dict() == fresh.to_dict()


@pytest.mark.parametrize(
    "make",
    [
        lambda g: standard_rep(g, pf_measure(g), 3),
        lambda g: faithful_rep(g, depth=3),
        lambda g: DirectSumRep([KPRep(g, 2), KPRep(g, 2)]),
        lambda g: faithful_rep(g, depth=3, sum_over_vertices=True),
    ],
    ids=["standard", "faithful", "kp-sum", "faithful-sum"],
)
def test_verify_ck_twice_on_one_rep_is_identical(make):
    g = builtin_graph("ex3v8e")
    rep = make(g)
    first = verify_ck(rep, max_level=2).to_dict()
    assert verify_ck(rep, max_level=2).to_dict() == first
    lam = g.edge_path(g.edges[0].eid)
    key = next(k for k in rep.block_keys() if rep.apply_path(lam, k) is not None)
    assert rep.apply_path(lam, key) is rep.apply_path(lam, key)


MEMO_REPS = {
    "standard": lambda g: UnprobedRep(g, pf_measure(g), 2),
    "kp": lambda g: KPRep(g, 2),
    "faithful": lambda g: faithful_rep(g, depth=3),
}


def table_requests(rep, bound):
    """(direction, lam, key) for every path of degree <= bound*(1,..,1) on every block."""
    g = rep.graph
    lams = [lam for n in deg_grid(g.k, bound) for lam in g.enumerate_paths(n)]
    return [(d, lam, key) for key in rep.block_keys() for lam in lams for d in ("fwd", "adj")]


def requested(rep, requests):
    """rows_of each requested table, in request order."""
    apply = {"fwd": rep.apply_path, "adj": rep.apply_adjoint}
    return [rows_of(op and op.table) for op in (apply[d](lam, key) for d, lam, key in requests)]


@pytest.mark.parametrize("order", ["block", "reversed", "shuffled"])
@pytest.mark.parametrize("kind", MEMO_REPS)
def test_each_batch_is_built_once_whatever_the_request_order(kind, order, monkeypatch):
    # a batch is every path of one degree in one direction on one block; a
    # block or image that is not represented is remembered per path instead
    rep = MEMO_REPS[kind](builtin_graph("ex3v8e"))
    built = collections.Counter()
    for name in ("_forward_tables", "_adjoint_tables"):

        def counted(n, key, build=getattr(rep, name), name=name):
            ops = build(n, key)
            built[name, n, key, ops is None] += 1
            return ops

        monkeypatch.setattr(rep, name, counted)
    requests = table_requests(rep, 2)
    if order == "reversed":
        requests.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(requests)
    first = requested(rep, requests)
    assert requested(rep, requests) == first
    batches = [key for key, count in built.items() if not key[-1]]
    assert batches and all(built[key] == 1 for key in batches)
    g = rep.graph
    assert all(count == len(g.enumerate_paths(n)) for (_, n, _, none), count in built.items() if none)


@pytest.mark.parametrize("kind", MEMO_REPS)
def test_shuffled_requests_give_the_tables_of_block_order(kind):
    g = next(strongly_connected_draws(2, 1))
    requests = table_requests(MEMO_REPS[kind](g), 2)
    want = requested(MEMO_REPS[kind](g), requests)
    order = list(range(len(requests)))
    random.Random(11).shuffle(order)
    got = dict(zip(order, requested(MEMO_REPS[kind](g), [requests[i] for i in order])))
    assert [got[i] for i in range(len(requests))] == want
    assert any(want) and None in want


def test_zero_denominator_is_raised_for_its_path_alone():
    # one batch builds every edge of a color on block 0; only an edge whose
    # source cylinder is null raises, in whatever order the edges are asked for
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    null = g.vertex_path(g.vertices[0])
    measure = m.perturbed(null, -m.value(null))
    lams = [g.edge_path(e.eid) for e in g.edges if e.color == 1]
    assert {g.s(lam) == null.range for lam in lams} == {True, False}

    def outcomes(order):
        rep, out = UnprobedRep(g, measure, 1), {}
        for lam in order + order:  # a second request raises again
            try:
                got = rows_of(rep.apply_path(lam, (0, 0)).table)
            except ZeroDenominator as err:
                got = str(err)
            assert out.setdefault(lam, got) == got
        return out

    first = outcomes(lams)
    for lam, got in first.items():
        if g.s(lam) == null.range:
            assert got == f"Z({null}) has measure 0"
        else:
            assert got and isinstance(got, list)
    assert outcomes(lams[::-1]) == first


def test_block_actions_are_defined_in_the_class_bodies():
    # the benchmark's tracer wraps every SPANS entry through vars(owner)
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for mod, attr, _ in tracing.SPANS:
        owner = importlib.import_module(f"kgraph_lab.{mod}")
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert inspect.isfunction(vars(owner).get(name)), attr


def test_verify_ck_fails_when_a_relation_checks_no_block():
    g = builtin_graph("ex3v8e")
    report = verify_ck(faithful_rep(g, depth=0), max_level=2)
    assert report.max_residual == 0.0
    assert not report.ok
    assert report.worst().relation == "CK1"
    checks = report.to_dict()["checks"]
    assert [c["blocks_checked"] for c in checks] == [0] * 5
    assert all("level" not in c for c in checks)


def test_block_maps_with_mismatched_keys_raise():
    g = builtin_graph("ex3v8e")
    rep = faithful_rep(g, depth=3)
    lam = g.edge_path(g.edges[0].eid)
    t = next(
        op for key in rep.block_keys() if (op := op_forward(rep, lam, key)) is not None
    )
    tv = op_forward(rep, g.vertex_path(lam.range), t.src_key)
    with pytest.raises(ValueError):
        t.then(t)  # t ends in block src + d(lam), not in block src
    with pytest.raises(ValueError):
        t.add(tv)


def _kp_sum():
    g = builtin_graph("exonevtwoe")
    return DirectSumRep([KPRep(g, 3), KPRep(g, 3)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: KPRep(builtin_graph("exonevtwoe"), 3),
        lambda: faithful_rep(builtin_graph("ex3v8e"), depth=3),
        lambda: faithful_rep(builtin_graph("exonevtwoe"), depth=3),
        _kp_sum,
    ],
    ids=["kp", "faithful-ex3v8e", "faithful-exonevtwoe", "kp-sum"],
)
def test_label_actions_follow_block_tables(make):
    """Each basis label goes where its row of the block table sends it."""
    rep = make()
    g = rep.graph
    compared = 0
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for key in rep.block_keys():
            src = rep.block(key)
            for apply, act, point_dst in (
                (rep.apply_path, rep.forward_label, deg_add(key, lam.degree)),
                (rep.apply_adjoint, rep.adjoint_label, deg_sub(key, lam.degree)),
            ):
                res = apply(lam, key)
                if res is None:
                    continue
                table, dst = res.table, res.dst_key
                if dst != point_dst:
                    # a counting adjoint below d(lam) spreads u_eta over the
                    # extensions of eta; a label that short has no image
                    assert all(act(lam, label) is None for label in src)
                    continue
                images = rep.block(dst)
                for t, label in enumerate(src):
                    row = table.get(t, {})
                    assert len(row) <= 1 and all(c == 1 for c in row.values())
                    expected = images[next(iter(row))] if row else None
                    assert act(lam, label) == expected, (lam, key, label)
                    compared += bool(row)
    assert compared


def test_nonconstant_product_measure_unsupported():
    g = builtin_graph("exonevtwoe")
    spec = ProductMeasureSpec("geometric", c=Fraction(1, 4), r=Fraction(1, 2))
    with pytest.raises(UnsupportedMeasure):
        standard_rep(g, product_measure(g, spec), 3)


@pytest.mark.parametrize("at", [(), ("f1", "e")], ids=["vertex", "square"])
def test_standard_rep_on_a_null_cylinder_raises_zero_denominator(at):
    # the null cylinder is a base of the Radon-Nikodym test at block 0 (the
    # vertex) or one of its refinements a level deeper (the square)
    g = builtin_graph("exonevtwoe")
    m = pf_measure(g)
    null = g.path(at) if at else g.vertex_path("v")
    with pytest.raises(ZeroDenominator, match=re.escape(f"Z({null}) has measure 0")):
        standard_rep(g, m.perturbed(null, -m.value(null)), 1)


# -- standard tables against the builders that cut replaced ---------------------------


def reference_constant_quotient(rep, weight, lam, eta):
    """Phi_lam restricted to Z(eta) if constant, else None (per-eta compose loop)."""
    g = rep.graph
    base = weight(g.compose(lam, eta)) / weight(eta)
    for ext in g.enumerate_paths(deg_diag(g.k, 1), g.s(eta)):
        deeper = g.compose(eta, ext)
        q = weight(g.compose(lam, deeper)) / weight(deeper)
        if rep.measure.exact:
            if q != base:
                return None
        elif abs(float(q - base)) > rep.tol:
            return None
    return base


def reference_forward_table(rep, weight, index, lam, m):
    g = rep.graph
    dst = deg_add(m, lam.degree)
    if m not in index or dst not in index:
        return None
    table = {}
    for i, eta in enumerate(rep.block(m)):
        if g.s(lam) != eta.range:
            continue
        if rep.kind == "standard" and reference_constant_quotient(rep, weight, lam, eta) is None:
            return None
        table[i] = {index[dst][g.compose(lam, eta)]: 1}
    return table


def reference_adjoint_table(rep, weight, index, lam, m):
    """Minimal common extensions by lambda_min, one eta at a time."""
    g = rep.graph
    dst = deg_sub(deg_join(m, lam.degree), lam.degree)
    if m not in index or dst not in index or deg_join(m, lam.degree) not in index:
        return None
    table = {}
    for i, eta in enumerate(rep.block(m)):
        outs = {}
        for alpha, _beta in g.lambda_min(lam, eta):
            ratio = weight(g.compose(lam, alpha)) / weight(eta)
            outs[index[dst][alpha]] = 1 if ratio == 1 else float(ratio) ** 0.5
        if outs:
            table[i] = outs
    return table


def reference_refinement(rep, weight, index, m, target):
    g = rep.graph
    table = {}
    for i, eta in enumerate(rep.block(m)):
        w_eta = float(weight(eta))
        outs = table[i] = {}
        for ext in g.enumerate_paths(deg_sub(target, m), g.s(eta)):
            deeper = g.compose(eta, ext)
            outs[index[target][deeper]] = (float(weight(deeper)) / w_eta) ** 0.5
    return table


def reference_pvm_mask(rep, lam, m):
    return [float(rep.graph.strip_prefix(eta, lam) is not None) for eta in rep.block(m)]


def rows_of(table):
    """A table with its dict order: _Op.then sums floats in that order."""
    return None if table is None else [(s, list(outs.items())) for s, outs in table.items()]


def assert_tables_match_references(rep, lam_bound):
    """Every forward and adjoint table of the paths of degree <= lam_bound*(1,..,1),
    every refinement and every P(Z(lam)) mask, against the references."""
    g = rep.graph
    keys = rep.block_keys()
    index = {m: {p: i for i, p in enumerate(rep.block(m))} for m in keys}
    # the references read each cylinder many times, and CylinderMeasure.value
    # computes a path's value afresh on every call: read it once per path
    weight = functools.cache(rep.weight)
    lams = [lam for n in deg_grid(g.k, lam_bound) for lam in g.enumerate_paths(n)]
    undefined = 0
    for m in keys:
        for lam in lams:
            fwd, adj = rep.apply_path(lam, m), rep.apply_adjoint(lam, m)
            assert rows_of(fwd and fwd.table) == rows_of(reference_forward_table(rep, weight, index, lam, m))
            assert rows_of(adj and adj.table) == rows_of(reference_adjoint_table(rep, weight, index, lam, m))
            undefined += fwd is None and deg_add(m, lam.degree) in index
            assert rep.pvm_mask(lam, m) == reference_pvm_mask(rep, lam, m)
        for target in keys:
            if all(a <= b for a, b in zip(m, target)):
                got = rows_of(rep.refinement(m, target).table)
                assert got == rows_of(reference_refinement(rep, weight, index, m, target))
    return undefined


class UnprobedRep(operators.StandardRep):
    """A standard rep built even where every edge action is undefined."""

    def _probe_usability(self):
        pass


TABLE_SPECS = ["pf", "markov:x=1/3", "product:const:0", "product:const:1/4",
               "product:finite:1/4,0,-1/8"]


def table_cases():
    out = []
    for name in BUILTIN_GRAPH_NAMES:
        g = builtin_graph(name)
        for spec in TABLE_SPECS:
            try:
                if spec == "pf":
                    measure = pf_measure(g)
                elif spec.startswith("markov"):
                    measure = markov_measure(g, t_x_matrix(Fraction(1, 3)))
                else:
                    measure = product_measure(g, parse_product_spec(spec.split(":", 1)[1]))
            except (NotStronglyConnected, UnsupportedGraphShape):
                continue  # the spec does not fit the graph
            out += [pytest.param(measure, depth, id=f"{name}-{spec}-{depth}") for depth in (2, 3)]
            if spec == "pf":
                # one bumped cylinder a level past the truncation: a Radon-Nikodym
                # defect that some extensions of a class see and others do not
                deep = g.block(deg_diag(g.k, 3))[-1]
                bumped = measure.perturbed(deep, Fraction(1, 1000) if measure.exact else 1e-3)
                out.append(pytest.param(bumped, 2, id=f"{name}-pf-perturbed-2"))
    return out


@pytest.mark.parametrize("measure, depth", table_cases())
def test_standard_tables_match_the_replaced_builders(measure, depth):
    rep = UnprobedRep(measure.graph, measure, depth)
    undefined = assert_tables_match_references(rep, 1 if depth == 3 else depth)
    if measure.tag.startswith("product(finite") or measure.tag.endswith("+perturbed"):
        assert undefined  # nonconstant RN data leaves some forward map undefined


@pytest.mark.parametrize("kind", ["pf", "kp"])
def test_standard_tables_match_the_replaced_builders_on_a_4_graph(kind):
    g = four_graph()
    rep = UnprobedRep(g, pf_measure(g), 1) if kind == "pf" else KPRep(g, 1)
    assert assert_tables_match_references(rep, 1) == 0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_kp_tables_match_the_replaced_builders_on_random_graphs(k, seed):
    depth = 2 if k == 2 else 1
    rep = KPRep(random_graph(random.Random(600 + seed), k), depth)
    assert assert_tables_match_references(rep, depth) == 0


# -- a pf rep skips the row test: the row test is its reference ---------------------


def row_tested_rep(measure, depth):
    """A standard rep over measure with a zero bump: the same weights, with the
    Radon-Nikodym row test and the usability probe run."""
    g = measure.graph
    rep = standard_rep(g, measure.perturbed(g.vertex_path(g.vertices[0]), 0), depth)
    assert rep.rn_tested
    return rep


def op_layout(op):
    """An _Op's block keys and layout, in entry order, each float in hex."""
    if op is None:
        return None

    def entries(table):
        return None if table is None else [
            (s, c.hex() if isinstance(c, float) else c) for s, c in table.items()]

    rows = None if op.rows is None else [(s, entries(outs)) for s, outs in op.rows.items()]
    dst = None if op.dst is None else list(op.dst.items())
    return op.src_key, op.dst_key, dst, entries(op.coef), rows


def batch_layouts(rep):
    """op_layout of every forward and adjoint table of every degree on every block."""
    keys, out = rep.block_keys(), {}
    for build in (rep._forward_tables, rep._adjoint_tables):
        for m in keys:
            for n in keys:
                ops = build(n, m)
                out[build.__name__, n, m] = None if ops is None else list(map(op_layout, ops))
    return out


def assert_shortcut_matches_the_row_test(measure, depth):
    rep = standard_rep(measure.graph, measure, depth)
    assert not rep.rn_tested
    got = batch_layouts(rep)
    assert got == batch_layouts(row_tested_rep(measure, depth))
    assert all(ops is not None for (name, n, m), ops in got.items()
               if name == "_forward_tables" and deg_add(m, n) in rep.block_keys())
    return got


PF_NAMES = [name for name in BUILTIN_GRAPH_NAMES if builtin_graph(name).is_strongly_connected()]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", PF_NAMES)
def test_pf_tables_without_the_row_test_match_the_row_test(name, depth):
    g = builtin_graph(name)
    measure = pf_measure(g)
    got = assert_shortcut_matches_the_row_test(measure, depth)
    if name in ("ex3v8e", "kawamura"):  # float Perron data: coefficients compared in hex
        assert not measure.exact and "'0x1." in repr(got)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_pf_tables_without_the_row_test_match_the_row_test_on_random_graphs(k, depth):
    # the first three draws whose top block is small enough to compare quickly
    limit = 300 if k == 2 else 80
    draws = (g for g in strongly_connected_draws(k, 20, seed=700)
             if len(g.tails(deg_diag(k, depth)).sources) <= limit)
    for g in itertools.islice(draws, 3):
        assert_shortcut_matches_the_row_test(pf_measure(g), depth)


@pytest.mark.parametrize("name", ["lambda2N:N=2", "ex3v8e"])
def test_a_pf_rep_reads_no_block_past_its_depth(name):
    # the row test read glue tables, tail arrays and numerators of degree
    # up to (depth + 1)*(1,..,1); the usability probe built some at construction
    g = builtin_graph(name)
    measure = pf_measure(g)
    rep = standard_rep(g, measure, 3)
    assert (g._glues, measure._numerators, g._blocks) == ({}, {}, {})
    assert verify_ck(rep).ok
    top = deg_diag(g.k, 3)

    def past(degrees):
        return [d for d in degrees if not deg_le(d, top)]

    assert past(deg_add(n, r) for n, r in g._glues) == []
    assert past(g._tails) == []
    assert past(measure._numerators) == []
    assert g._glues and g._tails and measure._numerators


def rn_cases():
    """Exact measures for the integer Radon-Nikodym test, and one per graph
    with a bump a level past the truncation that some classes see."""
    out = []
    for name in ("exonevtwoe", "lambda2N:N=2", "lambda2N:N=1"):
        g, tagged = measures_for(name)
        measures = [m for _, m in tagged if m.exact]
        if name == "exonevtwoe":
            measures += [product_measure(g, parse_product_spec(spec))
                         for spec in ("const:1/4", "finite:1/4,0,-1/8")]
        deep = g.block(deg_diag(g.k, 3))[-1]
        measures.append(measures[0].perturbed(deep, Fraction(1, 1000)))
        out += [pytest.param(m, id=f"{name}-{m.tag}") for m in measures]
    return out


@pytest.mark.parametrize("measure", rn_cases())
def test_integer_rn_test_matches_the_quotient_reference(measure):
    # cross-multiplied integers against Fraction quotients, class by class
    assert measure.exact
    rep = UnprobedRep(measure.graph, measure, 2)
    g, weight, seen = rep.graph, functools.cache(rep.weight), collections.Counter()
    keys = rep.block_keys()
    for m in keys:
        for n in deg_grid(g.k, 1):
            if deg_add(m, n) not in keys:
                continue
            constant, rows = rep._rn_constant(n, m), rep._rows(n, m)
            for a, lam in enumerate(g.enumerate_paths(n)):
                for i, j in rows[a]:
                    got = constant(a, [(i, j)])
                    want = reference_constant_quotient(rep, weight, lam, rep.block(m)[i])
                    assert got == (want is not None), (lam, m, i)
                    seen[got] += 1
    assert seen[True]
    if measure.tag.endswith("+perturbed") or "finite" in measure.tag:
        assert seen[False]  # the reference says not constant somewhere


@pytest.mark.parametrize("at", [(), ("f1", "e")], ids=["vertex", "square"])
def test_integer_rn_test_on_a_null_cylinder_raises_zero_denominator(at):
    g = builtin_graph("exonevtwoe")
    m = pf_measure(g)
    null = g.path(at) if at else g.vertex_path("v")
    rep = UnprobedRep(g, m.perturbed(null, -m.value(null)), 1)
    lam = g.edge_path(g.edges[0].eid)
    a = g.index(lam)
    rows = rep._rows(lam.degree, (0, 0))[a]
    with pytest.raises(ZeroDenominator, match=re.escape(f"Z({null}) has measure 0")):
        rep._rn_constant(lam.degree, (0, 0))(a, rows)


@pytest.mark.parametrize("name", ["exonevtwoe", "ex3v8e"], ids=["exact", "float"])
def test_adjoint_table_on_a_null_cylinder_raises_zero_denominator(name):
    g = builtin_graph(name)
    m = pf_measure(g)
    null = g.vertex_path(g.vertices[0])
    rep = UnprobedRep(g, m.perturbed(null, -m.value(null)), 1)
    assert rep.exact == m.exact == (name == "exonevtwoe")
    lam = next(g.edge_path(e.eid) for e in g.edges if e.range == null.range)
    with pytest.raises(ZeroDenominator, match=re.escape(f"Z({null}) has measure 0")):
        rep.apply_adjoint(lam, (0, 0))


def float_adjoint_table(rep, lam, m):
    """The float-weight branch that _adjoint_table kept beside its integer route."""
    g = rep.graph
    join = deg_join(m, lam.degree)
    dst, heads, table = deg_sub(join, lam.degree), g.cut(join, m)[0], {}
    rows = sorted((heads[j], alpha, j) for alpha, j in rep._rows(lam.degree, dst)[g.index(lam)])
    top, blk = rep.measure.values(join), rep.measure.values(m)
    for i, alpha, j in rows:
        ratio = top[j] / blk[i]
        table.setdefault(i, {})[alpha] = 1 if ratio == 1 else float(ratio) ** 0.5
    return table


@pytest.mark.parametrize("name", ["ex3v8e", "kawamura"])
def test_float_adjoint_coefficients_match_the_float_route_bit_for_bit(name):
    g = builtin_graph(name)
    rep = standard_rep(g, pf_measure(g), 2)
    assert not rep.exact

    def bits(table):
        return {i: {a: float(c).hex() for a, c in outs.items()} for i, outs in table.items()}

    lams = [lam for n in deg_grid(g.k, 2) for lam in g.enumerate_paths(n)]
    for m in rep.block_keys():
        for lam in lams:
            if deg_join(m, lam.degree) in rep.block_keys():
                got = rep.apply_adjoint(lam, m).table
                assert bits(got) == bits(float_adjoint_table(rep, lam, m)), (lam, m)


def test_standard_tables_need_no_path_algebra(monkeypatch):
    calls = collections.Counter()
    for name in ("compose", "lambda_min", "strip_prefix"):
        method = getattr(KGraph, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(KGraph, name, counted)
    g = builtin_graph("lambda2N:N=2")
    measure = pf_measure(g)
    rep = standard_rep(g, measure, 2)
    keys = rep.block_keys()
    built = 0
    for m in keys:
        for n in keys:
            for lam in g.enumerate_paths(n):
                built += rep.apply_path(lam, m) is not None
                built += rep.apply_adjoint(lam, m) is not None
                rep.pvm_mask(lam, m)
        for target in keys:
            if all(a <= b for a, b in zip(m, target)):
                rep.refinement(m, target)
    assert built > 0
    assert calls == {}


def fraction_weights(rep, m):
    """The weights of block m as Fractions (ints on exact measures read
    through CylinderMeasure.values, floats on float ones); 1 on KP reps."""
    if rep.measure is None:
        return [Fraction(1)] * rep.block_dim(m)
    return rep.measure.values(m)


def fraction_refinement(rep, m, target):
    """refinement's coefficients from the Fraction weights, in hex."""
    deep, blk = fraction_weights(rep, target), fraction_weights(rep, m)
    off, out = rep.graph.glue(m, deg_sub(target, m))
    return {i: {j: ((float(deep[j]) / float(blk[i])) ** 0.5).hex() for j in out[off[i]:off[i + 1]]}
            for i in range(len(blk))}


WEIGHT_ROUTE_REPS = {
    "pf-lambda2N:N=2": lambda: shallow_standard_rep("lambda2N:N=2", 3),
    "pf-ex3v8e": lambda: shallow_standard_rep("ex3v8e", 3),
    "pf-ehfg": lambda: shallow_standard_rep("ehfg", 3),
    "pf-exonevtwoe": lambda: shallow_standard_rep("exonevtwoe", 3),
    "markov-exact": lambda: standard_rep(builtin_graph("exonevtwoe"), markov_measure(
        builtin_graph("exonevtwoe"), t_x_matrix(Fraction(1, 3))), 3),
    # depth 4 at x = 2/7: one correctly rounded division of the cross-products
    # would differ from the Fraction route in 60 of 1,935 coefficients
    "markov-exact-2/7": lambda: standard_rep(builtin_graph("exonevtwoe"), markov_measure(
        builtin_graph("exonevtwoe"), t_x_matrix(Fraction(2, 7))), 4),
    "markov-float": lambda: standard_rep(builtin_graph("exonevtwoe"), markov_measure(
        builtin_graph("exonevtwoe"), t_x_matrix(0.3)), 3),
    "product": lambda: standard_rep(builtin_graph("exonevtwoe"), product_measure(
        builtin_graph("exonevtwoe"), parse_product_spec("const:0")), 3),
    "kp-ex3v8e": lambda: KPRep(builtin_graph("ex3v8e"), 3),
}


@pytest.mark.parametrize("make", WEIGHT_ROUTE_REPS.values(), ids=WEIGHT_ROUTE_REPS)
def test_refinement_and_unit_vector_match_the_fraction_weights_bit_for_bit(make, monkeypatch):
    # int true division and float(Fraction) are both correctly rounded, so the
    # integer route builds no Fraction and gives the floats of the Fraction route
    rep = make()
    keys = rep.block_keys()
    pairs = [(m, target) for m in keys for target in keys
             if all(a <= b for a, b in zip(m, target))]
    for m in keys:
        rep._numerators(m)  # read the weights before counting
    built, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
    units = {m: rep.unit_vector(m) for m in keys}
    tables = {pair: rep.refinement(*pair).table for pair in pairs}
    monkeypatch.undo()
    assert built == []
    for m in keys:
        assert [x.hex() for x in units[m]] == [
            (float(w) ** 0.5).hex() for w in fraction_weights(rep, m)]
    for pair, got in tables.items():
        assert {i: {j: c.hex() for j, c in row.items()} for i, row in got.items()} == (
            fraction_refinement(rep, *pair)), pair


def test_standard_rep_builds_no_path_blocks():
    # blocks are degrees over tail arrays.  A pf rep runs no usability probe;
    # on the induced measure of a KP rep, which gives its base block as
    # numerators, the probe's batch of each edge degree builds that Path
    # block (on the vertex block) as its memo keys.
    for name, make, depth, probed in [
            ("lambda2N:N=2", pf_measure, 6, set()),
            ("exonevtwoe", lambda g: induced_measure(KPRep(g, 4)), 3, {(0, 0), (1, 0), (0, 1)})]:
        g = builtin_graph(name)
        rep = standard_rep(g, make(g), depth)
        top = (depth, depth)
        assert set(g._blocks) == probed, name
        assert rep.block_keys() == list(deg_grid(2, depth))
        assert [rep.block_dim(m) for m in rep.block_keys()] == [
            len(g.tails(m).sources) for m in deg_grid(2, depth)]
        assert rep.unit_vector(top) and rep.refinement((depth - 1, depth - 1), top).table
        assert set(g._blocks) == probed, name
        assert rep.block((1, 1)) == g.enumerate_paths((1, 1))
        with pytest.raises(KeyError):
            rep.block((depth + 1, 0))
        with pytest.raises(KeyError):
            rep.block_dim((depth + 1, 0))


# -- faithful representation ---------------------------------------------------------


def test_faithful_vertex_projections_nonzero():
    for name in ("ex3v8e", "ehfg", "kawamura"):
        g = builtin_graph(name)
        rep = faithful_rep(g, depth=4)
        for v in g.vertices:
            nonzero = False
            for key in rep.block_keys():
                t = op_forward(rep, g.vertex_path(v), key)
                if t is not None and not t.is_zero():
                    nonzero = True
                    break
            assert nonzero, (name, v)


def test_faithful_gauge_covariance_exact():
    g = builtin_graph("ex3v8e")
    rep = faithful_rep(g, depth=4)
    report = gauge_covariance(rep)
    assert report.structural_ok
    assert report.max_residual == 0.0


# -- faithful tables against the label actions -----------------------------------------


def ck_paths(g):
    """Every path verify_ck(max_level=2) acts by: vertices, edges, the CK2
    composites and the paths of degree (1,..,1) and (2,..,2) of CK4."""
    pool = [g.edge_path(e.eid) for e in g.edges] + [g.vertex_path(v) for v in g.vertices]
    composites = [g.compose(lam, eta) for lam in pool for eta in pool if g.s(lam) == eta.range]
    levels = [lam for n in (deg_diag(g.k, 1), deg_diag(g.k, 2)) for lam in g.enumerate_paths(n)]
    return list(dict.fromkeys(pool + composites + levels))


def reference_label_table(rep, action, lam, key, dst):
    """A block table read off a label action, one label at a time."""
    keys = rep.block_keys()
    if key not in keys or dst not in keys:
        return None
    index = {label: t for t, label in enumerate(rep.block(dst))}
    table = {}
    for t, label in enumerate(rep.block(key)):
        out = action(lam, label)
        if out is operators.ESCAPE:
            return None  # escapes the truncation: whole block undefined
        if out is not None:
            table[t] = {index[out]: 1}
    return table


def assert_faithful_tables_match_label_actions(rep):
    """Forward and adjoint tables of every CK path on every block; returns
    the number of defined and of undefined tables compared."""
    seen = collections.Counter()
    for lam in ck_paths(rep.graph):
        for key in rep.block_keys():
            for apply, action, dst in (
                (rep.apply_path, rep.forward_label, deg_add(key, lam.degree)),
                (rep.apply_adjoint, rep.adjoint_label, deg_sub(key, lam.degree)),
            ):
                op = apply(lam, key)
                want = reference_label_table(rep, action, lam, key, dst)
                assert rows_of(op and op.table) == rows_of(want), (lam, key, action.__name__)
                assert op is None or (op.src_key, op.dst_key) == (key, dst)
                seen[op is not None] += 1
    return seen[True], seen[False]


FAITHFUL_CASES = {
    "ex3v8e": ("ex3v8e", 4, None),
    "exonevtwoe": ("exonevtwoe", 4, None),
    "lambda2N:N=2": ("lambda2N:N=2", 2, None),
    "kawamura": ("kawamura", 4, None),
    "ehfg": ("ehfg", 3, None),
    "ex3v8e-cap2": ("ex3v8e", 4, 2),
    "kawamura-cap1": ("kawamura", 3, 1),
}


@pytest.mark.parametrize("name, depth, cap", FAITHFUL_CASES.values(), ids=FAITHFUL_CASES)
def test_faithful_tables_match_the_label_actions(name, depth, cap):
    rep = faithful_rep(builtin_graph(name), depth=depth, cap=cap)
    defined, undefined = assert_faithful_tables_match_label_actions(rep)
    assert defined and undefined


def test_faithful_tables_match_the_label_actions_on_a_4_graph():
    rep = faithful_rep(four_graph(), depth=1)
    assert assert_faithful_tables_match_label_actions(rep) == (680, 3896)


@pytest.mark.parametrize("k", [2, 3])
def test_faithful_tables_match_the_label_actions_on_random_graphs(k):
    for g in strongly_connected_draws(k, 6):
        rep = faithful_rep(g, depth=2)
        defined, undefined = assert_faithful_tables_match_label_actions(rep)
        assert defined and undefined


def test_faithful_tables_match_the_label_actions_summed_over_vertices():
    g = builtin_graph("exonevthreeed")  # not strongly connected
    rep = faithful_rep(g, depth=3, sum_over_vertices=True)
    for part in rep.parts:
        defined, undefined = assert_faithful_tables_match_label_actions(part)
        assert defined and undefined


class OffByOneBlock:
    """Negative control: forward maps land one block past key + d(lam)."""

    def __init__(self, rep):
        self.rep = rep
        self.graph = rep.graph

    def block_keys(self):
        return self.rep.block_keys()

    def apply_path(self, lam, key):
        op = self.rep.apply_path(lam, key)
        if op is None:
            return None
        dst = deg_add(op.dst_key, (1,) + (0,) * (self.graph.k - 1))
        return operators._Op(op.src_key, dst, op.dst, op.coef, op.rows)


def test_gauge_covariance_fails_on_a_shifted_block_map():
    g = builtin_graph("ex3v8e")
    report = gauge_covariance(OffByOneBlock(faithful_rep(g, depth=4)))
    assert not report.structural_ok
    assert report.max_residual == 2.0


def test_faithful_sum_over_vertices():
    g = builtin_graph("exonevthreeed")  # not strongly connected
    rep = faithful_rep(g, depth=3, sum_over_vertices=True)
    assert isinstance(rep, DirectSumRep)
    for v in g.vertices:
        nonzero = False
        for key in rep.block_keys():
            t = op_forward(rep, g.vertex_path(v), key)
            if t is not None and not t.is_zero():
                nonzero = True
                break
        assert nonzero


def test_tail_equivalence_intertwines():
    g = builtin_graph("ex3v8e")
    seg = g.enumerate_paths((1, 1), "v")[0]
    other = [w for w in g.enumerate_paths((1, 1), g.s(seg)) if g.s(w) == seg.range]
    rule_x = PrefixRule(g, [seg, other[0]])
    rule_y = PrefixRule(g, [other[0], seg])  # y = sigma^(1,1)(x)
    rep_x = faithful_rep(g, rule_x, depth=5, cap=3)
    rep_y = faithful_rep(g, rule_y, depth=5, cap=3)
    phi = tail_equivalence_map(rep_x, rep_y, (1, 1), (0, 0))
    assert phi
    # injective where defined
    images = list(phi.values())
    keys = {(i, mu.range, mu.edges) for i, mu in images}
    assert len(keys) == len(images)
    # intertwines the generators: phi(T^x_lam u) = T^y_lam phi(u)
    checked = 0
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for (i, vr, ed), out in phi.items():
            mu = next(
                muu
                for kk in rep_x.block_keys()
                for (ii, muu) in rep_x.block(kk)
                if ii == i and (muu.range, muu.edges) == (vr, ed)
            )
            if g.s(lam) != mu.range:
                continue
            tx = rep_x._reduce(i, g.compose(lam, mu))
            if (i := None) is None:
                pass
            key_tx = (tx[0], tx[1].range, tx[1].edges)
            if key_tx not in phi:
                continue
            ty = rep_y._reduce(out[0], g.compose(lam, out[1]))
            assert phi[key_tx] == ty
            checked += 1
    assert checked > 0


# -- witness for non-faithfulness ---------------------------------------------------


def test_nonfaithful_witness_ehfg():
    g = builtin_graph("ehfg")
    report = nonfaithful_witness(g, pf_measure(g), depth=4)
    assert report.norm_standard < 1e-12
    assert report.norm_faithful_on_delta >= 1.0
    assert report.omega_twist_gap == 0.0  # rho = (1,1) so the twist branch applies


def reference_embed(srep, vec, m, target):
    """Refine a block-m coefficient vector into block target >= m: the
    vector form of StandardRep.refinement, which replaced it."""
    g = srep.graph
    if m == target:
        return vec
    out = np.zeros(srep.block_dim(target))
    for i, eta in enumerate(srep.block(m)):
        if vec[i] == 0:
            continue
        w_eta = float(srep.weight(eta))
        for ext in g.enumerate_paths(deg_sub(target, m), g.s(eta)):
            deeper = g.compose(eta, ext)
            coef = (float(srep.weight(deeper)) / w_eta) ** 0.5
            out[g.index(deeper)] += vec[i] * coef
    return out


@pytest.mark.parametrize("name, spec", [("ex3v8e", None), ("exonevtwoe", "1/3")])
def test_refinement_matches_embedding_reference(name, spec):
    g = builtin_graph(name)
    measure = pf_measure(g) if spec is None else markov_measure(g, t_x_matrix(Fraction(spec)))
    srep = standard_rep(g, measure, 2)
    for m in srep.block_keys():
        for target in srep.block_keys():
            if not all(a <= b for a, b in zip(m, target)):
                continue
            mat = matrix(srep.refinement(m, target), srep)
            for i in range(srep.block_dim(m)):
                unit = np.zeros(srep.block_dim(m))
                unit[i] = 1.0
                assert mat[:, i].tolist() == reference_embed(srep, unit, m, target).tolist()


@pytest.mark.parametrize("name", ["ehfg", "ex3v8e"])
@pytest.mark.parametrize("depth", [3, 4])
def test_nonfaithful_witness_norm_matches_embedding_reference(name, depth):
    g = builtin_graph(name)
    report = nonfaithful_witness(g, pf_measure(g), depth=depth)
    mu, nu = report.mu, report.nu
    srep = standard_rep(g, pf_measure(g), depth)
    deep = deg_diag(g.k, depth)
    base = deg_sub(deep, tuple(max(b - a, 0) for a, b in zip(mu.degree, nu.degree)))

    def embedded_matrix(op):
        mat = np.zeros((srep.block_dim(deep), srep.block_dim(base)))
        for src, outs in op.table.items():
            for dst, coef in outs.items():
                vec = np.zeros(srep.block_dim(op.dst_key))
                vec[dst] = float(coef)
                mat[:, src] += reference_embed(srep, vec, op.dst_key, deep)
        return mat

    first = operators._outer(srep, mu, mu, base)
    second = operators._outer(srep, nu, mu, base)
    diff = embedded_matrix(first) - report.scale * embedded_matrix(second)
    assert report.norm_standard == float(np.linalg.norm(diff, 2))


def test_nonfaithful_witness_needs_period():
    g = builtin_graph("kawamura")
    with pytest.raises(NoPeriodFound):
        nonfaithful_witness(g, pf_measure(g), depth=3)


# -- projection-valued measure --------------------------------------------------------


def test_pvm_is_indicator_diagonal():
    g = builtin_graph("ex3v8e")
    rep = standard_rep(g, pf_measure(g), 3)
    lam = g.path(["a0", "b0"])
    p = pvm(rep, lam, (2, 2))
    mat = matrix(p, rep)
    mask = rep.pvm_mask(lam, (2, 2))
    assert np.allclose(mat, np.diag(mask), atol=1e-12)


def reference_self_adjoint_residual(p, rep):
    """max |P - P^T| through a dense matrix, the check the transpose replaced."""
    mat = matrix(p, rep)
    return float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0


def reps_of(name):
    """The standard (pf), KP and faithful reps a builtin graph has."""
    g = builtin_graph(name)
    reps = [KPRep(g, 2)]
    if g.is_strongly_connected():
        reps += [standard_rep(g, pf_measure(g), 2), faithful_rep(g, depth=3)]
    return reps


@pytest.mark.parametrize("name", BUILTIN_GRAPH_NAMES)
def test_projection_residual_matches_dense_reference(name):
    for rep in reps_of(name):
        g = rep.graph
        worst, checked = 0.0, 0
        for key in rep.block_keys():
            for n in deg_grid(g.k, 1):
                for lam in g.enumerate_paths(n):
                    p = pvm(rep, lam, key)
                    if p is None:
                        continue
                    self_adjoint = reference_self_adjoint_residual(p, rep)
                    assert p.residual_vs(p.transpose()) == self_adjoint
                    worst = max(worst, p.then(p).residual_vs(p), self_adjoint)
                    checked += 1
        assert checked, rep.kind
        projection = pvm_additivity(rep, depth=1).checks[0]
        assert (projection.relation, projection.residual, projection.blocks_checked) == (
            "projection", worst, checked), rep.kind


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(500, 504))
def test_transpose_matches_dense_transpose_on_random_kp_reps(k, seed):
    rep = KPRep(random_graph(random.Random(seed), k), 2 if k == 2 else 1)
    g = rep.graph
    compared = 0
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for key in rep.block_keys():
            for op in (op_forward(rep, lam, key), op_adjoint(rep, lam, key)):
                if op is not None:
                    assert np.array_equal(matrix(op.transpose(), rep), matrix(op, rep).T)
                    compared += 1
    assert compared


# -- block operators against the dict-of-dicts operator they replaced -----------------


class ReferenceOp:
    """The dict-of-dicts block operator that _Op replaced: src_key -> dst_key,
    table {src index: {dst index: coef}}."""

    def __init__(self, table, src_key, dst_key):
        self.table = table
        self.src_key = src_key
        self.dst_key = dst_key

    def scaled(self, factor):
        table = {s: {d: c * factor for d, c in outs.items()} for s, outs in self.table.items()}
        return ReferenceOp(table, self.src_key, self.dst_key)

    def moved(self, src_offset, dst_offset):
        """The same operator with its source and destination indices offset."""
        table = {
            src_offset + s: {dst_offset + d: c for d, c in outs.items()}
            for s, outs in self.table.items()
        }
        return ReferenceOp(table, self.src_key, self.dst_key)

    def transpose(self):
        table = {}
        for s, outs in self.table.items():
            for d, c in outs.items():
                table.setdefault(d, {})[s] = c
        return ReferenceOp(table, self.dst_key, self.src_key)

    def then(self, other):
        """other o self (apply self first)."""
        if other is None:
            return None
        if other.src_key != self.dst_key:
            raise ValueError(
                f"cannot compose: block {self.dst_key} feeds block {other.src_key}"
            )
        table = {}
        for src, outs in self.table.items():
            acc = {}
            for mid, c1 in outs.items():
                for dst, c2 in other.table.get(mid, {}).items():
                    acc[dst] = acc.get(dst, 0) + c1 * c2
            acc = {d: c for d, c in acc.items() if c != 0}
            if acc:
                table[src] = acc
        return ReferenceOp(table, self.src_key, other.dst_key)

    def add(self, other, sign=1):
        if (self.src_key, self.dst_key) != (other.src_key, other.dst_key):
            raise ValueError(
                f"cannot add: block map {self.src_key} -> {self.dst_key} and "
                f"{other.src_key} -> {other.dst_key}"
            )
        table = {}
        for s in set(self.table) | set(other.table):
            acc = dict(self.table.get(s, {}))
            for d, c in other.table.get(s, {}).items():
                acc[d] = acc.get(d, 0) + sign * c
            table[s] = acc
        return ReferenceOp(table, self.src_key, self.dst_key)

    def residual_vs(self, other):
        return self.add(other, sign=-1).max_abs()

    def max_abs(self):
        """Largest absolute coefficient; 0.0 for the zero operator."""
        coefs = (abs(float(c)) for outs in self.table.values() for c in outs.values())
        return max(coefs, default=0.0)

    def is_zero(self):
        return all(c == 0 for outs in self.table.values() for c in outs.values())


def reference_of(op):
    return None if op is None else ReferenceOp(op.table, op.src_key, op.dst_key)


def layout(op):
    return "partial" if op.dst is not None else "rows"


def assert_same_op(op, ref, rep):
    """Equal block keys and entries, each row in its entry order (the order
    in which then sums its products), and equal derived values; rep gives
    the block dimensions."""
    assert (op is None) == (ref is None)
    if op is not None:
        assert (op.src_key, op.dst_key) == (ref.src_key, ref.dst_key)
        assert op.table.keys() == ref.table.keys()
        assert all(list(row.items()) == list(ref.table[s].items()) for s, row in op.table.items())
        assert op.max_abs() == ref.max_abs() and op.is_zero() == ref.is_zero()
        assert np.array_equal(matrix(op, rep), matrix(ref, rep))
        transposed, ref_transposed = op.transpose(), ref.transpose()
        assert transposed.table == ref_transposed.table
        assert (transposed.src_key, transposed.dst_key) == (ref_transposed.src_key, ref_transposed.dst_key)


def assert_algebra_matches_reference(rep, ops):
    """then, add (both signs) and residual_vs of every composable pair and
    every pair on the same blocks of rep; returns the layouts compared."""
    seen = collections.Counter()
    refs = [reference_of(op) for op in ops]
    for a, ref_a in zip(ops, refs):
        assert_same_op(a, ref_a, rep)
        for b, ref_b in zip(ops, refs):
            if a.dst_key == b.src_key:
                assert_same_op(a.then(b), ref_a.then(ref_b), rep)
                seen["then", layout(a), layout(b)] += 1
            if (a.src_key, a.dst_key) == (b.src_key, b.dst_key):
                for sign in (1, -1):
                    total = a.add(b, sign)
                    assert_same_op(total, ref_a.add(ref_b, sign), rep)
                    seen["add", layout(a), layout(b), layout(total)] += 1
                    seen["zero coefficient"] += any(
                        c == 0 for row in total.table.values() for c in row.values())
                assert a.residual_vs(b) == ref_a.residual_vs(ref_b)
    return seen


def algebra_reps(k):
    """Standard (pf), KP and faithful reps of a random k-graph with two vertices."""
    depth = 2 if k == 2 else 1
    g = random_graph(random.Random(515 if k == 2 else 513), k)
    assert g.is_strongly_connected() and len(g.vertices) == 2
    return [standard_rep(g, pf_measure(g), depth), KPRep(g, depth), faithful_rep(g, depth=depth)]


SCALE_FACTORS = [Fraction(1, 3), 0.5, 0]


def algebra_ops(rep):
    """The forward and adjoint operators of every edge and vertex on every
    block, the edges' scaled through ScaledRep, and the sums
    t_e t_e^* + t_f t_f^* of edge pairs."""
    g = rep.graph
    edges = [g.edge_path(e.eid) for e in g.edges]
    lams = edges + [g.vertex_path(v) for v in g.vertices]
    ops = [op for key in rep.block_keys() for lam in lams
           for op in (op_forward(rep, lam, key), op_adjoint(rep, lam, key)) if op is not None]
    for factor in SCALE_FACTORS:
        scaled = ScaledRep(rep, g.edges[0].eid, factor)
        ops += [op for key in rep.block_keys() for lam in edges
                if (op := scaled.apply_path(lam, key)) is not None]
    for key in rep.block_keys():
        outers = [op for lam in edges if (op := operators._outer(rep, lam, lam, key)) is not None]
        ops += [a.add(b) for a, b in zip(outers, outers[1:]) if a.dst_key == b.dst_key]
    return ops


@pytest.mark.parametrize("k", [2, 3])
def test_block_operator_algebra_matches_the_dict_reference_on_random_reps(k):
    seen = collections.Counter()
    for rep in algebra_reps(k):
        seen.update(assert_algebra_matches_reference(rep, algebra_ops(rep)))
    # every pairing of layouts, a sum that stays a partial map, one that
    # sends a source to two places, and zero coefficients were compared
    for x, y in itertools.product(["partial", "rows"], repeat=2):
        assert seen["then", x, y] and any(key[:3] == ("add", x, y) for key in seen)
    assert seen["add", "partial", "partial", "partial"] and seen["add", "partial", "partial", "rows"]
    assert seen["zero coefficient"]


@pytest.mark.parametrize("k", [2, 3])
def test_scaled_and_moved_operators_match_the_dict_reference(k):
    compared = 0
    for rep in algebra_reps(k):
        g = rep.graph
        eid = g.edges[0].eid
        total = DirectSumRep([rep, rep])
        lams = [g.edge_path(e.eid) for e in g.edges] + [g.vertex_path(v) for v in g.vertices]
        for key in rep.block_keys():
            for lam, action in itertools.product(lams, ["apply_path", "apply_adjoint"]):
                ref = reference_of(getattr(rep, action)(lam, key))
                for factor in SCALE_FACTORS:
                    want = ref and ref.scaled(factor ** lam.edges.count(eid))
                    assert_same_op(getattr(ScaledRep(rep, eid, factor), action)(lam, key), want, rep)
                # the sum stacks the two copies at their offsets
                if ref is not None:
                    src, dst = rep.block_dim(key), rep.block_dim(ref.dst_key)
                    ref = ref.moved(0, 0).add(ref.moved(src, dst))
                    compared += 1
                assert_same_op(getattr(total, action)(lam, key), ref, total)
    assert compared


@pytest.mark.parametrize(
    "make",
    [
        lambda g: standard_rep(g, pf_measure(g), 2),
        lambda g: KPRep(g, 2),
        lambda g: faithful_rep(g, depth=3),
        lambda g: DirectSumRep([KPRep(g, 2), KPRep(g, 2)]),
        lambda g: faithful_rep(g, depth=3, sum_over_vertices=True),
    ],
    ids=["standard", "kp", "faithful", "kp-sum", "faithful-sum"],
)
def test_op_forward_returns_the_reps_own_operator(make):
    rep = make(builtin_graph("ex3v8e"))
    g = rep.graph
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for key in rep.block_keys():
            assert op_forward(rep, lam, key) is rep.apply_path(lam, key)
            assert op_adjoint(rep, lam, key) is rep.apply_adjoint(lam, key)


class Conjugated:
    """Negative control: each block operator conjugated by S = I + E_10 on
    its blocks, so every P(Z(lam)) stays idempotent but is not self-adjoint."""

    def __init__(self, rep):
        self.rep = rep
        self.graph = rep.graph

    def block_keys(self):
        return self.rep.block_keys()

    def _s(self, key, sign):
        table = {i: {i: 1} for i in range(self.rep.block_dim(key))}
        if len(table) > 1:
            table[0][1] = sign
        return operators._Op(key, key, rows=table)

    def _conjugated(self, op):
        if op is None:
            return None
        return self._s(op.src_key, -1).then(op).then(self._s(op.dst_key, 1))

    def apply_path(self, lam, key):
        return self._conjugated(self.rep.apply_path(lam, key))

    def apply_adjoint(self, lam, key):
        return self._conjugated(self.rep.apply_adjoint(lam, key))


def test_pvm_projection_fails_when_not_self_adjoint():
    report = pvm_additivity(Conjugated(KPRep(builtin_graph("exonevtwoe"), 2)))
    assert not report.ok
    assert {c.relation: c.residual for c in report.checks} == {
        "projection": 1.0, "additivity": 0.0, "transport": 0.0, "shift_pullback": 0.0
    }


def test_pvm_additivity_and_transport():
    g = builtin_graph("ex3v8e")
    rep = standard_rep(g, pf_measure(g), 3)
    report = pvm_additivity(rep, depth=1)
    assert report.ok, report.checks
    assert report.max_residual < 1e-12
    # checked per identity: projection, additivity, transport, shift_pullback
    assert [c.blocks_checked for c in report.checks] == [198, 99, 96, 288]
    assert all(c.residual == 0.0 for c in report.checks)


def shallow_standard_rep(name, depth):
    g = builtin_graph(name)
    return standard_rep(g, pf_measure(g), depth)


@pytest.mark.parametrize("build, unchecked", [
    (lambda: faithful_rep(builtin_graph("exonevtwoe"), depth=0),
     ["projection", "additivity", "transport", "shift_pullback"]),
    (lambda: shallow_standard_rep("ex3v8e", 1), ["transport", "shift_pullback"]),
], ids=["faithful-exonevtwoe-0", "standard-ex3v8e-1"])
def test_pvm_identity_checked_on_no_block_fails(build, unchecked):
    # a vacuous identity is no evidence: the report fails as verify_ck does
    report = pvm_additivity(build(), depth=1)
    assert [c.relation for c in report.checks if not c.blocks_checked] == unchecked
    assert report.max_residual == 0.0
    assert not report.ok


def test_pvm_discrete_exact():
    g = builtin_graph("exonevtwoe")
    rep = faithful_rep(g, depth=4)
    report = pvm_additivity(rep, depth=1)
    assert report.ok
    assert report.max_residual == 0.0
    assert [c.blocks_checked for c in report.checks] == [183, 70, 78, 78]
    assert all(c.residual == 0.0 for c in report.checks)


# -- induced measures --------------------------------------------------------------------


def test_induced_measure_reproduces_exact():
    g = builtin_graph("exonevtwoe")
    m = pf_measure(g)
    rep = standard_rep(g, m, 3)
    ind = induced_measure(rep)
    for n1 in range(3):
        for n2 in range(3):
            for lam in g.enumerate_paths((n1, n2)):
                assert ind.value(lam) == m.value(lam)


def test_induced_measure_float_tolerance():
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    rep = standard_rep(g, m, 3)
    ind = induced_measure(rep)
    for lam in g.enumerate_paths((1, 1)):
        assert abs(ind.value(lam) - m.value(lam)) < 1e-12


def test_induced_measure_point_mass_and_zero():
    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 3)
    block = (3, 3)
    omega = rep.block(block)[0]
    xi = np.zeros(rep.block_dim(block))
    xi[0] = 1.0
    ind = induced_measure(rep, xi=xi, block=block)
    for n in range(3):
        for lam in g.enumerate_paths((n, n)):
            expected = 1.0 if g.factorize(omega, (n, n))[0] == lam else 0.0
            assert ind.value(lam) == expected
    zero = induced_measure(rep, xi=np.zeros(rep.block_dim(block)), block=block)
    assert zero.value(g.vertex_path("v")) == 0.0


def reference_block_scan(rep, block):
    """induced_measure before CylinderMeasure summed it: scan the whole block
    for the paths with prefix lam and add up their weights."""
    g = rep.graph

    def fn(path):
        total = 0 if rep.measure is None or not rep.measure.exact else Fraction(0)
        for eta in rep.block(block):
            if g.strip_prefix(eta, path) is not None:
                total += rep.weight(eta)
        return total

    return fn


@pytest.mark.parametrize("name", ["exonevtwoe", "ex3v8e", "lambda2N:N=1"])
def test_induced_measure_matches_block_scan(name):
    g, cases = measures_for(name)
    for tag, m in cases:
        rep = standard_rep(g, m, 2)
        ind = induced_measure(rep)
        scan = reference_block_scan(rep, (2, 2))
        for n in deg_grid(g.k, 2):
            for lam in g.enumerate_paths(n):
                if m.exact:
                    assert ind.value(lam) == scan(lam), (tag, lam)
                    assert type(ind.value(lam)) is type(scan(lam))
                else:
                    assert abs(ind.value(lam) - scan(lam)) <= 1e-12, (tag, lam)


@pytest.mark.parametrize("name", ["exonevtwoe", "ex3v8e", "ehfg"])
def test_induced_measure_of_a_kp_rep_counts_block_paths(name):
    g = builtin_graph(name)
    rep = KPRep(g, 2)
    ind = induced_measure(rep)
    scan = reference_block_scan(rep, (2, 2))
    for n in deg_grid(g.k, 2):
        for lam in g.enumerate_paths(n):
            count = sum(g.strip_prefix(eta, lam) is not None for eta in rep.block((2, 2)))
            assert ind.value(lam) == scan(lam) == count
    assert sum(ind.value(g.vertex_path(v)) for v in g.vertices) == rep.block_dim((2, 2))
    with pytest.raises(DepthTooSmall):
        ind.value(g.enumerate_paths((3, 0))[0])


def test_induced_measure_needs_a_path_basis_or_a_vector():
    g = builtin_graph("ex3v8e")
    rep = faithful_rep(g, depth=2)
    with pytest.raises(NoPathBasis):
        induced_measure(rep)
    scaled = ScaledRep(standard_rep(g, pf_measure(g), 2), "a0", 2.0)
    assert induced_measure(scaled).value(g.vertex_path("v")) > 0


# -- monic vector probe ---------------------------------------------------------------------


def test_monic_vector_probe_standard_cyclic():
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, pf_measure(g), 3)
    for level in (1, 2, 3):
        res = monic_vector_probe(rep, level)
        assert res.cyclic, (level, res)


def test_monic_vector_probe_interval_deficit():
    sys = builtin_sbfs("exonevthreeed")
    rep = IntervalDiagonalRep(sys, 3, Fraction(1, 16))
    res = monic_vector_probe(rep, 3)
    assert not res.cyclic
    assert res.span_dim < res.block_dim


def test_monic_vector_probe_interval_cyclic_cross_check():
    sys = builtin_sbfs("exonevtwoe")
    rep = IntervalDiagonalRep(sys, 4, Fraction(1, 16))
    res = monic_vector_probe(rep, 4)
    assert res.cyclic


@pytest.mark.parametrize(
    "name", ["exonevthreeed", "exonevtwoe", "ex3v8e", "kawamura:a=1/2", "double-kawamura"]
)
def test_interval_pvm_mask_matches_subset_loop(name):
    # the per-atom subset loop that pvm_mask replaced
    sys = builtin_sbfs(name)
    for level in range(5):
        rep = IntervalDiagonalRep(sys, level, Fraction(1, 16))
        g = sys.graph
        for n in itertools.product(range(level + 1), repeat=g.k):
            for lam in g.enumerate_paths(n):
                rng = sys.path_range_1d(lam)
                old = [float(IntervalUnion.interval(lo, hi).is_subset_of(rng))
                       for lo, hi in rep.atoms]
                assert rep.pvm_mask(lam, None) == old, (name, level, lam)


def test_interval_pvm_mask_beyond_the_level_raises_depth_too_small():
    sys = builtin_sbfs("exonevtwoe")
    rep = IntervalDiagonalRep(sys, 2, Fraction(1, 16))
    deep = sys.graph.enumerate_paths((3, 0))[0]
    with pytest.raises(DepthTooSmall):
        rep.pvm_mask(deep, None)


@pytest.mark.parametrize("name", ["noncstrn", "product-kawamura"])
def test_interval_diagonal_rep_needs_a_1d_system(name):
    with pytest.raises(DimensionUnsupported):
        IntervalDiagonalRep(builtin_sbfs(name), 1, Fraction(1, 16))


def test_monic_vector_probe_single_vector():
    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 2)
    xi = np.zeros(rep.block_dim((2, 2)))
    xi[0] = 1.0
    res = monic_vector_probe(rep, 2, xi=xi)
    assert res.span_dim == 1
    assert not res.cyclic


def test_monic_vector_probe_above_the_rep_depth_raises_depth_too_small():
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, pf_measure(g), 2)
    with pytest.raises(DepthTooSmall, match="level 3 is above the rep depth 2"):
        monic_vector_probe(rep, 3)
    assert monic_vector_probe(rep, 2).cyclic


@pytest.mark.parametrize("route", ["xi", "weights"])
def test_induced_measure_deeper_than_its_block_raises_depth_too_small(route):
    # the xi route gave 0.0 here, and the consistency check failed at e.e
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, pf_measure(g), 2)
    xi = rep.unit_vector((2, 2)) if route == "xi" else None
    m = induced_measure(rep, xi=xi, block=(2, 2))
    for n in [(3, 3), (3, 0), (0, 3)]:
        with pytest.raises(DepthTooSmall):
            m.value(g.enumerate_paths(n)[0])
    with pytest.raises(DepthTooSmall):
        check_consistency(m, 2)
    assert check_consistency(m, 1).ok


def numpy_mask(rep, lam, block):
    """The mask of P(Z(lam)) as the numpy route built it, its indices read
    from the path algebra (strip_prefix) or from the atoms' subset tests."""
    if isinstance(rep, IntervalDiagonalRep):
        rng = rep.sys.path_range_1d(lam)
        hits = [i for i, (lo, hi) in enumerate(rep.atoms)
                if IntervalUnion.interval(lo, hi).is_subset_of(rng)]
    else:
        hits = [i for i, eta in enumerate(rep.block(block))
                if rep.graph.strip_prefix(eta, lam) is not None]
    mask = np.zeros(rep.block_dim(block))
    mask[hits] = 1.0
    return mask


def numpy_unit_vector(rep, block):
    if isinstance(rep, IntervalDiagonalRep):
        return np.sqrt(np.array([float(hi - lo) for lo, hi in rep.atoms]))
    return np.sqrt(np.array([float(rep.weight(eta)) for eta in rep.block(block)]))


def test_former_numpy_routes_run_without_numpy():
    """Every route that ran on numpy, in an interpreter where importing numpy
    fails, against the numpy reference computed here."""
    script = ('import json, sys\nsys.modules["numpy"] = None\nimport numpy_free_routes\n'
              "print(json.dumps(numpy_free_routes.results()))\n")
    path = os.pathsep.join([str(pathlib.Path(operators.__file__).parents[1]),
                            str(pathlib.Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    for label, rep, level, xi in numpy_free_routes.probe_cases():
        block = deg_diag(rep.graph.k, level)
        unit = numpy_unit_vector(rep, block)
        masks = [numpy_mask(rep, lam, block) for lam in numpy_free_routes.probe_paths(rep.graph, level)]
        vec = unit if xi is None else np.array(xi)
        rank = int(np.linalg.matrix_rank(np.array([mask * vec for mask in masks]), tol=1e-9))
        assert got["probes"][label] == {"unit": unit.tolist(), "masks": [m.tolist() for m in masks],
                                        "rank": rank}, label
    assert got["probes"]["interval ex3v8e 3"]["rank"] == 24
    assert got["probes"]["kp exonevtwoe single vector"]["rank"] == 1
    for label, rep, block, xi in numpy_free_routes.induced_cases():
        vec = np.array(xi)
        want = [float(np.dot(vec * numpy_mask(rep, lam, block), vec))
                for lam in numpy_free_routes.probe_paths(rep.graph, block[0])]
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                   for a, b in zip(got["induced"][label], want, strict=True)), label
    for name in numpy_free_routes.WITNESS_GRAPHS:
        g = builtin_graph(name)
        report = nonfaithful_witness(g, pf_measure(g), 4)
        srep, diff = numpy_free_routes.witness_difference(g, 4, report.mu, report.nu, report.scale)
        assert got["witness"][name] == float(np.linalg.norm(matrix(diff, srep), 2)) == 0.0, name
    for label, rep, op in numpy_free_routes.difference_cases():
        want = float(np.linalg.norm(matrix(op, rep), 2))
        assert want > 0 and math.isclose(got["norms"][label], want, rel_tol=1e-12), label


# -- orbits and atoms ---------------------------------------------------------------------------


def test_orbit_equal_prefix_shift():
    g = builtin_graph("ex3v8e")
    z = g.enumerate_paths((3, 3), "v")[0]
    lam = [e for e in g.edges if e.source == "v"][0]
    shifted = g.compose(g.edge_path(lam.eid), z)
    assert orbit_equal(g, z, shifted, 2)


def test_orbit_unequal_distinct_tails():
    # a constant symbol word against an alternating one: the red shift
    # only flips symbols, so no shifted windows can agree
    g = builtin_graph("exonevtwoe")
    seg = {j: g.compose(g.edge_path("e"), g.edge_path(f"f{j}")) for j in (1, 2)}
    z_const = g.compose(seg[1], g.compose(seg[1], seg[1]))
    z_alt = g.compose(seg[1], g.compose(seg[2], seg[1]))
    assert not orbit_equal(g, z_const, z_alt, 1)


def test_orbit_depth_too_small():
    from kgraph_lab.errors import DepthTooSmall

    g = builtin_graph("exonevtwoe")
    z = g.edge_path("f1")  # no degree-(1,1) window inside a (1,0) prefix
    with pytest.raises(DepthTooSmall):
        orbit_equal(g, z, z, 4)


def reference_orbit_equal(g, x, y, depth):
    """orbit_equal on the old shift loop."""
    windows = reference_orbit_windows(g.k, x.degree, y.degree, depth)
    if not windows:
        raise DepthTooSmall("no comparable shift windows at this depth")
    return any(
        g.segment(x, m, deg_add(m, w)) == g.segment(y, n, deg_add(n, w)) for m, n, w in windows
    )


def reference_prefix_has_period(g, prefix, bound):
    """prefix_has_period on the old shift loop."""
    return any(
        g.segment(prefix, m, deg_add(m, w)) == g.segment(prefix, n, deg_add(n, w))
        for m, n, w in reference_period_windows(g.k, prefix.degree, bound)
    )


def test_orbit_and_period_tests_match_the_old_loops():
    rng = random.Random(11)
    seen = collections.Counter()
    for g in shift_window_graphs():
        for _ in range(10):
            y = g.path(random_walk(rng, g, rng.randint(2, 7)))
            # a shifted copy of y, or an unrelated path
            head = g.path(random_walk(rng, g, 1)) if rng.random() < 0.5 else None
            if head is not None and g.s(head) == y.range:
                x = g.compose(head, y)
            else:
                x = g.path(random_walk(rng, g, rng.randint(2, 7)))
            depth = rng.randint(1, 3)
            try:
                want = reference_orbit_equal(g, x, y, depth)
            except DepthTooSmall:
                with pytest.raises(DepthTooSmall):
                    orbit_equal(g, x, y, depth)
                seen["too small"] += 1
            else:
                assert orbit_equal(g, x, y, depth) == want
                seen[want] += 1
            assert prefix_has_period(g, x, depth) == reference_prefix_has_period(g, x, depth)
    assert seen[True] and seen[False] and seen["too small"]


def test_atoms_kp_rank_one():
    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 3)
    report = atoms_report(rep, depth=3)
    assert report.all_rank_one
    assert report.monic_consistent
    assert len(report.atoms) == rep.block_dim((3, 3))


def test_atoms_doubled_rank_two():
    g = builtin_graph("exonevtwoe")
    rep = DirectSumRep([KPRep(g, 3), KPRep(g, 3)])
    report = atoms_report(rep, depth=3)
    assert all(a.rank == 2 for a in report.atoms)
    assert not report.monic_consistent


ATOM_CASES = {
    "ex3v8e-3-at-2": ("ex3v8e", 3, None, 2),
    "exonevtwoe-4-cap2-at-2": ("exonevtwoe", 4, 2, 2),
    "exonevtwoe-4-cap2-at-3": ("exonevtwoe", 4, 2, 3),
}


@pytest.mark.parametrize("name, depth, cap, at", ATOM_CASES.values(), ids=ATOM_CASES)
def test_faithful_atoms_match_a_recount(name, depth, cap, at):
    # the encoding extends past the truncation, so each atom is regrouped one
    # level deeper: it has stabilized when its labels share one deeper prefix
    g = builtin_graph(name)
    rep = faithful_rep(g, depth=depth, cap=cap)
    report = atoms_report(rep, depth=at)
    fibers = {}
    for lab in rep.labels():
        p = rep.encoding_prefix(lab, deg_diag(g.k, at))
        fibers.setdefault((p.range, p.edges), []).append(lab)
    want = []
    for key, labs in sorted(fibers.items()):
        deeper = {rep.encoding_prefix(lab, deg_diag(g.k, at + 1)) for lab in labs}
        want.append((key, len(labs), len(deeper) == 1))
    assert [tuple(a) for a in report.atoms] == want
    assert report.all_rank_one == all(rank == 1 for _, rank, _ in want)
    assert report.stabilized == all(stable for *_, stable in want)


def test_faithful_atoms_recount_sees_both_verdicts():
    stable = collections.Counter()
    for name, depth, cap, at in ATOM_CASES.values():
        rep = faithful_rep(builtin_graph(name), depth=depth, cap=cap)
        stable.update(a.stabilized for a in atoms_report(rep, depth=at).atoms)
    assert stable[True] and stable[False]


# -- permutative structure ------------------------------------------------------------------------


def test_faithful_table_validates():
    g = builtin_graph("ex3v8e")
    rep = faithful_rep(g, depth=5, cap=3)
    table = EncodingTable(rep, max_degree=1)
    assert table.core
    report = permutative_validate(table)
    assert report.ok, report.witnesses
    assert (report.compositions, report.intertwinings) == (232, 228)


def test_kp_table_encoding_is_prefix():
    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 3)
    table = EncodingTable(rep, max_degree=1)
    for lab in table.core[:6]:
        for n in ((1, 0), (0, 1), (1, 1)):
            lam = encoding_map(table, lab, n)
            assert lam == g.factorize(lab, n)[0]


class AliasedRep:
    """Fault injection: forward_label sends one (lam, source) to another image."""

    def __init__(self, rep, lam, source, image):
        self._rep = rep
        self._alias = (lam, source)
        self._image = image

    def __getattr__(self, name):
        return getattr(self._rep, name)

    def forward_label(self, lam, label):
        if (lam, label) == self._alias:
            return self._image
        return self._rep.forward_label(lam, label)


def aliased_rep(rep, n):
    """rep with the first source of the first path of degree n sent to the
    first image of the second, so that two K sets of degree n collide."""
    honest = EncodingTable(rep, max_degree=1)
    lam0, lam1, *_ = (lam for lam in honest.sigma if lam.degree == n)
    src = next(iter(honest.sigma[lam0]))
    dst = next(iter(honest.sigma[lam1].values()))
    return AliasedRep(rep, lam0, src, dst)


def corrupt_table(rep, n):
    """Fault injection: the max_degree 1 table of aliased_rep(rep, n)."""
    return EncodingTable(aliased_rep(rep, n), max_degree=1)


def test_corrupted_table_fails_disjointness():
    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 3)
    table = corrupt_table(rep, (1, 0))
    report = permutative_validate(table)
    assert not report.disjoint_ok


class MisencodedRep:
    """Fault injection: encoding_prefix gives a wrong path for one label at one degree."""

    def __init__(self, rep, label, n):
        self._rep = rep
        self._bad = (label, n)
        right = rep.encoding_prefix(label, n)
        self._wrong = next(p for p in rep.graph.enumerate_paths(n) if p != right)

    def __getattr__(self, name):
        return getattr(self._rep, name)

    def encoding_prefix(self, label, n):
        return self._wrong if (label, n) == self._bad else self._rep.encoding_prefix(label, n)


def test_misencoded_label_fails_coding_intertwining():
    # at max_degree 1 the probe is (1, 1): the coding check at n = (0, 1) reads
    # each coding source at (1, 0), which no other check reads
    rep = KPRep(builtin_graph("exonevtwoe"), 3)
    honest = EncodingTable(rep, max_degree=1)
    assert permutative_validate(honest).ok
    core = set(honest.core)
    bad = next(src for lab in honest.core
               for _, src in [honest.coding(lab, (0, 1))] if src in core)
    table = EncodingTable(MisencodedRep(rep, bad, (1, 0)), max_degree=1)
    report = permutative_validate(table)
    assert not report.ok and not report.intertwine_ok
    assert report.cover_ok and report.disjoint_ok and report.composition_ok
    assert report.witnesses == [("coding-intertwine", lab, (0, 1)) for lab in honest.core
                                if honest.coding(lab, (0, 1))[1] == bad]
    assert report.witnesses


def test_encoding_table_rejects_max_degree_zero():
    # with no degrees every label would be in the core, and the validation
    # would raise deep in the prefix checks instead of reporting
    rep = KPRep(builtin_graph("exonevtwoe"), 2)
    for max_degree in (0, -1):
        with pytest.raises(DepthTooSmall, match="max_degree >= 1"):
            EncodingTable(rep, max_degree)


def test_vacuous_tables_fail():
    # no core label at depth 0; at depth 1 the core labels have degree (1, 1),
    # so no edge keeps them in the truncation: nothing is composed or prefixed
    for name in ("exonevtwoe", "ex3v8e"):
        g = builtin_graph(name)
        empty = permutative_validate(EncodingTable(KPRep(g, 0), max_degree=1))
        assert not empty.ok and not empty.cover_ok
        assert ("cover", "empty core") in empty.witnesses
        shallow = permutative_validate(EncodingTable(KPRep(g, 1), max_degree=1))
        assert shallow.cover_ok and shallow.disjoint_ok
        assert (shallow.compositions, shallow.intertwinings) == (0, 0)
        assert not shallow.ok
        assert not shallow.composition_ok and not shallow.intertwine_ok
        assert ("composition", "no comparisons") in shallow.witnesses
        assert ("intertwine", "no comparisons") in shallow.witnesses


class ReferenceEncodingTable:
    """EncodingTable before its K sets: memberships scans every image table."""

    def __init__(self, rep, max_degree=1):
        g = rep.graph
        self.rep = rep
        self.graph = g
        self.max_degree = max_degree
        self.sigma = {}  # path key -> {label: label}
        self.paths = {}
        labels = rep.labels()
        known = set(labels)
        self.labels = labels
        for n in deg_grid(g.k, max_degree):
            if sum(n) == 0:
                continue
            for lam in g.enumerate_paths(n):
                table = {}
                for lab in labels:
                    out = rep.forward_label(lam, lab)
                    if out in known:
                        table[lab] = out
                self.sigma[(lam.range, lam.edges)] = table
                self.paths[(lam.range, lam.edges)] = lam
        self.core = [
            lab for lab in labels
            if all(len(self.memberships(lab, n)) == 1
                   for n in deg_grid(g.k, max_degree) if sum(n))
        ]

    def memberships(self, label, n):
        hits = []
        for key, table in self.sigma.items():
            lam = self.paths[key]
            if lam.degree != n:
                continue
            for src, out in table.items():
                if out == label:
                    hits.append((lam, src))
        return hits

    def sigma_of(self, lam, label):
        return self.sigma[(lam.range, lam.edges)].get(label)

    def coding(self, label, n):
        hits = self.memberships(label, n)
        return hits[0] if len(hits) == 1 else None


def reference_permutative_validate(table):
    """permutative_validate before its vacuity checks: (ok, cover_ok,
    disjoint_ok, composition_ok, intertwine_ok, witnesses)."""
    g = table.graph
    witnesses = []
    degrees = [n for n in deg_grid(g.k, table.max_degree) if sum(n)]
    disjoint_ok = True
    for n in degrees:
        seen = {}
        for key, tab in table.sigma.items():
            if table.paths[key].degree != n:
                continue
            for out in tab.values():
                if out in seen and seen[out] != key:
                    disjoint_ok = False
                    witnesses.append(("disjointness", n, out))
                seen[out] = key
    cover_ok = True
    for lab in table.core:
        for n in degrees:
            if len(table.memberships(lab, n)) != 1:
                cover_ok = False
                witnesses.append(("cover", n, lab))
    composition_ok = True
    edges = [g.edge_path(e.eid) for e in g.edges]
    for lam in edges:
        for nu in edges:
            if g.s(lam) != nu.range:
                continue
            prod = g.compose(lam, nu)
            if not all(c <= table.max_degree for c in prod.degree):
                continue
            for lab in table.core:
                step1 = table.sigma_of(nu, lab)
                if step1 is None:
                    continue
                step2 = table.sigma_of(lam, step1)
                direct = table.sigma_of(prod, lab)
                if step2 is None or direct is None:
                    continue
                if step2 != direct:
                    composition_ok = False
                    witnesses.append(("composition", lab, repr(lam), repr(nu)))
    intertwine_ok = True
    probe = deg_diag(g.k, max(1, table.max_degree))
    for lab in table.core:
        enc = table.rep.encoding_prefix(lab, probe)
        for lam in edges:
            out = table.sigma_of(lam, lab)
            if out is None:
                continue
            if g.compose(lam, enc) != table.rep.encoding_prefix(out, deg_add(probe, lam.degree)):
                intertwine_ok = False
                witnesses.append(("intertwine", lab, repr(lam)))
        for n in degrees:
            coded = table.coding(lab, n)
            if coded is None:
                continue
            if g.factorize(enc, n)[1] != table.rep.encoding_prefix(coded[1], deg_sub(probe, n)):
                intertwine_ok = False
                witnesses.append(("coding-intertwine", lab, n))
    ok = disjoint_ok and cover_ok and composition_ok and intertwine_ok
    return ok, cover_ok, disjoint_ok, composition_ok, intertwine_ok, witnesses


VACUITY_WITNESSES = {
    ("cover", "empty core"),
    ("composition", "no comparisons"),
    ("intertwine", "no comparisons"),
}


def assert_table_matches_reference(rep, max_degree):
    """The K-set table against the scanning reference: the same images, core,
    memberships (pairs and order), codings and report, except that the
    report also fails an empty core and a check that compared nothing."""
    table = EncodingTable(rep, max_degree)
    ref = ReferenceEncodingTable(rep, max_degree)
    assert {(lam.range, lam.edges): t for lam, t in table.sigma.items()} == ref.sigma
    assert table.labels == ref.labels
    assert table.core == ref.core
    for n in deg_grid(rep.graph.k, max_degree):
        for lab in table.labels:
            hits = ref.memberships(lab, n)  # the scan behind ref.coding too
            assert table.memberships(lab, n) == hits
            assert table.coding(lab, n) == (hits[0] if len(hits) == 1 else None)
    report = permutative_validate(table)
    ok, cover_ok, disjoint_ok, composition_ok, intertwine_ok, witnesses = (
        reference_permutative_validate(ref))
    assert [w for w in report.witnesses if w not in VACUITY_WITNESSES] == witnesses
    assert cover_ok and report.cover_ok == bool(table.core)
    assert report.disjoint_ok == disjoint_ok
    assert report.composition_ok == (composition_ok and report.compositions > 0)
    assert report.intertwine_ok == (intertwine_ok and report.intertwinings > 0)
    assert report.ok == (ok and report.cover_ok and report.compositions > 0
                         and report.intertwinings > 0)
    return report


def permutative_rep(case):
    kind, name, *args = case.split(":")
    g = builtin_graph(name)
    if kind == "kp":
        return KPRep(g, int(args[0]))
    if kind == "faithful":
        return faithful_rep(g, depth=int(args[0]), cap=int(args[1]))
    if kind == "sum":
        return DirectSumRep([KPRep(g, 3), KPRep(g, 3)])
    return orbit_restriction(KPRep(g, 4), aperiodic_prefix(g))


PERMUTATIVE_CASES = [
    *(f"kp:{name}:{d}" for name in ("exonevtwoe", "ex3v8e") for d in range(4)),
    "faithful:ex3v8e:5:3",
    "faithful:exonevtwoe:4:2",
    "sum:exonevtwoe",
    "orbit:kawamura",
]


@pytest.mark.parametrize("max_degree", [1, 2])
@pytest.mark.parametrize("case", PERMUTATIVE_CASES)
def test_encoding_table_matches_reference(case, max_degree):
    report = assert_table_matches_reference(permutative_rep(case), max_degree)
    # every rep here is permutative: only a vacuous check fails
    assert set(report.witnesses) <= VACUITY_WITNESSES


@pytest.mark.parametrize("n", [(1, 0), (1, 1)])
@pytest.mark.parametrize("case", ["kp:exonevtwoe:3", "faithful:ex3v8e:5:3"])
def test_corrupted_table_matches_reference(case, n):
    # the aliased image has two memberships, in enumeration order
    rep = aliased_rep(permutative_rep(case), n)
    assert not assert_table_matches_reference(rep, max_degree=1).disjoint_ok


# at depth 2 the core labels of degree (1,..,1) have edges keeping them in the truncation
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_encoding_table_matches_reference_random(seed, k):
    rep = KPRep(random_graph(random.Random(seed), k), 2)
    report = assert_table_matches_reference(rep, max_degree=1)
    assert report.ok, report.witnesses


# -- permutative decomposition ----------------------------------------------------------------------


def aperiodic_prefix(g):
    # golden-mean word e.g.f is aperiodic at every checked shift pair
    return g.path(["e", "g", "f"])


def test_decompose_single_summand():
    g = builtin_graph("kawamura")
    omega = aperiodic_prefix(g)
    rep = orbit_restriction(KPRep(g, 3), omega)
    dec = decompose_permutative(rep, omega, period_bound=1)
    assert len(dec.summands) == 1
    assert dec.invariant and dec.spans


def test_decompose_two_summands():
    g = builtin_graph("kawamura")
    omega = aperiodic_prefix(g)
    rep = orbit_restriction(
        DirectSumRep([KPRep(g, 3), KPRep(g, 3)]), omega
    )
    dec = decompose_permutative(rep, omega, period_bound=1)
    assert len(dec.summands) == 2
    assert dec.invariant and dec.spans


def test_decompose_rejects_periodic_orbit():
    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 3)
    omega = g.enumerate_paths((3, 3), "v")[0]
    with pytest.raises(PeriodicOrbit):
        decompose_permutative(rep, omega, period_bound=2)


# -- invariants ----------------------------------------------------------------------------------


def test_adjoint_consistency_is_transpose_on_matched_blocks():
    g = builtin_graph("ex3v8e")
    rep = standard_rep(g, pf_measure(g), 3)
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for key in rep.block_keys():
            fwd = op_forward(rep, lam, key)
            if fwd is None:
                continue
            adj = op_adjoint(rep, lam, fwd.dst_key)
            if adj is None:
                continue
            assert np.array_equal(matrix(fwd, rep).T, matrix(adj, rep))


def test_encoding_map_typed_errors():
    from kgraph_lab.errors import CoverViolation, EncodingConflict
    from kgraph_lab.operators import encoding_map

    g = builtin_graph("exonevtwoe")
    rep = KPRep(g, 3)
    table = EncodingTable(rep, max_degree=1)
    lab = table.core[0]
    assert encoding_map(table, lab, (1, 0)) == g.factorize(lab, (1, 0))[0]
    # a vertex label sits in no K set of positive degree
    vert = g.vertex_path("v")
    with pytest.raises(CoverViolation):
        encoding_map(table, vert, (1, 0))
    table = corrupt_table(rep, (1, 0))
    # the aliased image now lies in two K sets of degree (1, 0)
    aliased = next(
        lab
        for lab in table.labels
        if len(table.memberships(lab, (1, 0))) > 1
    )
    with pytest.raises(EncodingConflict):
        encoding_map(table, aliased, (1, 0))


def test_monic_vector_probe_all_supported_measures():
    g = builtin_graph("exonevtwoe")
    for m in (
        pf_measure(g),
        markov_measure(g, t_x_matrix(Fraction(1, 3))),
        product_measure(g, ProductMeasureSpec("const", c=Fraction(0))),
    ):
        rep = standard_rep(g, m, 3)
        for level in (1, 2):
            assert monic_vector_probe(rep, level).cyclic


def test_nonfaithful_witness_ex3v8e_mixed_difference():
    # the transposition star graph is periodic with difference (2, -2):
    # two blue steps equal two red steps on every infinite path
    g = builtin_graph("ex3v8e")
    report = nonfaithful_witness(g, pf_measure(g), depth=4)
    assert report.mu.degree == (2, 0) and report.nu.degree == (0, 2)
    assert report.scale == 1.0
    assert report.norm_standard < 1e-12
    assert report.norm_faithful_on_delta >= 1.0
