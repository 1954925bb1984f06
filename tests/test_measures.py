import math
import random
import re
from fractions import Fraction

import pytest

from kgraph_lab.catalog import BUILTIN_GRAPH_NAMES, builtin_graph
from kgraph_lab.errors import (
    AdditivityViolation,
    DegreeCapExceeded,
    GammaOutOfRange,
    IncomparableSpecs,
    NoConvergence,
    NotStronglyConnected,
    SpecInvariantViolated,
    UnsupportedGraphShape,
    ZeroDenominator,
)
from kgraph_lab.kgraph import (
    Edge, Square, build_lambda2N, deg_diag, deg_grid, deg_sub, deg_total, deg_unit, validate_kgraph,
)
from kgraph_lab import measures
from kgraph_lab.measures import (
    CylinderMeasure,
    Equivalent,
    MarkovMeasureSpec,
    MutuallySingular,
    PFData,
    PrefixRule,
    ProductMeasureSpec,
    Undetermined,
    check_consistency,
    check_product_biases,
    check_product_terms,
    default_prefix_rule,
    detect_shape,
    format_value,
    kakutani_classify,
    markov_measure,
    measure_table,
    parse_product_spec,
    pf_data,
    pf_measure,
    product_measure,
    rn_estimate,
    star_markov_matrix,
    t_x_matrix,
)
from kgraph_lab.operators import KPRep, induced_measure, standard_rep

from test_kgraph import BLOCK_GRAPHS, BLOCK_IDS, random_graph

SQRT2 = math.sqrt(2.0)


# -- Perron-Frobenius data ----------------------------------------------------


def test_pf_data_ex3v8e():
    g = builtin_graph("ex3v8e")
    pf = pf_data(g)
    assert not pf.exact
    assert pf.residual < 1e-10
    for r in pf.rho:
        assert abs(r - SQRT2) < 1e-10
    expected = {
        "u": 1 / (2 + SQRT2),
        "v": SQRT2 / (2 + SQRT2),
        "w": 1 / (2 + SQRT2),
    }
    for v, val in expected.items():
        assert abs(pf.kappa[v] - val) < 1e-10


def test_pf_data_lambda4_exact():
    g = builtin_graph("lambda2N:N=2")
    pf = pf_data(g)
    assert pf.exact
    assert pf.rho == (Fraction(2), Fraction(2))
    assert pf.kappa["v"] == Fraction(1, 3)
    for q in ("Q1", "Q2", "Q3", "Q4"):
        assert pf.kappa[q] == Fraction(1, 6)
    assert sum(pf.kappa.values()) == 1


def test_pf_data_one_vertex():
    g = builtin_graph("exonevtwoe")
    pf = pf_data(g)
    assert pf.exact
    assert pf.rho == (Fraction(2), Fraction(1))
    assert pf.kappa["v"] == 1


def test_pf_data_requires_strong_connectivity():
    g = builtin_graph("exonevthreeed")
    with pytest.raises(NotStronglyConnected):
        pf_data(g)


def reference_pf_data(g, tol=1e-10):
    """pf_data with numpy first: power iteration on I + sum(A_i), then
    rational radii guessed from the float estimates and checked exactly."""
    import numpy as np

    mats = [np.array(m, dtype=float) for m in g.vertex_matrices()]
    vec = np.ones(len(g.vertices))
    m_sum = np.eye(len(vec)) + sum(mats)
    for _ in range(measures.MAX_POWER_ITERATIONS):
        nxt = m_sum @ vec
        nxt /= nxt.sum()
        done = np.max(np.abs(nxt - vec)) < min(tol, 1e-13)
        vec = nxt
        if done:
            break
    rho_f = [float(np.dot(vec, m @ vec) / np.dot(vec, vec)) for m in mats]
    rhos = [Fraction(est).limit_denominator(1000) for est in rho_f]
    vec_q = None
    if all(abs(float(r) - est) <= 1e-8 for r, est in zip(rhos, rho_f)):
        # kappa spans the common nullspace of every A_i - rho_i I, stacked
        n = len(g.vertices)
        stacked = [[mat[i][j] - (rho if i == j else 0) for j in range(n)]
                   for rho, mat in zip(rhos, g.vertex_matrices()) for i in range(n)]
        vec_q = measures._exact_nullspace(stacked)
        if vec_q is not None and all(x < 0 for x in vec_q):
            vec_q = [-x for x in vec_q]
    if vec_q is not None and all(x > 0 for x in vec_q):
        kappa = [x / sum(vec_q) for x in vec_q]
        return measures.PFData(tuple(rhos), dict(zip(g.vertices, kappa)), True, 0.0)
    residual = max(float(np.max(np.abs(m @ vec - r * vec))) for r, m in zip(rho_f, mats))
    kappa = {v: float(vec[i]) for i, v in enumerate(g.vertices)}
    return measures.PFData(tuple(rho_f), kappa, exact=False, residual=residual)


PERMS = ["2;1;4;3", "3;4;1;2", "4;3;2;1", "2;3;4;1", "1;2;3;4"]


def pf_graphs():
    """The strongly connected builtins, the star graph's benchmark perms and
    strongly connected random 2- and 3-graphs."""
    names = BUILTIN_GRAPH_NAMES + [f"lambda2N:N=2,perm={p}" for p in PERMS]
    out = [(name, builtin_graph(name)) for name in names]
    out += [(f"random{k}-{seed}", random_graph(random.Random(seed), k))
            for k in (2, 3) for seed in range(24)]
    return [pytest.param(g, id=name) for name, g in out if g.is_strongly_connected()]


@pytest.mark.parametrize("g", pf_graphs())
def test_pf_data_matches_the_power_iteration_reference(g):
    # exact data comes from the integer scan, the rest from the same power
    # iteration; numpy's BLAS sums in another order, so float data may differ
    # from the reference in its last ulps
    got, want = pf_data(g), reference_pf_data(g)
    assert got.exact == want.exact
    if want.exact:
        assert got == want
        return
    assert list(got.kappa) == list(want.kappa)
    pairs = list(zip(got.rho, want.rho)) + [(got.kappa[v], want.kappa[v]) for v in want.kappa]
    for x, y in pairs:
        assert type(x) is float and abs(x - y) <= 4 * math.ulp(y)
    assert got.residual <= 1e-10 and want.residual <= 1e-10


def test_pf_data_reports_non_convergence(monkeypatch):
    g = builtin_graph("ex3v8e")
    monkeypatch.setattr(measures, "MAX_POWER_ITERATIONS", 1)
    with pytest.raises(NoConvergence):
        pf_data(g)


def test_float_stationary_row_reports_non_convergence(monkeypatch):
    spec = MarkovMeasureSpec(((0.3, 0.7), (0.6, 0.4)))
    lam = spec.validated().lam
    assert lam == pytest.approx((2 * 6 / 13, 2 * 7 / 13), abs=1e-12)
    monkeypatch.setattr(measures, "MAX_POWER_ITERATIONS", 1)
    with pytest.raises(NoConvergence):
        spec.validated()


def test_pf_data_references_see_both_kinds():
    kinds = {pf_data(p.values[0]).exact for p in pf_graphs()}
    assert kinds == {True, False}


# -- pf measure ----------------------------------------------------------------


def reference_pf_value(pf, g, path):
    """rho^{-d(path)} kappa_{s(path)}, dividing by rho_i**n_i color by color."""
    val = pf.kappa[g.s(path)]
    for rho_i, n_i in zip(pf.rho, path.degree):
        val = val / rho_i**n_i
    return val


@pytest.mark.parametrize("g", [p for p in pf_graphs() if not p.id.startswith("random")])
def test_pf_base_values_match_the_formula_bit_for_bit(g):
    m = pf_measure(g)
    for _ in range(2):  # the second pass reads the remembered values
        for n in deg_grid(g.k, 2):
            for path in g.block(n):
                got, want = m._fn(path), reference_pf_value(m.pf, g, path)
                assert (type(got), got) == (type(want), want)


def test_pf_measure_values_ex3v8e():
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    for n in range(4):
        for lam in g.enumerate_paths((n, n), "v"):
            assert abs(m.value(lam) - SQRT2 / (2**n * (2 + SQRT2))) < 1e-12


def test_pf_measure_matches_formula_up_to_4():
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    pf = m.pf
    for n1 in range(5):
        for n2 in range(5):
            for lam in g.enumerate_paths((n1, n2)):
                expected = pf.kappa[g.s(lam)] / (pf.rho[0] ** n1 * pf.rho[1] ** n2)
                assert abs(m.value(lam) - expected) < 1e-12


def test_pf_measure_exonevtwoe_powers_of_two():
    g = builtin_graph("exonevtwoe")
    m = pf_measure(g)
    for n1 in range(4):
        for n2 in range(3):
            for lam in g.enumerate_paths((n1, n2)):
                assert m.value(lam) == Fraction(1, 2**n1)


def test_pf_total_mass_one():
    for name in ("ex3v8e", "exonevtwoe", "kawamura", "lambda2N:N=2", "ehfg"):
        g = builtin_graph(name)
        m = pf_measure(g)
        total = sum(m.value(g.vertex_path(v)) for v in g.vertices)
        assert abs(float(total) - 1.0) < 1e-12


def test_monotone_under_extension():
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    lam = g.path(["a0", "b0"])
    assert m.value(g.vertex_path(lam.range)) >= m.value(lam)


# -- consistency ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["ex3v8e", "exonevtwoe", "kawamura", "lambda2N:N=1", "lambda2N:N=2", "ehfg"]
)
def test_pf_consistency_depth4(name):
    g = builtin_graph(name)
    rep = check_consistency(pf_measure(g), 4)
    assert rep.ok, rep.worst_residual
    if pf_measure(g).exact:
        assert rep.worst_residual == 0


def test_perturbed_measure_fails_consistency():
    g = builtin_graph("exonevtwoe")
    m = pf_measure(g)
    bad_at = g.path(["f1", "e"])
    bad = m.perturbed(bad_at, Fraction(1, 64))
    rep = check_consistency(bad, 2)
    assert not rep.ok
    # the worst residual is at bad_at or at its parent (both are affected)
    assert rep.worst_residual >= 1 / 64


def test_markov_consistency_depth6():
    g = builtin_graph("exonevtwoe")
    m = markov_measure(g, t_x_matrix(Fraction(1, 3)))
    rep = check_consistency(m, 6)
    assert rep.ok
    assert rep.worst_residual == 0  # exact rationals


# -- product measures ---------------------------------------------------------------


def test_product_gamma_zero_is_uniform():
    g = builtin_graph("exonevtwoe")
    m = product_measure(g, ProductMeasureSpec("const", c=Fraction(0)))
    pf = pf_measure(g)
    for n1 in range(4):
        for n2 in range(4):
            for lam in g.enumerate_paths((n1, n2)):
                assert m.value(lam) == pf.value(lam)
                if n1 == n2:
                    assert m.value(lam) == Fraction(1, 2**n1)


def test_product_first_gamma_quarter():
    g = builtin_graph("exonevtwoe")
    spec = ProductMeasureSpec("finite", values=(Fraction(1, 4),))
    m = product_measure(g, spec)
    z_ef1 = g.compose(g.edge_path("e"), g.edge_path("f1"))
    z_ef2 = g.compose(g.edge_path("e"), g.edge_path("f2"))
    assert m.value(z_ef1) == Fraction(3, 4)
    assert m.value(z_ef2) == Fraction(1, 4)
    assert m.value(z_ef1) + m.value(z_ef2) == 1
    assert m.value(g.vertex_path("v")) == 1


def test_product_consistency():
    g = builtin_graph("exonevtwoe")
    spec = ProductMeasureSpec("geometric", c=Fraction(1, 2), r=Fraction(1, 2))
    assert check_consistency(product_measure(g, spec), 4).ok


def test_product_star_shape_consistency():
    g = builtin_graph("ex3v8e")
    spec = ProductMeasureSpec("geometric", c=Fraction(1, 4), r=Fraction(1, 2))
    m = product_measure(g, spec)
    assert check_consistency(m, 3).ok
    uniform = product_measure(g, ProductMeasureSpec("const", c=Fraction(0)))
    # center-rooted square cylinders carry n factors, peripheral ones n+1
    for lam in g.enumerate_paths((2, 2)):
        expected = Fraction(1, 4) if lam.range == "v" else Fraction(1, 8)
        assert uniform.value(lam) == expected


def test_product_gamma_out_of_range():
    g = builtin_graph("exonevtwoe")
    m = product_measure(g, ProductMeasureSpec("const", c=Fraction(1, 2)))
    with pytest.raises(GammaOutOfRange):
        m.value(g.compose(g.edge_path("e"), g.edge_path("f1")))


@pytest.mark.parametrize(
    "name, text, first_bad",
    [
        ("lambda2N:N=2", "const:1/2", "gamma_0 = 1/2"),  # star shapes read gamma_0
        ("lambda2N:N=2", "geometric:1/2,1/2", "gamma_0 = 1/2"),
        ("exonevtwoe", "const:-1/2", "gamma_1 = -1/2"),
        ("exonevtwoe", "geometric:1/4,2", "gamma_1 = 1/2"),
        ("exonevtwoe", "geometric:1/8,2", "1/8 * 2**j leaves (-1/2, 1/2)"),
        ("exonevtwoe", "finite:1/4,0,1/2", "gamma_3 = 1/2"),
        ("ex3v8e", "sampled:1/4,-3/4", "gamma_2 = -3/4"),
    ],
)
def test_product_biases_out_of_range(name, text, first_bad):
    with pytest.raises(GammaOutOfRange, match=re.escape(first_bad)):
        check_product_biases(builtin_graph(name), parse_product_spec(text))


@pytest.mark.parametrize(
    "name, text",
    [
        ("exonevtwoe", "geometric:1/2,1/2"),  # single-vertex shapes start at gamma_1
        ("exonevtwoe", "geometric:-1/2,-1/2"),
        ("exonevtwoe", "geometric:0,3"),
        ("lambda2N:N=2", "geometric:1/4,-1"),
        ("ex3v8e", "sampled:1/4"),  # a missing term fails only when it is read
    ],
)
def test_product_biases_in_range(name, text):
    check_product_biases(builtin_graph(name), parse_product_spec(text))


def test_product_needs_supported_shape():
    g = builtin_graph("kawamura")
    with pytest.raises(UnsupportedGraphShape):
        product_measure(g, ProductMeasureSpec("const", c=Fraction(0)))


# -- Markov measures -----------------------------------------------------------------


def test_markov_half_is_twice_pf():
    g = builtin_graph("exonevtwoe")
    m = markov_measure(g, t_x_matrix(Fraction(1, 2)))
    pf = pf_measure(g)
    for n1 in range(4):
        for n2 in range(4):
            for lam in g.enumerate_paths((n1, n2)):
                assert m.value(lam) == 2 * pf.value(lam)


def test_markov_single_state_loop_graph():
    g = builtin_graph("lambda2N:N=1")  # not used below; placeholder graph build
    from kgraph_lab.kgraph import Edge, Square, validate_kgraph

    loop2 = validate_kgraph(
        2,
        ["v"],
        [Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v")],
        [Square(("b", "r"), ("r", "b"))],
    )
    m = markov_measure(loop2, MarkovMeasureSpec(((Fraction(1),),)))
    for n1 in range(3):
        for n2 in range(3):
            for lam in loop2.enumerate_paths((n1, n2)):
                assert m.value(lam) == 1


def test_markov_star_matrix_rows_and_consistency():
    g = builtin_graph("lambda2N:N=2")
    perm = [2, 1, 4, 3]
    x1 = (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4))
    x2 = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    spec = star_markov_matrix(4, perm, [x1, x2])
    for row in spec.matrix:
        assert sum(row) == 1
    # rows related by the permutation: T(phi(i), phi(j)) = T(i, j)
    for i in range(4):
        for j in range(4):
            assert spec.matrix[perm[i] - 1][perm[j] - 1] == spec.matrix[i][j]
    g2 = builtin_graph("lambda2N:N=2,perm=2;1;4;3")
    m = markov_measure(g2, spec)
    assert check_consistency(m, 2).ok


def test_markov_spec_invariants():
    with pytest.raises(SpecInvariantViolated):
        MarkovMeasureSpec(((Fraction(1, 2), Fraction(1, 3)),) * 2).validated()
    with pytest.raises(SpecInvariantViolated):
        MarkovMeasureSpec(
            ((Fraction(-1, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(1, 2)))
        ).validated()


@pytest.mark.parametrize("rows", [
    ((0.15, 0.35, 0.5), (0.5, 0.15, 0.35), (0.35, 0.5, 0.15)),
    ((0.1, 0.6, 0.3), (0.3, 0.1, 0.6), (0.6, 0.3, 0.1)),
], ids=["stationary", "defect-within-tol"])
def test_float_markov_spec_keeps_a_float_all_ones_row(rows):
    # the column sums are 1 exactly, or off by one rounding step (within tol)
    lam = MarkovMeasureSpec(rows).validated().lam
    assert lam == (1.0,) * 3 and all(type(x) is float for x in lam)


def test_markov_needs_matching_state_count():
    g = builtin_graph("ex3v8e")
    with pytest.raises(UnsupportedGraphShape):
        markov_measure(g, star_markov_matrix(4, [2, 1, 4, 3], [
            (Fraction(1, 4),) * 4, (Fraction(1, 4),) * 4,
        ]))


# -- Kakutani classification -----------------------------------------------------------


def test_kakutani_geometric_vs_zero_equivalent():
    a = parse_product_spec("geometric:1/2,1/2")
    b = parse_product_spec("const:0")
    assert isinstance(kakutani_classify(a, b), Equivalent)
    assert isinstance(kakutani_classify(b, a), Equivalent)


def test_kakutani_constant_quarter_vs_zero_singular():
    a = parse_product_spec("const:1/4")
    b = parse_product_spec("const:0")
    assert isinstance(kakutani_classify(a, b), MutuallySingular)
    assert isinstance(kakutani_classify(b, a), MutuallySingular)


def test_kakutani_markov_distinct_singular():
    a = t_x_matrix(Fraction(1, 3))
    b = t_x_matrix(Fraction(2, 5))
    assert isinstance(kakutani_classify(a, b), MutuallySingular)
    assert isinstance(kakutani_classify(a, t_x_matrix(Fraction(1, 3))), Equivalent)


def test_kakutani_identical_specs_equivalent():
    a = parse_product_spec("const:1/4")
    assert isinstance(kakutani_classify(a, a), Equivalent)


def test_kakutani_sampled_undetermined():
    a = ProductMeasureSpec("sampled", values=(Fraction(1, 4),) * 8)
    b = parse_product_spec("const:0")
    res = kakutani_classify(a, b)
    assert isinstance(res, Undetermined)
    assert res.partial_sum > 0


@pytest.mark.parametrize(
    "text_a, text_b, verdict",
    [
        # geometric:c,1 is the sequence const:c, and geometric:c,-1 alternates
        ("geometric:1/4,1", "const:1/4", Equivalent),
        ("geometric:1/4,1", "const:0", MutuallySingular),
        ("geometric:1/4,-1", "const:1/4", MutuallySingular),
        ("geometric:1/4,-1", "const:0", MutuallySingular),
        ("geometric:1/4,-1", "geometric:1/4,-1", Equivalent),
        ("geometric:-1/4,-1", "geometric:1/4,-1", MutuallySingular),
        ("geometric:0,-1", "finite:1/4,1/8", Equivalent),
    ],
)
def test_kakutani_unit_ratio_tails(text_a, text_b, verdict):
    a, b = parse_product_spec(text_a), parse_product_spec(text_b)
    assert isinstance(kakutani_classify(a, b), verdict)
    assert isinstance(kakutani_classify(b, a), verdict)


@pytest.mark.parametrize(
    "text, first_bad",
    [("const:3/4", "gamma_1 = 3/4"), ("geometric:1/4,3", "gamma_1 = 3/4"),
     ("geometric:1/8,3", "1/8 * 3**j"), ("finite:1/4,-1/2", "gamma_2 = -1/2")],
)
def test_kakutani_rejects_out_of_range_biases(text, first_bad):
    zero = parse_product_spec("const:0")
    for a, b in ((parse_product_spec(text), zero), (zero, parse_product_spec(text))):
        with pytest.raises(GammaOutOfRange, match=re.escape(first_bad)):
            kakutani_classify(a, b)


def test_kakutani_incomparable():
    with pytest.raises(IncomparableSpecs):
        kakutani_classify(parse_product_spec("const:0"), t_x_matrix(Fraction(1, 2)))


# -- Radon-Nikodym estimates --------------------------------------------------------------


def rule_starting_ef(g, first_symbol):
    # repeat the degree-(1,1) segment e.f_j: red-first symbols are all j
    seg = g.compose(g.edge_path("e"), g.edge_path(first_symbol))
    return PrefixRule(g, [seg])


def test_rn_markov_silent_edge_is_one():
    g = builtin_graph("exonevtwoe")
    m = markov_measure(g, t_x_matrix(Fraction(1, 3)))
    rule = rule_starting_ef(g, "f1")
    est = rn_estimate(m, g.edge_path("e"), rule, 10)
    assert est.converged
    for q in est.quotients:
        assert q == 1


def test_rn_markov_symbol_edge_matches_transition():
    g = builtin_graph("exonevtwoe")
    x = Fraction(1, 3)
    spec = t_x_matrix(x)
    m = markov_measure(g, spec)
    for j, fj in enumerate(("f1", "f2")):
        for i1, first in enumerate(("f1", "f2")):
            rule = rule_starting_ef(g, first)
            est = rn_estimate(m, g.edge_path(fj), rule, 8)
            expected = spec.matrix[(j + 1) % 2][(i1 + 1) % 2]
            assert est.converged
            assert est.limit == expected
            assert all(q == expected for q in est.quotients)


def test_rn_pf_constant():
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    rule = default_prefix_rule(g, "v")
    for eid in ("a0", "d0"):
        lam = g.edge_path(eid)
        if g.s(lam) != rule.range:
            continue
        est = rn_estimate(m, lam, rule, 6)
        for q in est.quotients:
            assert abs(q - 1 / SQRT2) < 1e-12


def test_rn_product_geometric_converges():
    g = builtin_graph("exonevtwoe")
    spec = ProductMeasureSpec("geometric", c=Fraction(1, 2), r=Fraction(1, 2))
    m = product_measure(g, spec)
    rule = rule_starting_ef(g, "f1")
    est = rn_estimate(m, g.edge_path("f1"), rule, 12, tol=1e-3)
    assert est.converged
    assert float(est.limit) > 0
    # successive gaps shrink like the bias tail
    gaps = [abs(float(a - b)) for a, b in zip(est.quotients, est.quotients[1:])]
    assert gaps[-1] < gaps[0] / 50


def test_rn_zero_denominator():
    g = builtin_graph("exonevtwoe")
    zero = CylinderMeasure(g, lambda p: Fraction(0), "zero", True)
    rule = rule_starting_ef(g, "f1")
    with pytest.raises(ZeroDenominator):
        rn_estimate(zero, g.edge_path("e"), rule, 3)


# -- table export ------------------------------------------------------------------------


def test_format_value():
    assert format_value(Fraction(3, 4)) == "3/4"
    assert format_value(0.5) == "0.5"
    assert len(format_value(1 / 3).replace("0.", "")) >= 16


def table_text(measure, depth):
    """measure_table's chunks joined into one string."""
    chunks = []
    measure_table(measure, depth, chunks.append)
    return "".join(chunks)


def test_measure_table_layout():
    g = builtin_graph("exonevtwoe")
    table = table_text(pf_measure(g), 1)
    lines = table.strip().split("\n")
    assert lines[0] == "depth\tpath\tvalue"
    assert any("\tv\t1/1" in ln or "\tv\t1" == ln.split("\t", 1)[-1].replace("path", "") for ln in lines[1:]) or any(
        ln.split("\t")[1] == "v" for ln in lines[1:]
    )
    assert all(len(ln.split("\t")) == 3 for ln in lines)


def table_cases():
    """(label, make): exact, float, counting and mixed measures: the float
    Markov measure of a doubly stochastic chain has float values, and a
    float measure of zeros formats 0.0."""
    one_third = t_x_matrix(Fraction(1, 3))
    floats = MarkovMeasureSpec(tuple(tuple(map(float, row)) for row in one_third.matrix))
    return [
        ("ex3v8e-pf", lambda: pf_measure(builtin_graph("ex3v8e"))),
        ("exonevtwoe-product", lambda: product_measure(builtin_graph("exonevtwoe"),
                                                       parse_product_spec("geometric:1/2,1/2"))),
        ("exonevtwoe-markov-float", lambda: markov_measure(builtin_graph("exonevtwoe"), floats)),
        ("exonevtwoe-zero", lambda: CylinderMeasure(builtin_graph("exonevtwoe"), lambda p: 0.0,
                                                    "zero", False)),
        ("lambda4-kp", lambda: induced_measure(KPRep(builtin_graph("lambda2N:N=2"), 2))),
    ]


@pytest.mark.parametrize("label, make", table_cases(), ids=[label for label, _ in table_cases()])
def test_measure_table_prints_format_value_of_each_value(label, make):
    m = make()
    g = m.graph
    rows = [line.split("\t")[2] for line in table_text(m, 2).splitlines()[1:]]
    assert rows == [format_value(val) for n in deg_grid(g.k, 2) for val in m.values(n)]
    if label == "exonevtwoe-markov-float":
        assert all("/" not in text for text in rows) and any("." in text for text in rows)
        assert {"1", "2"} <= set(rows)
    if label == "exonevtwoe-zero":
        assert set(rows) == {"0"}


def loop_graph(enum_cap):
    """One vertex, one loop, and a small enumeration cap."""
    return validate_kgraph(1, ["v"], [Edge("e", 1, "v", "v")], [], enum_cap=enum_cap)


def test_consistency_above_the_enumeration_cap_raises():
    # the degrees above enum_cap used to be skipped and the check passed
    m = pf_measure(loop_graph(4))
    assert check_consistency(m, 3).checked == 4
    with pytest.raises(DegreeCapExceeded, match="consistency depth 4 .* enumeration cap 4"):
        check_consistency(m, 4)


def test_measure_table_above_the_enumeration_cap_raises():
    # the rows above enum_cap used to be left out of the table
    m = pf_measure(loop_graph(4))
    assert len(table_text(m, 4).splitlines()) == 1 + 5
    with pytest.raises(DegreeCapExceeded, match="measure table depth 5 .* enumeration cap 4"):
        table_text(m, 5)


def test_rn_estimate_not_composable():
    from kgraph_lab.errors import NotComposable

    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    rule = default_prefix_rule(g, "v")
    bad = next(
        g.edge_path(e.eid) for e in g.edges if e.source != rule.range
    )
    with pytest.raises(NotComposable):
        rn_estimate(m, bad, rule, 3)


def test_rn_star_markov_quotients():
    # star graph with transposition factorization: prefixing a center-rooted
    # point by a red edge reads T through the permutation, by a blue edge
    # directly; prefixing a peripheral-rooted point by an edge into the
    # center leaves the quotient at 1
    g = builtin_graph("lambda2N:N=1")
    perm = [2, 1]
    x_vec = (Fraction(1, 5), Fraction(4, 5))
    spec = star_markov_matrix(2, perm, [x_vec])
    m = markov_measure(g, spec)
    for b in (1, 2):
        seg = g.compose(g.edge_path(f"r_in_{b}"), g.edge_path(f"b_out_{b}"))
        rule = PrefixRule(g, [seg])
        for i in (1, 2):
            est_red = rn_estimate(m, g.edge_path(f"r_out_{i}"), rule, 6)
            assert all(
                q == spec.matrix[i - 1][perm[b - 1] - 1] for q in est_red.quotients
            )
            est_blue = rn_estimate(m, g.edge_path(f"b_out_{i}"), rule, 6)
            assert all(q == spec.matrix[i - 1][b - 1] for q in est_blue.quotients)
    for a in (1, 2):
        seg = g.compose(g.edge_path(f"r_out_{a}"), g.edge_path(f"b_in_{a}"))
        rule = PrefixRule(g, [seg])
        for eid in (f"b_in_{a}", f"r_in_{a}"):
            est = rn_estimate(m, g.edge_path(eid), rule, 6)
            assert all(q == 1 for q in est.quotients)


def test_perturbation_witness_location():
    g = builtin_graph("exonevtwoe")
    bad_at = g.path(["f1", "e"])
    bad = pf_measure(g).perturbed(bad_at, Fraction(1, 64))
    rep = check_consistency(bad, 2)
    assert not rep.ok
    # the worst residual sits at the perturbed path or its parent vertex
    assert repr(rep.worst_path) in (repr(bad_at), repr(g.vertex_path("v")))


def test_rn_pf_composite_path():
    g = builtin_graph("ex3v8e")
    m = pf_measure(g)
    rule = default_prefix_rule(g, "v")
    lam = next(p for p in g.enumerate_paths((1, 1)) if g.s(p) == "v")
    est = rn_estimate(m, lam, rule, 5)
    for q in est.quotients:
        assert abs(q - 0.5) < 1e-12  # rho^-(1,1) = 1/2


def reference_rainbow_symbols(g, shape, path):
    """Peel the rainbow off one unit factorization at a time (2n of them)."""
    n = path.degree[0]
    if shape.kind == "single-vertex":
        silent = 1 if shape.symbol_color == 2 else 2
        symbol_edges = [e.eid for e in g.edges if e.color == shape.symbol_color]
        rest = path
        out = []
        for _ in range(n):
            _, rest = g.factorize(rest, deg_unit(2, silent))
            head, rest = g.factorize(rest, deg_unit(2, shape.symbol_color))
            out.append(symbol_edges.index(head.edges[0]))
        return out
    idx = {p: i for i, p in enumerate(shape.peripherals)}
    out = []
    rest = path
    if path.range == shape.center:
        for _ in range(n):
            head, rest = g.factorize(rest, deg_unit(2, 2))
            out.append(idx[g.s(head)])
            _, rest = g.factorize(rest, deg_unit(2, 1))
    else:
        out.append(idx[path.range])
        for _ in range(n):
            _, rest = g.factorize(rest, deg_unit(2, 2))
            head, rest = g.factorize(rest, deg_unit(2, 1))
            out.append(idx[g.s(head)])
    return out


@pytest.mark.parametrize("name", ["exonevtwoe", "lambda2N:N=2"])
def test_segment_symbols_match_unit_factorization_loop(name):
    g = builtin_graph(name)
    shape = detect_shape(g)
    expected = [(shape.reads_range(seg.range), reference_rainbow_symbols(g, shape, seg)[-1])
                for seg in g.enumerate_paths((1, 1))]
    assert measures._segments(g, shape) == expected


# -- derived cylinder values ----------------------------------------------------------------


def reference_square_extension_value(g, square_fn):
    """Every cylinder summed from square_fn over all its extensions to the
    square degree: how product and Markov values were computed before
    CylinderMeasure derived them by one-edge additivity."""

    def fn(path):
        n = max(path.degree)
        if path.degree == (n, n):
            return square_fn(path)
        gap = deg_sub((n, n), path.degree)
        return sum(square_fn(g.compose(path, eta)) for eta in g.enumerate_paths(gap, g.s(path)))

    return fn


def four_state_chain():
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    rows = (
        (quarter, quarter, quarter, quarter),
        (Fraction(1, 2), sixth, sixth, sixth),
        (eighth, 3 * eighth, quarter, quarter),
        (third, third, sixth, sixth),
    )
    return MarkovMeasureSpec(rows).validated()


def square_measure_cases():
    cases = []
    for name, bound in [("exonevtwoe", 4), ("ex3v8e", 4), ("lambda2N:N=1", 4), ("lambda2N:N=2", 3)]:
        g = builtin_graph(name)
        for text in ["const:0", "const:1/4", "geometric:1/2,1/2", "finite:1/4,0,-1/8"]:
            spec = parse_product_spec(text)
            cases.append((name, bound, f"product:{text}", lambda g=g, spec=spec: product_measure(g, spec)))
        chain = four_state_chain() if name == "lambda2N:N=2" else t_x_matrix(Fraction(1, 3))
        cases.append((name, bound, "markov", lambda g=g, chain=chain: markov_measure(g, chain)))
    return cases


def outcome(fn, path):
    try:
        return fn(path)
    except GammaOutOfRange:
        return GammaOutOfRange  # geometric:1/2,1/2 reads gamma_0 = 1/2 on star shapes


SQUARE_CASES = square_measure_cases()


@pytest.mark.parametrize(
    "name, bound, tag, make", SQUARE_CASES, ids=[f"{n}-{t}" for n, _, t, _ in SQUARE_CASES]
)
def test_derived_values_equal_square_extension_reference(name, bound, tag, make):
    m = make()
    g = m.graph
    reference = reference_square_extension_value(g, make()._fn)
    compared = 0
    for a in range(bound + 1):
        for b in range(bound + 1):
            for lam in g.enumerate_paths((a, b)):
                want = outcome(reference, lam)
                got = outcome(m.value, lam)
                assert got == want and type(got) is type(want), (lam, got, want)
                compared += 1
    assert compared > (bound + 1) ** 2


def test_consistency_computes_each_square_value_once(monkeypatch):
    rebuilt, cuts = [], []
    g = builtin_graph("exonevtwoe")
    path_at, cut = g.path_at, g.cut
    monkeypatch.setattr(g, "path_at", lambda m, i: rebuilt.append((m, i)) or path_at(m, i))
    monkeypatch.setattr(g, "cut", lambda m, n: cuts.append((m, n)) or cut(m, n))
    m = product_measure(g, parse_product_spec("geometric:1/2,1/2"))
    assert check_consistency(m, 4).ok
    # the segments of degree (1, 1) are rebuilt once each for their symbols, and
    # each square block (n, n), n <= 5, is one scatter over the runs of
    # glue((n-1, n-1), (1, 1)), with no cut table
    assert rebuilt == [((1, 1), t) for t in range(len(g.block((1, 1))))]
    assert cuts == [] and g._cuts == {}
    assert {n for n, r in g._glues if r == (1, 1)} == {(n, n) for n in range(5)}


@pytest.mark.parametrize(
    "edges", [["f1", "e"], ["f1"], ["f2", "f1"], ["f1", "e", "f2"]]
)
def test_perturbed_product_fails_at_the_bumped_path_or_its_parent(edges):
    g = builtin_graph("exonevtwoe")
    m = product_measure(g, parse_product_spec("const:1/4"))
    bad_at = g.path(edges)
    bad = m.perturbed(bad_at, Fraction(1, 64))
    assert bad.value(bad_at) == m.value(bad_at) + Fraction(1, 64)
    rep = check_consistency(bad, 2)
    assert not rep.ok
    assert rep.worst_residual == 1 / 64
    parents = [bad_at]
    if min(bad_at.degree) >= 1:
        parents.append(g.factorize(bad_at, deg_sub(bad_at.degree, (1, 1)))[0])
    assert rep.worst_path in parents
    # values derived by additivity carry the bump: Z(f1) sums Z(f1.e)
    if edges == ["f1", "e"]:
        assert bad.value(g.edge_path("f1")) == m.value(g.edge_path("f1")) + Fraction(1, 64)
    assert check_consistency(m, 2).ok


def test_quotient_is_the_cylinder_value_ratio():
    g = builtin_graph("exonevtwoe")
    m = markov_measure(g, t_x_matrix(Fraction(1, 3)))
    lam = g.edge_path("f1")
    for eta in g.enumerate_paths((2, 2)):
        assert m.quotient(lam, eta) == m.value(g.compose(lam, eta)) / m.value(eta)
    zero = CylinderMeasure(g, lambda p: Fraction(0), "zero", True)
    with pytest.raises(ZeroDenominator):
        zero.quotient(lam, g.vertex_path("v"))


def reference_product_square_fn(g, spec):
    """A product measure's square values from the whole symbol string, one
    factor per symbol (how product_measure computed each square before it
    reused the value of the degree-(n-1, n-1) prefix)."""
    shape = detect_shape(g)

    def fn(path):
        syms = reference_rainbow_symbols(g, shape, path)
        val = Fraction(1) if spec.exact else 1.0
        if shape.kind == "single-vertex":
            for i, s in enumerate(syms, start=1):
                gm = spec.gamma(i)
                if not abs(gm) < Fraction(1, 2):
                    raise GammaOutOfRange(f"gamma_{i} = {gm}")
                val *= Fraction(1, 2) + gm if s == 0 else Fraction(1, 2) - gm
            return val
        start = 1 if path.range == shape.center else 0
        for pos, s in zip(range(start, 2 * len(syms), 2), syms):
            gm = spec.gamma(pos)
            if not abs(gm) < Fraction(1, 2):
                raise GammaOutOfRange(f"gamma_{pos} = {gm}")
            val *= (1 + gm if s < shape.symbol_count // 2 else 1 - gm) / Fraction(shape.symbol_count)
        return val

    return fn


def outcome_or_message(fn, path):
    try:
        return fn(path)
    except GammaOutOfRange as exc:
        return ("GammaOutOfRange", str(exc))


PRODUCT_SPECS = [
    ProductMeasureSpec("const", c=Fraction(1, 4)),
    ProductMeasureSpec("geometric", c=Fraction(1, 2), r=Fraction(1, 2)),
    ProductMeasureSpec("geometric", c=Fraction(-1, 3), r=Fraction(-1, 2)),
    ProductMeasureSpec("finite", values=(Fraction(1, 4), Fraction(0), Fraction(-1, 8))),
    ProductMeasureSpec("finite", values=(Fraction(1, 4), Fraction(3, 4))),  # gamma_2 out of range
    ProductMeasureSpec("sampled", values=(Fraction(1, 8), Fraction(1, 16))),  # runs out of terms
    ProductMeasureSpec("const", c=0.125),  # float values
]


@pytest.mark.parametrize("name, bound", [("exonevtwoe", 6), ("lambda2N:N=1", 4), ("lambda2N:N=2", 3)])
@pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=lambda s: f"{s.family}-{s.c}-{s.values}")
def test_product_squares_equal_the_whole_string_formula(name, bound, spec):
    g = builtin_graph(name)
    reference = reference_product_square_fn(g, spec)
    # deepest squares first, so prefixes are reached only through the recursion
    for n in reversed(range(bound + 1)):
        fn = product_measure(g, spec)._fn
        for path in g.enumerate_paths((n, n)):
            want = outcome_or_message(reference, path)
            got = outcome_or_message(fn, path)
            assert got == want and type(got) is type(want), (path, got, want)


def reference_markov_square_fn(g, spec):
    """A Markov measure's square values from the whole symbol string: lam of
    the first symbol times one transition per later symbol, left to right
    (how markov_measure valued a single path before it reused the value of
    the degree-(n-1, n-1) prefix)."""
    shape = detect_shape(g)
    spec = spec.validated()

    def fn(path):
        syms = reference_rainbow_symbols(g, shape, path)
        if not syms:  # no symbol yet: the cylinder sums over the first one
            return sum(spec.lam)
        val = spec.lam[syms[0]]
        for a, b in zip(syms, syms[1:]):
            val *= spec.matrix[a][b]
        return val

    return fn


def random_chain(rng, states):
    """A transition matrix with positive rational entries."""
    rows = []
    for _ in range(states):
        weights = [rng.randint(1, 9) for _ in range(states)]
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return MarkovMeasureSpec(tuple(rows))


def random_product_specs(rng):
    """A geometric, a finite and a sampled spec; terms may leave (-1/2, 1/2)."""
    def term():
        return Fraction(rng.randint(-9, 9), 16)

    return [
        ProductMeasureSpec("geometric", c=term(), r=Fraction(rng.randint(-4, 4), 4)),
        ProductMeasureSpec("finite", values=tuple(term() for _ in range(rng.randint(1, 6)))),
        ProductMeasureSpec("sampled", values=tuple(term() for _ in range(rng.randint(1, 6)))),
    ]


def assert_routes_agree(m, reference, bound):
    """values(m) against value per path on every degree <= (bound, bound),
    and value against the whole-string reference on the squares; a
    GammaOutOfRange counts as its message.  A block raises what one of
    its paths raises."""
    g = m.graph
    for n in deg_grid(2, bound):
        block = g.block(n)
        per_path = [outcome_or_message(m.value, lam) for lam in block]
        if n[0] == n[1]:
            for lam, got in zip(block, per_path):
                want = outcome_or_message(reference, lam)
                assert got == want and type(got) is type(want), (lam, got, want)
        whole = outcome_or_message(m.values, n)
        if isinstance(whole, tuple):
            assert whole in per_path, (n, whole)
            continue
        assert len(whole) == len(block)
        for lam, got, want in zip(block, whole, per_path):
            assert got == want and type(got) is type(want), (lam, got, want)


def random_star_cases():
    cases = []
    for seed in range(6):
        rng = random.Random(seed)
        n_half = seed % 3 + 1
        perm = list(range(1, 2 * n_half + 1))
        rng.shuffle(perm)
        g = build_lambda2N(n_half, perm)
        bound = {1: 4, 2: 3, 3: 2}[n_half]
        cases.append((g, bound, random_chain(rng, 2 * n_half), random_product_specs(rng)))
    return cases


STAR_CASES = random_star_cases()


@pytest.mark.parametrize("case", range(len(STAR_CASES)))
def test_chain_routes_agree_on_random_stars(case):
    g, bound, chain, product_specs = STAR_CASES[case]
    assert_routes_agree(markov_measure(g, chain), reference_markov_square_fn(g, chain), bound)
    for spec in product_specs:
        assert_routes_agree(product_measure(g, spec), reference_product_square_fn(g, spec), bound)


@pytest.mark.parametrize("name, bound", [("exonevtwoe", 6), ("lambda2N:N=1", 4)])
def test_float_chain_routes_agree_bit_for_bit(name, bound):
    g = builtin_graph(name)
    chain = t_x_matrix(0.3)
    assert not chain.exact
    assert_routes_agree(markov_measure(g, chain), reference_markov_square_fn(g, chain), bound)


def exact_pf_graphs():
    out = []
    for k, depth in ((2, 3), (3, 2)):
        for seed in range(12):
            g = random_graph(random.Random(seed), k)
            try:
                pf = pf_data(g)
            except NotStronglyConnected:
                continue
            if pf.exact:
                out.append((g, pf, depth))
    return out


def one_graph(matrix):
    """The 1-graph whose vertex matrix is matrix: matrix[v][w] edges from w to v."""
    vertices = [f"x{i}" for i in range(len(matrix))]
    edges = [Edge(f"e{v}{w}{j}", 1, vertices[w], vertices[v])
             for v, row in enumerate(matrix) for w, count in enumerate(row) for j in range(count)]
    return validate_kgraph(1, vertices, edges, [])


@pytest.mark.parametrize("label, make", [
    ("ehfg", lambda: builtin_graph("ehfg")),
    ("random2-21", lambda: random_graph(random.Random(21), 2)),
    ("random3-6", lambda: random_graph(random.Random(6), 3)),
], ids=["ehfg", "random2-21", "random3-6"])
def test_exact_pf_data_where_one_color_alone_has_a_wider_nullspace(label, make):
    # kappa spans the common nullspace of the stacked A_i - rho_i I; some
    # color's own nullspace is wider (ehfg's color 1 is the identity)
    import numpy as np

    g = make()
    pf = pf_data(g)
    assert pf.exact and pf.residual == 0
    kappa = [pf.kappa[v] for v in g.vertices]
    assert min(kappa) > 0 and sum(kappa) == 1
    nullities = []
    for mat, rho in zip(g.vertex_matrices(), pf.rho):
        shifted = [[x - (rho if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(mat)]
        assert [sum(a * b for a, b in zip(row, kappa)) for row in shifted] == [0] * len(kappa)
        nullities.append(len(mat) - np.linalg.matrix_rank(np.array(shifted, dtype=float)))
    assert max(nullities) > 1
    if label == "ehfg":
        assert pf.rho == (1, 1) and kappa == [Fraction(1, 2)] * 2


def test_singular_matches_the_row_reduced_rank():
    # the fraction-free test against the rank of the Fraction reduced row echelon form
    rng = random.Random(7)
    kinds = set()
    for _ in range(500):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]  # a dependent row
        want = len(measures._row_reduce(mat)[1]) < n
        assert measures._singular(mat) == want, mat
        kinds.add(want)
    assert kinds == {True, False}


def test_exact_pf_radius_is_the_largest_singular_integer():
    # eigenvalues 0, 1 and 3 with row sums 1, 4 and 4: A - I is singular too,
    # but only the Perron root 3 has a positive vector
    g = one_graph([[0, 1, 0], [1, 2, 1], [2, 0, 2]])
    pf = pf_data(g)
    assert pf.exact and pf.rho == (3,)
    assert [pf.kappa[v] for v in g.vertices] == [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]


def test_exact_pf_measures_of_random_graphs_are_exactly_additive():
    cases = exact_pf_graphs()
    assert len(cases) >= 2 and any(len(g.vertices) > 1 for g, _, _ in cases)
    for g, pf, depth in cases:
        rep = check_consistency(pf_measure(g, pf), depth)
        assert rep.exact and rep.ok and rep.worst_residual == 0
        assert rep.checked == sum(len(g.block(n)) for n in deg_grid(g.k, depth))


# -- per-block values -----------------------------------------------------------------------


def bump_for(measure):
    return Fraction(1, 1000) if measure.exact else 1e-3


def block_value_measures(g):
    """(tag, measure, bound) on g: pf, product and Markov measures where they
    fit, the vector-free induced measures of a standard and a KP rep, and
    bumped copies at base and at derived degrees.  bound caps the degrees
    compared; an induced measure is defined up to its rep's block."""
    depth = 2 if g.k <= 2 else 1
    full = depth + 1
    kp = induced_measure(KPRep(g, depth))
    out = [("kp", kp, depth), ("kp+bump", kp.perturbed(g.vertex_path(g.vertices[-1]), 1), depth)]
    try:
        pf = pf_measure(g)
    except NotStronglyConnected:
        return out
    square = g.block(deg_diag(g.k, 1))[-1]
    out += [("pf", pf, full), ("pf+bump", pf.perturbed(square, bump_for(pf)), full)]
    out.append(("standard", induced_measure(standard_rep(g, pf, depth)), depth))
    if g.k != 2:
        return out
    try:
        shape = detect_shape(g)
    except UnsupportedGraphShape:
        return out
    chain = t_x_matrix(Fraction(1, 3)) if shape.symbol_count == 2 else four_state_chain()
    floats = MarkovMeasureSpec(tuple(tuple(map(float, row)) for row in chain.matrix))
    out += [("markov", markov_measure(g, chain), full), ("markov-float", markov_measure(g, floats), full)]
    if shape.kind == "star" or shape.symbol_count == 2:
        for tag, spec in (("product", "const:1/4"), ("product-float", None)):
            spec = parse_product_spec(spec) if spec else ProductMeasureSpec("const", c=0.125)
            m = product_measure(g, spec)
            derived = g.block((1, 2))[0]  # base degree (2, 2)
            out += [(tag, m, full), (tag + "+bump", m.perturbed(square, bump_for(m)), full),
                    (tag + "+derived-bump", m.perturbed(derived, bump_for(m)), full)]
    return out


BLOCK_VALUE_GRAPHS = [(name, lambda name=name: builtin_graph(name)) for name in BUILTIN_GRAPH_NAMES]
BLOCK_VALUE_GRAPHS += [
    (f"random{k}-{seed}", lambda k=k, seed=seed: random_graph(random.Random(seed), k))
    for k in (2, 3) for seed in range(12)
]


def typed(values):
    return [(type(v), v) for v in values]


@pytest.mark.parametrize("label, make", BLOCK_VALUE_GRAPHS, ids=[label for label, _ in BLOCK_VALUE_GRAPHS])
def test_block_values_equal_path_values(label, make):
    # == on floats: sums over the extend runs must add in the order of extensions
    g = make()
    cases = block_value_measures(g)
    for tag, m, bound in cases:
        for n in deg_grid(g.k, bound):
            want = typed([m.value(p) for p in g.block(n)])
            assert typed(m.values(n)) == want, (tag, n)
            assert m.values(n) is m.values(n)
    if label == "exonevtwoe":
        assert {tag for tag, _, _ in cases} == {
            "kp", "kp+bump", "pf", "pf+bump", "standard", "markov", "markov-float",
            "product", "product+bump", "product+derived-bump",
            "product-float", "product-float+bump", "product-float+derived-bump"}


@pytest.mark.parametrize("edges", [["f1"], ["f1", "e"]], ids=["derived", "base"])
def test_a_bump_below_zero_raises_at_its_path(edges):
    g = builtin_graph("exonevtwoe")
    m = product_measure(g, parse_product_spec("const:1/4"))
    at = g.path(edges)
    bad = m.perturbed(at, -2 * m.value(at))
    reads = [lambda: bad.values(at.degree), lambda: bad.value(at),
             lambda: check_consistency(bad, 1), lambda: table_text(bad, 1)]
    for read in reads:
        with pytest.raises(AdditivityViolation) as err:
            read()
        assert err.value.path == at and err.value.residual == -float(m.value(at))


# -- values by index ------------------------------------------------------------------------


@pytest.mark.parametrize("label, g, bound", BLOCK_GRAPHS, ids=BLOCK_IDS)
def test_measure_table_labels_match_blocks(label, g, bound):
    # labels come from the tail arrays; the reference joins each path's edges
    depth = min(bound, 2)
    m = CylinderMeasure(g, lambda p: Fraction(1), "one", True)
    rows = [line.split("\t") for line in table_text(m, depth).splitlines()[1:]]
    want = [(str(deg_total(n)), ".".join(p.edges) if p.edges else p.range)
            for n in deg_grid(g.k, depth) for p in g.block(n)]
    assert [(d, path) for d, path, _ in rows] == want


@pytest.mark.parametrize("g", pf_graphs())
def test_pf_block_values_equal_path_values(g):
    m = pf_measure(g)
    for n in deg_grid(g.k, 3 if g.k <= 2 else 2):
        assert typed(m.values(n)) == typed([m.value(p) for p in g.block(n)]), n


def four_state_star_chain():
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    vectors = [(Fraction(1, 2), quarter, eighth, eighth), (eighth, eighth, quarter, Fraction(1, 2))]
    return star_markov_matrix(4, [2, 1, 4, 3], vectors)


def square_block_cases():
    """(label, bound, make): product specs on both shapes, and Markov chains."""
    cases = []
    for name, bound in [("exonevtwoe", 4), ("ex3v8e", 4), ("lambda2N:N=1", 4), ("lambda2N:N=2", 3)]:
        specs = [parse_product_spec(text) for text in
                 ("const:1/4", "geometric:1/4,1/2", "geometric:-1/3,-1/2", "finite:1/4,0,-1/8")]
        specs.append(ProductMeasureSpec("const", c=0.125))
        for spec in specs:
            cases.append((f"{name}-product-{spec.family}-{spec.c}-{spec.r}", bound,
                          lambda name=name, spec=spec: product_measure(builtin_graph(name), spec)))
        chains = ([("four-state", four_state_star_chain())] if name == "lambda2N:N=2" else
                  [(f"x={x}", t_x_matrix(Fraction(x))) for x in ("1/3", "2/3")])
        for tag, chain in chains:
            cases.append((f"{name}-markov-{tag}", bound,
                          lambda name=name, chain=chain: markov_measure(builtin_graph(name), chain)))
    return cases


SQUARE_BLOCK_CASES = square_block_cases()


@pytest.mark.parametrize("label, bound, make", SQUARE_BLOCK_CASES,
                         ids=[label for label, _, _ in SQUARE_BLOCK_CASES])
def test_square_block_values_equal_path_values(label, bound, make):
    m = make()
    g = m.graph
    for n in deg_grid(2, bound):
        assert typed(m.values(n)) == typed([m.value(p) for p in g.block(n)]), n


def bump_cases():
    """(label, make, at): a bump at a base degree and one below it, per measure kind."""
    cases = []
    for name, make in [
        ("exonevtwoe-pf", lambda: pf_measure(builtin_graph("exonevtwoe"))),
        ("ex3v8e-pf", lambda: pf_measure(builtin_graph("ex3v8e"))),
        ("exonevtwoe-markov", lambda: markov_measure(builtin_graph("exonevtwoe"), t_x_matrix(Fraction(1, 3)))),
        ("lambda4-markov", lambda: markov_measure(builtin_graph("lambda2N:N=2"), four_state_star_chain())),
        ("lambda4-product", lambda: product_measure(builtin_graph("lambda2N:N=2"),
                                                    parse_product_spec("const:1/4"))),
    ]:
        for degree, i in [((1, 1), -1), ((2, 2), 3), ((1, 2), 0), ((0, 1), -1)]:
            cases.append((f"{name}-{degree}", make, degree, i))
    return cases


BUMP_CASES = bump_cases()


@pytest.mark.parametrize("label, make, degree, i", BUMP_CASES, ids=[c[0] for c in BUMP_CASES])
def test_bumps_by_index_match_the_path_route(label, make, degree, i):
    m = make()
    g = m.graph
    at = g.block(degree)[i]
    bumped = m.perturbed(at, bump_for(m))
    for n in deg_grid(2, 3):
        assert typed(bumped.values(n)) == typed([bumped.value(p) for p in g.block(n)]), n
    assert not check_consistency(bumped, 2).ok
    below = m.perturbed(at, -2 * m.value(at))
    reads = [lambda: below.values(at.degree), lambda: below.value(at),
             lambda: check_consistency(below, 2), lambda: table_text(below, 2)]
    for read in reads:
        with pytest.raises(AdditivityViolation) as err:
            read()
        assert err.value.path == at and err.value.residual == -float(m.value(at))


NO_BLOCK_CASES = [
    ("ex3v8e-pf", "ex3v8e", lambda g: pf_measure(g)),
    ("ex3v8e-pf-perturbed", "ex3v8e", lambda g: pf_measure(g).perturbed(g.path(["a0", "b0"]), 1e-3)),
    ("exonevtwoe-product", "exonevtwoe", lambda g: product_measure(g, parse_product_spec("geometric:1/2,1/2"))),
    ("lambda4-product", "lambda2N:N=2", lambda g: product_measure(g, parse_product_spec("const:1/4"))),
    ("exonevtwoe-markov", "exonevtwoe", lambda g: markov_measure(g, t_x_matrix(Fraction(2, 3)))),
    ("lambda4-markov", "lambda2N:N=2", lambda g: markov_measure(g, four_state_star_chain())),
]


@pytest.mark.parametrize("label, name, make", NO_BLOCK_CASES, ids=[c[0] for c in NO_BLOCK_CASES])
def test_measure_checks_build_no_blocks(label, name, make):
    g = builtin_graph(name)
    m = make(g)
    rep = check_consistency(m, 3)
    table_text(m, 3)
    assert rep.ok == ("perturbed" not in label)
    if not rep.ok:
        assert rep.worst_path.degree in ((1, 1), (0, 0))  # the bumped path or its parent
    assert g._blocks == {}


@pytest.mark.parametrize("spec", ["pf", "const:1/4"])
def test_consistency_builds_only_one_edge_glue_tables(spec):
    # the additivity sums go down the one-edge tables glue(m, e_c); no
    # glue(n, (1, 1)) table is built, so none is kept or dropped.  The pf
    # measure sums per source vertex down edges_from: no glue table at all,
    # no cut and no tails above the checked degrees
    g = builtin_graph("lambda2N:N=2")
    if spec == "pf":
        assert check_consistency(pf_measure(g), 3).ok
        assert g._glues == {} and g._cuts == {}
        assert g._tails and all(max(n) <= 3 for n in g._tails)
        return
    m = product_measure(g, parse_product_spec(spec))
    for n in range(5):
        m.numerators((n, n))  # the product squares scatter over glue((n-1, n-1), (1, 1))
    before = set(g._glues)
    assert check_consistency(m, 3).ok
    built = set(g._glues) - before
    assert built and {deg_total(r) for _, r in built} == {1}
    assert g._cuts == {}


def per_path_route(m):
    """m with a zero bump at its first vertex: the same values, checked path
    by path down the glue tables."""
    return m.perturbed(m.graph.vertex_path(m.graph.vertices[0]), 0)


def assert_source_route_matches_path_route(m, depth, tol=1e-12):
    """The check of m equals the per-path check of the same values, report
    and each path's extension total bit for bit."""
    g = m.graph
    got = check_consistency(m, depth, tol)
    assert g._glues == {}
    ref = per_path_route(m)
    want = check_consistency(ref, depth, tol)
    assert g._glues  # the reference took the per-path route
    assert got == want
    assert got.worst_residual.hex() == want.worst_residual.hex()
    for n in deg_grid(g.k, depth):
        totals = dict(zip(g.vertices, measures._source_sums(m, n)[2]))
        assert [totals[v] for v in g.tails(n).sources] == measures._extension_sums(ref, n)[0], n
    return got


def float_pf_data(g):
    """The Perron data of g rounded to floats."""
    pf = pf_data(g)
    return pf._replace(rho=tuple(map(float, pf.rho)), exact=False,
                       kappa={v: float(x) for v, x in pf.kappa.items()})


def spread_pf_data(g):
    """Float data in the form of Perron data, not a Perron vector, whose values
    span many binades, so that a sum of three or more of them rounds by its
    order: on lambda2N:N=2 by the order within a color, on product-kawamura by
    the order of the colors."""
    rng = random.Random(len(g.edges))
    return PFData(tuple(rng.uniform(1, 4) for _ in range(g.k)),
                  {v: rng.uniform(1, 2) * 2.0 ** -rng.randint(0, 60) for v in g.vertices},
                  exact=False, residual=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_pf_source_route_matches_the_path_route_on_random_graphs(seed):
    for k, depth in ((2, 3), (3, 2)):
        g = random_graph(random.Random(seed), k)
        if g.is_strongly_connected():
            for pf in (pf_data(g), float_pf_data(g)):
                fresh = random_graph(random.Random(seed), k)  # no glue table built yet
                assert_source_route_matches_path_route(pf_measure(fresh, pf), depth)


@pytest.mark.parametrize("name", [n for n in BUILTIN_GRAPH_NAMES
                                  if builtin_graph(n).is_strongly_connected()])
def test_pf_source_route_matches_the_path_route_on_builtins(name):
    pf = pf_data(builtin_graph(name))
    skewed = pf._replace(kappa={v: x * (i + 1) for i, (v, x) in enumerate(pf.kappa.items())})
    for depth in range(1, 6):
        assert_source_route_matches_path_route(pf_measure(builtin_graph(name)), depth)
        rep = assert_source_route_matches_path_route(pf_measure(builtin_graph(name), skewed), depth)
        assert not rep.ok or len(pf.kappa) == 1
    g = builtin_graph(name)
    assert not assert_source_route_matches_path_route(pf_measure(g, spread_pf_data(g)), 3).ok


@pytest.mark.parametrize("depth, tol", [(9, 1e-12), (11, 1e-12), (2, 0)])
def test_pf_source_route_matches_the_path_route_on_ex3v8e(depth, tol):
    rep = assert_source_route_matches_path_route(pf_measure(builtin_graph("ex3v8e")), depth, tol)
    assert rep.ok == (tol > 0) and rep.worst_residual > 0


# -- the integer form and the one-edge sums on random graphs ------------------------------


def random_chain_graph(rng):
    """A random 2-graph of a shape product and Markov measures read: one vertex
    with a silent loop and two symbol loops under a random bijection of
    squares, or the star lambda2N:N=1 or N=2 under a random permutation."""
    if rng.random() < 0.5:
        symbol = rng.choice([1, 2])
        edges = [Edge("l", 3 - symbol, "v", "v")] + [Edge(f"s{i}", symbol, "v", "v") for i in range(2)]
        blue = [e.eid for e in edges if e.color == 1]
        red = [e.eid for e in edges if e.color == 2]
        rights = [(r, b) for r in red for b in blue]
        rng.shuffle(rights)
        lefts = [(b, r) for b in blue for r in red]
        return validate_kgraph(2, ["v"], edges, [Square(a, b) for a, b in zip(lefts, rights)])
    perm = list(range(1, 2 * rng.choice([1, 2]) + 1))
    rng.shuffle(perm)
    return build_lambda2N(len(perm) // 2, perm)


def random_chain_measures(rng, g):
    """(tag, measure): a Markov measure of a random positive rational chain, a
    product measure of random rational biases, and a float copy of each."""
    n = detect_shape(g).symbol_count
    rows = []
    for _ in range(n):
        weights = [rng.randint(1, 6) for _ in range(n)]
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    c, r = Fraction(rng.randint(-7, 7), 16), Fraction(rng.randint(-3, 3), 4)
    spec = rng.choice([ProductMeasureSpec("const", c=c), ProductMeasureSpec("geometric", c=c, r=r),
                       ProductMeasureSpec("finite", values=(c, r / 2))])
    floats = MarkovMeasureSpec(tuple(tuple(map(float, row)) for row in rows))
    return [("markov", markov_measure(g, MarkovMeasureSpec(tuple(rows)))),
            ("product", product_measure(g, spec)),
            ("markov-float", markov_measure(g, floats)),
            ("product-float", product_measure(g, ProductMeasureSpec("const", c=float(c))))]


def random_measure_cases(seed):
    """(tag, measure, bound) on the random 2- and 3-graphs of the seed and a
    random chain-shaped 2-graph: pf, product and Markov measures, and bumped
    copies at base degrees and, on the chains, at derived degrees."""
    rng = random.Random(seed)
    out = []
    for k, bound in ((2, 3), (3, 2)):
        g = random_graph(random.Random(seed), k)
        if g.is_strongly_connected():
            m = pf_measure(g)
            bumps = [g.vertex_path(g.vertices[0]), g.block(deg_diag(k, 1))[-1]]
            out += [("pf", m, bound)] + [("pf+bump", m.perturbed(at, bump_for(m)), bound) for at in bumps]
    g = random_chain_graph(rng)
    for tag, m in random_chain_measures(rng, g):
        bumps = [g.block((1, 1))[-1], g.block((2, 2))[0], g.block((1, 2))[-1], g.block((0, 1))[0]]
        out += [(tag, m, 3)] + [(tag + "+bump", m.perturbed(at, bump_for(m)), 3) for at in bumps]
    return out


@pytest.mark.parametrize("seed", range(8))
def test_integer_form_equals_path_values_on_random_graphs(seed):
    cases = [(tag, m, bound) for tag, m, bound in random_measure_cases(seed) if m.exact]
    assert {tag for tag, _, _ in cases} >= {"markov", "product", "markov+bump", "product+bump"}
    for tag, m, bound in cases:
        g = m.graph
        for n in deg_grid(g.k, bound):
            nums, den = m.numerators(n)
            want = [m.value(p) for p in g.block(n)]
            assert type(den) is int and {type(a) for a in nums} == {int}, (tag, n)
            assert [Fraction(a, den) for a in nums] == want, (tag, n)
            assert typed(m.values(n)) == typed(want), (tag, n)


def reference_extension_sums(measure, n):
    """Test-only reference for measures._extension_sums: the flat sums over
    the runs of glue(n, (1,..,1)), in block((1,..,1)) order."""
    g = measure.graph
    diag = deg_diag(g.k, 1)
    off, out = g.glue(n, diag)
    top, den = measure.numerators(tuple(a + 1 for a in n))
    return [sum(top[j] for j in out[off[i]:off[i + 1]]) for i in range(len(off) - 1)], den


def reference_consistency(measure, depth):
    """Test-only reference for check_consistency: (checked, worst residual,
    worst path) from the values and the flat sums of glue(n, (1,..,1))."""
    g = measure.graph
    worst, worst_path, checked = 0.0, None, 0
    for n in deg_grid(g.k, depth):
        off, out = g.glue(n, deg_diag(g.k, 1))
        top = measure.values(tuple(a + 1 for a in n))
        for i, val in enumerate(measure.values(n)):
            residual = float(abs(val - sum(top[j] for j in out[off[i]:off[i + 1]])))
            checked += 1
            if residual > worst:
                worst, worst_path = residual, g.path_at(n, i)
    return checked, worst, worst_path


@pytest.mark.parametrize("seed", range(8))
def test_one_edge_sums_equal_the_flat_glue_sums_on_random_graphs(seed):
    cases = random_measure_cases(seed)
    assert {m.exact for _, m, _ in cases} == {True, False}
    for tag, m, bound in cases:
        g, depth = m.graph, bound - 1
        for n in deg_grid(g.k, depth):
            got, got_den = measures._extension_sums(m, n)
            want, want_den = reference_extension_sums(m, n)
            assert got_den == want_den, (tag, n)
            if m.exact:
                assert got == want, (tag, n)
            else:
                assert all(abs(a - b) <= 1e-15 * abs(b) for a, b in zip(got, want)), (tag, n)
        rep = check_consistency(m, depth)
        checked, worst, worst_path = reference_consistency(m, depth)
        assert rep.checked == checked and rep.ok == ("bump" not in tag), tag
        if m.exact:
            assert (rep.worst_residual, rep.worst_path) == (worst, worst_path), tag
        else:
            assert abs(rep.worst_residual - worst) <= 1e-15, tag


@pytest.mark.parametrize("name, text, top, missing", [
    ("exonevtwoe", "sampled:1/4", 1, None),
    ("exonevtwoe", "sampled:1/4", 2, "no term 2"),
    ("exonevtwoe", "sampled:1/4,1/8,1/16", 3, None),
    ("lambda2N:N=2", "sampled:1/4,1/4", 1, "no term 0"),
    ("lambda2N:N=2", "const:1/4", 5, None),
    ("exonevtwoe", "finite:1/4", 5, None),
])
def test_product_terms_read_up_to_the_top_square(name, text, top, missing):
    g, spec = builtin_graph(name), parse_product_spec(text)
    if missing is None:
        check_product_terms(g, spec, top)
    else:
        with pytest.raises(GammaOutOfRange, match=missing):
            check_product_terms(g, spec, top)
