import math
import re
from fractions import Fraction

import pytest

from kgraph_lab.catalog import builtin_graph
from kgraph_lab.errors import (
    DegreeCapExceeded,
    GammaOutOfRange,
    IncomparableSpecs,
    NotStronglyConnected,
    SpecInvariantViolated,
    UnsupportedGraphShape,
    ZeroDenominator,
)
from kgraph_lab.kgraph import Edge, deg_unit, validate_kgraph
from kgraph_lab.measures import (
    CylinderMeasure,
    Equivalent,
    MarkovMeasureSpec,
    MutuallySingular,
    PrefixRule,
    ProductMeasureSpec,
    Undetermined,
    _rainbow_symbols,
    check_consistency,
    check_product_biases,
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


# -- pf measure ----------------------------------------------------------------


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


def test_measure_table_layout():
    g = builtin_graph("exonevtwoe")
    table = measure_table(pf_measure(g), 1)
    lines = table.strip().split("\n")
    assert lines[0] == "depth\tpath\tvalue"
    assert any("\tv\t1/1" in ln or "\tv\t1" == ln.split("\t", 1)[-1].replace("path", "") for ln in lines[1:]) or any(
        ln.split("\t")[1] == "v" for ln in lines[1:]
    )
    assert all(len(ln.split("\t")) == 3 for ln in lines)


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
    assert len(measure_table(m, 4).splitlines()) == 1 + 5
    with pytest.raises(DegreeCapExceeded, match="measure table depth 5 .* enumeration cap 4"):
        measure_table(m, 5)


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
def test_rainbow_symbols_match_unit_factorization_loop(name):
    g = builtin_graph(name)
    shape = detect_shape(g)
    for n in range(5):
        for path in g.enumerate_paths((n, n)):
            expected = reference_rainbow_symbols(g, shape, path)
            assert _rainbow_symbols(g, shape, path) == expected
