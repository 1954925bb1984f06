"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
from fractions import Fraction

from kgraph_lab.catalog import builtin_graph, builtin_sbfs
from kgraph_lab.measures import (
    Equivalent,
    MutuallySingular,
    PrefixRule,
    ProductMeasureSpec,
    check_consistency,
    kakutani_classify,
    markov_measure,
    parse_product_spec,
    pf_data,
    pf_measure,
    product_measure,
    rn_estimate,
    star_markov_matrix,
    t_x_matrix,
)
from kgraph_lab.operators import (
    DirectSumRep,
    EncodingTable,
    KPRep,
    atoms_report,
    faithful_rep,
    gauge_covariance,
    monic_vector_probe,
    nonfaithful_witness,
    op_forward,
    permutative_validate,
    standard_rep,
    verify_ck,
)
from kgraph_lab.sbfs import (
    Affine1D,
    Monic,
    NotMonic,
    canonical_projective,
    kirchhoff_check,
    monic_probe,
    validate_sbfs,
)
from test_operators import ScaledRep
from test_sbfs import with_edge_map

SQRT2 = math.sqrt(2.0)

ALL_GRAPHS = [
    "exonevthreeed",
    "exonevtwoe",
    "ex3v8e",
    "kawamura",
    "double-kawamura",
    "product-kawamura",
    "lambda2N:N=1",
    "lambda2N:N=2",
    "ehfg",
]

SBFS_NAMES = [
    "exonevthreeed",
    "exonevtwoe",
    "noncstrn",
    "ex3v8e",
    "kawamura:a=1/2",
    "double-kawamura",
    "product-kawamura",
]


def done(n, text):
    print(f"PASS criterion {n}: {text}")


def supported_measures(name):
    g = builtin_graph(name)
    out = []
    if g.is_strongly_connected():
        out.append(("pf", pf_measure(g)))
    if name == "exonevtwoe":
        out.append(("markov-x=1/3", markov_measure(g, t_x_matrix(Fraction(1, 3)))))
        out.append(
            ("product-0", product_measure(g, ProductMeasureSpec("const", c=Fraction(0))))
        )
    if name == "lambda2N:N=1":
        spec = star_markov_matrix(2, [2, 1], [(Fraction(1, 3), Fraction(2, 3))])
        out.append(("markov-star", markov_measure(g, spec)))
    return g, out


def test_criterion_1_spectral():
    g = builtin_graph("ex3v8e")
    pf = pf_data(g)
    assert pf.residual < 1e-10
    assert all(abs(r - SQRT2) < 1e-10 for r in pf.rho)
    scale = 2 + SQRT2
    assert abs(pf.kappa["u"] - 1 / scale) < 1e-10
    assert abs(pf.kappa["v"] - SQRT2 / scale) < 1e-10
    assert abs(pf.kappa["w"] - 1 / scale) < 1e-10

    g4 = builtin_graph("lambda2N:N=2")
    pf4 = pf_data(g4)
    assert pf4.exact
    assert pf4.rho == (Fraction(2), Fraction(2))
    assert pf4.kappa["v"] == Fraction(1, 3)
    # peripheral weight 1/(sqrt(2N)(1+sqrt(2N))) at N=2: the eigen equation
    # (A kappa)_v = 4 kappa_Q = 2 kappa_v and the normalization force 1/6
    for q in ("Q1", "Q2", "Q3", "Q4"):
        assert pf4.kappa[q] == Fraction(1, 6)
    done(1, "spectral data exact on Lambda_4 and sqrt(2)-accurate on ex3v8e")


def test_criterion_2_measure_formula_and_consistency():
    for name in ("ex3v8e", "exonevtwoe"):
        g = builtin_graph(name)
        m = pf_measure(g)
        pf = m.pf
        for n1 in range(5):
            for n2 in range(5):
                for lam in g.enumerate_paths((n1, n2)):
                    expected = float(pf.kappa[g.s(lam)]) / (
                        float(pf.rho[0]) ** n1 * float(pf.rho[1]) ** n2
                    )
                    assert abs(m.value(lam) - expected) < 1e-12
    checked = 0
    for name in ALL_GRAPHS:
        g, ms = supported_measures(name)
        for tag, m in ms:
            assert check_consistency(m, 4).ok, (name, tag)
            checked += 1
    spec = ProductMeasureSpec("geometric", c=Fraction(1, 4), r=Fraction(1, 2))
    for name in ("exonevtwoe", "ex3v8e"):
        g = builtin_graph(name)
        assert check_consistency(product_measure(g, spec), 4).ok
        checked += 1
    assert checked >= 10
    done(2, f"pf formula to depth (4,4); consistency depth 4 on {checked} measures")


def test_criterion_3_kakutani():
    a = parse_product_spec("geometric:1/2,1/2")  # gamma_i = 2^-(i+1)
    zero = parse_product_spec("const:0")
    quarter = parse_product_spec("const:1/4")
    assert isinstance(kakutani_classify(a, zero), Equivalent)
    assert isinstance(kakutani_classify(quarter, zero), MutuallySingular)
    assert isinstance(
        kakutani_classify(t_x_matrix(Fraction(1, 3)), t_x_matrix(Fraction(2, 5))),
        MutuallySingular,
    )
    done(3, "kakutani verdicts: equivalent / singular / markov-singular")


def test_criterion_4_rn_constancy():
    g = builtin_graph("exonevtwoe")
    x = Fraction(1, 3)
    spec = t_x_matrix(x)
    m = markov_measure(g, spec)
    for i1, first in enumerate(("f1", "f2")):
        seg = g.compose(g.edge_path("e"), g.edge_path(first))
        rule = PrefixRule(g, [seg])
        est = rn_estimate(m, g.edge_path("e"), rule, 10)
        assert all(q == 1 for q in est.quotients)
        for j, fj in enumerate(("f1", "f2")):
            est_f = rn_estimate(m, g.edge_path(fj), rule, 10)
            expected = spec.matrix[(j + 1) % 2][(i1 + 1) % 2]
            assert all(q == expected for q in est_f.quotients)
    done(4, "Markov RN quotients constant: sigma_e = 1, sigma_fj = T entry")


def test_criterion_5_sbfs_axioms():
    for name in SBFS_NAMES:
        report = validate_sbfs(builtin_sbfs(name))
        assert report.ok, name
        for cond in report.conditions:
            assert cond.worst_residual == 0.0, (name, cond.name)
    bad = with_edge_map(
        builtin_sbfs("exonevtwoe"), "e", Affine1D(Fraction(1), Fraction(0))
    )
    bad_report = validate_sbfs(bad)
    assert not bad_report.condition("iii_squares").ok
    done(5, "all seven interval systems validate; perturbed coding edge fails (iii)")


def test_criterion_6_cocycle_and_kirchhoff():
    for name in SBFS_NAMES:
        proj = canonical_projective(builtin_sbfs(name), tol=1e-12, sample_count=256)
        assert proj.cocycle_report.worst_residual <= 1e-12, name
        g = proj.graph
        degrees = [tuple(1 if i == c else 0 for i in range(g.k)) for c in range(g.k)]
        degrees.append((1,) * g.k)
        for n in degrees:
            rep = kirchhoff_check(proj, n, tol=1e-9)
            assert rep.ok, (name, n, rep.worst_residual)
    done(6, "cocycle < 1e-12 at 256 points; Kirchhoff < 1e-9 on colors and diagonal")


def test_criterion_7_ck_relations():
    for name in ALL_GRAPHS:
        g, ms = supported_measures(name)
        for tag, m in ms:
            rep = standard_rep(g, m, 3)
            report = verify_ck(rep, max_level=2, tol=1e-10)
            assert report.ok and report.max_residual < 1e-10, (name, tag)
    for name in ("ex3v8e", "ehfg", "exonevtwoe"):
        rep = faithful_rep(builtin_graph(name), depth=4)
        report = verify_ck(rep, max_level=2)
        assert report.max_residual == 0.0, name
    g = builtin_graph("exonevtwoe")
    faulty = ScaledRep(standard_rep(g, pf_measure(g), 3), "f1", 2.0)
    assert not verify_ck(faulty, max_level=2).ok
    done(7, "CK residuals < 1e-10 (standard), exactly 0 (faithful); fault detected")


def test_criterion_8_faithful_certificates():
    for name in ("ex3v8e", "ehfg", "lambda2N:N=2"):
        g = builtin_graph(name)
        rep = faithful_rep(g, depth=4)
        for v in g.vertices:
            assert any(
                (t := op_forward(rep, g.vertex_path(v), key)) is not None
                and not t.is_zero()
                for key in rep.block_keys()
            ), (name, v)
        gauge = gauge_covariance(rep)
        assert gauge.structural_ok
        assert gauge.max_residual == 0.0
    done(8, "T_v nonzero for every vertex; gauge covariance residual exactly 0")


def test_criterion_9_nonfaithful_witness():
    g = builtin_graph("ehfg")
    report = nonfaithful_witness(g, pf_measure(g), depth=4)
    assert report.norm_standard < 1e-12
    assert report.norm_faithful_on_delta >= 1.0
    for depth in range(1, 9):
        for v in g.vertices:
            assert len(g.enumerate_paths((depth, depth), v)) == 1
    assert len(g.enumerate_paths((8, 8))) == 2
    done(9, "pi_S(b) vanishes on the depth-4 truncation; faithful norm >= 1; "
            "two infinite-path prefixes at every depth <= 8")


def test_criterion_10_monic_verdicts():
    assert isinstance(
        monic_probe(builtin_sbfs("exonevtwoe"), depth=5, resolution=Fraction(1, 32)),
        Monic,
    )
    assert isinstance(
        monic_probe(builtin_sbfs("ex3v8e"), depth=4, resolution=Fraction(1, 32)),
        Monic,
    )
    res = monic_probe(
        builtin_sbfs("exonevthreeed"), depth=4, resolution=Fraction(1, 32)
    )
    assert isinstance(res, NotMonic)
    lo, hi = res.witness
    assert Fraction(1, 2) <= lo < hi <= 1
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, pf_measure(g), 4)
    for level in (1, 2, 3):
        assert monic_vector_probe(rep, level).cyclic
    done(10, "monic: exonevtwoe/ex3v8e Monic, exonevthreeed NotMonic in (1/2,1]; "
             "standard rep cyclic at levels <= 3")


def test_criterion_11_atomic_permutative():
    g = builtin_graph("exonevtwoe")
    kp = KPRep(g, 3)
    single = atoms_report(kp, depth=3)
    assert single.all_rank_one and single.monic_consistent
    doubled = atoms_report(DirectSumRep([KPRep(g, 3), KPRep(g, 3)]), 3)
    assert all(a.rank == 2 for a in doubled.atoms)
    assert not doubled.monic_consistent

    g3 = builtin_graph("ex3v8e")
    frep = faithful_rep(g3, depth=5, cap=3)
    table = EncodingTable(frep, max_degree=1)
    report = permutative_validate(table)
    assert report.ok, report.witnesses
    assert report.intertwine_ok
    done(11, "KP atoms rank 1 (monic), doubled rank 2 (not); faithful table "
             "validates with intertwining encoding")


def test_criterion_12_roundtrip_combinatorics():
    for name in ALL_GRAPHS:
        g = builtin_graph(name)
        bound = 6 if g.k == 1 else 3
        for n in itertools.product(range(bound + 1), repeat=g.k):
            if not 0 < sum(n) <= 6:
                continue
            for lam in g.enumerate_paths(n):
                for m in itertools.product(*(range(c + 1) for c in n)):
                    head, tail = g.factorize(lam, m)
                    assert g.compose(head, tail) == lam
    for name in ("ex3v8e", "exonevtwoe", "product-kawamura"):
        g = builtin_graph(name)
        degs = [d for d in itertools.product(range(3), repeat=g.k) if sum(d) >= 1]
        pool = [p for d in degs for p in g.enumerate_paths(d)]
        for p in pool:
            for q in pool:
                if not (
                    all(a <= 2 for a in p.degree) and all(a <= 2 for a in q.degree)
                ):
                    continue
                got = sorted(map(repr, g.lambda_min(p, q)))
                brute = []
                join = tuple(max(a, b) for a, b in zip(p.degree, q.degree))
                for rho in g.enumerate_paths(
                    tuple(j - a for j, a in zip(join, p.degree)), g.s(p)
                ):
                    for xi in g.enumerate_paths(
                        tuple(j - a for j, a in zip(join, q.degree)), g.s(q)
                    ):
                        if g.compose(p, rho) == g.compose(q, xi):
                            brute.append((rho, xi))
                assert got == sorted(map(repr, brute))
    done(12, "factorize/compose round trips to total degree 6; lambda_min matches "
             "brute force to degree (2,2)")
