import itertools
import math
import random
from fractions import Fraction

import pytest

from kgraph_lab.catalog import builtin_graph, builtin_sbfs, system_kawamura
from kgraph_lab.errors import (
    CocycleViolation,
    DegreeCapExceeded,
    DegenerateMap,
    DimensionUnsupported,
    NonpositiveRN,
    ParameterOutOfRange,
    ZeroVertexMass,
)
from kgraph_lab.intervals import Box, IntervalUnion, partition_atoms
from kgraph_lab.kgraph import KGraph, Edge, Square, deg_total, validate_kgraph
from kgraph_lab.measures import (
    CylinderMeasure,
    ProductMeasureSpec,
    pf_measure,
    product_measure,
    t_x_matrix,
    markov_measure,
)
from kgraph_lab.sbfs import (
    Affine1D,
    GridAffine,
    InconclusiveMonic,
    IntervalSBFS,
    Monic,
    NotMonic,
    PathspaceSBFS,
    Skew2D,
    canonical_projective,
    grid_scale,
    kirchhoff_check,
    lift_double_sbfs,
    lift_product_sbfs,
    monic_probe,
    sbfs_from_dict,
    sbfs_to_dict,
    transport_projective,
    validate_sbfs,
)

BUILTIN_SYSTEMS = [
    "exonevthreeed",
    "exonevtwoe",
    "noncstrn",
    "ex3v8e",
    "kawamura:a=1/2",
    "double-kawamura",
    "product-kawamura",
]


def with_edge_map(sys, eid, new_map):
    """Copy of the system with one prefixing map replaced (fault injection)."""
    maps = dict(sys.edge_maps)
    maps[eid] = new_map
    return IntervalSBFS(sys.graph, sys.domains, maps, sys.name + "*")


def interval(lo, hi):
    return IntervalUnion.interval(Fraction(lo), Fraction(hi))


# -- Radon-Nikodym derivatives of single maps ------------------------------------


def test_rn_derivative_skew_one_minus_x():
    noncstrn = builtin_sbfs("noncstrn")
    pt = (Fraction(1, 4), Fraction(1, 3))
    assert noncstrn.phi_edge("f1", pt) == Fraction(3, 4)  # 1 - x
    assert noncstrn.phi_edge("f2", pt) == Fraction(1, 4)  # x


def test_rn_derivative_identity():
    sys = builtin_sbfs("exonevthreeed")
    identity = with_edge_map(sys, "f3", Affine1D(Fraction(1), Fraction(0)))
    assert identity.phi_edge("f3", Fraction(1, 3)) == 1


def test_rn_derivative_affine_half():
    sys = builtin_sbfs("exonevthreeed")
    assert sys.phi_edge("f1", Fraction(1, 8)) == Fraction(1, 2)


# (system, edge, map whose Jacobian vanishes identically)
DEGENERATE_MAPS = [
    ("exonevthreeed", "f1", Affine1D(Fraction(0), Fraction(1, 4))),
    ("noncstrn", "f1", Skew2D.make(1, 0, {(1, 0): Fraction(1)})),  # beta free of y
    ("noncstrn", "f1", Skew2D.make(0, Fraction(1, 2), {(0, 1): 1})),  # constant first coordinate
]


@pytest.mark.parametrize("name, eid, new_map", DEGENERATE_MAPS,
                         ids=["affine-a0", "skew-p1-0", "skew-a0"])
def test_degenerate_map_fails_rn_positive(name, eid, new_map):
    report = validate_sbfs(with_edge_map(builtin_sbfs(name), eid, new_map))
    rn = report.condition("rn_positive")
    assert not rn.ok
    assert rn.witnesses == [(eid, "degenerate")]


# -- prefixing maps ---------------------------------------------------------------------


def random_affine(rng):
    return Affine1D(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 5)))


def random_skew(rng):
    def coef():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    beta = {(i, 0): coef() for i in range(3)}  # p0 of degree <= 2
    beta.update({(i, 1): coef() for i in range(2)})  # p1 of degree <= 1
    beta[(0, 1)] = beta[(0, 1)] or Fraction(1)
    a = random_affine(rng)
    return Skew2D.make(a.a, a.b, beta)


def random_point(rng, dim):
    def x():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

    return x() if dim == 1 else (x(), x())


@pytest.mark.parametrize("dim", [1, 2])
def test_map_composition_and_inverse_are_exact(dim):
    rng = random.Random(40 + dim)
    make = random_affine if dim == 1 else random_skew
    for _ in range(200):
        m, n = make(rng), make(rng)
        mn = m.after(n)
        pt = random_point(rng, dim)
        assert mn.apply(pt) == m.apply(n.apply(pt))
        try:
            assert m.inverse_point(m.apply(pt)) == pt
        except DegenerateMap:  # p1 vanishes at x; the skew map is not injective there
            assert dim == 2 and m.jacobian(pt) == 0
        if dim == 2:
            for p in (mn.p0, mn.p1):
                assert all(isinstance(c, Fraction) for c in p)
                assert len(p) == 1 or p[-1] != 0  # trimmed: == is polynomial identity


def test_skew_map_dict_form_is_stored_as_two_x_polynomials():
    m = Skew2D.make(-1, 1, {(0, 0): 1, (0, 1): -1, (2, 0): 0, (1, 1): Fraction(1, 3)})
    assert (m.p0, m.p1) == ((Fraction(1),), (Fraction(-1), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Skew2D.make(1, 0, {(0, 2): 1})


UNIT_BOX = Box(IntervalUnion.interval(0, 1), IntervalUnion.interval(0, 1))


def test_skew_image_cuts_a_linear_y_coefficient_at_its_root():
    # p1 = 2x - 1 changes sign at x = 1/2: one strip on each side, each of measure 1/4
    image = Skew2D.make(1, 0, {(0, 1): -1, (1, 1): 2}).image(UNIT_BOX)
    assert len(image.strips) == 2
    assert image.measure == Fraction(1, 2)


@pytest.mark.parametrize("c", [Fraction(3, 16), Fraction(1, 6)])
def test_skew_image_refuses_a_y_coefficient_of_degree_two(c):
    # p1 = x^2 - x + c changes sign twice in (0, 1), at 1/4 and 3/4 for c = 3/16
    # and at irrational roots for c = 1/6; image cuts only at a linear root
    m = Skew2D.make(1, 0, {(0, 1): c, (1, 1): -1, (2, 1): 1})
    with pytest.raises(DimensionUnsupported):
        m.image(UNIT_BOX)
    # after still composes such maps, for the square test of condition iii
    assert len(m.after(m).p1) == 5


# -- built-in systems -----------------------------------------------------------------


def test_exonevthreeed_ranges():
    sys = builtin_sbfs("exonevthreeed")
    assert sys.edge_range("f1") == interval(Fraction(1, 4), Fraction(1, 2))
    assert sys.edge_range("f2") == interval(0, Fraction(1, 4))
    assert sys.edge_range("f3") == interval(Fraction(1, 2), 1)


def test_kawamura_half_ranges():
    sys = builtin_sbfs("kawamura:a=1/2")
    assert sys.edge_range("e") == interval(0, Fraction(1, 4))
    assert sys.edge_range("g") == interval(Fraction(1, 4), Fraction(1, 2))
    assert sys.edge_range("f") == interval(Fraction(1, 2), 1)


def test_kawamura_parameter_range():
    with pytest.raises(ParameterOutOfRange):
        system_kawamura(Fraction(3, 2))


def test_ex3v8e_ranges():
    sys = builtin_sbfs("ex3v8e")
    assert sys.edge_range("a0") == interval(0, Fraction(1, 3))
    assert sys.edge_range("c0") == interval(Fraction(1, 2), Fraction(2, 3))


def test_noncstrn_ranges_are_triangles():
    sys = builtin_sbfs("noncstrn")
    r1 = sys.edge_range("f1")  # region above the diagonal
    r2 = sys.edge_range("f2")  # region below
    assert r1.contains_point((Fraction(1, 4), Fraction(1, 2)))
    assert not r1.contains_point((Fraction(1, 2), Fraction(1, 4)))
    assert r2.contains_point((Fraction(1, 2), Fraction(1, 4)))
    assert r1.measure + r2.measure == 1


# -- validation --------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_builtin_systems_validate(name):
    sys = builtin_sbfs(name)
    report = validate_sbfs(sys)
    assert report.ok, [c.to_dict() for c in report.conditions if not c.ok]
    for cond in report.conditions:
        assert cond.worst_residual <= 1e-12


def test_perturbed_coding_edge_fails_squares():
    sys = builtin_sbfs("exonevtwoe")
    bad = with_edge_map(sys, "e", Affine1D(Fraction(1), Fraction(0)))
    report = validate_sbfs(bad)
    assert not report.ok
    assert not report.condition("iii_squares").ok


# (system, edge, replacement map, {failing condition: witnesses it must report})
SKEW_FAULTS = [
    (
        "noncstrn", "e",
        Skew2D.make(-1, 1, {(0, 0): 1, (0, 1): -1, (1, 1): Fraction(1, 3)}),
        {
            "iii_squares": [str((Square(left=("f2", "e"), right=("e", "f1")), "maps differ"))],
            "iv_coding_commute": [],
            "v_ranges_cover": [str(("v", 2, "deficit 1/6"))],
        },
    ),
    (
        "noncstrn", "f2",
        Skew2D.make(Fraction(1, 2), 0, {(1, 1): 1}),
        {
            "iii_squares": [
                str((Square(left=("f1", "e"), right=("e", "f2")), "maps differ")),
                str((Square(left=("f2", "e"), right=("e", "f1")), "maps differ")),
            ],
            "iv_coding_commute": [],
            "v_ranges_cover": [str(("v", 1, "overlap"))],
            "ranges_disjoint": [str(("f1", "f2"))],
        },
    ),
    (
        "product-kawamura", "f@2[w]",
        Skew2D.make(1, 0, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 2),
                           (1, 1): Fraction(1, 7)}),
        {
            "iii_squares": [
                str((Square(left=("f@1[w]", "f@2[v]"), right=("f@2[w]", "f@1[v]")),
                     "maps differ")),
                str((Square(left=("g@1[w]", "f@2[w]"), right=("f@2[v]", "g@1[v]")),
                     "R_b not in D_a")),
                str((Square(left=("g@1[w]", "f@2[w]"), right=("f@2[v]", "g@1[v]")),
                     "maps differ")),
            ],
            "iv_coding_commute": [],
            "v_ranges_cover": [
                str(("(w,w)", 2, "f@2[w]", "range leaks out of D_v")),
                str(("(w,w)", 2, "deficit 11/112")),
            ],
            "ranges_disjoint": [str(("f@2[w]", "g@2[w]"))],
        },
    ),
]


@pytest.mark.parametrize("name, eid, new_map, failing", SKEW_FAULTS,
                         ids=[f"{n}-{e}" for n, e, _, _ in SKEW_FAULTS])
def test_perturbed_skew_map_fails_exactly_the_pinned_conditions(name, eid, new_map, failing):
    report = validate_sbfs(with_edge_map(builtin_sbfs(name), eid, new_map)).to_dict()
    assert not report["ok"]
    got = {c["name"]: c["witnesses"] for c in report["conditions"] if not c["ok"]}
    assert set(got) == set(failing)
    for cond, witnesses in failing.items():
        assert got[cond], cond
        for w in witnesses:
            assert w in got[cond], (cond, w)


def test_coding_commute_fails_without_comparisons():
    # with a zero-slope red map no sample point can be coded in color 2
    flat = Affine1D(Fraction(0), Fraction(1, 2))
    iv = validate_sbfs(with_edge_map(builtin_sbfs("exonevtwoe"), "e", flat)).condition(
        "iv_coding_commute")
    assert not iv.ok
    assert iv.witnesses == ["no comparisons"]
    # a 1-graph has no pair of colors to compare
    one = validate_sbfs(with_edge_map(builtin_sbfs("exonevthreeed"), "f3", flat))
    assert one.condition("iv_coding_commute").ok


def test_missing_color_fails_cover():
    # a raw skeleton lacking red edges entirely (not a valid 2-graph, so
    # built without validation): condition (v) must flag every vertex
    g = KGraph(2, ["v"], [Edge("b", 1, "v", "v")], [])
    sys = IntervalSBFS(
        g,
        {"v": interval(0, 1)},
        {"b": Affine1D(Fraction(1), Fraction(0))},
        "broken",
    )
    report = validate_sbfs(sys)
    assert not report.condition("v_ranges_cover").ok


def test_coding_laws_at_samples():
    for name in ("exonevtwoe", "ex3v8e", "noncstrn", "product-kawamura"):
        sys = builtin_sbfs(name)
        g = sys.graph
        for lam in g.enumerate_paths((1, 1)):
            for pt in sys.sample_points(g.s(lam), 8):
                image = sys.apply_path(lam, pt)
                back, _ = sys.coding_n(lam.degree, image)
                if isinstance(pt, tuple):
                    assert all(a == b for a, b in zip(back, pt))
                else:
                    assert back == pt


def test_phi_chain_rule():
    sys = builtin_sbfs("ex3v8e")
    g = sys.graph
    for lam in g.enumerate_paths((1, 1)):
        head, tail = g.factorize(lam, (1, 0))
        for pt in sys.sample_points(g.s(lam), 6):
            lhs = sys.phi_path(lam, pt)
            rhs = sys.phi_path(head, sys.apply_path(tail, pt)) * sys.phi_path(tail, pt)
            assert lhs == rhs


# -- lifts -------------------------------------------------------------------------------


def test_double_lift_shares_maps_and_coding():
    esys = builtin_sbfs("kawamura:a=1/2")
    dbl = lift_double_sbfs(esys)
    assert validate_sbfs(dbl).ok
    for e in esys.graph.edges:
        assert dbl.edge_maps[f"{e.eid}^1"] == esys.edge_maps[e.eid]
        assert dbl.edge_maps[f"{e.eid}^2"] == esys.edge_maps[e.eid]
    for pt in dbl.sample_points("v", 8):
        p1, _ = dbl.coding_color(1, pt)
        p2, _ = dbl.coding_color(2, pt)
        assert p1 == p2


def test_product_lift_domains_and_ranges():
    s = builtin_sbfs("kawamura:a=1/2")
    prod = lift_product_sbfs(s, s)
    assert validate_sbfs(prod).ok
    dv = prod.domains["(v,v)"]
    assert dv[0] == interval(0, Fraction(1, 2)) and dv[1] == interval(0, Fraction(1, 2))
    # R of a first-factor edge is R_edge x D_w
    rng = prod.edge_range("f@1[w]")
    assert rng.measure == s.edge_range("f").measure * s.domains["w"].measure
    for x, y in [(Fraction(3, 4), Fraction(5, 8)), (Fraction(9, 16), Fraction(7, 8))]:
        expected = s.edge_range("f").contains_point(x) and s.domains["w"].contains_point(y)
        assert rng.contains_point((x, y)) == expected


def test_product_with_identity_loop_keeps_factor():
    from kgraph_lab.kgraph import validate_kgraph

    s = builtin_sbfs("kawamura:a=1/2")
    loop = validate_kgraph(1, ["*"], [Edge("z", 1, "*", "*")], [])
    triv = IntervalSBFS(
        loop, {"*": interval(0, 1)}, {"z": Affine1D(Fraction(1), Fraction(0))}
    )
    assert validate_sbfs(triv).ok
    prod = lift_product_sbfs(s, triv)
    assert validate_sbfs(prod).ok
    for e in s.graph.edges:
        m = prod.edge_maps[f"{e.eid}@1[*]"]
        assert (m.a, m.b) == (s.edge_maps[e.eid].a, s.edge_maps[e.eid].b)


# -- path-space systems --------------------------------------------------------------------


def test_pathspace_pf_constructs():
    g = builtin_graph("ex3v8e")
    ps = PathspaceSBFS(g, pf_measure(g))
    lam = g.edge_path("a0")
    z = ps.sample_points(g.s(lam), 1)[0]
    assert abs(ps.measure.quotient(lam, z) - 1 / math.sqrt(2)) < 1e-12


def test_pathspace_markov_constructs():
    g = builtin_graph("exonevtwoe")
    ps = PathspaceSBFS(g, markov_measure(g, t_x_matrix(Fraction(1, 3))))
    assert ps.name.startswith("pathspace")


def test_pathspace_zero_vertex_mass():
    g = builtin_graph("exonevtwoe")
    dead = CylinderMeasure(g, lambda p: Fraction(0), "dead", True)
    with pytest.raises(ZeroVertexMass):
        PathspaceSBFS(g, dead)


def test_pathspace_nonpositive_rn():
    g = builtin_graph("exonevtwoe")

    def fn(p):
        # positive on vertices, vanishing on one edge cylinder
        if p.edges and p.edges[0] == "f1":
            return Fraction(0)
        return Fraction(1, 2 ** p.degree[0])

    with pytest.raises(NonpositiveRN):
        PathspaceSBFS(g, CylinderMeasure(g, fn, "bad", True))


# -- projective systems ----------------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_canonical_projective_cocycle(name):
    sys = canonical_projective(builtin_sbfs(name), sample_count=256)
    assert sys.cocycle_report.ok
    assert sys.cocycle_report.worst_residual <= 1e-12


def test_standard_pathspace_f_values():
    g = builtin_graph("ex3v8e")
    ps = PathspaceSBFS(g, pf_measure(g))
    proj = canonical_projective(ps, sample_count=32)
    lam = g.edge_path("a0")
    inside = [z for z in g.enumerate_paths((3, 3), "u")
              if g.strip_prefix(z, lam) is not None]
    outside = [z for z in g.enumerate_paths((3, 3), "v")]
    assert inside and outside
    for z in inside:
        assert abs(proj.f_eval(lam, z) - 2 ** 0.25) < 1e-10
    for z in outside:
        assert proj.f_eval(lam, z) == 0


def test_sign_violation_detected():
    sys = builtin_sbfs("exonevtwoe")
    with pytest.raises(CocycleViolation):
        canonical_projective(sys, signs={"f1": -1})


def test_consistent_signs_pass():
    # flipping the silent loop e flips both sides of every square: allowed
    sys = builtin_sbfs("exonevtwoe")
    proj = canonical_projective(sys, signs={"e": -1})
    assert proj.cocycle_report.ok


# -- transport ------------------------------------------------------------------------------


def test_transport_trivial_density():
    sys = canonical_projective(builtin_sbfs("exonevtwoe"))
    moved = transport_projective(sys, lambda pt: Fraction(1))
    g = sys.graph
    pts = sys.sample_points("v", 16)
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for pt in pts:
            assert abs(moved.f_eval(lam, pt) - sys.f_eval(lam, pt)) < 1e-12


def test_transport_constant_density_cancels():
    sys = canonical_projective(builtin_sbfs("ex3v8e"))
    moved = transport_projective(sys, lambda pt: Fraction(7, 2))
    g = sys.graph
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for pt in sys.sample_points(lam.range, 8):
            assert abs(moved.f_eval(lam, pt) - sys.f_eval(lam, pt)) < 1e-12


def test_transport_twice_is_one_transport_by_the_product():
    # the second transport chains its density onto the first one's
    sys = canonical_projective(builtin_sbfs("kawamura"))

    def d1(x):
        return 1 + x

    def d2(x):
        return 2 - x

    twice = transport_projective(transport_projective(sys, d1), d2)
    once = transport_projective(sys, lambda x: d1(x) * d2(x))
    g = sys.graph
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for pt in sys.sample_points(lam.range, 16):
            assert twice.f_eval(lam, pt) == once.f_eval(lam, pt)
    assert twice.intertwine_residual < 1e-12


def test_transport_pathspace_matches_direct_construction():
    g = builtin_graph("exonevtwoe")
    m_pf = pf_measure(g)
    spec = ProductMeasureSpec("geometric", c=Fraction(1, 2), r=Fraction(1, 2))
    m_prod = product_measure(g, spec)
    base = PathspaceSBFS(g, m_pf)
    proj_pf = canonical_projective(base, sample_count=16)

    def density(z):
        return m_prod.value(z) / m_pf.value(z)

    moved = transport_projective(proj_pf, density, tol=1e-8, sample_count=16)
    direct = canonical_projective(
        PathspaceSBFS(g, m_prod), tol=1e-6, sample_count=16
    )
    worst = 0.0
    for eid in ("f1", "f2", "e"):
        lam = g.edge_path(eid)
        for z in g.enumerate_paths((6, 6), "v"):
            worst = max(worst, abs(moved.f_eval(lam, z) - direct.f_eval(lam, z)))
    assert worst < 0.05  # finite-depth RN tails decay like the bias sequence


def test_transport_rejects_nonpositive_density():
    sys = canonical_projective(builtin_sbfs("exonevtwoe"))
    from kgraph_lab.errors import NonpositiveDensity

    with pytest.raises((NonpositiveDensity, CocycleViolation)):
        transport_projective(sys, lambda pt: Fraction(0))


# -- Kirchhoff rule ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_kirchhoff_builtin_systems(name):
    proj = canonical_projective(builtin_sbfs(name))
    g = proj.graph
    degrees = [tuple(1 if i == c else 0 for i in range(g.k)) for c in range(g.k)]
    degrees.append((1,) * g.k)
    for n in degrees:
        rep = kirchhoff_check(proj, n, tol=1e-9)
        assert rep.ok, (name, n, rep)


def test_kirchhoff_identity_loop():
    from kgraph_lab.kgraph import validate_kgraph

    loop = validate_kgraph(1, ["*"], [Edge("z", 1, "*", "*")], [])
    triv = IntervalSBFS(
        loop, {"*": interval(0, 1)}, {"z": Affine1D(Fraction(1), Fraction(0))}
    )
    proj = canonical_projective(triv)
    rep = kirchhoff_check(proj, (1,))
    assert rep.ok and rep.worst_residual < 1e-12


def test_kirchhoff_two_vertex_split():
    proj = canonical_projective(builtin_sbfs("exonevthreeed"))
    rep = kirchhoff_check(proj, (1,))
    assert rep.ok


# -- monic probe --------------------------------------------------------------------------------


def test_monic_exonevtwoe():
    res = monic_probe(builtin_sbfs("exonevtwoe"), depth=5, resolution=Fraction(1, 32))
    assert isinstance(res, Monic)


def test_monic_ex3v8e():
    res = monic_probe(builtin_sbfs("ex3v8e"), depth=4, resolution=Fraction(1, 32))
    assert isinstance(res, Monic)


def test_not_monic_exonevthreeed():
    res = monic_probe(builtin_sbfs("exonevthreeed"), depth=4, resolution=Fraction(1, 32))
    assert isinstance(res, NotMonic)
    lo, hi = res.witness
    assert Fraction(1, 2) <= lo < hi <= 1
    # the probe also finds the second invariant piece [0, 1/4): only the
    # paths through the second vertex map into it, always with full image
    assert (Fraction(0), Fraction(1, 4)) in res.witnesses


def test_monic_kawamura_needs_depth_nine():
    # loop words f(gf)^k shrink by 1/2 every two edges, so depth 5 leaves
    # 1/8-wide range atoms and the 1/32 grid stays unresolved
    shallow = monic_probe(builtin_sbfs("kawamura:a=1/2"), depth=5)
    assert isinstance(shallow, InconclusiveMonic)
    deep = monic_probe(builtin_sbfs("kawamura:a=1/2"), depth=9)
    assert isinstance(deep, Monic)


def test_monic_double_packs_two_letters_per_level():
    assert isinstance(monic_probe(builtin_sbfs("double-kawamura"), depth=5), Monic)


def test_monic_product_reduces_to_factors():
    res = monic_probe(builtin_sbfs("product-kawamura"), depth=9)
    assert isinstance(res, Monic)


def test_monic_product_reports_the_widest_inconclusive_factor():
    # the product used to report width 0 where each factor reports 1/16
    sys = builtin_sbfs("product-kawamura")
    factors = [monic_probe(f, depth=6) for f in sys.product_factors]
    assert factors == [InconclusiveMonic(Fraction(1, 16))] * 2
    assert monic_probe(sys, depth=6) == InconclusiveMonic(Fraction(1, 16))


@pytest.mark.parametrize("depth", [6, 7, 8])
def test_monic_double_kawamura_past_the_reference_depths(depth):
    # paths of length 2 * depth: a grid scale of D * Q**(depth + 1) holds
    # their ranges up to depth 5 only, and raises past it
    assert isinstance(monic_probe(builtin_sbfs("double-kawamura"), depth=depth), Monic)


def test_grid_affine_is_affine1d_on_the_grid():
    scale = 48
    graph = builtin_sbfs("exonevtwoe").graph
    union = IntervalUnion([(Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 2), 1)])
    grid = IntervalUnion.canonical([(int(lo * scale), int(hi * scale)) for lo, hi in union.parts])
    for a, b in [(Fraction(1, 2), Fraction(1, 4)), (Fraction(-3, 2), Fraction(2)),
                 (Fraction(1), Fraction(-1, 3))]:
        sys = IntervalSBFS(graph, {"v": union}, {"e": Affine1D(a, b)}).on_grid(scale)
        assert sys.domains["v"] == grid
        m = sys.edge_maps["e"]
        got = m.image(grid)
        assert all(type(x) is int for part in got.parts for x in part)
        assert [(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in got.parts] == list(
            union.scaled(a, b).parts)
        assert m.inverse().image(got) == grid
    with pytest.raises(ArithmeticError):
        GridAffine(1, 0, 3).image(IntervalUnion.canonical([(1, 3)]))
    with pytest.raises(ArithmeticError):
        IntervalSBFS(graph, {"v": union}, {}).on_grid(4)


def test_monic_nonproduct_2d_unsupported():
    with pytest.raises(DimensionUnsupported):
        monic_probe(builtin_sbfs("noncstrn"))


@pytest.mark.parametrize("name", ["noncstrn", "product-kawamura"])
def test_range_words_need_a_1d_system(name):
    with pytest.raises(DimensionUnsupported):
        builtin_sbfs(name).range_words(1)


def test_range_words_above_the_enumeration_cap_raise():
    with pytest.raises(DegreeCapExceeded, match="cap 24"):
        builtin_sbfs("kawamura:a=1/2").range_words(25)
    with pytest.raises(DegreeCapExceeded, match="cap 24"):
        builtin_sbfs("double-kawamura").range_words(13)


def test_monic_depth_above_the_enumeration_cap_raises():
    # depth * k above enum_cap used to skip the long degrees and pass anyway
    with pytest.raises(DegreeCapExceeded, match="cap 24"):
        monic_probe(builtin_sbfs("kawamura:a=1/2"), depth=25)
    with pytest.raises(DegreeCapExceeded):
        monic_probe(builtin_sbfs("double-kawamura"), depth=13)
    with pytest.raises(DegreeCapExceeded):
        monic_probe(builtin_sbfs("product-kawamura"), depth=25)  # each factor on its own


# -- monic probe against the quadratic fixpoint it replaced ---------------------------------------


def reference_monic_probe(sys, depth=4, resolution=Fraction(1, 32)):
    """The rescanning fixpoint and all-atom grid pass, kept as the reference."""
    if sys.dim == 2:
        if sys.product_factors is not None:
            a = reference_monic_probe(sys.product_factors[0], depth, resolution)
            b = reference_monic_probe(sys.product_factors[1], depth, resolution)
            if isinstance(a, Monic) and isinstance(b, Monic):
                return Monic(depth, Fraction(resolution))
            for r in (a, b):
                if isinstance(r, NotMonic):
                    return r
            return InconclusiveMonic(max(r.max_atom_width for r in (a, b)
                                         if isinstance(r, InconclusiveMonic)))
        raise DimensionUnsupported("monic probe needs 1D or product structure")
    g = sys.graph
    resolution = Fraction(resolution)
    space = IntervalUnion()
    for v in g.vertices:
        space = space.union(sys.domains[v])
    ranges = [sys.domains[v] for v in g.vertices]
    for nd in itertools.product(range(depth + 1), repeat=g.k):
        if deg_total(nd) == 0 or deg_total(nd) > g.enum_cap:
            continue
        for lam in g.enumerate_paths(nd):
            ranges.append(sys.path_range_1d(lam))
    atoms = partition_atoms(space, ranges)
    atom_set = set(atoms)
    changed = True
    while changed:
        changed = False
        for atom in list(atom_set):
            a_int = IntervalUnion.interval(*atom)
            ok = True
            for e in g.edges:
                m = sys.edge_maps[e.eid]
                pre = m.image(sys.domain_of_edge(e.eid)).intersect(a_int)
                pre = pre.scaled(Fraction(1) / m.a, -m.b / m.a)
                pre = pre.intersect(sys.domain_of_edge(e.eid))
                if pre.measure == 0:
                    continue
                hits = [b for b in atoms
                        if IntervalUnion.interval(*b).intersect(pre).measure > 0]
                if len(hits) != 1 or hits[0] not in atom_set:
                    ok = False
                    break
                b_int = IntervalUnion.interval(*hits[0])
                if pre != b_int.intersect(pre) or b_int.subtract(pre).measure != 0:
                    ok = False
                    break
            if not ok:
                atom_set.discard(atom)
                changed = True
    wide = sorted((a for a in atom_set if a[1] - a[0] > resolution),
                  key=lambda a: (a[0] - a[1], a[0]))
    if wide:
        return NotMonic(wide[0], tuple(wide))
    worst_err = Fraction(0)
    for v in g.vertices:
        for dlo, dhi in sys.domains[v].parts:
            steps = int(math.ceil((dhi - dlo) / resolution))
            for t in range(steps):
                cell_lo = dlo + t * resolution
                cell_hi = min(dhi, cell_lo + resolution)
                cell = IntervalUnion.interval(cell_lo, cell_hi)
                err = Fraction(0)
                for lo, hi in atoms:
                    inside = IntervalUnion.interval(lo, hi).intersect(cell).measure
                    if inside == 0:
                        continue
                    err += min(inside, (hi - lo) - inside)
                worst_err = max(worst_err, err)
    if worst_err <= resolution / 2:
        return Monic(depth, resolution)
    return InconclusiveMonic(max(hi - lo for lo, hi in atoms))


def probe_outcome(probe, sys, depth, resolution):
    try:
        return probe(sys, depth, resolution)
    except DimensionUnsupported as exc:
        return type(exc)


RESOLUTIONS = [Fraction(1, 8), Fraction(1, 32)]
# depths 0-8, less where the quadratic reference would take more than about
# a second per case (exonevtwoe: 2 s at depth 8; ex3v8e: 12 s at depth 8;
# double-kawamura: 47 s at depth 7)
REFERENCE_DEPTHS = {
    "exonevthreeed": 8,
    "exonevtwoe": 7,
    "noncstrn": 8,
    "ex3v8e": 6,
    "kawamura:a=1/2": 8,
    "double-kawamura": 5,
    "product-kawamura": 8,
    # non-dyadic endpoints (1/3, 3/4), and Q = 1200 for a = 3/8
    "kawamura:a=1/3": 8,
    "kawamura:a=3/8": 8,
    "kawamura:a=3/4": 8,
}


@pytest.mark.parametrize("name", list(REFERENCE_DEPTHS))
def test_monic_probe_matches_reference_on_builtins(name):
    sys = builtin_sbfs(name)
    for depth in range(REFERENCE_DEPTHS[name] + 1):
        for res in RESOLUTIONS:
            want = probe_outcome(reference_monic_probe, sys, depth, res)
            assert probe_outcome(monic_probe, sys, depth, res) == want, (name, depth, res)


def branching_cycle_system():
    """Cycle a -> b -> c -> d -> a of quarter intervals; c -> d branches twice.

    At depth 1 only a is cut directly (its preimage, all of d, meets two
    atoms); the other atoms fall as the cut spreads back along b -> a,
    c -> b and d -> c."""
    q = [Fraction(j, 4) for j in range(5)]
    g = validate_kgraph(1, list("abcd"), [
        Edge("f", 1, "a", "b"), Edge("g", 1, "b", "c"), Edge("k1", 1, "c", "d"),
        Edge("k2", 1, "c", "d"), Edge("m", 1, "d", "a"),
    ], [], name="branching-cycle")
    domains = {v: IntervalUnion.interval(q[i], q[i + 1]) for i, v in enumerate("abcd")}
    maps = {
        "f": Affine1D(Fraction(1), q[1]),
        "g": Affine1D(Fraction(-1), q[4]),  # b -> c, reversed
        "k1": Affine1D(Fraction(1, 2), Fraction(1, 2)),
        "k2": Affine1D(Fraction(-1, 2), Fraction(5, 4)),
        "m": Affine1D(Fraction(1), -q[3]),
    }
    return IntervalSBFS(g, domains, maps)


def test_monic_probe_cut_spreads_along_chains():
    sys = branching_cycle_system()
    assert validate_sbfs(sys).ok
    for depth in range(7):
        for res in RESOLUTIONS:
            want = reference_monic_probe(sys, depth, res)
            assert monic_probe(sys, depth, res) == want, (depth, res)
    # at depth 1 no atom is cut directly except a, yet none survives
    assert monic_probe(sys, 1, Fraction(1, 8)) == InconclusiveMonic(Fraction(1, 4))


def random_loop_system(rng, tiling):
    """One vertex and 2-4 loops, each an affine map of [0, 1], increasing or
    decreasing.  With `tiling`, loop i maps onto the i-th piece of a random
    rational partition of [0, 1].  Without, each loop maps onto a random
    subinterval: ranges overlap and leave gaps, which is no SBFS, but there
    edge preimages can sit strictly inside one atom and cuts spread."""
    n = rng.randint(2, 4)
    grid = [Fraction(j, 12) for j in range(13)]
    if tiling:
        points = [grid[0]] + sorted(rng.sample(grid[1:-1], n - 1)) + [grid[-1]]
        pieces = list(zip(points, points[1:]))
    else:
        pieces = [tuple(sorted(rng.sample(grid, 2))) for _ in range(n)]
    edges, maps = [], {}
    for i, (lo, hi) in enumerate(pieces):
        eid = f"e{i}"
        edges.append(Edge(eid, 1, "v", "v"))
        maps[eid] = Affine1D(hi - lo, lo) if rng.random() < 0.5 else Affine1D(lo - hi, hi)
    g = validate_kgraph(1, ["v"], edges, [], name=f"random{n}")
    return IntervalSBFS(g, {"v": IntervalUnion.interval(0, 1)}, maps)


def test_range_words_are_the_per_path_ranges():
    rng = random.Random(5)
    systems = [builtin_sbfs(n) for n in BUILTIN_SYSTEMS if builtin_sbfs(n).dim == 1]
    loops = [random_loop_system(rng, tiling) for tiling in (True, False) for _ in range(6)]
    systems += loops + [lift_double_sbfs(sys) for sys in loops]  # 2-graphs
    systems.append(branching_cycle_system())
    # R_c0 leaks out of D_v, so each step must cut the tail's range to D_e
    leaky = Affine1D(Fraction(1), Fraction(1, 4))
    systems.append(with_edge_map(builtin_sbfs("ex3v8e"), "c0", leaky))
    for sys in systems:
        g = sys.graph
        depth = 3 if len(g.edges) > 4 else 4
        for copy in (sys, sys.on_grid(grid_scale(sys, depth, Fraction(1, 32)))):
            want = {copy.path_range_1d(lam)
                    for n in itertools.product(range(depth + 1), repeat=g.k)
                    for lam in g.enumerate_paths(n)}
            assert set(copy.range_words(depth)) == want, sys.name


# one range per word, on the grid copy that the monic probe reads
WORD_COUNTS = [("kawamura:a=1/2", 10, 607), ("kawamura:a=3/8", 8, 230),
               ("exonevtwoe", 8, 4599), ("exonevthreeed", 14, 135), ("ex3v8e", 6, 1809),
               ("double-kawamura", 8, 10943)]


@pytest.mark.parametrize("name, depth, count", WORD_COUNTS)
def test_range_word_counts_on_the_grid(name, depth, count):
    sys = builtin_sbfs(name)
    grid = sys.on_grid(grid_scale(sys, depth, Fraction(1, 32)))
    assert len(grid.range_words(depth)) == count


def test_products_of_random_tiling_systems_validate():
    rng = random.Random(9)
    systems = [random_loop_system(rng, tiling=True) for _ in range(6)]
    for a, b in zip(systems, systems[1:]):
        assert validate_sbfs(a).ok
        report = validate_sbfs(lift_product_sbfs(a, b))
        assert report.ok, [c.to_dict() for c in report.conditions if not c.ok]


@pytest.mark.parametrize("tiling", [True, False])
def test_monic_probe_matches_reference_on_random_systems(tiling):
    rng = random.Random(5)
    verdicts = set()
    systems = [random_loop_system(rng, tiling) for _ in range(12)]
    for i, sys in enumerate(systems):
        # the reference is quadratic in the atoms: about n**depth of them
        # when ranges tile, up to twice as many when they overlap
        max_depth = ({2: 6, 3: 3, 4: 3} if tiling else {2: 4, 3: 3, 4: 2})[len(sys.graph.edges)]
        other = systems[i - 1]
        product = lift_product_sbfs(sys, other)
        for depth in range(max_depth + 1):
            for res in RESOLUTIONS:
                want = reference_monic_probe(sys, depth, res)
                assert monic_probe(sys, depth, res) == want, (i, depth, res)
                verdicts.add(type(want))
                if len(other.graph.edges) ** depth <= 64:
                    want = reference_monic_probe(product, depth, res)
                    assert monic_probe(product, depth, res) == want, (i, depth, res)
    assert verdicts == {Monic, NotMonic, InconclusiveMonic}


# -- JSON round trip -----------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["exonevtwoe", "noncstrn", "product-kawamura"])
def test_sbfs_json_roundtrip(name):
    sys = builtin_sbfs(name)
    data = sbfs_to_dict(sys)
    sys2 = sbfs_from_dict(data)
    assert sbfs_to_dict(sys2) == data
    assert validate_sbfs(sys2).ok


def test_sbfs_json_roundtrip_keeps_product_structure():
    # a reloaded product system used to lose its factors, and with them
    # the monic probe (DimensionUnsupported)
    sys = builtin_sbfs("product-kawamura")
    sys2 = sbfs_from_dict(sbfs_to_dict(sys))
    assert sys2.product_factors is not None
    for depth in range(5):
        assert monic_probe(sys2, depth) == monic_probe(sys, depth), depth


def test_builtin_examples_catalog():
    for name in ["exonevthreeed", "exonevtwoe", "noncstrn", "ex3v8e", "kawamura:a=1/3"]:
        assert validate_sbfs(builtin_sbfs(name)).ok, name


def test_inverse_rn_matches_interval_quotient():
    # 1/Phi_path(coding(x)) equals the exact interval-measure quotient
    # |tau_path^{-1}(J)| / |J| for small J around x inside the range
    sys = builtin_sbfs("ex3v8e")
    g = sys.graph
    for lam in g.enumerate_paths((1, 1)):
        rng = sys.path_range_1d(lam)
        for lo, hi in rng.parts:
            w = (hi - lo) / 8
            j_int = IntervalUnion.interval(lo + 3 * w, lo + 5 * w)
            pre = j_int
            for eid in lam.edges:
                m = sys.edge_maps[eid]
                pre = pre.intersect(sys.edge_range(eid))
                pre = pre.scaled(Fraction(1) / m.a, -m.b / m.a)
            x = lo + 4 * w
            y, _ = sys.coding_n(lam.degree, x)
            assert pre.measure / j_int.measure == 1 / sys.phi_path(lam, y)


def test_kirchhoff_values_two_vertex():
    # brute-force preimage sums: one branch of slope 1/2 over the first
    # domain, branches of slopes 1/2 and 1 over the second
    proj = canonical_projective(builtin_sbfs("exonevthreeed"))
    base = proj.base
    g = proj.graph
    for x in base.sample_points("v1", 8):
        total = sum(
            1.0 / proj.f_eval(lam, base.apply_path(lam, x)) ** 2
            for lam in g.enumerate_paths((1,))
            if g.s(lam) == "v1"
        )
        assert abs(total - 0.5) < 1e-12
    for x in base.sample_points("v2", 8):
        total = sum(
            1.0 / proj.f_eval(lam, base.apply_path(lam, x)) ** 2
            for lam in g.enumerate_paths((1,))
            if g.s(lam) == "v2"
        )
        assert abs(total - 1.5) < 1e-12
