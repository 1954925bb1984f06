"""Semibranching function systems on interval/box spaces and path spaces.

An interval system assigns each vertex a rational-endpoint domain, an
IntervalUnion or a Box (see ``intervals``), and each edge an injective
prefixing map: ``Affine1D`` x -> a x + b on interval unions, or
``Skew2D`` (x, y) -> (a x + b, p0(x) + p1(x) y) on boxes, with p0 and
p1 polynomials in x.  Both map kinds answer ``apply``,
``inverse_point``, ``image(domain)``, ``jacobian(pt)`` and
``after(other)``, and domains and ranges answer the same set questions
in both dimensions, so the system and its validator ask each geometric
question once.  Compositions, images and Jacobians stay exact; the
validator checks the edge-level axioms: per-color range partitions,
disjoint vertex domains, square compatibility of the maps, commuting
coding maps, and positive Radon-Nikodym derivatives.

Projective systems decorate a validated system with signed functions
f_path = sign * (Phi_path o coding)^(-1/2) * indicator(range) and are
checked for the multiplicative cocycle and the parallel-sum (Kirchhoff)
rule.  Interval and path-space systems both answer ``code(n, pt)`` and
``rn_at(path, pt)``, so a projective system evaluates either the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CocycleViolation,
    DegenerateMap,
    DimensionUnsupported,
    NonpositiveDensity,
    NonpositiveRN,
    ParameterOutOfRange,
    RangesOverlap,
    ZeroVertexMass,
)
from .intervals import (
    Box,
    IntervalUnion,
    Region2,
    Strip,
    atoms_meeting,
    grid_cells,
    partition_atoms,
    poly_add,
    poly_compose,
    poly_const,
    poly_eval,
    poly_mul,
    poly_trim,
)
from .catalog import builtin_graph
from .kgraph import (
    Path,
    build_double,
    build_product,
    deg_diag,
    deg_grid,
    deg_sub,
    deg_unit,
    graph_from_dict,
    graph_to_dict,
)


# ---------------------------------------------------------------------------
# prefixing maps


@dataclass(frozen=True)
class Affine1D:
    """x -> a x + b."""

    a: Fraction
    b: Fraction

    def apply(self, x):
        return self.a * x + self.b

    def inverse_point(self, y):
        return (y - self.b) / self.a

    def jacobian(self, x):
        return self.a

    def after(self, other):
        """self o other."""
        return Affine1D(self.a * other.a, self.a * other.b + self.b)

    def image(self, union):
        return union.scaled(self.a, self.b)


def _xpoly(coeffs):
    """{i: c} as a trimmed polynomial in x with Fraction coefficients."""
    return poly_trim(tuple(Fraction(coeffs.get(i, 0)) for i in range(max(coeffs, default=0) + 1)))


@dataclass(frozen=True)
class Skew2D:
    """(x, y) -> (a x + b, p0(x) + p1(x) y), with p0 and p1 trimmed x-polynomials.

    Skew maps are closed under composition and the form is canonical, so
    == between composed maps is exact polynomial identity.
    """

    a: Fraction
    b: Fraction
    p0: tuple
    p1: tuple

    @classmethod
    def make(cls, a, b, beta):
        """The map with second coordinate beta = {(i, j): c}, sum c x^i y^j."""
        if any(j > 1 for (_, j), c in beta.items() if c != 0):
            raise ValueError("beta must be affine in y")
        p0, p1 = ({i: c for (i, j), c in beta.items() if j == deg} for deg in (0, 1))
        return cls(Fraction(a), Fraction(b), _xpoly(p0), _xpoly(p1))

    def apply(self, pt):
        x, y = pt
        return (self.a * x + self.b, poly_eval(self.p0, x) + poly_eval(self.p1, x) * y)

    def inverse_point(self, pt):
        u, w = pt
        x = (u - self.b) / self.a
        dy = poly_eval(self.p1, x)
        if dy == 0:
            raise DegenerateMap(f"dbeta/dy vanishes at x = {x}")
        return (x, (w - poly_eval(self.p0, x)) / dy)

    def jacobian(self, pt):
        return self.a * poly_eval(self.p1, pt[0])

    def after(self, other):
        """self o other: p0(L) + p1(L) (q0 + q1 y) with L the x-map of other."""
        lin = (other.b, other.a)
        p1 = poly_compose(self.p1, lin)
        return Skew2D(
            self.a * other.a,
            self.a * other.b + self.b,
            poly_add(poly_compose(self.p0, lin), poly_mul(p1, other.p0)),
            poly_mul(p1, other.p1),
        )

    def image(self, box):
        """Image of a Box, as a strip union; cut where p1 changes sign."""
        xint, yint = box
        dy = self.p1
        inv = (-self.b / self.a, Fraction(1) / self.a)
        strips = []
        for xlo, xhi in xint.parts:
            cut = []
            if len(dy) == 2 and dy[1] != 0:
                root = -dy[0] / dy[1]
                if xlo < root < xhi:
                    cut = [root]
            xs = [xlo, *cut, xhi]
            for alo, ahi in zip(xs, xs[1:]):
                u_lo, u_hi = sorted((self.a * alo + self.b, self.a * ahi + self.b))
                for ylo, yhi in yint.parts:
                    p_at_lo = poly_add(self.p0, tuple(c * ylo for c in dy))
                    p_at_hi = poly_add(self.p0, tuple(c * yhi for c in dy))
                    mid = (alo + ahi) / 2
                    if poly_eval(p_at_lo, mid) <= poly_eval(p_at_hi, mid):
                        lower, upper = p_at_lo, p_at_hi
                    else:
                        lower, upper = p_at_hi, p_at_lo
                    strips.append(
                        Strip(u_lo, u_hi, poly_compose(lower, inv), poly_compose(upper, inv))
                    )
        return Region2(strips)


# ---------------------------------------------------------------------------
# the interval system


class IntervalSBFS:
    """Vertex domains plus one prefixing map per edge of a k-graph.

    Domains are all IntervalUnions with Affine1D maps, or all Boxes with
    Skew2D maps; ``dim`` is the domain type's.
    """

    def __init__(self, graph, domains, edge_maps, name=""):
        self.graph = graph
        self.domains = domains  # vertex -> IntervalUnion | Box
        self.edge_maps = edge_maps  # edge id -> Affine1D | Skew2D
        self.name = name or graph.name
        self.product_factors = None  # set by lift_product_sbfs
        self._edge_ranges = {}

    @property
    def dim(self):
        return next(iter(self.domains.values())).dim

    # -- domains and ranges ---------------------------------------------------

    def domain_of_edge(self, eid):
        return self.domains[self.graph.edge_by_id[eid].source]

    def edge_range(self, eid):
        if eid not in self._edge_ranges:
            self._edge_ranges[eid] = self.edge_maps[eid].image(self.domain_of_edge(eid))
        return self._edge_ranges[eid]

    def range_in_domain(self, eid, v):
        """R_eid subset of D_v up to null sets (False when undecided)."""
        return bool(self.edge_range(eid).is_subset_of(self.domains[v]))

    def path_range_1d(self, path):
        """Exact interval union R_path (1D systems)."""
        cur = self.domains[self.graph.s(path)]
        for eid in reversed(path.edges):
            cur = self.edge_maps[eid].image(cur.intersect(self.domain_of_edge(eid)))
        return cur

    def path_ranges(self, depth):
        """{path: R_path} for every degree <= depth*(1,..,1) (1D systems).

        A canonical path minus its first edge is its canonical tail, of
        lexicographically smaller degree, so in deg_grid order each range
        is one step from its tail's: R(e.t) = m_e(R(t) & D_e).
        """
        g = self.graph
        out = {}
        for n in deg_grid(g.k, depth):
            for lam in g.enumerate_paths(n):
                if lam.is_vertex:
                    out[lam] = self.domains[lam.range]
                    continue
                e = g.edge_by_id[lam.edges[0]]
                tail = Path(e.source, lam.edges[1:], deg_sub(n, deg_unit(g.k, e.color)))
                dom = self.domains[e.source]
                out[lam] = self.edge_maps[e.eid].image(out[tail].intersect(dom))
        return out

    # -- pointwise machinery -----------------------------------------------------

    def apply_edge(self, eid, pt):
        return self.edge_maps[eid].apply(pt)

    def apply_path(self, path, pt):
        for eid in reversed(path.edges):
            pt = self.apply_edge(eid, pt)
        return pt

    def point_in_edge_range(self, eid, pt):
        return self.edge_range(eid).contains_point(pt)

    def point_in_path_range(self, path, pt):
        """Membership in R_path by peeling edges through the coding branches."""
        for eid in path.edges:
            if not self.point_in_edge_range(eid, pt):
                return False
            pt = self.edge_maps[eid].inverse_point(pt)
        return self.domains[self.graph.s(path)].contains_point(pt)

    def coding_color(self, color, pt):
        """Apply tau^{e_color}; returns (point, branch edge id)."""
        for e in self.graph.edges:
            if e.color != color:
                continue
            if self.point_in_edge_range(e.eid, pt):
                return self.edge_maps[e.eid].inverse_point(pt), e.eid
        raise CodingUndefined(f"point {pt} not in any color-{color} range")

    def coding_n(self, n, pt):
        branch = []
        for color in range(1, self.graph.k + 1):
            for _ in range(n[color - 1]):
                pt, eid = self.coding_color(color, pt)
                branch.append(eid)
        return pt, tuple(branch)

    def code(self, n, pt):
        """tau^n(pt)."""
        return self.coding_n(n, pt)[0]

    def phi_edge(self, eid, pt):
        """Radon-Nikodym derivative of the edge map at a domain point."""
        return abs(self.edge_maps[eid].jacobian(pt))

    def phi_path(self, path, pt):
        """Chain-rule product Phi_path(pt) for pt in D_path."""
        val = Fraction(1)
        cur = pt
        for eid in reversed(path.edges):
            val *= self.phi_edge(eid, cur)
            cur = self.apply_edge(eid, cur)
        return val

    def rn_at(self, path, pt):
        """Phi_path at tau^{d(path)}(pt), or None when pt is off R_path."""
        if not self.point_in_path_range(path, pt):
            return None
        return self.phi_path(path, self.code(path.degree, pt))

    def sample_points(self, v, count):
        return self.domains[v].sample_points(count)


class CodingUndefined(Exception):
    pass


# ---------------------------------------------------------------------------
# Radon-Nikodym derivative of a single map


@dataclass
class RNDerivative:
    """Symbolic |Jacobian| of a prefixing map, as polynomial pieces in x."""

    pieces: list  # [(xlo, xhi, poly)]

    def eval(self, pt):
        x = pt[0] if isinstance(pt, tuple) else pt
        for lo, hi, p in self.pieces:
            if lo <= x <= hi:
                return poly_eval(p, x)
        raise ValueError(f"{x} outside the map domain")

    @property
    def single_poly(self):
        return self.pieces[0][2] if len(self.pieces) == 1 else None


def rn_derivative(m, domain):
    """Phi for one edge map on its domain; errors if the Jacobian vanishes."""
    if isinstance(m, Affine1D):
        if m.a == 0:
            raise DegenerateMap("affine map with zero slope")
        lo = min(p[0] for p in domain.parts)
        hi = max(p[1] for p in domain.parts)
        return RNDerivative([(lo, hi, poly_const(abs(m.a)))])
    if m.a == 0:
        raise DegenerateMap("skew map with constant first coordinate")
    dy = m.p1
    if all(c == 0 for c in dy):
        raise DegenerateMap("skew map with beta independent of y")
    xint = domain[0]
    pieces = []
    scale = abs(m.a)
    for xlo, xhi in xint.parts:
        cuts = [xlo, xhi]
        if len(dy) == 2 and dy[1] != 0:
            root = -dy[0] / dy[1]
            if xlo < root < xhi:
                cuts = [xlo, root, xhi]
        for alo, ahi in zip(cuts, cuts[1:]):
            mid = (alo + ahi) / 2
            sign = 1 if poly_eval(dy, mid) >= 0 else -1
            pieces.append((alo, ahi, tuple(scale * sign * c for c in dy)))
    return RNDerivative(pieces)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ConditionReport:
    name: str
    ok: bool
    mode: str  # "exact" or "numeric"
    witnesses: list = field(default_factory=list)
    worst_residual: float = 0.0

    def to_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "mode": self.mode,
            "witnesses": [str(w) for w in self.witnesses[:8]],
            "worst_residual": self.worst_residual,
        }


@dataclass
class SBFSValidationReport:
    system: str
    ok: bool
    conditions: list

    def condition(self, name):
        return next(c for c in self.conditions if c.name == name)

    def to_dict(self):
        return {
            "system": self.system,
            "ok": self.ok,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def validate_sbfs(sys, tol=1e-12, sample_count=256):
    """Check the edge-level semibranching axioms; exact where possible."""
    g = sys.graph
    conds = []

    # (i) vertex domains have positive measure (edge domains share them)
    bad = [v for v in g.vertices if sys.domains[v].measure <= 0]
    conds.append(ConditionReport("i_domains_positive", not bad, "exact", bad))

    # (ii) vertex domains pairwise null-overlapping
    bad = []
    for i, v in enumerate(g.vertices):
        for w in g.vertices[i + 1 :]:
            if sys.domains[v].intersect(sys.domains[w]).measure != 0:
                bad.append((v, w))
    conds.append(ConditionReport("ii_domains_disjoint", not bad, "exact", bad))

    # (iii) squares: range containments and map compatibility
    bad = []
    squares = list(g.squares)
    if g.k == 1:
        # no squares; the containment contract is per composable edge pair
        for f in g.edges:
            for e2 in g.edges:
                if f.source == e2.range and not sys.range_in_domain(e2.eid, f.source):
                    bad.append((f.eid, e2.eid))
    maps = sys.edge_maps
    for sq in squares:
        a, b = sq.left
        c, d = sq.right
        if not sys.range_in_domain(b, g.edge_by_id[a].source):
            bad.append((sq, "R_b not in D_a"))
        if not sys.range_in_domain(d, g.edge_by_id[c].source):
            bad.append((sq, "R_d not in D_c"))
        if maps[a].after(maps[b]) != maps[c].after(maps[d]):
            bad.append((sq, "maps differ"))
    conds.append(ConditionReport("iii_squares", not bad, "exact", bad))

    # (iv) coding maps commute, checked at sample points
    worst = 0.0
    bad = []
    if g.k >= 2:
        for v in g.vertices:
            for pt in sys.sample_points(v, max(4, sample_count // len(g.vertices))):
                for ci in range(1, g.k + 1):
                    for cj in range(ci + 1, g.k + 1):
                        try:
                            p1, _ = sys.coding_color(ci, pt)
                            p1, _ = sys.coding_color(cj, p1)
                            p2, _ = sys.coding_color(cj, pt)
                            p2, _ = sys.coding_color(ci, p2)
                        except (CodingUndefined, DegenerateMap):
                            continue
                        res = _point_distance(p1, p2)
                        worst = max(worst, res)
                        if res > tol:
                            bad.append((pt, ci, cj))
    conds.append(ConditionReport("iv_coding_commute", not bad, "sampled", bad, worst))

    # (v) per color and vertex, ranges tile the receiving domain
    bad = []
    for color in range(1, g.k + 1):
        for v in g.vertices:
            ids = [e.eid for e in g.edges if e.color == color and e.range == v]
            for eid in ids:
                if not sys.range_in_domain(eid, v):
                    bad.append((v, color, eid, "range leaks out of D_v"))
            try:
                deficit = sys.domains[v].uncovered([sys.edge_range(eid) for eid in ids])
            except RangesOverlap:
                bad.append((v, color, "overlap"))
                continue
            if deficit is None:
                bad.append((v, color, "undecided"))
            elif deficit != 0:
                bad.append((v, color, f"deficit {deficit}"))
    conds.append(ConditionReport("v_ranges_cover", not bad, "exact", bad))

    # same-color ranges pairwise disjoint (semibranching hypothesis)
    bad = []
    for color in range(1, g.k + 1):
        ids = [e.eid for e in g.edges if e.color == color]
        for i, e1 in enumerate(ids):
            for e2 in ids[i + 1 :]:
                if not sys.edge_range(e1).disjoint_from(sys.edge_range(e2)):
                    bad.append((e1, e2))
    conds.append(ConditionReport("ranges_disjoint", not bad, "exact", bad))

    # positive Radon-Nikodym derivative for every edge
    bad = []
    for e in g.edges:
        try:
            rn = rn_derivative(sys.edge_maps[e.eid], sys.domain_of_edge(e.eid))
            for pt in sys.sample_points(e.source, 8):
                if rn.eval(pt) <= 0:
                    bad.append((e.eid, pt))
        except DegenerateMap:
            bad.append((e.eid, "degenerate"))
    conds.append(ConditionReport("rn_positive", not bad, "exact", bad))

    ok = all(c.ok for c in conds)
    return SBFSValidationReport(sys.name, ok, conds)


def _point_distance(p, q):
    if isinstance(p, tuple):
        return max(abs(float(a - b)) for a, b in zip(p, q))
    return abs(float(p - q))


def with_edge_map(sys, eid, new_map):
    """Copy of the system with one prefixing map replaced (fault injection)."""
    maps = dict(sys.edge_maps)
    maps[eid] = new_map
    return IntervalSBFS(sys.graph, sys.domains, maps, sys.name + "*")


# ---------------------------------------------------------------------------
# built-in systems (the interval systems of the catalog graphs)


def system_two_vertex_three_edge():
    g = builtin_graph("exonevthreeed")
    half = Fraction(1, 2)
    domains = {
        "v1": IntervalUnion.interval(0, half),
        "v2": IntervalUnion.interval(half, 1),
    }
    edge_maps = {
        "f1": Affine1D(-half, half),
        "f2": Affine1D(-half, half),
        "f3": Affine1D(1, 0),
    }
    return IntervalSBFS(g, domains, edge_maps, "exonevthreeed")


def system_one_vertex_two_blue():
    g = builtin_graph("exonevtwoe")
    domains = {"v": IntervalUnion.interval(0, 1)}
    edge_maps = {
        "f1": Affine1D(Fraction(-1, 2), Fraction(1, 2)),
        "f2": Affine1D(Fraction(-1, 2), Fraction(1)),
        "e": Affine1D(Fraction(-1), Fraction(1)),
    }
    return IntervalSBFS(g, domains, edge_maps, "exonevtwoe")


def system_nonconstant_rn():
    g = builtin_graph("noncstrn")
    unit = IntervalUnion.interval(0, 1)
    domains = {"v": Box(unit, unit)}
    one = Fraction(1)
    edge_maps = {
        # (x, y) -> (x, x + y - x y)
        "f1": Skew2D.make(1, 0, {(1, 0): one, (0, 1): one, (1, 1): -one}),
        # (x, y) -> (x, x y)
        "f2": Skew2D.make(1, 0, {(1, 1): one}),
        # (x, y) -> (1 - x, 1 - y)
        "e": Skew2D.make(-1, 1, {(0, 0): one, (0, 1): -one}),
    }
    return IntervalSBFS(g, domains, edge_maps, "noncstrn")


def system_three_vertex_eight_edge():
    g = builtin_graph("ex3v8e")
    third = Fraction(1, 3)
    domains = {
        "u": IntervalUnion.interval(0, third),
        "v": IntervalUnion.interval(third, 2 * third),
        "w": IntervalUnion.interval(2 * third, 1),
    }
    edge_maps = {
        "a0": Affine1D(Fraction(1), -third),
        "a1": Affine1D(Fraction(1), third),
        "c0": Affine1D(Fraction(1, 2), Fraction(1, 2)),
        "c1": Affine1D(Fraction(1, 2), Fraction(0)),
        "d0": Affine1D(Fraction(-1), 2 * third),
        "d1": Affine1D(Fraction(-1), 4 * third),
        "b0": Affine1D(Fraction(-1, 2), Fraction(1, 2)),
        "b1": Affine1D(Fraction(-1, 2), Fraction(1)),
    }
    return IntervalSBFS(g, domains, edge_maps, "ex3v8e")


def system_kawamura(a):
    a = Fraction(a)
    if not 0 < a < 1:
        raise ParameterOutOfRange(f"a = {a} outside (0, 1)")
    g = builtin_graph("kawamura")
    domains = {
        "v": IntervalUnion.interval(0, a),
        "w": IntervalUnion.interval(a, 1),
    }
    edge_maps = {
        "e": Affine1D(Fraction(1, 2), Fraction(0)),
        "f": Affine1D((1 - a) / a, a),
        "g": Affine1D(-a / (2 * (a - 1)), a * (2 * a - 1) / (2 * (a - 1))),
    }
    return IntervalSBFS(g, domains, edge_maps, f"kawamura(a={a})")


def builtin_examples(a=Fraction(1, 2)):
    """The five printed interval systems, keyed by their catalog names."""
    return {
        "exonevthreeed": system_two_vertex_three_edge(),
        "exonevtwoe": system_one_vertex_two_blue(),
        "noncstrn": system_nonconstant_rn(),
        "ex3v8e": system_three_vertex_eight_edge(),
        "kawamura": system_kawamura(a),
    }


# ---------------------------------------------------------------------------
# lifts: double and product systems


def lift_double_sbfs(esys):
    """System on the double 2-graph: both copies of an edge share its map."""
    if esys.graph.k != 1:
        raise DimensionUnsupported("double lift starts from a 1-graph system")
    g2 = build_double(esys.graph)
    maps = {}
    for e in esys.graph.edges:
        for copy in (1, 2):
            maps[f"{e.eid}^{copy}"] = esys.edge_maps[e.eid]
    return IntervalSBFS(g2, dict(esys.domains), maps, f"double({esys.name})")


def lift_product_sbfs(s1, s2):
    """Product system on box domains; factor maps act per coordinate."""
    if s1.dim != 1 or s2.dim != 1:
        raise DimensionUnsupported("product lift needs two 1D systems")
    gp = build_product(s1.graph, s2.graph)
    domains = {}
    for v in s1.graph.vertices:
        for w in s2.graph.vertices:
            domains[f"({v},{w})"] = Box(s1.domains[v], s2.domains[w])
    maps = {}
    one = Fraction(1)
    for e in s1.graph.edges:
        m = s1.edge_maps[e.eid]
        for w in s2.graph.vertices:
            maps[f"{e.eid}@1[{w}]"] = Skew2D.make(m.a, m.b, {(0, 1): one})
    for f in s2.graph.edges:
        m = s2.edge_maps[f.eid]
        for v in s1.graph.vertices:
            maps[f"{f.eid}@2[{v}]"] = Skew2D.make(
                1, 0, {(0, 0): m.b, (0, 1): m.a}
            )
    out = IntervalSBFS(gp, domains, maps, f"product({s1.name},{s2.name})")
    out.product_factors = (s1, s2)
    return out


# ---------------------------------------------------------------------------
# path-space systems


class PathspaceSBFS:
    """The standard prefixing/coding system on the path space of a measure.

    Points are deep finite prefixes (paths); Radon-Nikodym data comes from
    cylinder-value quotients.
    """

    def __init__(self, graph, measure, probe_depth=2):
        self.graph = graph
        self.measure = measure
        self.name = f"pathspace({measure.tag})"
        for v in graph.vertices:
            if measure.value(graph.vertex_path(v)) <= 0:
                raise ZeroVertexMass(v)
        diag = deg_diag(graph.k, probe_depth)
        for e in graph.edges:
            lam = graph.edge_path(e.eid)
            for w in graph.enumerate_paths(diag, graph.s(lam)):
                if measure.value(w) <= 0 or measure.quotient(lam, w) <= 0:
                    raise NonpositiveRN(e.eid, w)

    def code(self, n, z):
        """tau^n(z): the tail of z past degree n."""
        return self.graph.factorize(z, n)[1]

    def rn_at(self, path, z):
        """The quotient at the tail of z past path, or None when path is no prefix of z."""
        tail = self.graph.strip_prefix(z, path)
        return None if tail is None else self.measure.quotient(path, tail)

    def head_is(self, z, path):
        return self.graph.strip_prefix(z, path) is not None

    def sample_points(self, v, count, depth=4):
        """Deep prefixes with range v (points of the cylinder Z(v))."""
        pts = self.graph.enumerate_paths(deg_diag(self.graph.k, depth), v)
        return pts[: max(1, count)]


# ---------------------------------------------------------------------------
# projective systems


class ProjectiveSystem:
    """Signed square-root cocycle over a validated semibranching system."""

    def __init__(self, base, signs=None, density=None, base_density=None):
        self.base = base
        self.graph = base.graph
        self.signs = dict(signs or {})
        for e in self.graph.edges:
            self.signs.setdefault(e.eid, 1)
        # density g1 = d(mu')/d(mu) for transported systems (see transport)
        self.density = density

    def sign_of(self, path):
        s = 1
        for eid in path.edges:
            s *= self.signs[eid]
        return s

    # -- evaluation --------------------------------------------------------------

    def f_eval(self, path, pt):
        phi = self.base.rn_at(path, pt)
        if phi is None:
            return 0.0
        f = self.sign_of(path) / math.sqrt(phi)
        if self.density is None:
            return f
        num = self.density(self.base.code(path.degree, pt))
        den = self.density(pt)
        if num <= 0 or den <= 0:
            raise NonpositiveDensity(f"density nonpositive near {pt}")
        return f * math.sqrt(num / den)

    def sample_points(self, v, count):
        return self.base.sample_points(v, count)

    # -- cocycle check --------------------------------------------------------------

    def cocycle_check(self, tol=1e-12, sample_count=256):
        """Residuals of f_lam * (f_nu o tau^{d(lam)}) = f_{lam nu} at samples."""
        g = self.graph
        worst = 0.0
        witness = None
        checked = 0
        pool = [g.edge_path(e.eid) for e in g.edges]
        for lam in pool:
            for nu in pool:
                if g.s(lam) != nu.range:
                    continue
                prod = g.compose(lam, nu)
                for pt in self.sample_points(prod.range, max(8, sample_count // 4)):
                    lhs2 = self.f_eval(prod, pt)
                    f1 = self.f_eval(lam, pt)
                    if f1 == 0:
                        rhs = 0.0
                    else:
                        rhs = f1 * self.f_eval(nu, self.base.code(lam.degree, pt))
                    res = abs(lhs2 - rhs)
                    checked += 1
                    if res > worst:
                        worst = res
                        witness = (lam, nu, pt)
        return CocycleReport(worst <= tol, worst, witness, checked)


@dataclass
class CocycleReport:
    ok: bool
    worst_residual: float
    witness: object
    checked: int


def canonical_projective(base, signs=None, tol=1e-12, sample_count=256):
    """The natural projective system; raises CocycleViolation on bad signs."""
    sys = ProjectiveSystem(base, signs)
    rep = sys.cocycle_check(tol=tol, sample_count=sample_count)
    if not rep.ok:
        lam, nu, pt = rep.witness
        raise CocycleViolation(lam, nu, pt, rep.worst_residual)
    sys.cocycle_report = rep
    return sys


def transport_projective(sys, density, tol=1e-10, sample_count=64):
    """Move a projective system to an equivalent measure with density g1.

    density maps a point to d(mu')/d(mu) > 0.  The transported functions
    are f~ = sqrt(g1 o tau^n / g1) * f; the unitary U(h) = sqrt(1/g1) * h
    intertwines the two representations, checked at sample points.
    """
    for v in sys.graph.vertices:
        for pt in sys.sample_points(v, 8):
            if density(pt) <= 0:
                raise NonpositiveDensity(f"density nonpositive at {pt}")
    out = ProjectiveSystem(sys.base, sys.signs, density=_chain_density(sys, density))
    rep = out.cocycle_check(tol=tol, sample_count=sample_count)
    if not rep.ok:
        lam, nu, pt = rep.witness
        raise CocycleViolation(lam, nu, pt, rep.worst_residual)
    out.cocycle_report = rep
    # intertwining residual: sqrt(g2(pt)) f~(pt) = sqrt(g2(tau^n pt)) ... f(pt)
    worst = 0.0
    g = sys.graph
    for e in g.edges:
        lam = g.edge_path(e.eid)
        for pt in sys.sample_points(lam.range, 16):
            f_old = sys.f_eval(lam, pt)
            if f_old == 0:
                continue
            coded = sys.base.code(lam.degree, pt)
            lhs = f_old / math.sqrt(density(pt))
            rhs = out.f_eval(lam, pt) / math.sqrt(density(coded))
            worst = max(worst, abs(lhs - rhs))
    out.intertwine_residual = worst
    if worst > tol:
        raise CocycleViolation("U T", "T~ U", None, worst)
    return out


def _chain_density(sys, density):
    if sys.density is None:
        return density
    old = sys.density
    return lambda pt: old(pt) * density(pt)


# ---------------------------------------------------------------------------
# Kirchhoff parallel-sum rule


@dataclass
class KirchhoffReport:
    ok: bool
    worst_residual: float
    checked: int
    skipped: int


def kirchhoff_check(sys, n, tol=1e-9, sample_count=32):
    """Compare sum over degree-n paths of 1/|f(tau_path(x))|^2 with the
    Jacobian-sum density of the n-fold coding map.

    The left side goes through the projective functions; the right side
    differentiates the piecewise coding map by central differences at the
    preimages (exact for the polynomial pieces used here), so the two
    routes share no formulas.
    """
    if not isinstance(sys.base, IntervalSBFS):
        raise DimensionUnsupported("kirchhoff_check runs on interval systems")
    base = sys.base
    g = sys.graph
    worst = 0.0
    checked = skipped = 0
    paths = g.enumerate_paths(n)
    for v in g.vertices:
        for pt in base.sample_points(v, max(4, sample_count // len(g.vertices))):
            lhs = 0.0
            rhs = 0.0
            bad = False
            for lam in paths:
                if g.s(lam) != v:
                    continue
                z = base.apply_path(lam, pt)
                fval = sys.f_eval(lam, z)
                if fval == 0:
                    bad = True
                    break
                lhs += 1.0 / fval**2
                jac = _coding_jacobian(base, n, z)
                if jac is None:
                    bad = True
                    break
                rhs += 1.0 / abs(jac)
            if bad:
                skipped += 1
                continue
            checked += 1
            worst = max(worst, abs(lhs - rhs))
    return KirchhoffReport(worst <= tol and checked > 0, worst, checked, skipped)


def _coding_jacobian(base, n, z, h=Fraction(1, 2**16)):
    """|det D(tau^n)| at z by central differences; None near branch cuts."""
    try:
        if base.dim == 1:
            f_p, b1 = base.coding_n(n, z + h)
            f_m, b2 = base.coding_n(n, z - h)
            if b1 != b2:
                return None
            return float((f_p - f_m) / (2 * h))
        (x, y) = z
        f_xp, b1 = base.coding_n(n, (x + h, y))
        f_xm, b2 = base.coding_n(n, (x - h, y))
        f_yp, b3 = base.coding_n(n, (x, y + h))
        f_ym, b4 = base.coding_n(n, (x, y - h))
        if len({b1, b2, b3, b4}) != 1:
            return None
        a11 = (f_xp[0] - f_xm[0]) / (2 * h)
        a12 = (f_yp[0] - f_ym[0]) / (2 * h)
        a21 = (f_xp[1] - f_xm[1]) / (2 * h)
        a22 = (f_yp[1] - f_ym[1]) / (2 * h)
        return float(a11 * a22 - a12 * a21)
    except (CodingUndefined, DegenerateMap):
        return None


# ---------------------------------------------------------------------------
# monic probe on the range algebra


@dataclass(frozen=True)
class Monic:
    depth: int
    resolution: Fraction


@dataclass(frozen=True)
class NotMonic:
    witness: tuple  # widest (lo, hi) interval the range algebra never cuts
    witnesses: tuple = ()  # every invariant atom wider than the resolution


@dataclass(frozen=True)
class InconclusiveMonic:
    max_atom_width: Fraction


def monic_probe(sys, depth=4, resolution=Fraction(1, 32)):
    """Decide whether depth-limited ranges generate intervals at `resolution`.

    Monic: every width-`resolution` grid cell inside a vertex domain is
    approximated by a union of range-algebra atoms within resolution/2.
    NotMonic: some atom wider than `resolution` is provably never cut at
    any depth (its edge preimages are single atoms, recursively).
    Raises DegreeCapExceeded when depth * k exceeds the graph's enum_cap
    (a product system checks each factor on its own).
    """
    if sys.dim == 2:
        if sys.product_factors is not None:
            a = monic_probe(sys.product_factors[0], depth, resolution)
            b = monic_probe(sys.product_factors[1], depth, resolution)
            if isinstance(a, Monic) and isinstance(b, Monic):
                return Monic(depth, Fraction(resolution))
            for r in (a, b):
                if isinstance(r, NotMonic):
                    return r
            return InconclusiveMonic(Fraction(0))
        raise DimensionUnsupported("monic probe needs 1D or product structure")
    g = sys.graph
    g.check_cap(depth * g.k, f"monic depth {depth}")
    resolution = Fraction(resolution)
    space = IntervalUnion()
    for v in g.vertices:
        space = space.union(sys.domains[v])
    atoms = partition_atoms(space, sys.path_ranges(depth).values())
    his = [hi for _, hi in atoms]

    # structural witness: atoms whose edge preimages stay single atoms.  An
    # atom is cut when some edge preimage meets several atoms or does not
    # fill its one atom; otherwise it survives iff every atom its preimages
    # fill survives, so the cut spreads backwards along `preds`.
    cut = set()
    preds = [[] for _ in atoms]
    for e in g.edges:
        m = sys.edge_maps[e.eid]
        dom = sys.domain_of_edge(e.eid)
        rng = sys.edge_range(e.eid)
        inv_a, inv_b = Fraction(1) / m.a, -m.b / m.a
        for i in atoms_meeting(atoms, his, rng):
            pre = rng.intersect(IntervalUnion.interval(*atoms[i]))
            pre = pre.scaled(inv_a, inv_b).intersect(dom)
            hits = atoms_meeting(atoms, his, pre)
            if len(hits) != 1:
                cut.add(i)
                continue
            b_int = IntervalUnion.interval(*atoms[hits[0]])
            if pre != b_int.intersect(pre) or b_int.subtract(pre).measure != 0:
                cut.add(i)
                continue
            preds[hits[0]].append(i)
    alive = [i not in cut for i in range(len(atoms))]
    stack = list(cut)
    while stack:
        for i in preds[stack.pop()]:
            if alive[i]:
                alive[i] = False
                stack.append(i)
    wide = sorted((a for a, ok in zip(atoms, alive) if ok and a[1] - a[0] > resolution),
                  key=lambda a: (a[0] - a[1], a[0]))
    if wide:
        return NotMonic(wide[0], tuple(wide))

    # grid approximation errors against the atom algebra
    worst_err = Fraction(0)
    parts = [part for v in g.vertices for part in sys.domains[v].parts]
    for cell_lo, cell_hi in grid_cells(parts, resolution):
        err = Fraction(0)
        for i in atoms_meeting(atoms, his, IntervalUnion.interval(cell_lo, cell_hi)):
            lo, hi = atoms[i]
            inside = min(hi, cell_hi) - max(lo, cell_lo)
            err += min(inside, (hi - lo) - inside)
        worst_err = max(worst_err, err)
    if worst_err <= resolution / 2:
        return Monic(depth, resolution)
    return InconclusiveMonic(max(hi - lo for lo, hi in atoms))


# ---------------------------------------------------------------------------
# JSON description


def sbfs_to_dict(sys):
    if sys.product_factors is not None:
        return {"product_factors": [sbfs_to_dict(f) for f in sys.product_factors]}

    def frac(x):
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"

    def union_to_list(u):
        return [[frac(lo), frac(hi)] for lo, hi in u.parts]

    if sys.dim == 1:
        domains = {v: union_to_list(d) for v, d in sys.domains.items()}
    else:
        domains = {
            v: {"x": union_to_list(d[0]), "y": union_to_list(d[1])}
            for v, d in sys.domains.items()
        }
    maps = {}
    for eid, m in sys.edge_maps.items():
        if isinstance(m, Affine1D):
            maps[eid] = {"kind": "affine1d", "a": frac(m.a), "b": frac(m.b)}
        else:
            keys = {(0, 0): "1", (1, 0): "x", (0, 1): "y", (1, 1): "xy", (2, 0): "x2"}
            terms = sorted(((i, j), c) for j, p in enumerate((m.p0, m.p1))
                           for i, c in enumerate(p) if c != 0)
            beta = {keys[k]: frac(c) for k, c in terms}
            maps[eid] = {
                "kind": "skew2d",
                "alpha": [frac(m.a), frac(m.b)],
                "beta": beta,
            }
    return {
        "graph": graph_to_dict(sys.graph),
        "dim": sys.dim,
        "domains": domains,
        "edge_maps": maps,
        "name": sys.name,
    }


def sbfs_from_dict(data):
    if "product_factors" in data:
        return lift_product_sbfs(*(sbfs_from_dict(f) for f in data["product_factors"]))

    g = graph_from_dict(data["graph"], name=data.get("name", ""))
    dim = int(data["dim"])

    def union_from_list(lst):
        return IntervalUnion([(Fraction(lo), Fraction(hi)) for lo, hi in lst])

    if dim == 1:
        domains = {v: union_from_list(d) for v, d in data["domains"].items()}
    else:
        domains = {
            v: Box(union_from_list(d["x"]), union_from_list(d["y"]))
            for v, d in data["domains"].items()
        }
    keys = {"1": (0, 0), "x": (1, 0), "y": (0, 1), "xy": (1, 1), "x2": (2, 0)}
    maps = {}
    for eid, m in data["edge_maps"].items():
        if m["kind"] == "affine1d":
            maps[eid] = Affine1D(Fraction(m["a"]), Fraction(m["b"]))
        else:
            beta = {keys[k]: Fraction(c) for k, c in m["beta"].items()}
            maps[eid] = Skew2D.make(Fraction(m["alpha"][0]), Fraction(m["alpha"][1]), beta)
    return IntervalSBFS(g, domains, maps, data.get("name", ""))
