"""Perron-Frobenius data and Borel measures on the infinite path space.

Measures are handled through their values on cylinder sets Z(path).
Values are exact Fractions whenever the defining data is rational,
otherwise floats.  Consistency (square-cylinder additivity), Radon-
Nikodym quotients along nested square cylinders, and the Kakutani
equivalence/singularity classification are all computed from cylinder
values only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AdditivityViolation,
    NotComposable,
    GammaOutOfRange,
    IncomparableSpecs,
    NoConvergence,
    NotStronglyConnected,
    PrefixRuleInvalid,
    SpecInvariantViolated,
    UnsupportedGraphShape,
    ZeroDenominator,
)
from .kgraph import deg_add, deg_diag, deg_grid, deg_total, deg_unit

MAX_POWER_ITERATIONS = 100_000


# ---------------------------------------------------------------------------
# Perron-Frobenius data


@dataclass(frozen=True)
class PFData:
    rho: tuple  # spectral radius per color
    kappa: dict  # vertex -> weight, positive, summing to 1
    exact: bool
    residual: float


def _exact_nullspace(mat):
    """One-dimensional rational nullspace of a square Fraction matrix, or None."""
    n = len(mat)
    rows = [list(map(Fraction, row)) for row in mat]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -rows[i][fc]
    return vec


def pf_data(g, tol=1e-10):
    """Spectral radii and the common unimodular Perron eigenvector.

    Exact data is settled first, over the rationals and without numpy
    (_exact_pf).  Otherwise: power iteration (all-ones seed) on
    I + sum(A_i); the shift handles periodic vertex matrices.
    """
    if not g.is_strongly_connected():
        raise NotStronglyConnected(g.name)
    exact = _exact_pf(g)
    if exact is not None:
        return exact
    import numpy as np

    mats = [np.array(m, dtype=float) for m in g.vertex_matrices()]
    nv = len(g.vertices)
    m_sum = np.eye(nv) + sum(mats)
    vec = np.ones(nv)
    for _ in range(MAX_POWER_ITERATIONS):
        nxt = m_sum @ vec
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - vec)) < min(tol, 1e-13):
            vec = nxt
            break
        vec = nxt
    else:
        raise NoConvergence(MAX_POWER_ITERATIONS)
    rho_f = [float(np.dot(vec, m @ vec) / np.dot(vec, vec)) for m in mats]

    kappa = {v: float(vec[i]) for i, v in enumerate(g.vertices)}
    residual = 0.0
    for rho_i, m in zip(rho_f, mats):
        residual = max(residual, float(np.max(np.abs(m @ vec - rho_i * vec))))
    if residual > tol:
        raise NoConvergence(MAX_POWER_ITERATIONS)
    return PFData(tuple(rho_f), kappa, exact=False, residual=residual)


def _exact_pf(g):
    """PFData over the rationals, or None when some spectral radius is
    irrational or the colors share no Perron vector.

    A rational root of the characteristic polynomial of an integer matrix
    is an integer, and the Perron root of a nonnegative matrix lies between
    its least and greatest row sums; only it has a positive eigenvector.
    So each color scans those integers for a one-dimensional rational
    nullspace of A_i - rho*I with a positive vector.
    """
    mats = g.vertex_matrices()
    rhos, kappa = [], None
    for mat in mats:
        sums = [sum(row) for row in mat]
        for rho in range(min(sums), max(sums) + 1):
            vec = _perron_vector(mat, rho)
            if vec is not None:
                break
        else:
            return None
        if kappa is None:
            kappa = vec
        elif kappa != vec:
            return None
        rhos.append(Fraction(rho))
    return PFData(
        tuple(rhos),
        {v: kappa[i] for i, v in enumerate(g.vertices)},
        exact=True,
        residual=0.0,
    )


def _perron_vector(mat, rho):
    """The positive vector, summing to 1, spanning the nullspace of mat - rho*I,
    or None when that nullspace is not one-dimensional and positive."""
    nv = len(mat)
    shifted = [[mat[i][j] - (rho if i == j else 0) for j in range(nv)] for i in range(nv)]
    vec = _exact_nullspace(shifted)
    if vec is None:
        return None
    if all(x < 0 for x in vec):
        vec = [-x for x in vec]
    if not all(x > 0 for x in vec):
        return None
    total = sum(vec)
    return [x / total for x in vec]


# ---------------------------------------------------------------------------
# cylinder measures


class CylinderMeasure:
    """Lazily evaluated assignment path -> measure of its cylinder set.

    ``fn`` gives the value of a base cylinder.  ``base(degree)`` names the
    base degree at or above a degree; without it every cylinder is a base
    cylinder.  Any shallower cylinder is the sum of its one-edge extensions
    in the first color short of the base (additivity).

    ``values(m)`` lists the values of block(m) in block order, kept once
    per degree: a base degree maps ``value`` over the block, a shallower
    one sums the values(m + e_c) at the runs of glue(m, e_c), in the
    order of ``KGraph.extensions``.
    ``value(path)`` is the same definition for one path, computed afresh
    and building no block, so it reaches degrees above the enumeration cap.
    """

    def __init__(self, graph, fn, tag, exact, base=None):
        self.graph = graph
        self.tag = tag
        self.exact = exact
        self._fn = fn
        self._base = base
        self._bumps = {}  # path -> delta
        self._values = {}  # degree -> values of block(degree)

    def value(self, path):
        color = self._short(path.degree)
        if color:
            val = sum(map(self.value, self.graph.extensions(path, color)))
        else:
            val = self._fn(path)
        if self._bumps and path in self._bumps:
            val += self._bumps[path]
        if val < 0:
            raise AdditivityViolation(path, float(val))
        return val

    def values(self, m):
        """The values of block(m), in block order."""
        vals = self._values.get(m)
        if vals is None:
            g = self.graph
            color = self._short(m)
            if not color:
                vals = list(map(self.value, g.block(m)))
            else:
                unit = deg_unit(g.k, color)
                off, out = g.glue(m, unit)
                up = self.values(deg_add(m, unit))
                vals = [sum(map(up.__getitem__, out[off[i]:off[i + 1]]))
                        for i in range(len(off) - 1)]
                # a sum of checked values is nonnegative; only a bump can go below 0
                for path, delta in self._bumps.items():
                    if path.degree == m:
                        i = g.index(path)
                        vals[i] += delta
                        if vals[i] < 0:
                            raise AdditivityViolation(path, float(vals[i]))
            self._values[m] = vals
        return vals

    def _short(self, degree):
        """The first color in which degree falls short of its base, or 0."""
        if self._base is not None:
            for color, (have, want) in enumerate(zip(degree, self._base(degree)), start=1):
                if have < want:
                    return color
        return 0

    def quotient(self, lam, eta):
        """The Radon-Nikodym quotient value(Z(lam eta)) / value(Z(eta));
        raises ZeroDenominator on a null Z(eta)."""
        path = self.graph.compose(lam, eta)
        denom = self.value(eta)
        if denom == 0:
            raise ZeroDenominator(f"Z({eta}) has measure 0")
        return self.value(path) / denom

    def perturbed(self, path, delta):
        """Copy with the value at one canonical path bumped (fault injection);
        the values derived from it by additivity carry the bump."""
        out = CylinderMeasure(self.graph, self._fn, self.tag + "+perturbed", self.exact, self._base)
        out._bumps = {**self._bumps, path: delta}
        return out


def pf_measure(g, pf=None, tol=1e-10):
    """The self-similar measure: value(path) = rho^{-d(path)} kappa_{s(path)}."""
    if pf is None:
        pf = pf_data(g, tol=tol)

    values = {}  # (source vertex, degree) -> value

    def fn(path):
        key = (g.s(path), path.degree)
        val = values.get(key)
        if val is None:
            val = pf.kappa[key[0]]
            for rho_i, n_i in zip(pf.rho, path.degree):
                val = val / rho_i**n_i
            values[key] = val
        return val

    m = CylinderMeasure(g, fn, "pf", exact=pf.exact)
    m.pf = pf
    return m


@dataclass
class ConsistencyReport:
    ok: bool
    checked: int
    worst_residual: float
    worst_path: object
    exact: bool


def check_consistency(measure, depth, tol=1e-12):
    """Square-cylinder additivity for all paths with degree <= depth*(1,..,1).

    The extensions lam.eta, eta of degree (1,..,1), are the runs of
    glue(n, (1,..,1)), which lists them in the enumeration order of eta.
    """
    g = measure.graph
    g.check_cap(depth * g.k + g.k, f"consistency depth {depth}")
    worst = 0.0
    worst_path = None
    checked = 0
    diag = deg_diag(g.k, 1)
    for n in deg_grid(g.k, depth):
        off, out = g.glue(n, diag)
        top = measure.values(deg_add(n, diag))
        for i, val in enumerate(measure.values(n)):
            total = sum(map(top.__getitem__, out[off[i]:off[i + 1]]))
            residual = abs(val - total)
            checked += 1
            if float(residual) > worst:
                worst = float(residual)
                worst_path = g.block(n)[i]
    ok = worst == 0.0 if measure.exact else worst <= tol
    return ConsistencyReport(ok, checked, worst, worst_path, measure.exact)


# ---------------------------------------------------------------------------
# path-space shapes for product / Markov measures

# Shape "single-vertex": one vertex; one color has a single loop, the other
# color carries the symbol alphabet.  Shape "star": center vertex v with one
# edge each way per color to each peripheral vertex; symbols are peripherals.


@dataclass(frozen=True)
class PathSpaceShape:
    kind: str  # "single-vertex" or "star"
    symbol_count: int
    symbol_color: int  # color whose edges carry symbols (single-vertex)
    center: str = ""
    peripherals: tuple = ()


def detect_shape(g):
    if g.k != 2:
        raise UnsupportedGraphShape("product/Markov measures need a 2-graph")
    if len(g.vertices) == 1:
        counts = {c: len([e for e in g.edges if e.color == c]) for c in (1, 2)}
        if counts[2] == 1 and counts[1] >= 1:
            return PathSpaceShape("single-vertex", counts[1], 1)
        if counts[1] == 1 and counts[2] >= 1:
            return PathSpaceShape("single-vertex", counts[2], 2)
        raise UnsupportedGraphShape("need one silent loop color and one symbol color")
    # star shape: a center adjacent to every other vertex, one edge each
    # way per color, and no peripheral-to-peripheral edges
    for center in g.vertices:
        peri = [v for v in g.vertices if v != center]
        ok = True
        for e in g.edges:
            if {e.source, e.range} == {center} or (
                e.source != center and e.range != center
            ):
                ok = False
                break
        if not ok:
            continue
        for c in (1, 2):
            for p in peri:
                if len([e for e in g.edges if e.color == c and e.range == p]) != 1:
                    ok = False
                if len(
                    [
                        e
                        for e in g.edges
                        if e.color == c and e.range == center and e.source == p
                    ]
                ) != 1:
                    ok = False
        if ok:
            return PathSpaceShape("star", len(peri), 0, center, tuple(peri))
    raise UnsupportedGraphShape("graph is neither single-vertex nor star shaped")


def _rainbow_symbols(g, shape, path, first=0):
    """Symbol string of a square-degree path (range-first for star shapes),
    from symbol number first on; the path is split only from there."""
    n = path.degree[0]
    if path.degree != (n, n):
        raise ValueError("rainbow extraction needs a square degree")
    if shape.kind == "single-vertex":
        silent = 1 if shape.symbol_color == 2 else 2
        symbol_edges = [e.eid for e in g.edges if e.color == shape.symbol_color]
        # prefix, then silent edge, symbol edge, silent edge, ...
        pieces = g.split(path, _rainbow_cuts(first, n, silent))
        return [symbol_edges.index(p.edges[0]) for p in pieces[2::2]]
    # star: record peripheral vertices along the red-first rainbow
    idx = {p: i for i, p in enumerate(shape.peripherals)}
    if path.range == shape.center:
        pieces = g.split(path, _rainbow_cuts(first, n, 2))
        return [idx[g.s(red)] for red in pieces[1:-1:2]]
    # after the range, symbol j is the source of the blue edge of segment j - 1
    pieces = g.split(path, _rainbow_cuts(max(first - 1, 0), n, 2))
    return [idx[path.range]] * (first == 0) + [idx[g.s(blue)] for blue in pieces[2::2]]


def _rainbow_cuts(start, n, first):
    """Cumulative degrees: (start, start), then along the rainbow of a
    degree-(n, n) path from there, each segment starting with color first."""
    step = deg_unit(2, first)
    cuts = [(start, start)]
    for i in range(start, n):
        cuts += [deg_add((i, i), step), (i + 1, i + 1)]
    return cuts


def _square(degree):
    """The base degree (n, n), n = max(degree), of product and Markov measures."""
    return deg_diag(len(degree), max(degree))


# ---------------------------------------------------------------------------
# product measures


@dataclass(frozen=True)
class ProductMeasureSpec:
    """Bias sequence gamma for an infinite product measure.

    family: "const" (value c), "geometric" (gamma_j = c * r**j),
    "finite" (explicit values with zero tail), or "sampled" (explicit
    values with no closure claim; classification stays undetermined).
    Indexing follows the position of the symbol along the path.
    """

    family: str
    c: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    values: tuple = ()
    start: int = 1
    symbol_count: int = 2

    def gamma(self, j):
        if self.family == "const":
            return self.c
        if self.family == "geometric":
            return self.c * self.r**j
        if self.family in ("finite", "sampled"):
            if self.start <= j < self.start + len(self.values):
                return self.values[j - self.start]
            if self.family == "sampled":
                raise GammaOutOfRange(f"sampled sequence has no term {j}")
            return Fraction(0)
        raise ValueError(self.family)

    @property
    def exact(self):
        probe = [self.c, self.r, *self.values]
        return all(isinstance(x, (int, Fraction)) for x in probe)


def parse_product_spec(text):
    """Parse 'const:1/4', 'geometric:1/2,1/2', 'finite:1/4,0,1/8'."""
    family, _, rest = text.partition(":")
    vals = [Fraction(x) for x in rest.split(",") if x]
    need = {"const": 1, "geometric": 2}.get(family, 0)
    if len(vals) < need:
        raise ValueError(f"{family} spec needs {need} values, got {len(vals)}")
    if family == "const":
        return ProductMeasureSpec("const", c=vals[0])
    if family == "geometric":
        return ProductMeasureSpec("geometric", c=vals[0], r=vals[1])
    if family in ("finite", "sampled"):
        return ProductMeasureSpec(family, values=tuple(vals))
    raise ValueError(f"unknown product spec {text!r}")


def check_product_biases(g, spec):
    """check_bias_terms from the first index the shape of g reads: j0 = 1 on
    single-vertex shapes, j0 = 0 on star shapes."""
    check_bias_terms(spec, 1 if detect_shape(g).kind == "single-vertex" else 0)


def check_bias_terms(spec, j0):
    """Raise GammaOutOfRange unless every term gamma_j with j >= j0 is inside
    (-1/2, 1/2), naming the first bad term.

    A const or geometric sequence with |r| <= 1 is largest at j0; a
    geometric one with c != 0 and |r| > 1 grows past 1/2.  Finite and
    sampled specs are checked on every listed value.
    """
    if spec.family in ("finite", "sampled"):
        terms = range(spec.start, spec.start + len(spec.values))
    else:
        terms = [j0]
    for j in terms:
        gamma = spec.gamma(j)
        if not abs(gamma) < Fraction(1, 2):
            raise GammaOutOfRange(f"gamma_{j} = {gamma} is outside (-1/2, 1/2)")
    if spec.family == "geometric" and spec.c != 0 and abs(spec.r) > 1:
        raise GammaOutOfRange(
            f"gamma_j = {spec.c} * {spec.r}**j leaves (-1/2, 1/2) as j grows"
        )


def product_measure(g, spec):
    """Infinite-product measure on a single-vertex or star shaped 2-graph.

    A square path of degree (n, n) is valued as its degree-(n-1, n-1)
    prefix times the factors of the symbols its last rainbow segment adds.
    """
    shape = detect_shape(g)

    def bias(j):
        gm = spec.gamma(j)
        if not abs(gm) < Fraction(1, 2):
            raise GammaOutOfRange(f"gamma_{j} = {gm}")
        return gm

    if shape.kind == "single-vertex":
        if shape.symbol_count != 2:
            raise UnsupportedGraphShape("product measure needs exactly 2 symbols")

        def factor(path, j, s):  # symbol j reads gamma_{j+1}
            gm = bias(j + 1)
            return Fraction(1, 2) + gm if s == 0 else Fraction(1, 2) - gm

    else:
        two_n = shape.symbol_count
        half = two_n // 2

        def factor(path, j, s):  # symbol j sits at position 2j, or 2j + 1 from the center
            gm = bias(2 * j + (path.range == shape.center))
            return (1 + gm if s < half else 1 - gm) / Fraction(two_n)

    one = Fraction(1) if spec.exact else 1.0
    values = {}

    def square_fn(path):
        key = (path.range, path.edges)
        if key not in values:
            n = path.degree[0]
            val = square_fn(g.factorize(path, (n - 1, n - 1))[0]) if n else one
            # the prefix's symbols: one per segment, and the range of a peripheral path
            first = n if shape.kind == "star" and path.range != shape.center else max(n - 1, 0)
            for j, s in enumerate(_rainbow_symbols(g, shape, path, first), start=first):
                val *= factor(path, j, s)
            values[key] = val
        return values[key]

    return CylinderMeasure(g, square_fn, f"product({spec.family})", spec.exact, _square)


# ---------------------------------------------------------------------------
# Markov measures


@dataclass(frozen=True)
class MarkovMeasureSpec:
    matrix: tuple  # rows of transition probabilities, rows sum to 1
    lam: tuple = ()  # row vector with lam T = lam; defaults to all ones

    def validated(self, tol=1e-12):
        n = len(self.matrix)
        exact = self.exact
        for row in self.matrix:
            if len(row) != n:
                raise SpecInvariantViolated("matrix is not square")
            if any(not x > 0 for x in row):
                raise SpecInvariantViolated("entries must be positive")
            total = sum(row)
            if (exact and total != 1) or (not exact and abs(float(total) - 1) > tol):
                raise SpecInvariantViolated(f"row sum {total} != 1")

        def stationary_defect(lam):
            worst = 0
            for j in range(n):
                col = sum(lam[i] * self.matrix[i][j] for i in range(n))
                worst = max(worst, abs(col - lam[j]))
            return worst

        if self.lam:
            lam = self.lam
            defect = stationary_defect(lam)
            if (exact and defect != 0) or (not exact and float(defect) > tol):
                raise SpecInvariantViolated("lam T != lam")
        else:
            lam = (Fraction(1),) * n
            if stationary_defect(lam) != 0:
                lam = self._stationary_row(tol)
        return MarkovMeasureSpec(self.matrix, tuple(lam))

    def _stationary_row(self, tol):
        """Positive left fixed row, scaled so its entries sum to len(matrix)."""
        n = len(self.matrix)
        if self.exact:
            shifted = [
                [Fraction(self.matrix[j][i]) - (1 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            vec = _exact_nullspace(shifted)
            if vec is None:
                raise SpecInvariantViolated("no one-dimensional stationary row")
            if all(x < 0 for x in vec):
                vec = [-x for x in vec]
            if not all(x > 0 for x in vec):
                raise SpecInvariantViolated("stationary row is not positive")
            scale = Fraction(n) / sum(vec)
            return tuple(x * scale for x in vec)
        import numpy as np

        mat = np.array([[float(x) for x in row] for row in self.matrix])
        vec = np.ones(n)
        for _ in range(MAX_POWER_ITERATIONS):
            nxt = vec @ mat
            nxt /= nxt.sum()
            if np.max(np.abs(nxt - vec / vec.sum())) < tol:
                break
            vec = nxt
        vec = vec / vec.sum() * n
        return tuple(float(x) for x in vec)

    @property
    def exact(self):
        entries = [x for row in self.matrix for x in row] + list(self.lam)
        return all(isinstance(x, (int, Fraction)) for x in entries)


def t_x_matrix(x):
    """The 2x2 symmetric chain [[x, 1-x], [1-x, x]]."""
    x = Fraction(x) if not isinstance(x, float) else x
    return MarkovMeasureSpec(((x, 1 - x), (1 - x, x))).validated()


def star_markov_matrix(two_n, perm, x_vectors):
    """Transition matrix built cycle-by-cycle from probability vectors.

    perm is 1-based (image list); x_vectors holds one probability vector
    of length two_n per cycle of perm.  Row phi^{t}(c_m) reads the m-th
    vector through phi^{t}.
    """
    seen = set()
    cycles = []
    for i in range(1, two_n + 1):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i - 1]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j - 1]
        cycles.append(cyc)
    if len(x_vectors) != len(cycles):
        raise SpecInvariantViolated(
            f"need {len(cycles)} probability vectors (one per cycle)"
        )
    rows = [None] * two_n
    for m, cyc in enumerate(cycles):
        vec = x_vectors[m]
        if len(vec) != two_n or sum(vec) != 1:
            raise SpecInvariantViolated("each vector must be a probability row")
        # cyc[t] = phi^t(c_m); row cyc[t] at column j reads vec[phi^t(j)]
        power = list(range(1, two_n + 1))
        for t, i in enumerate(cyc):
            rows[i - 1] = tuple(vec[power[j - 1] - 1] for j in range(1, two_n + 1))
            power = [perm[p - 1] for p in power]
    return MarkovMeasureSpec(tuple(rows)).validated()


def markov_measure(g, spec):
    """Markov measure transported to the graph's path space via symbols."""
    spec = spec.validated()
    shape = detect_shape(g)
    n_states = len(spec.matrix)
    if n_states != shape.symbol_count:
        raise UnsupportedGraphShape(
            f"chain has {n_states} states, shape has {shape.symbol_count} symbols"
        )
    lam = spec.lam

    def square_fn(path):
        syms = _rainbow_symbols(g, shape, path)
        if not syms:
            # center/single-vertex cylinder: sum over the first symbol
            return sum(lam)
        val = lam[syms[0]]
        for a, b in zip(syms, syms[1:]):
            val *= spec.matrix[a][b]
        return val

    return CylinderMeasure(g, square_fn, "markov", spec.exact, _square)


# ---------------------------------------------------------------------------
# Kakutani classification


@dataclass(frozen=True)
class Equivalent:
    series_bound: float


@dataclass(frozen=True)
class MutuallySingular:
    reason: str


@dataclass(frozen=True)
class Undetermined:
    partial_sum: float
    bound: int


def _hellinger_term(ga, gb):
    pa, qa = 0.5 + float(ga), 0.5 - float(ga)
    pb, qb = 0.5 + float(gb), 0.5 - float(gb)
    return 1.0 - (pa * pb) ** 0.5 - (qa * qb) ** 0.5


def kakutani_classify(spec_a, spec_b, probe_terms=64):
    """Equivalence/singularity of two product or two Markov specs.

    Product specs: each bias term from gamma_1 on must lie in (-1/2, 1/2).
    The Hellinger-type series converges iff the bias difference is
    square-summable; for the closed-form families the 2-periodic tails
    decide it.  Markov specs: distinct positive transition matrices on
    the same shape give mutually singular measures.
    """
    if isinstance(spec_a, MarkovMeasureSpec) and isinstance(spec_b, MarkovMeasureSpec):
        if len(spec_a.matrix) != len(spec_b.matrix):
            raise IncomparableSpecs("different state counts")
        same = spec_a.validated().matrix == spec_b.validated().matrix
        if same:
            return Equivalent(0.0)
        return MutuallySingular("distinct transition matrices")
    if not (
        isinstance(spec_a, ProductMeasureSpec) and isinstance(spec_b, ProductMeasureSpec)
    ):
        raise IncomparableSpecs("specs must both be product or both Markov")
    if spec_a.symbol_count != spec_b.symbol_count:
        raise IncomparableSpecs("different symbol counts")
    for spec in (spec_a, spec_b):
        check_bias_terms(spec, 1)

    partial = sum(
        _hellinger_term(spec_a.gamma(j), spec_b.gamma(j))
        for j in range(1, probe_terms + 1)
        if _safe_gamma(spec_a, j) and _safe_gamma(spec_b, j)
    )
    if spec_a.family == "sampled" or spec_b.family == "sampled":
        return Undetermined(partial, probe_terms)

    def tail_pair(spec):  # (gamma_j at even j, at odd j), up to a square-summable part
        if spec.family == "const" or (spec.family == "geometric" and spec.r == 1):
            return (spec.c, spec.c)
        if spec.family == "geometric" and spec.r == -1:
            return (spec.c, -spec.c)
        return (Fraction(0), Fraction(0))  # |r| < 1 and finite tails

    ca, cb = tail_pair(spec_a), tail_pair(spec_b)
    if ca == cb:
        return Equivalent(partial)
    return MutuallySingular(f"bias tails differ: ({ca[0]}, {ca[1]}) vs ({cb[0]}, {cb[1]})")


def _safe_gamma(spec, j):
    try:
        spec.gamma(j)
        return True
    except GammaOutOfRange:
        return False


# ---------------------------------------------------------------------------
# prefix rules and Radon-Nikodym quotients


class PrefixRule:
    """Periodic word of degree-(1,...,1) segments defining nested prefixes."""

    def __init__(self, graph, segments):
        if not segments:
            raise PrefixRuleInvalid("empty segment list")
        diag = deg_diag(graph.k, 1)
        for seg in segments:
            if seg.degree != diag:
                raise PrefixRuleInvalid(f"segment {seg} has degree {seg.degree}")
        for a, b in zip(segments, segments[1:]):
            if graph.s(a) != b.range:
                raise PrefixRuleInvalid(f"segments {a}, {b} not composable")
        if graph.s(segments[-1]) != segments[0].range:
            raise PrefixRuleInvalid("segment word does not close up")
        self.graph = graph
        self.segments = list(segments)
        self._prefixes = [graph.vertex_path(segments[0].range)]

    @property
    def range(self):
        return self.segments[0].range

    def segment(self, i):
        return self.segments[i % len(self.segments)]

    def prefix(self, n):
        while len(self._prefixes) <= n:
            i = len(self._prefixes) - 1
            self._prefixes.append(
                self.graph.compose(self._prefixes[-1], self.segment(i))
            )
        return self._prefixes[n]


def default_prefix_rule(g, v=None):
    """Lexicographically least periodic word of degree-(1,..,1) segments."""
    diag = deg_diag(g.k, 1)
    starts = [v] if v is not None else list(g.vertices)
    for start in starts:
        word = _least_cycle(g, start, diag, max_len=len(g.vertices))
        if word is not None:
            return PrefixRule(g, word)
    raise PrefixRuleInvalid("no periodic segment word found")


def _least_cycle(g, start, diag, max_len):
    def search(current, acc):
        if acc and g.s(acc[-1]) == start:
            return list(acc)
        if len(acc) >= max_len:
            return None
        for seg in g.enumerate_paths(diag, current):
            found = search(g.s(seg), acc + [seg])
            if found is not None:
                return found
        return None

    return search(start, [])


@dataclass
class RNEstimate:
    quotients: list
    limit: object
    converged: bool


def rn_estimate(measure, lam, rule, depth, tol=1e-12):
    """Quotients value(Z(lam z_n)) / value(Z(z_n)) along nested prefixes."""
    g = measure.graph
    if g.s(lam) != rule.range:
        raise NotComposable(f"s({lam}) != r(x) = {rule.range}")
    quotients = [measure.quotient(lam, rule.prefix(n)) for n in range(1, depth + 1)]
    converged = len(quotients) >= 2 and abs(
        float(quotients[-1] - quotients[-2])
    ) <= tol
    return RNEstimate(quotients, quotients[-1], converged)


# ---------------------------------------------------------------------------
# table export


def format_value(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return f"{float(v):.17g}"


def measure_table(measure, depth):
    """TSV rows (depth, path, value) for all degrees <= depth*(1,..,1)."""
    g = measure.graph
    g.check_cap(depth * g.k, f"measure table depth {depth}")
    lines = ["depth\tpath\tvalue"]
    for n in deg_grid(g.k, depth):
        for lam, val in zip(g.block(n), measure.values(n)):
            label = ".".join(lam.edges) if lam.edges else lam.range
            lines.append(f"{deg_total(n)}\t{label}\t{format_value(val)}")
    return "\n".join(lines) + "\n"
