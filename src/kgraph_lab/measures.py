"""Perron-Frobenius data and Borel measures on the infinite path space.

Measures are handled through their values on cylinder sets Z(path).
Values are exact whenever the defining data is rational, otherwise
floats.  Consistency (square-cylinder additivity), Radon-Nikodym
quotients along nested square cylinders, and the Kakutani
equivalence/singularity classification are all computed from cylinder
values only.

The values of a whole block of paths are computed by index, from the
graph's tail arrays and glue tables, with no Path built; a Path is
rebuilt only where a report names one.  Exact values of a block are
kept as int numerators over one int denominator per degree, and turned
into Fractions only where a caller asks for them.  value(path) is the
single-path route, the only one above the enumeration cap.

Product and Markov measures are one chain rule over the symbols a square
path reads (_chain_measure): a square of degree (n, n) is its
degree-(n-1, n-1) head times the step of its last (1, 1) segment.  A
product step ignores the previous symbol; a Markov step reads it.
"""

from array import array
from collections import Counter
from fractions import Fraction
from itertools import pairwise, repeat
from math import fsum, gcd, lcm, prod

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
from .kgraph import deg_add, deg_diag, deg_grid, deg_sub, deg_total, deg_unit
from .records import Record

MAX_POWER_ITERATIONS = 100_000


# ---------------------------------------------------------------------------
# Perron-Frobenius data


class PFData(Record):
    rho: tuple  # spectral radius per color
    kappa: dict  # vertex -> weight, positive, summing to 1
    exact: bool
    residual: float


def _row_reduce(mat):
    """(rows, pivots): the reduced row echelon form of a rational matrix, as
    Fraction rows, and its pivot columns in order."""
    rows = [list(map(Fraction, row)) for row in mat]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _exact_nullspace(mat):
    """One-dimensional rational nullspace of a Fraction matrix, or None."""
    n = len(mat[0])
    rows, pivots = _row_reduce(mat)
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

    Exact data is settled first, over the rationals (_exact_pf).
    Otherwise: power iteration (all-ones seed) on I + sum(A_i); the shift
    handles periodic vertex matrices.  The iteration runs in plain Python
    floats.
    """
    if not g.is_strongly_connected():
        raise NotStronglyConnected(g.name)
    exact = _exact_pf(g)
    if exact is not None:
        return exact
    mats = g.vertex_matrices()
    nv = len(g.vertices)
    m_sum = [[(i == j) + sum(m[i][j] for m in mats) for j in range(nv)] for i in range(nv)]
    vec = _power_iteration(m_sum, min(tol, 1e-13))
    norm = _dot(vec, vec)
    rho_f = [_dot(vec, _matvec(m, vec)) / norm for m in mats]

    kappa = {v: vec[i] for i, v in enumerate(g.vertices)}
    residual = 0.0
    for rho_i, m in zip(rho_f, mats):
        residual = max(residual, max(abs(y - rho_i * x) for y, x in zip(_matvec(m, vec), vec)))
    if residual > tol:
        raise NoConvergence(MAX_POWER_ITERATIONS)
    return PFData(tuple(rho_f), kappa, exact=False, residual=residual)


def _power_iteration(mat, stop):
    """The positive fixed direction of a nonnegative primitive matrix, as a
    list of floats summing to 1: mat @ vec from the all-ones vector,
    normalized to sum 1 after each product, until no entry moves by stop
    or more.  Raises NoConvergence after MAX_POWER_ITERATIONS products."""
    vec = [1.0] * len(mat)
    for _ in range(MAX_POWER_ITERATIONS):
        nxt = _matvec(mat, vec)
        total = fsum(nxt)
        nxt = [x / total for x in nxt]
        if max(abs(a - b) for a, b in zip(nxt, vec)) < stop:
            return nxt
        vec = nxt
    raise NoConvergence(MAX_POWER_ITERATIONS)


def _dot(u, v):
    """u . v, its rounded products summed exactly (fsum), so the result does
    not depend on summation order or on the interpreter's float sum."""
    return fsum(a * b for a, b in zip(u, v))


def _matvec(mat, vec):
    return [_dot(row, vec) for row in mat]


def _exact_pf(g):
    """PFData over the rationals, or None when some spectral radius is
    irrational or the colors share no Perron vector.

    A positive eigenvector of a nonnegative matrix belongs to its spectral
    radius, which bounds every real eigenvalue and lies between the least
    and greatest row sums; a rational root of the characteristic polynomial
    of an integer matrix is an integer.  So each color takes the largest
    integer rho in that range with A_i - rho*I singular, and kappa spans
    the common nullspace of all the A_i - rho_i*I stacked.  One color alone
    may leave a wider nullspace (an identity color leaves every vector); an
    irrational radius leaves no positive vector in the stack.
    """
    stacked, rhos = [], []
    for mat in g.vertex_matrices():
        sums = [sum(row) for row in mat]
        for rho in range(max(sums), min(sums) - 1, -1):
            shifted = _shifted(mat, rho)
            if _singular(shifted):
                break
        else:
            return None
        stacked += shifted
        rhos.append(Fraction(rho))
    kappa = _perron_vector(stacked)
    if kappa is None:
        return None
    return PFData(
        tuple(rhos),
        {v: kappa[i] for i, v in enumerate(g.vertices)},
        exact=True,
        residual=0.0,
    )


def _singular(mat):
    """Whether a square integer matrix is singular, by fraction-free (Bareiss)
    elimination: every division is exact, so no Fraction is built."""
    rows, prev = [list(row) for row in mat], 1
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return True
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for i in range(k + 1, len(rows)):
            rows[i] = [(x * top[k] - rows[i][k] * y) // prev for x, y in zip(rows[i], top)]
        prev = top[k]
    return False


def _shifted(mat, rho):
    """The rows of mat - rho*I."""
    return [[x - (rho if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(mat)]


def _perron_vector(mat):
    """The positive vector, summing to 1, spanning the nullspace of mat,
    or None when that nullspace is not one-dimensional and positive."""
    vec = _exact_nullspace(mat)
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

    ``numerators(m)`` gives the values of block(m) in block order, kept
    once per degree and computed by index, as numerators over one
    denominator: on an exact measure a list of ints over the degree's
    int denominator, on a float measure the values themselves over 1.  A
    base degree takes the measure's rule in that form: ``source_fn(m)``,
    a rule whose value depends only on a path's source vertex and degree,
    gives ({vertex: numerator}, denominator) and is read off the sources
    of block(m); ``block_fn(m)`` gives the whole block, reading the
    graph's tail arrays and glue tables with no Path built; a measure
    with neither maps ``value`` over block(m).  A shallower degree sums
    the numerators of degree m + e_c at the runs of glue(m, e_c), in the
    order of ``KGraph.extensions``, over the same denominator.  A bump
    rescales its own degree to a common denominator.  ``values(m)``
    builds the values from the numerators when a caller asks, of the
    type ``value`` returns: Fractions, or ints on a counting measure
    (one whose base values are ints: read off ``value`` where it gives
    them, else ``counting``), or the float list itself.
    ``value(path)`` is the single-path route: the same definition for one
    path, building no block, so it is the only route above the enumeration
    cap.  Its sums are redone on every call; a rule's ``fn`` may keep the
    base values it computes, as product and Markov measures do.
    """

    def __init__(self, graph, fn, tag, exact, base=None, block_fn=None, source_fn=None,
                 counting=False):
        self.graph = graph
        self.tag = tag
        self.exact = exact
        self._fn = fn
        self._base = base
        self._block_fn = block_fn
        self._source_fn = source_fn
        self._bumps = {}  # path -> delta
        self._numerators = {}  # degree -> (numerators, denominator) of block(degree)
        self._values = {}  # degree -> values of block(degree), built on request
        self.counting = counting  # the exact base values are all ints

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

    @property
    def by_source(self):
        """Whether every value is the source rule's, with no bump: a value
        that depends only on its path's source vertex and degree.  The one
        such rule, pf_measure's, gives value(lam.zeta) = rho^{-d(lam)}
        value(zeta) for every zeta, with every value positive."""
        return self._source_fn is not None and not self._bumps

    def values(self, m):
        """The values of block(m), in block order."""
        vals = self._values.get(m)
        if vals is None:
            exact = self.fractions(m)
            vals = self.numerators(m)[0] if exact is None else [Fraction(n, exact[1]) for n in exact[0]]
            self._values[m] = vals
        return vals

    def fractions(self, m):
        """numerators(m) where the values of block(m) are Fractions, else None."""
        nums, den = self.numerators(m)
        return None if not self.exact or (self.counting and den == 1) else (nums, den)

    def numerators(self, m):
        """(numerators, denominator) of the values of block(m), in block order."""
        got = self._numerators.get(m)
        if got is not None:
            return got
        g = self.graph
        color = self._short(m)
        if not (color or self._block_fn or self._source_fn):
            vals = self._values[m] = list(map(self.value, g.block(m)))  # value adds the bumps
            if not self.exact:
                got = vals, 1
            else:
                self.counting = all(type(v) is int for v in vals)
                got = _over_lcm(vals)
        else:
            if color:
                unit = deg_unit(g.k, color)
                up, den = self.numerators(deg_add(m, unit))
                nums = _run_sums(g.glue(m, unit), up)
                if self.exact:  # equal sums share one int: a degree's values repeat
                    seen = {}
                    nums = [seen.setdefault(x, x) for x in nums]
            elif self._source_fn:
                by_source, den = self._source_fn(m)
                nums = list(map(by_source.__getitem__, g.tails(m).sources))
            else:
                nums, den = self._block_fn(m)
            # a rule's values and sums of checked ones are nonnegative; only a bump can go below 0
            bumps = sorted((g.index(path), delta, path)
                           for path, delta in self._bumps.items() if path.degree == m)
            if bumps:
                nums = list(nums)  # a block rule may keep its list
                if self.exact:
                    common = lcm(den, *(delta.denominator for _, delta, _ in bumps))
                    nums, den = [n * (common // den) for n in nums], common
            for i, delta, path in bumps:
                nums[i] += delta.numerator * (den // delta.denominator) if self.exact else delta
                if nums[i] < 0:
                    raise AdditivityViolation(path, float(nums[i] / den))
            got = nums, den
        self._numerators[m] = got
        return got

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
        out = CylinderMeasure(self.graph, self._fn, self.tag + "+perturbed", self.exact,
                              self._base, self._block_fn, self._source_fn,
                              self.counting and type(delta) is int)
        out._bumps = {**self._bumps, path: delta}
        return out


def _over_lcm(vals):
    """(numerators, denominator): exact values over their least common denominator."""
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _run_sums(table, up):
    """The sums of up over the runs of a glue table (off, out): slices of up
    itself where out is a range, else of up gathered in the order of out."""
    off, out = table
    if type(out) is not range:
        up = [up[j] for j in out]
    return [sum(up[a:b]) for a, b in pairwise(off)]


def pf_measure(g, pf=None):
    """The self-similar measure: value(path) = rho^{-d(path)} kappa_{s(path)}.

    Its rule is one value per (source vertex, degree) (``source_fn``).
    Exact data gives each vertex the numerator kappa_v * L, L = lcm(den
    kappa), over the degree's denominator L * rho_1^{m_1} ... rho_k^{m_k};
    float data gives each vertex its value, divided in the same order as
    value(path).
    """
    if pf is None:
        pf = pf_data(g)

    values = {}  # (source vertex, degree) -> value

    def at(v, degree):
        key = (v, degree)
        val = values.get(key)
        if val is None:
            val = pf.kappa[v]
            for rho_i, n_i in zip(pf.rho, degree):
                val = val / rho_i**n_i
            values[key] = val
        return val

    def fn(path):
        return at(g.s(path), path.degree)

    if pf.exact:
        nums, scale = _over_lcm([pf.kappa[v] for v in g.vertices])
        numerator = dict(zip(g.vertices, nums))
        rhos = [rho.numerator for rho in pf.rho]  # exact radii are integers

    def pf_sources(m):
        if pf.exact:
            return numerator, scale * prod(map(pow, rhos, m))
        return {v: at(v, m) for v in g.vertices}, 1

    m = CylinderMeasure(g, fn, "pf", exact=pf.exact, source_fn=pf_sources)
    m.pf = pf
    return m


class ConsistencyReport(Record):
    ok: bool
    checked: int
    worst_residual: float
    worst_path: object
    exact: bool


def check_consistency(measure, depth, tol=1e-12):
    """Square-cylinder additivity for all paths with degree <= depth*(1,..,1).

    The extensions lam.eta, eta of degree (1,..,1), are summed one color at
    a time, color k first, so a float total may round otherwise than a flat
    sum in block((1,..,1)) order.  A measure with a source rule and no bump
    sums once per (source vertex, degree) (_source_sums) and builds no glue
    table; any other sums each path down the one-edge tables glue(m, e_c)
    (_extension_sums).  Both add the same floats in the same order.  An
    exact measure compares val * D_top with total * D_n on ints, D the
    degrees' denominators, and only on a degree where some differ turns
    each difference into the correctly rounded float of its rational
    residual.  The worst residual is kept as (degree, index), the first
    path of its degree with that residual, and only its path is rebuilt.
    """
    g = measure.graph
    g.check_cap(depth * g.k + g.k, f"consistency depth {depth}")
    worst = 0.0
    worst_at = None
    checked = 0
    for n in deg_grid(g.k, depth):
        if measure.by_source:  # one residual per vertex, read off the source of each path
            by_vertex = dict(zip(g.vertices, _residuals(measure.exact, *_source_sums(measure, n))))
            res = list(map(by_vertex.__getitem__, g.tails(n).sources))
        else:
            nums, den = measure.numerators(n)
            res = _residuals(measure.exact, nums, den, *_extension_sums(measure, n))
        checked += len(res)
        here = max(res, default=0)
        if float(here) > worst:
            worst, worst_at = float(here), (n, res.index(here))
    worst_path = None if worst_at is None else g.path_at(*worst_at)
    ok = worst == 0.0 if measure.exact else worst <= tol
    return ConsistencyReport(ok, checked, worst, worst_path, measure.exact)


def _residuals(exact, vals, den, totals, top_den):
    """|val - total| for each pair of numerators; exact ones compare
    val * top_den with total * den and are floats only when one differs."""
    if not exact:
        return [abs(val - total) for val, total in zip(vals, totals)]
    res = [abs(val * top_den - total * den) for val, total in zip(vals, totals)]
    if any(res):  # int true division rounds each rational residual correctly
        res = [r / (den * top_den) for r in res]
    return res


def _extension_sums(measure, n):
    """(totals, denominator): for each path lam of block(n), the sum of the
    numerators of its extensions lam.eta, eta of degree (1,..,1), over the
    denominator of degree n + (1,..,1).  The sums go down the one-edge
    tables glue(m, e_c), c from k down to 1, so the last color is innermost."""
    g = measure.graph
    m = deg_add(n, deg_diag(g.k, 1))
    totals, den = measure.numerators(m)
    for c in range(g.k, 0, -1):
        unit = deg_unit(g.k, c)
        m = deg_sub(m, unit)
        totals = _run_sums(g.glue(m, unit), totals)
    return totals, den


def _source_sums(measure, n):
    """(values, denominator, totals, top denominator) of a source rule, one
    entry per vertex v in vertex order: v's value of degree n and the total
    of every path of degree n with source v, as _extension_sums adds it.
    Each color, k down to 1, sums the totals at the sources of
    edges_from(v, c), in the order the runs of glue(m, e_c) list them."""
    g = measure.graph
    totals, top_den = measure._source_fn(deg_add(n, deg_diag(g.k, 1)))
    for c in range(g.k, 0, -1):
        totals = {v: sum([totals[e.source] for e in g.edges_from(v, c)]) for v in g.vertices}
    vals, den = measure._source_fn(n)
    return [vals[v] for v in g.vertices], den, [totals[v] for v in g.vertices], top_den


# ---------------------------------------------------------------------------
# path-space shapes for product / Markov measures

# Shape "single-vertex": one vertex; one color has a single loop, the other
# color carries the symbol alphabet.  Shape "star": center vertex v with one
# edge each way per color to each peripheral vertex; symbols are peripherals.


class PathSpaceShape(Record):
    kind: str  # "single-vertex" or "star"
    symbol_count: int
    symbol_color: int  # color whose edges carry symbols (single-vertex)
    center: str = ""
    peripherals: tuple = ()

    def reads_range(self, v):
        """Whether a path with range v has its range as symbol 0: the
        peripheral vertices of a star."""
        return self.kind == "star" and v != self.center


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


def _segments(g, shape):
    """(reads_range, symbol) for each path t of block((1, 1)), in block
    order: whether t starts at a peripheral vertex, and the symbol t adds
    as the last segment of a square path.  Each t is rebuilt from the tail
    arrays and split once; no block is kept."""
    diag = (1, 1)
    if shape.kind == "single-vertex":  # a silent edge, then a symbol edge
        symbol_edges = [e.eid for e in g.edges if e.color == shape.symbol_color]
        first = deg_unit(2, 3 - shape.symbol_color)
    else:  # a color-2 edge, then a color-1 edge
        idx = {p: i for i, p in enumerate(shape.peripherals)}
        first = deg_unit(2, 2)
    out = []
    for t in range(len(g.tails(diag).sources)):
        seg = g.path_at(diag, t)
        head, tail = g.split(seg, [first])
        if shape.kind == "single-vertex":
            symbol = symbol_edges.index(tail.edges[0])
        else:  # the peripheral vertex the segment passes through
            symbol = idx[g.s(head) if seg.range == shape.center else g.s(tail)]
        out.append((shape.reads_range(seg.range), symbol))
    return out


def _square(degree):
    """The base degree (n, n), n = max(degree), of product and Markov measures."""
    return deg_diag(len(degree), max(degree))


def _chain_measure(g, shape, tag, exact, first, step):
    """The measure whose square of degree (n, n) is its degree-(n-1, n-1)
    head times the step its last (1, 1) segment takes.

    first(v) gives the (value, last symbol) of the vertex v, -1 for no
    symbol.  step(n, a, reads_range, s) is the factor of a square of
    degree (n, n) whose head ends in symbol a and whose last segment has
    (reads_range, symbol s) (see _segments); after a head with no symbol
    (a = -1) the square's value is the step itself.

    value(path) recurses on the head from factorize, keeping each square
    it computes, and reads the segment off its index in block((1, 1)).
    The block rule carries the last symbol of each square and fills
    block((n, n)) by one scatter over the runs of glue((n-1, n-1), (1, 1)):
    the run of a head h lists h.t for the segments t at s(h), in block((1, 1))
    order.  On an exact measure it multiplies integers: a square's numerator
    is its head's numerator times its step's numerator over E_n, the common
    denominator of the steps of degree (n, n), and D_n = D_{n-1} * E_n;
    after a head with no symbol the head's factor is D_{n-1}.  Its
    degree-(0, 0) row goes through value() of the measure made here, which
    carries no bump; perturbed copies share the rule.
    """
    segments = []  # (reads_range, symbol) of block((1, 1)), read on first use

    def segment_table():
        if not segments:
            segments.extend(_segments(g, shape))
        return segments

    chains = {}  # (range, edges) -> (value, last symbol) of a square path

    def chain(path):
        key = (path.range, path.edges)
        got = chains.get(key)
        if got is None:
            n = path.degree[0]
            if n:
                head, tail = g.factorize(path, (n - 1, n - 1))
                val, a = chain(head)
                reads_range, s = segment_table()[g.index(tail)]
                factor = step(n, a, reads_range, s)
                got = (factor if a < 0 else val * factor, s)
            else:
                got = first(path.range)
            chains[key] = got
        return got

    diag = (1, 1)
    squares = []  # squares[n]: (numerators, denominator) of block((n, n))
    last = array("l")  # the last symbol of each path of the deepest square

    def chain_squares(degree):
        nonlocal last
        while len(squares) <= degree[0]:
            n = len(squares)
            if n:
                (prev, den), prev_last = squares[-1], last
                segs = segment_table()
                # steps[a][t]: the step of segment t after last symbol a, for each a that occurs
                steps = {a: [step(n, a, *seg) for seg in segs] for a in sorted(set(prev_last))}
                if exact:
                    scale = lcm(*(s.denominator for row in steps.values() for s in row))
                    steps = {a: [s.numerator * (scale // s.denominator) for s in row]
                             for a, row in steps.items()}
                else:
                    scale = 1
                spans = {}  # v -> its run in block((1, 1)), to slice the steps with
                for v in g.vertices:
                    run = g.run(diag, v)
                    spans[v] = slice(run.start, run.stop)
                heads = g.tails((n - 1, n - 1)).sources
                factors = [den if a < 0 else x for x, a in zip(prev, prev_last)]
                # the run of each head, in glue order: the head's factor times each step
                flat = [x * s for x, a, v in zip(factors, prev_last, heads) for s in steps[a][spans[v]]]
                symbols = [s for _, s in segs]
                flat_last = [s for v in heads for s in symbols[spans[v]]]
                out = g.glue((n - 1, n - 1), diag)[1]
                vals, last = [0] * len(out), array("l", [0]) * len(out)
                for j, x, s in zip(out, flat, flat_last):
                    vals[j] = x
                    last[j] = s
                den *= scale
            else:
                vals, den = [measure.value(g.vertex_path(v)) for v in g.vertices], 1
                if exact:
                    vals, den = _over_lcm(vals)
                last = array("l", [first(v)[1] for v in g.vertices])
            squares.append((vals, den))
        return squares[degree[0]]

    measure = CylinderMeasure(g, lambda path: chain(path)[0], tag, exact, _square,
                              chain_squares)
    return measure


# ---------------------------------------------------------------------------
# product measures


class ProductMeasureSpec(Record):
    """Bias sequence gamma for an infinite product measure.

    family: "const" (value c), "geometric" (gamma_j = c * r**j),
    "finite" (explicit values with zero tail), or "sampled" (explicit
    values with no closure claim; classification stays undetermined).
    Indexing follows the position of the symbol along the path; explicit
    values are gamma_1, gamma_2, ...
    """

    family: str
    c: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    values: tuple = ()

    def gamma(self, j):
        if self.family == "const":
            return self.c
        if self.family == "geometric":
            return self.c * self.r**j
        if self.family in ("finite", "sampled"):
            if 1 <= j <= len(self.values):
                return self.values[j - 1]
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


def check_product_terms(g, spec, top):
    """Read every term the square paths of degree <= (top, top) read:
    gamma_1 .. gamma_top on single-vertex shapes, gamma_0 .. gamma_{2 top}
    on star shapes.  A sampled spec that lacks one raises GammaOutOfRange
    naming it."""
    if detect_shape(g).kind == "single-vertex":
        terms = range(1, top + 1)
    else:
        terms = range(2 * top + 1)
    for j in terms:
        spec.gamma(j)


def check_bias_terms(spec, j0):
    """Raise GammaOutOfRange unless every term gamma_j with j >= j0 is inside
    (-1/2, 1/2), naming the first bad term.

    A const or geometric sequence with |r| <= 1 is largest at j0; a
    geometric one with c != 0 and |r| > 1 grows past 1/2.  Finite and
    sampled specs are checked on every listed value.
    """
    if spec.family in ("finite", "sampled"):
        terms = range(1, len(spec.values) + 1)
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
    """Infinite-product measure on a single-vertex or star shaped 2-graph:
    the chain (see _chain_measure) whose step ignores the last symbol and
    weighs the segment's symbol by the bias of its position."""
    shape = detect_shape(g)

    def bias(j):
        gm = spec.gamma(j)
        if not abs(gm) < Fraction(1, 2):
            raise GammaOutOfRange(f"gamma_{j} = {gm}")
        return gm

    if shape.kind == "single-vertex":
        if shape.symbol_count != 2:
            raise UnsupportedGraphShape("product measure needs exactly 2 symbols")

        def step(n, a, reads_range, s):  # symbol j reads gamma_{j+1}; square n ends in symbol n - 1
            gm = bias(n)
            return Fraction(1, 2) + gm if s == 0 else Fraction(1, 2) - gm

    else:
        two_n = shape.symbol_count
        half = two_n // 2

        def step(n, a, reads_range, s):
            # symbol j sits at position 2j + 1 from the center, 2j from a
            # peripheral vertex; square n ends in symbol n - 1 or n
            gm = bias(2 * n - 1 + reads_range)
            return (1 + gm if s < half else 1 - gm) / Fraction(two_n)

    one = Fraction(1) if spec.exact else 1.0

    def first(v):  # a peripheral range is symbol 0; the last symbol is never read
        if shape.reads_range(v):
            return one * step(0, 0, True, shape.peripherals.index(v)), 0
        return one, 0

    return _chain_measure(g, shape, f"product({spec.family})", spec.exact, first, step)


# ---------------------------------------------------------------------------
# Markov measures


class MarkovMeasureSpec(Record):
    matrix: tuple  # rows of transition probabilities, rows sum to 1
    lam: tuple = ()  # row vector with lam T = lam; defaults to all ones

    def validated(self):
        tol = 1e-12  # float row sums and stationary defects within tol pass
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

        def stationary(lam):
            worst = 0
            for j in range(n):
                col = sum(lam[i] * self.matrix[i][j] for i in range(n))
                worst = max(worst, abs(col - lam[j]))
            return worst == 0 if exact else float(worst) <= tol

        if self.lam:
            lam = self.lam
            if not stationary(lam):
                raise SpecInvariantViolated("lam T != lam")
        else:
            lam = (Fraction(1) if exact else 1.0,) * n
            if not stationary(lam):
                lam = self._stationary_row(tol)
        return MarkovMeasureSpec(self.matrix, tuple(lam))

    def _stationary_row(self, tol):
        """Positive left fixed row, scaled so its entries sum to len(matrix)."""
        n = len(self.matrix)
        if self.exact:
            vec = _perron_vector(_shifted(tuple(zip(*self.matrix)), 1))
            if vec is None:
                raise SpecInvariantViolated("no positive one-dimensional stationary row")
            return tuple(x * n for x in vec)
        transpose = [[float(x) for x in col] for col in zip(*self.matrix)]  # vec T = T^t vec
        return tuple(x * n for x in _power_iteration(transpose, tol))

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
    """Markov measure transported to the graph's path space via symbols:
    the chain (see _chain_measure) that starts at lam[s] and steps from
    symbol a to symbol b with probability T[a][b].  A cylinder with no
    symbol yet sums lam over the first one."""
    spec = spec.validated()
    shape = detect_shape(g)
    n_states = len(spec.matrix)
    if n_states != shape.symbol_count:
        raise UnsupportedGraphShape(
            f"chain has {n_states} states, shape has {shape.symbol_count} symbols"
        )
    lam, matrix = spec.lam, spec.matrix

    def first(v):  # a peripheral range is the first symbol
        if shape.reads_range(v):
            i = shape.peripherals.index(v)
            return lam[i], i
        return sum(lam), -1

    def step(n, a, reads_range, s):
        return lam[s] if a < 0 else matrix[a][s]

    return _chain_measure(g, shape, "markov", spec.exact, first, step)


# ---------------------------------------------------------------------------
# Kakutani classification


class Equivalent(Record):
    series_bound: float


class MutuallySingular(Record):
    reason: str


class Undetermined(Record):
    partial_sum: float
    bound: int


def _hellinger_term(ga, gb):
    pa, qa = 0.5 + float(ga), 0.5 - float(ga)
    pb, qb = 0.5 + float(gb), 0.5 - float(gb)
    return 1.0 - (pa * pb) ** 0.5 - (qa * qb) ** 0.5


def kakutani_classify(spec_a, spec_b):
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
    for spec in (spec_a, spec_b):
        check_bias_terms(spec, 1)

    terms = 64  # sampled specs report the partial sum of this many terms
    partial = sum(
        _hellinger_term(spec_a.gamma(j), spec_b.gamma(j))
        for j in range(1, terms + 1)
        if _safe_gamma(spec_a, j) and _safe_gamma(spec_b, j)
    )
    if spec_a.family == "sampled" or spec_b.family == "sampled":
        return Undetermined(partial, terms)

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


class RNEstimate(Record):
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
    if type(v) is Fraction:
        return f"{v.numerator}/{v.denominator}"
    return f"{float(v):.17g}"


def _value_texts(vals):
    """format_value of each value.  A degree's values repeat, so a list of
    nonzero floats formats each distinct one once; equal floats print alike
    but for the sign of 0.0, and equal values of other types may not."""
    distinct = dict.fromkeys(vals)
    if not all(type(val) is float and val for val in distinct):
        return list(map(format_value, vals))
    text = {val: f"{val:.17g}" for val in distinct}
    return list(map(text.__getitem__, vals))


def measure_table(measure, depth, write):
    """TSV rows (depth, path, value) for all degrees <= depth*(1,..,1).

    A path's label is built from the tail arrays: its parent's label with
    its last edge appended, or its vertex at degree 0.  A degree's labels
    are kept until the last degree built on them is written, and its rows
    are joined once it is done and passed to write, the header first, so
    no more than one degree's text is held.
    """
    g = measure.graph
    g.check_cap(depth * g.k, f"measure table depth {depth}")
    grid = deg_grid(g.k, depth)
    readers = Counter(g.tails(n).prev for n in grid)  # degrees whose labels extend each degree's
    write("depth\tpath\tvalue\n")
    labels = {}
    for n in grid:
        t = g.tails(n)
        if t.prev is None:
            here = g.vertices
        elif not any(t.prev):
            here = t.lasts
        else:
            up = labels[t.prev]
            here = [f"{up[p]}.{e}" for p, e in zip(t.parents, t.lasts)]
            readers[t.prev] -= 1
            if not readers[t.prev]:
                del labels[t.prev]
        if readers[n]:
            labels[n] = here
        total = deg_total(n)
        exact = measure.fractions(n)
        if exact is None:
            rows = [f"{total}\t{label}\t{text}\n"
                    for label, text in zip(here, _value_texts(measure.values(n)))]
        else:  # p/q reduced from the numerators
            nums, den = exact
            rows = [f"{total}\t{label}\t{a // d}/{den // d}\n"
                    for label, a, d in zip(here, nums, map(gcd, nums, repeat(den)))]
        write("".join(rows))
