"""Finite-truncation representations and their mechanical verification.

Operators act between graded basis blocks.  For the standard (cylinder)
representation the blocks are degrees over their tail arrays
(``KGraph.tails``), whose Paths ``block(m)`` builds on request; shallow
blocks embed into deeper ones by cylinder refinement, so the deepest
block carries the honest L^2 geometry.  For the inductive-limit faithful
representation the blocks are gauge-weight classes of a discrete basis
with counting measure.

Each relation check in verify_ck and pvm_additivity is a stream of
per-block residuals, counted in one place.  A block counts as checked
when both sides of the relation are defined on it, and for CK4 and
CK4-min also when both sides map the same blocks; any other block yields
None and is skipped.  Residuals are reported exactly (0/1 coefficients
stay integers end to end).  The gauge covariance residual is exact too:
0.0 when every edge's block map shifts the block key by d(lam), else 2.0.

Every representation exposes its basis through ``block_keys()`` and
``block(key)`` and acts by ``apply_path(lam, key)`` and
``apply_adjoint(lam, key)``, which return an ``_Op`` (source block key,
destination block key and a read-only sparse table of indices), or None
where the block action is undefined.  A table is a partial map, each
source index sent to at most one destination index, or rows of entries.
By unique factorization t_lam sends e_eta to e_{lam.eta}: the standard
forward tables, the standard adjoint on blocks m >= d(lam) and every
faithful table are partial maps; the standard adjoint below d(lam) and
refinement are rows.  Only ``_Op`` and the reps' table builders know either layout.
Discrete representations also act on single basis labels: ``labels()``,
``forward_label(lam, label)``, ``adjoint_label(lam, label)`` and
``encoding_prefix(label, n)``.  A label action returns the image label,
None when there is no image, or ESCAPE when the image leaves the
truncation.

``StandardRep`` (with ``KPRep``) and ``FaithfulRep`` build, on the first
request for lam on a block, the operators of every path of degree d(lam)
on that block in one batch, keep it as one memo entry per (direction,
degree, block) and hand its entry ``KGraph.index(lam)``, the same
``_Op``, to every later caller; a ``ZeroDenominator`` met in a batch is
raised only when its path is requested.  ``DirectSumRep`` builds each
block operator once per rep, on its first request, stacking its parts'
operators through ``_Op`` methods.

Every standard table reads the run of ``KGraph.index(lam)`` in a
``KGraph.glue`` table, the products lam.eta in the order of eta: t_lam on
block m that of glue(d(lam), m), t_lam^* that of glue(d(lam), (m v d(lam))
- d(lam)) grouped by the heads under cut(m v d(lam), m), P(Z(lam)) that of
glue(d(lam), m - d(lam)); refinement reads every run of glue(m, target -
m).  Weights are read at the same indices from ``CylinderMeasure.numerators``
(float weights over 1); on exact weights the Radon-Nikodym test compares
integer cross-products, and the other tables divide them as ints.  The
test and the usability probe run only where the test can fail: counting
weights, and a measure with a source rule and no bump
(``CylinderMeasure.by_source``, whose quotient is rho^{-d(lam)} on every
cylinder), skip both, so such a rep reads no glue table, tail array or
numerator past its depth.

The faithful tables name a label (i, mu) by (i, index(mu)): lam.mu is the
entry of mu in the run of lam in glue(d(lam), d(mu)), a rule segment
appended to w one entry of glue(d(w), (1,..,1)), a trailing rule segment
stripped by the inverse of those entries, kept per (segment, degree), and
lam is a prefix of w when w has head index(lam) under cut(d(w), d(lam)).
Their label actions, which compose and factorize paths, are the
reference the tables are tested against.  verify_ck and pvm_additivity
compose paths themselves, so each relation checks the tables against the
path algebra.
"""

from fractions import Fraction
from itertools import accumulate
from math import fsum

from .errors import (
    CoverViolation,
    DepthTooSmall,
    EncodingConflict,
    NoPathBasis,
    NoPeriodFound,
    NotStronglyConnected,
    PeriodicOrbit,
    UnsupportedMeasure,
    ZeroDenominator,
)
from .intervals import IntervalUnion, atoms_meeting, grid_cells, partition_atoms
from .kgraph import (
    PeriodCandidate,
    deg_add,
    deg_diag,
    deg_grid,
    deg_join,
    deg_le,
    deg_sub,
    deg_total,
    deg_unit,
    shift_windows,
)
from .measures import CylinderMeasure, _dot, _row_reduce, default_prefix_rule, pf_data
from .records import Record


# Label-action result for an image outside the truncation; None is "no image".
ESCAPE = object()
_UNBUILT = object()


def _built_once(rep, direction, lam, key, build):
    """The table of lam on block key: entry index(lam) of the batch
    build(d(lam), key), kept in rep._tables under (direction, d(lam), key).
    A batch lists the tables of every path of degree d(lam) in block order,
    or is None when block key or its image is not represented; a
    ZeroDenominator in it is raised for its path only.  The shared _Op is
    read-only."""
    memo = (direction, lam.degree, key)
    ops = rep._tables.get(memo, _UNBUILT)
    if ops is _UNBUILT:
        ops = rep._tables[memo] = build(lam.degree, key)
    if ops is None:
        return None
    op = ops[rep.graph.index(lam)]
    if isinstance(op, ZeroDenominator):
        raise op.with_traceback(None)
    return op


def _or_error(build, *args):
    """build(*args), or the ZeroDenominator it raises, kept for its path."""
    try:
        return build(*args)
    except ZeroDenominator as err:
        return err


# ---------------------------------------------------------------------------
# standard representation on cylinder indicators


class StandardRep:
    """The prefixing representation on weighted cylinder indicators.

    Basis block m holds the orthonormalized indicators u_eta of cylinders
    with d(eta) = m; weight(eta) = mu(Z(eta)) is the squared norm of the
    raw indicator.  Path actions carry coefficient exactly 1 in this
    basis whenever the Radon-Nikodym data is constant on the acted-on
    cylinder class; nonconstant classes leave the action undefined.
    """

    kind = "standard"
    discrete = False
    path_basis = True  # block m holds the paths of degree m
    # the Radon-Nikodym test reads block depth + 1; the cap counts it even
    # where the test is skipped, so an exit code does not depend on the measure
    reach = 1
    tol = 1e-10  # float Radon-Nikodym quotients this close count as constant

    def __init__(self, graph, measure, depth):
        self.graph = graph
        self.measure = measure
        self.depth = depth
        graph.check_cap((depth + self.reach) * graph.k, f"{self.kind} rep depth {depth}")
        # block m is the paths of degree m, counted off its tail array
        self._dims = {m: len(graph.tails(m).sources) for m in deg_grid(graph.k, depth)}
        # one int object per block index, shared by every table that holds it
        self._indices = list(range(max(self._dims.values())))
        self._tables = {}  # built operators
        # counting weights (no measure) and a source rule with no bump have a
        # positive, constant Radon-Nikodym derivative: every row test would
        # pass and every edge action is defined, so neither is run
        self.rn_tested = measure is not None and not measure.by_source
        if self.rn_tested:
            self._probe_usability()

    def _probe_usability(self):
        """Every edge action must be defined on at least one block whose
        image is represented (a depth-0 truncation has none)."""
        g = self.graph
        for e in g.edges:
            lam = g.edge_path(e.eid)
            blocks = [m for m in self._dims if deg_add(m, lam.degree) in self._dims]
            if blocks and all(self.apply_path(lam, m) is None for m in blocks):
                raise UnsupportedMeasure(
                    f"Radon-Nikodym data of edge {e.eid!r} is nonconstant on "
                    "every represented cylinder class"
                )

    # -- basis ------------------------------------------------------------------

    def block_keys(self):
        return list(self._dims)

    def block(self, m):
        if m not in self._dims:
            raise KeyError(m)
        return self.graph.block(m)

    def block_dim(self, m):
        return self._dims[m]

    @property
    def exact(self):
        """Whether the weights are exact rationals."""
        return self.measure.exact

    @property
    def counting(self):
        """Whether the weights are ints, as on a counting measure."""
        return self.measure.counting

    def weight(self, path):
        return self.measure.value(path)

    def _nonnull(self, vals, m, i):
        """vals[i], the weight numerator of block(m)[i]; raises ZeroDenominator if 0."""
        if vals[i] == 0:
            raise ZeroDenominator(f"Z({self.graph.path_at(m, i)}) has measure 0")
        return vals[i]

    def _numerators(self, m):
        """(numerators, denominator) of the weights of block(m): ints over one
        int for exact weights (CylinderMeasure.numerators)."""
        return self.measure.numerators(m)

    def _rn_constant(self, n, m):
        """The Radon-Nikodym test on block m of the paths of degree n, reading
        each glue table and value block once: constant(a, rows) says whether
        Phi_lam, lam = block(n)[a], is constant on Z(eta), eta = block(m)[i],
        for each row (i, j): its quotient against those on the extensions
        eta.xi of degree up = m + (1,..,1), the run of i in glue(m, (1,..,1))."""
        g, nonnull, diag = self.graph, self._nonnull, deg_diag(self.graph.k, 1)
        up = deg_add(m, diag)
        off, out = g.glue(m, diag)
        # t -> lam.t is forward[shifts[a] + t]: every t here has range s(lam)
        lam_off, forward = g.glue(n, up)
        starts = {v: g.run(up, v).start for v in g.vertices}
        shifts = [lam_off[a] - starts[v] for a, v in enumerate(g.tails(n).sources)]
        degrees = (m, up, deg_add(m, n), deg_add(up, n))
        (bn, bd), (dn, dd), (imn, imd), (jn, jd) = map(self._numerators, degrees)
        # a weight is tested for 0 as "w or nonnull(...)", one call only where it raises
        if not self.exact:  # float weights are their numerators over 1
            tol = self.tol

            def constant(a, rows):
                shift = shifts[a]
                for i, j in rows:
                    base = imn[j] / nonnull(bn, m, i)
                    for t in out[off[i]:off[i + 1]]:
                        q = jn[forward[shift + t]] / (dn[t] or nonnull(dn, up, t))
                        if abs(float(q - base)) > tol:
                            return False
                return True

            return constant
        # exact weights, numerators over one denominator per degree: the quotients
        # (jn/jd) / (dn/dd) = (imn/imd) / (bn/bd) compared as jn*dd*imd*bn = imn*bd*jd*dn
        deep_scale, scale = dd * imd, bd * jd

        def constant(a, rows):
            shift = shifts[a]
            for i, j in rows:
                left, right = nonnull(bn, m, i) * deep_scale, imn[j] * scale
                for t in out[off[i]:off[i + 1]]:
                    if jn[forward[shift + t]] * left != right * (dn[t] or nonnull(dn, up, t)):
                        return False
            return True

        return constant

    # -- operator actions ---------------------------------------------------------

    def apply_path(self, lam, m):
        """Forward action on block m; returns an _Op or None."""
        return _built_once(self, "forward", lam, m, self._forward_tables)

    def apply_adjoint(self, lam, m):
        """Adjoint action on block m; returns an _Op or None."""
        return _built_once(self, "adjoint", lam, m, self._adjoint_tables)

    def _rows(self, n, m):
        """For each lam of degree n, in block order: the pairs (i, j) with
        block(m)[i] = eta and block(m + n)[j] = lam.eta, for each eta with
        range s(lam): the run of lam in glue(n, m)."""
        g = self.graph
        off, out = g.glue(n, m)
        shared = self._indices.__getitem__
        runs = {v: list(map(shared, g.run(m, v))) for v in g.vertices}
        return [list(zip(runs[v], map(shared, out[off[a]:off[a + 1]])))
                for a, v in enumerate(g.tails(n).sources)]

    def _forward_tables(self, n, m):
        """u_eta -> u_{lam.eta} for each lam of degree n: the run of lam in glue(n, m)."""
        dst = deg_add(m, n)
        if m not in self._dims or dst not in self._dims:
            return None
        if not self.rn_tested:
            return [_Op(m, dst, dict(rows)) for rows in self._rows(n, m)]
        constant = self._rn_constant(n, m)

        def table(a, rows):  # nonconstant RN data: block not represented
            return _Op(m, dst, dict(rows)) if constant(a, rows) else None

        return [_or_error(table, a, rows) for a, rows in enumerate(self._rows(n, m))]

    def _adjoint_tables(self, n, m):
        """Adjoint action on block m of each lam of degree n via minimal common
        extensions lam.alpha = eta.beta: the coefficient of u_alpha in t_lam^* u_eta
        is sqrt(w(lam.alpha) / w(eta))."""
        g = self.graph
        join = deg_join(m, n)
        if m not in self._dims or join not in self._dims:
            return None
        dst, heads = deg_sub(join, n), g.cut(join, m)[0]
        # the ratio (tn/td) / (bn/bd) as the integers tn*bd and td*bn; int true
        # division is correctly rounded, as float(Fraction) and float division are
        (tn, td), (bn, bd) = self._numerators(join), self._numerators(m)

        def table(rows):
            entries = sorted((heads[j], alpha, j) for alpha, j in rows)
            coefs = []
            for i, _, j in entries:  # as in _rn_constant: nonnull only where it raises
                num, den = tn[j] * bd, td * (bn[i] or self._nonnull(bn, m, i))
                coefs.append(1 if num == den else (num / den) ** 0.5)
            if join == m:  # eta = lam.alpha has the one image u_alpha: a partial map
                images = {j: alpha for _, alpha, j in entries}  # heads[j] = j, shared
                unit = all(c == 1 for c in coefs)
                return _Op(m, dst, images, None if unit else dict(zip(images, coefs)))
            rows = {}
            for (i, alpha, _), c in zip(entries, coefs):
                rows.setdefault(i, {})[alpha] = c
            return _Op(m, dst, rows=rows)

        return [_or_error(table, rows) for rows in self._rows(n, dst)]

    def refinement(self, m, target):
        """Cylinder refinement: the isometry from block m into block target >= m."""
        (dn, dd), (bn, bd) = self._numerators(target), self._numerators(m)
        off, out = self.graph.glue(m, deg_sub(target, m))
        table = {}
        for i in range(len(bn)):
            w_eta = self._nonnull(bn, m, i) / bd
            table[i] = {j: (dn[j] / dd / w_eta) ** 0.5 for j in out[off[i]:off[i + 1]]}
        return _Op(m, target, rows=table)

    def unit_vector(self, m):
        """Coordinates of the constant function 1 in block m."""
        nums, den = self._numerators(m)
        return [(n / den) ** 0.5 for n in nums]

    def pvm_mask(self, lam, m):
        """Diagonal 0/1 mask of P(Z(lam)) on block m (zero unless m >= d(lam))."""
        g, mask = self.graph, [0.0] * self.block_dim(m)
        if deg_le(lam.degree, m):
            off, out = g.glue(lam.degree, deg_sub(m, lam.degree))
            a = g.index(lam)
            for j in out[off[a]:off[a + 1]]:
                mask[j] = 1.0
        return mask


def standard_rep(graph, measure, depth):
    return StandardRep(graph, measure, depth)


class KPRep(StandardRep):
    """Counting-measure truncation of the infinite-path representation.

    Every weight is 1, so the Radon-Nikodym data is constant and every
    block action inside the truncation is defined.  Labels are the
    paths of the blocks; a label of degree (depth, .., depth) stands for
    the infinite paths it prefixes.
    """

    kind = "kp"
    discrete = True
    reach = 0  # counting weights: no Radon-Nikodym test, no block past the depth
    exact = True  # counting weights
    counting = True

    def __init__(self, graph, depth):
        super().__init__(graph, None, depth)

    def weight(self, path):
        return 1

    def _numerators(self, m):
        return [1] * len(self.graph.tails(m).sources), 1

    def labels(self):
        return [lab for m in self._dims for lab in self.graph.block(m)]

    def forward_label(self, lam, label):
        g = self.graph
        if g.s(lam) != label.range:
            return None
        out = g.compose(lam, label)
        return out if deg_le(out.degree, deg_diag(g.k, self.depth)) else ESCAPE

    def adjoint_label(self, lam, label):
        return self.graph.strip_prefix(label, lam)

    def encoding_prefix(self, label, n):
        if not deg_le(n, label.degree):
            raise DepthTooSmall(f"label {label} too shallow for prefix {n}")
        return self.graph.factorize(label, n)[0]


# ---------------------------------------------------------------------------
# faithful inductive-limit representation


class FaithfulRep:
    """Discrete basis [(stratum i, path with source v_i)] with counting weights.

    Blocks are gauge-weight classes delta = d(path) - i*(1,..,1); the
    gauge unitary acts on block delta as the scalar z^delta, so gauge
    covariance is structural.  A label (i, mu) is reduced: for i >= 2, mu
    does not end in the rule segment x_{i-1}.

    The rep keeps a label (i, mu) as (i, index(mu)) and builds (i, Path)
    labels only for ``block`` and ``labels``.  The tables read lam.mu and
    the trailing rule segments of a path off ``KGraph.glue`` runs and the
    prefix test off ``KGraph.cut``.
    The label actions compose and factorize paths; they are the reference
    the tables are tested against, and build the tables whose paths pass
    the graph's enumeration cap.
    """

    kind = "faithful"
    discrete = True

    def __init__(self, graph, rule, depth, cap=None):
        self.graph = graph
        self.rule = rule
        self.depth = depth
        self.cap = cap if cap is not None else depth
        g = graph
        g.check_cap(self.cap * g.k, f"faithful rep cap {self.cap}")
        self._diag = deg_diag(g.k, 1)
        self._segments = [g.index(seg) for seg in rule.segments]  # positions in block(diag)
        # ... and in the run of their range: w.x is at off[w] + offset in glue(d(w), diag)
        self._offsets = [i - g.run(self._diag, seg.range).start
                         for i, seg in zip(self._segments, rule.segments)]
        # block delta: the slot of each label (i, index(mu)), and r(mu) per slot
        self._slots, self._ranges, self._tables, self._heads = {}, {}, {}, {}
        for i in range(1, depth + 1):
            v_i = rule.segment(i - 1).range
            for m in deg_grid(g.k, self.cap):
                sources, delta = g.tails(m).sources, deg_sub(m, deg_diag(g.k, i))
                strips = self._strips(i, m)
                stripped = strips[0] if strips else {}
                for v in g.vertices:  # block order groups the paths by range
                    for j in g.run(m, v):
                        if sources[j] == v_i and j not in stripped:
                            slots = self._slots.setdefault(delta, {})
                            slots[(i, j)] = len(slots)
                            self._ranges.setdefault(delta, []).append(v)

    def _reduce(self, i, mu):
        g = self.graph
        diag = deg_diag(g.k, 1)
        while i >= 2 and deg_le(diag, mu.degree):
            head, tail = g.factorize(mu, deg_sub(mu.degree, diag))
            if tail != self.rule.segment(i - 2):
                break
            i, mu = i - 1, head
        return (i, mu)

    def _strips(self, i, m):
        """The strip maps that _reduced walks for a label at stratum i and
        degree m: the c-th, c = 0, 1, .., maps the index of each w.x in
        block(m - c*(1,..,1)), x = x_{i-1-c}, to the index of w; it is
        built once per (segment, degree) from glue(d(w), (1,..,1))."""
        g, out = self.graph, []
        while i >= 2 and deg_le(self._diag, m):
            m, s = deg_sub(m, self._diag), (i - 2) % len(self._segments)
            heads = self._heads.get((s, m))
            if heads is None:
                off, ext = g.glue(m, self._diag)
                v, offset = self.rule.segment(s).range, self._offsets[s]
                heads = self._heads[s, m] = {
                    ext[off[w] + offset]: w for w, u in enumerate(g.tails(m).sources) if u == v}
            out.append(heads)
            i -= 1
        return out

    @staticmethod
    def _reduced(strips, i, j):
        """_reduce on indices: (stratum, index) of the label at stratum i and
        index j, stripped of its trailing rule segments by _strips."""
        for heads in strips:
            head = heads.get(j)
            if head is None:
                break
            i, j = i - 1, head
        return i, j

    def _escapes(self, i, m, top):
        """Whether lam.mu of degree top leaves the truncation for every mu of
        degree m at stratum i.  Each strip lowers top by (1,..,1) and i by 1;
        a reduced mu of degree >= (1,..,1) is the tail of lam.mu at its last
        segment, so lam.mu keeps that segment and is never stripped."""
        strips = 0 if deg_le(self._diag, m) else min(i - 1, min(top))
        return max(top) - self.cap > strips

    # -- basis ----------------------------------------------------------------------

    def block_keys(self):
        return list(self._slots)

    def block(self, delta):
        """The labels (i, mu) of block delta in slot order, built on request."""
        g = self.graph
        return [(i, g.block(deg_add(delta, deg_diag(g.k, i)))[j]) for i, j in self._slots[delta]]

    def block_dim(self, delta):
        return len(self._slots[delta])

    def has_label(self, label):
        """True when label is a basis label (looked up in its own gauge block)."""
        i, mu = label
        slots = self._slots.get(tuple(d - i for d in mu.degree))
        return slots is not None and max(mu.degree) <= self.cap and (
            (i, self.graph.index(mu)) in slots)

    def labels(self):
        return [lab for delta in self._slots for lab in self.block(delta)]

    # -- operator actions ---------------------------------------------------------------

    def forward_label(self, lam, label):
        g = self.graph
        i, mu = label
        if g.s(lam) != mu.range:
            return None
        out = self._reduce(i, g.compose(lam, mu))
        return out if self.has_label(out) else ESCAPE

    def adjoint_label(self, lam, label):
        g = self.graph
        j, w = label
        while not deg_le(lam.degree, w.degree):
            if j >= self.depth:
                return ESCAPE
            w = g.compose(w, self.rule.segment(j - 1))
            j += 1
        tail = g.strip_prefix(w, lam)
        if tail is None:
            return None
        out = self._reduce(j, tail)
        return out if self.has_label(out) else ESCAPE

    def apply_path(self, lam, delta):
        return _built_once(self, "forward", lam, delta, self._forward_tables)

    def apply_adjoint(self, lam, delta):
        return _built_once(self, "adjoint", lam, delta, self._adjoint_tables)

    def _forward_tables(self, n, delta):
        """t_lam on block delta for each lam of degree n: (i, mu) goes to
        (i, lam.mu) reduced, where lam.mu is the entry of mu in the run of lam
        in glue(n, d(mu)).  The labels are grouped by stratum and range, so
        each lam reads only the labels with range s(lam).  An image outside
        the truncation leaves the block undefined.  Tables whose paths pass
        the enumeration cap are read off the label actions."""
        dst = deg_add(delta, n)
        if delta not in self._slots or dst not in self._slots:
            return None
        g, slots, strata = self.graph, self._slots[dst], {}
        for ((i, j), t), v in zip(self._slots[delta].items(), self._ranges[delta]):
            if i not in strata:
                m = deg_add(delta, deg_diag(g.k, i))
                top = deg_add(m, n)
                if self._escapes(i, m, top):
                    images, strips = None, None
                elif deg_total(top) > g.enum_cap:
                    return self._label_tables(self.forward_label, n, delta, dst)
                else:
                    images, strips = g.glue(n, m), self._strips(i, top)
                strata[i] = strips, images, {v: g.run(m, v).start for v in g.vertices}, {}
            strata[i][3].setdefault(v, []).append((j, t))

        def table(a, v):
            out_table = {}
            for i, (strips, images, starts, groups) in strata.items():
                group = groups.get(v)
                if group is None:
                    continue  # no mu with r(mu) = s(lam) at stratum i
                if images is None:
                    return None
                off, out = images
                shift = off[a] - starts[v]
                for j, t in group:
                    image = slots.get(self._reduced(strips, i, out[shift + j]))
                    if image is None:
                        return None
                    out_table[t] = image
            return _Op(delta, dst, out_table)

        return [table(a, v) for a, v in enumerate(g.tails(n).sources)]

    def _adjoint_tables(self, n, delta):
        """t_lam^* on block delta for each lam of degree n, in one pass over
        the labels: (j, w) is extended by rule segments until n <= d(w), then
        goes to (j, tail) reduced in the table of lam = block(n)[head], where
        head and tail are those of w under cut(d(w), n).

        Once block dst exists, neither step leaves the truncation: after
        s > 0 segments some coordinate of dst is -(j + s), so block dst holds
        labels only at strata >= j + s.  Hence j + s <= depth, and the tail,
        of degree dst + (j + s)*(1,..,1), is within the cap, as is every
        reduction of it.  Tables whose paths pass the enumeration cap are
        read off the label actions.
        """
        dst = deg_sub(delta, n)
        if delta not in self._slots or dst not in self._slots:
            return None
        g, slots, strata = self.graph, self._slots[dst], {}
        tables = [{} for _ in g.tails(n).sources]
        for (j, w), t in self._slots[delta].items():
            if j not in strata:
                steps, i, top = self._extension(j, deg_add(delta, deg_diag(g.k, j)), n)
                if deg_total(top) > g.enum_cap:
                    return self._label_tables(self.adjoint_label, n, delta, dst)
                # w.x_{j-1} is out[off[w] + offset] in glue(d(w), (1,..,1))
                steps = [(*g.glue(low, self._diag), offset) for low, offset in steps]
                strata[j] = steps, i, self._strips(i, deg_sub(top, n)), g.cut(top, n)
            steps, i, strips, (heads, tails) = strata[j]
            for off, out, offset in steps:
                w = out[off[w] + offset]
            tables[heads[w]][t] = slots[self._reduced(strips, i, tails[w])]
        return [_Op(delta, dst, table) for table in tables]

    def _label_tables(self, action, n, delta, dst):
        """The tables of the paths of degree n read off a label action, one
        label at a time: the route for tables whose paths pass the
        enumeration cap, where the graph builds no block to index them."""
        labels, slots, index = self.block(delta), self._slots[dst], self.graph.index

        def table(lam):
            out_table = {}
            for t, label in enumerate(labels):
                out = action(lam, label)
                if out is ESCAPE:
                    return None
                if out is not None:
                    out_table[t] = slots[(out[0], index(out[1]))]
            return _Op(delta, dst, out_table)

        return [table(lam) for lam in self.graph.block(n)]

    def _extension(self, j, top, n):
        """The rule segments that extend a label (j, w) with d(w) = top until
        n <= d(w): steps (d(w), offset of x_{j-1} in its range's run of
        block(1,..,1)), then the final stratum and degree."""
        steps = []
        while not deg_le(n, top):
            steps.append((top, self._offsets[(j - 1) % len(self._offsets)]))
            top, j = deg_add(top, self._diag), j + 1
        return steps, j, top

    def encoding_prefix(self, label, n):
        """Initial segment of the encoded infinite path mu x_i x_{i+1} ..."""
        g = self.graph
        i, mu = label
        w = mu
        j = i
        while not deg_le(n, w.degree):
            w = g.compose(w, self.rule.segment(j - 1))
            j += 1
        return g.factorize(w, n)[0]


def faithful_rep(graph, rule=None, depth=4, cap=None, sum_over_vertices=False):
    """The inductive-limit representation along a prefix rule.

    With sum_over_vertices, one summand per vertex (each along its own
    lexicographically least rule); otherwise the graph must be strongly
    connected for every vertex projection to be nonzero.
    """
    if sum_over_vertices:
        parts = []
        for v in graph.vertices:
            parts.append(FaithfulRep(graph, default_prefix_rule(graph, v), depth, cap))
        return DirectSumRep(parts)
    if not graph.is_strongly_connected():
        raise NotStronglyConnected(graph.name)
    if rule is None:
        rule = default_prefix_rule(graph)
    return FaithfulRep(graph, rule, depth, cap)


class DirectSumRep:
    """Direct sum of reps of the same kind over one graph."""

    discrete = True
    kind = "sum"

    def __init__(self, parts):
        self.parts = list(parts)
        self.graph = parts[0].graph
        self.depth = min(p.depth for p in parts)
        self._keys = [set(p.block_keys()) for p in self.parts]
        self._tables = {}

    def block_keys(self):
        return sorted(set().union(*self._keys))

    def block(self, key):
        return [(c, lab) for c, (p, keys) in enumerate(zip(self.parts, self._keys))
                if key in keys for lab in p.block(key)]

    def _dims(self, key):
        """Each part's dimension of block key, 0 for a part without it."""
        return [p.block_dim(key) if key in keys else 0 for p, keys in zip(self.parts, self._keys)]

    def block_dim(self, key):
        return sum(self._dims(key))

    def _offsets(self, key):
        return list(accumulate(self._dims(key), initial=0))

    def _stacked(self, action, lam, key):
        """The parts' operators p.action(lam, key), moved to their offsets and
        summed; built once per (action, lam, key)."""
        memo = (action, lam, key)
        op = self._tables.get(memo, _UNBUILT)
        if op is _UNBUILT:
            offs = self._offsets(key)
            parts = ((c, getattr(p, action)(lam, key))
                     for c, p in enumerate(self.parts) if key in self._keys[c])
            op = self._tables[memo] = _sum(
                None if part is None else part.moved(offs[c], self._offsets(part.dst_key)[c])
                for c, part in parts
            )
        return op

    def apply_path(self, lam, key):
        return self._stacked("apply_path", lam, key)

    def apply_adjoint(self, lam, key):
        return self._stacked("apply_adjoint", lam, key)

    def labels(self):
        return [(c, lab) for c, p in enumerate(self.parts) for lab in p.labels()]

    def forward_label(self, lam, label):
        c, lab = label
        return _tagged(c, self.parts[c].forward_label(lam, lab))

    def adjoint_label(self, lam, label):
        c, lab = label
        return _tagged(c, self.parts[c].adjoint_label(lam, lab))

    def encoding_prefix(self, label, n):
        c, lab = label
        return self.parts[c].encoding_prefix(lab, n)


def _tagged(c, out):
    """A part's label-action result as a summand-c label of the sum."""
    return out if out is None or out is ESCAPE else (c, out)


# ---------------------------------------------------------------------------
# operator algebra on mappings


class _Op:
    """Block operator src_key -> dst_key: an index map in one of two layouts.

    A partial map sends each source index to at most one destination index:
    ``dst`` is {src index: dst index}, and ``coef`` is None when every
    coefficient is 1, else {src index: coef} over the same sources.  Any
    other operator keeps ``rows``, {src index: {dst index: coef}}, and has
    ``dst`` and ``coef`` None.  The layout follows the data: by unique
    factorization t_lam sends e_eta to e_{lam.eta}, so the builders emit
    every forward table and every adjoint at or above d(lam) as a partial
    map, and the standard adjoint below d(lam) and refinement as rows.
    Composites and sums of partial maps stay partial maps while no source
    gets two images; the rest fall back to rows.

    A row keeps its entry order and a sum its term order, so every float is
    the one the rows algorithms compute.  Only this class and the reps'
    table builders read or build either layout; an operator is never
    changed after construction.
    """

    __slots__ = ("src_key", "dst_key", "dst", "coef", "rows")

    def __init__(self, src_key, dst_key, dst=None, coef=None, rows=None):
        self.src_key = src_key
        self.dst_key = dst_key
        self.dst = dst
        self.coef = coef
        self.rows = rows

    @property
    def table(self):
        """The operator as rows {src index: {dst index: coef}}, in source order."""
        if self.rows is not None:
            return self.rows
        if self.coef is None:
            return {s: {d: 1} for s, d in self.dst.items()}
        return {s: {d: self.coef[s]} for s, d in self.dst.items()}

    def scaled(self, factor):
        if self.dst is not None:
            coef = (dict.fromkeys(self.dst, factor) if self.coef is None
                    else {s: c * factor for s, c in self.coef.items()})
            return _Op(self.src_key, self.dst_key, self.dst, coef)
        rows = {s: {d: c * factor for d, c in outs.items()} for s, outs in self.rows.items()}
        return _Op(self.src_key, self.dst_key, rows=rows)

    def moved(self, src_offset, dst_offset):
        """The same operator with its source and destination indices offset."""
        if self.dst is not None:
            dst = {src_offset + s: dst_offset + d for s, d in self.dst.items()}
            coef = None if self.coef is None else {src_offset + s: c for s, c in self.coef.items()}
            return _Op(self.src_key, self.dst_key, dst, coef)
        rows = {
            src_offset + s: {dst_offset + d: c for d, c in outs.items()}
            for s, outs in self.rows.items()
        }
        return _Op(self.src_key, self.dst_key, rows=rows)

    def transpose(self):
        dst = self.dst
        if dst is not None and len(set(dst.values())) == len(dst):  # one-to-one
            coef = None if self.coef is None else {dst[s]: c for s, c in self.coef.items()}
            return _Op(self.dst_key, self.src_key, {d: s for s, d in dst.items()}, coef)
        rows = {}
        for s, outs in self.table.items():
            for d, c in outs.items():
                rows.setdefault(d, {})[s] = c
        return _Op(self.dst_key, self.src_key, rows=rows)

    def then(self, other):
        """other o self (apply self first)."""
        if other is None:
            return None
        if other.src_key != self.dst_key:
            raise ValueError(
                f"cannot compose: block {self.dst_key} feeds block {other.src_key}"
            )
        a, b = self.dst, other.dst
        if a is not None and b is not None:
            dst = {s: x for s, d in a.items() if (x := b.get(d)) is not None}
            ca, cb = self.coef, other.coef
            if ca is None and cb is None:
                return _Op(self.src_key, other.dst_key, dst)
            if cb is None:
                coef = {s: ca[s] for s in dst}
            elif ca is None:
                coef = {s: cb[a[s]] for s in dst}
            else:
                coef = {s: ca[s] * cb[a[s]] for s in dst}
            if 0 in coef.values():  # a zero product leaves no entry
                coef = {s: c for s, c in coef.items() if c != 0}
                dst = {s: dst[s] for s in coef}
            return _Op(self.src_key, other.dst_key, dst, coef)
        right, rows = other.table, {}
        for src, outs in self.table.items():
            acc = {}
            for mid, c1 in outs.items():
                for dst, c2 in right.get(mid, {}).items():
                    acc[dst] = acc.get(dst, 0) + c1 * c2
            acc = {d: c for d, c in acc.items() if c != 0}
            if acc:
                rows[src] = acc
        return _Op(self.src_key, other.dst_key, rows=rows)

    def add(self, other, sign=1):
        if (self.src_key, self.dst_key) != (other.src_key, other.dst_key):
            raise ValueError(
                f"cannot add: block map {self.src_key} -> {self.dst_key} and "
                f"{other.src_key} -> {other.dst_key}"
            )
        a, b = self.dst, other.dst
        if a is not None and b is not None and all(a[s] == b[s] for s in a.keys() & b.keys()):
            dst, ca, cb = {**a, **b}, self.coef, other.coef
            if ca is None and cb is None and sign == 1 and len(dst) == len(a) + len(b):
                return _Op(self.src_key, self.dst_key, dst)
            coef = {s: 1 if ca is None else ca[s] for s in a}
            for s in b:
                c = sign * (1 if cb is None else cb[s])
                # 0 + c as the rows sum adds it, which turns -0.0 into 0.0
                coef[s] = coef[s] + c if s in coef else 0 + c
            return _Op(self.src_key, self.dst_key, dst, coef)
        left, right, rows = self.table, other.table, {}
        for s in set(left) | set(right):
            acc = dict(left.get(s, {}))
            for d, c in right.get(s, {}).items():
                acc[d] = acc.get(d, 0) + sign * c
            rows[s] = acc
        return _Op(self.src_key, self.dst_key, rows=rows)

    def residual_vs(self, other):
        if (self.coef is None and other.coef is None and self.dst is not None
                and self.dst == other.dst
                and (self.src_key, self.dst_key) == (other.src_key, other.dst_key)):
            return 0.0  # equal unit partial maps
        return self.add(other, sign=-1).max_abs()

    def _coefs(self):
        """The coefficients of rows, or of a partial map that has coef."""
        if self.rows is not None:
            return (c for outs in self.rows.values() for c in outs.values())
        return self.coef.values()

    def max_abs(self):
        """Largest absolute coefficient; 0.0 for the zero operator."""
        if self.coef is None and self.dst is not None:
            return 1.0 if self.dst else 0.0
        return max((abs(float(c)) for c in self._coefs()), default=0.0)

    def is_zero(self):
        if self.coef is None and self.dst is not None:
            return not self.dst
        return all(c == 0 for c in self._coefs())


# The relation checks reach block actions only through these two module
# names, so that one patch of the module traces or counts every call.
def op_forward(rep, lam, key):
    return rep.apply_path(lam, key)


def op_adjoint(rep, lam, key):
    return rep.apply_adjoint(lam, key)


# ---------------------------------------------------------------------------
# Cuntz-Krieger relation verification


class RelationCheck(Record):
    relation: str
    witness: str
    residual: float
    blocks_checked: int


class CKReport(Record):
    ok: bool
    max_residual: float
    checks: list

    def worst(self):
        """The first relation checked on no block, else the largest residual."""
        vacuous = [c for c in self.checks if c.blocks_checked == 0]
        if vacuous:
            return vacuous[0]
        bad = [c for c in self.checks if c.residual > 0]
        return max(bad, key=lambda c: c.residual) if bad else None

    def to_dict(self):
        return {**self._asdict(), "checks": [c._asdict() for c in self.checks]}


def verify_ck(rep, max_level=2, tol=1e-10):
    """Check (CK1)-(CK4) and the minimal-extension identity blockwise.

    Each relation is a stream of per-block residuals, None for a block it
    does not check; _tally counts the checked blocks.
    """
    g = rep.graph
    edges = [g.edge_path(e.eid) for e in g.edges]
    vertices = [g.vertex_path(v) for v in g.vertices]

    def ck1():
        # vertex projections, mutually orthogonal, self-adjoint
        for key in rep.block_keys():
            for v in vertices:
                tv = op_forward(rep, v, key)
                if tv is None:
                    yield None
                    continue
                idempotent = tv.then(tv).residual_vs(tv)
                self_adjoint = _residual(tv, op_adjoint(rep, v, key)) or 0.0
                others = [op_forward(rep, w, key) for w in vertices if w != v]
                overlap = any(
                    tw is not None and not tv.then(tw).is_zero() for tw in others
                )
                yield max(idempotent, self_adjoint, float(overlap))

    def ck2():
        # composing generator actions agrees with the composite path
        pool = edges + vertices
        for lam in pool:
            for eta in pool:
                if g.s(lam) != eta.range:
                    continue
                prod = g.compose(lam, eta)
                for key in rep.block_keys():
                    t_eta = op_forward(rep, eta, key)
                    if t_eta is None:
                        yield None
                        continue
                    t_lam = op_forward(rep, lam, t_eta.dst_key)
                    yield _residual(t_eta.then(t_lam), op_forward(rep, prod, key))

    def ck3():
        # t_lam^* t_lam = t_{s(lam)}
        for lam in edges:
            sv = g.vertex_path(g.s(lam))
            for key in rep.block_keys():
                t_lam = op_forward(rep, lam, key)
                if t_lam is None:
                    yield None
                    continue
                adj = op_adjoint(rep, lam, t_lam.dst_key)
                yield _residual(t_lam.then(adj), op_forward(rep, sv, key))

    def ck4():
        # sum over v Lambda^n of t t^* equals t_v
        degrees = [deg_unit(g.k, c) for c in range(1, g.k + 1)]
        degrees.append(deg_diag(g.k, 1))
        if max_level >= 2:
            degrees.append(deg_diag(g.k, 2))
        for n in degrees:
            for v in g.vertices:
                lams = g.enumerate_paths(n, v)
                tv_path = g.vertex_path(v)
                for key in rep.block_keys():
                    if not rep.discrete and not deg_le(n, key):
                        yield None  # both sides block-preserving only past level n
                        continue
                    total = _sum(_outer(rep, lam, lam, key) for lam in lams)
                    yield _same_blocks_residual(total, op_forward(rep, tv_path, key))

    def ck4_min():
        # minimal-extension identity: t_lam^* t_eta = sum t_alpha t_beta^*
        for lam in edges:
            for eta in edges:
                if lam.range != eta.range:
                    continue
                pairs = g.lambda_min(lam, eta)
                for key in rep.block_keys():
                    t_eta = op_forward(rep, eta, key)
                    adj = None if t_eta is None else op_adjoint(rep, lam, t_eta.dst_key)
                    if adj is None:
                        yield None
                        continue
                    lhs = t_eta.then(adj)
                    if pairs:
                        rhs = _sum(_outer(rep, a, b, key) for a, b in pairs)
                        yield _same_blocks_residual(lhs, rhs)
                    else:
                        yield lhs.max_abs()  # no common extension: lhs must vanish

    return _report([
        ("CK1", "vertex projections", ck1()),
        ("CK2", "edge pairs", ck2()),
        ("CK3", "edges", ck3()),
        ("CK4", "full levels", ck4()),
        ("CK4-min", "edge pairs", ck4_min()),
    ], tol)


def _report(relations, tol):
    """The CKReport of (relation, witness, residual stream) triples: ok when
    every relation was checked on some block and the worst residual is
    within tol."""
    checks = [RelationCheck(rel, wit, *_tally(res)) for rel, wit, res in relations]
    max_res = max(c.residual for c in checks)
    # a relation checked on no block has not been verified
    checked = all(c.blocks_checked > 0 for c in checks)
    return CKReport(checked and max_res <= tol, max_res, checks)


def _tally(residuals):
    """(worst residual, blocks checked) of a stream; None marks a skipped block."""
    worst, blocks = 0.0, 0
    for residual in residuals:
        if residual is not None:
            worst = max(worst, residual)
            blocks += 1
    return worst, blocks


def _sum(ops):
    """Sum of the block operators; None once a term is undefined, or with no terms."""
    total = None
    for op in ops:
        if op is None:
            return None
        total = op if total is None else total.add(op)
    return total


def _outer(rep, alpha, beta, key):
    """t_alpha t_beta^* on block key, or None where an action is undefined."""
    adj = op_adjoint(rep, beta, key)
    return None if adj is None else adj.then(op_forward(rep, alpha, adj.dst_key))


def _residual(lhs, rhs):
    """Residual of lhs = rhs, or None when a side is undefined."""
    return None if lhs is None or rhs is None else lhs.residual_vs(rhs)


def _same_blocks_residual(lhs, rhs):
    """_residual, and None also when the sides map different blocks.

    Only CK4 and CK4-min skip such blocks: below d(lam) a counting
    adjoint spreads a basis vector over its extensions (see KPRep).
    """
    if lhs is None or rhs is None:
        return None
    if (lhs.src_key, lhs.dst_key) != (rhs.src_key, rhs.dst_key):
        return None
    return lhs.residual_vs(rhs)


# ---------------------------------------------------------------------------
# projection-valued measure


def pvm(rep, lam, key):
    """P(Z(lam)) = t_lam t_lam^* on the given block, or None."""
    p = _outer(rep, lam, lam, key)
    return p if p is not None and p.dst_key == key else None


def pvm_additivity(rep, depth=1):
    """Projection axioms, additivity, and the transport identities.

    Each identity is a stream of per-block residuals, reported as a
    relation of verify_ck is: a CKReport of RelationChecks, failed by an
    identity checked on no block or by a residual above 1e-10.
    """
    g = rep.graph
    diag = deg_diag(g.k, 1)
    edges = [g.edge_path(e.eid) for e in g.edges]

    def projection():
        # P(Z(lam)) idempotent and self-adjoint
        for key in rep.block_keys():
            for n in deg_grid(g.k, depth):
                for lam in g.enumerate_paths(n):
                    p = pvm(rep, lam, key)
                    if p is None:
                        yield None
                        continue
                    yield max(p.then(p).residual_vs(p), p.residual_vs(p.transpose()))

    def additivity():
        # P(Z(lam)) = sum over extensions
        for key in rep.block_keys():
            for n in deg_grid(g.k, depth):
                for lam in g.enumerate_paths(n):
                    p = pvm(rep, lam, key)
                    if p is None:
                        yield None
                        continue
                    exts = g.enumerate_paths(diag, g.s(lam))
                    parts = (pvm(rep, g.compose(lam, eta), key) for eta in exts)
                    yield _residual(p, _sum(parts))

    def transport():
        # (a) t_lam P(Z(eta)) t_lam^* = P(Z(lam eta))
        for key in rep.block_keys():
            for lam in edges:
                for eta in g.enumerate_paths(diag, g.s(lam)):
                    p_eta = pvm(rep, eta, key)
                    if p_eta is None:
                        yield None
                        continue
                    adj = op_adjoint(rep, lam, deg_add(key, lam.degree))
                    if adj is None or adj.dst_key != key:
                        yield None
                        continue
                    fwd = op_forward(rep, lam, key)
                    if fwd is None:
                        yield None
                        continue
                    lhs = adj.then(p_eta).then(fwd)
                    yield _residual(lhs, pvm(rep, g.compose(lam, eta), adj.src_key))

    def shift_pullback():
        # (d) t_lam P(Z(eta)) = P((sigma^n)^{-1} Z(eta)) t_lam
        for key in rep.block_keys():
            for lam in edges:
                for eta in g.enumerate_paths(diag):
                    p_eta = pvm(rep, eta, key)
                    fwd = op_forward(rep, lam, key)
                    if p_eta is None or fwd is None:
                        yield None
                        continue
                    zetas = g.enumerate_paths(lam.degree)
                    parts = (
                        pvm(rep, g.compose(zeta, eta), fwd.dst_key)
                        for zeta in zetas
                        if g.s(zeta) == eta.range
                    )
                    yield _residual(fwd.then(_sum(parts)), p_eta.then(fwd))

    return _report([
        ("projection", "cylinders", projection()),
        ("additivity", "cylinders", additivity()),
        ("transport", "edge-segment pairs", transport()),
        ("shift_pullback", "edge-segment pairs", shift_pullback()),
    ], 1e-10)


# ---------------------------------------------------------------------------
# induced measures and the monic probe


def induced_measure(rep, xi=None, block=None):
    """Cylinder measure value(lam) = <xi, P(Z(lam)) xi> on represented depths.

    xi defaults to the constant function 1 on a rep whose basis is a block
    of paths (standard and KP reps): the paths of the block are the base
    cylinders, whose weights the rep gives as numerators with no Path
    built, and CylinderMeasure sums shallower cylinders from them, exactly
    for exact measures.  A given xi sums xi_j^2 over the mask of
    P(Z(lam)).  Either way a path whose degree is not <= block raises
    DepthTooSmall.
    """
    g = rep.graph
    if block is None:
        block = deg_diag(g.k, rep.depth)
    if xi is None and not getattr(rep, "path_basis", False):
        raise NoPathBasis(f"a {rep.kind} rep needs an explicit vector xi")
    squares = None if xi is None else [x * x for x in map(float, xi)]

    def fn(path):
        if not deg_le(path.degree, block):
            raise DepthTooSmall(f"{path} deeper than the represented block")
        if squares is None:
            return rep.weight(path)
        return _dot(rep.pvm_mask(path, block), squares)

    if squares is not None:
        return CylinderMeasure(g, fn, f"induced({rep.kind})", False)

    def block_fn(m):
        if not deg_le(m, block):
            raise DepthTooSmall(f"degree {m} deeper than the represented block")
        return rep._numerators(m)

    return CylinderMeasure(g, fn, f"induced({rep.kind})", rep.exact,
                           lambda d: block if deg_le(d, block) else d, block_fn,
                           counting=rep.counting)


class MonicVectorReport(Record):
    span_dim: int
    block_dim: int
    cyclic: bool


def monic_vector_probe(rep, level, xi=None):
    """Rank of {P(Z(lam)) xi : d(lam) <= level} inside the level block.

    The vectors are M diag(xi), M the 0/1 masks, and diag(xi) is invertible
    on the support of xi, so the rank is exactly that of M on the support
    columns: the pivot count of its row reduction over the rationals.
    """
    if level > rep.depth:
        raise DepthTooSmall(f"monic probe level {level} is above the rep depth {rep.depth}")
    g = rep.graph
    block = deg_diag(g.k, level)
    dim = rep.block_dim(block)
    if xi is None:
        xi = rep.unit_vector(block)
    support = [j for j, x in enumerate(xi) if x != 0]
    masks = {tuple(mask[j] for j in support)
             for n in deg_grid(g.k, level) for lam in g.enumerate_paths(n)
             for mask in [rep.pvm_mask(lam, block)]}
    span = len(_row_reduce(masks)[1]) if support and masks else 0
    return MonicVectorReport(span, dim, span == dim)


class IntervalDiagonalRep:
    """Grid discretization of an interval system: only the diagonal algebra.

    Basis = atoms of the partition that the ranges of range_words(level)
    and a uniform grid generate, so a cyclic-vector deficit shows up
    wherever the ranges stop cutting.  1D systems only.
    """

    discrete = False
    kind = "interval-diagonal"

    def __init__(self, sys, level, resolution=Fraction(1, 16)):
        self.sys = sys
        self.graph = sys.graph
        self.depth = level
        sets = sys.range_words(level)
        space = IntervalUnion()
        for v in sys.graph.vertices:
            space = space.union(sys.domains[v])
        sets += [IntervalUnion.interval(*cell) for cell in grid_cells(space.parts, resolution)]
        self.atoms = partition_atoms(space, sets)
        self._his = [hi for _, hi in self.atoms]

    def block_dim(self, block):
        return len(self.atoms)

    def unit_vector(self, block):
        return [float(hi - lo) ** 0.5 for lo, hi in self.atoms]

    def pvm_mask(self, lam, block):
        # every range of degree <= level generated the atoms: it holds the atoms it meets
        if not deg_le(lam.degree, deg_diag(self.graph.k, self.depth)):
            raise DepthTooSmall(f"d({lam}) = {lam.degree} is beyond level {self.depth}")
        mask = [0.0] * len(self.atoms)
        for j in atoms_meeting(self.atoms, self._his, self.sys.path_range_1d(lam)):
            mask[j] = 1.0
        return mask


# ---------------------------------------------------------------------------
# orbits, atoms, and permutative structure


def orbit_equal(graph, x_prefix, y_prefix, depth):
    """Depth-limited orbit test: some shifted windows of x and y agree.

    The shift pair m = n = 0 is in the grid at every depth, so a window
    exists exactly when both prefixes have degree >= (1,..,1)."""
    g = graph
    ones = deg_diag(g.k, 1)
    for prefix in (x_prefix, y_prefix):
        if not deg_le(ones, prefix.degree):
            raise DepthTooSmall(f"prefix {prefix} has degree {prefix.degree}: orbit windows "
                                f"need each prefix of degree >= {ones}")
    return any(g.segment(x_prefix, m, deg_add(m, w)) == g.segment(y_prefix, n, deg_add(n, w))
               for m, n, w in shift_windows(x_prefix.degree, y_prefix.degree, depth))


def prefix_has_period(graph, prefix, bound=3):
    """True if some pair of shifts <= bound agrees on the prefix windows."""
    g = graph
    return any(
        g.segment(prefix, m, deg_add(m, w)) == g.segment(prefix, n, deg_add(n, w))
        for m, n, w in shift_windows(prefix.degree, prefix.degree, bound)
        if m > n
    )


class Atom(Record):
    prefix: object
    rank: int
    stabilized: bool


class AtomsReport(Record):
    atoms: list
    all_rank_one: bool
    stabilized: bool

    @property
    def monic_consistent(self):
        return self.all_rank_one and self.stabilized


def atoms_report(rep, depth=None):
    """Ranks of the point projections over nested square cylinders.

    The deepest represented discrete basis (the labels that encode to the
    rep's full depth) is grouped by encoded-path prefix at the given
    depth; the fiber size is the rank of P at that atom.  When the
    encoding extends past the truncation (inductive-limit reps) the
    grouping is recomputed one level deeper to confirm the rank has
    stabilized; prefix-label reps are final by construction.
    """
    depth = depth if depth is not None else rep.depth
    k = rep.graph.k
    full = deg_diag(k, rep.depth)
    labels = [lab for lab in rep.labels() if _try_prefix(rep, lab, full) is not None]
    diag = deg_diag(k, depth)
    groups = {}
    for lab in labels:
        p = rep.encoding_prefix(lab, diag)
        groups.setdefault((p.range, p.edges), []).append(lab)
    deeper = {}
    extendable = True
    try:
        diag2 = deg_diag(k, depth + 1)
        for lab in labels:
            p = rep.encoding_prefix(lab, diag2)
            deeper.setdefault((p.range, p.edges), []).append(lab)
    except DepthTooSmall:
        extendable = False
    atoms = []
    for key, labs in sorted(groups.items()):
        if extendable:
            p2 = rep.encoding_prefix(labs[0], deg_diag(k, depth + 1))
            stabilized = len(deeper[(p2.range, p2.edges)]) == len(labs)
        else:
            stabilized = True
        atoms.append(Atom(key, len(labs), stabilized))
    return AtomsReport(
        atoms,
        all(a.rank == 1 for a in atoms),
        all(a.stabilized for a in atoms),
    )


class EncodingTable:
    """Finite truncation of a permutative structure over a discrete rep.

    One pass per nonzero degree n <= max_degree*(1,..,1) stores the label
    images sigma[lam] = {source: image} of each lam in Lambda^n and inverts
    them into the K sets: ksets[n][label] lists the pairs (lam, source)
    with sigma[lam][source] = label, lam in enumeration order and sources
    in label order.
    """

    def __init__(self, rep, max_degree=1):
        if max_degree < 1:  # no degrees would put every label in the core
            raise DepthTooSmall(f"an encoding table needs max_degree >= 1, got {max_degree}")
        g = rep.graph
        self.rep = rep
        self.graph = g
        self.max_degree = max_degree
        self.labels = rep.labels()
        known = set(self.labels)
        self.degrees = [n for n in deg_grid(g.k, max_degree) if deg_total(n)]
        self.sigma, self.ksets = {}, {}
        for n in self.degrees:
            kset = self.ksets[n] = {}
            for lam in g.enumerate_paths(n):
                images = self.sigma[lam] = {}
                for lab in self.labels:
                    out = rep.forward_label(lam, lab)
                    if out in known:
                        images[lab] = out
                        kset.setdefault(out, []).append((lam, lab))
        # core: labels in exactly one K set of each degree
        self.core = [lab for lab in self.labels
                     if all(len(self.memberships(lab, n)) == 1 for n in self.degrees)]

    def memberships(self, label, n):
        """Pairs (lam, source label) with lam in Lambda^n and label in K_lam."""
        return self.ksets.get(n, {}).get(label, [])

    def sigma_of(self, lam, label):
        return self.sigma[lam].get(label)

    def coding(self, label, n):
        """sigma~^n: the unique preimage through the degree-n memberships."""
        hits = self.memberships(label, n)
        return hits[0] if len(hits) == 1 else None


class PermutativeReport(Record):
    ok: bool
    cover_ok: bool
    disjoint_ok: bool
    composition_ok: bool
    intertwine_ok: bool
    witnesses: list
    compositions: int  # core labels compared along sigma_lam o sigma_nu and sigma_{lam nu}
    intertwinings: int  # core labels compared along an edge prefix


def permutative_validate(table):
    """Disjointness, composition, and shift intertwining on the core.

    The report fails on an empty core, and when composition or prefix
    intertwining made no comparison; coding intertwining compares every
    core label at every degree.
    """
    g = table.graph
    witnesses = []

    # disjointness of the K sets per degree (checked on all labels)
    disjoint_ok = True
    for n in table.degrees:
        for out, hits in table.ksets[n].items():
            for (lam, _), (prev, _) in zip(hits[1:], hits):
                if lam != prev:
                    disjoint_ok = False
                    witnesses.append(("disjointness", n, out))

    # cover: some label lies in exactly one K set of each degree
    cover_ok = bool(table.core)
    if not cover_ok:
        witnesses.append(("cover", "empty core"))

    # composition sigma~_lam o sigma~_nu = sigma~_{lam nu}
    composition_ok, compositions = True, 0
    edges = [g.edge_path(e.eid) for e in g.edges]
    for lam in edges:
        for nu in edges:
            if g.s(lam) != nu.range:
                continue
            prod = g.compose(lam, nu)
            if not deg_le(prod.degree, deg_diag(g.k, table.max_degree)):
                continue
            for lab in table.core:
                step1 = table.sigma_of(nu, lab)
                if step1 is None:
                    continue
                step2 = table.sigma_of(lam, step1)
                direct = table.sigma_of(prod, lab)
                if step2 is None or direct is None:
                    continue
                compositions += 1
                if step2 != direct:
                    composition_ok = False
                    witnesses.append(("composition", lab, repr(lam), repr(nu)))
    if not compositions:
        composition_ok = False
        witnesses.append(("composition", "no comparisons"))

    # intertwining of the encoding with prefixing and coding
    intertwine_ok, intertwinings = True, 0
    probe = deg_diag(g.k, max(1, table.max_degree))
    for lab in table.core:
        enc = table.rep.encoding_prefix(lab, probe)
        for lam in edges:
            out = table.sigma_of(lam, lab)
            if out is None:
                continue
            intertwinings += 1
            lhs = g.compose(lam, enc)
            rhs = table.rep.encoding_prefix(out, deg_add(probe, lam.degree))
            if lhs != rhs:
                intertwine_ok = False
                witnesses.append(("intertwine", lab, repr(lam)))
        for n in table.degrees:
            _, src = table.coding(lab, n)
            lhs = g.factorize(enc, n)[1]
            rhs = table.rep.encoding_prefix(src, deg_sub(probe, n))
            if lhs != rhs:
                intertwine_ok = False
                witnesses.append(("coding-intertwine", lab, n))
    if not intertwinings:
        intertwine_ok = False
        witnesses.append(("intertwine", "no comparisons"))

    ok = disjoint_ok and cover_ok and composition_ok and intertwine_ok
    return PermutativeReport(
        ok, cover_ok, disjoint_ok, composition_ok, intertwine_ok, witnesses,
        compositions, intertwinings,
    )


def encoding_map(table, label, n):
    """E(label)(0, n): the unique path whose K set holds the label."""
    hits = table.memberships(label, n)
    if not hits:
        raise CoverViolation(f"{label} missed by every K set at degree {n}")
    if len(hits) > 1:
        raise EncodingConflict(f"{label} in {len(hits)} K sets at degree {n}")
    return hits[0][0]


# ---------------------------------------------------------------------------
# permutative decomposition


class Decomposition(Record):
    summands: list  # lists of labels
    invariant: bool
    spans: bool


def decompose_permutative(rep, omega_prefix, period_bound=2):
    """Split a discrete rep supported on one aperiodic orbit into summands."""
    g = rep.graph
    if prefix_has_period(g, omega_prefix, period_bound):
        raise PeriodicOrbit(f"{omega_prefix} shows a period at bound {period_bound}")
    fiber, known = _omega_fiber(rep, omega_prefix)
    if not fiber:
        raise PeriodicOrbit("no basis labels encode to the given prefix")
    summands = []
    assigned = {}
    for ell, seed in enumerate(fiber):
        members = _generator_orbit(rep, [seed], known)
        summands.append(members)
        for m in members:
            assigned.setdefault(m, set()).add(ell)
    invariant = all(len(v) == 1 for v in assigned.values())
    spans = set(assigned) == known
    return Decomposition(summands, invariant, spans)


def _try_prefix(rep, label, n):
    """The encoded prefix of label at degree n, or None when it is too shallow."""
    try:
        return rep.encoding_prefix(label, n)
    except DepthTooSmall:
        return None


def _omega_fiber(rep, omega_prefix):
    """(labels encoding to the omega prefix, in label order; set of all labels)."""
    labels = rep.labels()
    probe = omega_prefix.degree
    fiber = [lab for lab in labels if _try_prefix(rep, lab, probe) == omega_prefix]
    return fiber, set(labels)


def _generator_orbit(rep, seeds, known):
    """Known labels reached from seeds by the t_e and t_e^*, in discovery order."""
    g = rep.graph
    edges = [g.edge_path(e.eid) for e in g.edges]
    seen = set(seeds)
    frontier = list(seeds)
    members = list(seeds)
    while frontier:
        cur = frontier.pop()
        for lam in edges:
            for nxt in (rep.forward_label(lam, cur), rep.adjoint_label(lam, cur)):
                if nxt in known and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
                    members.append(nxt)
    return members


# ---------------------------------------------------------------------------
# gauge covariance and the non-faithfulness witness


class GaugeReport(Record):
    structural_ok: bool
    max_residual: float


def gauge_covariance(rep):
    """U_z t_lam U_z^* = z^{d(lam)} t_lam on represented blocks.

    The unitary is the scalar z^delta on block delta, so conjugating a
    block map key -> dst by U_z multiplies it by z^(dst - key).  The
    identity holds exactly when every edge's exponent excess
    e = dst - key - d(lam) is 0; otherwise sup_z |z^e - 1| = 2.
    """
    g = rep.graph
    edges = [g.edge_path(e.eid) for e in g.edges]
    structural = all(
        deg_sub(op.dst_key, key) == lam.degree
        for key in rep.block_keys()
        for lam in edges
        if (op := rep.apply_path(lam, key)) is not None
    )
    return GaugeReport(structural, 0.0 if structural else 2.0)


class WitnessReport(Record):
    mu: object
    nu: object
    scale: float
    norm_standard: float
    norm_faithful_on_delta: float
    omega_twist_gap: float  # |1 - rho^{(m-n)/2}|


def _norm(op):
    """The operator 2-norm of op: 0.0 when op is zero, else the power
    iteration x <- A^T A x over its table, from x_j = 1 + frac(j/phi).
    |Ax| / |x| never decreases along the iteration and tends to the largest
    singular value; the iteration stops once a step gains under 1e-15
    relatively, or after 10,000 steps."""
    if op.is_zero():
        return 0.0
    cols = [[(d, float(c)) for d, c in outs.items()] for outs in op.table.values()]
    x = [1.0 + (j * 0.6180339887498949) % 1.0 for j in range(len(cols))]
    best = 0.0
    for _ in range(10_000):
        y = {}
        for outs, xs in zip(cols, x):
            for d, c in outs:
                y[d] = y.get(d, 0.0) + c * xs
        est = (_dot(y.values(), y.values()) / _dot(x, x)) ** 0.5
        if est - best <= 1e-15 * est:
            break
        best = est
        x = [fsum(c * y[d] for d, c in outs) for outs in cols]
    return max(est, best)


def nonfaithful_witness(graph, measure, depth=4):
    """Build b = t_mu t_mu^* - rho^{(m-n)/2} t_nu t_mu^* from a period candidate.

    Returns the truncated standard-representation norm of b (expected 0)
    and the norm of b applied to the base vector of the faithful
    representation (expected >= 1).
    """
    g = graph
    probe = g.periodicity_probe(g.vertices[0], 3)
    if not isinstance(probe, PeriodCandidate):
        raise NoPeriodFound("periodicity probe found no candidate difference")
    pf = pf_data(g)

    chosen = None
    for delta in probe.differences:
        m = tuple(max(d, 0) for d in delta)
        n = tuple(max(-d, 0) for d in delta)
        pair = _find_matching_pair(g, m, n, depth)
        if pair is not None:
            chosen = (m, n, *pair)
            break
    if chosen is None:
        raise NoPeriodFound("no path pair realizes a candidate difference")
    m, n, mu, nu = chosen

    scale = 1.0
    for rho_i, mi, ni in zip(pf.rho, m, n):
        scale *= float(rho_i) ** ((mi - ni) / 2)

    srep = standard_rep(g, measure, depth)
    deep = deg_diag(g.k, depth)
    # source block shifted so that both b-terms embed into the deep block
    shift = tuple(max(nc - mc, 0) for mc, nc in zip(m, n))
    base = deg_sub(deep, shift)
    if any(c < 0 for c in base):
        raise DepthTooSmall("depth too small for the witness element")
    first = _outer(srep, mu, mu, base)
    second = _outer(srep, nu, mu, base)
    if first is None or second is None:
        raise DepthTooSmall("depth too small for the witness element")

    def embedded(op):
        return op.then(srep.refinement(op.dst_key, deep))

    worst = _norm(embedded(first).add(embedded(second).scaled(scale), sign=-1))

    # faithful side, one basis vector at a time: b delta_u lands in the
    # classes of mu.tail and nu.tail, which sit in orthogonal gauge
    # blocks unless d(mu) = d(nu)
    frep = faithful_rep(g, depth=depth + max(m), cap=depth + max(m))
    norm_f = 0.0
    labels = frep.labels()
    known = set(labels)
    for label in labels:
        tail = frep.adjoint_label(mu, label)
        if tail not in known:
            continue
        out_mu = frep.forward_label(mu, tail)
        out_nu = frep.forward_label(nu, tail)
        if out_mu not in known or out_nu not in known:
            continue
        if out_mu == out_nu:
            val = abs(1.0 - scale)
        else:
            val = (1.0 + scale**2) ** 0.5
        norm_f = max(norm_f, val)
    return WitnessReport(mu, nu, scale, worst, norm_f, abs(1.0 - scale))


def _find_matching_pair(g, m, n, depth):
    """Paths mu in Lambda^m, nu in Lambda^n with mu w-window = nu w-window."""
    deep = deg_diag(g.k, depth)
    common = deg_add(tuple(min(a, b) for a, b in zip(m, n)), deep)
    for mu in g.enumerate_paths(m):
        for nu in g.enumerate_paths(n):
            if g.s(mu) != g.s(nu) or mu.range != nu.range:
                continue
            ok = True
            for w in g.enumerate_paths(deep, g.s(mu)):
                head = g.factorize(g.compose(mu, w), common)[0]
                if g.strip_prefix(g.compose(nu, w), head) is None:
                    ok = False
                    break
            if ok:
                return mu, nu
    return None


# ---------------------------------------------------------------------------
# tail-equivalence intertwiner between faithful representations


def tail_equivalence_map(rep_x, rep_y, m, n):
    """The basis bijection [(i, mu)]_x -> [(j, mu lambda_{i,j})]_y when
    sigma^m(x) = sigma^n(y); returns {label_x: label_y} on the overlap."""
    g = rep_x.graph
    mapping = {}
    mmax = max(m)
    for key in rep_x.block_keys():
        for (i, mu) in rep_x.block(key):
            if i < mmax + 1:
                continue
            # smallest j with j*(1,..,1) >= n - m + i*(1,..,1) and >= n
            j = max(max(n), i + max(b - a for a, b in zip(m, n)))
            if j < 1 or j > rep_y.depth:
                continue
            lam = _connector(rep_x, rep_y, i, j, m, n)
            if lam is None or g.s(mu) != lam.range:
                continue
            out = rep_y._reduce(j, g.compose(mu, lam))
            if rep_y.has_label(out):
                mapping[(i, mu.range, mu.edges)] = out
    return mapping


def _connector(rep_x, rep_y, i, j, m, n):
    """lambda_{i,j} = y(n - m + i*(1..1), j*(1..1)) as a path."""
    g = rep_x.graph
    start = tuple(b - a + i for a, b in zip(m, n))
    end = deg_diag(g.k, j)
    if not deg_le(start, end) or min(start) < 0:
        return None
    z = rep_y.rule.prefix(j)
    return g.segment(z, start, end)


class RestrictedRep:
    """A discrete rep cut down to an invariant label subset (e.g. one orbit)."""

    discrete = True

    def __init__(self, rep, allowed):
        self._rep = rep
        self.graph = rep.graph
        self.depth = rep.depth
        self.kind = rep.kind
        self.allowed = set(allowed)

    def labels(self):
        return [lab for lab in self._rep.labels() if lab in self.allowed]

    def encoding_prefix(self, label, n):
        return self._rep.encoding_prefix(label, n)

    def forward_label(self, lam, label):
        return self._restricted(self._rep.forward_label(lam, label))

    def adjoint_label(self, lam, label):
        return self._restricted(self._rep.adjoint_label(lam, label))

    def _restricted(self, out):
        return out if out is ESCAPE or out in self.allowed else None


def orbit_restriction(rep, omega_prefix):
    """Restrict a discrete rep to the generator-orbit of the omega fiber."""
    fiber, known = _omega_fiber(rep, omega_prefix)
    return RestrictedRep(rep, set(_generator_orbit(rep, fiber, known)))
