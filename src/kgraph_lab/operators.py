"""Finite-truncation representations and their mechanical verification.

Operators act between graded basis blocks.  For the standard (cylinder)
representation the blocks are degree levels of the path space; shallow
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
destination block key and a read-only sparse table), or None where the
block action is undefined.  Only ``_Op`` and the reps' table builders
know the table format.  Discrete representations also act on single
basis labels: ``labels()``, ``forward_label(lam, label)``,
``adjoint_label(lam, label)`` and ``encoding_prefix(label, n)``.  A label
action returns the image label, None when there is no image, or ESCAPE
when the image leaves the truncation.

``StandardRep`` (with ``KPRep``), ``FaithfulRep`` and ``DirectSumRep``
build each block operator once per rep, on its first request, and hand
the same ``_Op`` to every later caller; a ``DirectSumRep`` stacks its
parts' operators through ``_Op`` methods.  ``ScaledRep`` builds fresh
operators from its part's operators.

Every standard table reads the run of ``KGraph.index(lam)`` in a
``KGraph.glue`` table, the products lam.eta in the order of eta: t_lam on
block m that of glue(d(lam), m), t_lam^* that of glue(d(lam), (m v d(lam))
- d(lam)) grouped by the heads under cut(m v d(lam), m), P(Z(lam)) that of
glue(d(lam), m - d(lam)); refinement reads every run of glue(m, target -
m).  Weights are read at the same indices from ``CylinderMeasure.values``;
on exact weights the Radon-Nikodym test compares integer cross-products.

The faithful tables name a label (i, mu) by (i, index(mu)): lam.mu is the
entry of mu in the run of lam in glue(d(lam), d(mu)), a rule segment
appended to w one entry of glue(d(w), (1,..,1)), a trailing rule segment
the tail under cut(m, m - (1,..,1)), and lam is a prefix of w when w has
head index(lam) under cut(d(w), d(lam)).  Their label actions, which
compose and factorize paths, are the reference the tables are tested
against.  verify_ck and pvm_additivity compose paths themselves, so each
relation checks the tables against the path algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

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
from .measures import CylinderMeasure, default_prefix_rule, pf_data


# Label-action result for an image outside the truncation; None is "no image".
ESCAPE = object()
_UNBUILT = object()


def _built_once(tables, direction, lam, key, build):
    """build(lam, key), remembered in tables; the shared _Op is read-only."""
    memo = (direction, lam, key)
    op = tables.get(memo, _UNBUILT)
    if op is _UNBUILT:
        op = tables[memo] = build(lam, key)
    return op


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
    reach = 1  # the Radon-Nikodym test reads block depth + 1

    def __init__(self, graph, measure, depth, tol=1e-10):
        self.graph = graph
        self.measure = measure
        self.depth = depth
        self.tol = tol
        graph.check_cap((depth + self.reach) * graph.k, f"{self.kind} rep depth {depth}")
        self._blocks = {m: graph.enumerate_paths(m) for m in deg_grid(graph.k, depth)}
        self._tables, self._integers = {}, {}  # built operators, exact weights as integers
        self._probe_usability()

    def _probe_usability(self):
        """Every edge action must be defined on at least one block whose
        image is represented (a depth-0 truncation has none)."""
        g = self.graph
        for e in g.edges:
            lam = g.edge_path(e.eid)
            blocks = [m for m in self._blocks if deg_add(m, lam.degree) in self._blocks]
            if blocks and all(self.apply_path(lam, m) is None for m in blocks):
                raise UnsupportedMeasure(
                    f"Radon-Nikodym data of edge {e.eid!r} is nonconstant on "
                    "every represented cylinder class"
                )

    # -- basis ------------------------------------------------------------------

    def block_keys(self):
        return list(self._blocks)

    def block(self, m):
        return self._blocks[m]

    def block_dim(self, m):
        return len(self._blocks[m])

    def weight(self, path):
        return self.measure.value(path)

    def _values(self, m):
        """The weights of block(m), in block order."""
        return self.measure.values(m)

    def _nonnull(self, vals, m, i):
        """vals[i], the weight of block(m)[i]; raises ZeroDenominator when it is 0."""
        if vals[i] == 0:
            raise ZeroDenominator(f"Z({self.graph.block(m)[i]}) has measure 0")
        return vals[i]

    def _integer_values(self, m):
        """(numerators, denominators) of the exact weights of block(m)."""
        pair = self._integers.get(m)
        if pair is None:
            ratios = [v.as_integer_ratio() for v in self._values(m)]
            pair = self._integers[m] = [n for n, _ in ratios], [d for _, d in ratios]
        return pair

    def _rn_constant(self, lam, m, rows):
        """Whether Phi_lam is constant on Z(eta), eta = block(m)[i], for each row (i, j):
        its quotient against those on the extensions eta.xi of degree up =
        m + (1,..,1), the run of i in glue(m, (1,..,1))."""
        g, nonnull, diag = self.graph, self._nonnull, deg_diag(self.graph.k, 1)
        up = deg_add(m, diag)
        off, out = g.glue(m, diag)
        # t -> lam.t is forward[shift + t]: every t here has range s(lam)
        lam_off, forward = g.glue(lam.degree, up)
        shift = lam_off[g.index(lam)] - g.run(up, g.s(lam)).start
        degrees = (m, up, deg_add(m, lam.degree), deg_add(up, lam.degree))
        if not self.measure.exact:
            blk, deep, image, deep_image = map(self._values, degrees)
            for i, j in rows:
                base = image[j] / nonnull(blk, m, i)
                for t in out[off[i]:off[i + 1]]:
                    q = deep_image[forward[shift + t]] / nonnull(deep, up, t)
                    if abs(float(q - base)) > self.tol:
                        return False
            return True
        # exact weights: a/b = c/d compared as a*d = c*b, numerators and denominators apart
        (bn, bd), (dn, dd), (imn, imd), (jn, jd) = map(self._integer_values, degrees)
        for i, j in rows:
            num, den = imn[j] * bd[i], imd[j] * nonnull(bn, m, i)
            for t in out[off[i]:off[i + 1]]:
                f = forward[shift + t]
                if jn[f] * dd[t] * den != num * jd[f] * nonnull(dn, up, t):
                    return False
        return True

    # -- operator actions ---------------------------------------------------------

    def apply_path(self, lam, m):
        """Forward action on block m; returns an _Op or None."""
        return _built_once(self._tables, "forward", lam, m, self._forward_table)

    def apply_adjoint(self, lam, m):
        """Adjoint action on block m; returns an _Op or None."""
        return _built_once(self._tables, "adjoint", lam, m, self._adjoint_table)

    def _rows(self, lam, m):
        """(i, j) with block(m)[i] = eta and block(m + d(lam))[j] = lam.eta, for
        each eta with range s(lam): the run of lam in glue(d(lam), m)."""
        g = self.graph
        off, out = g.glue(lam.degree, m)
        a = g.index(lam)
        return list(zip(g.run(m, g.s(lam)), out[off[a]:off[a + 1]]))

    def _forward_table(self, lam, m):
        """u_eta -> u_{lam.eta}: the run of lam in glue(d(lam), m)."""
        dst = deg_add(m, lam.degree)
        if m not in self._blocks or dst not in self._blocks:
            return None
        rows = self._rows(lam, m)
        if not self._rn_constant(lam, m, rows):
            return None  # nonconstant RN data: block not represented
        return _Op(self, {i: {j: 1} for i, j in rows}, m, dst)

    def _adjoint_table(self, lam, m):
        """Adjoint action on block m via minimal common extensions lam.alpha =
        eta.beta: the coefficient of u_alpha in t_lam^* u_eta is sqrt(w(lam.alpha) / w(eta))."""
        g = self.graph
        join = deg_join(m, lam.degree)
        if m not in self._blocks or join not in self._blocks:
            return None
        heads, top, blk = g.cut(join, m)[0], self._values(join), self._values(m)
        table = {}
        rows = self._rows(lam, deg_sub(join, lam.degree))
        for i, alpha, j in sorted((heads[j], alpha, j) for alpha, j in rows):
            ratio = top[j] / self._nonnull(blk, m, i)
            table.setdefault(i, {})[alpha] = 1 if ratio == 1 else float(ratio) ** 0.5
        return _Op(self, table, m, deg_sub(join, lam.degree))

    def refinement(self, m, target):
        """Cylinder refinement: the isometry from block m into block target >= m."""
        deep, blk = self._values(target), self._values(m)
        off, out = self.graph.glue(m, deg_sub(target, m))
        table = {}
        for i in range(len(blk)):
            w_eta = float(self._nonnull(blk, m, i))
            table[i] = {j: (float(deep[j]) / w_eta) ** 0.5 for j in out[off[i]:off[i + 1]]}
        return _Op(self, table, m, target)

    def unit_vector(self, m):
        """Coordinates of the constant function 1 in block m."""
        import numpy as np

        return np.array([float(w) ** 0.5 for w in self._values(m)])

    def pvm_mask(self, lam, m):
        """Diagonal 0/1 mask of P(Z(lam)) on block m (zero unless m >= d(lam))."""
        import numpy as np

        mask = np.zeros(self.block_dim(m))
        if deg_le(lam.degree, m):
            mask[[j for _, j in self._rows(lam, deg_sub(m, lam.degree))]] = 1.0
        return mask

    def encoding_prefix(self, label, n):
        raise NotImplementedError("standard representation has no discrete encoding")


def standard_rep(graph, measure, depth, tol=1e-10):
    return StandardRep(graph, measure, depth, tol=tol)


class KPRep(StandardRep):
    """Counting-measure truncation of the infinite-path representation.

    Every weight is 1, so the Radon-Nikodym data is constant and every
    block action inside the truncation is defined.  Labels are the
    paths of the blocks; a label of degree (depth, .., depth) stands for
    the infinite paths it prefixes.
    """

    kind = "kp"
    discrete = True
    reach = 0  # no Radon-Nikodym test

    def __init__(self, graph, depth):
        super().__init__(graph, None, depth)

    def _probe_usability(self):
        pass  # counting weights: nothing to probe

    def weight(self, path):
        return 1

    def _values(self, m):
        return [1] * len(self.graph.block(m))

    def _rn_constant(self, lam, m, rows):
        return True

    def labels(self):
        return [lab for m in self._blocks for lab in self._blocks[m]]

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

    The tables name a label (i, mu) by (i, index(mu)), read lam.mu off
    ``KGraph.glue`` runs and the last segment of a path and the prefix
    test off ``KGraph.cut``.
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
        self._blocks, self._slots, self._tables = {}, {}, {}
        for i in range(1, depth + 1):
            v_i = g.index(g.vertex_path(rule.segment(i - 1).range))
            for m in deg_grid(g.k, self.cap):
                sources, delta = g.cut(m, m)[1], deg_sub(m, deg_diag(g.k, i))
                for j, mu in enumerate(g.block(m)):
                    if sources[j] == v_i and self._strip(i, m, j) is None:
                        labels = self._blocks.setdefault(delta, [])
                        self._slots.setdefault(delta, {})[(i, j)] = len(labels)
                        labels.append((i, mu))

    def _reduce(self, i, mu):
        g = self.graph
        diag = deg_diag(g.k, 1)
        while i >= 2 and deg_le(diag, mu.degree):
            head, tail = g.factorize(mu, deg_sub(mu.degree, diag))
            if tail != self.rule.segment(i - 2):
                break
            i, mu = i - 1, head
        return (i, mu)

    def _strip(self, i, m, j):
        """For mu = block(m)[j] at stratum i >= 2 ending in the rule segment
        x_{i-1}: the index of mu less that segment.  Otherwise None."""
        if i < 2 or not deg_le(self._diag, m):
            return None
        heads, tails = self.graph.cut(m, deg_sub(m, self._diag))
        return heads[j] if tails[j] == self._segments[(i - 2) % len(self._segments)] else None

    def _reduced(self, i, m, j):
        """_reduce on indices: (stratum, index) of block(m)[j] at stratum i,
        stripped of its trailing rule segments."""
        while (head := self._strip(i, m, j)) is not None:
            i, m, j = i - 1, deg_sub(m, self._diag), head
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
        return list(self._blocks)

    def block(self, delta):
        return self._blocks[delta]

    def block_dim(self, delta):
        return len(self._blocks[delta])

    def weight(self, label):
        return 1

    def label_index(self, delta, label):
        i, mu = label
        return self._slots[delta][(i, self.graph.index(mu))]

    def has_label(self, label):
        """True when label is a basis label (looked up in its own gauge block)."""
        i, mu = label
        slots = self._slots.get(tuple(d - i for d in mu.degree))
        return slots is not None and max(mu.degree) <= self.cap and (
            (i, self.graph.index(mu)) in slots)

    def labels(self):
        return [lab for delta in self._blocks for lab in self._blocks[delta]]

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
        return _built_once(self._tables, "forward", lam, delta, self._forward_table)

    def apply_adjoint(self, lam, delta):
        return _built_once(self._tables, "adjoint", lam, delta, self._adjoint_table)

    def _forward_table(self, lam, delta):
        """t_lam on block delta: (i, mu) goes to (i, lam.mu) reduced, where lam.mu
        is the entry of mu in the run of lam in glue(d(lam), d(mu)).  An image
        outside the truncation leaves the block undefined.  A table whose
        paths pass the enumeration cap is read off the label actions."""
        dst = deg_add(delta, lam.degree)
        if delta not in self._blocks or dst not in self._blocks:
            return None
        g, n = self.graph, lam.degree
        a = g.index(lam)
        slots, strata, table = self._slots[dst], {}, {}
        for (i, j), t in self._slots[delta].items():
            if i not in strata:
                m = deg_add(delta, deg_diag(g.k, i))
                top = deg_add(m, n)
                if self._escapes(i, m, top):
                    images = None
                elif deg_total(top) > g.enum_cap:
                    return self._label_table(self.forward_label, lam, delta, dst)
                else:
                    off, out = g.glue(n, m)
                    images = out[off[a]:off[a + 1]]
                strata[i] = g.run(m, g.s(lam)), top, images
            tails, top, images = strata[i]
            if j not in tails:
                continue  # r(mu) != s(lam): no image
            out = None if images is None else slots.get(self._reduced(i, top, images[j - tails.start]))
            if out is None:
                return None
            table[t] = {out: 1}
        return _Op(self, table, delta, dst)

    def _adjoint_table(self, lam, delta):
        """t_lam^* on block delta: (j, w) is extended by rule segments until
        d(lam) <= d(w), then goes to (j, tail) reduced when w has head
        index(lam) and that tail under cut(d(w), d(lam)).

        Once block dst exists, neither step leaves the truncation: after
        s > 0 segments some coordinate of dst is -(j + s), so block dst holds
        labels only at strata >= j + s.  Hence j + s <= depth, and the tail,
        of degree dst + (j + s)*(1,..,1), is within the cap, as is every
        reduction of it.  A table whose paths pass the enumeration cap is
        read off the label actions.
        """
        dst = deg_sub(delta, lam.degree)
        if delta not in self._blocks or dst not in self._blocks:
            return None
        g, n = self.graph, lam.degree
        a, slots, strata, table = g.index(lam), self._slots[dst], {}, {}
        for (j, w), t in self._slots[delta].items():
            if j not in strata:
                steps, i, top = self._extension(j, deg_add(delta, deg_diag(g.k, j)), n)
                if deg_total(top) > g.enum_cap:
                    return self._label_table(self.adjoint_label, lam, delta, dst)
                # w.x_{j-1} is out[off[w] + offset] in glue(d(w), (1,..,1))
                steps = [(*g.glue(low, self._diag), offset) for low, offset in steps]
                strata[j] = steps, i, deg_sub(top, n), g.cut(top, n)
            steps, i, rest, (heads, tails) = strata[j]
            for off, out, offset in steps:
                w = out[off[w] + offset]
            if heads[w] != a:
                continue  # lam is no prefix of w: no image
            table[t] = {slots[self._reduced(i, rest, tails[w])]: 1}
        return _Op(self, table, delta, dst)

    def _label_table(self, action, lam, delta, dst):
        """The table read off a label action, one label at a time: the route
        for a table whose paths pass the enumeration cap, where the graph
        builds no block to index them."""
        table = {}
        for t, label in enumerate(self._blocks[delta]):
            out = action(lam, label)
            if out is ESCAPE:
                return None
            if out is not None:
                table[t] = {self.label_index(dst, out): 1}
        return _Op(self, table, delta, dst)

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
        out = []
        for c, p in enumerate(self.parts):
            if key in self._keys[c]:
                out.extend((c, lab) for lab in p.block(key))
        return out

    def block_dim(self, key):
        return len(self.block(key))

    def weight(self, label):
        return 1

    def _offsets(self, key):
        offs = []
        total = 0
        for c, p in enumerate(self.parts):
            offs.append(total)
            if key in self._keys[c]:
                total += p.block_dim(key)
        return offs

    def _stacked(self, action, lam, key):
        """The parts' operators p.action(lam, key), moved to their offsets and summed."""
        offs = self._offsets(key)
        ops = ((c, getattr(p, action)(lam, key))
               for c, p in enumerate(self.parts) if key in self._keys[c])
        return _sum(
            None if op is None else op.moved(self, offs[c], self._offsets(op.dst_key)[c])
            for c, op in ops
        )

    def apply_path(self, lam, key):
        return _built_once(self._tables, "forward", lam, key, partial(self._stacked, "apply_path"))

    def apply_adjoint(self, lam, key):
        return _built_once(
            self._tables, "adjoint", lam, key, partial(self._stacked, "apply_adjoint")
        )

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
    """Block operator src_key -> dst_key of rep, table {src index: {dst index: coef}}.

    Only this class and the reps' table builders read or build tables; a
    table is never changed after construction.
    """

    def __init__(self, rep, table, src_key, dst_key):
        self.rep = rep
        self.table = table
        self.src_key = src_key
        self.dst_key = dst_key

    def scaled(self, factor):
        table = {s: {d: c * factor for d, c in outs.items()} for s, outs in self.table.items()}
        return _Op(self.rep, table, self.src_key, self.dst_key)

    def moved(self, rep, src_offset, dst_offset):
        """The same operator as a block operator of rep, its indices offset."""
        table = {
            src_offset + s: {dst_offset + d: c for d, c in outs.items()}
            for s, outs in self.table.items()
        }
        return _Op(rep, table, self.src_key, self.dst_key)

    def transpose(self):
        table = {}
        for s, outs in self.table.items():
            for d, c in outs.items():
                table.setdefault(d, {})[s] = c
        return _Op(self.rep, table, self.dst_key, self.src_key)

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
        return _Op(self.rep, table, self.src_key, other.dst_key)

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
        return _Op(self.rep, table, self.src_key, self.dst_key)

    def residual_vs(self, other):
        return self.add(other, sign=-1).max_abs()

    def max_abs(self):
        """Largest absolute coefficient; 0.0 for the zero operator."""
        coefs = (abs(float(c)) for outs in self.table.values() for c in outs.values())
        return max(coefs, default=0.0)

    def matrix(self):
        import numpy as np

        rows = self.rep.block_dim(self.dst_key)
        cols = self.rep.block_dim(self.src_key)
        mat = np.zeros((rows, cols))
        for s, outs in self.table.items():
            for d, c in outs.items():
                mat[d, s] = float(c)
        return mat

    def is_zero(self):
        return all(c == 0 for outs in self.table.values() for c in outs.values())


# The relation checks reach block actions only through these two module
# names, so that one patch of the module traces or counts every call.
def op_forward(rep, lam, key):
    return rep.apply_path(lam, key)


def op_adjoint(rep, lam, key):
    return rep.apply_adjoint(lam, key)


# ---------------------------------------------------------------------------
# Cuntz-Krieger relation verification


@dataclass
class RelationCheck:
    relation: str
    witness: str
    residual: float
    blocks_checked: int


@dataclass
class CKReport:
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
        return {
            "ok": self.ok,
            "max_residual": self.max_residual,
            "checks": [
                {
                    "relation": c.relation,
                    "blocks_checked": c.blocks_checked,
                    "residual": c.residual,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }


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

    relations = [
        ("CK1", "vertex projections", ck1()),
        ("CK2", "edge pairs", ck2()),
        ("CK3", "edges", ck3()),
        ("CK4", "full levels", ck4()),
        ("CK4-min", "edge pairs", ck4_min()),
    ]
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


@dataclass
class PVMReport:
    ok: bool
    max_residual: float
    details: dict


def pvm_additivity(rep, depth=1, tol=1e-10):
    """Projection axioms, additivity, and the transport identities.

    Each identity is a stream of per-block residuals, counted as in
    verify_ck; as there, an identity checked on no block fails the report.
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

    details = {}
    for name, identity in (
        ("projection", projection),
        ("additivity", additivity),
        ("transport", transport),
        ("shift_pullback", shift_pullback),
    ):
        res, count = _tally(identity())
        details[name] = {"residual": res, "checked": count}
    worst = max(d["residual"] for d in details.values())
    checked = all(d["checked"] > 0 for d in details.values())
    return PVMReport(checked and worst <= tol, worst, details)


# ---------------------------------------------------------------------------
# induced measures and the monic probe


def induced_measure(rep, xi=None, block=None):
    """Cylinder measure value(lam) = <xi, P(Z(lam)) xi> on represented depths.

    xi defaults to the constant function 1 on a rep whose basis is a block
    of paths (standard and KP reps): the paths of the block are the base
    cylinders with their weights, and CylinderMeasure sums shallower
    cylinders from them, exactly for exact measures.
    """
    g = rep.graph
    if block is None:
        block = deg_diag(g.k, rep.depth)

    if xi is None:
        if not getattr(rep, "path_basis", False):
            raise NoPathBasis(f"a {rep.kind} rep needs an explicit vector xi")

        def fn(path):
            if path.degree != block:
                raise DepthTooSmall(f"{path} deeper than the represented block")
            return rep.weight(path)

        tag, exact = f"induced({rep.kind})", rep.measure.exact if rep.measure else True
        return CylinderMeasure(g, fn, tag, exact, lambda d: block if deg_le(d, block) else d)

    import numpy as np

    xi_vec = np.asarray(xi, dtype=float)

    def fn(path):
        mask = rep.pvm_mask(path, block)
        return float(np.dot(xi_vec * mask, xi_vec))

    return CylinderMeasure(g, fn, f"induced({rep.kind})", False)


@dataclass
class MonicVectorReport:
    span_dim: int
    block_dim: int
    cyclic: bool


def monic_vector_probe(rep, level, xi=None, tol=1e-9):
    """Rank of {P(Z(lam)) xi : d(lam) <= level} inside the level block."""
    import numpy as np

    g = rep.graph
    block = deg_diag(g.k, level)
    dim = rep.block_dim(block)
    if xi is None:
        xi = rep.unit_vector(block)
    vectors = []
    for n in deg_grid(g.k, level):
        for lam in g.enumerate_paths(n):
            vectors.append(rep.pvm_mask(lam, block) * xi)
    mat = np.array(vectors)
    span = int(np.linalg.matrix_rank(mat, tol=tol)) if mat.size else 0
    return MonicVectorReport(span, dim, span == dim)


class IntervalDiagonalRep:
    """Grid discretization of an interval system: only the diagonal algebra.

    Basis = atoms of the range partition refined by a uniform grid, so a
    cyclic-vector deficit shows up wherever the ranges stop cutting.
    """

    discrete = False
    kind = "interval-diagonal"

    def __init__(self, sys, level, resolution=Fraction(1, 16)):
        self.sys = sys
        self.graph = sys.graph
        self.depth = level
        g = sys.graph
        space = IntervalUnion()
        for v in g.vertices:
            space = space.union(sys.domains[v])
        self._ranges = sys.path_ranges(level)
        sets = list(self._ranges.values())
        sets += [IntervalUnion.interval(*cell) for cell in grid_cells(space.parts, resolution)]
        self.atoms = partition_atoms(space, sets)
        self._his = [hi for _, hi in self.atoms]

    def block_dim(self, block):
        return len(self.atoms)

    def unit_vector(self, block):
        import numpy as np

        return np.array([float(hi - lo) ** 0.5 for lo, hi in self.atoms])

    def pvm_mask(self, lam, block):
        # every range generated the atoms, so it holds exactly the atoms it meets
        import numpy as np

        rng = self._ranges[lam]
        mask = np.zeros(len(self.atoms))
        mask[atoms_meeting(self.atoms, self._his, rng)] = 1.0
        return mask


# ---------------------------------------------------------------------------
# orbits, atoms, and permutative structure


def orbit_equal(graph, x_prefix, y_prefix, depth):
    """Depth-limited orbit test: some shifted windows of x and y agree."""
    g = graph
    found_comparable = False
    for m, n, w in shift_windows(x_prefix.degree, y_prefix.degree, depth):
        found_comparable = True
        if g.segment(x_prefix, m, deg_add(m, w)) == g.segment(y_prefix, n, deg_add(n, w)):
            return True
    if not found_comparable:
        raise DepthTooSmall("no comparable shift windows at this depth")
    return False


def prefix_has_period(graph, prefix, bound=3):
    """True if some pair of shifts <= bound agrees on the prefix windows."""
    g = graph
    return any(
        g.segment(prefix, m, deg_add(m, w)) == g.segment(prefix, n, deg_add(n, w))
        for m, n, w in shift_windows(prefix.degree, prefix.degree, bound)
        if m > n
    )


@dataclass
class Atom:
    prefix: object
    rank: int
    stabilized: bool


@dataclass
class AtomsReport:
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
    """Finite truncation of a permutative structure over a discrete rep."""

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
            if deg_total(n) == 0:
                continue
            for lam in g.enumerate_paths(n):
                table = {}
                for lab in labels:
                    out = rep.forward_label(lam, lab)
                    if out in known:
                        table[lab] = out
                self.sigma[(lam.range, lam.edges)] = table
                self.paths[(lam.range, lam.edges)] = lam
        # core: labels whose coding stays represented for all degrees
        self.core = []
        for lab in labels:
            ok = True
            for n in deg_grid(g.k, max_degree):
                if deg_total(n) == 0:
                    continue
                hits = self.memberships(lab, n)
                if len(hits) != 1:
                    ok = False
                    break
            if ok:
                self.core.append(lab)

    def memberships(self, label, n):
        """Pairs (lam, source label) with lam in Lambda^n and label in K_lam."""
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
        """sigma~^n: the unique preimage through the degree-n memberships."""
        hits = self.memberships(label, n)
        return hits[0] if len(hits) == 1 else None


@dataclass
class PermutativeReport:
    ok: bool
    cover_ok: bool
    disjoint_ok: bool
    composition_ok: bool
    intertwine_ok: bool
    witnesses: list


def permutative_validate(table):
    """Covering, disjointness, composition, and shift intertwining."""
    g = table.graph
    witnesses = []

    # disjointness of the K sets per degree (checked on all labels)
    disjoint_ok = True
    for n in deg_grid(g.k, table.max_degree):
        if deg_total(n) == 0:
            continue
        seen = {}
        for key, tab in table.sigma.items():
            lam = table.paths[key]
            if lam.degree != n:
                continue
            for out in tab.values():
                if out in seen and seen[out] != key:
                    disjoint_ok = False
                    witnesses.append(("disjointness", n, out))
                seen[out] = key

    # cover: every core label lies in exactly one K_lam and some J_lam
    cover_ok = True
    for lab in table.core:
        for n in deg_grid(g.k, table.max_degree):
            if deg_total(n) == 0:
                continue
            if len(table.memberships(lab, n)) != 1:
                cover_ok = False
                witnesses.append(("cover", n, lab))

    # composition sigma~_lam o sigma~_nu = sigma~_{lam nu}
    composition_ok = True
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
                if step2 != direct:
                    composition_ok = False
                    witnesses.append(("composition", lab, repr(lam), repr(nu)))

    # intertwining of the encoding with prefixing and coding
    intertwine_ok = True
    probe = deg_diag(g.k, max(1, table.max_degree))
    for lab in table.core:
        enc = table.rep.encoding_prefix(lab, probe)
        for lam in edges:
            out = table.sigma_of(lam, lab)
            if out is None:
                continue
            lhs = g.compose(lam, enc)
            rhs = table.rep.encoding_prefix(out, deg_add(probe, lam.degree))
            if lhs != rhs:
                intertwine_ok = False
                witnesses.append(("intertwine", lab, repr(lam)))
        for n in deg_grid(g.k, table.max_degree):
            if deg_total(n) == 0 or not deg_le(n, probe):
                continue
            coded = table.coding(lab, n)
            if coded is None:
                continue
            _, src = coded
            lhs = g.factorize(enc, n)[1]
            rhs = table.rep.encoding_prefix(src, deg_sub(probe, n))
            if lhs != rhs:
                intertwine_ok = False
                witnesses.append(("coding-intertwine", lab, n))

    ok = disjoint_ok and cover_ok and composition_ok and intertwine_ok
    return PermutativeReport(
        ok, cover_ok, disjoint_ok, composition_ok, intertwine_ok, witnesses
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


@dataclass
class Decomposition:
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


@dataclass
class GaugeReport:
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


@dataclass
class WitnessReport:
    mu: object
    nu: object
    scale: float
    norm_standard: float
    norm_faithful_on_delta: float
    omega_twist_gap: float  # |1 - rho^{(m-n)/2}|


def nonfaithful_witness(graph, measure, depth=4, probe_depth=3):
    """Build b = t_mu t_mu^* - rho^{(m-n)/2} t_nu t_mu^* from a period candidate.

    Returns the truncated standard-representation norm of b (expected 0)
    and the norm of b applied to the base vector of the faithful
    representation (expected >= 1).
    """
    g = graph
    probe = g.periodicity_probe(g.vertices[0], probe_depth)
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
        return op.then(srep.refinement(op.dst_key, deep)).matrix()

    import numpy as np

    diff = embedded(first) - scale * embedded(second)
    worst = float(np.linalg.norm(diff, 2)) if diff.size else 0.0

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


def op_coordinate_text(op):
    """Coordinate-list text (row, col, value) of one block operator."""
    lines = [f"# block {op.src_key} -> {op.dst_key}"]
    for src_i in sorted(op.table):
        for dst_i, coef in sorted(op.table[src_i].items()):
            lines.append(f"{dst_i}\t{src_i}\t{float(coef):.17g}")
    return "\n".join(lines) + "\n"
