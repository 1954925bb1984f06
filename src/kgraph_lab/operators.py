"""Finite-truncation representations and their mechanical verification.

Operators act between graded basis blocks.  For the standard (cylinder)
representation the blocks are degree levels of the path space; shallow
blocks embed into deeper ones by cylinder refinement, so the deepest
block carries the honest L^2 geometry.  For the inductive-limit faithful
representation the blocks are gauge-weight classes of a discrete basis
with counting measure.  Relations are asserted only on blocks where both
sides are defined; residuals of defined relations are reported exactly
(0/1 coefficients stay integers end to end).

Every representation exposes its basis through ``block_keys()`` and
``block(key)`` and acts by ``apply_path(lam, key)`` and
``apply_adjoint(lam, key)``, which return ``(table, dst_key)`` with
``table = {src index: {dst index: coef}}``, or None where the block
action is undefined.  Discrete representations also act on single basis
labels: ``labels()``, ``forward_label(lam, label)``,
``adjoint_label(lam, label)`` and ``encoding_prefix(label, n)``.  A label
action returns the image label, None when there is no image, or ESCAPE
when the image leaves the truncation.

``StandardRep`` (with ``KPRep``) and ``FaithfulRep`` build each block
table once per rep, on its first request, and hand the same table to
every later caller, so block tables are read-only.  ``ScaledRep`` and
``DirectSumRep`` build fresh tables on top of their parts' tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CoverViolation,
    DepthTooSmall,
    EncodingConflict,
    NoPeriodFound,
    NotStronglyConnected,
    PeriodicOrbit,
    UnsupportedMeasure,
)
from .kgraph import (
    PeriodCandidate,
    deg_add,
    deg_diag,
    deg_join,
    deg_le,
    deg_sub,
    deg_total,
)
from .measures import CylinderMeasure, default_prefix_rule, pf_data


def _grid(k, depth):
    return list(itertools.product(range(depth + 1), repeat=k))


# Label-action result for an image outside the truncation; None is "no image".
ESCAPE = object()


def _built_once(tables, direction, lam, key, build):
    """build(lam, key), remembered in tables; the shared result is read-only."""
    memo = (direction, lam.range, lam.edges, key)
    if memo not in tables:
        tables[memo] = build(lam, key)
    return tables[memo]


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

    def __init__(self, graph, measure, depth, tol=1e-10):
        self.graph = graph
        self.measure = measure
        self.depth = depth
        self.tol = tol
        self._blocks = {}
        for m in _grid(graph.k, depth):
            if deg_total(m) > graph.enum_cap:
                continue
            self._blocks[m] = graph.enumerate_paths(m)
        self._index = {
            m: {(p.range, p.edges): i for i, p in enumerate(paths)}
            for m, paths in self._blocks.items()
        }
        self._tables = {}
        self._probe_usability()

    def _probe_usability(self):
        """Every edge action must be defined on at least one block."""
        g = self.graph
        for e in g.edges:
            lam = g.edge_path(e.eid)
            if not any(self.apply_path(lam, m) is not None for m in self._blocks):
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

    def label_index(self, m, path):
        return self._index[m][(path.range, path.edges)]

    # -- Radon-Nikodym constancy ---------------------------------------------------

    def _constant_quotient(self, lam, eta):
        """Phi_lam restricted to Z(eta) if constant, else None."""
        g = self.graph
        base = self.measure.value(g.compose(lam, eta)) / self.measure.value(eta)
        for ext in g.enumerate_paths(deg_diag(g.k, 1), g.s(eta)):
            deeper = g.compose(eta, ext)
            q = self.measure.value(g.compose(lam, deeper)) / self.measure.value(deeper)
            if self.measure.exact:
                if q != base:
                    return None
            elif abs(float(q - base)) > self.tol:
                return None
        return base

    # -- operator actions ---------------------------------------------------------

    def apply_path(self, lam, m):
        """Forward action on block m; returns (table, dst_key) or None."""
        return _built_once(self._tables, "forward", lam, m, self._forward_table)

    def apply_adjoint(self, lam, m):
        """Adjoint action on block m; returns (table, dst_key) or None."""
        return _built_once(self._tables, "adjoint", lam, m, self._adjoint_table)

    def _forward_table(self, lam, m):
        g = self.graph
        dst = deg_add(m, lam.degree)
        if m not in self._blocks or dst not in self._blocks:
            return None
        table = {}
        for i, eta in enumerate(self._blocks[m]):
            if g.s(lam) != eta.range:
                continue
            if self._constant_quotient(lam, eta) is None:
                return None  # nonconstant RN data: block not represented
            out = g.compose(lam, eta)
            table[i] = {self.label_index(dst, out): 1}
        return table, dst

    def _adjoint_table(self, lam, m):
        """Adjoint action on block m via minimal common extensions.

        The coefficient of u_alpha in t_lam^* u_eta is
        sqrt(w(lam.alpha) / w(eta)).
        """
        g = self.graph
        dst = deg_sub(deg_join(m, lam.degree), lam.degree)
        if (
            m not in self._blocks
            or dst not in self._blocks
            or deg_join(m, lam.degree) not in self._blocks
        ):
            return None
        table = {}
        for i, eta in enumerate(self._blocks[m]):
            outs = {}
            for alpha, _beta in g.lambda_min(lam, eta):
                ratio = self.weight(g.compose(lam, alpha)) / self.weight(eta)
                coef = 1 if ratio == 1 else float(ratio) ** 0.5
                outs[self.label_index(dst, alpha)] = coef
            if outs:
                table[i] = outs
        return table, dst

    def embed(self, vec, m, target):
        """Refine a block-m coefficient vector into block target >= m."""
        g = self.graph
        if m == target:
            return vec
        out = np.zeros(self.block_dim(target))
        gap = deg_sub(target, m)
        for i, eta in enumerate(self._blocks[m]):
            if vec[i] == 0:
                continue
            w_eta = float(self.weight(eta))
            for ext in g.enumerate_paths(gap, g.s(eta)):
                deeper = g.compose(eta, ext)
                coef = (float(self.weight(deeper)) / w_eta) ** 0.5
                out[self.label_index(target, deeper)] += vec[i] * coef
        return out

    def unit_vector(self, m):
        """Coordinates of the constant function 1 in block m."""
        return np.array([float(self.weight(p)) ** 0.5 for p in self._blocks[m]])

    def pvm_mask(self, lam, m):
        """Diagonal 0/1 mask of P(Z(lam)) on block m (m >= d(lam))."""
        g = self.graph
        mask = np.zeros(self.block_dim(m))
        for i, eta in enumerate(self._blocks[m]):
            if g.strip_prefix(eta, lam) is not None:
                mask[i] = 1.0
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

    def __init__(self, graph, depth):
        super().__init__(graph, None, depth)

    def _probe_usability(self):
        pass  # counting weights: nothing to probe

    def weight(self, path):
        return 1

    def _constant_quotient(self, lam, eta):
        return 1

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


def kp_style_rep(graph, depth):
    """Counting-measure truncation of the infinite-path representation."""
    return KPRep(graph, depth)


# ---------------------------------------------------------------------------
# faithful inductive-limit representation


class FaithfulRep:
    """Discrete basis [(stratum i, path with source v_i)] with counting weights.

    Blocks are gauge-weight classes delta = d(path) - i*(1,..,1); the
    gauge unitary acts on block delta as the scalar z^delta, so gauge
    covariance is structural.
    """

    kind = "faithful"
    discrete = True

    def __init__(self, graph, rule, depth, cap=None):
        self.graph = graph
        self.rule = rule
        self.depth = depth
        self.cap = cap if cap is not None else depth
        self._blocks = {}
        self._tables = {}
        g = graph
        cap_deg = deg_diag(g.k, self.cap)
        all_paths = []
        for m in _grid(g.k, self.cap):
            if deg_total(m) > g.enum_cap:
                continue
            all_paths.extend(g.enumerate_paths(m))
        for i in range(1, depth + 1):
            v_i = rule.segment(i - 1).range
            for mu in all_paths:
                if g.s(mu) != v_i or self._reduce(i, mu)[0] != i:
                    continue
                delta = deg_sub(mu.degree, deg_diag(g.k, i))
                self._blocks.setdefault(delta, []).append((i, mu))
        self._index = {
            delta: {self._label_key(lab): t for t, lab in enumerate(labels)}
            for delta, labels in self._blocks.items()
        }

    @staticmethod
    def _label_key(label):
        i, mu = label
        return (i, mu.range, mu.edges)

    def _reduce(self, i, mu):
        g = self.graph
        diag = deg_diag(g.k, 1)
        while i >= 2 and deg_le(diag, mu.degree):
            head, tail = g.factorize(mu, deg_sub(mu.degree, diag))
            if tail != self.rule.segment(i - 2):
                break
            i, mu = i - 1, head
        return (i, mu)

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
        return self._index[delta][self._label_key(label)]

    def has_label(self, label):
        """True when label is a basis label (looked up in its own gauge block)."""
        i, mu = label
        delta = tuple(d - i for d in mu.degree)
        return delta in self._index and self._label_key(label) in self._index[delta]

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

    def _label_table(self, action, lam, delta, dst):
        # a label action keeps the gauge shift, so every image lies in block dst
        if delta not in self._blocks or dst not in self._blocks:
            return None
        table = {}
        for t, label in enumerate(self._blocks[delta]):
            out = action(lam, label)
            if out is ESCAPE:
                return None  # escapes the truncation: whole block undefined
            if out is not None:
                table[t] = {self.label_index(dst, out): 1}
        return table, dst

    def apply_path(self, lam, delta):
        return _built_once(self._tables, "forward", lam, delta, self._forward_table)

    def apply_adjoint(self, lam, delta):
        return _built_once(self._tables, "adjoint", lam, delta, self._adjoint_table)

    def _forward_table(self, lam, delta):
        dst = deg_add(delta, lam.degree)
        return self._label_table(self.forward_label, lam, delta, dst)

    def _adjoint_table(self, lam, delta):
        dst = deg_sub(delta, lam.degree)
        return self._label_table(self.adjoint_label, lam, delta, dst)

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

    def block_keys(self):
        keys = set()
        for p in self.parts:
            keys |= set(p.block_keys())
        return sorted(keys)

    def block(self, key):
        out = []
        for c, p in enumerate(self.parts):
            if key in p.block_keys():
                out.extend((c, lab) for lab in p.block(key))
        return out

    def block_dim(self, key):
        return len(self.block(key))

    def weight(self, label):
        return 1

    def _offsets(self, key):
        offs = []
        total = 0
        for p in self.parts:
            offs.append(total)
            if key in p.block_keys():
                total += p.block_dim(key)
        return offs

    def _stacked(self, action, key):
        """Stack the parts' block tables for action(part, key) at the offsets."""
        offs_src = self._offsets(key)
        table = {}
        dst = None
        for c, p in enumerate(self.parts):
            if key not in p.block_keys():
                continue
            res = action(p, key)
            if res is None:
                return None
            part_table, dst = res
            off = self._offsets(dst)[c]
            for src, outs in part_table.items():
                table[offs_src[c] + src] = {off + d: coef for d, coef in outs.items()}
        return (table, dst) if dst is not None else None

    def apply_path(self, lam, key):
        return self._stacked(lambda p, k: p.apply_path(lam, k), key)

    def apply_adjoint(self, lam, key):
        return self._stacked(lambda p, k: p.apply_adjoint(lam, k), key)

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
    """Composable block operator: {src: {dst: coef}} plus key bookkeeping."""

    def __init__(self, rep, table, src_key, dst_key):
        self.rep = rep
        self.table = table
        self.src_key = src_key
        self.dst_key = dst_key

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
        if other is None:
            return 0.0
        diff = self.add(other, sign=-1)
        worst = 0.0
        for outs in diff.table.values():
            for c in outs.values():
                worst = max(worst, abs(float(c)))
        return worst

    def matrix(self):
        rows = self.rep.block_dim(self.dst_key)
        cols = self.rep.block_dim(self.src_key)
        mat = np.zeros((rows, cols))
        for s, outs in self.table.items():
            for d, c in outs.items():
                mat[d, s] = float(c)
        return mat

    def is_zero(self):
        return all(c == 0 for outs in self.table.values() for c in outs.values())


def op_forward(rep, lam, key):
    res = rep.apply_path(lam, key)
    return None if res is None else _Op(rep, res[0], key, res[1])


def op_adjoint(rep, lam, key):
    res = rep.apply_adjoint(lam, key)
    return None if res is None else _Op(rep, res[0], key, res[1])


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

    def _scaled(self, lam, res):
        """Scale a block table of lam by factor^(occurrences of the edge)."""
        if res is None:
            return None
        table, dst = res
        sc = self.factor ** lam.edges.count(self.edge_id)
        scaled = {s: {d: c * sc for d, c in outs.items()} for s, outs in table.items()}
        return scaled, dst

    def apply_path(self, lam, key):
        return self._scaled(lam, self._rep.apply_path(lam, key))

    def apply_adjoint(self, lam, key):
        return self._scaled(lam, self._rep.apply_adjoint(lam, key))


def verify_ck(rep, max_level=2, tol=1e-10):
    """Check (CK1)-(CK4) and the minimal-extension identity blockwise."""
    g = rep.graph
    checks = []
    edges = [g.edge_path(e.eid) for e in g.edges]
    vertices = [g.vertex_path(v) for v in g.vertices]

    def record(relation, witness, residual, blocks):
        checks.append(RelationCheck(relation, witness, float(residual), blocks))

    # CK1: vertex projections, mutually orthogonal, self-adjoint
    worst, blocks = 0.0, 0
    for key in rep.block_keys():
        for v in vertices:
            tv = op_forward(rep, v, key)
            if tv is None:
                continue
            blocks += 1
            worst = max(worst, tv.then(tv).residual_vs(tv))
            adjv = op_adjoint(rep, v, key)
            if adjv is not None:
                worst = max(worst, tv.residual_vs(adjv))
            for w in vertices:
                if w == v:
                    continue
                tw = op_forward(rep, w, key)
                if tw is not None and not tv.then(tw).is_zero():
                    worst = max(worst, 1.0)
    record("CK1", "vertex projections", worst, blocks)

    # CK2: composing generator actions agrees with the composite path
    worst, blocks = 0.0, 0
    pool = edges + vertices
    for lam in pool:
        for eta in pool:
            if g.s(lam) != eta.range:
                continue
            prod = g.compose(lam, eta)
            for key in rep.block_keys():
                t_eta = op_forward(rep, eta, key)
                if t_eta is None:
                    continue
                t_lam = op_forward(rep, lam, t_eta.dst_key)
                t_prod = op_forward(rep, prod, key)
                if t_lam is None or t_prod is None:
                    continue
                blocks += 1
                worst = max(worst, t_eta.then(t_lam).residual_vs(t_prod))
    record("CK2", "edge pairs", worst, blocks)

    # CK3: t_lam^* t_lam = t_{s(lam)}
    worst, blocks = 0.0, 0
    for lam in edges:
        sv = g.vertex_path(g.s(lam))
        for key in rep.block_keys():
            t_lam = op_forward(rep, lam, key)
            if t_lam is None:
                continue
            adj = op_adjoint(rep, lam, t_lam.dst_key)
            t_s = op_forward(rep, sv, key)
            if adj is None or t_s is None:
                continue
            blocks += 1
            worst = max(worst, t_lam.then(adj).residual_vs(t_s))
    record("CK3", "edges", worst, blocks)

    # CK4: sum over v Lambda^n of t t^* equals t_v
    worst, blocks = 0.0, 0
    degrees = [tuple(1 if i == c else 0 for i in range(g.k)) for c in range(g.k)]
    degrees.append(deg_diag(g.k, 1))
    if max_level >= 2:
        degrees.append(deg_diag(g.k, 2))
    for n in degrees:
        for v in g.vertices:
            lams = g.enumerate_paths(n, v)
            tv_path = g.vertex_path(v)
            for key in rep.block_keys():
                if not rep.discrete and not deg_le(n, key):
                    continue  # both sides block-preserving only past level n
                total = None
                ok = True
                for lam in lams:
                    adj = op_adjoint(rep, lam, key)
                    if adj is None:
                        ok = False
                        break
                    fwd = op_forward(rep, lam, adj.dst_key)
                    if fwd is None:
                        ok = False
                        break
                    term = adj.then(fwd)
                    total = term if total is None else total.add(term)
                tv = op_forward(rep, tv_path, key)
                if not ok or total is None or tv is None:
                    continue
                if (total.src_key, total.dst_key) != (tv.src_key, tv.dst_key):
                    continue
                blocks += 1
                worst = max(worst, total.residual_vs(tv))
    record("CK4", "full levels", worst, blocks)

    # minimal-extension identity: t_lam^* t_eta = sum t_alpha t_beta^*
    worst, blocks = 0.0, 0
    for lam in edges:
        for eta in edges:
            if lam.range != eta.range:
                continue
            pairs = g.lambda_min(lam, eta)
            for key in rep.block_keys():
                t_eta = op_forward(rep, eta, key)
                if t_eta is None:
                    continue
                adj_lam = op_adjoint(rep, lam, t_eta.dst_key)
                if adj_lam is None:
                    continue
                lhs = t_eta.then(adj_lam)
                rhs = None
                ok = True
                for alpha, beta in pairs:
                    adj_b = op_adjoint(rep, beta, key)
                    if adj_b is None:
                        ok = False
                        break
                    fwd_a = op_forward(rep, alpha, adj_b.dst_key)
                    if fwd_a is None:
                        ok = False
                        break
                    term = adj_b.then(fwd_a)
                    rhs = term if rhs is None else rhs.add(term)
                if not ok:
                    continue
                if rhs is None:
                    blocks += 1
                    worst = max(
                        worst,
                        max(
                            (abs(float(c)) for o in lhs.table.values() for c in o.values()),
                            default=0.0,
                        ),
                    )
                    continue
                if (lhs.src_key, lhs.dst_key) != (rhs.src_key, rhs.dst_key):
                    continue
                blocks += 1
                worst = max(worst, lhs.residual_vs(rhs))
    record("CK4-min", "edge pairs", worst, blocks)

    max_res = max(c.residual for c in checks)
    # a relation checked on no block has not been verified
    checked = all(c.blocks_checked > 0 for c in checks)
    return CKReport(checked and max_res <= tol, max_res, checks)


# ---------------------------------------------------------------------------
# projection-valued measure


def pvm(rep, lam, key):
    """P(Z(lam)) = t_lam t_lam^* on the given block, or None."""
    adj = op_adjoint(rep, lam, key)
    if adj is None:
        return None
    fwd = op_forward(rep, lam, adj.dst_key)
    if fwd is None or fwd.dst_key != key:
        return None
    return adj.then(fwd)


@dataclass
class PVMReport:
    ok: bool
    max_residual: float
    details: dict


def pvm_additivity(rep, depth=1, tol=1e-10):
    """Projection axioms, additivity, and the transport identities."""
    g = rep.graph
    details = {}
    worst = 0.0

    # P(Z(lam)) idempotent and self-adjoint
    res, count = 0.0, 0
    for key in rep.block_keys():
        for n in _grid(g.k, depth):
            for lam in g.enumerate_paths(n):
                p = pvm(rep, lam, key)
                if p is None:
                    continue
                count += 1
                res = max(res, p.then(p).residual_vs(p))
                res = max(res, _self_adjoint_residual(p))
    details["projection"] = {"residual": res, "checked": count}
    worst = max(worst, res)

    # additivity P(Z(lam)) = sum over extensions
    res, count = 0.0, 0
    diag = deg_diag(g.k, 1)
    for key in rep.block_keys():
        for n in _grid(g.k, depth):
            for lam in g.enumerate_paths(n):
                p = pvm(rep, lam, key)
                if p is None:
                    continue
                total, ok = None, True
                for eta in g.enumerate_paths(diag, g.s(lam)):
                    q = pvm(rep, g.compose(lam, eta), key)
                    if q is None:
                        ok = False
                        break
                    total = q if total is None else total.add(q)
                if not ok or total is None:
                    continue
                count += 1
                res = max(res, p.residual_vs(total))
    details["additivity"] = {"residual": res, "checked": count}
    worst = max(worst, res)

    # (a) t_lam P(Z(eta)) t_lam^* = P(Z(lam eta))
    res, count = 0.0, 0
    for key in rep.block_keys():
        for lam in [g.edge_path(e.eid) for e in g.edges]:
            for eta in g.enumerate_paths(diag, g.s(lam)):
                p_eta = pvm(rep, eta, key)
                if p_eta is None:
                    continue
                adj = op_adjoint(rep, lam, deg_add(key, lam.degree))
                if adj is None or adj.dst_key != key:
                    continue
                fwd = op_forward(rep, lam, key)
                if fwd is None:
                    continue
                lhs = adj.then(p_eta).then(fwd)
                rhs = pvm(rep, g.compose(lam, eta), adj.src_key)
                if rhs is None:
                    continue
                count += 1
                res = max(res, lhs.residual_vs(rhs))
    details["transport"] = {"residual": res, "checked": count}
    worst = max(worst, res)

    # (d) t_lam P(Z(eta)) = P((sigma^n)^{-1} Z(eta)) t_lam
    res, count = 0.0, 0
    for key in rep.block_keys():
        for lam in [g.edge_path(e.eid) for e in g.edges]:
            n = lam.degree
            for eta in g.enumerate_paths(diag):
                p_eta = pvm(rep, eta, key)
                fwd = op_forward(rep, lam, key)
                if p_eta is None or fwd is None:
                    continue
                lhs = p_eta.then(fwd)
                rhs_total, ok = None, True
                for zeta in g.enumerate_paths(n):
                    if g.s(zeta) != eta.range:
                        continue
                    q = pvm(rep, g.compose(zeta, eta), fwd.dst_key)
                    if q is None:
                        ok = False
                        break
                    rhs_total = q if rhs_total is None else rhs_total.add(q)
                if not ok or rhs_total is None:
                    continue
                count += 1
                res = max(res, fwd.then(rhs_total).residual_vs(lhs))
    details["shift_pullback"] = {"residual": res, "checked": count}
    worst = max(worst, res)

    return PVMReport(worst <= tol, worst, details)


def _self_adjoint_residual(p):
    mat = p.matrix()
    return float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0


# ---------------------------------------------------------------------------
# induced measures and the monic probe


def induced_measure(rep, xi=None, block=None):
    """Cylinder measure value(lam) = <xi, P(Z(lam)) xi> on represented depths.

    xi defaults to the constant function 1 (standard reps).  The result
    is exact for exact measures since the diagonal projection masks pair
    the square roots back into plain weights.
    """
    g = rep.graph
    if block is None:
        block = deg_diag(g.k, rep.depth)

    if xi is None and not rep.discrete:

        def fn(path):
            if not deg_le(path.degree, block):
                raise DepthTooSmall(f"{path} deeper than the represented block")
            total = 0 if rep.measure is None or not rep.measure.exact else Fraction(0)
            for eta in rep.block(block):
                if g.strip_prefix(eta, path) is not None:
                    total += rep.weight(eta)
            return total

        return CylinderMeasure(
            g, fn, f"induced({rep.kind})", rep.measure.exact if rep.measure else True
        )

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
    g = rep.graph
    block = deg_diag(g.k, level)
    dim = rep.block_dim(block)
    if xi is None:
        xi = rep.unit_vector(block)
    vectors = []
    for n in _grid(g.k, level):
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
        from .intervals import IntervalUnion, partition_atoms

        self.sys = sys
        self.graph = sys.graph
        self.depth = level
        g = sys.graph
        space = IntervalUnion()
        for v in g.vertices:
            space = space.union(sys.domains[v])
        sets = [sys.domains[v] for v in g.vertices]
        for n in _grid(g.k, level):
            if deg_total(n) == 0:
                continue
            for lam in g.enumerate_paths(n):
                sets.append(sys.path_range_1d(lam))
        grid = []
        for lo, hi in space.parts:
            steps = int((hi - lo) / resolution) + 1
            grid.extend(
                [
                    IntervalUnion.interval(
                        lo + t * resolution, min(hi, lo + (t + 1) * resolution)
                    )
                    for t in range(steps)
                ]
            )
        sets.extend(grid)
        self.atoms = partition_atoms(space, sets)
        self._his = [hi for _, hi in self.atoms]
        self._ranges = {}
        for n in _grid(g.k, level):
            for lam in g.enumerate_paths(n):
                self._ranges[(lam.range, lam.edges)] = sys.path_range_1d(lam)

    def block_dim(self, block):
        return len(self.atoms)

    def unit_vector(self, block):
        return np.array([float(hi - lo) ** 0.5 for lo, hi in self.atoms])

    def pvm_mask(self, lam, block):
        from .intervals import atoms_meeting

        # every range generated the atoms, so it holds exactly the atoms it meets
        rng = self._ranges[(lam.range, lam.edges)]
        mask = np.zeros(len(self.atoms))
        mask[atoms_meeting(self.atoms, self._his, rng)] = 1.0
        return mask


def interval_diagonal_rep(sys, level, resolution=Fraction(1, 16)):
    return IntervalDiagonalRep(sys, level, resolution)


# ---------------------------------------------------------------------------
# orbits, atoms, and permutative structure


def orbit_equal(graph, x_prefix, y_prefix, depth):
    """Depth-limited orbit test: some shifted windows of x and y agree."""
    g = graph
    found_comparable = False
    grid = _grid(g.k, depth)
    for m in grid:
        if not deg_le(m, x_prefix.degree):
            continue
        for n in grid:
            if not deg_le(n, y_prefix.degree):
                continue
            wx = deg_sub(x_prefix.degree, m)
            wy = deg_sub(y_prefix.degree, n)
            w = tuple(min(a, b) for a, b in zip(wx, wy))
            if not all(c >= 1 for c in w):
                continue
            found_comparable = True
            seg_x = g.segment(x_prefix, m, deg_add(m, w))
            seg_y = g.segment(y_prefix, n, deg_add(n, w))
            if seg_x == seg_y:
                return True
    if not found_comparable:
        raise DepthTooSmall("no comparable shift windows at this depth")
    return False


def prefix_has_period(graph, prefix, bound=3):
    """True if some pair of shifts <= bound agrees on the prefix windows."""
    g = graph
    grid = _grid(g.k, bound)
    for m in grid:
        for n in grid:
            if m <= n:
                continue
            w = deg_sub(prefix.degree, deg_join(m, n))
            if not all(c >= 1 for c in w):
                continue
            if g.segment(prefix, m, deg_add(m, w)) == g.segment(
                prefix, n, deg_add(n, w)
            ):
                return True
    return False


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

    def __init__(self, rep, max_degree=1, core_margin=None):
        g = rep.graph
        self.rep = rep
        self.graph = g
        self.max_degree = max_degree
        self.sigma = {}  # path key -> {label: label}
        self.paths = {}
        labels = rep.labels()
        known = set(labels)
        self.labels = labels
        for n in _grid(g.k, max_degree):
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
            for n in _grid(g.k, max_degree):
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
    for n in _grid(g.k, table.max_degree):
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
        for n in _grid(g.k, table.max_degree):
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
        for n in _grid(g.k, table.max_degree):
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


def corrupt_table(table, n):
    """Fault injection: alias two images so K sets of equal degree collide."""
    keys = [k for k, lam in table.paths.items() if lam.degree == n]
    if len(keys) < 2:
        raise ValueError("need two paths of the chosen degree")
    t0 = table.sigma[keys[0]]
    t1 = table.sigma[keys[1]]
    src = next(iter(t0))
    dst = next(iter(t1.values()))
    t0[src] = dst
    return table


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
    sampled: int


def gauge_covariance(rep, samples=20, seed=1):
    """U_z t_lam U_z^* = z^{d(lam)} t_lam on represented blocks.

    The unitary is the scalar z^delta on block delta, so the covariance
    is an exponent identity; the sampled residual evaluates it at points
    of the torus and is exactly zero when the exponents match.
    """
    g = rep.graph
    rng = np.random.default_rng(seed)
    zs = np.exp(2j * np.pi * rng.random((samples, g.k)))
    worst = 0.0
    structural = True
    for key in rep.block_keys():
        for e in g.edges:
            lam = g.edge_path(e.eid)
            res = rep.apply_path(lam, key)
            if res is None:
                continue
            mapping, dst = res
            # conjugating by U_z multiplies the block map by z^(dst - key);
            # the exponent excess over d(lam) is an exact integer vector
            excess = deg_sub(deg_sub(dst, key), lam.degree)
            if any(excess):
                structural = False
            for z in zs:
                worst = max(worst, abs(np.prod(z ** np.array(excess)) - 1.0))
    return GaugeReport(structural, float(worst), samples)


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
    adj = op_adjoint(srep, mu, base)
    t_mu = op_forward(srep, mu, adj.dst_key) if adj else None
    t_nu = op_forward(srep, nu, adj.dst_key) if adj else None
    if adj is None or t_mu is None or t_nu is None:
        raise DepthTooSmall("depth too small for the witness element")
    first = adj.then(t_mu)
    second = adj.then(t_nu)

    def embedded_matrix(op):
        mat = np.zeros((srep.block_dim(deep), srep.block_dim(base)))
        for src, outs in op.table.items():
            for dst, coef in outs.items():
                vec = np.zeros(srep.block_dim(op.dst_key))
                vec[dst] = float(coef)
                mat[:, src] += srep.embed(vec, op.dst_key, deep)
        return mat

    diff = embedded_matrix(first) - scale * embedded_matrix(second)
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
