"""Finite k-graphs presented as colored skeletons with commuting squares.

A k-graph is stored as a colored directed multigraph together with one
commuting square per composable bi-colored edge pair.  Paths are kept in a
color-sorted canonical form (all color-1 edges first, then color-2, ...);
two paths are equal iff their canonical edge lists agree.  The path
algebra is one tagged insertion pass: each edge in turn moves left past
the higher-tagged edges before it, one square swap at a time, and the tags
move with the colors.  Tag = color gives the canonical form; tag = (piece,
color) splits a path at a chain of degrees, which is every factorization,
segment p(m, n) and prefix test.  By unique factorization every swap
sequence that ends sorted ends at the same edge list.

Paths of one degree m form a block, Lambda^m, numbered in enumeration
order and built once per graph: Lambda^m is Lambda^{m - e_c} (c the highest
color of m) with each color-c edge at the source appended, since a
canonical path less its last edge is canonical.  Unique factorization on
blocks is one table per pair of degrees: glue(n, r) lists, head by head
of Lambda^n, the indices in Lambda^{n + r} of the head times each tail of
Lambda^r, built by square lookups and run expansion alone.  Its inverse
cut(m, n) names the head and tail of every path of Lambda^m, and is built
only where a path's head or tail is read.

Minimal common extensions follow from unique factorization as well: when
d(p) <= d(q), p and q have a common extension iff q factors as p.rho, and
then (rho, s(q)) is the only one; the mirror case is the same.  Only
degree-incomparable pairs search the extensions of p.

Conventions
-----------
* An edge e is a morphism from ``e.source`` to ``e.range`` (arrow head at
  the range).  Paths are read range-to-source: in ``p = e1 e2 ... en`` the
  edge ``e1`` touches the range and ``s(e_t) = r(e_{t+1})``.
* A square pairs a (lower color, higher color) path with the equal
  (higher, lower) path:  ``left = (a, b)`` with ``color(a) < color(b)``
  and ``right = (c, d)`` with ``color(c) > color(d)``, as morphisms
  ``a.b = c.d``.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass

from .errors import (
    CubeConditionFailed,
    DanglingEndpoint,
    DegreeCapExceeded,
    DegreeOutOfRange,
    DepthTooSmall,
    InvalidPermutation,
    InvalidSquare,
    NotComposable,
    SourceVertex,
    SquareNotBijective,
)

# ---------------------------------------------------------------------------
# degree vectors (tuples of nonnegative ints)


def deg_zero(k):
    return (0,) * k


def deg_unit(k, color):
    """Standard basis vector for a 1-based color index."""
    return tuple(1 if c == color else 0 for c in range(1, k + 1))


def deg_add(m, n):
    return tuple(a + b for a, b in zip(m, n))


def deg_sub(m, n):
    return tuple(a - b for a, b in zip(m, n))


def deg_le(m, n):
    return all(a <= b for a, b in zip(m, n))


def deg_join(m, n):
    return tuple(max(a, b) for a, b in zip(m, n))


def deg_total(m):
    return sum(m)


def deg_diag(k, n):
    return (n,) * k


def deg_grid(k, depth):
    """Every degree <= depth*(1,..,1), in lexicographic order."""
    return list(itertools.product(range(depth + 1), repeat=k))


def shift_windows(dx, dy, bound):
    """Shift pairs (m, n, w) with m, n <= bound*(1,..,1), in deg_grid order,
    whose common window w = min(dx - m, dy - n) is >= (1,..,1)."""
    grid = deg_grid(len(dx), bound)
    for m in grid:
        for n in grid:
            w = tuple(min(a - i, b - j) for a, i, b, j in zip(dx, m, dy, n))
            if min(w) >= 1:
                yield m, n, w


# ---------------------------------------------------------------------------
# skeleton data


@dataclass(frozen=True)
class Edge:
    eid: str
    color: int  # 1-based
    source: str
    range: str

    def __repr__(self):
        return f"Edge({self.eid})"


@dataclass(frozen=True)
class Square:
    """a.b = c.d with color(a) < color(b), color(c) = color(b), color(d) = color(a)."""

    left: tuple  # (a_id, b_id)
    right: tuple  # (c_id, d_id)


@dataclass(frozen=True, slots=True)
class Path:
    """A morphism in color-sorted canonical form.

    ``edges`` is a tuple of edge ids; ``range`` disambiguates degree-0
    paths (vertices).  Construct via KGraph.path / KGraph.vertex_path so
    the canonical form is guaranteed.
    """

    range: str
    edges: tuple
    degree: tuple

    @property
    def is_vertex(self):
        return not self.edges

    def __repr__(self):
        if self.is_vertex:
            return f"Path<{self.range}>"
        return "Path<" + ".".join(self.edges) + ">"


class KGraph:
    """Validated finite k-graph. Immutable after construction."""

    def __init__(self, k, vertices, edges, squares, enum_cap=24, name=""):
        self.k = k
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.squares = list(squares)
        self.enum_cap = enum_cap
        self.name = name
        self.edge_by_id = {e.eid: e for e in self.edges}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        # edges grouped by (range, color), declaration order
        self._by_range = {}
        for e in self.edges:
            self._by_range.setdefault((e.range, e.color), []).append(e)
        # square lookup tables keyed by edge-id pairs
        self._left_to_right = {}
        self._right_to_left = {}
        for sq in self.squares:
            self._left_to_right[sq.left] = sq.right
            self._right_to_left[sq.right] = sq.left
        # position of each edge among edges_from(range, color)
        self._pos = {e.eid: i for run in self._by_range.values() for i, e in enumerate(run)}
        self._source = {e.eid: e.source for e in self.edges}
        self._blocks = {}
        self._glues = {}
        self._cuts = {}

    # -- basic accessors ----------------------------------------------------

    def vertex_path(self, v):
        if v not in self._vertex_index:
            raise KeyError(v)
        return Path(v, (), deg_zero(self.k))

    def edge_path(self, eid):
        e = self.edge_by_id[eid]
        return Path(e.range, (eid,), deg_unit(self.k, e.color))

    def path(self, edge_ids):
        """Build a path from a composable edge-id sequence (any color order)."""
        ids = tuple(edge_ids)
        if not ids:
            raise ValueError("use vertex_path for degree-0 paths")
        for a, b in zip(ids, ids[1:]):
            if self.edge_by_id[a].source != self.edge_by_id[b].range:
                raise NotComposable(f"{a} . {b}")
        canon = self._canonicalize(ids)
        deg = [0] * self.k
        for eid in canon:
            deg[self.edge_by_id[eid].color - 1] += 1
        return Path(self.edge_by_id[canon[0]].range, canon, tuple(deg))

    def s(self, p):
        if p.is_vertex:
            return p.range
        return self.edge_by_id[p.edges[-1]].source

    def edges_from(self, v, color):
        """Edges with range v of the given color, in declaration order."""
        return self._by_range.get((v, color), [])

    # -- canonical form -----------------------------------------------------

    def _swap_pair(self, a_id, b_id):
        """Rewrite the adjacent pair a.b through the square table."""
        ca = self.edge_by_id[a_id].color
        cb = self.edge_by_id[b_id].color
        if ca < cb:
            return self._left_to_right[(a_id, b_id)]
        if ca > cb:
            return self._right_to_left[(a_id, b_id)]
        raise ValueError("cannot swap a same-color pair")

    def _canonicalize(self, ids):
        """Color-sorted form: the tagged insertion pass with tag = color."""
        edge = self.edge_by_id
        return self._sort_tagged(ids, [edge[eid].color for eid in ids])

    def _sort_tagged(self, ids, tags):
        """Sort an edge word by tag in one insertion pass of square swaps.

        A swap a.b = c.d gives c the color of b and d that of a, so the tags
        move with the colors; tags must not decrease along any one color.
        The list tags is sorted in place.
        """
        out = list(ids)
        for i in range(1, len(out)):
            t = i
            while t and tags[t - 1] > tags[t]:
                out[t - 1], out[t] = self._swap_pair(out[t - 1], out[t])
                tags[t - 1], tags[t] = tags[t], tags[t - 1]
                t -= 1
        return tuple(out)

    # -- composition and factorization ---------------------------------------

    def compose(self, p, q):
        """Canonical form of pq; requires s(p) = r(q)."""
        if self.s(p) != q.range:
            raise NotComposable(f"s({p}) = {self.s(p)} != r({q}) = {q.range}")
        if p.is_vertex:
            return q
        if q.is_vertex:
            return p
        canon = self._canonicalize(p.edges + q.edges)
        return Path(p.range, canon, deg_add(p.degree, q.degree))

    def split(self, p, degrees):
        """Pieces p = p_0 p_1 ... p_r with d(p_0 ... p_i) = degrees[i].

        degrees is an ascending chain inside d(p).  The j-th color-c edge of
        p goes to the piece numbered by the cuts m with m_c <= j; after the
        sort by (piece, color), unique factorization makes the pieces the
        factors of p.
        """
        k = self.k
        chain = [deg_zero(k), *degrees, p.degree]
        sizes = [deg_sub(b, a) for a, b in zip(chain, chain[1:])]
        if min(map(min, sizes)) < 0:
            raise DegreeOutOfRange(f"cuts {degrees} not ascending within 0..{p.degree}")
        # canonical p lists its edges color by color, each color in rank order
        tags = []
        for c in range(k):
            for i, n in enumerate(sizes):
                tags += [i * k + c + 1] * n[c]
        ids = self._sort_tagged(p.edges, tags)
        pieces = []
        v, start = p.range, 0
        for n in sizes:
            end = start + deg_total(n)
            pieces.append(Path(v, ids[start:end], n))
            v, start = self.s(pieces[-1]), end
        return pieces

    def factorize(self, p, m):
        """Unique (head, tail) with p = head.tail and d(head) = m."""
        return tuple(self.split(p, [m]))

    def segment(self, p, m, n):
        """p(m, n) = the factor of p between degrees m and n."""
        return self.split(p, [m, n])[1]

    def strip_prefix(self, p, lam):
        """The tail t with p = lam.t, or None when lam is not a prefix of p."""
        if p.range != lam.range or not deg_le(lam.degree, p.degree):
            return None
        head, tail = self.factorize(p, lam.degree)
        return tail if head == lam else None

    # -- enumeration ----------------------------------------------------------

    def check_cap(self, total, what):
        """Raise DegreeCapExceeded, naming `what`, when total exceeds enum_cap."""
        if total > self.enum_cap:
            raise DegreeCapExceeded(
                f"{what} needs paths of total degree {total}, "
                f"above the enumeration cap {self.enum_cap}"
            )

    def enumerate_paths(self, n, v=None):
        """block(n), or its run of paths with range the vertex v."""
        blk = self.block(n)
        if v is None:
            return blk
        run = self.run(n, v)
        return blk[run.start:run.stop]

    # -- path blocks ------------------------------------------------------------

    def _top(self, m):
        """The highest color c with m_c > 0, or 0 for m = 0."""
        return max((c for c, n in enumerate(m, start=1) if n), default=0)

    def block(self, m):
        """The canonical paths of degree m, numbered 0..n-1.

        Grouped by range in vertex order, then lexicographic in the
        declaration order of edges_from at each step.  Built from
        block(m - e_c), c the highest color of m, by appending each
        color-c edge at the source.
        """
        blk = self._blocks.get(m)
        if blk is None:
            if deg_total(m) > self.enum_cap:
                raise DegreeCapExceeded(f"|{m}| exceeds cap {self.enum_cap}")
            c = self._top(m)
            if not c:
                blk = [Path(v, (), m) for v in self.vertices]
            else:
                prev = deg_sub(m, deg_unit(self.k, c))
                by_range = self._by_range
                blk = [
                    Path(lam.range, lam.edges + (e.eid,), m)
                    for lam, v in zip(self.block(prev), self._ends(prev))
                    for e in by_range.get((v, c), ())
                ]
            self._blocks[m] = blk
        return blk

    def _ends(self, m):
        """The sources of the paths of block(m), in order."""
        if not any(m):
            return self.vertices
        source = self._source
        return [source[lam.edges[-1]] for lam in self.block(m)]

    def glue(self, n, r):
        """(off, out): out[off[a]:off[a+1]] are the indices in block(n + r) of
        block(n)[a] . t, for each t of block(r) with range s(a), in block(r) order.

        By unique factorization every path of degree n + r is one such
        product.  The tails of a run are run(r, s(a)), so one entry is
        out[off[a] + t - run(r, s(a)).start].  r = 0 is the identity.
        r = e_c lists the one-edge extensions: lam.e is appended when c is
        at least the highest color h of n, otherwise lam = lam'.f with
        color(f) = h and lam'f.e = (lam'.e').f' through the square
        f.e = e'.f', one lookup in glue(n - e_h, e_c) per entry.  Any other
        r, c its highest color, expands each entry of glue(n, r - e_c)
        into its run of glue(n + r - e_c, e_c).  The identity tables of
        r = 0 and of appends are ranges.
        """
        key = (n, r)
        table = self._glues.get(key)
        if table is not None:
            return table
        k, c = self.k, self._top(r)
        if not c:
            size = len(self.block(n))
            table = range(size + 1), range(size)
        elif deg_total(r) > 1:
            prev = deg_sub(r, deg_unit(k, c))
            off, out = self.glue(n, prev)
            step_off, step_out = self.glue(deg_add(n, prev), deg_unit(k, c))
            runs, flat = array("l", [0]), array("l")
            for x in out:
                flat.extend(step_out[step_off[x]:step_off[x + 1]])
                runs.append(len(flat))
            table = array("l", [runs[x] for x in off]), flat
        else:
            count = {v: len(self.edges_from(v, c)) for v in self.vertices}
            off = array("l", [0])
            for v in self._ends(n):
                off.append(off[-1] + count[v])
            h = self._top(n)
            if h <= c:
                out = range(off[-1])
            else:
                prev = deg_sub(n, deg_unit(k, h))
                inner_off, inner = self.glue(prev, r)  # lam' -> lam'.e' in block(prev + e_c)
                outer_off = self.glue(deg_add(prev, r), deg_unit(k, h))[0]
                own_off = self.glue(prev, deg_unit(k, h))[0]  # lam' -> lam'.f in block(n)
                blk = self.block(n)
                pos, source, swap, by_range = self._pos, self._source, self._right_to_left, self._by_range
                out = array("l")
                for i in range(len(own_off) - 1):
                    base = inner_off[i]
                    for lam in blk[own_off[i]:own_off[i + 1]]:
                        f = lam.edges[-1]
                        for e in by_range.get((source[f], c), ()):
                            e2, f2 = swap[(f, e.eid)]
                            out.append(outer_off[inner[base + pos[e2]]] + pos[f2])
            table = off, out
        self._glues[key] = table
        return table

    def run(self, r, v):
        """The indices in block(r) of the paths with range v: glue(0, r) at v."""
        first, i = self.glue(deg_zero(self.k), r)[0], self._vertex_index[v]
        return range(first[i], first[i + 1])

    def cut(self, m, n):
        """(heads, tails) with block(m)[j] = block(n)[heads[j]] . block(m - n)[tails[j]].

        One scatter pass inverts glue(n, m - n), kept once per (m, n).
        """
        key = (m, n)
        pair = self._cuts.get(key)
        if pair is None:
            r = deg_sub(m, n)
            if min(r, default=0) < 0:
                raise DegreeOutOfRange(f"cut {n} not within 0..{m}")
            off, out = self.glue(n, r)
            first, vertex = self.glue(deg_zero(self.k), r)[0], self._vertex_index
            heads, tails = array("l", [0]) * len(out), array("l", [0]) * len(out)
            for a, v in enumerate(self._ends(n)):
                shift = first[vertex[v]] - off[a]
                for x in range(off[a], off[a + 1]):
                    heads[out[x]], tails[out[x]] = a, shift + x
            pair = self._cuts[key] = heads, tails
        return pair

    def index(self, p):
        """The position of p in block(d(p)): canonical p is its vertex with
        each edge appended in turn, at the edge's offset in its run of
        glue(m, e_c)."""
        i, m = self._vertex_index[p.range], deg_zero(self.k)
        for eid in p.edges:
            unit = deg_unit(self.k, self.edge_by_id[eid].color)
            i = self.glue(m, unit)[0][i] + self._pos[eid]
            m = deg_add(m, unit)
        return i

    def extensions(self, p, c):
        """The canonical paths p.e for e in edges_from(s(p), c), in that order.

        e moves left past the edges of p above color c, one square lookup
        per edge: lam'f.e = (lam'.e').f'.
        """
        cut = len(p.edges) - sum(p.degree[c:])
        head, tail = p.edges[:cut], p.edges[cut:][::-1]
        deg = deg_add(p.degree, deg_unit(self.k, c))
        swap = self._right_to_left
        out = []
        for e in self.edges_from(self.s(p), c):
            cur, moved = e.eid, []
            for f in tail:
                cur, f2 = swap[(f, cur)]
                moved.append(f2)
            out.append(Path(p.range, head + (cur, *moved[::-1]), deg))
        return out

    def lambda_min(self, p, q):
        """Minimal common extensions: pairs (rho, xi) with p.rho = q.xi.

        Degree-comparable pairs take one factorization of the longer path;
        incomparable pairs factorize every extension of p at d(q).
        """
        if p.range != q.range:
            return []
        if deg_le(p.degree, q.degree):
            rho = self.strip_prefix(q, p)
            return [] if rho is None else [(rho, self.vertex_path(self.s(q)))]
        if deg_le(q.degree, p.degree):
            xi = self.strip_prefix(p, q)
            return [] if xi is None else [(self.vertex_path(self.s(p)), xi)]
        j = deg_join(p.degree, q.degree)
        out = []
        for rho in self.enumerate_paths(deg_sub(j, p.degree), self.s(p)):
            xi = self.strip_prefix(self.compose(p, rho), q)
            if xi is not None:
                out.append((rho, xi))
        return out

    # -- vertex matrices ------------------------------------------------------

    def vertex_matrices(self):
        """Integer matrices A_i with A_i[v][w] = #(edges of color i from w to v)."""
        mats = []
        nv = len(self.vertices)
        for color in range(1, self.k + 1):
            mat = [[0] * nv for _ in range(nv)]
            for e in self.edges:
                if e.color == color:
                    mat[self._vertex_index[e.range]][self._vertex_index[e.source]] += 1
            mats.append(mat)
        return mats

    def is_strongly_connected(self):
        nv = len(self.vertices)
        reach = [[False] * nv for _ in range(nv)]
        for e in self.edges:
            reach[self._vertex_index[e.range]][self._vertex_index[e.source]] = True
        for i in range(nv):
            reach[i][i] = True
        for m in range(nv):
            for i in range(nv):
                if reach[i][m]:
                    row_m = reach[m]
                    row_i = reach[i]
                    for j in range(nv):
                        if row_m[j]:
                            row_i[j] = True
        return all(all(row) for row in reach)

    # -- periodicity probe ----------------------------------------------------

    def periodicity_probe(self, v, depth):
        """Finite-depth shift-separation probe at vertex v.

        Compares sigma^m and sigma^n on all degree-(depth,...,depth)
        prefixes for every pair m != n whose common window is nonempty.
        Returns an AperiodicWitness, a PeriodCandidate (differences m - n
        that coincide on every prefix), or Inconclusive.
        """
        dd = deg_diag(self.k, depth)
        pairs = [(m, n, w) for m, n, w in shift_windows(dd, dd, depth) if m > n]
        if not pairs:
            raise DepthTooSmall(f"depth {depth} separates no shift pair")
        prefixes = self.enumerate_paths(dd, v)
        agree = {}  # (m, n) -> True if windows agree on all prefixes so far
        for m, n, w in pairs:
            agree[(m, n)] = True
        full_witness = None
        for p in prefixes:
            all_differ = True
            for m, n, w in pairs:
                wm = self.segment(p, m, deg_add(m, w))
                wn = self.segment(p, n, deg_add(n, w))
                if wm == wn:
                    all_differ = False
                else:
                    agree[(m, n)] = False
            if all_differ and full_witness is None:
                full_witness = p
        diffs = {}
        for (m, n), still in agree.items():
            if still:
                diffs.setdefault(deg_sub(m, n), []).append((m, n))
        # a difference is a candidate only if every pair realizing it agreed
        candidates = sorted(
            d
            for d, realized in diffs.items()
            if all(agree[(m, n)] for (m, n) in realized)
        )
        if candidates:
            return PeriodCandidate(tuple(candidates))
        if full_witness is not None:
            return AperiodicWitness(full_witness, dd)
        return Inconclusive()


@dataclass(frozen=True)
class AperiodicWitness:
    prefix: Path
    checked_up_to: tuple


@dataclass(frozen=True)
class PeriodCandidate:
    differences: tuple  # all m - n that agree on every enumerated prefix


@dataclass(frozen=True)
class Inconclusive:
    pass


# ---------------------------------------------------------------------------
# validation


def validate_kgraph(k, vertices, edges, squares, enum_cap=24, name=""):
    """Check the skeleton + squares present a k-graph; return the KGraph.

    Verifies endpoints, the per-color-pair square bijection, the cube
    condition when k >= 3, and source-freeness.
    """
    vertices = list(vertices)
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise InvalidSquare(None, "duplicate vertex ids")
    edge_by_id = {}
    for e in edges:
        if e.eid in edge_by_id:
            raise InvalidSquare(None, f"duplicate edge id {e.eid!r}")
        if not 1 <= e.color <= k:
            raise InvalidSquare(None, f"edge {e.eid!r} color {e.color} outside 1..{k}")
        if e.source not in vset:
            raise DanglingEndpoint(e.eid, e.source)
        if e.range not in vset:
            raise DanglingEndpoint(e.eid, e.range)
        edge_by_id[e.eid] = e

    # squares: shape and endpoint compatibility
    for sq in squares:
        a, b = (edge_by_id.get(x) for x in sq.left)
        c, d = (edge_by_id.get(x) for x in sq.right)
        if None in (a, b, c, d):
            raise InvalidSquare(sq, "unknown edge id")
        if not (a.color < b.color):
            raise InvalidSquare(sq, "left pair must be (lower color, higher color)")
        if not (c.color == b.color and d.color == a.color):
            raise InvalidSquare(sq, "right pair must swap the left colors")
        if a.source != b.range:
            raise InvalidSquare(sq, "left pair not composable")
        if c.source != d.range:
            raise InvalidSquare(sq, "right pair not composable")
        if c.range != a.range or d.source != b.source:
            raise InvalidSquare(sq, "right pair endpoints differ from left pair")

    # bijection per color pair
    for ci, cj in itertools.combinations(range(1, k + 1), 2):
        left_pairs = {
            (a.eid, b.eid)
            for a in edges
            if a.color == ci
            for b in edges
            if b.color == cj and a.source == b.range
        }
        right_pairs = {
            (c.eid, d.eid)
            for c in edges
            if c.color == cj
            for d in edges
            if d.color == ci and c.source == d.range
        }
        seen_left, seen_right = set(), set()
        for sq in squares:
            a, b = sq.left
            if edge_by_id[a].color != ci or edge_by_id[b].color != cj:
                continue
            if sq.left in seen_left:
                raise SquareNotBijective(sq.left, "doubly-covered")
            if sq.right in seen_right:
                raise SquareNotBijective(sq.right, "doubly-covered")
            seen_left.add(sq.left)
            seen_right.add(sq.right)
        for pair in sorted(left_pairs - seen_left):
            raise SquareNotBijective(pair, "uncovered")
        for pair in sorted(right_pairs - seen_right):
            raise SquareNotBijective(pair, "uncovered")

    # source-freeness
    received = {(v, c): False for v in vertices for c in range(1, k + 1)}
    for e in edges:
        received[(e.range, e.color)] = True
    for (v, c), ok in received.items():
        if not ok:
            raise SourceVertex(v, c)

    g = KGraph(k, vertices, edges, squares, enum_cap=enum_cap, name=name)

    # cube condition: both reordering routes agree on color-descending triples
    if k >= 3:
        for e1 in edges:
            for e2 in edges:
                if e2.range != e1.source or e2.color >= e1.color:
                    continue
                for e3 in edges:
                    if e3.range != e2.source or e3.color >= e2.color:
                        continue
                    route1 = _route(g, (e1.eid, e2.eid, e3.eid), (0, 1, 0))
                    route2 = _route(g, (e1.eid, e2.eid, e3.eid), (1, 0, 1))
                    if route1 != route2:
                        raise CubeConditionFailed((e1.eid, e2.eid, e3.eid))

    # sanity: the square bijection forces commuting vertex matrices
    mats = g.vertex_matrices()
    for i in range(k):
        for j in range(i + 1, k):
            if _matmul(mats[i], mats[j]) != _matmul(mats[j], mats[i]):
                raise SquareNotBijective((i + 1, j + 1), "matrices do not commute")
    return g


def _route(g, triple, swaps):
    out = list(triple)
    for pos in swaps:
        out[pos], out[pos + 1] = g._swap_pair(out[pos], out[pos + 1])
    return tuple(out)


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)
    ]


# ---------------------------------------------------------------------------
# constructions


def build_double(e_graph):
    """Double 2-graph of a 1-graph: two copies of each edge, trivial squares."""
    if e_graph.k != 1:
        raise ValueError("double graph is defined for 1-graphs")
    edges = []
    for copy in (1, 2):
        for e in e_graph.edges:
            edges.append(Edge(f"{e.eid}^{copy}", copy, e.source, e.range))
    squares = []
    for a in e_graph.edges:
        for b in e_graph.edges:
            if a.source == b.range:
                squares.append(
                    Square((f"{a.eid}^1", f"{b.eid}^2"), (f"{a.eid}^2", f"{b.eid}^1"))
                )
    return validate_kgraph(
        2,
        e_graph.vertices,
        edges,
        squares,
        enum_cap=e_graph.enum_cap,
        name=f"double({e_graph.name})",
    )


def build_product(g1, g2):
    """Product (k1+k2)-graph on vertex pairs, with per-factor lifted squares."""
    k = g1.k + g2.k
    vertices = [f"({v},{w})" for v in g1.vertices for w in g2.vertices]

    def vx(v, w):
        return f"({v},{w})"

    edges = []
    for e in g1.edges:
        for w in g2.vertices:
            edges.append(
                Edge(f"{e.eid}@1[{w}]", e.color, vx(e.source, w), vx(e.range, w))
            )
    for f in g2.edges:
        for v in g1.vertices:
            edges.append(
                Edge(f"{f.eid}@2[{v}]", g1.k + f.color, vx(v, f.source), vx(v, f.range))
            )
    squares = []
    # squares internal to factor 1, at each vertex of factor 2
    for sq in g1.squares:
        for w in g2.vertices:
            squares.append(
                Square(
                    tuple(f"{x}@1[{w}]" for x in sq.left),
                    tuple(f"{x}@1[{w}]" for x in sq.right),
                )
            )
    # squares internal to factor 2, at each vertex of factor 1
    for sq in g2.squares:
        for v in g1.vertices:
            squares.append(
                Square(
                    tuple(f"{x}@2[{v}]" for x in sq.left),
                    tuple(f"{x}@2[{v}]" for x in sq.right),
                )
            )
    # mixed squares: lam@1 . eta@2 = eta@2 . lam@1
    for lam in g1.edges:
        for eta in g2.edges:
            left = (f"{lam.eid}@1[{eta.range}]", f"{eta.eid}@2[{lam.source}]")
            right = (f"{eta.eid}@2[{lam.range}]", f"{lam.eid}@1[{eta.source}]")
            squares.append(Square(left, right))
    return validate_kgraph(
        k,
        vertices,
        edges,
        squares,
        enum_cap=max(g1.enum_cap, g2.enum_cap),
        name=f"product({g1.name},{g2.name})",
    )


def build_lambda2N(n_half, perm, enum_cap=24):
    """2-graph with center v and peripherals Q1..Q_{2N}; factorization by perm.

    perm maps i -> perm[i-1] (1-based images): the blue-red loop through
    Q_{perm(i)} equals the red-blue loop through Q_i.
    """
    two_n = 2 * n_half
    if sorted(perm) != list(range(1, two_n + 1)):
        raise InvalidPermutation(f"{perm} is not a bijection of 1..{two_n}")
    vertices = ["v"] + [f"Q{i}" for i in range(1, two_n + 1)]
    edges = []
    for color, tag in ((1, "b"), (2, "r")):
        for i in range(1, two_n + 1):
            edges.append(Edge(f"{tag}_in_{i}", color, f"Q{i}", "v"))
            edges.append(Edge(f"{tag}_out_{i}", color, "v", f"Q{i}"))
    squares = []
    # loops at v: blue-red through Q_{perm(i)} = red-blue through Q_i
    for i in range(1, two_n + 1):
        j = perm[i - 1]
        squares.append(Square((f"b_in_{j}", f"r_out_{j}"), (f"r_in_{i}", f"b_out_{i}")))
    # paths Q_i <- v <- Q_j: the unique bi-colored pair in each order
    for i in range(1, two_n + 1):
        for j in range(1, two_n + 1):
            squares.append(
                Square((f"b_out_{i}", f"r_in_{j}"), (f"r_out_{i}", f"b_in_{j}"))
            )
    return validate_kgraph(
        2, vertices, edges, squares, enum_cap=enum_cap, name=f"lambda{two_n}"
    )


# ---------------------------------------------------------------------------
# JSON skeleton format and dot export


def graph_to_dict(g):
    return {
        "k": g.k,
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.eid, "color": e.color, "source": e.source, "range": e.range}
            for e in g.edges
        ],
        "squares": [
            {"left": list(sq.left), "right": list(sq.right)} for sq in g.squares
        ],
    }


def graph_from_dict(data, enum_cap=24, name=""):
    edges = [
        Edge(e["id"], int(e["color"]), e["source"], e["range"])
        for e in data["edges"]
    ]
    squares = [Square(tuple(s["left"]), tuple(s["right"])) for s in data["squares"]]
    return validate_kgraph(
        int(data["k"]), data["vertices"], edges, squares, enum_cap=enum_cap, name=name
    )


def load_graph(path_or_file, enum_cap=24, name=""):
    if hasattr(path_or_file, "read"):
        data = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            data = json.load(fh)
    return graph_from_dict(data, enum_cap=enum_cap, name=name)


_DOT_PALETTE = ["blue", "red", "forestgreen", "orange", "purple", "brown"]


def to_dot(g):
    lines = ["digraph skeleton {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in g.edges:
        color = _DOT_PALETTE[(e.color - 1) % len(_DOT_PALETTE)]
        style = "solid" if e.color == 1 else "dashed"
        lines.append(
            f'  "{e.source}" -> "{e.range}" '
            f'[label="{e.eid}", color={color}, style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
