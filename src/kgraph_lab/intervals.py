"""Exact interval and region arithmetic over the rationals.

Sets are compared up to Lebesgue-null differences, so intervals are kept
as half-open-agnostic pairs (lo, hi) with lo < hi; touching intervals
merge.  An IntervalUnion's parts are sorted, disjoint and separated by
gaps of positive length; the merge-based operations rely on that.

The domains of interval systems are IntervalUnions (``dim`` 1) and
Boxes, products of two IntervalUnions (``dim`` 2).  Both answer the same
questions: ``measure``, ``contains_point(pt)``, ``intersect``,
``sample_points(count)`` and ``uncovered(ranges)``, the measure the
ranges leave uncovered.  Ranges of 2D maps are Region2s, unions of
"strips": an x-interval together with polynomial lower/upper boundary
graphs.  Ranges of both kinds answer ``measure``, ``contains_point(pt)``,
``is_subset_of(domain)`` and ``disjoint_from(other)``.
"""

from bisect import bisect_right
from fractions import Fraction

from .errors import RangesOverlap
from .records import Record


# ---------------------------------------------------------------------------
# univariate polynomials (tuple of coefficients, low degree first)


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
        )
    )


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(tuple(out))


def poly_eval(p, x):
    acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_compose(p, q):
    """p(q(x))."""
    acc = (Fraction(0),)
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, q), (Fraction(c),))
    return acc


def poly_integrate(p, lo, hi):
    total = Fraction(0)
    for i, c in enumerate(p):
        total += Fraction(c) * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return total


def poly_range_on(p, lo, hi):
    """Exact (min, max) of p over [lo, hi]; needs degree <= 2."""
    p = poly_trim(p)
    vals = [poly_eval(p, lo), poly_eval(p, hi)]
    if len(p) == 3 and p[2] != 0:
        crit = -p[1] / (2 * p[2])
        if lo < crit < hi:
            vals.append(poly_eval(p, crit))
    elif len(p) > 3:
        raise NotImplementedError("exact range bounds implemented for degree <= 2")
    return min(vals), max(vals)


# ---------------------------------------------------------------------------
# deterministic sample points

_SAMPLE_PRIME = 10007  # coprime to the smooth denominators of rational data


def _kronecker(t, salt=0):
    """Low-discrepancy rational in (0, 1) with denominator _SAMPLE_PRIME.

    Points never coincide with interval breakpoints whose denominators
    avoid the prime, so coding-map lookups stay off the branch cuts.
    """
    num = (t * 6180 + salt * 997) % _SAMPLE_PRIME
    return Fraction(num or 1, _SAMPLE_PRIME)


# ---------------------------------------------------------------------------
# one-dimensional interval unions


def _merged(pairs):
    """Sorted (lo, hi) pairs as canonical parts: empty pairs dropped, touching ones merged."""
    out = []
    for lo, hi in pairs:
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


class IntervalUnion:
    """Finite union of rational intervals, canonicalized up to null sets.

    The constructor stores Fraction endpoints.  The set operations keep the
    endpoint type they are given, so a union with int endpoints on an
    integer grid (see ``sbfs.monic_probe``) stays on it.
    """

    __slots__ = ("parts",)
    dim = 1

    def __init__(self, parts=()):
        self.parts = _merged(sorted((Fraction(a), Fraction(b)) for a, b in parts))

    @classmethod
    def interval(cls, lo, hi):
        return cls([(lo, hi)])

    @classmethod
    def canonical(cls, parts):
        """Wrap parts that are already sorted, disjoint and gapped, keeping
        their endpoint type (Fraction, or int on a grid)."""
        out = object.__new__(cls)
        out.parts = tuple(parts)
        return out

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return "u".join(f"({lo},{hi})" for lo, hi in self.parts) or "(empty)"

    @property
    def measure(self):
        return sum((hi - lo for lo, hi in self.parts), Fraction(0))

    def contains_point(self, x):
        return any(lo < x < hi for lo, hi in self.parts)

    def union(self, other):
        return IntervalUnion.canonical(_merged(sorted(self.parts + other.parts)))

    def intersect(self, other):
        xs, ys = self.parts, other.parts
        out = []
        i = j = 0
        while i < len(xs) and j < len(ys):
            a, b = xs[i]
            c, d = ys[j]
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
            if b < d:
                i += 1
            else:
                j += 1
        return IntervalUnion.canonical(out)

    def subtract(self, other):
        out = []
        for a, b in self.parts:
            pieces = [(a, b)]
            for c, d in other.parts:
                nxt = []
                for lo, hi in pieces:
                    if d <= lo or hi <= c:
                        nxt.append((lo, hi))
                        continue
                    if lo < c:
                        nxt.append((lo, c))
                    if d < hi:
                        nxt.append((d, hi))
                pieces = nxt
            out.extend(pieces)
        return IntervalUnion.canonical(out)

    def is_subset_of(self, other):
        return self.subtract(other).measure == 0

    def disjoint_from(self, other):
        return self.intersect(other).measure == 0

    def uncovered(self, ranges):
        """measure(self minus the union of `ranges`)."""
        return self.subtract(IntervalUnion([p for r in ranges for p in r.parts])).measure

    def sample_points(self, count, salt=0):
        """count // len(parts) Kronecker points per part (at least one), at most count."""
        if not self.parts:
            return []
        per = max(1, count // len(self.parts))
        out = [lo + (hi - lo) * _kronecker(t, salt)
               for lo, hi in self.parts for t in range(1, per + 1)]
        return out[:count]

    def breakpoints(self):
        out = set()
        for lo, hi in self.parts:
            out.add(lo)
            out.add(hi)
        return out

    def scaled(self, a, b):
        """Image under x -> a*x + b."""
        if a > 0:
            out = [(a * lo + b, a * hi + b) for lo, hi in self.parts]
        elif a < 0:
            out = [(a * hi + b, a * lo + b) for lo, hi in reversed(self.parts)]
        else:
            out = []
        return IntervalUnion.canonical(out)


def partition_atoms(domain, sets):
    """Atoms of the partition of `domain` generated by the interval unions.

    The atoms are the gaps between consecutive breakpoints of the domain and
    the sets that lie in the domain, sorted, with the endpoint type they are
    given.  The domain's breakpoints are among the points, so each gap lies
    in one part of the domain or outside it; one walk tells which.
    """
    points = domain.breakpoints()
    for s in sets:
        for part in s.parts:
            points.update(part)
    points = sorted(points)
    parts = domain.parts
    atoms = []
    j = 0
    for lo, hi in zip(points, points[1:]):
        while j < len(parts) and parts[j][1] <= lo:
            j += 1
        if j == len(parts):
            break
        if parts[j][0] <= lo:
            atoms.append((lo, hi))
    return atoms


def grid_cells(parts, resolution):
    """The width-`resolution` cells (lo, hi) that cut each part (lo, hi) from
    its left end, the last cell of a part clipped to it."""
    for lo, hi in parts:
        for t in range(-((lo - hi) // resolution)):
            yield lo + t * resolution, min(hi, lo + (t + 1) * resolution)


def atoms_meeting(atoms, his, union):
    """Indices of the atoms that meet `union` in positive measure.

    `atoms` are sorted disjoint (lo, hi) pairs, as partition_atoms returns
    them, and `his` their right endpoints; each part of `union` costs one
    bisect plus one step per atom it meets.
    """
    out = []
    for c, d in union.parts:
        i = bisect_right(his, c)
        if out and i <= out[-1]:
            i = out[-1] + 1
        while i < len(atoms) and atoms[i][0] < d:
            out.append(i)
            i += 1
    return out


# ---------------------------------------------------------------------------
# box domains


class Box(Record):
    """The product x * y of two interval unions: a domain of a 2D system."""

    x: IntervalUnion
    y: IntervalUnion
    dim = 2

    @property
    def measure(self):
        return self.x.measure * self.y.measure

    def contains_point(self, pt):
        return self.x.contains_point(pt[0]) and self.y.contains_point(pt[1])

    def intersect(self, other):
        return Box(self.x.intersect(other.x), self.y.intersect(other.y))

    def sample_points(self, count):
        return list(zip(self.x.sample_points(count), self.y.sample_points(count, salt=3)))

    def uncovered(self, ranges):
        """measure(self minus the union of the Region2 `ranges`), summing their
        measures.  Raises RangesOverlap when two strips provably overlap;
        None when disjointness is undecided."""
        disjoint = Region2([s for r in ranges for s in r.strips]).pairwise_overlap_is_null()
        if disjoint is False:
            raise RangesOverlap("two ranges overlap on a set of positive measure")
        if disjoint is None:
            return None
        return self.measure - sum((r.measure for r in ranges), Fraction(0))


# ---------------------------------------------------------------------------
# two-dimensional regions as strip unions


class Strip(Record):
    """{(x, y): lo < x < hi, lower(x) < y < upper(x)} with polynomial bounds."""

    lo: Fraction
    hi: Fraction
    lower: tuple
    upper: tuple

    @property
    def measure(self):
        return poly_integrate(poly_sub(self.upper, self.lower), self.lo, self.hi)

    def contains_point(self, x, y):
        return self.lo < x < self.hi and poly_eval(self.lower, x) < y < poly_eval(
            self.upper, x
        )


class Region2:
    """Union of strips. Operations stay exact while bounds have degree <= 2."""

    __slots__ = ("strips",)

    def __init__(self, strips=()):
        self.strips = tuple(s for s in strips if s.hi > s.lo)

    def __repr__(self):
        return f"Region2({len(self.strips)} strips)"

    @property
    def measure(self):
        return sum((s.measure for s in self.strips), Fraction(0))

    def contains_point(self, pt):
        return any(s.contains_point(*pt) for s in self.strips)

    def disjoint_from(self, other):
        """True when the strips of both regions are provably pairwise disjoint."""
        return bool(Region2(self.strips + other.strips).pairwise_overlap_is_null())

    def pairwise_overlap_is_null(self):
        """True if all strips are pairwise disjoint up to null sets.

        Decided by exact boundary dominance (degree <= 2); returns None
        when dominance cannot be decided exactly.
        """
        strips = self.strips
        for i in range(len(strips)):
            for j in range(i + 1, len(strips)):
                a, b = strips[i], strips[j]
                lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
                if hi <= lo:
                    continue
                gap1 = poly_sub(b.lower, a.upper)  # b above a
                gap2 = poly_sub(a.lower, b.upper)  # a above b
                ok = False
                for gap in (gap1, gap2):
                    try:
                        gmin, _ = poly_range_on(gap, lo, hi)
                    except NotImplementedError:
                        return None
                    if gmin >= 0:
                        ok = True
                        break
                if not ok:
                    return False
        return True

    def is_subset_of(self, box):
        """Containment in a Box, up to null sets; None when undecided."""
        xint, yint = box
        for s in self.strips:
            if not IntervalUnion.interval(s.lo, s.hi).is_subset_of(xint):
                return False
            try:
                lo_min, lo_max = poly_range_on(s.lower, s.lo, s.hi)
                up_min, up_max = poly_range_on(s.upper, s.lo, s.hi)
            except NotImplementedError:
                return None
            # boundaries must sit inside one y-interval of the box
            placed = False
            for ylo, yhi in yint.parts:
                if ylo <= lo_min and up_max <= yhi:
                    placed = True
                    break
            if not placed:
                return False
        return True
