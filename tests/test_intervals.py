"""Merge-based interval operations against the sort-and-merge references."""

import random
from fractions import Fraction

import pytest

from kgraph_lab.errors import RangesOverlap
from kgraph_lab.intervals import (
    Box,
    IntervalUnion,
    Region2,
    Strip,
    atoms_meeting,
    partition_atoms,
)


# -- references: the sort-and-merge versions the merges replaced --------------------------------


def reference_intersect(u, w):
    out = []
    for a, b in u.parts:
        for c, d in w.parts:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
    return IntervalUnion(out)


def reference_scaled(u, a, b):
    out = []
    for lo, hi in u.parts:
        x, y = a * lo + b, a * hi + b
        out.append((min(x, y), max(x, y)))
    return IntervalUnion(out)


def reference_atoms_meeting(atoms, union):
    return [
        i
        for i, (lo, hi) in enumerate(atoms)
        if IntervalUnion.interval(lo, hi).intersect(union).measure > 0
    ]


# -- seeded random canonical unions -------------------------------------------------------------


def random_union(rng, max_parts=4):
    """A union on the grid k/8 in [-1, 2]: coarse enough that endpoints of
    different unions touch, nest and coincide; zero parts gives the empty union."""
    grid = [Fraction(k, 8) for k in range(-8, 17)]
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        lo, hi = sorted(rng.sample(grid, 2))
        parts.append((lo, hi))
    return IntervalUnion(parts)


def random_slope(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 7]))


def assert_canonical(u):
    for lo, hi in u.parts:
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo < hi
    for (_, hi), (lo, _) in zip(u.parts, u.parts[1:]):
        assert hi < lo  # a gap of positive length
    assert IntervalUnion(u.parts) == u


def test_random_unions_cover_the_edge_cases():
    rng = random.Random(0)
    unions = [random_union(rng) for _ in range(400)]
    assert any(not u for u in unions)
    assert any(len(u.parts) >= 3 for u in unions)
    pairs = [(p, q) for u, w in zip(unions, unions[1:]) for p in u.parts for q in w.parts]
    assert any(p[1] == q[0] for p, q in pairs)  # touching
    assert any(q[0] < p[0] and p[1] < q[1] for p, q in pairs)  # strictly nested
    assert any(p[0] == q[0] and p[1] < q[1] for p, q in pairs)  # nested, shared end


@pytest.mark.parametrize("seed", range(5))
def test_intersect_matches_sort_and_merge(seed):
    rng = random.Random(seed)
    for _ in range(300):
        u, w = random_union(rng), random_union(rng)
        got = u.intersect(w)
        assert got == reference_intersect(u, w), (u, w)
        assert got == w.intersect(u)
        assert_canonical(got)
        assert u.intersect(u) == u


def test_intersect_edge_cases():
    empty = IntervalUnion()
    unit = IntervalUnion.interval(0, 1)
    assert unit.intersect(empty) == empty
    assert empty.intersect(unit) == empty
    # touching at a point is null
    assert unit.intersect(IntervalUnion.interval(1, 2)) == empty
    # one part nested across two
    two = IntervalUnion([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    assert IntervalUnion.interval(Fraction(1, 8), Fraction(3, 4)).intersect(two).parts == (
        (Fraction(1, 8), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(3, 4)),
    )


@pytest.mark.parametrize("seed", range(5))
def test_scaled_matches_sort_and_merge(seed):
    rng = random.Random(100 + seed)
    for _ in range(300):
        u = random_union(rng)
        a, b = random_slope(rng), Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        got = u.scaled(a, b)
        assert got == reference_scaled(u, a, b), (u, a, b)
        assert_canonical(got)
        assert got.scaled(1 / a, -b / a) == u
    assert random_union(rng).scaled(Fraction(0), Fraction(1)) == IntervalUnion()


@pytest.mark.parametrize("seed", range(5))
def test_atoms_meeting_matches_linear_scan(seed):
    rng = random.Random(200 + seed)
    for _ in range(60):
        domain = random_union(rng) or IntervalUnion.interval(0, 1)
        sets = [random_union(rng) for _ in range(rng.randint(0, 4))]
        atoms = partition_atoms(domain, sets)
        his = [hi for _, hi in atoms]
        # generating sets, arbitrary unions (parts ending inside an atom,
        # several parts in one atom) and the empty union
        probes = sets + [domain, IntervalUnion()]
        probes += [random_union(rng, max_parts=6) for _ in range(10)]
        step = Fraction(1, 64)  # atoms are at least 1/8 wide
        probes += [IntervalUnion([(lo + step, lo + 2 * step), (lo + 3 * step, lo + 4 * step)])
                   for lo, _ in atoms]
        for union in probes:
            assert atoms_meeting(atoms, his, union) == reference_atoms_meeting(atoms, union)


def test_box_uncovered_tells_overlap_from_undecided():
    unit = IntervalUnion.interval(0, 1)
    box = Box(unit, unit)
    half = Fraction(1, 2)

    def strip(lower, upper):
        return Region2([Strip(Fraction(0), Fraction(1), lower, upper)])

    # y < 1/2 and y > 1/2 tile the square; y < 1/2 and y > 1/4 provably overlap
    assert box.uncovered([strip((0,), (half,)), strip((half,), (1,))]) == 0
    with pytest.raises(RangesOverlap):
        box.uncovered([strip((0,), (half,)), strip((Fraction(1, 4),), (1,))])
    # y < x^3 and y > x^3 / 2: a cubic gap, which the exact test cannot decide
    cube = (0, 0, 0, Fraction(1))
    assert box.uncovered([strip((0,), cube), strip((0, 0, 0, half), (1,))]) is None
