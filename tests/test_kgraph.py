import itertools
import random

import pytest

from kgraph_lab.catalog import BUILTIN_GRAPH_NAMES, builtin_graph
from kgraph_lab.errors import (
    DegreeOutOfRange,
    DepthTooSmall,
    InvalidPermutation,
    NotComposable,
    SourceVertex,
    SquareNotBijective,
)
from kgraph_lab.kgraph import (
    AperiodicWitness,
    Edge,
    Path,
    PeriodCandidate,
    Square,
    build_double,
    build_lambda2N,
    build_product,
    deg_add,
    deg_grid,
    deg_join,
    deg_le,
    deg_sub,
    deg_total,
    deg_unit,
    graph_from_dict,
    graph_to_dict,
    shift_windows,
    to_dot,
    validate_kgraph,
)

ALL_BUILTINS = [
    "exonevthreeed",
    "exonevtwoe",
    "ex3v8e",
    "kawamura",
    "double-kawamura",
    "product-kawamura",
    "lambda2N:N=1",
    "lambda2N:N=2",
    "ehfg",
]


def degrees_up_to(k, bound):
    return list(itertools.product(range(bound + 1), repeat=k))


# -- validation -------------------------------------------------------------


def test_exonevtwoe_skeleton_is_valid():
    g = builtin_graph("exonevtwoe")
    assert g.k == 2
    assert len(g.edges) == 3
    assert len(g.squares) == 2


def test_missing_square_is_rejected():
    g = builtin_graph("exonevtwoe")
    with pytest.raises(SquareNotBijective):
        validate_kgraph(2, g.vertices, g.edges, g.squares[:1])


def test_one_graph_needs_no_squares():
    g = builtin_graph("exonevthreeed")
    assert g.k == 1
    assert g.squares == []


def test_source_vertex_detected():
    edges = [Edge("e", 1, "v", "v")]
    with pytest.raises(SourceVertex):
        validate_kgraph(1, ["v", "w"], edges, [])


def test_cube_condition_on_triple_product():
    loop = validate_kgraph(1, ["v"], [Edge("e", 1, "v", "v")], [], name="loop")
    g3 = build_product(build_product(loop, loop), loop)
    assert g3.k == 3
    assert len(g3.enumerate_paths((1, 1, 1))) == 1


# -- vertex matrices ----------------------------------------------------------


def test_ex3v8e_vertex_matrices():
    g = builtin_graph("ex3v8e")
    expected = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    a1, a2 = g.vertex_matrices()
    assert a1 == expected
    assert a2 == expected


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_vertex_matrices_commute(name):
    g = builtin_graph(name)
    mats = g.vertex_matrices()

    def matmul(a, b):
        n = len(a)
        return [
            [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for i in range(g.k):
        for j in range(g.k):
            assert matmul(mats[i], mats[j]) == matmul(mats[j], mats[i])


def test_lambda2_center_row_sums():
    g = builtin_graph("lambda2N:N=1")
    center = g.vertices.index("v")
    for mat in g.vertex_matrices():
        assert sum(mat[center]) == 2


# -- compose / factorize -------------------------------------------------------


def test_vertex_acts_as_identity():
    g = builtin_graph("ex3v8e")
    lam = g.path(["a0", "b0"])
    assert g.compose(g.vertex_path(lam.range), lam) == lam
    assert g.compose(lam, g.vertex_path(g.s(lam))) == lam


def test_exonevtwoe_factorization_rule():
    g = builtin_graph("exonevtwoe")
    e = g.edge_path("e")
    f1 = g.edge_path("f1")
    f2 = g.edge_path("f2")
    assert g.compose(e, f1) == g.compose(f2, e)
    assert g.compose(f1, e) == g.compose(e, f2)


def test_ex3v8e_factorization_rule():
    g = builtin_graph("ex3v8e")
    assert g.compose(g.edge_path("a0"), g.edge_path("b0")) == g.compose(
        g.edge_path("d0"), g.edge_path("c0")
    )


def test_factorize_at_zero_and_full():
    g = builtin_graph("exonevtwoe")
    lam = g.path(["f1", "e"])
    head, tail = g.factorize(lam, (0, 0))
    assert head == g.vertex_path(lam.range) and tail == lam
    head, tail = g.factorize(lam, lam.degree)
    assert head == lam and tail == g.vertex_path(g.s(lam))


def test_factorize_known_square():
    # canonical(f1 e) factored at degree (0,1) gives (e, f2) since f1 e = e f2
    g = builtin_graph("exonevtwoe")
    lam = g.path(["f1", "e"])
    head, tail = g.factorize(lam, (0, 1))
    assert head == g.edge_path("e")
    assert tail == g.edge_path("f2")


def test_factorize_out_of_range():
    g = builtin_graph("exonevtwoe")
    with pytest.raises(DegreeOutOfRange):
        g.factorize(g.edge_path("e"), (1, 0))


def test_not_composable():
    g = builtin_graph("ex3v8e")
    with pytest.raises(NotComposable):
        g.compose(g.edge_path("a0"), g.edge_path("a0"))


def test_factorize_roundtrip_exhaustive_ex3v8e():
    g = builtin_graph("ex3v8e")
    for lam in g.enumerate_paths((2, 2)):
        for m in degrees_up_to(2, 2):
            if not deg_le(m, lam.degree):
                continue
            head, tail = g.factorize(lam, m)
            assert head.degree == m
            assert g.compose(head, tail) == lam


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_factorize_roundtrip_total_degree_6(name):
    g = builtin_graph(name)
    bound = 6 // g.k if g.k <= 2 else 2
    for n in degrees_up_to(g.k, bound):
        if sum(n) > 6 or sum(n) == 0:
            continue
        for lam in g.enumerate_paths(n):
            for m in itertools.product(*(range(c + 1) for c in n)):
                head, tail = g.factorize(lam, m)
                assert g.compose(head, tail) == lam


@pytest.mark.parametrize("name", ["exonevtwoe", "ex3v8e", "ehfg", "product-kawamura"])
def test_compose_associative(name):
    g = builtin_graph(name)
    small = [d for d in degrees_up_to(g.k, 1) if sum(d) >= 1]
    pool = [p for d in small for p in g.enumerate_paths(d)]
    for p in pool:
        for q in pool:
            if g.s(p) != q.range:
                continue
            for r in pool:
                if g.s(q) != r.range:
                    continue
                assert g.compose(g.compose(p, q), r) == g.compose(p, g.compose(q, r))


# -- enumeration ----------------------------------------------------------------


def test_counts_exonevtwoe():
    g = builtin_graph("exonevtwoe")
    assert len(g.enumerate_paths((1, 1))) == 2
    assert len(g.enumerate_paths((0, 0))) == len(g.vertices)


def test_counts_ex3v8e_square_levels():
    g = builtin_graph("ex3v8e")
    for n in range(4):
        assert len(g.enumerate_paths((n, n))) == 3 * 2**n


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_counts_match_matrix_products(name):
    g = builtin_graph(name)
    mats = g.vertex_matrices()
    nv = len(g.vertices)
    for n in degrees_up_to(g.k, 2):
        prod = [[1 if i == j else 0 for j in range(nv)] for i in range(nv)]

        def matmul(a, b):
            return [
                [sum(a[i][t] * b[t][j] for t in range(nv)) for j in range(nv)]
                for i in range(nv)
            ]

        for color in range(g.k):
            for _ in range(n[color]):
                prod = matmul(prod, mats[color])
        for vi, v in enumerate(g.vertices):
            assert len(g.enumerate_paths(n, v)) == sum(prod[vi])


def test_lambda2n_path_counts():
    for n_half in (1, 2):
        g = builtin_graph(f"lambda2N:N={n_half}")
        for n in range(3):
            assert len(g.enumerate_paths((n, n), "v")) == (2 * n_half) ** n


def test_partition_counts():
    # extensions of lam of degree d(lam)+n partition into Z(lam eta)
    g = builtin_graph("ex3v8e")
    for lam in g.enumerate_paths((1, 0)):
        exts = [
            g.compose(lam, eta) for eta in g.enumerate_paths((1, 1), g.s(lam))
        ]
        assert len(set(exts)) == len(exts)
        direct = [
            p
            for p in g.enumerate_paths((2, 1), lam.range)
            if g.factorize(p, (1, 0))[0] == lam
        ]
        assert sorted(map(repr, exts)) == sorted(map(repr, direct))


# -- lambda_min ---------------------------------------------------------------


def test_lambda_min_equal_paths():
    g = builtin_graph("ex3v8e")
    lam = g.path(["a0", "b0"])
    pairs = g.lambda_min(lam, lam)
    src = g.vertex_path(g.s(lam))
    assert pairs == [(src, src)]


def test_lambda_min_divergent_one_graph():
    g = builtin_graph("exonevthreeed")
    assert g.lambda_min(g.edge_path("f1"), g.edge_path("f3")) == []


def brute_force_lambda_min(g, p, q):
    j = tuple(max(a, b) for a, b in zip(p.degree, q.degree))
    out = []
    for rho in g.enumerate_paths(deg_sub(j, p.degree), g.s(p)):
        for xi in g.enumerate_paths(deg_sub(j, q.degree), g.s(q)):
            if g.compose(p, rho) == g.compose(q, xi):
                out.append((rho, xi))
    return out


def test_lambda_min_vs_brute_force():
    g = builtin_graph("ex3v8e")
    small = [d for d in degrees_up_to(2, 2) if 1 <= sum(d) <= 2]
    pool = [p for d in small for p in g.enumerate_paths(d)]
    for p in pool:
        for q in pool:
            assert sorted(map(repr, g.lambda_min(p, q))) == sorted(
                map(repr, brute_force_lambda_min(g, p, q))
            )


def test_lambda_min_ex3v8e_one_one():
    g = builtin_graph("ex3v8e")
    a0 = g.edge_path("a0")
    d0 = g.edge_path("d0")
    pairs = g.lambda_min(a0, d0)
    assert pairs == brute_force_lambda_min(g, a0, d0)
    for rho, xi in pairs:
        assert g.compose(a0, rho) == g.compose(d0, xi)
        assert g.compose(a0, rho).degree == (1, 1)


# -- periodicity probe -----------------------------------------------------------


def test_ehfg_period_candidate():
    g = builtin_graph("ehfg")
    res = g.periodicity_probe("u", 4)
    assert isinstance(res, PeriodCandidate)
    assert (2, 2) in res.differences
    for depth in range(1, 9):
        for v in g.vertices:
            assert len(g.enumerate_paths((depth, depth), v)) == 1


def test_ex3v8e_shift_collapse():
    # The transposition factorization makes sigma^(2,0) and sigma^(0,2)
    # agree on every infinite path: one blue shift relabels the vertex
    # string by the permutation, one red shift by its inverse, and a
    # transposition is an involution.
    g = builtin_graph("ex3v8e")
    res = g.periodicity_probe("v", 4)
    assert isinstance(res, PeriodCandidate)
    assert res.differences == ((2, -2),)


def test_four_cycle_lambda4_aperiodic_witness():
    g = builtin_graph("lambda2N:N=2,perm=2;3;4;1")
    res = g.periodicity_probe("v", 3)
    assert isinstance(res, AperiodicWitness)


def test_kawamura_aperiodic_witness():
    g = builtin_graph("kawamura")
    res = g.periodicity_probe("v", 6)
    assert isinstance(res, AperiodicWitness)


def test_single_loop_period_one():
    g = validate_kgraph(1, ["v"], [Edge("e", 1, "v", "v")], [])
    res = g.periodicity_probe("v", 4)
    assert isinstance(res, PeriodCandidate)
    assert (1,) in res.differences


def test_depth_too_small():
    g = builtin_graph("exonevtwoe")
    with pytest.raises(DepthTooSmall):
        g.periodicity_probe("v", 1)


# -- constructions ----------------------------------------------------------------


def test_double_kawamura_structure():
    e_graph = builtin_graph("kawamura")
    dbl = build_double(e_graph)
    assert dbl.k == 2
    assert len(dbl.edges) == 2 * len(e_graph.edges)
    # composable pairs in E: ee, eg, fe, fg, gf -> five squares
    assert len(dbl.squares) == 5
    a1, a2 = dbl.vertex_matrices()
    assert a1 == e_graph.vertex_matrices()[0]
    assert a1 == a2


def test_double_single_loop():
    loop = validate_kgraph(1, ["v"], [Edge("e", 1, "v", "v")], [])
    dbl = build_double(loop)
    assert len(dbl.vertices) == 1
    assert len(dbl.edges) == 2
    assert len(dbl.squares) == 1


def test_product_kawamura_structure():
    g = builtin_graph("kawamura")
    prod = build_product(g, g)
    assert prod.k == 2
    assert len(prod.vertices) == 4
    a = g.vertex_matrices()[0]
    m1, m2 = prod.vertex_matrices()
    # m1 = A (x) I, m2 = I (x) A in the lexicographic vertex order
    n = len(g.vertices)
    for i in range(n * n):
        for j in range(n * n):
            assert m1[i][j] == (a[i // n][j // n] if i % n == j % n else 0)
            assert m2[i][j] == (a[i % n][j % n] if i // n == j // n else 0)


def test_product_counts_factor():
    g = builtin_graph("kawamura")
    prod = build_product(g, g)
    for n in range(3):
        for m in range(3):
            for v in g.vertices:
                for w in g.vertices:
                    assert len(prod.enumerate_paths((n, m), f"({v},{w})")) == len(
                        g.enumerate_paths((n,), v)
                    ) * len(g.enumerate_paths((m,), w))


def test_product_with_loop_keeps_factor():
    g = builtin_graph("kawamura")
    loop = validate_kgraph(1, ["*"], [Edge("z", 1, "*", "*")], [])
    prod = build_product(g, loop)
    a = g.vertex_matrices()[0]
    m1, m2 = prod.vertex_matrices()
    assert m1 == a  # identity tensor factor is 1x1
    assert m2 == [[1 if i == j else 0 for j in range(len(a))] for i in range(len(a))]


def test_lambda2_is_ex3v8e_up_to_relabeling():
    g = build_lambda2N(1, [2, 1])
    h = builtin_graph("ex3v8e")
    # explicit vertex bijection: v <-> v(center), Q1 <-> u, Q2 <-> w;
    # edges are determined by (color, range, source)
    vmap = {"v": "v", "Q1": "u", "Q2": "w"}
    emap = {}
    for e in g.edges:
        targets = [
            f
            for f in h.edges
            if f.color == e.color
            and f.range == vmap[e.range]
            and f.source == vmap[e.source]
        ]
        assert len(targets) == 1
        emap[e.eid] = targets[0].eid
    mapped_squares = {
        ((emap[sq.left[0]], emap[sq.left[1]]), (emap[sq.right[0]], emap[sq.right[1]]))
        for sq in g.squares
    }
    target_squares = {(sq.left, sq.right) for sq in h.squares}
    assert mapped_squares == target_squares


def test_lambda2_identity_perm_squares():
    g = build_lambda2N(1, [1, 2])
    # identity: the blue-red loop through Q_i pairs with the red-blue loop
    # through the same Q_i
    loops = [sq for sq in g.squares if sq.left[0].startswith("b_in")]
    for sq in loops:
        i = sq.left[0].rsplit("_", 1)[1]
        assert sq.right[0] == f"r_in_{i}"


def test_lambda2n_bad_permutation():
    with pytest.raises(InvalidPermutation):
        build_lambda2N(1, [1, 1])


# -- serialization -----------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_json_roundtrip(name):
    g = builtin_graph(name)
    data = graph_to_dict(g)
    g2 = graph_from_dict(data)
    assert graph_to_dict(g2) == data


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(500, 504))
def test_json_roundtrip_random_graphs(k, seed):
    g = random_graph(random.Random(seed), k)
    data = graph_to_dict(g)
    g2 = graph_from_dict(data)
    assert graph_to_dict(g2) == data
    for n in degrees_up_to(k, 2 if k == 2 else 1):
        assert g2.enumerate_paths(n) == g.enumerate_paths(n), n


def test_dot_export_mentions_edges():
    g = builtin_graph("ex3v8e")
    dot = to_dot(g)
    for e in g.edges:
        assert e.eid in dot


def test_minimal_extension_sets_agree():
    # {p rho} and {q xi} coincide as path sets over the minimal pairs
    g = builtin_graph("ex3v8e")
    pool = [p for d in ((1, 0), (0, 1), (1, 1)) for p in g.enumerate_paths(d)]
    for p in pool:
        for q in pool:
            pairs = g.lambda_min(p, q)
            left = {repr(g.compose(p, rho)) for rho, _ in pairs}
            right = {repr(g.compose(q, xi)) for _, xi in pairs}
            assert left == right


def test_double_kawamura_printed_relations():
    # loops commute; mixed pairs swap copies through the same edges
    dbl = builtin_graph("double-kawamura")
    pairs = {(sq.left, sq.right) for sq in dbl.squares}
    assert (("e^1", "e^2"), ("e^2", "e^1")) in pairs
    assert (("e^1", "g^2"), ("e^2", "g^1")) in pairs
    assert (("g^1", "f^2"), ("g^2", "f^1")) in pairs
    assert (("f^1", "g^2"), ("f^2", "g^1")) in pairs
    assert (("f^1", "e^2"), ("f^2", "e^1")) in pairs


def test_product_kawamura_mixed_square():
    prod = builtin_graph("product-kawamura")
    # the loop at (v,v): first-factor e then second-factor e, swapped
    target = (("e@1[v]", "e@2[v]"), ("e@2[v]", "e@1[v]"))
    assert any((sq.left, sq.right) == target for sq in prod.squares)


def build_three_color_skeleton(sigma, tau):
    # one vertex; three color-1 loops a1..a3, one loop b (color 2) and
    # c (color 3); squares permute the a-edges by sigma (through b) and
    # tau (through c)
    from kgraph_lab.kgraph import Square

    edges = [Edge(f"a{i}", 1, "v", "v") for i in (1, 2, 3)]
    edges += [Edge("b", 2, "v", "v"), Edge("c", 3, "v", "v")]
    squares = [Square(("b", "c"), ("c", "b"))]
    for i in (1, 2, 3):
        squares.append(Square((f"a{i}", "b"), ("b", f"a{sigma[i - 1]}")))
        squares.append(Square((f"a{i}", "c"), ("c", f"a{tau[i - 1]}")))
    return ["v"], edges, squares


def test_cube_condition_rejects_noncommuting_squares():
    from kgraph_lab.errors import CubeConditionFailed

    # swap(1,2) and swap(1,3) do not commute, so the two reordering
    # routes of a descending triple disagree
    vertices, edges, squares = build_three_color_skeleton([2, 1, 3], [3, 2, 1])
    with pytest.raises(CubeConditionFailed):
        validate_kgraph(3, vertices, edges, squares)


def test_cube_condition_accepts_commuting_squares():
    vertices, edges, squares = build_three_color_skeleton([2, 1, 3], [2, 1, 3])
    g = validate_kgraph(3, vertices, edges, squares)
    assert len(g.enumerate_paths((1, 1, 1))) == 3
    for lam in g.enumerate_paths((1, 1, 1)):
        for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)):
            head, tail = g.factorize(lam, m)
            assert g.compose(head, tail) == lam


def test_triple_product_three_graph():
    from kgraph_lab.kgraph import validate_kgraph as vk

    e_graph = builtin_graph("kawamura")
    loop = vk(1, ["*"], [Edge("z", 1, "*", "*")], [])
    g3 = build_product(build_product(e_graph, e_graph), loop)
    assert g3.k == 3
    for n in ((1, 1, 1), (2, 1, 1)):
        for v in g3.vertices[:2]:
            count = len(g3.enumerate_paths(n, v))
            v1, v2 = v[1:-1].split(",")[0:2]
            v1, v2 = v1.strip("()"), v2.strip("() ")
            expected = len(e_graph.enumerate_paths((n[0],), v1)) * len(
                e_graph.enumerate_paths((n[1],), v2)
            )
            assert count == expected


# -- randomized differential tests against the reference path algebra --------


def reference_canonicalize(g, ids):
    """Restart-bubble canonical form: swap the leftmost inversion, rescan."""
    out = list(ids)
    changed = True
    while changed:
        changed = False
        for t in range(len(out) - 1):
            if g.edge_by_id[out[t]].color > g.edge_by_id[out[t + 1]].color:
                out[t], out[t + 1] = g._swap_pair(out[t], out[t + 1])
                changed = True
                break
    return tuple(out)


def reference_factorize(g, p, m):
    """Bubble one edge of each color to the front at a time, then rebuild."""
    if not (deg_le((0,) * g.k, m) and deg_le(m, p.degree)):
        raise DegreeOutOfRange(f"m = {m} not within 0..{p.degree}")

    def pop_color(ids, color):
        ids = list(ids)
        t = next(i for i, eid in enumerate(ids) if g.edge_by_id[eid].color == color)
        while t > 0:
            ids[t - 1], ids[t] = g._swap_pair(ids[t - 1], ids[t])
            t -= 1
        return ids[0], ids[1:]

    rest = list(p.edges)
    head = []
    for color in range(1, g.k + 1):
        for _ in range(m[color - 1]):
            ed, rest = pop_color(rest, color)
            head.append(ed)
    head_path = g.path(head) if head else g.vertex_path(p.range)
    tail_path = g.path(rest) if rest else g.vertex_path(g.s(p))
    return head_path, tail_path


def reference_strip_prefix(g, p, lam):
    if not deg_le(lam.degree, p.degree):
        return None
    head, tail = reference_factorize(g, p, lam.degree)
    return tail if head == lam else None


def reference_lambda_min(g, p, q):
    """Factorize every extension of p to degree d(p) v d(q) at d(q)."""
    if p.range != q.range:
        return []
    j = deg_join(p.degree, q.degree)
    out = []
    for rho in g.enumerate_paths(deg_sub(j, p.degree), g.s(p)):
        head, xi = g.factorize(g.compose(p, rho), q.degree)
        if head == q:
            out.append((rho, xi))
    return out


def random_one_graph(rng, vertices, tag):
    """Random color-1 skeleton in which every vertex receives an edge."""
    edges = []
    for v in vertices:
        for _ in range(rng.randint(1, 2)):
            edges.append(Edge(f"{tag}{len(edges)}", 1, rng.choice(vertices), v))
    return edges


def random_two_graph(rng):
    """Random valid 2-graph on 1-4 vertices.

    Color 2 gets the vertex matrix a*I + b*A_1 of the random color-1
    skeleton, so the matrices commute; the squares are a random
    endpoint-preserving bijection from (color 1, color 2) pairs to
    (color 2, color 1) pairs, and for k = 2 every such bijection is valid.
    """
    vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
    blue = random_one_graph(rng, vertices, "b")
    a, b = rng.choice([(0, 1), (1, 1), (0, 2), (2, 0), (1, 0)])
    ends = [(v, v) for v in vertices] * a + [(e.source, e.range) for e in blue] * b
    rng.shuffle(ends)
    red = [Edge(f"r{i}", 2, src, dst) for i, (src, dst) in enumerate(ends)]
    blue_red, red_blue = {}, {}
    for x in blue:
        for y in red:
            if x.source == y.range:
                blue_red.setdefault((x.range, y.source), []).append((x.eid, y.eid))
            if y.source == x.range:
                red_blue.setdefault((y.range, x.source), []).append((y.eid, x.eid))
    squares = []
    for ends_key, lefts in blue_red.items():
        rights = list(red_blue[ends_key])
        rng.shuffle(rights)
        squares += [Square(left, right) for left, right in zip(lefts, rights)]
    edges = blue + red
    rng.shuffle(edges)
    return validate_kgraph(2, vertices, edges, squares, name="random")


def random_graph(rng, k):
    g = random_two_graph(rng)
    if k == 3:
        vertices = [f"w{i}" for i in range(rng.randint(1, 2))]
        factor = validate_kgraph(1, vertices, random_one_graph(rng, vertices, "f"), [])
        g = build_product(g, factor)
    return g


def random_walk(rng, g, length):
    """Random composable edge-id sequence of the given length, any colors."""
    into = {}
    for e in g.edges:
        into.setdefault(e.range, []).append(e)
    cur = rng.choice(g.vertices)
    ids = []
    for _ in range(length):
        e = rng.choice(into[cur])
        ids.append(e.eid)
        cur = e.source
    return ids


def random_degree_below(rng, n):
    return tuple(rng.randint(0, c) for c in n)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_canonicalize_matches_bubble_reference(k, seed):
    rng = random.Random(seed)
    g = random_graph(rng, k)
    for _ in range(200):
        ids = random_walk(rng, g, rng.randint(1, 8))
        assert g._canonicalize(ids) == reference_canonicalize(g, ids)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_factorize_compose_roundtrip_random(k, seed):
    rng = random.Random(100 + seed)
    g = random_graph(rng, k)
    for _ in range(100):
        p = g.path(random_walk(rng, g, rng.randint(1, 7)))
        head, tail = g.factorize(p, random_degree_below(rng, p.degree))
        assert g.compose(head, tail) == p


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_lambda_min_matches_enumeration_reference(k, seed):
    rng = random.Random(200 + seed)
    g = random_graph(rng, k)
    hits = 0
    for _ in range(100):
        # two prefixes of one path have a common extension; random pairs mostly not
        z = g.path(random_walk(rng, g, rng.randint(1, 6)))
        p = g.factorize(z, random_degree_below(rng, z.degree))[0]
        if rng.random() < 0.5:
            q = g.factorize(z, random_degree_below(rng, z.degree))[0]
        else:
            q = g.path(random_walk(rng, g, rng.randint(1, 4)))
        pairs = g.lambda_min(p, q)
        assert pairs == reference_lambda_min(g, p, q)
        hits += bool(pairs)
    assert hits > 0


def random_chain(rng, n, length):
    """Random ascending chain of `length` cut degrees inside n."""
    chain = [(0,) * len(n)]
    for _ in range(length):
        step = random_degree_below(rng, deg_sub(n, chain[-1]))
        chain.append(deg_add(chain[-1], step))
    return chain[1:]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_split_matches_pop_color_reference(k, seed):
    rng = random.Random(300 + seed)
    g = random_graph(rng, k)
    for _ in range(100):
        p = g.path(random_walk(rng, g, rng.randint(1, 8)))
        cuts = random_chain(rng, p.degree, rng.randint(0, 3))
        # peel the pieces off p one reference factorization at a time
        rest, done = p, (0,) * k
        for piece, m in zip(g.split(p, cuts), cuts + [p.degree]):
            head, rest = reference_factorize(g, rest, deg_sub(m, done))
            assert piece == head
            done = m
        assert rest == g.vertex_path(g.s(p))
        m = random_degree_below(rng, p.degree)
        assert g.factorize(p, m) == reference_factorize(g, p, m)
        m, n = random_chain(rng, p.degree, 2)
        tail = reference_factorize(g, p, m)[1]
        assert g.segment(p, m, n) == reference_factorize(g, tail, deg_sub(n, m))[0]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_strip_prefix_matches_pop_color_reference(k, seed):
    rng = random.Random(400 + seed)
    g = random_graph(rng, k)
    hits = 0
    for _ in range(100):
        p = g.path(random_walk(rng, g, rng.randint(1, 7)))
        if rng.random() < 0.5:
            lam = reference_factorize(g, p, random_degree_below(rng, p.degree))[0]
        else:
            lam = g.path(random_walk(rng, g, rng.randint(1, 4)))
        tail = g.strip_prefix(p, lam)
        assert tail == reference_strip_prefix(g, p, lam)
        if tail is not None:
            assert g.compose(lam, tail) == p
            hits += 1
    assert hits > 0


def test_split_rejects_cuts_outside_an_ascending_chain():
    g = builtin_graph("exonevtwoe")
    p = g.enumerate_paths((2, 2))[0]
    for cuts in ([(1, 1), (1, 0)], [(3, 0)], [(-1, 0)], [(1, 1), (2, 3)]):
        with pytest.raises(DegreeOutOfRange):
            g.split(p, cuts)


# -- shift windows -------------------------------------------------------------------


def reference_orbit_windows(k, dx, dy, depth):
    """The shift loop of orbit_equal before shift_windows."""
    out = []
    grid = degrees_up_to(k, depth)
    for m in grid:
        if not deg_le(m, dx):
            continue
        for n in grid:
            if not deg_le(n, dy):
                continue
            wx = deg_sub(dx, m)
            wy = deg_sub(dy, n)
            w = tuple(min(a, b) for a, b in zip(wx, wy))
            if not all(c >= 1 for c in w):
                continue
            out.append((m, n, w))
    return out


def reference_period_windows(k, d, bound):
    """The shift loop of prefix_has_period before shift_windows."""
    out = []
    grid = degrees_up_to(k, bound)
    for m in grid:
        for n in grid:
            if m <= n:
                continue
            w = deg_sub(d, deg_join(m, n))
            if not all(c >= 1 for c in w):
                continue
            out.append((m, n, w))
    return out


def reference_probe_windows(k, depth):
    """The pair loop of KGraph.periodicity_probe before shift_windows."""
    dd = (depth,) * k
    grid = degrees_up_to(k, depth)
    pairs = []
    for m in grid:
        for n in grid:
            if m == n or m < n:
                continue
            w = deg_sub(dd, deg_join(m, n))
            if all(c >= 1 for c in w):
                pairs.append((m, n, w))
    return pairs


def shift_window_graphs():
    graphs = [builtin_graph(name) for name in ALL_BUILTINS]
    for seed in range(4):
        for k in (2, 3):
            graphs.append(random_graph(random.Random(500 + seed), k))
    return graphs


def test_shift_windows_match_the_three_old_loops():
    rng = random.Random(7)
    windows = 0
    for g in shift_window_graphs():
        k = g.k
        for depth in range(4):
            dd = (depth,) * k
            later = [t for t in shift_windows(dd, dd, depth) if t[0] > t[1]]
            assert later == reference_probe_windows(k, depth)
        for _ in range(12):
            x = g.path(random_walk(rng, g, rng.randint(1, 7)))
            y = g.path(random_walk(rng, g, rng.randint(1, 7)))
            bound = rng.randint(0, 3)
            got = list(shift_windows(x.degree, y.degree, bound))
            assert got == reference_orbit_windows(k, x.degree, y.degree, bound)
            windows += len(got)
            later = [t for t in shift_windows(x.degree, x.degree, bound) if t[0] > t[1]]
            assert later == reference_period_windows(k, x.degree, bound)
    assert windows > 0


# -- path blocks against the depth-first enumeration ---------------------------


def reference_enumerate_paths(g, n, v=None):
    """Depth-first enumeration: roots in vertex order, then the edges at each
    step in declaration order (how enumerate_paths worked before blocks)."""
    roots = [v] if v is not None else list(g.vertices)
    colors = []
    for color in range(1, g.k + 1):
        colors.extend([color] * n[color - 1])
    out = []
    for root in roots:
        if not colors:
            out.append(g.vertex_path(root))
            continue
        stack = [(root, [])]
        while stack:
            cur, acc = stack.pop()
            depth = len(acc)
            if depth == len(colors):
                out.append(Path(root, tuple(acc), n))
                continue
            for e in reversed(g.edges_from(cur, colors[depth])):
                stack.append((e.source, acc + [e.eid]))
    return out


def random_double(rng, tag):
    vertices = [f"{tag}{i}" for i in range(rng.randint(1, 3))]
    return build_double(validate_kgraph(1, vertices, random_one_graph(rng, vertices, tag), []))


def block_graphs():
    """(label, graph, bound): every builtin, seeded random 2- and 3-graphs,
    and 4-graphs built as products of two 2-graphs."""
    out = [(name, builtin_graph(name), 3) for name in BUILTIN_GRAPH_NAMES]
    for seed in range(6):
        for k in (2, 3):
            out.append((f"random{k}-{seed}", random_graph(random.Random(seed), k), 3))
    for seed in range(3):
        rng = random.Random(900 + seed)
        out.append((f"random2xrandom2-{seed}", build_product(random_two_graph(rng), random_two_graph(rng)), 1))
        rng = random.Random(950 + seed)
        out.append((f"doublexdouble-{seed}", build_product(random_double(rng, "a"), random_double(rng, "c")), 1))
    kawamura, loop = (build_double(builtin_graph(n)) for n in ("kawamura", "exonevthreeed"))
    out.append(("double-kawamura x double-exonevthreeed", build_product(kawamura, loop), 1))
    return out


BLOCK_GRAPHS = block_graphs()
BLOCK_IDS = [label for label, _, _ in BLOCK_GRAPHS]


@pytest.mark.parametrize("label, g, bound", BLOCK_GRAPHS, ids=BLOCK_IDS)
def test_blocks_match_depth_first_reference(label, g, bound):
    for m in deg_grid(g.k, bound):
        assert g.block(m) == reference_enumerate_paths(g, m)
        for v in g.vertices:
            assert g.enumerate_paths(m, v) == reference_enumerate_paths(g, m, v)
    assert g.enumerate_paths((1,) * g.k) is g.block((1,) * g.k)


@pytest.mark.parametrize("label, g, bound", BLOCK_GRAPHS, ids=BLOCK_IDS)
def test_glue_tables_match_compose(label, g, bound):
    # One-edge tables, the square lookups, on every head degree up to the bound,
    # so the blocks one edge past it are checked too.
    entries = swapped = 0
    for n in deg_grid(g.k, bound):
        heads = g.block(n)
        for c in range(1, g.k + 1):
            top = g.block(deg_add(n, deg_unit(g.k, c)))
            off, out = g.glue(n, deg_unit(g.k, c))
            assert len(off) == len(heads) + 1 and off[0] == 0 and off[-1] == len(out) == len(top)
            for a, lam in enumerate(heads):
                want = [g.compose(lam, g.edge_path(e.eid)) for e in g.edges_from(g.s(lam), c)]
                assert [top[j] for j in out[off[a]:off[a + 1]]] == want
                assert g.extensions(lam, c) == want
                entries += len(want)
                swapped += sum(p.edges[:-1] != lam.edges for p in want)
    assert entries > 0
    if g.k > 1:
        assert swapped > 0  # some extension moved its edge through a square
    # Every pair of degrees; 3-graphs stop at (2,2,2).
    bound = min(bound, 2) if g.k == 3 else bound
    entries = swapped = 0
    for m in deg_grid(g.k, bound):
        top = g.block(m)
        for n in deg_grid(g.k, bound):
            if not deg_le(n, m):
                continue
            r = deg_sub(m, n)
            off, out = g.glue(n, r)
            heads, tails = g.block(n), g.block(r)
            assert len(off) == len(heads) + 1 and off[0] == 0 and off[-1] == len(top)
            assert sorted(out) == list(range(len(top)))  # each path is one product
            for a, lam in enumerate(heads):
                run = g.run(r, g.s(lam))
                assert [tails[t] for t in run] == g.enumerate_paths(r, g.s(lam))
                assert off[a + 1] - off[a] == len(run)
                for t in run:
                    want = g.compose(lam, tails[t])
                    assert top[out[off[a] + t - run.start]] == want
                    entries += 1
                    swapped += want.edges[: len(lam.edges)] != lam.edges
    assert entries > 0
    if g.k > 1:
        assert swapped > 0  # some product moved its tail's edges through squares


@pytest.mark.parametrize("label, g, bound", BLOCK_GRAPHS, ids=BLOCK_IDS)
def test_cut_and_index_match_split(label, g, bound):
    bound = min(bound, 2) if g.k == 3 else bound
    pairs = swapped = 0
    for m in deg_grid(g.k, bound):
        blk = g.block(m)
        assert [g.index(p) for p in blk] == list(range(len(blk)))
        for n in deg_grid(g.k, bound):
            if not deg_le(n, m):
                with pytest.raises(DegreeOutOfRange):
                    g.cut(m, n)
                continue
            heads, tails = g.cut(m, n)
            assert len(heads) == len(tails) == len(blk)
            first, rest = g.block(n), g.block(deg_sub(m, n))
            for j, p in enumerate(blk):
                head, tail = first[heads[j]], rest[tails[j]]
                assert [head, tail] == g.split(p, [n])
                pairs += 1
                swapped += head.edges != p.edges[: len(head.edges)]
    assert pairs > 0
    if g.k > 1:
        assert swapped > 0  # some head is not a prefix of the canonical edge list
