"""Built-in example graphs and interval systems.

Names follow the CLI interface: exonevthreeed, exonevtwoe, noncstrn,
ex3v8e, kawamura:a=p/q, double-kawamura, product-kawamura,
lambda2N:N=..,perm=..., plus "ehfg" (a periodic 2-graph with a single
infinite path per vertex).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidPermutation, ParameterOutOfRange, UsageError
from .kgraph import Edge, Square, build_double, build_lambda2N, build_product, validate_kgraph


def _two_vertex_three_edge():
    # 1-graph: loop f1 at v1, edge f2 from v2 to v1, loop f3 at v2
    edges = [
        Edge("f1", 1, "v1", "v1"),
        Edge("f2", 1, "v2", "v1"),
        Edge("f3", 1, "v2", "v2"),
    ]
    return validate_kgraph(1, ["v1", "v2"], edges, [], name="exonevthreeed")


def _one_vertex_two_blue():
    # 2-graph: one vertex, blue loops f1, f2, red loop e;
    # squares f1.e = e.f2 and e.f1 = f2.e
    edges = [
        Edge("f1", 1, "v", "v"),
        Edge("f2", 1, "v", "v"),
        Edge("e", 2, "v", "v"),
    ]
    squares = [
        Square(("f1", "e"), ("e", "f2")),
        Square(("f2", "e"), ("e", "f1")),
    ]
    return validate_kgraph(2, ["v"], edges, squares, name="exonevtwoe")


def _three_vertex_eight_edge():
    # 2-graph on u, v, w: blue a0, a1, c0, c1 and red b0, b1, d0, d1
    edges = [
        Edge("a0", 1, "v", "u"),
        Edge("a1", 1, "v", "w"),
        Edge("c0", 1, "u", "v"),
        Edge("c1", 1, "w", "v"),
        Edge("b0", 2, "u", "v"),
        Edge("b1", 2, "w", "v"),
        Edge("d0", 2, "v", "u"),
        Edge("d1", 2, "v", "w"),
    ]
    squares = [
        Square(("a0", "b0"), ("d0", "c0")),
        Square(("a1", "b1"), ("d1", "c1")),
        Square(("a1", "b0"), ("d1", "c0")),
        Square(("a0", "b1"), ("d0", "c1")),
        Square(("c0", "d0"), ("b1", "a1")),
        Square(("c1", "d1"), ("b0", "a0")),
    ]
    return validate_kgraph(2, ["u", "v", "w"], edges, squares, name="ex3v8e")


def _kawamura_graph():
    # 1-graph with vertex matrix [[1,1],[1,0]]: loop e at v, f: v->w, g: w->v
    edges = [
        Edge("e", 1, "v", "v"),
        Edge("f", 1, "v", "w"),
        Edge("g", 1, "w", "v"),
    ]
    return validate_kgraph(1, ["v", "w"], edges, [], name="kawamura")


def _periodic_ehfg():
    # 2-graph on u, v with eh = hf and fg = ge; one infinite path per vertex
    edges = [
        Edge("e", 1, "u", "u"),
        Edge("f", 1, "v", "v"),
        Edge("h", 2, "v", "u"),
        Edge("g", 2, "u", "v"),
    ]
    squares = [
        Square(("e", "h"), ("h", "f")),
        Square(("f", "g"), ("g", "e")),
    ]
    return validate_kgraph(2, ["u", "v"], edges, squares, name="ehfg")


# the parameter keys each builtin takes
BUILTIN_KEYS = {"exonevthreeed": (), "exonevtwoe": (), "noncstrn": (), "ex3v8e": (), "ehfg": (),
                "kawamura": ("a",), "double-kawamura": ("a",), "product-kawamura": ("a",),
                "lambda2N": ("N", "perm")}


def parse_builtin_name(name):
    """Split 'kawamura:a=1/2' style names into (base, params).  A key that the
    builtin does not take, or that repeats, is a usage error."""
    base, _, rest = name.partition(":")
    keys = BUILTIN_KEYS.get(base)
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        if keys is not None and (key not in keys or key in params):
            problem = "repeated" if key in params else "unknown"
            takes = ", ".join(keys) or "none"
            raise UsageError(f"builtin {name!r}: {problem} key {key!r}; {base} takes: {takes}")
        params[key] = val.strip()
    return base, params


def _parsed(convert, text, key, name):
    """convert(text) for parameter key of builtin name; bad text is a usage error."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"builtin {name!r}: bad {key} value {text!r}") from exc


def builtin_graph(name):
    base, params = parse_builtin_name(name)
    if base == "exonevthreeed":
        return _two_vertex_three_edge()
    if base in ("exonevtwoe", "noncstrn"):
        g = _one_vertex_two_blue()
        if base == "noncstrn":
            g.name = "noncstrn"
        return g
    if base == "ex3v8e":
        return _three_vertex_eight_edge()
    if base == "kawamura":
        return _kawamura_graph()
    if base == "double-kawamura":
        return build_double(_kawamura_graph())
    if base == "product-kawamura":
        g = _kawamura_graph()
        return build_product(g, g)
    if base == "lambda2N":
        n_half = _parsed(int, params.get("N", "1"), "N", name)
        if n_half < 1:
            raise UsageError(f"builtin {name!r}: N must be positive, got {n_half}")
        if "perm" in params:
            perm = [_parsed(int, x, "perm", name) for x in params["perm"].split(";")]
        else:
            # default: transposition within each pair (2i-1, 2i)
            perm = []
            for i in range(1, n_half + 1):
                perm.extend([2 * i, 2 * i - 1])
        try:
            return build_lambda2N(n_half, perm)
        except InvalidPermutation as exc:
            raise UsageError(f"builtin {name!r}: {exc}") from exc
    if base == "ehfg":
        return _periodic_ehfg()
    raise UsageError(
        f"unknown builtin graph {name!r}; known: {', '.join(BUILTIN_GRAPH_NAMES)}"
    )


def builtin_sbfs(name):
    """Interval semibranching system for a builtin name (see sbfs module)."""
    from . import sbfs as _sbfs

    base, params = parse_builtin_name(name)
    if base == "exonevthreeed":
        return _sbfs.system_two_vertex_three_edge()
    if base == "exonevtwoe":
        return _sbfs.system_one_vertex_two_blue()
    if base == "noncstrn":
        return _sbfs.system_nonconstant_rn()
    if base == "ex3v8e":
        return _sbfs.system_three_vertex_eight_edge()
    if base in ("kawamura", "double-kawamura", "product-kawamura"):
        a = _parsed(Fraction, params.get("a", "1/2"), "a", name)
        try:
            sys1 = _sbfs.system_kawamura(a)
        except ParameterOutOfRange as exc:
            raise UsageError(f"builtin {name!r}: {exc}") from exc
        if base == "double-kawamura":
            return _sbfs.lift_double_sbfs(sys1)
        if base == "product-kawamura":
            return _sbfs.lift_product_sbfs(sys1, sys1)
        return sys1
    raise UsageError(
        f"no builtin interval system named {name!r}; "
        f"known: {', '.join(BUILTIN_SBFS_NAMES)}"
    )


BUILTIN_GRAPH_NAMES = [
    "exonevthreeed",
    "exonevtwoe",
    "noncstrn",
    "ex3v8e",
    "kawamura",
    "double-kawamura",
    "product-kawamura",
    "lambda2N:N=1",
    "lambda2N:N=2",
    "ehfg",
]

BUILTIN_SBFS_NAMES = [
    "exonevthreeed",
    "exonevtwoe",
    "noncstrn",
    "ex3v8e",
    "kawamura:a=1/2",
    "double-kawamura",
    "product-kawamura",
]
