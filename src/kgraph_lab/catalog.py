"""Built-in example graphs and interval systems, each declared once.

Names follow the CLI interface: exonevthreeed, exonevtwoe, noncstrn,
ex3v8e, kawamura:a=p/q, double-kawamura, product-kawamura,
lambda2N:N=..,perm=..., plus "ehfg" (a periodic 2-graph with a single
infinite path per vertex).

``BUILTINS`` has one entry per base name: its parameter keys with their
defaults and one builder.  A builtin with an interval system builds that
system, and ``builtin_graph`` returns the system's graph, so every
command converts and range-checks a parameter by the same code;
``lambda2N`` and ``ehfg`` have no interval system and build the graph.
"""

from fractions import Fraction

from .errors import InvalidPermutation, ParameterOutOfRange, UsageError
from .intervals import Box, IntervalUnion
from .kgraph import Edge, Square, build_lambda2N, validate_kgraph
from .records import Record
from .sbfs import Affine1D, IntervalSBFS, Skew2D, lift_double_sbfs, lift_product_sbfs


def _parsed(convert, text, key):
    """convert(text) for parameter key; bad text is a ParameterOutOfRange."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterOutOfRange(f"bad {key} value {text!r}") from exc


def _exonevthreeed():
    # 1-graph: loop f1 at v1, edge f2 from v2 to v1, loop f3 at v2
    edges = [
        Edge("f1", 1, "v1", "v1"),
        Edge("f2", 1, "v2", "v1"),
        Edge("f3", 1, "v2", "v2"),
    ]
    g = validate_kgraph(1, ["v1", "v2"], edges, [], name="exonevthreeed")
    half = Fraction(1, 2)
    domains = {
        "v1": IntervalUnion.interval(0, half),
        "v2": IntervalUnion.interval(half, 1),
    }
    edge_maps = {
        "f1": Affine1D(-half, half),
        "f2": Affine1D(-half, half),
        "f3": Affine1D(1, 0),
    }
    return IntervalSBFS(g, domains, edge_maps, "exonevthreeed")


def _one_vertex_two_blue(name):
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
    return validate_kgraph(2, ["v"], edges, squares, name=name)


def _exonevtwoe():
    domains = {"v": IntervalUnion.interval(0, 1)}
    edge_maps = {
        "f1": Affine1D(Fraction(-1, 2), Fraction(1, 2)),
        "f2": Affine1D(Fraction(-1, 2), Fraction(1)),
        "e": Affine1D(Fraction(-1), Fraction(1)),
    }
    return IntervalSBFS(_one_vertex_two_blue("exonevtwoe"), domains, edge_maps, "exonevtwoe")


def _noncstrn():
    # the exonevtwoe graph on the unit square, with a nonconstant RN derivative
    unit = IntervalUnion.interval(0, 1)
    domains = {"v": Box(unit, unit)}
    one = Fraction(1)
    edge_maps = {
        # (x, y) -> (x, x + y - x y)
        "f1": Skew2D.make(1, 0, {(1, 0): one, (0, 1): one, (1, 1): -one}),
        # (x, y) -> (x, x y)
        "f2": Skew2D.make(1, 0, {(1, 1): one}),
        # (x, y) -> (1 - x, 1 - y)
        "e": Skew2D.make(-1, 1, {(0, 0): one, (0, 1): -one}),
    }
    return IntervalSBFS(_one_vertex_two_blue("noncstrn"), domains, edge_maps, "noncstrn")


def _ex3v8e():
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
    g = validate_kgraph(2, ["u", "v", "w"], edges, squares, name="ex3v8e")
    third = Fraction(1, 3)
    domains = {
        "u": IntervalUnion.interval(0, third),
        "v": IntervalUnion.interval(third, 2 * third),
        "w": IntervalUnion.interval(2 * third, 1),
    }
    edge_maps = {
        "a0": Affine1D(Fraction(1), -third),
        "a1": Affine1D(Fraction(1), third),
        "c0": Affine1D(Fraction(1, 2), Fraction(1, 2)),
        "c1": Affine1D(Fraction(1, 2), Fraction(0)),
        "d0": Affine1D(Fraction(-1), 2 * third),
        "d1": Affine1D(Fraction(-1), 4 * third),
        "b0": Affine1D(Fraction(-1, 2), Fraction(1, 2)),
        "b1": Affine1D(Fraction(-1, 2), Fraction(1)),
    }
    return IntervalSBFS(g, domains, edge_maps, "ex3v8e")


def system_kawamura(a):
    """The Kawamura system with parameter a in (0, 1), a Fraction or its text."""
    a = _parsed(Fraction, a, "a")
    if not 0 < a < 1:
        raise ParameterOutOfRange(f"a = {a} outside (0, 1)")
    # 1-graph with vertex matrix [[1,1],[1,0]]: loop e at v, f: v->w, g: w->v
    edges = [
        Edge("e", 1, "v", "v"),
        Edge("f", 1, "v", "w"),
        Edge("g", 1, "w", "v"),
    ]
    g = validate_kgraph(1, ["v", "w"], edges, [], name="kawamura")
    domains = {
        "v": IntervalUnion.interval(0, a),
        "w": IntervalUnion.interval(a, 1),
    }
    edge_maps = {
        "e": Affine1D(Fraction(1, 2), Fraction(0)),
        "f": Affine1D((1 - a) / a, a),
        "g": Affine1D(-a / (2 * (a - 1)), a * (2 * a - 1) / (2 * (a - 1))),
    }
    return IntervalSBFS(g, domains, edge_maps, f"kawamura(a={a})")


def _product_kawamura(a):
    sys1 = system_kawamura(a)
    return lift_product_sbfs(sys1, sys1)


def _lambda2N(N, perm):
    n_half = _parsed(int, N, "N")
    if n_half < 1:
        raise ParameterOutOfRange(f"N must be positive, got {n_half}")
    if perm is None:
        # default: transposition within each pair (2i-1, 2i)
        images = [j for i in range(1, n_half + 1) for j in (2 * i, 2 * i - 1)]
    else:
        images = [_parsed(int, x, "perm") for x in perm.split(";")]
    return build_lambda2N(n_half, images)


def _ehfg():
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


class Builtin(Record):
    """A base name's parameters, key -> default text (None: no default), and
    its builder, called with the parameter texts as keywords.  With system
    the builder returns an IntervalSBFS, whose graph is the builtin graph;
    without, it returns the KGraph."""

    defaults: dict
    build: object
    system: bool


BUILTINS = {
    "exonevthreeed": Builtin({}, _exonevthreeed, True),
    "exonevtwoe": Builtin({}, _exonevtwoe, True),
    "noncstrn": Builtin({}, _noncstrn, True),
    "ex3v8e": Builtin({}, _ex3v8e, True),
    "kawamura": Builtin({"a": "1/2"}, system_kawamura, True),
    "double-kawamura": Builtin({"a": "1/2"}, lambda a: lift_double_sbfs(system_kawamura(a)), True),
    "product-kawamura": Builtin({"a": "1/2"}, _product_kawamura, True),
    "lambda2N": Builtin({"N": "1", "perm": None}, _lambda2N, False),
    "ehfg": Builtin({}, _ehfg, False),
}


def parse_builtin_name(name):
    """Split 'kawamura:a=1/2' style names into (base, params).  A key that the
    builtin does not take, or that repeats, is a usage error."""
    base, _, rest = name.partition(":")
    entry = BUILTINS.get(base)
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        if entry is not None and (key not in entry.defaults or key in params):
            problem = "repeated" if key in params else "unknown"
            takes = ", ".join(entry.defaults) or "none"
            raise UsageError(f"builtin {name!r}: {problem} key {key!r}; {base} takes: {takes}")
        params[key] = val.strip()
    return base, params


def _built(entry, name, params):
    """What entry's builder makes of the parameters of builtin name; a bad
    parameter is a usage error."""
    try:
        return entry.build(**{**entry.defaults, **params})
    except (ParameterOutOfRange, InvalidPermutation) as exc:
        raise UsageError(f"builtin {name!r}: {exc}") from exc


def builtin_graph(name):
    base, params = parse_builtin_name(name)
    entry = BUILTINS.get(base)
    if entry is None:
        raise UsageError(
            f"unknown builtin graph {name!r}; known: {', '.join(BUILTIN_GRAPH_NAMES)}"
        )
    built = _built(entry, name, params)
    return built.graph if entry.system else built


def builtin_sbfs(name):
    """Interval semibranching system for a builtin name (see sbfs module)."""
    base, params = parse_builtin_name(name)
    entry = BUILTINS.get(base)
    if entry is None or not entry.system:
        raise UsageError(
            f"no builtin interval system named {name!r}; "
            f"known: {', '.join(BUILTIN_SBFS_NAMES)}"
        )
    return _built(entry, name, params)


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
