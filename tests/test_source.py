"""Source rules for the package, checked on the syntax trees of its modules."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kgraph_lab"
BROAD = {"Exception", "BaseException"}


def broad_handlers(source):
    """Line numbers of bare `except:` clauses and of handlers naming a broad class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(t, "id", getattr(t, "attr", None)) for t in types if t is not None}
        if node.type is None or names & BROAD:
            out.append(node.lineno)
    return out


@pytest.mark.parametrize(
    "clause",
    ["except:", "except Exception:", "except BaseException as exc:",
     "except (ValueError, Exception):", "except builtins.Exception:"],
)
def test_broad_handler_rule_sees_each_form(clause):
    assert broad_handlers(f"try:\n    pass\n{clause}\n    pass\n") == [3]
    assert broad_handlers("try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n") == []


def test_no_broad_exception_handlers_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {m.name: broad_handlers(m.read_text()) for m in modules}
    assert not {name: lines for name, lines in found.items() if lines}


# catalog.builtin_sbfs imports sbfs, which imports catalog at module level;
# that cycle is the one reason for a sibling import inside a function
CYCLE_IMPORTS = {("catalog.py", "builtin_sbfs", "sbfs")}


def function_level_relative_imports(source):
    """(function, module) for each relative import inside a function body."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                out.add((fn.name, node.module or node.names[0].name))
    return out


def test_function_level_import_rule_sees_each_form():
    found = function_level_relative_imports(
        "from .kgraph import Path\n"
        "import json\n"
        "def f():\n    from .intervals import Box\n"
        "def g():\n    from . import sbfs as _sbfs\n"
        "class C:\n    def h(self):\n        import math\n        from ..x import y\n"
    )
    assert found == {("f", "intervals"), ("g", "sbfs"), ("h", "x")}


def test_function_level_imports_only_close_cycles():
    found = {
        (m.name, fn, mod)
        for m in sorted(PACKAGE.glob("*.py"))
        for fn, mod in function_level_relative_imports(m.read_text())
    }
    assert found == CYCLE_IMPORTS


def eager_numpy_imports(source):
    """Line numbers of numpy imports that run when the module is imported:
    every one outside a function body."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                out.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return out


@pytest.mark.parametrize(
    "statement",
    ["import numpy", "import numpy as np", "import numpy.linalg", "from numpy import linalg",
     "import json, numpy", "if True:\n    import numpy", "class C:\n    import numpy as np"],
)
def test_eager_numpy_rule_sees_each_form(statement):
    assert eager_numpy_imports(f"import json\n{statement}\n") == [1 + statement.count("\n") + 1]
    assert eager_numpy_imports("def f():\n    import numpy as np\n    return np\n") == []
    assert eager_numpy_imports("import numpyish\nfrom .numpy import x\n") == []


def test_numpy_is_imported_only_where_float_algebra_runs():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {m.name: eager_numpy_imports(m.read_text()) for m in modules}
    assert not {name: lines for name, lines in found.items() if lines}


PATH_ALGEBRA = {"compose", "lambda_min", "strip_prefix", "split", "factorize"}
VALUE_READS = {"value", "ratio", "quotient"}


def attribute_calls(source, owner, names):
    """(function, called name) for each call of a method in names inside owner:
    the methods of the class named owner, or the function named owner."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == owner:
            fns = node.body
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == owner:
            fns = [node]
        else:
            continue
        for fn in fns:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr in names):
                    out.add((fn.name, call.func.attr))
    return out


def path_algebra_calls(source, cls):
    """(method, called name) for each path-algebra method call in the body of class cls."""
    return attribute_calls(source, cls, PATH_ALGEBRA)


def test_path_algebra_rule_sees_each_form():
    source = (
        "class StandardRep:\n"
        "    def f(self, g, p, q):\n        return g.compose(p, q)\n"
        "    def h(self, p, q):\n        return [a for a, _ in self.graph.lambda_min(p, q)]\n"
        "    def ok(self, g, p):\n        return g.cut(p.degree, p.degree), g.index(p)\n"
        "class KPRep(StandardRep):\n"
        "    def label(self, p, q):\n        return self.graph.strip_prefix(p, q)\n"
    )
    assert path_algebra_calls(source, "StandardRep") == {("f", "compose"), ("h", "lambda_min")}
    assert path_algebra_calls(source, "KPRep") == {("label", "strip_prefix")}


def test_standard_rep_tables_use_no_path_algebra():
    # every StandardRep table is a read of KGraph.glue runs
    source = (PACKAGE / "operators.py").read_text()
    assert "class StandardRep" in source
    assert path_algebra_calls(source, "StandardRep") == set()


# the per-label actions of FaithfulRep: the reference its tables are tested against
FAITHFUL_LABEL_ACTIONS = {"forward_label", "adjoint_label", "_reduce", "encoding_prefix"}


def test_faithful_rep_tables_use_no_path_algebra():
    # the constructor's reducedness test and both tables read KGraph.glue and KGraph.cut tables
    source = (PACKAGE / "operators.py").read_text()
    assert "class FaithfulRep" in source
    calls = path_algebra_calls(source, "FaithfulRep")
    assert {fn for fn, _ in calls} == FAITHFUL_LABEL_ACTIONS


def test_value_read_rule_sees_each_form():
    source = (
        "def check_consistency(m, p):\n    return m.value(p) + m.values(p.degree)[0]\n"
        "class StandardRep:\n"
        "    def weight(self, p):\n        return self.measure.value(p)\n"
        "    def t(self, p, q):\n        return self.measure.ratio(p, q), self.measure.quotient(p, q)\n"
    )
    assert attribute_calls(source, "check_consistency", VALUE_READS) == {("check_consistency", "value")}
    assert attribute_calls(source, "StandardRep", VALUE_READS) == {
        ("weight", "value"), ("t", "ratio"), ("t", "quotient")}


def test_block_readers_take_values_by_index():
    # per-path reads are for single paths; block readers index values(m)
    measures = (PACKAGE / "measures.py").read_text()
    for fn in ("check_consistency", "measure_table"):
        assert "def " + fn in measures
        assert attribute_calls(measures, fn, VALUE_READS) == set()
    operators = (PACKAGE / "operators.py").read_text()
    assert attribute_calls(operators, "StandardRep", VALUE_READS) == {("weight", "value")}
    assert attribute_calls(operators, "KPRep", VALUE_READS) == set()


# the KGraph methods that number paths and index them through glue tables
INDEX_LAYER = {"enumerate_paths", "block", "_ends", "glue", "run", "cut", "index"}


def index_layer_sorts(source):
    """(method, name) for each sort or bisect call in the index layer of class
    KGraph, and ("<module>", "bisect") for each import of the bisect module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "bisect" for module in modules):
            out.add(("<module>", "bisect"))
        if not (isinstance(node, ast.ClassDef) and node.name == "KGraph"):
            continue
        for fn in node.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in INDEX_LAYER):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "id", getattr(call.func, "attr", ""))
                    if name in ("sorted", "sort") or name.startswith(("bisect", "insort")):
                        out.add((fn.name, name))
    return out


def replaced_table_calls(source):
    """Line numbers of calls of the tables glue replaced: .rows(...), .fan(...)
    and the two-argument .extend(m, c); list and array extend take one argument."""
    out = []
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            attr, args = call.func.attr, len(call.args) + len(call.keywords)
            if attr in ("rows", "fan") or (attr == "extend" and args == 2):
                out.append(call.lineno)
    return sorted(out)


def test_index_layer_rules_see_each_form():
    # the forms the index layer and its callers took before glue
    source = (
        "from bisect import bisect_left, bisect_right\n"
        "class KGraph:\n"
        "    def enumerate_paths(self, n, v):\n        return bisect_left(h, v), bisect.bisect_right(h, v)\n"
        "    def cut(self, m, n):\n        return sorted(range(3), key=abs)\n"
        "    def index(self, p):\n        self._orders.sort()\n"
        "    def periodicity_probe(self, v, depth):\n        return sorted(v)\n"
        "def f(g, a):\n    return sorted(a)\n"
    )
    assert index_layer_sorts(source) == {
        ("<module>", "bisect"), ("enumerate_paths", "bisect_left"),
        ("enumerate_paths", "bisect_right"), ("cut", "sorted"), ("index", "sort")}
    assert index_layer_sorts("import bisect as b\n") == {("<module>", "bisect")}
    calls = (
        "forward = dict(g.rows(up, n, g.index(lam)))\n"
        "fan, ext = g.fan(m, c), g.extend(m, c)\n"
        "out.extend(pieces)\n"
        "flat.extend(step[a:b])\n"
        "w = self.graph.extend(m, c=1)\n"
    )
    assert replaced_table_calls(calls) == [1, 2, 2, 5]


def test_index_layer_reads_glue_tables_only():
    source = (PACKAGE / "kgraph.py").read_text()
    methods = {fn.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == "KGraph"
               for fn in node.body if isinstance(fn, ast.FunctionDef)}
    assert INDEX_LAYER <= methods
    assert not methods & {"rows", "fan", "extend"}
    assert index_layer_sorts(source) == set()
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {m.name: replaced_table_calls(m.read_text()) for m in modules}
    assert not {name: lines for name, lines in found.items() if lines}
