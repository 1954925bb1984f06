"""Source rules for the package, checked on the syntax trees of its modules."""

import ast
import builtins
import collections
import math
import os
import pathlib
import subprocess
import sys

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


# a sibling import inside a function hides an import cycle or a load the
# module could do once at import time
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


def test_no_function_level_sibling_imports():
    found = {
        (m.name, fn, mod)
        for m in sorted(PACKAGE.glob("*.py"))
        for fn, mod in function_level_relative_imports(m.read_text())
    }
    assert found == set()


def imports_module(node, module):
    """Whether node is an absolute import of module or of one of its submodules."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == module for name in names)


def numpy_imports(source):
    """Line numbers of the numpy imports anywhere in source: at module level
    and inside classes, functions and methods, at any nesting."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if imports_module(node, "numpy"))


def numpy_imports_in(source, owners):
    """(owner, line) for each numpy import anywhere inside a top-level
    function or class named in owners, nested functions and methods included."""
    return {(node.name, inner.lineno) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in owners
            for inner in ast.walk(node) if imports_module(inner, "numpy")}


# the forms that run when a module is imported; a function-level import is seen too
@pytest.mark.parametrize(
    "statement",
    ["import numpy", "import numpy as np", "import numpy.linalg", "from numpy import linalg",
     "import json, numpy", "if True:\n    import numpy", "class C:\n    import numpy as np"],
)
def test_eager_numpy_rule_sees_each_form(statement):
    assert numpy_imports(f"import json\n{statement}\n") == [1 + statement.count("\n") + 1]
    assert numpy_imports("def f():\n    import numpy as np\n    return np\n") == [2]
    assert numpy_imports("import numpyish\nfrom .numpy import x\n") == []


def test_numpy_free_rule_sees_each_form():
    source = (
        "class Rep:\n"
        "    def unit_vector(self):\n        import numpy as np\n"
        "    def row(self):\n        if self:\n            from numpy import ones\n"
        "def _norm(op):\n    def step(v):\n        import numpy.linalg\n"
        "def other():\n    import numpyish\n    from .numpy import x\n"
    )
    assert numpy_imports(source) == [3, 6, 9]
    assert numpy_imports_in(source, {"Rep", "_norm", "other"}) == {("Rep", 3), ("Rep", 6),
                                                                  ("_norm", 9)}
    assert numpy_imports_in(source, {"other"}) == set()


# the package runs on the standard library alone: float algebra on numpy runs
# only in the tests, as the reference for masks, ranks and norms
def test_numpy_is_imported_only_where_float_algebra_runs():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {m.name: numpy_imports(m.read_text()) for m in modules}
    assert not {name: lines for name, lines in found.items() if lines}


# Perron data and stationary rows run in plain Python floats
NUMPY_FREE = {"pf_data", "_exact_pf", "_power_iteration", "_dot", "_matvec", "MarkovMeasureSpec"}


def test_perron_data_imports_no_numpy():
    source = (PACKAGE / "measures.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert NUMPY_FREE <= defined
    assert numpy_imports_in(source, NUMPY_FREE) == set()


# every CLI job is a fresh process, so what importing the package costs is paid
# per job: importing dataclasses loads inspect, and each @dataclass execs the
# source of its methods
def dataclasses_imports(source):
    """Line numbers of dataclasses imports anywhere in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if imports_module(node, "dataclasses")]


@pytest.mark.parametrize(
    "statement",
    ["import dataclasses", "import dataclasses as dc", "from dataclasses import dataclass",
     "from dataclasses import dataclass, field", "import json, dataclasses",
     "def f():\n    import dataclasses", "class C:\n    from dataclasses import field"],
)
def test_dataclasses_rule_sees_each_form(statement):
    assert dataclasses_imports(f"import json\n{statement}\n") == [2 + statement.count("\n")]
    assert dataclasses_imports("import dataclassesish\nfrom .dataclasses import x\n"
                               "from typing import NamedTuple\n") == []


def test_no_package_module_imports_dataclasses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {m.name: dataclasses_imports(m.read_text()) for m in modules}
    assert not {name: lines for name, lines in found.items() if lines}


# postponed annotations turn each record field's annotation into a string,
# and the statement itself loads __future__
def test_no_package_module_postpones_annotations():
    found = [m.name for m in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(m.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor argparse, nor the gettext that argparse imports
    script = ("import sys\nbefore = set(sys.modules)\nimport kgraph_lab.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'}"
              " & (set(sys.modules) - before)))\n")
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# importing argparse, or typing for NamedTuple, costs every CLI job
# milliseconds: the flags are read by one loop over FLAGS, and records.Record
# is the base of the records
SLOW_IMPORTS = ("typing", "argparse")


def slow_imports(source):
    """(line, module) for each typing or argparse import anywhere in source."""
    return [(node.lineno, module) for node in ast.walk(ast.parse(source))
            for module in SLOW_IMPORTS if imports_module(node, module)]


@pytest.mark.parametrize(
    "statement",
    ["import typing", "from typing import NamedTuple", "import argparse as ap",
     "from argparse import ArgumentParser", "import json, typing", "import typing.io",
     "def f():\n    import argparse", "class C:\n    from typing import Any"],
)
def test_typing_and_argparse_rule_sees_each_form(statement):
    found = slow_imports(f"import json\n{statement}\n")
    assert [line for line, _ in found] == [2 + statement.count("\n")]
    assert slow_imports("import typingish\nfrom .typing import x\nfrom . import argparse\n") == []


def test_no_package_module_imports_typing_or_argparse():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {m.name: slow_imports(m.read_text()) for m in modules}
    assert not {name: hits for name, hits in found.items() if hits}


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


# the integer-grid path of the monic probe: Fractions come back only in its result
GRID_PATH = {
    "sbfs.py": {"monic_probe", "grid_scale", "IntervalSBFS.range_words",
                "IntervalSBFS.on_grid", "GridAffine.image", "GridAffine.inverse"},
    "intervals.py": {"partition_atoms"},
}
PROBE_RESULTS = {"Monic", "NotMonic", "InconclusiveMonic"}


def fraction_constructions(source, names):
    """(function, line) for each Fraction(...) call in the bodies of the named
    functions ("f", or "C.m" for a method) outside a `return` of a probe result.
    Default argument values are not in the body and are not counted."""
    tree = ast.parse(source)
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    out = set()
    for name, fn in functions:
        if name not in names:
            continue
        allowed = set()
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "id", None) in PROBE_RESULTS):
                    allowed.update(map(id, ast.walk(node)))
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call) and id(node) not in allowed
                        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "Fraction"):
                    out.add((name, node.lineno))
    return out


def test_fraction_rule_sees_each_form():
    source = (
        "def monic_probe(sys, depth=4, resolution=Fraction(1, 32)):\n"
        "    a = Fraction(1)\n"
        "    b = fractions.Fraction(1, 2)\n"
        "    c = [Fraction(x) for x in sys]\n"
        "    if a:\n        return Fraction(0)\n"
        "    if b:\n        return NotMonic((Fraction(1, 2), Fraction(1)), ())\n"
        "    return Monic(depth, Fraction(resolution))\n"
        "def partition_atoms(domain, sets):\n"
        "    return sorted(Fraction(x) for x in sets)\n"
        "def other():\n    return Fraction(1)\n"
        "class GridAffine:\n"
        "    def image(self, union):\n        return [Fraction(x) for x in union]\n"
    )
    names = {"monic_probe", "partition_atoms", "GridAffine.image"}
    assert fraction_constructions(source, names) == {
        ("monic_probe", 2), ("monic_probe", 3), ("monic_probe", 4), ("monic_probe", 6),
        ("partition_atoms", 11), ("GridAffine.image", 16)}


def top_level_functions(source):
    """The names fraction_constructions reads: "f" for a module function, "C.m" for a method."""
    tree = ast.parse(source)
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    return defined | {f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for fn in cls.body if isinstance(fn, ast.FunctionDef)}


def test_monic_grid_path_builds_fractions_only_in_its_result():
    for module, names in GRID_PATH.items():
        source = (PACKAGE / module).read_text()
        assert names <= top_level_functions(source), module
        assert fraction_constructions(source, names) == set(), module


# exact measure values as numerators over one denominator per degree: the block
# rules (pf_sources in pf_measure, chain_squares in _chain_measure), the
# additivity check, the exact rows of measure_table and the standard rep's
# exact Radon-Nikodym test, adjoint, refinement and unit vectors read ints
# (the last three divide them into floats); values() builds Fractions
# from them only when a caller asks.  The Perron scan's singularity test is
# fraction-free too.
INTEGER_ROUTES = {
    "measures.py": {"CylinderMeasure.numerators", "CylinderMeasure.fractions", "_over_lcm",
                    "_run_sums", "pf_measure", "_chain_measure", "check_consistency",
                    "_extension_sums", "measure_table", "_singular"},
    "operators.py": {"StandardRep._numerators", "StandardRep._rn_constant",
                     "StandardRep._adjoint_tables", "StandardRep.refinement",
                     "StandardRep.unit_vector"},
}


def test_exact_measure_routes_build_no_fractions():
    for module, names in INTEGER_ROUTES.items():
        source = (PACKAGE / module).read_text()
        assert names <= top_level_functions(source), module
        assert fraction_constructions(source, names) == set(), module
    # the rule sees the route that does build them
    measures = (PACKAGE / "measures.py").read_text()
    assert fraction_constructions(measures, {"CylinderMeasure.values"}) != set()


# the per-block layer of the measures reads tail arrays and glue tables, never Path
# blocks; _segments reads the segments of degree (1, 1) once, through path_at
BLOCK_READERS = {"check_consistency", "measure_table", "pf_sources", "chain_squares"}
PATH_BLOCK_CALLS = {"block", "enumerate_paths", "split", "factorize", "_rainbow_symbols"}
TAIL_READERS = {"_ends", "glue", "cut"}


def qualified_functions(source):
    """(name, node) for each function: "C.m" for a method of a class C, the
    bare name for any other function, nested ones included."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {id(fn): f"{cls.name}.{fn.name}" for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body if isinstance(fn, kinds)}
    return [(methods.get(id(fn), fn.name), fn) for fn in ast.walk(tree) if isinstance(fn, kinds)]


def function_calls(source, owners, names):
    """(function, called name) for each call f(...) or x.f(...) of a name in
    names inside a function named in owners ("f", or "C.m" for a method),
    nested functions included."""
    out = set()
    for owner, fn in qualified_functions(source):
        if owner not in owners:
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", ""))
                if name in names:
                    out.add((owner, name))
    return out


def edge_reads(source, methods):
    """(method, line) for each read of an .edges attribute in the named methods of class KGraph."""
    out = set()
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "KGraph"):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in methods:
                out |= {(fn.name, node.lineno) for node in ast.walk(fn)
                        if isinstance(node, ast.Attribute) and node.attr == "edges"}
    return out


def test_path_block_rules_see_each_form():
    # the forms the measure layer and the index layer took before the tail arrays
    source = (
        "def check_consistency(measure, depth):\n    worst_path = g.block(n)[i]\n"
        "def measure_table(measure, depth):\n    return zip(measure.graph.block(n), measure.values(n))\n"
        "def product_measure(g, spec):\n"
        "    def chain_squares(path):\n"
        "        head = g.factorize(path, (n - 1, n - 1))[0]\n"
        "        return _rainbow_symbols(g, shape, path, first)\n"
        "def markov_measure(g, spec):\n"
        "    def chain_squares(m):\n"
        "        return [g.split(p, cuts) for p in g.enumerate_paths(m)]\n"
        "def pf_sources(m):\n    return list(map(fn, g.block(m)))\n"
        "def other(g):\n    return g.block(m), g.split(p, [m])\n"
        "class KGraph:\n"
        "    def _ends(self, m):\n        return [source[lam.edges[-1]] for lam in self.block(m)]\n"
        "    def glue(self, n, r):\n        for lam in blk:\n            f = lam.edges[-1]\n"
        "    def cut(self, m, n):\n        return len(self.block(m)[0].edges)\n"
        "    def block(self, m):\n        return lam.edges + (e,)\n"
    )
    assert function_calls(source, BLOCK_READERS, PATH_BLOCK_CALLS) == {
        ("check_consistency", "block"), ("measure_table", "block"),
        ("chain_squares", "factorize"), ("chain_squares", "_rainbow_symbols"),
        ("chain_squares", "split"), ("chain_squares", "enumerate_paths"), ("pf_sources", "block")}
    assert edge_reads(source, TAIL_READERS) == {("_ends", 18), ("glue", 21), ("cut", 23)}


def test_measure_block_layer_builds_no_path_blocks():
    source = (PACKAGE / "measures.py").read_text()
    defined = {fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)}
    assert BLOCK_READERS | {"_segments"} <= defined
    assert function_calls(source, BLOCK_READERS, PATH_BLOCK_CALLS) == set()
    assert function_calls(source, {"_segments"}, {"block", "enumerate_paths"}) == set()
    kgraph = (PACKAGE / "kgraph.py").read_text()
    assert edge_reads(kgraph, TAIL_READERS) == set()


# the monic probe and the interval diagonal rep read ranges by word, never Path blocks
RANGE_READERS = {
    "sbfs.py": {"monic_probe", "IntervalSBFS.range_words"},
    "operators.py": {"IntervalDiagonalRep.__init__"},
}
PATH_LISTING_CALLS = {"enumerate_paths", "block"}


def test_range_reader_rule_sees_each_form():
    # the forms range_words and IntervalDiagonalRep took before the degree recursion
    source = (
        "class IntervalSBFS:\n"
        "    def range_words(self, depth):\n"
        "        for lam in g.enumerate_paths(n):\n            pass\n"
        "class IntervalDiagonalRep:\n"
        "    def __init__(self, sys, level):\n"
        "        self._ranges = {lam: r for n in grid for lam in sys.graph.block(n)}\n"
        "class StandardRep:\n"
        "    def __init__(self, graph, depth):\n"
        "        self._blocks = {m: graph.enumerate_paths(m) for m in grid}\n"
        "def monic_probe(sys, depth):\n"
        "    def paths(n):\n        return block(n)\n"
        "def range_words(depth):\n    return g.block(n)\n"
    )
    assert function_calls(source, RANGE_READERS["sbfs.py"] | RANGE_READERS["operators.py"],
                          PATH_LISTING_CALLS) == {
        ("IntervalSBFS.range_words", "enumerate_paths"),
        ("IntervalDiagonalRep.__init__", "block"), ("monic_probe", "block")}


def test_range_readers_build_no_path_blocks():
    for module, owners in RANGE_READERS.items():
        source = (PACKAGE / module).read_text()
        assert owners <= {name for name, _ in qualified_functions(source)}
        assert function_calls(source, owners, PATH_LISTING_CALLS) == set(), module


def test_measures_keep_one_square_rule():
    # product and Markov squares are both _chain_measure's head-times-step rule
    source = (PACKAGE / "measures.py").read_text()
    defined = {fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)}
    assert "_chain_measure" in defined
    gone = {"_rainbow_symbols", "_rainbow_cuts", "product_squares", "markov_squares", "square_fn"}
    assert defined & gone == set()


BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}


def exception_classes(sources):
    """{"module:class": whether it derives from KGraphLabError} for each class of
    the sources, nested ones included, that derives from a builtin exception
    through its bases (bare or dotted names) and the classes of the sources."""
    classes = [(module, node) for module, source in sources.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    bases = collections.defaultdict(set)
    for _, node in classes:
        bases[node.name] |= {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}

    def reaches(name, targets):
        seen, todo = set(), [name]
        while todo:
            base = todo.pop()
            if base in targets:
                return True
            if base not in seen:
                seen.add(base)
                todo += bases.get(base, ())
        return False

    return {f"{module}:{node.name}": reaches(node.name, {"KGraphLabError"})
            for module, node in classes if reaches(node.name, BUILTIN_EXCEPTIONS)}


def test_exception_rule_sees_each_form():
    sources = {
        "errors.py": "class KGraphLabError(Exception):\n    pass\n"
                     "class A(KGraphLabError):\n    pass\n"
                     "class B(Mixin, A):\n    pass\n"
                     "class Loose(ValueError):\n    pass\n",
        "sbfs.py": "class CodingUndefined(Exception):\n    pass\n"
                   "class C(errors.A):\n    pass\n"
                   "class Plain:\n    pass\n"
                   "class Sub(Plain):\n    pass\n"
                   "def f():\n    class Local(KeyError):\n        pass\n",
    }
    assert exception_classes(sources) == {
        "errors.py:KGraphLabError": True, "errors.py:A": True, "errors.py:B": True,
        "errors.py:Loose": False, "sbfs.py:CodingUndefined": False, "sbfs.py:C": True,
        "sbfs.py:Local": False}


def test_package_exceptions_are_kgraph_lab_errors_in_errors_module():
    # the CLI turns a KGraphLabError into an exit code and a message, never a traceback
    found = exception_classes({m.name: m.read_text() for m in sorted(PACKAGE.glob("*.py"))})
    assert len(found) >= 30
    assert {name for name, ok in found.items() if not (ok and name.startswith("errors.py:"))} == set()


# top-level names of the package that no other package code names: the API
# that only tests and library users call.  A name new here is dead code or
# code that only a test needs; a name gone from here gained a package caller
# or was deleted.
UNNAMED = {
    "measures.py:rn_estimate", "measures.py:star_markov_matrix",
    "operators.py:EncodingTable", "operators.py:IntervalDiagonalRep", "operators.py:KPRep",
    "operators.py:atoms_report", "operators.py:decompose_permutative",
    "operators.py:encoding_map", "operators.py:induced_measure",
    "operators.py:monic_vector_probe", "operators.py:nonfaithful_witness",
    "operators.py:orbit_restriction", "operators.py:permutative_validate",
    "operators.py:pvm_additivity", "operators.py:tail_equivalence_map",
    "sbfs.py:PathspaceSBFS", "sbfs.py:sbfs_from_dict", "sbfs.py:sbfs_to_dict",
    "sbfs.py:transport_projective",
}


def names_used(node):
    """Names that node uses: Name ids, Attribute attrs and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out |= {alias.name.split(".")[-1] for alias in n.names}
    return out


def unnamed_definitions(sources):
    """"module:name" for each top-level function or class of the sources that no
    other top-level statement of any source names."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    uses = collections.Counter(name for _, stmt in statements for name in names_used(stmt))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    # a definition's own uses of its name (recursion) do not count
    return {f"{module}:{stmt.name}" for module, stmt in statements
            if isinstance(stmt, kinds) and uses[stmt.name] == (stmt.name in names_used(stmt))}


def test_unnamed_definition_rule_sees_each_form():
    sources = {
        "a.py": "from .b import imported\n"
                "def f():\n    return called() + b.attribute()\n"
                "def called():\n    return 1\n"
                "class Dead:\n    pass\n"
                "def recursive(n):\n    return recursive(n - 1)\n"
                "async def waited():\n    pass\n",
        "b.py": "def imported():\n    pass\n"
                "def attribute():\n    pass\n"
                "ALIAS = f\n",
    }
    assert unnamed_definitions(sources) == {"a.py:Dead", "a.py:recursive", "a.py:waited"}


def test_unnamed_definitions_are_pinned():
    found = unnamed_definitions({m.name: m.read_text() for m in sorted(PACKAGE.glob("*.py"))})
    assert found == UNNAMED


# a defaulted parameter that no call sets is a setting nobody uses: a constant
ROOT = PACKAGE.parents[1]
RECORD_BASES = {"NamedTuple", "Record"}
CALLERS = [PACKAGE, ROOT / "tests", ROOT / "perfbench"]


def defaulted_parameters(source):
    """(function, parameter, callee names, positional index or None) for each
    parameter with a default.  "C.m" names a method; its calls drop self, and
    C(...) calls C.__init__.  Keyword-only parameters have no index.  A
    record field (of a NamedTuple or Record subclass) with a default is a
    parameter of C(...) at its field position, and of _replace(...) by
    keyword."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, kinds)}
    out = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and any(
                getattr(b, "id", getattr(b, "attr", None)) in RECORD_BASES for b in cls.bases)):
            continue
        fields = [node for node in cls.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        for i, field in enumerate(fields):
            if field.value is not None:
                out.add((cls.name, field.target.id, (cls.name, "_replace"), i))
    for fn in ast.walk(tree):
        if not isinstance(fn, kinds):
            continue
        cls = owner.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        drop = 1 if cls is not None and not static else 0
        name = fn.name if cls is None else f"{cls.name}.{fn.name}"
        callees = (cls.name, fn.name) if cls is not None and fn.name == "__init__" else (fn.name,)
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            out.add((name, arg.arg, callees, i - drop))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                out.add((name, arg.arg, callees, None))
    return out


def call_shapes(source):
    """{callee name: [(positional count, keyword names)]} for each call f(...) or
    x.f(...); a *args call counts as setting every position, a **kwargs call
    every keyword (the keyword name None)."""
    out = collections.defaultdict(list)
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            count = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            out[name].append((count, {k.arg for k in call.keywords}))
    return out


def unset_parameters(definitions, callers):
    """"module:function(parameter)" for each defaulted parameter of the
    definitions {module: source} that no call in the callers' sources sets."""
    calls = collections.defaultdict(list)
    for source in callers:
        for name, shapes in call_shapes(source).items():
            calls[name] += shapes
    return {f"{module}:{fn}({arg})" for module, source in definitions.items()
            for fn, arg, callees, index in defaulted_parameters(source)
            if not any(arg in kws or None in kws or (index is not None and count > index)
                       for callee in callees for count, kws in calls[callee])}


def test_unset_parameter_rule_sees_each_form():
    definitions = {"m.py": (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, p=1, q=2):\n        pass\n"
        "    @staticmethod\n    def s(p=1):\n        pass\n"
        "def g(a=1, b=2):\n    def inner(t=0):\n        pass\n"
        "def h(a=1):\n    pass\n"
    )}
    callers = [
        "f(0, 1)\nf(0, d=4)\n",
        "C(1, 2)\nobj.m(5)\nC.s(1)\n",
        "g(*args)\nh(**opts)\n",
    ]
    assert unset_parameters(definitions, callers) == {
        "m.py:f(c)", "m.py:C.m(q)", "m.py:inner(t)"}
    assert unset_parameters(definitions, callers + ["f(c=3)\nobj.m(1, 2)\ninner(0)\n"]) == set()


def test_unset_parameter_rule_sees_named_tuple_fields():
    definitions = {"m.py": (
        "class Spec(NamedTuple):\n"
        "    family: str\n    c: int = 0\n    r: int = 0\n    start: int = 1\n    count: int = 2\n"
        "    def gamma(self, j):\n        return self.c\n"
        "class Report(typing.NamedTuple):\n    ok: bool\n    tol: float = 1e-10\n"
        "class Box(Record):\n    lo: int\n    hi: int = 1\n    side: str = 'x'\n"
        "class Plain:\n    kind: str = 'x'\n"
    )}
    callers = ["Spec('const', 1)\nSpec('geometric', r=2)\nBox(0, 2)\n"]
    assert unset_parameters(definitions, callers) == {
        "m.py:Spec(start)", "m.py:Spec(count)", "m.py:Report(tol)", "m.py:Box(side)"}
    more = ["Spec('a', 0, 0, 1)\nspec._replace(count=3)\nReport(*args)\nbox._replace(side='y')\n"]
    assert unset_parameters(definitions, callers + more) == set()


def test_every_defaulted_parameter_is_set_somewhere():
    definitions = {m.name: m.read_text() for m in sorted(PACKAGE.glob("*.py"))}
    assert len(definitions) >= 8
    callers = [f.read_text() for root in CALLERS for f in sorted(root.rglob("*.py"))]
    assert unset_parameters(definitions, callers) == set()
