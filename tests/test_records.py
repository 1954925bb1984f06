"""The package's records against dataclass copies of their fields.

Each record is a records.Record, a tuple whose class lists its fields as
annotations, or a slots class where a tuple would change what reports
print.  The copies below are the reference: a record must print, compare
within its class and (where the copy is frozen) hash as its copy does,
so that reports and set and dict orders stay as they were.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from kgraph_lab import cli, intervals, kgraph, measures, operators, records, sbfs
from kgraph_lab.catalog import builtin_graph


def edge_repr(self):
    return f"Edge({self.eid})"


def path_repr(self):
    if not self.edges:
        return f"Path<{self.range}>"
    return "Path<" + ".".join(self.edges) + ">"


# (module, name, frozen, fields, defaults, own __repr__); a record without an
# own __repr__ prints as Name(field=value, ...)
RECORDS = [
    (cli, "Job", False, "command params", {}, None),
    (intervals, "Strip", True, "lo hi lower upper", {}, None),
    (kgraph, "Edge", True, "eid color source range", {}, edge_repr),
    (kgraph, "Square", True, "left right", {}, None),
    (kgraph, "Path", True, "range edges degree", {}, path_repr),
    (kgraph, "AperiodicWitness", True, "prefix checked_up_to", {}, None),
    (kgraph, "PeriodCandidate", True, "differences", {}, None),
    (kgraph, "Inconclusive", True, "", {}, None),
    (measures, "PFData", True, "rho kappa exact residual", {}, None),
    (measures, "ConsistencyReport", False, "ok checked worst_residual worst_path exact", {},
     None),
    (measures, "PathSpaceShape", True, "kind symbol_count symbol_color center peripherals",
     {"center": "", "peripherals": ()}, None),
    (measures, "ProductMeasureSpec", True, "family c r values",
     {"c": Fraction(0), "r": Fraction(0), "values": ()}, None),
    (measures, "MarkovMeasureSpec", True, "matrix lam", {"lam": ()}, None),
    (measures, "Equivalent", True, "series_bound", {}, None),
    (measures, "MutuallySingular", True, "reason", {}, None),
    (measures, "Undetermined", True, "partial_sum bound", {}, None),
    (measures, "RNEstimate", False, "quotients limit converged", {}, None),
    (operators, "RelationCheck", False, "relation witness residual blocks_checked", {}, None),
    (operators, "CKReport", False, "ok max_residual checks", {}, None),
    (operators, "MonicVectorReport", False, "span_dim block_dim cyclic", {}, None),
    (operators, "Atom", False, "prefix rank stabilized", {}, None),
    (operators, "AtomsReport", False, "atoms all_rank_one stabilized", {}, None),
    (operators, "PermutativeReport", False,
     "ok cover_ok disjoint_ok composition_ok intertwine_ok witnesses compositions "
     "intertwinings", {}, None),
    (operators, "Decomposition", False, "summands invariant spans", {}, None),
    (operators, "GaugeReport", False, "structural_ok max_residual", {}, None),
    (operators, "WitnessReport", False,
     "mu nu scale norm_standard norm_faithful_on_delta omega_twist_gap", {}, None),
    (sbfs, "Affine1D", True, "a b", {}, None),
    (sbfs, "Skew2D", True, "a b p0 p1", {}, None),
    (sbfs, "ConditionReport", False, "name ok mode witnesses worst_residual",
     {"worst_residual": 0.0}, None),
    (sbfs, "SBFSValidationReport", False, "system ok conditions", {}, None),
    (sbfs, "CocycleReport", False, "ok worst_residual witness checked", {}, None),
    (sbfs, "KirchhoffReport", False, "ok worst_residual checked skipped", {}, None),
    (sbfs, "Monic", True, "depth resolution", {}, None),
    (sbfs, "NotMonic", True, "witness witnesses", {"witnesses": ()}, None),
    (sbfs, "InconclusiveMonic", True, "max_atom_width", {}, None),
]
IDS = [f"{module.__name__.split('.')[-1]}.{name}" for module, name, *_ in RECORDS]


def reference(name, frozen, fields, defaults, own_repr):
    """The dataclass copy of a record, as @dataclass(frozen=frozen) would make it."""
    spec = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
            for f in fields.split()]
    namespace = {"__repr__": own_repr} if own_repr else {}
    return dataclasses.make_dataclass(name, spec, frozen=frozen, namespace=namespace)


def sample(fields, salt):
    """One distinct string per field."""
    return [f"{f}{salt}" for f in fields.split()]


def test_every_record_is_listed_once():
    named_tuples = {f"{module.__name__.split('.')[-1]}.{name}"
                    for module in (cli, intervals, kgraph, measures, operators, sbfs)
                    for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == module.__name__}
    slots_records = {"kgraph.Square", "kgraph.Path", "kgraph.Inconclusive"}
    # Box and Tails were NamedTuples before the other records became ones
    assert named_tuples | slots_records == set(IDS) | {"intervals.Box", "kgraph.Tails"}
    assert len(IDS) == len(set(IDS)) == 35


@pytest.mark.parametrize("module, name, frozen, fields, defaults, own_repr", RECORDS, ids=IDS)
def test_record_prints_compares_and_hashes_as_its_dataclass_copy(
        module, name, frozen, fields, defaults, own_repr):
    cls = getattr(module, name)
    ref = reference(name, frozen, fields, defaults, own_repr)
    a, b = sample(fields, 1), sample(fields, 2)
    assert repr(cls(*a)) == repr(ref(*a))
    assert (cls(*a) == cls(*a)) is (ref(*a) == ref(*a)) is True
    assert (cls(*a) == cls(*b)) is (ref(*a) == ref(*b))
    assert (cls(*a) != cls(*b)) is (ref(*a) != ref(*b))
    assert [getattr(cls(*a), f) for f in fields.split()] == a
    required = [v for f, v in zip(fields.split(), a) if f not in defaults]
    assert repr(cls(*required)) == repr(ref(*required))
    if frozen:
        assert hash(cls(*a)) == hash(ref(*a)) == hash(tuple(a))


def test_path_serializes_as_its_dotted_edge_ids():
    g = builtin_graph("exonevtwoe")
    report = {"witness": g.path(["e", "f2"]), "vertex": g.vertex_path("v")}
    assert json.dumps(report, default=cli._json_default) == '{"witness": "f1.e", "vertex": "v"}'


def test_inconclusive_is_truthy():
    assert kgraph.Inconclusive()
    assert kgraph.Inconclusive() == kgraph.Inconclusive()


TUPLE_RECORDS = [(module, name, fields, defaults)
                 for module, name, _, fields, defaults, _ in RECORDS
                 if issubclass(getattr(module, name), tuple)]


@pytest.mark.parametrize("module, name, fields, defaults", TUPLE_RECORDS,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n, *_ in TUPLE_RECORDS])
def test_tuple_record_fields_keywords_and_replace(module, name, fields, defaults):
    cls = getattr(module, name)
    assert issubclass(cls, records.Record)
    names = fields.split()
    a, b = sample(fields, 1), sample(fields, 2)
    rec = cls(**dict(zip(names, a)))
    assert rec == cls(*a) == tuple(a) and type(rec) is cls
    assert not hasattr(rec, "__dict__")
    assert (cls._fields, cls._field_defaults) == (tuple(names), defaults)
    assert rec._asdict() == dict(zip(names, a))
    for field, value in zip(names, b):
        changed = rec._replace(**{field: value})
        assert type(changed) is cls and getattr(changed, field) == value
        assert changed == tuple(value if f == field else v for f, v in zip(names, a))
    with pytest.raises(TypeError):
        rec._replace(no_such_field=0)
    with pytest.raises(TypeError):
        cls(*a, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*a, 0)
    required = [f for f in names if f not in defaults]
    if required:
        with pytest.raises(TypeError):
            cls(*a[:len(required) - 1])  # the last required field missing
        with pytest.raises(TypeError):
            cls(*a, **{required[0]: 0})  # a field given twice
