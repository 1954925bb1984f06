"""Tuple records: the base class of the package's small value types.

A subclass lists its fields as annotations, each with an optional
default, as a NamedTuple does:

    class Span(Record):
        lo: Fraction
        hi: Fraction = Fraction(1)

Creating the class reads the annotations and defaults once and installs
one itemgetter property per field.  Unlike collections.namedtuple, no
source is compiled per class, so importing the package stays cheap for
the one-job processes of the command line.  Instances are tuples of
their field values: they compare and hash as tuples, print as
Name(field=value, ...) and keep no __dict__.
"""

from operator import itemgetter


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, {**namespace, "__slots__": ()})
        cls._fields = tuple(cls.__annotations__)
        cls._field_defaults = {f: namespace[f] for f in cls._fields if f in namespace}
        for i, field in enumerate(cls._fields):
            setattr(cls, field, property(itemgetter(i)))
        return cls


class Record(tuple, metaclass=_RecordType):
    """A tuple whose items are the fields of its class, in annotation order."""

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if not kwargs and len(args) == len(fields):
            return tuple.__new__(cls, args)
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._field_defaults:
                values.append(cls._field_defaults[field])
            else:
                raise TypeError(f"{cls.__name__} missing field {field!r}")
        if kwargs:  # a name outside the fields, or a field given twice
            raise TypeError(f"{cls.__name__} got unexpected fields {sorted(kwargs)}")
        return tuple.__new__(cls, values)

    def __repr__(self):
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__name__}({items})"

    def _asdict(self):
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        return self.__class__(**{**self._asdict(), **changes})
