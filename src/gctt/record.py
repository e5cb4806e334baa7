"""Immutable records as plain classes with `__slots__`.

A record class declares its fields as annotated class attributes, after
those of its base, as a dataclass does.  Each field keeps its annotation
as written, from which `gctt.eval` compiles code per class.  A field's
default, where it has one, is the attribute's value, or a `field` that
also says whether the field is compared and carries metadata.  The
metaclass `Record` gives the class `__slots__` for its own fields and for
the memo slots it names, and generates its `__init__`, which sets every
field in order and every memo slot to None, and `field_values`, the
fields' values in order.  A record class declared with `eq=True`, and its
subclasses, also get `__eq__` and `__hash__` over the compared fields; any
other record compares by identity.  Nothing assigns a field outside
`__init__`, and a memo slot is written only by the function it memoizes
(tests/test_source.py checks both): a record is immutable by rule, not by
a `__setattr__` that every construction would pay for.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

_REQUIRED = object()  # the default of a field that has none


class Field(NamedTuple):
    name: str
    default: Any
    compare: bool  # compared, hashed and shown by `repr`
    metadata: dict
    type: str = ""  # the annotation, as written


def field(default=_REQUIRED, *, compare: bool = True,
          metadata: Optional[dict] = None) -> Field:
    return Field("", default, compare, metadata or {})


def fields(cls) -> tuple[Field, ...]:
    """A record class's fields, its base's first."""
    return cls.__record_fields__


def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in fields(type(self)) if f.compare)
    return f"{type(self).__qualname__}({shown})"


class Record(type):
    """The metaclass of record classes."""

    def __new__(mcs, name, bases, ns, eq: bool = False, memos: tuple = ()):
        own = []
        for n, t in ns.get("__annotations__", {}).items():
            f = ns.pop(n, _REQUIRED)
            own.append((f if isinstance(f, Field) else field(f))._replace(
                name=n, type=t))
        ns["__slots__"] = tuple(f.name for f in own) + memos
        cls = super().__new__(mcs, name, bases, ns)
        base = bases[0] if bases else object
        cls.__record_fields__ = (getattr(base, "__record_fields__", ())
                                 + tuple(own))
        cls.__record_memos__ = getattr(base, "__record_memos__", ()) + memos
        cls.__record_eq__ = eq or getattr(base, "__record_eq__", False)
        cls.__match_args__ = tuple(f.name for f in fields(cls))
        cls.__repr__ = _repr
        _generate(cls)
        return cls


def _generate(cls) -> None:
    """Compile the record class's `__init__` and `field_values` and, for
    one compared by value, its `__eq__` and `__hash__`."""
    def attrs(obj, names):
        return "(" + "".join(f"{obj}.{n}, " for n in names) + ")"

    names = cls.__match_args__
    params = "".join(f", {f.name}" if f.default is _REQUIRED
                     else f", {f.name}=_defaults[{f.name!r}]"
                     for f in fields(cls))
    source = [f"def __init__(self{params}):",
              *(f"    self.{n} = {n}" for n in names),
              *(f"    self.{m} = None" for m in cls.__record_memos__),
              "    pass",
              f"def field_values(self): return {attrs('self', names)}"]
    if cls.__record_eq__:
        key = [f.name for f in fields(cls) if f.compare]
        source += ["def __eq__(self, other):",
                   "    if other.__class__ is self.__class__:",
                   f"        return {attrs('self', key)} =="
                   f" {attrs('other', key)}",
                   "    return NotImplemented",
                   f"def __hash__(self): return hash({attrs('self', key)})"]
    space = {"_defaults": {f.name: f.default for f in fields(cls)}}
    exec(compile("\n".join(source), f"<record {cls.__qualname__}>", "exec"),
         space)
    cls.__init__ = space["__init__"]
    cls.field_values = property(space["field_values"])
    if cls.__record_eq__:
        cls.__eq__, cls.__hash__ = space["__eq__"], space["__hash__"]
