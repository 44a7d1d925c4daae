"""Record classes that generate no code at import.

A ``@dataclass`` writes the source of each method it adds and ``exec``s it,
and a typed named tuple ``eval``s its ``__new__`` and compiles each string
annotation, paid at every start-up.  These bases give a ``__slots__`` class the
same methods, written once.  A record's fields are its annotated names, in
order: the metaclass reads them off the class body into ``_fields`` and
``__slots__``, evaluating no annotation.  ``Record.__init__`` takes the fields
by position or by name, as a dataclass's ``__init__`` does.  A record writes an
``__init__`` of its own only to validate, normalise or default a field, and
passes the values on to ``Record.__init__``.
"""

from __future__ import annotations

from typing import Any


class _Fields(type):
    """Sets ``_fields`` and ``__slots__`` to the names a class body annotates,
    in order, when the body sets neither.  Only a metaclass runs before
    ``type.__new__`` fixes the slots."""

    def __new__(mcs, name: str, bases: tuple[type, ...], body: dict[str, Any], **kwargs: Any) -> type:
        if "_fields" not in body and "__slots__" not in body:
            body["_fields"] = body["__slots__"] = tuple(body.get("__annotations__", ()))
        return super().__new__(mcs, name, bases, body, **kwargs)


class Record(metaclass=_Fields):
    """A mutable record that shows and compares its fields as a dataclass
    does, and is unhashable.  A subclass declared with ``eq=False`` compares
    and hashes by identity instead."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *values: Any, **named: Any) -> None:
        fields = self._fields
        if named or len(values) != len(fields):  # the fields after the values, by name
            rest = fields[len(values):]
            faults = [f"missing field {name!r}" for name in rest if name not in named]
            faults += [f"repeated field {name!r}" for name in named if name in fields[: len(values)]]
            faults += [f"unknown field {name!r}" for name in named if name not in fields]
            if len(values) > len(fields):
                faults.append(f"{len(values)} values for {len(fields)} fields")
            if faults:
                raise TypeError(f"{type(self).__qualname__}(): {', '.join(faults)}")
            values = (*values, *[named[name] for name in rest])
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]


class Frozen(Record):
    """A record whose attributes are set once, in ``__init__`` through
    ``object.__setattr__``; it hashes the fields it compares.  Assignment
    and deletion raise ``AttributeError``, as a frozen dataclass's do."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        # pickle and copy cannot assign the fields, so they call __init__ again.
        return type(self), self._values()
