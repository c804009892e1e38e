"""Immutable slotted records without generated code.

Every immutable record class in :mod:`repro` derives from
:class:`Frozen`, except a few tuple-like ``NamedTuple``s.  A frozen
``@dataclass`` would compile its ``__init__``, ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` with ``exec`` when its
class is defined, about a millisecond per class, and importing
:mod:`dataclasses` loads :mod:`inspect`; every command would pay both.
A record instead lists its constructor fields in ``__slots__``, assigns
them once in its own ``__init__`` (which also applies defaults and
validates), and inherits one generic copy of everything else:

* a ``__setattr__``/``__delattr__`` that refuses every change;
* value equality and hashing over the fields, with the dataclass
  semantics: records are equal when they have the same class and equal
  field tuples, and hash as that tuple.  A record whose fields hold
  arrays opts out with ``__eq__ = object.__eq__`` and
  ``__hash__ = object.__hash__``; one whose identity ignores some
  fields names them in ``_uncompared``; one hashed often (a cache key)
  lists a private ``_hash`` slot, which holds its hash once computed;
* ``__repr__``, pickling as a constructor call, and :meth:`Frozen.replace`.

:func:`repro.runtime.keys.canonicalize` keys a record by its class and
fields, the same document a dataclass produced.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Tuple, TypeVar

__all__ = ["Frozen"]

_R = TypeVar("_R", bound="Frozen")


def _getter(names: Tuple[str, ...]) -> Callable[[object], tuple]:
    """``record -> tuple`` of the named attributes (C-speed for two or
    more names)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda record: tuple(getattr(record, name) for name in names)


class Frozen:
    """Base of an immutable record whose fields are its ``__slots__``.

    ``__slots__`` lists the constructor's parameters in order; a slot
    whose name starts with an underscore (a private cache) is not a
    field.  Pickling and :meth:`replace` rebuild the record by calling
    the constructor with its fields, so both validate like ``__init__``.
    """

    __slots__ = ()

    #: Field names in constructor order (set per subclass).
    _fields: Tuple[str, ...] = ()
    #: Fields left out of equality and hashing (e.g. run metadata).
    _uncompared: Tuple[str, ...] = ()
    #: ``record -> tuple`` of all fields / of the compared fields (set
    #: per subclass).
    _all_values: Callable[[object], tuple]
    _compared_values: Callable[[object], tuple]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if name[0] != "_")
        cls._all_values = staticmethod(_getter(cls._fields))
        cls._compared_values = staticmethod(_getter(tuple(
            name for name in cls._fields if name not in cls._uncompared)))
        if "_hash" in vars(cls).get("__slots__", ()):
            cls.__hash__ = Frozen._cached_hash

    def _set(self, **fields: object) -> None:
        """Assign slots: the fields in ``__init__``, a private cache
        slot when it is first filled."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def replace(self: _R, **changes: object) -> _R:
        """A copy with ``changes`` applied, built by the constructor."""
        fields = dict(zip(self._fields, self._all_values(self)))
        fields.update(changes)
        return type(self)(**fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r}: "
            f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r}: "
            f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._compared_values(self) == other._compared_values(other)

    def __hash__(self) -> int:
        return hash(self._compared_values(self))

    def _cached_hash(self) -> int:
        """``__hash__`` of a record with a ``_hash`` slot: the same
        value, computed on the first call."""
        try:
            return self._hash
        except AttributeError:
            value = hash(self._compared_values(self))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        return type(self), self._all_values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
