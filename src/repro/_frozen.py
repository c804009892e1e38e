"""Immutable slotted records without generated code.

A frozen ``@dataclass`` compiles its ``__init__``, ``__repr__``,
``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` with
``exec`` when its class is defined, about a millisecond per class, and
a search process pays that for every class it imports.  A class that
uses none of those generated methods derives from :class:`Frozen`
instead: it lists its constructor fields in ``__slots__``, assigns them
once in its own ``__init__`` through :meth:`Frozen._set`, and inherits
the one ``__setattr__`` that keeps it immutable.  Equality and hashing
stay identity-based unless a subclass defines them.
"""

from __future__ import annotations

from typing import List

__all__ = ["Frozen"]


class Frozen:
    """Base of an immutable record whose fields are its ``__slots__``.

    ``__slots__`` lists the constructor's parameters in order; a slot
    whose name starts with an underscore (a private cache) is not a
    field.  Pickling rebuilds the record by
    calling the constructor with its fields, so it works for the sweep
    process pool.
    """

    __slots__ = ()

    def _set(self, **fields: object) -> None:
        """Assign slots: the fields in ``__init__``, a private cache
        slot when it is first filled."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _field_names(self) -> List[str]:
        return [name for name in self.__slots__ if name[0] != "_"]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r}: "
            f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r}: "
            f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self._field_names())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._field_names())
        return f"{type(self).__name__}({fields})"
