"""Value-class bases written out by hand, so that defining a class generates
no code at import.

A subclass declares its fields, in constructor order, in ``_fields``, keeps
them (and any lazily built values) in ``__slots__``, and sets them in its
own ``__init__``.  Records of one class are equal when their fields are;
the repr is ``Name(field=value, ...)``; copying and pickling call the
constructor with the fields.  A ``Record`` is mutable and unhashable; a
``FrozenRecord`` hashes as the tuple of its fields and refuses assignment,
so its ``__init__`` sets fields with ``object.__setattr__``.
"""

from __future__ import annotations

# Builds a NamedTuple that validates nothing without its Python-level __new__.
new_tuple = tuple.__new__


class Record:
    """A mutable, unhashable record over the fields named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A record that hashes as its field tuple and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
