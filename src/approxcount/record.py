"""The base of the package's records: equality, hashing and repr by field.

A record class lists its fields in ``__slots__``, in order, and assigns
them in its own ``__init__``; :class:`Record` reads them from there. Two
records are equal when they are of one class and their fields are equal;
a record hashes as the tuple of its fields, unless its class sets
``__hash__ = None``. This module imports nothing, so any module may build
on it.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"
