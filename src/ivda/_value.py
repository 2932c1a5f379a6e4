"""Value classes without generated code.

``Value`` gives a slotted class what ``@dataclass`` would generate for it,
from a class-level field table, ``_fields``, that names the fields in
``__init__`` order. Two values are equal when they are of the same class
and their field tuples are equal, and the repr is the dataclass one. A
plain ``Value`` is mutable and unhashable; a ``Frozen`` one hashes its
field tuple and refuses assignment with ``dataclasses.FrozenInstanceError``,
so its ``__init__`` sets each field with ``object.__setattr__``. A
``Record`` is a ``Frozen`` value whose fields may hold arrays, so it
compares and hashes by identity, as ``@dataclass(eq=False)`` would.
"""

from operator import attrgetter

__all__ = ["Value", "Frozen", "Record"]


class Value:
    """Equality and repr over the fields named in ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # _key(value) is the field tuple, which equality, hashing and copies
        # read: one C call where attrgetter returns a tuple, which takes two
        # fields or more
        fields = cls._fields
        if len(fields) > 1:
            cls._key = attrgetter(*fields)
        elif fields:
            cls._key = staticmethod(lambda value, get=attrgetter(*fields): (get(value),))
        else:
            cls._key = staticmethod(lambda value: ())

    def _asdict(self):
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    __hash__ = None

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"


def _frozen(verb, name):
    # imported on this path alone: loading dataclasses costs each process
    # several ms, and inspect with it
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


class Frozen(Value):
    """An immutable ``Value``, hashed by its field tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise _frozen("assign to", name)

    def __delattr__(self, name):
        raise _frozen("delete", name)

    def __reduce__(self):
        # copies and pickles are rebuilt through __init__, since the default
        # would assign each slot
        return self.__class__, self._key(self)


class Record(Frozen):
    """A ``Frozen`` value compared and hashed by identity."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__
