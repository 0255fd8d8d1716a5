"""Bases of the package's small value records.

A record class names its fields in `_fields`, in constructor order, and
writes its own `__init__`.  The bases derive the rest from that tuple:
`==` (only between records of the same class), `repr` and, for frozen
records, a hash equal to the hash of the tuple of fields, immutability
and pickling.  Every field takes part in all of them.

The records are plain classes, not generated ones, because the standard
library's record generator imports `inspect` (and with it `ast`, `dis`
and `tokenize`) and compiles each record's methods at import: that was
about two thirds of what `import char2conf.cli` cost, and every
command-line call is a fresh process that pays it again.
"""

from operator import attrgetter


class Record:
    """A mutable record: `==` and `repr` over its fields, no hash."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # the one field's value, or the tuple of them; an attrgetter
            # is no descriptor, so self._get(self) calls it as it is
            cls._get = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class FrozenRecord(Record):
    """An immutable, hashable record; subclasses set `__slots__` to
    their fields and assign them in `__init__` with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self):
        values = self._get(self)
        return hash(values if len(self._fields) > 1 else (values,))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the record through __init__;
        # the default would restore the slots through __setattr__
        return self.__class__, tuple(getattr(self, name)
                                     for name in self._fields)
