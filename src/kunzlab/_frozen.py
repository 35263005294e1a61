"""Bases for the package's immutable classes.

Each subclass lists its fields in ``__slots__`` and sets them once, in
its own ``__init__``, through ``object.__setattr__``.  Any later
assignment or deletion raises AttributeError.  Only the classes whose
instances are compared by value derive from Value; the rest compare by
identity and keep the default repr.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    # copy and pickle (every protocol) save and restore the fields
    # through these two, since __setattr__ refuses
    def __getstate__(self):
        return dict(zip(self.__slots__, self._fields()))

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


class Value(Frozen):
    """Equality, hash and repr over the fields, in ``__slots__`` order."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"
