"""Bases for the package's immutable classes.

Each subclass lists its fields in ``__slots__``, and Frozen's one
constructor sets them: positional arguments in ``__slots__`` order,
keyword arguments by name, and TypeError for a field that is missing,
repeated, unknown or surplus.  Any later assignment or deletion raises
AttributeError.  A class keeps an ``__init__`` of its own only to check
or default its fields before handing them on (Dfa, Decomposition,
PositionMarking, RunResult), to derive them from another object
(CompiledMachine, NumericalSemigroup), or because it is built in the
hot loops and stores its one field directly (Word).  The semigroups and
the census words the package derives itself skip the constructor:
semigroups._store_apery and enumerate_semigroups set the ``_w`` slot
through its descriptor's ``__set__``, and enumerate_kunz the ``letters``
slot through its own (words._set_letters); the two censuses do so in
bulk, with no Python-level call per semigroup or word.  Only the
classes whose instances are compared by value derive from Value; the
rest compare by identity and keep the default repr.
"""


class Frozen:
    __slots__ = ()

    def __init__(self, *args, **fields):
        names = self.__slots__
        if fields or len(args) != len(names):
            args = self._bind(args, fields)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, fields: dict) -> tuple:
        """The field values in ``__slots__`` order, from positional and
        keyword arguments."""
        names = self.__slots__
        what = f"{type(self).__name__}()"
        if len(args) > len(names):
            raise TypeError(f"{what} takes {len(names)} fields but {len(args)} were given")
        for name in fields:
            if name not in names:
                raise TypeError(f"{what} has no field {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{what} got field {name!r} twice")
        try:
            return args + tuple(map(fields.__getitem__, names[len(args):]))
        except KeyError as exc:
            raise TypeError(f"{what} missing field {exc.args[0]!r}") from None

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
        Frozen.__init__(self, **state)


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
