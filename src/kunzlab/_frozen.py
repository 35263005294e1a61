"""Bases for the package's immutable classes.

Each subclass lists its fields in ``__slots__``, and Frozen's public
constructor sets them: positional arguments in ``__slots__`` order,
keyword arguments by name, and TypeError for a field that is missing,
repeated, unknown or surplus.  Any later assignment or deletion raises
AttributeError.  A class keeps an ``__init__`` of its own only to check
or default its fields before handing them on (Dfa, Decomposition,
PositionMarking, RunResult), to derive them from another object
(CompiledMachine, NumericalSemigroup), or because it is built often and
stores its one field directly (Word).  Values the package builds valid
by construction skip every ``__init__``: _trusted makes one instance
from its fields, and _trusted_many makes many in bulk, with no
Python-level call per instance.  Both set the fields through the class's
one tuple of slot setters, which Frozen.__setattr__ does not guard.
Only the classes whose instances are compared by value derive from
Value; the rest compare by identity and keep the default repr.
"""

from collections import deque
from itertools import repeat


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's own slot setter, in __slots__ order
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **fields):
        names = self.__slots__
        if fields or len(args) != len(names):
            args = self._bind(args, fields)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *fields):
        """An instance of fields already valid, in ``__slots__`` order,
        with no check."""
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, fields):
            setter(self, value)
        return self

    @classmethod
    def _trusted_many(cls, *columns) -> list:
        """_trusted of each row of ``columns``, one column per field in
        ``__slots__`` order, the first a sized sequence; bare objects,
        then one pass of a slot setter per column."""
        made = list(map(object.__new__, repeat(cls, len(columns[0]))))
        for setter, column in zip(cls._setters, columns):
            deque(map(setter, made, column), maxlen=0)
        return made

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
