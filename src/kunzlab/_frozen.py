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

The gap-set census, semigroups.enumerate_semigroups, runs under
_paused_collector: it builds tens of thousands of tuples and semigroups
in one call, and the collector's walks of them took a tenth to a fifth
of its time (see README).  Every value built valid by construction
holds only ints, strings, None, tuples, frozensets and other such
values, never a reference back to itself, so CPython's cyclic collector
can free none of it.  Left on, the collector is started by the
allocations themselves: its young collections walk the new objects, its
older ones walk them again, and its full ones walk the whole heap, the
caller's objects included, so the waste grows with the result and with
the caller's heap.  What the pause costs: the collector's enabled flag
is process-wide, so no thread's allocations start a collection until
the producer ends, and a gc.disable() made by another thread meanwhile
is undone then; and what was allocated during the pause is walked once,
by the first young collection after it.
"""

import gc
from collections import deque
from functools import wraps
from itertools import repeat


def _paused_collector(produce):
    """produce, run with the cyclic garbage collector disabled and enabled
    again however it returns or raises.  If the collector was already
    disabled, it is left alone, so a caller's own pause, or an enclosing
    producer's, is kept.  Only for producers whose results are acyclic
    and which leave no cyclic garbage of their own (see the module
    docstring): then the pause delays no freeing, since reference counting
    frees all they drop, and only skips the collections that would walk
    the result while it is built."""

    @wraps(produce)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return produce(*args, **kwargs)
        gc.disable()
        try:
            return produce(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
