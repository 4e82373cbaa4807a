"""The base of every record class in the toolkit.

Records are plain `__slots__` classes with an explicit `__init__`.  A frozen
slots dataclass costs about three times as much to construct, and importing
`dataclasses` (which pulls in `inspect`) would add to the start-up time of
every command; this module imports nothing.

The constructor is the public way to build a record.  The parsers, which
build one record per line or tree node, skip it: each makes its records with
`object.__new__(cls)` and stores every slot itself, which costs about two
thirds of a constructor call (timeit, CPython 3.11 on a 2-core Xeon: about
0.17 against 0.27 us per `Token`).  So a slot added to `Token`, `Chunk`, `Entity` or `ParseTree`
must also be stored by its parser; a test checks that every record a parser
builds has each slot set and equals the one its constructor builds.
"""


class Record:
    """Value semantics for a `__slots__` class: equality with a record of the
    same type and equal fields, a hash of the fields and a dataclass-style
    repr, all taken from `_fields` in order.  `_fields` is the class's
    `__slots__` unless the class body names other attributes, such as
    properties computed from the slots.  Nothing refuses assignment: treat a
    hashable record as immutable, as its hash assumes.  A mutable record sets
    `__hash__ = None`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
