"""Frozen records: the base class of the value and report types.

A record keeps its fields in __slots__.  Record.__init__ takes the _args
(default: every slot) in order, positionally and then by keyword, and sets
each one once with object.__setattr__; a subclass writes its own __init__
only to validate input or to set an uncompared slot.  Any later
assignment or deletion raises AttributeError.  Records of one class are
equal when their _fields are (default: every slot), hash as the tuple of
them, and repr shows them.  A pickle calls the constructor on the _args.
A slot in neither, such as an engine built on first use, is neither
compared nor pickled; a class with a cached_property or a weak reference
lists "__dict__" or "__weakref__" among its slots.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _args: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = vars(cls).get("_fields", cls.__slots__)
        cls._args = vars(cls).get("_args", cls.__slots__)

    def __init__(self, *values, **named):
        """Set the _args, in order: positionally, then by keyword."""
        args = self._args
        if named or len(values) != len(args):
            rest = args[len(values):]
            if len(values) > len(args) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}({', '.join(args)}) takes each field once: "
                                f"got {len(values)} positional and keywords {sorted(named)}")
            values += tuple(named[name] for name in rest)
        for name, value in zip(args, values):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._args])
