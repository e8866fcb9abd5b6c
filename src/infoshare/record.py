"""A small base for the package's value classes.

A record stores its fields in `__slots__`, in declaration order, and
compares, hashes and prints by them.  It is frozen; one that holds a
list is still unhashable, since hashing reaches the list.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the field values as one tuple, also for a single field
        cls._fields = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        try:
            args += tuple(map(kwargs.pop, names[len(args):]))
        except KeyError as exc:
            raise TypeError(f"{type(self).__qualname__}() missing field {exc}") from None
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields
