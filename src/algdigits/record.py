"""Immutable value records, in place of frozen dataclasses.

Importing dataclasses pulls in inspect, dis, ast and tokenize, and each
decorated class costs about a millisecond to build; every CLI call would
pay both before doing any work.  A Record subclass names its fields in
__slots__ and gets what a frozen dataclass generates: construction by
position or keyword, equality and hashing on the exact type and the
field tuple, AttributeError on assignment, and the dataclass repr.
"""

from __future__ import annotations


class Record:
    """Base of the immutable value types; subclasses set __slots__ to
    their field names and may give trailing fields defaults in
    _defaults."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, from a call with keywords,
        defaults or the wrong number of arguments."""
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or set(values) != set(names)
                or set(kwargs) & set(names[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{names}, got {len(args)} positional and "
                            f"keywords {sorted(kwargs)}")
        return tuple(values[name] for name in names)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
