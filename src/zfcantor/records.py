"""Immutable records: the package's one idiom for frozen value classes.

A record class names in ``_fields`` the fields that ``==``, ``hash``,
``repr`` and pickling read, at least two of them, and writes its own
``__init__``.  That stores each field past the refusing ``__setattr__``,
through the slot's descriptor: a bound ``Class.field.__set__`` where
records are built in bulk, ``object.__setattr__`` elsewhere.  Records
behave as frozen dataclasses with the same fields do: equal when of the
same class with equal fields, hashed and spelled alike, and assigning or
deleting a field raises ``dataclasses.FrozenInstanceError``.  The
``dataclasses`` module costs 10 ms to import, so it is imported on that
error path only.

Every layer imports this module, so it also holds ``InvalidInput``, the
one root of the errors that refuse an input, ``uncommented_lines``, the
one ``#`` comment rule of formula, digraph and scheme text, and
``lazy``, the one cached property.
"""
from __future__ import annotations

from operator import attrgetter


class InvalidInput(ValueError):
    """An input is refused: a malformed formula, scheme, word or digraph, or one past a guard."""


def uncommented_lines(text: str) -> list[str]:
    """The lines of text, each cut at its first ``#``: a comment runs to the end of its line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


class lazy:
    """A property computed on its first read and then stored in the instance.

    It is ``functools.cached_property`` without the lock that Python
    3.11 and older take on every first read, which costs about half a
    microsecond, a few per cent of a semantic verdict on a small digraph.
    A race may compute the value twice; both results are equal.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)  # later reads find it first
        return value


def frozen_error(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)  # the tuple of the fields, read in C

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._key(self))])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # the default would restore slots through the refusing __setattr__
        return self.__class__, self._key(self)

    def __setattr__(self, name, value):
        raise frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise frozen_error(f"cannot delete field {name!r}")
