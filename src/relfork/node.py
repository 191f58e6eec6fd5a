"""One immutable base for relfork's value classes.

A subclass names its fields in ``__slots__``.  ``Node`` gives it a
positional constructor, equality by type and fields, a hash over the
fields and a ``repr`` in the form ``Var(name='x')``.  A field cannot be
assigned or deleted after construction, and a subclass validates its
fields in ``_check``.  Defining such a class costs far less at import
than a frozen dataclass, which every CLI process would pay.  ``Scope``,
defined here, names what a verdict covers; every report carries one.
"""

from __future__ import annotations

from operator import attrgetter


def _no_fields(node) -> tuple:
    return ()


class Node:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        # _key reads what equality and hashing compare, in one C call: the
        # field values (a lone field's bare value, () for no fields).
        # _setters write the slots directly, past the refusing __setattr__.
        cls._key = staticmethod(attrgetter(*names) if names else _no_fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{type(self).__name__}() takes {len(setters)} positional arguments "
                f"but {len(values)} were given"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)
        self._check()

    def _check(self) -> None:
        """Raise on a field value the class does not accept."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    # The hash covers the field values only, as a dataclass's does: a tree
    # then hashes alike in every process, and so do sets of trees.
    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Scope(Node):
    """What a verdict covers: ``"exhaustive"``, ``"exact"``, ``"exact over N"``
    or ``"exact over N (conjugate)"`` with ``bound`` None, K seeded assignments
    as ``("sampled", K)``, or the window [0, n) as ``("window", n)``."""

    __slots__ = ("kind", "bound")

    def label(self) -> str:
        """The scope as headers and JSON print it: the kind, ``sampled(K)`` or ``window[0,n)``."""
        if self.bound is None:
            return self.kind
        return f"sampled({self.bound})" if self.kind == "sampled" else f"window[0,{self.bound})"
