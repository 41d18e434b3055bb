"""Plane points, 2x2 matrices and ``record``, the frozen-record class decorator.

Everything is IEEE 754 double precision.  Constructors reject non-finite
components so overflow surfaces as an explicit error where the value is
created instead of propagating NaNs through a sweep.
"""

from __future__ import annotations

import math

from .errors import ParameterError

DERIVED = object()  # default of a record field that __post_init__ sets: no argument


def _init(self, *args, **kwargs):
    cls = type(self)
    names, defaults = cls._args, cls._defaults
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    for name, v in zip(names, args):
        object.__setattr__(self, name, v)
    for name in names[len(args):]:
        if name not in kwargs and name not in defaults:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        object.__setattr__(self, name, kwargs.pop(name, defaults.get(name)))
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unknown or repeated argument {next(iter(kwargs))!r}")
    self.__post_init__()


def _values(self) -> tuple:  # also __getstate__, which Python 3.10's object lacks
    return tuple(getattr(self, name) for name in self._fields)


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")


def _setstate(self, state):  # the pickled fields as they were: no __post_init__
    for name, v in zip(self._fields, state):
        object.__setattr__(self, name, v)


_RECORD = {"__init__": _init, "__post_init__": lambda self: None,
           "__repr__": lambda self: f"{type(self).__qualname__}("
                                    f"{', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})",
           "__eq__": lambda self, other: (_values(self) == _values(other)
                                          if other.__class__ is self.__class__ else NotImplemented),
           "__hash__": lambda self: hash(_values(self)), "__setattr__": _refuse,
           "__delattr__": _refuse, "__getstate__": _values, "__setstate__": _setstate}


def record(cls):
    """``cls`` as a frozen, slotted record of its annotated fields, in order, each
    defaulting to its class-level value.  Records share ``_RECORD``'s methods
    (the class body's own win), which read all fields from ``_fields``."""
    ns = {k: v for k, v in {**_RECORD, **vars(cls)}.items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(cls.__annotations__)
    defaults = {name: ns.pop(name) for name in fields if name in ns}
    ns.update(__slots__=fields, __qualname__=cls.__qualname__, _fields=fields, _defaults=defaults,
              _args=tuple(n for n in fields if defaults.get(n) is not DERIVED))
    return type(cls)(cls.__name__, cls.__bases__, ns)


def replace(obj, **changes):
    """A copy of record ``obj`` with ``changes``, built and validated anew."""
    if any(name in obj._fields and name not in obj._args for name in changes):
        raise ValueError(f"a DERIVED (init=False) field cannot be replaced: {sorted(changes)}")
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._args}, **changes})


@record
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ParameterError(f"point components must be finite, got ({self.x!r}, {self.y!r})")

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self):
        yield self.x
        yield self.y


@record
class Mat2:
    """Row-major 2x2 matrix [[a11, a12], [a21, a22]]."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        for v in (self.a11, self.a12, self.a21, self.a22):
            if not math.isfinite(v):
                raise ParameterError(f"matrix entries must be finite, got {v!r}")

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, p: Point2) -> Point2:
        return Point2(self.a11 * p.x + self.a12 * p.y, self.a21 * p.x + self.a22 * p.y)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)
