"""Data model of the jamming game: parameters, strategies, capacity, utilities.

The target node transmits over a timing channel: after each jammed packet it
stays silent for a uniform draw on [0, x] and the receiver decodes the silence
duration with clock precision delta.  A reactive jammer detects a packet after
t_aj seconds and jams for an exponential draw with mean y.  One packet plus
jamming plus silence is a *cycle*.

All math is done in natural units (seconds, watts).  The single log-base
conversion lives in ``GameParams.eta`` = c_t * p_j * ln 2, so capacity can be
written with log2 while the best-response algebra uses natural logs.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, InvalidParams, InvalidStrategy

__all__ = [
    "GameParams",
    "StrategyProfile",
    "UtilityPair",
    "capacity_xy",
    "utilities_xy",
]

_LN2 = math.log(2.0)


class _floats:
    """math under numpy's names: the ``xp`` a kernel runs on when every number it is given is a float.

    A kernel builds its masks only with comparisons, ``&`` and ``where``:
    on a Python bool ``~True`` is -2, which is truthy.
    """

    log, log1p, log2, exp, sqrt, isfinite = math.log, math.log1p, math.log2, math.exp, math.sqrt, math.isfinite
    any = all = bool
    maximum, minimum = max, min
    min = max = float  # the least and the greatest of one float are itself
    extract = staticmethod(lambda cond, a: [a] if cond else [])  # one float is a column of one
    where = staticmethod(lambda cond, a, b: a if cond else b)  # both branches evaluated, as in numpy


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, made by ``dataclasses`` on first read.

    Its fields are the parameters of the class's ``__init__``, with their
    annotations and defaults.  With it, ``dataclasses.fields``, ``replace``
    (which calls ``__init__``, so it validates), ``asdict`` and
    ``is_dataclass`` treat the record as the frozen dataclass it replaces.
    """

    def __init__(self):
        self._made = {}

    def __get__(self, obj, cls):
        if cls not in self._made:
            from dataclasses import field, make_dataclass

            init, names = cls.__init__, cls.__match_args__
            defaults = init.__defaults__ or ()
            first = len(names) - len(defaults)  # the first field with a default
            specs = [(n, init.__annotations__[n]) for n in names[:first]]
            specs += [(n, init.__annotations__[n], field(default=d)) for n, d in zip(names[first:], defaults)]
            self._made[cls] = make_dataclass(cls.__name__, specs, frozen=True).__dataclass_fields__
        return self._made[cls]


class _Record:
    """Base of the frozen records: fields set once by ``__init__``, compared and hashed as a tuple.

    Each subclass's ``__init__`` takes its fields in order, stores them with
    ``_set`` and validates them.  ``repr``, ``==``, ``hash`` and assignment
    behave as on a frozen dataclass, without importing ``dataclasses`` unless
    an assignment is refused or the dataclass view is read.
    """

    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _set(self, *values):
        for name, v in zip(self.__match_args__, values):
            object.__setattr__(self, name, v)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GameParams(_Record):
    """Physical and economic constants of one game instance.

    t_aj     -- jammer reaction delay [s]
    delta    -- clock precision of the timing channel [s]
    p_t      -- target transmit power [W]
    p_j      -- jammer transmit power [W]
    t_p      -- packet duration [s]
    c_t      -- jammer energy-cost weight [bit/(s*J)]
    c_t_star -- target energy-cost weight [bit/(s*J)]
    """

    def __init__(
        self, t_aj: float, delta: float, p_t: float, p_j: float, t_p: float, c_t: float, c_t_star: float = 0.0
    ):
        self._set(t_aj, delta, p_t, p_j, t_p, c_t, c_t_star)
        for name in ("t_aj", "delta", "p_t", "p_j", "t_p", "c_t"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidParams(f"{name} must be a positive finite number, got {v!r}")
        v = self.c_t_star
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            raise InvalidParams(f"c_t_star must be >= 0, got {v!r}")

    @property
    def eta(self) -> float:
        """c_t * p_j * ln 2, the natural-log form of the jammer's cost weight.

        Refused below the normal doubles, where it keeps too few bits for the
        formulas that divide by it.
        """
        return _eta(self, self.c_t, _floats)

    @property
    def transmit_cost(self) -> float:
        """c_t_star * t_p * p_t [bit/s]; where that overflows, (least * greatest) * middle of the three."""
        cost = self.c_t_star * self.t_p * self.p_t
        if cost == math.inf:
            lo, mid, hi = sorted((self.c_t_star, self.t_p, self.p_t))
            cost = (lo * hi) * mid
        return cost

    @property
    def x_min(self) -> float:
        """Smallest admissible silence bound: at least one bit per cycle."""
        return 2.0 * self.delta


class StrategyProfile(_Record):
    """A point (x, y): target's max silence duration, jammer's mean jam duration."""

    def __init__(self, x: float, y: float):
        self._set(x, y)
        if not (math.isfinite(self.x) and self.x > 0):
            raise InvalidStrategy(f"x must be positive and finite, got {self.x!r}")
        if not (math.isfinite(self.y) and self.y >= 0):
            raise InvalidStrategy(f"y must be >= 0 and finite, got {self.y!r}")


class UtilityPair(NamedTuple):
    u_t: float
    u_j: float


_KEPT = (_Record, type(None), Enum, str)  # the arguments a kernel passes as they are
_ON_FLOATS = (float, int, *_KEPT)


def _kernel(body):
    """``body(..., *, xp)``, written over ``xp``, as one function of floats or arrays.

    Python floats and ints (``np.float64`` is a float) run it on ``_floats``
    and give floats.  Any other number, such as an array, a list or a 0-d
    array, imports numpy and runs it on float arrays, with overflow warnings
    off.  A GameParams, a WBranch, a string and None pass as they are.
    """

    @functools.wraps(body)
    def kernel(*args, **kwargs):
        for a in (*args, *kwargs.values()):
            if not isinstance(a, _ON_FLOATS):
                import numpy as np

                cast = lambda a: a if isinstance(a, _KEPT) else np.asarray(a, dtype=float)  # noqa: E731
                with np.errstate(over="ignore"):
                    return body(*map(cast, args), **{k: cast(a) for k, a in kwargs.items()}, xp=np)
        return body(*args, **kwargs, xp=_floats)

    return kernel


def _eta(p: GameParams, c_t, xp):
    eta = c_t * p.p_j * _LN2
    if xp.any(eta < sys.float_info.min):
        raise DomainError(f"eta = c_t*p_j*ln2 underflows (c_t = {float(xp.min(c_t))!r}, p_j = {p.p_j!r})")
    return eta


def _check_strategy(p: GameParams, x, y, xp, at=lambda refused: "") -> None:
    """Refuse an x below 2*delta, a y below 0, or either not finite; ``at(refused)`` ends the first message."""
    if xp.any(x < p.x_min):
        raise InvalidStrategy(f"x must be >= 2*delta = {p.x_min:g}{at(x < p.x_min)}")
    if xp.any(y < 0):
        raise InvalidStrategy("y must be >= 0")
    if not xp.all(xp.isfinite(x) & xp.isfinite(y)):
        raise InvalidStrategy("x and y must be finite")


@_kernel
def capacity_xy(p: GameParams, x, y, *, xp):
    """Timing-channel capacity log2(x/delta) / (t_aj + y + x/2) [bit/s].

    The denominator is the expected cycle length: uniform silence has mean x/2.
    """
    _check_strategy(p, x, y, xp)
    return _log_ratio(p, x, xp, "log2") / (p.t_aj + y + x / 2.0)


def _log_ratio(p: GameParams, x, xp=_floats, log="log"):
    """ln(x/delta), as ln x - ln delta where x/delta overflows; log2 with log="log2"."""
    r = x / p.delta
    return xp.where(r < math.inf, getattr(xp, log)(r), getattr(xp, log)(x) - getattr(math, log)(p.delta))


@_kernel
def utilities_xy(p: GameParams, x, y, c_t=None, *, xp) -> UtilityPair:
    """(u_t, u_j) at (x, y): capacity minus each side's energy cost.

    The jammer's cost charges the commanded mean y; weights c_t replace p.c_t
    when given.  u_t does not depend on the weights, so it takes the shape of
    x and y alone: with float x and y and an array c_t, u_t is 0-d and u_j
    an array.  Realized-energy accounting belongs to the simulator, not to
    the analytic game.  Either utility is refused past the largest double.
    """
    c = capacity_xy(p, x, y)
    u_j = -c - (p.c_t if c_t is None else c_t) * y * p.p_j
    return UtilityPair(_finite("u_t", c - p.transmit_cost, xp), _finite("u_j", u_j, xp))


def _finite(quantity: str, v, xp=_floats):
    """v, or a DomainError naming the quantity where it, or any element of it, left the double range."""
    if not xp.all(xp.isfinite(v)):
        raise DomainError(f"{quantity} leaves the double range")
    return v
