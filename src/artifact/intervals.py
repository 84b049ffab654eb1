"""Directed-rounding interval arithmetic used by every enclosure in this package.

IEEE-754 double arithmetic rounds correctly to nearest, so nudging each
computed endpoint one ulp outward with ``math.nextafter`` yields a sound
enclosure for the rational operations.  ``math.exp`` / ``math.log`` / ``math.pow``
are not guaranteed correctly rounded by libm, so transcendental results are
nudged ``LIBM_GUARD_ULPS`` ulps instead.
"""

from __future__ import annotations

import math

from ._record import record, set_field

LIBM_GUARD_ULPS = 2

# Outward factors for float64 arrays, where nextafter per element is slow.  A
# rounding errs by at most half an eps relative, so scaling by UP / DOWN moves
# a value computed with up to three roundings (the scaling included) past the
# true one; UP_EXP / DOWN_EXP do the same after exp or expm1 (LIBM_GUARD_ULPS
# ulps).  Underflowing results err by subnormal ulps instead; FLOOR is a
# normal number above any sum of those arising here.
EPS = 2.0**-52
UP, DOWN = 1.0 + 2.0 * EPS, 1.0 - 2.0 * EPS
UP_EXP, DOWN_EXP = 1.0 + (2 * LIBM_GUARD_ULPS + 2) * EPS, 1.0 - (2 * LIBM_GUARD_ULPS + 2) * EPS
FLOOR = 2.0**-1000

_INF = math.inf


def _down(x: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, -_INF)
    return x


def _up(x: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, _INF)
    return x


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


@record
class Interval:
    """Closed interval [lo, hi]; ``hi`` may be +inf for quantities unbounded above."""

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:  # written out: every arithmetic step builds one
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoint is NaN")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if math.isinf(lo) and lo > 0:
            raise ValueError("lower endpoint must be finite or -inf")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(float(x), float(x))

    @staticmethod
    def hull(*members: "Interval") -> "Interval":
        return Interval(min(m.lo for m in members), max(m.hi for m in members))

    # -- queries -----------------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        if math.isinf(self.hi):
            return _INF
        return 0.5 * (self.lo + self.hi)

    def rel_width(self) -> float:
        scale = max(abs(self.lo), abs(self.hi))
        if scale == 0.0:
            return 0.0
        if math.isinf(self.width):
            return _INF
        return self.width / scale

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other: "Interval | float") -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Interval | float") -> "Interval":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        cands = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        cands = [0.0 if math.isnan(c) else c for c in cands]  # 0 * inf under enclosure
        if (self.lo == 0.0 == self.hi) or (o.lo == 0.0 == o.hi):
            return Interval(0.0, 0.0)  # an exactly-zero factor needs no rounding pad
        return Interval(_down(min(cands)), _up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError("interval division by an interval containing zero")
        cands = [self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi]
        cands = [0.0 if math.isnan(c) else c for c in cands]
        return Interval(_down(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other: "Interval | float") -> "Interval":
        return _coerce(other) / self

    # -- elementary functions ----------------------------------------------

    def exp(self) -> "Interval":
        """Past about 709.78 exp overflows: the upper end is then +inf and the
        lower end a double just below the largest finite one, which the true
        value exceeds."""
        return Interval(
            max(0.0, _down(_exp(self.lo), LIBM_GUARD_ULPS)),
            _up(_exp(self.hi), LIBM_GUARD_ULPS),
        )

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise ValueError("log needs a strictly positive interval")
        hi = _INF if math.isinf(self.hi) else _up(math.log(self.hi), LIBM_GUARD_ULPS)
        return Interval(_down(math.log(self.lo), LIBM_GUARD_ULPS), hi)

    def expm1(self) -> "Interval":
        """exp(x) - 1, accurate where x is near 0 (so 1 - exp(-x) keeps its digits)."""
        return Interval(
            max(-1.0, _down(math.expm1(self.lo), LIBM_GUARD_ULPS)),
            _up(math.expm1(self.hi), LIBM_GUARD_ULPS) if not math.isinf(self.hi) else _INF,
        )

    def log1p(self) -> "Interval":
        if self.lo <= -1.0:
            raise ValueError("log1p needs lo > -1")
        hi = _INF if math.isinf(self.hi) else _up(math.log1p(self.hi), LIBM_GUARD_ULPS)
        return Interval(_down(math.log1p(self.lo), LIBM_GUARD_ULPS), hi)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise ValueError("sqrt needs a nonnegative interval")
        hi = _INF if math.isinf(self.hi) else _up(math.sqrt(self.hi))
        return Interval(max(0.0, _down(math.sqrt(self.lo))), hi)

    def pow(self, exponent: float) -> "Interval":
        """x ** exponent for a positive base interval and a real exponent."""
        if self.lo < 0.0:
            raise ValueError("pow needs a nonnegative base interval")
        if self.lo == 0.0 and exponent < 0.0:
            raise ZeroDivisionError("negative power of an interval touching zero")
        pts = []
        for e in (self.lo, self.hi):
            if math.isinf(e):
                pts.append(_INF if exponent > 0 else 0.0)
            else:
                pts.append(math.pow(e, exponent))
        lo, hi = min(pts), max(pts)
        lo = max(0.0, _down(lo, LIBM_GUARD_ULPS)) if not math.isinf(lo) else lo
        hi = _up(hi, LIBM_GUARD_ULPS) if not math.isinf(hi) else hi
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


def _coerce(x: "Interval | float") -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(float(x))


ZERO = Interval.point(0.0)
ONE = Interval.point(1.0)


def float_sum_enclosure(terms, term_ulps: int = 0) -> Interval:
    """Sound enclosure of a sum of float terms, each within ``term_ulps`` ulps
    of the true term it stands for (0: exact terms).

    ``math.fsum`` rounds the sum of the floats correctly, and we still widen
    by ``ceil(log2 n) + 1`` ulps of the absolute-value sum (the error bound
    of pairwise summation) plus the term errors (``term_ulps`` eps of that
    sum and subnormal ulps per term).  A sum of nonnegative terms that
    overflows is enclosed as [largest double, +inf] (less the term errors),
    as ``Interval.exp`` encloses an overflow; with terms of both signs an
    overflowing partial sum says nothing of the true one, which is then
    enclosed by the whole line.
    """
    n = len(terms)
    if n == 0:
        return ZERO
    if n == 1 and not term_ulps:
        return Interval.point(float(terms[0]))
    try:
        s, a = math.fsum(terms), math.fsum(map(abs, terms))
    except OverflowError:  # a partial sum overflows
        if min(terms) < 0.0:
            return Interval(-_INF, _INF)
        big = math.nextafter(_INF, 0.0)
        return Interval(_down(big * (1.0 - term_ulps * EPS)) if term_ulps else big, _INF)
    if a == 0.0 and not term_ulps:
        return ZERO
    eps = math.ulp(max(a, abs(s)))
    guard = (n.bit_length() + 2) * eps + term_ulps * (math.ulp(1.0) * a + n * math.ulp(0.0))
    return Interval(s - guard, s + guard)
