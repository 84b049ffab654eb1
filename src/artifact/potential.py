"""Translation-invariant spin pair interactions and one engine for their tail sums.

A pair interaction is specified by a coupling law J on distances 1, 2, ... ,
an inverse temperature beta, and an optional truncation range.  The letter
alphabet is {-1, +1}.  The pair energy of sites i != j is
``-(beta / 2) * J(|i - j|) * x_i * x_j``, so the oscillation contributed by a
single pair is exactly ``beta * J(|i - j|)``.

Every certified quantity is a function of the coupling tails T(m) =
sum_{m <= j <= R} J(j) (R the truncation range, or infinity).  One engine
encloses them, a few ulps wide, for point queries and for tables:

* Point tails.  A power law sums j = m .. N-1 directly, N a fixed small count
  past m, and the rest by Euler-Maclaurin at N, in O(1) time and memory:

      sum_{j >= N} j^-q = N^(1-q)/(q-1) + N^-q/2
                          + sum_{k=1}^{K} B_2k/(2k)! (q)_(2k-1) N^(1-q-2k) + R_K.

  Every even derivative of x^-q is positive, so R_K lies between 0 and the
  first neglected term (DLMF 2.10.iii), which is added as a one-sided pad.
  Exponential laws use the closed form A e^{-rm} (1 - e^{-r(R+1-m)}) /
  (1 - e^{-r}) with enclosed exponents; finite tables sum their entries.
* Tables (``TailEnclosureTable``).  One point tail anchors T(H+1), then the
  exact recurrence T(m) = T(m+1) + J(m) runs back to m = 1 in one numpy pass
  with an outward rounding budget; exponential tables use the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .intervals import (
    DOWN, DOWN_EXP, EPS, FLOOR, LIBM_GUARD_ULPS, ONE, UP, UP_EXP, Interval, ZERO, float_sum_enclosure,
)

DEFAULT_REL_WIDTH = 1e-10

SPINS = (-1, 1)


def fraction_interval(x: Fraction) -> Interval:
    """Tightest Interval around an exact rational (a point when representable)."""
    f = float(x)
    g = Fraction(f)
    if g == x:
        return Interval.point(f)
    if g < x:
        return Interval(f, math.nextafter(f, math.inf))
    return Interval(math.nextafter(f, -math.inf), f)


# Euler-Maclaurin coefficients B_2k / (2k)! for k = 1 .. 12.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730),
)
_EM_COEFFS = tuple(
    fraction_interval(b / math.factorial(2 * k)) for k, b in enumerate(_BERNOULLI, start=1)
)
# Correction terms below this fraction of the tail end the expansion.
_EM_STOP = 2.0**-56
# The cutoff N sits this many terms (plus ceil(q)) past the first index.
_EM_OFFSET = 12
# A power-law term A * j**-q rounds in pow (libm guard) and the product.
_POWER_TERM_ULPS = LIBM_GUARD_ULPS + 1
# Terms per numpy block of a truncated weighted total.
_WEIGHTED_CHUNK = 1 << 20


def _em_tail(q: float, N: int) -> Interval:
    """Enclosure of sum_{j >= N} j**-q by Euler-Maclaurin at N (module docstring)."""
    Nq, qi = Interval.point(float(N)), Interval.point(q)
    x = Nq.pow(1.0 - q)  # N^(1-q); 1 - q and q - 1 are exact for q > 1
    out = x / (q - 1.0) + x / Nq * 0.5
    inv_n2 = ONE / (Nq * Nq)
    y = x * inv_n2  # N^(1-q-2k) at k = 1
    rising = qi  # (q)_(2k-1) at k = 1
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * rising * y
        if k == len(_EM_COEFFS) or max(-term.lo, term.hi) <= _EM_STOP * out.lo:
            break
        out = out + term
        y = y * inv_n2
        rising = rising * (qi + float(2 * k - 1)) * (qi + float(2 * k))
    # the remainder lies between 0 and the first neglected term
    return out + Interval(min(term.lo, 0.0), max(term.hi, 0.0))


def _power_sum(q: float, n: int, last: Optional[int] = None) -> Interval:
    """Enclosure of sum_{n <= j <= last} j**-q for q > 1 (``last`` None: no end)."""
    N = n + _EM_OFFSET + math.ceil(q)
    stop = N if last is None else min(N, last + 1)
    out = float_sum_enclosure(np.arange(n, stop, dtype=np.float64) ** -q, LIBM_GUARD_ULPS)
    if stop == N:
        out = out + _em_tail(q, N)
        if last is not None:
            out = out - _em_tail(q, last + 1)
    return Interval(max(0.0, out.lo), out.hi)


@dataclass(frozen=True)
class CouplingLaw:
    """Nonnegative coupling strengths J(1), J(2), ... in one of three closed forms.

    power_law:    J(j) = amplitude * j**(-q), q > 1
    exponential:  J(j) = amplitude * exp(-rate * j), rate > 0
    finite_table: J(j) = values[j - 1] for j <= len(values), else 0
    """

    kind: str
    q: float = 0.0
    amplitude: float = 1.0
    rate: float = 0.0
    values: tuple = ()

    def __post_init__(self) -> None:
        if self.kind == "power_law":
            if not self.q > 1.0:
                raise ValueError("power law needs q > 1 for summability")
            if self.amplitude < 0.0:
                raise ValueError("amplitude must be nonnegative")
        elif self.kind == "exponential":
            if not self.rate > 0.0:
                raise ValueError("exponential law needs rate > 0")
            if self.amplitude < 0.0:
                raise ValueError("amplitude must be nonnegative")
        elif self.kind == "finite_table":
            if any(v < 0.0 for v in self.values):
                raise ValueError("table entries must be nonnegative")
        else:
            raise ValueError(f"unknown coupling kind {self.kind!r}")

    @staticmethod
    def power_law(q: float, amplitude: float = 1.0) -> "CouplingLaw":
        return CouplingLaw(kind="power_law", q=float(q), amplitude=float(amplitude))

    @staticmethod
    def exponential(rate: float, amplitude: float = 1.0) -> "CouplingLaw":
        return CouplingLaw(kind="exponential", rate=float(rate), amplitude=float(amplitude))

    @staticmethod
    def finite_table(values) -> "CouplingLaw":
        return CouplingLaw(kind="finite_table", values=tuple(float(v) for v in values))

    @staticmethod
    def zero() -> "CouplingLaw":
        return CouplingLaw(kind="finite_table", values=())

    def strength(self, j: int) -> float:
        """J(j) as an exact double (products with amplitude round once)."""
        if j < 1:
            raise ValueError("distances start at 1")
        if self.kind == "power_law":
            return self.amplitude * float(j) ** (-self.q)
        if self.kind == "exponential":
            return self.amplitude * math.exp(-self.rate * j)
        return self.values[j - 1] if j <= len(self.values) else 0.0

    @property
    def finite_range(self) -> Optional[int]:
        """Largest distance with a nonzero coupling, or None if unbounded."""
        if self.kind == "finite_table":
            rng = 0
            for j, v in enumerate(self.values, start=1):
                if v != 0.0:
                    rng = j
            return rng
        if self.amplitude == 0.0:
            return 0
        return None

    def tail(self, n: int, rel_width: float = DEFAULT_REL_WIDTH, last: Optional[int] = None) -> Interval:
        """Enclosure of sum_{n <= j <= last} J(j) (``last`` None: to infinity).

        The enclosure is a few ulps wide whatever ``rel_width`` asks for; the
        argument stays for callers that thread one target width through.
        """
        if n < 1:
            raise ValueError("tail index starts at 1")
        if last is not None and n > last:
            return ZERO
        if self.kind == "finite_table":
            return float_sum_enclosure(self.values[n - 1 : last])
        if self.amplitude == 0.0:
            return ZERO
        if self.kind == "exponential":
            lo, hi = self._exponential_tails(np.array([float(n)]), last)
            return Interval(float(lo[0]), float(hi[0]))
        return Interval.point(self.amplitude) * _power_sum(self.q, n, last)

    def _exponential_tails(self, m: np.ndarray, last: Optional[int]):
        """Endpoint arrays of A e^{-rm} (1 - e^{-r(last+1-m)}) / (1 - e^{-r}) at each m.

        The products r * m round, so each exponent is pushed outward before
        exp (``intervals.UP``); the truncation factor is 1 without ``last``
        and exactly 0 beyond it.
        """
        if self.amplitude == 0.0:
            return np.zeros(m.size), np.zeros(m.size)
        scale = Interval.point(self.amplitude) / -Interval.point(-self.rate).expm1()
        rm = self.rate * m
        lo = np.exp(rm * -UP) * (scale.lo * DOWN_EXP)
        hi = np.exp(rm * -DOWN) * (scale.hi * UP_EXP)
        if last is not None:
            d = self.rate * np.maximum(last + 1.0 - m, 0.0)
            lo *= -np.expm1(d * -DOWN) * DOWN_EXP
            hi *= np.minimum(-np.expm1(d * -UP) * UP_EXP, 1.0)
        pad = FLOOR * scale.hi
        lo, hi = np.maximum(lo * DOWN - pad, 0.0), hi * UP + pad
        if last is not None:
            lo[m > last] = hi[m > last] = 0.0
        return lo, hi

    def weighted_total(self, rel_width: float = DEFAULT_REL_WIDTH, last: Optional[int] = None):
        """Enclosure of sum_{1 <= j <= last} j * J(j) (``last`` None: to
        infinity), or None when that series diverges.

        Divergence is structural: a power law with q <= 2 majorizes a harmonic
        series after weighting, so no partial sum is consulted.  Totals are
        cached per (law, last), so callers may ask once per row.
        """
        return _weighted_total(self, last)


@lru_cache(maxsize=32)
def _weighted_total(law: CouplingLaw, last: Optional[int]) -> Optional[Interval]:
    if law.kind == "finite_table":
        # exact rational sum of the products j * J(j), rounded once
        return fraction_interval(sum(j * Fraction(v) for j, v in enumerate(law.values[:last], 1)))
    if law.amplitude == 0.0:
        return ZERO
    amp = Interval.point(law.amplitude)
    if law.kind == "exponential":
        # sum_{j <= R} j x^j = x (1 - x^R (1 + R (1 - x))) / (1 - x)^2 at x = e^{-r};
        # the bracket is 1 for R = infinity
        e = Interval.point(-law.rate).exp()
        d = -Interval.point(-law.rate).expm1()
        total = e / (d * d)
        if last is not None:
            x_last = (Interval.point(-law.rate) * float(last)).exp()
            total = total * (ONE - x_last * (ONE + d * float(last)))
        return amp * total
    if last is None:
        return None if law.q <= 2.0 else amp * _power_sum(law.q - 1.0, 1)
    # j * j**-q is summed as j**(1 - q), one pow per term; 1 - q is exact for q > 1
    total = ZERO
    for start in range(1, last + 1, _WEIGHTED_CHUNK):
        j = np.arange(start, min(start + _WEIGHTED_CHUNK, last + 1), dtype=np.float64)
        total = total + float_sum_enclosure(j ** (1.0 - law.q), LIBM_GUARD_ULPS)
    return amp * total


_LD_EPS = float(np.finfo(np.longdouble).eps)  # accumulator precision


def _suffix_enclosures(terms: np.ndarray, anchor: Interval, term_ulps: int):
    """Endpoint arrays of anchor + sum_{i >= m} terms[i] for m = 0 .. len(terms).

    ``terms`` are nonnegative floats, each within ``term_ulps`` ulps of its
    true value.  Suffix sums accumulate in extended precision from the far
    end, so the sum at m takes len(terms) - m additions, each off by at most
    half an accumulator eps of that sum (suffix sums only grow toward m = 0).
    The budget charges a full eps per addition, four float64 roundings (the
    conversion, the anchor and the budget itself), the term errors and
    FLOOR, so the float64 endpoints need no further rounding.
    """
    H = terms.size
    s = np.zeros(H + 1)
    s[:H] = np.cumsum(terms[::-1], dtype=np.longdouble)[::-1]
    steps = np.arange(H + 3, 2, -1, dtype=np.float64)  # additions at m, plus 3
    top = s + anchor.hi
    budget = top * (steps * _LD_EPS + (term_ulps + 4) * EPS) + FLOOR
    return np.maximum(s + anchor.lo - budget, 0.0), np.where(top > 0.0, top + budget, 0.0)


class TailEnclosureTable:
    """Enclosures of the effective tails T(m) for every m = 1 .. horizon + 1.

    A contraction profile needs thousands of consecutive tails, so they come
    from one bulk pass: the closed form for exponential laws, otherwise one
    point tail anchored at horizon + 1 and the exact recurrence T(m) = T(m+1)
    + J(m) (``_suffix_enclosures``).  Entries beyond a truncation are exactly 0.
    """

    def __init__(self, potential: "PairPotential", horizon: int, rel_width: float = DEFAULT_REL_WIDTH):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.potential = potential
        self.horizon = horizon
        self.rel_width = rel_width
        law, R = potential.coupling, potential.truncation_range
        if law.kind == "exponential":
            self._lo, self._hi = law._exponential_tails(np.arange(1.0, horizon + 2.0), R)
        else:
            if law.kind == "power_law":
                J = law.amplitude * np.arange(1.0, horizon + 1.0) ** -law.q
            else:
                J = np.zeros(horizon)
                J[: min(horizon, len(law.values))] = law.values[:horizon]
            if R is not None:
                J[R:] = 0.0
            anchor = potential.coupling_tail(horizon + 1, rel_width)
            ulps = _POWER_TERM_ULPS if law.kind == "power_law" else 0
            self._lo, self._hi = _suffix_enclosures(J, anchor, ulps)
        # tables are shared between callers; the views handed out stay read-only
        self._lo.flags.writeable = self._hi.flags.writeable = False

    def at(self, m: int) -> Interval:
        if not 1 <= m <= self.horizon + 1:
            raise ValueError(f"m = {m} outside table horizon {self.horizon}")
        return Interval(float(self._lo[m - 1]), float(self._hi[m - 1]))

    def midpoints(self, m_max: int) -> np.ndarray:
        """Float midpoints of the tails at m = 1 .. m_max, for diagnostics."""
        lo, hi = self.enclosures(m_max)
        return 0.5 * (lo + hi)

    def enclosures(self, m_max: int):
        """Endpoint arrays (lo, hi) of the tails at m = 1 .. m_max."""
        if m_max > self.horizon + 1:
            raise ValueError("m_max beyond table horizon")
        return self._lo[:m_max], self._hi[:m_max]


@dataclass(frozen=True)
class PairPotential:
    """A coupling law at inverse temperature beta, optionally truncated.

    ``truncation_range = R`` zeroes every coupling at distance > R, giving a
    finite-range interaction whose kernels are exactly computable.  At
    beta = 0 every interaction vanishes, so the range is 0 whatever the law.
    """

    coupling: CouplingLaw
    beta: float
    truncation_range: Optional[int] = None

    def __post_init__(self) -> None:
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.truncation_range is not None and self.truncation_range < 0:
            raise ValueError("truncation range must be nonnegative")

    def strength(self, j: int) -> float:
        if self.truncation_range is not None and j > self.truncation_range:
            return 0.0
        return self.coupling.strength(j)

    @property
    def finite_range(self) -> Optional[int]:
        if self.beta == 0.0:
            return 0
        base = self.coupling.finite_range
        if self.truncation_range is None:
            return base
        if base is None:
            return self.truncation_range
        return min(base, self.truncation_range)

    def is_finite_range(self) -> bool:
        return self.finite_range is not None

    def coupling_tail(self, n: int, rel_width: float = DEFAULT_REL_WIDTH) -> Interval:
        """Enclosure of sum_{j >= n} of the effective (possibly truncated) J."""
        return self.coupling.tail(n, rel_width, self.truncation_range)

    def beyond_range_tail(self, rel_width: float = DEFAULT_REL_WIDTH) -> Interval:
        """Mass of the raw law beyond the truncation range (zero when untruncated)."""
        R = self.truncation_range
        if R is None:
            return ZERO
        return self.coupling.tail(R + 1, rel_width)

    def tail_enclosure_table(self, horizon: int, rel_width: float = DEFAULT_REL_WIDTH):
        """Bulk effective-tail enclosures; see TailEnclosureTable."""
        return TailEnclosureTable(self, horizon, rel_width)

    def weighted_total(self, rel_width: float = DEFAULT_REL_WIDTH):
        """Enclosure of sum_j j * J(j) for the effective J, or None when it diverges."""
        if self.finite_range == 0:
            return ZERO
        return self.coupling.weighted_total(rel_width, self.truncation_range)


def tail_variation(p: PairPotential, n: int, rel_width: float = DEFAULT_REL_WIDTH) -> Interval:
    """Enclosure of the total oscillation of interactions linking site 0 to [n, inf).

    For a pair interaction this is beta * sum_{j >= n} J(j): the pairs {0, j}
    with j >= n >= 1 are exactly the sets through 0 meeting [n, inf), and each
    contributes oscillation beta * J(j).
    """
    if n < 1:
        raise ValueError("n starts at 1")
    return Interval.point(p.beta) * p.coupling_tail(n, rel_width)


@dataclass(frozen=True)
class SeriesValue:
    """Outcome of a nonnegative series: an enclosure, or a certified divergence."""

    enclosure: Optional[Interval]
    divergent: bool
    certificate: str

    def is_finite(self) -> bool:
        return not self.divergent


def ruelle_sum(p: PairPotential, rel_width: float = DEFAULT_REL_WIDTH) -> SeriesValue:
    """Diameter-weighted total influence sum_{sets through 0} diam * osc.

    Both orientations {0, j} and {-j, 0} contribute beta/2 * J(j) at diameter
    j, so the total is beta * sum_j j * J(j).  Divergence (power law with
    q <= 2) is certified by harmonic comparison, never from partial sums.
    """
    return _weighted_series(p, p.beta, rel_width)


def coelho_quas_sum(p: PairPotential, rel_width: float = DEFAULT_REL_WIDTH) -> SeriesValue:
    """One-sided variant: only sets whose leftmost site is 0, half of ruelle_sum."""
    return _weighted_series(p, 0.5 * p.beta, rel_width)


def _weighted_series(p: PairPotential, factor: float, rel_width: float) -> SeriesValue:
    total = p.weighted_total(rel_width)
    if total is None:
        return SeriesValue(
            None,
            True,
            f"j * J(j) ~ j**(1 - {p.coupling.q}) with exponent >= -1 majorizes a harmonic series",
        )
    return SeriesValue(Interval.point(factor) * total, False, "finite weighted coupling sum")


@dataclass(frozen=True)
class VariationProfile:
    """Tail-variation profile n -> enclosure, with certified asymptotics when known.

    ``slope`` encloses lim n * at(n) (hi may be +inf); ``remainder_summable``
    states whether at(n) - slope/n has a finite sum.  ``exact`` marks profiles
    whose closed form is an equality rather than an upper bound.  ``form``
    names the closed-form family ("pair_tail", "hyperbolic") so downstream
    criteria know which asymptotic identities apply.
    """

    source: str
    _at: object
    slope: Optional[Interval] = None
    remainder_summable: Optional[bool] = None
    exact: bool = True
    form: Optional[str] = None

    def at(self, n: int) -> Interval:
        return self._at(n)

    @staticmethod
    def from_potential(p: PairPotential, rel_width: float = DEFAULT_REL_WIDTH) -> "VariationProfile":
        slope, summable = _slope_certificate(p)
        return VariationProfile(
            source=_describe(p),
            _at=lambda n: tail_variation(p, n, rel_width),
            slope=slope,
            remainder_summable=summable,
            exact=True,
            form="pair_tail",
        )

    @staticmethod
    def hyperbolic(coefficient: Interval, source: str = "c/n profile") -> "VariationProfile":
        """Profile at(n) = c / n exactly, for criteria driven by synthetic inputs."""
        return VariationProfile(
            source=source,
            _at=lambda n: coefficient * Interval(1.0, 1.0) / float(n),
            slope=coefficient,
            remainder_summable=True,
            exact=True,
            form="hyperbolic",
        )


def _slope_certificate(p: PairPotential):
    """Enclosure of lim n * tail_variation(n) plus remainder summability.

    Finite range, exponential, and power laws with q > 2 have slope 0 with a
    summable profile.  q = 2 has slope beta * amplitude exactly, and the
    remainder b(T(n) - 1/n) telescopes to the finite value beta * amplitude.
    q < 2 has n * tail ~ n**(2-q) -> inf.
    """
    c = p.coupling
    if p.is_finite_range() or c.kind == "exponential" or (
        c.kind == "power_law" and c.q > 2.0
    ):
        return Interval.point(0.0), True
    if c.kind == "power_law" and c.q == 2.0:
        return strength_interval(p), True
    return Interval(0.0, math.inf), False


def strength_fraction(p: PairPotential) -> Fraction:
    """beta * amplitude as an exact rational, for threshold trichotomies.

    Criteria compare this strength against rationals like 1/2, where a one-ulp
    enclosure pad would turn an exact boundary case into a straddle.
    """
    return Fraction(p.beta) * Fraction(p.coupling.amplitude)


def strength_interval(p: PairPotential) -> Interval:
    return fraction_interval(strength_fraction(p))


def _describe(p: PairPotential) -> str:
    c = p.coupling
    if c.kind == "power_law":
        base = f"power_law(q={c.q}, amplitude={c.amplitude})"
    elif c.kind == "exponential":
        base = f"exponential(rate={c.rate}, amplitude={c.amplitude})"
    else:
        base = f"finite_table({list(c.values)})"
    trunc = "" if p.truncation_range is None else f", R={p.truncation_range}"
    return f"{base}, beta={p.beta}{trunc}"
