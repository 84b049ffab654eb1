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
  A sum ending at R takes each term as a difference at N and R + 1, so the
  truncated weighted total sum_{j <= R} j^(1-q), q in (1, 2], is O(1) in R.
  Exponential laws use the closed form A e^{-rm} (1 - e^{-r(R+1-m)}) /
  (1 - e^{-r}) with enclosed exponents; finite tables sum their entries.
* Tables.  The R_n rows read the tails from one table per potential, whose
  segments a point tail anchors: ``rows.TailEnclosureTable``, built by
  ``PairPotential.tail_enclosure_table``, which imports ``rows`` where it
  runs, so a process that builds no table never loads it.

Everything here is scalar Python: no tail or total loads NumPy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from ._record import record, set_field
from .intervals import LIBM_GUARD_ULPS, ONE, Interval, ZERO, float_sum_enclosure

SPINS = (-1, 1)


def fraction_interval(x: Fraction) -> Interval:
    """Tightest Interval around an exact rational (a point when representable).

    Past the double range it is [largest double, +inf], or the mirror image
    for negative x, as ``Interval.exp`` encloses an overflow.
    """
    try:
        f = float(x)
    except OverflowError:
        big = math.nextafter(math.inf, 0.0)
        return Interval(big, math.inf) if x > 0 else Interval(-math.inf, -big)
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


def _em_sum(q: float, N: int, L: Optional[int] = None) -> Interval:
    """Enclosure of sum_{N <= j < L} j**-q by Euler-Maclaurin at N (module
    docstring); ``L`` None: no end, which needs q > 1.  With an end the
    integral is N^(1-q) expm1((1-q) log(L/N)) / (1-q), or log(L/N) at q = 1,
    so nothing large cancels when q is near 1, and any q > 0 serves."""
    Nq, qi = Interval.point(float(N)), Interval.point(q)
    x = Nq.pow(1.0 - q)  # N^(1-q); 1 - q and q - 1 are exact for q > 1 and for q = Q - 1, Q > 1
    inv_n2 = ONE / (Nq * Nq)
    y = x * inv_n2  # N^(1-q-2k) at k = 1
    if L is None:
        out = x / (q - 1.0) + x / Nq * 0.5
    else:
        Lq = Interval.point(float(L))
        log_ratio = (Interval.point(float(L - N)) / Nq).log1p()
        integral = log_ratio if q == 1.0 else x * ((log_ratio * (1.0 - q)).expm1() / (1.0 - q))
        x_end = Lq.pow(1.0 - q)
        out = integral + (x / Nq - x_end / Lq) * 0.5
        inv_l2 = ONE / (Lq * Lq)
        y_end = x_end * inv_l2
    rising = qi  # (q)_(2k-1) at k = 1
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * rising * (y if L is None else y - y_end)
        if k == len(_EM_COEFFS) or max(-term.lo, term.hi) <= _EM_STOP * out.lo:
            break
        out = out + term
        y = y * inv_n2
        if L is not None:
            y_end = y_end * inv_l2
        rising = rising * (qi + float(2 * k - 1)) * (qi + float(2 * k))
    # the remainder lies between 0 and the first neglected term (difference)
    return out + Interval(min(term.lo, 0.0), max(term.hi, 0.0))


def _power_sum(q: float, n: int, last: Optional[int] = None) -> Interval:
    """Enclosure of sum_{n <= j <= last} j**-q for q > 1 (``last`` None: no
    end), or for q > 0 with a ``last``, in O(1) time whatever ``last`` is."""
    N = n + _EM_OFFSET + math.ceil(q)
    stop = N if last is None else min(N, last + 1)
    out = float_sum_enclosure([float(j) ** -q for j in range(n, stop)], LIBM_GUARD_ULPS)
    if last is None or last >= N:
        out = out + _em_sum(q, N, None if last is None else last + 1)
    return Interval(max(0.0, out.lo), out.hi)


@record
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
        # NaN fails every comparison and isfinite, so it is refused with the infinities
        if self.kind == "power_law":
            if not (self.q > 1.0 and math.isfinite(self.q)):
                raise ValueError("power law needs a finite q > 1 for summability")
        elif self.kind == "exponential":
            if not (self.rate > 0.0 and math.isfinite(self.rate)):
                raise ValueError("exponential law needs a finite rate > 0")
        elif self.kind == "finite_table":
            if not all(map(math.isfinite, self.values)):
                raise ValueError("table entries must be finite")
            if not all(v >= 0.0 for v in self.values):
                raise ValueError("table entries must be nonnegative")
        else:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise ValueError("amplitude must be finite and nonnegative")

    def __hash__(self) -> int:  # written out, as PairPotential's: caches hash potentials on each call
        return hash((self.kind, self.q, self.amplitude, self.rate, self.values))

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

    def tail(self, n: int, last: Optional[int] = None) -> Interval:
        """Enclosure of sum_{n <= j <= last} J(j) (``last`` None: to infinity),
        a few ulps wide.  The last few are cached: a ``bounds`` row asks for
        the tail its neighbour asked for."""
        if n < 1:
            raise ValueError("tail index starts at 1")
        return _tail(self, n, last)

    def weighted_total(self, last: Optional[int] = None):
        """Enclosure of sum_{1 <= j <= last} j * J(j) (``last`` None: to
        infinity), or None when that series diverges.

        Divergence is structural: a power law with q <= 2 majorizes a harmonic
        series after weighting, so no partial sum is consulted.  Totals are
        cached per (law, last), so callers may ask once per row.
        """
        return _weighted_total(self, last)


@lru_cache(maxsize=16)
def _tail(law: CouplingLaw, n: int, last: Optional[int]) -> Interval:
    if last is not None and n > last:
        return ZERO
    if law.kind == "finite_table":
        return float_sum_enclosure(law.values[n - 1 : last])
    if law.amplitude == 0.0:
        return ZERO
    if law.kind == "exponential":
        neg_rate = Interval.point(-law.rate)
        out = Interval.point(law.amplitude) / -neg_rate.expm1() * (neg_rate * float(n)).exp()
        if last is not None:
            out = out * -(neg_rate * float(last + 1 - n)).expm1()
        return out
    return Interval.point(law.amplitude) * _power_sum(law.q, n, last)


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
    if last is None and law.q <= 2.0:
        return None
    # j * j**-q is j**(1 - q); q - 1 is exact for q > 1
    return amp * _power_sum(law.q - 1.0, 1, last)


@record
class PairPotential:
    """A coupling law at inverse temperature beta, optionally truncated.

    ``truncation_range = R`` zeroes every coupling at distance > R, giving a
    finite-range interaction whose kernels are exactly computable.  At
    beta = 0 every interaction vanishes, so the range is 0 whatever the law.
    """

    coupling: CouplingLaw
    beta: float
    truncation_range: Optional[int] = None

    def __init__(self, coupling: CouplingLaw, beta: float, truncation_range: Optional[int] = None) -> None:
        if not (beta >= 0.0 and math.isfinite(beta)):  # NaN too
            raise ValueError("beta must be nonnegative and finite")
        if truncation_range is not None and truncation_range < 0:
            raise ValueError("truncation range must be nonnegative")
        set_field(self, "coupling", coupling)
        set_field(self, "beta", beta)
        set_field(self, "truncation_range", truncation_range)

    def __hash__(self) -> int:  # this and __init__ are written out: the record versions cost more per call
        return hash((self.coupling, self.beta, self.truncation_range))

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

    def coupling_tail(self, n: int) -> Interval:
        """Enclosure of sum_{j >= n} of the effective (possibly truncated) J."""
        return self.coupling.tail(n, self.truncation_range)

    def beyond_range_tail(self) -> Interval:
        """Mass of the raw law beyond the truncation range (zero when untruncated)."""
        R = self.truncation_range
        if R is None:
            return ZERO
        return self.coupling.tail(R + 1)

    def tail_enclosure_table(self, horizon: int):
        """Bulk effective-tail enclosures; see ``rows.TailEnclosureTable``."""
        from .rows import TailEnclosureTable  # the R_n rows' module, loaded where a table is built

        return TailEnclosureTable(self, horizon)

    def weighted_total(self):
        """Enclosure of sum_j j * J(j) for the effective J, or None when it diverges."""
        if self.finite_range == 0:
            return ZERO
        return self.coupling.weighted_total(self.truncation_range)


def family(p: PairPotential) -> str:
    """The closed-form family of ``p``'s certificates: finite (beta = 0 too),
    exponential, or power_summable/critical/heavy for q >, =, < 2."""
    if p.is_finite_range():
        return "finite"
    c = p.coupling
    if c.kind == "exponential":
        return "exponential"
    if c.q > 2.0:
        return "power_summable"
    if c.q == 2.0:
        return "power_critical"
    return "power_heavy"


# Largest range whose Dobrushin sum ``criteria`` enumerates.
DOBRUSHIN_MAX_RANGE = 12
# The one depth limit of the exact side: the largest range of the exact
# Markov conditional g (2^R sliding-block states), of the laws the samplers
# run (their states are uint16) and of the exact var_n(log g) column of
# ``bounds`` (its ``empirical_window``).
TRANSFER_MAX_RANGE = 16


def required_range(p: PairPotential) -> int:
    """Effective interaction range, insisting that it is finite (the kernels' guard)."""
    R = p.finite_range
    if R is None:
        raise ValueError("exact kernels need a finite-range interaction; truncate first")
    return R


def transfer_range(p: PairPotential) -> int:
    """The range of the exact Markov conditional g of p, insisting that it is
    finite and within TRANSFER_MAX_RANGE: the guards of the exact side, which
    callers settle before they load it."""
    R = required_range(p)
    if R > TRANSFER_MAX_RANGE:
        raise ValueError(f"transfer guard: R <= {TRANSFER_MAX_RANGE}")
    return R


def tail_variation(p: PairPotential, n: int) -> Interval:
    """Enclosure of the total oscillation of interactions linking site 0 to [n, inf).

    For a pair interaction this is beta * sum_{j >= n} J(j): the pairs {0, j}
    with j >= n >= 1 are exactly the sets through 0 meeting [n, inf), and each
    contributes oscillation beta * J(j).
    """
    if n < 1:
        raise ValueError("n starts at 1")
    return Interval.point(p.beta) * p.coupling_tail(n)


@record
class SeriesValue:
    """Outcome of a nonnegative series: an enclosure, or a certified divergence."""

    enclosure: Optional[Interval]
    divergent: bool
    certificate: str


def ruelle_sum(p: PairPotential) -> SeriesValue:
    """Diameter-weighted total influence sum_{sets through 0} diam * osc.

    Both orientations {0, j} and {-j, 0} contribute beta/2 * J(j) at diameter
    j, so the total is beta * sum_j j * J(j).  Divergence (power law with
    q <= 2) is certified by harmonic comparison, never from partial sums.
    """
    return _weighted_series(p, p.beta)


def coelho_quas_sum(p: PairPotential) -> SeriesValue:
    """One-sided variant: only sets whose leftmost site is 0, half of ruelle_sum."""
    return _weighted_series(p, 0.5 * p.beta)


def _weighted_series(p: PairPotential, factor: float) -> SeriesValue:
    total = p.weighted_total()
    if total is None:
        return SeriesValue(
            None,
            True,
            f"j * J(j) ~ j**(1 - {p.coupling.q}) with exponent >= -1 majorizes a harmonic series",
        )
    return SeriesValue(Interval.point(factor) * total, False, "finite weighted coupling sum")


def slope_certificate(p: PairPotential):
    """Enclosure of lim n * tail_variation(n) plus remainder summability.

    Finite range, exponential, and power laws with q > 2 have slope 0 with a
    summable profile.  q = 2 has slope beta * amplitude exactly, and the
    remainder b(T(n) - 1/n) telescopes to the finite value beta * amplitude.
    q < 2 has n * tail ~ n**(2-q) -> inf.  Each slope is the family's exact
    value, not an upper bound.
    """
    fam = family(p)
    if fam == "power_critical":
        return fraction_interval(strength_fraction(p)), True
    if fam == "power_heavy":
        return Interval(0.0, math.inf), False
    return Interval.point(0.0), True


def strength_fraction(p: PairPotential) -> Fraction:
    """beta * amplitude as an exact rational, for threshold trichotomies.

    Criteria compare this strength against rationals like 1/2, where a one-ulp
    enclosure pad would turn an exact boundary case into a straddle.
    """
    return Fraction(p.beta) * Fraction(p.coupling.amplitude)
