"""Decay envelopes of the g-variation bound: the part of it ``gibbs1d check`` reads.

The bound 2 * log(1 + 1/R_n) on the log-ratio of the induced conditional law
g over pasts agreeing on n sites comes from the series R_n (``rows``).
``log_r_bound_envelope`` certifies a closed-form decay majorant of it for the
infinite-range families, and ``LogRProfile`` carries that majorant with the
bound itself, whose rows load only on the profile's first ``at``.  So the
criteria read the envelope without loading the R_n rows or the tail table.
The uncertified recursion table and growth fits are in ``diagnostics``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ._record import record
from .fseq import FSequence
from .intervals import Interval, ONE
from .potential import family

# Target relative width of each R_n row: the one place a width is read
# (``rows.rn_series``'s stopping rule); every other enclosure is a few ulps wide.
DEFAULT_REL_WIDTH = 1e-10

_LN2 = Interval.point(2.0).log()


@record
class DecayEnvelope:
    """Certified majorant value(n) <= coefficient * n**(-exponent) for n >= start."""

    coefficient: float
    exponent: float
    start: int
    derivation: str


@record
class LogRProfile:
    """A profile n -> enclosure of (a bound on) log-ratio of g over n agreeing sites.

    ``envelope`` certifies an upper majorant beyond any horizon.  ``zero_beyond``
    marks profiles vanishing identically from some window on.
    """

    source: str
    _at: Callable[[int], Interval]
    envelope: Optional[DecayEnvelope] = None
    zero_beyond: Optional[int] = None

    def at(self, n: int) -> Interval:
        return self._at(n)

    @staticmethod
    def from_fsequence(F: FSequence, rel_width: float = DEFAULT_REL_WIDTH) -> "LogRProfile":
        env = log_r_bound_envelope(F)
        R = F.potential.finite_range

        def at(n: int) -> Interval:
            from .rows import g_variation_bound  # the R_n rows load on the first query

            return g_variation_bound(F, n, rel_width).bound

        return LogRProfile(
            source="variation bound of the induced conditional law",
            _at=at,
            envelope=env,
            zero_beyond=R,
        )


def log_r_bound_envelope(F: FSequence) -> Optional[DecayEnvelope]:
    """Closed-form decay majorant of the g-variation bound, when one is certified.

    Every chain below starts from 2*log(1 + 1/R_n) <= 2/R_n and a certified
    lower bound on R_n over the first n+1 terms.

    Hyperbolic-tail couplings (quadratic power law, strength c = beta*amp < 1):
    tails obey amp/m <= T(m) <= amp/(m - 1/2), so the k-th product term is at
    least e^{-c*(4 + log 2)} * (k+1)^{-c}, whence

        R_n >= e^{-c*(4+log2)} * (1 - 2^{c-1})/(1 - c) * n^{1-c}.

    Summable weighted couplings (finite range excluded, handled as exact
    zeros): product terms are at least exp(-beta * W) with W the weighted
    total, and the window factor costs at most exp(-2*beta*amp/(q-1))
    (power, q > 2) or exp(-beta*A/(e*r*(1-e^{-r}))) (exponential), giving
    R_n >= const * n and a 1/n majorant.
    """
    p = F.potential
    c = p.coupling
    beta = Interval.point(p.beta)
    fam = family(p)  # "finite": the profile is exactly zero beyond the range, no majorant needed
    amp = Interval.point(c.amplitude)
    if fam == "power_critical":
        strength = beta * amp
        if not strength.hi < 1.0:
            return None
        ln2 = _LN2
        pre = (-(strength * (Interval.point(4.0) + ln2))).exp()
        two_pow = ((strength - 1.0) * ln2).exp()  # 2^(c-1)
        c2 = pre * (ONE - two_pow) / (ONE - strength)
        coeff = (Interval.point(2.0) / c2).hi
        s = (ONE - strength).lo
        return DecayEnvelope(
            coefficient=coeff,
            exponent=s,
            start=1,
            derivation=(
                "hyperbolic-tail chain: term_k >= e^{-c(4+log2)} (k+1)^{-c}, "
                f"c in [{strength.lo:.6g}, {strength.hi:.6g}]"
            ),
        )
    if fam == "power_summable":
        W = c.weighted_total()
        c0 = (-(beta * W)).exp()
        c1 = (-(beta * amp * (Interval.point(2.0) / Interval.point(c.q - 1.0)))).exp()
        return _summable_envelope(c0 * c1, "summable weighted couplings, power tail")
    if fam == "exponential":
        W = c.weighted_total()
        c0 = (-(beta * W)).exp()
        r = Interval.point(c.rate)
        e_r = (-r).exp()
        peak = amp / (Interval.point(math.e) * r * (ONE - e_r))
        c1 = (-(beta * peak)).exp()
        return _summable_envelope(c0 * c1, "summable weighted couplings, exponential tail")
    return None


def _summable_envelope(floor: Interval, derivation: str) -> Optional[DecayEnvelope]:
    """The 2 / (c0 c1) n^-1 majorant from the product-term floor c0 c1, or
    None when 2 / (c0 c1) has no finite upper end: the floor underflows to 0
    once beta W passes about 745, and a subnormal floor already overflows the
    quotient.  No majorant is claimed then."""
    if floor.lo <= 0.0:
        return None
    coefficient = (Interval.point(2.0) / floor).hi
    if math.isinf(coefficient):
        return None
    return DecayEnvelope(coefficient, 1.0, 1, derivation)
