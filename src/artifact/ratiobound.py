"""Decay envelopes of the g-variation bound: the part of it ``gibbs1d check`` reads.

The bound 2 * log(1 + 1/R_n) on the log-ratio of the induced conditional law
g over pasts agreeing on n sites comes from the series R_n (``rows``).
``log_r_bound_envelope`` certifies a closed-form decay majorant of it for the
infinite-range families; at finite range R the bound is exactly 0 from n = R
on.  So the criteria read the envelope and the range without loading the R_n
rows or the tail table.
"""

from __future__ import annotations

import math
from typing import Optional

from ._record import record
from .intervals import Interval, ONE
from .potential import PairPotential, family

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


def log_r_bound_envelope(p: PairPotential) -> Optional[DecayEnvelope]:
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
