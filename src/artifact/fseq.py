"""Interior factor sequences of a pair interaction and their ratio functionals.

The window [0, n] carries the factor sequence

    log f_i(x) = (beta/2) * [ sum_{j>=1} J(j) x_i x_{i+j}
                            + sum_{j>i}  J(j) x_i x_{i-j} ],    i >= 0,

which charges each interaction set exactly once: the pair {a, b} with
a < b is picked up by the smaller endpoint lying in [0, n], so the product
f_0 ... f_n is the Boltzmann weight of everything meeting the window.

Oscillation functionals over cylinders have closed forms for this family.
Writing T(m) for the effective coupling tail sum_{j>=m} J(j):

    log sup-ratio of f_0 over configurations agreeing on [-a, b]
        = beta * (T(b+1) + T(a+1)),

because the free sites sit at distances > b forward and > a backward, each
contributing its full oscillation independently (spins realize all signs).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from ._record import record
from .intervals import Interval
from .potential import PairPotential, SPINS


@record
class Word:
    """Letters on the contiguous site block [offset, offset + len - 1]."""

    offset: int
    letters: tuple

    def __post_init__(self) -> None:
        if not all(s in SPINS for s in self.letters):
            raise ValueError("letters must be spins -1/+1")

    @property
    def support(self) -> range:
        return range(self.offset, self.offset + len(self.letters))

    def covers(self, site: int) -> bool:
        return self.offset <= site < self.offset + len(self.letters)

    def at(self, site: int) -> int:
        if not self.covers(site):
            raise KeyError(f"site {site} not covered")
        return self.letters[site - self.offset]

    def with_letter(self, site: int, s: int) -> "Word":
        if s not in SPINS:
            raise ValueError("letters must be spins -1/+1")
        i = site - self.offset
        if not 0 <= i < len(self.letters):
            raise KeyError(f"site {site} not covered")
        return Word(self.offset, self.letters[:i] + (s,) + self.letters[i + 1 :])

    @staticmethod
    def constant(offset: int, length: int, s: int = 1) -> "Word":
        return Word(offset, (s,) * length)


@record
class FSequence:
    """Factor sequence of a pair interaction on windows [0, n]."""

    potential: PairPotential

    @staticmethod
    def from_potential(p: PairPotential) -> "FSequence":
        return FSequence(potential=p)

    # -- closed-form oscillation functionals ----------------------------------

    def log_ratio_left(self, n: int) -> Interval:
        """log sup f_0(x)/f_0(y) over x = y on (-inf, n]: equals beta * T(n+1)."""
        if n < 0:
            raise ValueError("window end must be >= 0")
        p = self.potential
        return Interval.point(p.beta) * p.coupling_tail(n + 1)

    def log_ratio_right(self, n: int) -> Interval:
        """log sup f_0(x)/f_0(y) over x = y on [-n, inf): symmetric, beta * T(n+1)."""
        return self.log_ratio_left(n)

    def berbee_log_rbar(self, index: int) -> Interval:
        """log inf-ratio of f_0 over the symmetric window enumeration.

        Index 2k is the window [-k, k], index 2k+1 is [-k, k+1]:

            2k   -> -2 beta T(k+1)
            2k+1 -> -2 beta T(k+1) + beta J(k+1)
        """
        if index < 0:
            raise ValueError("enumeration index starts at 0")
        p = self.potential
        k = index // 2
        t = Interval.point(-2.0 * p.beta) * p.coupling_tail(k + 1)
        if index % 2 == 1:
            t = t + Interval.point(p.beta) * Interval.point(p.strength(k + 1))
        return t

    # -- contraction profile ---------------------------------------------------

    def v_profile(self, window_n: Optional[int]) -> "VProfile":
        """Per-step contraction coefficients v_k for the past window [-window_n, -1].

        v_k = inf over i >= 0 of the inf-ratio of f_i on agreement over
        [-window_n, i+k].  Shifting the factor index only deepens the past
        window, so the infimum is attained at i = 0 and

            log v_k = -beta * (T(k+1) + T(window_n + 1)),

        with the second term dropped for the infinite-past window (None).
        """
        if window_n is not None and window_n < 0:
            raise ValueError("window must be >= 0 sites deep or None")
        return VProfile(fseq=self, window_n=window_n)


@record
class VProfile:
    """Monotone sequence of contraction coefficients in (0, 1]."""

    fseq: FSequence
    window_n: Optional[int]

    def log_v(self, k: int) -> Interval:
        f = self.fseq
        t = f.potential.coupling_tail(k + 1)
        if self.window_n is not None:
            t = t + f.potential.coupling_tail(self.window_n + 1)
        return -(Interval.point(f.potential.beta) * t)

    def v(self, k: int) -> Interval:
        out = self.log_v(k).exp()
        return Interval(out.lo, min(1.0, out.hi))

    def lower_values(self, count: int):
        """Float lower representatives v_0 ... v_{count-1} for the recursion."""
        return [self.v(k).lo for k in range(count)]

    def settles_at(self) -> Optional[int]:
        """Index beyond which v_k == 1 exactly, when the range is finite."""
        R = self.fseq.potential.finite_range
        if R is None:
            return None
        if self.window_n is not None and self.window_n < R:
            return None
        return R


# -- exhaustive oracle -----------------------------------------------------


def brute_log_ratio(
    f: FSequence, i: int, past: int, future: int, horizon: int
) -> float:
    """Exhaustive log sup-ratio of f_i over agreement on [-past, i + future].

    Only valid for finite-range interactions; ``horizon`` letters beyond each
    window edge are enumerated, which covers the full dependency once
    horizon >= range.  Guarded to keep enumeration affordable.
    """
    p = f.potential
    R = p.finite_range
    if R is None:
        raise ValueError("exhaustive ratios need a finite-range interaction")
    if horizon < R:
        raise ValueError("horizon must cover the interaction range")
    lo_site = min(-past - horizon, i - R)
    hi_site = max(i + future + horizon, i + R)
    fixed_sites = [s for s in range(lo_site, hi_site + 1) if -past <= s <= i + future]
    free_sites = [s for s in range(lo_site, hi_site + 1) if s not in fixed_sites]
    if len(fixed_sites) + len(free_sites) > 22:
        raise ValueError("enumeration window too large")

    def log_f_exact(assign: dict) -> float:
        xi = assign[i]
        tot = 0.0
        for j in range(1, R + 1):
            if i + j in assign:
                tot += 0.5 * p.beta * p.strength(j) * xi * assign[i + j]
        for j in range(i + 1, R + 1):
            if i - j in assign:
                tot += 0.5 * p.beta * p.strength(j) * xi * assign[i - j]
        return tot

    best = -math.inf
    for base in itertools.product(SPINS, repeat=len(fixed_sites)):
        fixed = dict(zip(fixed_sites, base))
        vals = []
        for free in itertools.product(SPINS, repeat=len(free_sites)):
            assign = dict(fixed)
            assign.update(zip(free_sites, free))
            vals.append(log_f_exact(assign))
        best = max(best, max(vals) - min(vals))
    return best
