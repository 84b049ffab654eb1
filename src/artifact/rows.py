"""The R_n rows of ``bounds``: the tail table they share, the series R_n,
and the g-variation bound it gives.

The series

    R_n = sum_{k >= 0} prod_{j = 0}^{k} v_j(n),
    v_j(n) = exp(-beta * (T(j+1) + T(n+1))),

controls the variation of the induced one-sided conditional law g over pasts
agreeing on n sites: log-ratio <= 2 * log(1 + 1/R_n).  The rows of one
potential read their terms from one ``TailEnclosureTable``, which holds the
tails T(m) and the products exp(-beta * (T(1) + ... + T(k+1))).

Certification policy: divergence of R_n is declared only structurally (all
v_j equal to 1 beyond a finite index), never from the size of a partial sum.
Finite enclosures carry a geometric tail majorant whenever one exists; when
the window tail underflows it cannot be formed, and the enclosure is a lower
bound with upper endpoint +inf.

Everything here is scalar Python.  ``bounds`` and ``PairPotential.tail_enclosure_table``
import this module where they run, so ``gibbs1d check`` never loads it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul, sub
from typing import Optional

from ._record import record
from .intervals import DOWN, DOWN_EXP, EPS, FLOOR, LIBM_GUARD_ULPS, ONE, UP, UP_EXP, ZERO, Interval, _exp
from .potential import CouplingLaw, PairPotential
from .ratiobound import DEFAULT_REL_WIDTH


# -- the tail table ------------------------------------------------------------


def _running_sums(terms, s: float = 0.0, e: float = 0.0):
    """Running sums of ``terms`` on from s + e, as a list.  By TwoSum (Ogita, Rump and Oishi
    2005) e collects each addition's exact error, so every sum is within an ulp of exact,
    however many came before."""
    out = []
    for x in terms:
        t = s + x
        z = t - s
        e += (s - (t - z)) + (x - z)
        s = t
        out.append(s + e)
    return out, s, e


# A power-law term A * j**-q rounds in pow (libm guard) and the product.
_POWER_TERM_ULPS = LIBM_GUARD_ULPS + 1

# Entries per chunk of TailEnclosureTable.grow: no temporary outgrows it
_CHUNK = 256


class _Column:
    """One column of a TailEnclosureTable: its segments, each allocated once at
    its final length, read as one sequence.  Indices are nonnegative, and a
    slice, which may span segments, has no step."""

    __slots__ = ("starts", "parts")

    def __init__(self):
        self.starts, self.parts = [], []  # the index of each segment's first entry, the segments

    def __len__(self) -> int:
        return self.starts[-1] + len(self.parts[-1])

    def __iter__(self):
        return chain.from_iterable(self.parts)

    def __getitem__(self, i):
        starts, parts = self.starts, self.parts
        if not isinstance(i, slice):
            j = bisect_right(starts, i) - 1
            return parts[j][i - starts[j]]
        start, stop, _ = i.indices(starts[-1] + len(parts[-1]))  # a step is not supported
        j = bisect_right(starts, start) - 1
        out = parts[j][start - starts[j] : stop - starts[j]]
        while j + 1 < len(starts) and starts[j + 1] < stop:
            j += 1
            out += parts[j][: stop - starts[j]]
        return out


class TailEnclosureTable:
    """Enclosures of the effective tails T(m), m = 1 .. horizon + 1, and of the
    products P_k = exp(-beta * S_k), S_k = T(1) + ... + T(k+1), k = 0 .. horizon.

    ``grow`` appends a segment and leaves earlier ones.  Exponential laws take
    the closed form at each m; otherwise a point tail anchors the top of each
    segment, and the exact recurrence T(m) = T(m+1) + J(m) runs down it in
    compensated sums, so an entry errs by its J roundings and a few more; 0
    beyond a truncation.  ``lo[m-1]`` and ``hi[m-1]`` bracket T(m); ``p_lo[k]``
    is P_k at the upper end of S_k, rounded down; ``spread[k]``, nondecreasing
    in k, bounds the exponent gap between the ends of S_k, so that P_j <=
    p_lo[j] * exp(spread[k]) * UP_EXP / DOWN_EXP for j <= k up to subnormals.

    A table keeps about 56 bytes per entry.  Each column is read as one
    sequence of segments (``_Column``): arrays of doubles for ``lo``, ``hi``
    and ``spread``, and lists of floats for ``p_lo``, which a row sums faster
    than an array, whose every read makes a float.  Each segment of a column
    is allocated once, at its final length, and filled in chunks of
    ``_CHUNK`` entries: first ``lo`` with the downward sums of J, then every
    column from them.  So growing adds no more than a chunk's lists to what
    the table keeps, and no column is copied or moved as the table grows.
    """

    def __init__(self, potential: PairPotential, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.potential = potential
        self.horizon = -1
        self.lo, self.hi, self.spread, self.p_lo = _Column(), _Column(), _Column(), _Column()
        self._sums = (0.0, 0.0, 0.0)  # the running sums below: lower ends (double-double), widths
        self.grow(horizon)

    def grow(self, horizon: int) -> None:
        """Append the entries up to ``horizon`` as one segment (nothing if already there).
        A tail or a sum of tails past the double range raises ArithmeticError, and the
        segment keeps the whole chunks before it."""
        if horizon <= self.horizon:
            return
        from array import array  # an extension module, loaded only where a table is built

        m0, m1 = self.horizon + 2, horizon + 1
        columns = (self.lo, self.hi, self.spread, self.p_lo)
        zeros = array("d", [0.0]) * (m1 + 1 - m0)
        for column, part in zip(columns, (zeros, array("d", zeros), array("d", zeros), [0.0] * len(zeros))):
            column.starts.append(m0 - 1)
            column.parts.append(part)
        try:
            self._fill(m0, m1, *(column.parts[-1] for column in columns))
        except ArithmeticError:
            kept = self.horizon + 2 - m0
            for column in columns:
                del column.parts[-1][kept:]
                if not kept:
                    column.starts.pop()
                    column.parts.pop()
            raise

    def _fill(self, m0: int, m1: int, lo, hi, spread, p_lo) -> None:
        """Fill the segment of entries m0 .. m1 (index 0 for m0), chunk by chunk."""
        from array import array

        p, law, R = self.potential, self.potential.coupling, self.potential.truncation_range
        if law.kind != "exponential":
            anchor = p.coupling_tail(m1)
            top = m1 if R is None else max(m0, min(m1, R + 1))  # J(j) = 0 from j = top on
            A, q = law.amplitude, law.q
            d_s = d_e = 0.0
            for b in range(top, m0, -_CHUNK):  # lo[m - m0] = J(m) + ... + J(top - 1), m in [a, b)
                a = max(b - _CHUNK, m0)
                J = (A * j**-q for j in range(b - 1, a - 1, -1)) if law.kind == "power_law" else (
                    reversed(law.values[a - 1 : b - 1]))
                D, d_s, d_e = _running_sums(J, d_s, d_e)
                D.reverse()  # shorter than b - a where a table's values end: J is 0 past them
                lo[a - m0 : a - m0 + len(D)] = array("d", D)
            # J errs by _POWER_TERM_ULPS ulps (0 in a table); D, the anchor sum and the factor round once each
            rel = ((_POWER_TERM_ULPS if law.kind == "power_law" else 0) + 3) * EPS
        # S_k runs on as x_k, the lower ends' sum, and y_k, the widths' sum in
        # floats, which errs by m1 * EPS / 2 at most, relatively (m1 the final length)
        s, e, w = self._sums
        g, beta = 1.0 + m1 * EPS, p.beta
        g_spread, c = g * (1.0 + 8.0 * EPS), 12.0 * EPS
        for a in range(m0, m1 + 1, _CHUNK):
            b = min(a + _CHUNK, m1 + 1)
            i, j = a - m0, b - m0
            if law.kind == "exponential":
                lo_c, hi_c = _exponential_tails(law, range(a, b), R)
            else:
                chunk = lo[i:j]
                lo_c = [x if (x := (d + anchor.lo) * (1.0 - rel) - FLOOR) > 0.0 else 0.0 for d in chunk]
                hi_c = [0.0 if (x := d + anchor.hi) <= 0.0 else x * (1.0 + rel) + FLOOR for d in chunk]
            if not hi_c[0] < math.inf:  # the chunk's largest tail, NaN where a sum of J overflowed
                raise ArithmeticError("a coupling tail leaves the double range")
            S, s, e = _running_sums(lo_c, s, e)
            if not S[-1] < math.inf:  # the chunk's largest S_k, NaN once TwoSum met an overflow
                raise ArithmeticError("a sum of coupling tails leaves the double range")
            lo[i:j] = array("d", lo_c)
            hi[i:j] = array("d", hi_c)
            W = list(accumulate(map(sub, hi_c, lo_c), initial=w))[1:]
            w = W[-1]
            # exp(-beta * S_k) >= exp(-e_hi): five roundings, at EPS / 2 each
            p_lo[i:j] = [math.exp(-beta * (x + y * g) * (1.0 + 3.0 * EPS)) * DOWN_EXP for x, y in zip(S, W)]
            # above e_hi - beta * x_k * DOWN, both rounded, and nondecreasing in k
            spread[i:j] = array("d", [beta * (y * g_spread + c * x) * UP for x, y in zip(S, W)])
            self.horizon, self._sums = b - 2, (s, e, w)  # whole chunks only, if a later one raises

    def at(self, m: int) -> Interval:
        if not 1 <= m <= self.horizon + 1:
            raise ValueError(f"m = {m} outside table horizon {self.horizon}")
        return Interval(self.lo[m - 1], self.hi[m - 1])

    def enclosures(self, m_max: int):
        """Endpoint arrays (lo, hi) of the tails at m = 1 .. m_max."""
        if m_max > self.horizon + 1:
            raise ValueError("m_max beyond table horizon")
        return self.lo[:m_max], self.hi[:m_max]


def _exponential_tails(law: CouplingLaw, ms, last: Optional[int]):
    """Endpoint lists of A e^{-rm} (1 - e^{-r(last+1-m)}) / (1 - e^{-r}) at each m:
    each exponent is pushed outward before exp (``intervals.UP``), as r * m
    rounds; the truncation factor is 1 without ``last``, 0 beyond it."""
    scale = Interval.point(law.amplitude) / -Interval.point(-law.rate).expm1()
    s_lo, s_hi, pad, r = scale.lo * DOWN_EXP, scale.hi * UP_EXP, FLOOR * scale.hi, law.rate
    lo, hi = [], []
    for m in ms:
        a = b = 0.0
        if law.amplitude and (last is None or m <= last):
            a, b = math.exp(r * m * -UP) * s_lo, math.exp(r * m * -DOWN) * s_hi
            if last is not None:
                d = r * (last + 1.0 - m)
                a *= -math.expm1(d * -DOWN) * DOWN_EXP
                b *= min(-math.expm1(d * -UP) * UP_EXP, 1.0)
            a, b = max(a * DOWN - pad, 0.0), b * UP + pad
        lo.append(a)
        hi.append(b)
    return lo, hi


# -- the series R_n and the g-variation bound --------------------------------


@record
class RnSeries:
    """Outcome of summing R_n: an enclosure (upper endpoint +inf only when the
    window tail underflows), or a certified divergence."""

    window: int
    enclosure: Optional[Interval]
    divergent: bool
    certificate: str
    terms_used: int = 0

    @property
    def capped(self) -> bool:  # summation stopped at _MAX_TERMS, short of the target width
        return self.certificate.endswith(_CAP_NOTE)


def rn_series(p: PairPotential, n: int, rel_width: float = DEFAULT_REL_WIDTH) -> RnSeries:
    """Sum R_n with interval terms, or certify its divergence structurally.

    Divergence requires v_j = 1 exactly beyond a finite index: finite range R
    within the window (n >= R).  Otherwise v_j = c a_j with c = exp(-beta
    T(n+1)) < 1 and a_j = exp(-beta T(j+1)), and term k is u_k = c^(k+1) P_k
    with P_k = a_0 ... a_k from the potential's shared tail table.  The a_j
    increase to 1, so the remainder after term k lies between u_k x / (1 - x),
    x = c a_(k+1), and u_k c / (1 - c), and above P_inf c^(k+2) / (1 - c),
    P_inf = exp(-beta sum_j j J(j)).  Summation stops at the first k whose
    bracket is at most ``rel_width`` times the lower end, or at _MAX_TERMS.
    Terms go by blocks of _BLOCK: c^(k+1) is c^(start+1) c^i, each from the
    exp of its own exponent, so no rounding compounds along a row, and a
    block's upper sum is its float sum times the largest upper-to-lower
    ratio of its terms.
    """
    if n < 0:
        raise ValueError("window must be >= 0")
    R = p.finite_range
    if R is not None and n >= R:  # T(n+1) = 0, so v_j = exp(-beta T(j+1)) > 0, which is 1 from j = R on
        certificate = (
            f"v_j = 1 exactly for j >= {R} (finite range within the window); "
            "the terms stay at a positive constant"
        )
        return RnSeries(n, None, True, certificate, terms_used=R)

    beta = p.beta
    win_log = Interval.point(beta) * p.coupling_tail(n + 1)
    c = (-win_log).exp()
    one_minus_c = -(-win_log).expm1()
    W = p.weighted_total()
    p_inf = 0.0 if W is None else (-(Interval.point(beta) * W)).exp().lo
    if not one_minus_c.lo > 0.0:
        # beta * T(n+1) underflows: only R_n >= P_inf * c / (1 - c) is known
        floor = min(p_inf * c.lo / one_minus_c.hi * DOWN, sys.float_info.max)
        return RnSeries(n, Interval(floor, math.inf), False, "window tail underflows; lower enclosure only")

    w_lo, w_hi = win_log.lo, win_log.hi
    geom_factor, floor_factor = (c / one_minus_c).hi, (Interval.point(p_inf) / one_minus_c).lo
    table = _tail_table(p)
    # c^i, i < _BLOCK, as c^(32a) * c^b from 64 exps rounded down (the product rounds once more)
    steps = [math.exp(-(i * w_hi) * UP) * DOWN_EXP for i in range(32)]
    c_pow = [x * y for x in [math.exp(-(i * w_hi) * UP) * DOWN_EXP for i in range(0, _BLOCK, 32)] for y in steps]
    dw = w_hi - w_lo + 5.0 * EPS * w_hi  # c^i / c_pow[i] <= exp(i * dw) * UP_EXP / DOWN_EXP

    def bracket(i, head):  # ends of the sum through term start + i (float block sum: head), of the rest
        k = start + i
        # c_pow[i] and i + 1 products summed in floats, then two more roundings, at EPS / 2 each
        down, up = 1.0 - (i + 5) * (0.5 * EPS), 1.0 + (i + 5) * (0.5 * EPS)
        u = p_lo[i] * c_pow[i]
        # no term through k exceeds its float value times scale by more than ``up``
        scale = a_lo * _exp((table.spread[k] + (k + 1) * dw) * UP) * _RATIO * UP
        y = (w_hi + beta * table.hi[k + 1] * UP) * UP  # x >= exp(-y)
        rem_lo = max(
            u * a_lo * down * (math.exp(-y) * DOWN_EXP) / (-math.expm1(-y) * UP_EXP) * DOWN,
            floor_factor * math.exp(-((k + 2) * w_hi) * UP) * DOWN_EXP * DOWN,
        )
        rem_hi = (u * scale * up + FLOOR) * geom_factor * UP
        return s_lo + head * a_lo * down, s_hi + head * scale * up, rem_lo, rem_hi

    def meets(b):
        return b[3] - b[2] <= rel_width * (b[0] + b[2])

    s_lo, s_hi, start, blocks = 0.0, 0.0, 0, 0
    while True:
        stop = min(start + _BLOCK, _MAX_TERMS)
        if table.horizon < stop:  # T(k+2) is read at k = stop - 1; doubling from _BLOCK
            table.grow(min(2 * table.horizon, _MAX_TERMS))  # makes the same segments whatever ran before
        p_lo, last = table.p_lo[start:stop], stop - start - 1
        a_lo = math.exp(-((start + 1) * w_hi) * UP) * DOWN_EXP  # c^(start+1), rounded down
        b = bracket(last, sum(map(mul, p_lo, c_pow)))
        if meets(b) or stop == _MAX_TERMS:
            break
        s_lo, s_hi, start, blocks = b[0], b[1], stop, blocks + 1
    capped = not meets(b)
    if not capped:  # the first term that meets the width, by bisection
        heads, before = list(accumulate(map(mul, p_lo, c_pow))), -1
        while last - before > 1:
            mid = (before + last) // 2
            if meets(bracket(mid, heads[mid])):
                last = mid
            else:
                before = mid
        b = bracket(last, heads[last])
    terms = start + last + 1
    certificate = f"geometric tail majorant with ratio <= {min(c.hi, 1.0):.12g} after {terms} terms"
    slack = (blocks + 4) * (0.5 * EPS)  # the block additions, the last two and this factor
    enclosure = Interval(max((b[0] + b[2]) * (1.0 - slack) - FLOOR, 0.0), (b[1] + b[3]) * (1.0 + slack) + FLOOR)
    return RnSeries(n, enclosure, False, certificate + (_CAP_NOTE if capped else ""), terms_used=terms)


# Terms per block of a row, and per row at most.  Each P_k, c^i or product
# that underflows errs by a few subnormal ulps; FLOOR covers all of them.
_BLOCK = 1024
_MAX_TERMS = 200_000
_CAP_NOTE = "; stopped at the term cap"
# Covers four exps rounded down to lower ends, of P_k, c^(start+1) and the
# two factors of c^i (each at most 1 + 8.5 EPS short), and the exp rounded up.
_RATIO = 1.0 + 40.0 * EPS


@lru_cache(maxsize=16)
def _tail_table(p, horizon: int = _BLOCK):
    """The tail table the rows of one potential share, and grow."""
    return p.tail_enclosure_table(horizon)


@record
class GVariationBound:
    """Certified upper bound on the log-ratio of g over pasts agreeing on n sites."""

    window: int
    rn: RnSeries
    bound: Interval


def g_variation_bound(p: PairPotential, n: int, rel_width: float = DEFAULT_REL_WIDTH) -> GVariationBound:
    """Enclosure of 2 * log(1 + 1/R_n); exactly [0, 0] when R_n diverges."""
    rn = rn_series(p, n, rel_width)
    if rn.divergent:
        return GVariationBound(window=n, rn=rn, bound=ZERO)
    enc = rn.enclosure
    if enc.lo <= 0.0:
        return GVariationBound(window=n, rn=rn, bound=Interval(0.0, math.inf))
    if math.isinf(enc.hi):
        inv = Interval(0.0, (ONE / Interval.point(enc.lo)).hi)
    else:
        inv = ONE / enc
    bound = Interval.point(2.0) * inv.log1p()
    return GVariationBound(window=n, rn=rn, bound=Interval(max(0.0, bound.lo), bound.hi))
