"""Lower bounds on conditional-ratio infima and the induced g-variation bound.

Three layers live here.  The recursion table propagates per-step contraction
coefficients v_k into pointwise lower bounds p(k, n) on two-sided ratio
infima.  The series

    R_n = sum_{k >= 0} prod_{j = 0}^{k} v_j(n),
    v_j(n) = exp(-beta * (T(j+1) + T(n+1))),

controls the variation of the induced one-sided conditional law g over pasts
agreeing on n sites: log-ratio <= 2 * log(1 + 1/R_n).  The third layer fits
growth exponents of the related partial-sum diagnostics.  All three are
scalar Python: R_n rows read the potential's tail table, and the recursion
and the fits, which are diagnostics, sum by TwoSum and ``math.fsum``, so
they give the same numbers on every platform.

Certification policy: divergence of R_n is declared only structurally (all
v_j equal to 1 beyond a finite index), never from the size of a partial sum.
Finite enclosures carry a geometric tail majorant whenever one exists; when
the window tail underflows it cannot be formed, and the enclosure is a lower
bound with upper endpoint +inf.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub
from typing import Callable, Optional, Sequence

from ._record import record
from .intervals import DOWN, DOWN_EXP, EPS, FLOOR, UP, UP_EXP, Interval, ONE, ZERO, _exp
from .fseq import FSequence
from .potential import _running_sums, family

# Target relative width of each R_n row: the one place a width is read
# (``rn_series``'s stopping rule); every other enclosure is a few ulps wide.
DEFAULT_REL_WIDTH = 1e-10

_LN2 = Interval.point(2.0).log()


class RatioTable:
    """Recursion state p(k, n) built from contraction coefficients v.

    Row n is derived from row n-1 by

        p(k, n) = v_k * p(k-1, n-1) + sum_{j=k}^{n-1} (v_{j+1} - v_j) * p(j, n-1)

    with p(-1, *) = 1 and p(0, 0) = v_0; the sum is empty at k = n.  Rows are
    arrays of doubles, 8 bytes an entry, so a table keeps about 4 n_max^2
    bytes; the suffix sums of the increment terms are TwoSum running sums,
    each within an ulp of exact, so an entry of row n errs by about (n + 1)
    EPS relatively on every platform.
    """

    def __init__(self, v: Sequence[float], n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        v = _coefficients(v, n_max + 1)
        if any(b < a for a, b in zip(v, v[1:])):
            raise ValueError("coefficients must be nondecreasing")
        from array import array

        self.v, self.n_max = v, n_max
        dv = list(map(sub, v[1:], v))
        row = array("d", v[:1])
        self._rows = [row]
        for n in range(1, n_max + 1):
            suffix = _running_sums(map(mul, reversed(dv[:n]), reversed(row)))[0][::-1]
            suffix.append(0.0)
            row = array("d", [a * b + c for a, b, c in zip(v, [1.0, *row], suffix)])
            self._rows.append(row)

    def p(self, k: int, n: int) -> float:
        """Entry p(k, n); k = -1 is the boundary value 1."""
        if not -1 <= k <= n <= self.n_max:
            raise ValueError(f"need -1 <= k <= n <= {self.n_max}")
        return 1.0 if k == -1 else self._rows[n][k]

    def p0_path(self) -> list:
        """The trajectory p(0, n) for n = 0 .. n_max."""
        return [row[0] for row in self._rows]


def _coefficients(v: Sequence[float], count: int) -> list:
    """The first ``count`` coefficients as doubles in (0, 1]."""
    v = [float(x) for x in v[:count]]
    if len(v) < count:
        raise ValueError(f"need {count} coefficients, got {len(v)}")
    if not all(0.0 < x <= 1.0 for x in v):
        raise ValueError("coefficients must lie in (0, 1]")
    return v


def rb_limit_lower_bound(v: Sequence[float], N: int) -> float:
    """Closed-form lower bound S_N / (1 + S_N), S_N = sum_k prod_{j<=k} v_j.

    Nondecreasing in N and never above the recursion limit lim_n p(0, n);
    equality holds for constant profiles.
    """
    if N < 0:
        raise ValueError("need coefficients v_0 .. v_N")
    S = math.fsum(accumulate(_coefficients(v, N + 1), mul))
    return S / (1.0 + S)


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

    def is_finite(self) -> bool:
        return not self.divergent and math.isfinite(self.enclosure.hi)

    @property
    def capped(self) -> bool:  # summation stopped at _MAX_TERMS, short of the target width
        return self.certificate.endswith(_CAP_NOTE)


def rn_series(F: FSequence, n: int, rel_width: float = DEFAULT_REL_WIDTH) -> RnSeries:
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
    p = F.potential
    vp = F.v_profile(n)
    settles = vp.settles_at()
    if settles is not None:
        prod = math.prod((vp.v(j) for j in range(settles)), start=ONE)
        certificate = f"v_j = 1 exactly for j >= {settles} (finite range within the window); terms stay >= {prod.lo:.6g}"
        return RnSeries(n, None, True, certificate, terms_used=settles)

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

    @property
    def certified_zero(self) -> bool:
        return self.rn.divergent


def g_variation_bound(F: FSequence, n: int, rel_width: float = DEFAULT_REL_WIDTH) -> GVariationBound:
    """Enclosure of 2 * log(1 + 1/R_n); exactly [0, 0] when R_n diverges."""
    rn = rn_series(F, n, rel_width)
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


# -- decay envelopes and profiles ---------------------------------------------


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
        return LogRProfile(
            source="variation bound of the induced conditional law",
            _at=lambda n: g_variation_bound(F, n, rel_width).bound,
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


# -- growth diagnostics --------------------------------------------------------


def berbee_series_partial_sums(F: FSequence, n_max: int) -> list:
    """Float partial sums S_N = sum_{n<=N} prod_{m<=n} t_m of the two-sided series.

    The terms come from the symmetric-window enumeration closed forms; this
    is a diagnostic (midpoint floats), not a certificate.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = F.potential
    beta = p.beta
    T = _tail_midpoints(p, n_max // 2 + 3)  # T[i]: midpoint at m = i+1
    log_t = [-2.0 * beta * T[m // 2] + (beta * p.strength(m // 2 + 1) if m % 2 else 0.0) for m in range(n_max + 1)]
    return list(accumulate(map(math.exp, accumulate(log_t))))


def _tail_midpoints(p, count: int) -> list:
    """Midpoints of the tail enclosures at m = 1 .. count, from a table of their own."""
    return [(a + b) / 2 for a, b in zip(*p.tail_enclosure_table(count).enclosures(count))]


def _line_fit(x: Sequence[float], y: Sequence[float]):
    """Least-squares slope a and intercept b of y ~ a x + b, and the sum of the
    squared residuals, in closed form with ``math.fsum``."""
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - xm for xi in x]
    a = math.fsum(d * (yi - ym) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    b = ym - a * xm
    return a, b, math.fsum((yi - a * xi - b) ** 2 for xi, yi in zip(x, y))


def fit_growth_exponent(
    partial_sums: Sequence[float],
    n_lo: int = 2**8,
    n_hi: int = 2**14,
    grid_points: int = 60,
) -> float:
    """Exponent s of the best fit S_n ~ c * n**s + d over a log-spaced grid.

    The additive offset absorbs the early-term transient that biases a naive
    log-log regression; s is scanned and (c, d) solved by least squares.
    """
    if len(partial_sums) <= n_hi:
        raise ValueError("partial sums shorter than the fit range")
    a, b = math.log10(n_lo), math.log10(n_hi)
    ns = sorted({round(10.0 ** (a + i * (b - a) / (grid_points - 1))) for i in range(grid_points)})
    y = [float(partial_sums[n]) for n in ns]
    grid = (0.02 + i * 0.001 for i in range(1180))  # s = 0.02, 0.021, ..., 1.199
    return min(grid, key=lambda s: _line_fit([float(n) ** s for n in ns], y)[2])


# -- Tauberian diagnostic ------------------------------------------------------


@record
class TauberianRow:
    n: int
    bound: Interval
    denominator: Interval
    ratio: Optional[Interval]


@record
class TauberianReport:
    alpha: float
    K: float
    fitted: bool
    asymptote: float  # 2 * K / Gamma(alpha)
    rows: tuple


def tauberian_diagnostic(
    F: FSequence,
    alpha: Optional[float] = None,
    K: Optional[float] = None,
    n_grid: Optional[Sequence[int]] = None,
    rel_width: float = DEFAULT_REL_WIDTH,
) -> TauberianReport:
    """Finite-grid comparison of the g-variation bound against its predicted decay.

    Per grid point n the row carries bound(n) / (log_ratio_right(n))^alpha,
    to be read against the asymptote 2*K/Gamma(alpha).  When (alpha, K) are
    not supplied they are fitted: the log of the cumulative one-sided ratio
    product is regressed on log n, the slope b gives alpha = 1 - b and the
    intercept gives K.  Asymptotic only; nothing here is a certificate.
    """
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if K is not None and not K > 0.0:
        raise ValueError("K must be positive")
    if n_grid is None:
        n_grid = tuple(2**e for e in range(4, 13))
    n_grid = tuple(sorted(set(int(n) for n in n_grid)))
    if any(n < 1 for n in n_grid):
        raise ValueError("grid windows must be >= 1")

    fitted = alpha is None or K is None
    if fitted:
        fa, fK = _fit_hypothesis_pair(F, n_grid)
        if alpha is None:
            alpha = min(1.0, max(fa, 1e-6))
        if K is None:
            K = fK

    rows = []
    for n in n_grid:
        b, lr = g_variation_bound(F, n, rel_width).bound, F.log_ratio_right(n)
        ok = lr.lo > 0.0 and (denom := lr.pow(alpha)).lo > 0.0
        rows.append(TauberianRow(n=n, bound=b, denominator=denom if ok else ZERO, ratio=b / denom if ok else None))
    asymptote = 2.0 * K / math.gamma(alpha)
    return TauberianReport(alpha=alpha, K=K, fitted=fitted, asymptote=asymptote, rows=tuple(rows))


def _fit_hypothesis_pair(F: FSequence, n_grid):
    """Least-squares (alpha, K) from the cumulative product of one-sided ratios."""
    p = F.potential
    cum = list(accumulate(_tail_midpoints(p, max(n_grid) + 2)))  # entry i: sum of log-ratios for windows 0..i
    ns = [n for n in n_grid if n >= 2]
    if len(ns) < 2:
        raise ValueError("fitting (alpha, K) needs two grid windows >= 2")
    slope, intercept, _ = _line_fit([math.log(n) for n in ns], [p.beta * cum[n] for n in ns])
    return 1.0 - slope, math.exp(intercept)
