"""Lower bounds on conditional-ratio infima and the induced g-variation bound.

Three layers live here.  The recursion table propagates per-step contraction
coefficients v_k into pointwise lower bounds p(k, n) on two-sided ratio
infima.  The series

    R_n = sum_{k >= 0} prod_{j = 0}^{k} v_j(n),
    v_j(n) = exp(-beta * (T(j+1) + T(n+1))),

controls the variation of the induced one-sided conditional law g over pasts
agreeing on n sites: log-ratio <= 2 * log(1 + 1/R_n).  The third layer fits
growth exponents of the related partial-sum diagnostics.  The first and the
third use NumPy; R_n rows are scalar Python over the potential's tail table.

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
from operator import mul
from typing import Callable, Optional, Sequence

from ._numpy import np
from ._record import record
from .intervals import DOWN, DOWN_EXP, EPS, FLOOR, UP, UP_EXP, Interval, ONE, ZERO, _exp
from .fseq import FSequence
from .potential import family

# Target relative width of each R_n row: the one place a width is read
# (``rn_series``'s stopping rule); every other enclosure is a few ulps wide.
DEFAULT_REL_WIDTH = 1e-10

_ROW_STORE_MAX = 2048
_LN2 = Interval.point(2.0).log()


class RatioTable:
    """Recursion state p(k, n) built from contraction coefficients v.

    Row n is derived from row n-1 by

        p(k, n) = v_k * p(k-1, n-1) + sum_{j=k}^{n-1} (v_{j+1} - v_j) * p(j, n-1)

    with p(-1, *) = 1 and p(0, 0) = v_0; the sum is empty at k = n.  Rows are
    accumulated in 80-bit extended precision (suffix sums of the increment
    terms), which plays the role of compensated summation for these
    well-conditioned nonnegative updates.
    """

    def __init__(self, v: Sequence[float], n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        v = np.asarray(v, dtype=np.float64)
        if len(v) < n_max + 1:
            raise ValueError(f"need {n_max + 1} coefficients, got {len(v)}")
        v = v[: n_max + 1]
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise ValueError("coefficients must lie in (0, 1]")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("coefficients must be nondecreasing")
        self.v = v
        self.n_max = n_max
        self._vl = v.astype(np.longdouble)
        self._dv = np.diff(self._vl)
        self._p0 = np.empty(n_max + 1, dtype=np.float64)
        self._rows: dict = {}
        self._last_row = None
        self._fill()

    def _step(self, prev: np.ndarray, n: int) -> np.ndarray:
        # prev is row n-1 (length n) in longdouble
        w = self._dv[:n] * prev
        suffix = np.empty(n + 1, dtype=np.longdouble)
        suffix[n] = 0.0
        suffix[:n] = np.cumsum(w[::-1])[::-1]
        shifted = np.empty(n + 1, dtype=np.longdouble)
        shifted[0] = 1.0
        shifted[1:] = prev
        return self._vl[: n + 1] * shifted + suffix

    def _fill(self) -> None:
        row = np.array([self._vl[0]], dtype=np.longdouble)
        self._p0[0] = float(row[0])
        if self.n_max <= _ROW_STORE_MAX:
            self._rows[0] = row
        for n in range(1, self.n_max + 1):
            row = self._step(row, n)
            self._p0[n] = float(row[0])
            if self.n_max <= _ROW_STORE_MAX:
                self._rows[n] = row
        self._last_row = row

    def p(self, k: int, n: int) -> float:
        """Entry p(k, n); k = -1 is the boundary value 1."""
        if not -1 <= k <= n <= self.n_max:
            raise ValueError(f"need -1 <= k <= n <= {self.n_max}")
        if k == -1:
            return 1.0
        if k == 0:
            return float(self._p0[n])
        if n in self._rows:
            return float(self._rows[n][k])
        if n == self.n_max:
            return float(self._last_row[k])
        row = np.array([self._vl[0]], dtype=np.longdouble)
        for m in range(1, n + 1):
            row = self._step(row, m)
        self._rows[n] = row
        return float(row[k])

    def p0_path(self) -> np.ndarray:
        """The trajectory p(0, n) for n = 0 .. n_max."""
        return self._p0.copy()

    def limit_lower(self, N: int) -> float:
        return rb_limit_lower_bound(self.v, N)


def rb_limit_lower_bound(v: Sequence[float], N: int) -> float:
    """Closed-form lower bound S_N / (1 + S_N), S_N = sum_k prod_{j<=k} v_j.

    Nondecreasing in N and never above the recursion limit lim_n p(0, n);
    equality holds for constant profiles.
    """
    v = np.asarray(v, dtype=np.float64)
    if N < 0 or len(v) < N + 1:
        raise ValueError("need coefficients v_0 .. v_N")
    if np.any(v <= 0.0) or np.any(v > 1.0):
        raise ValueError("coefficients must lie in (0, 1]")
    terms = np.cumprod(v[: N + 1].astype(np.longdouble))
    S = math.fsum(float(t) for t in terms)
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

    ``envelope`` certifies an upper majorant beyond any horizon.  ``exact_power``
    marks synthetic profiles equal to c * n**(-s), for which lower bounds (and
    hence hypothesis failures) are also certifiable.  ``zero_beyond`` marks
    profiles vanishing identically from some window on.
    """

    source: str
    _at: Callable[[int], Interval]
    envelope: Optional[DecayEnvelope] = None
    exact_power: Optional[tuple] = None  # (c: Interval, s: float)
    zero_beyond: Optional[int] = None

    def at(self, n: int) -> Interval:
        return self._at(n)

    @staticmethod
    def power_form(c: Interval, s: float, source: str = "") -> "LogRProfile":
        if c.lo < 0.0:
            raise ValueError("profile values must be nonnegative")
        return LogRProfile(
            source=source or f"exact profile c * n^-{s}",
            _at=lambda n: c * Interval.point(float(n)).pow(-s),
            envelope=DecayEnvelope(c.hi, s, 1, "exact closed form"),
            exact_power=(c, s),
        )

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


def berbee_series_partial_sums(F: FSequence, n_max: int) -> np.ndarray:
    """Float partial sums S_N = sum_{n<=N} prod_{m<=n} t_m of the two-sided series.

    The terms come from the symmetric-window enumeration closed forms; this
    is a diagnostic (midpoint floats), not a certificate.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = F.potential
    kmax = n_max // 2 + 2
    T = np.mean(p.tail_enclosure_table(kmax + 1).enclosures(kmax + 1), axis=0)  # T[i]: midpoint at m = i+1
    J = np.array([p.strength(j) for j in range(1, kmax + 2)])
    m = np.arange(0, n_max + 1)
    k = m // 2
    log_t = -2.0 * p.beta * T[k]
    odd = m % 2 == 1
    log_t[odd] += p.beta * J[k[odd]]
    u = np.exp(np.cumsum(log_t))
    return np.cumsum(u)


def fit_growth_exponent(
    partial_sums: np.ndarray,
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
    ns = np.unique(
        np.round(np.logspace(math.log10(n_lo), math.log10(n_hi), grid_points)).astype(int)
    )
    y = partial_sums[ns]
    best_sse = math.inf
    best_s = 0.0
    for s in np.arange(0.02, 1.2, 0.001):
        X = np.vstack([ns.astype(np.float64) ** s, np.ones(len(ns))]).T
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ coef
        sse = float(resid @ resid)
        if sse < best_sse:
            best_sse = sse
            best_s = float(s)
    return best_s


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
        b = g_variation_bound(F, n, rel_width).bound
        denom = F.log_ratio_right(n).pow(alpha) if F.log_ratio_right(n).lo > 0.0 else None
        ratio = None
        if denom is not None and denom.lo > 0.0:
            ratio = b / denom
            rows.append(TauberianRow(n=n, bound=b, denominator=denom, ratio=ratio))
        else:
            rows.append(TauberianRow(n=n, bound=b, denominator=ZERO, ratio=None))
    asymptote = 2.0 * K / math.gamma(alpha)
    return TauberianReport(alpha=alpha, K=K, fitted=fitted, asymptote=asymptote, rows=tuple(rows))


def _fit_hypothesis_pair(F: FSequence, n_grid):
    """Least-squares (alpha, K) from the cumulative product of one-sided ratios."""
    n_top = max(n_grid)
    T = np.mean(F.potential.tail_enclosure_table(n_top + 2).enclosures(n_top + 2), axis=0)  # midpoints
    cum = F.potential.beta * np.cumsum(T)  # entry i: sum of log-ratios for windows 0..i
    ns = np.array([n for n in n_grid if n >= 2], dtype=np.float64)
    logprod = np.array([cum[int(n)] for n in ns])
    X = np.vstack([np.log(ns), np.ones(len(ns))]).T
    (slope, intercept), *_ = np.linalg.lstsq(X, logprod, rcond=None)
    return 1.0 - float(slope), float(math.exp(intercept))
