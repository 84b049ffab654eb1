"""Uncertified diagnostics of the contraction recursion and of the R_n series.

The recursion table propagates per-step contraction coefficients v_k into
pointwise lower bounds p(k, n) on two-sided ratio infima.  The growth fits
estimate the exponents of the related partial-sum diagnostics, and the
Tauberian diagnostic reads the g-variation bound (``rows``) against its
predicted decay.  Nothing here is a certificate, and no command imports this
module.  All of it is scalar Python, summed by TwoSum and ``math.fsum``, so
it gives the same numbers on every platform.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul, sub
from typing import Optional, Sequence

from ._record import record
from .intervals import ZERO, Interval
from .potential import PairPotential, tail_variation
from .ratiobound import DEFAULT_REL_WIDTH
from .rows import _running_sums, g_variation_bound


# -- the recursion table -------------------------------------------------------


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


# -- growth diagnostics --------------------------------------------------------


def berbee_series_partial_sums(p: PairPotential, n_max: int) -> list:
    """Float partial sums S_N = sum_{n<=N} prod_{m<=n} t_m of the two-sided series.

    The terms come from the symmetric-window enumeration closed forms; this
    is a diagnostic (midpoint floats), not a certificate.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
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
    p: PairPotential,
    alpha: Optional[float] = None,
    K: Optional[float] = None,
    n_grid: Optional[Sequence[int]] = None,
    rel_width: float = DEFAULT_REL_WIDTH,
) -> TauberianReport:
    """Finite-grid comparison of the g-variation bound against its predicted decay.

    Per grid point n the row carries bound(n) / (beta * T(n+1))^alpha,
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
        fa, fK = _fit_hypothesis_pair(p, n_grid)
        if alpha is None:
            alpha = min(1.0, max(fa, 1e-6))
        if K is None:
            K = fK

    rows = []
    for n in n_grid:
        b, lr = g_variation_bound(p, n, rel_width).bound, tail_variation(p, n + 1)
        ok = lr.lo > 0.0 and (denom := lr.pow(alpha)).lo > 0.0
        rows.append(TauberianRow(n=n, bound=b, denominator=denom if ok else ZERO, ratio=b / denom if ok else None))
    asymptote = 2.0 * K / math.gamma(alpha)
    return TauberianReport(alpha=alpha, K=K, fitted=fitted, asymptote=asymptote, rows=tuple(rows))


def _fit_hypothesis_pair(p: PairPotential, n_grid):
    """Least-squares (alpha, K) from the cumulative product of one-sided ratios."""
    cum = list(accumulate(_tail_midpoints(p, max(n_grid) + 2)))  # entry i: sum of log-ratios for windows 0..i
    ns = [n for n in n_grid if n >= 2]
    if len(ns) < 2:
        raise ValueError("fitting (alpha, K) needs two grid windows >= 2")
    slope, intercept, _ = _line_fit([math.log(n) for n in ns], [p.beta * cum[n] for n in ns])
    return 1.0 - slope, math.exp(intercept)
