"""Exhaustive oracles for the exact kernels and the ratio closed forms of a
pair law, and the statistics of a coupled run computed from its whole disagreement array.

Each oracle enumerates every word of a small window and sums Boltzmann
weights written out from the pair law alone (beta and J(d)), so it shares
no helper with the code it checks: not the sliding-block states or their
encoding, not the walk's tables, not the coverage checks of ``kernel``.
The guards keep the enumerations desk-scale.  The dense transfer matrix
and the Perron conditional are written out from the pair law the same way,
the conditional in 60-digit arithmetic.

Weight convention, as in ``kernel``: the interior factors are

    log f_i(x) = 0.5 * beta * [ sum_{j=1}^{R} J(j) x_i x_{i+j}
                              + sum_{i<j<=R} J(j) x_i x_{i-j} ],   i >= 0.
"""

import itertools
import math
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np

from artifact.fseq import Word
from artifact.potential import PairPotential, SPINS

# largest window [0, n] of the window enumerations (2^(n+1) words)
ENUMERATION_MAX_WINDOW = 12
APPLY_MAX_WIDTH = 14
RHO_MAX_WINDOW = 6
PERRON_DIGITS = 60
PERRON_MAX_STEPS = 5000


def _range(p: PairPotential) -> int:
    if p.finite_range is None:
        raise ValueError("exact kernels need a finite-range interaction; truncate first")
    return p.finite_range


def _flank(word: Word, sites: range) -> tuple:
    if not all(word.covers(site) for site in sites):
        raise ValueError(f"word does not cover the sites {sites.start} .. {sites.stop - 1}")
    return tuple(word.at(site) for site in sites)


@lru_cache(maxsize=32)
def _words(width: int) -> np.ndarray:
    """All spin words of ``width`` letters, one per row, lexicographic with
    -1 first: row k spells k in binary, the first site most significant."""
    words = np.array(list(itertools.product(SPINS, repeat=width)), dtype=float).reshape(-1, width)
    words.flags.writeable = False
    return words


def _row(letters) -> int:
    """The row of ``_words`` that spells ``letters``."""
    return int("".join("1" if s > 0 else "0" for s in letters), 2)


def _window_log_weights(p: PairPotential, word: Word, m: int, end: int):
    """log prod_{i=m}^{end} f_i over all words on [m, end], one entry per row
    of ``_words``, with the R flank sites on each side read from ``word``.
    Returns the log-weights and the left and right flank letters."""
    R = _range(p)
    left = _flank(word, range(m - R, m))
    right = _flank(word, range(end + 1, end + R + 1))
    words = _words(end - m + 1)

    def letter(site):
        if site < m:
            return left[site - m + R]
        if site > end:
            return right[site - end - 1]
        return words[:, site - m]

    total = np.zeros(len(words))
    for i in range(m, end + 1):
        xi = words[:, i - m]
        for j in range(1, R + 1):
            total += (0.5 * p.beta * p.strength(j)) * xi * letter(i + j)
        for j in range(i + 1, R + 1):
            total += (0.5 * p.beta * p.strength(j)) * xi * letter(i - j)
    return total, left, right


def phi_window(p: PairPotential, boundary: Word, n: int, interior: Word) -> float:
    """Window kernel on [0, n]: Boltzmann weight of the interior, normalized
    by the sum over all interior words compatible with the boundary."""
    if n < 0:
        raise ValueError("window end must be >= 0")
    if n > ENUMERATION_MAX_WINDOW:
        raise ValueError(f"enumeration guard: n <= {ENUMERATION_MAX_WINDOW}")
    weights = np.exp(_window_log_weights(p, boundary, 0, n)[0])
    return float(weights[_row(interior.at(i) for i in range(n + 1))]) / math.fsum(weights)


def pi_window_enumeration(p: PairPotential, boundary: Word, n: int, s: int) -> float:
    """Conditional law of site 0 under the window kernel, by raw enumeration;
    same guards as phi_window."""
    if s not in SPINS:
        raise ValueError("letter must be a spin")
    if n > ENUMERATION_MAX_WINDOW:
        raise ValueError(f"enumeration guard: n <= {ENUMERATION_MAX_WINDOW}")
    weights = np.exp(_window_log_weights(p, boundary, 0, n)[0])
    mask = _words(n + 1)[:, 0] == float(s)
    return math.fsum(weights[mask]) / math.fsum(weights)


def apply_L(p: PairPotential, m: int, n: int, f: Callable[[Word], float], x: Word) -> float:
    """Sum of (prod_{i=m}^{n} f_i) * f over words free on [m, n], clamped to x
    elsewhere."""
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    if n - m > APPLY_MAX_WIDTH:
        raise ValueError(f"enumeration guard: n - m <= {APPLY_MAX_WIDTH}")
    logw, left, right = _window_log_weights(p, x, m, n)
    total = []
    for row, lw in zip(_words(n - m + 1), logw):
        y = Word(m - len(left), left + tuple(int(v) for v in row) + right)
        total.append(math.exp(lw) * f(y))
    return math.fsum(total)


def rho_bruteforce(p: PairPotential, k: int, n: int, x: Word, y: Word, m_grid=(0,)) -> float:
    """Infimum over prefix cylinders of the window-sum ratio between two
    environments.

    For each window [m, m+n] and each prefix word on [m, m+k], the sums of
    the interior factor products with the prefix clamped are compared
    between the environments; the value is the least ratio.  Only coverage
    of the environments is checked.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n > RHO_MAX_WINDOW:
        raise ValueError(f"enumeration guard: n <= {RHO_MAX_WINDOW}")
    best = math.inf
    for m in m_grid:
        if m < 0:
            raise ValueError("window starts must be >= 0")
        wx = np.exp(_window_log_weights(p, x, m, m + n)[0])
        wy = np.exp(_window_log_weights(p, y, m, m + n)[0])
        num = wx.reshape(1 << (k + 1), -1).sum(axis=1)
        den = wy.reshape(1 << (k + 1), -1).sum(axis=1)
        best = min(best, float(np.min(num / den)))
    return best


def brute_log_ratio(p: PairPotential, i: int, past: int, future: int, horizon: int) -> float:
    """Exhaustive log sup-ratio of f_i over agreement on [-past, i + future].

    Only valid for finite-range interactions; ``horizon`` letters beyond each
    window edge are enumerated, which covers the full dependency once
    horizon >= range.
    """
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


def transfer_matrix(p: PairPotential) -> np.ndarray:
    """The dense sliding-block transfer matrix of a finite-range law.

    Rows and columns are pasts of R letters, numbered as the rows of
    ``_words``; past x steps to x[1:] + (s,) with weight
    exp(beta / 2 * s * sum_d J(d) x[-d]), and every other entry is 0.
    """
    R = _range(p)
    pasts = list(itertools.product(SPINS, repeat=R))
    field = np.array([sum(p.strength(d) * x[-d] for d in range(1, R + 1)) for x in pasts])
    weights = np.exp(0.5 * p.beta * np.array(SPINS)[:, None] * field)
    M = np.zeros((len(pasts), len(pasts)))
    for k, x in enumerate(pasts):
        for b, s in enumerate(SPINS):
            M[k, _row(x[1:] + (s,))] = weights[b, k]
    return M


def perron_conditional(p: PairPotential) -> dict:
    """The stationary conditional g(s | past) of a finite-range law as a map
    from (past letters in site order, s) to a float, computed in
    PERRON_DIGITS-digit arithmetic.

    A past x of R letters steps to x[1:] + (s,) with weight
    exp(beta / 2 * s * sum_d J(d) x[-d]); g is that weight times r(next) /
    (lambda r(x)), r the Perron vector of those steps, found by power
    iteration until no entry moves by more than 10^-(PERRON_DIGITS - 10)
    relatively.
    """
    R = _range(p)
    pasts = list(itertools.product(SPINS, repeat=R))
    with mpmath.workdps(PERRON_DIGITS):
        J = [mpmath.mpf(p.strength(d)) for d in range(1, R + 1)]
        half_beta = mpmath.mpf(p.beta) / 2
        weight = {}
        for x in pasts:
            field = mpmath.fsum(J[d - 1] * x[-d] for d in range(1, R + 1))
            for s in SPINS:
                weight[x, s] = mpmath.exp(half_beta * s * field)
        tol = mpmath.mpf(10) ** (10 - PERRON_DIGITS)
        r = dict.fromkeys(pasts, mpmath.mpf(1))
        for _ in range(PERRON_MAX_STEPS):
            new = {x: weight[x, -1] * r[x[1:] + (-1,)] + weight[x, 1] * r[x[1:] + (1,)] for x in pasts}
            lam = max(new.values())
            new = {x: v / lam for x, v in new.items()}
            settled = all(abs(new[x] - r[x]) <= tol * new[x] for x in pasts)
            r = new
            if settled:
                break
        else:
            raise ArithmeticError(f"Perron oracle did not settle in {PERRON_MAX_STEPS} steps")
        return {(x, s): float(weight[x, s] * r[x[1:] + (s,)] / (lam * r[x])) for x in pasts for s in SPINS}


def disagreement_density(disagree: np.ndarray, parts: int = 10) -> list:
    """Mean of each of the ``min(parts, N)`` parts that ``np.array_split``
    cuts from the N disagreement flags of a coupled run."""
    return [float(np.mean(x)) for x in np.array_split(disagree, min(parts, len(disagree)))]


def first_coalescence(disagree: np.ndarray):
    """The first site from which on a coupled run never disagrees: 0 if it
    never does, None if it disagrees at its last site."""
    idx = np.nonzero(disagree)[0]
    if idx.size == 0:
        return 0
    last = int(idx[-1]) + 1
    return last if last < len(disagree) else None
