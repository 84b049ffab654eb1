"""Exact kernels for finite-range interactions and exhaustive cross-checks.

This module is the exact side of the package: window kernels by explicit
normalization, their conditional laws by sliding-block contraction, the
stationary Markov conditional from Perron eigendata, and brute-force
oscillation measurements.  Certified bounds from the analytic modules are
validated against these values on desk-scale instances.

Weight convention, fixed here for every routine: a spin pair {a, b} at
distance d = |a - b| contributes exp(0.5 * beta * J(d) * x_a * x_b) to the
Boltzmann weight.  The interior factors

    log f_i(x) = 0.5 * beta * [ sum_{j=1}^{R} J(j) x_i x_{i+j}
                              + sum_{i<j<=R} J(j) x_i x_{i-j} ],   i >= 0,

charge each pair meeting a window once, except pairs straddling the whole
window; those are fixed by the boundary and cancel from every normalized
kernel, so enumeration over factors and contraction over all interacting
pairs yield identical conditionals.

Window-size guards are hard errors, never silent fallbacks: an exact
routine that quietly approximates would poison every validation built on
top of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import expit

from .fseq import FSequence, Word
from .potential import PairPotential, SPINS

ENUMERATION_MAX_WINDOW = 12
APPLY_MAX_WIDTH = 14
RHO_MAX_WINDOW = 6
DOBRUSHIN_MAX_RANGE = 12
TRANSFER_MAX_RANGE = 10
VARIATION_MAX_RANGE = 6


def required_range(p: PairPotential) -> int:
    """Effective interaction range, insisting that it is finite."""
    R = p.finite_range
    if R is None:
        raise ValueError("exact kernels need a finite-range interaction; truncate first")
    return R


@dataclass(frozen=True)
class KernelResult:
    """A kernel evaluation together with the sites it actually consulted."""

    value: float
    dependency_window: tuple

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=32)
def _word_matrix(width: int) -> np.ndarray:
    """All spin words of a given width, lexicographic with -1 first."""
    rows = np.array(list(itertools.product((-1.0, 1.0), repeat=width)))
    rows.flags.writeable = False
    return rows


def _word_row_index(letters: Sequence[int]) -> int:
    idx = 0
    for s in letters:
        idx = (idx << 1) | (s + 1) // 2
    return idx


def _site_env(word: Word, sites) -> dict:
    env = {}
    for site in sites:
        if not word.covers(site):
            raise ValueError(f"word does not cover required site {site}")
        env[site] = float(word.at(site))
    return env


def _boundary_sites(R: int, n: int):
    return list(range(-R, 0)) + list(range(n + 1, n + R + 1))


def _factor_log_weights(p: PairPotential, m: int, end: int, env: dict) -> np.ndarray:
    """log prod_{i=m}^{end} f_i over all words on [m, end], environment fixed.

    Columns of the word matrix supply letters inside the window; ``env``
    supplies every letter outside it that some factor consults.
    """
    R = required_range(p)
    width = end - m + 1
    words = _word_matrix(width)

    def letter(site):
        if m <= site <= end:
            return words[:, site - m]
        return env[site]

    total = np.zeros(len(words))
    for i in range(m, end + 1):
        xi = words[:, i - m]
        for j in range(1, R + 1):
            total += (0.5 * p.beta * p.strength(j)) * xi * letter(i + j)
        for j in range(i + 1, R + 1):
            total += (0.5 * p.beta * p.strength(j)) * xi * env[i - j]
    return total


def phi_window(p: PairPotential, boundary: Word, n: int, interior: Word) -> float:
    """Window kernel on [0, n]: Boltzmann weight of the interior, normalized
    by the sum over all interior words compatible with the boundary."""
    if n < 0:
        raise ValueError("window end must be >= 0")
    if n > ENUMERATION_MAX_WINDOW:
        raise ValueError(f"enumeration guard: n <= {ENUMERATION_MAX_WINDOW}")
    R = required_range(p)
    env = _site_env(boundary, _boundary_sites(R, n))
    letters = tuple(interior.at(i) for i in range(0, n + 1))
    weights = np.exp(_factor_log_weights(p, 0, n, env))
    return float(weights[_word_row_index(letters)]) / math.fsum(weights)


def pi_window_enumeration(p: PairPotential, boundary: Word, n: int, s: int) -> float:
    """Conditional law of site 0 under the window kernel, by raw enumeration.

    Retained as an oracle for the contraction path; same guards as
    phi_window.
    """
    if s not in SPINS:
        raise ValueError("letter must be a spin")
    if n > ENUMERATION_MAX_WINDOW:
        raise ValueError(f"enumeration guard: n <= {ENUMERATION_MAX_WINDOW}")
    R = required_range(p)
    env = _site_env(boundary, _boundary_sites(R, n))
    weights = np.exp(_factor_log_weights(p, 0, n, env))
    mask = _word_matrix(n + 1)[:, 0] == float(s)
    return math.fsum(weights[mask]) / math.fsum(weights)


@lru_cache(maxsize=64)
def _sliding_tables(key):
    """Per-state coupling fields and transition targets for the block walk."""
    beta, J = key
    R = len(J)
    size = 1 << R
    states = np.arange(size)
    field = np.zeros(size)
    for d in range(1, R + 1):
        spin = 2.0 * ((states >> (d - 1)) & 1) - 1.0
        field += J[d - 1] * spin
    mask = size - 1
    nxt = {c: ((states << 1) | ((c + 1) // 2)) & mask for c in SPINS}
    wts = {c: np.exp(0.5 * beta * c * field) for c in SPINS}
    return nxt, wts


def _encode_state(letters) -> int:
    """Letters at sites [t-R, t-1] (site order) to the walk's state index."""
    idx = 0
    for d, s in enumerate(reversed(letters), start=1):
        idx |= ((s + 1) // 2) << (d - 1)
    return int(idx)


def window_weight(
    p: PairPotential, past, fut, n: int, clamp: Optional[dict] = None
) -> float:
    """Total Boltzmann weight of window words on [0, n], some sites clamped.

    Accumulated by the sliding-block walk: the past letters fix the initial
    state, interior sites branch over the alphabet unless ``clamp`` pins
    them, and the future letters drive the final R steps.  Ratios of these
    weights are the window conditionals.
    """
    R = required_range(p)
    clamp = clamp or {}
    if R == 0:
        free = n + 1 - len(clamp)
        return float(2.0**free)
    key = (p.beta, tuple(p.strength(d) for d in range(1, R + 1)))
    nxt, wts = _sliding_tables(key)
    vec = np.zeros(1 << R)
    vec[_encode_state(past)] = 1.0
    for t in range(0, n + R + 1):
        if t <= n:
            choices = (clamp[t],) if t in clamp else SPINS
        else:
            choices = (fut[t - n - 1],)
        new = np.zeros_like(vec)
        for c in choices:
            new += np.bincount(nxt[c], weights=vec * wts[c], minlength=len(vec))
        vec = new
    return float(vec.sum())


def pi_window_at_zero(p: PairPotential, boundary: Word, n: int, s: int) -> KernelResult:
    """Conditional probability of letter s at site 0 under the [0, n] kernel.

    Contraction over sliding-block states costs O(n * 2^R) instead of the
    2^(n+1) of raw enumeration; the two paths agree to 1e-12 on every case
    small enough to enumerate.
    """
    if n < 0:
        raise ValueError("window end must be >= 0")
    if s not in SPINS:
        raise ValueError("letter must be a spin")
    R = required_range(p)
    env = _site_env(boundary, _boundary_sites(R, n))
    past = tuple(int(env[i]) for i in range(-R, 0))
    fut = tuple(int(env[i]) for i in range(n + 1, n + R + 1))
    num = window_weight(p, past, fut, n, {0: s})
    den = window_weight(p, past, fut, n)
    return KernelResult(value=num / den, dependency_window=(-R, n + R))


@dataclass(frozen=True)
class TransferMatrix:
    """Sliding-block transfer matrix of a finite-range interaction.

    States are spin words of length R in site order (oldest first); the
    entry at (u, v) is the step weight into the letter v ends with, and is
    nonzero exactly when v is u shifted by that letter.  The matrix is
    primitive (every R-step product is strictly positive), so the Perron
    pair below is simple and positive.
    """

    range_r: int
    states: tuple
    matrix: np.ndarray
    eigenvalue: float
    right: np.ndarray
    left: np.ndarray
    residual: float

    @staticmethod
    def from_potential(p: PairPotential) -> "TransferMatrix":
        R = required_range(p)
        if R < 1:
            raise ValueError("transfer matrix needs range >= 1")
        if R > TRANSFER_MAX_RANGE:
            raise ValueError(f"transfer guard: R <= {TRANSFER_MAX_RANGE}")
        size = 1 << R
        key = (p.beta, tuple(p.strength(d) for d in range(1, R + 1)))
        nxt, wts = _sliding_tables(key)
        M = np.zeros((size, size))
        for c in SPINS:
            M[np.arange(size), nxt[c]] = wts[c]
        if not np.all(np.linalg.matrix_power(M, R) > 0.0):
            raise ValueError("transfer matrix is not primitive")
        lam, right = _perron_pair(M)
        _, left = _perron_pair(M.T)
        residual = max(
            float(np.max(np.abs(M @ right - lam * right))),
            float(np.max(np.abs(M.T @ left - lam * left))),
        )
        if residual > 1e-12 * max(1.0, lam):
            raise ArithmeticError(f"Perron residual {residual:.3e} too large")
        left = left / float(left @ right)
        states = tuple(
            tuple(int(2 * ((u >> (R - 1 - i)) & 1) - 1) for i in range(R))
            for u in range(size)
        )
        return TransferMatrix(
            range_r=R,
            states=states,
            matrix=M,
            eigenvalue=lam,
            right=right,
            left=left,
            residual=residual,
        )

    def state_index(self, letters) -> int:
        return _encode_state(letters)


def _perron_pair(M: np.ndarray):
    vals, vecs = np.linalg.eig(M)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    v = vecs[:, k].real
    if v.sum() < 0.0:
        v = -v
    if np.min(v) <= 0.0:
        raise ArithmeticError("Perron vector not strictly positive")
    return lam, v / np.max(v)


@dataclass(frozen=True)
class MarkovConditional:
    """The stationary R-step conditional law of a finite-range interaction.

    For finite range the compatible conditional g depends on exactly R past
    letters, and its value is the Doob transform of the transfer matrix by
    its Perron pair.
    """

    potential: PairPotential
    transfer: Optional[TransferMatrix]

    @property
    def dependency_depth(self) -> int:
        return self.transfer.range_r if self.transfer is not None else 0

    @property
    def source_label(self) -> str:
        return "exact_markov"

    def prob(self, past, s: int) -> float:
        """g(s | past); past is a Word covering [-R, -1] or R letters in site order."""
        if s not in SPINS:
            raise ValueError("letter must be a spin")
        tm = self.transfer
        if tm is None:
            return 1.0 / len(SPINS)
        if isinstance(past, Word):
            letters = tuple(past.at(i) for i in range(-tm.range_r, 0))
        else:
            letters = tuple(past)
            if len(letters) != tm.range_r:
                raise ValueError(f"need exactly {tm.range_r} past letters")
        u = _encode_state(letters)
        v = ((u << 1) | ((s + 1) // 2)) & ((1 << tm.range_r) - 1)
        return float(tm.matrix[u, v] * tm.right[v] / (tm.eigenvalue * tm.right[u]))

    def __call__(self, past, s: int) -> float:
        return self.prob(past, s)

    def state_law(self) -> np.ndarray:
        """Stationary law of the sliding-block state under the g-chain."""
        tm = self.transfer
        if tm is None:
            return np.array([1.0])
        law = tm.left * tm.right
        return law / law.sum()


def g_exact_markov(p: PairPotential) -> MarkovConditional:
    """Exact conditional g for a finite-range interaction via Perron eigendata."""
    R = required_range(p)
    tm = TransferMatrix.from_potential(p) if R >= 1 else None
    g = MarkovConditional(potential=p, transfer=tm)
    if tm is not None:
        for u in tm.states:
            row = sum(g.prob(u, s) for s in SPINS)
            if abs(row - 1.0) > 1e-12:
                raise ArithmeticError(f"conditional row at {u} sums to {row}")
    return g


def apply_L(
    F: FSequence,
    m: int,
    n: int,
    f: Callable[[Word], float],
    x: Word,
) -> float:
    """Sum of (prod_{i=m}^{n} f_i) * f over words free on [m, n], clamped to x
    elsewhere.  Exact enumeration; the guard keeps it desk-scale."""
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    if n - m > APPLY_MAX_WIDTH:
        raise ValueError(f"enumeration guard: n - m <= {APPLY_MAX_WIDTH}")
    p = F.potential
    R = required_range(p)
    flank = list(range(m - R, m)) + list(range(n + 1, n + R + 1))
    env = _site_env(x, flank)
    logw = _factor_log_weights(p, m, n, env)
    words = _word_matrix(n - m + 1)
    left = tuple(int(env[i]) for i in range(m - R, m))
    right = tuple(int(env[i]) for i in range(n + 1, n + R + 1))
    total = []
    for row, lw in zip(words, logw):
        y = Word(m - R, left + tuple(int(v) for v in row) + right)
        total.append(math.exp(lw) * f(y))
    return math.fsum(total)


def rho_bruteforce(
    F: FSequence,
    k: int,
    n: int,
    x: Word,
    y: Word,
    m_grid=(0,),
) -> float:
    """Infimum over prefix cylinders of the window-sum ratio between two
    environments.

    For each window [m, m+n] and each prefix word on [m, m+k], the sums of
    the interior factor products with the prefix clamped are compared
    between the environments; the reported value is the least ratio.  The
    environments must agree wherever the intended comparison says they do;
    only coverage is checked here.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n > RHO_MAX_WINDOW:
        raise ValueError(f"enumeration guard: n <= {RHO_MAX_WINDOW}")
    p = F.potential
    R = required_range(p)
    best = math.inf
    for m in m_grid:
        if m < 0:
            raise ValueError("window starts must be >= 0")
        flank = list(range(m - R, m)) + list(range(m + n + 1, m + n + R + 1))
        wx = np.exp(_factor_log_weights(p, m, m + n, _site_env(x, flank)))
        wy = np.exp(_factor_log_weights(p, m, m + n, _site_env(y, flank)))
        num = wx.reshape(1 << (k + 1), -1).sum(axis=1)
        den = wy.reshape(1 << (k + 1), -1).sum(axis=1)
        best = min(best, float(np.min(num / den)))
    return best


def dobrushin_sum(p: PairPotential) -> float:
    """Total single-site interdependence sum_s sum_{j != 0} sup |delta_j phi|.

    The single-site kernel at 0 depends on the neighbor field
    h = sum_d J(d) (x_{-d} + x_d) through phi(+|h) = expit(beta * h), so the
    supremum over configurations differing only at distance d is an
    extremization over achievable fields: every other distance contributes
    -2, 0, or +2 times its coupling, the partner site of the flipped one
    contributes either sign once.  Spin-flip symmetry pairs the site j = -d
    with j = +d and the letter - with +, giving the factor 4.
    """
    R = required_range(p)
    if R == 0:
        return 0.0
    if R > DOBRUSHIN_MAX_RANGE:
        raise ValueError(f"enumeration guard: R <= {DOBRUSHIN_MAX_RANGE}")
    J = np.array([p.strength(d) for d in range(1, R + 1)])
    others = np.array(list(itertools.product((-2.0, 0.0, 2.0), repeat=R - 1)))
    total = 0.0
    for d in range(1, R + 1):
        J_other = np.delete(J, d - 1)
        base = others @ J_other if R > 1 else np.zeros(1)
        base = np.concatenate([base + J[d - 1], base - J[d - 1]])
        gap = np.abs(
            expit(p.beta * (base + J[d - 1])) - expit(p.beta * (base - J[d - 1]))
        )
        total += float(np.max(gap))
    return 4.0 * total


def empirical_g_variation(p: PairPotential, m: int, n: int) -> float:
    """Largest log-ratio of pi_window_at_zero over boundary pairs agreeing on
    the last m past sites (shared future).  Exactly 0.0 for m >= R: the
    kernel depends on no deeper past."""
    return empirical_g_variation_profile(p, (m,), n)[0]


def empirical_g_variation_profile(p: PairPotential, m_values, n: int) -> list:
    """empirical_g_variation for several depths, sharing one kernel sweep."""
    R = required_range(p)
    if R > VARIATION_MAX_RANGE:
        raise ValueError(f"enumeration guard: R <= {VARIATION_MAX_RANGE}")
    if any(m < 0 for m in m_values):
        raise ValueError("agreement depth must be >= 0")
    if all(m >= R for m in m_values):
        return [0.0 for _ in m_values]

    pasts = list(itertools.product(SPINS, repeat=R))
    futs = list(itertools.product(SPINS, repeat=R))
    cond = {}
    for fut in futs:
        for past in pasts:
            den = window_weight(p, past, fut, n)
            for s in SPINS:
                cond[(fut, past, s)] = window_weight(p, past, fut, n, {0: s}) / den

    out = []
    for m in m_values:
        if m >= R:
            out.append(0.0)
            continue
        best = 0.0
        for fut in futs:
            for pa, pb in itertools.product(pasts, repeat=2):
                if m > 0 and pa[R - m :] != pb[R - m :]:
                    continue
                for s in SPINS:
                    ratio = math.log(cond[(fut, pa, s)] / cond[(fut, pb, s)])
                    best = max(best, ratio)
        out.append(best)
    return out
