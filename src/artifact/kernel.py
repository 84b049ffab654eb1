"""Exact kernels for finite-range interactions and exhaustive cross-checks.

This module is the exact side of the package: window kernels by explicit
normalization, their conditional laws by scaled sliding-block passes, the
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

Contraction walks the 2^R sliding-block states (the last R letters) site by
site, as the forward-backward recursion of a hidden Markov chain (Rabiner
1989).  The forward vector alpha_t holds the weight of every word up to
site t-1 ending in each state, the backward vector beta_t the weight of
every continuation from site t to the future boundary; the window weight
is alpha_t . beta_t at any t, and a letter's conditional at site t is a
ratio of two such products at one step.  Both passes rescale their vectors
by powers of two and keep the integer log2 scales apart: scaling adds no
rounding error, and the weights themselves, which grow exponentially in
the window length, never have to fit in a double.  One backward pass can
carry many futures as columns.  A non-finite or vanishing intermediate
raises ArithmeticError instead of returning NaN.

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


def _rescale(x: np.ndarray, scale):
    """Scale each column of x by the power of two that brings its maximum
    into [1/2, 1), adding the exponents to ``scale``.

    Powers of two scale exactly, so rescaling adds no rounding error and the
    integer log2 scales add up without error.
    """
    e = np.frexp(x.max(axis=0))[1]
    return np.ldexp(x, -e), scale + e


def _require_finite(x: np.ndarray) -> None:
    # NaN and inf spread through every later step and a zero column stays
    # zero, so the last vector of a pass shows any earlier failure.
    if not (np.all(np.isfinite(x)) and np.all(x.max(axis=0) > 0.0)):
        raise ArithmeticError("sliding-block pass left the double range")


class _Walk:
    """The sliding-block walk of one finite-range potential, for scaled passes.

    A state holds the R letters before the current site, bit d-1 for site
    t-d.  Viewing state u as (h, l) = (top bit, low R-1 bits), a step with
    letter bit b (letter 2b-1) moves u to 2l + b with weight w[b, h, l].
    Range 0 walks as range 1 with a zero coupling, whose weights are all 1;
    its empty pasts and futures encode as state 0 and weight 1.
    """

    def __init__(self, p: PairPotential) -> None:
        J = tuple(p.strength(d) for d in range(1, required_range(p) + 1)) or (0.0,)
        self.nxt, self.wts = _sliding_tables((p.beta, J))
        self.size = 1 << len(J)
        self.half = self.size >> 1
        w = np.stack([self.wts[-1], self.wts[1]]).reshape(2, 2, self.half)
        self.step = {None: w, -1: w * [[[1.0]], [[0.0]]], 1: w * [[[0.0]], [[1.0]]]}
        # A free step moves the largest entry by a factor in [min w, 2 max w],
        # so rescaling every `every` steps keeps it within 2^-256 .. 2^256.
        lo, hi = float(w.min()), float(w.max())
        growth = max(math.log2(2.0 * hi), -math.log2(lo)) if lo > 0.0 else math.inf
        self.every = max(1, int(256 / growth))

    def clamped(self, letters):
        """End state and scaled weight (w, log2 scale) of walking ``letters``
        from every start state."""
        u = np.arange(self.size)
        w, scale = np.ones(self.size), 0
        for c in letters:
            w, scale = _rescale(w * self.wts[c][u], scale)
            u = self.nxt[c][u]
        return u, w, scale

    def _terms(self, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        """w[b', h, l] * b[2l + b', k]: the weight of leaving state (h, l) by
        letter bit b' and going on as column k of b, shape (2, 2, half, K)."""
        K = b.shape[1]
        return w[..., None] * b.reshape(self.half, 2, K).transpose(1, 0, 2)[:, None]

    def forward(self, start: int, n: int):
        """Scaled forward vectors alpha_t, t = 0 .. n+1, of the free walk on
        [0, n] from state ``start``: rows of (vectors, log2 scales)."""
        rows = np.zeros((n + 2, self.size))
        scales = np.zeros(n + 2, dtype=np.int64)
        a, scale = rows[0], 0
        a[start] = 1.0
        w = self.step[None]
        for t in range(1, n + 2):
            a = (w * a.reshape(2, self.half)).sum(axis=1).T.reshape(-1)
            if t % self.every == 0:
                a, scale = _rescale(a, scale)
            rows[t], scales[t] = a, scale
        _require_finite(a)
        return rows, scales

    def backward(self, futures, n: int, clamp=None, stop: int = 0, keep: bool = False):
        """Scaled backward vectors beta_t of the walk on [0, n], one column per future.

        beta_t[u, k] is the weight of steps t .. n+R from state u with the
        future letters of column k on [n+1, n+R] and the letters of
        ``clamp`` pinned.  Returns (vectors, log2 scales) at step ``stop``,
        or with ``keep`` at every step from ``stop`` to n+1, stacked.
        """
        clamp = clamp or {}
        K = len(futures)
        b = np.empty((self.size, K))
        scale = np.zeros(K, dtype=np.int64)
        for k, fut in enumerate(futures):
            _, b[:, k], scale[k] = self.clamped(fut)
        if keep:
            rows = np.empty((n + 2 - stop, self.size, K))
            scales = np.empty((n + 2 - stop, K), dtype=np.int64)
            rows[-1], scales[-1] = b, scale
        for t in range(n, stop - 1, -1):
            b = self._terms(b, self.step[clamp.get(t)]).sum(axis=0).reshape(self.size, K)
            # a pinned letter can drop the largest entry by more than one free step
            if t % self.every == 0 or t in clamp:
                b, scale = _rescale(b, scale)
            if keep:
                rows[t - stop], scales[t - stop] = b, scale
        _require_finite(b)
        return (rows, scales) if keep else (b, scale)

    def site_zero_laws(self, futures, n: int) -> np.ndarray:
        """P(letter at site 0 | past state u, future k) under the [0, n] kernel,
        shape (2, size, K) with letters in order (-1, +1).

        Both letter weights share the scale of beta_1, which cancels.
        """
        b = self.backward(futures, n, stop=1)[0]
        num = self._terms(b, self.step[None]).reshape(2, self.size, -1)
        return num / num.sum(axis=0)


@lru_cache(maxsize=64)
def _walk(p: PairPotential) -> _Walk:
    return _Walk(p)


def window_weight(
    p: PairPotential, past, fut, n: int, clamp: Optional[dict] = None
) -> float:
    """Total Boltzmann weight of window words on [0, n], some sites clamped.

    One scaled backward pass: interior sites branch over the alphabet unless
    ``clamp`` pins them, the future letters drive the final R steps, and the
    past letters pick the start state.  The weight itself grows
    exponentially in n, so it raises ArithmeticError once it leaves the
    double range; ratios of weights come from the scaled passes instead.
    """
    walk = _walk(p)
    b, scale = walk.backward([tuple(fut)], n, clamp)
    try:
        out = math.ldexp(float(b[_encode_state(past), 0]), int(scale[0]))
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise ArithmeticError(f"window weight 2^{int(scale[0])} does not fit in a double")
    return out


def pi_window_at_zero(p: PairPotential, boundary: Word, n: int, s: int) -> KernelResult:
    """Conditional probability of letter s at site 0 under the [0, n] kernel.

    One scaled backward pass from the future boundary to site 1 gives the
    weights of both letters at site 0 with the same scale, which cancels:
    O(n * 2^R) instead of the 2^(n+1) of raw enumeration, finite at every n,
    and equal to enumeration to 1e-12 wherever that is small enough to run.
    """
    if n < 0:
        raise ValueError("window end must be >= 0")
    if s not in SPINS:
        raise ValueError("letter must be a spin")
    R = required_range(p)
    env = _site_env(boundary, _boundary_sites(R, n))
    past = tuple(int(env[i]) for i in range(-R, 0))
    fut = tuple(int(env[i]) for i in range(n + 1, n + R + 1))
    laws = _walk(p).site_zero_laws([fut], n)
    value = float(laws[(s + 1) // 2, _encode_state(past), 0])
    return KernelResult(value=value, dependency_window=(-R, n + R))


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


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function by the formula scipy.special.expit uses for doubles."""
    return 1.0 / (1.0 + np.exp(-x))


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
        gap = np.abs(_expit(p.beta * (base + J[d - 1])) - _expit(p.beta * (base - J[d - 1])))
        total += float(np.max(gap))
    return 4.0 * total


def empirical_g_variation(p: PairPotential, m: int, n: int) -> float:
    """Largest log-ratio of pi_window_at_zero over boundary pairs agreeing on
    the last m past sites (shared future).  Exactly 0.0 for m >= R: the
    kernel depends on no deeper past."""
    return empirical_g_variation_profile(p, (m,), n)[0]


def empirical_g_variation_profile(p: PairPotential, m_values, n: int) -> list:
    """empirical_g_variation for several depths, from one backward pass that
    carries all 2^R futures as columns."""
    R = required_range(p)
    if R > VARIATION_MAX_RANGE:
        raise ValueError(f"enumeration guard: R <= {VARIATION_MAX_RANGE}")
    if any(m < 0 for m in m_values):
        raise ValueError("agreement depth must be >= 0")
    if all(m >= R for m in m_values):
        return [0.0 for _ in m_values]

    # laws[letter, past state, future]
    laws = _walk(p).site_zero_laws(list(itertools.product(SPINS, repeat=R)), n)
    out = []
    for m in m_values:
        if m >= R:
            out.append(0.0)
            continue
        # pasts agreeing on their last m letters share the low m bits of the state
        grouped = laws.reshape(2, 1 << (R - m), 1 << m, -1)
        out.append(float(np.log(np.max(grouped.max(axis=1) / grouped.min(axis=1)))))
    return out
