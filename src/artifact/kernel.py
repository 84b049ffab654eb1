"""Exact kernels for finite-range interactions.

This module is the exact side of the package: the conditional laws of
window kernels by scaled sliding-block passes, the stationary Markov
conditional g from Perron eigendata, and the variation var_n(log g) of that
g, which the certified ``log_r_bound`` column of ``bounds`` bounds.
Certified bounds from the analytic modules are validated against these
values on desk-scale instances; the exhaustive enumerations that check this
module live with the tests.

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
ratio of two such products at one step.  A forward step applies the
transfer matrix from the left (``_Walk.push``), a backward step from the
right (``_Walk.pull``), the same two products per state that the Perron
iteration below takes.  Both passes rescale their vectors
by powers of two and keep the integer log2 scales apart: scaling adds no
rounding error, and the weights themselves, which grow exponentially in
the window length, never have to fit in a double.  A non-finite or
vanishing intermediate raises ArithmeticError instead of returning NaN.

The stationary Markov conditional g of the unique Gibbs state is the Doob
transform of the transfer matrix M by its Perron pair, computed once per
potential as one read-only (2, 2^R) array that ``prob``, ``gfun``, the
samplers and the measured column of ``bounds`` all index.  g is positive,
so an entry below the smallest normal double, which has lost its relative
precision, is refused where the array is built, once for all of them.  M is
never formed: row u has two nonzero entries, the weights ``_Walk.wts[b, u]``
at the states ``_Walk.nxt[b, u]``, so M v and v M are ``_Walk.pull`` and
``_Walk.push``, and the pair comes from power iteration on those rows,
O(2^R) work a step and no dense matrix.  M is primitive by its structure:
every pair of states is joined by exactly one path of R steps, whose
weights ``_Walk`` has checked finite and positive.  So the Perron pair is
simple and positive, and the iteration converges from any positive start
(Seneta, Non-negative Matrices and Markov Chains, ch. 1).  An even
interaction commutes with the spin flip, and the uniform start is
flip-symmetric; each step keeps that symmetry bit for bit (the two products
of a row swap places under the flip), so the antisymmetric modes, whose top
eigenvalue nears the Perron root as the coupling grows, are never excited,
and the iteration runs at the rate of the symmetric spectral gap.  It works
on vectors scaled to maximum 1, so it resolves a vector whose entries span
far more than 1/EPS, which a dense eigensolver cannot.

Window-size guards are hard errors, never silent fallbacks: an exact
routine that quietly approximates would poison every validation built on
top of it.

The criteria never load this module: the one enumeration they need, the
Dobrushin sum, is a scalar sum over field values and lives in ``criteria``.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Optional

import numpy as np

from ._record import record
from .fseq import Word
from .intervals import EPS, _exp
from .potential import PairPotential, SPINS, required_range, transfer_range

# The Perron iteration settles once no entry moves by more than PERRON_TOL
# relatively and the largest move stops shrinking; it raises if it has not
# settled after PERRON_MAX_STEPS steps (six laws of range 16 took 20 to 128).
PERRON_TOL = 8 * EPS
PERRON_MAX_STEPS = 10000
_TINY = 2.0**-1022  # the smallest normal double


@record
class KernelResult:
    """A kernel evaluation together with the sites it actually consulted."""

    value: float
    dependency_window: tuple


def _letters_at(word: Word, sites: range) -> tuple:
    """Int letters of ``word`` at ``sites``; a site it does not cover raises ValueError."""
    for site in sites:
        if not word.covers(site):
            raise ValueError(f"word does not cover required site {site}")
    return tuple(int(word.at(site)) for site in sites)


def _letter_bit(s) -> int:
    """0 for the letter -1, 1 for +1; anything but an integer spin, 1.0
    included, raises ValueError."""
    if not isinstance(s, numbers.Integral) or s not in SPINS:
        raise ValueError("letter must be a spin")
    return (int(s) + 1) // 2


def _encode_state(letters) -> int:
    """Letters at sites [t-R, t-1] (site order) to the walk's state index."""
    idx = 0
    for d, s in enumerate(reversed(letters), start=1):
        idx |= ((s + 1) // 2) << (d - 1)
    return int(idx)


def _state_letters(u: int, R: int) -> tuple:
    """The R letters of state index u in site order: its low R bits, oldest first."""
    return tuple(1 if c == "1" else -1 for c in format(u | 1 << R, "b")[1:])


def _past_state(word: Word, R: int) -> int:
    """State index of ``word`` at sites [-R, -1]; a site it does not cover raises ValueError."""
    return _encode_state(_letters_at(word, range(-R, 0)))


def _shift_state(u, bit, R: int):
    """The state of depth R after state u and letter bit ``bit`` (1 for +1);
    u may be an integer array."""
    return ((u << 1) | bit) & ((1 << R) - 1)


def _rescale(x: np.ndarray, scale):
    """Scale x by the power of two that brings its maximum into [1/2, 1),
    adding the exponent to ``scale``.

    Powers of two scale exactly, so rescaling adds no rounding error and the
    integer log2 scales add up without error.
    """
    e = np.frexp(x.max())[1]
    return np.ldexp(x, -e), scale + e


def _require_finite(x: np.ndarray) -> None:
    # NaN and inf spread through every later step and a zero vector stays
    # zero, so the last vector of a pass shows any earlier failure.
    if not (np.all(np.isfinite(x)) and x.max() > 0.0):
        raise ArithmeticError("sliding-block pass left the double range")


class _Walk:
    """The sliding-block walk of one finite-range potential, for scaled passes.

    A state holds the R letters before the current site, bit d-1 for site
    t-d.  A step with letter bit b (letter 2b-1) moves state u to nxt[b, u]
    with weight wts[b, u]; viewing u as (h, l) = (top bit, low R-1 bits),
    nxt[b, u] = 2l + b and wts[b, u] = step[b, h, l].  Range 0 walks as
    range 1 with a zero coupling, whose weights are all 1; its empty pasts
    and futures encode as state 0 and weight 1.
    """

    def __init__(self, p: PairPotential) -> None:
        J = tuple(p.strength(d) for d in range(1, required_range(p) + 1)) or (0.0,)
        # the weights lie in [exp(-h), exp(h)], h = beta * sum(J) / 2: all finite
        # and positive exactly when exp(h) is, so a coupling past that is refused here
        if not math.isfinite(_exp(0.5 * p.beta * sum(J))):
            raise ArithmeticError("coupling leaves the double range")
        R = len(J)
        self.size = 1 << R
        self.half = self.size >> 1
        states, letters = np.arange(self.size), np.array(SPINS)[:, None]
        field = np.zeros(self.size)
        for d in range(1, R + 1):
            field += J[d - 1] * (2.0 * ((states >> (d - 1)) & 1) - 1.0)
        self.nxt = _shift_state(states, (letters + 1) // 2, R)
        self.wts = np.exp(0.5 * p.beta * letters * field)
        self.step = self.wts.reshape(2, 2, self.half)
        # A free step moves the largest entry by a factor in [min w, 2 max w],
        # so rescaling every `every` steps keeps it within 2^-256 .. 2^256.
        lo, hi = float(self.step.min()), float(self.step.max())
        growth = max(math.log2(2.0 * hi), -math.log2(lo)) if lo > 0.0 else math.inf
        self.every = max(1, int(256 / growth))

    def pull(self, v: np.ndarray) -> np.ndarray:
        """M v, M the transfer matrix: (M v)[u] = sum_b wts[b, u] v[nxt[b, u]]."""
        return (self.wts * v[self.nxt]).sum(axis=0)

    def push(self, a: np.ndarray) -> np.ndarray:
        """a M, one forward step: (a M)[2l + b] = sum_h step[b, h, l] a[(h, l)]."""
        return (self.step * a.reshape(2, self.half)).sum(axis=1).T.reshape(-1)

    def clamped(self, letters):
        """End state and scaled weight (w, log2 scale) of walking ``letters``
        from every start state."""
        u = np.arange(self.size)
        w, scale = np.ones(self.size), 0
        for c in letters:
            b = (c + 1) // 2
            w, scale = _rescale(w * self.wts[b, u], scale)
            u = self.nxt[b, u]
        return u, w, scale

    def forward(self, start: int, n: int):
        """Scaled forward vectors alpha_t, t = 0 .. n+1, of the free walk on
        [0, n] from state ``start``: rows of (vectors, log2 scales)."""
        rows = np.zeros((n + 2, self.size))
        scales = np.zeros(n + 2, dtype=np.int64)
        a, scale = rows[0], 0
        a[start] = 1.0
        for t in range(1, n + 2):
            a = self.push(a)
            if t % self.every == 0:
                a, scale = _rescale(a, scale)
            rows[t], scales[t] = a, scale
        _require_finite(a)
        return rows, scales

    def backward(self, fut, n: int, stop: int = 0, keep: bool = False):
        """Scaled backward vectors beta_t of the walk on [0, n] with future ``fut``.

        beta_t[u] is the weight of steps t .. n+R from state u with the
        future letters ``fut`` on [n+1, n+R].  Returns (vector, log2 scale)
        at step ``stop``, or with ``keep`` at every step from ``stop`` to
        n+1, stacked.
        """
        _, b, scale = self.clamped(fut)
        if keep:
            rows = np.empty((n + 2 - stop, self.size))
            scales = np.empty(n + 2 - stop, dtype=np.int64)
            rows[-1], scales[-1] = b, scale
        for t in range(n, stop - 1, -1):
            b = self.pull(b)
            if t % self.every == 0:
                b, scale = _rescale(b, scale)
            if keep:
                rows[t - stop], scales[t - stop] = b, scale
        _require_finite(b)
        return (rows, scales) if keep else (b, scale)


def pi_window_at_zero(p: PairPotential, boundary: Word, n: int, s: int) -> KernelResult:
    """Conditional probability of letter s at site 0 under the [0, n] kernel.

    One scaled backward pass from the future boundary to site 1 gives the
    weights of both letters at site 0 from the past state u with the same
    scale, which cancels: O(n * 2^R) instead of the 2^(n+1) of raw
    enumeration, finite at every n, and equal to enumeration to 1e-12
    wherever that is small enough to run.
    """
    if n < 0:
        raise ValueError("window end must be >= 0")
    b = _letter_bit(s)
    R = required_range(p)
    u = _past_state(boundary, R)
    fut = _letters_at(boundary, range(n + 1, n + R + 1))
    walk = _Walk(p)
    beta1 = walk.backward(fut, n, stop=1)[0]
    weights = walk.wts[:, u] * beta1[walk.nxt[:, u]]
    value = float(weights[b] / weights.sum())
    return KernelResult(value=value, dependency_window=(-R, n + R))


def _perron_vector(step, size: int):
    """Perron root and vector (maximum 1) of the matrix that ``step`` applies.

    Power iteration from the uniform vector, normalised by the maximum at
    each step.  It stops once no entry moves by more than PERRON_TOL
    relatively and the largest move no longer shrinks: from there on the
    moves are rounding, so the vector is as accurate as doubles hold it.
    """
    v, last, settled = np.ones(size), math.inf, False
    for _ in range(PERRON_MAX_STEPS):
        w = step(v)
        lam = float(w.max())
        w /= lam
        change = float(np.max(np.abs(w - v) / np.maximum(w, _TINY)))
        settled = last <= change <= PERRON_TOL
        if settled:
            break
        v, last = w, change
    # an entry that left the normal range has lost its relative precision
    if np.min(w) < _TINY:
        raise ArithmeticError("Perron vector not strictly positive")
    if not settled:
        raise ArithmeticError(f"Perron iteration did not settle in {PERRON_MAX_STEPS} steps")
    return lam, w


@record
class MarkovConditional:
    """The stationary R-step conditional law g of a finite-range interaction.

    For finite range the compatible conditional depends on exactly R past
    letters.  ``table`` holds it, read-only, at [letter bit, state index]:
    the Doob transform of the transfer matrix by its Perron root
    ``eigenvalue``, right vector ``right`` (maximum 1) and left vector
    ``left`` (with left . right = 1), whose larger eigen-residual is
    ``residual``; at depth 0, one uniform column and no Perron data.
    """

    dependency_depth: int
    table: np.ndarray
    eigenvalue: Optional[float]
    right: Optional[np.ndarray]
    left: Optional[np.ndarray]
    residual: Optional[float]

    __eq__ = object.__eq__  # by identity: an array has no single truth value to compare by
    __hash__ = object.__hash__

    @property
    def states(self) -> tuple:
        """The sliding-block states as R letters in site order, by state
        index; at depth 0 the one empty state."""
        R = self.dependency_depth
        return tuple(_state_letters(u, R) for u in range(1 << R))

    def prob(self, past, s: int) -> float:
        """g(s | past); past is a Word covering [-R, -1] or R letters in site order."""
        b = _letter_bit(s)
        R = self.dependency_depth
        if not isinstance(past, Word):
            past = Word(-R, tuple(past))  # which checks the letters
            if len(past.letters) != R:
                raise ValueError(f"need exactly {R} past letters")
        return float(self.table[b, _past_state(past, R)])

    def log_variation(self, n: int) -> float:
        """var_n(log g): the largest spread of log g(s | past) over the letters
        s and the pasts that agree on their last n letters, which share the
        low n bits of the state.  Exactly 0 from n = R on: such pasts are one."""
        if n < 0:
            raise ValueError("agreement depth must be >= 0")
        R = self.dependency_depth
        if n >= R:
            return 0.0
        grouped = np.log(self.table).reshape(2, 1 << (R - n), 1 << n)
        return float(np.ptp(grouped, axis=1).max())

    def state_law(self) -> np.ndarray:
        """Stationary law of the sliding-block state under the g-chain."""
        if self.left is None:
            return np.array([1.0])
        law = self.left * self.right
        return law / law.sum()


def g_exact_markov(p: PairPotential) -> MarkovConditional:
    """Exact conditional g for a finite-range interaction via Perron eigendata.

    Kept for the last 8 potentials and shared: its arrays are read-only."""
    return _markov(p)


@lru_cache(maxsize=8)  # a law holds 4 * 2^R doubles, 2 MiB at TRANSFER_MAX_RANGE: 16 MiB at most
def _markov(p: PairPotential) -> MarkovConditional:
    R = transfer_range(p)
    if R == 0:
        uniform = np.broadcast_to(1.0 / len(SPINS), (len(SPINS), 1))  # a read-only view
        return MarkovConditional(0, uniform, None, None, None, None)
    walk = _Walk(p)
    lam, right = _perron_vector(walk.pull, walk.size)
    _, left = _perron_vector(walk.push, walk.size)
    residual = max(
        float(np.max(np.abs(walk.pull(right) - lam * right))),
        float(np.max(np.abs(walk.push(left) - lam * left))),
    )
    if residual > 1e-12 * max(1.0, lam):
        raise ArithmeticError(f"Perron residual {residual:.3e} too large")
    left = left / float((left * right).sum())
    # g(letter bit b | u) = M[u, v] right[v] / (lam right[u]), v = nxt[b, u]
    table = walk.wts * right[walk.nxt] / (lam * right)
    for a in (right, left, table):  # g_exact_markov shares one instance per potential
        a.flags.writeable = False
    rows = table.sum(axis=0)
    u = int(np.argmax(np.abs(rows - 1.0)))  # the row furthest from 1, or the first NaN
    if not abs(rows[u] - 1.0) <= 1e-12:
        raise ArithmeticError(f"conditional row at {_state_letters(u, R)} sums to {rows[u]}")
    # g is positive: an entry below the smallest normal double has lost its relative precision
    low = table.min(axis=0)
    u = int(np.argmin(low))
    if low[u] < _TINY:
        raise ArithmeticError(f"conditional g at {_state_letters(u, R)} underflows the double range")
    return MarkovConditional(R, table, lam, right, left, residual)
