"""Monte-Carlo probes of conditional laws: sampling, coupling, averaging.

Nothing here certifies anything.  The samplers exist to stress the exact
kernels and the certified bounds from the outside: a coupling that keeps
disagreeing under a criterion that proclaims uniqueness would expose a bug
long before a referee does.  Verdicts never cite these runs.

Randomness is counter-based so that every run is replayable bit for bit:
the generator is numpy's Philox (4x64, 10 rounds) keyed by
(seed, chain_id), and each run reads one stream of uniform rows of three,
row t serving site t.  The rows are drawn a few thousand at a time from
one generator, which yields exactly the rows of a single (N, 3) draw.
Column 0 decides the letter of a plain chain or the couple/split event of
a coupled pair; columns 1 and 2 feed the shared draw and the two residual
draws.  Identical seeds therefore give identical paths on every platform
numpy supports.  The per-site loops compare Python floats taken from each
chunk, the same doubles with the same comparisons as on numpy scalars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .fseq import Word
from .kernel import _encode_state, _walk, required_range
from .potential import PairPotential, SPINS

SAMPLER_MAX_DEPTH = 12
CESARO_MAX_WINDOW = 1 << 15
# cesaro_estimate keeps both passes, (n + 1) * 2^R doubles each
CESARO_MAX_CELLS = 1 << 23
# rows of uniforms drawn, looped over and written at a time
_CHUNK = 4096


@dataclass(frozen=True)
class WindowConditional:
    """Finite-window proxy for g: the law of site 0 under the [0, n] kernel.

    The future boundary is pinned (all-plus unless told otherwise), so this
    is the object whose convergence to the exact Markov conditional the
    kernel tests measure; sampling from it probes pre-limit behavior.
    """

    potential: PairPotential
    window_n: int
    future: Optional[tuple] = None

    @property
    def dependency_depth(self) -> int:
        return required_range(self.potential)

    @property
    def source_label(self) -> str:
        return f"pi_window({self.window_n})"

    @cached_property
    def _laws(self) -> np.ndarray:
        """P(letter | past state) for every past, from one backward pass."""
        R = self.dependency_depth
        fut = self.future if self.future is not None else (1,) * R
        if len(fut) != R:
            raise ValueError(f"future must fix {R} letters")
        return _walk(self.potential).site_zero_laws([tuple(fut)], self.window_n)[:, :, 0]

    def prob(self, past, s: int) -> float:
        if s not in SPINS:
            raise ValueError("letter must be a spin")
        laws = self._laws
        letters = tuple(past)
        if len(letters) != self.dependency_depth:
            raise ValueError(f"need exactly {self.dependency_depth} past letters")
        return float(laws[(s + 1) // 2, _encode_state(letters)])


def _conditional_table(g) -> np.ndarray:
    """P(letter -1 | state) for every sliding-block state of the sampler."""
    R = g.dependency_depth
    if R > SAMPLER_MAX_DEPTH:
        raise ValueError(f"sampler guard: dependency depth <= {SAMPLER_MAX_DEPTH}")
    if R == 0:
        return np.array([g.prob((), -1)])
    table = np.empty(1 << R)
    for u in range(1 << R):
        letters = tuple(int(2 * ((u >> (R - 1 - i)) & 1) - 1) for i in range(R))
        table[u] = g.prob(letters, -1)
    return table


def _initial_state(past: Word, R: int) -> int:
    u = 0
    for i in range(-R, 0):
        if not past.covers(i):
            raise ValueError(f"past must cover site {i}")
        u = (u << 1) | ((past.at(i) + 1) // 2)
    return u


def _uniform_chunks(seed: int, chain_id: int, N: int):
    """Rows 0 .. N-1 of the run's (N, 3) uniform block, drawn _CHUNK rows at a
    time from one generator; the rows equal those of a single (N, 3) draw."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    bits = np.random.Philox(key=np.array([seed, chain_id], dtype=np.uint64))
    gen = np.random.Generator(bits)
    return (gen.random((min(_CHUNK, N - start), 3)) for start in range(0, N, _CHUNK))


def _letters(bits: bytearray) -> np.ndarray:
    """Read-only int8 letters from letter bits (0 for -1, 1 for +1)."""
    out = 2 * np.frombuffer(bits, dtype=np.int8) - 1
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ChainRun:
    """One sampled trajectory; replayable from (seed, past, g_source)."""

    seed: int
    past: Word
    samples: np.ndarray
    g_source: str

    def frequency(self, letter: int) -> float:
        return float(np.mean(self.samples == letter))


@dataclass(frozen=True)
class CouplingRun:
    """Two trajectories driven by one stream, maximally coupled sitewise.

    Each site couples with the largest probability any joint law allows,
    namely one minus the total-variation distance of the two conditionals;
    once the running histories coincide the chains agree forever.
    """

    chain_a: ChainRun
    chain_b: ChainRun
    disagree: np.ndarray

    def disagreement_density(self, blocks: int = 10) -> np.ndarray:
        return np.array([float(np.mean(b)) for b in np.array_split(self.disagree, blocks)])

    def first_coalescence(self) -> Optional[int]:
        """First site after which no disagreement ever occurs."""
        idx = np.nonzero(self.disagree)[0]
        if idx.size == 0:
            return 0
        last = int(idx[-1]) + 1
        return last if last < len(self.disagree) else None


def sample_chain(g, past: Word, N: int, seed: int, chain_id: int = 0) -> ChainRun:
    """Sample sites 0 .. N-1 sequentially from the conditional law g."""
    if N < 1:
        raise ValueError("need at least one site")
    R = g.dependency_depth
    table = _conditional_table(g).tolist()
    mask = (1 << R) - 1
    u = _initial_state(past, R)
    bits = bytearray()
    add = bits.append
    for block in _uniform_chunks(seed, chain_id, N):
        for x in block[:, 0].tolist():
            bit = 0 if x < table[u] else 1
            add(bit)
            u = ((u << 1) | bit) & mask
    return ChainRun(seed=seed, past=past, samples=_letters(bits), g_source=g.source_label)


def couple_two_pasts(g, past_a: Word, past_b: Word, N: int, seed: int) -> CouplingRun:
    """Run two chains from different pasts, maximally coupled at every site.

    At each site the overlap mass of the two conditionals is served by one
    shared draw; with the complementary probability (their total-variation
    distance) the chains split and draw from their normalized residuals,
    letters in canonical order (-1, +1) throughout.
    """
    if N < 1:
        raise ValueError("need at least one site")
    R = g.dependency_depth
    table = _conditional_table(g).tolist()
    mask = (1 << R) - 1
    ua = _initial_state(past_a, R)
    ub = _initial_state(past_b, R)
    bits_a, bits_b = bytearray(), bytearray()
    add_a, add_b = bits_a.append, bits_b.append
    for block in _uniform_chunks(seed, 0, N):
        for x0, x1, x2 in block.tolist():
            pa = table[ua]
            pb = table[ub]
            # o_minus = min(pa, pb), overlap = o_minus + min(1 - pa, 1 - pb)
            if pa < pb:
                o_minus, overlap = pa, pa + (1.0 - pb)
            else:
                o_minus, overlap = pb, pb + (1.0 - pa)
            if x0 < overlap:
                bit_a = bit_b = 0 if x1 * overlap < o_minus else 1
            else:
                split = 1.0 - overlap
                bit_a = 0 if x1 * split < pa - o_minus else 1
                bit_b = 0 if x2 * split < pb - o_minus else 1
            add_a(bit_a)
            add_b(bit_b)
            ua = ((ua << 1) | bit_a) & mask
            ub = ((ub << 1) | bit_b) & mask
    letters_a, letters_b = _letters(bits_a), _letters(bits_b)
    run_a = ChainRun(seed=seed, past=past_a, samples=letters_a, g_source=g.source_label)
    run_b = ChainRun(seed=seed, past=past_b, samples=letters_b, g_source=g.source_label)
    return CouplingRun(chain_a=run_a, chain_b=run_b, disagree=letters_a != letters_b)


def _pins_outside_hold(boundary: Word, f: Word, lo: int, first: int, last: int) -> bool:
    """Whether the letters of f outside [first, last), shifted to start at
    site lo, agree with the boundary; checked in site order."""
    for k in itertools.chain(range(first), range(last, len(f.letters))):
        site = lo + k
        if not boundary.covers(site):
            raise ValueError(f"shifted cylinder needs boundary at site {site}")
        if boundary.at(site) != f.letters[k]:
            return False
    return True


def cesaro_estimate(p: PairPotential, f: Optional[Word], n: int, boundary: Word) -> float:
    """Average over shifts i < n of the window probability that the shifted
    cylinder f holds, under the kernel on [0, n-1] with the given boundary.

    ``f = None`` means the constant function one.  Shifted sites that land
    outside the window are compared against the boundary letters, making
    the term 0 or dropping the pin.  One scaled forward and one scaled
    backward pass serve every shift: the letters of f inside the window
    are walked from alpha at their first site to beta after their last,
    so the cost is O(n * |f| * 2^R) and the log2 scales cancel exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > CESARO_MAX_WINDOW:
        raise ValueError(f"window guard: n <= {CESARO_MAX_WINDOW}")
    if f is None:
        return 1.0
    R = required_range(p)
    end = n - 1
    sites = list(range(-R, 0)) + list(range(end + 1, end + R + 1))
    for site in sites:
        if not boundary.covers(site):
            raise ValueError(f"boundary must cover site {site}")
    past = tuple(boundary.at(i) for i in range(-R, 0))
    fut = tuple(boundary.at(i) for i in range(end + 1, end + R + 1))
    walk = _walk(p)
    if (n + 1) * walk.size > CESARO_MAX_CELLS:
        raise ValueError(f"pass guard: (n + 1) * 2^R <= {CESARO_MAX_CELLS}")

    # shifts grouped by the run [first, last) of f's letters inside the window
    runs: dict = {}
    L = len(f.letters)
    for i in range(n):
        lo = i + f.offset
        first = min(max(0, -lo), L)
        last = max(first, min(L, n - lo))
        if _pins_outside_hold(boundary, f, lo, first, last):
            runs.setdefault((first, last), []).append(lo + first)

    alpha, la = walk.forward(_encode_state(past), end)
    beta, lb = walk.backward([fut], end, keep=True)
    beta, lb = beta[:, :, 0], lb[:, 0]
    z_hat, lz = beta[0, _encode_state(past)], lb[0]
    total = 0.0
    for (first, last), starts in runs.items():
        if first == last:  # every pin lies outside the window and holds
            total += len(starts)
            continue
        a = np.array(starts)
        z = a + (last - first)
        e, w, lw = walk.clamped(f.letters[first:last])
        terms = np.einsum("ij,j,ij->i", alpha[a], w, beta[z[:, None], e[None, :]])
        total += float(np.sum(np.ldexp(terms / z_hat, la[a] + lb[z] + lw - lz)))
    return total / n


def cesaro_gap(p: PairPotential, f: Optional[Word], n: int, boundary_a: Word, boundary_b: Word) -> float:
    """Boundary dependence of the Cesàro average: |estimate(a) - estimate(b)|."""
    return abs(cesaro_estimate(p, f, n, boundary_a) - cesaro_estimate(p, f, n, boundary_b))


# Row tails after the site number, as csv.writer writes them (CRLF line ends):
# for a coupling at index 4a + 2b + d from the letter bits a, b and the
# disagree flag d, for one chain at the letter bit.
_COUPLING_TAILS = [f",{2 * i - 1},{2 * j - 1},{k}\r\n" for i in (0, 1) for j in (0, 1) for k in (0, 1)]
_CHAIN_TAILS = [",-1\r\n", ",1\r\n"]


def write_coupling_csv(run: CouplingRun, path) -> None:
    """Time series (site, letter_a, letter_b, disagree) for plotting."""
    a, b, d = run.chain_a.samples, run.chain_b.samples, run.disagree
    with open(path, "w", newline="") as fh:
        fh.write("site,letter_a,letter_b,disagree\r\n")
        for start in range(0, len(d), _CHUNK):
            stop = start + _CHUNK
            codes = (4 * (a[start:stop] > 0) + 2 * (b[start:stop] > 0) + d[start:stop]).tolist()
            fh.write("".join([f"{t}{_COUPLING_TAILS[c]}" for t, c in zip(range(start, stop), codes)]))


def write_chain_csv(run: ChainRun, path) -> None:
    """Time series (site, letter) of one sampled chain."""
    samples = run.samples
    with open(path, "w", newline="") as fh:
        fh.write("site,letter\r\n")
        for start in range(0, len(samples), _CHUNK):
            stop = start + _CHUNK
            codes = (samples[start:stop] > 0).tolist()
            fh.write("".join([f"{t}{_CHAIN_TAILS[c]}" for t, c in zip(range(start, stop), codes)]))
