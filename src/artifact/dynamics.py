"""Monte-Carlo probes of conditional laws: sampling, coupling, averaging.

Nothing here certifies anything.  The samplers exist to stress the exact
kernels and the certified bounds from the outside: a coupling that keeps
disagreeing under a criterion that proclaims uniqueness would expose a bug
long before a referee does.  Verdicts never cite these runs.

Randomness is counter-based so that every run is replayable bit for bit:
the generator is numpy's Philox (4x64, 10 rounds) keyed by
(seed, chain_id), and each run reads one stream of uniform rows of three,
row t serving site t.  The rows are drawn 2^12 at a time (96 KiB) from one
generator into one buffer, which yields exactly the rows of a single (N, 3)
draw.  Column 0 decides the letter of a plain chain or the couple/split
event of a coupled pair; columns 1 and 2 feed the shared draw and the two
residual draws.  Identical seeds therefore give identical paths on every
platform numpy supports.

Each sampler is one generator of the letter bits of blocks of 2^14 sites
(``chain_blocks``, ``coupling_blocks``).  Of its conditional law g it reads
``g.dependency_depth`` and row 0 of ``g.table``, P(-1 | state) by state
index (see ``kernel``).  The block writers
(``write_chain_blocks``, ``write_coupling_blocks``) take them one at a time
and tally what a report says of the run as they go, so a run streamed from
a sampler into a writer holds no array of N entries; a caller that wants
the letters gathers the blocks itself.  The working set (the uniform
buffer, one column of a block's uniforms, the lane matrices, the CSV rows
and row codes) is allocated once per run; only the yielded blocks are new.

A plain chain is a threshold chain: with u_t the last R letters as bits,
letter t is +1 exactly when x_t >= P(-1 | u_t), x_t from column 0.  A block
runs as 256 lanes of 64 sites side by side, each lane from a guessed start
state; the lanes are then checked in order, and a lane that started wrong is
walked again from its true start, one site at a time, only until its state
meets the guessed path, which it follows from there on (``_threshold_chain``).
The paths are the ones a site-by-site loop takes, bit for bit.

A coupled pair is looped over site by site only until its two states are
equal.  From then on both conditionals are the same p, and the overlap
p + (1 - p) rounds to exactly 1.0 for every double p in [0, 1] (1 - p is
within 2^-54 of its true value, and a tie at 1 - 2^-54 rounds to the even
1.0).  Since x_0 < 1 the pair always takes the shared draw, letter -1 when
x_1 * 1.0 = x_1 < p: the coalesced pair is the plain chain on column 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

import numpy as np

from .fseq import Word
from .kernel import _letters_at, _past_state, _shift_state, _walk
from .potential import PairPotential, required_range

SAMPLER_MAX_DEPTH = 12
CESARO_MAX_WINDOW = 1 << 15
# cesaro_estimate keeps both passes, (n + 1) * 2^R doubles each
CESARO_MAX_CELLS = 1 << 23
# rows of uniforms drawn at a time into a run's one buffer (three doubles each, 96 KiB)
_CHUNK = 1 << 12
# sites of a yielded block, a multiple of _CHUNK; the sampler's kernel runs a
# block's column of uniforms (128 KiB) as _BLOCK // _LANE = 256 lanes of _LANE
# sites, so each lane step is one vector operation over 256 lanes
_BLOCK = 1 << 14
_LANE = 64
# sites a lane's start state is guessed from, at the end of the lane before; <= _LANE
_WARM = 32


def _chain_tables(g):
    """The sampler's tables over sliding-block states: P(letter -1 | state)
    and the state after a letter bit 0 (the bit 1 state is one more).  A law
    of depth 0 is served on one-letter states, the same value for both.
    States fit in uint16, since 2^R <= 2^SAMPLER_MAX_DEPTH."""
    R = g.dependency_depth
    if R > SAMPLER_MAX_DEPTH:
        raise ValueError(f"sampler guard: dependency depth <= {SAMPLER_MAX_DEPTH}")
    depth = max(R, 1)
    return np.resize(g.table[0], 1 << depth), _shift_state(np.arange(1 << depth), 0, depth).astype(np.uint16)


def _uniform_chunks(seed: int, chain_id: int, N: int):
    """Rows 0 .. N-1 of the run's (N, 3) uniform block, drawn _CHUNK rows at a
    time from one generator; the rows equal those of a single (N, 3) draw.

    Every chunk is a view of one buffer that the next draw overwrites, so a
    chunk is valid only until the next one is drawn: copy what must outlive it.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    bits = np.random.Philox(key=np.array([seed, chain_id], dtype=np.uint64))
    gen = np.random.Generator(bits)
    buf = np.empty((min(_CHUNK, N), 3))
    return (gen.random(out=buf[:min(_CHUNK, N - start)]) for start in range(0, N, _CHUNK))


def _lane_matrices(N: int):
    """The lane state and bit matrices of _threshold_chain for a run of N
    sites, and the lanes' current states, allocated once and reused by every
    block.  The current states are intp, so they index the tables uncast."""
    lanes = min(_BLOCK, N) // _LANE
    return (np.empty((_LANE + 1, lanes), dtype=np.uint16), np.empty((_LANE, lanes), dtype=bool),
            np.empty(lanes, dtype=np.intp))


def _walk_lane(table: list, steps: list, u: int, xs: list, refs: list):
    """Walk the chain from state u over the uniforms xs, one site at a time,
    until the state after a site equals refs at that site.  Returns the bits
    walked before the meeting site, the state reached, and whether it met."""
    walked = bytearray()
    for x, ref in zip(xs, refs):
        bit = x >= table[u]
        u = steps[u] + bit
        if u == ref:
            return walked, u, True
        walked.append(bit)
    return walked, u, False


def _threshold_chain(table: np.ndarray, steps: np.ndarray, u: int, x: np.ndarray, out: np.ndarray, work) -> int:
    """Run bit_t = [x_t >= table[u_t]], u_(t+1) = steps[u_t] + bit_t over the
    uniforms x, at most _BLOCK of them, from state u; write the bits to out
    and return the last state.  ``work`` holds the matrices of _lane_matrices.

    Pass one runs the full lanes of _LANE sites side by side.  Lane 0 starts
    from u, lane k > 0 from a guess: the state reached over the last _WARM
    sites of lane k - 1 from u.  Pass two goes through the lanes in order: a
    lane whose true start, the end state of the lane before, is not its guess
    is walked again from that start until its state equals pass one's at the
    same site.  Both paths read the same uniforms from there on, so they
    agree to the lane's end.  Sites past the last full lane are walked one at
    a time.
    """
    lanes = len(x) // _LANE
    done = lanes * _LANE
    tl, sl = table.tolist(), steps.tolist()
    if lanes:
        xs = x[:done].reshape(lanes, _LANE).T
        states, bits, at = work[0][:, :lanes], work[1][:, :lanes], work[2][:lanes]
        at[:] = u
        guess = at[1:]
        for s in range(_LANE - _WARM, _LANE):
            np.add(steps[guess], xs[s, :-1] >= table[guess], out=guess)
        states[0] = at
        for s in range(_LANE):
            np.greater_equal(xs[s], table[at], out=bits[s])
            np.add(steps[at], bits[s], out=states[s + 1])
            at[:] = states[s + 1]
        out[:done].reshape(lanes, _LANE)[:] = bits.T
        starts, ends = states[0].tolist(), states[_LANE].tolist()
        for k in range(lanes):
            if u != starts[k]:
                lo = k * _LANE
                walked, u, met = _walk_lane(tl, sl, u, x[lo:lo + _LANE].tolist(), states[1:, k].tolist())
                out[lo:lo + len(walked)] = np.frombuffer(walked, dtype=np.uint8)
                if not met:
                    continue
            u = ends[k]
    if done < len(x):
        walked, u, _ = _walk_lane(tl, sl, u, x[done:].tolist(), itertools.repeat(-1))
        out[done:] = np.frombuffer(walked, dtype=np.uint8)
    return u


def _part_edges(N: int, parts: int = 10) -> list:
    """Edges of ``min(parts, N)`` consecutive parts of sites 0 .. N-1, as
    ``np.array_split`` cuts them: lengths differ by at most one, the longer
    first, and no part is empty."""
    k = min(parts, N)
    q, r = divmod(N, k) if k else (0, 0)
    return [j * q + min(j, r) for j in range(k + 1)]


def chain_blocks(g, past: Word, N: int, seed: int, chain_id: int = 0):
    """The letter bits (uint8, 1 for +1) of sites 0 .. N-1 sampled from the
    conditional law g, as one generator of blocks of up to _BLOCK sites.  The
    arguments are checked here, before any block is drawn."""
    if N < 1:
        raise ValueError("need at least one site")
    table, steps = _chain_tables(g)
    u = _past_state(past, g.dependency_depth)
    return _chain_blocks(table, steps, u, _uniform_chunks(seed, chain_id, N), N)


def _chain_blocks(table, steps, u: int, uniforms, N: int):
    work, column = _lane_matrices(N), np.empty(min(_BLOCK, N))
    for start in range(0, N, _BLOCK):
        n = min(_BLOCK, N - start)
        for i, chunk in zip(range(0, n, _CHUNK), uniforms):
            column[i:i + len(chunk)] = chunk[:, 0]
        bits = np.empty(n, dtype=np.uint8)
        u = _threshold_chain(table, steps, u, column[:n], bits, work)
        yield bits


def coupling_blocks(g, past_a: Word, past_b: Word, N: int, seed: int):
    """The letter bits of two chains from the pasts past_a and past_b,
    maximally coupled at every site, as one generator of (2, n) blocks of up
    to _BLOCK sites (row 0 from past_a).  The arguments are checked here,
    before any block is drawn.

    At each site the overlap mass of the two conditionals is served by one
    shared draw; with the complementary probability (their total-variation
    distance) the chains split and draw from their normalized residuals,
    letters in canonical order (-1, +1) throughout.  Once the two states are
    equal the pair is the plain chain on column 1 (see the module notes).
    """
    if N < 1:
        raise ValueError("need at least one site")
    R = g.dependency_depth
    table, steps = _chain_tables(g)
    ua, ub = _past_state(past_a, R), _past_state(past_b, R)
    return _coupling_blocks(table, steps, ua, ub, _uniform_chunks(seed, 0, N), N)


def _coupling_blocks(table, steps, ua: int, ub: int, uniforms, N: int):
    tl, sl = table.tolist(), steps.tolist()
    work, column = _lane_matrices(N), np.empty(min(_BLOCK, N))
    for start in range(0, N, _BLOCK):
        n = min(_BLOCK, N - start)
        # letters of the pair before its states meet, in this block
        pair_a, pair_b = bytearray(), bytearray()
        add_a, add_b = pair_a.append, pair_b.append
        for lo, chunk in zip(range(0, n, _CHUNK), uniforms):
            j = 0  # rows of the chunk the pair took
            while ua != ub and j < len(chunk):
                for x0, x1, x2 in chunk[j:j + _LANE].tolist():
                    if ua == ub:
                        break
                    pa = tl[ua]
                    pb = tl[ub]
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
                    ua = sl[ua] + bit_a
                    ub = sl[ub] + bit_b
                j = len(pair_a) - lo
            if ua == ub:  # met: column 1 from the block's site i on goes to column[0:]
                i = len(pair_a)
                column[lo + j - i:lo + len(chunk) - i] = chunk[j:, 1]
        i = len(pair_a)
        bits = np.empty((2, n), dtype=np.uint8)
        if ua == ub:  # the coalesced pair is the plain chain on column 1
            ua = ub = _threshold_chain(table, steps, ua, column[:n - i], bits[0, i:], work)
            bits[1, i:] = bits[0, i:]
        bits[0, :i] = np.frombuffer(pair_a, dtype=np.uint8)
        bits[1, :i] = np.frombuffer(pair_b, dtype=np.uint8)
        yield bits


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
    u = _past_state(boundary, R)
    fut = _letters_at(boundary, range(end + 1, end + R + 1))
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

    alpha, la = walk.forward(u, end)
    beta, lb = walk.backward(fut, end, keep=True)
    z_hat, lz = beta[0, u], lb[0]
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


# Rows of the CSV writers: the site number, then a tail as csv.writer writes
# it (CRLF line ends), picked by the row code: for a coupling 2a + b from the
# letter bits a, b (the disagree flag is a != b), for one chain the letter bit.
_COUPLING_TAILS = [f",{2 * i - 1},{2 * j - 1},{int(i != j)}\r\n" for i in (0, 1) for j in (0, 1)]
_CHAIN_TAILS = [",-1\r\n", ",1\r\n"]
# the sites 10^4 h .. 10^4 h + 9999 share their leading digits
_CSV_ROWS = 10000
# rows built and written at a time, never across a multiple of _CSV_ROWS
_PIECE_ROWS = 2500


@lru_cache(maxsize=2)
def _four_digits(leading: bool) -> np.ndarray:
    """ASCII digits of 0000 .. 9999 as one uint32 word each; unless leading,
    leading zeros are zero bytes (0 keeps one digit).  The digits are worked
    out in uint16 and uint8, so no temporary is wider than 80 KB."""
    n = np.arange(10000, dtype=np.uint16)[:, None]
    place = n // np.array([1000, 100, 10, 1], dtype=np.uint16)
    place %= 10
    digits = place.astype(np.uint8)
    digits += ord("0")
    if not leading:
        digits *= n >= np.array([1000, 100, 10, 0], dtype=np.uint16)
    words = digits.view(np.uint32).ravel()
    words.flags.writeable = False  # one cached table serves every writer
    return words


def _write_rows(fh, header: str, codes, tails: list, N: int) -> None:
    """Write the header, then the row ``t`` + ``tails[c]`` for each site t in
    0 .. N-1, c the t-th of the N codes in the arrays ``codes`` yields, which
    may have any lengths.

    A row is a fixed run of uint32 words: the site in groups of four digits,
    then the tail, with zero bytes where the text is shorter; one compress
    drops the zero bytes.  Rows are built at most _PIECE_ROWS at a time,
    never across a multiple of _CSV_ROWS, so only the last group varies
    inside a piece, and it comes from a table of four-digit words; the
    groups before it are the digits of the piece's number.  The rows, the
    mask of the bytes kept, and a piece's codes as intp and its tail words
    are allocated once per writer: ``np.take`` from intp codes into a
    contiguous ``out`` allocates nothing.
    """
    fh.write(header.encode())
    groups = -(-len(str(N - 1)) // 4)
    width = 4 * -(-max(len(t) for t in tails) // 4)
    words = np.stack([np.frombuffer(t.encode().ljust(width, b"\0"), dtype=np.uint32) for t in tails])
    rows = np.empty((min(_PIECE_ROWS, N), groups + width // 4), dtype=np.uint32)
    data = rows.view(np.uint8)
    keep = np.empty(data.shape, dtype=bool)
    index = np.empty(len(rows), dtype=np.intp)
    tail = np.empty((len(rows), width // 4), dtype=np.uint32)
    site = 0
    for c in codes:
        i = 0
        while i < len(c):
            h, r = divmod(site, _CSV_ROWS)
            n = min(_PIECE_ROWS, _CSV_ROWS - r, len(c) - i)
            lead = (str(h) if h else "").encode().rjust(4 * groups - 4, b"\0")
            rows[:n, :groups - 1] = np.frombuffer(lead, dtype=np.uint32)
            rows[:n, groups - 1] = _four_digits(h > 0)[r:r + n]
            index[:n] = c[i:i + n]
            rows[:n, groups:] = np.take(words, index[:n], axis=0, out=tail[:n], mode="clip")
            np.not_equal(data[:n], 0, out=keep[:n])
            fh.write(data[:n][keep[:n]])
            site += n
            i += n


def write_chain_blocks(path, blocks, N: int) -> int:
    """Write the (site, letter) CSV of sites 0 .. N-1 from the letter-bit
    blocks of ``chain_blocks``, one block at a time; returns how many letters
    are +1."""
    plus = 0

    def codes():
        nonlocal plus
        for bits in blocks:
            plus += int(np.count_nonzero(bits))
            yield bits

    with open(path, "wb") as fh:
        _write_rows(fh, "site,letter\r\n", codes(), _CHAIN_TAILS, N)
    return plus


def write_coupling_blocks(path, blocks, N: int):
    """Write the (site, letter_a, letter_b, disagree) CSV of sites 0 .. N-1
    from the blocks of ``coupling_blocks``, one block at a time.  Returns
    the disagreement density of each of the ``min(10, N)`` parts that
    ``_part_edges`` cuts, the density over all sites, and the first
    coalescence: the first site from which on the chains agree, or None if
    they disagree at the last site."""
    edges = _part_edges(N)
    counts, last, start = [0] * (len(edges) - 1), 0, 0
    code = np.empty(0, dtype=np.uint8)  # a block's flags a != b, then its codes 2a + b

    def codes():
        nonlocal last, start, code
        for a, b in blocks:
            if len(code) < len(a):
                code = np.empty(len(a), dtype=np.uint8)
            d = np.not_equal(a, b, out=code[:len(a)])
            stop = start + len(d)
            for j in range(len(counts)):
                lo, hi = max(edges[j], start), min(edges[j + 1], stop)
                if lo < hi:
                    counts[j] += int(np.count_nonzero(d[lo - start:hi - start]))
            if d.any():
                last = stop - int(d[::-1].argmax())
            start = stop
            np.left_shift(a, 1, out=d)
            d |= b
            yield d

    with open(path, "wb") as fh:
        _write_rows(fh, "site,letter_a,letter_b,disagree\r\n", codes(), _COUPLING_TAILS, N)
    density = [c / (hi - lo) for c, lo, hi in zip(counts, edges, edges[1:])]
    return density, sum(counts) / N, last if last < N else None
