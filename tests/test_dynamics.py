"""Sequential sampling, coupled chains, and window Cesàro averages."""

import csv
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from artifact import (
    CouplingLaw,
    PairPotential,
    Word,
    cesaro_estimate,
    chain_blocks,
    coupling_blocks,
    g_exact_markov,
    write_chain_blocks,
    write_coupling_blocks,
)
from artifact.dynamics import SAMPLER_MAX_DEPTH, _BLOCK, _part_edges, _uniform_chunks
from artifact.kernel import _encode_state
from oracles import disagreement_density, first_coalescence, phi_window

GOLDEN_SEED_42 = [1, 1, -1, 1, -1, -1, -1, -1, 1, -1,
                  -1, -1, -1, -1, -1, -1, 1, 1, -1, -1]


def nn(beta=1.0):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table((1.0,)))


def zero():
    return PairPotential(beta=1.0, coupling=CouplingLaw.zero())


def truncated(beta, R):
    return PairPotential(
        beta=beta, coupling=CouplingLaw.power_law(2.0), truncation_range=R
    )


def plus_past(R):
    return Word.constant(-max(R, 1), max(R, 1), 1)


def minus_past(R):
    return Word.constant(-max(R, 1), max(R, 1), -1)


def sample(g, past, N, seed, chain_id=0):
    """The letters (int8, -1 and +1) of the blocks of chain_blocks, gathered."""
    return 2 * np.concatenate(list(chain_blocks(g, past, N, seed, chain_id))).astype(np.int8) - 1


def couple(g, past_a, past_b, N, seed):
    """The letters of the two chains of coupling_blocks, gathered: rows a and b."""
    return 2 * np.concatenate(list(coupling_blocks(g, past_a, past_b, N, seed)), axis=1).astype(np.int8) - 1


def tallies(g, past_a, past_b, N, seed):
    """What write_coupling_blocks says of a coupled run: part densities,
    density and first coalescence; the rows go to the null device."""
    return write_coupling_blocks(os.devnull, coupling_blocks(g, past_a, past_b, N, seed), N)


def csv_writer_bytes(header, rows):
    """The bytes csv.writer writes for the header and the rows."""
    text = io.StringIO(newline="")
    w = csv.writer(text)
    w.writerow(header)
    w.writerows(rows)
    return text.getvalue().encode()


# -- reproducibility ---------------------------------------------------------------


def test_sampling_replays_bit_exactly():
    g = g_exact_markov(truncated(0.4, 3))
    a = sample(g, plus_past(3), 500, seed=9)
    b = sample(g, plus_past(3), 500, seed=9)
    assert np.array_equal(a, b)
    c = sample(g, plus_past(3), 500, seed=10)
    assert not np.array_equal(a, c)
    d = sample(g, plus_past(3), 500, seed=9, chain_id=1)
    assert not np.array_equal(a, d)


def test_sampling_golden_sequence():
    # frozen on first release; any change here breaks replayability of runs
    g = g_exact_markov(nn(1.0))
    assert list(sample(g, Word(-1, (1,)), 20, seed=42)) == GOLDEN_SEED_42


def test_sampling_validation():
    g = g_exact_markov(nn(1.0))
    with pytest.raises(ValueError):
        chain_blocks(g, Word(-1, (1,)), 0, seed=1)
    with pytest.raises(ValueError):
        chain_blocks(g, Word(-1, (1,)), 5, seed=2**64)
    with pytest.raises(ValueError):
        chain_blocks(g, Word(-3, (1, 1)), 5, seed=1)  # past misses site -1


def test_sampler_depth_guard():
    class Depth13:  # a conditional law one letter deeper than the sampler serves
        dependency_depth = 13

    with pytest.raises(ValueError, match="sampler guard"):
        chain_blocks(Depth13(), plus_past(13), 5, seed=1)


# -- marginal statistics -------------------------------------------------------------


def test_zero_coupling_letters_are_uniform():
    s = sample(g_exact_markov(zero()), Word(-1, (1,)), 10**5, seed=123)
    assert abs(float(np.mean(s == 1)) - 0.5) <= 0.01
    counts = [int(np.sum(s == x)) for x in (-1, 1)]
    assert stats.chisquare(counts).pvalue > 0.001


def test_nearest_neighbor_persistence_probability():
    # P(x_t = x_{t-1}) = e^{b/2} / (2 cosh(b/2)) at stationarity
    s = sample(g_exact_markov(nn(1.0)), Word(-1, (1,)), 10**5, seed=7)
    same = float(np.mean(s[1:] == s[:-1]))
    want = math.exp(0.5) / (2.0 * math.cosh(0.5))
    assert abs(same - want) <= 0.01


def test_pair_frequencies_match_stationary_law():
    g = g_exact_markov(nn(1.0))
    s = sample(g, Word(-1, (1,)), 10**5, seed=7)
    law = g.state_law()
    pairs = 10**5 - 1
    for a in (-1, 1):
        for b in (-1, 1):
            emp = float(np.mean((s[:-1] == a) & (s[1:] == b)))
            want = law[_encode_state((a,))] * g.prob((a,), b)
            sigma = math.sqrt(want * (1.0 - want) / pairs)
            assert abs(emp - want) <= 3.0 * sigma


# -- coupled chains ------------------------------------------------------------------


def test_identical_pasts_never_disagree():
    g = g_exact_markov(truncated(0.5, 2))
    a, b = couple(g, plus_past(2), plus_past(2), 2000, seed=3)
    _, density, coalesced = tallies(g, plus_past(2), plus_past(2), 2000, seed=3)
    assert density == 0.0
    assert coalesced == 0
    assert np.array_equal(a, b)


def test_coupled_chains_coalesce_and_stay_together():
    # once the R running letters agree the states coincide and the shared
    # draw keeps them identical: disagreements cannot reignite in isolation
    R = 3
    g = g_exact_markov(truncated(0.4, R))
    a, b = couple(g, plus_past(R), minus_past(R), 2000, seed=5)
    disagree = a != b
    for t in np.nonzero(disagree)[0]:
        assert t < R or disagree[max(0, t - R):t].any()
    coal = tallies(g, plus_past(R), minus_past(R), 2000, seed=5)[2]
    assert coal is not None
    assert not disagree[coal:].any()


def test_disagreement_density_decays():
    g = g_exact_markov(truncated(0.3, 6))
    d = tallies(g, plus_past(6), minus_past(6), 10**4, seed=21)[0]
    assert len(d) == 10
    assert d[0] > 0.0
    assert np.all(np.diff(d) <= 1e-12)
    assert d[-1] == 0.0


def test_coupling_is_seed_deterministic():
    g = g_exact_markov(truncated(0.3, 2))
    a = couple(g, plus_past(2), minus_past(2), 1000, seed=11)
    b = couple(g, plus_past(2), minus_past(2), 1000, seed=11)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


# -- Cesàro averages ------------------------------------------------------------------


def test_cesaro_zero_coupling_single_site():
    est = cesaro_estimate(zero(), Word(0, (1,)), 64, plus_past(1))
    assert est == pytest.approx(0.5, abs=1e-12)


def test_cesaro_constant_function():
    assert cesaro_estimate(nn(1.0), None, 16, plus_past(1)) == 1.0


def test_cesaro_gap_shrinks_with_window():
    f = Word(0, (1,))
    p = nn(1.0)
    gaps = [
        abs(
            cesaro_estimate(p, f, n, Word.constant(-1, n + 2, 1))
            - cesaro_estimate(p, f, n, Word.constant(-1, n + 2, -1))
        )
        for n in (8, 16, 32)
    ]
    assert gaps[2] < gaps[1] < gaps[0]


def test_cesaro_validation():
    p = nn(1.0)
    with pytest.raises(ValueError):
        cesaro_estimate(p, None, 0, plus_past(1))
    with pytest.raises(ValueError):
        cesaro_estimate(p, Word(0, (1,)), 1 << 16, Word.constant(-1, (1 << 16) + 2, 1))
    with pytest.raises(ValueError):
        cesaro_estimate(p, Word(0, (1,)), 8, Word(-1, (1,)))  # boundary too short


# -- artifact writers ------------------------------------------------------------------


def test_csv_writers_round_trip(tmp_path):
    g = g_exact_markov(truncated(0.4, 2))
    a, _ = couple(g, plus_past(2), minus_past(2), 50, seed=2)
    cpath = tmp_path / "couple.csv"
    write_coupling_blocks(cpath, coupling_blocks(g, plus_past(2), minus_past(2), 50, seed=2), 50)
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "site,letter_a,letter_b,disagree"
    assert len(rows) == 51
    first = rows[1].split(",")
    assert int(first[1]) == int(a[0])

    spath = tmp_path / "chain.csv"
    write_chain_blocks(spath, (bits[0] for bits in coupling_blocks(g, plus_past(2), minus_past(2), 50, seed=2)), 50)
    rows = spath.read_text().strip().splitlines()
    assert rows[0] == "site,letter"
    assert len(rows) == 51


# -- streamed loops against the one-block path ------------------------------------------

STREAM_N = 3 * 4096 + 5  # three full chunks and a short one


def one_block(seed, chain_id, N):
    bits = np.random.Philox(key=np.array([seed, chain_id], dtype=np.uint64))
    return np.random.Generator(bits).random((N, 3))


def state_table(g):
    R = g.dependency_depth
    return [g.prob(tuple(2 * ((u >> (R - 1 - i)) & 1) - 1 for i in range(R)), -1) for u in range(1 << R)]


def oracle_chain(g, past_letters, N, seed, chain_id=0):
    """Sites 0 .. N-1 from one (N, 3) uniform block, on numpy scalars."""
    R = g.dependency_depth
    table = np.array(state_table(g))
    u = sum(((s + 1) // 2) << (R - 1 - i) for i, s in enumerate(past_letters))
    uni = one_block(seed, chain_id, N)
    out = np.empty(N, dtype=np.int8)
    for t in range(N):
        bit = 0 if uni[t, 0] < table[u] else 1
        out[t] = 2 * bit - 1
        u = ((u << 1) | bit) & ((1 << R) - 1)
    return out


def oracle_couple(g, letters_a, letters_b, N, seed):
    R = g.dependency_depth
    table = np.array(state_table(g))
    mask = (1 << R) - 1
    ua = sum(((s + 1) // 2) << (R - 1 - i) for i, s in enumerate(letters_a))
    ub = sum(((s + 1) // 2) << (R - 1 - i) for i, s in enumerate(letters_b))
    uni = one_block(seed, 0, N)
    out_a = np.empty(N, dtype=np.int8)
    out_b = np.empty(N, dtype=np.int8)
    for t in range(N):
        pa, pb = table[ua], table[ub]
        o_minus = min(pa, pb)
        overlap = o_minus + min(1.0 - pa, 1.0 - pb)
        if uni[t, 0] < overlap:
            bit_a = bit_b = 0 if uni[t, 1] * overlap < o_minus else 1
        else:
            split = 1.0 - overlap
            bit_a = 0 if uni[t, 1] * split < pa - o_minus else 1
            bit_b = 0 if uni[t, 2] * split < pb - o_minus else 1
        out_a[t], out_b[t] = 2 * bit_a - 1, 2 * bit_b - 1
        ua = ((ua << 1) | bit_a) & mask
        ub = ((ub << 1) | bit_b) & mask
    return out_a, out_b


def test_chunked_uniforms_are_the_rows_of_one_block():
    got = np.concatenate([chunk.copy() for chunk in _uniform_chunks(7, 3, STREAM_N)])  # a chunk lives until the next draw
    assert np.array_equal(got, one_block(7, 3, STREAM_N))


# two blocks of uniforms and a short one
TWO_BLOCKS_N = 2 * _BLOCK + 5

# (law, depth, sites): block edges, one site, depths 0, 1, 3, 6 and 10 (the
# transfer guard, 1024 states, which no 8-bit state holds), and the
# nearest-neighbour chain at beta 4 and 8, whose lanes started from a wrong
# state walk tens of sites (beta 4) or the whole lane (beta 8) before meeting
SAMPLER_CASES = [
    (nn(1.0), 1, STREAM_N),
    (truncated(0.4, 3), 3, STREAM_N),
    (zero(), 0, STREAM_N),
    (truncated(0.3, 6), 6, TWO_BLOCKS_N),
    (truncated(1.2, 10), 10, TWO_BLOCKS_N),
    (nn(4.0), 1, TWO_BLOCKS_N),
    (nn(8.0), 1, _BLOCK + 1),
    (zero(), 0, _BLOCK - 1),
    (truncated(1.2, 3), 3, _BLOCK - 1),
    (truncated(0.3, 6), 6, _BLOCK + 1),
] + [(p, R, 1) for p, R in ((zero(), 0), (nn(1.0), 1), (truncated(0.4, 3), 3), (truncated(0.3, 6), 6),
                            (truncated(1.2, 10), 10))]


def test_streamed_sampler_matches_the_one_block_path():
    for p, R, N in SAMPLER_CASES:
        g = g_exact_markov(p)
        past = plus_past(R)
        assert np.array_equal(sample(g, past, N, seed=31, chain_id=2), oracle_chain(g, (1,) * R, N, 31, 2))


# sites of the nearest-neighbour pair at beta 12 from opposite pasts: with
# seed 1 it meets only at site 97 999, past a block edge, and with seed 6 not
# within the run
LATE_MEETING_N = 131_077

# (law, depth, sites, seed), all from opposite pasts
COUPLER_CASES = [
    (truncated(1.2, 10), 10, _BLOCK + 1, 8),  # meets at site 11: the rest runs in lanes
    (truncated(1.2, 3), 3, STREAM_N, 8),  # strong coupling: long disagreement runs
    (nn(12.0), 1, LATE_MEETING_N, 1),
    (nn(12.0), 1, LATE_MEETING_N, 6),
    (truncated(0.3, 6), 6, _BLOCK + 1, 8),
    (nn(4.0), 1, _BLOCK - 1, 8),
    (nn(8.0), 1, 1, 8),
]


def test_streamed_coupler_matches_the_one_block_path():
    for p, R, N, seed in COUPLER_CASES:
        g = g_exact_markov(p)
        a, b = couple(g, plus_past(R), minus_past(R), N, seed=seed)
        want_a, want_b = oracle_couple(g, (1,) * R, (-1,) * R, N, seed)
        assert np.array_equal(a, want_a)
        assert np.array_equal(b, want_b)
        assert (a != b).any()


class DeepestLaw:
    """A conditional law of depth SAMPLER_MAX_DEPTH (4096 states) that no
    potential here reaches: P(-1 | past) is drawn once for each past, so every
    letter of the past moves it.  Like an exact law, it gives g(letter | state)
    as ``table`` and ``prob``."""

    dependency_depth = SAMPLER_MAX_DEPTH
    minus = np.random.default_rng(12).uniform(0.05, 0.95, 1 << SAMPLER_MAX_DEPTH)
    table = np.stack([minus, 1.0 - minus])

    def prob(self, letters, s):
        return float(self.table[(s + 1) // 2, _encode_state(letters)])


def test_streamed_runs_of_the_deepest_law_match_the_one_block_path():
    g, R = DeepestLaw(), SAMPLER_MAX_DEPTH
    assert np.array_equal(sample(g, plus_past(R), TWO_BLOCKS_N, seed=31, chain_id=2),
                          oracle_chain(g, (1,) * R, TWO_BLOCKS_N, 31, 2))
    a, b = couple(g, plus_past(R), minus_past(R), _BLOCK + 1, seed=8)
    want_a, want_b = oracle_couple(g, (1,) * R, (-1,) * R, _BLOCK + 1, 8)
    assert np.array_equal(a, want_a)
    assert np.array_equal(b, want_b)
    assert (a != b).any() and first_coalescence(a != b) is not None


def test_chunked_uniforms_span_blocks():
    got = np.concatenate([chunk.copy() for chunk in _uniform_chunks(7, 3, TWO_BLOCKS_N)])  # a chunk lives until the next draw
    assert got.shape == (TWO_BLOCKS_N, 3)
    assert np.array_equal(got, one_block(7, 3, TWO_BLOCKS_N))


def test_coupler_pair_phase_crosses_a_block():
    # the premise of the beta 12 coupler cases above
    g = g_exact_markov(nn(12.0))
    first = [tallies(g, plus_past(1), minus_past(1), LATE_MEETING_N, seed=s)[2] for s in (1, 6)]
    assert first == [97999, None]
    assert 97999 > _BLOCK  # past a block edge


def test_coupler_of_equal_states_matches_the_one_block_path():
    # depth 0, or equal pasts: the pair is the plain chain on column 1 throughout
    for p, R, N in ((zero(), 0, _BLOCK + 1), (truncated(0.4, 3), 3, 1), (truncated(0.4, 3), 3, TWO_BLOCKS_N)):
        g = g_exact_markov(p)
        a, b = couple(g, plus_past(R), plus_past(R), N, seed=4)
        want_a, want_b = oracle_couple(g, (1,) * R, (1,) * R, N, 4)
        assert np.array_equal(a, want_a)
        assert np.array_equal(b, want_b)
        assert not (a != b).any()


def test_csv_writers_write_the_bytes_of_csv_writer(tmp_path):
    g = g_exact_markov(truncated(1.2, 3))
    # one row, the edges of the rows built at a time, site numbers past 10^5
    for N in (STREAM_N, 1, 9999, 10001, 100_003):
        a, b = couple(g, plus_past(3), minus_past(3), N, seed=8)
        write_coupling_blocks(tmp_path / "couple.csv", coupling_blocks(g, plus_past(3), minus_past(3), N, seed=8), N)
        chain_b = (bits[1] for bits in coupling_blocks(g, plus_past(3), minus_past(3), N, seed=8))
        write_chain_blocks(tmp_path / "chain.csv", chain_b, N)
        want = [[t, int(a[t]), int(b[t]), int(a[t] != b[t])] for t in range(N)]
        assert (tmp_path / "couple.csv").read_bytes() == csv_writer_bytes(["site", "letter_a", "letter_b", "disagree"], want)
        want = [[t, int(letter)] for t, letter in enumerate(b)]
        assert (tmp_path / "chain.csv").read_bytes() == csv_writer_bytes(["site", "letter"], want)


# -- block generators and the writers that stream them ----------------------------------


def test_block_generators_are_the_runs_a_block_at_a_time():
    g = g_exact_markov(truncated(1.2, 3))
    for N in (1, _BLOCK, TWO_BLOCKS_N):
        sizes = [min(_BLOCK, N - i) for i in range(0, N, _BLOCK)]
        blocks = list(chain_blocks(g, plus_past(3), N, seed=5, chain_id=1))
        assert [b.shape for b in blocks] == [(n,) for n in sizes]
        assert np.array_equal(2 * np.concatenate(blocks).astype(np.int8) - 1, oracle_chain(g, (1,) * 3, N, 5, 1))
        pairs = list(coupling_blocks(g, plus_past(3), minus_past(3), N, seed=8))
        assert [b.shape for b in pairs] == [(2, n) for n in sizes]
        want = oracle_couple(g, (1,) * 3, (-1,) * 3, N, 8)
        assert np.array_equal(2 * np.concatenate(pairs, axis=1).astype(np.int8) - 1, want)


def test_block_generators_check_their_arguments_before_any_block():
    g = g_exact_markov(truncated(0.4, 3))
    with pytest.raises(ValueError):
        chain_blocks(g, plus_past(3), 0, seed=1)
    with pytest.raises(ValueError):
        coupling_blocks(g, plus_past(3), Word(-3, (1, 1)), 5, seed=1)  # past misses site -1
    with pytest.raises(ValueError):
        coupling_blocks(g, plus_past(3), minus_past(3), 5, seed=2**64)


@pytest.mark.parametrize("N", [1, 5, 9, 10, 11, 99, 10_007])
def test_parts_are_cut_as_array_split_and_none_is_empty(N):
    edges = _part_edges(N)
    assert [hi - lo for lo, hi in zip(edges, edges[1:])] == [len(x) for x in np.array_split(np.empty(N), min(10, N))]
    assert all(hi > lo for lo, hi in zip(edges, edges[1:])) and edges[-1] == N


@pytest.mark.parametrize("N", [1, 5, 9, 10, 11, 10_007, TWO_BLOCKS_N])
def test_streamed_writers_tally_what_the_runs_say(tmp_path, N):
    # fewer sites than ten parts: one part per site, none empty, so no NaN and no warning
    for p, R, seed in ((truncated(1.2, 3), 3, 8), (nn(12.0), 1, 1), (zero(), 0, 4)):
        g = g_exact_markov(p)
        a, b = couple(g, plus_past(R), minus_past(R), N, seed)
        disagree = a != b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = write_coupling_blocks(tmp_path / "couple.csv", coupling_blocks(g, plus_past(R), minus_past(R), N, seed), N)
            deciles = disagreement_density(disagree, 10)
        assert len(deciles) == min(10, N) and all(math.isfinite(x) for x in deciles)
        assert got[0] == deciles
        assert got[1:] == (float(disagree.mean()), first_coalescence(disagree))
        want = [[t, int(a[t]), int(b[t]), int(disagree[t])] for t in range(N)]
        assert (tmp_path / "couple.csv").read_bytes() == csv_writer_bytes(["site", "letter_a", "letter_b", "disagree"], want)

        plus = write_chain_blocks(tmp_path / "chain.csv", chain_blocks(g, plus_past(R), N, seed, chain_id=3), N)
        chain = sample(g, plus_past(R), N, seed, chain_id=3)
        assert plus == int(np.count_nonzero(chain == 1))
        want = [[t, int(letter)] for t, letter in enumerate(chain)]
        assert (tmp_path / "chain.csv").read_bytes() == csv_writer_bytes(["site", "letter"], want)


def test_streamed_coupling_memory_does_not_grow_with_the_sites(tmp_path):
    # 2^21 sites of a streamed coupling peak where 2^17 do: an array of 2^21 letters, 2 MB, would show
    g = g_exact_markov(truncated(0.3, 6))

    def peak(N):
        tracemalloc.start()
        write_coupling_blocks(tmp_path / "couple.csv", coupling_blocks(g, plus_past(6), minus_past(6), N, seed=7), N)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    peak(1 << 17)  # the writer's digit tables, outside the measured peaks
    assert peak(1 << 21) <= peak(1 << 17) + (1 << 19)


def test_streamed_runs_hold_a_small_working_set(tmp_path):
    # 2^18 sites of the depth-6 law streamed into the CSVs peak at 0.43 MiB
    # (chain) and 0.51 MiB (coupling) of NumPy and Python allocations; blocks
    # of 2^16 sites, with a 512 KiB column of uniforms, took them to 1.04 and
    # 1.26, rows built 10,000 at a time with fresh codes and tail words to 1.31
    # and 1.63, and a block of uniforms drawn whole every 2^16 sites (1.5 MiB)
    # to 2.3 and 2.6.  A bound of 0.75 MiB on each fails every one of those
    g = g_exact_markov(truncated(0.3, 6))
    N = 1 << 18

    def peak(write):
        write()  # the writer's digit tables, outside the measured peak
        tracemalloc.start()
        write()
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    chain = peak(lambda: write_chain_blocks(tmp_path / "chain.csv", chain_blocks(g, plus_past(6), N, seed=7), N))
    pair = peak(lambda: write_coupling_blocks(
        tmp_path / "couple.csv", coupling_blocks(g, plus_past(6), minus_past(6), N, seed=7), N))
    assert chain <= 0.75 * 2**20
    assert pair <= 0.75 * 2**20


# -- Cesàro averages against enumeration ------------------------------------------------


def cesaro_by_enumeration(p, f, n, boundary):
    """Mean over shifts of the window probability of the shifted cylinder,
    summing phi_window over every word on [0, n-1]."""
    end = n - 1
    words = [Word(0, tuple(1 if (k >> (end - i)) & 1 else -1 for i in range(n))) for k in range(1 << n)]
    probs = [phi_window(p, boundary, end, w) for w in words]
    total = 0.0
    for i in range(n):
        for w, prob in zip(words, probs):
            sites = [(i + off, letter) for off, letter in enumerate(f.letters, f.offset)]
            if all((w.at(s) if 0 <= s <= end else boundary.at(s)) == letter for s, letter in sites):
                total += prob
    return total / n


def test_cesaro_two_site_cylinder_with_a_gap_matches_enumeration():
    # f pins sites i + 2 and i + 3: a gap after the shifted origin, and shifts
    # that run off the window end meet the boundary letters
    rng = np.random.default_rng(18)
    for p, R in ((nn(0.8), 1), (truncated(0.6, 2), 2)):
        for n in (3, 6, 8):
            for f in (Word(2, (-1, 1)), Word(-1, (1, 1, -1))):
                letters = tuple(int(x) for x in rng.choice((-1, 1), size=n + 2 * R + 6))
                boundary = Word(-R - 3, letters)
                want = cesaro_by_enumeration(p, f, n, boundary)
                assert cesaro_estimate(p, f, n, boundary) == pytest.approx(want, abs=1e-12)


def test_cesaro_letters_add_up_and_flip():
    p = truncated(0.3, 6)
    n = 300
    plus = Word.constant(-6, n + 12, 1)
    minus = Word.constant(-6, n + 12, -1)
    up = cesaro_estimate(p, Word(0, (1,)), n, plus)
    down = cesaro_estimate(p, Word(0, (-1,)), n, plus)
    assert up + down == pytest.approx(1.0, abs=1e-12)
    assert cesaro_estimate(p, Word(0, (-1,)), n, minus) == pytest.approx(up, abs=1e-12)


def test_cesaro_long_window_is_finite():
    # the unscaled walk overflowed here and returned NaN
    n = 4096
    est = cesaro_estimate(nn(1.0), Word(0, (1,)), n, Word.constant(-1, n + 2, 1))
    assert 0.5 < est < 1.0


def test_cesaro_pass_guard():
    # both passes are kept, (n + 1) * 2^R doubles each
    n = 4096
    with pytest.raises(ValueError):
        cesaro_estimate(truncated(0.1, 12), Word(0, (1,)), n, Word.constant(-12, n + 24, 1))
