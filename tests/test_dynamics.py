"""Sequential sampling, coupled chains, and window Cesàro averages."""

import csv
import math

import numpy as np
import pytest
from scipy import stats

from artifact import (
    CouplingLaw,
    PairPotential,
    Word,
    cesaro_estimate,
    cesaro_gap,
    couple_two_pasts,
    g_exact_markov,
    phi_window,
    sample_chain,
    write_chain_csv,
    write_coupling_csv,
)
from artifact.dynamics import WindowConditional, _uniform_chunks

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


# -- reproducibility ---------------------------------------------------------------


def test_sampling_replays_bit_exactly():
    g = g_exact_markov(truncated(0.4, 3))
    a = sample_chain(g, plus_past(3), 500, seed=9)
    b = sample_chain(g, plus_past(3), 500, seed=9)
    assert np.array_equal(a.samples, b.samples)
    c = sample_chain(g, plus_past(3), 500, seed=10)
    assert not np.array_equal(a.samples, c.samples)
    d = sample_chain(g, plus_past(3), 500, seed=9, chain_id=1)
    assert not np.array_equal(a.samples, d.samples)


def test_sampling_golden_sequence():
    # frozen on first release; any change here breaks replayability of runs
    g = g_exact_markov(nn(1.0))
    run = sample_chain(g, Word(-1, (1,)), 20, seed=42)
    assert list(run.samples) == GOLDEN_SEED_42
    assert run.g_source == "exact_markov"


def test_sampling_validation():
    g = g_exact_markov(nn(1.0))
    with pytest.raises(ValueError):
        sample_chain(g, Word(-1, (1,)), 0, seed=1)
    with pytest.raises(ValueError):
        sample_chain(g, Word(-1, (1,)), 5, seed=2**64)
    with pytest.raises(ValueError):
        sample_chain(g, Word(-3, (1, 1)), 5, seed=1)  # past misses site -1


def test_sampler_depth_guard():
    wc = WindowConditional(potential=truncated(0.1, 13), window_n=14)
    with pytest.raises(ValueError):
        sample_chain(wc, plus_past(13), 5, seed=1)


# -- marginal statistics -------------------------------------------------------------


def test_zero_coupling_letters_are_uniform():
    run = sample_chain(g_exact_markov(zero()), Word(-1, (1,)), 10**5, seed=123)
    assert abs(run.frequency(1) - 0.5) <= 0.01
    counts = [int(np.sum(run.samples == s)) for s in (-1, 1)]
    assert stats.chisquare(counts).pvalue > 0.001


def test_nearest_neighbor_persistence_probability():
    # P(x_t = x_{t-1}) = e^{b/2} / (2 cosh(b/2)) at stationarity
    run = sample_chain(g_exact_markov(nn(1.0)), Word(-1, (1,)), 10**5, seed=7)
    s = run.samples
    same = float(np.mean(s[1:] == s[:-1]))
    want = math.exp(0.5) / (2.0 * math.cosh(0.5))
    assert abs(same - want) <= 0.01


def test_pair_frequencies_match_stationary_law():
    g = g_exact_markov(nn(1.0))
    run = sample_chain(g, Word(-1, (1,)), 10**5, seed=7)
    s = run.samples
    law = g.state_law()
    pairs = 10**5 - 1
    for a in (-1, 1):
        for b in (-1, 1):
            emp = float(np.mean((s[:-1] == a) & (s[1:] == b)))
            want = law[g.transfer.state_index((a,))] * g.prob((a,), b)
            sigma = math.sqrt(want * (1.0 - want) / pairs)
            assert abs(emp - want) <= 3.0 * sigma


# -- coupled chains ------------------------------------------------------------------


def test_identical_pasts_never_disagree():
    g = g_exact_markov(truncated(0.5, 2))
    run = couple_two_pasts(g, plus_past(2), plus_past(2), 2000, seed=3)
    assert int(run.disagree.sum()) == 0
    assert run.first_coalescence() == 0
    assert np.array_equal(run.chain_a.samples, run.chain_b.samples)


def test_coupled_chains_coalesce_and_stay_together():
    # once the R running letters agree the states coincide and the shared
    # draw keeps them identical: disagreements cannot reignite in isolation
    R = 3
    g = g_exact_markov(truncated(0.4, R))
    run = couple_two_pasts(g, plus_past(R), minus_past(R), 2000, seed=5)
    dis = np.nonzero(run.disagree)[0]
    for t in dis:
        assert t < R or run.disagree[max(0, t - R):t].any()
    coal = run.first_coalescence()
    assert coal is not None
    assert not run.disagree[coal:].any()


def test_disagreement_density_decays():
    g = g_exact_markov(truncated(0.3, 6))
    run = couple_two_pasts(g, plus_past(6), minus_past(6), 10**4, seed=21)
    d = run.disagreement_density()
    assert d.shape == (10,)
    assert d[0] > 0.0
    assert np.all(np.diff(d) <= 1e-12)
    assert d[-1] == 0.0


def test_coupling_is_seed_deterministic():
    g = g_exact_markov(truncated(0.3, 2))
    a = couple_two_pasts(g, plus_past(2), minus_past(2), 1000, seed=11)
    b = couple_two_pasts(g, plus_past(2), minus_past(2), 1000, seed=11)
    assert np.array_equal(a.chain_a.samples, b.chain_a.samples)
    assert np.array_equal(a.chain_b.samples, b.chain_b.samples)


# -- window conditionals as sampling sources -----------------------------------------


def test_window_conditional_normalizes_and_converges():
    p = nn(1.0)
    g = g_exact_markov(p)
    wc = WindowConditional(potential=p, window_n=24)
    for past in ((1,), (-1,)):
        total = wc.prob(past, 1) + wc.prob(past, -1)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert wc.prob(past, 1) == pytest.approx(g.prob(past, 1), abs=1e-8)
    assert wc.source_label == "pi_window(24)"


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
        cesaro_gap(p, f, n, Word.constant(-1, n + 2, 1), Word.constant(-1, n + 2, -1))
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
    run = couple_two_pasts(g, plus_past(2), minus_past(2), 50, seed=2)
    cpath = tmp_path / "couple.csv"
    write_coupling_csv(run, cpath)
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "site,letter_a,letter_b,disagree"
    assert len(rows) == 51
    first = rows[1].split(",")
    assert int(first[1]) == int(run.chain_a.samples[0])

    spath = tmp_path / "chain.csv"
    write_chain_csv(run.chain_a, spath)
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
    got = np.concatenate(list(_uniform_chunks(7, 3, STREAM_N)))
    assert np.array_equal(got, one_block(7, 3, STREAM_N))


def test_streamed_sampler_matches_the_one_block_path():
    for p, R in ((nn(1.0), 1), (truncated(0.4, 3), 3), (zero(), 0)):
        g = g_exact_markov(p)
        past = plus_past(R)
        run = sample_chain(g, past, STREAM_N, seed=31, chain_id=2)
        want = oracle_chain(g, (1,) * R, STREAM_N, 31, 2)
        assert run.samples.dtype == np.int8 and not run.samples.flags.writeable
        assert np.array_equal(run.samples, want)


def test_streamed_coupler_matches_the_one_block_path():
    R = 3
    g = g_exact_markov(truncated(1.2, R))  # strong coupling: long disagreement runs
    run = couple_two_pasts(g, plus_past(R), minus_past(R), STREAM_N, seed=8)
    want_a, want_b = oracle_couple(g, (1,) * R, (-1,) * R, STREAM_N, 8)
    assert np.array_equal(run.chain_a.samples, want_a)
    assert np.array_equal(run.chain_b.samples, want_b)
    assert np.array_equal(run.disagree, want_a != want_b)
    assert run.disagree.any()


def test_csv_writers_write_the_bytes_of_csv_writer(tmp_path):
    g = g_exact_markov(truncated(1.2, 3))
    run = couple_two_pasts(g, plus_past(3), minus_past(3), STREAM_N, seed=8)
    write_coupling_csv(run, tmp_path / "couple.csv")
    write_chain_csv(run.chain_b, tmp_path / "chain.csv")
    with open(tmp_path / "couple_ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site", "letter_a", "letter_b", "disagree"])
        for t in range(STREAM_N):
            w.writerow([t, int(run.chain_a.samples[t]), int(run.chain_b.samples[t]), int(run.disagree[t])])
    with open(tmp_path / "chain_ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site", "letter"])
        for t, letter in enumerate(run.chain_b.samples):
            w.writerow([t, int(letter)])
    for name in ("couple", "chain"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()


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
            sites = [(i + off, letter) for off, letter in zip(f.support, f.letters)]
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
