"""Factor sequences: closed-form ratio functionals against brute enumeration."""

import math

import numpy as np
import pytest

from artifact import CouplingLaw, FSequence, PairPotential, Word
from oracles import brute_log_ratio


def fseq(values=(1.0, 0.5, 0.25), beta=0.5):
    p = PairPotential(beta=beta, coupling=CouplingLaw.finite_table(values))
    return FSequence.from_potential(p)


def power_fseq(q, beta):
    return FSequence.from_potential(
        PairPotential(beta=beta, coupling=CouplingLaw.power_law(q))
    )


def test_word_site_addressing():
    w = Word(-2, (1, -1, 1))
    assert w.at(-2) == 1 and w.at(-1) == -1 and w.at(0) == 1
    assert w.covers(-2) and w.covers(0) and not w.covers(1)
    flipped = w.with_letter(-1, 1)
    assert flipped.at(-1) == 1 and w.at(-1) == -1
    with pytest.raises(ValueError):
        Word(0, (1, 2))


def test_log_ratio_left_closed_form_vs_enumeration():
    # Exhaustive sup/inf of f_0 over words agreeing on (-inf, n] reproduces
    # the closed form exactly for finite range.
    F = fseq(values=(1.0, 0.5, 0.25), beta=0.7)
    for n in range(0, 4):
        brute = brute_log_ratio(F, 0, past=3, future=n, horizon=3)
        closed = F.log_ratio_left(n)
        assert abs(brute - closed.mid) <= 1e-12
        assert closed.lo - 1e-12 <= brute <= closed.hi + 1e-12


def test_log_ratio_translation_consistency():
    # Shifting the factor index while deepening the past window is a no-op.
    F = fseq(values=(1.0, 0.5, 0.25), beta=0.4)
    for i in range(0, 3):
        for n in range(0, 3):
            a = brute_log_ratio(F, i, past=3 + i, future=n, horizon=3)
            b = brute_log_ratio(F, 0, past=3, future=n, horizon=3)
            assert abs(a - b) <= 1e-12


def test_log_ratio_left_monotone_to_zero():
    F = power_fseq(2.5, 0.8)
    prev = math.inf
    for n in range(0, 200):
        hi = F.log_ratio_left(n).hi
        assert hi <= prev + 1e-15
        prev = hi
    assert F.log_ratio_left(500).hi < 1e-3


def test_left_and_right_ratios_coincide():
    F = power_fseq(3.0, 1.0)
    for n in (0, 2, 7):
        left = F.log_ratio_left(n)
        right = F.log_ratio_right(n)
        assert left.lo == right.lo and left.hi == right.hi


def test_berbee_enumeration_identity():
    # Index 2k is the window [-k, k]; 2k+1 is [-k, k+1].  The inverse-ratio
    # log equals the negated sup-ratio log on the matched window.
    F = fseq(values=(1.0, 0.5, 0.25), beta=0.6)
    for k in range(0, 3):
        even = F.berbee_log_rbar(2 * k)
        brute = brute_log_ratio(F, 0, past=k, future=k, horizon=3)
        assert abs(-brute - even.mid) <= 1e-14
        odd = F.berbee_log_rbar(2 * k + 1)
        brute_odd = brute_log_ratio(F, 0, past=k, future=k + 1, horizon=3)
        assert abs(-brute_odd - odd.mid) <= 1e-14


def test_berbee_log_rbar_nonpositive_and_increasing():
    # -2bT(k+1), then +bJ(k+1), then -2bT(k+2): each step is nonnegative, so
    # the whole enumeration climbs toward zero.
    F = power_fseq(2.0, 0.25)
    prev = -math.inf
    for idx in range(0, 40):
        iv = F.berbee_log_rbar(idx)
        assert iv.hi <= 1e-15
        assert iv.mid >= prev - 1e-14
        prev = iv.mid


def test_v_profile_power_law_tail_oracle():
    # q=2, beta=0.25, infinite past: log v_k = -0.25 * (tail at k+1).
    F = power_fseq(2.0, 0.25)
    prof = F.v_profile(None)
    for k in (0, 1, 5):
        oracle = -0.25 * float(
            np.sum(1.0 / np.square(np.arange(k + 1, 10**6, dtype=np.float64)))
        )
        iv = prof.log_v(k)
        # the truncated oracle sits just above the true value
        assert iv.lo <= oracle <= iv.hi + 1e-6


def test_v_profile_zero_coupling_all_ones():
    F = FSequence.from_potential(PairPotential(beta=1.0, coupling=CouplingLaw.zero()))
    prof = F.v_profile(None)
    for k in range(5):
        v = prof.v(k)
        assert v.hi == 1.0 and v.lo >= 1.0 - 1e-15


def test_v_profile_window_settles_at_range():
    F = fseq(values=(1.0, 0.5), beta=0.3)
    prof = F.v_profile(4)
    assert prof.settles_at() == 2
    assert prof.v(2).hi == 1.0 and prof.v(2).lo >= 1.0 - 1e-12
    assert prof.v(0).hi < 1.0
    assert F.v_profile(1).settles_at() is None


def test_v_profile_lower_values_monotone_after_envelope():
    F = power_fseq(2.0, 0.25)
    vals = np.maximum.accumulate(F.v_profile(8).lower_values(64))
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals > 0.0) & (vals <= 1.0))
