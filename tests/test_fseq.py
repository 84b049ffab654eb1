"""Words, and the ratio closed forms of a pair law against brute enumeration.

Each closed form is written out here from the coupling tails T(m) of the
potential; the oracles enumerate the Boltzmann factors of the pair law.
"""

import math

import numpy as np
import pytest

from artifact import CouplingLaw, Interval, PairPotential, Word, rn_series
from oracles import brute_log_ratio


def table(values=(1.0, 0.5, 0.25), beta=0.5):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table(values))


def power(q, beta):
    return PairPotential(beta=beta, coupling=CouplingLaw.power_law(q))


def log_ratio(p, n):
    """log sup f_0(x)/f_0(y) over x = y on (-inf, n], or on [-n, inf): beta * T(n+1)."""
    return Interval.point(p.beta) * p.coupling_tail(n + 1)


def berbee_log_rbar(p, index):
    """log inf-ratio of f_0 over window ``index`` of the symmetric enumeration:
    [-k, k] at 2k gives -2 beta T(k+1), [-k, k+1] at 2k+1 adds beta J(k+1)."""
    k = index // 2
    t = Interval.point(-2.0 * p.beta) * p.coupling_tail(k + 1)
    if index % 2 == 1:
        t = t + Interval.point(p.beta) * Interval.point(p.strength(k + 1))
    return t


def log_v(p, k, window=None):
    """log v_k = -beta * (T(k+1) + T(window+1)), the window term dropped for the infinite past."""
    t = p.coupling_tail(k + 1)
    if window is not None:
        t = t + p.coupling_tail(window + 1)
    return -(Interval.point(p.beta) * t)


def v(p, k, window=None):
    out = log_v(p, k, window).exp()
    return Interval(out.lo, min(1.0, out.hi))


def test_word_site_addressing():
    w = Word(-2, (1, -1, 1))
    assert w.at(-2) == 1 and w.at(-1) == -1 and w.at(0) == 1
    assert w.covers(-2) and w.covers(0) and not w.covers(1)
    assert w.letters == (1, -1, 1) and Word.constant(-2, 3, -1).letters == (-1, -1, -1)
    with pytest.raises(KeyError):
        w.at(1)
    with pytest.raises(ValueError):
        Word(0, (1, 2))


def test_log_ratio_left_closed_form_vs_enumeration():
    # Exhaustive sup/inf of f_0 over words agreeing on (-inf, n] reproduces
    # the closed form exactly for finite range.
    p = table(values=(1.0, 0.5, 0.25), beta=0.7)
    for n in range(0, 4):
        brute = brute_log_ratio(p, 0, past=3, future=n, horizon=3)
        closed = log_ratio(p, n)
        assert abs(brute - closed.mid) <= 1e-12
        assert closed.lo - 1e-12 <= brute <= closed.hi + 1e-12


def test_log_ratio_translation_consistency():
    # Shifting the factor index while deepening the past window is a no-op.
    p = table(values=(1.0, 0.5, 0.25), beta=0.4)
    for i in range(0, 3):
        for n in range(0, 3):
            a = brute_log_ratio(p, i, past=3 + i, future=n, horizon=3)
            b = brute_log_ratio(p, 0, past=3, future=n, horizon=3)
            assert abs(a - b) <= 1e-12


def test_log_ratio_right_closed_form_vs_enumeration():
    # agreement on [-n, inf) frees the past beyond distance n: the same beta * T(n+1)
    p = table(values=(1.0, 0.5, 0.25), beta=0.7)
    for n in range(0, 4):
        brute = brute_log_ratio(p, 0, past=n, future=3, horizon=3)
        assert abs(brute - log_ratio(p, n).mid) <= 1e-12


def test_log_ratio_left_monotone_to_zero():
    p = power(2.5, 0.8)
    prev = math.inf
    for n in range(0, 200):
        hi = log_ratio(p, n).hi
        assert hi <= prev + 1e-15
        prev = hi
    assert log_ratio(p, 500).hi < 1e-3


def test_berbee_enumeration_identity():
    # Index 2k is the window [-k, k]; 2k+1 is [-k, k+1].  The inverse-ratio
    # log equals the negated sup-ratio log on the matched window.
    p = table(values=(1.0, 0.5, 0.25), beta=0.6)
    for k in range(0, 3):
        even = berbee_log_rbar(p, 2 * k)
        brute = brute_log_ratio(p, 0, past=k, future=k, horizon=3)
        assert abs(-brute - even.mid) <= 1e-14
        odd = berbee_log_rbar(p, 2 * k + 1)
        brute_odd = brute_log_ratio(p, 0, past=k, future=k + 1, horizon=3)
        assert abs(-brute_odd - odd.mid) <= 1e-14


def test_berbee_log_rbar_nonpositive_and_increasing():
    # -2bT(k+1), then +bJ(k+1), then -2bT(k+2): each step is nonnegative, so
    # the whole enumeration climbs toward zero.
    p = power(2.0, 0.25)
    prev = -math.inf
    for idx in range(0, 40):
        iv = berbee_log_rbar(p, idx)
        assert iv.hi <= 1e-15
        assert iv.mid >= prev - 1e-14
        prev = iv.mid


def test_v_profile_power_law_tail_oracle():
    # q=2, beta=0.25, infinite past: log v_k = -0.25 * (tail at k+1).
    p = power(2.0, 0.25)
    for k in (0, 1, 5):
        oracle = -0.25 * float(
            np.sum(1.0 / np.square(np.arange(k + 1, 10**6, dtype=np.float64)))
        )
        iv = log_v(p, k)
        # the truncated oracle sits just above the true value
        assert iv.lo <= oracle <= iv.hi + 1e-6


def test_v_profile_zero_coupling_all_ones():
    p = PairPotential(beta=1.0, coupling=CouplingLaw.zero())
    for k in range(5):
        assert v(p, k).hi == 1.0 and v(p, k).lo >= 1.0 - 1e-15


def test_v_profile_window_settles_at_range():
    # within the window, v_j = 1 from the range on: R_n diverges after R terms
    p = table(values=(1.0, 0.5), beta=0.3)
    assert v(p, 2, 4).hi == 1.0 and v(p, 2, 4).lo >= 1.0 - 1e-12
    assert v(p, 0, 4).hi < 1.0
    rn = rn_series(p, 4)
    assert rn.divergent and rn.terms_used == 2
    assert not rn_series(p, 1).divergent  # a window short of the range


def test_v_profile_lower_values_monotone_after_envelope():
    p = power(2.0, 0.25)
    vals = np.maximum.accumulate([v(p, k, 8).lo for k in range(64)])
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals > 0.0) & (vals <= 1.0))
