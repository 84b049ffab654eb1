"""Coupling laws, tail enclosures, and the influence series."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import CouplingLaw, PairPotential, slope_certificate, tail_variation
from artifact.intervals import Interval
from artifact.potential import coelho_quas_sum, fraction_interval, ruelle_sum, strength_fraction

ZETA2 = math.pi**2 / 6.0


def power(q, beta, amplitude=1.0, R=None):
    return PairPotential(beta=beta, coupling=CouplingLaw.power_law(q, amplitude), truncation_range=R)


def table(values, beta):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table(values))


def zero(beta=1.0):
    return PairPotential(beta=beta, coupling=CouplingLaw.zero())


def test_power_law_requires_decay():
    with pytest.raises(ValueError):
        CouplingLaw.power_law(1.0)
    with pytest.raises(ValueError):
        CouplingLaw.power_law(0.5)


def test_negative_couplings_rejected():
    with pytest.raises(ValueError):
        CouplingLaw.finite_table((1.0, -0.5))
    with pytest.raises(ValueError):
        PairPotential(beta=-1.0, coupling=CouplingLaw.zero())


@pytest.mark.parametrize("build", [
    lambda: CouplingLaw.finite_table((1.0, math.nan)),
    lambda: CouplingLaw.finite_table((math.inf,)),
    lambda: CouplingLaw.power_law(math.inf),
    lambda: CouplingLaw.power_law(math.nan),
    lambda: CouplingLaw.exponential(math.inf),
    lambda: CouplingLaw.exponential(math.nan),
    lambda: CouplingLaw.power_law(2.0, math.nan),
    lambda: CouplingLaw.exponential(1.0, math.inf),
    lambda: PairPotential(CouplingLaw.finite_table((1.0,)), math.nan),
    lambda: PairPotential(CouplingLaw.power_law(2.0), math.inf),
], ids=["table-nan", "table-inf", "q-inf", "q-nan", "rate-inf", "rate-nan", "amplitude-nan", "amplitude-inf",
        "beta-nan", "beta-inf"])
def test_non_finite_couplings_rejected(build):
    # a NaN fails every comparison, so each is refused by name, not let through
    with pytest.raises(ValueError, match="finite"):
        build()


def test_tail_variation_zeta2_oracle():
    # beta = 1, q = 2, n = 1: the tail is zeta(2), computable independently.
    iv = tail_variation(power(2.0, 1.0), 1)
    assert iv.contains(ZETA2)
    assert iv.rel_width() <= 1e-9


@pytest.mark.parametrize("n", [1, 3, 10, 40, 100])
def test_tail_variation_partial_sum_oracle(n):
    # Independent bracket: pairwise sum to 10^7 (error < 1e-14 here) plus the
    # standard integral remainder, padded by 1e-12 for the summation error.
    partial = float(np.sum(1.0 / np.square(np.arange(n, 10**7, dtype=np.float64))))
    lo = partial + 1.0 / 10**7 - 1e-12
    hi = partial + 10**-14 + 1.0 / (10**7 - 1) + 1e-12
    iv = tail_variation(power(2.0, 1.0), n)
    assert iv.overlaps(Interval(lo, hi))
    assert iv.rel_width() <= 1e-9


def test_tail_variation_finite_table_exact():
    iv = tail_variation(table((1.0, 0.5), 0.4), 2)
    assert iv.contains(0.4 * 0.5)
    assert iv.width <= 4 * math.ulp(0.2)


def test_tail_variation_zero_coupling():
    iv = tail_variation(zero(), 1)
    assert iv.lo == iv.hi == 0.0


@pytest.mark.parametrize(
    "p",
    [
        power(2.0, 0.3),
        power(3.0, 1.0),
        power(2.0, 0.25, R=6),
        table((1.0, 0.5, 0.25), 0.7),
        PairPotential(beta=0.5, coupling=CouplingLaw.exponential(1.0)),
    ],
)
def test_tail_variation_monotone(p):
    prev = tail_variation(p, 1)
    for n in range(2, 40):
        cur = tail_variation(p, n)
        assert cur.hi <= prev.hi
        prev = cur


def test_truncation_kills_tail():
    p = power(2.0, 0.3, R=5)
    for n in range(6, 12):
        iv = tail_variation(p, n)
        assert iv.lo == iv.hi == 0.0
    assert tail_variation(p, 5).hi > 0.0


@given(
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=2.0, max_value=5.0),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_tail_variation_scales_with_beta(beta, q, n):
    base = tail_variation(power(q, beta), n)
    doubled = tail_variation(power(q, 2.0 * beta), n)
    assert doubled.lo == pytest.approx(2.0 * base.lo, rel=1e-14)
    assert doubled.hi == pytest.approx(2.0 * base.hi, rel=1e-14)


def test_strength_is_beta_times_coupling():
    p = table((1.0, 0.5), 0.4)
    assert p.strength(1) == pytest.approx(1.0)
    assert p.strength(2) == pytest.approx(0.5)
    assert p.strength(3) == 0.0
    assert power(2.0, 0.3).strength(4) == pytest.approx(1.0 / 16.0)


def test_finite_range_detection():
    assert power(2.0, 0.3).finite_range is None
    assert power(2.0, 0.3, R=4).finite_range == 4
    assert table((1.0, 0.0, 0.5), 1.0).finite_range == 3
    assert zero().finite_range == 0
    assert zero().is_finite_range()


def test_ruelle_sum_zeta2_oracle():
    # sum j * j^-3 = zeta(2); both orientations contribute beta/2 each.
    out = ruelle_sum(power(3.0, 1.0))
    assert not out.divergent
    assert out.enclosure.contains(ZETA2)


def test_ruelle_sum_harmonic_divergence():
    out = ruelle_sum(power(2.0, 1.0))
    assert out.divergent
    assert "harmonic" in out.certificate


def test_coelho_quas_is_half_of_ruelle_here():
    out = coelho_quas_sum(power(3.0, 1.0))
    assert not out.divergent
    assert out.enclosure.contains(ZETA2 / 2.0)
    assert coelho_quas_sum(power(2.0, 0.5)).divergent


def test_series_on_zero_coupling():
    for fn in (ruelle_sum, coelho_quas_sum):
        out = fn(zero())
        assert not out.divergent
        assert out.enclosure.lo == out.enclosure.hi == 0.0


def test_variation_profile_matches_tail_and_slope():
    p = power(2.0, 0.3)
    # hyperbolic tail: 1/n <= T(n) <= 1/(n - 1/2), so n * tail_variation(n) -> beta * amplitude
    for n in (1, 4, 16, 1000):
        tv = tail_variation(p, n)
        assert tv.lo <= 0.3 / (n - 0.5) * (1 + 1e-15) and 0.3 / n * (1 - 1e-15) <= tv.hi
    slope, summable = slope_certificate(p)
    assert slope.contains(0.3) and slope.width == 0.0 and summable
    for q, summable_remainder in ((3.0, True), (1.5, False)):
        slope, summable = slope_certificate(power(q, 0.3))
        assert summable is summable_remainder
        assert (slope.lo, slope.hi) == ((0.0, 0.0) if summable else (0.0, math.inf))


def test_variation_profile_monotone_hi():
    p = power(2.0, 0.25)
    values = [tail_variation(p, n).hi for n in range(1, 60)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_strength_fraction_is_exact():
    p = power(2.0, 0.25)
    assert strength_fraction(p) == Fraction(1, 4)
    iv = fraction_interval(Fraction(1, 4))
    assert iv.lo == iv.hi == 0.25
    third = fraction_interval(Fraction(1, 3))
    assert third.lo < third.hi
    assert Fraction(third.lo) < Fraction(1, 3) < Fraction(third.hi)


@given(st.integers(min_value=-10**12, max_value=10**12), st.integers(min_value=1, max_value=10**9))
def test_fraction_interval_always_encloses(num, den):
    x = Fraction(num, den)
    iv = fraction_interval(x)
    assert Fraction(iv.lo) <= x <= Fraction(iv.hi)
    assert math.nextafter(iv.lo, math.inf) >= iv.hi  # at most one ulp wide


def test_fraction_interval_encloses_rationals_past_the_double_range():
    # float() raises OverflowError here; the enclosure reaches to infinity instead
    big = math.nextafter(math.inf, 0.0)
    assert fraction_interval(Fraction(3 * 10**308)) == Interval(big, math.inf)
    assert fraction_interval(Fraction(-(10**310), 7)) == Interval(-math.inf, -big)
    total = CouplingLaw.finite_table([1e308, 1e308]).weighted_total()
    assert total == Interval(big, math.inf)


def test_weighted_total_divergence_boundary():
    assert CouplingLaw.power_law(2.0).weighted_total() is None
    assert CouplingLaw.power_law(1.5).weighted_total() is None
    total = CouplingLaw.power_law(3.0).weighted_total()
    assert total is not None and total.contains(ZETA2)
