"""Ratio recursion, the series behind the variation bound, and growth diagnostics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from artifact import (
    CouplingLaw,
    FSequence,
    LogRProfile,
    PairPotential,
    RatioTable,
    berbee_series_partial_sums,
    fit_growth_exponent,
    g_variation_bound,
    log_r_bound_envelope,
    rb_limit_lower_bound,
    rn_series,
    tauberian_diagnostic,
)
from artifact.intervals import EPS


def power_fseq(q, beta, amplitude=1.0, R=None):
    p = PairPotential(
        beta=beta,
        coupling=CouplingLaw.power_law(q, amplitude),
        truncation_range=R,
    )
    return FSequence.from_potential(p)


def table_fseq(values, beta):
    p = PairPotential(beta=beta, coupling=CouplingLaw.finite_table(values))
    return FSequence.from_potential(p)


def zero_fseq():
    return FSequence.from_potential(
        PairPotential(beta=1.0, coupling=CouplingLaw.zero())
    )


def random_profile(rng, n_max):
    return np.sort(rng.uniform(0.05, 1.0, n_max + 1))


# -- recursion table -----------------------------------------------------------


def test_recursion_constant_one_is_identically_one():
    t = RatioTable([1.0] * 13, 12)
    for n in range(13):
        for k in range(-1, n + 1):
            assert t.p(k, n) == 1.0


def test_recursion_constant_profile_collapses_to_powers():
    # Constant v kills every increment term, so p(k, n) = v^(k+1) exactly.
    t = RatioTable([0.5] * 11, 10)
    for n in range(11):
        assert t.p(0, n) == 0.5
        for k in range(n + 1):
            assert t.p(k, n) == pytest.approx(0.5 ** (k + 1), abs=1e-15)


def test_recursion_hand_values():
    t = RatioTable([0.5, 0.75, 1.0], 2)
    assert t.p(0, 0) == 0.5
    assert t.p(0, 1) == pytest.approx(0.625, abs=1e-15)
    assert t.p(0, 2) == pytest.approx(0.75, abs=1e-15)


def test_recursion_rejects_bad_profiles():
    with pytest.raises(ValueError):
        RatioTable([0.5, 0.4, 0.6], 2)  # not nondecreasing
    with pytest.raises(ValueError):
        RatioTable([0.0, 0.5], 1)  # zero not allowed
    with pytest.raises(ValueError):
        RatioTable([0.5, 1.2], 1)  # above one
    with pytest.raises(ValueError):
        RatioTable([0.5, 0.6], 5)  # too few coefficients
    with pytest.raises(ValueError):
        RatioTable([0.5], -1)


def test_recursion_index_validation():
    t = RatioTable([0.5, 0.6, 0.7], 2)
    with pytest.raises(ValueError):
        t.p(3, 2)
    with pytest.raises(ValueError):
        t.p(1, 3)
    with pytest.raises(ValueError):
        t.p(-2, 0)


def test_recursion_invariants_on_random_profiles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = random_profile(rng, 12)
        t = RatioTable(v, 12)
        assert t.p(0, 0) == v[0]
        for n in range(13):
            assert t.p(-1, n) == 1.0
            for k in range(n + 1):
                assert 0.0 <= t.p(k, n) <= 1.0
        # entries are nondecreasing along n at fixed k
        for k in range(12):
            for n in range(max(k, 0), 12):
                assert t.p(k, n + 1) >= t.p(k, n) - 1e-14


def test_p0_path_matches_entries():
    rng = np.random.default_rng(6)
    t = RatioTable(random_profile(rng, 8), 8)
    path = t.p0_path()
    assert len(path) == 9
    for n in range(9):
        assert path[n] == t.p(0, n)


def exact_rows(v, n_max):
    """The recursion's rows in exact rational arithmetic."""
    v = [Fraction(x) for x in v]
    rows = [[v[0]]]
    for n in range(1, n_max + 1):
        prev = [Fraction(1), *rows[-1]]
        rows.append([v[k] * prev[k] + sum((v[j + 1] - v[j]) * prev[j + 1] for j in range(k, n)) for k in range(n + 1)])
    return rows


def test_recursion_matches_exact_rationals():
    # every entry of row n lies within (n + 1) EPS of the exact recursion, relatively
    rng = np.random.default_rng(8)
    for _ in range(50):
        n_max = int(rng.integers(1, 25))
        v = random_profile(rng, n_max)
        t = RatioTable(v, n_max)
        for n, row in enumerate(exact_rows(v, n_max)):
            for k, exact in enumerate(row):
                assert abs(Fraction(t.p(k, n)) - exact) <= (n + 1) * EPS * exact


# -- closed-form limit lower bound ---------------------------------------------


def test_limit_lower_bound_constant_half():
    # S_N -> 1, so the bound converges to 1/2, the exact limit for this profile.
    assert rb_limit_lower_bound([0.5] * 51, 50) == pytest.approx(0.5, abs=1e-12)


def test_limit_lower_bound_constant_one():
    # S_9 = 10 exactly.
    assert rb_limit_lower_bound([1.0] * 10, 9) == pytest.approx(10.0 / 11.0, abs=1e-15)


def test_limit_lower_bound_approaches_one():
    v = [0.9] + [1.0] * 10**4
    assert rb_limit_lower_bound(v, 10**4) > 0.999


def test_limit_lower_bound_monotone_and_consistent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = random_profile(rng, 24)
        t = RatioTable(v, 24)
        prev = 0.0
        for N in range(25):
            b = rb_limit_lower_bound(v, N)
            assert b >= prev - 1e-15
            prev = b
        # the closed form never overtakes the recursion it bounds
        assert rb_limit_lower_bound(v, 24) <= t.p(0, 24) + 1e-12
    

def test_limit_lower_bound_validation():
    with pytest.raises(ValueError):
        rb_limit_lower_bound([0.5], 1)
    with pytest.raises(ValueError):
        rb_limit_lower_bound([1.5], 0)


# -- the series and the variation bound ----------------------------------------


def test_series_diverges_once_window_covers_range():
    F = table_fseq((1.0, 0.5, 0.25), 0.7)
    out = rn_series(F, 3)
    assert out.divergent and not out.is_finite()
    assert out.enclosure is None
    assert "finite range" in out.certificate


def test_series_finite_below_the_range():
    F = table_fseq((1.0, 0.5, 0.25), 0.7)
    out = rn_series(F, 1)
    assert out.is_finite()
    assert out.enclosure.lo > 0.0 and math.isfinite(out.enclosure.hi)


def test_series_diverges_for_zero_coupling():
    out = rn_series(zero_fseq(), 0)
    assert out.divergent
    assert "v_j = 1" in out.certificate


def test_series_finite_for_hyperbolic_tail():
    out = rn_series(power_fseq(2.0, 0.25), 8)
    assert out.is_finite()
    assert out.terms_used > 0
    assert "geometric tail majorant" in out.certificate
    assert out.enclosure.lo > 1.0
    assert out.enclosure.rel_width() <= 1e-6


def test_series_rejects_negative_window():
    with pytest.raises(ValueError):
        rn_series(power_fseq(2.0, 0.25), -1)


def test_variation_bound_zero_for_divergent_series():
    gb = g_variation_bound(zero_fseq(), 2)
    assert gb.certified_zero
    assert gb.bound.lo == 0.0 and gb.bound.hi == 0.0

    F = table_fseq((1.0, 0.5), 0.9)
    assert g_variation_bound(F, 2).certified_zero
    assert not g_variation_bound(F, 1).certified_zero
    assert g_variation_bound(F, 1).bound.hi > 0.0


def test_variation_bound_matches_its_series():
    F = power_fseq(2.0, 0.25)
    for n in (1, 4, 8):
        gb = g_variation_bound(F, n)
        rn = gb.rn
        assert gb.bound.hi <= 2.0 * math.log1p(1.0 / rn.enclosure.lo) + 1e-12
        assert gb.bound.lo >= 2.0 * math.log1p(1.0 / rn.enclosure.hi) - 1e-12


def test_variation_bound_nonincreasing_in_window():
    F = power_fseq(2.0, 0.25)
    his = [g_variation_bound(F, n).bound.hi for n in range(1, 11)]
    for a, b in zip(his, his[1:]):
        assert b <= a + 1e-8


# -- decay profiles and envelopes ----------------------------------------------


def test_profile_from_finite_range_sequence():
    F = table_fseq((1.0, 0.5), 0.9)
    prof = LogRProfile.from_fsequence(F)
    assert prof.zero_beyond == 2
    assert prof.envelope is None
    iv = prof.at(2)
    assert iv.lo == 0.0 and iv.hi == 0.0
    assert prof.at(1).hi > 0.0


def test_envelope_for_hyperbolic_tail_majorizes_the_bound():
    F = power_fseq(2.0, 0.3)
    env = log_r_bound_envelope(F)
    assert env is not None
    assert env.exponent == pytest.approx(0.7, abs=1e-12)
    assert 0.0 < env.coefficient < math.inf
    for n in (1, 2, 4, 8, 16, 32):
        bound = g_variation_bound(F, n).bound.hi
        assert bound <= env.coefficient * float(n) ** (-env.exponent) + 1e-8


def test_envelope_absent_when_uncertified():
    # strength beta * amplitude = 1 leaves no usable contraction budget
    assert log_r_bound_envelope(power_fseq(2.0, 1.0)) is None
    assert log_r_bound_envelope(zero_fseq()) is None


def test_envelope_for_summable_tails():
    env = log_r_bound_envelope(power_fseq(3.0, 0.5))
    assert env is not None and env.exponent == 1.0
    assert "summable" in env.derivation

    p = PairPotential(beta=0.5, coupling=CouplingLaw.exponential(1.0, 1.0))
    env = log_r_bound_envelope(FSequence.from_potential(p))
    assert env is not None and env.exponent == 1.0


def test_envelope_absent_when_the_coefficient_overflows():
    # at beta = 480 and 490 the floor c0 c1 is subnormal but positive, so
    # 2 / (c0 c1) overflows: no majorant may be claimed, and the two checks
    # that read it stay Inconclusive instead of holding on "inf * n^-1"
    from artifact import evaluate_all

    for beta in (480.0, 490.0):
        p = PairPotential(beta=beta, coupling=CouplingLaw.exponential(1.0))
        assert log_r_bound_envelope(FSequence.from_potential(p)) is None
        report = evaluate_all(p)
        assert report.by_name("jop_blocksum").outcome == "Inconclusive"
        assert report.by_name("bcjo").outcome == "Inconclusive"
    p = PairPotential(beta=460.0, coupling=CouplingLaw.exponential(1.0))
    env = log_r_bound_envelope(FSequence.from_potential(p))
    assert math.isfinite(env.coefficient)
    assert f"{env.coefficient:.10g}" == "3.116647104e+300"


# -- growth diagnostics ----------------------------------------------------------


def test_partial_sums_are_positive_and_increasing():
    S = berbee_series_partial_sums(power_fseq(2.0, 0.2), 256)
    assert len(S) == 257
    assert S[0] > 0.0
    assert all(b > a for a, b in zip(S, S[1:]))
    with pytest.raises(ValueError):
        berbee_series_partial_sums(power_fseq(2.0, 0.2), -1)


def test_growth_exponent_recovers_synthetic_power():
    n = np.arange(2**14 + 1, dtype=np.float64)
    S = 3.0 * np.maximum(n, 1.0) ** 0.45 + 2.0
    assert fit_growth_exponent(S) == pytest.approx(0.45, abs=2e-3)
    with pytest.raises(ValueError):
        fit_growth_exponent(S[:100])


def test_growth_exponent_tracks_the_contraction_budget():
    # hyperbolic tails at inverse temperature b grow like n^(1 - 4b)
    S = berbee_series_partial_sums(power_fseq(2.0, 0.2), 2**14)
    assert fit_growth_exponent(S) == pytest.approx(0.2, abs=0.05)


# -- asymptotic comparison report ------------------------------------------------


def test_diagnostic_gamma_values():
    F = power_fseq(2.0, 0.3)
    report = tauberian_diagnostic(F, alpha=0.5, K=1.0, n_grid=(4, 8))
    assert not report.fitted
    assert report.asymptote == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)
    report = tauberian_diagnostic(F, alpha=1.0, K=2.5, n_grid=(4, 8))
    assert report.asymptote == pytest.approx(5.0, abs=1e-12)


def test_diagnostic_rows_carry_finite_ratios():
    F = power_fseq(2.0, 0.3)
    grid = (4, 8, 16)
    report = tauberian_diagnostic(F, alpha=0.5, K=1.0, n_grid=grid)
    assert len(report.rows) == len(grid)
    for row in report.rows:
        assert row.ratio is not None
        assert row.ratio.lo > 0.0


def test_diagnostic_fits_the_decay_pair():
    report = tauberian_diagnostic(power_fseq(2.0, 0.3))
    assert report.fitted
    assert report.alpha == pytest.approx(0.7, abs=0.02)
    assert report.K > 0.0


def test_diagnostic_validation():
    F = power_fseq(2.0, 0.3)
    with pytest.raises(ValueError):
        tauberian_diagnostic(F, alpha=1.5, K=1.0)
    with pytest.raises(ValueError):
        tauberian_diagnostic(F, alpha=0.0, K=1.0)
    with pytest.raises(ValueError):
        tauberian_diagnostic(F, alpha=0.5, K=-1.0)
    with pytest.raises(ValueError):
        tauberian_diagnostic(F, alpha=0.5, K=1.0, n_grid=(0, 4))


def test_fitted_pair_needs_two_windows():
    # a line through one point is not a fit: (alpha, K) are fitted on windows >= 2 only
    with pytest.raises(ValueError):
        tauberian_diagnostic(power_fseq(2.0, 0.3), n_grid=(1, 4))
    assert tauberian_diagnostic(power_fseq(2.0, 0.3), n_grid=(2, 4)).fitted
