"""Uniqueness criteria: closed-form verdicts, thresholds, and the report."""

import math
import re
import sys

import mpmath
import pytest

import artifact.criteria as criteria
from artifact import (
    CouplingLaw,
    CriteriaReport,
    DecayEnvelope,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Interval,
    PairPotential,
    UNIQUE_GIBBS,
    UNIQUE_GIBBS_BERNOULLI,
    UNIQUE_TINV_GIBBS,
    Verdict,
    check_bcjo,
    check_berbee,
    check_coelho_quas,
    check_dobrushin,
    check_jop_blocksum,
    check_product_blocksum,
    check_ruelle,
    check_scaled_limsup,
    check_variation_slope,
    evaluate_all,
    log_r_bound_envelope,
)
from artifact.criteria import dobrushin_sum


def power(q, beta, R=None):
    return PairPotential(
        beta=beta, coupling=CouplingLaw.power_law(q), truncation_range=R
    )


def table(values, beta):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table(values))


def zero():
    return PairPotential(beta=1.0, coupling=CouplingLaw.zero())


# -- product-series divergence ----------------------------------------------------


def test_berbee_critical_strength_trichotomy():
    # the series flips between divergence and convergence at strength 1/4,
    # decided in exact rational arithmetic: no tolerance appears anywhere
    at = check_berbee(power(2.0, 0.25))
    assert at.outcome == HOLDS
    assert at.margin.lo == 0.0 and at.margin.hi == 0.0

    above = check_berbee(power(2.0, 0.26))
    assert above.outcome == FAILS
    assert above.margin.hi < 0.0

    assert check_berbee(power(2.0, 0.3)).outcome == FAILS
    below = check_berbee(power(2.0, 0.2))
    assert below.outcome == HOLDS
    assert below.margin.lo > 0.0


def test_berbee_summable_families_hold_at_any_temperature():
    v = check_berbee(power(3.0, 5.0))
    assert v.outcome == HOLDS
    assert v.margin.lo > 0.0
    assert "diverges term-by-term" in v.certificate
    assert check_berbee(zero()).outcome == HOLDS
    assert check_berbee(table((1.0, 0.5), 2.0)).outcome == HOLDS


def test_berbee_heavy_tails_fail_structurally():
    v = check_berbee(power(1.5, 0.1))
    assert v.outcome == FAILS
    assert v.margin is None
    assert "integral comparison" in v.certificate


def test_berbee_strength():
    assert check_berbee(power(2.0, 0.2)).conclusion_strength == UNIQUE_GIBBS


# -- tail-variation slope -----------------------------------------------------------


def test_variation_slope_threshold():
    assert check_variation_slope(power(2.0, 0.3)).outcome == HOLDS
    assert check_variation_slope(power(2.0, 0.49)).outcome == HOLDS
    # slope exactly 1/2: the family's own value, so failure is certified
    v = check_variation_slope(power(2.0, 0.5))
    assert v.outcome == FAILS
    assert check_variation_slope(power(2.0, 0.51)).outcome == FAILS


def test_variation_slope_summable_and_heavy():
    assert check_variation_slope(power(3.0, 5.0)).outcome == HOLDS
    assert check_variation_slope(zero()).outcome == HOLDS
    v = check_variation_slope(power(1.5, 0.3))
    assert v.outcome == INCONCLUSIVE


def test_variation_slope_margin_on_the_inverse_square_law():
    # the slope of q = 2 is beta exactly: margin 1/2 - 0.4, and Fails at beta = 1/2
    v = check_variation_slope(power(2.0, 0.4))
    assert v.outcome == HOLDS
    assert abs(v.margin.mid - 0.1) <= 1e-15
    assert check_variation_slope(power(2.0, 0.5)).outcome == FAILS
    assert v.conclusion_strength == UNIQUE_GIBBS_BERNOULLI


# -- paired product/block-sum test ----------------------------------------------------


def test_product_blocksum_supplied_alpha():
    p = power(2.0, 0.3)
    assert check_product_blocksum(p, alpha=0.6).outcome == HOLDS
    # alpha above 1 - c: the product budget is blown, but a smaller alpha
    # exists, so the check cannot certify failure
    assert check_product_blocksum(p, alpha=0.75).outcome == INCONCLUSIVE


def test_product_blocksum_natural_search():
    assert check_product_blocksum(power(2.0, 0.493)).outcome == HOLDS
    half = check_product_blocksum(power(2.0, 0.5))
    assert half.outcome == FAILS
    assert half.margin.lo == 0.0 and half.margin.hi == 0.0
    above = check_product_blocksum(power(2.0, 0.6))
    assert above.outcome == FAILS
    assert above.margin.hi < 0.0


def test_product_blocksum_summable_families():
    assert check_product_blocksum(zero(), alpha=1.0).outcome == HOLDS
    assert check_product_blocksum(power(3.0, 2.0)).outcome == HOLDS
    assert check_product_blocksum(power(3.0, 2.0), alpha=0.51).outcome == HOLDS
    # block-sum exponent 2 * 0.25 * (3 - 1) = 1 is not strictly above 1
    v = check_product_blocksum(power(3.0, 2.0), alpha=0.25)
    assert v.outcome == INCONCLUSIVE
    assert "larger alpha would work" in v.certificate


def test_product_blocksum_heavy_tails_fail():
    v = check_product_blocksum(power(1.5, 0.2))
    assert v.outcome == FAILS and v.margin is None


def test_product_blocksum_alpha_validation():
    p = power(2.0, 0.3)
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError):
            check_product_blocksum(p, alpha=bad)


# -- block sums of the conditional-law ratios ------------------------------------------


def test_jop_blocksum_derived_profiles():
    finite = table((1.0, 0.5), 1.0)
    assert check_jop_blocksum(finite).outcome == HOLDS
    certified = power(2.0, 0.3)
    v = check_jop_blocksum(certified)
    assert v.outcome == HOLDS
    assert v.margin.contains(0.2)
    hot = power(2.0, 0.6)
    assert check_jop_blocksum(hot).outcome == INCONCLUSIVE


def test_bcjo_derived_profiles():
    assert check_bcjo(table((0.5,), 2.0)).outcome == HOLDS
    assert check_bcjo(power(2.0, 0.3)).outcome == HOLDS
    assert check_bcjo(power(2.0, 1.0)).outcome == INCONCLUSIVE


def majorant_profile(monkeypatch, coefficient, exponent):
    """An infinite-range law whose g-variation bound the checks know through
    the majorant coefficient * n^-exponent, put in place of the certified one."""
    envelope = DecayEnvelope(coefficient, exponent, 1, "given majorant")
    monkeypatch.setattr(criteria, "log_r_bound_envelope", lambda p: envelope)
    return power(3.0, 0.3)


def test_jop_blocksum_and_bcjo_thresholds_on_the_majorant(monkeypatch):
    # block sums vanish for an exponent above 1/2: margin = exponent - 1/2
    steep = majorant_profile(monkeypatch, 1.9, 0.7)
    jop = check_jop_blocksum(steep)
    assert jop.outcome == HOLDS and jop.margin.contains(0.2) and jop.margin.width < 1e-15
    assert check_bcjo(steep).outcome == HOLDS and check_bcjo(steep).margin == Interval.point(2.0)
    # on the critical exponent 1/2 neither check is certified, whatever the coefficient; the
    # certified majorants never reach it (the critical family's exponent is 1 - c rounded down,
    # its coefficient above 2)
    for coefficient in (1.9, 2.0):
        assert check_jop_blocksum(majorant_profile(monkeypatch, coefficient, 0.5)).outcome == INCONCLUSIVE
        at = check_bcjo(majorant_profile(monkeypatch, coefficient, 0.5))
        assert at.outcome == INCONCLUSIVE and at.margin is None


# -- scaled limsup with budget pairs ----------------------------------------------------


def test_scaled_limsup_natural_choices():
    assert check_scaled_limsup(power(2.0, 0.25)).outcome == HOLDS
    # at strength exactly 1/2 the closed forms still leave strict room
    assert check_scaled_limsup(power(2.0, 0.5)).outcome == HOLDS
    v = check_scaled_limsup(power(2.0, 0.6))
    assert v.outcome == FAILS
    assert "no budget pair" in v.certificate
    assert check_scaled_limsup(power(3.0, 1.0)).outcome == HOLDS
    assert check_scaled_limsup(power(1.5, 0.3)).outcome == FAILS


def test_scaled_limsup_supplied_budget():
    p = power(2.0, 0.25)
    v = check_scaled_limsup(p, alpha=0.5, K=math.sqrt(2.0 * math.pi))
    assert v.outcome == HOLDS
    # sqrt(c) = 1/2 against Gamma(1/2)/sqrt(2 pi) = 1/sqrt(2)
    assert v.margin.contains(1.0 / math.sqrt(2.0) - 0.5)
    assert abs(v.margin.mid - (1.0 / math.sqrt(2.0) - 0.5)) <= 1e-12
    # alpha above the product budget 1 - c
    assert check_scaled_limsup(p, alpha=0.9).outcome == FAILS
    # alpha below the tail's critical exponent
    assert check_scaled_limsup(p, alpha=0.4, K=1.0).outcome == FAILS


def test_scaled_limsup_exactly_critical_profile():
    # inverse square at strength exactly 1/2 with the boundary budget pair:
    # sqrt(c) = 1/sqrt(2) = Gamma(1/2)/sqrt(2 pi), so the strict comparison
    # cannot resolve and the verdict must stay Inconclusive
    v = check_scaled_limsup(power(2.0, 0.5), alpha=0.5, K=math.sqrt(2.0 * math.pi))
    assert v.outcome == INCONCLUSIVE
    assert v.margin.contains(0.0)
    assert v.margin.width <= 1e-14


def test_scaled_limsup_validation():
    p = power(2.0, 0.25)
    with pytest.raises(ValueError):
        check_scaled_limsup(p, K=1.0)  # K without alpha
    with pytest.raises(ValueError):
        check_scaled_limsup(p, alpha=1.5)
    with pytest.raises(ValueError):
        check_scaled_limsup(p, alpha=0.5, K=0.0)
    with pytest.raises(ValueError):
        check_scaled_limsup(p, alpha=0.5, K=math.inf)  # Gamma(alpha)/K would be 0


# -- single-site influence ----------------------------------------------------------


def test_dobrushin_zero_coupling():
    v = check_dobrushin(zero())
    assert v.outcome == HOLDS
    assert v.margin.contains(2.0)
    assert v.margin.width <= 1e-11


def test_dobrushin_nearest_neighbor_margin():
    beta = 0.5
    v = check_dobrushin(table((1.0,), beta))
    assert v.outcome == HOLDS
    assert v.margin.contains(2.0 - 2.0 * math.tanh(beta))


def test_dobrushin_fails_at_strong_coupling():
    v = check_dobrushin(table((1.0, 0.8), 3.0))
    assert v.outcome == FAILS
    assert v.margin.hi < 0.0


def test_dobrushin_threshold_golden_value():
    # nearest-neighbour coupling never crosses the threshold (sum = 2 tanh),
    # so the flip is pinned on a two-range family: bisection over the exact
    # interdependence sum locates it, and the verdict switches across it
    def total(beta):
        return dobrushin_sum(table((1.0, 0.8), beta))

    lo, hi = 0.0, 3.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if total(mid) < 2.0 else (lo, mid)
    star = 0.5 * (lo + hi)
    assert star == pytest.approx(0.5919618242, abs=1e-6)
    assert check_dobrushin(table((1.0, 0.8), star - 1e-4)).outcome == HOLDS
    assert check_dobrushin(table((1.0, 0.8), star + 1e-4)).outcome == FAILS


def test_dobrushin_truncation_slack_is_one_sided():
    v = check_dobrushin(power(2.0, 0.2, R=8))
    assert v.outcome == HOLDS
    assert "cutoff" in v.certificate
    with pytest.raises(ValueError):
        check_dobrushin(power(2.0, 0.2))  # infinite range needs truncation


# -- weighted influence series ---------------------------------------------------------


def test_weighted_series_verdicts():
    assert check_ruelle(power(3.0, 1.0)).outcome == HOLDS
    assert check_ruelle(power(2.0, 0.1)).outcome == FAILS
    assert check_coelho_quas(power(2.5, 1.0)).outcome == HOLDS
    assert check_coelho_quas(power(2.0, 0.1)).outcome == FAILS
    assert check_ruelle(zero()).outcome == HOLDS
    v = check_ruelle(power(3.0, 1.0))
    assert v.conclusion_strength == UNIQUE_TINV_GIBBS
    assert "Bernoulli" in v.certificate


# -- the aggregated report ---------------------------------------------------------------


def test_report_headline_critical_coupling():
    rep = evaluate_all(power(2.0, 0.3))
    out = rep.outcomes()
    assert out["berbee"] == FAILS
    assert out["variation_slope"] == HOLDS
    assert out["product_blocksum"] == HOLDS
    assert out["ruelle"] == FAILS
    assert out["dobrushin"] == INCONCLUSIVE
    assert "not evaluated" in rep.by_name("dobrushin").certificate
    assert rep.strongest == UNIQUE_GIBBS_BERNOULLI


def test_report_summable_and_zero_couplings():
    rep = evaluate_all(power(3.0, 5.0))
    assert all(
        v.outcome == HOLDS for v in rep.verdicts if v.criterion != "dobrushin"
    )
    assert rep.strongest == UNIQUE_GIBBS_BERNOULLI

    rep = evaluate_all(zero())
    assert all(v.outcome == HOLDS for v in rep.verdicts)
    assert len(rep.verdicts) == 9


def test_report_heavy_tails_certify_nothing():
    rep = evaluate_all(power(1.5, 0.3))
    assert rep.strongest is None
    out = rep.outcomes()
    assert out["berbee"] == FAILS
    assert out["scaled_limsup"] == FAILS
    assert out["jop_blocksum"] == INCONCLUSIVE


# summable laws whose product-term floor exp(-beta W) exp(-beta peak) underflows
# to 0 (beta W past about 745): the envelope and Ruelle's exp(beta W) overflow
UNDERFLOWING_FLOORS = [
    PairPotential(beta=1.0, coupling=CouplingLaw.exponential(0.03)),
    PairPotential(beta=800.0, coupling=CouplingLaw.exponential(1.0)),
    power(2.5, 200.0),
    power(3.0, 500.0),
]


def test_report_decides_all_nine_criteria_when_the_floor_underflows():
    names = [v.criterion for v in evaluate_all(zero()).verdicts]
    for p in UNDERFLOWING_FLOORS:
        assert log_r_bound_envelope(p) is None  # no majorant claimed
        rep = evaluate_all(p)
        assert [v.criterion for v in rep.verdicts] == names
        assert all(v.outcome in (HOLDS, FAILS, INCONCLUSIVE) for v in rep.verdicts)
        out = rep.outcomes()
        assert out["ruelle"] == HOLDS and out["product_blocksum"] == HOLDS
        assert rep.strongest == UNIQUE_GIBBS_BERNOULLI


# the laws of one `gibbs1d check` sweep: inverse square across its thresholds, the
# heavy, summable and exponential tails, the zero law and three finite ranges
SWEEP_LAWS = [power(2.0, beta) for beta in (0.2, 0.25, 0.3, 0.45, 0.5, 0.55)] + [
    power(1.5, 0.3),
    power(3.0, 0.5),
    PairPotential(beta=0.5, coupling=CouplingLaw.exponential(0.5)),
    zero(),
    table([1.0], 1.0),
    power(2.0, 0.3, R=6),
    power(2.0, 0.3, R=12),
]


def test_every_report_lists_the_nine_criteria_with_their_strengths_in_order():
    expected = [
        ("dobrushin", UNIQUE_GIBBS),
        ("ruelle", UNIQUE_TINV_GIBBS),
        ("coelho_quas", UNIQUE_TINV_GIBBS),
        ("berbee", UNIQUE_GIBBS),
        ("variation_slope", UNIQUE_GIBBS_BERNOULLI),
        ("product_blocksum", UNIQUE_GIBBS_BERNOULLI),
        ("jop_blocksum", UNIQUE_TINV_GIBBS),
        ("bcjo", UNIQUE_TINV_GIBBS),
        ("scaled_limsup", UNIQUE_TINV_GIBBS),
    ]
    seen = set()
    for p in SWEEP_LAWS + UNDERFLOWING_FLOORS:
        verdicts = evaluate_all(p).verdicts
        assert [(v.criterion, v.conclusion_strength) for v in verdicts] == expected, p
        seen |= {"guard" if v.certificate.startswith("not evaluated:") else v.outcome for v in verdicts}
    # the laws reach every outcome, and the guard's Inconclusive entry
    assert seen == {HOLDS, FAILS, INCONCLUSIVE, "guard"}


def _true_logs(p):
    """beta T(1) - 4 beta W and beta W to 30 digits, with W = sum_j j J(j)."""
    c = p.coupling
    with mpmath.workdps(30):
        beta = mpmath.mpf(p.beta)
        if c.kind == "exponential":
            x = mpmath.exp(c.rate)
            t1, w = 1 / (x - 1), x / (x - 1) ** 2
        else:
            t1, w = mpmath.zeta(c.q), mpmath.zeta(c.q - 1)
        return beta * (t1 - 4 * w), beta * w


def test_underflowing_floor_and_overflowing_cap_are_stated_in_log_space():
    for p in UNDERFLOWING_FLOORS:
        log_floor, log_cap = _true_logs(p)
        berbee = check_berbee(p)
        assert berbee.outcome == HOLDS and berbee.margin is None
        assert "at least exp(L) > 0" in berbee.certificate
        lo, hi = map(float, re.search(r"L = .* in \[(\S+), (\S+)\]", berbee.certificate).groups())
        assert lo <= hi < -745.2  # exp(L) lies below the least subnormal double
        assert lo * (1 + 1e-9) <= log_floor <= hi * (1 - 1e-9)
        v = check_scaled_limsup(p)
        assert v.outcome == HOLDS and "not evaluated" not in v.certificate
        k = re.search(r"K = exp\((\S+)\)", v.certificate)
        if log_cap > math.log(sys.float_info.max):
            assert v.margin is None and "above the largest double" in v.certificate
            assert abs(float(k.group(1)) - log_cap) <= 1e-9 * log_cap
        else:  # q = 2.5 at beta = 200: K = exp(beta W) still fits in a double
            assert k is None and v.margin.lo > 0.0


def test_scaled_limsup_k_overflows_only_where_the_tail_limsup_is_zero():
    # the overflowed-K branch decides Holds without a comparison: it rests on
    # the scaled tail limsup being exactly 0 wherever the certified K overflows
    overflowed = 0
    for p in SWEEP_LAWS + UNDERFLOWING_FLOORS:
        fam = criteria.family(p)
        if fam == "power_heavy":
            continue
        a, terminal = criteria._natural_alpha(p, fam)
        if terminal is not None:
            continue
        prod = criteria._product_limsup(p, fam, a)
        if prod is None or not math.isinf(prod.hi):
            continue
        overflowed += 1
        tail = criteria._tail_limsup(p, fam, a)
        assert a == 1 and tail is not None and tail.lo == tail.hi == 0.0, p
        v = check_scaled_limsup(p)
        assert v.outcome == HOLDS and "a limsup of exactly 0 lies below" in v.certificate
    assert overflowed > 0


def test_report_lookup_raises_on_unknown_name():
    rep = evaluate_all(zero())
    with pytest.raises(KeyError):
        rep.by_name("unknown")


def test_conclusion_strength_ranking():
    verdicts = (
        Verdict("a", HOLDS, None, "", UNIQUE_TINV_GIBBS),
        Verdict("b", HOLDS, None, "", UNIQUE_GIBBS),
        Verdict("c", FAILS, None, "", UNIQUE_GIBBS_BERNOULLI),
    )
    assert CriteriaReport(verdicts).strongest == UNIQUE_GIBBS
    assert CriteriaReport(verdicts[:1]).strongest == UNIQUE_TINV_GIBBS
    assert CriteriaReport((verdicts[2],)).strongest is None
    with pytest.raises(ValueError):
        Verdict("d", "Maybe", None, "", UNIQUE_GIBBS)
    with pytest.raises(ValueError):
        Verdict("d", HOLDS, None, "", "something else")


def test_stronger_criteria_imply_weaker_ones():
    # finite weighted influence forces hyperbolic-or-better tail decay, so a
    # ruelle pass must come with a variation-slope pass across the family grid
    for q in (2.2, 2.5, 3.0, 4.0):
        for beta in (0.1, 0.3, 0.5, 1.0, 2.0):
            p = power(q, beta)
            if check_ruelle(p).outcome == HOLDS:
                slope = check_variation_slope(p)
                assert slope.outcome == HOLDS, (q, beta)


# -- criteria knobs ----------------------------------------------------------------

KNOBBED_CHECKS = ("check_product_blocksum", "check_scaled_limsup", "check_jop_blocksum")


@pytest.mark.parametrize(
    "knobs",
    [
        {"alpha": 0.75, "budget": 3.0},
        {"alpha_grid": (0.6, 0.8, 1.0)},
    ],
)
def test_evaluate_all_runs_each_knobbed_check_once(monkeypatch, knobs):
    calls = dict.fromkeys(KNOBBED_CHECKS, 0)

    def counted(name):
        check = getattr(criteria, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)

        return wrapper

    for name in KNOBBED_CHECKS:
        monkeypatch.setattr(criteria, name, counted(name))
    report = evaluate_all(power(2.0, 0.3), **knobs)
    assert calls == dict.fromkeys(KNOBBED_CHECKS, 1)
    assert len(report.verdicts) == 9


def test_knob_verdicts_match_the_direct_checks():
    p = power(3.0, 0.3)
    rep = evaluate_all(p, alpha=0.75, budget=3.0)
    assert rep.by_name("product_blocksum") == check_product_blocksum(p, 0.75)
    assert rep.by_name("scaled_limsup") == check_scaled_limsup(p, 0.75, 3.0)
    assert rep.by_name("jop_blocksum") == check_jop_blocksum(p)
    assert rep.knobs == {"alpha": 0.75, "budget": 3.0}
    default = evaluate_all(p)
    assert default.knobs == {}
    for name in ("dobrushin", "ruelle", "coelho_quas", "berbee", "variation_slope", "bcjo"):
        assert rep.by_name(name) == default.by_name(name)

    grid = (0.6, 0.8, 1.0)
    rep = evaluate_all(p, alpha_grid=grid)
    assert rep.by_name("product_blocksum") == check_product_blocksum(p, alpha_grid=grid)
    assert rep.by_name("scaled_limsup") == default.by_name("scaled_limsup")
    assert rep.knobs == {"alpha_grid": [0.6, 0.8, 1.0]}


def test_alpha_grid_search_quotes_the_largest_admissible_alpha():
    # one rule for the default and the supplied candidate lists
    p = power(3.0, 0.3)
    default = check_product_blocksum(p)
    supplied = check_product_blocksum(p, alpha_grid=[0.6, 0.8, 1.0])
    assert default == supplied
    assert supplied.certificate.startswith("alpha = 1:")
    v = check_product_blocksum(power(2.0, 0.3), alpha_grid=[0.51, 0.6, 0.7, 0.75])
    assert v.outcome == HOLDS and v.certificate.startswith("alpha = 0.7:")
    with pytest.raises(ValueError):
        check_product_blocksum(p, alpha_grid=[])
    with pytest.raises(ValueError):
        check_product_blocksum(p, alpha_grid=[0.6, 1.5])


def test_inconclusive_blocksum_names_the_largest_candidate_tried():
    v = evaluate_all(power(3.0, 0.3), alpha_grid=[0.2, 0.25]).by_name("product_blocksum")
    assert v.outcome == INCONCLUSIVE
    assert v.certificate.startswith(
        "supplied alpha = 0.25 leaves block-sum exponent 2*alpha*(q-1) = 1 <= 1,"
    )


def test_alpha_wins_over_alpha_grid():
    p = power(2.0, 0.3)
    both = evaluate_all(p, alpha=0.75, alpha_grid=(0.6, 0.7))
    assert both.by_name("product_blocksum") == check_product_blocksum(p, 0.75)
    assert both.by_name("product_blocksum").outcome == INCONCLUSIVE
    assert evaluate_all(p, alpha_grid=(0.6, 0.7)).by_name("product_blocksum").outcome == HOLDS
    assert both.knobs == {"alpha": 0.75}
    with pytest.raises(ValueError, match="budget requires alpha"):
        evaluate_all(p, budget=3.0)
