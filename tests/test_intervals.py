"""Soundness of the interval layer: every result must enclose the true value."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact import Interval
from artifact.intervals import float_sum_enclosure

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False)


def make_interval(center: float, spread: float) -> Interval:
    return Interval(center - abs(spread), center + abs(spread))


def test_ordering_enforced():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        Interval(math.inf, math.inf)


def test_point_hull_queries():
    a = Interval.point(1.5)
    assert a.lo == a.hi == 1.5
    h = Interval.hull(Interval(0.0, 1.0), Interval(2.0, 3.0))
    assert h.lo == 0.0 and h.hi == 3.0
    assert h.contains(2.5) and not h.contains(3.5)
    assert h.encloses(Interval(0.5, 2.5))
    assert Interval(0.0, 1.0).overlaps(Interval(1.0, 2.0))
    assert not Interval(0.0, 1.0).overlaps(Interval(1.5, 2.0))
    assert Interval(1.0, 3.0).mid == 2.0
    assert Interval(1.0, 3.0).width == 2.0


def test_certainly_comparisons_are_strict_where_named():
    a = Interval(0.0, 1.0)
    assert a.certainly_lt(1.0 + 1e-9) and not a.certainly_lt(1.0)
    assert a.certainly_le(1.0)
    assert a.certainly_gt(-1e-9) and not a.certainly_gt(0.0)
    assert a.certainly_ge(0.0)


@given(finite, finite, finite, finite)
def test_sum_and_difference_enclose_exact_rationals(a, da, b, db):
    A = make_interval(a, da % 1.0)
    B = make_interval(b, db % 1.0)
    for x in (A.lo, A.hi):
        for y in (B.lo, B.hi):
            exact = Fraction(x) + Fraction(y)
            s = A + B
            assert Fraction(s.lo) <= exact <= Fraction(s.hi)
            exact = Fraction(x) - Fraction(y)
            d = A - B
            assert Fraction(d.lo) <= exact <= Fraction(d.hi)


@given(finite, finite, finite, finite)
def test_product_encloses_exact_rationals(a, da, b, db):
    A = make_interval(a, da % 1.0)
    B = make_interval(b, db % 1.0)
    prod = A * B
    for x in (A.lo, A.hi):
        for y in (B.lo, B.hi):
            exact = Fraction(x) * Fraction(y)
            assert Fraction(prod.lo) <= exact <= Fraction(prod.hi)


@given(finite, finite, positive, st.booleans())
def test_quotient_encloses_exact_rationals(a, da, b, flip):
    A = make_interval(a, da % 1.0)
    B = Interval(b, b * (1.0 + 1e-6))
    if flip:
        B = -B
    q = A / B
    for x in (A.lo, A.hi):
        for y in (B.lo, B.hi):
            exact = Fraction(x) / Fraction(y)
            assert Fraction(q.lo) <= exact <= Fraction(q.hi)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_exp_contains_reference_value_strictly(x):
    iv = Interval.point(x).exp()
    assert iv.lo < math.exp(x) < iv.hi
    assert iv.lo > 0.0


def test_exp_past_the_double_range_is_unbounded_above():
    # exp(709.79) no longer fits in a double: the enclosure runs from the
    # largest doubles to +inf instead of raising OverflowError
    big = Interval.point(1000.0).exp()
    assert math.isinf(big.hi) and 1e308 < big.lo < math.inf
    wide = Interval(700.0, 800.0).exp()
    assert wide.lo <= math.exp(700.0) and math.isinf(wide.hi)
    assert Interval(-math.inf, 0.0).exp() == Interval(0.0, Interval.point(0.0).exp().hi)


@given(positive)
def test_log_contains_reference_value(x):
    iv = Interval.point(x).log()
    assert iv.lo <= math.log(x) <= iv.hi
    back = iv.exp()
    assert back.lo <= x <= back.hi


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        Interval(-1.0, 1.0).log()
    with pytest.raises(ValueError):
        Interval.point(0.0).log()


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=-3.0, max_value=3.0))
def test_pow_contains_reference_value(x, e):
    iv = Interval.point(x).pow(e)
    assert iv.lo <= math.pow(x, e) <= iv.hi


@given(st.floats(min_value=-0.5, max_value=1e6, allow_nan=False))
def test_log1p_contains_reference_value(x):
    iv = Interval.point(x).log1p()
    assert iv.lo <= math.log1p(x) <= iv.hi


@given(positive)
def test_sqrt_squares_back(x):
    iv = Interval.point(x).sqrt()
    sq = iv * iv
    assert sq.lo <= x <= sq.hi


def test_scalar_operations_match_interval_operations():
    a = Interval(1.0, 2.0)
    assert (a + 0.5).lo == (a + Interval.point(0.5)).lo
    assert (a * 3.0).hi == (a * Interval.point(3.0)).hi
    assert (1.0 / a).lo == (Interval.point(1.0) / a).lo
    assert (2.0 - a).hi == (Interval.point(2.0) - a).hi


def test_division_by_interval_through_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


def test_unbounded_above_propagates():
    a = Interval(1.0, math.inf)
    assert (a + 1.0).hi == math.inf
    assert (a * 2.0).hi == math.inf
    assert a.rel_width() == math.inf or a.rel_width() > 0.0


# -- sums of floats ------------------------------------------------------------------

summands = st.one_of(
    st.floats(min_value=-1e12, max_value=1e12),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals among them
    st.sampled_from([5e-324, -5e-324, 1.0, -1.0, 2.0**53, -(2.0**53)]),
)


@given(st.lists(summands, max_size=40), st.lists(st.integers(min_value=0), max_size=10), st.sampled_from([0, 2]))
def test_float_sum_enclosure_contains_the_exact_sum(terms, cancel, term_ulps):
    if terms:  # exact cancellation: the negatives of some terms join the sum
        terms = terms + [-terms[i % len(terms)] for i in cancel]
    iv = float_sum_enclosure(terms, term_ulps)
    assert Fraction(iv.lo) <= sum(map(Fraction, terms)) <= Fraction(iv.hi)


BIG = math.nextafter(math.inf, 0.0)


def test_float_sum_enclosure_encloses_an_overflow():
    # nonnegative terms: past the largest double, as Interval.exp encloses an overflow
    assert float_sum_enclosure([1e308, 1e308]) == Interval(BIG, math.inf)
    assert float_sum_enclosure([1e308, 1.0, 1e308, 0.0]) == Interval(BIG, math.inf)
    # terms of both signs: the true sum (1e308 here) may lie anywhere
    for terms in ([1e308, 1e308, -1e308], [-1e308, -1e308]):
        assert float_sum_enclosure(terms) == Interval(-math.inf, math.inf)


@given(
    st.lists(st.one_of(st.floats(min_value=1e307, max_value=BIG), st.floats(min_value=0.0, max_value=BIG)),
             min_size=2, max_size=20),
    st.sampled_from([0, 2, 7]),
)
def test_sums_of_nonnegative_terms_near_the_double_range_keep_their_true_sum(terms, term_ulps):
    # each true term lies within term_ulps ulps of its float, on either side
    iv = float_sum_enclosure(terms, term_ulps)
    exact, slack = sum(map(Fraction, terms)), term_ulps * sum(Fraction(math.ulp(t)) for t in terms)
    assert Fraction(iv.lo) <= exact - slack
    assert iv.hi == math.inf or exact + slack <= Fraction(iv.hi)
