"""The tail engine against mpmath: point tails, tables, weighted totals, and
the series and front end built on them."""

import csv
import math
import time
import tracemalloc

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import CouplingLaw, PairPotential, g_variation_bound, rn_series, tail_variation
from artifact.cli import main
from artifact.intervals import Interval
from artifact.potential import _weighted_total

mpmath = pytest.importorskip("mpmath")

DPS = 50


def contains(iv: Interval, x) -> bool:
    return mpmath.mpf(iv.lo) <= x <= mpmath.mpf(iv.hi)


def exact_tail(law: CouplingLaw, m: int, last=None):
    """sum_{m <= j <= last} J(j) at DPS digits (Hurwitz zeta or the geometric closed form)."""
    if last is not None and m > last:
        return mpmath.mpf(0)
    A = mpmath.mpf(law.amplitude)
    if law.kind == "power_law":
        q = mpmath.mpf(law.q)
        cut = 0 if last is None else mpmath.zeta(q, last + 1)
        return A * (mpmath.zeta(q, m) - cut)
    if law.kind == "exponential":
        r = mpmath.mpf(law.rate)
        cut = 0 if last is None else mpmath.exp(-r * (last + 1))
        return A * (mpmath.exp(-r * m) - cut) / (1 - mpmath.exp(-r))
    stop = len(law.values) if last is None else min(last, len(law.values))
    return mpmath.fsum(mpmath.mpf(v) for v in law.values[m - 1 : stop])


q_open = st.floats(min_value=1.0, max_value=6.0, exclude_min=True, allow_nan=False)
amplitudes = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=3.0))
laws = st.one_of(
    st.builds(CouplingLaw.power_law, q_open, amplitudes),
    st.builds(
        CouplingLaw.exponential,
        st.floats(min_value=0.01, max_value=5.0),
        amplitudes,
    ),
    st.builds(CouplingLaw.finite_table, st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=40)),
)


# -- point tails -------------------------------------------------------------------


@given(
    q_open,
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=0.01, max_value=4.0),
    amplitudes,
)
@settings(max_examples=200, deadline=None)
def test_power_point_tail_contains_hurwitz_zeta(q, n, beta, amplitude):
    p = PairPotential(beta=beta, coupling=CouplingLaw.power_law(q, amplitude))
    iv = tail_variation(p, n)
    with mpmath.workdps(DPS):
        assert contains(iv, mpmath.mpf(beta) * mpmath.mpf(amplitude) * mpmath.zeta(mpmath.mpf(q), n))
    assert iv.rel_width() <= 1e-13


@given(st.floats(min_value=0.01, max_value=5.0), st.integers(min_value=1, max_value=2000))
@settings(max_examples=300, deadline=None)
def test_exponential_point_tail_encloses_its_exponent(rate, n):
    law = CouplingLaw.exponential(rate)
    with mpmath.workdps(DPS):
        assert contains(law.tail(n), exact_tail(law, n))


@pytest.mark.parametrize("n", [43, 48, 53, 60])
def test_exponential_tail_rounding_of_rate_times_n(n):
    # 0.4 * n rounds; the exponent must be enclosed before exp
    law = CouplingLaw.exponential(0.4)
    with mpmath.workdps(DPS):
        assert contains(law.tail(n), exact_tail(law, n))


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_steep_power_law_q40(n):
    law = CouplingLaw.power_law(40.0)
    iv = law.tail(n)
    with mpmath.workdps(80):
        assert contains(iv, mpmath.zeta(40, n))
    assert iv.rel_width() <= 1e-13


def test_near_harmonic_tail_is_cheap_and_tight():
    law = CouplingLaw.power_law(1.05)
    tracemalloc.start()
    t0 = time.perf_counter()
    iv = law.tail(1)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert iv.rel_width() <= 1e-10
    assert elapsed < 0.05
    assert peak < 100 * 2**20
    with mpmath.workdps(DPS):
        assert contains(iv, mpmath.zeta(mpmath.mpf(1.05), 1))


@given(laws, st.integers(min_value=1, max_value=3000), st.one_of(st.none(), st.integers(0, 3000)))
@settings(max_examples=200, deadline=None)
def test_truncated_point_tails(law, n, last):
    with mpmath.workdps(DPS):
        assert contains(law.tail(n, last=last), exact_tail(law, n, last))


# -- tables ------------------------------------------------------------------------


@given(
    laws,
    st.integers(min_value=1, max_value=5000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6000)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_table_entries_contain_exact_tails(law, horizon, R, data):
    p = PairPotential(beta=1.0, coupling=law, truncation_range=R)
    table = p.tail_enclosure_table(horizon)
    lo, hi = table.enclosures(horizon + 1)
    ms = data.draw(st.lists(st.integers(min_value=1, max_value=horizon + 1), min_size=1, max_size=8))
    with mpmath.workdps(DPS):
        for m in ms:
            exact = exact_tail(law, m, R)
            assert contains(table.at(m), exact)
            assert mpmath.mpf(lo[m - 1]) <= exact <= mpmath.mpf(hi[m - 1])
            if exact == 0:
                assert lo[m - 1] == hi[m - 1] == 0.0


def test_exponential_table_encloses_every_entry():
    p = PairPotential(beta=1.0, coupling=CouplingLaw.exponential(0.3))
    lo, hi = p.tail_enclosure_table(2000).enclosures(2000)
    r = mpmath.mpf(0.3)
    with mpmath.workdps(DPS):
        den = 1 - mpmath.exp(-r)
        misses = [m for m in range(1, 2001) if not lo[m - 1] <= mpmath.exp(-r * m) / den <= hi[m - 1]]
    assert misses == []


def test_table_agrees_with_point_tails():
    p = PairPotential(beta=0.3, coupling=CouplingLaw.power_law(2.0))
    table = p.tail_enclosure_table(10_000)
    for m in (1, 2, 17, 999, 10_001):
        assert table.at(m).overlaps(p.coupling_tail(m))
        assert table.at(m).rel_width() <= 1e-13


def grown_by_doubling(p: PairPotential, start: int, entries: int):
    table = p.tail_enclosure_table(start - 1)
    while table.horizon + 1 < entries:
        table.grow(2 * (table.horizon + 1) - 1)
    return table


def test_growing_a_table_keeps_no_full_length_temporaries():
    p = PairPotential(beta=0.5, coupling=CouplingLaw.power_law(3.0))
    p.coupling_tail(1)  # the point-tail caches, outside the measured peak
    tracemalloc.start()
    table = grown_by_doubling(p, 1024, 131_072)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(table.lo) == 131_072
    # the table keeps about 56 bytes per entry, and growing a segment adds no more than a chunk's
    # lists: one full-length temporary of doubles per segment would peak near 66, lists near 155
    assert peak <= 60 * 131_072


def test_reads_across_segments_are_the_reads_of_one_sequence():
    # the first segment holds 1 025 entries, so a block of 1 024 from 1 024 on spans two
    p = PairPotential(beta=0.5, coupling=CouplingLaw.power_law(3.0))
    table = grown_by_doubling(p, 1025, 8192)
    for name in ("lo", "hi", "p_lo", "spread"):
        column = getattr(table, name)
        whole = list(column)
        assert len(whole) == len(column) == table.horizon + 1
        for start, stop in ((0, 5), (1020, 1030), (1024, 2048), (2040, 8192), (0, 8192), (4096, 4097)):
            assert list(column[start:stop]) == whole[start:stop], (name, start, stop)
        assert [column[k] for k in (0, 1024, 1025, 2048, 2049, 8191)] == [whole[k] for k in (0, 1024, 1025, 2048, 2049, 8191)]


CHUNK_LAWS = {
    "power law": (CouplingLaw.power_law(2.0), None),
    "truncated power law": (CouplingLaw.power_law(2.5), 40),
    "finite table": (CouplingLaw.finite_table([1.0, 0.5, 0.0, 0.25, 0.1] * 5), None),
    "exponential": (CouplingLaw.exponential(0.5), None),
}


@pytest.mark.parametrize("name", sorted(CHUNK_LAWS))
def test_table_entries_do_not_depend_on_the_chunk_size(name, monkeypatch):
    from artifact import rows

    law, R = CHUNK_LAWS[name]
    p = PairPotential(beta=0.7, coupling=law, truncation_range=R)
    want = grown_by_doubling(p, 3, 300)
    monkeypatch.setattr(rows, "_CHUNK", 7)
    got = grown_by_doubling(p, 3, 300)
    for column in ("lo", "hi", "p_lo", "spread"):
        assert list(getattr(got, column)) == list(getattr(want, column)), column


@pytest.mark.parametrize("values", [[1e308, 1e308], [0.0, 1e308] + [1e306] * 200])
def test_a_table_refuses_a_tail_past_the_double_range(values):
    # T(1) passes the largest double: the point tail is [largest double, +inf], and
    # the table names the overflow where its sums of J would otherwise give NaN
    p = PairPotential(beta=1.0, coupling=CouplingLaw.finite_table(values))
    assert p.coupling_tail(1) == Interval(math.nextafter(math.inf, 0.0), math.inf)
    with pytest.raises(ArithmeticError, match="a coupling tail leaves the double range"):
        p.tail_enclosure_table(8)


def test_a_table_refuses_a_sum_of_tails_past_the_double_range():
    # every tail is finite (T(1) is about 1e304), but S_k = T(1) + ... + T(k+1) passes the
    # largest double near k = 18 000, in the fifth chunk of this growth: the table raises
    # where TwoSum would have turned S_k into NaN, and keeps the whole chunks before it
    p = PairPotential(beta=1.0, coupling=CouplingLaw.power_law(1.0001, 1e300))
    table = p.tail_enclosure_table(1024)
    with pytest.raises(ArithmeticError, match="a sum of coupling tails leaves the double range"):
        table.grow(32768)
    assert 1024 < table.horizon < 18000
    assert len(table.lo) == len(table.hi) == table.horizon + 1 == len(table.p_lo) == len(table.spread)
    assert all(math.isfinite(x) for column in (table.hi, table.p_lo, table.spread) for x in column)


# -- weighted totals ---------------------------------------------------------------


@given(st.floats(min_value=2.0, max_value=6.0, exclude_min=True), amplitudes)
@settings(max_examples=100, deadline=None)
def test_power_weighted_total_contains_zeta(q, amplitude):
    total = CouplingLaw.power_law(q, amplitude).weighted_total()
    with mpmath.workdps(DPS):
        assert contains(total, mpmath.mpf(amplitude) * mpmath.zeta(mpmath.mpf(q) - 1))


@given(st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_exponential_weighted_total(rate):
    total = CouplingLaw.exponential(rate).weighted_total()
    with mpmath.workdps(DPS):
        e = mpmath.exp(-mpmath.mpf(rate))
        assert contains(total, e / (1 - e) ** 2)


@given(laws, st.integers(min_value=1, max_value=300))
@settings(max_examples=150, deadline=None)
def test_truncated_weighted_total_contains_exact_sum(law, R):
    p = PairPotential(beta=1.0, coupling=law, truncation_range=R)
    total = p.weighted_total()
    if p.finite_range == 0:
        assert total == Interval.point(0.0)
        return
    with mpmath.workdps(DPS):
        A = mpmath.mpf(law.amplitude)
        if law.kind == "power_law":
            exact = A * mpmath.fsum(mpmath.mpf(j) ** (1 - mpmath.mpf(law.q)) for j in range(1, R + 1))
        elif law.kind == "exponential":
            r = mpmath.mpf(law.rate)
            exact = A * mpmath.fsum(j * mpmath.exp(-r * j) for j in range(1, R + 1))
        else:
            exact = mpmath.fsum(j * mpmath.mpf(v) for j, v in enumerate(law.values[:R], 1))
        assert contains(total, exact)


def test_long_truncated_weighted_total_is_fast_and_cached():
    p = PairPotential(beta=0.3, coupling=CouplingLaw.power_law(2.0), truncation_range=10**7)
    start = time.perf_counter()
    total = p.weighted_total()
    assert time.perf_counter() - start < 1.0
    # sum_{j <= R} 1/j = log R + gamma + 1/(2R) - ...
    with mpmath.workdps(DPS):
        assert contains(total, mpmath.harmonic(10**7))
    assert total.rel_width() <= 1e-13
    start = time.perf_counter()
    assert p.weighted_total() == total
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("R", [13, 14, 15, 10**3, 10**6, 10**8])
@pytest.mark.parametrize("q", [1.05, 1.5, 2.0, 2.0 - 2.0**-30, 2.0 + 2.0**-30, 2.5, 3.0])
def test_truncated_weighted_total_is_tight_in_constant_time(q, R):
    # exponents 1 - q on both sides of -1; R = 13, 14, 15 straddle the head
    # of 13 + ceil(q - 1) terms summed directly
    _weighted_total.cache_clear()
    law = CouplingLaw.power_law(q)
    start = time.perf_counter()
    total = law.weighted_total(last=R)
    elapsed = time.perf_counter() - start
    with mpmath.workdps(40):
        s = mpmath.mpf(q) - 1
        exact = mpmath.harmonic(R) if s == 1 else mpmath.zeta(s) - mpmath.zeta(s, R + 1)
        assert contains(total, exact)
    assert total.rel_width() <= 1e-13
    assert elapsed < 0.01


# -- beta = 0 is the zero interaction ----------------------------------------------


def test_zero_beta_has_range_zero():
    p = PairPotential(beta=0.0, coupling=CouplingLaw.power_law(2.0))
    assert p.finite_range == 0
    gb = g_variation_bound(p, 3)
    assert gb.rn.divergent
    assert gb.bound.lo == gb.bound.hi == 0.0


def test_zero_beta_bounds_finish_with_exact_zeros(tmp_path):
    doc = {
        "potential": {"kind": "power_law", "beta": 0.0, "q": 2.0},
        "experiments": ["criteria", "bounds"],
        "n_max": 4,
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "beta0.yaml"
    path.write_text(yaml.safe_dump(doc))
    t0 = time.perf_counter()
    assert main(["bounds", "--config", str(path)]) == 0
    assert time.perf_counter() - t0 < 10.0
    with open(tmp_path / "out" / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        for col in ("tail_variation_lo", "tail_variation_hi", "log_r_bound_lo", "log_r_bound_hi"):
            assert float(row[col]) == 0.0


# -- the series on exponential laws ------------------------------------------------


def exact_strength(law: CouplingLaw, j: int, last=None):
    """J(j) at the working precision (0 beyond ``last``)."""
    if last is not None and j > last:
        return mpmath.mpf(0)
    if law.kind == "power_law":
        return mpmath.mpf(law.amplitude) * mpmath.mpf(j) ** -mpmath.mpf(law.q)
    if law.kind == "exponential":
        return mpmath.mpf(law.amplitude) * mpmath.exp(-mpmath.mpf(law.rate) * j)
    return mpmath.mpf(law.values[j - 1]) if j <= len(law.values) else mpmath.mpf(0)


def exact_rn(beta, law, n, K=400, last=None):
    """R_n at the working precision, bracketed after K terms.

    Term k is u_k = c^(k+1) a_0 ... a_k with c = exp(-beta T(n+1)) and
    a_j = exp(-beta T(j+1)); the a_j increase, so the remainder after term
    K - 1 lies between u x / (1 - x), x = c a_K, and u c / (1 - c).  The
    tails walk down from T(1) by T(j+1) = T(j) - J(j).
    """
    b = mpmath.mpf(beta)
    c = mpmath.exp(-b * exact_tail(law, n + 1, last))
    t = exact_tail(law, 1, last)
    u, s = mpmath.mpf(1), mpmath.mpf(0)
    for k in range(K):
        u *= c * mpmath.exp(-b * t)
        s += u
        t -= exact_strength(law, k + 1, last)
    x = c * mpmath.exp(-b * t)
    return s + u * x / (1 - x), s + u * c / (1 - c)


@pytest.mark.parametrize("n", [12, 40])
def test_exponential_series_converges_whatever_the_window(n):
    law = CouplingLaw.exponential(1.0)
    p = PairPotential(beta=1.0, coupling=law)
    t0 = time.perf_counter()
    gb = g_variation_bound(p, n)
    assert time.perf_counter() - t0 < 1.0
    assert gb.bound.rel_width() <= 1e-6
    assert "term cap" not in gb.rn.certificate
    with mpmath.workdps(DPS):
        lo, hi = exact_rn(1.0, law, n)
        assert mpmath.mpf(gb.rn.enclosure.lo) <= lo and hi <= mpmath.mpf(gb.rn.enclosure.hi)


# (law, beta, truncation range): power laws on both sides of q = 2, an
# exponential law, and truncated laws at windows short of their range
ORACLE_LAWS = {
    "q1.5": (CouplingLaw.power_law(1.5), 0.3, None),
    "q2": (CouplingLaw.power_law(2.0), 0.3, None),
    "q2.5": (CouplingLaw.power_law(2.5), 0.3, None),
    "q3": (CouplingLaw.power_law(3.0), 0.5, None),
    "exponential": (CouplingLaw.exponential(0.5), 0.5, None),
    "truncated q2 R6": (CouplingLaw.power_law(2.0), 0.3, 6),
    "truncated exponential R5": (CouplingLaw.exponential(0.5, 2.0), 0.7, 5),
}


# terms of the 40-digit bracket at the rows the longrange_bounds benchmark measures,
# where 3000 leave it wider than 1e-20 (q3 at n = 16 needs well above 30,000)
RN_TERMS = {("q2", 16): 4000, ("q2", 100): 16000, ("q1.5", 3): 3000, ("exponential", 8): 3000}


@pytest.mark.parametrize("name, n", [(name, n) for name in sorted(ORACLE_LAWS) for n in (1, 2, 4)] + list(RN_TERMS))
def test_rn_series_contains_the_40_digit_series(name, n):
    law, beta, last = ORACLE_LAWS[name]
    gb = g_variation_bound(PairPotential(law, beta, last), n)
    rn = gb.rn
    assert not rn.divergent and rn.enclosure.rel_width() <= 2e-10
    with mpmath.workdps(40):
        lo, hi = exact_rn(beta, law, n, K=RN_TERMS.get((name, n), 3000), last=last)
        assert hi - lo <= mpmath.mpf(10) ** -20 * lo  # ten digits finer than the enclosure
        assert mpmath.mpf(rn.enclosure.lo) <= lo and hi <= mpmath.mpf(rn.enclosure.hi)
        # the bound is 2 log(1 + 1/R_n), which falls as R_n grows
        assert mpmath.mpf(gb.bound.lo) <= 2 * mpmath.log1p(1 / hi)
        assert 2 * mpmath.log1p(1 / lo) <= mpmath.mpf(gb.bound.hi)


def test_inverse_square_rows_stop_on_the_sharper_remainder():
    # u_k x / (1 - x) bounds the remainder from below where P_inf = 0 cannot;
    # the P_inf floor alone needed 7321 terms at this row
    rn = rn_series(PairPotential(CouplingLaw.power_law(2.0), 0.3), 100)
    assert rn.terms_used < 7321
    assert rn.enclosure.rel_width() <= 1.01e-10 and not rn.capped


def test_underflowing_window_tail_gives_a_lower_enclosure():
    p = PairPotential(beta=1.0, coupling=CouplingLaw.exponential(1.0))
    rn = rn_series(p, 800)
    assert not rn.divergent
    assert math.isinf(rn.enclosure.hi) and rn.enclosure.lo > 1e300
    bound = g_variation_bound(p, 800).bound
    assert bound.lo == 0.0 and bound.hi < 1e-300


# -- expm1 -------------------------------------------------------------------------


@given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=0.0, max_value=1.0))
def test_expm1_encloses(x, spread):
    iv = Interval(x, x + spread).expm1()
    with mpmath.workdps(DPS):
        for e in (x, x + spread):
            assert contains(iv, mpmath.expm1(mpmath.mpf(e)))
