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

from artifact import CouplingLaw, FSequence, PairPotential, g_variation_bound, rn_series, tail_variation
from artifact.cli import main
from artifact.intervals import Interval

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


# -- beta = 0 is the zero interaction ----------------------------------------------


def test_zero_beta_has_range_zero():
    p = PairPotential(beta=0.0, coupling=CouplingLaw.power_law(2.0))
    assert p.finite_range == 0
    gb = g_variation_bound(FSequence.from_potential(p), 3)
    assert gb.certified_zero
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


def exact_rn(beta, law, n, K=400):
    """R_n for an exponential law at DPS digits, bracketed after K terms."""
    b = mpmath.mpf(beta)
    c = mpmath.exp(-b * exact_tail(law, n + 1))
    u, s = mpmath.mpf(1), mpmath.mpf(0)
    for k in range(K):
        u *= c * mpmath.exp(-b * exact_tail(law, k + 1))
        s += u
    e = mpmath.exp(-mpmath.mpf(law.rate))
    p_inf = mpmath.exp(-b * mpmath.mpf(law.amplitude) * e / (1 - e) ** 2)
    return s + p_inf * c ** (K + 1) / (1 - c), s + u * c / (1 - c)


@pytest.mark.parametrize("n", [12, 40])
def test_exponential_series_converges_whatever_the_window(n):
    law = CouplingLaw.exponential(1.0)
    F = FSequence.from_potential(PairPotential(beta=1.0, coupling=law))
    t0 = time.perf_counter()
    gb = g_variation_bound(F, n)
    assert time.perf_counter() - t0 < 1.0
    assert gb.bound.rel_width() <= 1e-6
    assert "term cap" not in gb.rn.certificate
    with mpmath.workdps(DPS):
        lo, hi = exact_rn(1.0, law, n)
        assert mpmath.mpf(gb.rn.enclosure.lo) <= lo and hi <= mpmath.mpf(gb.rn.enclosure.hi)


def test_underflowing_window_tail_gives_a_lower_enclosure():
    F = FSequence.from_potential(PairPotential(beta=1.0, coupling=CouplingLaw.exponential(1.0)))
    rn = rn_series(F, 800)
    assert not rn.divergent and not rn.is_finite()
    assert math.isinf(rn.enclosure.hi) and rn.enclosure.lo > 1e300
    bound = g_variation_bound(F, 800).bound
    assert bound.lo == 0.0 and bound.hi < 1e-300


# -- expm1 -------------------------------------------------------------------------


@given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=0.0, max_value=1.0))
def test_expm1_encloses(x, spread):
    iv = Interval(x, x + spread).expm1()
    with mpmath.workdps(DPS):
        for e in (x, x + spread):
            assert contains(iv, mpmath.expm1(mpmath.mpf(e)))
