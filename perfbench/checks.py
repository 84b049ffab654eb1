"""Output checks computed apart from gibbs1d.

Each ``check_*`` function takes parsed program output plus the law it was
run on (the ``potential`` mapping of a config) and returns a list of error
strings; an empty list means the output passed.  Reference values come from
``mpmath`` (Hurwitz zeta, closed forms at 40 digits), from sums and
eigenvectors computed here in NumPy, or from properties the method must
have (thresholds, symmetries, row sums).
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 40

LOG_RATIO_REL_TOL = 1e-9  # the benchmark's own R_n sum is a float sum; see README
GFUN_TOL = 1e-12
CESARO_TOL = 1e-12
PI_WINDOW_TOL = 1e-12
PERSISTENCE_SIGMAS = 6.0
PERSISTENCE_BATCHES = 64
SPOT_ROWS = 6

HOLDS, FAILS = "Holds", "Fails"
BERNOULLI = "unique Gibbs + Bernoulli"
STRENGTH_RANK = {"unique Gibbs + Bernoulli": 3, "unique Gibbs": 2, "unique T-invariant Gibbs": 1}
CRITERIA = (
    "dobrushin", "ruelle", "coelho_quas", "berbee", "variation_slope",
    "product_blocksum", "jop_blocksum", "bcjo", "scaled_limsup",
)


# -- the law, computed here ------------------------------------------------------


def finite_range(law: dict):
    """Largest distance with a nonzero coupling, or None for an infinite range."""
    R = law.get("truncation_range")
    if law["kind"] == "zero":
        return 0
    if law["kind"] == "finite_table":
        nz = [j for j, v in enumerate(law["values"], 1) if v != 0.0]
        base = nz[-1] if nz else 0
        return base if R is None else min(base, R)
    return R


def strength(law: dict, j: int):
    """J(j) in mpmath, truncation applied."""
    R = law.get("truncation_range")
    if R is not None and j > R:
        return mpmath.mpf(0)
    kind = law["kind"]
    amp = mpmath.mpf(law.get("amplitude", 1.0))
    if kind == "power_law":
        return amp * mpmath.mpf(j) ** (-mpmath.mpf(law["q"]))
    if kind == "exponential":
        return amp * mpmath.exp(-mpmath.mpf(law["rate"]) * j)
    if kind == "finite_table":
        vals = law["values"]
        return mpmath.mpf(vals[j - 1]) if j <= len(vals) else mpmath.mpf(0)
    return mpmath.mpf(0)


def tail_exact(law: dict, n: int):
    """sum_{j >= n} J(j) at 40 digits: Hurwitz zeta, a geometric closed form or a finite sum."""
    R = finite_range(law)
    if R is not None:
        return mpmath.fsum(strength(law, j) for j in range(n, R + 1))
    amp = mpmath.mpf(law.get("amplitude", 1.0))
    if law["kind"] == "power_law":
        return amp * mpmath.zeta(mpmath.mpf(law["q"]), n)
    r = mpmath.mpf(law["rate"])
    return amp * mpmath.exp(-r * n) / (1 - mpmath.exp(-r))


def tail_array(law: dict, m_max: int) -> np.ndarray:
    """T(m) = sum_{j >= m} J(j) for m = 1 .. m_max as float64 (index m - 1).

    Power laws are anchored at the Hurwitz zeta value beyond m_max and summed
    backwards, smallest terms first, so each entry carries a relative error
    of about (m_max - m) float64 roundings.
    """
    m = np.arange(1, m_max + 1, dtype=np.float64)
    R = finite_range(law)
    amp = float(law.get("amplitude", 1.0))
    if law["kind"] == "exponential" and R is None:
        r = float(law["rate"])
        return amp * np.exp(-r * m) / -math.expm1(-r)
    if law["kind"] == "power_law":
        terms = amp * m ** (-float(law["q"]))
        anchor = 0.0 if R is not None else float(tail_exact(law, m_max + 1))
    else:
        vals = [float(v) for v in law.get("values", ())][:m_max]
        terms = np.zeros(m_max)
        terms[: len(vals)] = vals
        anchor = 0.0
    if R is not None:
        terms[R:] = 0.0
    return np.cumsum(terms[::-1])[::-1] + anchor


def log_ratio_bound(law: dict, n: int) -> float:
    """2 * log1p(1 / R_n), with R_n = sum_{k>=0} prod_{j<=k} exp(-beta (T(j+1) + T(n+1))).

    Every factor is at most c = exp(-beta T(n+1)) < 1, so the remainder after
    K terms is at most u_K c / (1 - c); K doubles until that is below 1e-14
    of the sum.  Returns 0.0 when T(n+1) = 0 (R_n diverges).
    """
    beta = float(law["beta"])
    t_win = float(tail_exact(law, n + 1))
    if beta * t_win == 0.0:
        return 0.0
    one_minus_c = -math.expm1(-beta * t_win)
    K = int(50.0 / one_minus_c) + 64
    while True:
        T = tail_array(law, K + 1)
        log_u = -beta * np.cumsum(T[:K]) - beta * t_win * np.arange(1, K + 1)
        u = np.exp(log_u)
        total = math.fsum(u)
        remainder = u[-1] * (1.0 - one_minus_c) / one_minus_c
        if remainder <= 1e-14 * total:
            return 2.0 * math.log1p(1.0 / total)
        K *= 2


def markov_g(law: dict):
    """Exact g-chain of a finite-range law from its transfer matrix, computed here.

    A state holds the last R letters, newest in bit 0 (bit 1 = +); a step with
    letter c from state u has weight exp(0.5 beta c sum_d J(d) x_{t-d}).
    Returns (prob_plus per state, stationary law of the states).
    """
    R = finite_range(law)
    beta = float(law["beta"])
    J = [float(strength(law, d)) for d in range(1, R + 1)]
    size = 1 << R
    M = np.zeros((size, size))
    for u in range(size):
        field = sum(J[d - 1] * (2.0 * ((u >> (d - 1)) & 1) - 1.0) for d in range(1, R + 1))
        for bit, c in ((0, -1.0), (1, 1.0)):
            M[u, ((u << 1) | bit) & (size - 1)] = math.exp(0.5 * beta * c * field)
    vals, vecs = np.linalg.eig(M)
    k = int(np.argmax(vals.real))
    lam, r = vals[k].real, np.abs(vecs[:, k].real)
    P = M * r[None, :] / (lam * r[:, None])
    plus = np.array([P[u, ((u << 1) | 1) & (size - 1)] for u in range(size)])
    w, left = np.linalg.eig(P.T)
    pi = np.abs(left[:, int(np.argmin(np.abs(w - 1.0)))].real)
    return plus, pi / pi.sum()


# -- parsing -------------------------------------------------------------------


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def spot_rows(seed: int, label: str, n_max: int) -> list:
    """The seeded rows a run spot-checks for one config."""
    rng = random.Random(f"{seed}:{label}")
    return sorted(rng.sample(range(1, n_max + 1), min(SPOT_ROWS, n_max)))


def _num(cell: str) -> float:
    """A CSV cell as a float; the empty cell (no value) reads as NaN."""
    return float(cell) if cell else math.nan


# -- checks ----------------------------------------------------------------------


def check_tails(law: dict, rows: list, spots: list) -> list:
    """Each spot row's tail-variation enclosure contains beta * T(n)."""
    errors = []
    beta = mpmath.mpf(law["beta"])
    by_n = {int(r["n"]): r for r in rows}
    for n in spots:
        row = by_n.get(n)
        if row is None:
            errors.append(f"bounds row {n} missing")
            continue
        exact = beta * tail_exact(law, n)
        lo, hi = mpmath.mpf(_num(row["tail_variation_lo"])), mpmath.mpf(_num(row["tail_variation_hi"]))
        if not lo <= exact <= hi:
            errors.append(f"tail row {n}: [{lo}, {hi}] misses {mpmath.nstr(exact, 20)}")
    return errors


def check_log_ratio(law: dict, rows: list, spots: list) -> list:
    """Each spot row's log-ratio bound contains 2 log1p(1/R_n) within LOG_RATIO_REL_TOL."""
    errors = []
    by_n = {int(r["n"]): r for r in rows}
    for n in spots:
        row = by_n.get(n)
        if row is None:
            continue
        b = log_ratio_bound(law, n)
        lo, hi = _num(row["log_r_bound_lo"]), _num(row["log_r_bound_hi"])
        slack = LOG_RATIO_REL_TOL * abs(b)
        if not (lo - slack <= b <= hi + slack):
            errors.append(f"log-ratio row {n}: [{lo!r}, {hi!r}] misses {b!r}")
    return errors


def check_finite_range_bounds(law: dict, rows: list) -> list:
    """empirical_log_r <= log_r_bound_hi everywhere; both are 0 from depth R on."""
    R = finite_range(law)
    errors = []
    for row in rows:
        n = int(row["n"])
        hi = _num(row["log_r_bound_hi"])
        emp = _num(row["empirical_log_r"])
        if not math.isnan(emp) and not emp <= hi:
            errors.append(f"row {n}: empirical {emp!r} above bound {hi!r}")
        if n >= R:
            if _num(row["log_r_bound_lo"]) != 0.0 or hi != 0.0:
                errors.append(f"row {n}: bound not exactly 0 at depth >= R = {R}")
            if not math.isnan(emp) and emp != 0.0:
                errors.append(f"row {n}: empirical {emp!r} not 0 at depth >= R = {R}")
    return errors


def check_verdicts(law: dict, doc: dict) -> list:
    """Verdicts follow the inverse-square thresholds and the summability of the law."""
    errors = []
    got = {v["criterion"]: v["outcome"] for v in doc["verdicts"]}
    if tuple(sorted(got)) != tuple(sorted(CRITERIA)):
        return [f"criteria set {sorted(got)}"]
    R = finite_range(law)
    kind = law["kind"]

    def expect(name, holds, why):
        if (got[name] == HOLDS) != holds:
            errors.append(f"{name} is {got[name]}, expected {'Holds' if holds else 'not Holds'} ({why})")

    if R is None and kind == "power_law":
        q = float(law["q"])
        if q <= 2.0 and got["ruelle"] != FAILS:
            errors.append(f"ruelle is {got['ruelle']} for q = {q} <= 2")
        if q == 2.0:
            c = Fraction(law["beta"]) * Fraction(law.get("amplitude", 1.0))
            expect("berbee", c <= Fraction(1, 4), f"c = {float(c)} vs 1/4")
            expect("variation_slope", c < Fraction(1, 2), f"c = {float(c)} vs 1/2")
            expect("product_blocksum", c < Fraction(1, 2), f"c = {float(c)} vs 1/2")
            expect("scaled_limsup", c <= Fraction(1, 2), f"c = {float(c)} vs 1/2")
        elif q > 2.0:
            expect("ruelle", True, "summable weighted couplings")
    else:
        expect("ruelle", True, "summable weighted couplings")
    held = [v["conclusion_strength"] for v in doc["verdicts"] if v["outcome"] == HOLDS]
    strongest = max(held, key=STRENGTH_RANK.__getitem__, default=None)
    if doc["strongest_conclusion"] != strongest:
        errors.append(f"strongest conclusion {doc['strongest_conclusion']!r} != {strongest!r} from the verdicts")
    if R is not None and doc["strongest_conclusion"] != BERNOULLI:
        errors.append(f"finite range {R} certifies {doc['strongest_conclusion']!r}")
    return errors


def check_gfun(law: dict, rows: list, summary: dict) -> list:
    """Nearest neighbour: closed-form rows.  Any range: rows sum to 1, spin-flip
    symmetry g(s|u) = g(-s|-u), stationary P(+) = 1/2."""
    errors = []
    R = finite_range(law)
    beta = float(law["beta"])
    if len(rows) != max(1, 1 << R):
        errors.append(f"gfun has {len(rows)} rows for range {R}")
    table = {r["past"]: (_num(r["prob_minus"]), _num(r["prob_plus"])) for r in rows}
    flip = str.maketrans("+-", "-+")
    for past, (pm, pp) in table.items():
        if not abs(pm + pp - 1.0) <= GFUN_TOL:
            errors.append(f"gfun row {past!r} sums to {pm + pp!r}")
        mirror = table.get(past.translate(flip))
        if mirror is None or not abs(pp - mirror[0]) <= GFUN_TOL:
            errors.append(f"gfun row {past!r} breaks spin-flip symmetry")
    if R == 1 and law["kind"] == "finite_table" and len(law["values"]) == 1:
        J = float(law["values"][0])
        for past, sign in (("+", 1.0), ("-", -1.0)):
            want = math.exp(sign * beta * J / 2) / (2 * math.cosh(beta * J / 2))
            if past in table and not abs(table[past][1] - want) <= GFUN_TOL:
                errors.append(f"gfun row {past!r}: prob_plus {table[past][1]!r} != {want!r}")
    if not abs(summary["stationary_prob_plus"] - 0.5) <= GFUN_TOL:
        errors.append(f"stationary_prob_plus {summary['stationary_prob_plus']!r} != 1/2")
    return errors


def persistence_closed_form(law: dict) -> float:
    """P(x_{t+1} = x_t) under the stationary g-chain."""
    R = finite_range(law)
    plus, pi = markov_g(law)
    newest_plus = np.arange(1 << R) & 1
    stay = np.where(newest_plus == 1, plus, 1.0 - plus)
    return float(pi @ stay)


def check_sample(law: dict, letters: np.ndarray) -> list:
    """Sampled persistence within PERSISTENCE_SIGMAS batch-means standard errors."""
    stay = (letters[1:] == letters[:-1]).astype(np.float64)
    batches = np.array([b.mean() for b in np.array_split(stay, PERSISTENCE_BATCHES)])
    est = float(stay.mean())
    se = float(batches.std(ddof=1) / math.sqrt(PERSISTENCE_BATCHES))
    want = persistence_closed_form(law)
    if not abs(est - want) <= PERSISTENCE_SIGMAS * se:
        return [f"persistence {est:.6f} vs {want:.6f}: {abs(est - want) / se:.1f} standard errors"]
    return []


def check_couple(law: dict, table: np.ndarray) -> list:
    """Columns agree with each other, and no disagreement follows R consecutive agreements."""
    R = finite_range(law)
    a, b, d = table[:, 1], table[:, 2], table[:, 3]
    if not np.array_equal(d, (a != b).astype(d.dtype)):
        return ["disagree column does not match the letters"]
    agree = d == 0
    run = np.convolve(agree.astype(np.int64), np.ones(R, dtype=np.int64), mode="valid")
    coupled = np.nonzero(run == R)[0]
    if coupled.size and np.any(d[coupled[0] + R :]):
        return [f"chains disagree after {R} consecutive agreements ending at site {coupled[0] + R - 1}"]
    return []


def check_cesaro(plus: float, minus: float) -> list:
    """Spin-flip symmetry: P_plus(x_i = +) + P_minus(x_i = +) = 1 at every shift."""
    if not abs(plus + minus - 1.0) <= CESARO_TOL:
        return [f"Cesaro estimates sum to {plus + minus!r}"]
    return []


def check_pi_window(law: dict, past: int, s: int, value: float, g_exact: float) -> list:
    """pi_window_at_zero at a long window equals the closed form g(s | past) and g_exact_markov."""
    beta = float(law["beta"]) * float(law["values"][0])
    want = math.exp(0.5 * beta * s * past) / (2.0 * math.cosh(0.5 * beta))
    errors = []
    if not abs(value - want) <= PI_WINDOW_TOL:
        errors.append(f"pi_window_at_zero = {value!r}, closed form {want!r}")
    if not abs(value - g_exact) <= PI_WINDOW_TOL:
        errors.append(f"pi_window_at_zero = {value!r}, g_exact_markov {g_exact!r}")
    return errors
