"""Sufficient uniqueness criteria evaluated as certified verdicts.

Every check here tests the *hypothesis* of one sufficient condition for
uniqueness of the Gibbs state (or of the shift-invariant Gibbs state) of a
pair coupling.  The vocabulary is deliberately one-sided:

  Holds         the hypothesis is certified by a closed form,
  Fails         the hypothesis is certified to fail; nothing follows about
                non-uniqueness, since none of the criteria has a converse,
  Inconclusive  no closed form decides either way at the available widths.

Certification policy: a verdict other than Inconclusive must rest on a
closed-form argument (exact rational threshold comparison, an interval
enclosure strictly clear of the threshold, or a structural divergence or
comparison witness).  Finite truncations and numeric partial sums alone never
certify anything; they only appear in diagnostics.

Exact thresholds are compared in rational arithmetic.  The power-law family
with decay exponent 2 has critical strength c = beta * amplitude = 1/2 for
several criteria, and enclosure padding would misreport the exactly-critical
case as a straddle; Fractions keep the boundary sharp.

Every check takes the ``PairPotential`` itself and is scalar Python.  The
Dobrushin sum is enumerated here over achievable fields (``dobrushin_sum``),
and the two checks on the g-variation bound read only the interaction range
and the decay envelope of ``ratiobound``, so evaluating the criteria loads
neither the exact kernels nor the R_n rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import wraps
from typing import Optional, Sequence

from ._record import record, set_field
from .intervals import Interval, ZERO, _down, _exp, _up
from .potential import (
    DOBRUSHIN_MAX_RANGE,
    PairPotential,
    coelho_quas_sum,
    family,
    fraction_interval,
    required_range,
    ruelle_sum,
    slope_certificate,
    strength_fraction,
)
from .ratiobound import log_r_bound_envelope

HOLDS = "Holds"
FAILS = "Fails"
INCONCLUSIVE = "Inconclusive"

UNIQUE_GIBBS_BERNOULLI = "unique Gibbs + Bernoulli"
UNIQUE_GIBBS = "unique Gibbs"
UNIQUE_TINV_GIBBS = "unique T-invariant Gibbs"

_OUTCOMES = (HOLDS, FAILS, INCONCLUSIVE)
_STRENGTH_RANK = {
    UNIQUE_GIBBS_BERNOULLI: 3,
    UNIQUE_GIBBS: 2,
    UNIQUE_TINV_GIBBS: 1,
}

# alpha grid for the product/block-sum search; every entry exceeds 1/2 because
# the dyadic block sums need squared-profile exponents above 1.
DEFAULT_ALPHA_GRID = (0.51, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)

_HALF = Fraction(1, 2)


@record
class Verdict:
    """Outcome of one criterion on one input.

    ``margin`` is the check's distance to its threshold as an enclosure,
    oriented so that a certainly-positive margin accompanies Holds and a
    certainly-nonpositive one accompanies Fails; it is None when the failure
    is structural (an infinite limsup, a divergent comparison series) or the
    check never reached a scalar comparison.  ``certificate`` names the closed
    form or witness behind the outcome and is the only place to look for the
    reasoning; ``conclusion_strength`` states what the criterion would buy if
    its hypothesis holds.
    """

    criterion: str
    outcome: str
    margin: Optional[Interval]
    certificate: str
    conclusion_strength: str

    def __post_init__(self) -> None:
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.conclusion_strength not in _STRENGTH_RANK:
            raise ValueError(f"unknown conclusion {self.conclusion_strength!r}")


# name of a check in this module -> (its criterion, the criterion's conclusion strength)
_CRITERIA: dict = {}


def _criterion(name: str, strength: str):
    """Make the decorated function the check of criterion ``name``, whose
    hypothesis buys ``strength``: it returns (outcome, margin, certificate),
    and its callers get the Verdict."""

    def register(decide):
        @wraps(decide)
        def check(*args, **kwargs) -> Verdict:
            return Verdict(name, *decide(*args, **kwargs), strength)

        _CRITERIA[decide.__name__] = name, strength
        return check

    return register


def _sign(margin: Interval) -> str:
    """Holds on a certainly positive margin, Fails on a certainly nonpositive one."""
    return HOLDS if margin.lo > 0.0 else FAILS if margin.hi <= 0.0 else INCONCLUSIVE


def _pad(x: float, ulps: int = 4) -> Interval:
    return Interval(_down(x, ulps), _up(x, ulps))


def _quote(x: Fraction) -> str:
    """A rational as its nearest double prints to 10 digits or, past the
    double range, as the enclosure ``fraction_interval`` gives it."""
    try:
        return f"{float(x):.10g}"
    except OverflowError:
        iv = fraction_interval(x)
        return f"[{iv.lo:.10g}, {iv.hi:.10g}]"


def _gamma_interval(a: float) -> Interval:
    """Enclosure of the Gamma function at a point of (0, 1].

    CPython's math.gamma is faithful to a few ulp over this range; the pad is
    generous relative to every margin the checks ever compare against it.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return _pad(math.gamma(a))


_EULER_GAMMA = _pad(0.5772156649015329)  # float(numpy.euler_gamma)


# -- single-site influence ------------------------------------------------------


@_criterion("dobrushin", UNIQUE_GIBBS)
def check_dobrushin(p: PairPotential) -> Verdict:
    """Dobrushin's one-site condition: total influence strictly below 2.

    The sum runs over both letters at the tagged site and over single flipped
    environment sites on both sides, worst case over the remaining
    environment letters (that literal reading is part of the certificate).
    For truncated couplings the mass beyond the cutoff enters as explicit
    one-sided slack: each in-range influence term moves by at most
    beta * tail under the extra field (logistic slope 1/4, field shift at
    most 2 * tail, times the 2-letter prefactor), and fully out-of-range
    flips add at most 2 * beta * tail in total.  Widening the achievable
    field set never lowers a max, so the slack is one-sided.
    """
    base = dobrushin_sum(p)
    pad = 1e-12 * max(1.0, base)
    total = Interval(max(0.0, base - pad), base + pad)
    note = "exact finite-range enumeration"
    tail = Interval.point(p.beta) * p.beyond_range_tail()
    if tail.hi > 0.0:
        R = p.finite_range
        slack_hi = (tail * float(2 * R + 2)).hi
        total = total + Interval(0.0, slack_hi)
        note = (
            f"enumeration over the {R}-range truncation plus one-sided cutoff "
            f"slack in [0, {slack_hi:.6g}]"
        )
    margin = 2.0 - total
    certificate = (
        f"one-site influence sum enclosed in [{total.lo:.10g}, {total.hi:.10g}] "
        f"against the strict threshold 2 ({note}); reading: sum over both "
        "letters at the tagged site and over single flipped sites, sup over "
        "the remaining environment"
    )
    return _sign(margin), margin, certificate


def _expit(x: float) -> float:
    """The logistic function by the formula scipy.special.expit uses for doubles."""
    return 1.0 / (1.0 + _exp(-x))


def _sum_set(weights) -> list:
    """Every sum of -2w, 0 or +2w over ``weights``, accumulated left to right."""
    sums = [0.0]
    for w in weights:
        sums = [s + t for s in sums for t in (-2.0 * w, 0.0, 2.0 * w)]
    return sums


def dobrushin_sum(p: PairPotential) -> float:
    """Total single-site interdependence sum_s sum_{j != 0} sup |delta_j phi|.

    The single-site kernel at 0 depends on the neighbor field
    h = sum_d J(d) (x_{-d} + x_d) through phi(+|h) = expit(beta * h), so the
    supremum over configurations differing only at distance d is an
    extremization over achievable fields: every other distance contributes
    -2, 0, or +2 times its coupling, the partner site of the flipped one
    contributes either sign once.  Spin-flip symmetry pairs the site j = -d
    with j = +d and the letter - with +, giving the factor 4.

    The flip gap g(x) = expit(beta (x + J_d)) - expit(beta (x - J_d)) at
    field x is even in x, and |g| does not increase with |x|: expit' is even
    and unimodal.  The achievable fields x = h +- J_d form a set symmetric
    about 0, so the supremum sits at the one closest to 0, at distance
    m_d = min_h |h + J_d| over the sum set h of the other distances, found
    by meeting in the middle: the sums a of the first half are sorted, and
    for each sum b of the second half a bisection finds the a closest to
    -(b + J_d), O(R^2 3^(R/2)) time, a few ms at R = 12.  The gap is evaluated
    at +m_d and at -m_d, both achievable, and the larger kept, because the
    two roundings of g need not agree.
    """
    R = required_range(p)
    if R == 0:
        return 0.0
    if R > DOBRUSHIN_MAX_RANGE:
        raise ValueError(f"enumeration guard: R <= {DOBRUSHIN_MAX_RANGE}")
    J = [p.strength(d) for d in range(1, R + 1)]
    total = 0.0
    for d, Jd in enumerate(J):
        others = J[:d] + J[d + 1 :]
        half = (len(others) + 1) // 2
        head = sorted(_sum_set(others[:half]))
        m = math.inf
        for b in _sum_set(others[half:]):
            i = bisect_left(head, -(b + Jd))
            m = min(m, *(abs(a + b + Jd) for a in head[max(i - 1, 0) : i + 1]))
        total += max(abs(_expit(p.beta * (x + Jd)) - _expit(p.beta * (x - Jd))) for x in (m, -m))
    return 4.0 * total


# -- weighted-influence series --------------------------------------------------


def _series_outcome(sv, flavor: str):
    if sv.divergent:
        return FAILS, None, f"{flavor} diverges: {sv.certificate}"
    enc = sv.enclosure
    certificate = (
        f"{flavor} encloses to [{enc.lo:.10g}, {enc.hi:.10g}] ({sv.certificate}); "
        "the unique invariant state is additionally Bernoulli"
    )
    return HOLDS, None, certificate


@_criterion("ruelle", UNIQUE_TINV_GIBBS)
def check_ruelle(p: PairPotential) -> Verdict:
    """Finiteness of the diameter-weighted influence over all sets through a site."""
    return _series_outcome(ruelle_sum(p), "diameter-weighted influence series")


@_criterion("coelho_quas", UNIQUE_TINV_GIBBS)
def check_coelho_quas(p: PairPotential) -> Verdict:
    """One-sided variant: sets anchored at their leftmost site."""
    return _series_outcome(coelho_quas_sum(p), "anchored diameter-weighted influence series")


# -- product-series divergence (Berbee) ------------------------------------------


@_criterion("berbee", UNIQUE_GIBBS)
def check_berbee(p: PairPotential) -> Verdict:
    """Berbee's condition: divergence of the symmetric-window product series.

    The n-th term is the product of the window inf-ratios over the first n
    windows of the alternating enumeration.  Window 2k is [-k, k] and window
    2k+1 is [-k, k+1]; their log inf-ratios are -2 beta T(k+1) and
    -2 beta T(k+1) + beta J(k+1).  Divergence is decided structurally per
    family:

      * summable weighted couplings: terms decrease to the positive limit
        exp(beta * (T(1) - 4 W)), and a series with terms bounded below
        diverges;
      * quadratic power law, strength c: both parities of the 2K-th terms are
        squeezed between multiples of (K+1)^(-4c), so the series diverges
        exactly when 4c <= 1 (harmonic minorant at the boundary, p-series
        majorant above it);
      * heavier power laws: partial tail sums grow like K^(2-q), the terms
        are exp(-Theta(K^(2-q))), and the series converges by integral
        comparison.
    """
    fam = family(p)
    if fam in ("finite", "exponential", "power_summable"):
        rs = ruelle_sum(p)
        t1 = Interval.point(p.beta) * p.coupling_tail(1)
        log_floor = t1 - rs.enclosure * 4.0
        floor = log_floor.exp()
        what = "beta*T(1) minus four times the weighted total"
        if floor.lo > 0.0:
            bound, margin = f"{floor.lo:.10g} > 0 (exp of {what})", floor
        elif math.isinf(log_floor.lo):  # the tails leave the double range, but L is still a real number
            bound = f"exp(L) > 0, with L = {what}, a real number whose enclosure overflows the double range"
            margin = None
        else:  # exp(L) underflows a double: the floor is stated through L
            bound, margin = f"exp(L) > 0, with L = {what} in [{log_floor.lo:.10g}, {log_floor.hi:.10g}]", None
        certificate = (
            f"product terms decrease to a limit at least {bound}, so the series "
            "diverges term-by-term"
        )
        return HOLDS, margin, certificate
    if fam == "power_critical":
        c = strength_fraction(p)
        margin = fraction_interval(1 - 4 * c)
        if 4 * c <= 1:
            certificate = (
                f"term bound: the (2K+1)-th product term is at least "
                f"exp(-4c(2+log 2)) * (K+1)^(-4c) with 4c = {_quote(4 * c)} <= 1, "
                "a harmonic minorant"
            )
            return HOLDS, margin, certificate
        certificate = (
            f"term bound: both parities are at most exp(c(S+2)) * (K+1)^(-4c) "
            f"with 4c = {_quote(4 * c)} > 1, a convergent p-series majorant"
        )
        return FAILS, margin, certificate
    certificate = (
        f"tails obey T(k) >= amp * k^(1-q)/(q-1) for q = {p.coupling.q:.10g} < 2, so "
        "the terms are exp(-Theta(K^(2-q))) and the series converges by "
        "integral comparison"
    )
    return FAILS, None, certificate


# -- tail-variation slope ---------------------------------------------------------


@_criterion("variation_slope", UNIQUE_GIBBS_BERNOULLI)
def check_variation_slope(p: PairPotential) -> Verdict:
    """Hyperbolic-decay test: tail variation at most c/n + summable, c < 1/2.

    Holds needs both the slope enclosure strictly below 1/2 and a certified
    summable remainder; Fails needs the slope, the family's exact value, at or
    above 1/2.  A straddling enclosure stays Inconclusive.
    """
    slope, summable = slope_certificate(p)
    margin = 0.5 - slope
    detail = (
        f"tail-variation slope in [{slope.lo:.10g}, {slope.hi:.10g}] against the "
        f"strict threshold 1/2; remainder summable: {summable}"
    )
    if slope.hi < 0.5 and summable:
        return HOLDS, margin, detail
    if slope.lo >= 0.5:
        return FAILS, margin, detail + (
            "; the slope is the family's exact value, so no smaller hyperbolic majorant exists"
        )
    return INCONCLUSIVE, margin, detail


# -- product growth with dyadic block sums ----------------------------------------


@_criterion("product_blocksum", UNIQUE_GIBBS_BERNOULLI)
def check_product_blocksum(
    p: PairPotential,
    alpha: Optional[float] = None,
    alpha_grid: Optional[Sequence[float]] = None,
) -> Verdict:
    """Paired growth test: polynomial ratio products plus vanishing block sums.

    The hypothesis pair asks for the running sup-ratio product to be
    O(n^(1-alpha)) while the dyadic block sums of the 2*alpha-th powers of the
    right-tail log-ratios vanish, for a single alpha in (0, 1].  The check
    searches one candidate list: ``alpha`` alone when given, else
    ``alpha_grid``, else DEFAULT_ALPHA_GRID plus the family's natural
    exponent 1 - c on the critical power law.  It holds when some candidate
    is admissible and quotes the largest admissible alpha.  All comparisons
    against the family closed forms are exact rational arithmetic.
    """
    grid = (alpha,) if alpha is not None else alpha_grid
    if grid is not None and not (grid and all(0.0 < a <= 1.0 for a in grid)):
        raise ValueError("alpha must lie in (0, 1]")
    candidates = [Fraction(a) for a in (DEFAULT_ALPHA_GRID if grid is None else grid)]
    fam = family(p)

    if fam == "power_heavy":
        certificate = (
            f"running log-product grows like n^(2-q) for q = {p.coupling.q:.10g} < 2 "
            "(integral comparison), so no alpha gives a polynomial product bound"
        )
        return FAILS, None, certificate

    if fam == "power_critical":
        c = strength_fraction(p)
        margin = fraction_interval(_HALF - c)
        if grid is None and c < _HALF:
            natural = 1 - c
            if natural not in candidates:
                candidates.append(natural)
        admissible = [a for a in candidates if a > _HALF and c <= 1 - a]
        if admissible:
            a = max(admissible)
            certificate = (
                f"alpha = {_quote(a)}: the log-product partial sums are "
                f"c*log n + O(1) with c = {_quote(c)} <= 1 - alpha, and the "
                "dyadic block sums are at most c^(2a) (2^m - 1)^(1-2a)/(2a-1) -> 0 "
                "since 2*alpha > 1"
            )
            return HOLDS, margin, certificate
        if c >= _HALF:
            certificate = (
                f"no admissible alpha: the product bound needs alpha <= 1 - c "
                f"= {_quote(1 - c)} while the block sums need alpha > 1/2"
            )
            return FAILS, margin, certificate
        certificate = (
            f"strength c = {_quote(c)} < 1/2 admits alphas in (1/2, 1-c], but "
            "none of the supplied candidates lies in that window"
        )
        return INCONCLUSIVE, margin, certificate

    # summable families: the product converges, so alpha = 1 always serves; dyadic
    # block sums of (beta*T(i+1))**(2*alpha) vanish for every alpha > 0 when the
    # tails vanish or decay exponentially, else when 2*alpha*(q-1) > 1
    q = Fraction(p.coupling.q)
    admissible = [a for a in candidates if fam != "power_summable" or 2 * a * (q - 1) > 1]
    margin = Interval.point(0.5)
    if admissible:
        a = max(admissible)
        certificate = (
            f"alpha = {_quote(a)}: the weighted coupling total is finite, so the "
            "ratio product is bounded (O(n^0)), and the block sums decay "
            "geometrically in the block index"
        )
        return HOLDS, margin, certificate
    a = max(candidates)
    certificate = (
        f"supplied alpha = {_quote(a)} leaves block-sum exponent "
        f"2*alpha*(q-1) = {_quote(2 * a * (q - 1))} <= 1, "
        "so the dyadic sums do not certifiably vanish (larger alpha would work)"
    )
    return INCONCLUSIVE, margin, certificate


# -- block sums of squared conditional-law ratios ---------------------------------


@_criterion("jop_blocksum", UNIQUE_TINV_GIBBS)
def check_jop_blocksum(p: PairPotential) -> Verdict:
    """Vanishing geometric-block sums of squared log-ratios of the chain law.

    Blocks are (ceil(lam^(m-1)), ceil(lam^m)]; the hypothesis holds for one
    growth factor lam > 1 exactly when it holds for every such factor.
    Margins report the decay-exponent clearance above the critical 1/2.
    """
    R = p.finite_range
    if R is not None:
        return HOLDS, None, f"profile vanishes beyond n = {R}: all late blocks sum to exactly 0"
    env = log_r_bound_envelope(p)
    if env is not None and env.exponent > 0.5:
        margin = _pad(env.exponent) - 0.5
        certificate = (
            f"certified majorant {env.coefficient:.10g} * n^-{env.exponent:.10g} "
            f"({env.derivation}); squared block sums vanish since the exponent "
            "exceeds 1/2"
        )
        return HOLDS, margin, certificate
    certificate = (
        "profile 'variation bound of the induced conditional law' has no closed form "
        "with decay exponent above 1/2; block partial sums alone cannot certify a limit"
    )
    return INCONCLUSIVE, None, certificate


@_criterion("bcjo", UNIQUE_TINV_GIBBS)
def check_bcjo(p: PairPotential) -> Verdict:
    """Square-root-scaled variation test: limsup sqrt(n) * logr(n) below 2."""
    R = p.finite_range
    if R is not None:
        return HOLDS, Interval.point(2.0), f"profile vanishes beyond n = {R}; the scaled limsup is 0"
    env = log_r_bound_envelope(p)
    if env is not None and env.exponent > 0.5:
        certificate = (
            f"certified majorant {env.coefficient:.10g} * n^-{env.exponent:.10g} "
            f"({env.derivation}); the scaled limsup is 0"
        )
        return HOLDS, Interval.point(2.0), certificate
    certificate = (
        "profile 'variation bound of the induced conditional law' carries no majorant "
        "with exponent >= 1/2 and coefficient below 2; the scaled limsup is not certified"
    )
    return INCONCLUSIVE, None, certificate


# -- scaled limsup with an explicit (alpha, K) budget ------------------------------
# The closed-form limsups of its two conditions on every family but the heavy
# power law, which fails before either is asked: a finite enclosure, or None for
# infinity.  The summable families are the finite, exponential and q > 2 ones; the
# critical family's strength c is an exact rational, so every exponent-sign
# decision is exact.


def _product_limsup(p: PairPotential, fam: str, alpha: Fraction) -> Optional[Interval]:
    """limsup of n^(alpha-1) times the running sup-ratio product."""
    if fam != "power_critical":  # summable: the product is at most exp(ruelle_sum)
        if alpha < 1:
            return ZERO
        return ruelle_sum(p).enclosure.exp()
    c = strength_fraction(p)
    if alpha - 1 + c < 0:
        return ZERO
    if alpha - 1 + c > 0:
        return None
    # the partial sums are c*H_n plus a window term increasing to c, both
    # convergent after the n^(-c) scaling: the limit is exp(c*(gamma + 1))
    return (fraction_interval(c) * (_EULER_GAMMA + 1.0)).exp()


def _tail_limsup(p: PairPotential, fam: str, alpha: Fraction) -> Optional[Interval]:
    """limsup of sqrt(n) times the alpha-th power of the right-tail log-ratio."""
    if fam == "power_critical":
        if alpha > _HALF:
            return ZERO
        if alpha < _HALF:
            return None
        return fraction_interval(strength_fraction(p)).sqrt()
    if fam != "power_summable":
        return ZERO  # finite range or exponential tails
    cc = p.coupling
    edge = _HALF - alpha * (Fraction(cc.q) - 1)
    if edge < 0:
        return ZERO
    if edge > 0:
        return None
    amp = Interval.point(p.beta) * Interval.point(cc.amplitude) / (cc.q - 1.0)
    return amp.pow(float(alpha))


@_criterion("scaled_limsup", UNIQUE_TINV_GIBBS)
def check_scaled_limsup(
    p: PairPotential,
    alpha: Optional[float] = None,
    K: Optional[float] = None,
) -> Verdict:
    """Scaled-limsup test: sqrt(n) * tail^alpha strictly below Gamma(alpha)/K.

    The budget pair works as follows: K must dominate the limsup of
    n^(alpha-1) times the running ratio product, and then the scaled tail
    limsup must fall strictly below Gamma(alpha)/K.  With no pair supplied
    the check picks the family's natural alpha (any exponent in
    (1/2, 1 - c) when the strength c is below 1/2, the critical alpha = 1 - c
    at the boundary, alpha = 1 for summable couplings) and the smallest
    certified K.  Both strict inequalities are evaluated on enclosures;
    an enclosure straddling equality yields Inconclusive, never a verdict.
    A certified K past the double range is quoted as exp(log K); it arises
    only at alpha = 1 on a summable family, whose scaled tail limsup is
    exactly 0.  Uniqueness here is among shift-invariant states only.
    """
    if K is not None and alpha is None:
        raise ValueError("alpha is required when K is supplied")
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if K is not None and not 0.0 < K < math.inf:
        raise ValueError("K must be positive and finite")

    fam = family(p)
    if fam == "power_heavy":
        certificate = (
            "running log-product grows polynomially fast in n^(2-q) for q < 2, "
            "so n^(alpha-1) times the product is unbounded for every alpha"
        )
        return FAILS, None, certificate

    a, terminal = _natural_alpha(p, fam) if alpha is None else (Fraction(alpha), None)
    if terminal is not None:
        return terminal

    prod = _product_limsup(p, fam, a)
    if prod is None:
        certificate = (
            f"alpha = {_quote(a)} exceeds the family's product exponent "
            "budget: n^(alpha-1) times the ratio product is unbounded, so no "
            "K satisfies the product cap"
        )
        return FAILS, None, certificate
    if K is None:
        cap = max(prod.hi, 1.0)
        k_note = f"K = {cap:.10g} (the certified product limsup)"
        if math.isinf(cap):  # exp(ruelle_sum) overflowed; K is its upper end
            k_note = (
                f"K = exp({ruelle_sum(p).enclosure.hi:.10g}) (the certified product limsup, "
                "above the largest double)"
            )
    else:
        cap = K
        if prod.lo > K:
            certificate = (
                f"supplied K = {K:.10g} lies below the certified product limsup "
                f"[{prod.lo:.10g}, {prod.hi:.10g}]"
            )
            return FAILS, None, certificate
        if prod.hi > K:
            certificate = (
                f"the product-limsup enclosure [{prod.lo:.10g}, "
                f"{prod.hi:.10g}] straddles the supplied K = {K:.10g}"
            )
            return INCONCLUSIVE, None, certificate
        k_note = f"K = {K:.10g} (supplied, dominates the product limsup)"

    tail = _tail_limsup(p, fam, a)
    if tail is None:
        certificate = (
            f"alpha = {_quote(a)} sits below the tail's critical exponent: "
            "the scaled tail limsup is infinite"
        )
        return FAILS, None, certificate
    if math.isinf(cap):  # Gamma(alpha)/K underflows; K overflows only where the tail limsup is 0
        detail = (
            f"alpha = {_quote(a)}, {k_note}; scaled tail limsup in "
            f"[{tail.lo:.10g}, {tail.hi:.10g}] against Gamma(alpha)/K (strict); "
            "uniqueness is among shift-invariant states; "
            "a limsup of exactly 0 lies below Gamma(alpha)/K > 0"
        )
        return HOLDS, None, detail
    rhs = _gamma_interval(float(a)) / Interval.point(cap)
    margin = rhs - tail
    detail = (
        f"alpha = {_quote(a)}, {k_note}; scaled tail limsup in "
        f"[{tail.lo:.10g}, {tail.hi:.10g}] against "
        f"Gamma(alpha)/K in [{rhs.lo:.10g}, {rhs.hi:.10g}] (strict); "
        "uniqueness is among shift-invariant states"
    )
    outcome = _sign(margin)
    if outcome == INCONCLUSIVE:
        detail += "; the enclosures straddle equality"
    return outcome, margin, detail


def _natural_alpha(p: PairPotential, fam: str):
    """The family's own alpha when none is supplied, or a terminal outcome."""
    if fam != "power_critical":
        return Fraction(1), None
    c = strength_fraction(p)
    if c < _HALF:
        # any exponent strictly between 1/2 and 1 - c gives zero limsups
        return (_HALF + (1 - c)) / 2, None
    if c == _HALF:
        return _HALF, None
    certificate = (
        f"strength c = {_quote(c)} > 1/2: alphas above 1 - c "
        "blow up the product limsup and alphas at or below 1/2 >= 1 - c blow "
        "up the tail limsup, so no budget pair exists"
    )
    return None, (FAILS, None, certificate)


# -- aggregation -------------------------------------------------------------------


@record
class CriteriaReport:
    """All verdicts for one coupling, with the strongest certified conclusion.

    ``knobs`` maps each criteria knob that moved a check off its default to
    the value applied (see ``evaluate_all``).
    """

    verdicts: tuple
    knobs: dict

    def __init__(self, verdicts: tuple, knobs: Optional[dict] = None) -> None:
        set_field(self, "verdicts", verdicts)
        set_field(self, "knobs", {} if knobs is None else knobs)  # a fresh dict per report

    @property
    def strongest(self) -> Optional[str]:
        """The strongest conclusion among the criteria that hold, or None."""
        held = (v.conclusion_strength for v in self.verdicts if v.outcome == HOLDS)
        return max(held, key=_STRENGTH_RANK.__getitem__, default=None)

    def by_name(self, criterion: str) -> Verdict:
        for v in self.verdicts:
            if v.criterion == criterion:
                return v
        raise KeyError(criterion)

    def outcomes(self) -> dict:
        return {v.criterion: v.outcome for v in self.verdicts}


def evaluate_all(
    p: PairPotential,
    *,
    alpha: Optional[float] = None,
    budget: Optional[float] = None,
    alpha_grid: Optional[Sequence[float]] = None,
) -> CriteriaReport:
    """Run every criterion on one pair coupling, each exactly once.

    Checks whose preconditions a given coupling cannot meet (for example the
    one-site influence sum on an untruncated infinite-range law) report as
    Inconclusive entries carrying the guard message, so the report always has
    one entry per criterion.

    The knobs reach two of the nine checks:

      alpha         fixes the exponent of product_blocksum and scaled_limsup;
      budget        the scaled_limsup product cap K (requires alpha);
      alpha_grid    product_blocksum's candidate list, searched for the
                    largest admissible alpha; alpha wins over it when both
                    are given.

    ``CriteriaReport.knobs`` records the knobs that were applied: alpha and
    budget when given, else alpha_grid.
    """
    if budget is not None and alpha is None:
        raise ValueError("budget requires alpha")
    knobs: dict = {}
    if alpha is not None:
        knobs["alpha"] = alpha
        if budget is not None:
            knobs["budget"] = budget
    elif alpha_grid is not None:
        knobs["alpha_grid"] = list(alpha_grid)
    knobbed = {"check_product_blocksum": (alpha, alpha_grid), "check_scaled_limsup": (alpha, budget)}
    verdicts = []
    for check, (criterion, strength) in _CRITERIA.items():  # registered in report order
        try:  # looked up at each call, so a replaced check is the one that runs
            verdicts.append(globals()[check](p, *knobbed.get(check, ())))
        except ValueError as exc:
            verdicts.append(Verdict(criterion, INCONCLUSIVE, None, f"not evaluated: {exc}", strength))
    return CriteriaReport(verdicts=tuple(verdicts), knobs=knobs)
