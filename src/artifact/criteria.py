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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import wraps
from typing import Optional, Sequence, Union

from ._record import record, set_field
from .fseq import FSequence
from .intervals import Interval, ZERO, _down, _up
from .potential import (
    DOBRUSHIN_MAX_RANGE,
    PairPotential,
    VariationProfile,
    coelho_quas_sum,
    family,
    fraction_interval,
    required_range,
    ruelle_sum,
    strength_fraction,
)
from .ratiobound import LogRProfile

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
    if required_range(p) > DOBRUSHIN_MAX_RANGE:  # before the kernels load
        raise ValueError(f"enumeration guard: R <= {DOBRUSHIN_MAX_RANGE}")
    from .kernel import dobrushin_sum

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
def check_berbee(F: FSequence) -> Verdict:
    """Berbee's condition: divergence of the symmetric-window product series.

    The n-th term is the product of the window inf-ratios over the first n
    windows of the alternating enumeration; see FSequence.berbee_log_rbar for
    the closed forms.  Divergence is decided structurally per family:

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
    p = F.potential
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
def check_variation_slope(profile: VariationProfile) -> Verdict:
    """Hyperbolic-decay test: tail variation at most c/n + summable, c < 1/2.

    Holds needs both the slope enclosure strictly below 1/2 and a certified
    summable remainder; Fails needs the slope, the family's exact value, at or
    above 1/2.  A straddling enclosure stays Inconclusive.
    """
    slope = profile.slope
    margin = 0.5 - slope
    detail = (
        f"tail-variation slope in [{slope.lo:.10g}, {slope.hi:.10g}] against the "
        f"strict threshold 1/2; remainder summable: {profile.remainder_summable}"
    )
    if slope.hi < 0.5 and profile.remainder_summable:
        return HOLDS, margin, detail
    if slope.lo >= 0.5:
        return FAILS, margin, detail + (
            "; the slope is the family's exact value, so no smaller hyperbolic majorant exists"
        )
    return INCONCLUSIVE, margin, detail


# -- product growth with dyadic block sums ----------------------------------------


@_criterion("product_blocksum", UNIQUE_GIBBS_BERNOULLI)
def check_product_blocksum(
    F: FSequence,
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
    p = F.potential
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
def check_jop_blocksum(logr_g: LogRProfile) -> Verdict:
    """Vanishing geometric-block sums of squared log-ratios of the chain law.

    Blocks are (ceil(lam^(m-1)), ceil(lam^m)]; the hypothesis holds for one
    growth factor lam > 1 exactly when it holds for every such factor.
    Margins report the decay-exponent clearance above the critical 1/2.
    """
    if logr_g.zero_beyond is not None:
        certificate = (
            f"profile vanishes beyond n = {logr_g.zero_beyond}: all late blocks "
            "sum to exactly 0"
        )
        return HOLDS, None, certificate
    env = logr_g.envelope
    if env is not None and env.exponent > 0.5:
        margin = _pad(env.exponent) - 0.5
        certificate = (
            f"certified majorant {env.coefficient:.10g} * n^-{env.exponent:.10g} "
            f"({env.derivation}); squared block sums vanish since the exponent "
            "exceeds 1/2"
        )
        return HOLDS, margin, certificate
    certificate = (
        f"profile '{logr_g.source}' has no closed form with decay exponent above "
        "1/2; block partial sums alone cannot certify a limit"
    )
    return INCONCLUSIVE, None, certificate


@_criterion("bcjo", UNIQUE_TINV_GIBBS)
def check_bcjo(logr_g: LogRProfile) -> Verdict:
    """Square-root-scaled variation test: limsup sqrt(n) * logr(n) below 2."""
    if logr_g.zero_beyond is not None:
        certificate = (
            f"profile vanishes beyond n = {logr_g.zero_beyond}; the scaled limsup is 0"
        )
        return HOLDS, Interval.point(2.0), certificate
    env = logr_g.envelope
    if env is not None:
        if env.exponent > 0.5:
            certificate = (
                f"certified majorant {env.coefficient:.10g} * n^-{env.exponent:.10g} "
                f"({env.derivation}); the scaled limsup is 0"
            )
            return HOLDS, Interval.point(2.0), certificate
        if env.exponent == 0.5 and env.coefficient < 2.0:
            margin = Interval(
                (2.0 - Interval.point(env.coefficient)).lo, 2.0
            )
            certificate = (
                f"certified majorant {env.coefficient:.10g}/sqrt(n) "
                f"({env.derivation}); the scaled limsup is at most the coefficient"
            )
            return HOLDS, margin, certificate
    certificate = (
        f"profile '{logr_g.source}' carries no majorant with exponent >= 1/2 and "
        "coefficient below 2; the scaled limsup is not certified"
    )
    return INCONCLUSIVE, None, certificate


# -- scaled limsup with an explicit (alpha, K) budget ------------------------------


@record
class _Limsup:
    """Certified limsup of one scaled sequence.

    Exactly one of three states: a finite enclosure, infinity, or unknown
    (the scaling exponent's sign is not certified inside the strength
    enclosure, which can only happen for a strength interval of positive
    width sitting on the critical exponent).
    """

    value: Optional[Interval]
    infinite: bool = False

    @staticmethod
    def finite(v: Interval) -> "_Limsup":
        return _Limsup(value=v)

    @staticmethod
    def inf() -> "_Limsup":
        return _Limsup(value=None, infinite=True)

    @staticmethod
    def unknown() -> "_Limsup":
        return _Limsup(value=None, infinite=False)


def _critical_product_limsup(c: Interval, extra_one: bool) -> Interval:
    """limsup n^(-c) * exp(partial sums) for hyperbolic-type tail profiles.

    Partial sums equal c*H_n plus, for the quadratic power family, a window
    term increasing to c; both pieces converge, so the limsup is the limit
    exp(c*gamma) or exp(c*(gamma + 1)).
    """
    shift = _EULER_GAMMA + 1.0 if extra_one else _EULER_GAMMA
    return (c * shift).exp()


class _ScaledFamily:
    """Closed-form limsups for one input family of the scaled-limsup check.

    The tail strength is carried as exact rational bounds [c_lo, c_hi]; every
    exponent-sign decision is certified against the appropriate endpoint, and
    a decision that would need the two endpoints to disagree comes back
    unknown instead of guessing.
    """

    def __init__(self, kind: str, c_lo: Optional[Fraction] = None,
                 c_hi: Optional[Fraction] = None, q: Optional[float] = None,
                 log_cap: Optional[Interval] = None,
                 tail_amp: Optional[Interval] = None):
        self.kind = kind  # "critical", "hyperbolic", "summable", "heavy"
        self.c_lo = c_lo
        self.c_hi = c_hi
        self.q = q
        self.log_cap = log_cap  # log of the summable families' product limsup
        self.tail_amp = tail_amp

    @property
    def c_interval(self) -> Interval:
        return Interval.hull(fraction_interval(self.c_lo), fraction_interval(self.c_hi))

    def product_limsup(self, alpha: Fraction) -> _Limsup:
        """limsup of n^(alpha-1) times the running sup-ratio product."""
        if self.kind == "summable":
            if alpha < 1:
                return _Limsup.finite(ZERO)
            return _Limsup.finite(self.log_cap.exp())
        if alpha - 1 + self.c_hi < 0:
            return _Limsup.finite(ZERO)
        if alpha - 1 + self.c_lo > 0:
            return _Limsup.inf()
        if self.c_lo == self.c_hi:
            return _Limsup.finite(
                _critical_product_limsup(self.c_interval, self.kind == "critical")
            )
        return _Limsup.unknown()

    def tail_limsup(self, alpha: Fraction) -> _Limsup:
        """limsup of sqrt(n) times the alpha-th power of the right-tail log-ratio."""
        if self.kind in ("critical", "hyperbolic"):
            if alpha > _HALF:
                return _Limsup.finite(ZERO)
            if alpha < _HALF:
                return _Limsup.inf()
            return _Limsup.finite(self.c_interval.sqrt())
        if self.q is None:
            return _Limsup.finite(ZERO)  # finite range or exponential tails
        edge = _HALF - alpha * (Fraction(self.q) - 1)
        if edge < 0:
            return _Limsup.finite(ZERO)
        if edge > 0:
            return _Limsup.inf()
        return _Limsup.finite(self.tail_amp.pow(float(alpha)))


def _scaled_family(source: Union[FSequence, VariationProfile]) -> Optional[_ScaledFamily]:
    if isinstance(source, VariationProfile):
        if source.form == "hyperbolic":
            coeff = source.slope
            return _ScaledFamily(
                "hyperbolic", c_lo=Fraction(coeff.lo), c_hi=Fraction(coeff.hi)
            )
        return None
    p = source.potential
    fam = family(p)
    if fam == "power_critical":
        c = strength_fraction(p)
        return _ScaledFamily("critical", c_lo=c, c_hi=c)
    if fam == "power_heavy":
        return _ScaledFamily("heavy")
    log_cap = ruelle_sum(p).enclosure
    if fam == "power_summable":
        cc = p.coupling
        amp = Interval.point(p.beta) * Interval.point(cc.amplitude) / (cc.q - 1.0)
        return _ScaledFamily("summable", q=cc.q, log_cap=log_cap, tail_amp=amp)
    return _ScaledFamily("summable", log_cap=log_cap)


@_criterion("scaled_limsup", UNIQUE_TINV_GIBBS)
def check_scaled_limsup(
    source: Union[FSequence, VariationProfile],
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
    A certified K past the double range is quoted as exp(log K); against it
    only a tail limsup of exactly 0 is decided.

    Accepts an FSequence (family closed forms) or an exact hyperbolic
    VariationProfile; other profiles have no certified asymptotics and come
    back Inconclusive.  Uniqueness here is among shift-invariant states only.
    """
    if K is not None and alpha is None:
        raise ValueError("alpha is required when K is supplied")
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if K is not None and not 0.0 < K < math.inf:
        raise ValueError("K must be positive and finite")

    scaled = _scaled_family(source)
    if scaled is None:
        return (
            INCONCLUSIVE,
            None,
            "input carries no closed-form asymptotics (only exact power-law, "
            "exponential, finite-range, and hyperbolic-profile inputs are "
            "certified)",
        )
    if scaled.kind == "heavy":
        certificate = (
            "running log-product grows polynomially fast in n^(2-q) for q < 2, "
            "so n^(alpha-1) times the product is unbounded for every alpha"
        )
        return FAILS, None, certificate

    a, terminal = _natural_alpha(scaled) if alpha is None else (Fraction(alpha), None)
    if terminal is not None:
        return terminal

    prod = scaled.product_limsup(a)
    if prod.infinite:
        certificate = (
            f"alpha = {_quote(a)} exceeds the family's product exponent "
            "budget: n^(alpha-1) times the ratio product is unbounded, so no "
            "K satisfies the product cap"
        )
        return FAILS, None, certificate
    if prod.value is None:
        return (
            INCONCLUSIVE,
            None,
            "the product-limsup exponent sign is not certified at this alpha "
            "(the strength enclosure sits on the critical exponent)",
        )
    if K is None:
        cap = max(prod.value.hi, 1.0)
        k_note = f"K = {cap:.10g} (the certified product limsup)"
        if math.isinf(cap):  # exp(log_cap) overflowed; K is its upper end
            k_note = (
                f"K = exp({scaled.log_cap.hi:.10g}) (the certified product limsup, "
                "above the largest double)"
            )
    else:
        cap = K
        if prod.value.lo > K:
            certificate = (
                f"supplied K = {K:.10g} lies below the certified product limsup "
                f"[{prod.value.lo:.10g}, {prod.value.hi:.10g}]"
            )
            return FAILS, None, certificate
        if prod.value.hi > K:
            certificate = (
                f"the product-limsup enclosure [{prod.value.lo:.10g}, "
                f"{prod.value.hi:.10g}] straddles the supplied K = {K:.10g}"
            )
            return INCONCLUSIVE, None, certificate
        k_note = f"K = {K:.10g} (supplied, dominates the product limsup)"

    tail = scaled.tail_limsup(a)
    if tail.infinite:
        certificate = (
            f"alpha = {_quote(a)} sits below the tail's critical exponent: "
            "the scaled tail limsup is infinite"
        )
        return FAILS, None, certificate
    if math.isinf(cap):  # Gamma(alpha)/K underflows; only a limsup of 0 is decided
        detail = (
            f"alpha = {_quote(a)}, {k_note}; scaled tail limsup in "
            f"[{tail.value.lo:.10g}, {tail.value.hi:.10g}] against Gamma(alpha)/K (strict); "
            "uniqueness is among shift-invariant states"
        )
        if tail.value.hi == 0.0:
            detail += "; a limsup of exactly 0 lies below Gamma(alpha)/K > 0"
            return HOLDS, None, detail
        detail += "; a positive limsup is not compared with an overflowed K"
        return INCONCLUSIVE, None, detail
    rhs = _gamma_interval(float(a)) / Interval.point(cap)
    margin = rhs - tail.value
    detail = (
        f"alpha = {_quote(a)}, {k_note}; scaled tail limsup in "
        f"[{tail.value.lo:.10g}, {tail.value.hi:.10g}] against "
        f"Gamma(alpha)/K in [{rhs.lo:.10g}, {rhs.hi:.10g}] (strict); "
        "uniqueness is among shift-invariant states"
    )
    outcome = _sign(margin)
    if outcome == INCONCLUSIVE:
        detail += "; the enclosures straddle equality"
    return outcome, margin, detail


def _natural_alpha(scaled: _ScaledFamily):
    """The family's own alpha when none is supplied, or a terminal outcome."""
    if scaled.kind == "summable":
        return Fraction(1), None
    if scaled.c_hi < _HALF:
        # any exponent strictly between 1/2 and 1 - c gives zero limsups
        return (_HALF + (1 - scaled.c_hi)) / 2, None
    if scaled.c_lo == scaled.c_hi == _HALF:
        return _HALF, None
    if scaled.c_lo > _HALF:
        certificate = (
            f"strength c = {_quote(scaled.c_lo)} > 1/2: alphas above 1 - c "
            "blow up the product limsup and alphas at or below 1/2 >= 1 - c blow "
            "up the tail limsup, so no budget pair exists"
        )
        return None, (FAILS, None, certificate)
    certificate = (
        f"strength enclosure [{_quote(scaled.c_lo)}, {_quote(scaled.c_hi)}] "
        "straddles the critical value 1/2, so no alpha is certified either way"
    )
    return None, (INCONCLUSIVE, None, certificate)


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
    F = FSequence.from_potential(p)
    logr = LogRProfile.from_fsequence(F)
    inputs = {  # in report order
        "check_dobrushin": (p,),
        "check_ruelle": (p,),
        "check_coelho_quas": (p,),
        "check_berbee": (F,),
        "check_variation_slope": (VariationProfile.from_potential(p),),
        "check_product_blocksum": (F, alpha, alpha_grid),
        "check_jop_blocksum": (logr,),
        "check_bcjo": (logr,),
        "check_scaled_limsup": (F, alpha, budget),
    }
    verdicts = []
    for check, args in inputs.items():
        try:  # looked up at each call, so a replaced check is the one that runs
            verdicts.append(globals()[check](*args))
        except ValueError as exc:
            criterion, strength = _CRITERIA[check]
            verdicts.append(Verdict(criterion, INCONCLUSIVE, None, f"not evaluated: {exc}", strength))
    return CriteriaReport(verdicts=tuple(verdicts), knobs=knobs)
