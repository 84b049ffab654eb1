"""End-to-end acceptance suite: one test per release gate, each with a runtime
budget and a printed PASS line.  Every expected number here was produced by an
independent oracle (closed form, exhaustive enumeration, or exact rational
threshold), never by the code path under test."""

import itertools
import math
import os
import time

import numpy as np

from artifact import (
    CouplingLaw,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Interval,
    PairPotential,
    UNIQUE_GIBBS,
    UNIQUE_GIBBS_BERNOULLI,
    UNIQUE_TINV_GIBBS,
    Word,
    check_berbee,
    check_scaled_limsup,
    check_variation_slope,
    chain_blocks,
    coupling_blocks,
    evaluate_all,
    g_exact_markov,
    write_coupling_blocks,
)
from artifact.kernel import pi_window_at_zero
from artifact.diagnostics import (
    RatioTable,
    berbee_series_partial_sums,
    fit_growth_exponent,
    rb_limit_lower_bound,
    tauberian_diagnostic,
)
from artifact.rows import g_variation_bound
from oracles import phi_window, pi_window_enumeration, rho_bruteforce

SPINS = (-1, 1)


def truncated_square(beta, R):
    return PairPotential(
        beta=beta, coupling=CouplingLaw.power_law(2.0), truncation_range=R
    )


def nearest_neighbour(beta):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table((1.0,)))


def v_lower(p, window, count):
    """Lower ends of the contraction coefficients v_k = exp(-beta * (T(k+1) +
    T(window+1))), k < count, for the past window [-window, -1]."""
    beta, past = Interval.point(p.beta), p.coupling_tail(window + 1)
    return [(-(beta * (p.coupling_tail(k + 1) + past))).exp().lo for k in range(count)]


def test_acceptance_1_constant_profile_recursion_limit():
    # constant coefficients are the equality case of the closed-form limit
    # bound: the recursion must sit on 0.9 and the bound must converge to it
    t0 = time.perf_counter()
    v = [0.9] * 501
    table = RatioTable(v, 500)
    assert abs(table.p(0, 500) - 0.9) <= 1e-9
    assert abs(rb_limit_lower_bound(v, 500) - 0.9) <= 1e-6
    assert time.perf_counter() - t0 < 1.0
    print("ACCEPTANCE 1: PASS")


def test_acceptance_2_recursion_below_exhaustive_ratio_geometric_mean():
    # p(k, n) built from certified contraction coefficients must lower-bound
    # sqrt(rho(x,y) * rho(y,x)) for every environment pair agreeing on the
    # two past sites [-2, -1]; rho is enumerated exhaustively
    t0 = time.perf_counter()
    worst = math.inf
    for p in (
        nearest_neighbour(0.2),
        nearest_neighbour(0.5),
        truncated_square(0.2, 2),
        truncated_square(0.5, 2),
    ):
        R = p.finite_range
        table = RatioTable(v_lower(p, 2, 7), 6)
        for n in range(0, 7):
            for k in range(0, n + 1):
                p_kn = table.p(k, n)
                for past in itertools.product(SPINS, repeat=R):
                    for fx in itertools.product(SPINS, repeat=R):
                        for fy in itertools.product(SPINS, repeat=R):
                            filler = (1,) * (n + 1)  # interior sites, never read
                            x = Word(-R, past + filler + fx)
                            y = Word(-R, past + filler + fy)
                            gm = math.sqrt(
                                rho_bruteforce(p, k, n, x, y)
                                * rho_bruteforce(p, k, n, y, x)
                            )
                            worst = min(worst, gm - p_kn)
                            assert p_kn <= gm + 1e-12
    assert worst > -1e-12
    assert time.perf_counter() - t0 < 120.0
    print("ACCEPTANCE 2: PASS")


def test_acceptance_3_closed_form_thresholds_without_tolerance():
    # inverse-square couplings: the product-series criterion flips exactly at
    # strength 1/4, the slope criterion exactly at 1/2; both are decided by
    # exact rational comparison, so no numeric tolerance appears
    t0 = time.perf_counter()

    def square(beta):
        return PairPotential(beta=beta, coupling=CouplingLaw.power_law(2.0))

    assert check_berbee(square(0.25)).outcome == HOLDS
    assert check_berbee(square(0.26)).outcome == FAILS
    assert check_variation_slope(square(0.49)).outcome == HOLDS
    assert check_variation_slope(square(0.51)).outcome != HOLDS
    assert check_variation_slope(square(0.51)).outcome == FAILS
    assert time.perf_counter() - t0 < 10.0
    print("ACCEPTANCE 3: PASS")


def test_acceptance_4_partial_sum_growth_exponent():
    # below the critical strength the product series diverges polynomially
    # with exponent 1 - 4 * strength; the fitted slope must land within 0.05
    t0 = time.perf_counter()
    for beta in (0.15, 0.20):
        p = PairPotential(beta=beta, coupling=CouplingLaw.power_law(2.0))
        sums = berbee_series_partial_sums(p, 2**14 + 1)
        fitted = fit_growth_exponent(sums, n_lo=2**8, n_hi=2**14)
        assert abs(fitted - (1.0 - 4.0 * beta)) <= 0.05
    assert time.perf_counter() - t0 < 30.0
    print("ACCEPTANCE 4: PASS")


def test_acceptance_5_certified_bound_dominates_measured_variation():
    # truncated inverse-square at range 4: the certified bound on var_n(log g)
    # must dominate the exact one, read from the Markov table of g, at every
    # depth, and both collapse to exactly zero once the depth reaches the range
    t0 = time.perf_counter()
    p = truncated_square(0.25, 4)
    g = g_exact_markov(p)
    measured = [g.log_variation(m) for m in range(7)]
    for m in range(7):
        bound = g_variation_bound(p, m)
        assert measured[m] <= bound.bound.hi
        if m >= 4:
            assert measured[m] == 0.0
            assert bound.rn.divergent and bound.bound.hi == 0.0
    assert time.perf_counter() - t0 < 300.0
    print("ACCEPTANCE 5: PASS")


def test_acceptance_6_kernel_routes_agree_and_kernels_are_consistent():
    t0 = time.perf_counter()

    # route agreement: sliding-block contraction vs raw enumeration over the
    # full (range, temperature, window) grid, all-plus plus random boundaries
    rng = np.random.default_rng(60)
    for R in (1, 2, 3):
        for beta in (0.1, 0.5, 1.0):
            p = truncated_square(beta, R)
            for n in range(0, 13):
                for trial in range(6):
                    if trial == 0:
                        boundary = Word(-R, (1,) * (n + 2 * R + 1))
                    else:
                        letters = tuple(
                            int(s) for s in rng.choice(SPINS, size=n + 2 * R + 1)
                        )
                        boundary = Word(-R, letters)
                    for s in SPINS:
                        fast = pi_window_at_zero(p, boundary, n, s).value
                        slow = pi_window_enumeration(p, boundary, n, s)
                        assert abs(fast - slow) <= 1e-12

    # normalization and tower consistency of the window kernels on random
    # potentials, windows within [0, 6], and random boundaries
    rng = np.random.default_rng(61)
    for _ in range(1000):
        R = int(rng.integers(1, 4))
        p = truncated_square(float(rng.uniform(0.1, 1.0)), R)
        L = int(rng.integers(0, 7))
        letters = tuple(int(s) for s in rng.choice(SPINS, size=L + 2 * R + 1))
        boundary = Word(-R, letters)
        total = math.fsum(
            phi_window(p, boundary, L, Word(0, w))
            for w in itertools.product(SPINS, repeat=L + 1)
        )
        assert abs(total - 1.0) <= 1e-12
        if L == 0:
            continue
        b = int(rng.integers(0, L))  # sub-window [0, b], proper by construction
        x = tuple(int(s) for s in rng.choice(SPINS, size=L + 1))
        joint = phi_window(p, boundary, L, Word(0, x))
        sub_letters = (
            tuple(boundary.at(i) for i in range(-R, 0))
            + x[: b + 1]
            + tuple(
                x[i] if i <= L else boundary.at(i) for i in range(b + 1, b + R + 1)
            )
        )
        conditional = phi_window(p, Word(-R, sub_letters), b, Word(0, x[: b + 1]))
        marginal = math.fsum(
            phi_window(p, boundary, L, Word(0, y + x[b + 1 :]))
            for y in itertools.product(SPINS, repeat=b + 1)
        )
        assert abs(joint - conditional * marginal) <= 1e-12

    assert time.perf_counter() - t0 < 120.0
    print("ACCEPTANCE 6: PASS")


def test_acceptance_7_window_law_converges_and_sampler_matches_it():
    # nearest-neighbour chain at beta 1: the window conditional approaches the
    # Perron conditional monotonically on a doubling grid, and a sampled chain
    # reproduces the persistence probability e^{1/2} / (2 cosh 1/2)
    t0 = time.perf_counter()
    p = nearest_neighbour(1.0)
    g = g_exact_markov(p)
    target = g.prob((1,), 1)
    errors = []
    for n in (4, 8, 16, 32):
        boundary = Word(-1, (1,) * (n + 3))
        errors.append(abs(pi_window_at_zero(p, boundary, n, 1).value - target))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-10

    s = 2 * np.concatenate(list(chain_blocks(g, Word(-1, (1,)), 100_000, seed=20260814))).astype(np.int8) - 1
    persistence = float(np.mean(s[1:] == s[:-1]))
    assert abs(persistence - math.exp(0.5) / (2.0 * math.cosh(0.5))) <= 0.01
    assert time.perf_counter() - t0 < 60.0
    print("ACCEPTANCE 7: PASS")


def test_acceptance_8_special_constants_and_critical_straddle():
    t0 = time.perf_counter()

    # the scaled-limsup machinery leans on Gamma(1/2) = sqrt(pi); recover the
    # constant through the diagnostic's asymptote 2 K / Gamma(alpha)
    p = PairPotential(beta=0.3, coupling=CouplingLaw.power_law(2.0))
    report = tauberian_diagnostic(p, alpha=0.5, K=1.0, n_grid=(4, 8))
    gamma_half = 2.0 * 1.0 / report.asymptote
    assert abs(gamma_half - math.sqrt(math.pi)) <= 1e-12

    # the inverse square at strength exactly 1/2 certifies with a strictly
    # positive margin: alpha = 1/2 and K = exp((1 + gamma)/2) leave
    # Gamma(1/2)/K - sqrt(1/2) = 0.0984...
    half = PairPotential(beta=0.5, coupling=CouplingLaw.power_law(2.0))
    natural = check_scaled_limsup(half)
    assert natural.outcome == HOLDS
    assert natural.margin.lo > 0.098 and natural.margin.hi < 0.099

    # a budget pair tuned to land exactly on the threshold must straddle it:
    # strict-inequality logic reports Inconclusive, never a coin-flip verdict
    critical = check_scaled_limsup(half, alpha=0.5, K=math.sqrt(2.0 * math.pi))
    assert critical.outcome == INCONCLUSIVE
    assert critical.margin.contains(0.0)
    assert critical.margin.width <= 1e-14
    assert time.perf_counter() - t0 < 1.0
    print("ACCEPTANCE 8: PASS")


def test_acceptance_9_conclusion_labels_and_mixing_proxy():
    # the mixing-strength conclusions are not desk-verifiable, so they surface
    # only as labels on the verdicts, backed by a coupling experiment whose
    # disagreement density must decay monotonically and hit zero
    report = evaluate_all(
        PairPotential(beta=0.3, coupling=CouplingLaw.power_law(2.0))
    )
    strengths = {v.criterion: v.conclusion_strength for v in report.verdicts}
    assert strengths["variation_slope"] == UNIQUE_GIBBS_BERNOULLI
    assert strengths["product_blocksum"] == UNIQUE_GIBBS_BERNOULLI
    assert strengths["dobrushin"] == UNIQUE_GIBBS
    assert strengths["berbee"] == UNIQUE_GIBBS
    for name in ("ruelle", "coelho_quas", "jop_blocksum", "bcjo", "scaled_limsup"):
        assert strengths[name] == UNIQUE_TINV_GIBBS
    assert report.strongest == UNIQUE_GIBBS_BERNOULLI

    g = g_exact_markov(truncated_square(0.3, 6))
    past_a = Word.constant(-6, 6, 1)
    past_b = Word.constant(-6, 6, -1)
    for seed in (7, 14, 21, 20260814):
        deciles, density, coalescence = write_coupling_blocks(
            os.devnull, coupling_blocks(g, past_a, past_b, 10_000, seed), 10_000)
        assert all(x >= y - 1e-12 for x, y in zip(deciles, deciles[1:]))
        assert deciles[-1] == 0.0
        assert coalescence is not None and coalescence <= 100
        assert density < 0.01
    print("ACCEPTANCE 9: PASS")
