"""Finite-range window kernels, transfer-matrix conditionals, and their oracles."""

import math

import numpy as np
import pytest

from artifact import (
    CouplingLaw,
    FSequence,
    PairPotential,
    TransferMatrix,
    Word,
    dobrushin_sum,
    empirical_g_variation,
    g_exact_markov,
    phi_window,
    pi_window_at_zero,
    pi_window_enumeration,
    rho_bruteforce,
    window_weight,
)
from artifact.kernel import apply_L


def nn(beta):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table((1.0,)))


def table(values, beta):
    return PairPotential(beta=beta, coupling=CouplingLaw.finite_table(values))


def zero():
    return PairPotential(beta=1.0, coupling=CouplingLaw.zero())


def truncated(q, beta, R):
    return PairPotential(
        beta=beta, coupling=CouplingLaw.power_law(q), truncation_range=R
    )


def all_plus(a, b):
    return Word.constant(a, b - a + 1, 1)


def random_word(rng, a, b):
    letters = tuple(int(s) for s in rng.choice((-1, 1), size=b - a + 1))
    return Word(a, letters)


# -- window kernel by enumeration ------------------------------------------------


def test_phi_window_uniform_for_zero_coupling():
    p = zero()
    boundary = all_plus(-1, 1)
    for letters in [(-1, -1, -1), (-1, 1, -1), (1, 1, 1)]:
        assert phi_window(p, boundary, 2, Word(0, letters)) == pytest.approx(
            1.0 / 8.0, abs=1e-15
        )


def test_phi_window_single_site_closed_form():
    # one site, both neighbors +: weights e^{+-beta}, so phi(+) = e^b / (e^b + e^-b)
    beta = 0.7
    p = nn(beta)
    boundary = Word(-1, (1, 1, 1))
    got = phi_window(p, boundary, 0, Word(0, (1,)))
    want = math.exp(beta) / (math.exp(beta) + math.exp(-beta))
    assert got == pytest.approx(want, abs=1e-14)
    assert phi_window(p, boundary, 0, Word(0, (-1,))) == pytest.approx(
        1.0 - want, abs=1e-14
    )


def test_phi_window_normalizes():
    rng = np.random.default_rng(11)
    p = table((0.8, 0.3), 0.6)
    for _ in range(20):
        n = int(rng.integers(0, 5))
        boundary = random_word(rng, -2, n + 2)
        total = 0.0
        for idx in range(1 << (n + 1)):
            letters = tuple(
                1 if (idx >> (n - i)) & 1 else -1 for i in range(n + 1)
            )
            total += phi_window(p, boundary, n, Word(0, letters))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_phi_window_conditional_times_marginal():
    # joint = conditional x marginal across nested windows [0, 1] < [0, 2]:
    # phi_[0,2](x0 x1 x2) = phi_[0,1](x0 x1 | x2) * sum_{a b} phi_[0,2](a b x2)
    p = nn(0.9)
    rng = np.random.default_rng(12)
    for _ in range(10):
        env = random_word(rng, -1, 4)
        x = random_word(rng, 0, 2)
        lhs = phi_window(p, env, 2, x)
        # filler +1 letters at the interior sites; only -1 and 2 are consulted
        small_boundary = Word(-1, (env.at(-1), 1, 1, x.at(2)))
        cond = phi_window(p, small_boundary, 1, Word(0, (x.at(0), x.at(1))))
        marginal = sum(
            phi_window(p, env, 2, Word(0, (a, b, x.at(2))))
            for a in (-1, 1)
            for b in (-1, 1)
        )
        assert lhs == pytest.approx(cond * marginal, abs=1e-12)


def test_phi_window_guards():
    p = nn(0.5)
    with pytest.raises(ValueError):
        phi_window(p, all_plus(-1, 1), -1, Word(0, (1,)))
    with pytest.raises(ValueError):
        phi_window(p, all_plus(-1, 20), 15, all_plus(0, 15))
    with pytest.raises(ValueError):
        # boundary word too short for the range
        phi_window(p, Word(-1, (1,)), 1, Word(0, (1, 1)))
    with pytest.raises(ValueError):
        phi_window(
            PairPotential(beta=0.5, coupling=CouplingLaw.power_law(2.0)),
            all_plus(-1, 1),
            0,
            Word(0, (1,)),
        )


# -- site-zero conditional: contraction against enumeration ----------------------


def test_pi_window_contraction_matches_enumeration():
    rng = np.random.default_rng(13)
    for p in (nn(0.4), table((1.0, 0.5), 0.8), truncated(2.0, 0.5, 3)):
        R = p.finite_range
        for n in (0, 1, 3, 6):
            boundary = random_word(rng, -R, n + R)
            for s in (-1, 1):
                enum = pi_window_enumeration(p, boundary, n, s)
                fast = pi_window_at_zero(p, boundary, n, s)
                assert abs(enum - fast.value) <= 1e-12
                assert fast.dependency_window == (-R, n + R)


def test_pi_window_letters_normalize():
    p = table((0.6, 0.2, 0.1), 1.1)
    boundary = all_plus(-3, 8)
    for n in (0, 2, 5):
        total = sum(pi_window_at_zero(p, boundary, n, s).value for s in (-1, 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pi_window_validation():
    p = nn(0.5)
    with pytest.raises(ValueError):
        pi_window_at_zero(p, all_plus(-1, 1), 0, 2)
    with pytest.raises(ValueError):
        pi_window_at_zero(p, all_plus(-1, 1), -1, 1)


def test_window_weight_counts_words_when_free():
    # zero coupling: every word weighs 1, so the total counts the free sites
    p = zero()
    assert window_weight(p, (), (), 3) == pytest.approx(16.0, abs=0.0)
    assert window_weight(p, (), (), 3, {0: 1, 2: -1}) == pytest.approx(4.0, abs=0.0)


# -- transfer matrix and the stationary conditional -------------------------------


def test_transfer_matrix_nearest_neighbor_eigenvalue():
    # weights e^{+-beta/2} per step give the top eigenvalue 2 cosh(beta / 2)
    for beta in (0.3, 1.0, 2.0):
        tm = TransferMatrix.from_potential(nn(beta))
        assert tm.eigenvalue == pytest.approx(2.0 * math.cosh(beta / 2.0), abs=1e-12)
        assert tm.residual <= 1e-12
        assert np.all(tm.right > 0.0) and np.all(tm.left > 0.0)


def test_transfer_matrix_shape_and_guards():
    tm = TransferMatrix.from_potential(table((0.5, 0.25), 0.7))
    assert tm.range_r == 2
    assert tm.matrix.shape == (4, 4)
    assert len(tm.states) == 4
    # two nonzero entries per row: shift in -1 or +1
    assert np.all((tm.matrix > 0.0).sum(axis=1) == 2)
    with pytest.raises(ValueError):
        TransferMatrix.from_potential(zero())
    with pytest.raises(ValueError):
        TransferMatrix.from_potential(truncated(2.0, 0.2, 13))


def test_exact_conditional_nearest_neighbor_value():
    # frozen closed form: g(+|+) = 1 / (1 + e^{-1}) at beta = 1
    g = g_exact_markov(nn(1.0))
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert g.prob((1,), 1) == pytest.approx(want, abs=1e-12)
    assert g.prob((-1,), -1) == pytest.approx(want, abs=1e-12)
    assert g.prob((1,), -1) == pytest.approx(1.0 - want, abs=1e-12)
    assert g.dependency_depth == 1


def test_exact_conditional_accepts_words():
    g = g_exact_markov(table((0.4, 0.3), 0.9))
    w = Word(-2, (1, -1))
    assert g.prob(w, 1) == pytest.approx(g.prob((1, -1), 1), abs=0.0)
    assert g(w, 1) == g.prob(w, 1)
    with pytest.raises(ValueError):
        g.prob((1,), 1)  # wrong depth
    with pytest.raises(ValueError):
        g.prob((1, -1), 0)  # not a letter


def test_exact_conditional_rows_normalize_and_flip():
    # even interactions are spin-flip symmetric: g(s | w) = g(-s | -w)
    rng = np.random.default_rng(14)
    for _ in range(5):
        values = tuple(rng.uniform(0.05, 1.0, size=3))
        g = g_exact_markov(table(values, 0.8))
        for u in g.transfer.states:
            assert sum(g.prob(u, s) for s in (-1, 1)) == pytest.approx(1.0, abs=1e-12)
            flipped = tuple(-s for s in u)
            for s in (-1, 1):
                assert g.prob(u, s) == pytest.approx(g.prob(flipped, -s), abs=1e-12)


def test_exact_conditional_zero_coupling_uniform():
    g = g_exact_markov(zero())
    assert g.dependency_depth == 0
    assert g.prob((), 1) == 0.5
    assert g.state_law() == pytest.approx(np.array([1.0]))


def test_state_law_is_shift_stationary():
    # pushing the state law one step through the conditional must reproduce it
    g = g_exact_markov(table((0.7, 0.2), 1.0))
    tm = g.transfer
    law = g.state_law()
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    pushed = np.zeros_like(law)
    for u in range(len(law)):
        letters = tm.states[u]
        for s in (-1, 1):
            v = tm.state_index(letters[1:] + (s,))
            pushed[v] += law[u] * g.prob(letters, s)
    assert pushed == pytest.approx(law, abs=1e-12)


def test_exact_conditional_matches_long_window_kernel():
    # the stationary conditional is the n -> inf limit of window conditionals
    p = nn(1.0)
    g = g_exact_markov(p)
    want = g.prob((1,), 1)
    gaps = []
    for n in (2, 10, 24):
        got = pi_window_at_zero(p, all_plus(-1, n + 1), n, 1).value
        gaps.append(abs(got - want))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[-1] <= 1e-8


# -- interdependence sum -----------------------------------------------------------


def test_dobrushin_zero_and_nearest_neighbor():
    assert dobrushin_sum(zero()) == 0.0
    for beta in (0.2, 0.5, 1.0):
        assert dobrushin_sum(nn(beta)) == pytest.approx(2.0 * math.tanh(beta), abs=1e-12)


def test_dobrushin_monotone_in_temperature():
    vals = [dobrushin_sum(nn(b)) for b in np.linspace(0.1, 2.0, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_dobrushin_guard():
    with pytest.raises(ValueError):
        dobrushin_sum(truncated(2.0, 0.2, 13))
    with pytest.raises(ValueError):
        dobrushin_sum(PairPotential(beta=0.2, coupling=CouplingLaw.power_law(2.0)))


# -- window-sum operator and the two-environment ratio ----------------------------


def test_apply_L_zero_coupling_counts_words():
    F = FSequence.from_potential(zero())
    x = all_plus(-1, 6)
    assert apply_L(F, 0, 2, lambda w: 1.0, x) == pytest.approx(8.0, abs=0.0)


def test_apply_L_single_site_matches_factor():
    # [m, n] = [0, 0]: the sum is f_0(+ word) + f_0(- word)
    p = nn(0.8)
    F = FSequence.from_potential(p)
    x = all_plus(-1, 2)
    got = apply_L(F, 0, 0, lambda w: 1.0, x)
    want = sum(
        math.exp(0.5 * 0.8 * s * (x.at(-1) + x.at(1))) for s in (-1, 1)
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_apply_L_guards():
    F = FSequence.from_potential(nn(0.5))
    with pytest.raises(ValueError):
        apply_L(F, 2, 1, lambda w: 1.0, all_plus(-1, 5))
    with pytest.raises(ValueError):
        apply_L(F, 0, 20, lambda w: 1.0, all_plus(-1, 25))


def test_rho_equal_environments_is_one():
    F = FSequence.from_potential(table((0.9, 0.4), 0.6))
    x = all_plus(-2, 8)
    for k, n in [(0, 2), (1, 3), (2, 4)]:
        assert rho_bruteforce(F, k, n, x, x) == pytest.approx(1.0, abs=1e-12)


def test_rho_zero_coupling_is_one():
    F = FSequence.from_potential(zero())
    rng = np.random.default_rng(15)
    x = random_word(rng, -2, 8)
    y = random_word(rng, -2, 8)
    assert rho_bruteforce(F, 1, 3, x, y) == pytest.approx(1.0, abs=1e-12)


def test_rho_bounded_by_one_when_environments_differ():
    # differing environments can only lower the infimum of ratios
    F = FSequence.from_potential(nn(0.7))
    x = all_plus(-1, 8)
    y = Word(-1, tuple(-1 if i == 0 else 1 for i in range(10)))
    val = rho_bruteforce(F, 0, 3, x, y)
    assert 0.0 < val <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        rho_bruteforce(F, 3, 2, x, y)
    with pytest.raises(ValueError):
        rho_bruteforce(F, 0, 3, x, y, m_grid=(-1,))


# -- empirical variation of the exact conditional ---------------------------------


def test_empirical_variation_vanishes_beyond_the_range():
    p = truncated(2.0, 0.4, 3)
    for m in (3, 4, 5):
        assert empirical_g_variation(p, m, 8) == 0.0
    assert empirical_g_variation(p, 1, 8) > 0.0


def test_empirical_variation_zero_coupling():
    assert empirical_g_variation(zero(), 0, 6) == 0.0


def test_empirical_variation_decreases_with_agreement():
    p = table((1.0, 0.6, 0.3, 0.1), 0.9)
    vals = [empirical_g_variation(p, m, 10) for m in range(0, 4)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# -- the scaled sliding-block passes -----------------------------------------------


def plain_weight(p, past, fut, n, clamp=None):
    """Unscaled sliding-block sum over the words on [0, n]: ``past`` fixes
    sites -R..-1, ``fut`` sites n+1..n+R, ``clamp`` pins interior sites."""
    clamp = clamp or {}
    R = p.finite_range
    J = [p.strength(d) for d in range(1, R + 1)]
    mass = {tuple(past): 1.0}
    for t in range(n + R + 1):
        if t > n:
            letters = (fut[t - n - 1],)
        else:
            letters = (clamp[t],) if t in clamp else (-1, 1)
        new = {}
        for hist, m in mass.items():
            field = sum(J[d - 1] * hist[-d] for d in range(1, R + 1))
            for c in letters:
                key = (hist + (c,))[1:]
                new[key] = new.get(key, 0.0) + m * math.exp(0.5 * p.beta * c * field)
        mass = new
    return sum(mass.values())


def test_long_windows_converge_to_the_exact_conditional():
    # the unscaled walk overflowed from 872 sites on and returned NaN
    p = nn(1.0)
    g = g_exact_markov(p)
    for n in (1024, 2048, 4096):
        boundary = Word(-1, (-1,) + (1,) * (n + 2))
        for s in (-1, 1):
            got = pi_window_at_zero(p, boundary, n, s)
            assert math.isfinite(got.value)
            assert abs(got.value - g.prob((-1,), s)) <= 1e-12


def test_scaled_passes_match_the_plain_walk():
    # weights stay inside the double range up to n = 512, so the plain walk is exact enough
    rng = np.random.default_rng(16)
    for trial in range(8):
        R = int(rng.integers(1, 5))
        p = table(tuple(rng.uniform(0.0, 0.5, size=R)), float(rng.uniform(0.1, 0.6)))
        n = (0, 1, 5, 33, 128, 256, 400, 512)[trial]
        past = tuple(int(x) for x in rng.choice((-1, 1), size=R))
        fut = tuple(int(x) for x in rng.choice((-1, 1), size=R))
        boundary = Word(-R, past + (1,) * (n + 1) + fut)
        den = plain_weight(p, past, fut, n)
        assert window_weight(p, past, fut, n) == pytest.approx(den, rel=1e-12)
        for s in (-1, 1):
            want = plain_weight(p, past, fut, n, {0: s}) / den
            assert abs(pi_window_at_zero(p, boundary, n, s).value - want) <= 1e-12
        site = int(rng.integers(0, n + 1))
        clamp = {site: 1, n // 2: -1} if n // 2 != site else {site: 1}
        want = plain_weight(p, past, fut, n, clamp)
        assert window_weight(p, past, fut, n, clamp) == pytest.approx(want, rel=1e-12)


def test_scaled_passes_match_enumeration_up_to_the_guard():
    rng = np.random.default_rng(17)
    for R in (1, 2, 3):
        p = table(tuple(rng.uniform(0.1, 1.0, size=R)), 0.9)
        for n in (2, 9, 12):
            boundary = random_word(rng, -R, n + R)
            for s in (-1, 1):
                enum = pi_window_enumeration(p, boundary, n, s)
                assert abs(pi_window_at_zero(p, boundary, n, s).value - enum) <= 1e-12


def test_window_weight_raises_outside_the_double_range():
    p = nn(1.0)
    # the weight grows like (2 cosh(1/2))^n and passes 2^1024 near n = 872
    assert math.isfinite(window_weight(p, (1,), (1,), 800))
    with pytest.raises(ArithmeticError):
        window_weight(p, (1,), (1,), 1000)
    with pytest.raises(ArithmeticError):
        window_weight(zero(), (), (), 1024)  # 2^1025 words of weight one


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_weights_raise():
    # beta * J so large that the step weights themselves overflow
    p = nn(2000.0)
    with pytest.raises(ArithmeticError):
        pi_window_at_zero(p, all_plus(-1, 5), 4, 1)
    with pytest.raises(ArithmeticError):
        empirical_g_variation(p, 0, 4)
