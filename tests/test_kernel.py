"""Finite-range window kernels, transfer-matrix conditionals, and their oracles."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import artifact.kernel
from artifact import (
    CouplingLaw,
    PairPotential,
    Word,
    cesaro_estimate,
    dobrushin_sum,
    g_exact_markov,
    pi_window_at_zero,
)
from artifact.kernel import _encode_state
from artifact.potential import TRANSFER_MAX_RANGE
from oracles import (
    apply_L,
    perron_conditional,
    phi_window,
    pi_window_enumeration,
    rho_bruteforce,
    transfer_matrix,
)


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


def test_a_letter_is_an_integer_spin():
    # 1.0 equals the spin 1 but is no letter; NumPy integers are letters
    p = table((0.5, 0.25), 0.7)
    g = g_exact_markov(p)
    boundary = Word(-2, (1,) * 10)
    for s in (1.0, np.float64(-1.0), 0.5, "1", None):
        with pytest.raises(ValueError, match="letter must be a spin"):
            g.prob((1, 1), s)
        with pytest.raises(ValueError, match="letter must be a spin"):
            pi_window_at_zero(p, boundary, 4, s)
    for s in (-1, 1):
        for t in (np.int64(s), np.int8(s)):
            assert g.prob((1, 1), t) == g.prob((1, 1), s)
            assert pi_window_at_zero(p, boundary, 4, t) == pi_window_at_zero(p, boundary, 4, s)


# -- transfer matrix and the stationary conditional -------------------------------


def test_transfer_matrix_nearest_neighbor_eigenvalue():
    # weights e^{+-beta/2} per step give the top eigenvalue 2 cosh(beta / 2)
    for beta in (0.3, 1.0, 2.0):
        g = g_exact_markov(nn(beta))
        assert g.eigenvalue == pytest.approx(2.0 * math.cosh(beta / 2.0), abs=1e-12)
        assert g.residual <= 1e-12
        assert np.all(g.right > 0.0) and np.all(g.left > 0.0)


def test_transfer_matrix_shape_and_guards():
    p = table((0.5, 0.25), 0.7)
    g = g_exact_markov(p)
    M = transfer_matrix(p)
    assert g.dependency_depth == 2
    assert M.shape == (4, 4)
    assert g.right.shape == g.left.shape == (4,)
    assert g.table.shape == (2, 4)
    # two nonzero entries per row: shift in -1 or +1
    assert np.all((M > 0.0).sum(axis=1) == 2)
    # depth 0: one uniform column and no Perron data
    g = g_exact_markov(zero())
    assert g.dependency_depth == 0
    assert g.table.tolist() == [[0.5], [0.5]] and not g.table.flags.writeable
    assert (g.eigenvalue, g.right, g.left, g.residual) == (None, None, None, None)
    assert g.state_law().tolist() == [1.0]
    with pytest.raises(ValueError, match="transfer guard: R <= 16"):
        g_exact_markov(truncated(2.0, 0.2, 17))


@pytest.mark.parametrize("R", [1, 2, 3])
def test_states_decode_and_shift_as_the_matrix_indexes_them(R):
    # state u holds the letters states[u]; row u is nonzero exactly at the
    # states that drop its oldest letter and append a new one
    p = table(tuple(0.5 / d for d in range(1, R + 1)), 0.7)
    g, M = g_exact_markov(p), transfer_matrix(p)
    assert sorted(g.states) == sorted(set(g.states))
    assert all(len(u) == R for u in g.states)
    for u, letters in enumerate(g.states):
        assert _encode_state(letters) == u
        successors = {_encode_state(letters[1:] + (s,)) for s in (-1, 1)}
        assert set(np.flatnonzero(M[u] > 0.0).tolist()) == successors


@pytest.mark.parametrize("R", [1, 3, 6])
def test_table_is_the_doob_transform_bit_for_bit(R):
    # g(b | u) = M[u, v] right[v] / (lam right[u]), v the state after u and letter bit b
    p = truncated(2.0, 0.3, R)
    g = g_exact_markov(p)
    M, right, lam = transfer_matrix(p), g.right, g.eigenvalue
    assert g.table.shape == (2, 1 << R)
    for u, letters in enumerate(g.states):
        for b, s in enumerate((-1, 1)):
            v = _encode_state(letters[1:] + (s,))
            assert g.table[b, u] == M[u, v] * right[v] / (lam * right[u])
            assert g.prob(letters, s) == g.table[b, u]


PERRON_LAWS = {
    "benchmark range 6": truncated(2.0, 0.3, 6),
    "table [1, 0, 0, 0, 1] beta 3": table((1.0, 0.0, 0.0, 0.0, 1.0), 3.0),
    "q 2 beta 5 range 6": truncated(2.0, 5.0, 6),
    "exponential rate 1e-6 beta 1 range 6": PairPotential(
        beta=1.0, coupling=CouplingLaw.exponential(1e-6), truncation_range=6
    ),
    "q 2 beta 20 range 3": truncated(2.0, 20.0, 3),
}


@pytest.mark.parametrize("name", PERRON_LAWS)
def test_table_is_the_perron_conditional_to_the_last_digit(name):
    # against the 60-digit conditional built from the pair law alone; a dense
    # eigensolver missed it by 1.6e-8 on the table law and refused the other three
    p = PERRON_LAWS[name]
    g, want = g_exact_markov(p), perron_conditional(p)
    for u, past in enumerate(g.states):
        for b, s in enumerate((-1, 1)):
            assert abs(g.table[b, u] - want[past, s]) <= 1e-15


def test_table_of_the_deepest_law_is_the_perron_conditional():
    p = truncated(1.2, 0.3, 10)
    g, want = g_exact_markov(p), perron_conditional(p)
    assert g.table.shape == (2, 1024)
    for u, past in enumerate(g.states):
        for b, s in enumerate((-1, 1)):
            assert abs(g.table[b, u] - want[past, s]) <= 1e-15


def test_table_at_the_deepest_range_is_the_long_window_conditional():
    # at TRANSFER_MAX_RANGE, where a step of the 60-digit oracle (3 s in all at
    # range 10) costs 2^6 times more: at a fixed spread of pasts, g(s | past) is
    # the law of site 0 under the window [0, 256], whose far future no longer
    # moves it in doubles
    R, n = TRANSFER_MAX_RANGE, 256
    p = truncated(2.0, 0.3, R)
    g = g_exact_markov(p)
    assert g.table.shape == (2, 1 << R)
    future = tuple(int(x) for x in np.random.default_rng(5).choice((-1, 1), size=R))
    for u in range(0, 1 << R, 4369):  # 16 states, 0 and 2^16 - 1 among them
        past = tuple(2 * ((u >> (R - 1 - i)) & 1) - 1 for i in range(R))
        boundary = Word(-R, past + (1,) * (n + 1) + future)
        for s in (-1, 1):
            assert abs(pi_window_at_zero(p, boundary, n, s).value - g.prob(past, s)) <= 1e-12, (u, s)


@pytest.mark.parametrize("R", range(1, TRANSFER_MAX_RANGE + 1))
def test_g_is_built_without_a_dense_solver(R, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact side called a dense solver")

    for name in ("eig", "eigvals", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    p = truncated(1.5, 0.45, R)  # a law no other test builds, so no cache serves it
    g = g_exact_markov(p)
    assert g.dependency_depth == R and g.table.shape == (2, 1 << R)
    assert g.residual <= 1e-12 * g.eigenvalue
    assert np.all(g.right > 0.0) and np.all(g.left > 0.0)


def test_a_perron_iteration_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(artifact.kernel, "PERRON_MAX_STEPS", 3)
    with pytest.raises(ArithmeticError, match="Perron iteration did not settle in 3 steps"):
        artifact.kernel._markov.__wrapped__(truncated(2.0, 0.3, 6))  # uncached: the law is built anew


def test_the_perron_vectors_are_those_of_the_dense_matrix():
    p = truncated(2.0, 2.0, 5)
    g, M = g_exact_markov(p), transfer_matrix(p)
    lam = g.eigenvalue
    assert np.max(np.abs(M @ g.right - lam * g.right)) <= 1e-12 * lam
    assert np.max(np.abs(g.left @ M - lam * g.left)) <= 1e-12 * lam
    assert g.left @ g.right == pytest.approx(1.0, abs=1e-15)
    assert np.max(g.right) == 1.0


def test_table_of_depth_zero_is_uniform():
    g = g_exact_markov(zero())
    assert g.table.tolist() == [[0.5], [0.5]]
    assert not g.table.flags.writeable


def test_exact_conditional_nearest_neighbor_value():
    # frozen closed form: g(+|+) = 1 / (1 + e^{-1}) at beta = 1
    g = g_exact_markov(nn(1.0))
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert g.prob((1,), 1) == pytest.approx(want, abs=1e-12)
    assert g.prob((-1,), -1) == pytest.approx(want, abs=1e-12)
    assert g.prob((1,), -1) == pytest.approx(1.0 - want, abs=1e-12)
    assert g.dependency_depth == 1


def test_exact_conditional_is_built_once_and_read_only():
    g = g_exact_markov(table((0.5, 0.25), 0.7))
    assert g_exact_markov(table((0.5, 0.25), 0.7)) is g
    for a in (g.right, g.left, g.table):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_exact_conditional_accepts_words():
    g = g_exact_markov(table((0.4, 0.3), 0.9))
    w = Word(-2, (1, -1))
    assert g.prob(w, 1) == pytest.approx(g.prob((1, -1), 1), abs=0.0)
    with pytest.raises(ValueError):
        g.prob((1,), 1)  # wrong depth
    with pytest.raises(ValueError):
        g.prob((1, -1), 0)  # not a letter
    with pytest.raises(ValueError, match="letters must be spins"):
        g.prob((1, 0), 1)  # a past that is not letters


def test_a_word_missing_a_past_site_is_a_value_error():
    # the word covers site -1 only: the law of depth 2 needs site -2 too
    g = g_exact_markov(table((0.5, 0.25), 0.7))
    with pytest.raises(ValueError, match="word does not cover required site -2"):
        g.prob(Word(-1, (1,)), 1)


def test_exact_conditional_rows_normalize_and_flip():
    # even interactions are spin-flip symmetric: g(s | w) = g(-s | -w)
    rng = np.random.default_rng(14)
    for _ in range(5):
        values = tuple(rng.uniform(0.05, 1.0, size=3))
        g = g_exact_markov(table(values, 0.8))
        for u in g.states:
            assert sum(g.prob(u, s) for s in (-1, 1)) == pytest.approx(1.0, abs=1e-12)
            flipped = tuple(-s for s in u)
            for s in (-1, 1):
                assert g.prob(u, s) == pytest.approx(g.prob(flipped, -s), abs=1e-12)


def test_exact_conditional_zero_coupling_uniform():
    g = g_exact_markov(zero())
    assert g.dependency_depth == 0
    assert g.states == ((),)
    assert g.prob((), 1) == 0.5
    assert g.state_law() == pytest.approx(np.array([1.0]))


def test_state_law_is_shift_stationary():
    # pushing the state law one step through the conditional must reproduce it
    g = g_exact_markov(table((0.7, 0.2), 1.0))
    law = g.state_law()
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    pushed = np.zeros_like(law)
    for u, letters in enumerate(g.states):
        for s in (-1, 1):
            v = _encode_state(letters[1:] + (s,))
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



# -- the window engine, pinned bit for bit -------------------------------------------

# float.hex of pi_window_at_zero and cesaro_estimate as the scaled passes first
# computed them; a rewrite of the passes must keep every bit
PIN_LAWS = {
    "nn 1.0": nn(1.0),
    "nn 0.4": nn(0.4),
    "table 0.6 0.2 0.1": table((0.6, 0.2, 0.1), 1.1),
    "q2 R6": truncated(2.0, 0.3, 6),
    "q1.2 R10": truncated(1.2, 1.2, 10),
    "zero": zero(),
}
PIN_CYLINDERS = {"+ + -": Word(0, (1, 1, -1)), "- + +": Word(-1, (-1, 1, 1))}


def mixed_word(a, length):
    """A boundary word that is neither constant nor periodic over a few sites."""
    return Word(a, tuple(1 if (k * k + 3 * k) % 7 < 3 else -1 for k in range(length)))


def minus_past_word(R, n):
    """The past -1 at sites [-R, -1], then +1 on the window and the future."""
    return Word(-R, (-1,) * R + (1,) * (n + 1 + R))


def pinned_windows(name, boundary):
    """pi_window_at_zero of both letters at n = 0, 7 and 1500, as float.hex."""
    p = PIN_LAWS[name]
    R = p.finite_range
    got = []
    for n in (0, 7, 1500):
        word = mixed_word(-R, n + 2 * R + 1) if boundary == "mixed" else minus_past_word(R, n)
        got += [pi_window_at_zero(p, word, n, s).value.hex() for s in (1, -1)]
    return got


def pinned_averages(name, cylinder):
    """cesaro_estimate of the cylinder at n = 5 and 64, from a mixed and both
    constant boundaries, as float.hex."""
    p = PIN_LAWS[name]
    R = p.finite_range
    got = []
    for n in (5, 64):
        for b in ("mixed", 1, -1):
            word = mixed_word(-R - 2, n + 2 * R + 4) if b == "mixed" else Word.constant(-R - 2, n + 2 * R + 4, b)
            got.append(cesaro_estimate(p, PIN_CYLINDERS[cylinder], n, word).hex())
    return got


WINDOW_PINS = {
    ("nn 1.0", "mixed"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.75e2038cd2690p-1",
        "0x1.143bf8e65b2e1p-2", "0x1.764d4f5d5a2bcp-1", "0x1.136561454ba86p-2",
    ],
    ("nn 1.0", "minus past"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.143bf8e65b2e1p-2",
        "0x1.75e2038cd2690p-1", "0x1.136561454ba86p-2", "0x1.764d4f5d5a2bcp-1",
    ],
    ("nn 0.4", "mixed"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.32870b3e5b337p-1",
        "0x1.9af1e98349993p-2", "0x1.32873061674b2p-1", "0x1.9af19f3d3169cp-2",
    ],
    ("nn 0.4", "minus past"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.9af1e98349993p-2",
        "0x1.32870b3e5b337p-1", "0x1.9af19f3d3169cp-2", "0x1.32873061674b2p-1",
    ],
    ("table 0.6 0.2 0.1", "mixed"): [
        "0x1.91248b6dc9cabp-2", "0x1.376dba491b1abp-1", "0x1.28d3dd730a124p-2",
        "0x1.6b9611467af6ep-1", "0x1.249c78f699154p-2", "0x1.6db1c384b3755p-1",
    ],
    ("table 0.6 0.2 0.1", "minus past"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.010b74239cf0bp-2",
        "0x1.7f7a45ee3187bp-1", "0x1.f1bd6aa7a77dfp-3", "0x1.8390a55616208p-1",
    ],
    ("q2 R6", "mixed"): [
        "0x1.e55b7fde11324p-2", "0x1.0d524010f766fp-1", "0x1.b508c0bd243a5p-2",
        "0x1.257b9fa16de2ep-1", "0x1.b4b216ee3074ap-2", "0x1.25a6f488e7c5ap-1",
    ],
    ("q2 R6", "minus past"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.899cf8570a5abp-2",
        "0x1.3b3183d47ad2bp-1", "0x1.882bc5ff96bcdp-2", "0x1.3bea1d0034a1ap-1",
    ],
    ("q1.2 R10", "mixed"): [
        "0x1.2354942e0bc4ap-3", "0x1.b72adaf47d0edp-1", "0x1.e79fa9c474435p-7",
        "0x1.f8618158ee2efp-1", "0x1.41fab5c27b503p-7", "0x1.faf81528f612dp-1",
    ],
    ("q1.2 R10", "minus past"): [
        "0x1.ffffffffffffdp-2", "0x1.0000000000001p-1", "0x1.f56c7a7c25a4cp-4",
        "0x1.c15270b07b4b6p-1", "0x1.c68befe343768p-9", "0x1.fe3974101cbc8p-1",
    ],
    ("zero", "mixed"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
    ],
    ("zero", "minus past"): [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
    ],
}
AVERAGE_PINS = {
    ("nn 1.0", "+ + -"): [
        "0x1.7c976b515bcc6p-4", "0x1.c8b5b3fb3af53p-5", "0x1.7c976b515bcc6p-4",
        "0x1.aa0e1bf009dbfp-4", "0x1.8613fcc262976p-4", "0x1.92a946fa34394p-4",
    ],
    ("nn 1.0", "- + +"): [
        "0x1.7c976b515bcc5p-4", "0x1.7c976b515bcc5p-4", "0x1.7c976b515bcc5p-4",
        "0x1.aa0e1bf009dc0p-4", "0x1.92a946fa34394p-4", "0x1.92a946fa34392p-4",
    ],
    ("nn 0.4", "+ + -"): [
        "0x1.eb4737db029a3p-4", "0x1.26c454b69b295p-4", "0x1.eb4737db029a3p-4",
        "0x1.ff364671de02bp-4", "0x1.dcad64d069519p-4", "0x1.ec0dd36bc78e0p-4",
    ],
    ("nn 0.4", "- + +"): [
        "0x1.eb4737db029a3p-4", "0x1.eb4737db029a3p-4", "0x1.eb4737db029a3p-4",
        "0x1.ff364671de02ap-4", "0x1.ec0dd36bc78e0p-4", "0x1.ec0dd36bc78e0p-4",
    ],
    ("table 0.6 0.2 0.1", "+ + -"): [
        "0x1.ef6b697b621adp-4", "0x1.cabd5d6d75da3p-5", "0x1.ea01d3e8a962ap-5",
        "0x1.7a38314c88b9ep-4", "0x1.694b3c06eac8ap-4", "0x1.697de2ce0bccap-4",
    ],
    ("table 0.6 0.2 0.1", "- + +"): [
        "0x1.5c4c269231d59p-5", "0x1.6707f45d5ba82p-4", "0x1.ea01d3e8a962ap-5",
        "0x1.5ee2e5dd72344p-4", "0x1.75116657e25b2p-4", "0x1.697de2ce0bcc8p-4",
    ],
    ("q2 R6", "+ + -"): [
        "0x1.fd34f8eb91775p-4", "0x1.329c7a0c7a04ap-4", "0x1.9b1d31ebb8350p-4",
        "0x1.de331d135bab6p-4", "0x1.d008aa49d8d8ap-4", "0x1.d7e1dd7892810p-4",
    ],
    ("q2 R6", "- + +"): [
        "0x1.f8155278666f6p-5", "0x1.eec01aeb5b3ddp-4", "0x1.9b1d31ebb8350p-4",
        "0x1.c9a8d17948142p-4", "0x1.df284e5266d9cp-4", "0x1.d7e1dd7892811p-4",
    ],
    ("q1.2 R10", "+ + -"): [
        "0x1.8a96863d88bb3p-7", "0x1.ab2c64108597dp-10", "0x1.1d6f5b82a0572p-14",
        "0x1.0ca71b4feb54bp-11", "0x1.630aae7f0f954p-9", "0x1.7e76fd44745fdp-14",
    ],
    ("q1.2 R10", "- + +"): [
        "0x1.9f82a4a0dcf3dp-9", "0x1.1e068681bdbb2p-9", "0x1.1d6f5b82a0573p-14",
        "0x1.cab4a1a7d823dp-13", "0x1.68becb15ba431p-9", "0x1.7e76fd44745ffp-14",
    ],
    ("zero", "+ + -"): [
        "0x1.6666666666666p-3", "0x1.3333333333333p-4", "0x1.0000000000000p-3",
        "0x1.0000000000000p-3", "0x1.f000000000000p-4", "0x1.0000000000000p-3",
    ],
    ("zero", "- + +"): [
        "0x1.6666666666666p-3", "0x1.0000000000000p-3", "0x1.0000000000000p-3",
        "0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.0000000000000p-3",
    ],
}
# the library calls of the finite_range_exact benchmark: nearest-neighbour windows
# from the past -1, letter +1, and the R = 6 single-site average from both boundaries
BENCH_WINDOW_PINS = {
    64: "0x1.136561454ba86p-2",
    128: "0x1.136561454ba86p-2",
    256: "0x1.136561454ba87p-2",
    512: "0x1.136561454ba87p-2",
    1024: "0x1.136561454ba86p-2",
    2048: "0x1.136561454ba86p-2",
    4096: "0x1.136561454ba86p-2",
}
BENCH_AVERAGE_PINS = {
    1: "0x1.0102df9708d54p-1",
    -1: "0x1.fdfa40d1ee556p-2",
}


def test_window_engine_is_pinned_bit_for_bit():
    for (name, boundary), want in WINDOW_PINS.items():
        assert pinned_windows(name, boundary) == want, (name, boundary)
    for (name, cylinder), want in AVERAGE_PINS.items():
        assert pinned_averages(name, cylinder) == want, (name, cylinder)
    for n, want in BENCH_WINDOW_PINS.items():
        assert pi_window_at_zero(nn(1.0), minus_past_word(1, n), n, 1).value.hex() == want, n
    for b, want in BENCH_AVERAGE_PINS.items():
        assert cesaro_estimate(truncated(2.0, 0.3, 6), Word(0, (1,)), 256, Word.constant(-6, 268, b)).hex() == want, b


def test_the_benchmark_library_calls_run(monkeypatch):
    # the library process of perfbench's finite_range_exact workload, at its smoke
    # sizes: the calls it makes into kernel and dynamics, checked as it checks them
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)  # its checks set 40 digits
    spec = importlib.util.spec_from_file_location("perfbench_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    workloads = importlib.import_module("workloads")
    (lib,) = [proc for proc in workloads.build("finite_range_exact", smoke=True) if proc.mode == "lib"]
    checked = workloads.check_lib(lib, child._run_lib(artifact, lib.job))
    assert len(checked) == len(lib.job["calls"])
    assert [(name, errors) for name, errors, _ in checked if errors] == []


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


def _dobrushin_oracle(values, beta):
    """sum_s sum_{j != 0} sup |phi(s|x) - phi(s|x')| over all environments x
    on [-R, R] minus {0} and their flips x' at j, phi from the Boltzmann
    weights exp(0.5 beta J(|j|) s x_j) of the tagged letter s."""
    R = len(values)
    J = np.array(values + values[::-1])  # couplings of sites -1 .. -R, then 1 .. R
    envs = np.array([[1.0 if (e >> k) & 1 else -1.0 for k in range(2 * R)] for e in range(1 << (2 * R))])

    def phi(s, x):
        w = {t: np.exp(0.5 * beta * t * (x @ J)) for t in (-1, 1)}
        return w[s] / (w[-1] + w[1])

    total = 0.0
    for s in (-1, 1):
        for j in range(2 * R):
            flipped = envs.copy()
            flipped[:, j] *= -1.0
            total += float(np.max(np.abs(phi(s, envs) - phi(s, flipped))))
    return total


def test_dobrushin_matches_sup_over_environments():
    rng = np.random.default_rng(20261018)
    for case in range(40):
        R = int(rng.integers(1, 6))
        values = [0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0)) for _ in range(R)]
        beta = 0.0 if case % 8 == 0 else float(3.0 - rng.uniform(0.0, 3.0))  # (0, 3]
        want = _dobrushin_oracle(values, beta)
        assert dobrushin_sum(table(values, beta)) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("R", [6, 7])
def test_dobrushin_meets_in_the_middle_at_longer_range(R):
    # an odd and an even count of other distances split into unequal halves
    rng = np.random.default_rng(20261018 + R)
    for _ in range(3):
        values = [0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.0)) for _ in range(R)]
        beta = float(3.0 - rng.uniform(0.0, 3.0))
        want = _dobrushin_oracle(values, beta)
        assert dobrushin_sum(table(values, beta)) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_dobrushin_regression_values_and_memory():
    assert dobrushin_sum(truncated(2.0, 0.3, 6)) == 0.8902913649104236
    p = truncated(2.0, 0.3, 12)
    tracemalloc.start()
    try:
        got = dobrushin_sum(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0.9344481167007079
    assert peak < 8 * 2**20


# -- window-sum operator and the two-environment ratio ----------------------------


def test_apply_L_zero_coupling_counts_words():
    x = all_plus(-1, 6)
    assert apply_L(zero(), 0, 2, lambda w: 1.0, x) == pytest.approx(8.0, abs=0.0)


def test_apply_L_single_site_matches_factor():
    # [m, n] = [0, 0]: the sum is f_0(+ word) + f_0(- word)
    p = nn(0.8)
    x = all_plus(-1, 2)
    got = apply_L(p, 0, 0, lambda w: 1.0, x)
    want = sum(
        math.exp(0.5 * 0.8 * s * (x.at(-1) + x.at(1))) for s in (-1, 1)
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_apply_L_guards():
    p = nn(0.5)
    with pytest.raises(ValueError):
        apply_L(p, 2, 1, lambda w: 1.0, all_plus(-1, 5))
    with pytest.raises(ValueError):
        apply_L(p, 0, 20, lambda w: 1.0, all_plus(-1, 25))


def test_rho_equal_environments_is_one():
    p = table((0.9, 0.4), 0.6)
    x = all_plus(-2, 8)
    for k, n in [(0, 2), (1, 3), (2, 4)]:
        assert rho_bruteforce(p, k, n, x, x) == pytest.approx(1.0, abs=1e-12)


def test_rho_zero_coupling_is_one():
    rng = np.random.default_rng(15)
    x = random_word(rng, -2, 8)
    y = random_word(rng, -2, 8)
    assert rho_bruteforce(zero(), 1, 3, x, y) == pytest.approx(1.0, abs=1e-12)


def test_rho_bounded_by_one_when_environments_differ():
    # differing environments can only lower the infimum of ratios
    p = nn(0.7)
    x = all_plus(-1, 8)
    y = Word(-1, tuple(-1 if i == 0 else 1 for i in range(10)))
    val = rho_bruteforce(p, 0, 3, x, y)
    assert 0.0 < val <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        rho_bruteforce(p, 3, 2, x, y)
    with pytest.raises(ValueError):
        rho_bruteforce(p, 0, 3, x, y, m_grid=(-1,))


# -- the variation var_n(log g) of the exact conditional -------------------------


def oracle_log_variation(want, n):
    """var_n(log g) of the 60-digit conditional ``want``: the largest spread
    of log g(s | past) over pasts that agree on their last n letters."""
    groups = {}
    for (past, s), value in want.items():
        groups.setdefault((past[len(past) - n:] if n else (), s), []).append(math.log(value))
    return max(max(v) - min(v) for v in groups.values())


VARIATION_LAWS = {
    "[1]*6 beta 5": table((1.0,) * 6, 5.0),
    "[1, .5, .25, .1] beta 0.7": table((1.0, 0.5, 0.25, 0.1), 0.7),
    "q 1.2 beta 0.3 range 10": truncated(1.2, 0.3, 10),
}


@pytest.mark.parametrize("name", VARIATION_LAWS)
def test_log_variation_is_that_of_the_perron_conditional(name):
    p = VARIATION_LAWS[name]
    g, want = g_exact_markov(p), perron_conditional(p)
    for n in range(p.finite_range + 1):
        assert abs(g.log_variation(n) - oracle_log_variation(want, n)) <= 1e-13


def test_log_variation_vanishes_from_the_range_on():
    g = g_exact_markov(truncated(2.0, 0.4, 3))
    for n in (3, 4, 5, 40):
        assert g.log_variation(n) == 0.0
    assert g.log_variation(2) > 0.0
    with pytest.raises(ValueError, match="agreement depth"):
        g.log_variation(-1)


def test_log_variation_zero_coupling():
    for n in (0, 1, 7):
        assert g_exact_markov(zero()).log_variation(n) == 0.0


def test_log_variation_does_not_increase_with_agreement():
    g = g_exact_markov(table((1.0, 0.6, 0.3, 0.1), 0.9))
    vals = [g.log_variation(n) for n in range(6)]
    assert vals[0] > 0.0 and all(b <= a for a, b in zip(vals, vals[1:]))


def test_an_underflowing_g_is_refused_where_the_table_is_built():
    import warnings

    # g(+ | - -) is positive but lies below the smallest normal double: 0 once written
    p = table((350.0, 250.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no log of 0 on the way
        with pytest.raises(ArithmeticError, match=r"conditional g at \(-1, -1\) underflows the double range"):
            g_exact_markov(p)


def test_no_two_entry_table_gives_a_subnormal_g():
    # strong two-entry tables: each either gives normal entries only or raises the guard
    refused = 0
    for first in range(250, 351, 10):
        for second in np.linspace(0.0, 300.0, 8):
            try:
                g = g_exact_markov(table((float(first), float(second)), 1.0))
            except ArithmeticError as exc:
                assert "underflows the double range" in str(exc)
                refused += 1
                continue
            assert g.table.min() >= 2.0**-1022
            assert math.isfinite(g.log_variation(0))
    assert 0 < refused < 88


def test_log_variation_of_a_vanishing_conditional_law_is_refused():
    import warnings

    # steps of e^(+-300) stay in the double range, but the Perron vector leaves it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="Perron vector not strictly positive"):
            g_exact_markov(table((300.0, 200.0, 100.0), 1.0)).log_variation(1)


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
        for s in (-1, 1):
            want = plain_weight(p, past, fut, n, {0: s}) / den
            assert abs(pi_window_at_zero(p, boundary, n, s).value - want) <= 1e-12


def test_scaled_passes_match_enumeration_up_to_the_guard():
    rng = np.random.default_rng(17)
    for R in (1, 2, 3):
        p = table(tuple(rng.uniform(0.1, 1.0, size=R)), 0.9)
        for n in (2, 9, 12):
            boundary = random_word(rng, -R, n + R)
            for s in (-1, 1):
                enum = pi_window_enumeration(p, boundary, n, s)
                assert abs(pi_window_at_zero(p, boundary, n, s).value - enum) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_weights_raise():
    # beta * J so large that the step weights themselves overflow
    p = nn(2000.0)
    with pytest.raises(ArithmeticError):
        pi_window_at_zero(p, all_plus(-1, 5), 4, 1)
    with pytest.raises(ArithmeticError):
        g_exact_markov(p)


def test_an_overflowing_coupling_is_refused_before_the_walk():
    import warnings

    p = PairPotential(beta=1.0, coupling=CouplingLaw.finite_table([1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (
            lambda: g_exact_markov(p),
            lambda: pi_window_at_zero(p, Word(-2, (1,) * 15), 10, 1),
        ):
            with pytest.raises(ArithmeticError, match="coupling leaves the double range"):
                run()
    # half the largest exponent still walks: weights up to e^354
    assert 0.0 < g_exact_markov(PairPotential(beta=1.0, coupling=CouplingLaw.finite_table([354.0]))).prob((1,), 1) <= 1.0
