"""Sampling and coupling from the exact conditional law.

Two chains driven by the same randomness but started from opposite pasts
forget their disagreement quickly when the interaction is weak: the maximal
coupling reuses one uniform draw per site, so the chains merge as soon as
their conditional laws overlap enough.  The decile table shows where the
disagreements live; after coalescence the trajectories are identical.

Run:  python3 demos/coupling_mixing.py
"""

import math
import os

import numpy as np

from artifact import (
    CouplingLaw,
    PairPotential,
    Word,
    chain_blocks,
    coupling_blocks,
    g_exact_markov,
    write_coupling_blocks,
)


def persistence_demo() -> None:
    p = PairPotential(beta=1.0, coupling=CouplingLaw.finite_table((1.0,)))
    g = g_exact_markov(p)
    blocks = chain_blocks(g, Word(-1, (1,)), 100_000, seed=20260814)
    s = 2 * np.concatenate(list(blocks)).astype(np.int8) - 1
    empirical = float(np.mean(s[1:] == s[:-1]))
    exact = math.exp(0.5) / (2.0 * math.cosh(0.5))
    print("nearest-neighbour chain, strength 1.0, 100k sites")
    print(f"  P(x_t = x_t-1)  sampled {empirical:.5f}   exact {exact:.5f}")
    print(f"  letter frequency  + {np.mean(s == 1):.5f}   - {np.mean(s == -1):.5f}")


def coupling_demo() -> None:
    p = PairPotential(
        beta=0.3, coupling=CouplingLaw.power_law(2.0), truncation_range=6
    )
    g = g_exact_markov(p)
    past_plus = Word.constant(-6, 6, 1)
    past_minus = Word.constant(-6, 6, -1)
    print("\ncoupled chains from all-plus vs all-minus pasts, 10k sites")
    print(f"{'seed':>10}  {'disagreements':>13}  {'coalesced at':>12}  decile density")
    N = 10_000
    for seed in (7, 14, 21, 20260814):
        # the writer tallies the run as it streams; its rows are not kept
        deciles, density, coalesced = write_coupling_blocks(
            os.devnull, coupling_blocks(g, past_plus, past_minus, N, seed), N
        )
        shown = " ".join(f"{d:.4f}" for d in deciles[:4]) + " ..."
        print(f"{seed:>10}  {round(density * N):>13}  {coalesced:>12}  {shown}")


if __name__ == "__main__":
    persistence_demo()
    coupling_demo()
