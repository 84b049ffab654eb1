"""Certified variation bounds against the exact variation of g.

For a truncated inverse-square interaction the Gibbs state is a g-measure
whose conditional g is exactly computable, so the certified bound on
var_n(log g), the spread of log g over pasts that agree on their last n
letters, can be compared with the real thing.  The bound must dominate at
every depth and both collapse to exactly zero once the agreement depth
reaches the interaction range; the slack in between is the price of the
closed form.

Run:  python3 demos/certified_vs_measured.py
"""

from artifact import CouplingLaw, PairPotential
from artifact.kernel import g_exact_markov
from artifact.diagnostics import tauberian_diagnostic
from artifact.rows import g_variation_bound

BETA = 0.25
RANGE = 4


def main() -> None:
    p = PairPotential(
        beta=BETA, coupling=CouplingLaw.power_law(2.0), truncation_range=RANGE
    )
    depths = tuple(range(RANGE + 3))
    g = g_exact_markov(p)
    measured = [g.log_variation(m) for m in depths]

    print(f"J(n) = n**-2 truncated at {RANGE}, strength {BETA}: var_n(log g), exact and certified\n")
    print(f"{'depth':>5}  {'exact':>12}  {'certified hi':>12}  {'slack':>10}")
    for m, emp in zip(depths, measured):
        hi = g_variation_bound(p, m).bound.hi
        print(f"{m:>5}  {emp:>12.6g}  {hi:>12.6g}  {hi - emp:>10.3g}")

    # the untruncated law decays polynomially; the diagnostic compares the
    # bound against its predicted power-law shape on a doubling grid
    full = PairPotential(beta=BETA, coupling=CouplingLaw.power_law(2.0))
    report = tauberian_diagnostic(full, n_grid=tuple(2**e for e in range(4, 11)))
    print(
        f"\nfitted decay hypothesis: alpha = {report.alpha:.3f}, K = {report.K:.3f}"
        f"  (asymptote {report.asymptote:.4f})"
    )
    print(f"{'n':>6}  {'bound hi':>12}  {'ratio mid':>12}")
    for row in report.rows:
        mid = "" if row.ratio is None else f"{row.ratio.mid:>12.4f}"
        print(f"{row.n:>6}  {row.bound.hi:>12.6g}  {mid}")


if __name__ == "__main__":
    main()
