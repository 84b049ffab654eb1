"""Rigorous ratio bounds, exact kernels, and uniqueness criteria for
one-dimensional lattice Gibbs states with pair interactions.

The package splits into certified and empirical halves.  ``intervals``,
``potential``, ``ratiobound``, ``rows`` and ``criteria`` carry outward
rounding all the way from coupling tails to Holds/Fails verdicts, so every
inequality they assert holds for the true real quantities: each criterion,
R_n row and envelope is a closed form in the tails of the ``PairPotential``
it takes.  ``fseq`` holds the ``Word``s that pasts and boundaries are.  ``kernel``
computes exact finite-range conditionals, among them the g-measure's
conditional g (one record with the transfer matrix's Perron data) and its
variation var_n(log g), and ``dynamics`` samples from them in streamed
blocks; they exist to corroborate the certified half, never to replace it,
as do the uncertified recursion table and growth fits of ``diagnostics``.

Nothing is loaded before it is used.  The public names below resolve on
first access, so ``import artifact`` imports no submodule.  ``gibbs1d
check`` loads only the criteria path: ``criteria`` enumerates the Dobrushin
sum itself and reads only the decay envelope of ``ratiobound``, so it loads
neither ``kernel`` nor the R_n rows and tail tables of ``rows``, which only
``bounds`` imports.  The command line imports ``kernel`` only for ``gfun``,
the samplers and the measured var_n(log g) column of ``bounds``,
``dynamics`` only to sample or couple, and ``diagnostics`` never; it imports
either only for a law that passes the exact side's guards
(``potential.transfer_range``).  Every enclosure and every R_n row is scalar
interval arithmetic, and so are the diagnostics.  NumPy serves only
``kernel`` (the walks and the table of g) and ``dynamics`` (the samplers and
their CSV writers), which import it; ``artifact.cli`` only finds it, so that
a missing NumPy fails at its import.
"""
import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("intervals", "Interval"),
        ("potential", "CouplingLaw PairPotential SeriesValue ruelle_sum coelho_quas_sum tail_variation "
                      "slope_certificate"),
        ("fseq", "Word"),
        ("ratiobound", "DecayEnvelope DEFAULT_REL_WIDTH log_r_bound_envelope"),
        ("rows", "RnSeries rn_series g_variation_bound"),
        ("diagnostics", "RatioTable rb_limit_lower_bound berbee_series_partial_sums fit_growth_exponent "
                        "tauberian_diagnostic"),
        ("kernel", "MarkovConditional g_exact_markov pi_window_at_zero"),
        ("dynamics", "chain_blocks coupling_blocks cesaro_estimate write_chain_blocks write_coupling_blocks"),
        ("criteria", "Verdict CriteriaReport HOLDS FAILS INCONCLUSIVE UNIQUE_GIBBS UNIQUE_GIBBS_BERNOULLI "
                     "UNIQUE_TINV_GIBBS DEFAULT_ALPHA_GRID dobrushin_sum check_dobrushin check_ruelle check_coelho_quas "
                     "check_berbee check_variation_slope check_product_blocksum check_jop_blocksum "
                     "check_bcjo check_scaled_limsup evaluate_all"),
    )
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
