"""Rigorous ratio bounds, exact kernels, and uniqueness criteria for
one-dimensional lattice Gibbs states with pair interactions.

The package splits into certified and empirical halves.  ``intervals``,
``potential``, ``fseq``, ``ratiobound``, and ``criteria`` carry outward
rounding all the way from coupling tails to Holds/Fails verdicts, so every
inequality they assert holds for the true real quantities.  ``kernel`` and
``dynamics`` compute exact finite-range conditionals and sample from them;
they exist to corroborate the certified half, never to replace it.

Nothing is loaded before it is used.  The public names below resolve on
first access, so ``import artifact`` imports no submodule; the command line
imports ``kernel`` only for ``gfun``, the samplers, and the empirical column
of ``bounds`` and the Dobrushin sum of a finite-range law, and ``dynamics``
only to sample or couple.  Every enclosure ``gibbs1d check`` needs, and
every tail table and R_n row of ``bounds``, is scalar interval arithmetic,
and so are the ``ratiobound`` diagnostics (recursion table, growth fits).
NumPy serves only ``kernel`` (walks, enumerations) and ``dynamics`` (the
sampler); ``artifact.cli`` finds it at import and executes it on first use.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("intervals", "Interval"),
        ("potential", "CouplingLaw PairPotential SeriesValue VariationProfile "
                      "ruelle_sum coelho_quas_sum tail_variation"),
        ("fseq", "Word FSequence"),
        ("ratiobound", "RatioTable RnSeries DecayEnvelope LogRProfile DEFAULT_REL_WIDTH rb_limit_lower_bound "
                       "rn_series g_variation_bound log_r_bound_envelope berbee_series_partial_sums "
                       "fit_growth_exponent tauberian_diagnostic"),
        ("kernel", "TransferMatrix MarkovConditional g_exact_markov dobrushin_sum phi_window "
                   "pi_window_enumeration pi_window_at_zero rho_bruteforce "
                   "empirical_g_variation empirical_g_variation_profile"),
        ("dynamics", "ChainRun CouplingRun sample_chain couple_two_pasts cesaro_estimate "
                     "write_chain_csv write_coupling_csv"),
        ("criteria", "Verdict CriteriaReport HOLDS FAILS INCONCLUSIVE UNIQUE_GIBBS UNIQUE_GIBBS_BERNOULLI "
                     "UNIQUE_TINV_GIBBS DEFAULT_ALPHA_GRID check_dobrushin check_ruelle check_coelho_quas "
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
