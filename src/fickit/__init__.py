"""Model selection by Monte Carlo predictive-complexity estimation."""

__version__ = "0.1.0"

from .core import (Dataset, DensityError, FickitError, FitError, FittedModel,
                   MonteCarloEstimate, ParameterVector, StructuredDataError,
                   cross_entropy_mc, derive_seed, error_statistic,
                   kl_divergence_mc, kl_statistic, replicate_rng,
                   replicate_values, shannon_information, unwrap)

__all__ = [
    "Dataset", "DensityError", "FickitError", "FitError", "FittedModel",
    "MonteCarloEstimate", "ParameterVector", "StructuredDataError",
    "cross_entropy_mc", "derive_seed", "error_statistic",
    "kl_divergence_mc", "kl_statistic", "replicate_rng",
    "replicate_values", "shannon_information", "unwrap", "__version__",
]
