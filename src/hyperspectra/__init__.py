"""Adjacency spectra of non-uniform inhomogeneous random hypergraphs.

A model is a vertex count together with classes (size, probability); every
vertex subset of a class's size appears as a hyperedge independently with
that class's probability.  The package provides the closed-form statistics
of the centered, scaled adjacency matrix, exact samplers for the hypergraph
and for its Gaussian surrogate, spectral summaries against the predicted
semicircle law, and a brute-force oracle for models small enough to
enumerate.
"""

from .errors import BudgetExceededError, DegenerateModelError
from .gaussian import sample_surrogate, surrogate_coefficients
from .hypergraph import (
    Hypergraph,
    adjacency,
    center_scale,
    read_hypergraph_text,
    sample_adjacency_batches,
    sample_hypergraph,
    write_hypergraph_text,
)
from .oracle import ExactCovariances, ExactMoments, exact_covariances, exact_eesd_moments
from .spectral import (
    EmpiricalMeasure,
    SemicircleLaw,
    average_esd,
    eigenvalues,
    empirical_stieltjes,
    esd,
    ks_distance,
    moment,
)
from .theory import (
    ChatterjeeBound,
    CovarianceProfile,
    ModelParams,
    Regime,
    bernoulli_tail_second_moment,
    bernoulli_truncated_third_moment,
    chatterjee_bound,
    classify_regime_k2,
    covariance_profile,
    derive_stats,
    gaussian_tail_second_moment,
    gaussian_truncated_third_moment,
    limit_variance,
    log_binomial,
    log_expected_edges,
    pastur_lhs_bernoulli,
    pastur_lhs_gaussian,
    predicted_variance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ChatterjeeBound",
    "CovarianceProfile",
    "DegenerateModelError",
    "EmpiricalMeasure",
    "ExactCovariances",
    "ExactMoments",
    "Hypergraph",
    "ModelParams",
    "Regime",
    "SemicircleLaw",
    "adjacency",
    "average_esd",
    "bernoulli_tail_second_moment",
    "bernoulli_truncated_third_moment",
    "center_scale",
    "chatterjee_bound",
    "classify_regime_k2",
    "covariance_profile",
    "derive_stats",
    "eigenvalues",
    "empirical_stieltjes",
    "esd",
    "exact_covariances",
    "exact_eesd_moments",
    "gaussian_tail_second_moment",
    "gaussian_truncated_third_moment",
    "ks_distance",
    "limit_variance",
    "log_binomial",
    "log_expected_edges",
    "moment",
    "pastur_lhs_bernoulli",
    "pastur_lhs_gaussian",
    "predicted_variance",
    "read_hypergraph_text",
    "sample_adjacency_batches",
    "sample_hypergraph",
    "sample_surrogate",
    "surrogate_coefficients",
    "write_hypergraph_text",
    "__version__",
]
