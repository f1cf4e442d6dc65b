"""Kernel-embedded transfer-operator learning with MMD ambiguity tubes.

The library learns a regularized embedded transfer operator from paired SDE
samples, pushes kernel-mean-embedded state distributions forward, and wraps
the propagated trajectory in an ambiguity tube whose radii come from either
a bootstrap operator-deviation quantile or a Bernstein concentration bound.
"""

from .analytic import (
    gaussian_embedding_inner,
    gaussian_embedding_norm,
    gaussian_embedding_value,
    mmd_to_gaussian,
)
from .bootstrap import BootstrapSummary, bootstrap_deviation_quantile, quantile_index
from .concentration import (
    MomentEstimates,
    bernstein_bound,
    estimate_hs_norm_cxy,
    estimate_moments,
    estimate_second_moment,
    poincare_envelope_hs,
    poincare_envelope_m2,
)
from .kernels import (
    Embedding,
    KernelSpec,
    embed_sample,
    eval_kernel,
    gram,
    median_bandwidth,
    mmd,
    rkhs_inner,
    rkhs_norm,
)
from .operators import (
    FittedOperator,
    OperatorNorms,
    fit,
    operator_diff_norm,
    operator_diff_norm_maximizer,
    operator_norm,
    operator_norm_maximizer,
    pushforward,
)
from .sde import (
    GaussianInitial,
    PairedDataset,
    PointInitial,
    SdeModel,
    UniformInitial,
    double_well_model,
    euler_maruyama,
    langevin_model,
    load_dataset,
    ou_exact_step,
    ou_model,
    save_dataset,
    simulate_pairs,
)
from .tube import (
    AmbiguityTube,
    TubeStep,
    closed_form_bound_computable,
    closed_form_bound_oracle,
    load_tube_radii,
    propagate_tube,
    radius_series,
    save_tube,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityTube",
    "BootstrapSummary",
    "Embedding",
    "FittedOperator",
    "GaussianInitial",
    "KernelSpec",
    "MomentEstimates",
    "OperatorNorms",
    "PairedDataset",
    "PointInitial",
    "SdeModel",
    "TubeStep",
    "UniformInitial",
    "bernstein_bound",
    "bootstrap_deviation_quantile",
    "closed_form_bound_computable",
    "closed_form_bound_oracle",
    "double_well_model",
    "embed_sample",
    "estimate_hs_norm_cxy",
    "estimate_moments",
    "estimate_second_moment",
    "euler_maruyama",
    "eval_kernel",
    "fit",
    "gaussian_embedding_inner",
    "gaussian_embedding_norm",
    "gaussian_embedding_value",
    "gram",
    "langevin_model",
    "load_dataset",
    "load_tube_radii",
    "median_bandwidth",
    "mmd",
    "mmd_to_gaussian",
    "operator_diff_norm",
    "operator_diff_norm_maximizer",
    "operator_norm",
    "operator_norm_maximizer",
    "ou_exact_step",
    "ou_model",
    "poincare_envelope_hs",
    "poincare_envelope_m2",
    "propagate_tube",
    "pushforward",
    "quantile_index",
    "radius_series",
    "save_dataset",
    "save_tube",
    "simulate_pairs",
]
