"""Two-stage MCMC with a Gaussian-process surrogate screening stage.

The samplers spend exact log-likelihood evaluations only on proposals that
survive a cheap surrogate-based pre-acceptance test; a second exact stage
keeps the chain's stationary distribution untouched.
"""

from .acceptance import (MalaProposalParams, StateSnapshot,
                         gaussian_quadratic_expectation, lognormal_mean_log,
                         mala_drift, mala_marginal_log_factor,
                         proposal_log_density,
                         stage1_log_alpha_mala, stage1_log_alpha_mh,
                         stage2_log_alpha_mala, stage2_log_alpha_mh)
from .diagnostics import (DegenerateChainError, MetricsReport, acceptance_rate,
                          aggregate_metrics, alpha_gap_series, build_metrics,
                          esjd, ess, sq_distance)
from .kernelgp import (DuplicatePointError, Evaluation, EvaluationLedger,
                       GPSurrogate, GradientModeError,
                       IllConditionedKernelError, KernelHyper,
                       SurrogatePrediction, append, fit,
                       log_marginal_likelihood, optimize_hypers, predict,
                       predict_joint, se_kernel, se_kernel_derivative_blocks)
from .samplers import (ChainTrace, InitializationError, SamplerConfig,
                       init_ledger, run_gp_mala, run_gp_mh, run_mala, run_mh)
from .targets import (CapabilityError, DomainError, OdeSolverError,
                      TargetInstance, laplace_marginal_ll, make_target,
                      sir_solve, standard_normal_target)

__version__ = "0.1.0"

__all__ = [
    "MalaProposalParams", "StateSnapshot",
    "gaussian_quadratic_expectation", "lognormal_mean_log", "mala_drift",
    "mala_marginal_log_factor", "proposal_log_density",
    "stage1_log_alpha_mala", "stage1_log_alpha_mh", "stage2_log_alpha_mala",
    "stage2_log_alpha_mh",
    "DegenerateChainError", "MetricsReport", "acceptance_rate",
    "aggregate_metrics", "alpha_gap_series", "build_metrics", "esjd", "ess",
    "sq_distance",
    "DuplicatePointError", "Evaluation", "EvaluationLedger", "GPSurrogate",
    "GradientModeError", "IllConditionedKernelError", "KernelHyper",
    "SurrogatePrediction", "append", "fit", "log_marginal_likelihood",
    "optimize_hypers", "predict", "predict_joint", "se_kernel",
    "se_kernel_derivative_blocks",
    "ChainTrace", "InitializationError", "SamplerConfig", "init_ledger",
    "run_gp_mala", "run_gp_mh", "run_mala", "run_mh",
    "CapabilityError", "DomainError", "OdeSolverError", "TargetInstance",
    "laplace_marginal_ll", "make_target", "sir_solve", "standard_normal_target",
    "__version__",
]
