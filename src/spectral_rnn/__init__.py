"""Moment-based training of polynomial recurrent sequence models.

Pipeline: simulate a linear-Gaussian input chain, form cross-moments of the
outputs with the chain's score tensors, decompose the resulting low-rank
tensors, and read model parameters off the factors.  Diagnostics quantify
recovery error modulo the model's symmetry group and evaluate deviation
bounds.
"""

__version__ = "0.1.0"

from .sequence_models import (AssumptionError, BrnnParams, MarkovChainSpec,
                              RnnParams, SequenceData, bounded_input_spec,
                              brnn_forward, rnn_forward, sample_markov_chain,
                              stationary_covariance)
from .score import centered_scores, precision_matrix, stein_check
from .moments import (MomentTensor, cross_moment, cross_moment_s2,
                      cross_moment_s4_reshaped, population_moment_oracle)
from .cp_decomp import CpDecomposition, decompose
from .recovery import (BrnnEstimate, RnnEstimate, quadratic_moments,
                       recover_brnn, recover_linear, recover_quadratic,
                       recover_scalar, train_brnn, train_linear,
                       train_quadratic, train_scalar)
from .diagnostics import (RecoveryReport, SweepResult, align,
                          concentration_bound, lipschitz_bound, sample_sweep)
from .config import ConfigError, ExperimentConfig, parse_config

__all__ = (
    "AssumptionError", "BrnnParams", "MarkovChainSpec", "RnnParams", "SequenceData",
    "bounded_input_spec", "brnn_forward", "rnn_forward", "sample_markov_chain",
    "stationary_covariance",
    "centered_scores", "precision_matrix", "stein_check",
    "MomentTensor", "cross_moment", "cross_moment_s2", "cross_moment_s4_reshaped",
    "population_moment_oracle",
    "CpDecomposition", "decompose",
    "BrnnEstimate", "RnnEstimate", "quadratic_moments", "recover_brnn", "recover_linear",
    "recover_quadratic", "recover_scalar", "train_brnn", "train_linear", "train_quadratic",
    "train_scalar",
    "RecoveryReport", "SweepResult", "align", "concentration_bound", "lipschitz_bound",
    "sample_sweep",
    "ConfigError", "ExperimentConfig", "parse_config",
)
