"""Inference engines: rejection, likelihood weighting, single-site MH
("R2"), Church-like trace MH, and exact enumeration."""

from .base import (
    Engine,
    InferenceError,
    InferenceCancelled,
    InferenceResult,
    InferenceTimeout,
    InitializationError,
    UnsupportedProgramError,
    split_evenly,
)
from ..metrics.online import (
    ChainSummary,
    autocorrelation,
    cross_chain_diagnostics,
    effective_sample_size,
    split_r_hat,
)
from .enumeration import EnumerationEngine
from .gibbs import GibbsSampler
from .features import (
    distributions_used,
    has_hard_observe,
    has_loop,
    has_soft_conditioning,
)
from .importance import LikelihoodWeighting
from .mh import MetropolisHastings
from .rejection import RejectionSampler
from .smc import SMCSampler
from .tracemh import ChurchTraceMH

__all__ = [
    "Engine",
    "InferenceError",
    "InferenceCancelled",
    "InferenceResult",
    "InferenceTimeout",
    "InitializationError",
    "UnsupportedProgramError",
    "effective_sample_size",
    "split_evenly",
    "ChainSummary",
    "autocorrelation",
    "cross_chain_diagnostics",
    "split_r_hat",
    "EnumerationEngine",
    "GibbsSampler",
    "LikelihoodWeighting",
    "MetropolisHastings",
    "RejectionSampler",
    "SMCSampler",
    "ChurchTraceMH",
    "distributions_used",
    "has_hard_observe",
    "has_loop",
    "has_soft_conditioning",
]
