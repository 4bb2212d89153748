"""Random-number generation substrate.

Everything between raw hardware bits and a Laplace noise sample lives
here: LFSR and Tausworthe uniform generators, CORDIC and piecewise-
polynomial logarithm units, the ideal (float) Laplace sampler, the
fixed-point noise generators of the paper with their exact output PMFs,
and the discrete-PMF algebra used by the privacy analysis.
"""

from .codebook import (
    CodebookCache,
    CodebookEntry,
    codebook_cache,
    configure_codebooks,
)
from .cordic import CordicLn, cordic_iteration_schedule
from .gaussian import FxpGaussianRng, gaussian_sigma, probit
from .geometric import FxpGeometricRng, IdealTwoSidedGeometric, geometric_alpha
from .inversion import FxpDatapath, FxpInversionRng
from .laplace_fxp import FxpLaplaceRng
from .laplace_ideal import IdealLaplace
from .lfsr import FibonacciLFSR, GaloisLFSR, MAXIMAL_TAPS
from .log_approx import PiecewisePolyLn
from .pmf import DiscretePMF
from .staircase import FxpStaircaseRng, StaircaseParams, optimal_gamma
from .tausworthe import Taus88, VectorTaus88, taus88_seed_streams
from .urng import (
    ExhaustiveSource,
    LfsrSource,
    NumpySource,
    SplitStreamSource,
    TauswortheSource,
    UniformCodeSource,
    audited_generator,
    shard_seed_sequences,
    spawn_shard_sources,
)

__all__ = [
    "CodebookCache",
    "CodebookEntry",
    "codebook_cache",
    "configure_codebooks",
    "CordicLn",
    "cordic_iteration_schedule",
    "FxpGaussianRng",
    "FxpGeometricRng",
    "IdealTwoSidedGeometric",
    "geometric_alpha",
    "gaussian_sigma",
    "probit",
    "FxpDatapath",
    "FxpInversionRng",
    "FxpStaircaseRng",
    "StaircaseParams",
    "optimal_gamma",
    "FxpLaplaceRng",
    "IdealLaplace",
    "FibonacciLFSR",
    "GaloisLFSR",
    "MAXIMAL_TAPS",
    "PiecewisePolyLn",
    "DiscretePMF",
    "Taus88",
    "VectorTaus88",
    "taus88_seed_streams",
    "ExhaustiveSource",
    "LfsrSource",
    "NumpySource",
    "SplitStreamSource",
    "TauswortheSource",
    "UniformCodeSource",
    "audited_generator",
    "shard_seed_sequences",
    "spawn_shard_sources",
]
