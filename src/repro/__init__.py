"""repro — Local Differential Privacy on Ultra-Low-Power Systems.

A full reproduction of Choi et al., *Guaranteeing Local Differential
Privacy on Ultra-low-power Systems* (ISCA 2018): the fixed-point Laplace
RNG and its exact output distribution, the proof that naive fixed-point
noising is not LDP, the resampling/thresholding guards with exact
threshold calibration, the DP-Box hardware model with Algorithm-1 budget
control, and the complete evaluation harness (Tables I–VI, Figs. 4–15).

Quickstart::

    import numpy as np
    from repro import SensorSpec, make_mechanism

    sensor = SensorSpec(94.0, 200.0)          # blood-pressure range
    mech = make_mechanism("thresholding", sensor, epsilon=0.5)
    noisy = mech.privatize(np.array([131.0])) # share this, not the truth
    assert mech.ldp_report().satisfied        # exact certification

See DESIGN.md for the subsystem inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from . import aggregation, analysis, attacks, core, datasets, fixedpoint, mechanisms, ml
from . import privacy, queries, rng, runtime, sensors, sim
from .core import (
    Command,
    DPBox,
    DPBoxConfig,
    DPBoxDriver,
    EnergyModel,
    GuardMode,
    NoisingResult,
)
from .errors import (
    BudgetExhaustedError,
    CalibrationError,
    ConfigurationError,
    FixedPointError,
    HardwareProtocolError,
    PrivacyError,
    PrivacyViolationError,
    ReproError,
    ResampleExhaustedError,
    UncalibratableConfigError,
)
from .mechanisms import (
    ARM_NAMES,
    DpBoxRandomizedResponse,
    FxpBaselineMechanism,
    IdealLaplaceMechanism,
    LocalMechanism,
    ResamplingMechanism,
    SensorSpec,
    ThresholdingMechanism,
    make_mechanism,
)
from .privacy import (
    LossReport,
    verify_additive_mechanism,
)
from .queries import (
    CountingQuery,
    MeanQuery,
    MedianQuery,
    VarianceQuery,
    measure_utility,
)
from .rng import FxpDatapath, FxpLaplaceRng, IdealLaplace
from .runtime import (
    CounterSink,
    JsonlSink,
    ReleaseEvent,
    ReleaseOutcome,
    ReleasePipeline,
    ReleaseRequest,
    RingBufferSink,
)

__version__ = "1.0.0"

__all__ = [
    # subpackages
    "aggregation",
    "analysis",
    "attacks",
    "core",
    "datasets",
    "fixedpoint",
    "mechanisms",
    "ml",
    "privacy",
    "queries",
    "rng",
    "runtime",
    "sensors",
    "sim",
    # DP-Box
    "Command",
    "DPBox",
    "DPBoxConfig",
    "DPBoxDriver",
    "EnergyModel",
    "GuardMode",
    "NoisingResult",
    # errors
    "BudgetExhaustedError",
    "CalibrationError",
    "ConfigurationError",
    "FixedPointError",
    "HardwareProtocolError",
    "PrivacyError",
    "PrivacyViolationError",
    "ReproError",
    "ResampleExhaustedError",
    "UncalibratableConfigError",
    # mechanisms
    "ARM_NAMES",
    "DpBoxRandomizedResponse",
    "FxpBaselineMechanism",
    "IdealLaplaceMechanism",
    "LocalMechanism",
    "ResamplingMechanism",
    "SensorSpec",
    "ThresholdingMechanism",
    "make_mechanism",
    # privacy
    "LossReport",
    "verify_additive_mechanism",
    # queries
    "CountingQuery",
    "MeanQuery",
    "MedianQuery",
    "VarianceQuery",
    "measure_utility",
    # rng
    "FxpDatapath",
    "FxpLaplaceRng",
    "IdealLaplace",
    # runtime
    "CounterSink",
    "JsonlSink",
    "ReleaseEvent",
    "ReleaseOutcome",
    "ReleasePipeline",
    "ReleaseRequest",
    "RingBufferSink",
    "__version__",
]
