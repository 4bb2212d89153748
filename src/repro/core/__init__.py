"""The paper's primary contribution: the DP-Box hardware module.

Cycle-level DP-Box model (command FSM, guards, prefetching, latency),
Algorithm-1 budget control with exact Fig.-8 segment tables, the
area/power/energy model, and the software reference implementation used
for the hardware-vs-software comparison.
"""

from .budget import BudgetEngine
from .commands import Command
from .design_space import DesignPoint, design_point, minimum_input_bits
from .config import DPBoxConfig, GuardMode, validate_epsilon_exponent
from .dpbox import DPBox, DPBoxDriver, NoisingResult
from .energy import (
    BUDGET_LOGIC_OVERHEAD,
    DPBOX_BASELINE,
    DPBOX_RELAXED,
    HW_BOX_ACTIVE_CYCLES,
    HW_MCU_CYCLES,
    SW_FLOAT_CYCLES,
    SW_FXP_CYCLES,
    EnergyModel,
    SynthesisPoint,
)
from .fsm import Phase
from .multisensor import ChannelConfig, ChannelReply, MultiSensorDPBox
from .latency import BASE_NOISING_CYCLES, LatencyStats, collect_latency, expected_latency_cycles
from .segments import Segment, SegmentTable, build_segment_table
from .serialization import config_from_dict, config_to_dict, load_config, save_config
from .selftest import (
    CheckResult,
    SelfTestReport,
    bit_bias_scan,
    cordic_check,
    monobit_check,
    noise_shape_check,
    run_selftest,
    runs_check,
)
from .sw_reference import MSP430CostTable, SoftwareNoiser, paper_cycle_counts

__all__ = [
    "BudgetEngine",
    "Command",
    "DesignPoint",
    "design_point",
    "minimum_input_bits",
    "DPBoxConfig",
    "GuardMode",
    "validate_epsilon_exponent",
    "DPBox",
    "DPBoxDriver",
    "NoisingResult",
    "BUDGET_LOGIC_OVERHEAD",
    "DPBOX_BASELINE",
    "DPBOX_RELAXED",
    "HW_BOX_ACTIVE_CYCLES",
    "HW_MCU_CYCLES",
    "SW_FLOAT_CYCLES",
    "SW_FXP_CYCLES",
    "EnergyModel",
    "SynthesisPoint",
    "Phase",
    "ChannelConfig",
    "ChannelReply",
    "MultiSensorDPBox",
    "BASE_NOISING_CYCLES",
    "LatencyStats",
    "collect_latency",
    "expected_latency_cycles",
    "Segment",
    "SegmentTable",
    "build_segment_table",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
    "CheckResult",
    "SelfTestReport",
    "bit_bias_scan",
    "cordic_check",
    "monobit_check",
    "noise_shape_check",
    "run_selftest",
    "runs_check",
    "MSP430CostTable",
    "SoftwareNoiser",
    "paper_cycle_counts",
]
