"""Two-cell cognitive network downlink simulator.

Interference-alignment precoding with secondary correction vectors,
achievable degrees-of-freedom regions, and water-filling-optimal sum
rates for a primary/secondary cell pair with two users each.
"""

__version__ = "0.1.0"

from .alignment import (
    EffectiveChannels,
    InterferenceReport,
    PrecoderReceiverSet,
    build_all,
    effective_channels,
    interference_report,
)
from .dof import (
    DofRegion,
    FeasibilityVerdict,
    Violation,
    closed_form_feasible,
    constructive_check,
    enumerate_region,
)
from .errors import (
    CogiaError,
    DegenerateChannel,
    GridTooLarge,
    InfeasibleAlloc,
    NoComplement,
    RankDeficient,
    ScenarioError,
    TooManyDegenerateDraws,
)
from .numerics import (
    min_norm_right_solve,
    null_space_basis,
    orth_complement_vector,
    svd_factor,
)
from .rates import (
    CellAllocation,
    CellRateResult,
    RatePoint,
    StreamGroup,
    cell_sum_rates,
    pcell_sum_rate,
    rate_region_sweep,
    scell_sum_rate,
    waterfill_cell,
)
from .scenario import (
    ChannelSet,
    NetworkDims,
    NoiseAndPower,
    Scenario,
    StreamAlloc,
    derive_seed,
    generate_channels,
    load_scenario,
)

__all__ = [
    "__version__",
    "EffectiveChannels", "InterferenceReport", "PrecoderReceiverSet",
    "build_all", "effective_channels", "interference_report",
    "DofRegion", "FeasibilityVerdict", "Violation",
    "closed_form_feasible", "constructive_check", "enumerate_region",
    "CogiaError", "DegenerateChannel", "GridTooLarge", "InfeasibleAlloc",
    "NoComplement", "RankDeficient", "ScenarioError", "TooManyDegenerateDraws",
    "min_norm_right_solve", "null_space_basis", "orth_complement_vector",
    "svd_factor",
    "CellAllocation", "CellRateResult", "RatePoint", "StreamGroup",
    "cell_sum_rates", "pcell_sum_rate", "rate_region_sweep", "scell_sum_rate",
    "waterfill_cell",
    "ChannelSet", "NetworkDims", "NoiseAndPower", "Scenario", "StreamAlloc",
    "derive_seed", "generate_channels", "load_scenario",
]
