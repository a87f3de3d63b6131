"""Link-rate and RF exposure calculations for on-body wearable radios.

Models a single wearable transmitter near skin: free-space link
budget and Shannon rate on one side, incident power density and
specific absorption rate on the other, plus a solver for the
minimum separation distance that satisfies a regulatory SAR limit.
"""

from .antenna import AntennaConfig, PatternModel, gain_dbi
from .compliance import (
    BUILTIN_LIMITS,
    COMPLIANT_EVERYWHERE,
    ComplianceLimit,
    DistanceSearch,
    LimitUnreachableError,
    min_safe_distance,
    sweep,
)
from .exposure import (
    ConvergenceError,
    ExposureResult,
    QuadratureSpec,
    TissueProperties,
    power_density,
    reflection_coefficient,
    sar_avg,
    sar_boundary,
)
from .link import (
    BOLTZMANN_J_PER_K,
    LinkScenario,
    db_to_linear,
    dbm_to_watts,
    fspl_db,
    linear_to_db,
    noise_power_dbm,
    shannon_rate_bps,
    snr_db,
    watts_to_dbm,
)
from .scenario import (
    CSV_FIELDS,
    ScenarioError,
    ScenarioFile,
    SweepGrid,
    emit_results,
    load_preset,
    load_scenario,
    preset_names,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig",
    "PatternModel",
    "gain_dbi",
    "BUILTIN_LIMITS",
    "COMPLIANT_EVERYWHERE",
    "ComplianceLimit",
    "DistanceSearch",
    "LimitUnreachableError",
    "min_safe_distance",
    "sweep",
    "ConvergenceError",
    "ExposureResult",
    "QuadratureSpec",
    "TissueProperties",
    "power_density",
    "reflection_coefficient",
    "sar_avg",
    "sar_boundary",
    "BOLTZMANN_J_PER_K",
    "LinkScenario",
    "db_to_linear",
    "dbm_to_watts",
    "fspl_db",
    "linear_to_db",
    "noise_power_dbm",
    "shannon_rate_bps",
    "snr_db",
    "watts_to_dbm",
    "CSV_FIELDS",
    "ScenarioError",
    "ScenarioFile",
    "SweepGrid",
    "emit_results",
    "load_preset",
    "load_scenario",
    "preset_names",
    "serialize_scenario",
    "__version__",
]
