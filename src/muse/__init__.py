"""muse: quantify the use of RF spectrum.

Spectrum is consumed by transmitters (the power they deposit) and by
receivers (the interference constraints they impose).  This package
evaluates both over a discretized space-time-frequency grid: per-cell
occupancy, opportunity and liability; per-entity and system-wide
consumption spaces; the performance spaces of spectrum management
functions; and RF connectivity between adjacent regions.
"""

__version__ = "0.1.0"

from .connectivity import ConnectivityMap, LinkAssessment, build_connectivity_map, link_feasibility
from .consumption import (
    CellMetrics,
    ConsumptionMaps,
    ConsumptionReport,
    PointMetrics,
    aggregate_occupancy_at,
    cell_metrics,
    compute_maps,
    entity_consumption,
    interference_margin,
    interference_opportunity,
    net_opportunity_at,
    point_metrics,
    receiver_sinr,
    system_report,
    system_reports,
    tx_occupancy_at,
)
from .grid import Band, Cell, GridSpec, SpectrumGrid, total_spectrum_space
from .model import (
    Receiver,
    RFLink,
    RFNetwork,
    RFSystem,
    SystemParams,
    Transmitter,
    UnknownEntityError,
    ValidationReport,
    entity_selector,
    validate_system,
)
from .propagation import (
    OMNI,
    AntennaPattern,
    PropagationModel,
    path_gain,
)
from .scenario_io import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    read_map_csv,
    save_scenario,
    serialize_scenario,
    write_map_csv,
)
from .smf import (
    OpportunityMap,
    SensingErrorModel,
    SMFReport,
    apply_policy,
    compare_maps,
    exploitation_report,
    opportunity_map,
    simulate_recovery,
)
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__all__ = [
    "AntennaPattern",
    "Band",
    "Cell",
    "CellMetrics",
    "ConnectivityMap",
    "ConsumptionMaps",
    "ConsumptionReport",
    "GridSpec",
    "LinkAssessment",
    "OMNI",
    "OpportunityMap",
    "PointMetrics",
    "PropagationModel",
    "Receiver",
    "RFLink",
    "RFNetwork",
    "RFSystem",
    "ScenarioError",
    "SensingErrorModel",
    "SMFReport",
    "SpectrumGrid",
    "SystemParams",
    "Transmitter",
    "UnknownEntityError",
    "ValidationReport",
    "aggregate_occupancy_at",
    "apply_policy",
    "build_connectivity_map",
    "cell_metrics",
    "compare_maps",
    "compute_maps",
    "db_to_linear",
    "dbm_to_watts",
    "entity_consumption",
    "entity_selector",
    "exploitation_report",
    "interference_margin",
    "interference_opportunity",
    "linear_to_db",
    "link_feasibility",
    "load_scenario",
    "net_opportunity_at",
    "opportunity_map",
    "parse_scenario",
    "path_gain",
    "point_metrics",
    "read_map_csv",
    "receiver_sinr",
    "save_scenario",
    "serialize_scenario",
    "simulate_recovery",
    "system_report",
    "system_reports",
    "total_spectrum_space",
    "tx_occupancy_at",
    "validate_system",
    "watts_to_dbm",
    "write_map_csv",
]
