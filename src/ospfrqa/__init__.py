"""OSPF anomaly detection with recurrence quantification analysis."""

from .detect import Alert, DetectorConfig, MeasureSeries, analyze_run, sliding_rqa
from .ingest import (
    CountSeries,
    EventColumns,
    EventFilter,
    LsaEvent,
    bin_series,
    read_lsa_log,
    write_lsa_log,
)
from .rqa import (
    MEASURE_NAMES,
    EmbedParams,
    RqaMeasures,
    embed,
    estimate_delay,
    estimate_dimension,
    false_nearest_neighbors,
    measures_for_series,
    mutual_information,
    phase_space_diameter,
    recurrence_matrix,
    rqa_measures,
    znormalize,
)
from .sim import (
    ScenarioEvent,
    Topology,
    load_topology,
    random_topology,
    scenario_paper_attacks,
    scenario_paper_failure,
    total_event_counts,
)

__version__ = "0.1.0"
