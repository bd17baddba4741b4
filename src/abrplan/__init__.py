"""abrplan: anticipative transmission scheduling and quality planning for
adaptive video streaming over a predicted capacity window."""

from .defaults import default_trace_config, default_video_spec
from .errors import (
    AbrPlanError,
    InfeasiblePartError,
    InfeasiblePlanError,
    InvalidScheduleError,
    NoFeasibleSessionError,
    OracleBudgetError,
    TraceFormatError,
)
from .model import (
    CapacityTrace,
    QualityLevel,
    QualityPlan,
    SessionOutcome,
    ThresholdSchedule,
    VideoSpec,
    compute_cost,
    compute_quality,
    compute_utilization,
    make_threshold_schedule,
)
from .planner import (
    Candidate,
    OracleResult,
    PartitionedPlan,
    PlanResult,
    enumerate_candidates,
    exhaustive_best_plan,
    fit_ascending_levels,
    invest_threshold,
    invest_threshold_candidates,
    optimal_threshold_candidates,
    plan_session,
    plan_with_stalls,
    relative_performance_error,
    select_candidate,
)
from .sim import evaluate, exist_violation, transmit_video
from .traces import (
    SyntheticTraceConfig,
    coarsen,
    generate_synthetic,
    load_trace,
    mean_trace,
    save_trace,
)

__version__ = "0.1.0"
