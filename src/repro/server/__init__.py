"""Continuous-media server simulation.

The substrate the paper's claims live in: a catalog of CM objects with
per-object seeds, a round-based retrieval scheduler serving concurrent
streams, online scaling that interleaves redistribution with playback,
and the Section 6 mirroring extension for fault tolerance.
"""

from repro.server.admission import (
    AdmissionRefusedError,
    AggregateAdmission,
    StatisticalAdmission,
    UtilizationAdmission,
)
from repro.server.cmserver import (
    CMServer,
    OperationInFlightError,
    PendingReshuffle,
    PendingScale,
    ScaleReport,
)
from repro.server.faults import (
    DataLossError,
    DiskDeathError,
    FaultInjector,
    MirrorDegenerateError,
    MirroredPlacement,
    TransientTransferError,
    derive_seed,
    mirror_offset,
)
from repro.server.health import (
    CircuitBreaker,
    DiskHealth,
    DiskHealthMonitor,
    ScrubReport,
    Scrubber,
)
from repro.server.reads import (
    DegradedStack,
    FailoverReadPlanner,
    MirrorProtection,
    ParityProtection,
    ReadStats,
    build_degraded_stack,
)
from repro.server.fsck import LayoutReport, check_layout, repair_layout
from repro.server.ingest import IngestReport, IngestSession
from repro.server.journal import (
    JournalCorruptionError,
    JournalError,
    OpJournalRecord,
    ReshuffleOp,
    ScalingJournal,
)
from repro.server.metrics import MetricsCollector, MetricsSummary
from repro.server.objects import MediaObject, ObjectCatalog
from repro.server.parity import ParityLayout, ParityPlacement
from repro.server.online import OnlineScaler, OnlineScaleReport
from repro.server.recovery import (
    DeathEscalationReport,
    RecoveryReport,
    escalate_disk_death,
    simulate_failure_recovery,
)
from repro.server.planner import CapacityPlan, GrowthForecast, minimum_bits, plan_capacity
from repro.server.persistence import (
    restore_server,
    resume_server,
    server_to_json,
    snapshot_server,
)
from repro.server.protocol import ServerProtocol
from repro.server.scheduler import RoundReport, RoundScheduler
from repro.server.simulation import DaySummary, ServerSimulation
from repro.server.streams import Stream, StreamState, StreamTable
from repro.server.watchdog import (
    BudgetExhaustedError,
    BudgetStatus,
    ExhaustionWatchdog,
    WatchdogConfig,
)

__all__ = [
    "AdmissionRefusedError",
    "AggregateAdmission",
    "BudgetExhaustedError",
    "BudgetStatus",
    "CMServer",
    "CapacityPlan",
    "CircuitBreaker",
    "DataLossError",
    "DeathEscalationReport",
    "DegradedStack",
    "DiskDeathError",
    "DiskHealth",
    "DiskHealthMonitor",
    "FailoverReadPlanner",
    "MirrorDegenerateError",
    "MirrorProtection",
    "ParityProtection",
    "ReadStats",
    "ScrubReport",
    "Scrubber",
    "build_degraded_stack",
    "derive_seed",
    "GrowthForecast",
    "DaySummary",
    "ExhaustionWatchdog",
    "FaultInjector",
    "IngestReport",
    "JournalCorruptionError",
    "JournalError",
    "LayoutReport",
    "MetricsCollector",
    "MetricsSummary",
    "IngestSession",
    "MediaObject",
    "MirroredPlacement",
    "ObjectCatalog",
    "OnlineScaleReport",
    "OnlineScaler",
    "OpJournalRecord",
    "OperationInFlightError",
    "ParityLayout",
    "ParityPlacement",
    "PendingReshuffle",
    "PendingScale",
    "RecoveryReport",
    "ReshuffleOp",
    "RoundReport",
    "RoundScheduler",
    "ScaleReport",
    "ScalingJournal",
    "ServerProtocol",
    "ServerSimulation",
    "StatisticalAdmission",
    "Stream",
    "StreamState",
    "StreamTable",
    "TransientTransferError",
    "UtilizationAdmission",
    "WatchdogConfig",
    "check_layout",
    "escalate_disk_death",
    "minimum_bits",
    "mirror_offset",
    "plan_capacity",
    "repair_layout",
    "restore_server",
    "resume_server",
    "simulate_failure_recovery",
    "server_to_json",
    "snapshot_server",
]
