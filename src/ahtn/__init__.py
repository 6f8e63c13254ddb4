"""Task-performance assessment engine for serious-game telemetry.

The pieces, in data-flow order: task networks (:mod:`ahtn.model`) describe
what is assessed; recordings (:mod:`ahtn.telemetry`) carry what happened;
checks (:mod:`ahtn.checks`) and trajectory matching (:mod:`ahtn.trajectory`)
grade a task; the session engine (:mod:`ahtn.engine`) routes events and
aggregates grades into a report (:mod:`ahtn.report`); the evaluation
harness (:mod:`ahtn.harness`) correlates and perturbs. ``ahtn.cli`` wraps
it all for the command line.
"""

from .checks import CheckResult, TaskSamples, TaskScore, evaluate_task_level
from .engine import (Defaults, EngineConfig, Session, aggregate,
                     build_reference_set, score_recording)
from .harness import (UndefinedCorrelationError, correlate_values,
                      monotonicity_report, parse_score_pairs, perturb,
                      spec_for_magnitude)
from .model import (NetworkError, TaskNetwork, TaskNode, parse_network,
                    ready_tasks, validate_network)
from .report import AssessmentReport, FeedbackMessage, render_report, write_report
from .telemetry import (RecordingError, SessionRecording, parse_event_line,
                        parse_session, serialize_recording)
from .trajectory import ActionEvaluator, TrajectorySummary

__version__ = "0.1.0"

__all__ = [
    "AssessmentReport", "ActionEvaluator", "CheckResult",
    "Defaults", "EngineConfig", "FeedbackMessage", "NetworkError",
    "RecordingError", "Session", "SessionRecording", "TaskNetwork",
    "TaskNode", "TaskSamples", "TaskScore", "TrajectorySummary",
    "UndefinedCorrelationError", "aggregate",
    "build_reference_set", "correlate_values",
    "evaluate_task_level", "monotonicity_report", "parse_event_line",
    "parse_network", "parse_score_pairs", "parse_session", "perturb",
    "ready_tasks", "render_report", "score_recording",
    "serialize_recording", "spec_for_magnitude", "validate_network",
    "write_report",
    "__version__",
]
