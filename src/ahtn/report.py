"""Assessment reports and feedback messages: data model plus deterministic
text rendering.

Reports render to a stable line format: same session state always yields
byte-identical text, regardless of how the events were delivered. Floats
use fixed 9-decimal notation; collections keep their insertion order,
which is itself deterministic (network declaration order, event order).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from .checks import TaskScore
from .trajectory import TrajectorySummary

REPORT_HEADER = "ahtn-report v1"


def fnum(x: float) -> str:
    return f"{x:.9f}"


@dataclass(frozen=True)
class FeedbackMessage:
    t: float
    scope: str
    kind: str  # burst|missed|repetition|anomaly|task-complete|task-score|abort
    payload: str

    def render(self) -> str:
        return f"t={fnum(self.t)} scope={self.scope} kind={self.kind} {self.payload}".rstrip()


@dataclass(frozen=True)
class MemberResult:
    """Per-user evaluation inside one task (group scopes have several)."""

    user: str
    omega: float
    task_score: TaskScore | None = None
    trajectory: TrajectorySummary | None = None


@dataclass(frozen=True)
class TaskEntry:
    task_id: str
    status: str  # performed | unperformed | unfinished
    omega: float
    weight: float
    members: tuple[MemberResult, ...] = ()
    flags: tuple[str, ...] = ()  # e.g. out-of-order, aborted
    time_factor: float = 1.0


@dataclass(frozen=True)
class ScopeReport:
    key: str
    entries: tuple[TaskEntry, ...]
    delta: float | None
    weighted_sum: float
    total_weight: float


@dataclass(frozen=True)
class AssessmentReport:
    session_id: str
    duration: float
    aborted: bool
    timed_out: bool
    scopes: tuple[ScopeReport, ...]
    warnings: tuple[str, ...] = ()
    config: tuple[str, ...] = ()  # resolved defaults echoed for provenance

    def scope(self, key: str) -> ScopeReport:
        for s in self.scopes:
            if s.key == key:
                return s
        raise KeyError(f"no scope {key!r} in report")


def render_report(report: AssessmentReport) -> str:
    lines = [REPORT_HEADER,
             f"session {report.session_id}",
             f"duration {fnum(report.duration)}",
             f"aborted {str(report.aborted).lower()}",
             f"timed-out {str(report.timed_out).lower()}"]
    for c in report.config:
        lines.append(f"config {c}")
    for w in report.warnings:
        lines.append(f"warning {w}")
    for scope in report.scopes:
        lines.append(f"scope {scope.key}")
        for entry in scope.entries:
            flags = "".join(f" [{f}]" for f in entry.flags)
            lines.append(
                f"task {entry.task_id} status {entry.status} "
                f"omega {fnum(entry.omega)} weight {fnum(entry.weight)}{flags}")
            if entry.time_factor != 1.0:
                lines.append(f"  time-factor {fnum(entry.time_factor)}")
            for member in entry.members:
                if len(entry.members) > 1:
                    lines.append(f"  member {member.user} omega {fnum(member.omega)}")
                ts = member.task_score
                if ts is not None:
                    lines.append(
                        f"  reference index {ts.reference_index} "
                        f"quality {fnum(ts.reference_quality)}")
                    for c in ts.checks:
                        lines.append(
                            f"  check {c.kind} score {fnum(c.score)} "
                            f"samples {c.samples_used} detail {c.detail}")
                tr = member.trajectory
                if tr is not None:
                    aborted = " [aborted]" if tr.aborted else ""
                    lines.append(
                        f"  trajectory user {member.user} burst {tr.burst} "
                        f"missed {tr.missed} spawned {tr.spawned} "
                        f"repetitions {tr.repetitions_done} "
                        f"episodes {len(tr.anomalies)} "
                        f"factor {fnum(tr.correction_factor)} "
                        f"score {fnum(tr.score)}{aborted}")
                    for a in tr.anomalies:
                        lines.append(f"  anomaly {a.kind} start {fnum(a.t_start)} "
                                     f"end {fnum(a.t_end)}")
                    for w in tr.warnings:
                        lines.append(f"  trajectory-warning {w}")
        if scope.delta is not None:
            lines.append(f"delta {fnum(scope.delta)}")
        else:
            lines.append("delta n/a")
        lines.append(f"weighted-sum {fnum(scope.weighted_sum)} "
                     f"total-weight {fnum(scope.total_weight)}")
    lines.append("end-report")
    return "\n".join(lines) + "\n"


def write_report(report: AssessmentReport, path: str) -> None:
    """Atomic write: render to a temp file in the target directory, then
    rename over the destination. The report gets the mode a newly created
    file gets, ``0o666`` less the umask; ``mkstemp`` makes it owner-only."""
    text = render_report(report)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ahtn-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
