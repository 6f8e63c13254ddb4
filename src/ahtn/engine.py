"""Session engine: routes events to active task evaluators, gates feedback
by each task's feedback mode, and aggregates per-scope grades.

An EngineConfig holds one grading run's network, references, ``Defaults``
and ``TrajectoryParams``, checked once when built; its Sessions trust it.
A Session consumes one time-ordered event stream (batch or live, the code
path is identical) and produces an AssessmentReport. A ``TaskWindows``
cuts it into tasks by one rule, which ``build_reference_set`` cuts each
reference recording by too: a task's first start mark opens its window,
the next end mark, even one at the start's time, closes it, and every
other mark is ignored (a Session warns of each, and reference building
logs each). Each open window gives every member of the task's scope a
``checks.TaskSamples``, which takes the events the task reads and keeps
only what its checks need until the end mark scores them. For
action-level tasks it also steps a per-user ActionEvaluator so bursts
and anomalies surface as they happen.
"""

from __future__ import annotations

import logging
import math
import types
from dataclasses import dataclass, field
from typing import (Callable, Generic, Iterable, Iterator, Mapping, Sequence,
                    TypeVar)

from .checks import TaskSamples, TaskScore, evaluate_task_level
from .model import (Defaults, TaskNetwork, TaskNode, TrajectoryParams,
                    check_setting, is_joint_id, ready_tasks, setting_lines,
                    validate_network)
from .report import (AssessmentReport, FeedbackMessage, MemberResult,
                     ScopeReport, TaskEntry)
from .telemetry import (Event, Reference, ReferenceSet, SessionRecording,
                        SkeletonFrame, TaskMark)
from .trajectory import (FEEDBACK_TEXT, PROGRESS_KINDS, ActionEvaluator,
                         TrackBuilder, TrajectorySummary)

T = TypeVar("T")

log = logging.getLogger("ahtn")


@dataclass(frozen=True)
class EngineConfig:
    """One grading run's settings, checked once when built: the network
    validates, each weighted task has a reference, and each reference
    track was built for ``trajectory`` and its task's joints. The
    references are held as a read-only copy, so what was checked is what
    every Session grades against. ``primitives`` maps each primitive
    task's id to its node, in network order."""

    network: TaskNetwork
    references: Mapping[str, Sequence[Reference]]
    defaults: Defaults = field(default_factory=Defaults)
    trajectory: TrajectoryParams = field(default_factory=TrajectoryParams)
    primitives: Mapping[str, TaskNode] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        object.__setattr__(self, "references", types.MappingProxyType(
            {task: tuple(refs) for task, refs in self.references.items()}))
        report = validate_network(self.network)
        if not report.ok:
            first = report.errors()[0]  # a network-wide error names no task
            raise ValueError(": ".join(filter(None, (
                "invalid network", first.node_id, first.message))))
        object.__setattr__(self, "primitives", types.MappingProxyType(
            {i: self.network.nodes[i] for i in self.network.primitive_ids()}))
        nodes = self.primitives.values()
        missing = [n.id for n in nodes if n.weight > 0 and n.id not in self.references]
        if missing:
            raise ValueError(f"weighted tasks without a reference: {', '.join(missing)}")
        # a track for other params or joints, or none although nothing failed
        stale = [n.id for n in nodes if n.assessment.has_action_level and any(
            r.error is None and (r.track is None or r.track.params != self.trajectory
                                 or r.track.joint_ids != n.joints)
            for r in self.references.get(n.id, ()))]
        if stale:
            raise ValueError("references built for other trajectory params: "
                             f"{', '.join(stale)}")


def aggregate(weights: Sequence[float], omegas: Sequence[float]) -> float:
    """Weighted grade: sum(W*Omega)/sum(W)."""
    if len(weights) != len(omegas):
        raise ValueError("weights and omegas must have equal length")
    if len(weights) == 0:
        raise ValueError("nothing to aggregate")
    if any(w < 0 for w in weights):
        raise ValueError("negative weight")
    total = sum(weights)
    if total <= 0:
        raise ValueError("total weight must be > 0")
    return sum(w * o for w, o in zip(weights, omegas)) / total


def task_samples(node: TaskNode, t0: float) -> TaskSamples:
    """A reducer for one member's events in a task that starts at t0. The
    task reads skeleton frames when it matches a trajectory or checks a
    joint."""
    spec = node.assessment
    skeleton = (spec.has_action_level
                or any(is_joint_id(c.subject) for c in spec.checks))
    return TaskSamples(spec.checks, node.objects, skeleton, t0)


class TaskWindows(Generic[T]):
    """A stream cut into task windows by its marks: the one rule for what
    a mark does, shared by a Session and ``build_reference_set``.

    A primitive task's first start mark opens its window, and the next
    end mark, even one at the start's time, closes it. ``mark`` answers
    every other mark with why it is ignored. ``open`` holds one entry per
    scope member of each open window, ``closed`` the tasks whose window
    has closed, and ``routes``, rebuilt at each mark accepted, each user's
    entries in network order: what the other events are routed by.
    ``nodes`` maps each primitive task's id to its node, in network
    order; the caller builds it once and shares it."""

    def __init__(self, nodes: Mapping[str, TaskNode]):
        self.nodes = nodes
        self.open: dict[str, dict[str, T]] = {}  # task id -> member -> entry
        self.closed: set[str] = set()
        self.routes: dict[str, list[T]] = {}

    def mark(self, t: float, mark: TaskMark,
             open_window: Callable[[TaskNode, float], dict[str, T]]
             ) -> dict[str, T] | str:
        """The entries of the window the mark at time t opens, which
        ``open_window`` makes, or closes; otherwise why it is ignored."""
        task_id = mark.task_id
        node = self.nodes.get(task_id)
        if node is None:
            return f"mark for unknown or non-primitive task {task_id!r} ignored"
        if mark.edge == "start":
            if task_id in self.open or task_id in self.closed:
                return f"duplicate start mark for task {task_id!r} ignored"
            window = self.open[task_id] = open_window(node, t)
        else:
            window = self.open.pop(task_id, None)
            if window is None:
                return f"end mark without active task {task_id!r} ignored"
            self.closed.add(task_id)
        self.routes = {}
        for open_id in self.nodes:
            for user, entry in self.open.get(open_id, {}).items():
                self.routes.setdefault(user, []).append(entry)
        return window


def _cut(nodes: Mapping[str, TaskNode], events: Iterable[Event],
         open_window: Callable[[TaskNode, float], dict[str, tuple]]
         ) -> Iterator[tuple[Event, dict[str, tuple] | str]]:
    """Cut a recording's events into task windows by its marks, as a
    Session does, and hold none of them: the one routing pass of
    ``build_reference_set`` and of a perturbation study's kept-events
    pass. ``open_window`` gives each member of a task's scope a
    (reducer, builder) entry; each event that is not a mark goes to its
    user's open windows, and a builder that is not None is fed what its
    reducer's ``add`` takes. Each mark is yielded with what
    ``TaskWindows.mark`` answered: the window it opened or closed, or why
    it is ignored."""
    windows: TaskWindows[tuple] = TaskWindows(nodes)
    for e in events:
        mark = e.payload
        if type(mark) is not TaskMark:
            for samples, builder in windows.routes.get(e.user, ()):
                if samples.add(e) and builder is not None:
                    builder.add(e)
            continue
        yield e, windows.mark(e.t, mark, open_window)


def build_reference_set(net: TaskNetwork,
                        recordings: Iterable[tuple[Iterable[Event], float]],
                        params: TrajectoryParams = TrajectoryParams()
                        ) -> ReferenceSet:
    """Reduce each primitive task of each reference recording, given as
    its events and its quality, to what grading reads: the check features
    and, for a trajectory task, the track of the node's joints, matched
    with ``params`` (a ``trajectory.TrackBuilder``, which also measures the
    performer); ``error`` says why the track could not be built. Each
    quality is checked before its recording is read.

    A recording's events may be a ``SessionRecording`` or a reader such as
    ``telemetry.iter_events`` that never holds them whole. One pass cuts
    them with ``TaskWindows``, as a live ``Session`` does: the window a
    task's first start mark opens holds a ``task_samples`` reducer, and a
    track builder for a trajectory task, which every member of the task's
    scope feeds; each later event goes to the open windows whose scope
    holds its user, and the builder is fed what the reducer's ``add``
    takes; the next end mark closes the window and makes the reference.
    Both reduce each event as it arrives, and no event list is kept. So a
    bystander's skeleton cannot shift the reference, and one rule decides
    what both sides of a comparison read: a second pair of marks, or any
    other mark the rule ignores, changes nothing, and a task whose window
    the recording never closes takes no reference from it. Each ignored
    mark is logged at info level with the recording's index in
    ``recordings`` and why it is ignored."""

    def open_window(node: TaskNode, t0: float) -> dict[str, tuple]:
        builder = (TrackBuilder(node, t0, params)
                   if node.assessment.has_action_level else None)
        return dict.fromkeys(node.users.user_ids, (task_samples(node, t0), builder))

    nodes = {i: net.nodes[i] for i in net.primitive_ids()}
    by_task: ReferenceSet = {i: [] for i in nodes}
    for index, (events, quality) in enumerate(recordings):
        check_setting("in [0, 1]", quality, "reference quality")
        for e, window in _cut(nodes, events, open_window):
            if isinstance(window, str):
                log.info("reference %d: t=%s: %s", index, e.t, window)
                continue
            mark = e.payload
            if mark.edge == "start":
                continue
            samples, builder = next(iter(window.values()))
            samples.t1 = e.t
            track = error = None
            if builder is not None:
                try:
                    track = builder.track(e.t)
                except ValueError as err:
                    error = str(err)
            by_task[mark.task_id].append(Reference(
                quality=quality, features=samples.features(), track=track,
                error=error))
    return {i: refs for i, refs in by_task.items() if refs}


class _TaskRun:
    """Runtime state of one task within a session."""

    def __init__(self, node: TaskNode):
        self.node = node
        self.scope_key = node.users.key()
        self.t_start = 0.0
        self.evaluators: dict[str, ActionEvaluator] = {}
        # the action level's reference, set at the start mark when its
        # track can be scored
        self.best: Reference | None = None
        self.out_of_order = False
        self.result: TaskEntry | None = None
        self.warnings: list[str] = []
        self.realtime = node.feedback == "real-time"


class Session:
    """Single-writer event consumer producing one AssessmentReport. Event
    times must be finite, non-negative and non-decreasing, as the readers
    check too; ``ingest`` rejects any other time, and ``finalize`` a
    session that took no event."""

    def __init__(self, config: EngineConfig, session_id: str = "session"):
        self.config = config
        self.session_id = session_id
        self.defaults = config.defaults
        self.net = config.network
        self.refs = config.references
        # each open window's entries: (samples, evaluator, run) per member
        self._windows: TaskWindows[tuple] = TaskWindows(config.primitives)
        self._runs = {i: _TaskRun(node) for i, node in config.primitives.items()}
        self._finalized = False
        self._t0: float | None = None  # the first event's time
        self._last_t = 0.0
        self._timed_out = False
        self._warnings: list[str] = []

    # -- lifecycle ----------------------------------------------------------

    def ingest(self, event: Event) -> list[FeedbackMessage]:
        if self._finalized:
            raise ValueError("session already finalized")
        t = event.t
        if not self._last_t <= t < math.inf:  # also false for nan
            if 0.0 <= t < math.inf:
                raise ValueError(f"timestamp regression: {t} after {self._last_t}")
            raise ValueError(f"timestamp out of range: {t}")
        if self._t0 is None:
            self._t0 = t
        self._last_t = t
        if self._timed_out:
            return []
        if t - self._t0 > self.defaults.timeout:
            self._timed_out = True
            self._warnings.append(
                f"session timeout after {self.defaults.timeout} s; "
                "later events ignored")
            return []

        payload = event.payload
        if isinstance(payload, TaskMark):
            return self._handle_mark(event)
        # to the tasks that can take it: the open windows of its user
        messages: list[FeedbackMessage] = []
        for samples, evaluator, run in self._windows.routes.get(event.user, ()):
            if (samples.add(event) and evaluator is not None
                    and isinstance(payload, SkeletonFrame)):
                primitives = evaluator.observe(t, payload)
                if primitives:
                    messages += self._wrap(run, t, primitives)
        return messages

    def consume(self, events: Iterable[Event]) -> list[FeedbackMessage]:
        """Ingest each of a stream of events, a ``SessionRecording`` or a
        reader such as ``telemetry.iter_events``, and return their
        feedback."""
        out: list[FeedbackMessage] = []
        ingest = self.ingest
        for event in events:
            messages = ingest(event)
            if messages:
                out += messages
        return out

    # -- marks --------------------------------------------------------------

    def _handle_mark(self, event: Event) -> list[FeedbackMessage]:
        mark: TaskMark = event.payload
        window = self._windows.mark(event.t, mark, self._open)
        if isinstance(window, str):
            self._warnings.append(window)
            return []
        log.debug("t=%s: task %s %s", event.t, mark.task_id, mark.edge)
        if mark.edge == "start":
            return []
        return self._evaluate(self._runs[mark.task_id], window, event.t)

    def _open(self, node: TaskNode, t: float) -> dict[str, tuple]:
        """A window's entries, in scope order: each member's reducer and,
        for an action level that can be scored, its evaluator."""
        run = self._runs[node.id]
        run.t_start = t
        if node.id not in ready_tasks(self.net, self._windows.closed):
            run.out_of_order = True
            run.warnings.append("started before predecessors completed")
        if node.assessment.has_action_level:
            refs = self.refs.get(node.id)
            # the reference of highest quality, the first of equals
            best = max(refs, key=lambda r: r.quality) if refs else None
            if best is None:
                run.warnings.append("no reference; action level cannot be scored")
            elif best.track is None:
                run.warnings.append(f"action level cannot be scored: {best.error}")
            else:
                run.best = best
                for member in node.users.user_ids:
                    run.evaluators[member] = ActionEvaluator(best.track, t)
        return {m: (task_samples(node, t), run.evaluators.get(m), run)
                for m in node.users.user_ids}

    # -- feedback -----------------------------------------------------------

    @staticmethod
    def _wrap(run: _TaskRun, t: float,
              primitives: list[tuple]) -> list[FeedbackMessage]:
        """An evaluator's primitives as messages; target progress goes
        to real-time tasks only."""
        return [FeedbackMessage(t, run.scope_key, kind,
                                FEEDBACK_TEXT[kind].format(run.node.id, *fields))
                for kind, *fields in primitives
                if run.realtime or kind not in PROGRESS_KINDS]

    # -- evaluation ---------------------------------------------------------

    def _evaluate(self, run: _TaskRun, window: dict[str, tuple],
                  t_end: float) -> list[FeedbackMessage]:
        node = run.node
        spec = node.assessment
        refs = self.refs.get(node.id)
        if not any(samples.count for samples, _, _ in window.values()):
            run.warnings.append(f"no events routed from {', '.join(window)}")

        messages: list[FeedbackMessage] = []
        members: list[MemberResult] = []
        for member, (samples, evaluator, _) in window.items():
            samples.t1 = t_end
            task_score: TaskScore | None = None
            traj: TrajectorySummary | None = None
            parts: list[tuple[float, float]] = []  # (share, value)

            if spec.has_task_level:
                if refs:
                    task_score = evaluate_task_level(
                        node, samples, refs, self.defaults)
                    value = task_score.omega
                    run.warnings.extend(
                        f"check {c.kind} {c.subject}: {r.detail}"
                        for c, r in zip(spec.checks, task_score.checks)
                        if r.detail.startswith("error:"))
                else:
                    run.warnings.append("no reference; task level scored 0")
                    value = 0.0
                parts.append((1.0 - self.defaults.action_share, value))
            if spec.has_action_level:
                if evaluator is not None:
                    # a task that ended inside its first second replays
                    # its warm-up here, and that replay's feedback is sent
                    messages += self._wrap(run, t_end, evaluator.flush())
                    traj = evaluator.finalize(t_end)
                    run.warnings.extend(traj.warnings)
                    value = traj.score * run.best.quality
                else:
                    value = 0.0
                parts.append((self.defaults.action_share, value))

            if len(parts) == 1:
                omega = parts[0][1]
            else:
                omega = sum(share * value for share, value in parts)
            members.append(MemberResult(user=member, omega=omega,
                                        task_score=task_score, trajectory=traj))

        omega = sum(m.omega for m in members) / len(members)
        time_factor = 1.0
        duration = t_end - run.t_start
        if node.time_constraint is not None and duration > 0:
            time_factor = min(1.0, node.time_constraint / duration)
            omega *= time_factor

        flags = []
        if run.out_of_order:
            flags.append("out-of-order")
        if any(m.trajectory is not None and m.trajectory.aborted for m in members):
            flags.append("aborted")
        run.result = TaskEntry(
            task_id=node.id, status="performed", omega=omega,
            weight=node.weight, members=tuple(members), flags=tuple(flags),
            time_factor=time_factor)
        self._warnings.extend(f"task {node.id}: {w}" for w in run.warnings)

        if not run.realtime:
            return messages
        passed = omega >= self.defaults.pass_threshold
        return messages + [
            FeedbackMessage(t_end, run.scope_key, "task-complete",
                            f"task={node.id}"),
            FeedbackMessage(t_end, run.scope_key, "task-score",
                            f"task={node.id} omega={omega:.9f} "
                            f"pass={'true' if passed else 'false'}"),
        ]

    # -- finalize -----------------------------------------------------------

    def finalize(self) -> AssessmentReport:
        if self._t0 is None:
            raise ValueError("no events to grade")
        if self._finalized:
            raise ValueError("session already finalized")
        self._finalized = True

        windows = self._windows
        for task_id, run in self._runs.items():
            if task_id in windows.open:
                run.result = TaskEntry(
                    task_id=run.node.id, status="unfinished", omega=0.0,
                    weight=run.node.weight,
                    flags=("out-of-order",) if run.out_of_order else ())
                self._warnings.append(
                    f"task {run.node.id}: never ended; scored 0")
                for w in run.warnings:
                    self._warnings.append(f"task {run.node.id}: {w}")
            elif task_id not in windows.closed:
                run.result = TaskEntry(
                    task_id=run.node.id, status="unperformed", omega=0.0,
                    weight=run.node.weight)

        by_scope: dict[str, list[TaskEntry]] = {}  # in order of first task
        for run in self._runs.values():
            by_scope.setdefault(run.scope_key, []).append(run.result)

        scopes = []
        for key, entries in by_scope.items():
            entries = tuple(entries)
            weights = [e.weight for e in entries]
            total = sum(weights)
            weighted = sum(e.weight * e.omega for e in entries)
            delta = (aggregate(weights, [e.omega for e in entries])
                     if total > 0 else None)
            scopes.append(ScopeReport(key=key, entries=entries, delta=delta,
                                      weighted_sum=weighted, total_weight=total))

        return AssessmentReport(
            session_id=self.session_id, duration=self._last_t - self._t0,
            aborted=any(e.aborted for run in self._runs.values()
                        for e in run.evaluators.values()),
            timed_out=self._timed_out,
            scopes=tuple(scopes), warnings=tuple(self._warnings),
            config=setting_lines(self.defaults)
            + setting_lines(self.config.trajectory))


def score_recording(config: EngineConfig, rec: SessionRecording) -> AssessmentReport:
    """Batch entry point: ingest a parsed recording and finalize."""
    session = Session(config, session_id=rec.session_id)
    session.consume(rec)
    return session.finalize()
