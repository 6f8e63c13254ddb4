"""Session engine: routes events to active task evaluators, gates feedback
by each task's feedback mode, and aggregates per-scope grades.

An EngineConfig holds one grading run's network, references, ``Defaults``
and ``TrajectoryParams``, checked once when built; its Sessions trust it.
A Session consumes one time-ordered event stream (batch or live, the code
path is identical) and produces an AssessmentReport. Task activations are
driven by TaskMark events; each activation gives every member of the
task's scope a ``checks.TaskSamples``, which takes the events the task
reads and keeps only what its checks need until the end mark scores them.
For action-level tasks it also steps a per-user ActionEvaluator so bursts
and anomalies surface as they happen. Events are routed by user: each
accepted start or end mark rebuilds the map from a user to their active
runs, so an event reaches only the runs that can take it.
``build_reference_set`` routes each reference recording by the same marks,
through a map built the same way, into the same reducer.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TypeVar

from .checks import TaskSamples, TaskScore, evaluate_task_level
from .model import (Defaults, TaskNetwork, TaskNode, TrajectoryParams,
                    is_joint_id, ready_tasks, setting_lines, validate_network)
from .report import (AssessmentReport, FeedbackMessage, MemberResult,
                     ScopeReport, TaskEntry)
from .telemetry import (Event, Reference, ReferenceSet, SessionRecording,
                        SkeletonFrame, TaskMark)
from .trajectory import (FEEDBACK_TEXT, PROGRESS_KINDS, ActionEvaluator,
                         TrackBuilder, TrajectorySummary)

T = TypeVar("T")


@dataclass(frozen=True)
class EngineConfig:
    """One grading run's settings, checked once when built: the network
    validates, each weighted task has a reference, and each reference
    track was built for ``trajectory`` and its task's joints. The
    references are held as a read-only copy, so what was checked is what
    every Session grades against."""

    network: TaskNetwork
    references: Mapping[str, Sequence[Reference]]
    defaults: Defaults = field(default_factory=Defaults)
    trajectory: TrajectoryParams = field(default_factory=TrajectoryParams)

    def __post_init__(self):
        object.__setattr__(self, "references", types.MappingProxyType(
            {task: tuple(refs) for task, refs in self.references.items()}))
        report = validate_network(self.network)
        if not report.ok:
            first = report.errors()[0]
            raise ValueError(f"invalid network: {first.node_id}: {first.message}")
        nodes = [self.network.nodes[i] for i in self.network.primitive_ids()]
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


def _routes(entries: Iterable[tuple[str, T]]) -> dict[str, list[T]]:
    """Each user's entries, in the order given: what a stream's events are
    routed by. Both sides rebuild it from their open tasks at every mark
    they accept, so an event reaches only the tasks that can take it."""
    by_user: dict[str, list[T]] = {}
    for user, entry in entries:
        by_user.setdefault(user, []).append(entry)
    return by_user


def build_reference_set(net: TaskNetwork,
                        recordings: Iterable[tuple[Iterable[Event], float]],
                        params: TrajectoryParams = TrajectoryParams()
                        ) -> ReferenceSet:
    """Reduce each primitive task of each reference recording, given as
    its events and its quality, to what grading reads: the check features
    and, for a trajectory task, the track of the node's joints, matched
    with ``params`` (a ``trajectory.TrackBuilder``, which also measures the
    performer); ``error`` says why the track could not be built.

    A recording's events may be a ``SessionRecording`` or a reader such as
    ``telemetry.iter_events`` that never holds them whole. One pass routes
    them as a live ``Session`` does: a start mark opens a ``task_samples``
    reducer, and a track builder for a trajectory task; each later event
    goes to the open tasks whose scope holds its user, and the builder is
    fed what the reducer's ``add`` takes; the end mark closes the task.
    Both reduce each event as it arrives, and no event list is kept. So a
    bystander's skeleton cannot shift the reference, and one rule decides
    what both sides of a comparison read. A task whose marks in a
    recording are not one start and, at a later time, one end takes no
    reference from it."""
    nodes = {i: net.nodes[i] for i in net.primitive_ids()}
    by_task: ReferenceSet = {i: [] for i in nodes}
    for events, quality in recordings:
        runs: dict[str, tuple[TaskSamples, TrackBuilder | None]] = {}  # open tasks
        closed: dict[str, tuple | None] = {}  # None: the marks are unusable
        routes: dict[str, list] = {}  # user -> the open runs of their scopes
        for e in events:
            mark = e.payload
            if type(mark) is not TaskMark:
                for samples, builder in routes.get(e.user, ()):
                    if samples.add(e) and builder is not None:
                        builder.add(e)
                continue
            node = nodes.get(mark.task_id)
            if node is None:
                continue
            run = runs.pop(node.id, None)
            if mark.edge == "start" and run is None and node.id not in closed:
                runs[node.id] = (task_samples(node, e.t), TrackBuilder(node, e.t, params)
                                 if node.assessment.has_action_level else None)
            elif mark.edge == "end" and run is not None and e.t > run[0].t0:
                run[0].t1 = e.t
                closed[node.id] = run
            else:
                closed[node.id] = None
            routes = _routes((user, run) for task_id, run in runs.items()
                             for user in nodes[task_id].users.user_ids)
        for task_id, run in closed.items():
            if run is None:
                continue
            samples, builder = run
            track = error = None
            if builder is not None:
                try:
                    track = builder.track(samples.t1)
                except ValueError as err:
                    error = str(err)
            by_task[task_id].append(Reference(
                quality=quality, features=samples.features(), track=track,
                error=error))
    return {i: refs for i, refs in by_task.items() if refs}


class _TaskRun:
    """Runtime state of one task within a session."""

    def __init__(self, node: TaskNode):
        self.node = node
        self.scope_key = node.users.key()
        self.members: tuple[str, ...] = node.users.user_ids
        self.status = "pending"  # pending | active | done
        self.t_start = 0.0
        self.t_end = 0.0
        self.samples: dict[str, TaskSamples] = {}  # by member, while active
        self.evaluators: dict[str, ActionEvaluator] = {}
        self.out_of_order = False
        self.result: TaskEntry | None = None
        self.warnings: list[str] = []
        self.realtime = node.feedback == "real-time"


class Session:
    """Single-writer event consumer producing one AssessmentReport."""

    def __init__(self, config: EngineConfig, session_id: str = "session"):
        self.config = config
        self.session_id = session_id
        self.defaults = config.defaults
        self.net = config.network
        self.refs = config.references
        self._runs = {i: _TaskRun(self.net.nodes[i])
                      for i in self.net.primitive_ids()}
        self._completed: set[str] = set()
        # user -> (samples, evaluator, run) of each active run they are in
        self._routes: dict[str, list[tuple]] = {}
        self._finalized = False
        self._t0: float | None = None  # the first event's time
        self._last_t = -math.inf
        self._timed_out = False
        self._warnings: list[str] = []

    # -- lifecycle ----------------------------------------------------------

    def ingest(self, event: Event) -> list[FeedbackMessage]:
        if self._finalized:
            raise ValueError("session already finalized")
        t = event.t
        if self._t0 is None:
            self._t0 = self._last_t = t
        elif t < self._last_t:
            raise ValueError(f"timestamp regression: {t} after {self._last_t}")
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
        # to the runs that can take it: the active runs of its user
        messages: list[FeedbackMessage] = []
        for samples, evaluator, run in self._routes.get(event.user, ()):
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
        run = self._runs.get(mark.task_id)
        if run is None:
            self._warnings.append(
                f"mark for unknown or non-primitive task {mark.task_id!r} ignored")
            return []
        if mark.edge == "start":
            if run.status != "pending":
                self._warnings.append(
                    f"duplicate start mark for task {mark.task_id!r} ignored")
                return []
            run.status = "active"
            run.t_start = event.t
            run.samples = {m: task_samples(run.node, event.t)
                           for m in run.members}
            if mark.task_id not in ready_tasks(self.net, self._completed):
                run.out_of_order = True
                run.warnings.append("started before predecessors completed")
            self._attach_evaluators(run)
            self._reroute()
            return []

        if run.status != "active":
            self._warnings.append(
                f"end mark without active task {mark.task_id!r} ignored")
            return []
        run.t_end = event.t
        run.status = "done"
        self._reroute()
        self._completed.add(mark.task_id)
        return self._evaluate(run)

    def _attach_evaluators(self, run: _TaskRun) -> None:
        if not run.node.assessment.has_action_level:
            return
        refs = self.refs.get(run.node.id)
        if not refs:
            run.warnings.append("no reference; action level cannot be scored")
            return
        ref = _best_reference(refs)
        if ref.track is None:
            run.warnings.append(f"action level cannot be scored: {ref.error}")
            return
        for member in run.members:
            run.evaluators[member] = ActionEvaluator(ref.track, run.t_start)

    # -- event routing ------------------------------------------------------

    def _reroute(self) -> None:
        """Route each member's events to the active runs, in network order."""
        self._routes = _routes(
            (member, (samples, run.evaluators.get(member), run))
            for run in self._runs.values() if run.status == "active"
            for member, samples in run.samples.items())

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

    def _evaluate(self, run: _TaskRun) -> list[FeedbackMessage]:
        node = run.node
        spec = node.assessment
        refs = self.refs.get(node.id)
        quality = _best_reference(refs).quality if refs else 1.0
        samples, run.samples = run.samples, {}
        if not any(s.count for s in samples.values()):
            run.warnings.append(
                f"no events routed from {', '.join(run.members)}")

        messages: list[FeedbackMessage] = []
        members: list[MemberResult] = []
        for member in run.members:
            samples[member].t1 = run.t_end
            task_score: TaskScore | None = None
            traj: TrajectorySummary | None = None
            parts: list[tuple[float, float]] = []  # (share, value)

            if spec.has_task_level:
                if refs:
                    task_score = evaluate_task_level(
                        node, samples[member], refs, self.defaults)
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
                evaluator = run.evaluators.get(member)
                if evaluator is not None:
                    # a task that ended inside its first second replays
                    # its warm-up here, and that replay's feedback is sent
                    messages += self._wrap(run, run.t_end, evaluator.flush())
                    traj = evaluator.finalize(run.t_end)
                    run.warnings.extend(traj.warnings)
                    value = traj.score * quality
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
        duration = run.t_end - run.t_start
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
            FeedbackMessage(run.t_end, run.scope_key, "task-complete",
                            f"task={node.id}"),
            FeedbackMessage(run.t_end, run.scope_key, "task-score",
                            f"task={node.id} omega={omega:.9f} "
                            f"pass={'true' if passed else 'false'}"),
        ]

    # -- finalize -----------------------------------------------------------

    def finalize(self) -> AssessmentReport:
        if self._t0 is None:
            raise ValueError("finalize before start")
        if self._finalized:
            raise ValueError("session already finalized")
        self._finalized = True

        for run in self._runs.values():
            if run.status == "active":
                run.status = "done"
                run.t_end = self._last_t
                run.result = TaskEntry(
                    task_id=run.node.id, status="unfinished", omega=0.0,
                    weight=run.node.weight,
                    flags=("out-of-order",) if run.out_of_order else ())
                self._warnings.append(
                    f"task {run.node.id}: never ended; scored 0")
                for w in run.warnings:
                    self._warnings.append(f"task {run.node.id}: {w}")
            elif run.status == "pending":
                run.result = TaskEntry(
                    task_id=run.node.id, status="unperformed", omega=0.0,
                    weight=run.node.weight)

        by_scope: dict[str, list[TaskEntry]] = {}  # in order of first task
        for task_id in self.net.primitive_ids():
            run = self._runs[task_id]
            by_scope.setdefault(run.scope_key, []).append(run.result)

        scopes = []
        for key, entries in by_scope.items():
            entries = tuple(entries)
            weights = [e.weight for e in entries]
            omegas = [e.omega for e in entries]
            total = sum(weights)
            weighted = sum(w * o for w, o in zip(weights, omegas))
            delta = aggregate(weights, omegas) if total > 0 else None
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


def _best_reference(refs: Sequence[Reference]) -> Reference:
    """The reference of highest quality, the first of equals."""
    return max(refs, key=lambda r: r.quality)


def score_recording(config: EngineConfig, rec: SessionRecording) -> AssessmentReport:
    """Batch entry point: ingest a parsed recording and finalize."""
    session = Session(config, session_id=rec.session_id)
    session.consume(rec)
    return session.finalize()
