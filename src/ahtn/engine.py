"""Session engine: routes events to active task evaluators, gates feedback
by each task's feedback mode, and aggregates per-scope grades.

A Session consumes one time-ordered event stream (batch or live, the code
path is identical) and produces an AssessmentReport. Task activations are
driven by TaskMark events; each activation buffers the events relevant to
its task until its end mark scores them and, for action-level tasks, steps
a per-user ActionEvaluator so bursts and anomalies surface as they happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .checks import (FEATURE_KINDS, CheckDefaults, TaskScore,
                     evaluate_task_level, extract_features)
from .model import (TaskNetwork, TaskNode, is_joint_id, ready_tasks,
                    validate_network)
from .report import (AssessmentReport, FeedbackMessage, MemberResult,
                     ScopeReport, TaskEntry)
from .telemetry import (Attach, Collision, Event, Pose, Reference,
                        ReferenceSet, SessionRecording, SkeletonFrame,
                        TaskMark, TaskSlice, TaskSlicer, TextInput,
                        reference_stats)
from .trajectory import (FEEDBACK_TEXT, PROGRESS_KINDS, ActionEvaluator,
                         TrajectorySummary, build_reference_track)


@dataclass(frozen=True)
class Defaults:
    """Engine-wide knobs; per-check and per-task values in the network win
    where they exist."""

    checks: CheckDefaults = field(default_factory=CheckDefaults)
    pass_threshold: float = 0.95
    timeout: float = 1800.0
    action_share: float = 0.5  # trajectory weight inside a both-mode omega


@dataclass
class EngineConfig:
    network: TaskNetwork
    references: ReferenceSet
    defaults: Defaults = field(default_factory=Defaults)
    echo: tuple[str, ...] = ()  # extra config lines for the report header


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


def first_game_object(node: TaskNode) -> str | None:
    for obj in node.objects:
        if not is_joint_id(obj):
            return obj
    return None


def wants_skeleton(node: TaskNode) -> bool:
    """Whether a task reads skeleton frames: it matches a trajectory or
    checks a joint."""
    spec = node.assessment
    return (spec.trajectory is not None
            or any(is_joint_id(c.subject) for c in spec.checks))


def build_reference(node: TaskNode, sl: TaskSlice,
                    quality: float = 1.0) -> Reference:
    """Reduce a reference recording's slice for one task to what grading
    reads: the check features and, for a trajectory task, the skeleton
    statistics and the key-frame track; ``error`` says why those two could
    not be built.

    The slice is reduced to the events a live ``Session`` would route to
    the task: a scope member's, about the task's objects or, when the task
    wants them, a skeleton frame (``_relevant``). So a bystander's skeleton
    cannot shift the reference means, and one rule decides what both
    sides of a comparison read."""
    members, skeleton = node.users.user_ids, wants_skeleton(node)
    sl = TaskSlice(task_id=sl.task_id, t0=sl.t0, t1=sl.t1, events=tuple(
        e for e in sl.events
        if e.user in members and _relevant(node.objects, skeleton, e.payload)))
    spec = node.assessment
    stats = track = error = None
    if spec.trajectory is not None:
        try:
            stats = reference_stats(sl, subject_object=first_game_object(node))
            track = build_reference_track(sl, spec.trajectory)
        except ValueError as e:
            error = str(e)
    compared = [c for c in spec.checks if c.kind in FEATURE_KINDS]
    features = extract_features(sl, compared) if compared else {}
    return Reference(quality=quality, features=features, stats=stats,
                     track=track, error=error)


def build_reference_set(net: TaskNetwork,
                        recordings: Sequence[tuple[SessionRecording, float]]
                        ) -> ReferenceSet:
    """Reduce each assessed task of each reference recording once
    (``build_reference``), scanning each recording once for its marks.
    Recordings lacking usable marks for a task simply do not contribute a
    reference for it."""
    slicers = [(TaskSlicer(rec), quality) for rec, quality in recordings]
    by_task: dict[str, list[Reference]] = {}
    for node_id in net.primitive_ids():
        refs = []
        for slicer, quality in slicers:
            try:
                sl = slicer.cut(node_id)
            except ValueError:
                continue
            refs.append(build_reference(net.nodes[node_id], sl, quality))
        if refs:
            by_task[node_id] = refs
    return ReferenceSet(by_task=by_task)


class _TaskRun:
    """Runtime state of one task within a session."""

    def __init__(self, node: TaskNode):
        self.node = node
        self.scope_key = node.users.key()
        self.members: tuple[str, ...] = node.users.user_ids
        self.status = "pending"  # pending | active | done
        self.t_start = 0.0
        self.t_end = 0.0
        self.events: dict[str, list[Event]] = {m: [] for m in self.members}
        self.evaluators: dict[str, ActionEvaluator] = {}
        self.out_of_order = False
        self.result: TaskEntry | None = None
        self.warnings: list[str] = []
        self.wants_skeleton = wants_skeleton(node)
        self.realtime = node.feedback == "real-time"


class Session:
    """Single-writer event consumer producing one AssessmentReport."""

    def __init__(self, config: EngineConfig, session_id: str = "session"):
        report = validate_network(config.network)
        if not report.ok:
            first = report.errors()[0]
            raise ValueError(f"invalid network: {first.node_id}: {first.message}")
        self.config = config
        self.session_id = session_id
        self.defaults = config.defaults
        self.net = config.network
        self.refs = config.references

        missing = [i for i in self.net.primitive_ids()
                   if self.net.nodes[i].weight > 0
                   and i not in self.refs.by_task]
        if missing:
            raise ValueError(
                f"weighted tasks without a reference: {', '.join(missing)}")
        stale = [i for i in self.net.primitive_ids()
                 if _stale_tracks(self.net.nodes[i], self.refs.by_task.get(i, ()))]
        if stale:
            raise ValueError("references built for other trajectory params: "
                             f"{', '.join(stale)}")

        self._runs = {i: _TaskRun(self.net.nodes[i])
                      for i in self.net.primitive_ids()}
        self._completed: set[str] = set()
        self._started = False
        self._finalized = False
        self._t0: float | None = None
        self._last_t = -math.inf
        self._aborted = False
        self._timed_out = False
        self._warnings: list[str] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self, t: float = 0.0) -> None:
        if not self._started:
            self._started = True
            self._t0 = t
            self._last_t = t

    def ingest(self, event: Event) -> list[FeedbackMessage]:
        if self._finalized:
            raise ValueError("session already finalized")
        if not self._started:
            self.start(event.t)
        if event.t < self._last_t:
            raise ValueError(
                f"timestamp regression: {event.t} after {self._last_t}")
        self._last_t = event.t
        if self._timed_out:
            return []
        if event.t - self._t0 > self.defaults.timeout:
            self._timed_out = True
            self._warnings.append(
                f"session timeout after {self.defaults.timeout} s; "
                "later events ignored")
            return []

        if isinstance(event.payload, TaskMark):
            return self._handle_mark(event)
        return self._route(event)

    def consume(self, rec: SessionRecording) -> list[FeedbackMessage]:
        out: list[FeedbackMessage] = []
        for event in rec.events:
            out.extend(self.ingest(event))
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
            if mark.task_id not in ready_tasks(self.net, self._completed):
                run.out_of_order = True
                run.warnings.append("started before predecessors completed")
            self._attach_evaluators(run)
            return []

        if run.status != "active":
            self._warnings.append(
                f"end mark without active task {mark.task_id!r} ignored")
            return []
        run.t_end = event.t
        run.status = "done"
        self._completed.add(mark.task_id)
        return self._evaluate(run)

    def _attach_evaluators(self, run: _TaskRun) -> None:
        spec = run.node.assessment
        if spec.trajectory is None:
            return
        refs = self.refs.by_task.get(run.node.id)
        if not refs:
            run.warnings.append("no reference; action level cannot be scored")
            return
        ref, _ = self._best_reference(refs)
        if ref.track is None:
            run.warnings.append(f"action level cannot be scored: {ref.error}")
            return
        for member in run.members:
            run.evaluators[member] = ActionEvaluator(
                task_id=run.node.id, track=ref.track, ref_stats=ref.stats,
                t_start=run.t_start)

    @staticmethod
    def _best_reference(refs: list[Reference]) -> tuple[Reference, int]:
        best_i = 0
        for i, r in enumerate(refs):
            if r.quality > refs[best_i].quality:
                best_i = i
        return refs[best_i], best_i

    # -- event routing ------------------------------------------------------

    def _route(self, event: Event) -> list[FeedbackMessage]:
        messages: list[FeedbackMessage] = []
        for run in self._runs.values():
            if run.status != "active" or event.user not in run.members:
                continue
            if not _relevant(run.node.objects, run.wants_skeleton, event.payload):
                continue
            run.events[event.user].append(event)
            evaluator = run.evaluators.get(event.user)
            if evaluator is not None and isinstance(event.payload, SkeletonFrame):
                primitives = evaluator.observe(event.t, event.payload)
                if primitives:
                    messages += self._wrap(run, event.t, primitives)
                    self._aborted = self._aborted or evaluator.aborted
        return messages

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
        refs = self.refs.by_task.get(node.id)
        quality = 1.0
        if refs:
            quality = self._best_reference(refs)[0].quality
        events, run.events = run.events, {}  # read here only; release them
        if not any(events.values()):
            run.warnings.append(
                f"no events routed from {', '.join(run.members)}")

        members: list[MemberResult] = []
        for member in run.members:
            member_slice = TaskSlice(
                task_id=node.id, t0=run.t_start, t1=run.t_end,
                events=tuple(events[member]))
            task_score: TaskScore | None = None
            traj: TrajectorySummary | None = None
            parts: list[tuple[float, float]] = []  # (share, value)

            if spec.has_task_level:
                if refs:
                    task_score = evaluate_task_level(
                        node, member_slice, refs, self.defaults.checks)
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
            return []
        passed = omega >= self.defaults.pass_threshold
        return [
            FeedbackMessage(run.t_end, run.scope_key, "task-complete",
                            f"task={node.id}"),
            FeedbackMessage(run.t_end, run.scope_key, "task-score",
                            f"task={node.id} omega={omega:.9f} "
                            f"pass={'true' if passed else 'false'}"),
        ]

    # -- finalize -----------------------------------------------------------

    def finalize(self) -> AssessmentReport:
        if not self._started:
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

        scope_keys: list[str] = []
        by_scope: dict[str, list[TaskEntry]] = {}
        for task_id in self.net.primitive_ids():
            run = self._runs[task_id]
            if run.scope_key not in by_scope:
                by_scope[run.scope_key] = []
                scope_keys.append(run.scope_key)
            by_scope[run.scope_key].append(run.result)

        scopes = []
        for key in scope_keys:
            entries = tuple(by_scope[key])
            weights = [e.weight for e in entries]
            omegas = [e.omega for e in entries]
            total = sum(weights)
            weighted = sum(w * o for w, o in zip(weights, omegas))
            delta = aggregate(weights, omegas) if total > 0 else None
            scopes.append(ScopeReport(key=key, entries=entries, delta=delta,
                                      weighted_sum=weighted, total_weight=total))

        duration = self._last_t - self._t0 if self._t0 is not None else 0.0
        return AssessmentReport(
            session_id=self.session_id, duration=duration,
            aborted=self._aborted, timed_out=self._timed_out,
            scopes=tuple(scopes), warnings=tuple(self._warnings),
            config=self._config_echo())

    def _config_echo(self) -> tuple[str, ...]:
        d = self.defaults
        penalty = ("per-check" if d.checks.collision_penalty is None
                   else repr(d.checks.collision_penalty))
        lines = (f"collision-penalty {penalty}",
                 f"orientation-tol {d.checks.orientation_tol!r}",
                 f"position-tol {d.checks.position_tol!r}",
                 f"text-tol {d.checks.text_tol!r}",
                 f"pass-threshold {d.pass_threshold!r}",
                 f"timeout {d.timeout!r}",
                 f"action-share {d.action_share!r}")
        return lines + tuple(self.config.echo)


def _stale_tracks(node: TaskNode, refs: Sequence[Reference]) -> bool:
    """True when a reference of a trajectory task has a track built for
    other params than the node's, or none although nothing failed."""
    params = node.assessment.trajectory
    return params is not None and any(
        r.error is None and (r.track is None or r.track.params != params)
        for r in refs)


def _relevant(objects: tuple[str, ...], skeleton: bool, payload) -> bool:
    """Whether a task with these objects routes an event payload: poses,
    attachments, collisions and text inputs that name one of its objects,
    and skeleton frames when ``skeleton`` is set; never marks."""
    if isinstance(payload, Pose):
        return payload.object_id in objects
    if isinstance(payload, Attach):
        return payload.object_id in objects or payload.target_id in objects
    if isinstance(payload, Collision):
        return payload.object_id in objects or payload.other_id in objects
    if isinstance(payload, TextInput):
        return payload.field_id in objects
    if isinstance(payload, SkeletonFrame):
        return skeleton
    return False


def score_recording(config: EngineConfig, rec: SessionRecording,
                    session_id: str | None = None) -> AssessmentReport:
    """Batch entry point: ingest a parsed recording and finalize."""
    session = Session(config, session_id=session_id or rec.session_id)
    session.consume(rec)
    return session.finalize()
