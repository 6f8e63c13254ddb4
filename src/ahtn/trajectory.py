"""Action-level assessment: trajectory target matching and anomaly watching.

A reference performance is downsampled to key frames (default 2 Hz) once,
when the reference set is built (``build_reference_track``). Each key
frame spawns one target: the reference positions of the tracked joints,
one row of the ReferenceTrack an ActionEvaluator is given. The user bursts the target by bringing
every tracked joint within the match radius (closed ball); a frame missing
a tracked joint never bursts. A target with no match for longer than the
skip time is retired as missed and the next one spawns. Frames are height
corrected first (ActionEvaluator: one factor from the median face-hand
distance of the first second). Meanwhile a short sliding window of
corrected frames feeds anomaly detection (fall, facing away from the
station, hand far from its target); an anomaly continuously active beyond
the wait time aborts the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .kernels import all_within
from .model import TrajectoryParams
from .telemetry import (MIN_FACE_HAND_DISTANCE, ReferenceStats, SkeletonFrame,
                        TaskSlice, face_hand_medians, scale_frame,
                        skeleton_frames)

ANOMALY_KINDS = ("fall", "orientation", "hand-position")
ANOMALY_WINDOW = 0.5  # s of corrected frames an anomaly is judged over
FALL_HEIGHT_FRACTION = 0.5  # of the reference face height; lower is a fall
HAND_PROXIMITY_FACTOR = 3.0  # match radii; farther from the target is away
STATION_FORWARD = np.array([0.0, 0.0, 1.0])  # unit; facing against it is away


@dataclass(frozen=True)
class Anomaly:
    kind: str
    t_start: float
    t_end: float


@dataclass(frozen=True)
class TrajectoryState:
    cursor: int = 0
    burst: int = 0
    missed: int = 0
    repetitions_done: int = 0
    spawned: int = 1
    spawned_at: float = 0.0
    complete: bool = False
    active_anomalies: tuple[tuple[str, float], ...] = ()
    anomaly_log: tuple[Anomaly, ...] = ()
    aborted: bool = False
    abort_kind: str | None = None

    @property
    def retired(self) -> int:
        return self.burst + self.missed


@dataclass(frozen=True, eq=False)
class ReferenceTrack:
    """Key-framed reference trajectory: times (K,) and positions (K, J, 3)
    for the tracked joints, in params.joint_ids order, with the params it
    was built for. Compared by identity, as its arrays have no single
    truth value."""

    params: TrajectoryParams
    times: np.ndarray
    positions: np.ndarray

    @property
    def joint_ids(self) -> tuple[str, ...]:
        return self.params.joint_ids

    @property
    def key_frames(self) -> int:
        return len(self.times)


def key_frame_count(duration: float, key_rate: float) -> int:
    if duration <= 0:
        raise ValueError("reference duration must be > 0")
    return max(1, math.ceil(duration * key_rate))


def build_reference_track(ref_slice: TaskSlice,
                          params: TrajectoryParams) -> ReferenceTrack:
    """Downsample the reference skeleton stream to key frames.

    Key frame k targets time t0 + k/key_rate and takes the first recorded
    frame at or after it (the last frame when the stream ends early).
    """
    frames = skeleton_frames(ref_slice.events)
    if not frames:
        raise ValueError(f"reference slice for {ref_slice.task_id!r} has no skeleton frames")
    count = key_frame_count(ref_slice.duration, params.key_rate)
    frame_times = np.array([t for t, _ in frames])

    times = np.empty(count)
    positions = np.empty((count, len(params.joint_ids), 3))
    for k in range(count):
        goal = ref_slice.t0 + k / params.key_rate
        i = int(np.searchsorted(frame_times, goal, side="left"))
        if i >= len(frames):
            i = len(frames) - 1
        t, frame = frames[i]
        times[k] = t
        for j, joint in enumerate(params.joint_ids):
            if not frame.has(joint):
                raise ValueError(f"reference missing joint {joint!r} at key frame {k}")
            positions[k, j] = frame.position(joint)
    return ReferenceTrack(params=params, times=times, positions=positions)


def step_trajectory(state: TrajectoryState, t: float, track: ReferenceTrack,
                    params: TrajectoryParams, matched: bool):
    """One matching transition given whether the current frame matched the
    cursor's target. Returns (new state, feedback primitives).

    Feedback primitives are tuples: ("burst", frame-index, joint-count),
    ("missed", frame-index), ("repetition", n). At most one target is
    retired per call; an already complete or aborted state passes through
    unchanged.
    """
    if state.aborted or state.complete:
        return state, []
    events: list[tuple] = []
    if matched:
        state = replace(state, burst=state.burst + 1)
        events.append(("burst", state.cursor, len(track.joint_ids)))
    elif t - state.spawned_at > params.skip_time:
        state = replace(state, missed=state.missed + 1)
        events.append(("missed", state.cursor))
    else:
        return state, events

    cursor = state.cursor + 1
    if cursor >= track.key_frames:
        done = state.repetitions_done + 1
        if done < params.repetitions:
            state = replace(state, cursor=0, repetitions_done=done,
                            spawned=state.spawned + 1, spawned_at=t)
        else:
            state = replace(state, repetitions_done=done, complete=True)
        events.append(("repetition", done))
    else:
        state = replace(state, cursor=cursor,
                        spawned=state.spawned + 1, spawned_at=t)
    return state, events


def _joint_indices(frame: SkeletonFrame, joints: tuple[str, ...]):
    try:
        return np.array([frame.index(j) for j in joints], dtype=np.int64)
    except KeyError:
        return None


# ---------------------------------------------------------------------------
# anomalies

def facing_direction(frame: SkeletonFrame) -> np.ndarray | None:
    """User facing direction projected to the ground plane (y-up).

    Uses the shoulder line when both shoulders are tracked; falls back to
    the head-forward marker joint; None when neither is available or the
    geometry is degenerate.
    """
    if frame.has("shoulder-left") and frame.has("shoulder-right"):
        v = frame.position("shoulder-right") - frame.position("shoulder-left")
        out = np.array([v[2], 0.0, -v[0]])
    elif frame.has("head-forward") and frame.has("head"):
        v = frame.position("head-forward") - frame.position("head")
        out = np.array([v[0], 0.0, v[2]])
    else:
        return None
    norm = math.sqrt(out.dot(out))  # np.linalg.norm's arithmetic
    if norm < 1e-9:
        return None
    return out / norm


def detect_anomalies(window: Sequence[tuple[float, SkeletonFrame]],
                     params: TrajectoryParams,
                     ref_stats: ReferenceStats,
                     current_target: dict[str, np.ndarray] | None = None):
    """Currently active anomaly kinds over a sliding window of
    (t, height-corrected frame) samples.

    Returns (kinds, warming_up, facing), where facing is the newest
    frame's facing_direction (None while warming up). A window spanning
    less than ANOMALY_WINDOW seconds only warms up. Fall and orientation
    are judged on the newest frame; hand-position requires the assessed
    hand to stay beyond HAND_PROXIMITY_FACTOR * match_radius from its
    current target across the whole window.
    """
    if not window or window[-1][0] - window[0][0] < ANOMALY_WINDOW:
        return set(), True, None
    kinds: set[str] = set()
    latest = window[-1][1]

    if latest.has("head"):
        if latest.position("head")[1] < FALL_HEIGHT_FRACTION * ref_stats.face_height:
            kinds.add("fall")

    facing = facing_direction(latest)
    if facing is not None and float(facing @ STATION_FORWARD) < 0.0:  # cos > 90 degrees
        kinds.add("orientation")

    hand = ref_stats.hand_joint
    if current_target is not None and hand in current_target:
        limit = HAND_PROXIMITY_FACTOR * params.match_radius
        goal = current_target[hand]
        away = True
        seen = False
        for _, f in window:
            if not f.has(hand):
                continue
            seen = True
            d = f.position(hand) - goal
            if math.sqrt(d.dot(d)) <= limit:  # np.linalg.norm's arithmetic
                away = False
                break
        if seen and away:
            kinds.add("hand-position")
    return kinds, False, facing


def update_anomalies(state: TrajectoryState, kinds: set[str], t: float,
                     params: TrajectoryParams):
    """Fold a detection result into the state: opens and closes episodes,
    and aborts when one kind stays active beyond anomaly_wait.

    Feedback primitives: ("anomaly", kind, "start"|"end"), ("abort", kind).
    """
    if state.aborted:
        return state, []
    events: list[tuple] = []
    active = dict(state.active_anomalies)

    for kind in ANOMALY_KINDS:
        if kind in kinds and kind not in active:
            active[kind] = t
            events.append(("anomaly", kind, "start"))
        elif kind not in kinds and kind in active:
            onset = active.pop(kind)
            state = replace(state, anomaly_log=state.anomaly_log
                            + (Anomaly(kind, onset, t),))
            events.append(("anomaly", kind, "end"))

    for kind in ANOMALY_KINDS:
        if kind in active and t - active[kind] > params.anomaly_wait:
            log = state.anomaly_log + tuple(
                Anomaly(k, onset, t) for k, onset in active.items())
            state = replace(state, active_anomalies=(), anomaly_log=log,
                            aborted=True, abort_kind=kind)
            events.append(("abort", kind))
            return state, events

    now_active = tuple(active.items())
    if now_active != state.active_anomalies:
        state = replace(state, active_anomalies=now_active)
    return state, events


def close_anomalies(state: TrajectoryState, t: float) -> TrajectoryState:
    """End any still-active episodes at time t (used at finalize)."""
    if not state.active_anomalies:
        return state
    log = state.anomaly_log + tuple(
        Anomaly(k, onset, max(onset, t)) for k, onset in state.active_anomalies)
    return replace(state, active_anomalies=(), anomaly_log=log)


# ---------------------------------------------------------------------------
# scoring

def trajectory_score(state: TrajectoryState,
                     params: TrajectoryParams) -> tuple[float, str]:
    """Burst ratio minus a penalty per anomaly episode, clamped to [0, 1].

    Aborted evaluations score 0; so does a state that never retired a
    target. Returns (score, detail)."""
    if state.aborted:
        return 0.0, f"aborted: {state.abort_kind} anomaly exceeded wait"
    total = state.burst + state.missed
    if total == 0:
        return 0.0, "no trajectory activity"
    episodes = len(state.anomaly_log)
    score = max(0.0, state.burst / total - params.anomaly_penalty * episodes)
    return score, (f"burst {state.burst}/{total}, {episodes} anomaly episodes")


@dataclass(frozen=True)
class TrajectorySummary:
    task_id: str
    score: float
    detail: str
    burst: int
    missed: int
    spawned: int
    repetitions_done: int
    anomalies: tuple[Anomaly, ...]
    aborted: bool
    abort_kind: str | None
    correction_factor: float
    warnings: tuple[str, ...]


class ActionEvaluator:
    """Streams one user's frames through height correction, target
    matching and anomaly watching for a single task activation, against
    a reference track; the track's params drive the matching.

    Frames inside the first second are buffered so the correction factor
    can be computed from the median face-hand distance of that window
    (matching how reference statistics are taken), then replayed. Once the
    factor is not 1, a frame without a head cannot be corrected: it is
    skipped, with one warning per evaluator.
    """

    def __init__(self, task_id: str, track: ReferenceTrack,
                 ref_stats: ReferenceStats, t_start: float):
        self.task_id = task_id
        self.track = track
        self.params = track.params
        self.ref_stats = ref_stats
        self.t_start = t_start
        self.state = TrajectoryState(spawned_at=t_start)
        # joint -> target position, one dict per key frame
        self._targets = [dict(zip(self.track.joint_ids, row))
                         for row in self.track.positions]
        self.factor: float | None = None  # None until the warm-up window closes
        self._pending: list[tuple[float, SkeletonFrame]] = []
        self._window: list[tuple[float, SkeletonFrame]] = []
        self._index_cache: dict[tuple[str, ...], object] = {}
        self._warnings: list[str] = []
        self._facing_warned = False
        self._headless_warned = False

    # -- correction ---------------------------------------------------------

    def _compute_factor(self) -> float:
        try:
            _, d = face_hand_medians((f for _, f in self._pending),
                                     self.ref_stats.hand_joint)
        except ValueError:
            self._warnings.append("height correction skipped: no usable frames")
            return 1.0
        if d < MIN_FACE_HAND_DISTANCE:
            self._warnings.append("height correction refused: degenerate pose")
            return 1.0
        return self.ref_stats.face_hand_distance / d

    # -- streaming ----------------------------------------------------------

    def observe(self, t: float, frame: SkeletonFrame) -> list[tuple]:
        if self.state.aborted:
            return []
        if self.factor is None:
            if t <= self.t_start + 1.0:
                self._pending.append((t, frame))
                return []
            self.factor = self._compute_factor()
            events: list[tuple] = []
            for pt, pf in self._pending:
                events.extend(self._step(pt, pf))
                if self.state.aborted:
                    return events
            self._pending.clear()
            events.extend(self._step(t, frame))
            return events
        return self._step(t, frame)

    def _step(self, t: float, frame: SkeletonFrame) -> list[tuple]:
        if self.factor != 1.0 and not frame.has("head"):
            # correction scales about the head; without one the frame is unusable
            if not self._headless_warned:
                self._headless_warned = True
                self._warnings.append(
                    "frames without head skipped: cannot height-correct")
            return []
        corrected = scale_frame(frame, self.factor)
        window = self._window
        window.append((t, corrected))
        while len(window) >= 2 and window[1][0] <= t - ANOMALY_WINDOW:
            window.pop(0)

        target = None if self.state.complete else self._targets[self.state.cursor]
        kinds, warming, facing = detect_anomalies(window, self.params,
                                                  self.ref_stats, target)
        events: list[tuple] = []
        if not warming:
            if not self._facing_warned and facing is None:
                self._facing_warned = True
                self._warnings.append(
                    "orientation anomaly disabled: no shoulder or head-forward joints")
            self.state, anomaly_events = update_anomalies(
                self.state, kinds, t, self.params)
            events.extend(anomaly_events)
            if self.state.aborted:
                return events

        matched = self._matches(corrected)
        self.state, step_events = step_trajectory(
            self.state, t, self.track, self.params, matched)
        events.extend(step_events)
        return events

    def _matches(self, frame: SkeletonFrame) -> bool:
        if self.state.complete:
            return False
        idx = self._index_cache.get(frame.names)
        if idx is None:
            idx = _joint_indices(frame, self.track.joint_ids)
            if idx is None:
                idx = "missing"
                self._warnings.append(
                    "frames missing tracked joints; targets cannot burst")
            self._index_cache[frame.names] = idx
        if isinstance(idx, str):
            return False
        return bool(all_within(frame.positions[idx],
                               self.track.positions[self.state.cursor],
                               self.params.match_radius))

    # -- finalize -----------------------------------------------------------

    def finalize(self, t_end: float) -> TrajectorySummary:
        if self.factor is None:
            # task ended inside the warm-up window; replay what we have
            self.factor = self._compute_factor() if self._pending else 1.0
            for pt, pf in self._pending:
                self._step(pt, pf)
                if self.state.aborted:
                    break
            self._pending.clear()
        state = self.state
        if not state.aborted and not state.complete and state.spawned > state.retired:
            state = replace(state, missed=state.missed + 1)
        state = close_anomalies(state, t_end)
        self.state = state
        score, detail = trajectory_score(state, self.params)
        return TrajectorySummary(
            task_id=self.task_id, score=score, detail=detail,
            burst=state.burst, missed=state.missed, spawned=state.spawned,
            repetitions_done=state.repetitions_done,
            anomalies=state.anomaly_log, aborted=state.aborted,
            abort_kind=state.abort_kind,
            correction_factor=self.factor if self.factor is not None else 1.0,
            warnings=tuple(self._warnings))
