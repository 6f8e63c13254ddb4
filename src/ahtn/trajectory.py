"""Action-level assessment: trajectory target matching and anomaly watching.

A reference performance is downsampled to key frames, ``key_rate`` a
second, once, when the reference set is built (``build_reference_track``).
Each key frame is one target: the reference positions of the tracked
joints, one row of the ReferenceTrack an ActionEvaluator is given.

The ActionEvaluator is the whole streaming machine, for one user and one
task activation. Frames are height corrected first (one factor from the
median face-hand distance of the first second). Targets spawn one at a
time, in order. The user bursts the target in flight by bringing every
tracked joint within the match radius (closed ball); a frame missing a
tracked joint never bursts. A target with no match for longer than the
skip time is retired as missed and the next one spawns; retiring the last
target completes the evaluator. Meanwhile a short sliding window of
corrected frames feeds anomaly detection (fall, facing away from the
station, hand far from its target); an anomaly continuously active beyond
the wait time aborts the evaluation. ``flush`` replays a warm-up window
the task ended inside, and ``finalize`` scores the evaluation.

The evaluator reports what happens as feedback primitives, tuples led by
their kind; ``FEEDBACK_TEXT`` holds each kind's message text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import all_within
from .model import TrajectoryParams
from .telemetry import (MIN_FACE_HAND_DISTANCE, WARM_UP_SECONDS, ReferenceStats,
                        SkeletonFrame, TaskSlice, face_hand_medians, scale_frame,
                        skeleton_frames)

ANOMALY_KINDS = ("fall", "orientation", "hand-position")
ANOMALY_WINDOW = 0.5  # s of corrected frames an anomaly is judged over
FALL_HEIGHT_FRACTION = 0.5  # of the reference face height; lower is a fall
HAND_PROXIMITY_FACTOR = 3.0  # match radii; farther from the target is away
STATION_FORWARD = np.array([0.0, 0.0, 1.0])  # unit; facing against it is away

# feedback kind -> message text, formatted with the task id and then the
# fields of the primitive, e.g. ("burst", target, joint count)
FEEDBACK_TEXT = {
    "burst": "task={} target={} joints={}",
    "missed": "task={} target={}",
    "repetition": "task={} n={}",
    "anomaly": "task={} anomaly={} edge={}",
    "abort": "task={} anomaly={}",
}
PROGRESS_KINDS = frozenset(("burst", "missed", "repetition"))  # real-time tasks only


@dataclass(frozen=True)
class Anomaly:
    kind: str
    t_start: float
    t_end: float


@dataclass(frozen=True, eq=False)
class ReferenceTrack:
    """Key-framed reference trajectory: positions (K, J, 3) of the
    tracked joints, in params.joint_ids order, with the params it was
    built for. Compared by identity, as its array has no single truth
    value."""

    params: TrajectoryParams
    positions: np.ndarray

    @property
    def joint_ids(self) -> tuple[str, ...]:
        return self.params.joint_ids

    @property
    def key_frames(self) -> int:
        return len(self.positions)


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
    count = key_frame_count(ref_slice.t1 - ref_slice.t0, params.key_rate)
    frame_times = np.array([t for t, _ in frames])

    positions = np.empty((count, len(params.joint_ids), 3))
    for k in range(count):
        goal = ref_slice.t0 + k / params.key_rate
        i = int(np.searchsorted(frame_times, goal, side="left"))
        if i >= len(frames):
            i = len(frames) - 1
        frame = frames[i][1]
        for j, joint in enumerate(params.joint_ids):
            if not frame.has(joint):
                raise ValueError(f"reference missing joint {joint!r} at key frame {k}")
            positions[k, j] = frame.position(joint)
    return ReferenceTrack(params=params, positions=positions)


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
                     hand_goal: np.ndarray | None = None):
    """Currently active anomaly kinds over a sliding window of
    (t, height-corrected frame) samples.

    Returns (kinds, warming_up, facing), where facing is the newest
    frame's facing_direction (None while warming up). A window spanning
    less than ANOMALY_WINDOW seconds only warms up. Fall and orientation
    are judged on the newest frame; hand-position requires the assessed
    hand (``ref_stats.hand_joint``) to stay beyond HAND_PROXIMITY_FACTOR *
    match_radius from ``hand_goal``, its position in the current target,
    across the whole window.
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

    if hand_goal is not None:
        hand = ref_stats.hand_joint
        limit = HAND_PROXIMITY_FACTOR * params.match_radius
        away = True
        seen = False
        for _, f in window:
            if not f.has(hand):
                continue
            seen = True
            d = f.position(hand) - hand_goal
            if math.sqrt(d.dot(d)) <= limit:  # np.linalg.norm's arithmetic
                away = False
                break
        if seen and away:
            kinds.add("hand-position")
    return kinds, False, facing


# ---------------------------------------------------------------------------
# the evaluator

@dataclass(frozen=True)
class TrajectorySummary:
    score: float
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

    Frames inside the first ``WARM_UP_SECONDS`` are buffered so the height factor
    can be computed from the median face-hand distance of that window
    (matching how reference statistics are taken), then replayed. Once the
    factor is not 1, a frame without a head cannot be corrected: it is
    skipped, with one warning per evaluator. After an abort the evaluator
    is inert.
    """

    def __init__(self, task_id: str, track: ReferenceTrack,
                 ref_stats: ReferenceStats, t_start: float):
        self.task_id = task_id
        self.track = track
        self.params = track.params
        self.ref_stats = ref_stats
        self.t_start = t_start
        # targets 0..cursor have spawned; the cursor's one is in flight
        # until it is retired, burst or missed, and the last one retired
        # completes the evaluator
        self.cursor = 0
        self.spawned_at = t_start
        self.burst = 0
        self.missed = 0
        self.complete = False
        self.aborted = False
        self.abort_kind: str | None = None
        self.open_episodes: dict[str, float] = {}  # kind -> onset, oldest first
        self.anomalies: list[Anomaly] = []  # closed episodes
        # the assessed hand's position in each target, when it is tracked
        hand = ref_stats.hand_joint
        self._hand_goals = (list(track.positions[:, track.joint_ids.index(hand)])
                            if hand in track.joint_ids else None)
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

    def _warm_up(self) -> list[tuple]:
        """Close the warm-up window: fix the factor from the buffered
        frames and replay them, up to an abort."""
        self.factor = self._compute_factor()
        events: list[tuple] = []
        for t, frame in self._pending:
            events += self._step(t, frame)
            if self.aborted:
                break
        self._pending.clear()
        return events

    # -- streaming ----------------------------------------------------------

    def observe(self, t: float, frame: SkeletonFrame) -> list[tuple]:
        if self.aborted:
            return []
        if self.factor is not None:
            return self._step(t, frame)
        if t <= self.t_start + WARM_UP_SECONDS:
            self._pending.append((t, frame))
            return []
        events = self._warm_up()
        if not self.aborted:
            events += self._step(t, frame)
        return events

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

        goal = (None if self.complete or self._hand_goals is None
                else self._hand_goals[self.cursor])
        kinds, warming, facing = detect_anomalies(window, self.params,
                                                  self.ref_stats, goal)
        events: list[tuple] = []
        if not warming:
            if not self._facing_warned and facing is None:
                self._facing_warned = True
                self._warnings.append(
                    "orientation anomaly disabled: no shoulder or head-forward joints")
            events = self._watch(t, kinds)
            if self.aborted:
                return events
        if not self.complete:
            events += self._advance(t, self._matches(corrected))
        return events

    def _advance(self, t: float, matched: bool) -> list[tuple]:
        """Retire the target in flight when the frame matched it (burst)
        or it has waited strictly longer than skip_time (missed), then
        spawn the next one."""
        if matched:
            self.burst += 1
            events = [("burst", self.cursor, len(self.track.joint_ids))]
        elif t - self.spawned_at > self.params.skip_time:
            self.missed += 1
            events = [("missed", self.cursor)]
        else:
            return []
        if self.cursor + 1 < self.track.key_frames:
            self.cursor += 1
            self.spawned_at = t
        else:
            self.complete = True
            events.append(("repetition", 1))
        return events

    def _watch(self, t: float, kinds: set[str]) -> list[tuple]:
        """Open an episode for each newly active anomaly kind and close
        each that cleared; abort when one has been open strictly longer
        than anomaly_wait."""
        events: list[tuple] = []
        episodes = self.open_episodes
        for kind in ANOMALY_KINDS:
            if kind in kinds:
                if kind not in episodes:
                    episodes[kind] = t
                    events.append(("anomaly", kind, "start"))
            elif kind in episodes:
                self.anomalies.append(Anomaly(kind, episodes.pop(kind), t))
                events.append(("anomaly", kind, "end"))
        for kind in ANOMALY_KINDS:
            if kind in episodes and t - episodes[kind] > self.params.anomaly_wait:
                self._close_episodes(t)
                self.aborted = True
                self.abort_kind = kind
                events.append(("abort", kind))
                break
        return events

    def _close_episodes(self, t: float) -> None:
        self.anomalies.extend(Anomaly(kind, onset, max(onset, t))
                              for kind, onset in self.open_episodes.items())
        self.open_episodes.clear()

    def _matches(self, frame: SkeletonFrame) -> bool:
        idx = self._index_cache.get(frame.names)
        if idx is None:
            try:
                idx = np.array([frame.index(j) for j in self.track.joint_ids],
                               dtype=np.int64)
            except KeyError:
                idx = "missing"
                self._warnings.append(
                    "frames missing tracked joints; targets cannot burst")
            self._index_cache[frame.names] = idx
        if isinstance(idx, str):
            return False
        return bool(all_within(frame.positions[idx],
                               self.track.positions[self.cursor],
                               self.params.match_radius))

    # -- finalize -----------------------------------------------------------

    def flush(self) -> list[tuple]:
        """The primitives of a warm-up window the task ended inside,
        replayed now; nothing when the window has closed already."""
        if self.factor is None and self._pending:
            return self._warm_up()
        return []

    def finalize(self, t_end: float) -> TrajectorySummary:
        """Score the activation: the burst ratio minus anomaly_penalty per
        episode, clamped at 0; 0 when aborted. A target still in flight
        counts as missed, so the ratio always has a retired target. A
        warm-up window still open is replayed first (``flush``), and its
        primitives are dropped unless the caller flushed before."""
        self.flush()
        if not self.aborted and not self.complete:
            self.missed += 1
        self._close_episodes(t_end)
        score = 0.0
        if not self.aborted:
            score = max(0.0, self.burst / (self.burst + self.missed)
                        - self.params.anomaly_penalty * len(self.anomalies))
        return TrajectorySummary(
            score=score, burst=self.burst, missed=self.missed,
            spawned=self.cursor + 1, repetitions_done=int(self.complete),
            anomalies=tuple(self.anomalies), aborted=self.aborted,
            abort_kind=self.abort_kind,
            correction_factor=1.0 if self.factor is None else self.factor,
            warnings=tuple(self._warnings))
