"""Action-level assessment: the reference track, height correction,
trajectory target matching and anomaly watching.

A reference performance is reduced once, when the reference set is built,
as its task's events arrive (``TrackBuilder``), to a ReferenceTrack: the
performer's face height, face-hand distance and assessed hand, measured
over the task's first ``WARM_UP_SECONDS`` with ``face_hand_medians``, and
key frames downsampled ``key_rate`` a second. No event list is kept: only
the frames the track reads and the subject object's first position. Each
key frame is one target: the reference positions of the tracked joints,
one row of the track an ActionEvaluator is given. The track keeps the
engine-wide TrajectoryParams it was built for, and the evaluator matches
by them.

The ActionEvaluator is the whole streaming machine, for one user and one
task activation. It looks joints up by row, never by name: the first
frame of each joint layout gets a ``LayoutPlan`` (``plan_layout``), the
rows of the head, the assessed hand, the facing pair and the tracked
joints, which every later frame of that layout reuses. Frames are height
corrected first, once each: ``scale_frame`` applies one factor, the
track's face-hand distance over the learner's ``face_hand_medians`` in
the same warm-up window. Targets spawn one at a time, in order. The user
bursts the target in flight by bringing every tracked joint within the
match radius (closed ball); a frame missing a tracked joint never bursts.
A target with no match for longer than the skip time is retired as
missed and the next one spawns; retiring the last target completes the
evaluator. Meanwhile a short sliding window of corrected frames feeds
anomaly detection (fall, facing away from the station, hand far from its
target); an anomaly continuously active beyond the wait time aborts the
evaluation. A ``WindowEntry`` keeps a frame's corrected positions and
plan, from which the newest entry's head height and facing are read, and
the hand's distance to the current goal, measured once per goal: again
only when the cursor moves. ``flush`` replays a warm-up window the task
ended inside, and ``finalize`` scores the evaluation.

The evaluator reports what happens as feedback primitives, tuples led by
their kind; ``FEEDBACK_TEXT`` holds each kind's message text.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import all_within, scale_about
from .model import TaskNode, TrajectoryParams, is_joint_id
from .telemetry import Event, Pose, SkeletonFrame

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

MIN_FACE_HAND_DISTANCE = 0.01  # m; below this the pose is degenerate
WARM_UP_SECONDS = 1.0  # a task's first span, over which both sides measure the skeleton
HAND_JOINTS = ("hand-right", "hand-left")


@dataclass(frozen=True)
class Anomaly:
    kind: str
    t_start: float
    t_end: float


@dataclass(frozen=True, eq=False)
class ReferenceTrack:
    """One reference performance of a trajectory task: positions (K, J, 3)
    of the tracked joints at its key frames, in joint_ids order, the
    params it was built for, and the performer's median face height,
    median face-hand distance and assessed hand over the warm-up window.
    Compared by identity, as its array has no single truth value."""

    params: TrajectoryParams
    joint_ids: tuple[str, ...]
    positions: np.ndarray
    face_height: float
    face_hand_distance: float
    hand_joint: str

    @property
    def key_frames(self) -> int:
        return len(self.positions)


def key_frame_count(duration: float, key_rate: float) -> int:
    if duration <= 0:
        raise ValueError("reference duration must be > 0")
    return max(1, math.ceil(duration * key_rate))


class TrackBuilder:
    """The reference track of one trajectory task, ``node``, marked from
    t0, reduced from the events it takes as they arrive (``add``) and built
    when the task ends (``track``).

    Of the skeleton frames it keeps the first, every frame of the warm-up
    window (``t <= t0 + WARM_UP_SECONDS``), for each key goal t0 +
    k/key_rate the first frame at or after it, and the last; of the poses,
    the first position of the node's subject object, its first game
    object."""

    def __init__(self, node: TaskNode, t0: float, params: TrajectoryParams):
        self.node = node
        self.t0 = t0
        self.params = params
        self.subject = next((o for o in node.objects if not is_joint_id(o)), None)
        self.warm_up: list[SkeletonFrame] = []
        self.keys: list[SkeletonFrame] = []  # key k's frame, while it has one
        self.last: SkeletonFrame | None = None
        self.target: np.ndarray | None = None  # the subject's first position

    def add(self, event: Event) -> None:
        p = event.payload
        if type(p) is SkeletonFrame:
            if self.last is None or event.t <= self.t0 + WARM_UP_SECONDS:
                self.warm_up.append(p)
            keys = self.keys
            while self.t0 + len(keys) / self.params.key_rate <= event.t:
                keys.append(p)
            self.last = p
        elif type(p) is Pose and self.target is None and p.object_id == self.subject:
            self.target = np.asarray(p.position)

    def track(self, t1: float) -> ReferenceTrack:
        """The track of the task ended at t1: the performer's statistics,
        medians over the warm-up frames (``face_hand_medians``, robust to
        first-frame noise) of the hand nearer the subject's first position,
        by default the right hand, and the key frames of the node's joints;
        a key goal past the last frame takes the last frame."""
        if self.last is None:
            raise ValueError(f"slice for {self.node.id!r} has no skeleton frames")
        hand = _nearest_hand(self.warm_up[0], self.target)
        face_height, face_hand_distance = face_hand_medians(self.warm_up, hand)

        count = key_frame_count(t1 - self.t0, self.params.key_rate)
        keys = (self.keys + [self.last] * count)[:count]
        joint_ids = self.node.joints
        for k, frame in enumerate(keys):
            if missing := [j for j in joint_ids if not frame.has(j)]:
                raise ValueError(f"reference missing joint {missing[0]!r} at key frame {k}")
        positions = np.array([[f.position(j) for j in joint_ids] for f in keys])
        return ReferenceTrack(params=self.params, joint_ids=joint_ids,
                              positions=positions, face_height=face_height,
                              face_hand_distance=face_hand_distance, hand_joint=hand)


def _nearest_hand(frame: SkeletonFrame, target: np.ndarray | None) -> str:
    present = [h for h in HAND_JOINTS if frame.has(h)]
    if not present:
        raise ValueError("frame has no hand joint")
    if len(present) == 1 or target is None:
        return present[0]
    return min(present, key=lambda h: float(np.linalg.norm(frame.position(h) - target)))


# ---------------------------------------------------------------------------
# height correction

def face_hand_medians(frames, hand: str) -> tuple[float, float]:
    """Median head height and median head-to-hand distance over the frames
    that hold both ``head`` and ``hand``; ValueError when none does. The
    one measurement behind both the track's performer statistics and the
    learner's height-correction factor."""
    usable = [f for f in frames if f.has("head") and f.has(hand)]
    if not usable:
        raise ValueError(f"no skeleton frame holds both head and {hand}")
    heads = np.array([f.position("head") for f in usable])
    hands = np.array([f.position(hand) for f in usable])
    return (float(np.median(heads[:, 1])),
            float(np.median(np.linalg.norm(heads - hands, axis=1))))


def scale_frame(frame: SkeletonFrame, head: int | None,
                factor: float) -> np.ndarray:
    """The frame's joint positions scaled about its head, row ``head``, by
    factor. Factor 1 returns the frame's own positions, and needs no
    head."""
    if factor == 1.0:
        return frame.positions
    return scale_about(frame.positions, frame.positions[head], float(factor))


# ---------------------------------------------------------------------------
# the per-layout plan and anomalies

@dataclass(frozen=True, eq=False)
class LayoutPlan:
    """The rows of one joint layout that an evaluator reads, found once
    per layout: the head, the track's assessed hand, the facing pair (a
    row minus b row, the right minus the left shoulder when both are
    tracked, else head-forward minus head), and the tracked joints in the
    track's order, None when one is missing. Compared by identity."""

    head: int | None
    hand: int | None
    facing: tuple[int, int, bool] | None  # a, b, whether they are shoulders
    tracked: np.ndarray | None


def plan_layout(names: tuple[str, ...], track: ReferenceTrack) -> LayoutPlan:
    """The plan of the joint layout ``names`` for an evaluator of track."""
    rows = {name: i for i, name in enumerate(names)}
    head = rows.get("head")
    if "shoulder-left" in rows and "shoulder-right" in rows:
        facing = (rows["shoulder-right"], rows["shoulder-left"], True)
    elif "head-forward" in rows and head is not None:
        facing = (rows["head-forward"], head, False)
    else:
        facing = None
    tracked = (np.array([rows[j] for j in track.joint_ids], dtype=np.int64)
               if all(j in rows for j in track.joint_ids) else None)
    return LayoutPlan(head, rows.get(track.hand_joint), facing, tracked)


def facing_direction(positions: np.ndarray, plan: LayoutPlan) -> np.ndarray | None:
    """User facing direction projected to the ground plane (y-up), from
    the positions of a frame laid out as ``plan`` says.

    Uses the shoulder line when both shoulders are tracked; falls back to
    the head-forward marker joint; None when neither is available or the
    geometry is degenerate.
    """
    if plan.facing is None:
        return None
    a, b, shoulders = plan.facing
    x, _, z = (positions[a] - positions[b]).tolist()
    out = np.array((z, 0.0, -x) if shoulders else (x, 0.0, z))
    norm = math.sqrt(out.dot(out))  # np.linalg.norm's arithmetic
    if norm < 1e-9:
        return None
    return out / norm


@dataclass(slots=True, eq=False)
class WindowEntry:
    """One corrected frame in the anomaly window: its time, its positions
    and the plan of their layout, which give the head height and the
    facing, and the assessed hand's distance to ``goal``, the goal it was
    last measured against (None without a hand). A new goal, when the
    cursor moves, measures it again."""

    t: float
    positions: np.ndarray
    plan: LayoutPlan
    goal: np.ndarray | None = None
    distance: float | None = None

    def distance_to(self, goal: np.ndarray) -> float | None:
        """The hand's distance to goal, measured once per goal."""
        if goal is not self.goal:
            self.goal = goal
            hand = self.plan.hand
            if hand is not None:
                d = self.positions[hand] - goal
                self.distance = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic
        return self.distance


def detect_anomalies(window: Sequence[WindowEntry], track: ReferenceTrack,
                     hand_goal: np.ndarray | None = None):
    """Currently active anomaly kinds over a sliding window of corrected
    frames, oldest first.

    Returns (kinds, warming_up, facing), where facing is the newest
    frame's facing_direction (None while warming up). A window spanning
    less than ANOMALY_WINDOW seconds only warms up. Fall and orientation
    are judged on the newest frame, against the track's face height;
    hand-position requires the assessed hand (``track.hand_joint``) to stay
    beyond HAND_PROXIMITY_FACTOR * match_radius from ``hand_goal``, its
    position in the current target, across the whole window.
    """
    if not window or window[-1].t - window[0].t < ANOMALY_WINDOW:
        return set(), True, None
    kinds: set[str] = set()
    latest = window[-1]
    positions, plan = latest.positions, latest.plan

    if plan.head is not None:
        if positions[plan.head, 1] < FALL_HEIGHT_FRACTION * track.face_height:
            kinds.add("fall")

    facing = facing_direction(positions, plan)
    if facing is not None and float(facing @ STATION_FORWARD) < 0.0:  # cos > 90 degrees
        kinds.add("orientation")

    if hand_goal is not None:
        limit = HAND_PROXIMITY_FACTOR * track.params.match_radius
        away = True
        seen = False
        for entry in window:
            d = entry.distance_to(hand_goal)
            if d is None:
                continue
            seen = True
            if d <= limit:
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
    (as the track's statistics were taken), then replayed. Once the
    factor is not 1, a frame without a head cannot be corrected: it is
    skipped, with one warning per evaluator. After an abort the evaluator
    is inert.
    """

    def __init__(self, track: ReferenceTrack, t_start: float):
        self.track = track
        self.params = track.params
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
        hand = track.hand_joint
        self._hand_goals = (list(track.positions[:, track.joint_ids.index(hand)])
                            if hand in track.joint_ids else None)
        self.factor: float | None = None  # None until the warm-up window closes
        self._pending: list[tuple[float, SkeletonFrame]] = []
        self._window: deque[WindowEntry] = deque()
        self._plans: dict[tuple[str, ...], LayoutPlan] = {}  # by joint layout
        self._unmatchable: set[LayoutPlan] = set()  # warned: a tracked joint is missing
        self._warnings: list[str] = []
        self._facing_warned = False
        self._headless_warned = False

    # -- correction ---------------------------------------------------------

    def _compute_factor(self) -> float:
        try:
            _, d = face_hand_medians((f for _, f in self._pending),
                                     self.track.hand_joint)
        except ValueError:
            self._warnings.append("height correction skipped: no usable frames")
            return 1.0
        if d < MIN_FACE_HAND_DISTANCE:
            self._warnings.append("height correction refused: degenerate pose")
            return 1.0
        return self.track.face_hand_distance / d

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
        plan = self._plans.get(frame.names)
        if plan is None:
            plan = self._plans[frame.names] = plan_layout(frame.names, self.track)
        if self.factor != 1.0 and plan.head is None:
            # correction scales about the head; without one the frame is unusable
            if not self._headless_warned:
                self._headless_warned = True
                self._warnings.append(
                    "frames without head skipped: cannot height-correct")
            return []
        positions = scale_frame(frame, plan.head, self.factor)
        window = self._window
        window.append(WindowEntry(t, positions, plan))
        while len(window) >= 2 and window[1].t <= t - ANOMALY_WINDOW:
            window.popleft()

        goal = (None if self.complete or self._hand_goals is None
                else self._hand_goals[self.cursor])
        kinds, warming, facing = detect_anomalies(window, self.track, goal)
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
            events += self._advance(t, self._matches(positions, plan))
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
        episodes = self.open_episodes
        if not kinds and not episodes:
            return []
        events: list[tuple] = []
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

    def _matches(self, positions: np.ndarray, plan: LayoutPlan) -> bool:
        if plan.tracked is None:
            if plan not in self._unmatchable:  # once per layout
                self._unmatchable.add(plan)
                self._warnings.append(
                    "frames missing tracked joints; targets cannot burst")
            return False
        return all_within(positions.take(plan.tracked, axis=0),
                          self.track.positions[self.cursor],
                          self.params.match_radius)

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
