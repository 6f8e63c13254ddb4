"""Evaluation harness: correlation statistics and perturbation studies.

Two tools for judging the scorer itself: correlate_values() compares system
scores with human grades (Pearson, Spearman with average ranks, Kendall
tau-b), and perturb()/monotonicity_report() synthesize degraded sessions
from a reference recording to confirm that the grade falls as corruption
grows. A study takes the reference's arrays once and draws every trial's
noise onto them, and it scores the unperturbed reference once. Each trial
it builds and grades only the events its grading reads, which gives the
table the whole corrupted copies give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (EngineConfig, _cut, build_reference_set, score_recording,
                     task_samples)
from .kernels import kendall_pair_stats, pearson, rank_average
from .model import (Settings, TaskNetwork, TrajectoryParams, check_setting,
                    setting, settings)
from .telemetry import (Attach, Collision, Event, Pose, SessionRecording,
                        SkeletonFrame, TextInput)

METHODS = ("pearson", "spearman", "kendall")


class UndefinedCorrelationError(ValueError):
    """Raised when a coefficient has no defined value (zero variance or an
    all-tied ranking)."""


@dataclass(frozen=True)
class ScorePairSet:
    """Aligned system and grader scores, one pair per labelled item."""

    labels: tuple[str, ...]
    system: tuple[float, ...]
    grader: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.labels) == len(self.system) == len(self.grader)):
            raise ValueError("labels, system and grader must align")
        if len(self.labels) < 2:
            raise ValueError("need at least two score pairs")


def parse_score_pairs(text: str) -> ScorePairSet:
    """Parse `<label> <system> <grader>` lines. Values on a 0-100 scale
    (any entry above 1) are normalized to [0, 1]."""
    labels: list[str] = []
    system: list[float] = []
    grader: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected <label> <system> <grader>")
        try:
            system.append(float(parts[1]))
            grader.append(float(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: scores must be numbers") from None
        labels.append(parts[0])
    if any(v > 1.0 for v in system + grader):
        system = [v / 100.0 for v in system]
        grader = [v / 100.0 for v in grader]
    for v in system + grader:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"score {v} outside [0, 1] after normalization")
    return ScorePairSet(labels=tuple(labels), system=tuple(system),
                        grader=tuple(grader))


# ---------------------------------------------------------------------------
# correlation

def correlate_values(x: Sequence[float], y: Sequence[float],
                     method: str) -> float:
    """Correlation coefficient between two aligned vectors of finite
    values."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    if len(x) < 2:
        raise ValueError("need at least two pairs")
    ax = np.ascontiguousarray(x, dtype=np.float64)
    ay = np.ascontiguousarray(y, dtype=np.float64)
    bad = [v for v in (*ax.tolist(), *ay.tolist()) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite value {bad[0]!r} in correlation input")

    if method == "pearson":
        r = float(pearson(ax, ay))
        if math.isnan(r):
            raise UndefinedCorrelationError("zero variance in pearson input")
    elif method == "spearman":
        r = float(pearson(rank_average(ax), rank_average(ay)))
        if math.isnan(r):
            raise UndefinedCorrelationError("all-tied ranking in spearman input")
    else:
        conc, disc, n1, n2 = kendall_pair_stats(ax, ay)
        n = len(ax)
        n0 = n * (n - 1) // 2
        denom = math.sqrt(float(n0 - n1) * float(n0 - n2))
        if denom == 0.0:
            raise UndefinedCorrelationError("all-tied ranking in kendall input")
        r = (conc - disc) / denom
    return min(1.0, max(-1.0, r))


# ---------------------------------------------------------------------------
# perturbation

@dataclass(frozen=True)
class PerturbationSpec(Settings):
    """How hard to corrupt a recording; each magnitude is checked by its
    rule when the spec is built. A fixed seed makes the corruption
    reproducible across platforms (the generator is counter-based)."""

    position_sigma: float = setting(0.0, ">= 0", "noise on pose and joint positions, in m")
    orientation_sigma: float = setting(0.0, ">= 0", "noise on pose rotation angles, in rad")
    drop_attach_prob: float = setting(0.0, "in [0, 1]", "chance an attach interval is dropped")
    inject_collisions: int = setting(0, ">= 0", "spurious collisions added")
    text_error: float = setting(0.0, ">= 0", "noise on numeric text inputs")
    seed: int = 0

    @property
    def is_identity(self) -> bool:
        return not any(getattr(self, f.name) for f in settings(PerturbationSpec))


MAGNITUDE_RULE = "in [0, 1]"


def spec_for_magnitude(magnitude: float, seed: int = 0) -> PerturbationSpec:
    """Single-knob mapping used by the simulate command: one magnitude m
    drives every corruption channel at a proportionate strength, up to
    m = 1: every attach interval dropped and 50 collisions injected."""
    check_setting(MAGNITUDE_RULE, magnitude, "magnitude")
    return PerturbationSpec(
        position_sigma=magnitude,
        orientation_sigma=2.0 * magnitude,
        drop_attach_prob=min(1.0, magnitude),
        inject_collisions=int(round(50.0 * magnitude)),
        text_error=magnitude,
        seed=seed,
    )


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product of (N, 4) quaternion blocks (x, y, z, w)."""
    ax, ay, az, aw = a.T
    bx, by, bz, bw = b.T
    return np.stack((
        aw * bx + bw * ax + ay * bz - az * by,
        aw * by + bw * ay + az * bx - ax * bz,
        aw * bz + bw * az + ax * by - ay * bx,
        aw * bw - (ax * bx + ay * by + az * bz),
    ), axis=1)


class _Prepared:
    """What perturb reads of one recording, taken once: every pose
    position and orientation and every frame's joints as arrays, so each
    noise block is drawn at full size; the attach intervals; the objects
    an injected collision names; and, of the events a trial keeps, each
    one's time and where the redrawn poses, frames and text inputs sit. A
    study prepares its reference once and perturbs it every trial.

    ``keep``, the ascending indices of the events a trial keeps, must hold
    every event that is not a Pose or a SkeletonFrame; perturb then builds
    events for the kept rows only and returns the kept events, corrupted.
    With no ``keep`` a trial keeps every event."""

    def __init__(self, rec: SessionRecording, keep: Sequence[int] | None = None):
        self.rec = rec
        events = rec.events
        if keep is None:
            keep = range(len(events))
        self.events = [events[i] for i in keep]
        self.times = np.array([e.t for e in self.events], dtype=np.float64)
        # an event's index in the recording -> its place among those kept
        slot = (keep if isinstance(keep, range)
                else {i: j for j, i in enumerate(keep)})
        at: dict[type, list[int]] = {Pose: [], SkeletonFrame: [], TextInput: []}
        for i, e in enumerate(events):
            indices = at.get(type(e.payload))
            if indices is not None:
                indices.append(i)

        def kept_rows(indices: list[int]) -> tuple[list[int], list[int]]:
            """Which of a kind's events a trial keeps, and their places."""
            rows = [r for r, i in enumerate(indices) if i in slot]
            return rows, [slot[indices[r]] for r in rows]

        poses = [events[i] for i in at[Pose]]
        n = len(poses)
        self.position = np.array([e.payload.position for e in poses],
                                 dtype=np.float64).reshape(n, 3)
        self.orientation = np.array([e.payload.orientation for e in poses],
                                    dtype=np.float64).reshape(n, 4)
        self.pose_rows, self.pose_at = kept_rows(at[Pose])
        kept = [poses[r] for r in self.pose_rows]
        self.pose_t = [e.t for e in kept]
        self.pose_user = [e.user for e in kept]
        self.pose_object = [e.payload.object_id for e in kept]

        frames = [events[i] for i in at[SkeletonFrame]]
        ends = np.cumsum([len(e.payload.names) for e in frames], dtype=np.int64)
        # each frame's rows of the joint array
        rows = list(map(slice, [0, *ends[:-1].tolist()], ends.tolist()))
        self.joints = (np.concatenate([e.payload.positions for e in frames])
                       if frames else np.empty((0, 3)))
        kept_frames, self.frame_at = kept_rows(at[SkeletonFrame])
        self.frame_rows = [rows[r] for r in kept_frames]
        kept = [frames[r] for r in kept_frames]
        self.frame_t = [e.t for e in kept]
        self.frame_user = [e.user for e in kept]
        self.frame_names = [e.payload.names for e in kept]

        self.text_at = [slot[i] for i in at[TextInput]]
        self.texts = [events[i] for i in at[TextInput]]

        open_on: dict[tuple[str, str], int] = {}
        self.attach_pairs: list[tuple[int, int | None]] = []
        for i, e in enumerate(events):
            p = e.payload
            if not isinstance(p, Attach):
                continue
            key = (p.object_id, p.target_id)
            if p.attached:
                open_on[key] = slot[i]
            elif key in open_on:
                self.attach_pairs.append((open_on.pop(key), slot[i]))
        self.attach_pairs.extend((i, None) for i in open_on.values())

        # the two most posed objects collide, the first event's user reports it
        counts: dict[str, int] = {}
        for e in poses:
            obj = e.payload.object_id
            counts[obj] = counts.get(obj, 0) + 1
        ranked = sorted(counts, key=lambda o: (-counts[o], o))
        self.colliding = ((ranked[0], ranked[1] if len(ranked) > 1 else "noise")
                          if ranked else None)


def perturb(rec: SessionRecording, spec: PerturbationSpec,
            prepared: _Prepared | None = None) -> SessionRecording:
    """Deterministically corrupted copy of a recording.

    Gaussian position noise on poses and skeleton joints, axis-angle
    orientation noise on poses, random removal of whole attach intervals,
    spurious collision events, and offsets on numeric text inputs. A
    zero-magnitude spec returns the input itself, so a study scores it
    once.

    Noise is drawn in blocks, each whether or not its magnitude is 0, in
    this order: attach drops, pose positions (N, 3), pose rotation axes
    (N, 3), pose rotation angles (N,), skeleton joints (all joints of all
    frames, 3), text offsets (T,), then collision times. The draw order is
    part of the result: changing it changes every seeded study.

    The noise lands on arrays taken from the recording once
    (``prepared``); perturb takes them itself when it is given none, and
    then returns the whole corrupted copy. Arrays prepared with a keep-set
    give the kept events of that copy: every block is still drawn whole,
    so each kept event is corrupted exactly as in the whole copy.
    """
    if spec.is_identity:
        return rec
    if prepared is None:
        prepared = _Prepared(rec)
    elif prepared.rec is not rec:
        raise ValueError("prepared arrays belong to another recording")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))

    dropped = _dropped_attach_events(prepared, spec, rng)
    events = list(prepared.events)
    # in draw order
    for indices, fresh in ((prepared.pose_at, _noisy_poses(prepared, spec, rng)),
                           (prepared.frame_at, _noisy_frames(prepared, spec, rng)),
                           (prepared.text_at, _noisy_text(prepared, spec, rng))):
        for i, e in zip(indices, fresh):
            events[i] = e

    times = prepared.times
    if dropped:
        for i in reversed(dropped):
            del events[i]
        times = np.delete(times, dropped)
    events = _inject_collisions(prepared, events, times, spec, rng)
    return SessionRecording(session_id=rec.session_id, events=tuple(events))


def _noisy_poses(prepared: _Prepared, spec: PerturbationSpec, rng) -> list[Event]:
    """Position noise, then a rotation by angle ~ N(0, orientation_sigma)
    about a uniformly random axis, for every pose; events for the kept
    ones."""
    n = len(prepared.position)
    position = prepared.position + spec.position_sigma * rng.standard_normal((n, 3))
    axis = rng.standard_normal((n, 3))
    angle = rng.standard_normal(n) * spec.orientation_sigma
    orientation = prepared.orientation.copy()
    norm = np.sqrt((axis * axis).sum(axis=1))
    turn = (norm > 0) & (angle != 0.0)
    half = angle[turn] / 2.0
    q_noise = np.column_stack((axis[turn] / norm[turn, None] * np.sin(half)[:, None],
                               np.cos(half)))
    q = _quat_mul(q_noise, orientation[turn])
    orientation[turn] = q / np.sqrt((q * q).sum(axis=1))[:, None]
    rows = prepared.pose_rows
    # zip over columns builds each tuple directly, with no per-row list
    return list(map(Event, prepared.pose_t, prepared.pose_user,
                    map(Pose, prepared.pose_object, zip(*position[rows].T.tolist()),
                        zip(*orientation[rows].T.tolist()))))


def _noisy_frames(prepared: _Prepared, spec: PerturbationSpec,
                  rng) -> list[Event]:
    """Position noise on every joint; frames keep their layout's names.
    Events for the kept frames; nothing is replaced when the noise is 0."""
    noise = rng.standard_normal(prepared.joints.shape)
    if spec.position_sigma == 0:
        return []
    noise *= spec.position_sigma
    noise += prepared.joints
    return list(map(Event, prepared.frame_t, prepared.frame_user,
                    map(SkeletonFrame, prepared.frame_names,
                        [noise[rows] for rows in prepared.frame_rows])))


def _noisy_text(prepared: _Prepared, spec: PerturbationSpec,
                rng) -> list[Event]:
    """Offsets on numeric text inputs; other values pass through."""
    offsets = rng.standard_normal(len(prepared.text_at))
    if spec.text_error == 0:
        return []
    out = []
    for e, z in zip(prepared.texts, offsets.tolist()):
        p = e.payload
        try:
            e = Event(e.t, e.user,
                      TextInput(p.field_id, repr(float(p.value) + spec.text_error * z)))
        except ValueError:
            pass
        out.append(e)
    return out


def _dropped_attach_events(prepared: _Prepared, spec: PerturbationSpec,
                           rng) -> list[int]:
    """Places, ascending, among the kept events of the attach on/off
    events whose whole interval is dropped: one draw per interval, in the
    order they close."""
    draws = rng.random(len(prepared.attach_pairs)).tolist()
    return sorted(i for pair, u in zip(prepared.attach_pairs, draws)
                  if u < spec.drop_attach_prob for i in pair if i is not None)


def _inject_collisions(prepared: _Prepared, events: list[Event],
                       times: np.ndarray, spec: PerturbationSpec,
                       rng) -> list[Event]:
    """The events, in time order as a recording's are, with spurious
    collisions merged in; ``times`` are the events' times. A collision
    lands after the events that share its time."""
    if spec.inject_collisions == 0 or not events or prepared.colliding is None:
        return events
    first, second = prepared.colliding
    user = prepared.rec.events[0].user
    t0, t1 = events[0].t, events[-1].t
    at = np.sort(rng.uniform(t0, t1, size=spec.inject_collisions))
    slots = np.searchsorted(times, at, side="right").tolist()
    pairs = ((first, second), (second, first))
    merged: list[Event] = []
    start = 0
    for j, (t, slot) in enumerate(zip(at.tolist(), slots)):
        merged += events[start:slot]
        merged.append(Event(t, user, Collision(*pairs[j % 2])))
        start = slot
    merged += events[start:]
    return merged


# ---------------------------------------------------------------------------
# monotonicity study

MIN_TRIALS = 10


@dataclass(frozen=True)
class MonotonicityRow:
    magnitude: float
    mean_delta: float
    std_delta: float
    trials: int


def monotonicity_report(net: TaskNetwork, reference: SessionRecording,
                        magnitudes: Sequence[float], trials: int,
                        seed: int = 0,
                        trajectory: TrajectoryParams = TrajectoryParams()
                        ) -> list[MonotonicityRow]:
    """Score `trials` perturbed copies of the reference at each magnitude,
    matching trajectories with ``trajectory``, and tabulate the session
    grade. An identity spec (magnitude 0) gives the reference itself, so
    it is scored once and its grade serves every such trial.

    The reference is prepared for ``perturb`` once, with the events a
    graded trial reads (``_graded``): each trial is built and scored from
    those alone. Every noise block is still drawn whole, and the dropped
    events are ones no task reads, so the table is the one the whole
    corrupted copies give, bit for bit; ``perturb`` called on its own
    still returns the whole copy."""
    if trials < MIN_TRIALS:
        raise ValueError("trials below minimum")
    if len(magnitudes) == 0:
        raise ValueError("need at least one magnitude")
    if any(b <= a for a, b in zip(magnitudes, magnitudes[1:])):
        raise ValueError("magnitudes must be strictly increasing")

    refs = build_reference_set(net, [(reference, 1.0)], trajectory)
    config = EngineConfig(net, refs, trajectory=trajectory)
    prepared = _Prepared(reference, _graded(config, reference))
    unperturbed: float | None = None
    rows: list[MonotonicityRow] = []
    for mi, magnitude in enumerate(magnitudes):
        deltas = []
        for trial in range(trials):
            child = np.random.SeedSequence(entropy=[seed, mi, trial])
            child_seed = int(child.generate_state(1)[0])
            rec = perturb(reference, spec_for_magnitude(magnitude, child_seed),
                          prepared)
            if rec is not reference:
                deltas.append(_session_delta(config, rec))
                continue
            if unperturbed is None:
                unperturbed = _session_delta(config, rec)
            deltas.append(unperturbed)
        arr = np.asarray(deltas)
        rows.append(MonotonicityRow(magnitude=float(magnitude),
                                    mean_delta=float(arr.mean()),
                                    std_delta=float(arr.std()),
                                    trials=trials))
    return rows


class _Taken:
    """Stands in for a track builder in the routing pass: the ids of the
    events a window's reducer takes."""

    def __init__(self):
        self.ids: set[int] = set()

    def add(self, event: Event) -> None:
        self.ids.add(id(event))


def _graded(config: EngineConfig, rec: SessionRecording) -> list[int]:
    """Indices of the events a graded trial of rec keeps: each pose or
    frame that an open window's reducer takes, cut and routed by the rule
    a Session grades by; every other event, since the drop, text and
    collision draws index them; and the first and last event that is not
    an Attach. Drops remove only attach events, so a trial of the kept
    events starts and ends when the whole one does, which a Session reads
    as its first time and duration and collision injection as its span."""
    taken = _Taken()

    def open_window(node, t0):
        return dict.fromkeys(node.users.user_ids, (task_samples(node, t0), taken))

    events = rec.events
    for _ in _cut(config.primitives, events, open_window):
        pass
    spans = [i for i, e in enumerate(events) if type(e.payload) is not Attach]
    ends = {spans[0], spans[-1]} if spans else set()
    return [i for i, e in enumerate(events)
            if id(e) in taken.ids or i in ends
            or type(e.payload) not in (Pose, SkeletonFrame)]


def _session_delta(config: EngineConfig, rec: SessionRecording) -> float:
    """The mean delta over the weighted scopes of rec's report."""
    report = score_recording(config, rec)
    scoped = [s.delta for s in report.scopes if s.delta is not None]
    if not scoped:
        raise ValueError("no weighted scope in report")
    return sum(scoped) / len(scoped)


def format_monotonicity(rows: Sequence[MonotonicityRow]) -> str:
    lines = [f"{'magnitude':>10}  {'mean-delta':>10}  {'std':>10}  {'trials':>6}"]
    for r in rows:
        lines.append(f"{r.magnitude:>10.4f}  {r.mean_delta:>10.6f}  "
                     f"{r.std_delta:>10.6f}  {r.trials:>6d}")
    return "\n".join(lines) + "\n"


def monotonicity_csv(rows: Sequence[MonotonicityRow]) -> str:
    lines = ["magnitude,mean_delta,std_delta,trials"]
    for r in rows:
        lines.append(f"{r.magnitude!r},{r.mean_delta!r},{r.std_delta!r},{r.trials}")
    return "\n".join(lines) + "\n"
