"""Session recordings: event model, line parser, task slicing, skeleton scaling.

Recording format (UTF-8, one event per line, space separated)::

    t=<sec> u=<user> pose <obj> px py pz qx qy qz qw
    t=<sec> u=<user> attach <obj> <target> on|off
    t=<sec> u=<user> collide <obj> <other>
    t=<sec> u=<user> text <field> "<value>"
    t=<sec> u=<user> skel <joint>=x,y,z[;<joint>=x,y,z...]
    t=<sec> u=<user> mark <task> start|end

Timestamps must be non-decreasing; quaternions are written normalized
(scalar-last, checked to 1e-6 here). Every number must be finite: ``nan``
and ``inf`` are rejected with the line number. Joint names are stripped of
surrounding whitespace, must be non-empty, hold no ``,`` ``=`` or ``;``
and appear once per frame. A frame's joint layout is validated once and
then shared: every frame with the same names holds the same names tuple.
Blank lines and ``#`` comments are skipped.

``reference_stats`` measures the reference performer's skeleton over a
task's first second; ``scale_frame`` applies the height-correction factor
that ``trajectory.ActionEvaluator`` derives from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kernels import scale_about

if TYPE_CHECKING:
    from .trajectory import ReferenceTrack

QUAT_NORM_TOL = 1e-6
LAYOUT_CACHE_SIZE = 256  # distinct joint layouts kept by _joint_layout
MIN_FACE_HAND_DISTANCE = 0.01  # m; below this the pose is degenerate

HAND_JOINTS = ("hand-right", "hand-left")


class RecordingError(ValueError):
    """Malformed recording line or stream-level invariant violation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True, slots=True)
class Pose:
    object_id: str
    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]  # qx, qy, qz, qw


@dataclass(frozen=True, slots=True)
class Attach:
    object_id: str
    target_id: str
    attached: bool


@dataclass(frozen=True, slots=True)
class Collision:
    object_id: str
    other_id: str


@dataclass(frozen=True, slots=True)
class TextInput:
    field_id: str
    value: str


@dataclass(frozen=True, slots=True)
class TaskMark:
    task_id: str
    edge: str  # start | end


# raw names tuple -> validated, stripped names tuple; a process-wide memo
# whose values depend only on their key, emptied when it reaches its bound
_layouts: dict[tuple[str, ...], tuple[str, ...]] = {}


def _joint_layout(names) -> tuple[str, ...]:
    """The shared names tuple of a joint layout, validated on first sight:
    names are stripped, non-empty, free of ``,`` ``=`` ``;`` and unique."""
    key = tuple(names)
    layout = _layouts.get(key)
    if layout is not None:
        return layout
    layout = tuple(name.strip() for name in key)
    for name in layout:
        if not name or "," in name or "=" in name or ";" in name:
            raise ValueError(f"bad joint name {name!r}: must be non-empty "
                             "and hold no ',', '=' or ';'")
    if len(set(layout)) != len(layout):
        raise ValueError("duplicate joint name in frame")
    layout = _layouts.get(layout, layout)
    if len(_layouts) >= LAYOUT_CACHE_SIZE - 1:
        _layouts.clear()
    _layouts[key] = _layouts[layout] = layout
    return layout


@dataclass(frozen=True, eq=False, slots=True)
class SkeletonFrame:
    """One tracked skeleton sample: joint names plus an (J, 3) position array.

    Positions are float64 meters.
    ``names`` is replaced by the validated tuple that every frame with the
    same joint layout shares.
    """

    names: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self):
        names = _joint_layout(self.names)
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.shape != (len(names), 3):
            raise ValueError("positions must be shaped (len(names), 3)")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "positions", pos)

    def __eq__(self, other):
        if not isinstance(other, SkeletonFrame):
            return NotImplemented
        if self.names != other.names:
            return False
        return np.array_equal(self.positions, other.positions)

    def has(self, joint: str) -> bool:
        return joint in self.names

    def index(self, joint: str) -> int:
        try:
            return self.names.index(joint)
        except ValueError:
            raise KeyError(f"frame has no joint {joint!r}") from None

    def position(self, joint: str) -> np.ndarray:
        return self.positions[self.index(joint)]


Payload = Pose | Attach | Collision | TextInput | SkeletonFrame | TaskMark


@dataclass(frozen=True, eq=False, slots=True)
class Event:
    t: float
    user: str
    payload: Payload

    def __eq__(self, other):
        if not isinstance(other, Event):
            return NotImplemented
        return (self.t == other.t and self.user == other.user
                and self.payload == other.payload)


@dataclass(frozen=True)
class SessionRecording:
    session_id: str
    user_ids: tuple[str, ...]
    events: tuple[Event, ...]


@dataclass(frozen=True)
class TaskSlice:
    task_id: str
    t0: float
    t1: float
    events: tuple[Event, ...]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class ReferenceStats:
    """Skeleton statistics of the reference performer for one task."""

    face_height: float
    face_hand_distance: float
    hand_joint: str = "hand-right"


@dataclass(frozen=True, eq=False)
class Reference:
    """One reference performance of one task, held as what grading reads:
    its SME quality rating, the check ``features`` keyed by (check kind,
    subject), the performer's skeleton ``stats`` and, for trajectory
    tasks, the key-frame ``track``. ``error`` says why the stats or the
    track could not be built. ``engine.build_reference`` makes one.
    """

    quality: float
    features: dict
    stats: ReferenceStats | None = None
    track: ReferenceTrack | None = None
    error: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError("reference quality must be in [0, 1]")


@dataclass
class ReferenceSet:
    """References grouped per task id."""

    by_task: dict[str, list[Reference]]


# ---------------------------------------------------------------------------
# line parsing

# every byte except the skeleton separators; deleting them leaves a frame's
# separator sequence, b"=,,;" per joint less the final ";"
_NOT_SKEL_SEPARATOR = bytes(b for b in range(256) if b not in b",;=")


def _parse_prefixed(token: str, prefix: str, lineno: int) -> str:
    if not token.startswith(prefix):
        raise RecordingError(f"expected {prefix}<value>, got {token!r}", lineno)
    return token[len(prefix):]


def _parse_floats(tokens: list[str], lineno: int) -> list[float]:
    try:
        values = list(map(float, tokens))
    except ValueError as err:
        raise RecordingError(f"not a number ({err})", lineno) from None
    # a finite sum proves every term finite; only a sum that overflowed or
    # met nan/inf needs the term-by-term test
    if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
        bad = next(v for v in values if not math.isfinite(v))
        raise RecordingError(f"non-finite number {bad!r}", lineno)
    return values


def _parse_skeleton(raw: str, lineno: int) -> SkeletonFrame:
    """``<joint>=x,y,z[;...]`` as one frame: the separator sequence is
    checked as a whole, then one split yields names and coordinates."""
    raw = raw.strip()
    joints = raw.count(";") + 1
    separators = raw.encode().translate(None, _NOT_SKEL_SEPARATOR)
    if separators + b";" != b"=,,;" * joints:
        if raw.count("=") != joints:
            raise RecordingError(
                "bad skel entry: want <joint>=x,y,z entries separated by ';'",
                lineno)
        raise RecordingError("every skel joint needs x,y,z", lineno)
    flat = raw.replace(";", ",").replace("=", ",").split(",")
    names = tuple(flat[::4])
    del flat[::4]
    positions = np.array(_parse_floats(flat, lineno))
    positions.shape = (joints, 3)
    try:
        return SkeletonFrame(names=names, positions=positions)
    except ValueError as e:
        raise RecordingError(str(e), lineno) from None


def parse_event_line(line: str, lineno: int = 0) -> Event:
    parts = line.split(None, 3)
    if len(parts) < 3:
        raise RecordingError("event needs t=, u= and a kind", lineno)
    t_text = _parse_prefixed(parts[0], "t=", lineno)
    user = _parse_prefixed(parts[1], "u=", lineno)
    try:
        t = float(t_text)
    except ValueError:
        raise RecordingError(f"bad timestamp {t_text!r}", lineno) from None
    if t < 0 or not math.isfinite(t):
        raise RecordingError(f"timestamp out of range: {t_text}", lineno)
    if not user:
        raise RecordingError("empty user id", lineno)
    kind = parts[2]
    rest = parts[3] if len(parts) == 4 else ""

    if kind == "skel":
        if not rest:
            raise RecordingError("skel needs joint=x,y,z entries", lineno)
        payload: Payload = _parse_skeleton(rest, lineno)
    elif kind == "pose":
        tokens = rest.split()
        if len(tokens) != 8:
            raise RecordingError("pose needs <obj> and 7 numbers", lineno)
        px, py, pz, qx, qy, qz, qw = _parse_floats(tokens[1:], lineno)
        norm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
        if abs(norm - 1.0) > QUAT_NORM_TOL:
            raise RecordingError(f"quaternion norm {norm:.9f} not within 1e-6 of 1", lineno)
        payload = Pose(object_id=tokens[0], position=(px, py, pz),
                       orientation=(qx, qy, qz, qw))
    elif kind == "attach":
        tokens = rest.split()
        if len(tokens) != 3 or tokens[2] not in ("on", "off"):
            raise RecordingError("attach needs <obj> <target> on|off", lineno)
        payload = Attach(object_id=tokens[0], target_id=tokens[1],
                         attached=tokens[2] == "on")
    elif kind == "collide":
        tokens = rest.split()
        if len(tokens) != 2:
            raise RecordingError("collide needs <obj> <other>", lineno)
        payload = Collision(object_id=tokens[0], other_id=tokens[1])
    elif kind == "text":
        tokens = rest.split(None, 1)
        if len(tokens) < 2:
            raise RecordingError('text needs <field> "<value>"', lineno)
        raw = tokens[1]
        if len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
            raise RecordingError("text value must be double-quoted", lineno)
        value = raw[1:-1]
        if '"' in value:
            raise RecordingError("text value must not contain quotes", lineno)
        payload = TextInput(field_id=tokens[0], value=value)
    elif kind == "mark":
        tokens = rest.split()
        if len(tokens) != 2 or tokens[1] not in ("start", "end"):
            raise RecordingError("mark needs <task> start|end", lineno)
        payload = TaskMark(task_id=tokens[0], edge=tokens[1])
    else:
        raise RecordingError(f"unknown event kind {kind!r}", lineno)

    return Event(t=t, user=user, payload=payload)


def parse_session(text: str, session_id: str = "session") -> SessionRecording:
    """Parse a full recording. Rejects (never sorts) timestamp regressions
    and unmatched or nested TaskMarks, reporting the offending line."""
    events: list[Event] = []
    users: list[str] = []
    seen_users: set[str] = set()
    open_marks: dict[str, int] = {}
    last_t = -math.inf

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        event = parse_event_line(line, lineno)
        if event.t < last_t:
            raise RecordingError(
                f"timestamp regression: {event.t} after {last_t}", lineno)
        last_t = event.t
        if event.user not in seen_users:
            seen_users.add(event.user)
            users.append(event.user)
        if isinstance(event.payload, TaskMark):
            task_id = event.payload.task_id
            if event.payload.edge == "start":
                if task_id in open_marks:
                    raise RecordingError(
                        f"nested start mark for task {task_id!r}", lineno)
                open_marks[task_id] = lineno
            else:
                if task_id not in open_marks:
                    raise RecordingError(
                        f"end mark without start for task {task_id!r}", lineno)
                del open_marks[task_id]
        events.append(event)

    if open_marks:
        task_id, lineno = next(iter(open_marks.items()))
        raise RecordingError(f"unmatched start mark for task {task_id!r}", lineno)

    return SessionRecording(session_id=session_id, user_ids=tuple(users),
                            events=tuple(events))


# ---------------------------------------------------------------------------
# serialization (used by the synthetic recorder and round-trip tests)

def _f(x: float) -> str:
    return repr(float(x))


def serialize_event(event: Event) -> str:
    head = f"t={_f(event.t)} u={event.user}"
    p = event.payload
    if isinstance(p, Pose):
        nums = " ".join(_f(v) for v in (*p.position, *p.orientation))
        return f"{head} pose {p.object_id} {nums}"
    if isinstance(p, Attach):
        state = "on" if p.attached else "off"
        return f"{head} attach {p.object_id} {p.target_id} {state}"
    if isinstance(p, Collision):
        return f"{head} collide {p.object_id} {p.other_id}"
    if isinstance(p, TextInput):
        return f'{head} text {p.field_id} "{p.value}"'
    if isinstance(p, SkeletonFrame):
        parts = ";".join(
            f"{n}={_f(x)},{_f(y)},{_f(z)}"
            for n, (x, y, z) in zip(p.names, p.positions))
        return f"{head} skel {parts}"
    if isinstance(p, TaskMark):
        return f"{head} mark {p.task_id} {p.edge}"
    raise TypeError(f"unknown payload {type(p).__name__}")


def serialize_recording(rec: SessionRecording) -> str:
    return "\n".join(serialize_event(e) for e in rec.events) + "\n"


# ---------------------------------------------------------------------------
# slicing

def slice_task(rec: SessionRecording, task_id: str) -> TaskSlice:
    """Cut the sub-stream between a task's start and end marks.

    Events with t in [t0, t1] are kept (closed interval); the task's own
    marks are not part of the slice.
    """
    marks = [e for e in rec.events
             if type(e.payload) is TaskMark and e.payload.task_id == task_id]
    starts = [e for e in marks if e.payload.edge == "start"]
    ends = [e for e in marks if e.payload.edge == "end"]
    if not starts or not ends:
        raise ValueError(f"no marks for task {task_id!r}")
    if len(starts) > 1 or len(ends) > 1:
        raise ValueError(f"multiple mark pairs for task {task_id!r}")
    t0, t1 = starts[0].t, ends[0].t
    if t1 <= t0:
        raise ValueError(f"task {task_id!r} marks are not a positive interval")
    kept = tuple(
        e for e in rec.events
        if t0 <= e.t <= t1
        and not (type(e.payload) is TaskMark and e.payload.task_id == task_id))
    return TaskSlice(task_id=task_id, t0=t0, t1=t1, events=kept)


def skeleton_frames(events, user: str | None = None) -> list[tuple[float, SkeletonFrame]]:
    """(t, frame) pairs for one user (or all users when user is None)."""
    return [(e.t, e.payload) for e in events
            if isinstance(e.payload, SkeletonFrame)
            and (user is None or e.user == user)]


# ---------------------------------------------------------------------------
# skeleton statistics and scaling

def scale_frame(frame: SkeletonFrame, factor: float) -> SkeletonFrame:
    """Scale all joints about the head position. factor 1 returns the
    input frame unchanged."""
    if factor == 1.0:
        return frame
    center = np.array(frame.position("head"), dtype=np.float64)
    scaled = scale_about(frame.positions, center, float(factor))
    return SkeletonFrame(names=frame.names, positions=scaled)


def reference_stats(slice_: TaskSlice, subject_object: str | None = None,
                    user: str | None = None) -> ReferenceStats:
    """Skeleton statistics over a slice's first second (median, robust to
    first-frame noise). The measured hand is the one nearer the assessed
    object at slice start, defaulting to the right hand."""
    frames = skeleton_frames(slice_.events, user)
    if not frames:
        raise ValueError(f"slice for {slice_.task_id!r} has no skeleton frames")
    first = frames[0][1]
    hand = _nearest_hand(slice_.events, first, subject_object)
    cutoff = slice_.t0 + 1.0
    window = [f for t, f in frames if t <= cutoff] or [first]
    heads = np.array([f.position("head") for f in window])
    hands = np.array([f.position(hand) for f in window])
    return ReferenceStats(
        face_height=float(np.median(heads[:, 1])),
        face_hand_distance=float(np.median(
            np.linalg.norm(heads - hands, axis=1))),
        hand_joint=hand,
    )


def _nearest_hand(events, frame: SkeletonFrame, subject_object: str | None) -> str:
    present = [h for h in HAND_JOINTS if frame.has(h)]
    if not present:
        raise ValueError("frame has no hand joint")
    if len(present) == 1 or subject_object is None:
        return present[0]
    target = None
    for e in events:
        if isinstance(e.payload, Pose) and e.payload.object_id == subject_object:
            target = np.asarray(e.payload.position)
            break
    if target is None:
        return present[0]
    return min(present, key=lambda h: float(np.linalg.norm(frame.position(h) - target)))
