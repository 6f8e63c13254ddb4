"""Session recordings: event model, line parser, serializer, references.

Recording format (UTF-8, one event per line, space separated)::

    t=<sec> u=<user> pose <obj> px py pz qx qy qz qw
    t=<sec> u=<user> attach <obj> <target> on|off
    t=<sec> u=<user> collide <obj> <other>
    t=<sec> u=<user> text <field> "<value>"
    t=<sec> u=<user> skel <joint>=x,y,z[;<joint>=x,y,z...]
    t=<sec> u=<user> mark <task> start|end

A line ends at ``\\n`` alone. A ``\\r`` before it is stripped with the
other surrounding whitespace; the other line breaks of ``str.splitlines``
(a ``\\r`` elsewhere, ``\\x1c``, ``\\x85``, ``\\u2028``, ...) are part of
the line. The CLI reads recording files and standard input as UTF-8,
whatever the locale says. Timestamps must be non-decreasing; quaternions
are written normalized (scalar-last, checked to 1e-6 here). Every number
must be finite: ``nan`` and ``inf`` are rejected with the line number.
Joint names are stripped of surrounding whitespace, must be non-empty,
hold no ``,`` ``=`` or ``;`` and appear once per frame. A frame's joint
layout is validated once and then shared: every frame with the same names
holds the same names tuple. Blank lines and ``#`` comments are skipped.

Readers. ``parse_event_line`` is the reference grammar of one line. Two
readers turn lines into events, and both apply the stream checks (time
order, mark pairs) in one loop, ``_checked``:

- ``iter_events(lines)``, the batch reader, takes ``PARSE_BLOCK_LINES``
  lines at a time from any iterable of lines, such as ``recording_lines``
  of an open binary file, so a recording is never held whole. The numbers of all skel and pose lines
  of a block, per kind and joint count, go through one ``np.loadtxt``
  call, and the frames of a block are rows of one array. A block that
  fails anywhere is parsed again line by line, so errors keep their
  message and first bad line. A start mark still open at the end raises.
  ``parse_session(text)`` is ``iter_events`` over a whole text.
- ``read_events(lines)``, the live reader, parses line by line, so each
  event is yielded as soon as its line is read. A stream may end with a
  task open; the engine reports that task as unfinished.

Which events belong to a task is one rule, in stream order: those after
its start mark and before its end mark, so events that share a mark's
timestamp fall on the side of the mark where they were written. Of
those, a task keeps a scope member's events that one
``checks.TaskSamples.add`` takes. ``engine.Session`` applies the rule as
a live stream arrives, and ``engine.build_reference_set`` routes each
reference recording's events the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

import numpy as np

from .model import check_known, check_setting

if TYPE_CHECKING:
    from .trajectory import ReferenceTrack

QUAT_NORM_TOL = 1e-6
LAYOUT_CACHE_SIZE = 256  # distinct joint layouts kept by _joint_layout
PARSE_BLOCK_LINES = 2048  # lines per bulk conversion; bounds its transient memory


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

    def __post_init__(self):
        check_known(self.edge, ("start", "end"), "mark edge")


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
    same joint layout shares; a frame built with that tuple skips the
    validation, not the dtype and shape checks.
    """

    names: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self):
        # a layout seen before is looked up once, and the shared tuple
        # itself is its own entry
        names = _layouts.get(self.names) if type(self.names) is tuple else None
        if names is None:
            names = _joint_layout(self.names)
        if names is not self.names:
            object.__setattr__(self, "names", names)
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.shape != (len(names), 3):
            raise ValueError("positions must be shaped (len(names), 3)")
        if pos is not self.positions:
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


@dataclass(frozen=True, slots=True)
class Event:
    t: float
    user: str
    payload: Payload


@dataclass(frozen=True)
class SessionRecording:
    """A recording held whole; it iterates its events, so it goes where
    the engine takes a stream of events."""

    session_id: str
    events: tuple[Event, ...]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


@dataclass(frozen=True, eq=False)
class Reference:
    """One reference performance of one task, held as what grading reads:
    its SME quality rating, the check ``features`` keyed by (check kind,
    subject) and, for trajectory tasks, the ``track``: key frames and the
    performer's skeleton statistics. ``error`` says why the track could
    not be built. ``engine.build_reference_set`` makes them.
    """

    quality: float
    features: dict
    track: ReferenceTrack | None = None
    error: str | None = None

    def __post_init__(self):
        check_setting("in [0, 1]", self.quality, "reference quality")


ReferenceSet = dict[str, list[Reference]]  # references per task id


# ---------------------------------------------------------------------------
# line parsing

# every byte except the skeleton separators; deleting them leaves a frame's
# separator sequence, b"=,,;" per joint less the final ";"
_NOT_SKEL_SEPARATOR = bytes(b for b in range(256) if b not in b",;=")
# the same for the bulk path, which also keeps \x1c to \x1f so that a line
# holding one never matches a separator pattern (see _convert_block)
_NOT_BULK_SKEL_SEPARATOR = _NOT_SKEL_SEPARATOR.translate(None, b"\x1c\x1d\x1e\x1f")


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
        try:
            task_id, edge = rest.split()
            payload = TaskMark(task_id=task_id, edge=edge)
        except ValueError:
            raise RecordingError("mark needs <task> start|end", lineno) from None
    else:
        raise RecordingError(f"unknown event kind {kind!r}", lineno)

    return Event(t=t, user=user, payload=payload)


def parse_session(text: str, session_id: str = "session") -> SessionRecording:
    """Parse a whole recording with ``iter_events``; its lines end at
    ``\\n`` alone."""
    return SessionRecording(session_id, tuple(iter_events(text.split("\n"))))


def recording_lines(fh: BinaryIO) -> Iterator[str]:
    """A binary file's lines as the format defines them: split at ``\\n``
    alone and decoded as UTF-8, whatever the locale or the platform's line
    ends, so files and standard input give the same lines. A ``\\n`` byte
    never occurs inside a UTF-8 sequence, so each line decodes on its own,
    and one that is not UTF-8 raises with its line number."""
    for lineno, raw in enumerate(fh, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise RecordingError(str(err), lineno) from None


def iter_events(lines: Iterable[str]) -> Iterator[Event]:
    """The batch reader: a recording's events from any iterable of lines,
    converted ``PARSE_BLOCK_LINES`` lines at a time. A block is first
    converted in bulk (``_convert_block``); if that meets anything it does
    not accept, the block is parsed again line by line, whose events and
    errors are the result. The stream checks of ``_checked`` follow, and a
    start mark still open at the end raises with its line."""
    return _checked(_blocks(iter(lines)), closed_at_end=True)


def read_events(lines: Iterable[str]) -> Iterator[Event]:
    """The live reader: ``parse_event_line`` and the stream checks of
    ``_checked``, line by line, so each event is yielded as soon as its
    line is read. A task may still be open at the end."""
    return _checked([_parse_lines(lines, 1)], closed_at_end=False)


def _blocks(lines: Iterator[str]) -> Iterator[Iterable[tuple[int, Event]]]:
    """The (line number, event) pairs of each block of lines: all of them
    from ``_convert_block``, or, when it refuses the block, the per-line
    parse's."""
    lineno = 1
    while block := list(islice(lines, PARSE_BLOCK_LINES)):
        try:
            yield _convert_block(block, lineno)
        except ValueError:
            yield _parse_lines(block, lineno)
        lineno += len(block)


def _parse_lines(lines: Iterable[str], lineno: int) -> Iterator[tuple[int, Event]]:
    """The per-line reference parse: (line number, event) pairs, numbered
    from ``lineno``; blank lines and ``#`` comments are skipped."""
    for lineno, raw in enumerate(lines, lineno):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, parse_event_line(line, lineno)


def _checked(blocks: Iterable[Iterable[tuple[int, Event]]],
             closed_at_end: bool) -> Iterator[Event]:
    """The stream checks every reader applies, in line order, to blocks of
    (line number, event) pairs: a timestamp regression and a nested or
    unopened mark raise with their line, and so, when ``closed_at_end``,
    does a start mark still open at the end."""
    last_t = -math.inf
    open_marks: dict[str, int] = {}  # task id -> line of its open start mark
    for pairs in blocks:
        for lineno, event in pairs:
            if event.t < last_t:
                raise RecordingError(
                    f"timestamp regression: {event.t} after {last_t}", lineno)
            last_t = event.t
            if type(event.payload) is TaskMark:
                _track_mark(event.payload, lineno, open_marks)
            yield event
    if closed_at_end and open_marks:
        task_id, lineno = next(iter(open_marks.items()))
        raise RecordingError(f"unmatched start mark for task {task_id!r}", lineno)


def _track_mark(mark: TaskMark, lineno: int, open_marks: dict[str, int]) -> None:
    """Open or close a task's mark pair; nested and unopened marks raise."""
    task_id = mark.task_id
    if mark.edge == "start":
        if task_id in open_marks:
            raise RecordingError(f"nested start mark for task {task_id!r}", lineno)
        open_marks[task_id] = lineno
    elif open_marks.pop(task_id, None) is None:
        raise RecordingError(f"end mark without start for task {task_id!r}", lineno)


def _convert_block(lines: list[str], lineno: int) -> Iterable[tuple[int, Event]]:
    """Bulk form of the per-line parse, numbering lines from ``lineno``,
    with the same (line number, event) pairs for every block it accepts;
    it raises ValueError on anything else, and the caller then parses the
    block line by line. It holds no stream state: the stream checks follow
    in ``_checked``.

    Pass 1 splits each line into its t=, u= and kind fields. Mark, attach,
    collide and text lines go through ``parse_event_line``; skel and pose
    lines are held back, with their separator pattern and joint names
    checked against the last layout seen. Then the numbers of all
    held-back lines of one kind and joint count go through one
    ``np.loadtxt`` call. ``loadtxt`` reads numbers as ``float()`` does, but
    rejects some that ``float()`` takes (``1_0``, non-ASCII digits, a
    ``\\r``), so those lines fall back; \\x1c to \\x1f, which ``loadtxt``
    strips around a number and ``float()`` does not, never reach it.
    Finiteness and the quaternion norm are checked on the whole array, with
    the IEEE operations of the per-line check. Each frame's positions are
    its (J, 3) rows of the block array."""
    linenos, events = [], []  # each content line's number and event
    held_poses: list[tuple] = []  # (event slot, t, user, object id)
    pose_numbers: list[str] = []
    held_frames: dict[int, tuple[list[tuple], list[str]]] = {}  # J -> frames, rows
    prefixes: tuple[str, ...] = ()
    startswith = str.startswith
    for lineno, raw in enumerate(lines, lineno):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(None, 3)
        kind = parts[2] if len(parts) == 4 else None
        linenos.append(lineno)
        if kind != "skel" and kind != "pose":
            events.append(parse_event_line(line, lineno))
            continue
        t_text, user, _, rest = parts
        if t_text[:2] != "t=" or user[:2] != "u=" or len(user) == 2:
            raise ValueError("bad t= or u= field")
        t = float(t_text[2:])
        if not 0.0 <= t < math.inf:
            raise ValueError("timestamp out of range")
        held = (len(events), t, user[2:])
        events.append(None)  # filled once the block's numbers are converted
        if kind == "pose":
            obj, numbers = rest.split(None, 1)
            held_poses.append((*held, obj))
            pose_numbers.append(numbers)
            continue
        pieces = rest.split(";")
        if len(pieces) != len(prefixes) or not all(map(startswith, pieces, prefixes)):
            names = tuple(piece.partition("=")[0] for piece in pieces)
            layout = _joint_layout(names)
            prefixes = tuple(name + "=" for name in names)
            separators = (b"=,,;" * len(names))[:-1]
            frames, rows = held_frames.setdefault(len(names), ([], []))
        if rest.encode().translate(None, _NOT_BULK_SKEL_SEPARATOR) != separators:
            raise ValueError("skel separators")
        frames.append((*held, layout))
        rows.append(rest)

    if pose_numbers:
        numbers = np.loadtxt(pose_numbers, dtype=np.float64, comments=None,
                             ndmin=2)
        if numbers.shape[1] != 7 or not np.isfinite(numbers).all():
            raise ValueError("pose numbers")
        qx, qy, qz, qw = numbers[:, 3:].T
        norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
        if not (np.abs(norm - 1.0) <= QUAT_NORM_TOL).all():
            raise ValueError("quaternion norm")
        positions = zip(*numbers[:, :3].T.tolist())
        orientations = zip(*numbers[:, 3:].T.tolist())
        for (slot, t, user, obj), position, orientation in zip(
                held_poses, positions, orientations):
            events[slot] = Event(t, user, Pose(obj, position, orientation))
    for joints, (frames, rows) in held_frames.items():
        # with "=" and ";" read as ",", a row is name,x,y,z per joint
        numbers = np.loadtxt(
            [row.replace(";", ",").replace("=", ",") for row in rows],
            dtype=np.float64, delimiter=",",
            usecols=[c for c in range(4 * joints) if c % 4],
            comments=None, ndmin=2)
        if not np.isfinite(numbers).all():
            raise ValueError("skel numbers")
        for (slot, t, user, layout), positions in zip(
                frames, numbers.reshape(-1, joints, 3)):
            events[slot] = Event(t, user, SkeletonFrame(layout, positions))
    return zip(linenos, events)


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

