"""Deterministic synthetic recordings for the bundled exercises.

The package ships task definitions but no captured motion data; these
generators produce well-formed reference sessions from fixed keyframes
instead. Every coordinate is pure float math over constants, so repeated
calls return byte-identical recordings, which the self-scoring and
mode-equivalence tests rely on.

Run ``python -m ahtn.fixtures OUTDIR`` to write the demo networks and
recordings as plain files for use with the command line tool.
"""

from __future__ import annotations

import os
import sys
from importlib import resources
from typing import Sequence

import numpy as np

from .model import TaskNetwork, parse_network
from .telemetry import (Attach, Event, Pose, SessionRecording, SkeletonFrame,
                        TaskMark, TextInput, parse_session,
                        serialize_recording)

__all__ = [
    "load_bundled_network", "hydrometer_network", "collaborative_network",
    "hydrometer_reference", "collaborative_reference",
    "throughput_network", "throughput_session", "write_demo_files",
]

# identity and a 30 degree wrist roll, both unit quaternions (qx qy qz qw)
IDENT = (0.0, 0.0, 0.0, 1.0)
GRIP = (0.0, 0.0, 0.25881904510252074, 0.9659258262890683)


def load_bundled_network(name: str) -> TaskNetwork:
    """Parse one of the task definitions shipped in ahtn/data."""
    text = (resources.files("ahtn") / "data" / f"{name}.ahtn").read_text("utf-8")
    return parse_network(text)


def hydrometer_network() -> TaskNetwork:
    return load_bundled_network("hydrometer")


def collaborative_network() -> TaskNetwork:
    return load_bundled_network("collaborative")


# ---------------------------------------------------------------------------
# keyframe tracks

Key = tuple[float, tuple[float, float, float]]


def _interp(keys: Sequence[Key], t: float) -> np.ndarray:
    """Clamped piecewise smoothstep between position keyframes."""
    if t <= keys[0][0]:
        return np.asarray(keys[0][1], dtype=np.float64)
    for (t0, p0), (t1, p1) in zip(keys, keys[1:]):
        if t <= t1:
            u = (t - t0) / (t1 - t0)
            u = u * u * (3.0 - 2.0 * u)
            a = np.asarray(p0, dtype=np.float64)
            b = np.asarray(p1, dtype=np.float64)
            return (1.0 - u) * a + u * b
    return np.asarray(keys[-1][1], dtype=np.float64)


# sort ranks for events sharing a timestamp: starts open before the data
# they cover arrives, ends close after it
_START, _ATTACH, _POSE, _SKEL, _TEXT, _END = 0, 1, 2, 3, 4, 9


class _Recorder:
    def __init__(self) -> None:
        self._rows: list[tuple[float, int, int, Event]] = []

    def add(self, t: float, user: str, payload, rank: int) -> None:
        t = float(t)
        self._rows.append((t, rank, len(self._rows),
                           Event(t=t, user=user, payload=payload)))

    def mark_span(self, user: str, task_id: str, t0: float, t1: float) -> None:
        self.add(t0, user, TaskMark(task_id, "start"), _START)
        self.add(t1, user, TaskMark(task_id, "end"), _END)

    def skel(self, t: float, user: str, names: tuple[str, ...],
             tracks: dict[str, Sequence[Key]]) -> None:
        pos = np.vstack([_interp(tracks[n], t) for n in names])
        self.add(t, user, SkeletonFrame(names=names, positions=pos), _SKEL)

    def pose(self, t: float, user: str, obj: str, position,
             orientation=IDENT) -> None:
        p = tuple(float(v) for v in position)
        self.add(t, user, Pose(obj, p, orientation), _POSE)

    def recording(self, session_id: str) -> SessionRecording:
        self._rows.sort(key=lambda r: (r[0], r[1], r[2]))
        rec = SessionRecording(session_id=session_id,
                               events=tuple(r[3] for r in self._rows))
        # round-trip through the wire format so fixtures carry exactly what
        # a parsed file would, and get its validation free
        return parse_session(serialize_recording(rec), session_id)


# ---------------------------------------------------------------------------
# density measurement exercise

_STUDENT_JOINTS = ("head", "neck", "shoulder-left", "shoulder-right",
                   "spine-base", "hand-left", "hand-right")


def _hydrometer_tracks() -> dict[str, Sequence[Key]]:
    # shoulders: left at +x, right at -x, so the body faces +z
    return {
        "head": [(0.0, (0.0, 1.7, 0.0)), (15.0, (0.0, 1.7, 0.0)),
                 (17.0, (0.15, 1.32, 0.22)), (19.0, (0.15, 1.32, 0.22)),
                 (21.0, (0.02, 1.66, 0.04)), (26.0, (0.0, 1.7, 0.0))],
        "neck": [(0.0, (0.0, 1.55, 0.0))],
        "shoulder-left": [(0.0, (0.2, 1.5, 0.0))],
        "shoulder-right": [(0.0, (-0.2, 1.5, 0.0))],
        "spine-base": [(0.0, (0.0, 1.0, 0.0))],
        "hand-left": [(0.0, (-0.25, 1.05, 0.05))],
        "hand-right": [(0.0, (0.25, 1.05, 0.1)), (1.5, (0.25, 1.05, 0.1)),
                       (4.0, (0.38, 1.1, 0.24)), (7.0, (0.45, 1.12, 0.35)),
                       (9.0, (0.45, 1.12, 0.35)), (11.5, (0.36, 1.2, 0.42)),
                       (14.0, (0.3, 1.18, 0.45)), (16.0, (0.3, 1.12, 0.4)),
                       (20.0, (0.28, 1.1, 0.38)), (23.0, (0.16, 1.05, 0.26)),
                       (26.0, (0.16, 1.05, 0.26))],
    }


def _hydrometer_pos(tracks: dict[str, Sequence[Key]], t: float) -> np.ndarray:
    shelf = np.array((0.45, 1.12, 0.35))
    if t < 9.0:
        return shelf
    if t <= 14.0:  # carried: rides 5 cm above the grip
        return _interp(tracks["hand-right"], t) + np.array((0.0, 0.05, 0.0))
    return np.array((0.3, 1.23, 0.45))


def hydrometer_reference(session_id: str = "hydrometer-ref") -> SessionRecording:
    """A clean single-student run of the density measurement exercise.

    Timeline: T1 pick-up 0.5..8, T2 immersion 9..14 with the attach pair
    exactly on the marks, T3 meniscus read 15..20, T4 data entry 21..25,
    trailing frames to 26 s. Skeleton and hand device stream at 30 Hz.
    """
    rec = _Recorder()
    user = "student"
    tracks = _hydrometer_tracks()
    rate = 30
    for k in range(26 * rate + 1):
        t = k / rate
        rec.skel(t, user, _STUDENT_JOINTS, tracks)
        rec.pose(t, user, "hand", _interp(tracks["hand-right"], t), GRIP)
        rec.pose(t, user, "hydrometer", _hydrometer_pos(tracks, t))
    for s in range(27):
        rec.pose(float(s), user, "cylinder", (0.3, 1.0, 0.5))

    rec.mark_span(user, "T1", 0.5, 8.0)
    rec.mark_span(user, "T2", 9.0, 14.0)
    rec.mark_span(user, "T3", 15.0, 20.0)
    rec.mark_span(user, "T4", 21.0, 25.0)
    rec.add(9.0, user, Attach("hydrometer", "hand", True), _ATTACH)
    rec.add(14.0, user, Attach("hydrometer", "hand", False), _ATTACH)
    rec.add(23.0, user, TextInput("measured-value", "1.257"), _TEXT)
    return rec.recording(session_id)


# ---------------------------------------------------------------------------
# two-person calibration drill

def _calibration_student_tracks() -> dict[str, Sequence[Key]]:
    return {
        "head": [(0.0, (0.0, 1.7, 0.3)), (4.5, (0.0, 1.7, 0.3)),
                 (6.0, (-0.28, 1.45, 0.42)), (8.0, (-0.28, 1.45, 0.42)),
                 (10.0, (0.0, 1.7, 0.3)), (13.0, (0.1, 1.7, 0.3)),
                 (14.5, (0.28, 1.45, 0.42)), (16.5, (0.28, 1.45, 0.42)),
                 (17.5, (0.0, 1.7, 0.3)), (24.5, (0.0, 1.7, 0.3))],
        "neck": [(0.0, (0.0, 1.55, 0.3))],
        "shoulder-left": [(0.0, (0.2, 1.5, 0.3))],
        "shoulder-right": [(0.0, (-0.2, 1.5, 0.3))],
        "spine-base": [(0.0, (0.0, 1.0, 0.3))],
        "hand-left": [(0.0, (-0.25, 1.05, 0.35))],
        "hand-right": [(0.0, (0.25, 1.05, 0.35)), (17.5, (0.25, 1.05, 0.35)),
                       (19.0, (0.1, 1.25, 0.5)), (21.0, (-0.05, 1.3, 0.55)),
                       (23.0, (0.0, 1.15, 0.55)), (24.5, (0.0, 1.15, 0.55))],
    }


_INSTRUCTOR_JOINTS = ("head", "neck", "shoulder-left", "shoulder-right",
                      "hand-right")


def _calibration_instructor_tracks() -> dict[str, Sequence[Key]]:
    return {
        "head": [(0.0, (-0.9, 1.75, 0.6))],
        "neck": [(0.0, (-0.9, 1.6, 0.6))],
        "shoulder-left": [(0.0, (-0.7, 1.55, 0.6))],
        "shoulder-right": [(0.0, (-1.1, 1.55, 0.6))],
        "hand-right": [(0.0, (-1.0, 1.1, 0.7)), (0.5, (-1.0, 1.1, 0.7)),
                       (3.0, (-0.5, 1.05, 0.55)), (9.0, (-0.5, 1.05, 0.55)),
                       (11.5, (0.3, 1.05, 0.55)), (24.5, (0.3, 1.05, 0.55))],
    }


def collaborative_reference(session_id: str = "calibration-ref") -> SessionRecording:
    """A clean instructor + student run of the calibration drill.

    The instructor stages cylinder A (C1) and cylinder B (C3); the student
    reads both levels (C2, C4) and pours into the beaker (C5). Object pose
    streams are emitted by the user whose task assesses them, so scope
    routing keeps them visible to the right evaluation.
    """
    rec = _Recorder()
    instructor, student = "instructor", "student"
    s_tracks = _calibration_student_tracks()
    i_tracks = _calibration_instructor_tracks()
    cyl_a: list[Key] = [(0.0, (-0.6, 1.0, 0.2)), (0.5, (-0.6, 1.0, 0.2)),
                        (3.0, (-0.4, 1.0, 0.5)), (24.5, (-0.4, 1.0, 0.5))]
    cyl_b: list[Key] = [(0.0, (0.6, 1.0, 0.2)), (9.0, (0.6, 1.0, 0.2)),
                        (11.5, (0.4, 1.0, 0.5)), (24.5, (0.4, 1.0, 0.5))]

    rate = 30
    for k in range(int(24.5 * rate) + 1):
        t = k / rate
        rec.skel(t, student, _STUDENT_JOINTS, s_tracks)
        rec.pose(t, student, "hand", _interp(s_tracks["hand-right"], t), GRIP)
        rec.pose(t, instructor, "cylinder-a", _interp(cyl_a, t))
        rec.pose(t, instructor, "cylinder-b", _interp(cyl_b, t))
        if k % 3 == 0:  # instructor skeleton at 10 Hz, nothing consumes it
            rec.skel(t, instructor, _INSTRUCTOR_JOINTS, i_tracks)
    for s in range(25):
        rec.pose(float(s), student, "beaker", (0.0, 1.0, 0.6))

    rec.mark_span(instructor, "C1", 0.5, 3.5)
    rec.mark_span(student, "C2", 4.5, 8.0)
    rec.mark_span(instructor, "C3", 9.0, 12.0)
    rec.mark_span(student, "C4", 13.0, 16.5)
    rec.mark_span(student, "C5", 17.5, 23.5)
    rec.add(7.0, student, TextInput("level-a", "50.0"), _TEXT)
    rec.add(16.0, student, TextInput("level-b", "36.5"), _TEXT)
    return rec.recording(session_id)


# ---------------------------------------------------------------------------
# load fixture: one long single-user session for throughput measurement

_LOAD_NET = """\
task load
  kind abstract
  name Endurance drill
  child L1
  child L2
  child L3
  child L4
end

task L1
  kind primitive
  name Track the marker
  user single runner
  weight 0.25
  objects obj-0 head hand-right
  assess both
  check position subject=obj-0
  feedback realtime
end

task L2
  kind primitive
  name Hold the spacing
  pred L1
  user single runner
  weight 0.25
  objects obj-1 obj-2
  assess task-level
  check position subject=obj-1
  check collision subject=obj-1 ref=obj-2
  feedback realtime
end

task L3
  kind primitive
  name Sweep the field
  pred L2
  user single runner
  weight 0.25
  objects obj-3 head hand-right
  assess both
  check position subject=obj-3
  feedback realtime
end

task L4
  kind primitive
  name Log the count
  pred L3
  user single runner
  weight 0.25
  objects field-0 obj-4
  assess task-level
  check text-input subject=field-0
  check position subject=obj-4
  feedback realtime
end
"""

_LOAD_BASE = {
    "neck": (0.0, 1.55, 0.3), "spine-base": (0.0, 1.0, 0.3),
    "spine-mid": (0.0, 1.25, 0.3), "head-forward": (0.0, 1.7, 0.45),
    "shoulder-left": (0.2, 1.5, 0.3), "shoulder-right": (-0.2, 1.5, 0.3),
    "elbow-left": (0.3, 1.3, 0.3), "elbow-right": (-0.3, 1.3, 0.3),
    "wrist-left": (0.28, 1.1, 0.32), "wrist-right": (-0.28, 1.1, 0.32),
    "hand-left": (0.26, 1.05, 0.34), "hip-left": (0.12, 1.0, 0.3),
    "hip-right": (-0.12, 1.0, 0.3), "knee-left": (0.12, 0.55, 0.3),
    "knee-right": (-0.12, 0.55, 0.3), "foot-left": (0.12, 0.05, 0.35),
    "foot-right": (-0.12, 0.05, 0.35),
}


def throughput_network() -> TaskNetwork:
    return parse_network(_LOAD_NET)


def throughput_session(duration: float = 600.0, rate: float = 30.0,
                       n_objects: int = 5,
                       session_id: str = "load") -> SessionRecording:
    """A long 25-joint single-user session, roughly 40k events at the
    defaults: 30 Hz skeleton plus five object pose streams at 7.5 Hz."""
    rec = _Recorder()
    user = "runner"
    extras = tuple(f"finger-{i}-right" for i in range(1, 7))
    names = ("head", "hand-right") + tuple(_LOAD_BASE) + extras
    base = np.zeros((len(names), 3))
    for i, n in enumerate(names):
        if n in _LOAD_BASE:
            base[i] = _LOAD_BASE[n]
    for i, n in enumerate(extras):
        base[names.index(n)] = (-0.3 - 0.01 * i, 1.02, 0.36)
    head_i, hand_i = 0, 1

    two_pi = 2.0 * np.pi
    n_frames = int(duration * rate)
    for k in range(n_frames + 1):
        t = k / rate
        pos = base.copy()
        pos[head_i] = (0.1 * np.sin(two_pi * t / 40.0), 1.7,
                       0.3 + 0.05 * np.cos(two_pi * t / 40.0))
        hand = (0.25 + 0.15 * np.sin(two_pi * t / 8.0),
                1.1 + 0.1 * np.sin(two_pi * t / 5.0),
                0.3 + 0.15 * np.cos(two_pi * t / 8.0))
        pos[hand_i] = hand
        rec.add(t, user, SkeletonFrame(names=names, positions=pos), _SKEL)
        if k % 4 == 0:
            rec.pose(t, user, "obj-0", (hand[0], hand[1] + 0.05, hand[2]))
            for j in range(1, n_objects):
                angle = two_pi * t / (60.0 + 10.0 * j)
                rec.pose(t, user, f"obj-{j}",
                         (0.5 * np.cos(angle) - 0.5 + j * 0.25, 1.0,
                          0.5 + 0.2 * np.sin(angle)))
    spans = [("L1", 0.002, 0.25), ("L2", 0.252, 0.5),
             ("L3", 0.502, 0.75), ("L4", 0.752, 0.998)]
    for task_id, a, b in spans:
        rec.mark_span(user, task_id, a * duration, b * duration)
    rec.add(0.9 * duration, user, TextInput("field-0", "42"), _TEXT)
    return rec.recording(session_id)


# ---------------------------------------------------------------------------
# demo file writer

def write_demo_files(out_dir: str) -> list[str]:
    """Write the bundled networks and their synthetic reference recordings
    as plain files. Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, net_loader, rec_fn in (
            ("hydrometer", hydrometer_network, hydrometer_reference),
            ("collaborative", collaborative_network, collaborative_reference)):
        net_path = os.path.join(out_dir, f"{name}.ahtn")
        src = (resources.files("ahtn") / "data" / f"{name}.ahtn").read_text("utf-8")
        with open(net_path, "w", encoding="utf-8") as fh:
            fh.write(src)
        written.append(net_path)
        rec_path = os.path.join(out_dir, f"{name}.rec")
        with open(rec_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_recording(rec_fn()))
        written.append(rec_path)
        net_loader()  # parse once so a broken bundle fails loudly here
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "."
    for path in write_demo_files(target):
        print(path)
