"""Seeded benchmark inputs: task networks and recordings in the wire format.

Everything here is plain Python over ``random.Random(seed)`` and float
``repr``, so one seed gives byte-identical files on any CPython 3 and any
revision of the package. The package itself is never imported: its
fixture generator and serializer are free to change without moving the
inputs the benchmark measures.

Each ``*_inputs(seed)`` function returns ``{file name: text}``; ``run.py``
writes them to disk before any timing.
"""

from __future__ import annotations

import math
import random

# identity and a 30 degree wrist roll as wire-format quaternions (qx qy qz qw)
IDENT = (0.0, 0.0, 0.0, 1.0)
GRIP = (0.0, 0.0, 0.25881904510252074, 0.9659258262890683)

# sort ranks for lines sharing a timestamp: a start mark opens before the
# data it covers, an end mark closes after it
_START, _ATTACH, _POSE, _SKEL, _TEXT, _END = 0, 1, 2, 3, 4, 9


class _Lines:
    """Collects event lines and renders them in time order."""

    def __init__(self) -> None:
        self._rows: list[tuple[float, int, int, str]] = []

    def add(self, t: float, user: str, rank: int, body: str) -> None:
        self._rows.append((t, rank, len(self._rows), f"t={t!r} u={user} {body}"))

    def pose(self, t, user, obj, p, q=IDENT) -> None:
        self.add(t, user, _POSE, f"pose {obj} {p[0]!r} {p[1]!r} {p[2]!r} "
                                 f"{q[0]!r} {q[1]!r} {q[2]!r} {q[3]!r}")

    def skel(self, t, user, joints) -> None:
        body = ";".join(f"{n}={x!r},{y!r},{z!r}" for n, (x, y, z) in joints)
        self.add(t, user, _SKEL, "skel " + body)

    def span(self, user, task_id, t0, t1) -> None:
        self.add(t0, user, _START, f"mark {task_id} start")
        self.add(t1, user, _END, f"mark {task_id} end")

    def text(self) -> str:
        self._rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return "".join(r[3] + "\n" for r in self._rows)


class _Body:
    """Seeded performer: height scale about the floor plus per-sample jitter,
    reported at the 0.1 mm resolution of a motion-capture stream."""

    def __init__(self, rng: random.Random, scale_spread: float, jitter: float):
        self.rng = rng
        self.scale = 1.0 + scale_spread * (2.0 * rng.random() - 1.0)
        self.jitter = jitter

    def j(self, p):
        r, a = self.rng.random, self.jitter
        return (round(p[0] + a * (2.0 * r() - 1.0), 4),
                round(p[1] * self.scale + a * (2.0 * r() - 1.0), 4),
                round(p[2] + a * (2.0 * r() - 1.0), 4))


def _interp(keys, t: float):
    """Clamped piecewise smoothstep between (time, (x, y, z)) keyframes."""
    if t <= keys[0][0]:
        return keys[0][1]
    for (t0, p0), (t1, p1) in zip(keys, keys[1:]):
        if t <= t1:
            u = (t - t0) / (t1 - t0)
            u = u * u * (3.0 - 2.0 * u)
            return tuple((1.0 - u) * a + u * b for a, b in zip(p0, p1))
    return keys[-1][1]


def _tracks_at(tracks, names, t):
    return [(n, _interp(tracks[n], t)) for n in names]


# ---------------------------------------------------------------------------
# networks

THROUGHPUT_NET = """\
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

COLLABORATIVE_NET = """\
task calibration
  kind abstract
  name Calibration drill
  child C1
  child C2
  child C3
  child C4
  child C5
end

task C1
  kind primitive
  name Stage cylinder A
  user individual instructor
  weight 0.0
  objects cylinder-a
  assess task-level
  check position subject=cylinder-a
  feedback realtime
end

task C2
  kind primitive
  name Read level A
  pred C1
  user individual student
  weight 0.3
  objects level-a head
  assess task-level
  check text-input subject=level-a
  check position subject=head
  feedback realtime
end

task C3
  kind primitive
  name Stage cylinder B
  pred C2
  user individual instructor
  weight 0.0
  objects cylinder-b
  assess task-level
  check position subject=cylinder-b
  feedback realtime
end

task C4
  kind primitive
  name Read level B
  pred C3
  user individual student
  weight 0.3
  objects level-b head
  assess task-level
  check text-input subject=level-b
  check position subject=head
  feedback realtime
end

task C5
  kind primitive
  name Transfer to the beaker
  pred C4
  user individual student
  weight 0.4
  objects beaker hand head hand-right
  assess both
  check orientation subject=hand
  check position subject=beaker
  feedback realtime
end
"""

HYDROMETER_NET = """\
task hydrometer
  kind abstract
  name Density measurement
  child T1
  child T2
  child T3
  child T4
end

task T1
  kind primitive
  name Pick up the hydrometer
  user single student
  weight 0.3
  objects hydrometer hand head hand-right
  assess both
  check orientation subject=hand
  feedback final
end

task T2
  kind primitive
  name Lower it into the cylinder
  pred T1
  user single student
  weight 0.2
  objects hydrometer cylinder hand
  assess task-level
  check attachment subject=hydrometer ref=hand
  check collision subject=hydrometer ref=cylinder
  feedback final
  time 60
end

task T3
  kind primitive
  name Read the meniscus
  pred T2
  user single student
  weight 0.3
  objects cylinder head
  assess task-level
  check position subject=head
  feedback final
end

task T4
  kind primitive
  name Enter the measured value
  pred T3
  user single student
  weight 0.2
  output measured-value
  objects measured-value
  assess task-level
  check text-input subject=measured-value
  feedback final
end
"""


# ---------------------------------------------------------------------------
# score-long: one 600 s, 25-joint session of the throughput drill

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
_FINGERS = tuple((f"finger-{i}-right", (-0.3 - 0.01 * (i - 1), 1.02, 0.36))
                 for i in range(1, 7))


def _throughput_recording(rng: random.Random, duration: float = 600.0,
                          rate: float = 30.0, n_objects: int = 5) -> str:
    body = _Body(rng, scale_spread=0.05, jitter=0.002)
    phase = 0.3 * rng.random()  # seconds of lag against the drill's clock
    reach = 0.14 + 0.02 * rng.random()
    still = list(_LOAD_BASE.items()) + list(_FINGERS)
    out = _Lines()
    user = "runner"
    two_pi = 2.0 * math.pi
    for k in range(int(duration * rate) + 1):
        t = k / rate
        s = t - phase
        head = (0.1 * math.sin(two_pi * s / 40.0), 1.7,
                0.3 + 0.05 * math.cos(two_pi * s / 40.0))
        hand = (0.25 + reach * math.sin(two_pi * s / 8.0),
                1.1 + 0.1 * math.sin(two_pi * s / 5.0),
                0.3 + reach * math.cos(two_pi * s / 8.0))
        joints = [("head", body.j(head)), ("hand-right", body.j(hand))]
        joints.extend((n, body.j(p)) for n, p in still)
        out.skel(t, user, joints)
        if k % 4 == 0:
            out.pose(t, user, "obj-0", (hand[0], hand[1] + 0.05, hand[2]))
            for j in range(1, n_objects):
                angle = two_pi * s / (60.0 + 10.0 * j)
                out.pose(t, user, f"obj-{j}",
                         (0.5 * math.cos(angle) - 0.5 + j * 0.25, 1.0,
                          0.5 + 0.2 * math.sin(angle)))
    for task_id, a, b in (("L1", 0.002, 0.25), ("L2", 0.252, 0.5),
                          ("L3", 0.502, 0.75), ("L4", 0.752, 0.998)):
        out.span(user, task_id, a * duration, b * duration)
    out.add(0.9 * duration, user, _TEXT, f'text field-0 "{40 + rng.randrange(5)}"')
    return out.text()


def score_long_inputs(seed: int) -> dict[str, str]:
    rng = random.Random(f"score-long/{seed}")
    return {"throughput.ahtn": THROUGHPUT_NET,
            "reference.rec": _throughput_recording(random.Random(rng.getrandbits(64))),
            "session.rec": _throughput_recording(random.Random(rng.getrandbits(64)))}


# ---------------------------------------------------------------------------
# live-class: the two-user calibration drill, references and learners

_STUDENT_JOINTS = ("head", "neck", "shoulder-left", "shoulder-right",
                   "spine-base", "hand-left", "hand-right")
_INSTRUCTOR_JOINTS = ("head", "neck", "shoulder-left", "shoulder-right",
                      "hand-right")

_CAL_STUDENT = {
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
_CAL_INSTRUCTOR = {
    "head": [(0.0, (-0.9, 1.75, 0.6))],
    "neck": [(0.0, (-0.9, 1.6, 0.6))],
    "shoulder-left": [(0.0, (-0.7, 1.55, 0.6))],
    "shoulder-right": [(0.0, (-1.1, 1.55, 0.6))],
    "hand-right": [(0.0, (-1.0, 1.1, 0.7)), (0.5, (-1.0, 1.1, 0.7)),
                   (3.0, (-0.5, 1.05, 0.55)), (9.0, (-0.5, 1.05, 0.55)),
                   (11.5, (0.3, 1.05, 0.55)), (24.5, (0.3, 1.05, 0.55))],
}
_CYL_A = [(0.0, (-0.6, 1.0, 0.2)), (0.5, (-0.6, 1.0, 0.2)),
          (3.0, (-0.4, 1.0, 0.5)), (24.5, (-0.4, 1.0, 0.5))]
_CYL_B = [(0.0, (0.6, 1.0, 0.2)), (9.0, (0.6, 1.0, 0.2)),
          (11.5, (0.4, 1.0, 0.5)), (24.5, (0.4, 1.0, 0.5))]

LEARNERS = 24
REFERENCES = 16


def _collaborative_recording(rng: random.Random) -> str:
    student = _Body(rng, scale_spread=0.06, jitter=0.003)
    instructor = _Body(rng, scale_spread=0.06, jitter=0.003)
    level_a = 50.0 + round(0.4 * (2.0 * rng.random() - 1.0), 1)
    level_b = 36.5 + round(0.4 * (2.0 * rng.random() - 1.0), 1)
    out = _Lines()
    rate = 30
    for k in range(int(24.5 * rate) + 1):
        t = k / rate
        joints = [(n, student.j(p))
                  for n, p in _tracks_at(_CAL_STUDENT, _STUDENT_JOINTS, t)]
        out.skel(t, "student", joints)
        out.pose(t, "student", "hand",
                 student.j(_interp(_CAL_STUDENT["hand-right"], t)), GRIP)
        out.pose(t, "instructor", "cylinder-a", _interp(_CYL_A, t))
        out.pose(t, "instructor", "cylinder-b", _interp(_CYL_B, t))
        if k % 3 == 0:
            joints = [(n, instructor.j(p)) for n, p in
                      _tracks_at(_CAL_INSTRUCTOR, _INSTRUCTOR_JOINTS, t)]
            out.skel(t, "instructor", joints)
    for s in range(25):
        out.pose(float(s), "student", "beaker", (0.0, 1.0, 0.6))
    out.span("instructor", "C1", 0.5, 3.5)
    out.span("student", "C2", 4.5, 8.0)
    out.span("instructor", "C3", 9.0, 12.0)
    out.span("student", "C4", 13.0, 16.5)
    out.span("student", "C5", 17.5, 23.5)
    out.add(7.0, "student", _TEXT, f'text level-a "{level_a!r}"')
    out.add(16.0, "student", _TEXT, f'text level-b "{level_b!r}"')
    return out.text()


def live_class_inputs(seed: int) -> dict[str, str]:
    """16 rated references, 24 learners and their start offsets.

    ``class.txt`` holds one ``<learner> <offset seconds>`` line per learner
    and one ``<reference> <quality>`` line per reference.
    """
    rng = random.Random(f"live-class/{seed}")
    files = {"collaborative.ahtn": COLLABORATIVE_NET}
    plan = []
    for i in range(REFERENCES):
        name = f"ref-{i:02d}.rec"
        files[name] = _collaborative_recording(random.Random(rng.getrandbits(64)))
        plan.append(f"reference {name} {0.6 + 0.4 * rng.random()!r}")
    for i in range(LEARNERS):
        name = f"learner-{i:02d}.rec"
        files[name] = _collaborative_recording(random.Random(rng.getrandbits(64)))
        plan.append(f"learner {name} {30.0 * rng.random()!r}")
    files["class.txt"] = "\n".join(plan) + "\n"
    return files


# ---------------------------------------------------------------------------
# simulate: the single-student density measurement exercise

def _hydrometer_tracks():
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


def _hydrometer_recording(rng: random.Random) -> str:
    body = _Body(rng, scale_spread=0.06, jitter=0.002)
    tracks = _hydrometer_tracks()
    reading = 1.257 + round(0.01 * (2.0 * rng.random() - 1.0), 3)
    out = _Lines()
    user = "student"
    rate = 30
    for k in range(26 * rate + 1):
        t = k / rate
        joints = [(n, body.j(p)) for n, p in _tracks_at(tracks, _STUDENT_JOINTS, t)]
        out.skel(t, user, joints)
        hand = body.j(_interp(tracks["hand-right"], t))
        out.pose(t, user, "hand", hand, GRIP)
        if t < 9.0:
            hydro = (0.45, 1.12, 0.35)
        elif t <= 14.0:  # carried: rides 5 cm above the grip
            hydro = (hand[0], hand[1] + 0.05, hand[2])
        else:
            hydro = (0.3, 1.23, 0.45)
        out.pose(t, user, "hydrometer", hydro)
    for s in range(27):
        out.pose(float(s), user, "cylinder", (0.3, 1.0, 0.5))
    out.span(user, "T1", 0.5, 8.0)
    out.span(user, "T2", 9.0, 14.0)
    out.span(user, "T3", 15.0, 20.0)
    out.span(user, "T4", 21.0, 25.0)
    out.add(9.0, user, _ATTACH, "attach hydrometer hand on")
    out.add(14.0, user, _ATTACH, "attach hydrometer hand off")
    out.add(23.0, user, _TEXT, f'text measured-value "{reading!r}"')
    return out.text()


def simulate_inputs(seed: int) -> dict[str, str]:
    rng = random.Random(f"simulate/{seed}")
    return {"hydrometer.ahtn": HYDROMETER_NET,
            "reference.rec": _hydrometer_recording(rng)}


GENERATORS = {
    "score-long": score_long_inputs,
    "live-class": live_class_inputs,
    "simulate": simulate_inputs,
}
