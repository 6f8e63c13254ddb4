import itertools

import pytest

from ahtn.engine import build_reference_set
from ahtn.fixtures import (collaborative_network, collaborative_reference,
                           hydrometer_network, hydrometer_reference,
                           write_demo_files)
from ahtn.model import AssessmentSpec, TaskNode, UserScope, parse_network
from ahtn.telemetry import Event, SessionRecording, TaskMark
from ahtn.trajectory import TrackBuilder

# every (kind, subject) feature the check tests compare against
REFERENCE_CHECKS = ("orientation subject=cup", "position subject=cup",
                    "position subject=head", "text-input subject=field")


def reduce_reference(events, quality=1.0, t0=0.0, t1=10.0,
                     checks=REFERENCE_CHECKS):
    """The Reference that engine.build_reference_set makes of user u's
    events performing task T between marks at t0 and t1, for the check
    lines."""
    lines = ["task T", "  kind primitive", "  user single u", "  weight 1.0",
             "  objects cup dish field head", "  assess task-level"]
    lines += [f"  check {c}" for c in checks]
    lines += ["  feedback final", "end"]
    net = parse_network("\n".join(lines) + "\n")
    window = [e for e in sorted(events, key=lambda e: e.t) if t0 <= e.t <= t1]
    rec = SessionRecording("ref", (Event(t0, "u", TaskMark("T", "start")),
                                   *window, Event(t1, "u", TaskMark("T", "end"))))
    return build_reference_set(net, [(rec, quality)])["T"][0]


def reference_track(events, t0, t1, joints, params, subject=None):
    """The ReferenceTrack a trajectory.TrackBuilder reduces events to, for
    a task T marked from t0 to t1 that tracks joints and whose first game
    object is subject; each event is fed as one the task took."""
    objects = (subject,) if subject is not None else ()
    node = TaskNode(id="T", kind="primitive", name="T",
                    users=UserScope("single-user", ("u",)), weight=1.0,
                    objects=objects + tuple(joints),
                    assessment=AssessmentSpec("action-level"), feedback="final-score")
    builder = TrackBuilder(node, t0, params)
    for event in events:
        builder.add(event)
    return builder.track(t1)


def move_marks(text, fractions):
    """The recording with each mark line moved within its run of
    equal-timestamp lines, to the place the next fraction picks (0 before
    the run's first other line, 1 after its last); other lines keep their
    order."""
    draws = iter(fractions)
    out = []
    for _, run in itertools.groupby(text.splitlines(),
                                    key=lambda line: line.split(None, 1)[0]):
        run = list(run)
        lines = [line for line in run if " mark " not in line]
        for mark in (line for line in run if " mark " in line):
            lines.insert(min(int(next(draws) * (len(lines) + 1)), len(lines)),
                         mark)
        out.extend(lines)
    return "\n".join(out) + "\n"


@pytest.fixture(scope="session")
def hydro_net():
    return hydrometer_network()


@pytest.fixture(scope="session")
def hydro_rec():
    return hydrometer_reference()


@pytest.fixture(scope="session")
def hydro_refs(hydro_net, hydro_rec):
    return build_reference_set(hydro_net, [(hydro_rec, 1.0)])


@pytest.fixture(scope="session")
def collab_net():
    return collaborative_network()


@pytest.fixture(scope="session")
def collab_rec():
    return collaborative_reference()


@pytest.fixture(scope="session")
def collab_refs(collab_net, collab_rec):
    return build_reference_set(collab_net, [(collab_rec, 1.0)])


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    """Bundled networks and recordings written out as plain files."""
    out = tmp_path_factory.mktemp("demo")
    write_demo_files(str(out))
    return out
