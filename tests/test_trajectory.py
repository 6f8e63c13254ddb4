"""Key-frame matching, anomaly detection, and the streaming evaluator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ahtn.engine import build_reference_set
from ahtn.model import NetworkError, TrajectoryParams, parse_network
from ahtn.telemetry import (Event, Pose, SessionRecording, SkeletonFrame,
                            TaskMark, parse_session)
from ahtn.trajectory import (HAND_PROXIMITY_FACTOR, ActionEvaluator, Anomaly,
                             TrackBuilder, TrajectorySummary, WindowEntry,
                             detect_anomalies, facing_direction, frame_rows,
                             key_frame_count, plan_layout)
from conftest import reference_track

JOINTS = ("head", "hand-right")
PARAMS = TrajectoryParams()


def frame(**joints):
    fixed = {k.replace("_", "-"): v for k, v in joints.items()}
    names = tuple(fixed)
    return SkeletonFrame(names=names,
                         positions=np.array([fixed[n] for n in names], float))


def skel_task(samples, t0=0.0, t1=10.0, user="u"):
    """Task T's events and marks at t0 and t1: the first arguments of
    reference_track."""
    events = [Event(t=t, user=user, payload=f) for t, f in samples]
    return events, t0, t1


def straight_line(t0=0.0, duration=10.0, rate=10.0, arm=0.45):
    """Slow straight hand sweep; adjacent 2 Hz key frames sit ~1.5 cm apart."""
    out = []
    n = int(duration * rate) + 1
    for i in range(n):
        t = t0 + i / rate
        x = 0.3 * (i / (n - 1))
        out.append((t, frame(head=(x, 1.7, 0.0),
                             hand_right=(x + arm, 1.7, 0.0),
                             shoulder_left=(x + 0.2, 1.5, 0.0),
                             shoulder_right=(x - 0.2, 1.5, 0.0))))
    return out


# its performer measures face height 1.7 m, face-hand 0.45 m and hand-right
TRACK = reference_track(*skel_task(straight_line()), JOINTS, PARAMS)


# -- key frames ---------------------------------------------------------------

def test_key_frame_count():
    assert key_frame_count(10.0, 2.0) == 20
    assert key_frame_count(0.2, 2.0) == 1  # floor of one target
    assert key_frame_count(2.6, 2.0) == 6
    with pytest.raises(ValueError):
        key_frame_count(0.0, 2.0)


def test_reference_track_takes_first_frame_at_or_after_key_time():
    samples = [(float(i), frame(head=(0, 1.7, float(i)),
                                hand_right=(0.45, 1.7, float(i))))
               for i in range(11)]
    track = reference_track(*skel_task(samples), JOINTS, PARAMS)
    assert track.key_frames == 20
    expected = [math.ceil(k / 2) for k in range(20)]
    assert track.positions.shape == (20, 2, 3)
    assert list(track.positions[:, 0, 2]) == expected  # head z tracks frame time


def test_reference_track_requires_joints():
    samples = [(0.0, frame(head=(0, 1.7, 0), hand_left=(-0.45, 1.7, 0)))]
    with pytest.raises(ValueError, match="missing joint 'hand-right'"):
        reference_track(*skel_task(samples, t1=1.0), JOINTS, PARAMS)
    with pytest.raises(ValueError, match="no skeleton frames"):
        reference_track(*skel_task([], t1=1.0), JOINTS, PARAMS)


# Through build_reference_set: task T tracks head and hand-right, and its
# subject is cup, the first of its game objects. A frame at time t holds
# the head at height 1.6 + t/10 and depth t, the right hand 0.4 m and the
# left hand 0.5 m from it, so the key frames name the frames they took and
# the face height names the warm-up frames.

TRACKED_NET = parse_network(
    "task T\n  kind primitive\n  user single u\n  weight 1.0\n"
    "  objects cup dish head hand-right\n  assess action-level\n"
    "  feedback final\nend\n")
STILL = (0.0, 0.0, 0.0, 1.0)


def timed_frame(t, right=True):
    y = 1.6 + t / 10
    joints = dict(head=(0.0, y, t), hand_right=(0.4, y, t), hand_left=(-0.5, y, t))
    if not right:
        del joints["hand_right"]
    return frame(**joints)


def timed_frames(*times):
    return [(t, timed_frame(t)) for t in times]


# name: t0, t1, (t, payload) steps, and the key frames' times, hand, face
# height, face-hand distance and error the reference gets
TRACK_CASES = {
    # the dish pose near the right hand is not the subject's
    "subject pose after the warm-up picks the left hand": (
        0.0, 2.0, timed_frames(0.0, 0.5, 1.0, 1.5)
        + [(0.2, Pose("dish", (0.4, 1.62, 0.2), STILL)),
           (1.5, Pose("cup", (-0.5, 1.75, 1.5), STILL))],
        ([0.0, 0.5, 1.0, 1.5], "hand-left", 1.65, 0.5, None)),
    "first frame after several goals": (
        0.0, 3.0, timed_frames(1.6, 2.0, 2.5),
        ([1.6, 1.6, 1.6, 1.6, 2.0, 2.5], "hand-right", 1.76, 0.4, None)),
    "stream ends before the last goal": (
        0.0, 3.0, timed_frames(0.0, 0.5, 1.0),
        ([0.0, 0.5, 1.0, 1.0, 1.0, 1.0], "hand-right", 1.65, 0.4, None)),
    "frame time equals a goal": (
        0.0, 1.5, timed_frames(0.0, 0.4, 0.5, 0.6, 1.2),
        ([0.0, 0.5, 1.2], "hand-right", 1.645, 0.4, None)),
    "frame at t1 with a whole number of key frames": (
        0.5, 2.5, timed_frames(0.5, 1.0, 1.5, 2.0, 2.5),
        ([0.5, 1.0, 1.5, 2.0], "hand-right", 1.7, 0.4, None)),
    "key frame lacks a tracked joint": (
        0.0, 1.5, timed_frames(0.0, 0.5) + [(1.0, timed_frame(1.0, right=False))],
        (None, None, None, None,
         "reference missing joint 'hand-right' at key frame 2")),
}


@pytest.mark.parametrize("case", TRACK_CASES)
def test_reference_track_cases(case):
    t0, t1, steps, (times, hand, face_height, face_hand, error) = TRACK_CASES[case]
    rec = SessionRecording("ref", (
        Event(t0, "u", TaskMark("T", "start")),
        *(Event(t, "u", p) for t, p in sorted(steps, key=lambda step: step[0])),
        Event(t1, "u", TaskMark("T", "end"))))
    (ref,) = build_reference_set(TRACKED_NET, [(rec, 1.0)], PARAMS)["T"]
    assert ref.error == error
    if error is not None:
        assert ref.track is None
        return
    track = ref.track
    assert np.array_equal(track.positions, np.array(
        [[timed_frame(t).position(j) for j in JOINTS] for t in times]))
    assert track.hand_joint == hand
    assert track.face_height == pytest.approx(face_height)
    assert track.face_hand_distance == pytest.approx(face_hand)


def test_kept_frames_own_their_rows():
    # the bulk parse makes each frame's positions rows of its block's array;
    # a frame the builder keeps must not keep that array alive
    text = "".join(f"t={i / 10} u=u skel head=0,1.7,{i};hand-right=0.4,1.2,{i}\n"
                   for i in range(31))
    events = parse_session(text).events
    assert all(e.payload.positions.base is not None for e in events)
    builder = TrackBuilder(TRACKED_NET.nodes["T"], 0.0, PARAMS)
    for e in events:
        builder.add(e)
    assert len(builder.warm_up) == 11 and len(builder.keys) == 7
    assert all(f.positions.base is None for f in builder.warm_up + builder.keys)
    assert builder.keys[2] is builder.warm_up[10]  # copied once per frame
    track = builder.track(3.0)
    assert list(track.positions[:, 0, 2]) == [0, 5, 10, 15, 20, 25]


def test_reference_tracks_compare_by_identity(hydro_net, hydro_rec):
    first, second = (build_reference_set(hydro_net, [(hydro_rec, 1.0)])
                     ["T1"][0].track for _ in range(2))
    assert np.array_equal(first.positions, second.positions)
    assert first == first
    assert first != second  # no elementwise array comparison


# -- matching -----------------------------------------------------------------
# through ActionEvaluator, the one matching path; the 1 s reference task has
# two key frames, both targeting head (0, 1.7, 0) and hand-right (1, 1.7, 0)

def one_frame_reference():
    return skel_task([(0.0, frame(head=(0, 1.7, 0), hand_right=(1, 1.7, 0)))],
                      t1=1.0)


def test_match_ball_is_closed():
    def bursts(head_x):
        f = frame(head=(head_x, 1.7, 0), hand_right=(1, 1.7, 0))
        # reference face-hand distance equal to the frame's: factor exactly 1
        exact = float(np.linalg.norm(f.position("head") - f.position("hand-right")))
        summary, _ = replay([(0.0, f), (0.1, f)], one_frame_reference(),
                            face_hand_distance=exact)
        assert summary.correction_factor == 1.0
        return summary.burst

    assert bursts(0.1) == 2  # head exactly match_radius from its target
    assert bursts(0.1 + 1e-7) == 0


def test_match_requires_every_joint():
    handless = frame(head=(0, 1.7, 0))  # head exactly on its target
    summary, feedback = replay([(0.0, handless), (0.1, handless)],
                               one_frame_reference())
    assert summary.burst == 0 and not any(e[0] == "burst" for e in feedback)
    assert "frames missing tracked joints; targets cannot burst" in summary.warnings


def test_repeated_tracked_joint_is_one_row_per_listing():
    # a task cannot list a joint twice, but a track whose joints tuple does
    # keeps each listing as a row of every target, matched against that
    # joint's row of the frame, and not against a row read for another
    # role (here the shoulders)
    with pytest.raises(NetworkError, match="line 5: objects repeat an id: hand-right"):
        parse_network(
            "task T\n  kind primitive\n  user single u\n  weight 1.0\n"
            "  objects cup head hand-right hand-right\n  assess action-level\n"
            "  feedback final\nend\n")

    def posed(dx):  # the reference pose moved dx along x
        return frame(head=(dx, 1.7, 0), hand_right=(dx + 1, 1.7, 0),
                     shoulder_right=(dx - 5, 1.5, 0), shoulder_left=(dx + 5, 1.5, 0))

    track = reference_track(*skel_task([(0.0, posed(0.0))], t1=1.0),
                            ("head", "hand-right"), PARAMS)
    track = replace(track, joint_ids=("head", "hand-right", "hand-right"),
                    positions=track.positions[:, [0, 1, 1]])
    assert track.positions.shape == (2, 3, 3)

    def bursts(dx):
        ev = ActionEvaluator(track, t_start=0.0)
        for t in (0.0, 0.1, 1.2, 1.3):
            ev.observe(t, posed(dx))
        summary = ev.finalize(1.3)
        assert summary.correction_factor == 1.0
        return summary.burst

    assert bursts(0.0) == 2
    assert bursts(PARAMS.match_radius + 1e-6) == 0
    assert len(plan_layout(posed(0.0).names, track).rows) == 5  # 3 tracked, 2 shoulders


# -- stepping and scoring -------------------------------------------------------
# through observe and finalize. PARKED sits 0.2 m off the 10 s line's first
# targets: it never bursts, and its hand stays within the hand-position
# limit (3 match radii); FALL is PARKED with the head below the fall line.
# Both keep the reference face-hand distance, so the correction factor is 1.

PARKED = frame(head=(0, 1.7, 0.2), hand_right=(0.45, 1.7, 0.2))
FALL = frame(head=(0, 0.3, 0.2), hand_right=(0.45, 1.7, 0.2))


def track_of(duration, params=PARAMS):
    return reference_track(*skel_task(straight_line(duration=duration),
                                             t1=duration), JOINTS, params)


def on_target(track, k):
    head, hand = track.positions[k]
    return frame(head=tuple(head), hand_right=tuple(hand))


def feed(ev, samples):
    """Observe (t, frame) pairs; the feedback of each observe call."""
    return [ev.observe(t, f) for t, f in samples]


def test_skip_is_strictly_greater_than_five_seconds():
    ev = ActionEvaluator(track_of(10.0), t_start=0.0)
    # warm-up frames, then one past the window that replays them
    assert feed(ev, [(t, PARKED) for t in (0.0, 0.5, 1.0, 2.0)]) == [[]] * 4
    assert ev.observe(5.0, PARKED) == [] and ev.missed == 0
    assert ev.observe(5.01, PARKED) == [("missed", 0)]
    assert (ev.missed, ev.cursor, ev.spawned_at) == (1, 1, 5.01)
    assert ev.finalize(5.01).spawned == 2


def test_burst_advances_cursor():
    track = track_of(10.0)
    ev = ActionEvaluator(track, t_start=0.0)
    assert ev.observe(0.0, on_target(track, 0)) == []  # warm-up
    assert ev.observe(1.1, PARKED) == [("burst", 0, 2)]
    assert (ev.burst, ev.cursor, ev.spawned_at) == (1, 1, 0.0)


def test_completed_evaluator_ignores_later_matches():
    track = track_of(1.0)  # K = 2
    ev = ActionEvaluator(track, t_start=0.0)
    assert feed(ev, [(0.0, on_target(track, 0)), (0.5, on_target(track, 1)),
                     (1.1, on_target(track, 1))]) == [
        [], [], [("burst", 0, 2), ("burst", 1, 2), ("repetition", 1)]]
    assert ev.complete
    assert ev.observe(9.0, on_target(track, 0)) == []
    assert ev.observe(9.5, on_target(track, 1)) == []
    summary = ev.finalize(9.5)
    assert (summary.burst, summary.missed, summary.spawned) == (2, 0, 2)
    assert summary.repetitions_done == 1 and summary.score == 1.0


def test_score_formula():
    track = track_of(2.0)  # K = 4
    ev = ActionEvaluator(track, t_start=0.0)
    head, hand = track.positions[3]
    fallen_on_3 = frame(head=(head[0], 0.3, head[2]), hand_right=tuple(hand))
    feedback = feed(ev, [(0.0, on_target(track, 0)), (1.1, on_target(track, 1)),
                         (3.0, PARKED), (6.5, PARKED), (7.0, fallen_on_3),
                         (7.5, on_target(track, 3))])
    assert feedback == [[], [("burst", 0, 2), ("burst", 1, 2)], [],
                        [("missed", 2)], [("anomaly", "fall", "start")],
                        [("anomaly", "fall", "end"), ("burst", 3, 2),
                         ("repetition", 1)]]
    summary = ev.finalize(7.5)
    assert (summary.burst, summary.missed, len(summary.anomalies)) == (3, 1, 1)
    assert summary.score == pytest.approx(3 / 4 - 0.05)


def test_score_clamps_at_zero():
    ev = ActionEvaluator(track_of(10.0), t_start=0.0)
    feed(ev, [(0.0, PARKED), (1.1, PARKED), (1.6, FALL), (2.1, PARKED)])
    summary = ev.finalize(2.1)
    # burst 0/1 less one episode's penalty is below 0
    assert (summary.burst, summary.missed, len(summary.anomalies)) == (0, 1, 1)
    assert summary.score == 0.0


def test_score_aborted_and_empty():
    track = track_of(10.0)
    ev = ActionEvaluator(track, t_start=0.0)
    feedback = feed(ev, [(0.0, on_target(track, 0))]
                    + [(1.1 + 0.5 * i, FALL) for i in range(23)])
    assert [e for f in feedback for e in f if e[0] == "abort"] == [("abort", "fall")]
    summary = ev.finalize(12.1)
    assert summary.aborted and summary.burst == 1 and summary.score == 0.0

    idle = ActionEvaluator(track, t_start=0.0).finalize(3.0)
    assert (idle.burst, idle.missed, idle.spawned) == (0, 1, 1)
    assert idle.score == 0.0 and idle.correction_factor == 1.0


# -- anomalies ----------------------------------------------------------------
# on window entries, the form in which the evaluator keeps its corrected
# frames: the rows its layout's plan reads, as Python floats, and the plan

def facing_of(f):
    plan = plan_layout(f.names, TRACK)
    return facing_direction(frame_rows(f, plan), plan)


def entries(samples):
    """Window entries of (t, frame) pairs."""
    out = []
    for t, f in samples:
        plan = plan_layout(f.names, TRACK)
        out.append(WindowEntry(t, frame_rows(f, plan), plan))
    return out


def test_facing_from_shoulders():
    f = frame(shoulder_left=(0.2, 1.5, 0), shoulder_right=(-0.2, 1.5, 0))
    assert np.allclose(facing_of(f), [0, 0, 1])
    g = frame(shoulder_left=(-0.2, 1.5, 0), shoulder_right=(0.2, 1.5, 0))
    assert np.allclose(facing_of(g), [0, 0, -1])


def test_facing_fallback_and_degenerate():
    f = frame(head=(0, 1.7, 0), head_forward=(0.6, 1.7, 0.8))
    assert np.allclose(facing_of(f), [0.6, 0, 0.8])
    assert facing_of(frame(head=(0, 1.7, 0))) is None
    collapsed = frame(shoulder_left=(0, 1.5, 0), shoulder_right=(0, 1.5, 0))
    assert facing_of(collapsed) is None
    # both shoulders win over head-forward; one shoulder alone does not
    both = frame(head=(0, 1.7, 0), head_forward=(0, 1.7, -1),
                 shoulder_left=(0.2, 1.5, 0), shoulder_right=(-0.2, 1.5, 0))
    assert np.allclose(facing_of(both), [0, 0, 1])
    one = frame(head=(0, 1.7, 0), head_forward=(0, 1.7, -1),
                shoulder_left=(0.2, 1.5, 0))
    assert np.allclose(facing_of(one), [0, 0, -1])


def rotated_shoulders(angle):
    """Shoulder pair whose facing direction is `angle` away from +z."""
    c, s = math.cos(angle), math.sin(angle)
    left = np.array([0.2 * c, 1.5, -0.2 * s])
    return frame(head=(0, 1.7, 0), shoulder_left=tuple(left),
                 shoulder_right=tuple(-left + np.array([0, 3.0, 0])))


def window_of(f, span=0.6):
    return entries([(0.0, f), (span, f)])


def test_orientation_anomaly_threshold_is_ninety_degrees():
    for deg, expect in ((60, False), (90, False), (120, True), (180, True)):
        f = rotated_shoulders(math.radians(deg))
        facing = facing_of(f)
        assert facing is not None
        kinds, warming, latest_facing = detect_anomalies(window_of(f), TRACK)
        assert not warming
        assert np.array_equal(latest_facing, facing)
        assert ("orientation" in kinds) is expect, deg


def numpy_facing(positions, a, b, shoulders):
    """The facing direction in numpy's arithmetic, from the rows a and b of
    a frame's positions: the oracle of the facing read from Python floats."""
    x, _, z = (positions[a] - positions[b]).tolist()
    out = np.array((z, 0.0, -x) if shoulders else (x, 0.0, z))
    norm = math.sqrt(out.dot(out))
    if norm < 1e-9:
        return None
    return out / norm


def polar(length, angle):
    return length * math.cos(angle), length * math.sin(angle)


def lengths_at(bound):
    """Lengths a few ulps either side of bound, where a dot product that
    fuses multiply-adds and ``x*x + y*y + z*z`` can disagree on the side."""
    return st.builds(lambda k: bound * (1 + k * 2.0 ** -52), st.integers(-3, 3))


# a direction, any length that is not too short to normalize
unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)


# separations on either side of the 1e-9 m bound, and on it to the last bit
separation = (st.floats(1e-10, 1e-8) | lengths_at(1e-9)
              | st.sampled_from([1e-9, math.nextafter(1e-9, 0.0), math.nextafter(1e-9, 1.0)]))


# (x, z) offsets whose norm is 1e-9 by x*x + z*z and not by numpy's dot
# product, on a BLAS that fuses multiply-adds, or the other way round
@example(offset=(5.220518327557184e-10, 8.529137611250011e-10),
         base=(0.0, 0.0, 0.0), shoulders=False)
@example(offset=(1.7384958931981541e-10, -9.847722174662176e-10),
         base=(0.0, 0.0, 0.0), shoulders=False)
@example(offset=(9.916973741291579e-10, 1.2859361626975527e-10),
         base=(0.0, 0.0, 0.0), shoulders=True)
@settings(max_examples=300, deadline=None)
@given(offset=st.builds(polar, separation, st.floats(0.0, 2 * math.pi)),
       base=st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
       | st.just((0.0, 0.0, 0.0)),
       shoulders=st.booleans())
def test_facing_decisions_match_numpy_near_the_degenerate_bound(offset, base, shoulders):
    (bx, by, bz), (dx, dz) = base, offset
    moved = (bx + dx, by, bz + dz)
    if shoulders:
        f = frame(head=(0.0, 1.7, 0.0), shoulder_left=base, shoulder_right=moved)
        a, b = 2, 1
    else:
        f = frame(head=base, head_forward=moved)
        a, b = 1, 0
    expected = numpy_facing(f.positions, a, b, shoulders)
    facing = facing_of(f)
    assert (facing is None) == (expected is None)
    kinds, _, latest_facing = detect_anomalies(window_of(f), TRACK)
    assert (latest_facing is None) == (expected is None)
    away = expected is not None and float(expected @ np.array([0.0, 0.0, 1.0])) < 0.0
    assert ("orientation" in kinds) == away


# hands whose distance from the origin is the hand-position limit by
# x*x + y*y + z*z and not by numpy's dot product, or the other way round
@example(hand=(0.0687585930665968, -0.23612785472692835, 0.17180189784039293))
@example(hand=(-0.2023505493775314, 0.11960432031975185, -0.1864110021631273))
@settings(max_examples=200, deadline=None)
@given(hand=st.builds(lambda length, v: tuple(length * c / math.hypot(*v) for c in v),
                      lengths_at(HAND_PROXIMITY_FACTOR * PARAMS.match_radius), unit))
def test_hand_distance_decision_matches_numpy_at_the_limit(hand):
    f = frame(head=(0.0, 1.7, 0.0), hand_right=hand)
    d = np.array(hand)
    near = math.sqrt(d.dot(d)) <= HAND_PROXIMITY_FACTOR * PARAMS.match_radius
    kinds, _, _ = detect_anomalies(window_of(f), TRACK, [0.0, 0.0, 0.0])
    assert ("hand-position" in kinds) == (not near)


def test_fall_anomaly_uses_reference_face_height():
    # threshold: half of 1.7 m
    low = frame(head=(0, 0.84, 0))
    ok = frame(head=(0, 0.86, 0))
    assert "fall" in detect_anomalies(window_of(low), TRACK)[0]
    assert "fall" not in detect_anomalies(window_of(ok), TRACK)[0]


def test_hand_position_anomaly_needs_whole_window_away():
    goal = [0.0, 0.0, 0.0]  # of hand-right, TRACK's hand
    far = frame(head=(0, 1.7, 0), hand_right=(0.35, 1.1, 0))
    near = frame(head=(0, 1.7, 0), hand_right=(0.25, 0, 0))
    kinds, _, _ = detect_anomalies(window_of(far), TRACK, goal)
    assert "hand-position" in kinds
    mixed = entries([(0.0, far), (0.3, near), (0.6, far)])
    kinds, _, _ = detect_anomalies(mixed, TRACK, goal)
    assert "hand-position" not in kinds  # one close sample clears it
    # measured again for a new goal: the near sample is far from this one
    kinds, _, _ = detect_anomalies(mixed, TRACK, [0.3, 1.7, 0.0])
    assert "hand-position" in kinds
    # no goal, or no hand in the whole window: nothing is measured
    assert "hand-position" not in detect_anomalies(window_of(far), TRACK)[0]
    handless = frame(head=(0, 1.7, 0))
    assert "hand-position" not in detect_anomalies(window_of(handless), TRACK, goal)[0]


def test_window_shorter_than_half_second_only_warms_up():
    f = frame(head=(0, 0.1, 0))  # would be a fall
    kinds, warming, facing = detect_anomalies(entries([(0.0, f)]), TRACK)
    assert warming and kinds == set() and facing is None
    kinds, warming, _ = detect_anomalies(entries([(0.0, f), (0.4, f)]), TRACK)
    assert warming


def test_anomaly_episode_lifecycle():
    ev = ActionEvaluator(track_of(10.0), t_start=0.0)
    assert feed(ev, [(0.0, PARKED), (1.1, PARKED), (1.6, FALL), (2.0, FALL),
                     (3.5, PARKED)]) == [
        [], [], [("anomaly", "fall", "start")], [], [("anomaly", "fall", "end")]]
    assert ev.anomalies == [Anomaly("fall", 1.6, 3.5)]
    assert ev.observe(4.0, FALL) == [("anomaly", "fall", "start")]
    summary = ev.finalize(4.5)  # closes the open episode at the end
    assert summary.anomalies == (Anomaly("fall", 1.6, 3.5), Anomaly("fall", 4.0, 4.5))


def test_abort_after_wait_is_strict():
    params = TrajectoryParams(skip_time=100.0)
    ev = ActionEvaluator(track_of(10.0, params), t_start=0.0)
    assert feed(ev, [(0.0, PARKED), (1.5, PARKED), (2.0, FALL), (12.0, FALL)]) == [
        [], [], [("anomaly", "fall", "start")], []]
    assert not ev.aborted
    assert ev.observe(12.25, FALL) == [("abort", "fall")]
    assert ev.aborted and ev.abort_kind == "fall"
    # an aborted evaluator ignores further frames
    assert ev.observe(13.0, PARKED) == []
    summary = ev.finalize(13.0)
    assert summary.anomalies == (Anomaly("fall", 2.0, 12.25),)
    assert (summary.burst, summary.missed) == (0, 0) and summary.score == 0.0


# -- streaming evaluator ------------------------------------------------------

def replay(samples, ref_task, params=PARAMS, t_start=0.0, **fields):
    """Stream samples against the track of ref_task (``skel_task``), with
    ``fields`` of the track replaced."""
    track = replace(reference_track(*ref_task, JOINTS, params), **fields)
    ev = ActionEvaluator(track, t_start=t_start)
    feedback = []
    for t, f in samples:
        feedback.extend(ev.observe(t, f))
    return ev.finalize(samples[-1][0]), feedback


def test_self_replay_bursts_every_target():
    samples = straight_line()
    task = skel_task(samples)
    summary, feedback = replay(samples, task)
    assert summary.score == 1.0
    assert summary.burst == 20 and summary.missed == 0
    assert summary.correction_factor == 1.0
    assert not summary.aborted and summary.anomalies == ()
    assert sum(1 for e in feedback if e[0] == "burst") == 20
    assert [e for e in feedback if e[0] == "repetition"] == [("repetition", 1)]


def test_evaluator_is_deterministic():
    samples = straight_line()
    task = skel_task(samples)
    a, fa = replay(samples, task)
    b, fb = replay(samples, task)
    assert a == b and fa == fb


def test_evaluator_correction_lets_smaller_user_burst():
    ref = straight_line(arm=0.45)
    short = straight_line(arm=0.30)  # same head path, shorter reach
    summary, _ = replay(short, skel_task(ref))
    assert summary.correction_factor == pytest.approx(1.5)
    assert summary.burst == 20 and summary.score == 1.0


def test_idle_user_misses_targets():
    task = skel_task(straight_line())
    away = [(t, frame(head=(5, 1.7, 0), hand_right=(5.45, 1.7, 0),
                      shoulder_left=(5.2, 1.5, 0), shoulder_right=(4.8, 1.5, 0)))
            for t in np.arange(0.0, 12.0, 0.1)]
    summary, feedback = replay(away, task)
    assert summary.burst == 0
    assert summary.missed >= 2  # 12 s of idling retires at least two targets
    assert summary.score == 0.0
    assert any(e[0] == "missed" for e in feedback)


def test_finalize_counts_inflight_target_as_missed():
    task = skel_task(straight_line())
    away = [(t, frame(head=(5, 1.7, 0), hand_right=(5.45, 1.7, 0)))
            for t in np.arange(0.0, 3.0, 0.1)]
    summary, _ = replay(away, task)
    # nothing retired naturally (3 s < skip time) but the open target counts
    assert summary.missed == 1 and summary.burst == 0
    assert summary.spawned == 1


def test_fall_anomaly_aborts_evaluator():
    task = skel_task(straight_line())
    floor = [(t, frame(head=(0.0, 0.2, 0.0), hand_right=(0.45, 0.2, 0.0),
                       shoulder_left=(0.2, 0.1, 0), shoulder_right=(-0.2, 0.1, 0)))
             for t in np.arange(0.0, 14.0, 0.1)]
    summary, feedback = replay(floor, task)
    assert summary.aborted and summary.abort_kind == "fall"
    assert summary.score == 0.0
    assert feedback.count(("abort", "fall")) == 1
    # nothing after the abort
    assert feedback[-1] == ("abort", "fall")


def test_anomaly_episode_penalty_applies():
    samples = straight_line()
    # dip the head below the fall line for 2 s mid-task, then recover
    dipped = []
    for t, f in samples:
        if 4.0 <= t < 6.0:
            pos = f.positions.copy()
            pos[list(f.names).index("head"), 1] = 0.3
            f = SkeletonFrame(names=f.names, positions=pos)
        dipped.append((t, f))
    summary, feedback = replay(dipped, skel_task(samples))
    assert not summary.aborted
    assert len(summary.anomalies) == 1
    assert summary.anomalies[0].kind == "fall"
    assert any(e == ("anomaly", "fall", "start") for e in feedback)
    assert any(e == ("anomaly", "fall", "end") for e in feedback)
    burst_ratio = summary.burst / (summary.burst + summary.missed)
    assert summary.score == pytest.approx(burst_ratio - 0.05)


def test_missing_tracked_joint_warns_once():
    task = skel_task(straight_line())
    headless = [(t, frame(hand_right=(0.45, 1.7, 0)))
                for t in np.arange(0.0, 2.0, 0.1)]
    summary, _ = replay(headless, task)
    assert summary.burst == 0
    assert sum("cannot burst" in w for w in summary.warnings) == 1


def test_orientation_watch_disabled_without_shoulders_warns():
    samples = [(t, frame(head=(x, 1.7, 0), hand_right=(x + 0.45, 1.7, 0)))
               for t, (x,) in ((t, (0.3 * t / 10.0,)) for t in np.arange(0, 10.5, 0.1))]
    summary, _ = replay(samples, skel_task(samples))
    assert any("orientation anomaly disabled" in w for w in summary.warnings)
    assert summary.score == 1.0  # still matches fine


def test_orientation_disabled_warning_appears_once():
    def warnings(**extra):
        samples = [(t, frame(head=(0.03 * t, 1.7, 0),
                             hand_right=(0.03 * t + 0.45, 1.7, 0), **extra))
                   for t in np.arange(0, 10.5, 0.1)]
        summary, _ = replay(samples, skel_task(samples))
        return [w for w in summary.warnings if w.startswith("orientation")]

    assert warnings() == [
        "orientation anomaly disabled: no shoulder or head-forward joints"]
    assert warnings(head_forward=(0, 1.7, 1)) == []


def test_headless_frame_after_correction_is_skipped():
    ref = skel_task([(0.0, frame(head=(0, 1.7, 0), hand_right=(0.6, 1.7, 0)))],
                     t1=2.0)
    warm = [(0.1 * i, frame(head=(0, 1.7, 0), hand_right=(0.4, 1.7, 0)))
            for i in range(12)]
    headless = [(1.2, frame(hand_right=(0.4, 1.7, 0))),
                (1.3, frame(hand_right=(0.4, 1.7, 0)))]
    summary, feedback = replay(warm + headless, ref)
    assert summary.correction_factor == pytest.approx(1.5)
    assert summary.warnings.count(
        "frames without head skipped: cannot height-correct") == 1
    # skipped outright: the same outcome as never seeing those frames
    plain, plain_feedback = replay(warm, ref)
    assert feedback == plain_feedback
    assert (summary.burst, summary.missed, summary.anomalies) == (
        plain.burst, plain.missed, plain.anomalies)


# -- per-frame decisions, pinned --------------------------------------------------
# One learner 0.4 m from head to hand (factor 1.125 against TRACK), with a
# little seeded jitter. Frames alternate between two layouts of the same
# joints, in different orders; some drop the hand; from 4 s to 7 s the
# shoulders are lost and head-forward gives the facing. The learner turns
# away at 2 s (shoulders) and at 5 s (head-forward), holds the hand far
# from its goal at 8 s, falls at 11 s, and sends one frame without a head
# at 12.05 s, after the factor is fixed.

ORDER_A = ("head", "hand-right", "shoulder-left", "shoulder-right", "head-forward")
ORDER_B = ("shoulder-right", "head-forward", "hand-right", "shoulder-left", "head")


def mixed_stream():
    rng = np.random.default_rng(5)
    samples = []
    for i in range(141):
        t = i / 10
        x = 0.3 * min(t, 10.0) / 10.0
        jitter = rng.normal(0.0, 0.02, size=(5, 3))
        head = np.array([x, 0.5 if 11.0 <= t < 11.6 else 1.7,
                         0.25 if 3.0 <= t < 9.5 else 0.0])
        hand = head + [0.4, 0.0, 0.6 if 8.0 <= t < 9.5 else 0.0]
        turn = -1.0 if 2.0 <= t < 2.8 else 1.0
        joints = {"head": head, "hand-right": hand,
                  "shoulder-left": head + [0.2 * turn, -0.2, 0.0],
                  "shoulder-right": head + [-0.2 * turn, -0.2, 0.0],
                  "head-forward": head + [0.0, 0.0, -0.1 if 5.0 <= t < 6.0 else 0.1]}
        for k, name in enumerate(ORDER_A):
            joints[name] = joints[name] + jitter[k]
        order = ORDER_A if i % 3 else ORDER_B
        drop = set()
        if i % 7 == 3:
            drop.add("hand-right")
        if 4.0 <= t < 7.0:
            drop |= {"shoulder-left", "shoulder-right"}
        names = tuple(n for n in order if n not in drop)
        samples.append((t, SkeletonFrame(names, np.array([joints[n] for n in names]))))
    samples.insert(121, (12.05, frame(hand_right=(0.7, 1.7, 0.0),
                                      shoulder_left=(0.5, 1.5, 0.0),
                                      shoulder_right=(0.1, 1.5, 0.0))))
    return samples


# (frame index, primitive) and the summary, as the evaluator gave them
# before its per-layout plan
MIXED_PRIMITIVES = [
    *((11, ("burst", k, 2)) for k in range(9)),
    (14, ("burst", 9, 2)),
    (20, ("anomaly", "orientation", "start")),
    (22, ("burst", 10, 2)),
    (26, ("burst", 11, 2)),
    (28, ("anomaly", "orientation", "end")),
    (50, ("anomaly", "orientation", "start")),
    (60, ("anomaly", "orientation", "end")),
    (77, ("missed", 12)),
    (85, ("anomaly", "hand-position", "start")),
    (95, ("anomaly", "hand-position", "end")),
    (95, ("burst", 13, 2)),
    (97, ("burst", 14, 2)),
    (98, ("burst", 15, 2)),
    (99, ("burst", 16, 2)),
    (100, ("burst", 17, 2)),
    (102, ("burst", 18, 2)),
    (103, ("burst", 19, 2)),
    (103, ("repetition", 1)),
    (110, ("anomaly", "fall", "start")),
    (116, ("anomaly", "fall", "end")),
]
MIXED_SUMMARY = TrajectorySummary(
    score=0.75, burst=19, missed=1, spawned=20, repetitions_done=1,
    anomalies=(Anomaly("orientation", 2.0, 2.8), Anomaly("orientation", 5.0, 6.0),
               Anomaly("hand-position", 8.5, 9.5), Anomaly("fall", 11.0, 11.6)),
    aborted=False, abort_kind=None, correction_factor=1.133905138891748,
    # one warning per layout that lacks a tracked joint: four of them
    warnings=(*["frames missing tracked joints; targets cannot burst"] * 4,
              "frames without head skipped: cannot height-correct"))


def test_per_frame_decisions_are_pinned():
    ev = ActionEvaluator(TRACK, t_start=0.0)
    primitives = [(i, p) for i, (t, f) in enumerate(mixed_stream())
                  for p in ev.observe(t, f)]
    summary = ev.finalize(14.0)
    assert primitives == MIXED_PRIMITIVES
    assert summary == MIXED_SUMMARY


# A learner who holds one pose shifted by reach * match_radius from the
# reference pose, in direction ``shift``, with their own arm length: after
# correction the tracked joints sit on the match ball (reach 1) or the
# hand on the hand-position limit (reach HAND_PROXIMITY_FACTOR), up to
# rounding. Either way, the evaluator decides as numpy's arithmetic does on
# the same corrected rows.
@settings(max_examples=80, deadline=None)
@given(radius=st.floats(0.01, 0.2), arm=st.floats(0.2, 0.9), reach_dir=unit,
       shift=unit, at_hand_limit=st.booleans())
def test_burst_and_hand_decisions_match_the_kernels(radius, arm, reach_dir,
                                                    shift, at_hand_limit):
    params = TrajectoryParams(match_radius=radius)
    reach = np.array(reach_dir) / math.hypot(*reach_dir)
    head = np.array([0.0, 1.7, 0.0])
    track = reference_track(
        *skel_task([(0.0, frame(head=tuple(head), hand_right=tuple(head + 0.5 * reach)))],
                   t1=1.0), JOINTS, params)
    k = HAND_PROXIMITY_FACTOR if at_hand_limit else 1.0
    moved = head + k * radius * np.array(shift) / math.hypot(*shift)
    pose = frame(head=tuple(moved), hand_right=tuple(moved + arm * reach))
    ev = ActionEvaluator(track, t_start=0.0)
    feedback = [p for i in range(17) for p in ev.observe(i / 8, pose)]
    summary = ev.finalize(2.0)

    factor = summary.correction_factor
    rows, head = pose.positions, pose.positions[0]
    if factor != 1.0:
        rows = head + factor * (rows - head)
    d = rows - track.positions[0]
    bursts = bool(((d * d).sum(axis=1) <= radius * radius).all())
    assert summary.burst == (2 if bursts else 0)
    d = rows[1] - track.positions[0][1]
    near = math.sqrt(d.dot(d)) <= HAND_PROXIMITY_FACTOR * radius
    away = ("anomaly", "hand-position", "start") in feedback
    assert away == (not near and not bursts)
