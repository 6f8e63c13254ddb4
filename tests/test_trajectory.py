"""Key-frame matching, anomaly detection, and the streaming evaluator."""

import math

import numpy as np
import pytest

from ahtn.engine import build_reference_set
from ahtn.model import TrajectoryParams
from ahtn.telemetry import Event, ReferenceStats, SkeletonFrame, TaskSlice
from ahtn.trajectory import (ActionEvaluator, Anomaly, build_reference_track,
                             detect_anomalies, facing_direction, key_frame_count)

PARAMS = TrajectoryParams(joint_ids=("head", "hand-right"))
STATS = ReferenceStats(face_height=1.7, face_hand_distance=0.45,
                       hand_joint="hand-right")


def frame(**joints):
    fixed = {k.replace("_", "-"): v for k, v in joints.items()}
    names = tuple(fixed)
    return SkeletonFrame(names=names,
                         positions=np.array([fixed[n] for n in names], float))


def skel_slice(samples, t0=0.0, t1=10.0, user="u"):
    events = tuple(Event(t=t, user=user, payload=f) for t, f in samples)
    return TaskSlice(task_id="T", t0=t0, t1=t1, events=events)


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
    track = build_reference_track(skel_slice(samples), PARAMS)
    assert track.key_frames == 20
    expected = [math.ceil(k / 2) for k in range(20)]
    assert list(track.times) == expected
    assert track.positions.shape == (20, 2, 3)
    assert list(track.positions[:, 0, 2]) == expected  # head z tracks frame time


def test_reference_track_requires_joints():
    samples = [(0.0, frame(head=(0, 1.7, 0)))]
    with pytest.raises(ValueError, match="missing joint 'hand-right'"):
        build_reference_track(skel_slice(samples, t1=1.0), PARAMS)
    with pytest.raises(ValueError, match="no skeleton frames"):
        build_reference_track(skel_slice([], t1=1.0), PARAMS)


def test_reference_tracks_compare_by_identity(hydro_net, hydro_rec):
    first, second = (build_reference_set(hydro_net, [(hydro_rec, 1.0)])
                     .by_task["T1"][0].track for _ in range(2))
    assert np.array_equal(first.positions, second.positions)
    assert first == first
    assert first != second  # no elementwise array comparison


# -- matching -----------------------------------------------------------------
# through ActionEvaluator, the one matching path; the 1 s reference slice has
# two key frames, both targeting head (0, 1.7, 0) and hand-right (1, 1.7, 0)

def one_frame_reference():
    return skel_slice([(0.0, frame(head=(0, 1.7, 0), hand_right=(1, 1.7, 0)))],
                      t1=1.0)


def test_match_ball_is_closed():
    def bursts(head_x):
        f = frame(head=(head_x, 1.7, 0), hand_right=(1, 1.7, 0))
        # reference face-hand distance equal to the frame's: factor exactly 1
        exact = float(np.linalg.norm(f.position("head") - f.position("hand-right")))
        stats = ReferenceStats(face_height=1.7, face_hand_distance=exact,
                               hand_joint="hand-right")
        summary, _ = replay([(0.0, f), (0.1, f)], one_frame_reference(),
                            stats=stats)
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


# -- stepping and scoring -------------------------------------------------------
# through observe and finalize. PARKED sits 0.2 m off the 10 s line's first
# targets: it never bursts, and its hand stays within the hand-position
# limit (3 match radii); FALL is PARKED with the head below the fall line.
# Both keep the reference face-hand distance, so the correction factor is 1.

PARKED = frame(head=(0, 1.7, 0.2), hand_right=(0.45, 1.7, 0.2))
FALL = frame(head=(0, 0.3, 0.2), hand_right=(0.45, 1.7, 0.2))


def track_of(duration, params=PARAMS):
    return build_reference_track(skel_slice(straight_line(duration=duration),
                                            t1=duration), params)


def on_target(track, k):
    head, hand = track.positions[k]
    return frame(head=tuple(head), hand_right=tuple(hand))


def feed(ev, samples):
    """Observe (t, frame) pairs; the feedback of each observe call."""
    return [ev.observe(t, f) for t, f in samples]


def test_skip_is_strictly_greater_than_five_seconds():
    ev = ActionEvaluator("T", track_of(10.0), STATS, t_start=0.0)
    # warm-up frames, then one past the window that replays them
    assert feed(ev, [(t, PARKED) for t in (0.0, 0.5, 1.0, 2.0)]) == [[]] * 4
    assert ev.observe(5.0, PARKED) == [] and ev.missed == 0
    assert ev.observe(5.01, PARKED) == [("missed", 0)]
    assert (ev.missed, ev.cursor, ev.spawned_at) == (1, 1, 5.01)
    assert ev.finalize(5.01).spawned == 2


def test_burst_advances_cursor():
    track = track_of(10.0)
    ev = ActionEvaluator("T", track, STATS, t_start=0.0)
    assert ev.observe(0.0, on_target(track, 0)) == []  # warm-up
    assert ev.observe(1.1, PARKED) == [("burst", 0, 2)]
    assert (ev.burst, ev.cursor, ev.spawned_at) == (1, 1, 0.0)


def test_completed_evaluator_ignores_later_matches():
    track = track_of(1.0)  # K = 2
    ev = ActionEvaluator("T", track, STATS, t_start=0.0)
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
    ev = ActionEvaluator("T", track, STATS, t_start=0.0)
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
    ev = ActionEvaluator("T", track_of(10.0), STATS, t_start=0.0)
    feed(ev, [(0.0, PARKED), (1.1, PARKED), (1.6, FALL), (2.1, PARKED)])
    summary = ev.finalize(2.1)
    # burst 0/1 less one episode's penalty is below 0
    assert (summary.burst, summary.missed, len(summary.anomalies)) == (0, 1, 1)
    assert summary.score == 0.0


def test_score_aborted_and_empty():
    track = track_of(10.0)
    ev = ActionEvaluator("T", track, STATS, t_start=0.0)
    feedback = feed(ev, [(0.0, on_target(track, 0))]
                    + [(1.1 + 0.5 * i, FALL) for i in range(23)])
    assert [e for f in feedback for e in f if e[0] == "abort"] == [("abort", "fall")]
    summary = ev.finalize(12.1)
    assert summary.aborted and summary.burst == 1 and summary.score == 0.0

    idle = ActionEvaluator("T", track, STATS, t_start=0.0).finalize(3.0)
    assert (idle.burst, idle.missed, idle.spawned) == (0, 1, 1)
    assert idle.score == 0.0 and idle.correction_factor == 1.0


# -- anomalies ----------------------------------------------------------------

def test_facing_from_shoulders():
    f = frame(shoulder_left=(0.2, 1.5, 0), shoulder_right=(-0.2, 1.5, 0))
    assert np.allclose(facing_direction(f), [0, 0, 1])
    g = frame(shoulder_left=(-0.2, 1.5, 0), shoulder_right=(0.2, 1.5, 0))
    assert np.allclose(facing_direction(g), [0, 0, -1])


def test_facing_fallback_and_degenerate():
    f = frame(head=(0, 1.7, 0), head_forward=(0.6, 1.7, 0.8))
    assert np.allclose(facing_direction(f), [0.6, 0, 0.8])
    assert facing_direction(frame(head=(0, 1.7, 0))) is None
    collapsed = frame(shoulder_left=(0, 1.5, 0), shoulder_right=(0, 1.5, 0))
    assert facing_direction(collapsed) is None


def rotated_shoulders(angle):
    """Shoulder pair whose facing direction is `angle` away from +z."""
    c, s = math.cos(angle), math.sin(angle)
    left = np.array([0.2 * c, 1.5, -0.2 * s])
    return frame(head=(0, 1.7, 0), shoulder_left=tuple(left),
                 shoulder_right=tuple(-left + np.array([0, 3.0, 0])))


def window_of(f, span=0.6):
    return [(0.0, f), (span, f)]


def test_orientation_anomaly_threshold_is_ninety_degrees():
    for deg, expect in ((60, False), (90, False), (120, True), (180, True)):
        f = rotated_shoulders(math.radians(deg))
        facing = facing_direction(f)
        assert facing is not None
        kinds, warming, latest_facing = detect_anomalies(window_of(f), PARAMS,
                                                         STATS)
        assert not warming
        assert np.array_equal(latest_facing, facing)
        assert ("orientation" in kinds) is expect, deg


def test_fall_anomaly_uses_reference_face_height():
    # threshold: half of 1.7 m
    low = frame(head=(0, 0.84, 0))
    ok = frame(head=(0, 0.86, 0))
    assert "fall" in detect_anomalies(window_of(low), PARAMS, STATS)[0]
    assert "fall" not in detect_anomalies(window_of(ok), PARAMS, STATS)[0]


def test_hand_position_anomaly_needs_whole_window_away():
    target = {"hand-right": np.zeros(3)}
    far = frame(head=(0, 1.7, 0), hand_right=(0.35, 1.1, 0))
    near = frame(head=(0, 1.7, 0), hand_right=(0.25, 0, 0))
    kinds, _, _ = detect_anomalies(window_of(far), PARAMS, STATS, target)
    assert "hand-position" in kinds
    mixed = [(0.0, far), (0.3, near), (0.6, far)]
    kinds, _, _ = detect_anomalies(mixed, PARAMS, STATS, target)
    assert "hand-position" not in kinds  # one close sample clears it


def test_window_shorter_than_half_second_only_warms_up():
    f = frame(head=(0, 0.1, 0))  # would be a fall
    kinds, warming, facing = detect_anomalies([(0.0, f)], PARAMS, STATS)
    assert warming and kinds == set() and facing is None
    kinds, warming, _ = detect_anomalies([(0.0, f), (0.4, f)], PARAMS, STATS)
    assert warming


def test_anomaly_episode_lifecycle():
    ev = ActionEvaluator("T", track_of(10.0), STATS, t_start=0.0)
    assert feed(ev, [(0.0, PARKED), (1.1, PARKED), (1.6, FALL), (2.0, FALL),
                     (3.5, PARKED)]) == [
        [], [], [("anomaly", "fall", "start")], [], [("anomaly", "fall", "end")]]
    assert ev.anomalies == [Anomaly("fall", 1.6, 3.5)]
    assert ev.observe(4.0, FALL) == [("anomaly", "fall", "start")]
    summary = ev.finalize(4.5)  # closes the open episode at the end
    assert summary.anomalies == (Anomaly("fall", 1.6, 3.5), Anomaly("fall", 4.0, 4.5))


def test_abort_after_wait_is_strict():
    params = TrajectoryParams(joint_ids=PARAMS.joint_ids, skip_time=100.0)
    ev = ActionEvaluator("T", track_of(10.0, params), STATS, t_start=0.0)
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

def replay(samples, ref_slice, params=PARAMS, stats=STATS, t_start=0.0):
    ev = ActionEvaluator("T", build_reference_track(ref_slice, params), stats,
                         t_start=t_start)
    feedback = []
    for t, f in samples:
        feedback.extend(ev.observe(t, f))
    return ev.finalize(samples[-1][0]), feedback


def test_self_replay_bursts_every_target():
    samples = straight_line()
    sl = skel_slice(samples)
    summary, feedback = replay(samples, sl)
    assert summary.score == 1.0
    assert summary.burst == 20 and summary.missed == 0
    assert summary.correction_factor == 1.0
    assert not summary.aborted and summary.anomalies == ()
    assert sum(1 for e in feedback if e[0] == "burst") == 20
    assert [e for e in feedback if e[0] == "repetition"] == [("repetition", 1)]


def test_evaluator_is_deterministic():
    samples = straight_line()
    sl = skel_slice(samples)
    a, fa = replay(samples, sl)
    b, fb = replay(samples, sl)
    assert a == b and fa == fb


def test_evaluator_correction_lets_smaller_user_burst():
    ref = straight_line(arm=0.45)
    short = straight_line(arm=0.30)  # same head path, shorter reach
    summary, _ = replay(short, skel_slice(ref))
    assert summary.correction_factor == pytest.approx(1.5)
    assert summary.burst == 20 and summary.score == 1.0


def test_idle_user_misses_targets():
    sl = skel_slice(straight_line())
    away = [(t, frame(head=(5, 1.7, 0), hand_right=(5.45, 1.7, 0),
                      shoulder_left=(5.2, 1.5, 0), shoulder_right=(4.8, 1.5, 0)))
            for t in np.arange(0.0, 12.0, 0.1)]
    summary, feedback = replay(away, sl)
    assert summary.burst == 0
    assert summary.missed >= 2  # 12 s of idling retires at least two targets
    assert summary.score == 0.0
    assert any(e[0] == "missed" for e in feedback)


def test_finalize_counts_inflight_target_as_missed():
    sl = skel_slice(straight_line())
    away = [(t, frame(head=(5, 1.7, 0), hand_right=(5.45, 1.7, 0)))
            for t in np.arange(0.0, 3.0, 0.1)]
    summary, _ = replay(away, sl)
    # nothing retired naturally (3 s < skip time) but the open target counts
    assert summary.missed == 1 and summary.burst == 0
    assert summary.spawned == 1


def test_fall_anomaly_aborts_evaluator():
    sl = skel_slice(straight_line())
    floor = [(t, frame(head=(0.0, 0.2, 0.0), hand_right=(0.45, 0.2, 0.0),
                       shoulder_left=(0.2, 0.1, 0), shoulder_right=(-0.2, 0.1, 0)))
             for t in np.arange(0.0, 14.0, 0.1)]
    summary, feedback = replay(floor, sl)
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
    summary, feedback = replay(dipped, skel_slice(samples))
    assert not summary.aborted
    assert len(summary.anomalies) == 1
    assert summary.anomalies[0].kind == "fall"
    assert any(e == ("anomaly", "fall", "start") for e in feedback)
    assert any(e == ("anomaly", "fall", "end") for e in feedback)
    burst_ratio = summary.burst / (summary.burst + summary.missed)
    assert summary.score == pytest.approx(burst_ratio - 0.05)


def test_missing_tracked_joint_warns_once():
    sl = skel_slice(straight_line())
    headless = [(t, frame(hand_right=(0.45, 1.7, 0)))
                for t in np.arange(0.0, 2.0, 0.1)]
    summary, _ = replay(headless, sl)
    assert summary.burst == 0
    assert sum("cannot burst" in w for w in summary.warnings) == 1


def test_orientation_watch_disabled_without_shoulders_warns():
    samples = [(t, frame(head=(x, 1.7, 0), hand_right=(x + 0.45, 1.7, 0)))
               for t, (x,) in ((t, (0.3 * t / 10.0,)) for t in np.arange(0, 10.5, 0.1))]
    summary, _ = replay(samples, skel_slice(samples))
    assert any("orientation anomaly disabled" in w for w in summary.warnings)
    assert summary.score == 1.0  # still matches fine


def test_orientation_disabled_warning_appears_once():
    def warnings(**extra):
        samples = [(t, frame(head=(0.03 * t, 1.7, 0),
                             hand_right=(0.03 * t + 0.45, 1.7, 0), **extra))
                   for t in np.arange(0, 10.5, 0.1)]
        summary, _ = replay(samples, skel_slice(samples))
        return [w for w in summary.warnings if w.startswith("orientation")]

    assert warnings() == [
        "orientation anomaly disabled: no shoulder or head-forward joints"]
    assert warnings(head_forward=(0, 1.7, 1)) == []


def test_headless_frame_after_correction_is_skipped():
    stats = ReferenceStats(face_height=1.7, face_hand_distance=0.6,
                           hand_joint="hand-right")
    ref = skel_slice([(0.0, frame(head=(0, 1.7, 0), hand_right=(0.6, 1.7, 0)))],
                     t1=2.0)
    warm = [(0.1 * i, frame(head=(0, 1.7, 0), hand_right=(0.4, 1.7, 0)))
            for i in range(12)]
    headless = [(1.2, frame(hand_right=(0.4, 1.7, 0))),
                (1.3, frame(hand_right=(0.4, 1.7, 0)))]
    summary, feedback = replay(warm + headless, ref, stats=stats)
    assert summary.correction_factor == pytest.approx(1.5)
    assert summary.warnings.count(
        "frames without head skipped: cannot height-correct") == 1
    # skipped outright: the same outcome as never seeing those frames
    plain, plain_feedback = replay(warm, ref, stats=stats)
    assert feedback == plain_feedback
    assert (summary.burst, summary.missed, summary.anomalies) == (
        plain.burst, plain.missed, plain.anomalies)
