"""Task-level checks: oracle values, clamping, and reference selection."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ahtn import engine
from ahtn.checks import (CheckResult, Feature, TaskSamples, TaskScore,
                         attachment_score, collision_score, described,
                         evaluate_task_level, feature_key, mean_quaternion,
                         orientation_measure, position_measure,
                         quaternion_angle, run_check, text_input_measure,
                         vector_norm)
from ahtn.model import (AssessmentSpec, CheckSpec, Defaults, is_joint_id,
                        parse_network)
from ahtn.telemetry import (Attach, Collision, Event, Pose, SessionRecording,
                            SkeletonFrame, TaskMark, TextInput)
from conftest import held_objects, reduce_reference


def reduced(events, checks, t0=0.0, t1=10.0):
    """A TaskSamples for checks that reads every event about a check's
    subject, fed the events in time order and ended at t1."""
    subjects = [c.subject for c in checks]
    samples = TaskSamples(checks, subjects, any(map(is_joint_id, subjects)), t0)
    for e in sorted(events, key=lambda e: e.t):
        samples.add(e)
    samples.t1 = t1
    return samples


CUP_IN_HAND = CheckSpec(kind="attachment", subject="cup", reference_object="hand")
CUP_HITS = CheckSpec(kind="collision", subject="cup")


def pose(t, obj, pos, quat=(0.0, 0.0, 0.0, 1.0)):
    return Event(t=t, user="u", payload=Pose(obj, tuple(pos), tuple(quat)))


def attach(t, obj, target, on):
    return Event(t=t, user="u", payload=Attach(obj, target, on))


def collide(t, obj, other):
    return Event(t=t, user="u", payload=Collision(obj, other))


def text(t, field, value):
    return Event(t=t, user="u", payload=TextInput(field, value))


def ref(events, quality=1.0, t0=0.0, t1=10.0):
    return reduce_reference(events, quality, t0, t1)


def against(user_events, reference, spec):
    """The CheckResult evaluate_task_level gives spec, alone in its task,
    on a user's events against one reference."""
    node = dataclasses.replace(node_with(["collision subject=cup"]),
                               assessment=AssessmentSpec("task-level", (spec,)))
    out = evaluate_task_level(node, reduced(user_events, [spec]), [reference])
    return out.checks[0]


def measured(measure, user_events, reference, spec, tol=1.0):
    """A check's measure of spec's features of a user's events and of a
    reference."""
    key = feature_key(spec)
    return measure(reduced(user_events, [spec]).features()[key],
                   reference.features[key], spec, tol)


def evaluate(node, user_events, refs):
    """evaluate_task_level on a user's events reduced for node's checks."""
    return evaluate_task_level(
        node, reduced(user_events, node.assessment.checks), refs)


def zrot(angle):
    """Quaternion for a rotation about +y... no: about +z, scalar last."""
    return (0.0, 0.0, math.sin(angle / 2), math.cos(angle / 2))


def node_with(check_lines, objects="cup dish field"):
    lines = ["task T", "  kind primitive", "  user single u", "  weight 1.0",
             f"  objects {objects}", "  assess task-level"]
    lines += [f"  check {c}" for c in check_lines]
    lines += ["  feedback final", "end"]
    return parse_network("\n".join(lines) + "\n").nodes["T"]


# -- quaternion helpers ------------------------------------------------------

def test_quaternion_angle_basics():
    ident = np.array([0, 0, 0, 1.0])
    assert quaternion_angle(ident, ident) == 0.0
    assert quaternion_angle(ident, -ident) == 0.0  # double cover
    q90 = np.array(zrot(math.pi / 2))
    assert quaternion_angle(ident, q90) == pytest.approx(math.pi / 2, rel=1e-12)


def test_quaternion_angle_stays_accurate_for_tiny_rotations():
    tiny = 1e-8
    got = quaternion_angle(np.array([0, 0, 0, 1.0]), np.array(zrot(tiny)))
    assert got == pytest.approx(tiny, rel=1e-6)


def test_mean_quaternion_sign_alignment():
    q = np.array(zrot(0.4))
    mean = mean_quaternion(np.stack([q, -q, q]))
    assert np.allclose(np.abs(mean @ q), 1.0, atol=1e-12)


def test_mean_quaternion_is_unit_and_centered():
    rng = random.Random(3)
    for _ in range(50):
        center = rng.uniform(0, math.pi)
        quats = np.stack([np.array(zrot(center + rng.uniform(-0.2, 0.2)))
                          * rng.choice([1.0, -1.0]) for _ in range(9)])
        mean = mean_quaternion(quats)
        assert np.linalg.norm(mean) == pytest.approx(1.0, abs=1e-12)
        ang = quaternion_angle(mean, np.array(zrot(center)))
        assert ang < 0.25  # inside the sample cone despite sign flips


magnitudes = st.floats(min_value=1e-300, max_value=1e150)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((3, 4)).flatmap(lambda n: st.lists(
    st.tuples(magnitudes, st.booleans()), min_size=n, max_size=n)))
def test_vector_norm_is_numpys_norm_bit_for_bit(parts):
    v = np.array([-x if negative else x for x, negative in parts])
    assert vector_norm(v).hex() == float(np.linalg.norm(v)).hex()


def test_mean_quaternion_of_cancelling_samples_is_degenerate():
    # a zero quaternion first keeps every sign; the opposite samples cancel
    quats = np.array([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)], dtype=float)
    with pytest.raises(ValueError, match="^degenerate orientation mean$"):
        mean_quaternion(quats)


# -- orientation -------------------------------------------------------------

def test_orientation_halfway_at_45_degrees():
    user = [pose(1.0, "cup", (0, 0, 0), zrot(math.pi / 4))]
    r = ref([pose(1.0, "cup", (0, 0, 0))])
    spec = CheckSpec(kind="orientation", subject="cup")
    out = against(user, r, spec)
    assert out.score == pytest.approx(0.5, rel=1e-9)  # tol pi/2, angle pi/4


def test_orientation_custom_tol():
    user = [pose(1.0, "cup", (0, 0, 0), zrot(math.pi / 4))]
    r = ref([pose(1.0, "cup", (0, 0, 0))])
    spec = CheckSpec(kind="orientation", subject="cup", tol=math.pi / 4)
    assert against(user, r, spec).score == pytest.approx(0.0, abs=1e-9)


def test_orientation_identical_is_exactly_one():
    quats = [zrot(0.3), zrot(0.35), zrot(0.32)]
    evs = [pose(i * 0.1, "cup", (0, 0, 0), q) for i, q in enumerate(quats)]
    out = against(evs, ref(evs), CheckSpec(kind="orientation", subject="cup"))
    assert out.score == 1.0


def test_orientation_no_data():
    spec = CheckSpec(kind="orientation", subject="cup")
    with pytest.raises(ValueError, match="no data"):
        measured(orientation_measure, [], ref([pose(0, "cup", (0, 0, 0))]), spec)
    with pytest.raises(ValueError, match="no data"):
        measured(orientation_measure, [pose(0, "cup", (0, 0, 0))], ref([]), spec)


# -- position ----------------------------------------------------------------

def test_position_halfway_at_quarter_meter():
    user = [pose(1.0, "cup", (0.25, 0, 0))]
    r = ref([pose(1.0, "cup", (0, 0, 0))])
    out = against(user, r, CheckSpec(kind="position", subject="cup"))
    assert out.score == 0.5  # d 0.25 vs tol 0.5


def test_position_uses_means():
    user = [pose(0.0, "cup", (1.0, 0, 0)), pose(1.0, "cup", (-1.0, 0, 0))]
    r = ref([pose(0.0, "cup", (0, 0, 0))])
    out = against(user, r, CheckSpec(kind="position", subject="cup"))
    assert out.score == 1.0
    assert out.samples_used == 2


def test_position_shared_translation_cancels():
    rng = random.Random(5)
    for _ in range(20):
        u = [rng.uniform(-1, 1) for _ in range(3)]
        shift = np.array([rng.uniform(-9, 9) for _ in range(3)])
        spec = CheckSpec(kind="position", subject="cup")
        a = against([pose(0, "cup", u)],
                    ref([pose(0, "cup", (0, 0, 0))]), spec)
        b = against([pose(0, "cup", np.add(u, shift))],
                    ref([pose(0, "cup", shift)]), spec)
        assert a.score == pytest.approx(b.score, abs=1e-9)


def test_position_joint_subject_reads_skeleton():
    def sk(t, where):
        f = SkeletonFrame(names=("head",), positions=np.array([where], float))
        return Event(t=t, user="u", payload=f)

    user = [sk(0.0, (0.25, 1.7, 0))]
    r = ref([sk(0.0, (0.0, 1.7, 0))])
    out = against(user, r, CheckSpec(kind="position", subject="head"))
    assert out.score == 0.5


def test_position_beyond_tolerance_clamps_to_zero():
    user = [pose(0, "cup", (3.0, 0, 0))]
    r = ref([pose(0, "cup", (0, 0, 0))])
    spec = CheckSpec(kind="position", subject="cup")
    assert against(user, r, spec).score == 0.0


# -- attachment --------------------------------------------------------------

def test_attachment_eight_of_ten_seconds():
    evs = [pose(0.5, "cup", (0, 0, 0)),
           attach(1.0, "cup", "hand", True),
           attach(9.0, "cup", "hand", False)]
    out = attachment_score(reduced(evs, [CUP_IN_HAND]), CUP_IN_HAND)
    assert out.score == 0.8
    assert out.samples_used == 2


def test_attachment_backdates_hold_that_precedes_first_pose():
    # grabbed before the object ever moved: counts from slice start
    evs = [attach(2.0, "cup", "hand", True),
           pose(3.0, "cup", (0, 0, 0)),
           attach(5.0, "cup", "hand", False)]
    out = attachment_score(reduced(evs, [CUP_IN_HAND]), CUP_IN_HAND)
    assert out.score == 0.5  # 5 s, not 3 s


# an `on` counts from the slice start only when it comes strictly before
# the subject's first Pose; a Pose with the same timestamp, in either
# stream order, keeps it at its own time
BACKDATING_CASES = {
    "pose after on, same t": ([(2.0, "on"), (2.0, "pose")], 8.0),
    "pose before on, same t": ([(2.0, "pose"), (2.0, "on")], 8.0),
    "later pose": ([(2.0, "on"), (3.0, "pose")], 10.0),
    "no pose": ([(2.0, "on")], 10.0),
}


@pytest.mark.parametrize("case", BACKDATING_CASES)
def test_attachment_backdating_is_strictly_before_the_first_pose(case):
    steps, held = BACKDATING_CASES[case]
    events = [pose(t, "cup", (0, 0, 0)) if what == "pose"
              else attach(t, "cup", "hand", True) for t, what in steps]
    spec = CheckSpec(kind="attachment", subject="cup", reference_object="hand")
    detail = f"attached {held:.6f} s of 10.000000 s"
    assert attachment_score(reduced(events, [spec]), spec).detail == detail
    # the same events in the same order, routed live by a Session
    net = parse_network(
        "task T\n  kind primitive\n  user single u\n  weight 1.0\n"
        "  objects cup hand\n  assess task-level\n"
        "  check attachment subject=cup ref=hand\n  feedback final\nend\n")
    marks = [Event(0.0, "u", TaskMark("T", "start")),
             Event(10.0, "u", TaskMark("T", "end"))]
    rec = SessionRecording("s", (marks[0], *events, marks[1]))
    refs = engine.build_reference_set(net, [(rec, 1.0)])
    report = engine.score_recording(engine.EngineConfig(net, refs), rec)
    member = report.scope("u").entries[0].members[0]
    assert member.task_score.checks[0].detail == detail


def test_attachment_open_hold_runs_to_slice_end():
    evs = [pose(0.1, "cup", (0, 0, 0)), attach(4.0, "cup", "hand", True)]
    out = attachment_score(reduced(evs, [CUP_IN_HAND]), CUP_IN_HAND)
    assert out.score == pytest.approx(0.6)


def test_attachment_ignores_other_pairs():
    evs = [pose(0.1, "cup", (0, 0, 0)),
           attach(1.0, "cup", "table", True),
           attach(2.0, "dish", "hand", True)]
    out = attachment_score(reduced(evs, [CUP_IN_HAND]), CUP_IN_HAND)
    assert out.score == 0.0


@pytest.mark.parametrize("states,msg", [
    ((True, True), "on while attached"),
    ((False,), "off while detached"),
])
def test_attachment_alternation_enforced(states, msg):
    evs = [pose(0.1, "cup", (0, 0, 0))]
    evs += [attach(1.0 + i, "cup", "hand", s) for i, s in enumerate(states)]
    with pytest.raises(ValueError, match=msg):
        attachment_score(reduced(evs, [CUP_IN_HAND]), CUP_IN_HAND)


def test_attachment_full_duration_saturates_at_one():
    evs = [attach(0.0, "cup", "hand", True)]
    out = attachment_score(reduced(evs, [CUP_IN_HAND]), CUP_IN_HAND)
    assert out.score == 1.0


# -- collision ---------------------------------------------------------------

def test_collision_three_hits():
    evs = [collide(float(i), "cup", "table") for i in range(3)]
    out = collision_score(reduced(evs, [CUP_HITS]), CUP_HITS)
    assert out.score == pytest.approx(0.97)
    assert out.samples_used == 3


def test_collision_many_hits_clamp_to_zero():
    evs = [collide(i * 0.01, "cup", "table") for i in range(200)]
    out = collision_score(reduced(evs, [CUP_HITS]), CUP_HITS)
    assert out.score == 0.0


def test_collision_filters_by_other_object():
    evs = [collide(0, "cup", "table"), collide(1, "cup", "wall"),
           collide(2, "dish", "table")]
    spec = CheckSpec(kind="collision", subject="cup", reference_object="table")
    assert collision_score(reduced(evs, [spec]), spec).samples_used == 1


def test_collision_penalty_sources():
    evs = [collide(float(i), "cup", "t") for i in range(5)]
    spec = CheckSpec(kind="collision", subject="cup", penalty=0.1)
    assert collision_score(reduced(evs, [spec]), spec).score == pytest.approx(0.5)
    # engine-level override beats the per-check penalty
    overridden = collision_score(reduced(evs, [spec]), spec,
                                 Defaults(collision_penalty=0.02))
    assert overridden.score == pytest.approx(0.9)


def test_collision_no_events_is_perfect():
    out = collision_score(reduced([], [CUP_HITS]), CUP_HITS)
    assert out.score == 1.0


# -- text input --------------------------------------------------------------

def test_text_numeric_within_tol():
    user = [text(1.0, "field", "1.255")]
    r = ref([text(1.0, "field", "1.25")])
    out = against(user, r, CheckSpec(kind="text-input", subject="field"))
    assert out.score == 1.0


def test_text_numeric_ramp_past_tol():
    user = [text(1.0, "field", "1.265")]
    r = ref([text(1.0, "field", "1.25")])
    out = against(user, r, CheckSpec(kind="text-input", subject="field"))
    assert out.score == pytest.approx(0.5, abs=1e-10)  # d 1.5x tol


def test_text_numeric_zero_past_double_tol():
    user = [text(1.0, "field", "1.30")]
    r = ref([text(1.0, "field", "1.25")])
    out = against(user, r, CheckSpec(kind="text-input", subject="field"))
    assert out.score == 0.0


def test_text_last_value_wins():
    user = [text(1.0, "field", "9.9"), text(2.0, "field", "1.25")]
    r = ref([text(1.0, "field", "1.25")])
    out = against(user, r, CheckSpec(kind="text-input", subject="field"))
    assert out.score == 1.0
    assert out.samples_used == 2


def test_text_string_reference_needs_exact_match():
    r = ref([text(1.0, "field", "blue litmus")])
    spec = CheckSpec(kind="text-input", subject="field")
    assert against([text(0, "field", "blue litmus")], r, spec).score == 1.0
    assert against([text(0, "field", "Blue litmus")], r, spec).score == 0.0


def test_text_unparsable_numeric_input_scores_zero():
    user = [text(1.0, "field", "dunno")]
    r = ref([text(1.0, "field", "1.25")])
    out = against(user, r, CheckSpec(kind="text-input", subject="field"))
    assert out.score == 0.0
    assert "unparsable" in out.detail


def test_text_no_data():
    spec = CheckSpec(kind="text-input", subject="field")
    with pytest.raises(ValueError, match="no data"):
        measured(text_input_measure, [], ref([text(0, "field", "1")]), spec)


# -- reduction ---------------------------------------------------------------

def listed_features(events, checks):
    """What TaskSamples.features gives, from each subject's samples kept
    as a list of rows and reduced by numpy: the reference the flat buffers
    are held to."""
    quats = {c.subject: [] for c in checks if c.kind == "orientation"}
    rows = {c.subject: [] for c in checks if c.kind == "position"}
    texts = {c.subject: [] for c in checks if c.kind == "text-input"}
    for e in events:
        p = e.payload
        if isinstance(p, Pose):
            if p.object_id in quats:
                quats[p.object_id].append(p.orientation)
            if p.object_id in rows:
                rows[p.object_id].append(p.position)
        elif isinstance(p, SkeletonFrame):
            for joint in rows:
                if joint in p.names:
                    rows[joint].append(p.positions[p.names.index(joint)])
        elif isinstance(p, TextInput) and p.field_id in texts:
            texts[p.field_id].append(p.value)
    out = {}
    for subject, quat_rows in quats.items():
        try:
            value = mean_quaternion(np.asarray(quat_rows)) if quat_rows else None
            out["orientation", subject] = Feature(len(quat_rows), value)
        except ValueError as e:
            out["orientation", subject] = Feature(len(quat_rows), error=str(e))
    for subject, position_rows in rows.items():
        out["position", subject] = Feature(
            len(position_rows),
            np.asarray(position_rows, dtype=np.float64).mean(axis=0)
            if position_rows else None)
    for subject, values in texts.items():
        number = None
        if values:
            try:
                number = float(values[-1])
            except ValueError:
                pass
            number = number if number is not None and math.isfinite(number) else None
        out["text-input", subject] = Feature(
            len(values), values[-1] if values else None, number)
    return out


FEATURE_CHECKS = [CheckSpec(kind="orientation", subject="cup"),
                  CheckSpec(kind="position", subject="cup"),
                  CheckSpec(kind="position", subject="head"),
                  CheckSpec(kind="position", subject="hand-right"),
                  CheckSpec(kind="text-input", subject="field")]
# the frames alternate between layouts; the second lacks hand-right
LAYOUTS = (("head", "hand-right"), ("spine", "head"), ("hand-right", "spine", "head"))
TEXT_VALUES = ("1.25", "blue", "-0.0", "inf", "7")


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((1, 2, 5, 2000)), seed=st.integers(0, 2**32 - 1),
       kinds=st.sets(st.sampled_from(("pose", "skel", "text")), min_size=1))
@example(n=1, seed=0, kinds={"pose", "skel", "text"})
@example(n=2000, seed=1, kinds={"pose", "skel", "text"})
def test_features_equal_the_list_reduction_bit_for_bit(n, seed, kinds):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    positions = (rng.standard_normal((n, 3)) * scale).tolist()
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    # every frame a row view of one block array, as parse_session makes them
    block = rng.standard_normal((n, 3, 3)) * scale[:, :, None]
    events = []
    for i in range(n):
        t = 0.001 * i
        if "pose" in kinds:
            events.append(pose(t, "cup", positions[i], quats[i].tolist()))
        if "skel" in kinds:
            names = LAYOUTS[i % len(LAYOUTS)]
            frame = SkeletonFrame(names, block[i, :len(names)])
            assert frame.positions.base is block
            events.append(Event(t=t, user="u", payload=frame))
        if "text" in kinds:
            events.append(text(t, "field", TEXT_VALUES[(i + seed) % len(TEXT_VALUES)]))
    samples = reduced(events, FEATURE_CHECKS)
    # the samples are copied out: no array, so no parse block, is kept
    assert not any(isinstance(obj, np.ndarray) for obj in held_objects(samples))
    got, want = samples.features(), listed_features(events, FEATURE_CHECKS)
    assert list(got) == list(want)
    for key, feature in got.items():
        expected = want[key]
        assert (feature.samples, feature.number, feature.error) == (
            expected.samples, expected.number, expected.error), key
        if isinstance(expected.value, np.ndarray):
            assert feature.value.dtype == np.float64
            assert feature.value.tobytes() == expected.value.tobytes(), key
        else:
            assert feature.value == expected.value, key
    assert got["position", "hand-right"].samples == (
        0 if "skel" not in kinds else n - n // 3 - (n % 3 == 2))


# -- run_check wrapper -------------------------------------------------------

def test_run_check_turns_errors_into_zero():
    evs = [pose(0.5, "cup", (0, 0, 0)), attach(1.0, "cup", "hand", True),
           attach(2.0, "cup", "hand", False), collide(3.0, "cup", "t")]
    samples = reduced(evs, [CUP_IN_HAND, CUP_HITS])
    assert run_check(CUP_IN_HAND, samples) == CheckResult(
        "attachment", 0.1, "attached 1.000000 s of 10.000000 s", 2)
    assert run_check(CUP_HITS, samples) == CheckResult(
        "collision", 0.99, "1 collisions, penalty 0.01", 1)
    assert run_check(CUP_HITS, samples, Defaults(collision_penalty=0.5)) == (
        CheckResult("collision", 0.5, "1 collisions, penalty 0.5", 1))
    # an off while detached
    detached = reduced(evs[2:], [CUP_IN_HAND])
    assert run_check(CUP_IN_HAND, detached) == CheckResult(
        "attachment", 0.0, "error: attach state mismatch: off while detached")


# -- combination and reference selection --------------------------------------

def test_check_weights_combine():
    node = node_with(["collision subject=cup cweight=1.0",
                      "collision subject=dish cweight=3.0"])
    evs = [collide(float(i) * 0.1, "dish", "t") for i in range(40)]
    out = evaluate(node, evs, [ref([])])
    assert out.omega == pytest.approx(0.7)  # (1*1.0 + 3*0.6) / 4


def test_quality_scales_omega():
    node = node_with(["collision subject=cup"])
    out = evaluate(node, [], [ref([], quality=0.9)])
    assert out.omega == pytest.approx(0.9)
    assert out.reference_quality == 0.9


def test_best_reference_wins():
    node = node_with(["position subject=cup"])
    user = [pose(0, "cup", (2.0, 0, 0))]
    far = ref([pose(0, "cup", (0, 0, 0))], quality=1.0)
    near = ref([pose(0, "cup", (2.0, 0, 0))], quality=0.8)
    out = evaluate(node, user, [far, near])
    assert out.reference_index == 1
    assert out.omega == pytest.approx(0.8)


def test_reference_tie_keeps_first():
    node = node_with(["position subject=cup"])
    user = [pose(0, "cup", (0, 0, 0))]
    same = [ref([pose(0, "cup", (0, 0, 0))]), ref([pose(0, "cup", (0, 0, 0))])]
    assert evaluate(node, user, same).reference_index == 0


def test_evaluate_requires_reference():
    node = node_with(["position subject=cup"])
    with pytest.raises(ValueError, match="no reference"):
        evaluate(node, [], [])


def test_scores_stay_in_unit_interval_on_random_streams():
    rng = random.Random(99)
    node = node_with([
        "orientation subject=cup", "position subject=cup",
        "attachment subject=cup ref=hand", "collision subject=cup",
        "text-input subject=field",
    ])

    def rand_events():
        evs = [pose(0.0, "cup", [rng.uniform(-2, 2) for _ in range(3)])]
        t = 0.1
        held = False
        while t < 9.5:
            r = rng.random()
            if r < 0.5:
                axis = rng.uniform(0, math.tau)
                evs.append(pose(t, "cup", [rng.uniform(-2, 2) for _ in range(3)],
                                zrot(axis)))
            elif r < 0.7:
                held = not held
                evs.append(attach(t, "cup", "hand", held))
            elif r < 0.9:
                evs.append(collide(t, "cup", "table"))
            else:
                evs.append(text(t, "field", f"{rng.uniform(0, 3):.3f}"))
            t += rng.uniform(0.05, 0.4)
        return evs

    for _ in range(30):
        user, r = rand_events(), ref(rand_events())
        out = evaluate(node, user, [r])
        assert 0.0 <= out.omega <= 1.0
        assert [c.kind for c in out.checks] == [
            "orientation", "position", "attachment", "collision", "text-input"]
        for c in out.checks:
            assert 0.0 <= c.score <= 1.0


def _degenerate_orientation_events():
    # a zero quaternion first: sign alignment keeps every sample, and the
    # opposite unit samples then cancel to a zero mean
    return [pose(0.0, "cup", (0, 0, 0), (0, 0, 0, 0)),
            pose(1.0, "cup", (0, 0, 0), (0, 0, 0, 1)),
            pose(2.0, "cup", (0, 0, 0), (0, 0, 0, -1))]


def test_many_references_give_the_best_single_reference_result():
    node = node_with([
        "orientation subject=cup", "position subject=cup cweight=2.0",
        "attachment subject=cup ref=hand", "collision subject=cup",
        "text-input subject=field",
    ])
    user = [pose(0.5, "cup", (0.1, 0, 0), zrot(0.2)),
                    attach(1.0, "cup", "hand", True),
                    pose(2.0, "cup", (0.3, 0, 0), zrot(0.3)),
                    attach(6.0, "cup", "hand", False),
                    collide(7.0, "cup", "table"),
                    text(8.0, "field", "1.26")]
    refs = [
        ref([pose(0.5, "cup", (0.2, 0, 0), zrot(0.25)),
             text(3.0, "field", "1.25")], quality=0.9),
        ref([text(3.0, "field", "1.25")]),                   # lacks the cup
        ref(_degenerate_orientation_events() + [text(3.0, "field", "1.25")]),
        ref([pose(0.5, "cup", (0.2, 0, 0), zrot(0.25)),
             text(3.0, "field", "1.27")], quality=0.95),
        ref([pose(0.5, "cup", (0.2, 0, 0), zrot(0.25)),
             text(3.0, "field", "1.25")], quality=0.9),      # ties the first
        ref([pose(0.5, "cup", (0.9, 0, 0), zrot(1.5)),
             text(3.0, "field", "blue")]),
    ]
    singles = [evaluate(node, user, [r]) for r in refs]
    # all six: the 0.95-quality reference wins; without it, the first of
    # the two tied 0.9-quality references does
    for subset, expected in (([0, 1, 2, 3, 4, 5], 3), ([0, 1, 2, 4, 5], 0)):
        out = evaluate(node, user, [refs[i] for i in subset])
        best = max(range(len(subset)),
                   key=lambda k: (singles[subset[k]].omega, -k))
        assert subset[best] == expected
        assert out.reference_index == best
        assert out.omega == singles[expected].omega
        assert out.reference_quality == refs[expected].quality
        assert out.checks == singles[expected].checks
    # the non-winning single-reference calls still carry their own errors
    assert singles[1].checks[0].detail == (
        "error: no data: no reference Pose events for 'cup'")
    assert singles[1].checks[1].detail == (
        "error: no data: no reference positions for 'cup'")
    assert singles[2].checks[0].detail == "error: degenerate orientation mean"
    assert [c.kind for c in out.checks] == [
        "orientation", "position", "attachment", "collision", "text-input"]


def test_degenerate_learner_orientation_is_an_error_for_every_reference():
    node = node_with(["orientation subject=cup"])
    user = _degenerate_orientation_events()
    out = evaluate(node, user, [ref([pose(0, "cup", (0, 0, 0))]),
                                           ref([])])
    assert out.reference_index == 0 and out.omega == 0.0
    assert out.checks[0].detail == "error: degenerate orientation mean"
    assert out.checks[0].samples_used == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "infinity", "1e999"])
def test_non_finite_text_reference_scores_one_against_itself(value):
    node = node_with(["text-input subject=field"])
    out = evaluate(node, [text(1.0, "field", value)],
                              [ref([text(1.0, "field", value)])])
    assert out.omega == 1.0
    assert out.checks[0].detail == f"string match {value!r} vs {value!r}"


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_learner_text_against_a_number_is_unparsable(value):
    node = node_with(["text-input subject=field"])
    out = evaluate(node, [text(1.0, "field", value)],
                              [ref([text(1.0, "field", "1.25")])])
    assert out.omega == 0.0
    assert out.checks[0].detail == f"unparsable numeric input {value!r}"
    assert out.checks[0].samples_used == 1


def test_each_reference_is_read_once_across_sessions(monkeypatch):
    node = node_with(["orientation subject=cup", "position subject=cup",
                      "collision subject=cup", "text-input subject=field"])
    reads: list[int] = []
    reducers = []  # keeps every read reducer alive, so no two share an id
    features = TaskSamples.features

    def counting(samples):
        reads.append(id(samples))
        reducers.append(samples)
        return features(samples)

    monkeypatch.setattr(TaskSamples, "features", counting)
    refs = [ref([pose(0.5, "cup", (0.1 * i, 0, 0), zrot(0.1 * i)),
                 text(1.0, "field", "1.25")]) for i in range(4)]
    ref_reducers = list(reads)  # the reducer each reference was built from
    sessions = [reduced([pose(0.5, "cup", (0.2, 0, 0), zrot(x)),
                         text(1.0, "field", "1.26")], node.assessment.checks)
                for x in (0.1, 0.2, 0.3)]
    for user in sessions:
        evaluate_task_level(node, user, refs)
    assert [reads.count(i) for i in ref_reducers] == [1, 1, 1, 1]
    assert [reads.count(id(user)) for user in sessions] == [1, 1, 1]
    assert len(reads) == 4 + 3


# -- the per-reference oracle -------------------------------------------------

def oracle_result(c, samples, user, r, defaults):
    """Check c's CheckResult against reference r, a ValueError scoring 0."""
    try:
        if c.kind == "attachment":
            return attachment_score(samples, c)
        if c.kind == "collision":
            return collision_score(samples, c, defaults)
        measure, default = {
            "orientation": (orientation_measure, defaults.orientation_tol),
            "position": (position_measure, defaults.position_tol),
            "text-input": (text_input_measure, defaults.text_tol),
        }[c.kind]
        key = feature_key(c)
        tol = c.tol if c.tol is not None else default
        return described(c.kind, user[key],
                         measure(user[key], r.features[key], c, tol))
    except ValueError as e:
        return CheckResult(c.kind, 0.0, f"error: {e}")


def oracle(node, samples, refs, defaults=Defaults()):
    """The exhaustive per-reference loop evaluate_task_level prunes: every
    check as a CheckResult against every reference, in refs order, the
    first best kept."""
    checks = node.assessment.checks
    user = samples.features()
    total_w = sum(c.check_weight for c in checks)
    best = None
    for index, r in enumerate(refs):
        results = tuple(oracle_result(c, samples, user, r, defaults)
                        for c in checks)
        if total_w == 0:
            omega = 0.0
        else:
            omega = sum(c.check_weight * res.score
                        for c, res in zip(checks, results)) / total_w
        omega *= r.quality
        if best is None or omega > best.omega:
            best = TaskScore(omega=omega, checks=results, reference_index=index,
                             reference_quality=r.quality)
    return best


ORACLE_CHECKS = (
    "orientation subject=cup", "orientation subject=dish tol=0.2",
    "position subject=cup", "position subject=dish tol=0.05",
    "text-input subject=field", "text-input subject=field tol=0.1",
    "attachment subject=cup ref=hand", "collision subject=cup",
)
POSITIONS = ((0.0, 0.0, 0.0), (0.2, 0.0, 0.0), (0.1, 0.3, -0.2), (2.0, 0.0, 0.0))
TURNS = (0.0, 0.3, 1.0, 3.0)
TEXTS = ("1.25", "1.26", "1.3", "0", "blue", "abc", "inf", "-inf", "nan", "1e999")

# an object's poses: none, samples whose orientations cancel, or 1-3 poses
# drawn from POSITIONS and TURNS; a performance is the cup's, the dish's
# and the field's last text value, if any
object_poses = (st.none() | st.just("degenerate")
                | st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=3))
performances = st.tuples(object_poses, object_poses,
                         st.none() | st.sampled_from(TEXTS))


def performed(cup, dish, value):
    """The events of a performance, with one hold of the cup and one hit."""
    events = [attach(1.0, "cup", "hand", True), attach(6.0, "cup", "hand", False),
              collide(7.0, "cup", "table")]
    for obj, poses in (("cup", cup), ("dish", dish)):
        if poses == "degenerate":
            events += [pose(2.0 + i, obj, (0, 0, 0), q) for i, q in
                       enumerate(((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)))]
        elif poses is not None:
            events += [pose(0.5 + i, obj, POSITIONS[p], zrot(TURNS[q]))
                       for i, (p, q) in enumerate(poses)]
    if value is not None:
        events.append(text(8.0, "field", value))
    return events


@settings(max_examples=150, deadline=None)
@given(checks=st.lists(st.tuples(st.sampled_from(ORACLE_CHECKS),
                                 st.sampled_from((0.0, 0.3, 0.7, 1.0, 2.5))),
                       min_size=1, max_size=6),
       user=performances,
       pool=st.lists(performances, min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3),
                                st.sampled_from((0.0, 0.5, 0.9, 1.0))),
                      min_size=1, max_size=20))
# zero total cweight: every reference scores 0 and the first wins
@example(checks=[("position subject=cup", 0.0), ("collision subject=cup", 0.0)],
         user=([(1, 1)], None, None), pool=[([(0, 0)], None, None)],
         picks=[(0, 0.5), (0, 1.0)])
# every quality 0: nothing is pruned, and the first wins
@example(checks=[("position subject=cup", 1.0)],
         user=([(1, 1)], None, None), pool=[([(0, 0)], None, None),
                                             ([(1, 1)], None, None)],
         picks=[(0, 0.0), (1, 0.0), (1, 0.0)])
# a lower-quality reference outscores the higher ones
@example(checks=[("position subject=cup", 1.0)],
         user=([(3, 0)], None, None),
         pool=[([(0, 0)], None, None), ([(3, 0)], None, None)],
         picks=[(0, 1.0), (0, 0.9), (1, 0.5), (1, 0.9), (0, 0.0), (1, 0.5)])
# a full match at 0.5 ties a half match at 1.0; measured second, it wins
# for its lower index
@example(checks=[("position subject=cup", 1.0), ("position subject=dish", 1.0)],
         user=([(3, 0)], [(3, 0)], None),
         pool=[([(3, 0)], [(3, 0)], None), ([(3, 0)], [(0, 0)], None)],
         picks=[(0, 0.5), (1, 1.0)])
# no learner samples, and a learner text that is not a number against a
# number, a word and inf; the references lack the cup or cancel
@example(checks=[(c, 1.0) for c in ORACLE_CHECKS],
         user=(None, "degenerate", "blue"),
         pool=[(None, [(0, 0)], "1.25"), ("degenerate", None, "blue"),
               ([(1, 2)], [(3, 3)], "inf")],
         picks=[(0, 0.9), (1, 1.0), (2, 1.0), (1, 1.0), (0, 0.9)])
# twenty references in five tie groups of equal performance and quality
@example(checks=[(c, 1.0) for c in ORACLE_CHECKS],
         user=([(1, 1), (2, 0)], [(0, 0)], "1.26"),
         pool=[([(1, 1)], [(0, 0)], "1.25"), ([(0, 1)], [(0, 0)], "1.3"),
               ([(2, 0)], [(0, 1)], "1.26"), (None, None, None)],
         picks=[(i % 4, (0.9, 1.0)[i % 5 == 2]) for i in range(20)])
def test_evaluate_task_level_equals_the_per_reference_oracle(checks, user, pool, picks):
    lines = [f"{line} cweight={w}" for line, w in checks]
    node = node_with(lines)
    samples = reduced(performed(*user), node.assessment.checks)
    refs = [reduce_reference(performed(*pool[i % len(pool)]), quality,
                             checks=lines) for i, quality in picks]
    got = evaluate_task_level(node, samples, refs)
    want = oracle(node, samples, refs)
    assert got == want
    assert got.omega.hex() == want.omega.hex()
    assert repr(got) == repr(want)  # and the signs of zeros


class ReadFeatures(dict):
    """A reference's features that log each reference read into reads."""

    def __init__(self, features, name, reads):
        super().__init__(features)
        self.name, self.reads = name, reads

    def __getitem__(self, key):
        self.reads.append(self.name)
        return super().__getitem__(key)


def test_scan_stops_once_no_reference_can_win():
    node = node_with(["position subject=cup"])
    user = [pose(0, "cup", (2.0, 0, 0))]
    reads = []

    def logged(name, where, quality):
        r = ref([pose(0, "cup", where)], quality)
        return dataclasses.replace(r, features=ReadFeatures(r.features, name, reads))

    # far scores 0; near scores 1, so its 0.8 beats every quality below it
    refs = [logged("low", (2.0, 0, 0), 0.7), logged("far", (0, 0, 0), 1.0),
            logged("near", (2.0, 0, 0), 0.8), logged("same", (2.0, 0, 0), 0.8),
            logged("zero", (2.0, 0, 0), 0.0)]
    out = evaluate_task_level(node, reduced(user, node.assessment.checks), refs)
    assert (out.reference_index, out.omega, out.reference_quality) == (2, 0.8, 0.8)
    assert out.checks[0].score == 1.0
    # descending quality, equals in refs order; "same" ties, so it is read
    assert reads == ["far", "near", "same"]
    # sixteen references of qualities in [0.6, 1], as live-class's: one
    # matched at the top quality settles it
    reads.clear()
    qualities = [0.6 + 0.4 * k / 15 for k in (3, 15, 0, 7, 12, 1, 9, 4, 14, 2,
                                              10, 6, 13, 5, 11, 8)]
    refs = [logged(i, (2.0, 0, 0), q) for i, q in enumerate(qualities)]
    out = evaluate_task_level(node, reduced(user, node.assessment.checks), refs)
    assert (out.reference_index, out.omega, reads) == (1, 1.0, [1])
