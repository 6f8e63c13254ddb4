"""Session routing, feedback gating, aggregation, and report assembly."""

import functools
import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ahtn import fixtures
from ahtn.engine import (Defaults, EngineConfig, Session, aggregate,
                         build_reference_set, score_recording)
from ahtn.checks import FEATURE_KINDS, CheckDefaults
from ahtn.model import parse_network, with_trajectory_defaults
from ahtn.report import render_report
from ahtn.telemetry import (Event, SessionRecording, SkeletonFrame, TaskMark,
                            TextInput, parse_event_line, parse_session,
                            serialize_recording)


def cfg(net, refs, **kw):
    return EngineConfig(network=net, references=refs, **kw)


def drop_marks(rec, task_id, edges=("start", "end")):
    events = tuple(e for e in rec.events
                   if not (isinstance(e.payload, TaskMark)
                           and e.payload.task_id == task_id
                           and e.payload.edge in edges))
    return SessionRecording(session_id=rec.session_id, user_ids=rec.user_ids,
                            events=events)


# -- aggregation --------------------------------------------------------------

def test_aggregate_examples():
    assert aggregate([0.3, 0.2, 0.3, 0.2], [0.4, 0.1, 0.5, 0.4]) == pytest.approx(0.37)
    assert aggregate([0.3, 0.2, 0.3, 0.2], [1.0, 1.0, 1.0, 1.0]) == 1.0
    assert aggregate([2, 2, 2], [0.6, 0.7, 0.8]) == pytest.approx(0.7)
    assert aggregate([1, 3], [0.5, 0.82]) == pytest.approx(0.74)


def test_aggregate_scale_invariance():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        w = [rng.uniform(0.01, 5) for _ in range(n)]
        o = [rng.random() for _ in range(n)]
        k = rng.uniform(0.1, 40)
        assert aggregate(w, o) == pytest.approx(aggregate([k * x for x in w], o),
                                                abs=1e-12)


def test_aggregate_errors():
    with pytest.raises(ValueError, match="equal length"):
        aggregate([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="nothing to aggregate"):
        aggregate([], [])
    with pytest.raises(ValueError, match="negative"):
        aggregate([1.0, -0.1], [0.5, 0.5])
    with pytest.raises(ValueError, match="> 0"):
        aggregate([0.0, 0.0], [0.5, 0.5])


# -- construction guards -------------------------------------------------------

def test_session_rejects_invalid_network(hydro_refs):
    bad = parse_network(
        "task A\n  kind primitive\n  pred B\n  user single u\n  weight 1.0\n"
        "  objects o\n  assess task-level\n  check position subject=o\n"
        "  feedback final\nend\n"
        "task B\n  kind primitive\n  pred A\n  user single u\n  weight 1.0\n"
        "  objects o\n  assess task-level\n  check position subject=o\n"
        "  feedback final\nend\n")
    with pytest.raises(ValueError, match="invalid network"):
        Session(cfg(bad, hydro_refs))


def test_session_names_weighted_tasks_without_reference(hydro_net, hydro_refs):
    from ahtn.telemetry import ReferenceSet
    gutted = ReferenceSet(by_task={k: v for k, v in hydro_refs.by_task.items()
                                   if k != "T2"})
    with pytest.raises(ValueError, match="without a reference: T2"):
        Session(cfg(hydro_net, gutted))


# -- self replay ---------------------------------------------------------------

def test_hydrometer_self_replay_is_perfect(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    scope = report.scope("student")
    assert scope.delta == 1.0
    assert scope.total_weight == pytest.approx(1.0)
    for entry in scope.entries:
        assert entry.status == "performed"
        assert entry.omega == 1.0
        assert entry.flags == ()
    assert not report.aborted and not report.timed_out


def test_collaborative_self_replay_is_perfect(collab_net, collab_rec, collab_refs):
    report = score_recording(cfg(collab_net, collab_refs), collab_rec)
    assert report.scope("student").delta == 1.0
    assert report.scope("instructor").delta is None  # zero total weight
    assert report.scope("instructor").total_weight == 0.0
    for scope in report.scopes:
        for entry in scope.entries:
            assert entry.omega == 1.0


def test_group_self_replay_identity():
    net = parse_network(
        "task root\n  kind abstract\n  child G1\nend\n"
        "task G1\n  kind primitive\n  user group alice bob\n  weight 1.0\n"
        "  objects cup\n  assess task-level\n  check position subject=cup\n"
        "  check collision subject=cup\n  feedback final\nend\n")
    lines = ["t=0.0 u=alice mark G1 start"]
    for i in range(6):
        t = 0.2 + i * 0.5
        x = 0.1 * i
        for u in ("alice", "bob"):
            lines.append(f"t={t} u={u} pose cup {x} 1.0 0.2 0 0 0 1")
    lines.append("t=4.0 u=alice mark G1 end")
    rec = parse_session("\n".join(lines) + "\n")
    refs = build_reference_set(net, [(rec, 1.0)])
    report = score_recording(cfg(net, refs), rec)
    scope = report.scope("group:alice+bob")
    assert abs(scope.delta - 1.0) <= 1e-12
    entry = scope.entries[0]
    assert len(entry.members) == 2
    assert {m.user for m in entry.members} == {"alice", "bob"}
    assert all(abs(m.omega - 1.0) <= 1e-12 for m in entry.members)


# -- one rule for which events a task reads ---------------------------------------

@functools.cache
def demo(name):
    """A bundled network and its reference recording as text."""
    rec = getattr(fixtures, f"{name}_reference")()
    return getattr(fixtures, f"{name}_network")(), serialize_recording(rec)


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


# Attachment is left out: it reads only the learner's slice, and an "on"
# written at a start mark's time but before the mark lies outside the task
# on both sides, so where the start mark sits among same-time lines moves
# the learner's attachment score. Every check that compares with the
# reference, and every trajectory, reads the same events on both sides.
@pytest.mark.parametrize("name", ["hydrometer", "collaborative"])
@settings(max_examples=8, deadline=None)
@given(fractions=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
@example(fractions=[0.0] * 10)
@example(fractions=[1.0] * 10)
def test_self_replay_holds_wherever_a_mark_sits_among_same_time_lines(
        name, fractions):
    net, text = demo(name)
    moved = move_marks(text, fractions)
    rec = parse_session(moved)
    config = cfg(net, build_reference_set(net, [(rec, 1.0)]))
    batch = score_recording(config, rec)
    live = Session(config, session_id=rec.session_id)
    for lineno, line in enumerate(moved.splitlines(), 1):
        live.ingest(parse_event_line(line, lineno))
    assert render_report(live.finalize()) == render_report(batch)
    for scope in batch.scopes:
        for entry in scope.entries:
            spec = net.nodes[entry.task_id].assessment
            for member in entry.members:
                assert (member.trajectory is not None) == spec.has_action_level
                if member.trajectory is not None:
                    assert member.trajectory.score == 1.0, entry.task_id
                results = member.task_score.checks if member.task_score else ()
                for check, result in zip(spec.checks, results):
                    if check.kind in FEATURE_KINDS:
                        assert result.score == 1.0, (entry.task_id, result)


def test_reference_reads_the_events_a_session_routes(monkeypatch):
    from ahtn import checks, engine
    net = parse_network(
        "task T\n  kind primitive\n  user single u\n  weight 1.0\n"
        "  objects cup head hand-right\n  assess both\n"
        "  check orientation subject=cup\n  feedback final\nend\n")
    skel = "skel head=0,1.7,0;hand-right=0.4,1.2,0.1"
    lines = [
        "t=0.0 u=u pose cup 0 1 0 0 0 0 1",
        "t=1.0 u=u pose cup 0.1 1 0 0 0 0 1",  # same time, before the start
        "t=1.0 u=u mark T start",
        f"t=1.0 u=b {skel}",  # bystander
        f"t=1.0 u=u {skel}",
        "t=1.5 u=u pose plate 0 1 0 0 0 0 1",  # unlisted object
        "t=1.5 u=u collide plate bowl",
        "t=1.5 u=u collide cup plate",
        't=1.5 u=u text field "1"',
        "t=1.5 u=u attach cup hand-right on",
        "t=2.0 u=b pose cup 0.3 1 0 0 0 0 1",
        "t=2.0 u=u pose cup 0.2 1 0 0 0 0 1",
        f"t=2.0 u=u {skel}",
        "t=3.0 u=u mark T end",
        "t=3.0 u=u pose cup 0.4 1 0 0 0 0 1",  # same time, after the end
    ]
    rec = parse_session("\n".join(lines) + "\n")
    reads = []
    extract = checks.extract_features

    def recording(slice_, specs):
        reads.append(slice_.events)
        return extract(slice_, specs)

    monkeypatch.setattr(checks, "extract_features", recording)
    monkeypatch.setattr(engine, "extract_features", recording)
    refs = build_reference_set(net, [(rec, 1.0)])
    score_recording(cfg(net, refs), rec)
    reference, learner = reads
    assert reference == learner == tuple(rec.events[i] for i in (4, 7, 9, 11, 12))


# -- feedback gating ------------------------------------------------------------

def test_final_feedback_emits_nothing_live(hydro_net, hydro_rec, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    messages = session.consume(hydro_rec)
    assert messages == []
    session.finalize()


def test_realtime_feedback_emits_scores_and_bursts(collab_net, collab_rec, collab_refs):
    session = Session(cfg(collab_net, collab_refs))
    messages = session.consume(collab_rec)
    session.finalize()
    by_kind: dict[str, list] = {}
    for m in messages:
        by_kind.setdefault(m.kind, []).append(m)
    assert len(by_kind["task-complete"]) == 5
    assert len(by_kind["task-score"]) == 5
    assert all("pass=true" in m.payload for m in by_kind["task-score"])
    assert any("task=C5" in m.payload for m in by_kind["burst"])
    assert "anomaly" not in by_kind and "abort" not in by_kind


def test_message_render_format(collab_net, collab_rec, collab_refs):
    messages = Session(cfg(collab_net, collab_refs)).consume(collab_rec)
    score_lines = [m.render() for m in messages if m.kind == "task-score"]
    assert any(
        line.startswith("t=") and " scope=student kind=task-score task=C5 omega=1.000000000 pass=true" in line
        for line in score_lines)


# -- degraded runs ---------------------------------------------------------------

def test_unperformed_task_scores_zero(hydro_net, hydro_rec, hydro_refs):
    rec = drop_marks(hydro_rec, "T4")
    report = score_recording(cfg(hydro_net, hydro_refs), rec)
    scope = report.scope("student")
    entry = {e.task_id: e for e in scope.entries}["T4"]
    assert entry.status == "unperformed" and entry.omega == 0.0
    assert scope.delta == pytest.approx(0.8, abs=1e-12)


def test_unfinished_task_scores_zero(hydro_net, hydro_rec, hydro_refs):
    rec = drop_marks(hydro_rec, "T4", edges=("end",))
    report = score_recording(cfg(hydro_net, hydro_refs), rec)
    entry = {e.task_id: e for e in report.scope("student").entries}["T4"]
    assert entry.status == "unfinished" and entry.omega == 0.0
    assert any("T4: never ended" in w for w in report.warnings)
    assert report.scope("student").delta == pytest.approx(0.8, abs=1e-12)


def drop_text_input(rec):
    return SessionRecording(
        session_id=rec.session_id, user_ids=rec.user_ids,
        events=tuple(e for e in rec.events
                     if not isinstance(e.payload, TextInput)))


def test_clean_self_replay_has_no_check_warning(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    assert not any(": check " in w for w in report.warnings)


def test_learner_check_error_is_a_warning_line(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs),
                             drop_text_input(hydro_rec))
    entry = {e.task_id: e for e in report.scope("student").entries}["T4"]
    assert entry.omega == 0.0
    assert [w for w in report.warnings if ": check " in w] == [
        "task T4: check text-input measured-value: error: no data: "
        "no TextInput for field 'measured-value'"]


def test_reference_check_error_is_a_warning_line(hydro_net, hydro_rec):
    refs = build_reference_set(hydro_net, [(drop_text_input(hydro_rec), 1.0)])
    report = score_recording(cfg(hydro_net, refs), hydro_rec)
    assert [w for w in report.warnings if ": check " in w] == [
        "task T4: check text-input measured-value: error: no data: "
        "no reference TextInput for field 'measured-value'"]


def test_reference_features_are_extracted_at_build_only(
        hydro_net, hydro_rec, monkeypatch):
    from ahtn import checks, engine
    reads = []
    extract = checks.extract_features

    def counting(slice_, specs):
        reads.append(slice_)
        return extract(slice_, specs)

    monkeypatch.setattr(checks, "extract_features", counting)
    monkeypatch.setattr(engine, "extract_features", counting)
    refs = build_reference_set(hydro_net, [(hydro_rec, 1.0)])
    # T1 orientation, T3 position, T4 text-input; T2's attachment and
    # collision checks read no reference
    assert len(reads) == 3
    built = reads[:]  # the slices the references were reduced from, kept alive
    ref_slices = {id(sl) for sl in built}
    reads.clear()
    for _ in range(3):
        score_recording(cfg(hydro_net, refs), hydro_rec)
    assert len(reads) == 3 * 4  # one learner extraction per task end
    assert not any(id(sl) in ref_slices for sl in reads)


@pytest.mark.parametrize("demo", ["hydro", "collab"])
def test_reference_set_holds_no_events(demo, request):
    refs = request.getfixturevalue(f"{demo}_refs")
    seen = {id(refs)}
    stack = [refs]
    while stack:
        obj = stack.pop()
        assert not isinstance(obj, Event)
        for child in gc.get_referents(obj):
            # classes lead to modules and from there to everything
            if not isinstance(child, type) and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)


def test_reference_without_skeleton_cannot_score_action_level(
        hydro_net, hydro_rec):
    no_skeleton = SessionRecording(
        session_id="no-skeleton", user_ids=hydro_rec.user_ids,
        events=tuple(e for e in hydro_rec.events
                     if not isinstance(e.payload, SkeletonFrame)))
    refs = build_reference_set(hydro_net, [(no_skeleton, 1.0)])
    report = score_recording(cfg(hydro_net, refs), hydro_rec)
    assert ("task T1: action level cannot be scored: "
            "slice for 'T1' has no skeleton frames") in report.warnings


def test_reference_missing_tracked_joint_cannot_score_action_level(
        hydro_net, hydro_rec):
    net = with_trajectory_defaults(hydro_net,
                                   joint_ids=("head", "hand-right", "knee-left"))
    refs = build_reference_set(net, [(hydro_rec, 1.0)])
    report = score_recording(cfg(net, refs), hydro_rec)
    assert ("task T1: action level cannot be scored: "
            "reference missing joint 'knee-left' at key frame 0") in report.warnings
    entry = {e.task_id: e for e in report.scope("student").entries}["T1"]
    assert entry.status == "performed"
    assert entry.members[0].trajectory is None
    assert entry.omega == 1.0 - Defaults().action_share  # task level only


@pytest.mark.parametrize("override", [{"key_rate": 4.0},
                                      {"joint_ids": ("head",)},
                                      {"match_radius": 0.2}],
                         ids=["key_rate", "joint_ids", "match_radius"])
def test_session_rejects_references_built_for_other_trajectory_params(
        hydro_net, hydro_rec, hydro_refs, override):
    net = with_trajectory_defaults(hydro_net, **override)
    with pytest.raises(ValueError,
                       match="references built for other trajectory params: T1"):
        Session(cfg(net, hydro_refs))
    Session(cfg(net, build_reference_set(net, [(hydro_rec, 1.0)])))


def test_out_of_order_start_is_flagged():
    net = parse_network(
        "task N1\n  kind primitive\n  user single u\n  weight 1.0\n"
        "  objects cup\n  assess task-level\n  check collision subject=cup\n"
        "  feedback final\nend\n"
        "task N2\n  kind primitive\n  pred N1\n  user single u\n  weight 1.0\n"
        "  objects cup\n  assess task-level\n  check collision subject=cup\n"
        "  feedback final\nend\n")
    ordered = parse_session(
        "t=0 u=u mark N1 start\nt=1 u=u mark N1 end\n"
        "t=2 u=u mark N2 start\nt=3 u=u mark N2 end\n")
    refs = build_reference_set(net, [(ordered, 1.0)])
    swapped = parse_session(
        "t=0 u=u mark N2 start\nt=1 u=u mark N2 end\n"
        "t=2 u=u mark N1 start\nt=3 u=u mark N1 end\n")
    report = score_recording(cfg(net, refs), swapped)
    entries = {e.task_id: e for e in report.scope("u").entries}
    assert entries["N2"].flags == ("out-of-order",)
    assert entries["N1"].flags == ()
    assert "[out-of-order]" in render_report(report)


def test_time_constraint_scales_omega():
    net = parse_network(
        "task K1\n  kind primitive\n  user single u\n  weight 1.0\n"
        "  objects cup\n  assess task-level\n  check collision subject=cup\n"
        "  feedback final\n  time 2\nend\n")
    rec = parse_session("t=0 u=u mark K1 start\nt=5 u=u mark K1 end\n")
    refs = build_reference_set(net, [(rec, 1.0)])
    report = score_recording(cfg(net, refs), rec)
    entry = report.scope("u").entries[0]
    assert entry.time_factor == pytest.approx(0.4)
    assert entry.omega == pytest.approx(0.4)  # clean run, scaled by overtime
    assert "time-factor 0.400000000" in render_report(report)


def test_timeout_drops_late_events(hydro_net, hydro_rec, hydro_refs):
    slow = Defaults(timeout=10.0)
    config = cfg(hydro_net, hydro_refs, defaults=slow)
    report = score_recording(config, hydro_rec)  # fixture runs ~26 s
    assert report.timed_out
    assert any("timeout" in w for w in report.warnings)
    statuses = {e.task_id: e.status for e in report.scope("student").entries}
    assert statuses["T1"] == "performed"  # T1 ends at 8 s, inside the budget
    assert statuses["T4"] == "unperformed"


# -- session lifecycle ----------------------------------------------------------

def test_ingest_rejects_regressions(hydro_net, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    session.ingest(Event(t=5.0, user="student", payload=TaskMark("T1", "start")))
    with pytest.raises(ValueError, match="regression"):
        session.ingest(Event(t=4.0, user="student", payload=TaskMark("T1", "end")))


def test_scored_task_holds_no_events(hydro_net, hydro_rec, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    held = {}  # task -> routed events held just before and after its end mark
    for event in hydro_rec.events:
        mark = event.payload
        if isinstance(mark, TaskMark) and mark.edge == "end":
            run = session._runs[mark.task_id]
            before = sum(map(len, run.events.values()))
            session.ingest(event)
            held[mark.task_id] = (before, sum(map(len, run.events.values())))
        else:
            session.ingest(event)
    assert list(held) == ["T1", "T2", "T3", "T4"]
    assert all(before > 0 and after == 0 for before, after in held.values())


def test_lifecycle_errors(hydro_net, hydro_rec, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    with pytest.raises(ValueError, match="finalize before start"):
        session.finalize()
    session.consume(hydro_rec)
    session.finalize()
    with pytest.raises(ValueError, match="already finalized"):
        session.finalize()
    with pytest.raises(ValueError, match="already finalized"):
        session.ingest(hydro_rec.events[0])


def test_stray_marks_warn_but_do_not_raise(hydro_net, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    session.ingest(Event(t=0.0, user="student", payload=TaskMark("bogus", "start")))
    session.ingest(Event(t=1.0, user="student", payload=TaskMark("T1", "end")))
    session.ingest(Event(t=2.0, user="student", payload=TaskMark("T1", "start")))
    session.ingest(Event(t=3.0, user="student", payload=TaskMark("T1", "start")))
    report = session.finalize()
    assert any("unknown or non-primitive task 'bogus'" in w for w in report.warnings)
    assert any("end mark without active task 'T1'" in w for w in report.warnings)
    assert any("duplicate start mark" in w for w in report.warnings)


# -- delivery equivalence ---------------------------------------------------------

def test_batch_and_incremental_delivery_render_identically(
        collab_net, collab_rec, collab_refs):
    batch = render_report(score_recording(cfg(collab_net, collab_refs), collab_rec))
    session = Session(cfg(collab_net, collab_refs), session_id=collab_rec.session_id)
    for event in collab_rec.events:
        session.ingest(event)
    incremental = render_report(session.finalize())
    assert incremental == batch


# -- report details ----------------------------------------------------------------

def test_config_echo_lines(hydro_net, hydro_rec, hydro_refs):
    custom = Defaults(checks=CheckDefaults(collision_penalty=0.02),
                      pass_threshold=0.9)
    config = cfg(hydro_net, hydro_refs, defaults=custom, echo=("extra knob",))
    report = score_recording(config, hydro_rec)
    assert report.config[0] == "collision-penalty 0.02"
    assert "pass-threshold 0.9" in report.config
    assert report.config[-1] == "extra knob"
    default_report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    assert default_report.config[0] == "collision-penalty per-check"
    assert len(default_report.config) == 7


def test_report_scope_lookup_raises(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    with pytest.raises(KeyError):
        report.scope("nobody")


def test_session_id_defaults_to_recording(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    assert report.session_id == hydro_rec.session_id
    named = score_recording(cfg(hydro_net, hydro_refs), hydro_rec,
                            session_id="override")
    assert named.session_id == "override"
