"""Session routing, feedback gating, aggregation, and report assembly."""

import dataclasses
import functools
import importlib
import importlib.util
import io
import logging
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ahtn import engine, fixtures
from ahtn.cli import main
from ahtn.engine import (Defaults, EngineConfig, Session, aggregate,
                         build_reference_set, score_recording, task_samples)
from ahtn.checks import TaskSamples
from ahtn.model import (AssessmentSpec, CheckSpec, TaskNetwork, TaskNode,
                        TrajectoryParams, UserScope, parse_network)
from ahtn.report import render_report
from ahtn.telemetry import (Collision, Event, Pose, SessionRecording,
                            SkeletonFrame, TaskMark, TextInput, iter_events,
                            parse_event_line, parse_session, serialize_recording)
from conftest import held_objects, move_marks


def cfg(net, refs, **kw):
    return EngineConfig(network=net, references=refs, **kw)


def with_t1_objects(net, *objects):
    """The network with T1 listing objects in place of its own."""
    return TaskNetwork({**net.nodes,
                        "T1": replace(net.nodes["T1"], objects=objects)})


def drop_marks(rec, task_id, edges=("start", "end")):
    events = tuple(e for e in rec.events
                   if not (isinstance(e.payload, TaskMark)
                           and e.payload.task_id == task_id
                           and e.payload.edge in edges))
    return SessionRecording(session_id=rec.session_id, events=events)


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
# the EngineConfig checks its network and references once, when it is built,
# so no Session can be made from a config that breaks them

def test_session_rejects_invalid_network(hydro_refs):
    bad = parse_network(
        "task A\n  kind primitive\n  pred B\n  user single u\n  weight 1.0\n"
        "  objects o\n  assess task-level\n  check position subject=o\n"
        "  feedback final\nend\n"
        "task B\n  kind primitive\n  pred A\n  user single u\n  weight 1.0\n"
        "  objects o\n  assess task-level\n  check position subject=o\n"
        "  feedback final\nend\n")
    with pytest.raises(ValueError,
                       match="^invalid network: cycle in predecessor graph$"):
        cfg(bad, hydro_refs)


def test_session_names_weighted_tasks_without_reference(hydro_net, hydro_refs):
    gutted = {k: v for k, v in hydro_refs.items() if k != "T2"}
    with pytest.raises(ValueError, match="^weighted tasks without a reference: T2$"):
        cfg(hydro_net, gutted)


def test_config_references_cannot_be_changed_after_the_checks(hydro_net, hydro_refs):
    config = cfg(hydro_net, dict(hydro_refs))
    with pytest.raises(TypeError):
        del config.references["T2"]
    assert "T2" in config.references


def test_config_holds_its_own_copy_of_each_reference_list(
        hydro_net, hydro_rec, hydro_refs):
    refs = {task: list(task_refs) for task, task_refs in hydro_refs.items()}
    config = cfg(hydro_net, refs)
    before = render_report(score_recording(config, hydro_rec))
    refs["T1"].clear()
    assert render_report(score_recording(config, hydro_rec)) == before


def test_action_level_grades_against_the_first_reference_of_highest_quality(
        hydro_net, hydro_rec, hydro_refs):
    (ref,) = hydro_refs["T1"]
    refs = {**hydro_refs, "T1": [replace(ref, quality=0.6), ref,
                                 replace(ref, track=None, error="a later equal")]}
    report = score_recording(cfg(hydro_net, refs), hydro_rec)
    (entry,) = (e for e in report.scope("student").entries if e.task_id == "T1")
    (member,) = entry.members
    assert member.task_score.reference_index == 1
    assert member.trajectory.score == 1.0 and entry.omega == 1.0
    assert not any("action level cannot be scored" in w for w in report.warnings)


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
                    if check.kind in ("orientation", "position", "text-input"):
                        assert result.score == 1.0, (entry.task_id, result)


def test_reference_reads_the_events_a_session_routes(monkeypatch):
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
    taken = {}  # reducer -> the events its add accepted
    add = TaskSamples.add

    def recording(samples, event):
        kept = add(samples, event)
        if kept:
            taken.setdefault(samples, []).append(event)
        return kept

    monkeypatch.setattr(TaskSamples, "add", recording)
    refs = build_reference_set(net, [(rec, 1.0)])
    score_recording(cfg(net, refs), rec)
    reference, learner = taken.values()
    assert reference == learner == [rec.events[i] for i in (4, 7, 9, 11, 12)]


def overlapping_tasks():
    """A of user u from 0 s to 3 s, B of u from 1 s to 5 s, C of the group
    v and w from 0.5 s to 4 s, in one network built in code; and a stream
    in which every user, bystander x too, sends a pose of cup and of plate
    every 0.25 s, u a skeleton frame and v a collision of cup. Each mark is
    written after the events that share its time. Two marks are stray: a
    second A start at 2 s and a C end at 0.2 s. The events are returned
    with the indices of the stray marks."""
    def task(task_id, scope, objects, *checks):
        return TaskNode(id=task_id, kind="primitive", name=task_id,
                        users=scope, weight=1.0, objects=objects,
                        assessment=AssessmentSpec("task-level", checks),
                        feedback="final-score")

    u = UserScope("single-user", ("u",))
    net = TaskNetwork({n.id: n for n in (
        task("A", u, ("cup",), CheckSpec("position", "cup"),
             CheckSpec("collision", "cup")),
        task("B", u, ("cup", "head"), CheckSpec("orientation", "cup"),
             CheckSpec("position", "head")),
        task("C", UserScope("group", ("v", "w")), ("cup",),
             CheckSpec("position", "cup")))})
    marks = {0.0: [("u", "A", "start")], 0.25: [("v", "C", "end")],
             0.5: [("v", "C", "start")], 1.0: [("u", "B", "start")],
             2.0: [("u", "A", "start")], 3.0: [("u", "A", "end")],
             4.0: [("w", "C", "end")], 5.0: [("u", "B", "end")]}
    skeleton = ("head", "hand-right")
    events, stray = [], []
    for i in range(25):
        t = i / 4
        for user in ("u", "v", "w", "x"):
            for obj in ("cup", "plate"):
                events.append(Event(t, user, Pose(obj, (0.1 * i, 1.0, 0.0),
                                                  (0.0, 0.0, 0.0, 1.0))))
        events.append(Event(t, "u", SkeletonFrame(
            skeleton, np.array([[0.0, 1.7, 0.1 * i], [0.4, 1.7, 0.1 * i]]))))
        events.append(Event(t, "v", Collision("cup", "plate")))
        for user, task_id, edge in marks.get(t, ()):
            if (t, task_id) in ((2.0, "A"), (0.25, "C")):
                stray.append(len(events))
            events.append(Event(t, user, TaskMark(task_id, edge)))
    return net, events, stray


def test_each_task_takes_its_members_events_between_its_marks(monkeypatch):
    net, events, stray = overlapping_tasks()
    clean = [e for i, e in enumerate(events) if i not in stray]
    config = cfg(net, build_reference_set(net, [(SessionRecording("r", tuple(clean)),
                                                 1.0)]))
    made = {}  # task id -> its reducers, in member order
    asked = {}  # reducer -> indices of the events its add was asked about

    def recording_task_samples(node, t0):
        samples = task_samples(node, t0)
        made.setdefault(node.id, []).append(samples)
        return samples

    def recording_add(samples, event):
        asked.setdefault(samples, []).append(index[id(event)])
        return add(samples, event)

    add = TaskSamples.add
    index = {id(e): i for i, e in enumerate(events)}
    monkeypatch.setattr(engine, "task_samples", recording_task_samples)
    monkeypatch.setattr(TaskSamples, "add", recording_add)
    session = Session(config)
    for e in events:
        session.ingest(e)
    report = session.finalize()
    assert "duplicate start mark for task 'A' ignored" in report.warnings
    assert "end mark without active task 'C' ignored" in report.warnings

    monkeypatch.undo()
    for task_id in ("A", "B", "C"):
        node = net.nodes[task_id]
        start, end = (i for i, e in enumerate(events) if i not in stray
                      and type(e.payload) is TaskMark
                      and e.payload.task_id == task_id)
        assert len(made[task_id]) == len(node.users.user_ids)
        for member, samples in zip(node.users.user_ids, made[task_id]):
            fresh = task_samples(node, events[start].t)
            brute = sum(fresh.add(e) for e in events[start + 1:end]
                        if e.user == member)
            assert samples.count == brute > 0, (task_id, member)
            # nothing reaches a task after its end mark, though u, v and w
            # send events to the end of the stream
            assert max(asked[samples]) < end, (task_id, member)


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
        session_id=rec.session_id,
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
    reads = []
    features = TaskSamples.features

    def counting(samples):
        reads.append(samples)
        return features(samples)

    monkeypatch.setattr(TaskSamples, "features", counting)
    refs = build_reference_set(hydro_net, [(hydro_rec, 1.0)])
    assert len(reads) == 4  # one reduction per task of the reference
    built = reads[:]  # the reference reducers, kept alive so no id is reused
    ref_reducers = {id(samples) for samples in built}
    reads.clear()
    for _ in range(3):
        score_recording(cfg(hydro_net, refs), hydro_rec)
    assert len(reads) == 3 * 4  # one learner reduction per task end
    assert not any(id(samples) in ref_reducers for samples in reads)


def test_primitive_tasks_are_found_once_per_config_and_reference_set(
        monkeypatch, hydro_net, hydro_rec):
    calls = []
    primitive_ids = TaskNetwork.primitive_ids

    def counting(net):
        calls.append(net)
        return primitive_ids(net)

    monkeypatch.setattr(TaskNetwork, "primitive_ids", counting)
    refs = build_reference_set(hydro_net, [(hydro_rec, 1.0), (hydro_rec, 0.5)])
    config = cfg(hydro_net, refs)
    assert len(calls) == 2
    reports = [render_report(score_recording(config, hydro_rec)) for _ in range(3)]
    assert len(calls) == 2
    assert list(config.primitives) == ["T1", "T2", "T3", "T4"]
    assert reports[0].count("\ntask T") == 4 and len(set(reports)) == 1


@pytest.mark.parametrize("demo", ["hydro", "collab"])
def test_reference_set_holds_no_events(demo, request):
    refs = request.getfixturevalue(f"{demo}_refs")
    assert not any(isinstance(obj, Event) for obj in held_objects(refs))


@pytest.mark.parametrize("quality", [7.0, -0.5, float("nan")])
def test_reference_quality_is_checked_before_its_recording_is_read(
        hydro_net, hydro_rec, quality):
    # a recording that would give no reference is checked too
    def unread():
        raise AssertionError("the recording was read")
        yield

    with pytest.raises(ValueError, match=re.escape(
            f"reference quality must be finite and in [0, 1]: {quality!r}")):
        build_reference_set(hydro_net, [(hydro_rec, 1.0), (unread(), quality)])


def test_reference_logs_each_mark_it_ignores(hydro_net, hydro_rec, caplog):
    # the second pair of T2's marks in a copy of the demo, given as the
    # second reference, changes no reference and is logged with its index
    two_pairs = parse_session(
        serialize_recording(hydro_rec)
        + "t=26.0 u=student mark T2 start\nt=26.5 u=student mark T2 end\n")
    with caplog.at_level(logging.INFO, logger="ahtn"):
        refs = build_reference_set(hydro_net, [(hydro_rec, 0.6), (two_pairs, 1.0)])
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("ahtn", logging.INFO,
         "reference 1: t=26.0: duplicate start mark for task 'T2' ignored"),
        ("ahtn", logging.INFO,
         "reference 1: t=26.5: end mark without active task 'T2' ignored")]
    plain = build_reference_set(hydro_net, [(hydro_rec, 0.6), (hydro_rec, 1.0)])
    assert render_report(score_recording(cfg(hydro_net, refs), hydro_rec)) == (
        render_report(score_recording(cfg(hydro_net, plain), hydro_rec)))


def test_reference_without_skeleton_cannot_score_action_level(
        hydro_net, hydro_rec):
    no_skeleton = SessionRecording(
        session_id="no-skeleton",
        events=tuple(e for e in hydro_rec.events
                     if not isinstance(e.payload, SkeletonFrame)))
    refs = build_reference_set(hydro_net, [(no_skeleton, 1.0)])
    report = score_recording(cfg(hydro_net, refs), hydro_rec)
    assert ("task T1: action level cannot be scored: "
            "slice for 'T1' has no skeleton frames") in report.warnings


def test_reference_missing_tracked_joint_cannot_score_action_level(
        hydro_net, hydro_rec):
    net = with_t1_objects(hydro_net, *hydro_net.nodes["T1"].objects, "knee-left")
    refs = build_reference_set(net, [(hydro_rec, 1.0)])
    report = score_recording(cfg(net, refs), hydro_rec)
    assert ("task T1: action level cannot be scored: "
            "reference missing joint 'knee-left' at key frame 0") in report.warnings
    entry = {e.task_id: e for e in report.scope("student").entries}["T1"]
    assert entry.status == "performed"
    assert entry.members[0].trajectory is None
    assert entry.omega == 1.0 - Defaults().action_share  # task level only


@pytest.mark.parametrize("params, objects", [
    (TrajectoryParams(key_rate=4.0), None),
    (TrajectoryParams(), ("hydrometer", "hand", "head")),  # joints ("head",)
    (TrajectoryParams(match_radius=0.2), None)],
                         ids=["key_rate", "joint_ids", "match_radius"])
def test_session_rejects_references_built_for_other_trajectory_params(
        hydro_net, hydro_rec, hydro_refs, params, objects):
    net = hydro_net if objects is None else with_t1_objects(hydro_net, *objects)
    with pytest.raises(ValueError,
                       match="^references built for other trajectory params: T1$"):
        cfg(net, hydro_refs, trajectory=params)
    Session(cfg(net, build_reference_set(net, [(hydro_rec, 1.0)], params),
                trajectory=params))


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


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_ingest_rejects_a_time_out_of_range(hydro_net, hydro_refs, first, t):
    # library callers build events without the reader, which rejects these
    # times; a nan once switched off the timeout, or let the next
    # regression through
    session = Session(cfg(hydro_net, hydro_refs))
    if not first:
        session.ingest(Event(t=5.0, user="student", payload=TaskMark("T1", "start")))
    with pytest.raises(ValueError, match=f"^timestamp out of range: {t}$"):
        session.ingest(Event(t=t, user="student", payload=TaskMark("T1", "end")))


def test_scored_task_holds_no_events(hydro_net, hydro_rec, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    held = {}  # task -> events taken just before its end mark, reducers held after
    for event in hydro_rec.events:
        mark = event.payload
        if isinstance(mark, TaskMark) and mark.edge == "end":
            window = session._windows.open[mark.task_id]
            reducers = [samples for samples, _, _ in window.values()]
            taken = sum(samples.count for samples in reducers)
            assert not any(isinstance(obj, Event)
                           for obj in held_objects(window))
            session.ingest(event)
            kept = {id(obj) for obj in held_objects(session._windows)}
            kept |= {id(obj) for obj in held_objects(session._runs)}
            held[mark.task_id] = (taken, [s for s in reducers if id(s) in kept])
        else:
            session.ingest(event)
    assert list(held) == ["T1", "T2", "T3", "T4"]
    assert all(taken > 0 and after == [] for taken, after in held.values())


def test_lifecycle_errors(hydro_net, hydro_rec, hydro_refs):
    session = Session(cfg(hydro_net, hydro_refs))
    with pytest.raises(ValueError, match="no events to grade"):
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


# -- streamed equals whole ---------------------------------------------------------
# the CLI feeds references and sessions to the engine from telemetry.iter_events
# as it reads a file, never holding the recording

def one_shot(rec):
    """rec's events, read once from its file by iter_events."""
    return iter_events(io.StringIO(serialize_recording(rec), newline="\n"))


def assert_same(a, b):
    """a == b, through dataclasses, mappings, sequences and numpy arrays."""
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (dict, list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        if isinstance(a, dict):
            assert a.keys() == b.keys()
            a, b = list(a.values()), [b[k] for k in a]
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


@pytest.mark.parametrize("demo", ["hydro", "collab"])
def test_streamed_events_build_the_references_of_the_recording(demo, request):
    net = request.getfixturevalue(f"{demo}_net")
    rec = request.getfixturevalue(f"{demo}_rec")
    whole = build_reference_set(net, [(rec, 0.9)])
    assert any(r.track is not None for refs in whole.values() for r in refs)
    assert_same(build_reference_set(net, [(one_shot(rec), 0.9)]), whole)


@pytest.mark.parametrize("demo", ["hydro", "collab"])
def test_streamed_session_renders_the_report_of_the_recording(demo, request):
    net, rec, refs = (request.getfixturevalue(f"{demo}_{name}")
                      for name in ("net", "rec", "refs"))
    config = cfg(net, refs)
    batch = Session(config, session_id=rec.session_id)
    batch_feedback = batch.consume(rec)
    streamed = Session(config, session_id=rec.session_id)
    assert streamed.consume(one_shot(rec)) == batch_feedback
    assert render_report(streamed.finalize()) == render_report(
        score_recording(config, rec))


def test_score_meets_a_bad_line_after_ingesting_the_events_before_it(
        demo_dir, tmp_path, capsys, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_text().splitlines(keepends=True)
    lines[499] = "t=16.0 u=student warp cup\n"
    session, out = tmp_path / "bad.rec", tmp_path / "report.txt"
    session.write_text("".join(lines))
    ingested = []
    ingest = Session.ingest

    def counting(self, event):
        ingested.append(event)
        return ingest(self, event)

    monkeypatch.setattr(Session, "ingest", counting)
    code = main(["score", "--net", str(demo_dir / "hydrometer.ahtn"),
                 "--refs", str(demo_dir / "hydrometer.rec"),
                 "--session", str(session), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "ahtn: error: line 500: unknown event kind 'warp'\n")
    assert not out.exists()
    content = [line.strip() for line in lines[:499]]
    prefix = [parse_event_line(line) for line in content if line and line[0] != "#"]
    assert len(ingested) == len(prefix)


# -- report details ----------------------------------------------------------------

def test_config_echo_lines(hydro_net, hydro_rec, hydro_refs):
    custom = Defaults(collision_penalty=0.02, pass_threshold=0.9)
    config = cfg(hydro_net, hydro_refs, defaults=custom)
    report = score_recording(config, hydro_rec)
    assert report.config[0] == "collision-penalty 0.02"
    assert "pass-threshold 0.9" in report.config
    default_report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    assert default_report.config[0] == "collision-penalty per-check"
    assert len(default_report.config) == 12
    assert default_report.config[7] == "match-radius 0.1"
    assert default_report.config[-1] == "anomaly-penalty 0.05"


def test_report_scope_lookup_raises(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    with pytest.raises(KeyError):
        report.scope("nobody")


def test_session_id_defaults_to_recording(hydro_net, hydro_rec, hydro_refs):
    report = score_recording(cfg(hydro_net, hydro_refs), hydro_rec)
    assert report.session_id == hydro_rec.session_id
    # another name is the Session's to give
    named = Session(cfg(hydro_net, hydro_refs), session_id="override")
    named.consume(hydro_rec)
    assert named.finalize().session_id == "override"


# -- benchmark hooks -------------------------------------------------------------

def test_every_perfbench_hook_target_is_a_callable_in_ahtn():
    # the traced benchmark skips a hook whose target is gone, so a deleted
    # or renamed function would only show as a missing per-layer figure
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines the tables; installs nothing
    targets = ([t for _, t, _ in spans.HOOKS]
               + [t for _, t in spans.TRIAL_HOOKS])
    assert targets
    for target in targets:
        modname, _, attrs = target.partition(":")
        assert modname.split(".")[0] == "ahtn", target
        obj = importlib.import_module(modname)
        for attr in attrs.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), target


def test_every_module_name_in_the_readme_exists_in_ahtn():
    # a `module.name` in the README whose module no longer holds the name
    # sends its reader to the wrong file
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem for p in (root / "src" / "ahtn").glob("*.py")}
    readme = (root / "README.md").read_text("utf-8")
    names = [(m, attrs) for m, attrs in re.findall(r"`(\w+)\.([\w.]+)`", readme)
             if m in modules]
    assert names
    for modname, attrs in names:
        obj = importlib.import_module(f"ahtn.{modname}")
        for attr in attrs.split("."):
            assert hasattr(obj, attr), f"{modname}.{attrs}"
            obj = getattr(obj, attr)
