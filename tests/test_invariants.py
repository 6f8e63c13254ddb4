"""Scoring invariants, checked on perturbed copies of the bundled demos.

Each input is a demo recording after ``perturb`` at a drawn seed and a
magnitude in [0, 0.5], with each mark moved within its run of same-time
lines (``move_marks``). The invariants:

1. batch ``score`` and live ``stream`` give the same report and feedback;
2. lines of a user outside every scope change no report byte, whether
   they are in the session or in the reference;
3. a recording replayed against itself scores 1.0 on every check that
   compares it with the reference: both sides read the same events;
4. one more collision of a checked subject never raises a task's omega.
"""

import functools

from hypothesis import given, settings, strategies as st

from ahtn import fixtures
from ahtn.checks import FEATURE_KINDS
from ahtn.engine import EngineConfig, Session, build_reference_set, score_recording
from ahtn.harness import perturb, spec_for_magnitude
from ahtn.report import render_report
from ahtn.telemetry import (Collision, Event, SessionRecording, TaskMark,
                            parse_session, read_events, serialize_recording)
from conftest import move_marks

BYSTANDER = "bystander"  # in no task's scope


@functools.cache
def demo(name):
    """A bundled network, its reference recording and references."""
    net = getattr(fixtures, f"{name}_network")()
    rec = getattr(fixtures, f"{name}_reference")()
    return net, rec, build_reference_set(net, [(rec, 1.0)])


@st.composite
def sessions(draw):
    """(demo name, recording text): a perturbed demo, marks moved."""
    name = draw(st.sampled_from(["hydrometer", "collaborative"]))
    spec = spec_for_magnitude(draw(st.floats(0.0, 0.5)),
                              draw(st.integers(0, 2**32 - 1)))
    text = serialize_recording(perturb(demo(name)[1], spec))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
    return name, move_marks(text, fractions)


def report_of(net, refs, rec):
    return render_report(score_recording(EngineConfig(net, refs), rec))


def with_bystander(rec, step, offset):
    """rec with a bystander's copy after every step-th non-mark event."""
    events = []
    for i, e in enumerate(rec.events):
        events.append(e)
        if i % step == offset and type(e.payload) is not TaskMark:
            events.append(Event(e.t, BYSTANDER, e.payload))
    return SessionRecording(rec.session_id, rec.user_ids, tuple(events))


fast = settings(max_examples=12, deadline=None, derandomize=True)


@fast
@given(sessions())
def test_score_and_stream_agree(session):
    name, text = session
    net, _, refs = demo(name)
    config = EngineConfig(net, refs)
    rec = parse_session(text)
    batch = Session(config, session_id=rec.session_id)
    batch_feedback = [m.render() for m in batch.consume(rec)]
    batch.finalize()
    live = Session(config, session_id=rec.session_id)
    live_feedback = [m.render() for e in read_events(text.splitlines())
                     for m in live.ingest(e)]
    assert render_report(live.finalize()) == report_of(net, refs, rec)
    assert live_feedback == batch_feedback


@fast
@given(sessions(), st.integers(1, 7), st.integers(0, 6))
def test_bystander_lines_change_nothing(session, step, offset):
    name, text = session
    net, reference, refs = demo(name)
    rec = parse_session(text)
    report = report_of(net, refs, rec)
    offset %= step
    assert report_of(net, refs, with_bystander(rec, step, offset)) == report
    crowded = build_reference_set(
        net, [(with_bystander(reference, step, offset), 1.0)])
    assert report_of(net, crowded, rec) == report


@fast
@given(sessions())
def test_self_replay_agrees_on_every_compared_check(session):
    name, text = session
    net = demo(name)[0]
    rec = parse_session(text)
    report = score_recording(
        EngineConfig(net, build_reference_set(net, [(rec, 1.0)])), rec)
    for scope in report.scopes:
        for entry in scope.entries:
            checks = net.nodes[entry.task_id].assessment.checks
            for member in entry.members:
                results = member.task_score.checks if member.task_score else ()
                for check, result in zip(checks, results):
                    if check.kind in FEATURE_KINDS:
                        assert result.score == 1.0, (entry.task_id, result)


@fast
@given(sessions(), st.data())
def test_one_more_collision_never_raises_an_omega(session, data):
    name, text = session
    net, _, refs = demo(name)
    rec = parse_session(text)
    node = data.draw(st.sampled_from(
        [n for n in net.nodes.values() if n.is_primitive]))
    subject = data.draw(st.sampled_from(
        [c.subject for c in node.assessment.checks] or [node.objects[0]]))
    other = data.draw(st.sampled_from(node.objects))
    user = data.draw(st.sampled_from(node.users.user_ids))
    at = data.draw(st.integers(0, len(rec.events) - 1))
    # inserted right after an event, at its time, so the stream stays ordered
    hit = Event(rec.events[at].t, user, Collision(subject, other))
    hit_rec = SessionRecording(rec.session_id, rec.user_ids,
                               rec.events[:at + 1] + (hit,) + rec.events[at + 1:])
    before = score_recording(EngineConfig(net, refs), rec)
    after = score_recording(EngineConfig(net, refs), hit_rec)
    omegas = {e.task_id: e.omega for s in before.scopes for e in s.entries}
    for scope in after.scopes:
        for entry in scope.entries:
            assert entry.omega <= omegas[entry.task_id], entry.task_id
