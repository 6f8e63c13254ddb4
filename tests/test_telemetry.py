"""Event wire format, recording parse rules, the events a reference task
reads, height correction."""

import io
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ahtn import telemetry
from ahtn.engine import build_reference_set, task_samples
from ahtn.model import TrajectoryParams, parse_network
from ahtn.telemetry import (Attach, Collision, Event, Pose, RecordingError,
                            SessionRecording, SkeletonFrame, TaskMark,
                            TextInput, iter_events, parse_event_line,
                            parse_session, read_events, serialize_event,
                            serialize_recording)
from ahtn.trajectory import ActionEvaluator, scale_frame
from conftest import reduce_reference, reference_track


def frame(**joints):
    names = tuple(joints)
    return SkeletonFrame(names=names,
                         positions=np.array([joints[n] for n in names], float))


def skel_event(t, user, **joints):
    return Event(t=t, user=user, payload=frame(**joints))


# -- line parsing ------------------------------------------------------------

def test_parse_pose_line():
    e = parse_event_line("t=1.5 u=alice pose cup 0.1 0.2 0.3 0.0 0.0 0.0 1.0")
    assert e.t == 1.5 and e.user == "alice"
    assert e.payload == Pose("cup", (0.1, 0.2, 0.3), (0.0, 0.0, 0.0, 1.0))


def test_parse_attach_collide_text_mark():
    a = parse_event_line("t=0 u=a attach hydro hand on")
    assert a.payload == Attach("hydro", "hand", True)
    off = parse_event_line("t=0 u=a attach hydro hand off")
    assert off.payload.attached is False
    c = parse_event_line("t=0 u=a collide hydro cylinder")
    assert c.payload == Collision("hydro", "cylinder")
    t = parse_event_line('t=0 u=a text reading "1.25 g/ml"')
    assert t.payload == TextInput("reading", "1.25 g/ml")
    m = parse_event_line("t=0 u=a mark T1 start")
    assert m.payload == TaskMark("T1", "start")


def test_parse_skel_line():
    e = parse_event_line("t=2 u=a skel head=0,1.7,0;hand-right=0.3,1.1,0.2")
    f = e.payload
    assert f.names == ("head", "hand-right")
    assert np.allclose(f.position("hand-right"), [0.3, 1.1, 0.2])


@pytest.mark.parametrize("line,fragment", [
    ("t=0 u=a pose cup 0 0 0 0 0 0 2", "quaternion norm"),
    ("t=0 u=a pose cup 0 0 0", "pose needs"),
    ("t=-1 u=a mark T start", "out of range"),
    ("t=abc u=a mark T start", "bad timestamp"),
    ("x=0 u=a mark T start", "expected t="),
    ("t=0 u=a attach a b maybe", "attach needs"),
    ("t=0 u=a collide a", "collide needs"),
    ("t=0 u=a text f noquotes", "double-quoted"),
    ("t=0 u=a skel head=1,2", "x,y,z"),
    ("t=0 u=a skel a=1=2,3;b,4,5,6", "x,y,z"),
    ("t=0 u=a skel a=1,2;b=3,4,5,6", "x,y,z"),
    ("t=0 u=a skel head=1,2,3;", "bad skel entry"),
    ("t=0 u=a skel head=1,2,3;head=0,1,0", "duplicate"),
    ("t=0 u=a skel head=1,2,3; head =0,1,0", "duplicate"),
    ("t=0 u=a skel =1,2,3;head=0,1,0", "bad joint name"),
    ("t=0 u=a skel head=nan,1,0", "non-finite"),
    ("t=0 u=a skel head=0,x,0", "not a number"),
    ("t=0 u=a pose cup 0 0 0 nan nan nan nan", "non-finite"),
    ("t=0 u=a pose cup nan 0 inf 0 0 0 1", "non-finite"),
    ("t=0 u=a mark T sideways", "mark needs"),
    ("t=0 u=a mark T", "mark needs"),
    ("t=0 u=a mark T start now", "mark needs"),
    ("t=0 u=a warp cup", "unknown event kind"),
])
def test_bad_lines_rejected(line, fragment):
    with pytest.raises(RecordingError, match=fragment):
        parse_event_line(line, lineno=7)


def test_non_finite_number_names_its_line():
    text = "t=0 u=a pose cup 0 0 0 0 0 0 1\nt=1 u=a skel head=0,inf,0\n"
    with pytest.raises(RecordingError, match="^line 2: non-finite") as info:
        parse_session(text)
    assert info.value.line == 2


def test_skel_whitespace_around_entries_is_stripped():
    e = parse_event_line("t=0 u=a skel head=1,2,3; hand-right=0,1,0")
    assert e.payload.names == ("head", "hand-right")
    assert e.payload.positions.tolist() == [[1, 2, 3], [0, 1, 0]]


def test_finite_extremes_accepted():
    e = parse_event_line("t=0 u=a pose cup 1.7e308 1.7e308 -1.7e308 0 0 0 1")
    assert e.payload.position == (1.7e308, 1.7e308, -1.7e308)
    f = parse_event_line("t=0 u=a skel a=1.7e308,1.7e308,5e-324").payload
    assert f.positions.tolist() == [[1.7e308, 1.7e308, 5e-324]]


def test_quaternion_norm_tolerance_is_tight():
    ok = "t=0 u=a pose cup 0 0 0 0 0 0 1.0000005"
    parse_event_line(ok)  # within 1e-6
    with pytest.raises(RecordingError):
        parse_event_line("t=0 u=a pose cup 0 0 0 0 0 0 1.00001")


# -- session parsing ---------------------------------------------------------

def test_parse_session_user_order_and_hint():
    text = ("t=0 u=bob skel head=0,1.7,0\n"
            "t=0.1 u=ann pose cup 0 0 0 0 0 0 1\n"
            "t=0.2 u=bob skel head=0,1.7,0\n")
    rec = parse_session(text, session_id="s1")
    assert rec.session_id == "s1"


def test_parse_session_skips_comments_and_blanks():
    rec = parse_session("# header\n\nt=0 u=a collide x y\n")
    assert len(rec.events) == 1


@pytest.mark.parametrize("text,fragment", [
    ("t=2 u=a collide x y\nt=1 u=a collide x y\n", "timestamp regression"),
    ("t=0 u=a mark T start\nt=1 u=a mark T start\n", "nested start"),
    ("t=0 u=a mark T end\n", "end mark without start"),
    ("t=0 u=a mark T start\n", "unmatched start"),
])
def test_parse_session_mark_discipline(text, fragment):
    with pytest.raises(RecordingError, match=fragment):
        parse_session(text)


def test_equal_timestamps_allowed():
    rec = parse_session("t=1 u=a collide x y\nt=1 u=b collide x y\n")
    assert len(rec.events) == 2


# -- every reader against the per-line loop ----------------------------------
# parse_session converts skel and pose numbers a block at a time and re-runs
# a block line by line when the bulk pass meets anything it does not accept;
# the per-line loop is the reference grammar; iter_events does the same
# over a file's lines, and read_events, the live reader, runs the per-line
# loop over them

def _file(text):
    """text as a file, read with each line ending at \\n alone."""
    return io.StringIO(text, newline="\n")


READERS = {
    "parse_session": lambda text: parse_session(text).events,
    "iter_events": lambda text: iter_events(_file(text)),
    "read_events": lambda text: read_events(_file(text)),
}


def outcome(text, reader="parse_session"):
    """What a reader makes of a text: its events as wire lines (so -0.0
    and 0.0 differ), the names tuples, or its error."""
    try:
        events = tuple(READERS[reader](text))
    except RecordingError as err:
        return "error", str(err), err.line
    frames = [e.payload.names for e in events
              if isinstance(e.payload, SkeletonFrame)]
    return ("ok", [serialize_event(e) for e in events], frames, events)


def per_line_outcome(text, monkeypatch):
    def refuse(*args):
        raise ValueError("bulk conversion disabled")
    monkeypatch.setattr(telemetry, "_convert_block", refuse)
    return outcome(text)


def assert_readers_agree(text):
    """Every reader gives parse_session's events, or its error at its
    line. The one documented difference: only a batch reader rejects a
    start mark still open at the end."""
    batch = outcome(text)
    open_at_end = batch[0] == "error" and "unmatched start mark" in batch[1]
    for reader in READERS:
        got = outcome(text, reader)
        if reader == "read_events" and open_at_end:
            assert got[0] == "ok"
        else:
            assert got == batch, reader
    with pytest.MonkeyPatch.context() as mp:
        assert per_line_outcome(text, mp) == batch


_good_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["-0.0", ".5", "5.", "+1", "1E3", "5e-324", "1.7e308",
                     " 1", "1 ", "\t2", "\xa03"]),
)
# numbers the per-line grammar takes but loadtxt does not, and numbers or
# whitespace that no path may take
_odd_numbers = st.sampled_from(["1_0", "１２", "0_5e1"])
_bad_numbers = st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "0x10",
                                "1\x00", "1 2", "1\x1f\xa0"])
# loadtxt strips \x1f around a number as whitespace, float() does not
_x1f_numbers = st.sampled_from(["\x1f1", "1\x1f", "\x1f2\x1f"])
# characters that some line splitters end a line at: inside a line they
# are whitespace to str.split(), and all but \x1c to float()
_eol_chars = st.sampled_from(["\r", "\x1c", "\x85", "\u2028"])
_eol_numbers = st.builds(lambda c, i: (f"1{c}5", f"{c}1", f"2{c}")[i],
                         _eol_chars, st.integers(0, 2))
_layouts = st.sampled_from([
    ("head",), ("head", "hand-right"), ("hand-right", "head"), ("a", "b", "c"),
    (" head", "hand-right "), ("head", " hand-right"), ("x y", "z"),
    ("a\x1fb", "c"),
])
_bad_layouts = st.sampled_from([("a", "a"), ("", "b"), (" a", "a "), ("a,b", "c")])
_quats = st.sampled_from([("0", "0", "0", "1"), ("0.5", "0.5", "0.5", "0.5"),
                          ("1", "0", "0", "0"), ("0", "0", "0", "1.0000005"),
                          ("-0.0", "0", "0", "-1")])
_bad_quats = st.sampled_from([("0", "0", "0", "1.00001"), ("0", "0", "0", "2"),
                              ("0", "0", "0", "0")])


def _numbers_with(draw, count, odd):
    """``count`` good numbers, one of them replaced by an ``odd`` one."""
    numbers = [draw(_good_numbers) for _ in range(count)]
    if odd is not None:
        numbers[draw(st.integers(0, count - 1))] = draw(odd)
    return numbers


def _skel(draw, names, odd=None):
    numbers = iter(_numbers_with(draw, 3 * len(names), odd))
    gap = draw(st.sampled_from([";", ";", "; ", " ;"]))
    return "skel " + gap.join(
        f"{n}={next(numbers)},{next(numbers)},{next(numbers)}" for n in names)


def _pose(draw, quat, odd=None):
    gap = draw(st.sampled_from([" ", " ", "  ", "\t"]))
    return "pose cup " + gap.join(_numbers_with(draw, 3, odd) + list(quat))


# one way to spoil a line each; "odd", "pose-gap", "eol-text" and most
# "eol" lines stay valid
_FLAWS = ("odd", "odd", "bad-number", "bad-number", "x1f", "x1f", "eol",
          "eol-text", "bad-layout", "bad-quat", "drop", "tail", "semi", "extra",
          "eq", "pose-count", "pose-gap", "regression", "stamp", "user", "mark",
          "kind")


@st.composite
def _recording(draw):
    """A valid recording of skel, pose and other lines, then at most one
    flaw on one line."""
    lines, rests, stamps, t, open_marks = [], [], [], 0.0, set()
    for _ in range(draw(st.integers(0, 14))):
        t += draw(st.sampled_from([0.0, 0.5, 1.0]))
        kind = draw(st.sampled_from(["skel", "skel", "skel", "pose", "pose",
                                     "other", "blank"]))
        rest = "collide x y"
        if kind == "skel":
            rest = _skel(draw, draw(_layouts))
        elif kind == "pose":
            rest = _pose(draw, draw(_quats))
        elif kind == "other":
            task = draw(st.sampled_from("AB"))
            edge = "end" if task in open_marks else "start"
            open_marks ^= {task}
            rest = draw(st.sampled_from([f"mark {task} {edge}", "collide x y",
                                         'text f "1.5"', "attach cup hand on"]))
        user = draw(st.sampled_from(["a", "a", "b"]))
        pad = draw(st.sampled_from(["", "", " "]))
        line = f"{pad}t={t!r} u={user} {rest}{pad}"
        if kind == "blank":
            line = draw(st.sampled_from(["", "# note", "  "]))
        lines.append(line)
        rests.append(rest)
        stamps.append(t)
    for task in sorted(open_marks):
        lines.append(f"t={t!r} u=a mark {task} end")
        rests.append(f"mark {task} end")
        stamps.append(t)

    flaw = draw(st.sampled_from((None, None) + _FLAWS))
    if flaw is not None and lines:
        i = draw(st.integers(0, len(lines) - 1))
        head, rest = f"t={stamps[i]!r} u=a ", rests[i]
        odd = {"odd": _odd_numbers, "bad-number": _bad_numbers,
               "x1f": _x1f_numbers, "eol": _eol_numbers}.get(flaw)
        if odd is not None and (flaw == "x1f" or draw(st.booleans())):
            rest = _skel(draw, draw(_layouts), odd)
        elif odd is not None:
            rest = _pose(draw, draw(_quats), odd)
        elif flaw in ("bad-layout", "drop", "tail", "semi", "extra", "eq"):
            layout = _bad_layouts if flaw == "bad-layout" else _layouts
            rest = _skel(draw, draw(layout))
            rest = {"drop": rest.rsplit(",", 1)[0], "tail": rest + ";",
                    "semi": rest.replace(",", ";", 1), "extra": rest + ",0",
                    "eq": rest.replace(",", "=", 1)}.get(flaw, rest)
        elif flaw in ("bad-quat", "pose-count", "pose-gap"):
            rest = _pose(draw, draw(_bad_quats if flaw == "bad-quat" else _quats))
            if flaw == "pose-count":
                rest = draw(st.sampled_from([rest + " 0", rest.rsplit(None, 1)[0]]))
            elif flaw == "pose-gap":
                rest = "\x1f".join(rest.rsplit(None, 1))
        elif flaw == "eol-text":
            rest = f'text f "1{draw(_eol_chars)}5"'
        elif flaw == "mark":
            rest = draw(st.sampled_from(["mark C end", "mark C start"]))
        elif flaw == "kind":
            rest = draw(st.sampled_from(["skel", "pose cup", "warp x"]))
        elif flaw == "regression":
            head = f"t={stamps[i] - 0.25!r} u=a "
        elif flaw == "stamp":
            head = draw(st.sampled_from(["t=-1 u=a ", "t=nan u=a ", "t=abc u=a ",
                                         "t=1e400 u=a ", "x=1 u=a "]))
        else:
            head = draw(st.sampled_from([f"t={stamps[i]!r} u= ",
                                         f"t={stamps[i]!r} v=a "]))
        lines[i] = head + rest
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_recording(), block=st.integers(1, 5))
def test_bulk_parse_matches_per_line_loop(text, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(telemetry, "PARSE_BLOCK_LINES", block)
        assert_readers_agree(text)


@pytest.mark.parametrize("text", [
    "t=0 u=a skel head=0,1,2;hand-right=3,4,5\nt=1 u=a skel hand-right=0,1,2;head=3,4,5",
    "t=0 u=a skel head=0,1,2\nt=1 u=a skel a=1,2,3;b=4,5,6\nt=2 u=a skel head=7,8,9",
    "t=0 u=a skel head=0,1,2\nt=0 u=a skel head=\x1f1,2,3",
    "t=0 u=a skel head=1,2,3\x1f;b=1,2,3",
    "t=0 u=a skel head=1=2,3",
    "t=0 u=a skel head=1,2,3,4",
    "t=0 u=a skel head=1,2,3;b=4,5,6,7",
    "t=0 u=a pose cup 0 0 0 0 0 0 1\nt=0 u=a pose cup 0 0 0 0 0 0 1 1",
    "t=0 u=a pose cup 0 0 0 0 0 1",
    "t=0 u=a pose cup 0 0 0 0 0 0 1\nt=0 u=a pose cup 0 1e400 0 0 0 0 1",
    "t=0 u=a pose cup nan 0 0 0 0 0 1",
    "t=0 u=a pose cup 0 0 0 0 0 0 1\x1f\nt=0 u=a pose cup 1_0 0 0 0 0 0 1",
    "t=0 u=a mark A start\nt=0 u=a skel h=1,2,3\nt=1 u=b skel h=1,2,3\nt=0.5 u=a skel h=1,2,3",
    "t=0 u=a skel head=1,2,3\r\nt=1 u=a pose cup 0 0 0 0 0 0 1\r\n",
    't=0 u=a text f "1\r5"\nt=1 u=a skel head=1,2\r,3',
    "t=0 u=a skel head=1,2,3\nt=1 u=a skel head=\x1c1,2,3",
    "t=0 u=a skel head=1\x85,2,3\nt=1 u=a skel head=1,\u20282,3",
    "t=0 u=a pose cup 0 0 0\r0 0 0 1\nt=1 u=a pose cup 0\x85 0 0 0 0\u2028 0 1",
    't=0 u=a text f "1\u20285"\nt=0 u=a text f "\x1c"\nt=1 u=a text f "1\x855"',
])
def test_bulk_parse_matches_per_line_loop_on_edge_cases(text, monkeypatch):
    monkeypatch.setattr(telemetry, "PARSE_BLOCK_LINES", 3)
    assert_readers_agree(text)


@pytest.mark.parametrize("number,value", [("1_0", 10.0), ("１２", 12.0),
                                          ("\xa03", 3.0)])
def test_numbers_only_float_reads_keep_their_value(number, value):
    text = (f"t=0 u=a skel head=0,{number},0\n"
            f"t=1 u=a pose cup 0 {number} 0 0 0 0 1\n")
    skel, pose = parse_session(text).events
    assert skel.payload.positions[0, 1] == value
    assert pose.payload.position[1] == value


def test_error_line_is_exact_across_blocks(monkeypatch):
    good = "t=0 u=a skel head=0,1,0;hand-right=1,1,0\n"
    text = good * 6 + "t=0 u=a skel head=0,1,0;hand-right=1,inf,0\n" + good
    monkeypatch.setattr(telemetry, "PARSE_BLOCK_LINES", 4)
    with pytest.raises(RecordingError, match="^line 7: non-finite number inf$"):
        parse_session(text)


def test_bulk_frames_share_one_block_array(monkeypatch):
    text = "".join(f"t={i} u=a skel head=0,{i},0;hand-right=1,1,0\n"
                   for i in range(6))
    monkeypatch.setattr(telemetry, "PARSE_BLOCK_LINES", 4)
    frames = [e.payload for e in parse_session(text).events]
    assert [f.positions[0, 1] for f in frames] == [0, 1, 2, 3, 4, 5]
    assert frames[0].positions.base is frames[3].positions.base
    assert frames[4].positions.base is not frames[3].positions.base
    assert all(f.names is frames[0].names for f in frames)


def test_bulk_parse_matches_per_line_on_bundled_recordings(
        hydro_rec, collab_rec, monkeypatch):
    for rec in (hydro_rec, collab_rec):
        text = serialize_recording(rec)
        monkeypatch.setattr(telemetry, "PARSE_BLOCK_LINES", 97)
        assert_readers_agree(text)
        assert outcome(text)[1] == text.splitlines()
        monkeypatch.undo()


# -- round trips -------------------------------------------------------------

def test_bundled_recording_round_trip(hydro_rec):
    text = serialize_recording(hydro_rec)
    again = parse_session(text, session_id=hydro_rec.session_id)
    assert again.events == hydro_rec.events
    assert serialize_recording(again) == text


def test_serialize_handles_numpy_scalars():
    e = Event(t=np.float64(1.25), user="a",
              payload=Pose("cup", (np.float64(0.5), 0.0, 0.0), (0, 0, 0, 1)))
    line = serialize_event(e)
    assert "np" not in line and "float64" not in line
    assert parse_event_line(line) == e


@given(
    t=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    pos=st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False, width=64)] * 3),
    raw_q=st.tuples(*[st.floats(-1, 1)] * 4).filter(
        lambda q: sum(c * c for c in q) > 1e-4),
)
def test_pose_round_trip_property(t, pos, raw_q):
    n = math.sqrt(sum(c * c for c in raw_q))
    quat = tuple(c / n for c in raw_q)
    e = Event(t=t, user="u", payload=Pose("obj", pos, quat))
    assert parse_event_line(serialize_event(e)) == e


_joint_names = st.text(
    alphabet=st.characters(blacklist_characters=",;=",
                           blacklist_categories=("Cs", "Cc", "Z")),
    min_size=1, max_size=12)


@given(
    names=st.lists(_joint_names, min_size=1, max_size=30, unique=True),
    data=st.data(),
)
def test_skel_round_trip_property(names, data):
    coords = data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=3 * len(names), max_size=3 * len(names)))
    f = SkeletonFrame(names=tuple(names),
                      positions=np.array(coords).reshape(-1, 3))
    e = Event(t=0.5, user="u", payload=f)
    back = parse_event_line(serialize_event(e))
    assert back == e
    # -0.0 == 0.0, so compare signs too
    assert np.array_equal(np.signbit(back.payload.positions),
                          np.signbit(f.positions))


def test_layout_cache_shares_names_and_stays_bounded():
    a = parse_event_line("t=0 u=a skel head=0,1,0;hand-right=1,1,0").payload
    b = parse_event_line("t=1 u=b skel head=0,2,0;hand-right=2,1,0").payload
    assert a.names is b.names
    c = SkeletonFrame(names=("head", "hand-right"), positions=np.zeros((2, 3)))
    assert c.names is a.names
    for i in range(telemetry.LAYOUT_CACHE_SIZE + 10):
        parse_event_line(f"t=0 u=a skel joint-{i}=0,0,0")
        assert len(telemetry._layouts) <= telemetry.LAYOUT_CACHE_SIZE


@given(value=st.text(
    alphabet=st.characters(blacklist_characters='"\n\r',
                           blacklist_categories=("Cs", "Cc")),
    max_size=40))
def test_text_round_trip_property(value):
    e = Event(t=0.0, user="u", payload=TextInput("field", value))
    assert parse_event_line(serialize_event(e)) == e


# -- which events a reference task reads --------------------------------------
# build_reference_set routes a recording as a live Session does: a task
# reads the events written after its start mark and before its end mark.
# Each task below reads the poses of x, so the count and mean x of its
# reference's position feature tell which poses it read.

MARKED_NET = parse_network("".join(
    f"task {task}\n  kind primitive\n  user single a\n  weight 1.0\n"
    "  objects x head hand-right\n  assess both\n  check position subject=x\n"
    "  feedback final\nend\n" for task in ("T", "U", "outer", "inner")))


def pose_line(t, x):
    return f"t={t} u=a pose x {x} 0 0 0 0 0 1\n"


def taken(rec, task="T"):
    """How many poses of x the task's reference read from rec and their
    mean x; None when rec gives the task no reference."""
    refs = build_reference_set(MARKED_NET, [(rec, 1.0)])
    if task not in refs:
        return None
    feature = refs[task][0].features["position", "x"]
    return feature.samples, float(feature.value[0])


def test_slice_closed_interval():
    skel = "t={} u=a skel head={},1.7,0;hand-right=0.4,1.7,0\n".format
    text = (pose_line(0.5, 1) + skel(0.5, -9)
            + "t=1.0 u=a mark T start\n"
            + pose_line(1.0, 2) + skel(1.0, 0) + pose_line(2.0, 4)
            + skel(2.5, 1.5) + pose_line(4.0, 8) + skel(4.0, 3)
            + "t=4.0 u=a mark T end\n"
            + pose_line(5.0, 16) + skel(5.0, 9))
    rec = parse_session(text)
    assert taken(rec) == (3, pytest.approx(14 / 3))
    # key frames at 2/s from t0 = 1.0 up to t1 = 4.0, each the first
    # frame read at or after its time
    (ref,) = build_reference_set(MARKED_NET, [(rec, 1.0)])["T"]
    assert ref.track.positions[:, 0, 0].tolist() == [0, 1.5, 1.5, 1.5, 3, 3]


def test_slice_cuts_at_the_marks_not_at_their_times():
    # same-time events on the far side of a mark stay outside, as they do
    # for a live Session, which sees them before the start or after the end
    text = (pose_line(1.0, 1) + "t=1.0 u=a mark T start\n"
            + pose_line(1.0, 2) + pose_line(4.0, 4)
            + "t=4.0 u=a mark T end\n" + pose_line(4.0, 8))
    assert taken(parse_session(text)) == (2, pytest.approx(3.0))


def test_slice_excludes_only_own_marks():
    # another task's marks neither start nor end this one
    text = ("t=1.0 u=a mark outer start\n" + pose_line(1.5, 1)
            + "t=2.0 u=a mark inner start\n" + pose_line(2.5, 2)
            + "t=3.0 u=a mark inner end\n" + pose_line(3.5, 4)
            + "t=4.0 u=a mark outer end\n")
    rec = parse_session(text)
    assert taken(rec, "outer") == (3, pytest.approx(7 / 3))
    assert taken(rec, "inner") == (1, pytest.approx(2.0))


def test_slice_errors():
    # no marks, or more than one pair: the task gets no reference
    assert taken(parse_session(pose_line(0, 1))) is None
    two = parse_session("t=0 u=a mark T start\nt=1 u=a mark T end\n"
                        "t=2 u=a mark T start\nt=3 u=a mark T end\n"
                        "t=3 u=a mark U start\n" + pose_line(3.5, 1)
                        + "t=4 u=a mark U end\n")
    assert taken(two) is None
    assert taken(two, "U") == (1, pytest.approx(1.0))


# marks that parse_session rejects but a library-built recording can hold,
# as (time, edge) of T's marks; each gives T no reference, while U, marked
# around them, still gets one
LIBRARY_MARK_SHAPES = {
    "end without start": [(2, "end")],
    "start without end": [(2, "start")],
    "zero-length pair": [(2, "start"), (2, "end")],
    "second pair never ends": [(2, "start"), (3, "end"), (4, "start")],
    "nested start": [(2, "start"), (3, "start"), (4, "end")],
}


@pytest.mark.parametrize("shape", LIBRARY_MARK_SHAPES)
def test_unusable_marks_give_their_task_no_reference(shape):
    steps = [(0, TaskMark("U", "start"))]
    steps += [(t, TaskMark("T", edge)) for t, edge in LIBRARY_MARK_SHAPES[shape]]
    steps += [(k + 0.5, Pose("x", (k + 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)))
              for k in range(6)]
    steps += [(6, TaskMark("U", "end"))]
    rec = SessionRecording("library", tuple(
        Event(float(t), "a", payload)
        for t, payload in sorted(steps, key=lambda step: step[0])))
    assert taken(rec) is None
    assert taken(rec, "U") == (6, pytest.approx(3.0))


def test_slice_bundled_matches_brute_scan(hydro_net, hydro_rec, hydro_refs):
    # each task's reference reads what a reducer fed every event of its
    # member from its start mark's time to its end mark's time reads
    for task_id in hydro_net.primitive_ids():
        node = hydro_net.nodes[task_id]
        t0, t1 = (e.t for e in hydro_rec.events
                  if e.payload == TaskMark(task_id, "start")
                  or e.payload == TaskMark(task_id, "end"))
        samples = task_samples(node, t0)
        brute = [e for e in hydro_rec.events
                 if t0 <= e.t <= t1 and e.user in node.users.user_ids
                 and samples.add(e)]
        (ref,) = hydro_refs[task_id]
        want = samples.features()
        assert ref.features.keys() == want.keys()
        for key, feature in want.items():
            assert ref.features[key].samples == feature.samples > 0
            assert np.array_equal(ref.features[key].value, feature.value)
        if ref.track is not None:
            track = reference_track(brute, t0, t1, node.joints,
                                    TrajectoryParams(), "hydrometer")
            assert np.array_equal(ref.track.positions, track.positions)
            assert ref.track.hand_joint == track.hand_joint
        if task_id == "T2":
            assert len(brute) > 100


# -- height correction -------------------------------------------------------
# the correction factor comes from ActionEvaluator's first-second window;
# scale_frame applies it

def corrected_summary(frames, face_hand):
    """Summary after feeding (t, frame) pairs through ActionEvaluator against
    a reference whose face-hand distance is ``face_hand``."""
    ref = [skel_event(0.0, "r", head=(0, 1.6, 0), **{"hand-right": (0.6, 1.6, 0)})]
    track = reference_track(ref, 0.0, 1.0, ("head", "hand-right"),
                            TrajectoryParams())
    ev = ActionEvaluator(replace(track, face_hand_distance=face_hand), t_start=0.0)
    for t, f in frames:
        ev.observe(t, f)
    return ev.finalize(frames[-1][0])


def test_correction_identity_when_same_proportions():
    f = frame(head=(0, 1.7, 0), **{"hand-right": (0.4, 1.7, 0)})
    summary = corrected_summary([(0.0, f), (0.5, f)], 0.4)
    assert summary.correction_factor == 1.0  # exact, so scale_frame passes f through
    assert scale_frame(f, f.index("head"), summary.correction_factor) is f.positions


def test_correction_scales_about_head():
    f = frame(head=(0.0, 1.6, 0.0), **{"hand-right": (0.4, 1.6, 0.0)})
    summary = corrected_summary([(0.0, f), (0.5, f)], 0.6)
    assert summary.correction_factor == pytest.approx(1.5)
    out = scale_frame(f, f.index("head"), 1.5)
    assert np.allclose(out[f.index("head")], [0.0, 1.6, 0.0])
    assert np.allclose(out[f.index("hand-right")], [0.6, 1.6, 0.0])


def test_correction_refuses_degenerate_pose():
    f = frame(head=(0, 1.6, 0), **{"hand-right": (0.005, 1.6, 0)})
    g = frame(head=(0, 1.6, 0), **{"hand-right": (0.5, 1.6, 0)})
    # median of the warm-up window is 5 mm, under MIN_FACE_HAND_DISTANCE
    summary = corrected_summary([(0.0, f), (0.3, g), (0.6, f)], 0.6)
    assert summary.correction_factor == 1.0
    assert "height correction refused: degenerate pose" in summary.warnings


def test_correction_translation_invariant():
    rng = random.Random(11)
    for _ in range(25):
        h = [rng.uniform(-2, 2) for _ in range(3)]
        d = [rng.uniform(0.2, 0.8) for _ in range(3)]
        shift = np.array([rng.uniform(-5, 5) for _ in range(3)])
        f0 = frame(head=tuple(h), **{"hand-right": tuple(np.add(h, d))})
        f1 = frame(head=tuple(np.add(h, shift)),
                   **{"hand-right": tuple(np.add(h, d) + shift)})
        factor = 0.55 / float(np.linalg.norm(d))
        a = scale_frame(f0, 0, factor)
        b = scale_frame(f1, 0, factor)
        rel = a - a[0]  # head is row 0
        rel2 = b - b[0]
        assert np.allclose(rel, rel2, atol=1e-9)


def test_correction_requires_head():
    f = frame(**{"hand-right": (0.3, 1.6, 0)})
    summary = corrected_summary([(0.0, f), (0.5, f)], 0.6)
    assert summary.correction_factor == 1.0
    assert "height correction skipped: no usable frames" in summary.warnings


def test_scale_frame_factor_one_is_identity():
    f = frame(head=(0, 1.7, 0), **{"hand-right": (0.4, 1.2, 0.1)})
    assert scale_frame(f, 0, 1.0) is f.positions
    headless = frame(**{"hand-right": (0.4, 1.2, 0.1)})
    assert scale_frame(headless, None, 1.0) is headless.positions  # needs no head


# -- reference stats ---------------------------------------------------------

def test_reference_stats_median_over_first_second():
    events = [
        skel_event(0.0, "a", head=(0, 1.5, 0), **{"hand-right": (0.3, 1.0, 0)}),
        skel_event(0.4, "a", head=(0, 1.7, 0), **{"hand-right": (0.3, 1.0, 0)}),
        skel_event(0.8, "a", head=(0, 1.6, 0), **{"hand-right": (0.3, 1.2, 0)}),
        # past the 1 s window: must not shift the medians
        skel_event(2.0, "a", head=(0, 9.0, 0), **{"hand-right": (9, 9, 9)}),
    ]
    st_ = reference_track(events, 0.0, 3.0, ("head",), TrajectoryParams())
    assert st_.face_height == pytest.approx(1.6)
    assert st_.face_hand_distance == pytest.approx(math.sqrt(0.34))
    assert st_.hand_joint == "hand-right"


def test_reference_stats_picks_hand_nearest_subject():
    f = dict(head=(0, 1.7, 0))
    f["hand-left"] = (-0.4, 1.2, 0)
    f["hand-right"] = (0.4, 1.2, 0)
    cup = Pose("cup", (-0.45, 1.2, 0.0), (0, 0, 0, 1))
    # the subject's first pose decides, at the start or after the warm-up
    for events in ([Event(t=0.0, user="a", payload=cup), skel_event(0.0, "a", **f)],
                   [skel_event(0.0, "a", **f), Event(t=2.0, user="a", payload=cup)]):
        def hand(subject_object=None):
            return reference_track(events, 0.0, 3.0, ("head",),
                                   TrajectoryParams(), subject_object).hand_joint

        assert hand("cup") == "hand-left"
        assert hand() == "hand-right"


def test_reference_stats_requires_frames():
    with pytest.raises(ValueError, match="no skeleton frames"):
        reference_track((), 0.0, 1.0, ("head",), TrajectoryParams())


def test_reference_quality_range():
    with pytest.raises(ValueError):
        reduce_reference([], quality=1.5, t1=1.0)
