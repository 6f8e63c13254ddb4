"""The score/stream contract: batch ``score`` of a recording file and live
``stream`` of the same bytes on standard input exit alike, print the same
errors and write byte-identical reports, and a reference replayed against
itself scores delta 1.

Every case goes through one helper, ``score_and_stream``, which runs both
commands through ``cli.main`` and asserts that they agree. A case is a row
of ``CASES``, which says how its files are made from a bundled demo and
what its report and feedback hold, or one short test on the helper. The
contract has no exception: input that one command rejects, a start mark
still open at the end or no events at all included, the other rejects
with the same error, and neither writes a report."""

import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

import ahtn
from ahtn.telemetry import (Event, SessionRecording, SkeletonFrame, TaskMark,
                            parse_session, serialize_recording)


def score_and_stream(run, monkeypatch, tmp_path, net, refs, session, *flags,
                     encoding="utf-8"):
    """Run both commands on the same input and assert the contract: the
    same exit code and stderr, score silent on stdout, and the same report
    bytes or no report from either. ``score`` reads session from a file,
    ``stream`` reads its bytes from a standard input decoded with
    ``encoding``, lines ending at \\n as on POSIX. Returns stream's exit
    code, stdout and stderr, and the report text (None without one)."""
    path = tmp_path / "session.rec"
    path.write_bytes(session)
    files = ["--net", str(net), *(f for ref in refs for f in ("--refs", ref)), *flags]
    score_out, stream_out = tmp_path / "score.txt", tmp_path / "stream.txt"
    scored = run("score", *files, "--session", str(path), "--out", str(score_out))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(session), encoding=encoding, newline="\n"))
    code, out, err = run("stream", *files, "--out", str(stream_out))
    report = _report(stream_out)
    assert (*scored, _report(score_out)) == (code, "", err, report)
    return code, out, err, (None if report is None else report.decode("utf-8"))


def _report(path):
    return path.read_bytes() if path.exists() else None


# -- making a case's files from a demo's text --------------------------------------

def insert(at, line):
    """An edit that puts line before the at-th line (0-based)."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:at] + [line] + lines[at:])
    return edit


def recording(events):
    return serialize_recording(SessionRecording("s", tuple(events)))


def without_head(lo, hi):
    """An edit that drops the head from every skeleton frame in [lo, hi)."""
    def drop(e):
        p = e.payload
        if isinstance(p, SkeletonFrame) and lo <= e.t < hi:
            keep = [i for i, n in enumerate(p.names) if n != "head"]
            p = SkeletonFrame(names=tuple(p.names[i] for i in keep),
                              positions=p.positions[keep])
        return Event(e.t, e.user, p)
    return lambda text: recording(map(drop, parse_session(text).events))


def fall_in_first_second(text):
    """T1 ends at 1.4 s, inside its first second, with the head at a
    fifth of its height from 0.5 s: the warm-up replay at the end mark
    sees a fall."""
    events = []
    for e in parse_session(text).events:
        p = e.payload
        if p == TaskMark("T1", "end"):
            continue
        if isinstance(p, SkeletonFrame) and 0.5 <= e.t <= 1.4:
            pos = p.positions.copy()
            pos[p.index("head"), 1] *= 0.2
            p = SkeletonFrame(names=p.names, positions=pos)
        events.append(Event(e.t, e.user, p))
    at = next(i for i, e in enumerate(events) if e.t > 1.4)
    events.insert(at, Event(1.4, "student", TaskMark("T1", "end")))
    return recording(events)


def replace(old, new):
    """An edit that replaces old, which the text must hold, with new."""
    def edit(text):
        assert old in text
        return text.replace(old, new)
    return edit


def same(text):
    return text


def two_pairs(text):
    return text + "t=26.0 u=student mark T2 start\nt=26.5 u=student mark T2 end\n"


def byte_ff(text):
    # the surrogate escape of 0xff: the session is encoded with
    # surrogateescape, so line 2000 holds a byte that is not UTF-8
    lines = text.splitlines(keepends=True)
    lines[1999] = lines[1999][:27] + "\udcff" + lines[1999][28:]
    return "".join(lines)


@dataclass(frozen=True)
class Case:
    """A hydrometer case. net, session and each reference are edits of
    the demo's network and recording; a reference's quality None is a
    plain path. grep maps a text to the report lines holding it, and out
    is stream's stdout."""

    session: Callable[[str], str] = same
    refs: tuple = ((same, None),)
    net: Callable[[str], str] = same
    flags: tuple = ()
    encoding: str = "utf-8"
    code: int = 0
    error: str = ""
    grep: dict = field(default_factory=dict)
    out: tuple = ()


DELTA_1 = {"delta": ["delta 1.000000000"]}
OFF = replace('"1.257"', '"9.9"')  # T4's reading


def reference_lines(*pairs):
    """The report's reference lines: (count, index, quality) per run."""
    return [f"  reference index {i} quality {q}" for n, i, q in pairs for _ in range(n)]


CASES = {
    "self-replay": Case(grep={**DELTA_1, "no events routed": []}),
    # each task keeps the reference with the best quality-scaled grade,
    # the first of equals
    "better-second": Case(
        refs=((same, 0.6), (same, 1.0)),
        grep={**DELTA_1, "reference index": reference_lines((4, 1, "1.000000000"))}),
    "tie": Case(
        refs=((same, 1.0), (same, 1.0)),
        grep={**DELTA_1, "reference index": reference_lines((4, 0, "1.000000000"))}),
    "lower-quality-wins-t4": Case(
        refs=((OFF, 1.0), (same, 0.9)),
        grep={"delta": ["delta 0.980000000"], "reference index": reference_lines(
            (3, 0, "1.000000000"), (1, 1, "0.900000000"))}),
    # the reference and the session are cut by the same rule, the first
    # pair of a task's marks, so the second pair is ignored on both sides
    "second-pair": Case(
        session=two_pairs, refs=((two_pairs, None),),
        grep={**DELTA_1, "warning": [
            "warning duplicate start mark for task 'T2' ignored",
            "warning end mark without active task 'T2' ignored"]}),
    "no-text": Case(
        session=lambda text: "".join(line for line in text.splitlines(True)
                                     if " text " not in line),
        grep={"warning": [
            "warning task T4: no events routed from student",
            "warning task T4: check text-input measured-value: error: no data: "
            "no TextInput for field 'measured-value'"]}),
    # with no wait the warm-up replay aborts; T1's feedback is final, so
    # anomaly and abort are sent and progress is not
    "warm-up-fall": Case(
        session=fall_in_first_second, flags=("--anomaly-wait", "0"),
        grep={"aborted": [
            "aborted true",
            "task T1 status performed omega 0.500000000 weight 0.300000000 [aborted]",
            "  trajectory user student burst 0 missed 0 spawned 1 repetitions 0 "
            "episodes 1 factor 0.926542362 score 0.000000000 [aborted]"]},
        out=("t=1.400000000 scope=student kind=anomaly task=T1 anomaly=fall edge=start",
             "t=1.400000000 scope=student kind=abort task=T1 anomaly=fall")),
    "misspelled-user": Case(
        session=replace(" u=student ", " u=Student "),
        grep={"task T2 status": [
            "task T2 status performed omega 0.500000000 weight 0.200000000"],
              "no events routed": [f"warning task {task}: no events routed from student"
                                   for task in ("T1", "T2", "T3", "T4")]}),
    "knee-left-tracked": Case(
        net=replace("objects hydrometer hand head hand-right\n",
                    "objects hydrometer hand head hand-right knee-left\n"),
        grep={"cannot be scored": [
            "warning task T1: action level cannot be scored: reference missing "
            "joint 'knee-left' at key frame 0"]}),
    "reference-headless-one-frame": Case(
        refs=((without_head(0.6, 0.61), None),), grep={"cannot be scored": []}),
    "reference-headless-first-second": Case(
        refs=((without_head(0.0, 1.6), None),),
        grep={"cannot be scored": [
            "warning task T1: action level cannot be scored: no skeleton frame "
            "holds both head and hand-right"]}),
    # a line ends at \n alone and a recording is UTF-8, whatever the
    # locale says standard input holds
    "u2028": Case(session=replace('"1.257"', '"1.2\u20287"')),
    "x1c": Case(session=replace('"1.257"', '"1.2\x1c57"')),
    "cr": Case(session=replace('"1.257"', '"1.2\r57"')),
    "utf-8-under-latin-1": Case(
        net=replace("student", "zoë"), session=replace("student", "zoë"),
        refs=((replace("student", "zoë"), None),), encoding="latin-1",
        grep=DELTA_1),
    # both fail naming the line, and neither writes a report
    "nested-start": Case(
        session=insert(47, "t=0.5 u=student mark T1 start\n"), code=1,
        error="ahtn: error: line 48: nested start mark for task 'T1'\n"),
    "timestamp-regression": Case(
        session=insert(100, "t=0.0 u=student pose cylinder 0.3 1.0 0.5 0 0 0 1\n"),
        code=1,
        error="ahtn: error: line 101: timestamp regression: 0.0 after "
              "1.0666666666666667\n"),
    "not-utf-8": Case(
        session=byte_ff, code=1,
        error="ahtn: error: line 2000: 'utf-8' codec can't decode byte 0xff in "
              "position 27: invalid start byte\n"),
    "nan-pose": Case(
        session=insert(2, "t=0.0 u=student pose cup 0 0 0 nan nan nan nan\n"), code=1,
        error="ahtn: error: line 3: non-finite number nan\n"),
    # a start mark still open at the end of input fails both, as a live
    # stream cannot tell a task left open from a recording cut short
    "open-at-end": Case(
        session=replace("t=25.0 u=student mark T4 end\n", ""), code=1,
        error="ahtn: error: line 1920: unmatched start mark for task 'T4'\n"),
    "empty": Case(
        session=lambda text: "# nothing here\n", code=1,
        error="ahtn: error: no events to grade\n"),
    # a task whose end mark falls after the timeout is unfinished
    "timeout-unfinished": Case(
        flags=("--timeout", "22"),
        grep={"never ended": ["warning task T4: never ended; scored 0"],
              "task T4 status": [
                  "task T4 status unfinished omega 0.000000000 weight 0.200000000"],
              "delta": ["delta 0.800000000"]}),
}


def hydrometer_case(demo_dir, tmp_path, case):
    """The case's network path, --refs values and session bytes."""
    net_text = (demo_dir / "hydrometer.ahtn").read_text(encoding="utf-8")
    rec_text = (demo_dir / "hydrometer.rec").read_text(encoding="utf-8")
    net = tmp_path / "net.ahtn"
    net.write_text(case.net(net_text), encoding="utf-8")
    refs = []
    for i, (edit, quality) in enumerate(case.refs):
        path = tmp_path / f"ref{i}.rec"
        path.write_text(edit(rec_text), encoding="utf-8")
        refs.append(str(path) if quality is None else f"{path}@{quality}")
    return net, refs, case.session(rec_text).encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("name", CASES)
def test_score_and_stream_agree(run, monkeypatch, demo_dir, tmp_path, name):
    case = CASES[name]
    net, refs, session = hydrometer_case(demo_dir, tmp_path, case)
    code, out, err, report = score_and_stream(
        run, monkeypatch, tmp_path, net, refs, session, *case.flags,
        encoding=case.encoding)
    assert (code, err) == (case.code, case.error)
    assert out.splitlines() == list(case.out)
    if code:
        assert report is None
    lines = (report or "").splitlines()
    for text, expected in case.grep.items():
        assert [line for line in lines if text in line] == expected, text


def test_collaborative_self_replay_sends_live_feedback(
        run, monkeypatch, demo_dir, tmp_path):
    rec = demo_dir / "collaborative.rec"
    code, out, err, report = score_and_stream(
        run, monkeypatch, tmp_path, demo_dir / "collaborative.ahtn", [str(rec)],
        rec.read_bytes())
    assert (code, err) == (0, "")
    assert "delta 1.000000000" in report.splitlines()
    lines = out.splitlines()
    assert sum("kind=task-complete" in line for line in lines) == 5
    scores = [line for line in lines if "kind=task-score" in line]
    assert len(scores) == 5 and all("pass=true" in line for line in scores)
    assert any("kind=burst" in line for line in lines)



def test_task_marks_are_logged_at_debug_only(demo_dir, tmp_path):
    # in a fresh interpreter each, so that AHTN_LOG configures logging
    net, rec = demo_dir / "hydrometer.ahtn", demo_dir / "hydrometer.rec"
    marks = [line.split() for line in rec.read_text(encoding="utf-8").splitlines()
             if " mark " in line]
    expected = [f"ahtn: DEBUG: {t}: task {task} {edge}"
                for t, _, _, task, edge in marks]
    assert len(expected) == 8
    env = {k: v for k, v in os.environ.items() if k != "AHTN_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(ahtn.__file__).parents[1]), env.get("PYTHONPATH"))))
    files = ["--net", str(net), "--refs", str(rec), "--out", str(tmp_path / "r.txt")]
    for level in (None, "debug"):
        if level:
            env["AHTN_LOG"] = level
        errs = [subprocess.run(
            [sys.executable, "-m", "ahtn.cli", command, *files, *extra],
            input=rec.read_bytes() if command == "stream" else b"",
            capture_output=True, env=env, timeout=120, check=True).stderr
            for command, extra in (("score", ("--session", str(rec))), ("stream", ()))]
        if level is None:
            assert errs == [b"", b""]
        else:
            debug = [[line for line in err.decode().splitlines() if "DEBUG" in line]
                     for err in errs]
            assert debug == [expected, expected]
