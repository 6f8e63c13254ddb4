"""Command line behavior: exit codes, output formats, flag plumbing."""

import io

import pytest

from ahtn.cli import build_parser, main
from ahtn.engine import EngineConfig, build_reference_set, score_recording
from ahtn.harness import format_monotonicity, monotonicity_report
from ahtn.model import TrajectoryParams, parse_network
from ahtn.report import render_report
from ahtn.telemetry import (Event, SessionRecording, SkeletonFrame, TaskMark,
                            parse_session, serialize_recording)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def stdin(text, encoding="utf-8"):
    """A standard input holding text as UTF-8 bytes, decoded with
    ``encoding`` and lines ending at \\n, as on POSIX."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                            encoding=encoding, newline="\n")


def hydro(demo_dir, name):
    return str(demo_dir / f"hydrometer.{name}")


def collab(demo_dir, name):
    return str(demo_dir / f"collaborative.{name}")


# -- validate ------------------------------------------------------------------

def test_validate_ok(run, demo_dir):
    code, out, _ = run("validate", hydro(demo_dir, "ahtn"))
    assert code == 0
    assert out.strip().splitlines()[-1] == "ok"


def test_validate_reports_warnings_but_passes(run, demo_dir):
    code, out, _ = run("validate", collab(demo_dir, "ahtn"))
    assert code == 0
    assert "warning" in out and "weights are 0" in out
    # a network-wide issue names no task, so no blank stands in for one
    assert ("warning: all task weights are 0 for assessed scope 'instructor'"
            in out.splitlines())
    assert out.strip().splitlines()[-1] == "ok"


def test_validate_structural_error_exits_one(run, tmp_path):
    bad = tmp_path / "bad.ahtn"
    bad.write_text(
        "task A\n  kind primitive\n  pred B\n  user single u\n  weight 1\n"
        "  objects o\n  assess task-level\n  check position subject=o\n"
        "  feedback final\nend\n")
    code, out, _ = run("validate", str(bad))
    assert code == 1
    assert "dangling predecessor" in out
    assert "ok" not in out.splitlines()


def test_validate_syntax_error_exits_one(run, tmp_path):
    bad = tmp_path / "bad.ahtn"
    bad.write_text("task A\n  kind sideways\nend\n")
    code, _, err = run("validate", str(bad))
    assert code == 1
    assert "ahtn: error: line 2" in err


def test_missing_file_exits_one(run):
    code, _, err = run("validate", "/nonexistent/net.ahtn")
    assert code == 1
    assert "ahtn: error" in err


# -- score ----------------------------------------------------------------------

def test_score_survives_headless_frame_after_correction(run, demo_dir, tmp_path):
    rec = parse_session((demo_dir / "hydrometer.rec").read_text(), "s")
    events = []
    for e in rec.events:
        p = e.payload
        if isinstance(p, SkeletonFrame):
            head = p.position("head")
            # a smaller learner (factor 1.25); one frame mid-T1 loses its head
            keep = [i for i, n in enumerate(p.names)
                    if not (n == "head" and 4.0 <= e.t < 4.1)]
            pos = head + 0.8 * (p.positions - head)
            p = SkeletonFrame(names=tuple(p.names[i] for i in keep),
                              positions=pos[keep])
        events.append(Event(e.t, e.user, p))
    assert sum(isinstance(e.payload, SkeletonFrame) and not e.payload.has("head")
               for e in events) > 0
    session = tmp_path / "headless.rec"
    session.write_text(serialize_recording(
        SessionRecording(rec.session_id, tuple(events))))
    out_path = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", str(session), "--out", str(out_path))
    assert code == 0
    assert ("trajectory-warning frames without head skipped: cannot "
            "height-correct") in out_path.read_text()


def test_score_writes_perfect_report(run, demo_dir, tmp_path):
    out_path = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", hydro(demo_dir, "rec"),
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("ahtn-report v1\n")
    assert "delta 1.000000000" in text
    assert text.endswith("end-report\n")


def test_score_reference_quality_scales_grade(run, demo_dir, tmp_path):
    out_path = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec") + "@0.9",
                     "--session", hydro(demo_dir, "rec"),
                     "--out", str(out_path))
    assert code == 0
    assert "delta 0.900000000" in out_path.read_text()


def test_score_bad_quality_suffix(run, demo_dir, tmp_path):
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec") + "@high",
                       "--session", hydro(demo_dir, "rec"),
                       "--out", str(tmp_path / "r.txt"))
    assert code == 1
    assert "bad reference quality" in err


def test_score_override_flags_echo_into_report(run, demo_dir, tmp_path):
    out_path = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", hydro(demo_dir, "rec"),
                     "--out", str(out_path),
                     "--position-tol", "0.25", "--skip-time", "7.5")
    assert code == 0
    text = out_path.read_text()
    assert "config position-tol 0.25" in text
    assert "config skip-time 7.5" in text
    assert "config match-radius 0.1" in text  # untouched default still echoed


def test_trajectory_flags_are_the_library_trajectory_params(run, demo_dir, tmp_path):
    out_path = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", hydro(demo_dir, "rec"),
                     "--out", str(out_path),
                     "--match-radius", "0.05", "--key-rate", "4")
    assert code == 0
    net = parse_network((demo_dir / "hydrometer.ahtn").read_text())
    rec = parse_session((demo_dir / "hydrometer.rec").read_text())
    p = TrajectoryParams(match_radius=0.05, key_rate=4.0)
    config = EngineConfig(net, build_reference_set(net, [(rec, 1.0)], p),
                          trajectory=p)
    text = render_report(score_recording(config, rec))
    assert out_path.read_text() == text
    t1 = text.split("task T1 ", 1)[1].split("\ntask ", 1)[0]
    assert " spawned 30 " in t1  # ceil(7.5 s x 4 key poses a second)


@pytest.mark.parametrize("flag, value", [
    ("--orientation-tol", "0"),  # once a ZeroDivisionError
    ("--key-rate", "0"),  # once a ZeroDivisionError
    ("--position-tol", "nan"),  # once scored T3 0 without a word
    ("--skip-time", "-1"),
    ("--match-radius", "-1"),  # once matched within 1 m: the radius is squared
    ("--timeout", "-1"),  # once left every task unperformed
    ("--orientation-tol", "-1"),
    ("--collision-penalty", "-1"),
    ("--action-share", "2"),
])
def test_out_of_range_override_is_usage_error(run, demo_dir, tmp_path, flag, value):
    out_path = tmp_path / "r.txt"
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--session", hydro(demo_dir, "rec"),
                       "--out", str(out_path), flag, value)
    assert code == 2
    assert f"argument {flag}: must be finite and " in err
    assert not out_path.exists()


@pytest.mark.parametrize("flags", [
    ("--pass-threshold", "0", "--action-share", "0"),
    ("--pass-threshold", "1", "--action-share", "1", "--collision-penalty", "1"),
    ("--skip-time", "0", "--anomaly-wait", "0", "--anomaly-penalty", "0"),
])
def test_override_range_edges_are_accepted(run, demo_dir, tmp_path, flags):
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--session", hydro(demo_dir, "rec"),
                       "--out", str(tmp_path / "r.txt"), *flags)
    assert code == 0, err


def test_score_missing_reference_names_tasks(run, demo_dir, tmp_path):
    # collaborative references cannot satisfy the hydrometer network
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", collab(demo_dir, "rec"),
                       "--session", hydro(demo_dir, "rec"),
                       "--out", str(tmp_path / "r.txt"))
    assert code == 1
    assert "weighted tasks without a reference" in err
    assert "T1" in err


# -- stream -----------------------------------------------------------------------

def test_stream_report_matches_batch_score(run, demo_dir, tmp_path, monkeypatch):
    batch_out = tmp_path / "batch.txt"
    run("score", "--net", hydro(demo_dir, "ahtn"),
        "--refs", hydro(demo_dir, "rec"),
        "--session", hydro(demo_dir, "rec"), "--out", str(batch_out))

    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin",
                        stdin((demo_dir / "hydrometer.rec").read_text()))
    code, out, _ = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--out", str(stream_out))
    assert code == 0
    assert out == ""  # hydrometer tasks all use final feedback
    assert stream_out.read_bytes() == batch_out.read_bytes()


def test_check_error_warning_is_the_same_in_score_and_stream(
        run, demo_dir, tmp_path, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_text().splitlines(keepends=True)
    session = "".join(l for l in lines if " text " not in l)
    assert len(session) < len("".join(lines))
    session_path = tmp_path / "no-text.rec"
    session_path.write_text(session)
    batch_out = tmp_path / "batch.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", str(session_path), "--out", str(batch_out))
    assert code == 0
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin", stdin(session))
    code, _, _ = run("stream", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"), "--out", str(stream_out))
    assert code == 0
    assert stream_out.read_bytes() == batch_out.read_bytes()
    assert ("warning task T4: check text-input measured-value: error: no data: "
            "no TextInput for field 'measured-value'\n") in batch_out.read_text()


def test_warm_up_replayed_at_the_end_mark_sends_its_feedback(
        run, demo_dir, tmp_path, monkeypatch):
    # T1 runs 0.5 s to 1.4 s, inside its first second, with the head at a
    # fifth of its height: the warm-up replay at the end mark sees a fall
    # and, with no wait, aborts
    rec = parse_session((demo_dir / "hydrometer.rec").read_text(), "s")
    events = []
    for e in rec.events:
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
    session = serialize_recording(
        SessionRecording(rec.session_id, tuple(events)))
    session_path = tmp_path / "fall.rec"
    session_path.write_text(session)
    batch_out = tmp_path / "batch.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"), "--anomaly-wait", "0",
                     "--session", str(session_path), "--out", str(batch_out))
    assert code == 0
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin", stdin(session))
    code, out, _ = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"), "--anomaly-wait", "0",
                       "--out", str(stream_out))
    assert code == 0
    assert stream_out.read_bytes() == batch_out.read_bytes()
    # T1's feedback is final: anomaly and abort are sent, progress is not
    assert out.splitlines() == [
        "t=1.400000000 scope=student kind=anomaly task=T1 anomaly=fall edge=start",
        "t=1.400000000 scope=student kind=abort task=T1 anomaly=fall"]
    report = batch_out.read_text()
    assert "\naborted true\n" in report
    assert ("task T1 status performed omega 0.500000000 weight 0.300000000 "
            "[aborted]\n") in report


def test_misspelled_user_warns_of_empty_tasks_in_score_and_stream(
        run, demo_dir, tmp_path, monkeypatch):
    text = (demo_dir / "hydrometer.rec").read_text()
    assert " u=student " in text
    session = text.replace(" u=student ", " u=Student ")
    session_path = tmp_path / "misspelled.rec"
    session_path.write_text(session)
    batch_out = tmp_path / "batch.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", str(session_path), "--out", str(batch_out))
    assert code == 0
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin", stdin(session))
    code, _, _ = run("stream", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"), "--out", str(stream_out))
    assert code == 0
    assert stream_out.read_bytes() == batch_out.read_bytes()
    report = batch_out.read_text()
    assert "task T2 status performed omega 0.500000000" in report
    for task in ("T1", "T2", "T3", "T4"):
        assert report.count(
            f"warning task {task}: no events routed from student\n") == 1


def test_clean_session_has_no_empty_task_warning(run, demo_dir, tmp_path):
    out = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", hydro(demo_dir, "rec"), "--out", str(out))
    assert code == 0
    assert "no events routed" not in out.read_text()


def test_reference_missing_tracked_joint_is_the_same_warning_in_score_and_stream(
        run, demo_dir, tmp_path, monkeypatch):
    text = (demo_dir / "hydrometer.ahtn").read_text()
    tracked = "objects hydrometer hand head hand-right\n"
    assert tracked in text
    net_path = tmp_path / "knee.ahtn"
    net_path.write_text(text.replace(tracked, tracked[:-1] + " knee-left\n"))
    batch_out = tmp_path / "batch.txt"
    code, _, _ = run("score", "--net", str(net_path),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", hydro(demo_dir, "rec"), "--out", str(batch_out))
    assert code == 0
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin",
                        stdin((demo_dir / "hydrometer.rec").read_text()))
    code, _, _ = run("stream", "--net", str(net_path),
                     "--refs", hydro(demo_dir, "rec"), "--out", str(stream_out))
    assert code == 0
    assert stream_out.read_bytes() == batch_out.read_bytes()
    assert ("warning task T1: action level cannot be scored: reference missing "
            "joint 'knee-left' at key frame 0\n") in batch_out.read_text()


@pytest.mark.parametrize("headless, warning", [
    ((0.6, 0.61), None),
    ((0.0, 1.6), "warning task T1: action level cannot be scored: "
                 "no skeleton frame holds both head and hand-right\n"),
], ids=["one-frame", "first-second"])
def test_reference_frames_without_head_are_the_same_in_score_and_stream(
        run, demo_dir, tmp_path, monkeypatch, headless, warning):
    rec = parse_session((demo_dir / "hydrometer.rec").read_text(), "ref")
    events = []
    for e in rec.events:
        p = e.payload
        if isinstance(p, SkeletonFrame) and headless[0] <= e.t < headless[1]:
            keep = [i for i, n in enumerate(p.names) if n != "head"]
            p = SkeletonFrame(names=tuple(p.names[i] for i in keep),
                              positions=p.positions[keep])
        events.append(Event(e.t, e.user, p))
    refs = tmp_path / "headless.rec"
    refs.write_text(serialize_recording(
        SessionRecording(rec.session_id, tuple(events))))
    batch_out = tmp_path / "batch.txt"
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", str(refs),
                       "--session", hydro(demo_dir, "rec"), "--out", str(batch_out))
    assert code == 0, err
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin",
                        stdin((demo_dir / "hydrometer.rec").read_text()))
    code, _, err = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", str(refs), "--out", str(stream_out))
    assert code == 0, err
    assert stream_out.read_bytes() == batch_out.read_bytes()
    report = batch_out.read_text()
    if warning is None:
        assert "cannot be scored" not in report
    else:
        assert warning in report


def test_stream_emits_realtime_feedback(run, demo_dir, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin",
                        stdin((demo_dir / "collaborative.rec").read_text()))
    code, out, _ = run("stream", "--net", collab(demo_dir, "ahtn"),
                       "--refs", collab(demo_dir, "rec"))
    assert code == 0
    lines = out.splitlines()
    assert sum("kind=task-complete" in ln for ln in lines) == 5
    assert sum("kind=task-score" in ln for ln in lines) == 5
    assert all("pass=true" in ln for ln in lines if "kind=task-score" in ln)
    assert any("kind=burst" in ln for ln in lines)


def test_stream_requires_events(run, demo_dir, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin("# nothing here\n"))
    code, _, err = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"))
    assert code == 1
    assert "no events on standard input" in err


def test_stream_fails_fast_on_malformed_line(run, demo_dir, tmp_path, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_text().splitlines(keepends=True)
    bad = lines[:2] + ["t=0.0 u=student pose cup 0 0 0 nan nan nan nan\n"] + lines[2:]
    monkeypatch.setattr("sys.stdin", stdin("".join(bad)))
    out_path = tmp_path / "report.txt"
    code, _, err = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"), "--out", str(out_path))
    assert code == 1
    assert "line 3" in err
    assert not out_path.exists()


def _stream_and_score(run, demo_dir, tmp_path, monkeypatch, text):
    """Exit codes and errors of stream and score over the same text."""
    session = tmp_path / "session.rec"
    session.write_text(text)
    monkeypatch.setattr("sys.stdin", stdin(text))
    stream_out = tmp_path / "stream.txt"
    streamed = run("stream", "--net", hydro(demo_dir, "ahtn"),
                   "--refs", hydro(demo_dir, "rec"), "--out", str(stream_out))
    scored = run("score", "--net", hydro(demo_dir, "ahtn"),
                 "--refs", hydro(demo_dir, "rec"), "--session", str(session),
                 "--out", str(tmp_path / "score.txt"))
    assert not stream_out.exists()
    return (streamed[0], streamed[2]), (scored[0], scored[2])


def test_stream_rejects_a_nested_start_mark_like_score(
        run, demo_dir, tmp_path, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_text().splitlines(keepends=True)
    assert lines[46] == "t=0.5 u=student mark T1 start\n"
    text = "".join(lines[:47] + lines[46:])
    error = "ahtn: error: line 48: nested start mark for task 'T1'\n"
    assert _stream_and_score(run, demo_dir, tmp_path, monkeypatch, text) == (
        (1, error), (1, error))


def test_stream_names_the_line_of_a_timestamp_regression(
        run, demo_dir, tmp_path, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_text().splitlines(keepends=True)
    text = "".join(lines[:100] + [lines[0]] + lines[100:])
    (code, err), scored = _stream_and_score(run, demo_dir, tmp_path,
                                            monkeypatch, text)
    assert code == 1 and "ahtn: error: line 101: timestamp regression: 0.0 after" in err
    assert scored == (code, err)


def test_a_byte_that_is_not_utf8_names_its_line(run, demo_dir, tmp_path, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_bytes().split(b"\n")
    lines[1999] = lines[1999][:27] + b"\xff" + lines[1999][28:]
    data = b"\n".join(lines)
    session = tmp_path / "session.rec"
    session.write_bytes(data)
    files = ("--net", hydro(demo_dir, "ahtn"), "--refs", hydro(demo_dir, "rec"))
    score_out, stream_out = tmp_path / "score.txt", tmp_path / "stream.txt"
    scored = run("score", *files, "--session", str(session), "--out", str(score_out))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                      encoding="utf-8", newline="\n"))
    streamed = run("stream", *files, "--out", str(stream_out))
    for code, _, err in (scored, streamed):
        assert code == 1
        assert err.startswith("ahtn: error: line 2000: 'utf-8' codec can't decode byte 0xff")
    assert not score_out.exists() and not stream_out.exists()


@pytest.mark.parametrize("old, new, encoding", [
    ('"1.257"', '"1.2\u20287"', "utf-8"),
    ('"1.257"', '"1.2\x1c57"', "utf-8"),
    ('"1.257"', '"1.2\r57"', "utf-8"),
    ("student", "zo\u00eb", "latin-1"),
], ids=["u2028", "x1c", "cr", "utf-8-under-latin-1"])
def test_score_and_stream_read_the_same_lines_and_characters(
        run, demo_dir, tmp_path, monkeypatch, old, new, encoding):
    # a line ends at \n alone and a recording is UTF-8, whatever the
    # locale says standard input holds; a renamed user is renamed in the
    # network and the reference too
    net = (demo_dir / "hydrometer.ahtn").read_text(encoding="utf-8")
    ref = (demo_dir / "hydrometer.rec").read_text(encoding="utf-8")
    assert old in ref
    session = ref.replace(old, new)
    if old == "student":
        net, ref = net.replace(old, new), session
    for name, text in (("net.ahtn", net), ("ref.rec", ref), ("session.rec", session)):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    files = ("--net", str(tmp_path / "net.ahtn"), "--refs", str(tmp_path / "ref.rec"))
    batch_out = tmp_path / "batch.txt"
    scored, _, err = run("score", *files, "--session", str(tmp_path / "session.rec"),
                         "--out", str(batch_out))
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin", stdin(session, encoding))
    streamed, _, _ = run("stream", *files, "--out", str(stream_out))
    assert (scored, streamed) == (0, 0), err
    assert stream_out.read_bytes() == batch_out.read_bytes()


# -- simulate -----------------------------------------------------------------------

def test_simulate_table_and_csv(run, demo_dir, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--magnitudes", "0,0.05", "--trials", "10",
                       "--seed", "1", "--csv", str(csv_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["magnitude", "mean-delta", "std", "trials"]
    assert len(lines) == 3
    first = lines[1].split()
    assert first[0] == "0.0000" and first[1] == "1.000000"
    second = lines[2].split()
    assert float(second[1]) < 1.0
    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == "magnitude,mean_delta,std_delta,trials"
    assert len(csv_lines) == 3


def test_simulate_trajectory_flags_are_the_library_trajectory_params(run, demo_dir):
    code, out, _ = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--magnitudes", "0,0.1", "--trials", "10",
                       "--match-radius", "0.2", "--key-rate", "1")
    assert code == 0
    net = parse_network((demo_dir / "hydrometer.ahtn").read_text())
    rec = parse_session((demo_dir / "hydrometer.rec").read_text())
    p = TrajectoryParams(match_radius=0.2, key_rate=1.0)
    assert out == format_monotonicity(monotonicity_report(net, rec, [0.0, 0.1], 10,
                                                          trajectory=p))
    assert out != format_monotonicity(monotonicity_report(net, rec, [0.0, 0.1], 10))


def test_simulate_rejects_low_trials(run, demo_dir):
    # 3 and -1 once failed in the study, exit 1, naming no flag
    for trials in ("3", "-1", "x"):
        code, out, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                             "--refs", hydro(demo_dir, "rec"),
                             "--magnitudes", "0,0.1", "--trials", trials)
        assert code == 2 and out == "", trials
        assert ("argument --trials: must be an integer of at least 10: "
                f"{trials}") in err


def test_simulate_takes_one_reference(run, demo_dir):
    code, _, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--refs", collab(demo_dir, "rec"),
                       "--magnitudes", "0,0.1", "--trials", "10")
    assert code == 1
    assert "exactly one" in err


def test_simulate_refs_is_a_plain_path(run, demo_dir):
    # simulate scores at quality 1, so a quality suffix is not read as one
    spec = hydro(demo_dir, "rec") + "@0.5"
    code, out, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                         "--refs", spec, "--magnitudes", "0", "--trials", "10")
    assert code == 1 and out == ""
    assert "ahtn: error:" in err and "hydrometer.rec@0.5" in err


@pytest.mark.parametrize("magnitudes", [
    "0,inf",  # once an OverflowError traceback
    "0,1e400",  # the same: reads as inf
    "nan",  # once cannot convert float NaN to integer
])
def test_simulate_non_finite_magnitude_is_usage_error(run, demo_dir, magnitudes):
    code, _, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--magnitudes", magnitudes, "--trials", "10")
    assert code == 2
    assert "argument --magnitudes: must be finite and in [0, 1]" in err


@pytest.mark.parametrize("seed", ["-3", "1.5", "x"])
def test_simulate_bad_seed_is_usage_error(run, demo_dir, seed):
    # a negative seed once failed in numpy, exit 1, naming no flag
    code, out, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                         "--refs", hydro(demo_dir, "rec"), "--magnitudes", "0",
                         "--trials", "10", "--seed", seed)
    assert code == 2 and out == ""
    assert f"argument --seed: must be a non-negative integer: {seed}" in err


def test_simulate_magnitude_above_one_is_usage_error(capsys):
    # the flag is parsed only: simulate at 1e8 once asked perturb for
    # 5,000,000,000 collisions
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["simulate", "--net", "n.ahtn", "--refs", "r.rec",
                                   "--magnitudes", "0,1e8"])
    assert exit_.value.code == 2
    assert ("argument --magnitudes: must be finite and in [0, 1]: 100000000.0"
            in capsys.readouterr().err)
    args = build_parser().parse_args(["simulate", "--net", "n.ahtn",
                                      "--refs", "r.rec", "--magnitudes", "0,1"])
    assert args.magnitudes == [0.0, 1.0]


# -- correlate -----------------------------------------------------------------------

def test_correlate_identity(run, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a 10 10\nb 60 60\nc 90 90\n")
    code, out, _ = run("correlate", "--pairs", str(pairs), "--method", "pearson")
    assert code == 0
    assert out == "1.000000\n"


def test_correlate_kendall_example(run, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a 10 20\nb 20 10\nc 30 40\nd 40 30\ne 50 50\n")
    code, out, _ = run("correlate", "--pairs", str(pairs), "--method", "kendall")
    assert code == 0
    assert out == "0.600000\n"


def test_correlate_zero_variance_fails(run, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a 50 10\nb 50 20\n")
    code, _, err = run("correlate", "--pairs", str(pairs), "--method", "pearson")
    assert code == 1
    assert "zero variance" in err


def test_correlate_unknown_method_is_usage_error(run, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a 1 1\nb 2 2\n")
    code, _, _ = run("correlate", "--pairs", str(pairs), "--method", "cosine")
    assert code == 2


# -- usage and logging ----------------------------------------------------------------

def test_unknown_command_is_usage_error(run):
    code, _, _ = run("transmogrify")
    assert code == 2


def test_missing_required_flag_is_usage_error(run, demo_dir):
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"))
    assert code == 2


def test_log_env_smoke(run, demo_dir, monkeypatch):
    monkeypatch.setenv("AHTN_LOG", "debug")
    code, out, _ = run("validate", hydro(demo_dir, "ahtn"))
    assert code == 0 and out.strip().splitlines()[-1] == "ok"
    monkeypatch.setenv("AHTN_LOG", "bogus-level")
    code, _, _ = run("validate", hydro(demo_dir, "ahtn"))
    assert code == 0
