"""Command line behavior: exit codes, output formats, flag plumbing."""

import io

import pytest

from ahtn.cli import main
from ahtn.telemetry import (Event, SessionRecording, SkeletonFrame,
                            parse_session, serialize_recording)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


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
        SessionRecording(rec.session_id, rec.user_ids, tuple(events))))
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
                        io.StringIO((demo_dir / "hydrometer.rec").read_text()))
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
    monkeypatch.setattr("sys.stdin", io.StringIO(session))
    code, _, _ = run("stream", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"), "--out", str(stream_out))
    assert code == 0
    assert stream_out.read_bytes() == batch_out.read_bytes()
    assert ("warning task T4: check text-input measured-value: error: no data: "
            "no TextInput for field 'measured-value'\n") in batch_out.read_text()


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
    monkeypatch.setattr("sys.stdin", io.StringIO(session))
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
                        io.StringIO((demo_dir / "hydrometer.rec").read_text()))
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
        SessionRecording(rec.session_id, rec.user_ids, tuple(events))))
    batch_out = tmp_path / "batch.txt"
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", str(refs),
                       "--session", hydro(demo_dir, "rec"), "--out", str(batch_out))
    assert code == 0, err
    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin",
                        io.StringIO((demo_dir / "hydrometer.rec").read_text()))
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
                        io.StringIO((demo_dir / "collaborative.rec").read_text()))
    code, out, _ = run("stream", "--net", collab(demo_dir, "ahtn"),
                       "--refs", collab(demo_dir, "rec"))
    assert code == 0
    lines = out.splitlines()
    assert sum("kind=task-complete" in ln for ln in lines) == 5
    assert sum("kind=task-score" in ln for ln in lines) == 5
    assert all("pass=true" in ln for ln in lines if "kind=task-score" in ln)
    assert any("kind=burst" in ln for ln in lines)


def test_stream_requires_events(run, demo_dir, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("# nothing here\n"))
    code, _, err = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"))
    assert code == 1
    assert "no events on standard input" in err


def test_stream_fails_fast_on_malformed_line(run, demo_dir, tmp_path, monkeypatch):
    lines = (demo_dir / "hydrometer.rec").read_text().splitlines(keepends=True)
    bad = lines[:2] + ["t=0.0 u=student pose cup 0 0 0 nan nan nan nan\n"] + lines[2:]
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(bad)))
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
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
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


def test_simulate_rejects_low_trials(run, demo_dir):
    code, _, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--magnitudes", "0,0.1", "--trials", "3")
    assert code == 1
    assert "below minimum" in err


def test_simulate_takes_one_reference(run, demo_dir):
    code, _, err = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--refs", collab(demo_dir, "rec"),
                       "--magnitudes", "0,0.1", "--trials", "10")
    assert code == 1
    assert "exactly one" in err


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
