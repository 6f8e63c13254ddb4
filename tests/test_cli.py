"""Command line behavior: exit codes, output formats, flag plumbing."""

import io
import os
import stat
from pathlib import Path

import pytest

from ahtn.cli import build_parser
from ahtn.engine import EngineConfig, build_reference_set, score_recording
from ahtn.harness import format_monotonicity, monotonicity_report
from ahtn.model import TrajectoryParams, parse_network
from ahtn.report import render_report
from ahtn.telemetry import (Event, SessionRecording, SkeletonFrame, parse_session,
                            serialize_recording)


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


# a network with no primitive task grades nothing: (network, score's error,
# whose first network error is reported, a network-wide one naming no task)
NO_PRIMITIVE = {"empty": ("", "no primitive task"),
                "all-abstract": ("task A\n  kind abstract\n  child B\nend\n",
                                 "A: dangling child 'B'")}


@pytest.mark.parametrize("name", NO_PRIMITIVE)
def test_a_network_without_a_primitive_task_fails(run, demo_dir, tmp_path, name):
    text, error = NO_PRIMITIVE[name]
    net = tmp_path / "net.ahtn"
    net.write_text(text)
    code, out, _ = run("validate", str(net))
    assert code == 1
    assert "error: no primitive task" in out.splitlines()
    assert "ok" not in out.splitlines()
    out_path = tmp_path / "report.txt"
    code, _, err = run("score", "--net", str(net), "--refs", hydro(demo_dir, "rec"),
                       "--session", hydro(demo_dir, "rec"), "--out", str(out_path))
    assert code == 1
    assert err == f"ahtn: error: invalid network: {error}\n"
    assert not out_path.exists()


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


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600),
                                        (0o002, 0o664)],
                         ids=["umask-022", "umask-077", "umask-002"])
def test_score_report_mode_follows_the_umask(run, demo_dir, tmp_path, umask, mode):
    # the report is a new file, not an owner-only temp file
    out_path = tmp_path / "report.txt"
    old = os.umask(umask)
    try:
        code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                         "--refs", hydro(demo_dir, "rec"),
                         "--session", hydro(demo_dir, "rec"),
                         "--out", str(out_path))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_path.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


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


def test_score_checks_the_quality_of_a_reference_that_gives_none(
        run, demo_dir, tmp_path):
    no_marks = tmp_path / "no-marks.rec"
    no_marks.write_text("".join(
        line for line in (demo_dir / "hydrometer.rec").read_text().splitlines(True)
        if " mark " not in line))
    code, _, err = run("score", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--refs", f"{no_marks}@7",
                       "--session", hydro(demo_dir, "rec"),
                       "--out", str(tmp_path / "r.txt"))
    assert code == 1
    assert err == "ahtn: error: reference quality must be finite and in [0, 1]: 7.0\n"
    assert not (tmp_path / "r.txt").exists()


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


def test_clean_session_has_no_empty_task_warning(run, demo_dir, tmp_path):
    out = tmp_path / "report.txt"
    code, _, _ = run("score", "--net", hydro(demo_dir, "ahtn"),
                     "--refs", hydro(demo_dir, "rec"),
                     "--session", hydro(demo_dir, "rec"), "--out", str(out))
    assert code == 0
    assert "no events routed" not in out.read_text()


# -- stream -----------------------------------------------------------------------
# the other score/stream pairs are cases of test_contract.py

def test_stream_report_matches_batch_score(run, demo_dir, tmp_path, monkeypatch):
    batch_out = tmp_path / "batch.txt"
    run("score", "--net", hydro(demo_dir, "ahtn"),
        "--refs", hydro(demo_dir, "rec"),
        "--session", hydro(demo_dir, "rec"), "--out", str(batch_out))

    stream_out = tmp_path / "stream.txt"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO((demo_dir / "hydrometer.rec").read_bytes()),
        encoding="utf-8", newline="\n"))
    code, out, _ = run("stream", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--out", str(stream_out))
    assert code == 0
    assert out == ""  # hydrometer tasks all use final feedback
    assert stream_out.read_bytes() == batch_out.read_bytes()


# -- simulate -----------------------------------------------------------------------

def test_simulate_table_and_csv(run, demo_dir, tmp_path):
    # the seeded study writes the committed table byte for byte
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run("simulate", "--net", hydro(demo_dir, "ahtn"),
                       "--refs", hydro(demo_dir, "rec"),
                       "--magnitudes", "0,0.02,0.05,0.1,0.2", "--trials", "10",
                       "--seed", "3", "--csv", str(csv_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["magnitude", "mean-delta", "std", "trials"]
    assert len(lines) == 6
    first = lines[1].split()
    assert first[0] == "0.0000" and first[1] == "1.000000"
    second = lines[2].split()
    assert float(second[1]) < 1.0
    pinned = Path(__file__).parent / "data" / "simulate-hydrometer.csv"
    assert csv_path.read_bytes() == pinned.read_bytes()


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
