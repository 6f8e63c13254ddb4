"""Command line front end.

Five commands: ``validate`` checks a task definition file, ``score`` grades
a recorded session against references, ``stream`` does the same over
standard input while emitting feedback lines, ``simulate`` tabulates grade
decay under synthetic perturbation, and ``correlate`` compares two score
columns. Exit status: 0 on success, 1 on validation or scoring failures,
2 on usage errors.

Diagnostics go to standard error; set AHTN_LOG=info or AHTN_LOG=debug for
more of them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .checks import CheckDefaults
from .engine import (Defaults, EngineConfig, Session, build_reference_set,
                     score_recording)
from .harness import (METHODS, correlate, format_monotonicity,
                      monotonicity_csv, monotonicity_report,
                      parse_score_pairs)
from .model import (TaskNetwork, parse_network, validate_network,
                    with_trajectory_defaults)
from .report import write_report
from .telemetry import parse_event_line, parse_session
from .trajectory import TrajectoryParams

log = logging.getLogger("ahtn")

# flag name -> TrajectoryParams field it overrides on every action-level task
_TRAJ_FLAGS = {
    "match_radius": "match_radius",
    "skip_time": "skip_time",
    "anomaly_wait": "anomaly_wait",
    "key_rate": "key_rate",
    "anomaly_penalty": "anomaly_penalty",
}
_TRAJ_BASE = TrajectoryParams(joint_ids=("head",))  # only defaults are read


def _setup_logging() -> None:
    levels = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    raw = os.environ.get("AHTN_LOG", "quiet").strip().lower()
    logging.basicConfig(stream=sys.stderr, level=levels.get(raw, logging.WARNING),
                        format="ahtn: %(levelname)s: %(message)s")
    if raw and raw not in levels:
        log.warning("unknown AHTN_LOG value %r; using quiet", raw)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_network(path: str, args=None) -> TaskNetwork:
    net = parse_network(_read(path))
    log.info("parsed network %s: %d tasks", path, len(net.nodes))
    if args is not None:
        overrides = {field: getattr(args, flag)
                     for flag, field in _TRAJ_FLAGS.items()
                     if getattr(args, flag, None) is not None}
        if overrides:
            net = with_trajectory_defaults(net, **overrides)
    return net


def _load_references(net: TaskNetwork, specs: list[str]):
    pairs = []
    for spec in specs:
        path, quality = spec, 1.0
        if "@" in spec:
            path, _, qtext = spec.rpartition("@")
            try:
                quality = float(qtext)
            except ValueError:
                raise ValueError(f"bad reference quality {qtext!r} in {spec!r}") from None
        rec = parse_session(_read(path), session_id=os.path.basename(path))
        pairs.append((rec, quality))
        log.info("reference %s: %d events, quality %g", path, len(rec.events), quality)
    return build_reference_set(net, pairs)


def _pick(flag_value, default):
    return default if flag_value is None else flag_value


def _defaults_from(args) -> Defaults:
    base_checks = CheckDefaults()
    base = Defaults()
    checks = CheckDefaults(
        orientation_tol=_pick(args.orientation_tol, base_checks.orientation_tol),
        position_tol=_pick(args.position_tol, base_checks.position_tol),
        text_tol=_pick(args.text_tol, base_checks.text_tol),
        collision_penalty=args.collision_penalty)
    return Defaults(
        checks=checks,
        pass_threshold=_pick(args.pass_threshold, base.pass_threshold),
        timeout=_pick(args.timeout, base.timeout),
        action_share=_pick(args.action_share, base.action_share))


def _traj_echo(args) -> tuple[str, ...]:
    lines = []
    for flag, field in _TRAJ_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            value = getattr(_TRAJ_BASE, field)
        lines.append(f"{flag.replace('_', '-')} {value!r}")
    return tuple(lines)


def _engine_config(args) -> EngineConfig:
    net = _load_network(args.net, args)
    refs = _load_references(net, args.refs)
    return EngineConfig(network=net, references=refs,
                        defaults=_defaults_from(args), echo=_traj_echo(args))


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args) -> int:
    net = parse_network(_read(args.network))
    report = validate_network(net)
    for issue in report.issues:
        print(f"{issue.severity} {issue.node_id}: {issue.message}")
    if not report.ok:
        return 1
    print("ok")
    return 0


def _cmd_score(args) -> int:
    config = _engine_config(args)
    rec = parse_session(_read(args.session))
    report = score_recording(config, rec)
    write_report(report, args.out)
    log.info("wrote report to %s", args.out)
    return 0


def _cmd_stream(args) -> int:
    config = _engine_config(args)
    session = Session(config)
    count = 0
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        event = parse_event_line(line, lineno)
        count += 1
        for message in session.ingest(event):
            sys.stdout.write(message.render() + "\n")
        sys.stdout.flush()
    if count == 0:
        raise ValueError("no events on standard input")
    report = session.finalize()
    log.info("stream finished: %d events", count)
    if args.out:
        write_report(report, args.out)
        log.info("wrote report to %s", args.out)
    return 0


def _cmd_simulate(args) -> int:
    net = _load_network(args.net, args)
    specs = args.refs
    if len(specs) != 1:
        raise ValueError("simulate takes exactly one --refs recording")
    path = specs[0].rpartition("@")[0] if "@" in specs[0] else specs[0]
    rec = parse_session(_read(path), session_id=os.path.basename(path))
    magnitudes = [float(tok) for tok in args.magnitudes.split(",") if tok]
    rows = monotonicity_report(net, rec, magnitudes, args.trials, args.seed)
    sys.stdout.write(format_monotonicity(rows))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(monotonicity_csv(rows))
    return 0


def _cmd_correlate(args) -> int:
    pairs = parse_score_pairs(_read(args.pairs))
    coefficient = correlate(pairs, args.method)
    print(f"{coefficient:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_override_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("scoring overrides")
    g.add_argument("--collision-penalty", type=float, default=None,
                   help="global collision penalty factor (default: per-check, 0.01)")
    g.add_argument("--orientation-tol", type=float, default=None,
                   help="orientation tolerance in radians (default pi/2)")
    g.add_argument("--position-tol", type=float, default=None,
                   help="position tolerance in meters (default 0.5)")
    g.add_argument("--text-tol", type=float, default=None,
                   help="numeric text tolerance (default 0.01)")
    g.add_argument("--pass-threshold", type=float, default=None,
                   help="real-time pass flag threshold (default 0.95)")
    g.add_argument("--timeout", type=float, default=None,
                   help="session timeout in seconds (default 1800)")
    g.add_argument("--action-share", type=float, default=None,
                   help="trajectory share of a both-mode grade (default 0.5)")
    _add_traj_flags(p)


def _add_traj_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("trajectory overrides")
    g.add_argument("--match-radius", type=float, default=None,
                   help="key pose matching radius in meters (default 0.1)")
    g.add_argument("--skip-time", type=float, default=None,
                   help="seconds before an unmatched key pose is skipped (default 5)")
    g.add_argument("--anomaly-wait", type=float, default=None,
                   help="seconds of continuous anomaly before abort (default 10)")
    g.add_argument("--key-rate", type=float, default=None,
                   help="key poses per second sampled from the reference (default 2)")
    g.add_argument("--anomaly-penalty", type=float, default=None,
                   help="score deduction per anomaly episode (default 0.05)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahtn",
        description="Telemetry-driven task performance assessment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a task definition file")
    p.add_argument("network", help="task definition file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("score", help="grade a recorded session")
    p.add_argument("--net", required=True, help="task definition file")
    p.add_argument("--refs", required=True, action="append", metavar="PATH[@QUALITY]",
                   help="reference recording, repeatable; @QUALITY in [0,1]")
    p.add_argument("--session", required=True, help="recording to grade")
    p.add_argument("--out", required=True, help="report output path")
    _add_override_flags(p)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("stream", help="grade events from standard input")
    p.add_argument("--net", required=True, help="task definition file")
    p.add_argument("--refs", required=True, action="append", metavar="PATH[@QUALITY]",
                   help="reference recording, repeatable; @QUALITY in [0,1]")
    p.add_argument("--out", default=None, help="report output path (optional)")
    _add_override_flags(p)
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("simulate", help="tabulate grade decay under perturbation")
    p.add_argument("--net", required=True, help="task definition file")
    p.add_argument("--refs", required=True, action="append", metavar="PATH",
                   help="reference recording to perturb")
    p.add_argument("--magnitudes", required=True,
                   help="comma separated perturbation magnitudes, increasing")
    p.add_argument("--trials", type=int, default=20,
                   help="perturbed copies per magnitude (minimum 10)")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    _add_traj_flags(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("correlate", help="correlate two score columns")
    p.add_argument("--pairs", required=True,
                   help="file of lines: label system-score grader-score")
    p.add_argument("--method", required=True, choices=METHODS)
    p.set_defaults(fn=_cmd_correlate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"ahtn: error: {e}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
