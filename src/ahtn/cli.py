"""Command line front end.

Five commands: ``validate`` checks a task definition file, ``score`` grades
a recorded session against references, ``stream`` does the same over
standard input while emitting feedback lines, ``simulate`` tabulates grade
decay under synthetic perturbation, and ``correlate`` compares two score
columns. Exit status: 0 on success, 1 on validation or scoring failures,
2 on usage errors.

The override flags are made from the settings of ``model.Defaults`` and
``model.TrajectoryParams``, one per setting, and checked by its rule
(``model.check_setting``), as is each ``--magnitudes`` entry, ``--trials``
and ``--seed``: a bad value is a usage error naming the flag.

Diagnostics go to standard error; set AHTN_LOG=info or AHTN_LOG=debug for
more of them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Iterable, Iterator, TextIO

from .engine import EngineConfig, Session, build_reference_set
from .harness import (MAGNITUDE_RULE, METHODS, MIN_TRIALS, correlate_values,
                      format_monotonicity, monotonicity_csv,
                      monotonicity_report, parse_score_pairs)
from .model import (Defaults, TaskNetwork, TrajectoryParams, check_setting,
                    parse_network, setting_text, settings, validate_network)
from .report import write_report
from .telemetry import (Event, SessionRecording, iter_events, read_events,
                        recording_lines)

log = logging.getLogger("ahtn")


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


def _recording(path: str) -> Iterator[Event]:
    """A recording file's events, read block by block, never held whole."""
    with open(path, "rb") as fh:
        yield from iter_events(recording_lines(fh))


def _settings_from(args, cls):
    """A cls built from the values of its settings the command's flags hold."""
    return cls(**{f.name: getattr(args, f.name) for f in settings(cls)})


def _load_network(args) -> TaskNetwork:
    net = parse_network(_read(args.net))
    log.info("parsed network %s: %d tasks", args.net, len(net.nodes))
    return net


def _load_references(net: TaskNetwork, specs: list[str],
                     trajectory: TrajectoryParams):
    pairs = []
    for spec in specs:
        path, quality = spec, 1.0
        if "@" in spec:
            path, _, qtext = spec.rpartition("@")
            try:
                quality = float(qtext)
            except ValueError:
                raise ValueError(f"bad reference quality {qtext!r} in {spec!r}") from None
        pairs.append((_recording(path), quality))
        log.info("reference %s: quality %g", path, quality)
    return build_reference_set(net, pairs, trajectory)


def _engine_config(args) -> EngineConfig:
    net = _load_network(args)
    trajectory = _settings_from(args, TrajectoryParams)
    return EngineConfig(net, _load_references(net, args.refs, trajectory),
                        _settings_from(args, Defaults), trajectory)


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args) -> int:
    net = parse_network(_read(args.network))
    report = validate_network(net)
    for issue in report.issues:  # a network-wide issue names no task
        where = " ".join(filter(None, (issue.severity, issue.node_id)))
        print(f"{where}: {issue.message}")
    if not report.ok:
        return 1
    print("ok")
    return 0


def _grade(args, events: Iterable[Event], feedback: TextIO | None = None) -> int:
    """The one grading loop of ``score`` and ``stream``, which differ only
    in how their events are read: ingest each event and write its feedback
    lines to ``feedback``, when there is one, before the next is read;
    then finalize and write the report to ``--out``, when given."""
    session = Session(_engine_config(args))
    for event in events:
        messages = session.ingest(event)
        if messages and feedback is not None:
            feedback.writelines(message.render() + "\n" for message in messages)
            feedback.flush()
    report = session.finalize()
    if args.out:
        write_report(report, args.out)
        log.info("wrote report to %s", args.out)
    return 0


def _cmd_score(args) -> int:
    return _grade(args, _recording(args.session))


def _cmd_stream(args) -> int:
    return _grade(args, read_events(recording_lines(sys.stdin.buffer)), sys.stdout)


def _cmd_simulate(args) -> int:
    net = _load_network(args)
    if len(args.refs) != 1:
        raise ValueError("simulate takes exactly one --refs recording")
    path = args.refs[0]
    rec = SessionRecording(os.path.basename(path), tuple(_recording(path)))
    rows = monotonicity_report(net, rec, args.magnitudes, args.trials, args.seed,
                               _settings_from(args, TrajectoryParams))
    sys.stdout.write(format_monotonicity(rows))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(monotonicity_csv(rows))
    return 0


def _cmd_correlate(args) -> int:
    pairs = parse_score_pairs(_read(args.pairs))
    coefficient = correlate_values(pairs.system, pairs.grader, args.method)
    print(f"{coefficient:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _number(rule: str):
    """An argparse type: a float that check_setting accepts under rule."""
    def parse(text: str) -> float:
        try:
            return check_setting(rule, float(text))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _seed(text: str) -> int:
    """An argparse type: a non-negative integer, as numpy seeds are."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text}")
    return int(text)


def _trials(text: str) -> int:
    """An argparse type: an integer of at least ``harness.MIN_TRIALS``."""
    if not text.isdecimal() or int(text) < MIN_TRIALS:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least {MIN_TRIALS}: {text}")
    return int(text)


def _magnitudes(text: str) -> list[float]:
    return [_number(MAGNITUDE_RULE)(tok) for tok in text.split(",") if tok]


_OVERRIDES = (("scoring overrides", Defaults),
              ("trajectory overrides", TrajectoryParams))


def _add_setting_flags(p: argparse.ArgumentParser, groups=_OVERRIDES) -> None:
    """One flag per setting of each group's type, defaulting to the
    declared value."""
    for title, cls in groups:
        g = p.add_argument_group(title)
        for f in settings(cls):
            g.add_argument("--" + f.name.replace("_", "-"),
                           type=_number(f.metadata["rule"]), default=f.default,
                           help=f"{f.metadata['about']}, {f.metadata['rule']} "
                                f"(default {setting_text(f.default)})")


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
    _add_setting_flags(p)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("stream", help="grade events from standard input")
    p.add_argument("--net", required=True, help="task definition file")
    p.add_argument("--refs", required=True, action="append", metavar="PATH[@QUALITY]",
                   help="reference recording, repeatable; @QUALITY in [0,1]")
    p.add_argument("--out", default=None, help="report output path (optional)")
    _add_setting_flags(p)
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("simulate", help="tabulate grade decay under perturbation")
    p.add_argument("--net", required=True, help="task definition file")
    p.add_argument("--refs", required=True, action="append", metavar="PATH",
                   help="reference recording to perturb")
    p.add_argument("--magnitudes", required=True, type=_magnitudes,
                   help="comma separated perturbation magnitudes, increasing, "
                        + MAGNITUDE_RULE)
    p.add_argument("--trials", type=_trials, default=20,
                   help=f"perturbed copies per magnitude (minimum {MIN_TRIALS})")
    p.add_argument("--seed", type=_seed, default=0,
                   help="base random seed, a non-negative integer")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    _add_setting_flags(p, _OVERRIDES[1:])
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
