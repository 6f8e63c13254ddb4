"""One benchmark workload in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH=src`` once per measurement,
so each workload gets an interpreter whose heap holds only its own inputs.
The script reads the generated files, sets up, repeats the workload's unit
of work until the time budget is spent, checks every output, and writes
one JSON record to ``--out``.

Modes:

* ``plain``: set-up repeated several times (median reported as
  ``setup_s``), no hooks; gives the end-to-end metrics.
* ``probe``: one set-up, no hooks, plus garbage-collector pauses, the
  parsed-recording size under ``tracemalloc`` and the live tail latencies;
  it is also the untraced baseline for ``trace.overhead_pct``.
* ``traced``: one set-up with every span hook of ``spans.py`` installed;
  gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field

import ahtn

import spans

clock = time.perf_counter

MAGNITUDES = (0.0, 0.02, 0.05, 0.1, 0.2)
TRIALS = 50
LIVE_RATE = 20_000.0  # events due per second in the open loop
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 5, 2.0, 25


def _read(inputs: str, name: str) -> str:
    with open(os.path.join(inputs, name), encoding="utf-8") as fh:
        return fh.read()


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class GcPauses:
    """Collector pauses seen through ``gc.callbacks`` while ``active``."""

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self.full_passes = 0
        self.active = False
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = clock()
        elif self.active:
            self.pauses.append(clock() - self._t0)
            self.full_passes += info.get("generation") == 2


# ---------------------------------------------------------------------------
# workloads: setup() -> state, prepare(state), unit(state, index) -> Unit

@dataclass
class Unit:
    """What one unit of work did: its busy seconds, graded events, graded
    sessions or trials, failures, and report bytes for the digest."""

    work_s: float
    events: int
    attempted: int
    failed: int
    report: bytes
    latencies: dict = field(default_factory=dict)


class ScoreLong:
    """Batch grading of one long session against one reference."""

    main_input = "session.rec"
    attempts = 1  # sessions graded per unit
    cycle = 1  # units before the work repeats exactly

    def __init__(self, inputs: str, seed: int, tracer):
        self.tracer = tracer
        self.net_text = _read(inputs, "throughput.ahtn")
        self.ref_text = _read(inputs, "reference.rec")
        self.session_text = _read(inputs, "session.rec")

    def setup(self):
        net = ahtn.parse_network(self.net_text)
        ref = ahtn.parse_session(self.ref_text, "reference.rec")
        return net, ahtn.build_reference_set(net, [(ref, 1.0)])

    def prepare(self, state) -> None:
        pass

    def unit(self, state, index: int) -> Unit:
        net, refs = state
        if self.tracer is not None:
            self.tracer.unit = index
        t0 = clock()
        rec = ahtn.parse_session(self.session_text)
        report = ahtn.score_recording(
            ahtn.EngineConfig(network=net, references=refs), rec)
        text = ahtn.render_report(report)
        dt = clock() - t0
        statuses = [e.status for s in report.scopes for e in s.entries]
        ok = bool(statuses) and all(st == "performed" for st in statuses)
        return Unit(dt, len(rec.events), 1, 0 if ok else 1, text.encode())


class LiveClass:
    """Open-loop live grading of 24 interleaved two-user sessions."""

    main_input = "learner-00.rec"
    attempts = 24  # learner sessions per pass
    cycle = 1

    def __init__(self, inputs: str, seed: int, tracer):
        self.tracer = tracer
        self.net_text = _read(inputs, "collaborative.ahtn")
        self.refs: list[tuple[str, str, float]] = []
        self.learners: list[tuple[str, str, float]] = []
        for row in _read(inputs, "class.txt").split("\n"):
            if not row:
                continue
            role, name, number = row.split()
            target = self.refs if role == "reference" else self.learners
            target.append((name, _read(inputs, name), float(number)))

    def setup(self):
        net = ahtn.parse_network(self.net_text)
        pairs = [(ahtn.parse_session(text, name), quality)
                 for name, text, quality in self.refs]
        return net, ahtn.build_reference_set(net, pairs)

    def prepare(self, state) -> None:
        net, refs = state
        config = ahtn.EngineConfig(network=net, references=refs)
        self.expected = [
            ahtn.render_report(ahtn.score_recording(
                config, ahtn.parse_session(text, name))).encode()
            for name, text, _ in self.learners]
        # merge every learner's lines by start offset plus own timestamp
        rows = []
        for j, (_, text, offset) in enumerate(self.learners):
            for lineno, line in enumerate(text.split("\n"), start=1):
                if not line or line.startswith("#"):
                    continue
                t = float(line[2:line.index(" ")])
                rows.append((offset + t, j, lineno, line))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        self.owner = [r[1] for r in rows]
        self.linenos = [r[2] for r in rows]
        self.lines = [r[3] for r in rows]
        self.is_skel = [" skel " in r[3] for r in rows]
        self.is_end = [r[3].endswith(" end") and " mark " in r[3] for r in rows]

    def unit(self, state, index: int) -> Unit:
        net, refs = state
        config = ahtn.EngineConfig(network=net, references=refs)
        sessions = [ahtn.Session(config, session_id=name)
                    for name, _, _ in self.learners]
        ingest = [s.ingest for s in sessions]
        parse = ahtn.parse_event_line
        lines, linenos, owner, is_end = self.lines, self.linenos, self.owner, self.is_end
        tracer = self.tracer
        n = len(lines)
        lat = array("d", bytes(8 * n))  # raw doubles keep the sample store small
        score_lat: list[float] = []
        feedback: list[str] = []
        sink = feedback.append
        period = 1.0 / LIVE_RATE
        busy = 0.0
        start = clock() + 0.002
        for i in range(n):
            due = start + i * period
            now = clock()
            while now < due:
                now = clock()
            if tracer is not None:
                tracer.unit = owner[i]
            messages = ingest[owner[i]](parse(lines[i], linenos[i]))
            done = clock()
            lat[i] = done - due
            if messages:
                for m in messages:
                    sink(m.render())
                done = clock()
                if is_end[i] and any(m.kind == "task-score" for m in messages):
                    score_lat.append(done - due)
            busy += done - now
        failed = 0
        reports = []
        for s, expected in zip(sessions, self.expected):
            text = ahtn.render_report(s.finalize()).encode()
            reports.append(text)
            failed += text != expected
        frames = array("d", (x for x, skel in zip(lat, self.is_skel) if skel))
        return Unit(busy, n, len(sessions), failed, b"".join(reports),
                    {"frame": frames, "score": score_lat, "worst": max(lat)})


class Simulate:
    """The perturbation study, 5 magnitudes x 50 trials, as five report
    calls of 10 trials per magnitude. Each call is one timed sample; call k
    uses seed ``5 * seed + k``, and the five calls repeat until the time
    budget is spent."""

    main_input = "reference.rec"
    cycle = 5  # report calls per study
    attempts = len(MAGNITUDES) * TRIALS // cycle  # trials per call

    def __init__(self, inputs: str, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.net_text = _read(inputs, "hydrometer.ahtn")
        self.ref_text = _read(inputs, "reference.rec")

    def setup(self):
        net = ahtn.parse_network(self.net_text)
        rec = ahtn.parse_session(self.ref_text, "reference.rec")
        ahtn.build_reference_set(net, [(rec, 1.0)])
        return net, rec

    def prepare(self, state) -> None:
        if self.tracer is not None:
            self.tracer.unit = 0

    def unit(self, state, index: int) -> Unit:
        net, rec = state
        seed = self.cycle * self.seed + index % self.cycle
        t0 = clock()
        rows = ahtn.monotonicity_report(net, rec, MAGNITUDES,
                                        TRIALS // self.cycle, seed)
        dt = clock() - t0
        failed = 0 if len(rows) == len(MAGNITUDES) else self.attempts
        for i, row in enumerate(rows):
            ok = 0.0 <= row.mean_delta <= 1.0 and (i > 0 or row.mean_delta == 1.0)
            failed += 0 if ok else row.trials
        table = "".join(f"{r.magnitude!r} {r.mean_delta!r} {r.std_delta!r} "
                        f"{r.trials}\n" for r in rows)
        return Unit(dt, self.attempts * len(rec.events), self.attempts,
                    failed, table.encode())


WORKLOADS = {"score-long": ScoreLong, "live-class": LiveClass,
             "simulate": Simulate}


# ---------------------------------------------------------------------------

def _timed_setups(workload):
    """Median of several set-ups: (median seconds, all samples, last state).
    The previous state is dropped before each set-up, so the peak memory
    holds one set-up at a time."""
    times: list[float] = []
    while (len(times) < MIN_SETUPS
           or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS)):
        state = None
        gc.collect()
        t0 = clock()
        state = workload.setup()
        times.append(clock() - t0)
    return statistics.median(times), times, state


def _parsed_mb(text: str) -> float:
    """Memory the parsed form of a recording keeps alive, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = ahtn.parse_session(text)  # noqa: F841 - held while measured
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / 1e6


def run(args) -> dict:
    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[args.workload](args.inputs, args.seed, tracer)

    setup_times: list[float] = []
    if args.mode == "plain":
        setup_s, setup_times, state = _timed_setups(workload)
    else:
        gc.collect()
        t0 = clock()
        state = workload.setup()
        setup_s = clock() - t0
    workload.prepare(state)

    gc_pauses = GcPauses()
    if args.mode == "probe":
        gc.callbacks.append(gc_pauses)
    units: list[Unit] = []
    gc.collect()  # drop set-up garbage; from here the collector runs as it would in service
    began = clock()
    while len(units) % workload.cycle or clock() - began < args.seconds:
        gc_pauses.active = True
        try:
            units.append(workload.unit(state, len(units)))
        except Exception as e:  # a raising unit is a failure, not a crash
            print(f"worker: unit {len(units)} raised {e!r}", file=sys.stderr)
            units.append(Unit(0.0, 0, workload.attempts, workload.attempts, b""))
        gc_pauses.active = False
    elapsed = clock() - began
    if tracer is not None:
        tracer.unit = -1

    reports = [u.report for u in units]
    cycle = workload.cycle
    digest = hashlib.sha256(b"".join(reports[:cycle])).hexdigest()
    consistent = all(r == reports[i % cycle] for i, r in enumerate(reports))
    good = [u for u in units if u.work_s > 0 and u.events > 0]
    out = {
        "workload": args.workload,
        "mode": args.mode,
        "units": len(units),
        "elapsed_s": elapsed,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "reports_consistent": consistent,
        "report_sha256": digest,
        "setup_s": setup_s,
        "setup_samples_s": setup_times,
        "unit_work_s": [u.work_s for u in units],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "nproc": os.cpu_count(),
            "backend": (ahtn.backend_name() if hasattr(ahtn, "backend_name")
                        else "absent"),
            "seed": args.seed,
        },
    }
    if good:
        out["events_per_s"] = statistics.median(u.events / u.work_s for u in good)
        # live-class overrides this with its end-mark latency below
        out["score_latency_p50_ms"] = statistics.median(
            u.work_s / u.attempted for u in good) * 1e3
    live = [u for u in good if u.latencies]
    if live:
        frames = [x for u in live for x in u.latencies["frame"]]
        scores = [x for u in live for x in u.latencies["score"]]
        worst = max(u.latencies["worst"] for u in live)
        out["score_latency_p50_ms"] = _quantile(scores, 0.50) * 1e3
        out["live"] = {
            "frame_latency_p50_us": _quantile(frames, 0.50) * 1e6,
            "frame_latency_p99_us": _quantile(frames, 0.99) * 1e6,
            "score_latency_p90_ms": _quantile(scores, 0.90) * 1e3,
            "score_samples": len(scores),
            "frame_samples": len(frames),
            "backlog_max_events": int(worst * LIVE_RATE),
        }
    if args.mode == "probe":
        pauses = gc_pauses.pauses
        out["gc"] = {"pause_ms_total": sum(pauses) * 1e3 / len(units),
                     "pause_max_ms": max(pauses, default=0.0) * 1e3,
                     "full_passes": gc_pauses.full_passes / len(units)}
        gc.callbacks.remove(gc_pauses)
        text = _read(args.inputs, workload.main_input)
        out["text_mb"] = len(text.encode()) / 1e6
        out["parsed_mb"] = _parsed_mb(text)
    if tracer is not None:
        out["layers"], out["not_seen"] = spans.layer_metrics(tracer, len(units))
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.save(args.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "probe", "traced"), default="plain")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="where the traced run saves spans")
    args = ap.parse_args(argv)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
