"""Span recording for the traced benchmark run.

``install`` wraps module-level functions and class methods of the ``ahtn``
package from outside: every module binding that refers to a hooked
function is swapped for a wrapper that records one span (name, start,
duration, parent span, session or trial id, and an optional label and
value). A hook whose target no longer exists is listed in
``Tracer.absent`` and skipped, so renaming or deleting a function in the
package never breaks the benchmark. Spans stay in memory in flat arrays
and are written out once, when the run ends.

``layer_metrics`` turns the spans into the per-layer figures that
``BENCHMARK.json`` lists. Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _line_kind(args, result):
    parts = args[0].split(None, 3) if args and isinstance(args[0], str) else ()
    kind = parts[2] if len(parts) > 2 else "other"
    return (kind if kind in ("skel", "pose") else "other"), 0


def _event_kind(args, result):
    payload = getattr(args[1], "payload", None) if len(args) > 1 else None
    kind = type(payload).__name__
    if kind == "TaskMark":
        return "mark-" + str(getattr(payload, "edge", "")), 0
    return ("skel" if kind == "SkeletonFrame" else "other"), 0


def _check_outcome(args, result):
    kind = str(getattr(args[0], "kind", "unknown")) if args else "unknown"
    detail = str(getattr(result, "detail", ""))
    return kind, int(detail.startswith("error:"))


def _text_bytes(args, result):
    return "", len(result.encode()) if isinstance(result, str) else 0


# (span name, "module:attribute path", labeller); the labeller maps the
# call's (args, result) to a (label, integer value) pair
HOOKS = (
    ("model.parse_network", "ahtn.model:parse_network", None),
    ("model.validate_network", "ahtn.model:validate_network", None),
    ("model.ready_tasks", "ahtn.model:ready_tasks", None),
    ("telemetry.parse_session", "ahtn.telemetry:parse_session", None),
    ("telemetry.parse_event_line", "ahtn.telemetry:parse_event_line", _line_kind),
    ("engine.build_reference_set", "ahtn.engine:build_reference_set", None),
    ("engine.Session.__init__", "ahtn.engine:Session.__init__", None),
    ("engine.Session.ingest", "ahtn.engine:Session.ingest", _event_kind),
    ("engine.Session.finalize", "ahtn.engine:Session.finalize", None),
    ("engine.score_recording", "ahtn.engine:score_recording", None),
    ("checks.evaluate_task_level", "ahtn.checks:evaluate_task_level", None),
    ("checks.run_check", "ahtn.checks:run_check", _check_outcome),
    ("trajectory.ActionEvaluator.__init__", "ahtn.trajectory:ActionEvaluator.__init__", None),
    ("trajectory.ActionEvaluator.observe", "ahtn.trajectory:ActionEvaluator.observe", None),
    ("trajectory.ActionEvaluator.finalize", "ahtn.trajectory:ActionEvaluator.finalize", None),
    ("trajectory.detect_anomalies", "ahtn.trajectory:detect_anomalies", None),
    ("kernels.all_within", "ahtn.kernels:all_within", None),
    ("kernels.scale_about", "ahtn.kernels:scale_about", None),
    ("harness.monotonicity_report", "ahtn.harness:monotonicity_report", None),
    ("report.render_report", "ahtn.report:render_report", _text_bytes),
)
# spans that open a new trial: every span after one carries its id
TRIAL_HOOKS = (
    ("harness.perturb", "ahtn.harness:perturb"),
)


class Tracer:
    """In-memory span store. ``unit`` is the session or trial id stamped
    on new spans; -1 marks set-up work."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.labels: list[str] = [""]
        self.absent: list[str] = []
        self.unit = -1
        self.name = array("i")
        self.parent = array("i")
        self.unit_of = array("i")
        self.label = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, table: list[str], text: str) -> int:
        try:
            return table.index(text)
        except ValueError:
            table.append(text)
            return len(table) - 1

    def wrap(self, span: str, fn, labeller=None, opens_trial: bool = False):
        nid = self._intern(self.names, span)
        name, parent, unit_of = self.name, self.parent, self.unit_of
        label, value, start, end = self.label, self.value, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens_trial:
                tracer.unit += 1
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            unit_of.append(tracer.unit)
            label.append(0)
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            result = None
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = clock()
                stack.pop()
                if labeller is not None:
                    try:
                        text, number = labeller(args, result)
                    except Exception:  # a label must never fail the call
                        text, number = "unlabelled", 0
                    label[idx] = tracer._intern(tracer.labels, text)
                    value[idx] = number
        return wrapper

    def save(self, path: str) -> None:
        """Write every span as flat arrays (``np.load`` reads them back)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        np.savez(path, names=np.array(self.names), labels=np.array(self.labels),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 unit=np.frombuffer(self.unit_of, dtype=np.int32),
                 label=np.frombuffer(self.label, dtype=np.int32),
                 value=np.frombuffer(self.value, dtype=np.int64),
                 start=start,
                 duration=(np.frombuffer(self.end, dtype=np.float64) - start))


def _resolve(target: str):
    """(owner, attribute, current object) for "module:a.b", or None."""
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return (owner, parts[-1], obj) if callable(obj) else None


def install(tracer: Tracer) -> None:
    """Wrap every hook target that exists; list the others as absent."""
    hooks = [(s, t, lab, False) for s, t, lab in HOOKS]
    hooks += [(s, t, None, True) for s, t in TRIAL_HOOKS]
    for span, target, labeller, opens_trial in hooks:
        found = _resolve(target)
        if found is None:
            tracer.absent.append(span)
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(span, original, labeller, opens_trial)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        # rebind every module-level alias, e.g. names pulled in by
        # "from .telemetry import parse_event_line"
        for modname, module in list(sys.modules.items()):
            if modname != "ahtn" and not modname.startswith("ahtn."):
                continue
            for key, val in list(vars(module).items()):
                if val is original:
                    setattr(module, key, wrapper)


# ---------------------------------------------------------------------------
# aggregation

class _Spans:
    def __init__(self, tracer: Tracer):
        n = len(tracer.start)
        self.names = tracer.names
        self.labels = tracer.labels
        self.name = np.frombuffer(tracer.name, dtype=np.int32)[:n]
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)[:n]
        self.unit = np.frombuffer(tracer.unit_of, dtype=np.int32)[:n]
        self.label = np.frombuffer(tracer.label, dtype=np.int32)[:n]
        self.value = np.frombuffer(tracer.value, dtype=np.int64)[:n]
        start = np.frombuffer(tracer.start, dtype=np.float64)[:n]
        self.dur = np.frombuffer(tracer.end, dtype=np.float64)[:n] - start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self.self_time = self.dur - child
        self.work = self.unit >= 0

    def mask(self, span: str, label: str | None = None) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == self.names.index(span)
        if label is not None:
            if label not in self.labels:
                return np.zeros_like(m)
            m &= self.label == self.labels.index(label)
        return m

    def mean(self, m: np.ndarray, scale: float, self_time: bool = False) -> float:
        if not m.any():
            return 0.0
        return float((self.self_time if self_time else self.dur)[m].mean() * scale)


def layer_metrics(tracer: Tracer, units: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures from the spans, and the names of those whose spans
    never ran. Counts are per unit of work (set-up excluded); times are
    means over every call."""
    s = _Spans(tracer)
    us, ms = 1e6, 1e3
    out: dict[str, float] = {}
    not_seen: list[str] = []

    def put(name: str, m: np.ndarray, value: float) -> None:
        out[name] = value
        if not m.any():
            not_seen.append(name)

    def mean(name, m, scale, self_time=False):
        put(name, m, s.mean(m, scale, self_time))

    def per_unit(name, m, where=None):
        hit = m & s.work if where is None else m & s.work & where
        put(name, m, float(hit.sum()) / units)

    line = s.mask("telemetry.parse_event_line")
    for kind in ("skel", "pose", "other"):
        mean(f"telemetry.parse_us_per_line.{kind}",
             s.mask("telemetry.parse_event_line", kind), us)
    per_unit("telemetry.lines_parsed", line)

    evaluate = s.mask("checks.evaluate_task_level")
    run_check = s.mask("checks.run_check")
    mean("checks.evaluate_ms_per_call", evaluate, ms)
    per_unit("checks.calls", evaluate)
    per_unit("checks.reference_scans", run_check)
    for kind in ("orientation", "position", "attachment", "collision", "text-input"):
        mean(f"checks.run_check_us.{kind}", s.mask("checks.run_check", kind), us)
    per_unit("checks.errors", run_check, s.value == 1)

    mean("engine.build_reference_set_ms", s.mask("engine.build_reference_set"), ms)
    mean("engine.session_init_us", s.mask("engine.Session.__init__"), us)
    mean("engine.ingest_self_us_per_event", s.mask("engine.Session.ingest"), us,
         self_time=True)
    mean("engine.end_mark_self_ms", s.mask("engine.Session.ingest", "mark-end"), ms,
         self_time=True)
    mean("engine.finalize_ms", s.mask("engine.Session.finalize"), ms)

    observe = s.mask("trajectory.ActionEvaluator.observe")
    mean("trajectory.observe_self_us_per_frame", observe, us, self_time=True)
    per_unit("trajectory.frames_observed", observe)
    put("trajectory.observe_max_ms", observe,
        float(s.dur[observe].max() * ms) if observe.any() else 0.0)
    mean("trajectory.detect_anomalies_us_per_call",
         s.mask("trajectory.detect_anomalies"), us)
    mean("trajectory.evaluator_init_us",
         s.mask("trajectory.ActionEvaluator.__init__"), us)

    for kernel in ("all_within", "scale_about"):
        m = s.mask(f"kernels.{kernel}")
        per_unit(f"kernels.{kernel}_calls", m)
        mean(f"kernels.{kernel}_us_per_call", m, us)

    # scoring inside the perturbation study, not the benchmark's own calls
    in_report = ((s.parent >= 0)
                 & s.mask("harness.monotonicity_report")[np.maximum(s.parent, 0)])
    mean("harness.perturb_ms_per_trial", s.mask("harness.perturb"), ms)
    mean("harness.score_ms_per_trial", s.mask("engine.score_recording") & in_report, ms)

    render = s.mask("report.render_report")
    mean("report.render_ms", render, ms)
    put("report.bytes", render, float(s.value[render].mean()) if render.any() else 0.0)

    mean("model.parse_network_ms", s.mask("model.parse_network"), ms)
    mean("model.validate_network_us", s.mask("model.validate_network"), us)
    mean("model.ready_tasks_us", s.mask("model.ready_tasks"), us)
    return out, not_seen
