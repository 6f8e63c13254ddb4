"""ahtn benchmark: seeded inputs, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload score-long --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
measured in a fresh interpreter with no hooks. ``--trace 1`` prints the
per-layer metrics: an untraced probe run (collector pauses, memory, live
tail latencies, the baseline for tracing overhead) and a traced run with
span hooks, each in its own interpreter. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs are generated from ``--seed`` by ``inputs.py``, written under
``.bench_build/perfbench/`` before any timing, and reused for the same
seed. Every run also writes its full record (machine, input digests,
report digest, all metrics) there; compare two records with

    python3 perfbench/run.py --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # the whole invocation must end well inside 180 s

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402

WORKLOADS = tuple(inputs.GENERATORS)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def ensure_inputs(workload: str, seed: int) -> tuple[Path, dict[str, str]]:
    """Generate (or reuse) the inputs of one workload and seed. The cache
    key includes a digest of the generator source, so editing it never
    serves stale files."""
    version = hashlib.sha256((HERE / "inputs.py").read_bytes()).hexdigest()[:12]
    folder = WORK / "inputs" / version / workload / f"seed-{seed}"
    manifest = folder / "MANIFEST.json"
    if manifest.is_file():
        with open(manifest, encoding="utf-8") as fh:
            digests = json.load(fh)
        if all((folder / n).is_file() and _sha256(folder / n) == d
               for n, d in digests.items()):
            return folder, digests
    folder.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in inputs.GENERATORS[workload](seed).items():
        data = text.encode("utf-8")
        tmp = folder / (name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, folder / name)
        digests[name] = hashlib.sha256(data).hexdigest()
    tmp = folder / "MANIFEST.json.tmp"
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, manifest)
    return folder, digests


# ---------------------------------------------------------------------------
# child processes

def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(mode: str, args, folder: Path, seconds: float, deadline: float,
            spans_path: Path | None = None) -> dict:
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-{mode}.part.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--inputs", str(folder), "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--out", str(out)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    out.unlink()
    return record


def _cli_score_wall(folder: Path, deadline: float) -> tuple[float, bool]:
    """Wall time of one ``ahtn score`` process on the score-long files."""
    report = WORK / "results" / "cli-score-report.txt"
    cmd = [sys.executable, "-m", "ahtn.cli", "score",
           "--net", str(folder / "throughput.ahtn"),
           "--refs", str(folder / "reference.rec") + "@1.0",
           "--session", str(folder / "session.rec"), "--out", str(report)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    wall = time.perf_counter() - t0
    ok = (proc.returncode == 0 and report.is_file()
          and report.read_bytes().startswith(b"ahtn-report v1\n"))
    return wall, ok


# ---------------------------------------------------------------------------
# metrics

def end_to_end(plain: dict) -> dict[str, float]:
    """The ``--trace 0`` metrics; 0 where no unit of work succeeded."""
    return {name: plain.get(name, 0.0) for name in
            ("setup_s", "events_per_s", "score_latency_p50_ms", "peak_rss_mb")}


def per_layer(probe: dict, traced: dict, cli_wall: float | None) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures plus the names not measured on this workload."""
    values = dict(traced["layers"])
    missing = list(traced["not_seen"])
    values["telemetry.parsed_mb"] = probe["parsed_mb"]
    values["telemetry.text_mb"] = probe["text_mb"]
    gc_ = probe["gc"]
    values["runtime.gc_pause_ms_total"] = gc_["pause_ms_total"]
    values["runtime.gc_pause_max_ms"] = gc_["pause_max_ms"]
    values["runtime.gc_full_passes"] = gc_["full_passes"]
    live = probe.get("live")
    for name in ("frame_latency_p50_us", "frame_latency_p99_us",
                 "score_latency_p90_ms", "backlog_max_events"):
        values[f"live.{name}"] = float(live[name]) if live else 0.0
        if not live:
            missing.append(f"live.{name}")
    base = statistics.median(probe["unit_work_s"])
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced["unit_work_s"]) / base - 1.0) if base > 0 else 0.0
    values["cli.score_wall_s"] = cli_wall if cli_wall is not None else 0.0
    if cli_wall is None:
        missing.append("cli.score_wall_s")
    return values, missing


# ---------------------------------------------------------------------------

def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    try:
        spec = _spec()
        better = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    except (OSError, KeyError, ValueError):
        better = {}
    for label, path, rec in (("old", old_path, old), ("new", new_path, new)):
        print(f"{label}: {path} ({rec.get('workload')}, seed {rec.get('seed')}, "
              f"trace {rec.get('trace')})")
    print(f"{'metric':<44} {'old':>14} {'new':>14} {'new/old':>9}")
    for name, entry in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], entry["value"]
        ratio = f"{b / a:9.3f}" if a else f"{'n/a':>9}"
        verdict = ""
        if a and b != a and name in better:
            improved = (b < a) == (better[name] == "lower")
            verdict = "  better" if improved else "  worse"
        print(f"{name:<44} {a:>14.6g} {b:>14.6g} {ratio}{verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="ahtn benchmark", epilog="see perfbench/README.md")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print per-metric ratios between two run records")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "ahtn" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'ahtn'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    t0 = time.perf_counter()
    folder, digests = ensure_inputs(args.workload, args.seed)
    print(f"inputs: {args.workload} seed {args.seed} ready in "
          f"{time.perf_counter() - t0:.2f} s")
    for name, digest in sorted(digests.items()):
        print(f"  input {name} sha256 {digest}")

    if args.trace == 0:
        runs = [_worker("plain", args, folder, args.seconds, deadline)]
        values = end_to_end(runs[0])
        kinds = _spec()["end_to_end"]
        missing: list[str] = []
        absent: list[str] = []
    else:
        # the probe and the traced run share the measuring time
        probe = _worker("probe", args, folder, args.seconds / 2, deadline)
        spans_path = WORK / "results" / f"spans-{args.workload}.npz"
        traced = _worker("traced", args, folder, args.seconds / 2, deadline,
                         spans_path)
        runs = [probe, traced]
        cli_wall = cli_ok = None
        if args.workload == "score-long":
            cli_wall, cli_ok = _cli_score_wall(folder, deadline)
        values, missing = per_layer(probe, traced, cli_wall)
        absent = traced["absent"]
        kinds = _spec()["per_layer"]
        print(f"  spans recorded: {traced['spans']} "
              f"(saved to {spans_path.relative_to(ROOT)})")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["reports_consistent"] for r in runs)
    if args.trace == 1 and args.workload == "score-long":
        correct = correct and bool(cli_ok)
    metrics = {}
    for kind in kinds:
        name = kind["name"]
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": kind["unit"]}
        if name not in values:
            missing.append(name)

    first = runs[0]
    print(f"machine: python {first['machine']['python']}, numpy "
          f"{first['machine']['numpy']}, nproc {first['machine']['nproc']}, "
          f"backend {first['machine']['backend']}, seed {args.seed}")
    for r in runs:
        print(f"  {r['mode']}: {r['units']} units in {r['elapsed_s']:.2f} s, "
              f"attempted {r['attempted']}, failed {r['failed']}, "
              f"report sha256 {r['report_sha256']}")
    print(f"failed_share {failed / attempted if attempted else 1.0:.6f}")
    if "live" in first:
        live = first["live"]
        print(f"  live samples: {live['frame_samples']} frames, "
              f"{live['score_samples']} task scores")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if missing:
        print("not measured on this workload (reported as 0): "
              + ", ".join(sorted(set(missing))))
    if absent:
        print("absent hooks: " + ", ".join(absent))

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": first["machine"], "inputs": digests,
              "report_sha256": first["report_sha256"],
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "not_measured": sorted(set(missing)),
              "absent_hooks": absent, "runs": runs}
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
