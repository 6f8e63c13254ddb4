"""Acceptance gate: one test per shipping criterion.

Each test prints a single `acceptance NN <name>: PASS|FAIL` line so the
suite output doubles as the sign-off checklist. Oracles here are written
from scratch (brute force, midpoint sampling, fsum arithmetic) rather
than reusing package internals.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ahtn.checks import (CheckResult, TaskSamples, attachment_score,
                         collision_score)
from ahtn.cli import main
from ahtn.engine import EngineConfig, aggregate, build_reference_set, score_recording
from ahtn.fixtures import (
    collaborative_network,
    collaborative_reference,
    hydrometer_network,
    hydrometer_reference,
    throughput_network,
    throughput_session,
    write_demo_files,
)
from ahtn.harness import UndefinedCorrelationError, correlate_values
from ahtn.model import (
    CheckSpec,
    TrajectoryParams,
    parse_network,
    ready_tasks,
    validate_network,
)
from ahtn.telemetry import (
    Attach,
    Collision,
    Event,
    Pose,
    SkeletonFrame,
)
from ahtn.trajectory import ActionEvaluator
from conftest import reference_track


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num, name):
        ok = True
        try:
            yield
        except BaseException:
            ok = False
            raise
        finally:
            with capsys.disabled():
                print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")

    return _criterion


# ---------------------------------------------------------------------------
# 1. self-replay identity


def test_01_self_replay_identity(criterion):
    with criterion(1, "self-replay identity"):
        fixtures = ((hydrometer_network, hydrometer_reference),
                    (collaborative_network, collaborative_reference))
        for net_fn, rec_fn in fixtures:
            net = net_fn()
            rec = rec_fn()
            t0 = time.perf_counter()
            refs = build_reference_set(net, [(rec, 1.0)])
            report = score_recording(EngineConfig(network=net, references=refs), rec)
            elapsed = time.perf_counter() - t0
            assert elapsed < 2.5
            assert not report.aborted and not report.timed_out
            for scope in report.scopes:
                for entry in scope.entries:
                    assert entry.status == "performed"
                    assert entry.omega == 1.0
                    for member in entry.members:
                        assert member.omega == 1.0
                        if member.trajectory is not None:
                            assert member.trajectory.score == 1.0
                            assert member.trajectory.missed == 0
                if scope.total_weight > 0:
                    assert scope.delta == 1.0
                else:
                    assert scope.delta is None


# ---------------------------------------------------------------------------
# 2. weighted aggregation vs dot-product oracle


def test_02_aggregation_oracle(criterion):
    with criterion(2, "aggregation oracle"):
        rng = np.random.default_rng(2025)
        for _ in range(10_000):
            n = int(rng.integers(1, 21))
            weights = rng.uniform(0.0, 10.0, n)
            if weights.sum() == 0.0:
                weights[0] = 1.0
            omegas = rng.uniform(0.0, 1.0, n)
            expected = float(np.dot(weights, omegas) / np.sum(weights))
            got = aggregate(weights.tolist(), omegas.tolist())
            assert abs(got - expected) <= 1e-12
            scale = float(rng.uniform(0.1, 100.0))
            rescaled = aggregate((weights * scale).tolist(), omegas.tolist())
            assert abs(rescaled - got) <= 1e-12


# ---------------------------------------------------------------------------
# 3. collision penalty constant


def test_03_collision_constant(criterion):
    with criterion(3, "collision constant"):
        spec = CheckSpec(kind="collision", subject="cup")
        for k in range(151):
            events = tuple(Event(0.5, "u", Collision("cup", "table"))
                           for _ in range(k))
            samples = TaskSamples([spec], ["cup"], False, 0.0)
            for e in events:
                samples.add(e)
            samples.t1 = 1.0
            result = collision_score(samples, spec)
            assert isinstance(result, CheckResult)
            assert result.score == max(0.0, 1.0 - 0.01 * k)


# ---------------------------------------------------------------------------
# 4. attachment fraction vs sampled oracle


def _sampled_attach_fraction(t0, t1, transitions, backdated):
    """Midpoint-sampled attachment fraction on a 1 ms grid."""
    evs = list(transitions)
    if backdated and evs and evs[0][1]:
        evs[0] = (t0, True)
    mids = np.arange(t0, t1, 0.001) + 0.0005
    if not evs:
        return 0.0
    ev_t = np.array([t for t, _ in evs])
    ev_on = np.array([on for _, on in evs], dtype=bool)
    idx = np.searchsorted(ev_t, mids, side="right") - 1
    attached = np.where(idx >= 0, ev_on[np.maximum(idx, 0)], False)
    return float(np.mean(attached))


def test_04_attachment_oracle(criterion):
    with criterion(4, "attachment oracle"):
        rng = np.random.default_rng(4)
        spec = CheckSpec(kind="attachment", subject="cup", reference_object="hand")
        for _ in range(1000):
            duration = float(rng.uniform(4.0, 6.0))
            n_trans = int(rng.integers(0, 7))
            times = np.sort(rng.uniform(0.0, duration, n_trans))
            transitions = [(float(t), i % 2 == 0) for i, t in enumerate(times)]
            events = [Event(t, "u", Attach("cup", "hand", on))
                      for t, on in transitions]
            pose_t = None
            if rng.random() < 0.5:
                pose_t = float(rng.uniform(0.0, duration))
                events.append(Event(pose_t, "u",
                                    Pose("cup", (0, 0, 0), (0, 0, 0, 1))))
            events.sort(key=lambda e: e.t)
            samples = TaskSamples([spec], ["cup"], False, 0.0)
            for e in events:
                samples.add(e)
            samples.t1 = duration
            backdated = bool(transitions) and (pose_t is None
                                               or transitions[0][0] < pose_t)
            expected = _sampled_attach_fraction(0.0, duration, transitions,
                                                backdated)
            got = attachment_score(samples, spec).score
            assert abs(got - expected) <= 1e-3


# ---------------------------------------------------------------------------
# 5. skip-time retirement


def _skel(head, hand, shoulders=True):
    names = ["head", "hand-right"]
    positions = [head, hand]
    if shoulders:
        names += ["shoulder-left", "shoulder-right"]
        positions += [(head[0] + 0.2, 1.5, head[2]),
                      (head[0] - 0.2, 1.5, head[2])]
    return SkeletonFrame(names=tuple(names),
                         positions=np.array(positions, dtype=np.float64))


def test_05_skip_time_behavior(criterion):
    with criterion(5, "skip-time retirement"):
        params = TrajectoryParams()
        ref_events = tuple(
            Event(k / 10.0, "ref", _skel((0.02 * k, 1.7, 0.0),
                                         (0.02 * k + 0.45, 1.7, 0.0)))
            for k in range(101))
        # K = 20 targets
        track = reference_track(ref_events, 0.0, 10.0, ("head",), params)

        ev = ActionEvaluator(track, t_start=0.0)
        missed_times = []
        last_t = 0.0
        for k in range(1041):  # 104 s at 10 Hz, user parked far away
            t = k / 10.0
            last_t = t
            frame = _skel((5.0, 1.7, 5.0), (5.0, 1.25, 5.0))
            for event in ev.observe(t, frame):
                assert event[0] in ("missed", "repetition")
                if event[0] == "missed":
                    missed_times.append(t)
        summary = ev.finalize(last_t)

        assert summary.spawned == 20
        assert len(missed_times) == 20
        ages = np.diff([0.0] + missed_times)
        frame_period = 0.1
        assert np.all(ages > 5.0)
        assert np.all(ages <= 5.0 + frame_period + 1e-9)
        assert summary.burst + summary.missed == summary.spawned
        assert summary.burst == 0 and summary.missed == 20
        assert summary.score == 0.0


# ---------------------------------------------------------------------------
# 6. fall-anomaly abort


def _fall_stream(total, low_from, low_until):
    frames = []
    for k in range(int(total * 10) + 1):
        t = k / 10.0
        y = 0.2 if low_from <= t <= low_until else 1.7
        head = (0.0, y, 0.0)
        hand = (0.0, y - 0.45, 0.0)
        frames.append((t, _skel(head, hand)))
    return frames


def test_06_anomaly_abort(criterion):
    with criterion(6, "fall-anomaly abort"):
        params = TrajectoryParams()
        ref_events = tuple(
            Event(k / 10.0, "ref", _skel((0.02 * k, 1.7, 0.0),
                                         (0.02 * k + 0.45, 1.7, 0.0)))
            for k in range(101))
        track = reference_track(ref_events, 0.0, 10.0, ("head",), params)

        # held low for 13 s: must abort exactly once and zero the score
        ev = ActionEvaluator(track, t_start=0.0)
        feedback = []
        for t, frame in _fall_stream(14.0, 1.0, 14.0):
            feedback.extend(ev.observe(t, frame))
        summary = ev.finalize(14.0)
        assert summary.aborted and summary.abort_kind == "fall"
        assert feedback.count(("abort", "fall")) == 1
        assert feedback[-1] == ("abort", "fall")
        assert summary.score == 0.0

        # held low for 9 s: episode logged, no abort
        ev = ActionEvaluator(track, t_start=0.0)
        feedback = []
        for t, frame in _fall_stream(12.0, 1.0, 10.0):
            feedback.extend(ev.observe(t, frame))
        summary = ev.finalize(12.0)
        assert not summary.aborted
        assert not any(e[0] == "abort" for e in feedback)
        assert any(a.kind == "fall" for a in summary.anomalies)


# ---------------------------------------------------------------------------
# 7. readiness vs brute-force predecessor filtering


def _brute_ready(net, completed):
    ready = set()
    for tid, node in net.nodes.items():
        if node.kind != "primitive" or tid in completed:
            continue
        ok = True
        for pred in node.predecessors:
            pnode = net.nodes[pred]
            if pnode.kind == "primitive":
                if pred not in completed:
                    ok = False
            else:
                leaves = {d for d in _descendants(net, pred)
                          if net.nodes[d].kind == "primitive"}
                if not leaves or not leaves <= completed:
                    ok = False
        if ok:
            ready.add(tid)
    return ready


def _descendants(net, tid):
    out = set()
    stack = list(net.nodes[tid].children)
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        stack.extend(net.nodes[cur].children)
    return out


def _random_dag_text(rng):
    n = int(rng.integers(2, 11))
    ids = [f"N{i}" for i in range(n)]
    lines = []
    for i, tid in enumerate(ids):
        lines.append(f"task {tid}")
        lines.append("  kind primitive")
        lines.append(f"  user single u{i % 3}")
        lines.append("  weight 1.0")
        lines.append("  objects cup")
        lines.append("  assess task-level")
        lines.append("  check position subject=cup")
        lines.append("  feedback final")
        for j in range(i):
            if rng.random() < 0.3:
                lines.append(f"  pred {ids[j]}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def test_07_readiness_oracle(criterion):
    with criterion(7, "readiness oracle"):
        for net in (hydrometer_network(), collaborative_network()):
            prims = [t for t, n in net.nodes.items() if n.kind == "primitive"]
            for r in range(len(prims) + 1):
                for combo in itertools.combinations(prims, r):
                    done = set(combo)
                    assert ready_tasks(net, done) == _brute_ready(net, done)

        rng = np.random.default_rng(7)
        for _ in range(100):
            net = parse_network(_random_dag_text(rng))
            prims = [t for t, n in net.nodes.items() if n.kind == "primitive"]
            for _ in range(20):
                k = int(rng.integers(0, len(prims) + 1))
                done = set(rng.choice(prims, size=k, replace=False))
                assert ready_tasks(net, done) == _brute_ready(net, done)

        cyclic = (
            "task A\n  kind primitive\n  user single u\n  weight 1\n"
            "  objects cup\n  assess task-level\n"
            "  check position subject=cup\n  feedback final\n"
            "  pred B\nend\n"
            "task B\n  kind primitive\n  user single u\n  weight 1\n"
            "  objects cup\n  assess task-level\n"
            "  check position subject=cup\n  feedback final\n"
            "  pred A\nend\n")
        report = validate_network(parse_network(cyclic))
        assert not report.ok
        assert any("cycle" in i.message for i in report.errors())


# ---------------------------------------------------------------------------
# 8. correlation brute-force oracle


def _brute_pearson(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    if vx == 0.0 or vy == 0.0:
        return None
    return max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))


def _avg_ranks(xs):
    return [sum(1.0 for o in xs if o < v)
            + (sum(1.0 for o in xs if o == v) + 1.0) / 2.0 for v in xs]


def _brute_spearman(x, y):
    return _brute_pearson(_avg_ranks(x), _avg_ranks(y))


def _brute_kendall(x, y):
    n = len(x)
    conc = disc = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx != 0 and dy != 0:
                if dx == dy:
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - tied_x) * (n0 - tied_y))
    if denom == 0.0:
        return None
    return max(-1.0, min(1.0, (conc - disc) / denom))


_BRUTES = {"pearson": _brute_pearson, "spearman": _brute_spearman,
           "kendall": _brute_kendall}


def _check_pair(x, y):
    for method, brute in _BRUTES.items():
        expected = brute(x, y)
        if expected is None:
            with pytest.raises(UndefinedCorrelationError):
                correlate_values(x, y, method)
            continue
        got = correlate_values(x, y, method)
        assert abs(got - expected) <= 1e-9
        assert -1.0 <= got <= 1.0


def test_08_correlation_oracle(criterion):
    with criterion(8, "correlation oracle"):
        # exhaustive small integer vectors: every 0/1 pattern up to length 6,
        # every 0/1/2 pattern up to length 4, every permutation pair to n=4
        for n in range(2, 7):
            for x in itertools.product((0, 1), repeat=n):
                for y in itertools.product((0, 1), repeat=n):
                    _check_pair(list(x), list(y))
        for n in range(2, 5):
            for x in itertools.product((0, 1, 2), repeat=n):
                for y in itertools.product((0, 1, 2), repeat=n):
                    _check_pair(list(x), list(y))
        for n in range(2, 5):
            for x in itertools.permutations(range(n)):
                for y in itertools.permutations(range(n)):
                    _check_pair(list(x), list(y))

        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            x = rng.integers(0, 6, n).astype(float).tolist()
            y = (rng.integers(0, 6, n).astype(float) + rng.normal(0, 1, n)).tolist()
            _check_pair(x, y)

        ramp = [float(i) for i in range(10)]
        assert abs(correlate_values(ramp, ramp, "pearson") - 1.0) <= 1e-12
        for method in ("spearman", "kendall"):
            assert abs(correlate_values(ramp, ramp, method) - 1.0) <= 1e-12
            assert abs(correlate_values(ramp, ramp[::-1], method) + 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# 9. perturbation monotonicity through the CLI


def test_09_monotonicity(criterion, tmp_path, capsys):
    with criterion(9, "perturbation monotonicity"):
        write_demo_files(str(tmp_path))
        net = str(tmp_path / "hydrometer.ahtn")
        rec = str(tmp_path / "hydrometer.rec")
        t0 = time.perf_counter()
        rc = main(["simulate", "--net", net, "--refs", rec,
                   "--magnitudes", "0,0.02,0.05,0.1,0.2",
                   "--trials", "50", "--seed", "0"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 40.0  # 6.3x the slowest measured run: 6.35 s, 2 cores
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert len(rows) == 5
        means = [float(r[1]) for r in rows]
        assert means[0] >= 0.99
        for a, b in zip(means, means[1:]):
            assert b <= a + 1e-12


# ---------------------------------------------------------------------------
# 10. batch score vs piped stream


def test_10_mode_equivalence(criterion, tmp_path):
    with criterion(10, "batch/stream equivalence"):
        write_demo_files(str(tmp_path))
        for name in ("hydrometer", "collaborative"):
            net = str(tmp_path / f"{name}.ahtn")
            rec = str(tmp_path / f"{name}.rec")
            out_batch = str(tmp_path / f"{name}-batch.txt")
            out_stream = str(tmp_path / f"{name}-stream.txt")
            proc = subprocess.run(
                [sys.executable, "-m", "ahtn.cli", "score", "--net", net,
                 "--refs", rec, "--session", rec, "--out", out_batch],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            with open(rec, "rb") as fh:
                proc = subprocess.run(
                    [sys.executable, "-m", "ahtn.cli", "stream", "--net", net,
                     "--refs", rec, "--out", out_stream],
                    stdin=fh, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            batch = Path(out_batch).read_bytes()
            stream = Path(out_stream).read_bytes()
            assert batch == stream
            assert batch.startswith(b"ahtn-report v1\n")


# ---------------------------------------------------------------------------
# 11. throughput


def test_11_throughput(criterion):
    with criterion(11, "throughput"):
        net = throughput_network()
        rec = throughput_session()
        assert len(rec.events) > 40_000
        skel = next(e.payload for e in rec.events
                    if isinstance(e.payload, SkeletonFrame))
        assert len(skel.names) == 25
        objects = {e.payload.object_id for e in rec.events
                   if isinstance(e.payload, Pose)}
        assert len(objects) == 5

        t0 = time.perf_counter()
        refs = build_reference_set(net, [(rec, 1.0)])
        report = score_recording(EngineConfig(network=net, references=refs), rec)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.5  # 3.8x the slowest measured run: 0.654 s, 2 cores
        assert report.scopes
        for scope in report.scopes:
            assert scope.delta == 1.0
            for entry in scope.entries:
                assert entry.status == "performed" and entry.omega == 1.0
