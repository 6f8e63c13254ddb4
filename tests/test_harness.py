"""Correlation statistics, deterministic perturbation, monotonicity study."""

import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ahtn import harness
from ahtn.harness import (METHODS, MonotonicityRow, PerturbationSpec,
                          ScorePairSet, UndefinedCorrelationError,
                          correlate_values, format_monotonicity,
                          monotonicity_csv, monotonicity_report,
                          parse_score_pairs, perturb, spec_for_magnitude)
from ahtn.engine import EngineConfig, build_reference_set, score_recording
from ahtn.model import parse_network
from ahtn.report import render_report
from ahtn.telemetry import (Attach, Collision, Event, Pose, SessionRecording,
                            SkeletonFrame, TaskMark, TextInput, parse_session,
                            serialize_recording)


# -- correlation ---------------------------------------------------------------

def test_identical_vectors_correlate_to_one():
    x = [0.2, 0.9, 0.4, 0.7, 0.5]
    for method in METHODS:
        assert correlate_values(x, x, method) == 1.0


def test_reversed_order_correlates_to_minus_one():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [5.0, 4.0, 3.0, 2.0, 1.0]
    for method in METHODS:
        assert correlate_values(x, y, method) == -1.0


def test_kendall_two_swaps():
    x = [1, 2, 3, 4, 5]
    y = [2, 1, 4, 3, 5]  # two discordant pairs out of ten
    assert correlate_values(x, y, "kendall") == pytest.approx(0.6)


def test_spearman_uses_average_ranks():
    # scipy-published example with ties in both vectors
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 3.0, 2.0, 4.0]
    got = correlate_values(x, y, "spearman")
    sp = pytest.importorskip("scipy.stats")
    want = sp.spearmanr(x, y).statistic
    assert got == pytest.approx(want, abs=1e-12)


def test_correlations_match_scipy_on_random_data():
    sp = pytest.importorskip("scipy.stats")
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(3, 40)
        if trial % 2:
            x = [rng.uniform(0, 1) for _ in range(n)]
            y = [rng.uniform(0, 1) for _ in range(n)]
        else:  # heavy ties
            x = [float(rng.randint(0, 3)) for _ in range(n)]
            y = [float(rng.randint(0, 3)) for _ in range(n)]
        for method in METHODS:
            try:
                got = correlate_values(x, y, method)
            except UndefinedCorrelationError:
                continue
            if method == "pearson":
                want = sp.pearsonr(x, y).statistic
            elif method == "spearman":
                want = sp.spearmanr(x, y).statistic
            else:
                want = sp.kendalltau(x, y, variant="b").statistic
            assert got == pytest.approx(want, abs=1e-9), (method, x, y)
            assert -1.0 <= got <= 1.0


def test_zero_variance_is_undefined():
    flat = [0.5, 0.5, 0.5]
    wavy = [0.1, 0.9, 0.4]
    for method in METHODS:
        with pytest.raises(UndefinedCorrelationError):
            correlate_values(flat, wavy, method)
        with pytest.raises(UndefinedCorrelationError):
            correlate_values(wavy, flat, method)


def test_correlate_guards():
    with pytest.raises(ValueError, match="unknown method"):
        correlate_values([1, 2], [1, 2], "mannwhitney")
    with pytest.raises(ValueError, match="equal length"):
        correlate_values([1, 2], [1, 2, 3], "pearson")
    with pytest.raises(ValueError, match="at least two"):
        correlate_values([1.0], [1.0], "pearson")


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_input_is_named_before_any_method(method):
    # no method may turn it into a coefficient or blame another cause
    x = [0.1, math.nan, 0.4, 0.9]
    y = [0.2, 0.5, math.inf, 0.8]
    with pytest.raises(ValueError, match="non-finite value nan") as err:
        correlate_values(x, y, method)
    assert not isinstance(err.value, UndefinedCorrelationError)


# -- score pair parsing ----------------------------------------------------------

def test_parse_score_pairs_percent_scale():
    pairs = parse_score_pairs("# comment\nT1 87.5 90\nT2 66 70\n")
    assert pairs.labels == ("T1", "T2")
    assert pairs.system == (0.875, 0.66)
    assert pairs.grader == (0.90, 0.70)


def test_parse_score_pairs_unit_scale_untouched():
    pairs = parse_score_pairs("a 0.5 0.25\nb 1.0 0.75\n")
    assert pairs.system == (0.5, 1.0)


@pytest.mark.parametrize("text,fragment", [
    ("a 0.5\n", "expected <label>"),
    ("a x 0.5\nb 1 1\n", "must be numbers"),
    ("a 0.5 0.5\n", "at least two"),
    ("a 150 50\nb 10 10\n", "outside"),
])
def test_parse_score_pairs_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_score_pairs(text)


def test_score_pair_set_alignment():
    with pytest.raises(ValueError, match="align"):
        ScorePairSet(labels=("a",), system=(0.1, 0.2), grader=(0.1,))
    pairs = ScorePairSet(labels=("a", "b"), system=(0.1, 0.9), grader=(0.2, 0.8))
    assert correlate_values(pairs.system, pairs.grader,
                            "pearson") == pytest.approx(1.0)


# -- perturbation -----------------------------------------------------------------

def test_spec_for_magnitude_mapping():
    spec = spec_for_magnitude(0.1, seed=3)
    assert spec.position_sigma == 0.1
    assert spec.orientation_sigma == pytest.approx(0.2)
    assert spec.drop_attach_prob == pytest.approx(0.1)
    assert spec.inject_collisions == 5
    assert spec.text_error == 0.1
    assert spec.seed == 3
    assert spec_for_magnitude(0.0).is_identity
    with pytest.raises(ValueError):
        spec_for_magnitude(-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(position_sigma=-1)


@pytest.mark.parametrize("build", [
    lambda: spec_for_magnitude(math.inf),  # once an OverflowError
    lambda: PerturbationSpec(position_sigma=math.nan),  # once scored 0.55
    lambda: PerturbationSpec(text_error=math.inf),
    lambda: PerturbationSpec(drop_attach_prob=math.nan),
], ids=["magnitude", "position_sigma", "text_error", "drop_attach_prob"])
def test_perturbation_magnitudes_must_be_finite(build):
    with pytest.raises(ValueError, match="must be finite and "):
        build()


def test_magnitude_is_at_most_one():
    # built only, never perturbed with: 1e8 once asked for 5e9 collisions
    with pytest.raises(ValueError,
                       match=r"^magnitude must be finite and in \[0, 1\]: 100000000.0$"):
        spec_for_magnitude(1e8)
    full = spec_for_magnitude(1.0)
    assert (full.drop_attach_prob, full.inject_collisions) == (1.0, 50)


def test_perturb_identity_returns_input(hydro_rec):
    assert perturb(hydro_rec, PerturbationSpec()) is hydro_rec


def test_perturb_is_deterministic(hydro_rec):
    spec = spec_for_magnitude(0.05, seed=123)
    a = perturb(hydro_rec, spec)
    b = perturb(hydro_rec, spec)
    assert serialize_recording(a) == serialize_recording(b)
    other = perturb(hydro_rec, spec_for_magnitude(0.05, seed=124))
    assert serialize_recording(other) != serialize_recording(a)


def test_perturb_output_is_still_a_valid_recording(hydro_rec):
    noisy = perturb(hydro_rec, spec_for_magnitude(0.2, seed=9))
    again = parse_session(serialize_recording(noisy), noisy.session_id)
    assert len(again.events) == len(noisy.events)


def test_perturb_position_noise_magnitude(hydro_rec):
    sigma = 0.05
    noisy = perturb(hydro_rec, PerturbationSpec(position_sigma=sigma, seed=1))
    displacements = []
    for before, after in zip(hydro_rec.events, noisy.events):
        if isinstance(before.payload, Pose):
            d = np.linalg.norm(np.subtract(after.payload.position,
                                           before.payload.position))
            displacements.append(float(d))
    mean_d = float(np.mean(displacements))
    # 3D gaussian: expected displacement is sigma * sqrt(8/pi)
    expected = sigma * math.sqrt(8 / math.pi)
    print(f"mean pose displacement {mean_d:.5f} m (theory {expected:.5f} m, "
          f"n={len(displacements)})")
    assert mean_d == pytest.approx(expected, rel=0.15)
    # quaternions stay unit length
    for e in noisy.events:
        if isinstance(e.payload, Pose):
            assert np.linalg.norm(e.payload.orientation) == pytest.approx(1.0, abs=1e-9)


def payload_pairs(before, after, kind):
    """(input, output) payloads of one kind; the spec must neither drop nor
    inject events, so the two recordings align one to one."""
    assert len(before.events) == len(after.events)
    return [(b.payload, a.payload) for b, a in zip(before.events, after.events)
            if isinstance(b.payload, kind)]


def test_perturb_orientation_noise_magnitude(hydro_rec):
    sigma = 0.1
    noisy = perturb(hydro_rec, PerturbationSpec(orientation_sigma=sigma, seed=5))
    pairs = payload_pairs(hydro_rec, noisy, Pose)
    angles = [2.0 * math.acos(min(1.0, abs(float(np.dot(b.orientation,
                                                         a.orientation)))))
              for b, a in pairs]
    # rotation by |sigma * z|, z standard normal: mean sigma * sqrt(2/pi)
    assert np.mean(angles) == pytest.approx(sigma * math.sqrt(2 / math.pi),
                                            rel=0.15)
    assert all(b.position == a.position for b, a in pairs)


def test_perturb_skeleton_noise_magnitude_and_shared_layout(hydro_rec):
    sigma = 0.05
    noisy = perturb(hydro_rec, PerturbationSpec(position_sigma=sigma, seed=6))
    pairs = payload_pairs(hydro_rec, noisy, SkeletonFrame)
    assert pairs
    assert all(a.names is b.names for b, a in pairs)
    d = np.concatenate([np.linalg.norm(a.positions - b.positions, axis=1)
                        for b, a in pairs])
    assert float(d.mean()) == pytest.approx(sigma * math.sqrt(8 / math.pi),
                                            rel=0.15)


def test_perturb_zero_sigma_channels_stay_exact(hydro_rec):
    turned = perturb(hydro_rec, PerturbationSpec(orientation_sigma=0.2,
                                                 text_error=0.1, seed=7))
    assert all(a.position == b.position
               for b, a in payload_pairs(hydro_rec, turned, Pose))
    assert all(a == b for b, a in payload_pairs(hydro_rec, turned, SkeletonFrame))
    moved = perturb(hydro_rec, PerturbationSpec(position_sigma=0.05, seed=8))
    pose_pairs = payload_pairs(hydro_rec, moved, Pose)
    assert all(a.orientation == b.orientation for b, a in pose_pairs)
    assert any(a.position != b.position for b, a in pose_pairs)


def test_perturb_drops_whole_attach_intervals(hydro_rec):
    spec = PerturbationSpec(drop_attach_prob=1.0, seed=0)
    out = perturb(hydro_rec, spec)
    n_before = sum(isinstance(e.payload, Attach) for e in hydro_rec.events)
    assert n_before > 0
    assert sum(isinstance(e.payload, Attach) for e in out.events) == 0
    # never a dangling on/off pair at lower probabilities
    for seed in range(5):
        half = perturb(hydro_rec, PerturbationSpec(drop_attach_prob=0.5, seed=seed))
        ons = sum(1 for e in half.events
                  if isinstance(e.payload, Attach) and e.payload.attached)
        offs = sum(1 for e in half.events
                   if isinstance(e.payload, Attach) and not e.payload.attached)
        assert ons == offs


def test_perturb_injects_time_ordered_collisions(hydro_rec):
    spec = PerturbationSpec(inject_collisions=10, seed=4)
    out = perturb(hydro_rec, spec)
    extra = (sum(isinstance(e.payload, Collision) for e in out.events)
             - sum(isinstance(e.payload, Collision) for e in hydro_rec.events))
    assert extra == 10
    times = [e.t for e in out.events]
    assert times == sorted(times)


# sha256 of serialize_recording(perturb(hydro_rec, spec_for_magnitude(m, seed)))
# for (m, seed): every channel at once; 0.6 drops attach intervals and 1.0
# drops every one and injects 50 collisions
PERTURBED_DIGESTS = {
    (0.05, 11): "9ad1b0f4e2e9876408860303121d5c9bf713691a8ec5b268e45a118df8f6498e",
    (0.6, 12): "5a1abdcf1f7cf282af6ecc39a81c68f31cab7c2e533733c90c8f88708e0a2a16",
    (1.0, 13): "79f72330addc4d78d92ecd9ab15f5b77666950885582ed484cde303492db07d6",
}


@pytest.mark.parametrize("magnitude, seed", sorted(PERTURBED_DIGESTS))
def test_perturb_output_is_pinned(hydro_rec, magnitude, seed):
    text = serialize_recording(perturb(hydro_rec, spec_for_magnitude(magnitude, seed)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PERTURBED_DIGESTS[magnitude, seed]


def test_perturb_refuses_arrays_of_another_recording(hydro_rec, collab_rec):
    arrays = harness._Prepared(hydro_rec)
    spec = spec_for_magnitude(0.1, 1)
    assert serialize_recording(perturb(hydro_rec, spec, arrays)) == \
        serialize_recording(perturb(hydro_rec, spec))
    with pytest.raises(ValueError, match="another recording"):
        perturb(collab_rec, spec, arrays)


# -- a study's trials: only the events grading reads -----------------------------

def assert_kept_trials_grade_as_whole(net, rec, magnitudes, seeds):
    """Each trial of the kept events renders the same report as the whole
    corrupted copy; returns how many events a trial keeps."""
    config = EngineConfig(net, build_reference_set(net, [(rec, 1.0)]))
    kept = harness._Prepared(rec, harness._graded(config, rec))
    for magnitude in magnitudes:
        for seed in seeds:
            spec = spec_for_magnitude(magnitude, seed)
            whole = render_report(score_recording(config, perturb(rec, spec)))
            assert render_report(score_recording(
                config, perturb(rec, spec, kept))) == whole, (magnitude, seed)
    return len(kept.events)


@pytest.mark.parametrize("demo", ["hydro", "collab"])
def test_a_trial_of_the_kept_events_grades_as_the_whole_copy(request, demo):
    net = request.getfixturevalue(f"{demo}_net")
    rec = request.getfixturevalue(f"{demo}_rec")
    kept = assert_kept_trials_grade_as_whole(net, rec, (0.02, 0.3, 1.0), range(3))
    assert kept < len(rec.events) / 2


EDGE_NET = """task T
  kind primitive
  user single u
  weight 1.0
  objects cup dish
  assess task-level
  check position subject=cup
  check attachment subject=cup ref=dish
  check collision subject=cup
  feedback final
end
"""


def posed(user, t0, t1):
    """Cup and dish poses of user every 0.1 s from t0 up to t1."""
    return [Event(k / 10, user, Pose(obj, (0.1 * k, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)))
            for k in range(round(t0 * 10), round(t1 * 10))
            for obj in ("cup", "dish")]


def mark(t, edge):
    return Event(t, "u", TaskMark("T", edge))


def attach(t, on):
    return Event(t, "u", Attach("cup", "dish", on))


# the poses before the start mark and after the end mark are read by no task
EDGE_RECORDINGS = {
    # the draw drops the first interval, so the first event left is a pose
    # no task reads
    "first-event-attach": [attach(0.0, True), *posed("u", 0.0, 1.0), mark(1.0, "start"),
                           *posed("u", 1.0, 3.0), attach(3.0, False),
                           *posed("u", 3.0, 5.0), mark(5.0, "end"),
                           *posed("u", 5.0, 6.0)],
    "last-event-attach": [*posed("u", 0.0, 1.0), mark(1.0, "start"),
                          attach(1.5, True), *posed("u", 1.0, 5.0), attach(4.5, False),
                          mark(5.0, "end"), *posed("u", 5.0, 6.0), attach(6.5, True)],
    "bystander-in-window": [*posed("u", 0.0, 1.0), mark(1.0, "start"),
                            *posed("u", 1.0, 5.0), *posed("v", 1.0, 5.0),
                            mark(5.0, "end"), *posed("u", 5.0, 6.0)],
    "duplicate-start": [*posed("u", 0.0, 1.0), mark(1.0, "start"), *posed("u", 1.0, 2.0),
                        mark(2.0, "start"), *posed("u", 2.0, 5.0), mark(5.0, "end"),
                        *posed("u", 5.0, 6.0)],
}


@pytest.mark.parametrize("name", EDGE_RECORDINGS)
def test_kept_events_grade_as_whole_at_the_edges(name):
    # in time order; events that share a time keep their order
    rec = SessionRecording(name, tuple(sorted(EDGE_RECORDINGS[name],
                                              key=lambda e: e.t)))
    kept = assert_kept_trials_grade_as_whole(
        parse_network(EDGE_NET), rec, (0.3, 1.0), range(4))
    assert kept < len(rec.events)


def test_perturb_offsets_numeric_text(hydro_rec):
    out = perturb(hydro_rec, PerturbationSpec(text_error=0.5, seed=2))
    before = [e.payload.value for e in hydro_rec.events
              if isinstance(e.payload, TextInput)]
    after = [e.payload.value for e in out.events
             if isinstance(e.payload, TextInput)]
    assert before and before != after
    assert all(float(v) == float(v) for v in after)  # still parseable numbers


# -- monotonicity -----------------------------------------------------------------

def test_monotonicity_guards(hydro_net, hydro_rec):
    with pytest.raises(ValueError, match="below minimum"):
        monotonicity_report(hydro_net, hydro_rec, [0.0, 0.1], trials=5)
    with pytest.raises(ValueError, match="strictly increasing"):
        monotonicity_report(hydro_net, hydro_rec, [0.1, 0.1], trials=10)
    with pytest.raises(ValueError, match="at least one magnitude"):
        monotonicity_report(hydro_net, hydro_rec, [], trials=10)


def test_monotonicity_zero_magnitude_is_exact(hydro_net, hydro_rec):
    rows = monotonicity_report(hydro_net, hydro_rec, [0.0, 0.08], trials=10, seed=1)
    assert rows[0].mean_delta == 1.0 and rows[0].std_delta == 0.0
    assert rows[1].mean_delta < rows[0].mean_delta
    again = monotonicity_report(hydro_net, hydro_rec, [0.0, 0.08], trials=10, seed=1)
    assert rows == again  # counter-based seeding reproduces exactly


def test_seeded_study_is_pinned(hydro_net, hydro_rec):
    # the same table as `ahtn simulate` on the hydrometer demo with
    # --magnitudes 0,0.02,0.05,0.1,0.2 --trials 10 --seed 3 --csv
    rows = monotonicity_report(hydro_net, hydro_rec, [0, 0.02, 0.05, 0.1, 0.2],
                               trials=10, seed=3)
    pinned = Path(__file__).parent / "data" / "simulate-hydrometer.csv"
    assert monotonicity_csv(rows) == pinned.read_text(encoding="utf-8")


def test_identity_trials_are_scored_once(hydro_net, hydro_rec, monkeypatch):
    # perfbench's per-trial hooks time these two calls
    scored, perturbed = [], []
    score, corrupt = harness.score_recording, harness.perturb
    monkeypatch.setattr(harness, "score_recording",
                        lambda config, rec: scored.append(rec) or score(config, rec))
    monkeypatch.setattr(harness, "perturb", lambda rec, spec, prepared: (
        perturbed.append(spec) or corrupt(rec, spec, prepared)))
    rows = monotonicity_report(hydro_net, hydro_rec, [0.0, 0.05], trials=10, seed=2)
    assert rows[0].trials == 10 and rows[0].mean_delta == 1.0
    # the reference itself once, then each perturbed copy
    assert len(scored) == 11 and scored[0] is hydro_rec
    assert all(rec is not hydro_rec for rec in scored[1:])
    # once per trial, the identity spec of magnitude 0 included
    assert len(perturbed) == 20
    assert sum(not spec.is_identity for spec in perturbed) == 10


def test_monotonicity_formatting():
    rows = [MonotonicityRow(0.0, 1.0, 0.0, 10),
            MonotonicityRow(0.1, 0.75, 0.02, 10)]
    table = format_monotonicity(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["magnitude", "mean-delta", "std", "trials"]
    assert len(lines) == 3
    csv = monotonicity_csv(rows)
    head, *body = csv.splitlines()
    assert head == "magnitude,mean_delta,std_delta,trials"
    assert [float(b.split(",")[1]) for b in body] == [1.0, 0.75]
