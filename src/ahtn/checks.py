"""Task-level object-manipulation checks and their weighted combination.

Five check kinds score how closely a user's events in a task match
reference behaviour: mean orientation, mean position, attachment duration
ratio, collision count penalty, and text-input comparison. Scores are
linear ramps clamped to [0, 1]; per-check tolerances come from the
CheckSpec and fall back to the engine's ``Defaults``.

A task's events are reduced as they arrive, by one ``TaskSamples`` per
(task, member): its ``add`` decides which events the task reads and keeps
only the rows the checks need, each subject's as one flat buffer of
floats. Orientation, position and text-input compare the user's
``features()`` (the subject's mean orientation, its mean position, or the
field's last text value with its finite numeric reading) with a
reference's, computed once when the reference set is built
(``Reference.features``). Attachment and collision need no reference and
read the stored transitions and partners.

Each of the three reference-comparing kinds has a measure, which scores
one reference in numbers (or raises ValueError), and ``described``, which
turns one measure into its CheckResult. ``evaluate_task_level`` is the one
way from a task's samples to its CheckResults: it runs attachment and
collision once, through ``run_check``, measures the user against the
references in descending quality, stops once no reference left can reach
the best quality-scaled result, and writes out only the winner's results,
so a task's details are formatted once however many references it has.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .model import CheckSpec, Defaults, TaskNode, is_joint_id
from .telemetry import (Attach, Collision, Event, Pose, Reference,
                        SkeletonFrame, TextInput)


DEFAULTS = Defaults()


@dataclass(frozen=True)
class CheckResult:
    kind: str
    score: float
    detail: str
    samples_used: int = 0


@dataclass(frozen=True)
class TaskScore:
    """Combined task-level result: check-weight-normalized mean of check
    scores, scaled by the quality of the best-scoring reference."""

    omega: float
    checks: tuple[CheckResult, ...]
    reference_index: int
    reference_quality: float


# ---------------------------------------------------------------------------
# quaternion helpers

def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector: ``np.linalg.norm``'s own
    expression for one, so the bits are the same, without its checks."""
    return math.sqrt(v.dot(v))


def mean_quaternion(quats: np.ndarray) -> np.ndarray:
    """Sign-aligned component mean, renormalized. quats is (N, 4)."""
    q = np.asarray(quats, dtype=np.float64)
    signs = np.where(q @ q[0] < 0.0, -1.0, 1.0)
    mean = (q * signs[:, None]).mean(axis=0)
    norm = vector_norm(mean)
    if norm == 0.0:
        raise ValueError("degenerate orientation mean")
    return mean / norm


def quaternion_angle(q1: np.ndarray, q2: np.ndarray) -> float:
    """Rotation angle in radians between two unit quaternions, in [0, pi].

    Identical inputs give exactly 0. Uses atan2 of difference and sum
    norms, which stays accurate for tiny angles where acos of a dot
    product loses precision.
    """
    a = np.asarray(q1, dtype=np.float64)
    b = np.asarray(q2, dtype=np.float64)
    if float(a @ b) < 0.0:
        b = -b
    return 4.0 * math.atan2(vector_norm(a - b), vector_norm(a + b))


# ---------------------------------------------------------------------------
# reduction

@dataclass(frozen=True, slots=True)
class Feature:
    """What one check kind needs of one subject in one task: a reduction
    of its samples, never the samples themselves.

    ``samples`` is the number of samples reduced; 0 means no data.
    ``value`` is the mean unit quaternion (orientation), the mean position
    (position) or the last text value (text-input); it is None when there
    are no samples or the reduction failed, in which case ``error`` says
    why. ``number`` is the text value as a finite float, else None.
    """

    samples: int
    value: np.ndarray | str | None = None
    number: float | None = None
    error: str | None = None


FeatureKey = tuple[str, str]  # (check kind, subject)


def feature_key(spec: CheckSpec) -> FeatureKey:
    return spec.kind, spec.subject


def _finite_number(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _rows(buffer: array, width: int) -> np.ndarray:
    """A flat buffer of floats as an (n, width) float64 array over it."""
    return np.frombuffer(buffer).reshape(-1, width)


# a sample's floats as the bytes of native doubles, which array("d") holds;
# appending these is cheaper than extending the array by a tuple
_QUAT_BYTES = struct.Struct("4d").pack
_POSITION_BYTES = struct.Struct("3d").pack


class TaskSamples:
    """What one member's events in one task reduce to, kept as they arrive.

    ``add`` is the one rule for which events a task reads: a Pose or a
    TextInput that names one of its ``objects``, an Attach or a Collision
    with an object on either side, and a SkeletonFrame when ``skeleton``
    is set; never a mark. Of each event it takes, it keeps only what the
    checks read: each subject's orientations or positions as one flat
    ``array("d")`` of 4 or 3 floats per sample (a joint's row is copied
    out of its frame's float64 array, so no parse block is kept alive),
    each field's text count and last value, each attachment pair's (t, on)
    transitions with the first Pose time of each object, and each
    collision subject's partners. ``count`` is the number of events taken. ``t0`` and ``t1``
    are the task's marks; ``t1`` is set when the task ends.
    """

    def __init__(self, checks: Iterable[CheckSpec], objects: Iterable[str],
                 skeleton: bool, t0: float):
        self.objects = frozenset(objects)
        self.skeleton = skeleton
        self.t0 = t0
        self.t1: float | None = None
        self.count = 0
        self.quats: dict[str, array] = {}  # 4 floats per sample
        self.positions: dict[str, array] = {}  # of game objects, from poses
        self.joints: dict[str, array] = {}  # of joints, from skeleton frames
        self.texts: dict[str, list] = {}  # [count, last value]
        self.transitions: dict[tuple[str, str], list[tuple[float, bool]]] = {}
        self.first_pose: dict[str, float] = {}
        self.partners: dict[str, list[str]] = {}
        for c in checks:
            if c.kind == "orientation":
                self.quats[c.subject] = array("d")
            elif c.kind == "position":
                rows = self.joints if is_joint_id(c.subject) else self.positions
                rows[c.subject] = array("d")
            elif c.kind == "text-input":
                self.texts[c.subject] = [0, None]
            elif c.kind == "attachment":
                self.transitions[c.subject, c.reference_object] = []
            else:
                self.partners[c.subject] = []

    def add(self, event: Event) -> bool:
        """Take the event's rows if the task reads it; whether it did."""
        p = event.payload
        kind = type(p)
        if kind is Pose:
            subject = p.object_id
            if subject not in self.objects:
                return False
            if subject in self.quats:
                self.quats[subject].frombytes(_QUAT_BYTES(*p.orientation))
            if subject in self.positions:
                self.positions[subject].frombytes(_POSITION_BYTES(*p.position))
            self.first_pose.setdefault(subject, event.t)
        elif kind is SkeletonFrame:
            if not self.skeleton:
                return False
            names = p.names
            for joint, rows in self.joints.items():
                if joint in names:
                    rows.frombytes(p.positions[names.index(joint)].tobytes())
        elif kind is TextInput:
            if p.field_id not in self.objects:
                return False
            text = self.texts.get(p.field_id)
            if text is not None:
                text[0] += 1
                text[1] = p.value
        elif kind is Attach:
            if p.object_id not in self.objects and p.target_id not in self.objects:
                return False
            pair = p.object_id, p.target_id
            if pair in self.transitions:
                self.transitions[pair].append((event.t, p.attached))
        elif kind is Collision:
            if p.object_id not in self.objects and p.other_id not in self.objects:
                return False
            if p.object_id in self.partners:
                self.partners[p.object_id].append(p.other_id)
        else:
            return False
        self.count += 1
        return True

    def features(self) -> dict[FeatureKey, Feature]:
        """A Feature per (kind, subject) of the reference-comparing checks."""
        out: dict[FeatureKey, Feature] = {}
        for subject, buffer in self.quats.items():
            n = len(buffer) // 4
            feature = Feature(n)
            if n:
                try:
                    feature = Feature(n, mean_quaternion(_rows(buffer, 4)))
                except ValueError as e:
                    feature = Feature(n, error=str(e))
            out["orientation", subject] = feature
        for subject, buffer in (self.positions | self.joints).items():
            n = len(buffer) // 3
            out["position", subject] = (
                Feature(n, _rows(buffer, 3).mean(axis=0)) if n else Feature(0))
        for subject, (n, value) in self.texts.items():
            out["text-input", subject] = (
                Feature(n, value, _finite_number(value)) if n else Feature(0))
        return out


# what a side without samples lacks, by check kind: the user's, the reference's
_MISSING = {
    "orientation": ("no Pose events for {!r}", "no reference Pose events for {!r}"),
    "position": ("no position samples for {!r}", "no reference positions for {!r}"),
    "text-input": ("no TextInput for field {!r}",
                   "no reference TextInput for field {!r}"),
}


def _reductions(user: Feature, ref: Feature, spec: CheckSpec):
    """Both sides' values, or a ValueError for the first side without one."""
    if not (user.samples and ref.samples
            and user.error is None and ref.error is None):
        for side, feature in enumerate((user, ref)):
            if not feature.samples:
                missing = _MISSING[spec.kind][side].format(spec.subject)
                raise ValueError(f"no data: {missing}")
            if feature.error is not None:
                raise ValueError(feature.error)
    return user.value, ref.value


def _ramp(value: float, limit: float) -> float:
    return max(0.0, 1.0 - value / limit)


# ---------------------------------------------------------------------------
# the five checks

# a measure's outcome: the score, then the format of the check's detail
# and the values it prints
Measure = tuple


def described(kind: str, user: Feature, measure: Measure) -> CheckResult:
    """The CheckResult of a measure of the user's Feature."""
    score, detail, *values = measure
    return CheckResult(kind=kind, score=score, detail=detail.format(*values),
                       samples_used=user.samples)


def _tol(spec: CheckSpec, default: float) -> float:
    return spec.tol if spec.tol is not None else default


def orientation_measure(user: Feature, ref: Feature, spec: CheckSpec,
                        tol: float) -> Measure:
    """Angle between the mean orientation of the subject in the user's task
    and in the reference, mapped linearly to [0, 1]."""
    user_mean, ref_mean = _reductions(user, ref, spec)
    theta = quaternion_angle(user_mean, ref_mean)
    return _ramp(theta, tol), "theta={:.6f} rad, tol={:.6f}", theta, tol


def position_measure(user: Feature, ref: Feature, spec: CheckSpec,
                     tol: float) -> Measure:
    """Distance between mean user and mean reference position of the
    subject (game object or skeleton joint), mapped linearly to [0, 1]."""
    user_mean, ref_mean = _reductions(user, ref, spec)
    d = vector_norm(user_mean - ref_mean)
    return _ramp(d, tol), "d={:.6f} m, tol={:.6f}", d, tol


def attachment_score(samples: TaskSamples, spec: CheckSpec) -> CheckResult:
    """Fraction of the task during which subject was attached to the
    reference object.

    The pair starts detached. A first `on` arriving before the subject's
    first Pose event backdates the attachment to the task start (the
    object had not moved, so it was held from the beginning). Transitions
    must alternate; anything else is a state mismatch error.
    """
    t0, t1 = samples.t0, samples.t1
    if t1 - t0 <= 0:
        raise ValueError("zero-duration slice")
    first_pose_t = samples.first_pose.get(spec.subject, math.inf)
    transitions = samples.transitions[spec.subject, spec.reference_object]
    total = 0.0
    on_t: float | None = None
    for i, (t, on) in enumerate(transitions):
        if on:
            if on_t is not None:
                raise ValueError("attach state mismatch: on while attached")
            on_t = t0 if (i == 0 and t < first_pose_t) else t
        else:
            if on_t is None:
                raise ValueError("attach state mismatch: off while detached")
            total += t - on_t
            on_t = None
    if on_t is not None:
        total += t1 - on_t

    score = min(1.0, max(0.0, total / (t1 - t0)))
    return CheckResult(kind="attachment", score=score,
                       detail=f"attached {total:.6f} s of {t1 - t0:.6f} s",
                       samples_used=len(transitions))


def collision_score(samples: TaskSamples, spec: CheckSpec,
                    defaults: Defaults = DEFAULTS) -> CheckResult:
    """1 minus a fixed penalty per collision of the subject (optionally
    restricted to one other object), clamped at 0."""
    penalty = (defaults.collision_penalty
               if defaults.collision_penalty is not None else spec.penalty)
    partners = samples.partners[spec.subject]
    k = (len(partners) if spec.reference_object is None
         else partners.count(spec.reference_object))
    return CheckResult(kind="collision", score=max(0.0, 1.0 - penalty * k),
                       detail=f"{k} collisions, penalty {penalty}",
                       samples_used=k)


def text_input_measure(user: Feature, ref: Feature, spec: CheckSpec,
                       tol: float) -> Measure:
    """Compare the user's last text input for the field with the
    reference's. A reference value that reads as a finite number ramps
    from 1 at |u-r| <= tol down to 0 at 2*tol, and a user value that does
    not read as one scores 0; any other reference value requires an exact
    string match."""
    user_value, ref_value = _reductions(user, ref, spec)
    r, u = ref.number, user.number
    if r is None:
        return (1.0 if user_value == ref_value else 0.0,
                "string match {!r} vs {!r}", user_value, ref_value)
    if u is None:
        return 0.0, "unparsable numeric input {!r}", user_value
    d = abs(u - r)
    score = 1.0 if d <= tol else max(0.0, 1.0 - (d - tol) / tol)
    return score, "|{!r} - {!r}| = {:.6g}, tol {:.6g}", u, r, d, tol


# ---------------------------------------------------------------------------
# combination

# the kinds that compare the learner with a reference: each one's measure
# and its default tolerance in ``Defaults``; attachment and collision read
# only the learner's samples
_MEASURES = {
    "orientation": (orientation_measure, "orientation_tol"),
    "position": (position_measure, "position_tol"),
    "text-input": (text_input_measure, "text_tol"),
}


def _error(kind: str, error: ValueError) -> CheckResult:
    return CheckResult(kind=kind, score=0.0, detail=f"error: {error}")


def run_check(spec: CheckSpec, samples: TaskSamples,
              defaults: Defaults = DEFAULTS) -> CheckResult:
    """The result of an attachment or collision check on the user's
    samples, which no reference enters; a ValueError becomes a 0-score
    result with the error text."""
    try:
        if spec.kind == "attachment":
            return attachment_score(samples, spec)
        return collision_score(samples, spec, defaults)
    except ValueError as e:
        return _error(spec.kind, e)


def evaluate_task_level(node: TaskNode, samples: TaskSamples,
                        refs: Sequence[Reference],
                        defaults: Defaults = DEFAULTS) -> TaskScore:
    """Score the references and keep the best quality-scaled outcome.

    For each reference: omega_r = sum(cweight * score) / sum(cweight),
    scaled by that reference's quality. The reference maximizing the
    scaled value wins (the first in ``refs`` on ties). The user's samples
    are reduced once: attachment and collision are run once, and each
    other check measures the user's feature against a reference's, a
    ValueError scoring 0. Only the winner's measures become CheckResults,
    so a detail is written once per check, whatever the number of
    references.

    References are measured in descending quality, equals in ``refs``
    order, and the scan stops at the first whose quality is below the best
    scaled omega so far: scores lie in [0, 1] and check weights are not
    negative, so omega_r is at most 1 and a reference's scaled value at
    most its quality (IEEE rounding is monotone), and no reference left can
    beat or tie the winner.
    """
    spec = node.assessment
    if spec is None or not spec.has_task_level:
        raise ValueError(f"task {node.id!r} has no task-level assessment")
    if not refs:
        raise ValueError(f"no reference for task {node.id!r}")

    checks = spec.checks
    user = samples.features()
    weights = [c.check_weight for c in checks]
    total_w = sum(weights)
    # per check: (the result of a check that needs no reference, or None;
    # else the measure, the user's feature, its key and the tolerance)
    plan = []
    for c in checks:
        if c.kind in _MEASURES:
            measure, tol_name = _MEASURES[c.kind]
            key = feature_key(c)
            plan.append((None, measure, c, user[key], key,
                         _tol(c, getattr(defaults, tol_name))))
        else:
            plan.append((run_check(c, samples, defaults), None, c, None,
                         None, None))

    qualities = [r.quality for r in refs]
    best_omega = 0.0
    best: tuple[int, list] | None = None  # the winner's index and outcomes
    # a stable sort keeps equal qualities in refs order
    for index in sorted(range(len(refs)), key=qualities.__getitem__,
                        reverse=True):
        quality = qualities[index]
        if best is not None and quality < best_omega:
            break
        features = refs[index].features
        outcomes: list = []  # per check: a result, a measure or a ValueError
        scores: list[float] = []
        for fixed, measure, c, mine, key, tol in plan:
            if fixed is not None:
                outcome, score = fixed, fixed.score
            else:
                try:
                    outcome = measure(mine, features[key], c, tol)
                    score = outcome[0]
                except ValueError as e:
                    outcome, score = e, 0.0
            outcomes.append(outcome)
            scores.append(score)
        omega = 0.0 if total_w == 0 else sum(map(mul, weights, scores)) / total_w
        omega *= quality
        if (best is None or omega > best_omega
                or (omega == best_omega and index < best[0])):
            best_omega, best = omega, (index, outcomes)
    assert best is not None

    index, outcomes = best
    results = tuple(
        fixed if fixed is not None
        else _error(c.kind, outcome) if isinstance(outcome, ValueError)
        else described(c.kind, mine, outcome)
        for (fixed, _, c, mine, _, _), outcome in zip(plan, outcomes))
    return TaskScore(omega=best_omega, checks=results, reference_index=index,
                     reference_quality=qualities[index])
