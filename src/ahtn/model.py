"""Assessment task-network model: types, definition parser, validation, readiness.

A network is a hierarchy of abstract nodes over primitive (leaf) tasks.
Primitive tasks carry the augmented assessment parameters: assessed user
scope, weight, predecessor tasks, game objects, an assessment spec
(task-level object checks and/or action-level trajectory matching), and
the feedback mode.

Definition file format (UTF-8, line oriented, ``#`` comments)::

    task <id>
      kind abstract|primitive
      name <display name>          # optional, defaults to the id
      desc <free text>             # optional
      child <id>                   # abstract only, repeatable
      pred <id>                    # repeatable
      user single|group|individual <user-id...>
      weight <real>
      input <id...>                # optional
      output <id...>               # optional
      objects <id...>              # game-object ids and joint ids
      assess task-level|action-level|both
      check <kind> subject=<id> [ref=<id>] [penalty=<real>] [tol=<real>] [cweight=<real>]
      feedback realtime|final
      time <seconds>               # optional completion-time constraint
    end

One directive per line; block order is irrelevant. Joint ids appearing in
``objects`` (head, hand-left, finger-*, ...) select the skeleton joints
tracked by action-level assessment.

Every number a user sets goes through ``check_setting``: it must be finite
and pass one of the four rules of ``RULES``. Each is declared once, as a
``setting`` field with its default, rule and a one-line description, on
the type that holds it: ``TaskNode`` and ``CheckSpec`` for the file's
numbers, ``Defaults`` and ``TrajectoryParams`` for the engine-wide ones.
Each type checks its settings however it is built; the parser checks a
file's number by the same rule as it reads it, with its line number. The
CLI's flags and the report's config lines come from the engine-wide ones.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, field, fields, replace

CHECK_KINDS = ("orientation", "position", "attachment", "collision", "text-input")
ASSESS_MODES = ("task-level", "action-level", "both")
SCOPE_CATEGORIES = ("single-user", "group", "individual-in-group")
FEEDBACK_MODES = ("real-time", "final-score")

_JOINT_IDS = frozenset({
    "head", "head-forward", "neck", "spine-base", "spine-mid",
    "shoulder-left", "shoulder-right", "elbow-left", "elbow-right",
    "wrist-left", "wrist-right", "hand-left", "hand-right",
    "hip-left", "hip-right", "knee-left", "knee-right",
    "foot-left", "foot-right",
})
_JOINT_PREFIXES = ("finger-", "thumb-")


def is_joint_id(name: str) -> bool:
    """True when an object id names a skeleton joint rather than a game object."""
    return name in _JOINT_IDS or name.startswith(_JOINT_PREFIXES)


class NetworkError(ValueError):
    """Definition-file syntax or structural error, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---------------------------------------------------------------------------
# settings

RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def check_setting(rule: str, value: float, name: str = "") -> float:
    """``value`` when it is finite and passes ``rule``, a key of RULES;
    otherwise a ValueError that states the rule, led by ``name``."""
    if not (math.isfinite(value) and RULES[rule](value)):
        raise ValueError(f"{name} must be finite and {rule}: {value!r}".lstrip())
    return value


def setting(default, rule: str, about: str):
    """A dataclass field holding a setting: its default, its RULES key and
    a one-line description."""
    return field(default=default, metadata={"rule": rule, "about": about})


def settings(cls) -> tuple:
    """The ``setting`` fields of a dataclass, in declaration order."""
    return tuple(f for f in fields(cls) if "rule" in f.metadata)


def setting_text(value) -> str:
    """A setting's value as the report and the CLI help show it; None
    (no global collision penalty) reads ``per-check``."""
    return "per-check" if value is None else repr(value)


def setting_lines(obj) -> tuple[str, ...]:
    """One ``name value`` line per setting of obj, for the report header."""
    return tuple(f"{f.name.replace('_', '-')} {setting_text(getattr(obj, f.name))}"
                 for f in settings(type(obj)))


class Settings:
    """Base of a dataclass with ``setting`` fields: building one raises a
    ValueError naming the first setting, other than None, that fails its
    rule."""

    def __post_init__(self):
        for f in settings(type(self)):
            if (value := getattr(self, f.name)) is not None:
                check_setting(f.metadata["rule"], value, f.name)


@dataclass(frozen=True)
class Defaults(Settings):
    """Engine-wide scoring settings; per-check and per-task values in the
    network win where they exist."""

    collision_penalty: float | None = setting(
        None, "in (0, 1]", "collision penalty for every check, in place of its penalty=")
    orientation_tol: float = setting(math.pi / 2, "> 0", "orientation tolerance in radians")
    position_tol: float = setting(0.5, "> 0", "position tolerance in meters")
    text_tol: float = setting(0.01, "> 0", "numeric text tolerance")
    pass_threshold: float = setting(0.95, "in [0, 1]", "real-time pass flag threshold")
    timeout: float = setting(1800.0, "> 0", "session timeout in seconds")
    action_share: float = setting(0.5, "in [0, 1]", "trajectory share of a both-mode grade")


@dataclass(frozen=True)
class UserScope:
    """Who a task assesses: one user, a whole group, or one user inside a group."""

    category: str
    user_ids: tuple[str, ...]

    def key(self) -> str:
        """Stable report-scope key for this assessment target."""
        if self.category == "group":
            return "group:" + "+".join(self.user_ids)
        return self.user_ids[0]


@dataclass(frozen=True)
class CheckSpec(Settings):
    """One task-level object-manipulation check.

    ``tol`` is interpreted per kind (orientation: max angle in radians,
    position: max distance in meters, text-input: numeric tolerance) and
    falls back to engine defaults when None.
    """

    kind: str
    subject: str
    reference_object: str | None = None
    penalty: float = setting(0.01, "in (0, 1]", "score lost per collision")
    tol: float | None = setting(None, "> 0", "tolerance of the check's kind")
    check_weight: float = setting(1.0, ">= 0", "weight among the task's checks")


@dataclass(frozen=True)
class TrajectoryParams(Settings):
    """Action-level matching configuration for one task."""

    joint_ids: tuple[str, ...]
    match_radius: float = setting(0.10, "> 0", "key pose matching radius in meters")
    skip_time: float = setting(5.0, ">= 0", "seconds before an unmatched key pose is skipped")
    anomaly_wait: float = setting(10.0, ">= 0", "seconds of continuous anomaly before abort")
    key_rate: float = setting(2.0, "> 0", "key poses per second sampled from the reference")
    anomaly_penalty: float = setting(0.05, ">= 0", "score deduction per anomaly episode")


@dataclass(frozen=True)
class AssessmentSpec:
    mode: str
    checks: tuple[CheckSpec, ...] = ()
    trajectory: TrajectoryParams | None = None

    @property
    def has_task_level(self) -> bool:
        return self.mode in ("task-level", "both")

    @property
    def has_action_level(self) -> bool:
        return self.mode in ("action-level", "both")


@dataclass(frozen=True)
class TaskNode(Settings):
    id: str
    kind: str  # abstract | primitive
    name: str
    desc: str = ""
    children: tuple[str, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    users: UserScope | None = None
    weight: float | None = setting(None, ">= 0", "task weight in its scope")
    predecessors: tuple[str, ...] = ()
    objects: tuple[str, ...] = ()
    assessment: AssessmentSpec | None = None
    feedback: str | None = None
    time_constraint: float | None = setting(None, "> 0", "completion time limit in seconds")

    @property
    def is_primitive(self) -> bool:
        return self.kind == "primitive"


@dataclass(frozen=True)
class TaskNetwork:
    nodes: dict[str, TaskNode]

    def primitive_ids(self) -> tuple[str, ...]:
        return tuple(i for i, n in self.nodes.items() if n.is_primitive)


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # error | warning
    node_id: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]


# ---------------------------------------------------------------------------
# parsing

_SCOPE_KEYWORDS = {"single": "single-user", "group": "group", "individual": "individual-in-group"}
_FEEDBACK_KEYWORDS = {"realtime": "real-time", "final": "final-score"}
# directives that may appear at most once per block
_SINGLE = ("kind", "name", "desc", "user", "weight", "input", "output",
           "objects", "assess", "feedback", "time")
_AUGMENTED = ("pred", "user", "weight", "input", "output", "objects",
              "assess", "check", "feedback", "time")


def _parse_number(token: str, what: str, line: int, cls, name: str) -> float:
    """The file's number ``what``, checked by the rule cls declares for its
    setting ``name``."""
    try:
        value = float(token)
    except ValueError:
        raise NetworkError(f"{what} is not a number: {token!r}", line) from None
    try:
        return check_setting(cls.__dataclass_fields__[name].metadata["rule"],
                             value, what)
    except ValueError as e:
        raise NetworkError(str(e), line) from None


def _parse_check(tokens: list[str], line: int) -> CheckSpec:
    if not tokens:
        raise NetworkError("check needs a kind", line)
    kind = tokens[0]
    if kind not in CHECK_KINDS:
        raise NetworkError(f"unknown check kind {kind!r}", line)
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise NetworkError(f"check option must be key=value: {tok!r}", line)
        key, value = tok.split("=", 1)
        if key in fields:
            raise NetworkError(f"duplicate check option {key!r}", line)
        fields[key] = value
    allowed = {"subject", "ref", "cweight"}
    if kind == "collision":
        allowed |= {"penalty", "ref"}
    if kind in ("orientation", "position", "text-input"):
        allowed.add("tol")
    unknown = set(fields) - allowed
    if unknown:
        raise NetworkError(f"check option not allowed for {kind}: {sorted(unknown)[0]!r}", line)
    if "subject" not in fields:
        raise NetworkError("check requires subject=<id>", line)
    if kind == "attachment" and "ref" not in fields:
        raise NetworkError("attachment check requires ref=<id>", line)
    numbers = {name: _parse_number(fields[key], key, line, CheckSpec, name)
               for key, name in (("penalty", "penalty"), ("tol", "tol"),
                                 ("cweight", "check_weight"))
               if key in fields}
    return CheckSpec(kind=kind, subject=fields["subject"],
                     reference_object=fields.get("ref"), **numbers)


class _Block:
    def __init__(self, task_id: str, line: int):
        self.id = task_id
        self.line = line
        self.fields: dict[str, object] = {}
        self.children: list[str] = []
        self.preds: list[str] = []
        self.checks: list[CheckSpec] = []


def _finish_block(b: _Block) -> TaskNode:
    kind = b.fields.get("kind")
    if kind is None:
        raise NetworkError(f"task {b.id!r} does not declare kind", b.line)
    name = str(b.fields.get("name", b.id))
    desc = str(b.fields.get("desc", ""))
    if kind == "abstract":
        for f in _AUGMENTED:
            present = (f in b.fields or (f == "pred" and b.preds)
                       or (f == "check" and b.checks))
            if present:
                raise NetworkError(
                    f"abstract task {b.id!r} must not declare {f!r}", b.line)
        return TaskNode(id=b.id, kind="abstract", name=name, desc=desc,
                        children=tuple(b.children))

    if b.children:
        raise NetworkError(f"primitive task {b.id!r} must not declare children", b.line)
    missing = [f for f in ("user", "weight", "objects", "assess", "feedback")
               if f not in b.fields]
    if missing:
        raise NetworkError(
            f"primitive task {b.id!r} is missing required parameter {missing[0]!r}", b.line)

    mode = str(b.fields["assess"])
    trajectory = None
    if mode in ("task-level", "both") and not b.checks:
        raise NetworkError(
            f"task {b.id!r} assesses {mode} but declares no check", b.line)
    if mode == "action-level" and b.checks:
        raise NetworkError(
            f"task {b.id!r} assesses action-level but declares checks", b.line)
    if mode in ("action-level", "both"):
        joints = tuple(o for o in b.fields["objects"] if is_joint_id(o))  # type: ignore[union-attr]
        if not joints:
            raise NetworkError(
                f"task {b.id!r} assesses {mode} but lists no joint ids in objects", b.line)
        trajectory = TrajectoryParams(joint_ids=joints)

    return TaskNode(
        id=b.id, kind="primitive", name=name, desc=desc,
        inputs=tuple(b.fields.get("input", ())),     # type: ignore[arg-type]
        outputs=tuple(b.fields.get("output", ())),   # type: ignore[arg-type]
        users=b.fields["user"],                      # type: ignore[arg-type]
        weight=b.fields["weight"],                   # type: ignore[arg-type]
        predecessors=tuple(b.preds),
        objects=tuple(b.fields["objects"]),          # type: ignore[arg-type]
        assessment=AssessmentSpec(mode=mode, checks=tuple(b.checks),
                                  trajectory=trajectory),
        feedback=b.fields["feedback"],               # type: ignore[arg-type]
        time_constraint=b.fields.get("time"),        # type: ignore[arg-type]
    )


def parse_network(text: str) -> TaskNetwork:
    """Parse a definition file into a TaskNetwork.

    Raises NetworkError with the offending line number for syntax errors,
    duplicate ids, unknown directives, and missing required parameters.
    Cross-node consistency (dangling ids, cycles) is left to
    validate_network.
    """
    nodes: dict[str, TaskNode] = {}
    block: _Block | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]

        if directive == "task":
            if block is not None:
                raise NetworkError("task block not closed before new task", lineno)
            if len(args) != 1:
                raise NetworkError("task needs exactly one id", lineno)
            if args[0] in nodes:
                raise NetworkError(f"duplicate task id {args[0]!r}", lineno)
            block = _Block(args[0], lineno)
            continue
        if block is None:
            raise NetworkError(f"directive {directive!r} outside a task block", lineno)

        if directive == "end":
            if args:
                raise NetworkError("end takes no arguments", lineno)
            node = _finish_block(block)
            nodes[node.id] = node
            block = None
            continue

        if directive in _SINGLE and directive in block.fields:
            raise NetworkError(f"duplicate {directive!r} directive", lineno)

        if directive == "kind":
            if len(args) != 1 or args[0] not in ("abstract", "primitive"):
                raise NetworkError("kind must be abstract or primitive", lineno)
            block.fields["kind"] = args[0]
        elif directive in ("name", "desc"):
            block.fields[directive] = line.split(None, 1)[1] if args else ""
        elif directive == "child":
            if len(args) != 1:
                raise NetworkError("child takes exactly one id", lineno)
            block.children.append(args[0])
        elif directive == "pred":
            if len(args) != 1:
                raise NetworkError("pred takes exactly one id", lineno)
            block.preds.append(args[0])
        elif directive == "user":
            if not args or args[0] not in _SCOPE_KEYWORDS:
                raise NetworkError("user needs single|group|individual and ids", lineno)
            category = _SCOPE_KEYWORDS[args[0]]
            ids = tuple(args[1:])
            scope = UserScope(category=category, user_ids=ids)
            _check_scope(scope, lineno)
            block.fields["user"] = scope
        elif directive == "weight":
            if len(args) != 1:
                raise NetworkError("weight takes one number", lineno)
            block.fields["weight"] = _parse_number(args[0], "weight", lineno,
                                                   TaskNode, "weight")
        elif directive in ("input", "output", "objects"):
            if not args:
                raise NetworkError(f"{directive} needs at least one id", lineno)
            block.fields[directive] = tuple(args)
        elif directive == "assess":
            if len(args) != 1 or args[0] not in ASSESS_MODES:
                raise NetworkError("assess must be task-level, action-level or both", lineno)
            block.fields["assess"] = args[0]
        elif directive == "check":
            block.checks.append(_parse_check(args, lineno))
        elif directive == "feedback":
            if len(args) != 1 or args[0] not in _FEEDBACK_KEYWORDS:
                raise NetworkError("feedback must be realtime or final", lineno)
            block.fields["feedback"] = _FEEDBACK_KEYWORDS[args[0]]
        elif directive == "time":
            if len(args) != 1:
                raise NetworkError("time takes one number of seconds", lineno)
            block.fields["time"] = _parse_number(args[0], "time", lineno,
                                                 TaskNode, "time_constraint")
        else:
            raise NetworkError(f"unknown directive {directive!r}", lineno)

    if block is not None:
        raise NetworkError(f"task {block.id!r} not closed with end", block.line)
    return TaskNetwork(nodes=nodes)


def _check_scope(scope: UserScope, line: int | None = None) -> None:
    if scope.category in ("single-user", "individual-in-group"):
        if len(scope.user_ids) != 1:
            raise NetworkError(
                f"{scope.category} scope needs exactly one user id", line)
    elif scope.category == "group":
        if len(scope.user_ids) < 2:
            raise NetworkError("group scope needs at least two user ids", line)
    else:
        raise NetworkError(f"unknown scope category {scope.category!r}", line)


# ---------------------------------------------------------------------------
# validation

def validate_network(net: TaskNetwork) -> ValidationReport:
    """Structural validation: cycles, dangling references, childless
    abstract nodes as errors; zero-weight scopes and unknown check subjects
    as warnings."""
    issues: list[ValidationIssue] = []

    def err(node_id: str, msg: str) -> None:
        issues.append(ValidationIssue("error", node_id, msg))

    def warn(node_id: str, msg: str) -> None:
        issues.append(ValidationIssue("warning", node_id, msg))

    for node in net.nodes.values():
        for c in node.children:
            if c not in net.nodes:
                err(node.id, f"dangling child {c!r}")
        for p in node.predecessors:
            if p not in net.nodes:
                err(node.id, f"dangling predecessor {p!r}")
        if node.kind == "abstract" and not node.children:
            err(node.id, "abstract node has no children")
        if node.is_primitive and node.children:
            err(node.id, "primitive node has children")
        if node.is_primitive:
            if node.users is None or node.weight is None \
                    or node.assessment is None or node.feedback is None:
                err(node.id, "primitive node missing augmented parameters")
                continue
            try:
                _check_scope(node.users)
            except NetworkError as e:
                err(node.id, str(e))
            spec = node.assessment
            if spec.has_task_level and not spec.checks:
                err(node.id, "task-level assessment without checks")
            if spec.has_action_level and spec.trajectory is None:
                err(node.id, "action-level assessment without trajectory parameters")
            declared = set(node.objects)
            for check in spec.checks:
                if check.subject not in declared:
                    warn(node.id, f"check subject {check.subject!r} not listed in objects")
            for ref in node.inputs + node.outputs:
                if not any(ref in n.objects for n in net.nodes.values()):
                    warn(node.id, f"input/output id {ref!r} not produced by any task")

    if _has_cycle(net, lambda n: n.children):
        err("", "cycle in child hierarchy")
    if _has_cycle(net, lambda n: n.predecessors):
        err("", "cycle in predecessor graph")

    totals: dict[str, float] = {}
    for node in net.nodes.values():
        if node.is_primitive and node.users is not None and node.weight is not None:
            key = node.users.key()
            totals[key] = totals.get(key, 0.0) + node.weight
    for key, total in totals.items():
        if total == 0.0:
            warn("", f"all task weights are 0 for assessed scope {key!r}")

    return ValidationReport(issues=tuple(issues))


def _has_cycle(net: TaskNetwork, edges) -> bool:
    """Whether the edges between existing nodes form a cycle; a self-loop does."""
    graph = {i: [j for j in edges(n) if j in net.nodes]
             for i, n in net.nodes.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return True
    return False


# ---------------------------------------------------------------------------
# readiness

def ready_tasks(net: TaskNetwork, completed: set[str]) -> set[str]:
    """Primitive tasks whose predecessors are all complete and which are
    not themselves complete.

    A predecessor naming an abstract node counts as complete once every
    primitive its children reach is complete, and it reaches one; a
    cycle in the child hierarchy does not change the answer.
    """
    for task_id in completed:
        node = net.nodes.get(task_id)
        if node is None:
            raise ValueError(f"unknown task id in completed set: {task_id!r}")
        if not node.is_primitive:
            raise ValueError(f"completed set contains non-primitive task {task_id!r}")

    def satisfied(pred_id: str) -> bool:
        """Whether pred_id reaches a primitive, and only complete ones."""
        seen, stack, reached = {pred_id}, [pred_id], set()
        while stack:
            node = net.nodes.get(stack.pop())
            if node is None:
                continue
            if node.is_primitive:
                reached.add(node.id)
                continue
            for c in node.children:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return bool(reached) and reached <= completed

    ready = set()
    for node in net.nodes.values():
        if not node.is_primitive or node.id in completed:
            continue
        if all(satisfied(p) for p in node.predecessors):
            ready.add(node.id)
    return ready


def with_trajectory_defaults(net: TaskNetwork, **overrides) -> TaskNetwork:
    """Copy of the network with TrajectoryParams fields overridden on every
    action-level node (used by the CLI to apply global flag overrides).
    The overrides are checked even when no node has a trajectory."""
    if not overrides:
        return net
    TrajectoryParams(**{"joint_ids": (), **overrides})
    nodes = {}
    for node_id, node in net.nodes.items():
        spec = node.assessment
        if spec is not None and spec.trajectory is not None:
            new_traj = replace(spec.trajectory, **overrides)
            node = replace(node, assessment=replace(spec, trajectory=new_traj))
        nodes[node_id] = node
    return TaskNetwork(nodes=nodes)
