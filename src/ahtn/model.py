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

Each rule about one node is kept on the type that holds it (``UserScope``,
``CheckSpec``, ``AssessmentSpec``, ``TaskNode``) and raises a ValueError
whenever one is built, ``dataclasses.replace`` included. The parser only
turns text into these types, adding the line of the directive, or of the
``task`` line for a whole task; ``validate_network`` keeps the rules that
span nodes.

Every number a user sets goes through ``check_setting``: it must be finite
and pass one of the four rules of ``RULES``. Each is declared once, as a
``setting`` field with its default, rule and a one-line description, on
the type that holds it: ``TaskNode`` and ``CheckSpec`` for the file's
numbers, ``Defaults`` and ``TrajectoryParams`` for the engine-wide ones.
The parser checks a file's number by the same rule as it reads it, with
its line number. The CLI's flags and the report's config lines come from
the engine-wide ones.
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


def check_known(value, allowed: tuple, what: str) -> None:
    """A ValueError naming what when value is not one of allowed."""
    if value not in allowed:
        raise ValueError(f"unknown {what} {value!r} ({'|'.join(allowed)})")


@dataclass(frozen=True)
class UserScope:
    """Who a task assesses: one user, a whole group (at least two users),
    or one user inside a group."""

    category: str
    user_ids: tuple[str, ...]

    def __post_init__(self):
        check_known(self.category, SCOPE_CATEGORIES, "scope category")
        if self.category == "group" and len(self.user_ids) < 2:
            raise ValueError("group scope needs at least two user ids")
        if self.category != "group" and len(self.user_ids) != 1:
            raise ValueError(f"{self.category} scope needs exactly one user id")

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
    falls back to engine defaults when None; other kinds take none. An
    attachment check needs the ``reference_object`` held.
    """

    kind: str
    subject: str
    reference_object: str | None = None
    penalty: float = setting(0.01, "in (0, 1]", "score lost per collision")
    tol: float | None = setting(None, "> 0", "tolerance of the check's kind")
    check_weight: float = setting(1.0, ">= 0", "weight among the task's checks")

    def __post_init__(self):
        super().__post_init__()
        check_known(self.kind, CHECK_KINDS, "check kind")
        if self.kind == "attachment" and self.reference_object is None:
            raise ValueError("attachment check requires a reference object")
        if self.tol is not None and self.kind not in ("orientation", "position", "text-input"):
            raise ValueError(f"{self.kind} check takes no tol")


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
    """How a primitive task is assessed. It has checks exactly when the
    mode is task-level or both, and a trajectory tracking at least one
    joint exactly when the mode is action-level or both."""

    mode: str
    checks: tuple[CheckSpec, ...] = ()
    trajectory: TrajectoryParams | None = None

    def __post_init__(self):
        check_known(self.mode, ASSESS_MODES, "assessment mode")
        if self.has_task_level != bool(self.checks):
            raise ValueError(f"{self.mode} mode "
                             f"{'needs' if self.has_task_level else 'takes no'} checks")
        if self.has_action_level != (self.trajectory is not None):
            raise ValueError(f"{self.mode} mode "
                             f"{'needs a' if self.has_action_level else 'takes no'} trajectory")
        if self.trajectory is not None and not self.trajectory.joint_ids:
            raise ValueError("trajectory tracks no joint")

    @property
    def has_task_level(self) -> bool:
        return self.mode in ("task-level", "both")

    @property
    def has_action_level(self) -> bool:
        return self.mode in ("action-level", "both")


_PRIMITIVE_ONLY = ("inputs", "outputs", "users", "weight", "predecessors",
                   "objects", "assessment", "feedback", "time_constraint")
_REQUIRED = ("users", "weight", "objects", "assessment", "feedback")


@dataclass(frozen=True)
class TaskNode(Settings):
    """A network node. An abstract node has children and nothing of
    ``_PRIMITIVE_ONLY``; a primitive one has no children and sets every
    field of ``_REQUIRED``."""

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

    def __post_init__(self):
        super().__post_init__()
        check_known(self.kind, ("abstract", "primitive"), "task kind")
        given = [n for n in _PRIMITIVE_ONLY if getattr(self, n) not in (None, ())]
        if not self.is_primitive:
            if not self.children:
                raise ValueError("abstract task has no children")
            if given:
                raise ValueError(f"abstract task must not set {given[0]}")
            return
        if self.children:
            raise ValueError("primitive task must not have children")
        if missing := [n for n in _REQUIRED if n not in given]:
            raise ValueError(f"primitive task is missing {missing[0]}")
        check_known(self.feedback, FEEDBACK_MODES, "feedback mode")

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
# directive -> the TaskNode field it sets (assess: the mode), at most once a block
_FIELDS = {"kind": "kind", "name": "name", "desc": "desc", "user": "users",
           "weight": "weight", "input": "inputs", "output": "outputs",
           "objects": "objects", "assess": "assess", "feedback": "feedback",
           "time": "time_constraint"}


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
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise NetworkError(f"check option must be key=value: {tok!r}", line)
        key, value = tok.split("=", 1)
        if key in fields:
            raise NetworkError(f"duplicate check option {key!r}", line)
        fields[key] = value
    allowed = {"subject", "ref", "cweight", "tol"}
    if kind == "collision":
        allowed |= {"penalty", "ref"}
    unknown = set(fields) - allowed
    if unknown:
        raise NetworkError(f"check option not allowed for {kind}: {sorted(unknown)[0]!r}", line)
    if "subject" not in fields:
        raise NetworkError("check requires subject=<id>", line)
    numbers = {name: _parse_number(fields[key], key, line, CheckSpec, name)
               for key, name in (("penalty", "penalty"), ("tol", "tol"),
                                 ("cweight", "check_weight"))
               if key in fields}
    try:
        return CheckSpec(kind=kind, subject=fields["subject"],
                         reference_object=fields.get("ref"), **numbers)
    except ValueError as e:
        raise NetworkError(str(e), line) from None


class _Block:
    def __init__(self, task_id: str, line: int):
        self.id = task_id
        self.line = line
        self.fields: dict[str, object] = {}
        self.children: list[str] = []
        self.preds: list[str] = []
        self.checks: list[CheckSpec] = []


def _finish_block(b: _Block) -> TaskNode:
    """The block's TaskNode; a rule it breaks is a NetworkError at the
    block's first line."""
    given = {_FIELDS[d]: value for d, value in b.fields.items()}
    mode = given.pop("assess", None)
    try:
        if mode is not None or b.checks:
            joints = tuple(o for o in given.get("objects", ()) if is_joint_id(o))
            given["assessment"] = AssessmentSpec(
                mode, tuple(b.checks),
                TrajectoryParams(joints) if mode in ("action-level", "both") else None)
        return TaskNode(id=b.id, kind=given.pop("kind", None), name=given.pop("name", b.id),
                        children=tuple(b.children), predecessors=tuple(b.preds), **given)
    except ValueError as e:
        raise NetworkError(f"task {b.id!r}: {e}", b.line) from None


def parse_network(text: str) -> TaskNetwork:
    """Parse a definition file into a TaskNetwork.

    Raises NetworkError with the offending line number for syntax errors,
    duplicate ids, unknown directives and any rule a built type breaks.
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

        if directive in _FIELDS and directive in block.fields:
            raise NetworkError(f"duplicate {directive!r} directive", lineno)

        if directive == "kind":
            if len(args) != 1 or args[0] not in ("abstract", "primitive"):
                raise NetworkError("kind must be abstract or primitive", lineno)
            block.fields["kind"] = args[0]
        elif directive in ("name", "desc"):
            block.fields[directive] = line.split(None, 1)[1] if args else ""
        elif directive in ("child", "pred"):
            if len(args) != 1:
                raise NetworkError(f"{directive} takes exactly one id", lineno)
            (block.children if directive == "child" else block.preds).append(args[0])
        elif directive == "user":
            if not args or args[0] not in _SCOPE_KEYWORDS:
                raise NetworkError("user needs single|group|individual and ids", lineno)
            try:
                block.fields["user"] = UserScope(_SCOPE_KEYWORDS[args[0]], tuple(args[1:]))
            except ValueError as e:
                raise NetworkError(str(e), lineno) from None
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


# ---------------------------------------------------------------------------
# validation

def validate_network(net: TaskNetwork) -> ValidationReport:
    """The rules that span nodes: dangling ids and cycles are errors; a
    zero-weight scope, a check subject its task does not list and an
    input/output id no task lists are warnings."""
    issues: list[ValidationIssue] = []

    def err(node_id: str, msg: str) -> None:
        issues.append(ValidationIssue("error", node_id, msg))

    def warn(node_id: str, msg: str) -> None:
        issues.append(ValidationIssue("warning", node_id, msg))

    totals: dict[str, float] = {}
    for node in net.nodes.values():
        for c in node.children:
            if c not in net.nodes:
                err(node.id, f"dangling child {c!r}")
        for p in node.predecessors:
            if p not in net.nodes:
                err(node.id, f"dangling predecessor {p!r}")
        if node.is_primitive:
            for check in node.assessment.checks:
                if check.subject not in node.objects:
                    warn(node.id, f"check subject {check.subject!r} not listed in objects")
            for ref in node.inputs + node.outputs:
                if not any(ref in n.objects for n in net.nodes.values()):
                    warn(node.id, f"input/output id {ref!r} not produced by any task")
            key = node.users.key()
            totals[key] = totals.get(key, 0.0) + node.weight

    if _has_cycle(net, lambda n: n.children):
        err("", "cycle in child hierarchy")
    if _has_cycle(net, lambda n: n.predecessors):
        err("", "cycle in predecessor graph")
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
