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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

CHECK_KINDS = ("orientation", "position", "attachment", "collision", "text-input")
ASSESS_MODES = ("task-level", "action-level", "both")
SCOPE_CATEGORIES = ("single-user", "group", "individual-in-group")
FEEDBACK_MODES = ("real-time", "final-score")

DEFAULT_COLLISION_PENALTY = 0.01
DEFAULT_CHECK_WEIGHT = 1.0

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
class CheckSpec:
    """One task-level object-manipulation check.

    ``tol`` is interpreted per kind (orientation: max angle in radians,
    position: max distance in meters, text-input: numeric tolerance) and
    falls back to engine defaults when None.
    """

    kind: str
    subject: str
    reference_object: str | None = None
    penalty: float = DEFAULT_COLLISION_PENALTY
    tol: float | None = None
    check_weight: float = DEFAULT_CHECK_WEIGHT


@dataclass(frozen=True)
class TrajectoryParams:
    """Action-level matching configuration for one task."""

    joint_ids: tuple[str, ...]
    match_radius: float = 0.10
    skip_time: float = 5.0
    anomaly_wait: float = 10.0
    anomaly_penalty: float = 0.05
    key_rate: float = 2.0


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
class TaskNode:
    id: str
    kind: str  # abstract | primitive
    name: str
    desc: str = ""
    children: tuple[str, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    users: UserScope | None = None
    weight: float | None = None
    predecessors: tuple[str, ...] = ()
    objects: tuple[str, ...] = ()
    assessment: AssessmentSpec | None = None
    feedback: str | None = None
    time_constraint: float | None = None

    @property
    def is_primitive(self) -> bool:
        return self.kind == "primitive"


@dataclass(frozen=True)
class TaskNetwork:
    nodes: dict[str, TaskNode]
    root_ids: tuple[str, ...]

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


def _parse_float(token: str, what: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise NetworkError(f"{what} is not a number: {token!r}", line) from None


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
    penalty = DEFAULT_COLLISION_PENALTY
    if "penalty" in fields:
        penalty = _parse_float(fields["penalty"], "penalty", line)
        if not 0.0 < penalty <= 1.0:
            raise NetworkError("penalty must be in (0, 1]", line)
    tol = None
    if "tol" in fields:
        tol = _parse_float(fields["tol"], "tol", line)
        if tol <= 0:
            raise NetworkError("tol must be > 0", line)
    cweight = DEFAULT_CHECK_WEIGHT
    if "cweight" in fields:
        cweight = _parse_float(fields["cweight"], "cweight", line)
        if cweight < 0:
            raise NetworkError("cweight must be >= 0", line)
    return CheckSpec(kind=kind, subject=fields["subject"],
                     reference_object=fields.get("ref"),
                     penalty=penalty, tol=tol, check_weight=cweight)


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
    all_children: list[str] = []

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
            all_children.extend(node.children)
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
            w = _parse_float(args[0], "weight", lineno)
            if w < 0:
                raise NetworkError("weight must be >= 0", lineno)
            block.fields["weight"] = w
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
            t = _parse_float(args[0], "time", lineno)
            if t <= 0:
                raise NetworkError("time must be > 0", lineno)
            block.fields["time"] = t
        else:
            raise NetworkError(f"unknown directive {directive!r}", lineno)

    if block is not None:
        raise NetworkError(f"task {block.id!r} not closed with end", block.line)

    child_set = set(all_children)
    roots = tuple(i for i in nodes if i not in child_set)
    return TaskNetwork(nodes=nodes, root_ids=roots)


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
            if node.weight < 0:
                err(node.id, "negative weight")
            if node.time_constraint is not None and node.time_constraint <= 0:
                err(node.id, "time constraint must be > 0")
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
                if not _object_declared(net, ref):
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


def _object_declared(net: TaskNetwork, object_id: str) -> bool:
    return any(object_id in n.objects for n in net.nodes.values())


def _has_cycle(net: TaskNetwork, edges) -> bool:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {i: WHITE for i in net.nodes}

    for start in net.nodes:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(edges(net.nodes[start])))]
        color[start] = GREY
        while stack:
            node_id, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in net.nodes:
                    continue
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(edges(net.nodes[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node_id] = BLACK
                stack.pop()
    return False


# ---------------------------------------------------------------------------
# readiness

def ready_tasks(net: TaskNetwork, completed: set[str]) -> set[str]:
    """Primitive tasks whose predecessors are all complete and which are
    not themselves complete.

    A predecessor naming an abstract node counts as complete once every
    primitive descendant of that node is complete.
    """
    for task_id in completed:
        node = net.nodes.get(task_id)
        if node is None:
            raise ValueError(f"unknown task id in completed set: {task_id!r}")
        if not node.is_primitive:
            raise ValueError(f"completed set contains non-primitive task {task_id!r}")

    desc_cache: dict[str, frozenset[str]] = {}

    def primitive_descendants(node_id: str, trail: frozenset[str] = frozenset()) -> frozenset[str]:
        if node_id in desc_cache:
            return desc_cache[node_id]
        if node_id in trail:  # malformed child cycle; treat as no descendants
            return frozenset()
        node = net.nodes[node_id]
        if node.is_primitive:
            out = frozenset((node_id,))
        else:
            out = frozenset().union(*(
                primitive_descendants(c, trail | {node_id})
                for c in node.children if c in net.nodes)) if node.children else frozenset()
        desc_cache[node_id] = out
        return out

    def satisfied(pred_id: str) -> bool:
        node = net.nodes.get(pred_id)
        if node is None:
            return False
        if node.is_primitive:
            return pred_id in completed
        members = primitive_descendants(pred_id)
        return bool(members) and members <= completed

    ready = set()
    for node in net.nodes.values():
        if not node.is_primitive or node.id in completed:
            continue
        if all(satisfied(p) for p in node.predecessors):
            ready.add(node.id)
    return ready


# ---------------------------------------------------------------------------
# canonical serialization

def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_network(net: TaskNetwork) -> str:
    """Canonical definition text; parse_network(serialize_network(n)) == n."""
    out: list[str] = []
    for node in net.nodes.values():
        out.append(f"task {node.id}")
        out.append(f"  kind {node.kind}")
        if node.name != node.id:
            out.append(f"  name {node.name}")
        if node.desc:
            out.append(f"  desc {node.desc}")
        for c in node.children:
            out.append(f"  child {c}")
        for p in node.predecessors:
            out.append(f"  pred {p}")
        if node.users is not None:
            keyword = {v: k for k, v in _SCOPE_KEYWORDS.items()}[node.users.category]
            out.append(f"  user {keyword} {' '.join(node.users.user_ids)}")
        if node.weight is not None:
            out.append(f"  weight {_fmt(node.weight)}")
        if node.inputs:
            out.append(f"  input {' '.join(node.inputs)}")
        if node.outputs:
            out.append(f"  output {' '.join(node.outputs)}")
        if node.objects:
            out.append(f"  objects {' '.join(node.objects)}")
        if node.assessment is not None:
            out.append(f"  assess {node.assessment.mode}")
            for ch in node.assessment.checks:
                parts = [f"check {ch.kind}", f"subject={ch.subject}"]
                if ch.reference_object is not None:
                    parts.append(f"ref={ch.reference_object}")
                if ch.kind == "collision" and ch.penalty != DEFAULT_COLLISION_PENALTY:
                    parts.append(f"penalty={_fmt(ch.penalty)}")
                if ch.tol is not None:
                    parts.append(f"tol={_fmt(ch.tol)}")
                if ch.check_weight != DEFAULT_CHECK_WEIGHT:
                    parts.append(f"cweight={_fmt(ch.check_weight)}")
                out.append("  " + " ".join(parts))
        if node.feedback is not None:
            keyword = {v: k for k, v in _FEEDBACK_KEYWORDS.items()}[node.feedback]
            out.append(f"  feedback {keyword}")
        if node.time_constraint is not None:
            out.append(f"  time {_fmt(node.time_constraint)}")
        out.append("end")
        out.append("")
    return "\n".join(out)


def with_trajectory_defaults(net: TaskNetwork, **overrides) -> TaskNetwork:
    """Copy of the network with TrajectoryParams fields overridden on every
    action-level node (used by the CLI to apply global flag overrides)."""
    if not overrides:
        return net
    nodes = {}
    for node_id, node in net.nodes.items():
        spec = node.assessment
        if spec is not None and spec.trajectory is not None:
            new_traj = replace(spec.trajectory, **overrides)
            node = replace(node, assessment=replace(spec, trajectory=new_traj))
        nodes[node_id] = node
    return TaskNetwork(nodes=nodes, root_ids=net.root_ids)
