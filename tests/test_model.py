"""Task network parsing, validation, readiness, and round-trips."""

import itertools
import math
import random
import re
from dataclasses import replace

import pytest

from ahtn.cli import main
from ahtn.model import (CheckSpec, Defaults, NetworkError, TrajectoryParams,
                        UserScope, parse_network, ready_tasks, validate_network,
                        with_trajectory_defaults)
from ahtn.telemetry import TaskMark

MINIMAL = """\
task T1
  kind primitive
  user single u1
  weight 1.0
  objects widget
  assess task-level
  check position subject=widget
  feedback final
end

task T2
  kind primitive
  pred T1
  user single u1
  weight 1.0
  objects widget
  assess task-level
  check position subject=widget
  feedback final
end
"""


def test_parse_minimal_chain():
    net = parse_network(MINIMAL)
    assert set(net.nodes) == {"T1", "T2"}
    assert net.nodes["T2"].predecessors == ("T1",)
    assert net.nodes["T1"].predecessors == ()


def test_bundled_hydrometer_shape(hydro_net):
    assert len(hydro_net.nodes) == 5
    root = hydro_net.nodes["hydrometer"]
    assert root.kind == "abstract"
    assert root.children == ("T1", "T2", "T3", "T4")
    assert hydro_net.nodes["T2"].predecessors == ("T1",)
    assert hydro_net.nodes["T2"].time_constraint == 60.0
    assert hydro_net.nodes["T1"].assessment.mode == "both"
    assert hydro_net.nodes["T1"].assessment.trajectory.joint_ids == ("head", "hand-right")
    weights = [hydro_net.nodes[t].weight for t in ("T1", "T2", "T3", "T4")]
    assert weights == [0.3, 0.2, 0.3, 0.2]


def test_missing_weight_names_node_and_parameter():
    text = MINIMAL.replace("  weight 1.0\n", "", 1)
    with pytest.raises(NetworkError) as e:
        parse_network(text)
    assert "T1" in str(e.value) and "weight" in str(e.value)


@pytest.mark.parametrize("line,fragment", [
    ("  kind sideways", "kind"),
    ("  weight banana", "not a number"),
    ("  assess sometimes", "assess"),
    ("  feedback never", "feedback"),
    ("  check position", "subject"),
    ("  check teleport subject=x", "unknown check kind"),
    ("  check position subject=x penalty=0.5", "not allowed"),
    ("  check attachment subject=x", "ref"),
    ("  time -3", "time"),
    ("  flavor vanilla", "unknown directive"),
])
def test_bad_directives_report_line_numbers(line, fragment):
    text = "task T\n  kind primitive\n" + line + "\nend\n"
    with pytest.raises(NetworkError) as e:
        parse_network(text)
    assert fragment in str(e.value)
    assert e.value.line == 3


def test_duplicate_task_id_rejected():
    text = MINIMAL + "\ntask T1\n  kind abstract\n  child T2\nend\n"
    with pytest.raises(NetworkError, match="duplicate task id"):
        parse_network(text)


def test_duplicate_single_directive_rejected():
    text = MINIMAL.replace("  weight 1.0\n", "  weight 1.0\n  weight 0.5\n", 1)
    with pytest.raises(NetworkError, match="duplicate 'weight'"):
        parse_network(text)


def test_abstract_node_rejects_augmented_parameters():
    text = "task A\n  kind abstract\n  child B\n  weight 1.0\nend\n"
    with pytest.raises(NetworkError, match="abstract"):
        parse_network(text)


def test_unclosed_block_rejected():
    with pytest.raises(NetworkError, match="not closed"):
        parse_network("task T\n  kind primitive\n")


def test_action_mode_requires_a_joint():
    text = MINIMAL.replace("  assess task-level\n  check position subject=widget\n",
                           "  assess action-level\n", 1)
    with pytest.raises(NetworkError, match="joint"):
        parse_network(text)


# -- validation --------------------------------------------------------------

def test_validate_bundled_networks(hydro_net, collab_net):
    assert validate_network(hydro_net).ok
    report = validate_network(collab_net)
    assert report.ok  # zero-weight instructor scope is only a warning
    assert any("weights are 0" in i.message for i in report.issues)


def test_validate_two_cycle():
    text = MINIMAL.replace("task T1\n  kind primitive\n",
                           "task T1\n  kind primitive\n  pred T2\n", 1)
    report = validate_network(parse_network(text))
    assert not report.ok
    assert any("cycle" in i.message for i in report.errors())
    # a self-loop is a cycle too; a dangling id is no edge
    looped = MINIMAL.replace("  pred T1\n", "  pred T2\n  pred T9\n", 1)
    assert [i.message for i in validate_network(parse_network(looped)).errors()] \
        == ["dangling predecessor 'T9'", "cycle in predecessor graph"]


def test_validate_dangling_predecessor():
    text = MINIMAL.replace("  pred T1\n", "  pred T9\n", 1)
    report = validate_network(parse_network(text))
    assert any("dangling predecessor" in i.message for i in report.errors())


def test_validate_childless_abstract():
    # a rule of one node: the parser raises it, with the block's line
    with pytest.raises(NetworkError,
                       match="^line 1: task 'A': abstract task has no children$"):
        parse_network("task A\n  kind abstract\nend\n")


def test_check_subject_not_in_objects_warns():
    text = MINIMAL.replace("check position subject=widget",
                           "check position subject=gizmo", 1)
    report = validate_network(parse_network(text))
    assert report.ok
    assert any("gizmo" in i.message for i in report.issues)


# -- readiness ---------------------------------------------------------------

def brute_force_ready(net, completed):
    def primitives_under(nid, seen=()):
        node = net.nodes[nid]
        if node.is_primitive:
            return {nid}
        out = set()
        for c in node.children:
            if c in net.nodes and c not in seen:
                out |= primitives_under(c, seen + (nid,))
        return out

    ready = set()
    for node in net.nodes.values():
        if not node.is_primitive or node.id in completed:
            continue
        ok = True
        for p in node.predecessors:
            if p not in net.nodes:
                ok = False
            elif net.nodes[p].is_primitive:
                ok = ok and p in completed
            else:
                under = primitives_under(p)
                ok = ok and bool(under) and under <= completed
        if ok:
            ready.add(node.id)
    return ready


def test_ready_hydrometer_examples(hydro_net):
    assert ready_tasks(hydro_net, set()) == {"T1"}
    assert ready_tasks(hydro_net, {"T1", "T2", "T3", "T4"}) == set()
    assert ready_tasks(hydro_net, {"T1"}) == {"T2"}


def test_ready_collaborative_chain(collab_net):
    assert ready_tasks(collab_net, set()) == {"C1"}
    assert ready_tasks(collab_net, {"C1", "C2"}) == {"C3"}


def test_ready_rejects_bad_completed(hydro_net):
    with pytest.raises(ValueError, match="unknown task id"):
        ready_tasks(hydro_net, {"nope"})
    with pytest.raises(ValueError, match="non-primitive"):
        ready_tasks(hydro_net, {"hydrometer"})


def test_ready_abstract_predecessor():
    text = """\
task root
  kind abstract
  child grp
  child T3
end
task grp
  kind abstract
  child T1
  child T2
end
task T1
  kind primitive
  user single u
  weight 1.0
  objects o
  assess task-level
  check position subject=o
  feedback final
end
task T2
  kind primitive
  user single u
  weight 1.0
  objects o
  assess task-level
  check position subject=o
  feedback final
end
task T3
  kind primitive
  pred grp
  user single u
  weight 1.0
  objects o
  assess task-level
  check position subject=o
  feedback final
end
"""
    net = parse_network(text)
    assert "T3" not in ready_tasks(net, {"T1"})
    assert "T3" in ready_tasks(net, {"T1", "T2"})


def _child_cycle_text(r_first):
    """A and B are each other's child; R waits on A and Q on B."""
    prim = ("  kind primitive\n{}  user single u\n  weight 1.0\n  objects o\n"
            "  assess task-level\n  check position subject=o\n"
            "  feedback final\nend\n")
    blocks = {
        "A": "task A\n  kind abstract\n  child B\n  child P1\nend\n",
        "B": "task B\n  kind abstract\n  child A\n  child P2\nend\n",
        "P1": "task P1\n" + prim.format(""),
        "P2": "task P2\n" + prim.format(""),
        "R": "task R\n" + prim.format("  pred A\n"),
        "Q": "task Q\n" + prim.format("  pred B\n"),
    }
    order = ["A", "B", "P1", "P2"] + (["R", "Q"] if r_first else ["Q", "R"])
    return "".join(blocks[i] for i in order)


def test_ready_does_not_depend_on_declaration_order_under_a_child_cycle():
    # both A and B reach P1 and P2; only P2 is complete, so neither R nor
    # Q is ready, whichever is declared first
    for r_first in (True, False):
        net = parse_network(_child_cycle_text(r_first))
        assert any("cycle in child hierarchy" in i.message
                   for i in validate_network(net).errors())
        assert ready_tasks(net, {"P2"}) == {"P1"}, r_first


def test_ready_matches_brute_force_on_bundled(hydro_net, collab_net):
    for net in (hydro_net, collab_net):
        prims = sorted(net.primitive_ids())
        for r in range(len(prims) + 1):
            for combo in itertools.combinations(prims, r):
                done = set(combo)
                assert ready_tasks(net, done) == brute_force_ready(net, done)


def _random_net_text(rng):
    n = rng.randint(2, 10)
    ids = [f"N{i}" for i in range(n)]
    # one in three networks gets an abstract wrapper over a prefix of tasks
    cut = rng.randint(2, n) if n > 2 and rng.random() < 0.33 else None
    lines = ["task root", "  kind abstract"]
    lines += [f"  child {i}" for i in (ids if cut is None else ids[cut:])]
    if cut is not None:
        lines += ["  child grp"]
    lines += ["end"]
    if cut is not None:
        lines += ["task grp", "  kind abstract"]
        lines += [f"  child {i}" for i in ids[:cut]]
        lines += ["end"]
    for i, tid in enumerate(ids):
        lines += [f"task {tid}", "  kind primitive"]
        for j in range(i):
            if rng.random() < 0.3:
                lines.append(f"  pred {ids[j]}")
        if cut is not None and i >= cut and rng.random() < 0.2:
            lines.append("  pred grp")
        lines += ["  user single u", "  weight 1.0", "  objects o",
                  "  assess task-level", "  check position subject=o",
                  "  feedback final", "end"]
    return "\n".join(lines) + "\n"


def test_ready_matches_brute_force_on_random_dags():
    rng = random.Random(2024)
    for _ in range(100):
        net = parse_network(_random_net_text(rng))
        assert validate_network(net).ok
        prims = sorted(net.primitive_ids())
        for _ in range(20):
            done = {p for p in prims if rng.random() < 0.5}
            assert ready_tasks(net, done) == brute_force_ready(net, done)


# -- numbers -----------------------------------------------------------------

def test_check_options_are_read():
    text = MINIMAL.replace(
        "check position subject=widget",
        "check position subject=widget tol=0.25 cweight=2.0", 1)
    check = parse_network(text).nodes["T1"].assessment.checks[0]
    assert (check.tol, check.check_weight, check.penalty) == (0.25, 2.0, 0.01)


def edit_hydrometer(demo_dir, line, old, new):
    """The bundled hydrometer network text with old replaced by new on a
    1-based line."""
    lines = (demo_dir / "hydrometer.ahtn").read_text().splitlines(keepends=True)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new)
    return "".join(lines)


# each once parsed and validated cleanly, then scored delta nan or n/a, a
# self-replay below 1, or no time limit
@pytest.mark.parametrize("line, old, new", [
    (20, "weight 0.3", "weight nan"),
    (20, "weight 0.3", "weight inf"),
    (23, "subject=hand", "subject=hand cweight=inf"),
    (23, "subject=hand", "subject=hand cweight=nan"),
    (23, "subject=hand", "subject=hand tol=nan"),
    (23, "subject=hand", "subject=hand tol=inf"),
    (39, "time 60", "time nan"),
])
def test_non_finite_network_number_fails_at_parse(demo_dir, tmp_path, line,
                                                  old, new):
    text = edit_hydrometer(demo_dir, line, old, new)
    what = new.split()[-1].split("=")[0] if "=" in new else new.split()[0]
    with pytest.raises(NetworkError,
                       match=rf"^line {line}: {what} must be finite and "):
        parse_network(text)
    path = tmp_path / "bad.ahtn"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1


@pytest.mark.parametrize("line, old, new", [
    (20, "weight 0.3", "weight 0"),
    (23, "subject=hand", "subject=hand cweight=0"),
    (37, "ref=cylinder", "ref=cylinder penalty=1"),
])
def test_network_number_edges_parse(demo_dir, line, old, new):
    assert validate_network(parse_network(
        edit_hydrometer(demo_dir, line, old, new))).ok


@pytest.mark.parametrize("build, name", [
    (lambda net: Defaults(orientation_tol=0), "orientation_tol"),
    (lambda net: TrajectoryParams(joint_ids=("head",), key_rate=math.nan),
     "key_rate"),
    (lambda net: with_trajectory_defaults(net, skip_time=-1), "skip_time"),
    # library-built checks and tasks: each once validated ok
    (lambda net: replace(net.nodes["T3"].assessment.checks[0], tol=math.nan),
     "tol"),
    (lambda net: replace(net.nodes["T2"].assessment.checks[1], penalty=math.inf),
     "penalty"),
    (lambda net: replace(net.nodes["T1"].assessment.checks[0],
                         check_weight=math.nan), "check_weight"),
    (lambda net: replace(net.nodes["T1"], weight=-1.0), "weight"),
    (lambda net: replace(net.nodes["T4"], time_constraint=0.0),
     "time_constraint"),
], ids=["Defaults", "TrajectoryParams", "with_trajectory_defaults",
        "CheckSpec.tol", "CheckSpec.penalty", "CheckSpec.check_weight",
        "TaskNode.weight", "TaskNode.time_constraint"])
def test_library_settings_are_checked(hydro_net, build, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        build(hydro_net)


# each once validated ok on the hydrometer network and then scored, or
# (the mark) was read as an end
@pytest.mark.parametrize("build, rule", [
    (lambda net: CheckSpec(kind="bogus", subject="hydrometer"),
     "unknown check kind 'bogus'"),
    (lambda net: CheckSpec(kind="attachment", subject="hydrometer"),
     "attachment check requires a reference object"),
    (lambda net: replace(net.nodes["T2"].assessment.checks[0], tol=3.0),
     "attachment check takes no tol"),
    (lambda net: replace(net.nodes["T1"].assessment, mode="bogus"),
     "unknown assessment mode 'bogus'"),
    (lambda net: replace(net.nodes["T1"], feedback="sometimes"),
     "unknown feedback mode 'sometimes'"),
    (lambda net: replace(net.nodes["T1"].assessment, mode="action-level"),
     "action-level mode takes no checks"),
    (lambda net: replace(net.nodes["T3"].assessment,
                         trajectory=TrajectoryParams(joint_ids=("head",))),
     "task-level mode takes no trajectory"),
    (lambda net: replace(net.nodes["T1"].assessment,
                         trajectory=TrajectoryParams(joint_ids=())),
     "trajectory tracks no joint"),
    (lambda net: UserScope("group", ("student",)),
     "group scope needs at least two user ids"),
    (lambda net: replace(net.nodes["T1"].users, user_ids=()),
     "single-user scope needs exactly one user id"),
    (lambda net: replace(net.nodes["hydrometer"], children=()),
     "abstract task has no children"),
    (lambda net: replace(net.nodes["hydrometer"], weight=1.0),
     "abstract task must not set weight"),
    (lambda net: replace(net.nodes["T1"], children=("T2",)),
     "primitive task must not have children"),
    (lambda net: replace(net.nodes["T1"], assessment=None),
     "primitive task is missing assessment"),
    (lambda net: TaskMark("T4", "stop"), "unknown mark edge 'stop'"),
], ids=["CheckSpec.kind", "CheckSpec.ref", "CheckSpec.tol-kind",
        "AssessmentSpec.mode", "TaskNode.feedback", "AssessmentSpec.checks",
        "AssessmentSpec.trajectory", "AssessmentSpec.joints", "UserScope.group",
        "UserScope.single", "TaskNode.abstract-children", "TaskNode.abstract-field",
        "TaskNode.primitive-children", "TaskNode.required", "TaskMark.edge"])
def test_library_types_hold_their_rules(hydro_net, build, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(rule)}"):
        build(hydro_net)


def test_with_trajectory_defaults_overrides():
    net = parse_network("""\
task T
  kind primitive
  user single u
  weight 1.0
  objects head
  assess action-level
  feedback final
end
""")
    out = with_trajectory_defaults(net, skip_time=7.5, match_radius=0.2)
    traj = out.nodes["T"].assessment.trajectory
    assert traj.skip_time == 7.5 and traj.match_radius == 0.2
    assert net.nodes["T"].assessment.trajectory.skip_time == 5.0  # original untouched
