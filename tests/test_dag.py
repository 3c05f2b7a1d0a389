from pathlib import Path

import pytest

import casim.cli as cli
from casim import trace
from casim.dag import (FLATTEN, NESTED, PROG, SYNC, OperationDAG,
                       count_admissible_orders, from_trace, strategy_select)
from casim.engine import Simulator
from casim.errors import CyclicConstraint, MalformedTrace
from casim.scenario import load_scenario

from conftest import run_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def two_chain_dag():
    """Two independent 2-op program chains (threads 0 and 1)."""
    d = OperationDAG()
    a0 = d.add_node(0, 0, "read", "x").nid
    a1 = d.add_node(0, 1, "write", "x").nid
    b0 = d.add_node(1, 0, "read", "y").nid
    b1 = d.add_node(1, 1, "write", "y").nid
    d.add_edge(a0, a1, PROG)
    d.add_edge(b0, b1, PROG)
    return d, (a0, a1, b0, b1)


def test_flatten_is_deterministic_single_order():
    d, _ = two_chain_dag()
    assert count_admissible_orders(d, FLATTEN) == 1


def test_linear_extension_count():
    d, _ = two_chain_dag()
    # interleavings of two 2-chains: C(4,2) = 6
    assert d.count_linear_extensions() == 6
    assert count_admissible_orders(d, NESTED) == 6


def test_sync_edge_restricts_orders():
    d, (a0, a1, b0, b1) = two_chain_dag()
    d.add_edge(a1, b0, SYNC)
    assert d.count_linear_extensions() == 1


def test_cycle_detected():
    d = OperationDAG()
    a = d.add_node(0, 0, "read", "x").nid
    b = d.add_node(0, 1, "write", "x").nid
    d.add_edge(a, b, PROG)
    d.add_edge(b, a, SYNC)
    for strategy in (FLATTEN, NESTED):
        with pytest.raises(CyclicConstraint):
            count_admissible_orders(d, strategy)


def test_strategy_select_default_and_override():
    assert strategy_select(False, None) == FLATTEN
    assert strategy_select(True, None) == NESTED
    assert strategy_select(True, FLATTEN) == FLATTEN
    assert strategy_select(False, NESTED) == NESTED



@pytest.mark.parametrize("strategy", [None, FLATTEN, NESTED])
@pytest.mark.parametrize("name", sorted(p.stem
                                        for p in SCENARIOS.glob("*.scn")))
def test_dag_comes_from_the_trace_file_alone(tmp_path, capsys, name,
                                             strategy):
    path = tmp_path / "t.trace"
    scn = str(SCENARIOS / (name + ".scn"))
    argv = ["run", scn, "--trace", str(path)]
    assert cli.main(argv + (["--strategy", strategy] if strategy else [])) \
        == 0
    capsys.readouterr()
    events, _dumps = trace.parse(path.read_text())
    sim = Simulator(load_scenario(scn), strategy=strategy).run()
    started = 0
    for key, inst in sim.instances.items():
        got, dag = from_trace(events, key, inst.defn), inst.dag
        if dag is None:     # never started: no operation of its own
            assert got.nodes == got.edges == []
        else:
            assert (got.nodes, got.edges) == (dag.nodes, dag.edges)
            started += 1
    assert started


def _edited_transfer_trace(edit):
    """flat_transfer.scn's trace with its event lines changed by `edit` and
    renumbered, then parsed: its events and the scenario."""
    sc = load_scenario(str(SCENARIOS / "flat_transfer.scn"))
    text = Simulator(sc).run().trace_text()
    body, dump = text.split("dump\n", 1)
    lines = edit(body.splitlines())
    body = "".join("%d\t%s\n" % (seq, line.split("\t", 1)[1])
                   for seq, line in enumerate(lines))
    return trace.parse(body + "dump\n" + dump)[0], sc


def _without_emit(lines):
    return [ln for ln in lines if "\tsync_emit\t" not in ln]


def _read_after_exit(lines):
    """Thread 1's read of acct_b repeated after its exit step."""
    read = next(ln for ln in lines
                if "\tread\t" in ln and "acct_b" in ln and "th=1" in ln)
    at = next(i for i, ln in enumerate(lines)
              if "op=exit th=1" in ln)
    return lines[:at + 1] + [read] + lines[at + 1:]


def _unknown_role(lines):
    return [ln.replace("role=credit th=1", "role=payee th=1")
            if "\tregister\t" in ln else ln for ln in lines]


def _thread_x(lines):
    """Thread 0 named `x`, in its registration and in each of its events."""
    return [ln.replace("th=0", "th=x") for ln in lines]


def _cut(seq, token):
    """An edit that cuts `token` from the line of event `seq`."""
    def edit(lines):
        return [ln.replace(token, "", 1) if i == seq else ln
                for i, ln in enumerate(lines)]
    return edit


# edits that leave the line of event `seq` with no schema shape
_SHAPELESS = [(_thread_x, 1),
              (_cut(7, " th=0"), 7),
              (_cut(1, " role=debit"), 1),
              (_cut(3, " th=1"), 3),
              (_cut(11, "signal=moved "), 11),
              (_cut(13, "signal=moved "), 13)]


@pytest.mark.parametrize("edit,seq", [(_without_emit, 12),
                                      (_read_after_exit, 18),
                                      (_unknown_role, 3)] + _SHAPELESS)
def test_a_trace_off_its_roles_is_malformed(edit, seq):
    """An edit that keeps every line in its schema shape is caught by
    from_trace at event `seq`.  One that cuts a key from_trace reads, or
    names a thread `x`, is caught by the parser at that event's line."""
    if (edit, seq) in _SHAPELESS:
        with pytest.raises(MalformedTrace) as e:
            _edited_transfer_trace(edit)
        assert e.value.line == seq + 1
        return
    events, sc = _edited_transfer_trace(edit)
    with pytest.raises(MalformedTrace, match="^seq %d: " % seq):
        from_trace(events, "transfer", sc.defs["transfer"])


EVAL_ERROR_CHILD = """
node n1
object x n1 0
action child
  footprint x
  role r
    read x
    write x 1 // x
    exit
end
action parent
  footprint x
  role r
    enter child r
    exit
  nested child
end
client c1 n1 0 parent r
"""


def test_a_write_that_fails_to_evaluate_is_no_node():
    sim = run_text(EVAL_ERROR_CHILD, strategy=FLATTEN)
    child = sim.instances["parent/child"]
    assert child.abort_cause == "eval_error"
    # the write step read its operand before its value failed to evaluate
    reads = [(ev.obj, ev.detail["th"]) for ev in sim.trace.events
             if ev.kind == "read" and ev.detail["inst"] == "parent/child"]
    assert reads == [("x", "0"), ("x", "0")]
    assert not any(ev.kind == "write" for ev in sim.trace.events)
    dag = child.dag
    assert [(n.thread, n.step, n.kind, n.obj) for n in dag.nodes] \
        == [(0, 0, "read", "x")]
    assert dag.edges == []
    parent = sim.instances["parent"].dag
    assert [(n.thread, n.step, n.kind, n.obj) for n in parent.nodes] \
        == [(-1, -1, "nested", "child")]
