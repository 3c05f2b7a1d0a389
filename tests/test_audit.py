from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from casim import actions as act, audit, sweep
from casim.engine import Simulator
from casim.errors import MalformedTrace
from casim.scenario import load_scenario
from casim.trace import Trace, parse

from conftest import TRANSFER, run_text

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def good_trace_report():
    res = run_text(TRANSFER)
    return audit.audit_trace(res.trace_text(), all_nodes=["alpha", "beta"])


def test_clean_run_passes_every_audit():
    report = good_trace_report()
    assert report["ok"]
    for name, verdict in report.items():
        if name != "ok":
            assert verdict[0], (name, verdict[1])


def test_serializability_witness_on_serial_history():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(1, "grant", txn=0, obj="x", mode="w")
    t.emit(1, "write", txn=0, obj="x", val="31")
    t.emit(2, "commit2", txn=0, phase="decision", outcome="commit", parts="n1")
    t.emit(3, "begin", txn=1, parent="-")
    t.emit(4, "grant", txn=1, obj="x", mode="r")
    t.emit(4, "read", txn=1, obj="x", val="31")
    t.emit(5, "commit2", txn=1, phase="decision", outcome="commit", parts="-")
    ok, info = audit.audit_serializability(t.events)
    assert ok
    assert info["witness"] == [0, 1]


def test_serializability_detects_conflict_cycle():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent="-")
    t.emit(1, "read", txn=0, obj="x", val="31")
    t.emit(1, "write", txn=1, obj="y", val="32")
    t.emit(2, "write", txn=1, obj="x", val="33")
    t.emit(2, "write", txn=0, obj="y", val="34")
    t.emit(3, "commit2", txn=0, phase="decision", outcome="commit", parts="-")
    t.emit(3, "commit2", txn=1, phase="decision", outcome="commit", parts="-")
    ok, info = audit.audit_serializability(t.events)
    assert not ok
    assert set(info["cycle"]) == {0, 1}


def test_serializability_cycle_leaves_out_downstream_transactions():
    t = Trace()
    for txn in (0, 1, 2):
        t.emit(0, "begin", txn=txn, parent="-")
    t.emit(1, "read", txn=0, obj="x", val="31")     # seq 3
    t.emit(2, "write", txn=1, obj="x", val="33")    # seq 4
    t.emit(2, "write", txn=1, obj="y", val="32")    # seq 5
    t.emit(3, "write", txn=0, obj="y", val="34")    # seq 6
    t.emit(4, "read", txn=2, obj="x", val="33")     # seq 7: after 1
    for txn in (0, 1, 2):
        t.emit(5, "commit2", txn=txn, phase="decision", outcome="commit",
               parts="-")
    ok, info = audit.audit_serializability(t.events)
    assert not ok
    assert info["cycle"] == [0, 1]
    assert info["conflicts"] == [(0, 1, "x", 3, 4), (1, 0, "y", 5, 6)]
    assert (1, 2) in info["edges"]


def test_serializability_keeps_only_frontier_edges():
    n = 30
    t = Trace()
    for txn in range(n):
        t.emit(txn, "begin", txn=txn, parent="-")
        t.emit(txn, "write", txn=txn, obj="x", val=str(txn))
        t.emit(txn, "commit2", txn=txn, phase="decision", outcome="commit",
               parts="-")
    ok, info = audit.audit_serializability(t.events)
    assert ok and info["witness"] == list(range(n))
    assert len(info["edges"]) == n - 1   # every pair would be n(n-1)/2


def pairwise_serializability(events):
    """Reference: an edge between every conflicting pair of operations of
    committed top-level transactions, then smallest-first Kahn."""
    view = audit.TxnView(events)
    committed = view.committed_top()
    ops = [(view.top(ev.txn), ev.obj, ev.kind == "write") for ev in events
           if ev.kind in ("read", "write") and view.op_counts(ev)
           and view.top(ev.txn) in committed]
    edges = {(t1, t2) for i, (t1, o1, w1) in enumerate(ops)
             for t2, o2, w2 in ops[i + 1:]
             if t1 != t2 and o1 == o2 and (w1 or w2)}
    order = []
    while True:
        ready = [t for t in committed if t not in order
                 and all(a in order for a, b in edges if b == t)]
        if not ready:
            return len(order) == len(committed), order, edges
        order.append(min(ready))


def closure(edges):
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    reach = set()
    for start in succ:
        stack = list(succ[start])
        seen = set()
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(succ.get(t, ()))
        reach |= {(start, t) for t in seen}
    return reach


@st.composite
def random_histories(draw):
    """A few top-level transactions, some with nested children, some
    aborted or undecided, reading and writing two or three objects."""
    objs = ["x", "y", "z"][:draw(st.integers(2, 3))]
    t = Trace()
    txns = []
    for _ in range(draw(st.integers(1, 4))):
        tid = len(txns)
        t.emit(0, "begin", txn=tid, parent="-")
        txns.append(tid)
        for _ in range(draw(st.integers(0, 2))):
            parent = draw(st.sampled_from(txns[txns.index(tid):]))
            t.emit(0, "begin", txn=len(txns), parent=parent)
            txns.append(len(txns))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["read", "write"]))
        t.emit(1, kind, txn=draw(st.sampled_from(txns)),
               obj=draw(st.sampled_from(objs)), val="0")
    for tid in txns:
        if draw(st.integers(0, 5)) == 0:
            t.emit(2, "abort", txn=tid, cause="deadlock")
    view = audit.TxnView(t.events)
    for tid in txns:
        if view.parents[tid] is None:
            outcome = draw(st.sampled_from(["commit", "commit", "abort",
                                            None]))
            if outcome:
                t.emit(3, "commit2", txn=tid, phase="decision",
                       outcome=outcome, parts="-")
    return t.events


@settings(max_examples=200, deadline=None)
@given(random_histories())
def test_frontier_graph_matches_pairwise_reference(events):
    ok, info = audit.audit_serializability(events)
    ref_ok, ref_order, ref_edges = pairwise_serializability(events)
    assert ok == ref_ok
    assert set(info["edges"]) <= ref_edges
    assert closure(info["edges"]) == closure(ref_edges)
    if ok:
        assert info["witness"] == ref_order
        return
    cycle = info["cycle"]
    assert len(set(cycle)) == len(cycle) >= 2
    by_seq = {ev.seq: ev for ev in events}
    view = audit.TxnView(events)
    for (t1, t2), (a, b, obj, s1, s2) in zip(
            zip(cycle, cycle[1:] + cycle[:1]), info["conflicts"]):
        assert (a, b) == (t1, t2) and (t1, t2) in ref_edges
        e1, e2 = by_seq[s1], by_seq[s2]
        assert s1 < s2 and e1.obj == e2.obj == obj
        assert (view.top(e1.txn), view.top(e2.txn)) == (t1, t2)
        assert "write" in (e1.kind, e2.kind)


def test_serializability_ignores_aborted_transactions():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent="-")
    t.emit(1, "read", txn=0, obj="x", val="31")
    t.emit(1, "write", txn=1, obj="y", val="32")
    t.emit(2, "write", txn=1, obj="x", val="33")
    t.emit(2, "write", txn=0, obj="y", val="34")
    t.emit(3, "abort", txn=1, cause="deadlock")
    t.emit(3, "commit2", txn=0, phase="decision", outcome="commit", parts="-")
    ok, _ = audit.audit_serializability(t.events)
    assert ok


def test_smuggling_detects_dirty_read():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent="-")
    t.emit(1, "write", txn=0, obj="x", val="39")
    t.emit(2, "read", txn=1, obj="x", val="39")  # pre-commit leak
    t.emit(3, "commit2", txn=0, phase="decision", outcome="commit", parts="-")
    ok, problems = audit.scan_smuggling(t.events)
    assert not ok and "txn 1 read x" in problems[0]


def test_smuggling_allows_reads_after_writer_resolves():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent="-")
    t.emit(1, "write", txn=0, obj="x", val="39")
    t.emit(2, "abort", txn=0, cause="deadlock")
    t.emit(3, "read", txn=1, obj="x", val="31")
    ok, _ = audit.scan_smuggling(t.events)
    assert ok


def test_smuggling_tracks_anti_inheritance():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent=0)
    t.emit(1, "write", txn=1, obj="x", val="39")
    t.emit(2, "commit2", txn=1, phase="nested", parent=0)
    t.emit(3, "begin", txn=2, parent="-")
    t.emit(4, "read", txn=2, obj="x", val="39")  # now dirty under txn 0
    ok, problems = audit.scan_smuggling(t.events)
    assert not ok


def test_bracketing_flags_event_outside_action_span():
    t = Trace()
    t.emit(0, "register", inst="a", role="r", th=0, ok=1)
    t.emit(1, "read", txn=0, obj="x", val="31", inst="a", th=0)
    t.emit(2, "outcome", inst="a", th=0, role="r", outcome="committed")
    t.emit(3, "write", txn=0, obj="x", val="32", inst="a", th=0)  # too late
    ok, problems = audit.scan_bracketing(t.events)
    assert not ok and "after a outcome" in problems[0]


def _txn_trace(*events):
    """A trace of (kind, txn, detail) events, one tick apart."""
    t = Trace()
    for time, (kind, txn, detail) in enumerate(events):
        t.emit(time, kind, txn=txn, **detail)
    return t.events


TOP = {"parent": "-"}
NESTED_COMMIT = {"phase": "nested", "parent": 0}
COMMIT = {"phase": "decision", "outcome": "commit", "parts": "-"}


@pytest.mark.parametrize("events, problem", [
    ([("begin", 0, TOP), ("begin", 0, TOP)], "seq 1: txn 0 begins again"),
    ([("begin", 1, {"parent": 0})],
     "seq 0: txn 1 begins under txn 0, which is not open"),
    ([("begin", 0, TOP), ("abort", 0, {}), ("begin", 1, {"parent": 0})],
     "seq 2: txn 1 begins under txn 0, which is not open"),
    ([("read", 0, {"obj": "x", "val": "31"}), ("begin", 0, TOP)],
     "seq 0: read by txn 0 before its begin"),
    ([("begin", 0, TOP), ("commit2", 0, COMMIT),
      ("write", 0, {"obj": "x", "val": "31"})],
     "seq 2: write by txn 0 after its end"),
    ([("begin", 0, TOP), ("abort", 0, {}),
      ("grant", 0, {"obj": "x", "mode": "r"})],
     "seq 2: grant by txn 0 after its end"),
    ([("begin", 0, TOP), ("begin", 1, {"parent": 0}),
      ("commit2", 1, NESTED_COMMIT), ("queue", 1, {"obj": "x", "mode": "w"})],
     "seq 3: queue by txn 1 after its end"),
    ([("abort", 0, {})], "seq 0: txn 0 ends before its begin"),
    ([("begin", 0, TOP), ("abort", 0, {}), ("abort", 0, {})],
     "seq 2: txn 0 ends again"),
    ([("begin", 0, TOP), ("commit2", 0, COMMIT), ("abort", 0, {})],
     "seq 2: txn 0 ends again"),
    ([("begin", 0, TOP), ("begin", 1, {"parent": 0}), ("abort", 0, {})],
     "seq 2: txn 0 ends before its child txn 1"),
], ids=["begin_twice", "parent_not_begun", "parent_ended", "op_before_begin",
        "op_after_commit", "grant_after_abort", "queue_after_nested_commit",
        "end_before_begin", "abort_twice", "abort_after_commit",
        "end_before_child"])
def test_bracketing_flags_transaction_lifecycle(events, problem):
    ok, problems = audit.scan_bracketing(_txn_trace(*events))
    assert not ok
    assert problems == [problem]


def test_bracketing_accepts_abort_decision_then_abort():
    """An abort decision is not an end; the abort after it is, and the
    apply and late commit1 that may follow are no operations."""
    ok, problems = audit.scan_bracketing(_txn_trace(
        ("begin", 0, TOP), ("begin", 1, {"parent": 0}),
        ("grant", 1, {"obj": "x", "mode": "w"}),
        ("commit2", 1, NESTED_COMMIT),
        ("commit2", 0, {"phase": "decision", "outcome": "abort"}),
        ("abort", 0, {}), ("commit1", 0, {"node": "n1"}),
        ("begin", 2, TOP), ("commit2", 2, COMMIT),
        ("commit2", 2, {"phase": "apply", "node": "n1", "objs": "x"})))
    assert ok, problems


def test_bracketing_flags_a_double_abort_on_every_crash_sweep(monkeypatch):
    """A coordinated abort that aborts an aborted instance again passes the
    other five audits; the transaction bracketing flags its second abort."""
    orig = Simulator.coordinated_abort

    def abort_again(sim, inst, cause):
        if inst.status == act.ABORTED:
            inst.status = act.RUNNING
        orig(sim, inst, cause)

    monkeypatch.setattr(Simulator, "coordinated_abort", abort_again)
    for path in sorted(SCENARIOS.glob("*.scn")):
        rows = [r for r in sweep.crash_sweep(load_scenario(path))
                if not r["ok"]]
        assert rows, path.name
        assert all(r["failures"] == ["bracketing"] for r in rows), path.name


def test_lock_rule_flags_non_ancestor_coexistence():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent="-")
    t.emit(1, "grant", txn=0, obj="x", mode="w")
    t.emit(2, "grant", txn=1, obj="x", mode="w")  # illegal: unrelated txns
    ok, problems = audit.verify_lock_rule(t.events)
    assert not ok and "non-ancestor" in problems[0]


def test_lock_rule_accepts_ancestor_and_transfer():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent=0)
    t.emit(1, "grant", txn=0, obj="x", mode="r")
    t.emit(2, "grant", txn=1, obj="x", mode="w")  # parent is ancestor: fine
    t.emit(3, "commit2", txn=1, phase="nested", parent=0)
    t.emit(4, "begin", txn=2, parent=0)
    t.emit(5, "grant", txn=2, obj="x", mode="w")  # holder 0 is ancestor
    ok, problems = audit.verify_lock_rule(t.events)
    assert ok, problems


def test_atomicity_replay_matches_run():
    res = run_text(TRANSFER)
    import casim.trace as trace_mod
    events, dumps = trace_mod.parse(res.trace_text())
    ok, problems = audit.scan_atomicity(events, dumps)
    assert ok, problems


def test_atomicity_flags_tampered_dump():
    res = run_text(TRANSFER)
    text = res.trace_text()
    stable = res.store.dump_stable()
    tampered = text.replace(stable[0], stable[0][:-2] + "ff", 1)
    report = audit.audit_trace(tampered, all_nodes=["alpha", "beta"])
    assert not report["atomicity"][0]
    assert not report["ok"]


def test_durability_failure_detected():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(1, "commit2", txn=0, phase="decision", outcome="commit",
           parts="n1,n2")
    t.emit(2, "commit2", txn=0, phase="apply", node="n1", objs="x")
    ok, problems = audit.check_durability(t.events, up_nodes={"n1", "n2"})
    assert not ok and "never applied at up node n2" in problems[0]
    # a still-down participant is not a durability violation
    ok, _ = audit.check_durability(t.events, up_nodes={"n1"})
    assert ok


def test_atomicity_flags_apply_of_an_object_with_no_home():
    text = ("0\t0\tcommit2\t0\t-\tnode=n1 objs=zz phase=apply\n"
            "dump\n[initial]\nn1\tx\t0\t31\n")
    report = audit.audit_trace(text)
    ok, problems = report["atomicity"]
    assert not ok and not report["ok"]
    assert problems[0] == ("seq 0: apply of zz, which the initial dump does "
                           "not hold")


def test_audit_trace_propagates_malformed():
    with pytest.raises(MalformedTrace):
        audit.audit_trace("0\t0\tnonsense\t-\t-\t-\n")


def test_durability_problem_names_the_decision_seq():
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(1, "grant", txn=0, obj="x", mode="w")
    t.emit(1, "write", txn=0, obj="x", val="31")
    t.emit(2, "commit2", txn=0, phase="decision", outcome="commit",
           parts="n1,n2")
    t.emit(3, "commit2", txn=0, phase="apply", node="n1", objs="x")
    events, _ = parse(t.render())
    ok, problems = audit.check_durability(events, up_nodes={"n1", "n2"})
    assert not ok
    assert problems == ["seq 3: txn 0 committed but never applied at up "
                        "node n2"]
