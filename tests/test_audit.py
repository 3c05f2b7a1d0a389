import copy
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from casim import actions as act, audit, sweep
from casim.engine import Simulator
from casim.errors import MalformedTrace
from casim.scenario import Fault, load_scenario
from casim.trace import ALL_KINDS, Trace, parse

from conftest import TRANSFER, run_text

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _op(val):
    """The detail of a read or write of `val` by instance `a`'s thread 0."""
    return {"inst": "a", "th": "0", "val": val}


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
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("grant", 0, "x", {"mode": "w"})
    t.emit("write", 0, "x", _op("31"))
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "n1", "phase": "decision"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("grant", 1, "x", {"mode": "r"})
    t.emit("read", 1, "x", _op("31"))
    t.emit("commit2", 1, None, {
        "outcome": "commit", "parts": "-", "phase": "decision"})
    ok, info = audit.audit_serializability(t.events)
    assert ok
    assert info["witness"] == [0, 1]


def test_serializability_detects_conflict_cycle():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("read", 0, "x", _op("31"))
    t.emit("write", 1, "y", _op("32"))
    t.emit("write", 1, "x", _op("33"))
    t.emit("write", 0, "y", _op("34"))
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "-", "phase": "decision"})
    t.emit("commit2", 1, None, {
        "outcome": "commit", "parts": "-", "phase": "decision"})
    ok, info = audit.audit_serializability(t.events)
    assert not ok
    assert set(info["cycle"]) == {0, 1}


def test_serializability_cycle_leaves_out_downstream_transactions():
    t = Trace()
    for txn in (0, 1, 2):
        t.emit("begin", txn, None, {"parent": "-"})
    t.emit("read", 0, "x", _op("31"))     # seq 3
    t.emit("write", 1, "x", _op("33"))    # seq 4
    t.emit("write", 1, "y", _op("32"))    # seq 5
    t.emit("write", 0, "y", _op("34"))    # seq 6
    t.emit("read", 2, "x", _op("33"))     # seq 7: after 1
    for txn in (0, 1, 2):
        t.emit("commit2", txn, None, {
            "outcome": "commit", "parts": "-", "phase": "decision"})
    ok, info = audit.audit_serializability(t.events)
    assert not ok
    assert info["cycle"] == [0, 1]
    assert info["conflicts"] == [(0, 1, "x", 3, 4), (1, 0, "y", 5, 6)]
    assert (1, 2) in info["edges"]


def test_serializability_keeps_only_frontier_edges():
    n = 30
    t = Trace()
    for txn in range(n):
        t.emit("begin", txn, None, {"parent": "-"})
        t.emit("write", txn, "x", _op(str(txn)))
        t.emit("commit2", txn, None, {
            "outcome": "commit", "parts": "-", "phase": "decision"})
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
        t.emit("begin", tid, None, {"parent": "-"})
        txns.append(tid)
        for _ in range(draw(st.integers(0, 2))):
            parent = draw(st.sampled_from(txns[txns.index(tid):]))
            t.emit("begin", len(txns), None, {"parent": str(parent)})
            txns.append(len(txns))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["read", "write"]))
        t.emit(kind, draw(st.sampled_from(txns)),
               draw(st.sampled_from(objs)), _op("0"))
    for tid in txns:
        if draw(st.integers(0, 5)) == 0:
            t.emit("abort", tid, None, {"cause": "deadlock"})
    view = audit.TxnView(t.events)
    for tid in txns:
        if view.parents[tid] is None:
            outcome = draw(st.sampled_from(["commit", "commit", "abort",
                                            None]))
            if outcome:
                t.emit("commit2", tid, None, {
                    "outcome": outcome, "parts": "-", "phase": "decision"})
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
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("read", 0, "x", _op("31"))
    t.emit("write", 1, "y", _op("32"))
    t.emit("write", 1, "x", _op("33"))
    t.emit("write", 0, "y", _op("34"))
    t.emit("abort", 1, None, {"cause": "deadlock"})
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "-", "phase": "decision"})
    ok, _ = audit.audit_serializability(t.events)
    assert ok


def test_smuggling_detects_dirty_read():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("write", 0, "x", _op("39"))
    t.emit("read", 1, "x", _op("39"))  # pre-commit leak
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "-", "phase": "decision"})
    ok, problems = audit.scan_smuggling(t.events)
    assert not ok and "txn 1 read x" in problems[0]


def test_smuggling_allows_reads_after_writer_resolves():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("write", 0, "x", _op("39"))
    t.emit("abort", 0, None, {"cause": "deadlock"})
    t.emit("read", 1, "x", _op("31"))
    ok, _ = audit.scan_smuggling(t.events)
    assert ok


def test_smuggling_tracks_anti_inheritance():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "0"})
    t.emit("write", 1, "x", _op("39"))
    t.emit("commit2", 1, None, {"parent": "0", "phase": "nested"})
    t.emit("begin", 2, None, {"parent": "-"})
    t.emit("read", 2, "x", _op("39"))  # now dirty under txn 0
    ok, problems = audit.scan_smuggling(t.events)
    assert not ok


def test_bracketing_flags_event_outside_action_span():
    t = Trace()
    t.emit("register", None, None, {
        "inst": "a", "ok": "1", "role": "r", "th": "0"})
    t.emit("read", 0, "x", _op("31"))
    t.emit("outcome", None, None, {
        "inst": "a", "outcome": "committed", "role": "r", "th": "0"})
    t.emit("write", 0, "x", _op("32"))  # too late
    ok, problems = audit.scan_bracketing(t.events)
    assert not ok and "after a outcome" in problems[0]


def _txn_trace(*events):
    """A trace of (kind, txn, detail) events and (kind, txn, obj, detail)
    ones, after the registration of instance `a`, whose reads and writes
    they are."""
    t = Trace()
    t.emit("register", None, None, {
        "inst": "a", "node": "n1", "ok": "1", "role": "r", "th": "0"})
    for kind, txn, *obj, detail in events:
        t.emit(kind, txn, obj[0] if obj else None, detail)
    return t.events


TOP = {"parent": "-"}
NESTED_COMMIT = {"parent": "0", "phase": "nested"}
COMMIT = {"outcome": "commit", "parts": "-", "phase": "decision"}


@pytest.mark.parametrize("events, problem", [
    ([("begin", 0, TOP), ("begin", 0, TOP)], "seq 2: txn 0 begins again"),
    ([("begin", 1, {"parent": "0"})],
     "seq 1: txn 1 begins under txn 0, which is not open"),
    ([("begin", 0, TOP), ("abort", 0, {}), ("begin", 1, {"parent": "0"})],
     "seq 3: txn 1 begins under txn 0, which is not open"),
    ([("read", 0, "x", _op("31")), ("begin", 0, TOP)],
     "seq 1: read by txn 0 before its begin"),
    ([("begin", 0, TOP), ("commit2", 0, COMMIT),
      ("write", 0, "x", _op("31"))],
     "seq 3: write by txn 0 after its end"),
    ([("begin", 0, TOP), ("abort", 0, {}),
      ("grant", 0, "x", {"mode": "r"})],
     "seq 3: grant by txn 0 after its end"),
    ([("begin", 0, TOP), ("begin", 1, {"parent": "0"}),
      ("commit2", 1, NESTED_COMMIT), ("queue", 1, "x", {"mode": "w"})],
     "seq 4: queue by txn 1 after its end"),
    ([("abort", 0, {})], "seq 1: txn 0 ends before its begin"),
    ([("begin", 0, TOP), ("abort", 0, {}), ("abort", 0, {})],
     "seq 3: txn 0 ends again"),
    ([("begin", 0, TOP), ("commit2", 0, COMMIT), ("abort", 0, {})],
     "seq 3: txn 0 ends again"),
    ([("begin", 0, TOP), ("begin", 1, {"parent": "0"}), ("abort", 0, {})],
     "seq 3: txn 0 ends before its child txn 1"),
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
        ("begin", 0, TOP), ("begin", 1, {"parent": "0"}),
        ("grant", 1, "x", {"mode": "w"}),
        ("commit2", 1, NESTED_COMMIT),
        ("commit2", 0, {"outcome": "abort", "phase": "decision"}),
        ("abort", 0, {}), ("commit1", 0, {"node": "n1"}),
        ("begin", 2, TOP), ("commit2", 2, COMMIT),
        ("commit2", 2, {"node": "n1", "objs": "x", "phase": "apply"})))
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
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("grant", 0, "x", {"mode": "w"})
    t.emit("grant", 1, "x", {"mode": "w"})  # illegal: unrelated txns
    ok, problems = audit.verify_lock_rule(t.events)
    assert not ok and "non-ancestor" in problems[0]


def test_lock_rule_accepts_ancestor_and_transfer():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "0"})
    t.emit("grant", 0, "x", {"mode": "r"})
    t.emit("grant", 1, "x", {"mode": "w"})  # parent is ancestor: fine
    t.emit("commit2", 1, None, {"parent": "0", "phase": "nested"})
    t.emit("begin", 2, None, {"parent": "0"})
    t.emit("grant", 2, "x", {"mode": "w"})  # holder 0 is ancestor
    ok, problems = audit.verify_lock_rule(t.events)
    assert ok, problems


def test_atomicity_replay_matches_run():
    res = run_text(TRANSFER)
    import casim.trace as trace_mod
    events, dumps = trace_mod.parse(res.trace_text())
    ok, problems = audit.scan_atomicity(events, dumps, {"alpha", "beta"})
    assert ok, problems


def _crash_recover_text(recover=True):
    sc = load_scenario(str(SCENARIOS / "crash_recover.scn"))
    if not recover:     # beta stays down to the end
        sc = replace(sc, faults=[f for f in sc.faults if f.op == "crash"])
    return Simulator(sc).run().trace_text()


def test_atomicity_flags_a_dropped_volatile_record():
    text = _crash_recover_text()
    assert audit.audit_trace(text)["ok"]
    lines = text.splitlines()
    at = lines.index("[volatile]") + 1
    node, obj = lines[at].split("\t")[:2]
    report = audit.audit_trace("\n".join(lines[:at] + lines[at + 1:]) + "\n")
    assert report["atomicity"] == (False, [
        "volatile/stable divergence at %s/%s after quiescence" % (node, obj)])
    assert not report["ok"]


def test_atomicity_flags_a_volatile_record_of_a_down_node():
    text = _crash_recover_text(recover=False)
    assert audit.audit_trace(text)["ok"]
    lines = text.splitlines()
    beta = [ln for ln in lines[lines.index("[stable]"):]
            if ln.startswith("beta\t")]
    assert beta and not any(ln.startswith("beta\t") for ln in
                            lines[lines.index("[volatile]"):])
    text = "\n".join(lines + beta[:1]) + "\n"
    report = audit.audit_trace(text)
    obj = beta[0].split("\t")[1]
    assert report["atomicity"] == (False, [
        "volatile record at beta/%s of a down node" % obj])


def test_atomicity_flags_tampered_dump():
    res = run_text(TRANSFER)
    text = res.trace_text()
    stable = res.store.dump_stable()
    node, name, version, value = stable[0].split("\t")
    tampered = text.replace(stable[0], "\t".join(
        (node, name, version, str(int(value) + 1))), 1)
    report = audit.audit_trace(tampered, all_nodes=["alpha", "beta"])
    assert not report["atomicity"][0]
    assert not report["ok"]


def _hex_values(text):
    """`text` with each `val` and dump value written as the hex of its
    decimal digits, as traces gave values before they were decimal."""
    def hexed(value):
        return value.encode("ascii").hex()

    head, dump = text.split("\ndump\n")
    lines = []
    for ln in head.split("\n"):
        fields = ln.split("\t")
        fields[5] = " ".join("val=" + hexed(tok[4:]) if tok[:4] == "val="
                             else tok for tok in fields[5].split(" "))
        lines.append("\t".join(fields))
    lines.append("dump")
    for ln in dump.split("\n"):
        fields = ln.split("\t")
        if len(fields) == 4:
            fields[3] = hexed(fields[3])
        lines.append("\t".join(fields))
    return "\n".join(lines)


def test_values_are_compared_only_with_each_other():
    """The audits treat each value as a string: a trace whose values are
    written in hex, as before they were decimal, audits the same."""
    for path in sorted(SCENARIOS.glob("*.scn")):
        sc = load_scenario(str(path))
        for strategy in (None, "flatten", "nested"):
            text = Simulator(sc, strategy=strategy).run().trace_text()
            hexed = _hex_values(text)
            assert hexed != text
            assert audit.audit_trace(hexed, sc.nodes) \
                == audit.audit_trace(text, sc.nodes)


def test_durability_failure_detected():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "n1,n2", "phase": "decision"})
    t.emit("commit2", 0, None, {"node": "n1", "objs": "x", "phase": "apply"})
    ok, problems = audit.check_durability(t.events, up_nodes={"n1", "n2"})
    assert not ok and "never applied at up node n2" in problems[0]
    # a still-down participant is not a durability violation
    ok, _ = audit.check_durability(t.events, up_nodes={"n1"})
    assert ok


def _applied_write():
    """Txn 0 writes x at n1 (version 6, value 31) to 32, commits and
    applies it at n1; y at n2 is never written."""
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("grant", 0, "x", {"mode": "w"})
    t.emit("write", 0, "x", _op("32"))
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "n1", "phase": "decision"})
    t.emit("commit2", 0, None, {"node": "n1", "objs": "x", "phase": "apply"})
    return t.events


_X, _Y = "n1\tx\t7\t32", "n2\ty\t2\t40"


@pytest.mark.parametrize("stable, volatile, up, problems", [
    # the records in another order, and a version written with a leading
    # zero: the lines differ, the records do not
    ([_Y, _X], [_X, _Y], {"n1", "n2"}, []),
    (["n1\tx\t07\t32", _Y], [_X, _Y], {"n1", "n2"}, []),
    (["n1\tx\t7\t33", _Y], ["n1\tx\t7\t33", _Y], {"n1", "n2"},
     ["stable mismatch at n1/x: replay (7, '32'), dump (7, '33')"]),
    ([_X, _Y], [_Y], {"n1", "n2"},
     ["volatile/stable divergence at n1/x after quiescence"]),
    ([_X, _Y], [_X, _Y], {"n1"}, ["volatile record at n2/y of a down node"]),
])
def test_atomicity_parses_dump_lines_only_when_they_differ(
        monkeypatch, stable, volatile, up, problems):
    """Dumps whose lines differ from the replay's are parsed and compared
    record by record; dumps whose lines match it are not parsed."""
    parsed = []
    real = audit._parse_dump_lines

    def parse_lines(lines):
        parsed.append(list(lines))
        return real(lines)

    monkeypatch.setattr(audit, "_parse_dump_lines", parse_lines)
    initial = ["n1\tx\t6\t31", _Y]
    dumps = {"initial": initial, "stable": stable, "volatile": volatile}
    assert audit.scan_atomicity(_applied_write(), dumps, up) == \
        (not problems, problems)
    assert parsed == [initial, stable, volatile]
    parsed.clear()
    volatile = [ln for ln in [_X, _Y] if ln.split("\t")[0] in up]
    dumps = {"initial": initial, "stable": [_X, _Y], "volatile": volatile}
    assert audit.scan_atomicity(_applied_write(), dumps, up) == (True, [])
    assert parsed == [initial]


_OTHER_KINDS = sorted(ALL_KINDS - audit.CORE_KINDS)


@st.composite
def histories_with_other_kinds(draw):
    """A `random_histories` history with events of the kinds outside
    CORE_KINDS between its events, each carrying a txn, an object, every
    detail key that a pass reads from a core kind, and the `ok` that
    bracketing reads from a `register`."""
    t = Trace()
    for ev in draw(random_histories()):
        for _ in range(draw(st.integers(0, 2))):
            t.emit(draw(st.sampled_from(_OTHER_KINDS)), ev.txn, ev.obj, {
                "inst": "a", "mode": "w", "node": "n1", "objs": "x",
                "ok": draw(st.sampled_from(["0", "1"])), "outcome": "commit", "parent": str(ev.txn), "parts": "n1",
                "phase": draw(st.sampled_from(["decision", "apply",
                                               "nested"])),
                "val": "9"})
        t.emit(ev.kind, ev.txn, ev.obj, ev.detail)
    return t.events


def _assert_core_passes_agree(events, dumps, all_nodes):
    """Every pass that audit_trace hands `core` returns the same on the
    whole trace as on its CORE_KINDS subsequence."""
    core = [ev for ev in events if ev.kind in audit.CORE_KINDS]
    up = audit.final_up_nodes(events, all_nodes)
    assert audit.final_up_nodes(core, all_nodes) == up
    for check in (audit.audit_serializability, audit.scan_smuggling,
                  audit.verify_lock_rule):
        assert check(core) == check(events)
    assert audit.scan_atomicity(core, dumps, up) == \
        audit.scan_atomicity(events, dumps, up)
    assert audit.check_durability(core, up) == \
        audit.check_durability(events, up)
    return len(core) < len(events)


@settings(max_examples=200, deadline=None)
@given(histories_with_other_kinds())
def test_core_passes_skip_every_other_kind(events):
    records = ["n1\tx\t0\t0", "n1\ty\t0\t0", "n2\tz\t0\t0"]
    dumps = {"initial": records, "stable": records, "volatile": records}
    _assert_core_passes_agree(events, dumps, {"n1", "n2"})


def test_core_passes_skip_every_other_kind_on_reference_runs(monkeypatch):
    """Over every reference scenario under each strategy at seeds 0-4,
    with and without early release of write locks, and over each one's
    crash sweep at stride 3."""
    runs = []
    for path in sorted(SCENARIOS.glob("*.scn")):
        sc = load_scenario(str(path))
        for strategy in (None, "flatten", "nested"):
            for seed in range(5):
                for unsafe in (False, True):
                    res = Simulator(sc, seed=seed, strategy=strategy,
                                    unsafe_early_release=unsafe).run()
                    runs.append((res.trace.events, res.dumps(), sc.nodes))

    def keep(text, all_nodes, emitted, state):
        runs.append((list(emitted[0]), emitted[1], all_nodes))
        return {"ok": True}

    monkeypatch.setattr(audit, "audit_trace", keep)
    for path in sorted(SCENARIOS.glob("*.scn")):
        sweep.crash_sweep(load_scenario(str(path)), stride=3)
    assert len(runs) > 150
    assert all([_assert_core_passes_agree(*run) for run in runs])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_copied_state_fed_the_rest_gives_the_fresh_report(data):
    """Split a history anywhere, with crashes, recoveries and applies
    between its events: a copy of the state fed its prefix, fed the rest
    by an audit, gives the report of a fresh audit.  So does a copy that
    resumes with only some of the rest, audited after the first, and
    neither audit changes the state's folds."""
    t = Trace()
    for ev in data.draw(histories_with_other_kinds()):
        node = data.draw(st.sampled_from(["n1", "n2"]))
        extra = data.draw(st.sampled_from(["crash", "recover", "apply"]
                                          + [None] * 6))
        if extra == "apply":
            t.emit("commit2", ev.txn or 0, None, {
                "node": node, "objs": data.draw(st.sampled_from(
                    ["x", "y", "x,z"])), "phase": "apply"})
        elif extra:
            t.emit(extra, None, None, {"node": node})
        t.emit(ev.kind, ev.txn, ev.obj, ev.detail)
    events = t.events
    split = data.draw(st.integers(0, len(events)))
    kept = [ev for ev in events[split:] if data.draw(st.booleans())]
    records = ["n1\tx\t0\t0", "n1\ty\t0\t0", "n2\tz\t0\t0"]
    dumps = {"initial": records, "stable": records, "volatile": records[:1]}
    state = audit.AuditState()
    state.feed(events[:split])
    state.copy()    # which feeds the state's views all it was fed
    folds = copy.deepcopy(_folds(state))
    for rest in (events[split:], kept):
        history = events[:split] + [replace(ev, seq=split + i)
                                    for i, ev in enumerate(rest)]
        assert audit.audit_trace("", {"n1", "n2"}, (history, dumps),
                                 state.copy()) == \
            audit.audit_trace("", {"n1", "n2"}, (history, dumps))
    assert _folds(state) == folds


def _folds(state):
    return (state.seen, state.last, state.core, state.up_down, state.viewed,
            [vars(view) for view in state.views.values()],
            vars(state.lifecycles), vars(state.decisions))


def test_a_state_fed_other_events_is_refused():
    runs = [run_text(TRANSFER, seed=seed) for seed in (1, 2)]
    state = audit.AuditState()
    state.feed(runs[0].trace.events[:5])
    with pytest.raises(ValueError, match="first 5 of this trace"):
        audit.audit_trace("", None, (runs[1].trace.events, runs[1].dumps()),
                          state.copy())
    res = run_text(TRANSFER, seed=1)    # equal events, not the ones fed
    assert res.trace.events == runs[0].trace.events
    with pytest.raises(ValueError):
        audit.audit_trace("", None, (res.trace.events, res.dumps()),
                          state.copy())
    assert audit.audit_trace("", None, (runs[0].trace.events,
                                        runs[0].dumps()), state)["ok"]


def test_audit_of_a_parent_cycle_ends(tmp_path):
    """Two begins that name each other as parent: the view used to walk
    the cycle for ever in `top` and `is_proper_ancestor`; it now refuses
    the link that closes it, and bracketing reports the first begin."""
    path = tmp_path / "cycle.trace"
    path.write_text("0\t0\tbegin\t1\t-\tparent=2\n"
                    "1\t0\tbegin\t2\t-\tparent=1\n"
                    "2\t1\twrite\t1\tx\tinst=a th=0 val=5\n"
                    "dump\n[initial]\nn1\tx\t0\t5\n[stable]\nn1\tx\t0\t5\n"
                    "[volatile]\nn1\tx\t0\t5\n")
    src = str(Path(audit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "casim.cli", "audit", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "\tseq 0: txn 1 begins under txn 2, which is not open\n" \
        in done.stdout


def test_a_view_refuses_a_parent_link_that_closes_a_cycle():
    t = Trace()
    for txn, parent in ((1, "-"), (2, "1"), (3, "2"), (1, "3"), (4, "4")):
        t.emit("begin", txn, None, {"parent": parent})
    view = audit.TxnView(t.events)
    assert view.parents == {1: None, 2: 1, 3: 2}
    assert view.top(3) == 1 and view.top(4) == 4
    assert view.is_proper_ancestor(1, 3) and not view.is_proper_ancestor(3, 1)


def test_atomicity_flags_apply_of_an_object_with_no_home():
    text = ("0\t0\tcommit2\t0\t-\tnode=n1 objs=zz phase=apply\n"
            "dump\n[initial]\nn1\tx\t0\t31\n[stable]\n[volatile]\n")
    report = audit.audit_trace(text)
    ok, problems = report["atomicity"]
    assert not ok and not report["ok"]
    assert problems[0] == ("seq 0: apply of zz, which the initial dump does "
                           "not hold")


def _crash_fork(scenario, node, index):
    """The crash sweep's run that crashes `node` after event `index`."""
    base = Simulator(replace(scenario, faults=[]),
                     horizon=scenario.horizon + 300, auto_recover_after=100)
    assert base.run_to(index)
    res = base.fork()
    res.indexed_faults = [Fault("index", index, "crash", node)]
    return res.run()


def test_audits_change_no_event(monkeypatch):
    """Handed a run's emitted events, which the run and its forks share,
    an audit reads them themselves, so no audit pass may change an event
    or its detail dict."""
    runs = [Simulator(load_scenario(str(path))).run()
            for path in sorted(SCENARIOS.glob("*.scn"))]
    crash_recover = load_scenario(str(SCENARIOS / "crash_recover.scn"))
    runs.append(_crash_fork(crash_recover, crash_recover.nodes[0], 10))
    assert runs[-1].crash_checks
    read = []     # the events each audit reads
    real_bracketing = audit.scan_bracketing

    def recording(events, lifecycles):
        read.append(events)
        return real_bracketing(events, lifecycles)

    monkeypatch.setattr(audit, "scan_bracketing", recording)
    for res in runs:
        dumps = res.dumps()
        text = res.trace.render(dumps)
        fresh, _ = parse(text)
        audit.audit_trace(text, emitted=(res.trace.events, dumps))
        audited = read.pop()
        assert len(audited) == len(fresh) > 0
        for a, emitted, b in zip(audited, res.trace.events, fresh):
            assert a is emitted and a.detail is not b.detail
            assert (a.seq, a.time, a.kind, a.txn, a.obj, a.detail) == \
                (b.seq, b.time, b.kind, b.txn, b.obj, b.detail)


def test_audit_trace_rejects_a_shadowing_dump_section():
    """A bogus [stable] section before the real one used to be dropped in
    silence, and one record shadowing another would pass atomicity."""
    res = Simulator(load_scenario(str(SCENARIOS / "flat_transfer.scn"))).run()
    text = res.trace_text()
    assert audit.audit_trace(text)["ok"]
    lines = text.splitlines()
    at = lines.index("[stable]")
    bogus = "\n".join(lines[:at] + ["[stable]", "n9\tzz\t7\t999"]
                      + lines[at:]) + "\n"
    with pytest.raises(MalformedTrace) as e:
        audit.audit_trace(bogus)
    assert e.value.line == at + 3
    assert "repeated dump section 'stable'" in str(e.value)
    record = lines[at + 1]
    shadowed = "\n".join(lines[:at + 2] + [record] + lines[at + 2:]) + "\n"
    with pytest.raises(MalformedTrace) as e:
        audit.audit_trace(shadowed)
    assert e.value.line == at + 3
    node, obj = record.split("\t")[:2]
    assert "repeated dump record %s/%s in [stable]" % (node, obj) in \
        str(e.value)


def test_audit_trace_propagates_malformed():
    with pytest.raises(MalformedTrace):
        audit.audit_trace("0\t0\tnonsense\t-\t-\t-\n")


def test_audit_trace_rejects_a_trace_without_a_dump_section():
    text = _crash_recover_text()
    cut = text[:text.index("dump\n")]
    for bad, missing in [("", "initial"), (cut, "initial"),
                         (text[:text.index("[volatile]")], "volatile")]:
        with pytest.raises(MalformedTrace) as e:
            audit.audit_trace(bad)
        assert str(e.value) == "trace has no [%s] dump section" % missing


def test_durability_problem_names_the_decision_seq():
    t = Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("grant", 0, "x", {"mode": "w"})
    t.emit("write", 0, "x", _op("31"))
    t.emit("commit2", 0, None, {
        "outcome": "commit", "parts": "n1,n2", "phase": "decision"})
    t.emit("commit2", 0, None, {"node": "n1", "objs": "x", "phase": "apply"})
    events, _ = parse(t.render())
    ok, problems = audit.check_durability(events, up_nodes={"n1", "n2"})
    assert not ok
    assert problems == ["seq 3: txn 0 committed but never applied at up "
                        "node n2"]
