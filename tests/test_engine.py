import copy
import gc
import heapq
import weakref
from dataclasses import replace
from pathlib import Path

from casim import audit, sweep
from casim.dag import CONSTRAINT
from casim.engine import Simulator
from casim.scenario import Fault, load_scenario, parse_scenario
from casim.store import decode_value

from conftest import TRANSFER, random_competitive_scenario, run_text

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def stable_value(res, name):
    node = res.store.homes[name]
    value, _version = res.store.nodes[node].stable[name]
    return decode_value(value)


def kinds(res):
    return [ev.kind for ev in res.trace.events]


def find_seq(res, pred):
    for ev in res.trace.events:
        if pred(ev):
            return ev.seq
    raise AssertionError("no matching event")


def test_transfer_commits_and_applies():
    res = run_text(TRANSFER)
    assert res.outcomes == {"transfer": "committed"}
    assert stable_value(res, "acct_a") == 70
    assert stable_value(res, "acct_b") == 70
    ks = kinds(res)
    assert "line_recovery" in ks and "test_line" in ks
    assert ks.count("commit1") == 2  # both participant nodes prepared


def test_failed_acceptance_test_aborts_everything():
    text = TRANSFER.replace("acct_a + acct_b == 140",
                            "acct_a + acct_b == 999")
    res = run_text(text)
    assert res.outcomes == {"transfer": "aborted"}
    assert stable_value(res, "acct_a") == 100
    assert stable_value(res, "acct_b") == 40
    tl = [ev for ev in res.trace.events if ev.kind == "test_line"]
    assert tl and tl[0].detail["result"] == "fail"
    assert tl[0].detail["failed"] == "conserved"


def test_entry_timeout_when_role_never_registers():
    text = TRANSFER.replace("client c2 beta 0 transfer credit\n", "")
    res = run_text(text)
    assert res.outcomes == {"transfer": "aborted"}
    aborts = [ev for ev in res.trace.events if ev.kind == "abort"]
    # no transaction ever began, so the abort is purely instance-level
    assert not aborts
    assert stable_value(res, "acct_a") == 100


def test_unmatched_await_aborts_at_quiescence():
    text = TRANSFER.replace("sync moved emit\n    ", "")
    res = run_text(text)
    assert res.outcomes == {"transfer": "aborted"}
    assert stable_value(res, "acct_b") == 40


UNMET_ORDER = """
node n1
object x n1 0
action a
  footprint x
  role r
    write x x + 1
    exit
end
action b
  footprint x
  role r
    write x x + 2
    exit
end
action p
  footprint x
  role r
    enter b r
    exit
  nested a b
  order a < b
end
action q
  footprint x
  role t
    enter p r
    exit
  nested p
end
client c1 n1 0 q t
seed 1
horizon 500
"""


def test_unmet_order_aborts_the_waiting_instance_at_quiescence():
    res = run_text(UNMET_ORDER)
    assert res.outcomes == {"q": "committed", "q/p": "aborted"}
    assert res.instances["q/p"].abort_cause == "constraint_wait"
    assert stable_value(res, "x") == 0


def test_outcome_unanimity_and_sync_events():
    res = run_text(TRANSFER)
    outcomes = [ev.detail["outcome"] for ev in res.trace.events
                if ev.kind == "outcome"]
    assert len(outcomes) == 2 and len(set(outcomes)) == 1
    emit = find_seq(res, lambda ev: ev.kind == "sync_emit")
    awaited = find_seq(res, lambda ev: ev.kind == "sync_await")
    assert emit < awaited


NESTED = """
node alpha
node beta
object x alpha 10
object log beta 0
action child %(childopts)s
  footprint log
  role c
    write log log + 1
    exit
  test oktest %(childtest)s
end
action parent
  footprint x log
  role p
    write x x + 1
    enter child c
    write x x + 1
    exit
  nested child
end
client c1 alpha 0 parent p
seed 4
horizon 800
"""


def test_nested_commit_folds_into_parent():
    res = run_text(NESTED % {"childopts": "", "childtest": "log == 1"})
    assert res.outcomes == {"parent": "committed",
                            "parent/child": "committed"}
    assert stable_value(res, "x") == 12
    assert stable_value(res, "log") == 1


def test_nested_abort_without_escalation_parent_continues():
    for strategy in ("flatten", "nested"):
        res = run_text(NESTED % {"childopts": "", "childtest": "log == 99"},
                       strategy=strategy)
        assert res.outcomes["parent/child"] == "aborted"
        assert res.outcomes["parent"] == "committed"
        assert stable_value(res, "x") == 12   # parent's own work survives
        assert stable_value(res, "log") == 0  # child's work rolled back


def test_nested_abort_with_escalation_takes_parent_down():
    res = run_text(NESTED % {"childopts": "escalate",
                             "childtest": "log == 99"})
    assert res.outcomes == {"parent": "aborted", "parent/child": "aborted"}
    assert stable_value(res, "x") == 10
    assert stable_value(res, "log") == 0


def test_rogue_entry_to_nested_only_action_rejected():
    text = NESTED % {"childopts": "", "childtest": "log == 1"}
    text += "client rogue beta 1 child c\n"
    res = run_text(text)
    assert any(err == "NotParentParticipant" for err, *_ in res.rejections)
    regs = [ev for ev in res.trace.events
            if ev.kind == "register" and ev.detail.get("ok") == "0"]
    assert regs and regs[0].detail["err"] == "NotParentParticipant"
    # the legitimate run is unaffected
    assert res.outcomes["parent"] == "committed"


def test_second_entry_to_a_taken_nested_role_aborts_the_parent():
    text = NESTED % {"childopts": "", "childtest": "log == 1"}
    text = text.replace("  nested child\n", "  role q\n    enter child c\n"
                        "    exit\n  nested child\n")
    text += "client c2 beta 0 parent q\n"
    res = run_text(text)
    assert [(err, key, role) for err, key, role, _tid in res.rejections] \
        == [("RoleTaken", "child", "c")]
    assert res.outcomes == {"parent": "aborted", "parent/child": "aborted"}
    assert res.instances["parent"].abort_cause == "roletaken"
    assert stable_value(res, "x") == 10
    assert stable_value(res, "log") == 0


ORDERED = """
node alpha
object a alpha 0
object b alpha 0
action first
  footprint a
  role r
    write a a + 1
    exit
end
action second
  footprint b
  role r
    write b b + 1
    exit
end
action parent
  footprint a b
  role r1
    enter second r
    exit
  role r2
    enter first r
    exit
  nested first second
  order first < second
end
client c1 alpha 0 parent r1
client c2 alpha 0 parent r2
seed 9
horizon 800
"""


def test_order_constraint_delays_successor():
    res = run_text(ORDERED)
    assert res.outcomes["parent"] == "committed"
    first_done = find_seq(res, lambda ev: ev.kind == "outcome"
                          and ev.detail["inst"] == "parent/first")
    second_started = find_seq(res, lambda ev: ev.kind == "line_recovery"
                              and ev.detail["inst"] == "parent/second")
    assert first_done < second_started


def test_order_edge_is_added_once_when_its_later_child_starts():
    # `third` starts after both ordered children: no second copy of the edge
    text = ORDERED.replace(
        "    enter second r\n", "    enter second r\n    enter third r\n"
    ).replace("nested first second", "nested first second third").replace(
        "action parent\n",
        "action third\n  footprint a\n  role r\n    read a\n    exit\nend\n"
        "action parent\n")
    for strategy in ("nested", "flatten"):
        res = run_text(text, strategy=strategy)
        assert res.outcomes["parent/third"] == "committed"
        first, second, third = (res.instances["parent/" + n].boundary_nid
                                for n in ("first", "second", "third"))
        assert third > max(first, second)
        assert [e for e in res.instances["parent"].dag.edges
                if e[2] == CONSTRAINT] == [(first, second, CONSTRAINT)]


def test_crash_of_participant_node_aborts_action():
    sc = parse_scenario(TRANSFER)
    sc = replace(sc, faults=[Fault("time", 4, "crash", "beta"),
                             Fault("time", 80, "recover", "beta")])
    res = Simulator(sc).run()
    assert res.outcomes == {"transfer": "aborted"}
    assert stable_value(res, "acct_a") == 100
    assert stable_value(res, "acct_b") == 40
    node, _t, stable_ok, vol_cleared = res.crash_checks[0]
    assert node == "beta" and stable_ok and vol_cleared


def test_coordinator_crash_resolves_to_presumed_abort():
    base = Simulator(parse_scenario(TRANSFER)).run()
    # crash the coordinator right after the first participant prepared
    idx = find_seq(base, lambda ev: ev.kind == "commit1")
    sc = replace(parse_scenario(TRANSFER),
                 faults=[Fault("index", idx, "crash", "alpha"),
                         Fault("time", 200, "recover", "alpha")])
    res = Simulator(sc).run()
    assert res.outcomes == {"transfer": "aborted"}
    assert stable_value(res, "acct_a") == 100
    assert stable_value(res, "acct_b") == 40
    # the recovered coordinator wrote the abort record for resolution
    txn = [ev.txn for ev in res.trace.events if ev.kind == "commit2"
           and ev.detail.get("outcome") == "abort"][0]
    assert res.store.find_log("alpha", "abort", txn) is not None


def test_coordinator_participant_logs_one_abort_after_recovery():
    base = Simulator(parse_scenario(TRANSFER)).run()
    # alpha coordinates and is a participant: crash it right after its own
    # prepare, so the abort is decided while alpha is down
    idx = find_seq(base, lambda ev: ev.kind == "commit1"
                   and ev.detail["node"] == "alpha")
    sc = replace(parse_scenario(TRANSFER),
                 faults=[Fault("index", idx, "crash", "alpha"),
                         Fault("time", 200, "recover", "alpha")])
    res = Simulator(sc).run()
    assert res.outcomes == {"transfer": "aborted"}
    crash = find_seq(res, lambda ev: ev.kind == "crash")
    decision = find_seq(res, lambda ev: ev.kind == "commit2"
                        and ev.detail.get("outcome") == "abort")
    recover = find_seq(res, lambda ev: ev.kind == "recover")
    assert crash < decision < recover
    txn = res.trace.events[decision].txn
    kinds_at_alpha = [rec.kind for rec in res.store.nodes["alpha"].log
                      if rec.txn == txn]
    assert kinds_at_alpha == ["prepare", "abort"]


def test_participant_crash_after_decision_applies_on_recovery():
    base = Simulator(parse_scenario(TRANSFER)).run()
    idx = find_seq(base, lambda ev: ev.kind == "commit2"
                   and ev.detail.get("phase") == "decision")
    sc = replace(parse_scenario(TRANSFER),
                 faults=[Fault("index", idx, "crash", "beta"),
                         Fault("time", 200, "recover", "beta")])
    res = Simulator(sc).run()
    assert res.outcomes == {"transfer": "committed"}
    assert stable_value(res, "acct_b") == 70  # applied during recovery
    applies = [ev for ev in res.trace.events if ev.kind == "commit2"
               and ev.detail.get("phase") == "apply"
               and ev.detail.get("node") == "beta"]
    assert len(applies) == 1


def audits_pass(res, nodes):
    report = audit.audit_trace(res.trace_text(), all_nodes=nodes)
    checks = [v for k, v in report.items() if k != "ok"]
    return len(checks) == 6 and all(ok for ok, _ in checks)


SIMPLE_TRANSFER = """
node n1
node n2
node n3
object a n1 100
object b n2 40
action transfer
  footprint a b
  role debit
    write a a - 30
    exit
  role credit
    write b b + 30
    exit
end
client c1 n1 0 transfer debit
client c2 %(credit_node)s 0 transfer credit
%(faults)s
seed 0
horizon 500
"""


def test_recovery_of_an_uninvolved_node_leaves_an_open_2pc_alone():
    # n3 recovers after n2 prepared, while coordinator n1 still collects acks
    res = run_text(SIMPLE_TRANSFER % {
        "credit_node": "n2",
        "faults": "fault at 1 crash n3\nfault at 4 recover n3"})
    prepared = find_seq(res, lambda ev: ev.kind == "commit1")
    recover = find_seq(res, lambda ev: ev.kind == "recover")
    decision = find_seq(res, lambda ev: ev.kind == "commit2")
    assert prepared < recover < decision
    assert res.outcomes == {"transfer": "committed"}
    assert stable_value(res, "a") == 70 and stable_value(res, "b") == 70
    assert audits_pass(res, ["n1", "n2", "n3"])


def test_recovered_coordinator_applies_commit_at_in_doubt_participant():
    # n2 prepares and crashes; n1 decides commit and crashes with both
    # applies undelivered; n2 recovers while n1 is down, so its prepare
    # stays in doubt until n1's recovery applies the commit at both nodes
    res = run_text(SIMPLE_TRANSFER % {
        "credit_node": "n1",
        "faults": "fault at 4 crash n2\nfault at 9 crash n1\n"
                  "fault at 12 recover n2\nfault at 17 recover n1"})
    assert res.outcomes == {"transfer": "committed"}
    applies = [(ev.time, ev.detail["node"]) for ev in res.trace.events
               if ev.kind == "commit2" and ev.detail["phase"] == "apply"]
    assert applies == [(17, "n1"), (17, "n2")]
    assert stable_value(res, "a") == 70 and stable_value(res, "b") == 70
    assert audits_pass(res, ["n1", "n2", "n3"])


STORAGE_ONLY = """
node alpha
node beta
object x beta 5
action solo
  footprint x
  role w
    write x x + 1
    exit
end
client c1 alpha 0 solo w
seed 1
horizon 400
"""


def test_prepare_timeout_aborts_when_participant_unreachable():
    base = run_text(STORAGE_ONLY)
    assert base.outcomes == {"solo": "committed"}
    idx = find_seq(base, lambda ev: ev.kind == "msg_send"
                   and ev.detail.get("mtype") == "prepare")
    sc = replace(parse_scenario(STORAGE_ONLY),
                 faults=[Fault("index", idx, "crash", "beta")])
    res = Simulator(sc).run()
    assert res.outcomes == {"solo": "aborted"}
    drops = [ev for ev in res.trace.events if ev.kind == "drop"]
    assert drops and drops[0].detail["mtype"] == "prepare"


FOOTPRINT_HOME_DOWN = """
node n1
node n2
object x n1 0
object y n2 0
action a
  footprint x y
  role w
    write x x + 1
    exit
end
client c1 n1 5 a w
fault at 1 crash n2
seed 1
horizon 400
"""


def test_entry_aborts_node_down_when_footprint_home_is_down():
    res = run_text(FOOTPRINT_HOME_DOWN)
    assert res.outcomes == {"a": "aborted"}
    assert res.instances["a"].abort_cause == "node_down"
    ks = kinds(res)
    assert "line_recovery" not in ks and "begin" not in ks
    report = audit.audit_trace(res.trace_text(), all_nodes=["n1", "n2"])
    checks = [v for k, v in report.items() if k != "ok"]
    assert len(checks) == 6 and all(ok for ok, _ in checks)


def test_wait_die_competition_zero_retries():
    text = """
node alpha
object counter alpha 0
action bump
  footprint counter
  role w
    read counter
    write counter counter + 1
    exit
end
client c1 alpha 0 bump#one w
client c2 alpha 0 bump#two w
seed 2
horizon 400
"""
    res = run_text(text)
    vals = sorted(res.outcomes.values())
    # either serialized cleanly or the younger died; never both aborted
    assert vals in (["committed", "committed"], ["aborted", "committed"])
    expected = vals.count("committed")
    assert stable_value(res, "counter") == expected


def test_submission_to_down_node_never_registers():
    sc = parse_scenario(TRANSFER)
    sc = replace(sc, faults=[Fault("time", 0, "crash", "beta"),
                             Fault("time", 300, "recover", "beta")])
    res = Simulator(sc).run()
    assert res.outcomes == {"transfer": "aborted"}  # entry timeout
    regs = [ev for ev in res.trace.events if ev.kind == "register"]
    assert len(regs) == 1  # only the alpha-side client got in


def test_replay_is_byte_identical():
    sc = parse_scenario(TRANSFER)
    texts = {Simulator(sc).run().trace_text() for _ in range(3)}
    assert len(texts) == 1


def test_seed_changes_schedule_but_not_safety():
    a = run_text(TRANSFER, seed=1).trace_text()
    b = run_text(TRANSFER, seed=2).trace_text()
    assert a != b  # different message latencies / priorities


def test_strategy_equivalent_stable_state():
    text = NESTED % {"childopts": "", "childtest": "log == 1"}
    f = run_text(text, strategy="flatten")
    n = run_text(text, strategy="nested")
    assert f.store.dump_stable() == n.store.dump_stable()
    # nested strategy runs the child in its own transaction
    f_begins = sum(1 for ev in f.trace.events if ev.kind == "begin")
    n_begins = sum(1 for ev in n.trace.events if ev.kind == "begin")
    assert f_begins == 1 and n_begins == 2


def test_deep_copy_runs_like_the_original():
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        sc = load_scenario(str(path))
        fresh = Simulator(sc).run().trace_text()
        sim = Simulator(sc)
        clone = copy.deepcopy(sim)
        assert clone.run().trace_text() == fresh, path.name
        assert sim.run().trace_text() == fresh, path.name


def test_deep_copy_of_queued_work_is_bound_to_the_copy():
    sc = load_scenario(str(SCENARIO_DIR / "crash_recover.scn"))
    sim = Simulator(sc, horizon=40)
    sim.run()
    assert sim._q  # the recovery at time 80 is still queued
    clone = copy.deepcopy(sim)
    assert len(clone._q) == len(sim._q)
    for entry in clone._q:
        assert len(entry) == 5
        assert entry[3].__self__ is clone


def test_find_log_in_a_deep_copy_of_a_mid_run_simulator():
    # stopped at the commit decision: both applies are still queued
    sim = Simulator(parse_scenario(TRANSFER), horizon=10).run()
    assert stable_value(sim, "acct_b") == 40
    clone = copy.deepcopy(sim)
    rec = clone.store.find_log("beta", "prepare", 0)
    assert rec is clone.store.nodes["beta"].log[0]
    assert rec is not sim.store.find_log("beta", "prepare", 0)
    assert rec == sim.store.find_log("beta", "prepare", 0)
    while clone._q:  # the copy's queued applies read the copy's log
        t, _p, _s, fn, args = heapq.heappop(clone._q)
        clone.trace.now = t
        fn(*args)
    assert stable_value(clone, "acct_b") == 70
    assert stable_value(sim, "acct_b") == 40
    assert clone.store.find_log("alpha", "end", 0) is \
        clone.store.nodes["alpha"].log[-1]


def test_deep_copy_of_a_mid_run_simulator_keeps_its_own_clock():
    # stopped after the first transfer, with the late one still queued
    text = TRANSFER.replace("seed 3",
                            "client c3 alpha 100 transfer#late debit\n"
                            "client c4 beta 100 transfer#late credit\n"
                            "seed 3")
    sim = Simulator(parse_scenario(text), horizon=60).run()
    before = sim.trace.lines()
    clone = copy.deepcopy(sim)
    clone.trace.now = 1000  # the copy alone jumps ahead, then runs on

    def drain(s):
        while s._q:
            t, _p, _s, fn, args = heapq.heappop(s._q)
            s.trace.now = max(s.trace.now, t)
            fn(*args)

    def late_txn_times(s):
        late = [ev for ev in s.trace.events[len(before):]
                if ev.kind in ("begin", "grant", "read", "write")]
        assert {ev.kind for ev in late} == {"begin", "grant", "read", "write"}
        assert s.instances["transfer#late"].status == "committed"
        return [ev.time for ev in late]

    drain(clone)
    assert sim.trace.lines() == before and sim.now <= 60
    assert min(late_txn_times(clone)) >= 1000
    drain(sim)  # the original, run on by itself, keeps its own times
    assert sim.trace.lines()[:len(before)] == before
    assert max(late_txn_times(sim)) < 1000


def test_a_finished_run_is_freed_by_reference_counting(monkeypatch):
    # no reference cycle inside a simulator: with the GC off, each one
    # dies when its last reference goes
    refs = []

    class Tracked(Simulator):
        def __init__(self, scenario, **kw):
            super().__init__(scenario, **kw)
            refs.append(weakref.ref(self))

    def run_and_audit(sc, **kw):
        sim = Tracked(sc, **kw).run()
        report = audit.audit_trace(sim.trace_text(), all_nodes=sc.nodes)
        assert report["ok"], report

    monkeypatch.setattr(sweep, "Simulator", Tracked)
    gc.collect()
    gc.disable()
    try:
        for path in sorted(SCENARIO_DIR.glob("*.scn")):
            sc = load_scenario(str(path))
            for strategy in (None, "flatten", "nested"):
                for seed in range(5):
                    run_and_audit(sc, seed=seed, strategy=strategy)
        n_reference = len(refs)
        rows = sweep.crash_sweep(
            load_scenario(str(SCENARIO_DIR / "crash_recover.scn")))
        for seed in range(50):
            run_and_audit(random_competitive_scenario(seed))
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
    finally:
        gc.enable()
    # the sweep's fault-free base run, then one run per crash point
    assert len(refs) == n_reference + 1 + len(rows) + 50
    assert alive == []


def test_indexed_faults_fire_in_index_then_file_order():
    sc = replace(parse_scenario(TRANSFER),
                 faults=[Fault("index", 5, "crash", "alpha"),
                         Fault("index", 5, "crash", "beta"),
                         Fault("time", 200, "recover", "alpha")])
    sim = Simulator(sc)
    sim.run()
    assert not sim.indexed_faults
    # each fault runs right after the handler that emitted event 5
    assert [(ev.seq, ev.kind, ev.detail["node"]) for ev in sim.trace.events
            if ev.kind in ("crash", "recover")] == \
        [(6, "crash", "alpha"), (9, "crash", "beta"), (10, "recover", "alpha")]


def test_indexed_fault_on_an_event_of_a_quiesce_abort():
    # nothing emits `moved`: at the empty queue, quiescence aborts the
    # instance with events 12 (abort) to 14 (the second outcome)
    sc = parse_scenario(TRANSFER.replace("sync moved emit\n    ", ""))
    base = Simulator(sc).run()
    assert base.trace.events[12].detail == {"cause": "unmatched_await"}
    assert len(base.trace.events) == 15
    sim = Simulator(replace(sc, faults=[Fault("index", 14, "crash", "alpha"),
                                        Fault("index", 12, "crash", "beta")]))
    sim.run()
    assert sim.trace.lines()[:15] == base.trace.lines()
    assert [(ev.seq, ev.time, ev.kind, ev.detail["node"])
            for ev in sim.trace.events[15:]] == \
        [(15, 50, "crash", "beta"), (16, 50, "crash", "alpha")]
    assert not sim.indexed_faults
