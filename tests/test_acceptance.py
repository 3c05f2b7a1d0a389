"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line (run with -s to see them on success)."""

import itertools
import random

import pytest

from casim import audit
from casim import trace as trace_mod
from casim.dag import FLATTEN, NESTED, count_admissible_orders
from casim.engine import Simulator
from casim.errors import DeadlockVictim, ModeViolation
from casim.locks import LockTable, conflicts
from casim.scenario import load_scenario, parse_scenario
from casim.sweep import crash_sweep

from conftest import random_competitive_scenario

SCENARIO_FILES = ["scenarios/flat_transfer.scn", "scenarios/nested_audit.scn",
                  "scenarios/deep_tree.scn", "scenarios/competitive.scn",
                  "scenarios/crash_recover.scn"]

N_SEEDED_RUNS = 500


def report(num, desc, ok):
    print("criterion %d (%s): %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, desc)


@pytest.fixture(scope="module")
def sweep_rows():
    """Crash sweep over every event index of the three reference
    scenarios named by criterion 1."""
    rows = {}
    for path in ["scenarios/flat_transfer.scn", "scenarios/nested_audit.scn",
                 "scenarios/deep_tree.scn"]:
        rows[path] = crash_sweep(load_scenario(path))
    return rows


@pytest.fixture(scope="module")
def seeded_runs():
    """One audited run per seed over generated competitive scenarios."""
    out = []
    for seed in range(N_SEEDED_RUNS):
        sc = random_competitive_scenario(seed)
        res = Simulator(sc, seed=seed).run()
        events, dumps = trace_mod.parse(res.trace_text())
        out.append((sc, res, events, dumps))
    return out


def test_criterion_1_atomicity_every_nesting_level(sweep_rows):
    bad = [r for rows in sweep_rows.values() for r in rows
           if not r["ok"] or "atomicity" in r["failures"]]
    total = sum(len(rows) for rows in sweep_rows.values())
    assert total > 100
    report(1, "atomicity at every nesting level, %d crash points" % total,
           not bad)


def _brute_force_serializable(events):
    """Oracle: enumerate all serial orders of committed top-level
    transactions and accept iff one is consistent with every conflict."""
    view = audit.TxnView(events)
    committed = view.committed_top()
    ops = []
    for ev in events:
        if ev.kind in ("read", "write") and view.op_counts(ev):
            top = view.top(ev.txn)
            if top in committed:
                ops.append((ev.seq, top, ev.obj, ev.kind == "write"))
    pairs = set()
    for i, (_s, t1, o1, w1) in enumerate(ops):
        for _s2, t2, o2, w2 in ops[i + 1:]:
            if t1 != t2 and o1 == o2 and (w1 or w2):
                pairs.add((t1, t2))
    for perm in itertools.permutations(sorted(committed)):
        pos = {t: i for i, t in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in pairs):
            return True
    return not committed


def test_criterion_2_serializability_vs_bruteforce(seeded_runs):
    mismatches = 0
    failures = 0
    for _sc, _res, events, _dumps in seeded_runs:
        ok, _info = audit.audit_serializability(events)
        oracle = _brute_force_serializable(events)
        if ok != oracle:
            mismatches += 1
        if not ok:
            failures += 1
    report(2, "serializability over %d seeded runs, oracle-checked"
           % len(seeded_runs), mismatches == 0 and failures == 0)


SMUGGLE_BAIT = """
node n1
object x n1 0
object y n1 0
action writer
  footprint x y
  role w
    write x x + 1
    write y y + 1
    write y y + 1
    write y y + 1
    exit
end
action reader
  footprint x
  role r
    read x
    exit
end
client c1 n1 0 writer w
client c2 n1 2 reader r
horizon 400
"""


def test_criterion_3_no_smuggling_and_mutation_detected(seeded_runs):
    leaks = sum(0 if audit.scan_smuggling(events)[0] else 1
                for _sc, _res, events, _d in seeded_runs)
    sc = parse_scenario(SMUGGLE_BAIT)
    caught = 0
    for seed in range(10):
        mutant = Simulator(sc, seed=seed, unsafe_early_release=True).run()
        events, _ = trace_mod.parse(mutant.trace_text())
        if not audit.scan_smuggling(events)[0]:
            caught += 1
        clean = Simulator(sc, seed=seed).run()
        cev, _ = trace_mod.parse(clean.trace_text())
        assert audit.scan_smuggling(cev)[0]
    report(3, "no smuggling in %d runs; broken variant caught %d/10"
           % (len(seeded_runs), caught), leaks == 0 and caught == 10)


def test_criterion_4_exit_sync_unanimous_outcome(seeded_runs):
    ok = True
    corpora = [trace_mod.parse(Simulator(load_scenario(p)).run().trace_text())
               for p in SCENARIO_FILES]
    corpora += [(events, dumps) for _s, _r, events, dumps in seeded_runs]
    for events, _dumps in corpora:
        per_inst = {}
        for ev in events:
            if ev.kind == "outcome":
                per_inst.setdefault(ev.detail["inst"],
                                    set()).add(ev.detail["outcome"])
        if any(len(v) != 1 for v in per_inst.values()):
            ok = False
        if not audit.scan_bracketing(events)[0]:
            ok = False
    report(4, "synchronized exits with unanimous outcomes", ok)


def test_criterion_5_nesting_enforcement():
    ok = True
    # rogue top-level entry into a nested-only definition, many variants
    for path in ("scenarios/nested_audit.scn", "scenarios/deep_tree.scn"):
        sc = load_scenario(path)
        nested_only = sorted({n for d in sc.defs.values() for n in d.nested})
        for target in nested_only:
            role = next(iter(sc.defs[target].roles))
            text = open(path).read() + "\nclient rogue %s 1 %s %s\n" % (
                sc.nodes[0], target, role)
            res = Simulator(parse_scenario(text)).run()
            if not any(err == "NotParentParticipant"
                       for err, *_ in res.rejections):
                ok = False
    # mode gating: same-kind must reject mixed-kind nesting, general allows
    mixed = """
node n1
object x n1 0
action single
  footprint x
  role r
    read x
end
action multi mode=%s
  footprint x
  role a
    enter single r
    exit
  role b
    exit
  nested single
end
client c1 n1 0 multi a
client c2 n1 0 multi b
"""
    try:
        parse_scenario(mixed % "nested_same_kind")
        ok = False
    except ModeViolation:
        pass
    res = Simulator(parse_scenario(mixed % "general")).run()
    if res.outcomes.get("multi") != "committed":
        ok = False
    report(5, "nesting enforcement and mode gating", ok)


SIBLINGS = """
node n1
node n2
object p1 n1 %(v1)d
object p2 n2 %(v2)d
action left
  footprint p1
  role r
    write p1 p1 + %(a)d
    exit
end
action right
  footprint p2
  role r
    write p2 p2 + %(b)d
    exit
end
action parent
  footprint p1 p2
  role ra
    enter left r
    exit
  role rb
    enter right r
    exit
  nested left right
end
client c1 n1 0 parent ra
client c2 n2 0 parent rb
seed %(seed)d
horizon 800
"""


def test_criterion_6_strategy_equivalence_and_interleavings():
    ok = True
    for i in range(20):
        sc = parse_scenario(SIBLINGS % {"v1": i, "v2": 2 * i + 1,
                                        "a": i % 5 + 1, "b": i % 7 + 1,
                                        "seed": i})
        flat = Simulator(sc, strategy="flatten").run()
        nest = Simulator(sc, strategy="nested").run()
        if flat.store.dump_stable() != nest.store.dump_stable():
            ok = False
        if flat.outcomes["parent"] != "committed":
            ok = False
        dag = nest.instances["parent"].dag
        if not (len(dag.nodes) <= 8
                and count_admissible_orders(dag, NESTED)
                > count_admissible_orders(dag, FLATTEN)):
            ok = False
    report(6, "flatten/nested byte-identical stable dumps over 20 "
              "scenarios; nested admits more interleavings", ok)


def test_criterion_7_lock_rule_oracle_10000_requests():
    rng = random.Random(42)
    parent = {}
    table = LockTable(lambda a, b: _is_anc(parent, a, b))
    txns = []
    divergence = 0
    next_id = 0
    for _ in range(10000):
        roll = rng.random()
        if roll < 0.15 or not txns:
            p = rng.choice(txns) if txns and rng.random() < 0.5 else None
            parent[next_id] = p
            txns.append(next_id)
            next_id += 1
            continue
        if roll < 0.25 and txns:
            victim = rng.choice(txns)
            table.release_all(victim)
            txns.remove(victim)
            continue
        txn = rng.choice(txns)
        obj = "o%d" % rng.randrange(4)
        mode = rng.choice("rw")
        expected = _oracle(table, parent, txn, obj, mode)
        try:
            got = table.acquire(txn, obj, mode, tag=txn)
        except DeadlockVictim:
            got = "die"
        if got != expected:
            divergence += 1
        if got == "die":
            table.release_all(txn)
            txns.remove(txn)
    report(7, "lock adjudication matches rule-table oracle over 10000 "
              "requests", divergence == 0)


def _is_anc(parent, a, b):
    p = parent.get(b)
    while p is not None:
        if p == a:
            return True
        p = parent.get(p)
    return False


def _oracle(table, parent, txn, obj, mode):
    """Literal transcription of the grant rules, reading the table's
    holder state directly."""
    held = table.holders.get(obj, {}).get(txn)
    if held == "w" or held == mode:
        return "granted"
    conflicting = [h for h, m in table.holders.get(obj, {}).items()
                   if h != txn and conflicts(m, mode)]
    if all(_is_anc(parent, h, txn) for h in conflicting):
        return "granted"
    if any(not _is_anc(parent, h, txn) and h < txn for h in conflicting):
        return "die"
    return "queued"


def test_criterion_8_determinism_three_repetitions():
    ok = True
    for path in SCENARIO_FILES:
        sc = load_scenario(path)
        texts = {Simulator(sc).run().trace_text() for _ in range(3)}
        if len(texts) != 1:
            ok = False
    report(8, "byte-identical replays across 3 repetitions per scenario", ok)


def test_criterion_9_crash_stop_storage_semantics(sweep_rows):
    bad = [r for rows in sweep_rows.values() for r in rows
           if not (r["stable_unchanged"] and r["volatile_cleared"])]
    report(9, "stable unchanged and volatile reset at every crash point",
           not bad)
