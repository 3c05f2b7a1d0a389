import gc
import runpy
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from casim import audit, sweep, trace
from casim.engine import Simulator
from casim.errors import MalformedTrace
from casim.scenario import Fault, load_scenario, parse_scenario
from casim.store import ObjectStore
from casim.sweep import crash_sweep, render_rows, seed_sweep

from conftest import TRANSFER, random_competitive_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def test_seed_sweep_rows_all_audited():
    rows = seed_sweep(parse_scenario(TRANSFER), 0, 4)
    assert len(rows) == 5
    assert all(r["ok"] for r in rows), rows
    assert {r["seed"] for r in rows} == set(range(5))


def test_crash_sweep_covers_both_nodes_and_passes():
    rows = crash_sweep(parse_scenario(TRANSFER), stride=8)
    assert {r["node"] for r in rows} == {"alpha", "beta"}
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]
    assert all(r["stable_unchanged"] and r["volatile_cleared"] for r in rows)
    # some crash points must actually abort the transfer
    outcomes = {r["outcomes"].get("transfer") for r in rows}
    assert "aborted" in outcomes and "committed" in outcomes


def test_render_rows_table():
    rows = seed_sweep(parse_scenario(TRANSFER), 0, 1)
    table = render_rows(rows)
    lines = table.strip().split("\n")
    assert lines[0].startswith("seed\t")
    assert len(lines) == 3


def test_sweeps_audit_the_events_each_run_emitted(monkeypatch):
    """Every sweep audit is given its run's text with the events and dump
    records that text was rendered from, so each event it reads is one the
    run emitted, and no line of an audited text is split: only each
    sweep's format guard parses a text in full, the crash sweep's
    fault-free run and first fork and the seed sweep's first seed."""
    emitted = []    # each run's events, as it finished
    audited = []
    split = []      # each text the parser split into lines
    real_audit, real_lines = audit.audit_trace, trace._lines

    class Recording(Simulator):
        def run(self):
            emitted.append(super().run().trace.events)
            return self

    def recording(text, all_nodes=None, emitted_run=None, state=None):
        events, dumps = emitted_run
        rendered = trace.Trace()
        rendered.events = events
        audited.append(len(events) == len(emitted[-1]) > 0 and
                       all(a is b for a, b in zip(events, emitted[-1])) and
                       rendered.render(dumps) == text)
        return real_audit(text, all_nodes, emitted_run, state)

    def lines(text):
        split.append(text)
        return real_lines(text)

    monkeypatch.setattr(sweep, "Simulator", Recording)
    monkeypatch.setattr(audit, "audit_trace", recording)
    monkeypatch.setattr(trace, "_lines", lines)
    sc = load_scenario(str(SCENARIO_DIR / "crash_recover.scn"))
    rows = crash_sweep(sc, stride=5)
    assert len(split) == 2
    rows += seed_sweep(sc, 0, 4)
    assert len(split) == 3
    assert all(r["ok"] for r in rows)
    assert len(audited) == len(rows) > 5 and all(audited)


@pytest.mark.parametrize("run_sweep", [
    lambda sc: seed_sweep(sc, sc.seed, sc.seed + 2),
    lambda sc: crash_sweep(sc, stride=7)], ids=["seeds", "crash"])
def test_sweep_format_guard_rejects_lines_that_do_not_parse_back(
        monkeypatch, run_sweep):
    """If a rendered line no longer parses back into its event (here a
    read's value rendered with a digit more, which no audit reads), the
    audits, which read the emitted events, would not see it, so each
    sweep's full parse of a first run rejects it: the seed sweep's first
    seed, the crash sweep's fault-free run."""
    read = ("read", True, True, "inst", "th", "val")   # val ends the line
    fmt = trace._FORMATTERS[read]
    sc = load_scenario(str(SCENARIO_DIR / "flat_transfer.scn"))
    run_sweep(sc)
    monkeypatch.setitem(trace._FORMATTERS, read,
                        lambda ev, ints: fmt(ev, ints) + "0")
    res = Simulator(sc).run()
    text = res.trace_text()
    events, _ = trace.parse(text)
    at = next(i for i, ev in enumerate(events) if ev.kind == "read")
    assert events[at].detail["val"] == res.trace.events[at].detail["val"] \
        + "0"
    assert audit.audit_trace(text)["ok"]    # the text alone is consistent
    with pytest.raises(MalformedTrace) as e:
        run_sweep(sc)
    assert str(e.value) == ("line %d: parsing this line does not give back "
                            "the event it was rendered from" % (at + 1))


def _three_fields(lines):
    return [lines[0].rsplit("\t", 1)[0]] + lines[1:]


def _two_records_in_one(lines):
    """The first record followed, inside its own line, by a well-formed
    record of an object no node holds."""
    node, name, rest = lines[0].split("\t", 2)
    return ["%s\n%s\t%s_2\t%s" % (lines[0], node, name, rest)] + lines[1:]


@pytest.mark.parametrize("edit,message", [
    (_three_fields, "expected 4 tab-separated fields in a dump record"),
    (_two_records_in_one, "parsing this line does not give back the "
                          "[initial] record it was rendered from")],
    ids=["three_fields", "two_records_in_one"])
@pytest.mark.parametrize("run_sweep", [
    lambda sc: seed_sweep(sc, sc.seed, sc.seed + 2),
    lambda sc: crash_sweep(sc, stride=7)], ids=["seeds", "crash"])
def test_sweep_format_guard_rejects_dump_records_that_do_not_parse_back(
        monkeypatch, run_sweep, edit, message):
    """The audits read the dump records each run rendered, not the
    text's, so each sweep's full parse of a first run also checks that
    the text's dump records are the rendered ones, and stops at the first
    line that is not."""
    real = ObjectStore.dump_stable
    monkeypatch.setattr(ObjectStore, "dump_stable",
                        lambda store: edit(real(store)))
    sc = load_scenario(str(SCENARIO_DIR / "flat_transfer.scn"))
    # the first line of the first record, where the text stops matching
    bad = edit(real(Simulator(sc).store))[0].split("\n")[0]
    line = Simulator(sc).run().trace_text().split("\n").index(bad) + 1
    with pytest.raises(MalformedTrace) as e:
        run_sweep(sc)
    assert str(e.value) == "line %d: %s" % (line, message)


def test_sweeps_hold_one_run_at_a_time(monkeypatch):
    """Each run is freed once its row is built, before the next one.  A
    crash sweep also holds, while it runs the forks of one node, that
    node's paused fault-free base, which never runs to its end."""
    live = []
    others = []     # per run: (id, horizon, crashes) of each other
                    # simulator alive as it starts

    class Tracked(Simulator):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            live.append(weakref.ref(self))

        def fork(self):
            sim = super().fork()
            live.append(weakref.ref(sim))
            return sim

        def run(self):
            live[:] = [ref for ref in live if ref() is not None]
            others.append([(id(ref()), ref().horizon,
                            len(ref().crash_checks))
                           for ref in live if ref() is not self])
            return super().run()

    monkeypatch.setattr(sweep, "Simulator", Tracked)
    sc = parse_scenario(TRANSFER)
    gc.collect()
    gc.disable()
    try:
        seed_runs = len(seed_sweep(sc, 0, 3))
        crash_runs = len(crash_sweep(sc, stride=8))
    finally:
        gc.enable()
    assert len(others) == seed_runs + 1 + crash_runs
    # the seed runs and the crash sweep's fault-free run that counts events
    assert others[:seed_runs + 1] == [[]] * (seed_runs + 1)
    forks = others[seed_runs + 1:]
    assert all(len(sims) == 1 for sims in forks)
    assert all(horizon == sc.horizon + 300 and crashes == 0
               for [(_id, horizon, crashes)] in forks)
    assert len({sims[0][0] for sims in forks}) == len(sc.nodes)


def _reference_crash_sweep(scenario, nodes=None, recover_after=100,
                           stride=1):
    """The crash sweep as it was before forking: each crash run simulates
    its whole trace, with the crash as a `fault index`.  Returns the rows
    and each run's (trace text, crash checks)."""
    n_events = len(Simulator(replace(scenario, faults=[])).run().trace.events)
    horizon = scenario.horizon + recover_after + 200
    rows, runs = [], []
    for node in (nodes or scenario.nodes):
        for index in range(0, n_events, stride):
            sc = replace(scenario,
                         faults=[Fault("index", index, "crash", node)])
            res = Simulator(sc, horizon=horizon,
                            auto_recover_after=recover_after).run()
            runs.append((res.trace_text(), res.crash_checks))
            report = sweep.audit_run(res, scenario.nodes)[2]
            stable_ok = all(c[2] for c in res.crash_checks)
            vol_ok = all(c[3] for c in res.crash_checks)
            rows.append({
                "node": node,
                "index": index,
                "time": res.crash_checks[0][1] if res.crash_checks else None,
                "outcomes": dict(res.outcomes),
                "ok": report["ok"] and stable_ok and vol_ok,
                "failures": sweep._failures(report),
                "stable_unchanged": stable_ok,
                "volatile_cleared": vol_ok,
            })
    return rows, runs


def _forked_crash_sweep(monkeypatch, scenario, **kw):
    """crash_sweep's rows and each run's (trace text, crash checks)."""
    runs = []
    audit_run = sweep.audit_run

    def recording(res, *args, **kw):
        audited = audit_run(res, *args, **kw)
        runs.append((audited[0], res.crash_checks))
        return audited

    with monkeypatch.context() as m:
        m.setattr(sweep, "audit_run", recording)
        rows = crash_sweep(scenario, **kw)
    return rows, runs


def _assert_same_sweep(monkeypatch, scenario, **kw):
    rows, runs = _forked_crash_sweep(monkeypatch, scenario, **kw)
    ref_rows, ref_runs = _reference_crash_sweep(scenario, **kw)
    assert len(runs) == len(ref_runs)
    for i, (run, ref) in enumerate(zip(runs, ref_runs)):
        assert run == ref, (rows[i]["node"], rows[i]["index"])
    assert render_rows(rows) == render_rows(ref_rows)
    assert rows == ref_rows
    return rows


@pytest.mark.parametrize("recover_after", [100, 1])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob(
    "*.scn")))
def test_forked_sweep_matches_reexecution(monkeypatch, name, stride,
                                          recover_after):
    rows = _assert_same_sweep(monkeypatch,
                              load_scenario(str(SCENARIO_DIR / name)),
                              stride=stride, recover_after=recover_after)
    assert any(r["time"] is not None for r in rows)


def test_forked_sweep_matches_reexecution_on_random_scenarios(monkeypatch):
    for seed in range(30):
        _assert_same_sweep(monkeypatch, random_competitive_scenario(seed))


def test_forked_sweep_matches_reexecution_on_the_crash_workload(monkeypatch):
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    sc = parse_scenario(workloads["crash_sweep"](1))
    rows = _assert_same_sweep(monkeypatch, sc,
                              stride=workloads["CRASH_STRIDE"])
    assert len(rows) == 608 and all(r["ok"] for r in rows)


def _dags(sim):
    dags = {key: inst.dag for key, inst in sim.instances.items()}
    return {key: (dag.nodes, dag.edges) for key, dag in dags.items()
            if dag is not None}


def test_crash_sweep_forks_have_the_dags_of_fresh_runs(monkeypatch):
    """Each fork's instances build their DAGs as a run that simulates its
    whole trace with the same `fault index` crash does."""
    sc = load_scenario(str(SCENARIO_DIR / "nested_audit.scn"))
    forks = []
    audit_run = sweep.audit_run

    def recording(res, *args, **kw):
        forks.append(_dags(res))
        return audit_run(res, *args, **kw)

    monkeypatch.setattr(sweep, "audit_run", recording)
    rows = crash_sweep(sc, recover_after=7)
    assert len(forks) == len(rows) > 0
    horizon = sc.horizon + 7 + 200
    for row, dags in zip(rows, forks):
        crash = replace(sc, faults=[Fault("index", row["index"], "crash",
                                          row["node"])])
        fresh = Simulator(crash, horizon=horizon, auto_recover_after=7).run()
        assert dags == _dags(fresh), (row["node"], row["index"])
    assert any(node.kind == "nested"
               for dags in forks for nodes, _edges in dags.values()
               for node in nodes)


def test_run_to_past_the_end_of_a_run():
    sc = parse_scenario(TRANSFER)
    fresh = Simulator(sc).run()
    n = len(fresh.trace.events)
    base = Simulator(sc)
    assert base.run_to(n - 1)
    assert len(base.trace.events) == n
    assert not base.run_to(n)
    assert not base.run_to(n)   # an ended run stays ended
    assert len(base.trace.events) == n
    # a fork of the ended run, and one given a crash sweep's crash at an
    # index the run never reached: that fault never fires
    for faults in ([], [Fault("index", n, "crash", sc.nodes[0])]):
        fork = base.fork()
        fork.indexed_faults = faults
        assert fork.run().trace_text() == fresh.trace_text()
        assert fork.crash_checks == []
    assert base.run().trace_text() == fresh.trace_text()


def _assert_resumed_audits_match_full_parses(monkeypatch, scenario, unsafe,
                                             **kw):
    """Every crash fork's report, from the audit state it resumes, equals
    the audit of its text parsed in full; returns the reports."""
    reports = []
    real_audit = audit.audit_trace

    class Run(Simulator):
        def __init__(self, *args, **kw):
            super().__init__(*args, unsafe_early_release=unsafe, **kw)

    def resumed(text, all_nodes, emitted, state):
        assert state is not None and state.seen > 0
        report = real_audit(text, all_nodes, emitted, state)
        assert report == real_audit(text, all_nodes)
        reports.append(report)
        return report

    with monkeypatch.context() as m:
        m.setattr(sweep, "Simulator", Run)
        m.setattr(audit, "audit_trace", resumed)
        crash_sweep(scenario, **kw)
    return reports


@pytest.mark.parametrize("unsafe", [False, True])
def test_resumed_crash_fork_audits_match_full_parses(monkeypatch, unsafe):
    """Over each reference scenario's crash sweep at stride 1, recovering
    after 100 and after 1 tick, and over four generated competitive
    scenarios' sweeps, each with and without early release of write
    locks.  Early release fails no report of the reference sweeps, and
    about three in four of the generated ones."""
    reports = []
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        for recover_after in (100, 1):
            reports += _assert_resumed_audits_match_full_parses(
                monkeypatch, load_scenario(str(path)), unsafe,
                recover_after=recover_after)
    assert len(reports) > 800 and all(r["ok"] for r in reports)
    for seed in range(4):
        reports += _assert_resumed_audits_match_full_parses(
            monkeypatch, random_competitive_scenario(seed), unsafe)
    assert any(not r["ok"] for r in reports) == unsafe


@pytest.mark.parametrize("unsafe", [False, True])
def test_resumed_crash_fork_audits_match_on_the_crash_workload(monkeypatch,
                                                               unsafe):
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    sc = parse_scenario(workloads["crash_sweep"](1))
    reports = _assert_resumed_audits_match_full_parses(
        monkeypatch, sc, unsafe, stride=workloads["CRASH_STRIDE"])
    assert len(reports) == 608 and all(r["ok"] for r in reports)
