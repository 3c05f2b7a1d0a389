"""Systematic fault and seed sweeps.

The crash sweep crashes a node once per (node, trace-event index), right
after that event, recovers it a fixed interval later, and audits every
run.  Each node's crash runs fork from one fault-free run that pauses at
each crash point in turn, so the prefix they share is simulated once per
node, not once per crash point.  Each run's audit still reads its whole
trace text, but parses only the event lines the previous run's text did
not have: one `trace.parse` reuse dict serves the whole sweep.  The seed
sweep reruns the scenario across a seed range; its runs share few lines,
so it parses each text whole.  Both return one verdict row per run.
"""

from dataclasses import replace

from . import audit
from .engine import Simulator
from .scenario import Scenario


def _audit_run(res, all_nodes, reuse=None):
    report = audit.audit_trace(res.trace_text(), all_nodes=all_nodes,
                               reuse=reuse)
    failures = [name for name, v in report.items()
                if name != "ok" and not v[0]]
    return report["ok"], failures


def crash_sweep(scenario: Scenario, nodes=None, recover_after=100,
                stride=1) -> list:
    """One row per injected crash point: {node, index, time, outcomes,
    ok, failures, stable_unchanged, volatile_cleared}."""
    fault_free = replace(scenario, faults=[])
    n_events = len(Simulator(fault_free).run().trace.events)
    horizon = scenario.horizon + recover_after + 200
    rows = []
    reuse = {}      # the previous run's event lines -> their events
    for node in (nodes or scenario.nodes):
        base = Simulator(fault_free, horizon=horizon,
                         auto_recover_after=recover_after)
        for index in range(0, n_events, stride):
            reached = base.run_to(index)
            res = base.fork()
            if reached:     # as the run loop fires `fault index <index>`
                res.inject_fault(res.now, "crash", node, prio=-1.0)
            res.run()
            ok, failures = _audit_run(res, scenario.nodes, reuse)
            stable_ok = all(c[2] for c in res.crash_checks)
            vol_ok = all(c[3] for c in res.crash_checks)
            rows.append({
                "node": node,
                "index": index,
                "time": res.crash_checks[0][1] if res.crash_checks else None,
                "outcomes": dict(res.outcomes),
                "ok": ok and stable_ok and vol_ok,
                "failures": failures,
                "stable_unchanged": stable_ok,
                "volatile_cleared": vol_ok,
            })
            del res     # free this run before the next one simulates
    return rows


def seed_sweep(scenario: Scenario, start: int, stop: int) -> list:
    """Inclusive seed range; one audited run per seed."""
    rows = []
    for seed in range(start, stop + 1):
        res = Simulator(scenario, seed=seed).run()
        ok, failures = _audit_run(res, scenario.nodes)
        rows.append({
            "seed": seed,
            "outcomes": dict(res.outcomes),
            "ok": ok,
            "failures": failures,
        })
        del res
    return rows


def render_rows(rows) -> str:
    if not rows:
        return "no runs\n"
    keys = [k for k in rows[0] if k != "outcomes"]
    out = ["\t".join(keys + ["outcomes"])]
    for row in rows:
        cells = [",".join(row[k]) if isinstance(row[k], list) else str(row[k])
                 for k in keys]
        cells.append(",".join("%s=%s" % kv
                              for kv in sorted(row["outcomes"].items()))
                     or "-")
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"
