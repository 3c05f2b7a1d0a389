"""Systematic fault and seed sweeps.

The crash sweep reruns one scenario once per (node, trace-event index),
crashing that node right after that event and recovering it a fixed
interval later, then audits every run.  The seed sweep reruns the
scenario across a seed range.  Both return one verdict row per run.
"""

from dataclasses import replace

from . import audit
from .engine import Simulator
from .scenario import Fault, Scenario


def _audit_run(res, all_nodes):
    report = audit.audit_trace(res.trace_text(), all_nodes=all_nodes)
    failures = [name for name, v in report.items()
                if name != "ok" and not v[0]]
    return report["ok"], failures


def crash_sweep(scenario: Scenario, nodes=None, recover_after=100,
                stride=1) -> list:
    """One row per injected crash point: {node, index, time, outcomes,
    ok, failures, stable_unchanged, volatile_cleared}."""
    n_events = len(Simulator(replace(scenario, faults=[])).run().trace.events)
    horizon = scenario.horizon + recover_after + 200
    rows = []
    for node in (nodes or scenario.nodes):
        for index in range(0, n_events, stride):
            sc = replace(scenario,
                         faults=[Fault("index", index, "crash", node)])
            res = Simulator(sc, horizon=horizon,
                            auto_recover_after=recover_after).run()
            ok, failures = _audit_run(res, scenario.nodes)
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
