"""Systematic fault and seed sweeps.

The crash sweep crashes a node once per (node, trace-event index), right
after that event, recovers it a fixed interval later, and audits every
run.  Each node's crash runs fork from one fault-free run that pauses at
each crash point in turn, so the prefix they share is simulated once per
node, not once per crash point.  Each fork crashes through the
`fault index` it is given, as a run of the scenario with that fault
would.  The seed sweep reruns the scenario across a seed range.  Both
return one verdict row per run.

Each run's audit is given its whole trace text and the record its render
kept (`trace.Rendered`).  The text is the one recorded, so `trace.parse`
hands the audit the events the run emitted and the dump records it
wrote, and splits no line of the text.  That holds only while parsing a
rendered line rebuilds the event or dump record it was rendered from, so
each sweep parses its first run's text in full as well, and the crash
sweep its fault-free run's, and raises MalformedTrace if that parse
fails or does not give back the emitted events and the dump records.

Both sweeps pause the cyclic collector throughout.  Every run is freed
by reference counting before the next one starts, so a collection
during a sweep would walk live objects and free nothing.
"""

from dataclasses import replace

from . import audit, trace
from .engine import Simulator
from .errors import MalformedTrace
from .gcpause import pause_cyclic_gc
from .scenario import Fault, Scenario


def _audit_run(res, all_nodes, round_trip=False):
    record = trace.Rendered()
    text = res.trace_text(record)
    if round_trip:
        _check_round_trip(text, record)
    report = audit.audit_trace(text, all_nodes=all_nodes, record=record)
    failures = [name for name, v in report.items()
                if name != "ok" and not v[0]]
    return report["ok"], failures


def _first_difference(a, b) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def _check_round_trip(text, record):
    """Raise MalformedTrace, at the first line that differs, unless a plain
    parse of `text` gives back the events and the dump records `record`
    holds."""
    parsed, dumps = trace.parse(text)
    if parsed != record.events:
        raise MalformedTrace("parsing this line does not give back the "
                             "event it was rendered from",
                             _first_difference(parsed, record.events) + 1)
    line = len(parsed) + 1      # the `dump` line
    for section, rendered in record.dumps.items():
        got = dumps.get(section, [])
        if got != rendered:
            raise MalformedTrace("parsing this line does not give back the "
                                 "[%s] record it was rendered from" % section,
                                 line + 2 + _first_difference(got, rendered))
        line += 1 + len(rendered)


@pause_cyclic_gc
def crash_sweep(scenario: Scenario, recover_after=100, stride=1) -> list:
    """One row per injected crash point: {node, index, time, outcomes,
    ok, failures, stable_unchanged, volatile_cleared}."""
    fault_free = replace(scenario, faults=[])
    free = Simulator(fault_free).run()
    # a first fork that crashes early emits few kinds of event
    record = trace.Rendered()
    _check_round_trip(free.trace_text(record), record)
    n_events = len(free.trace.events)
    del free, record
    horizon = scenario.horizon + recover_after + 200
    rows = []
    for node in scenario.nodes:
        base = Simulator(fault_free, horizon=horizon,
                         auto_recover_after=recover_after)
        for index in range(0, n_events, stride):
            base.run_to(index)
            res = base.fork()
            # fired before any other work if the base reached `index`
            res.indexed_faults = [Fault("index", index, "crash", node)]
            res.run()
            ok, failures = _audit_run(res, scenario.nodes, not rows)
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


@pause_cyclic_gc
def seed_sweep(scenario: Scenario, start: int, stop: int) -> list:
    """Inclusive seed range; one audited run per seed."""
    rows = []
    for seed in range(start, stop + 1):
        res = Simulator(scenario, seed=seed).run()
        ok, failures = _audit_run(res, scenario.nodes, seed == start)
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
