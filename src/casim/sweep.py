"""Systematic fault and seed sweeps.

The crash sweep crashes a node once per (node, trace-event index), right
after that event, recovers it a fixed interval later, and audits every
run.  Each node's crash runs fork from one fault-free run that pauses at
each crash point in turn, so the prefix they share is simulated once per
node, not once per crash point.  Each fork crashes through the
`fault index` it is given, as a run of the scenario with that fault
would.  The seed sweep reruns the scenario across a seed range.  Both
return one verdict row per run.

Each run, and that of `casim run`, is rendered and audited by
`audit_run`, which hands `audit.audit_trace` the text with the events
and dump records it was rendered from, so no line of the text is split.
That holds only while parsing a rendered line rebuilds the event or dump
record it was rendered from, so each sweep parses its first run's text
in full as well, and the crash sweep its fault-free run's, and raises
MalformedTrace if that parse fails or does not give back the emitted
events and the dump records.

A crash fork's audit resumes its base: the crash sweep keeps one
`audit.AuditState` per node's base, feeds it the base's new events after
each `run_to`, and hands each fork a copy, so a fork's audit folds only
the events after the pause.  The passes that read final facts still walk
the fork's whole trace (see `audit`), so each report is the one a fresh
audit of the fork's text gives.

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


def audit_run(res, all_nodes, round_trip=False, state=None):
    """Render finished run `res` with its dumps and audit it from what the
    text was rendered from, resuming `state` (see `audit.audit_trace`) if
    given; with `round_trip`, first check that a full parse of the text
    gives that back.  Returns (text, dumps, report)."""
    dumps = res.dumps()
    text = res.trace.render(dumps)
    if round_trip:
        _check_round_trip(text, res.trace.events, dumps)
    return text, dumps, audit.audit_trace(
        text, all_nodes, (res.trace.events, dumps), state)


def _failures(report) -> list:
    return [name for name, v in report.items() if name != "ok" and not v[0]]


def _first_difference(a, b) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def _check_round_trip(text, events, dumps):
    """Raise MalformedTrace, at the first line that differs, unless a plain
    parse of `text` gives back `events` and the records of `dumps`."""
    parsed, parsed_dumps = trace.parse(text)
    if parsed != events:
        raise MalformedTrace("parsing this line does not give back the "
                             "event it was rendered from",
                             _first_difference(parsed, events) + 1)
    line = len(parsed) + 1      # the `dump` line
    for section, rendered in dumps.items():
        got = parsed_dumps.get(section, [])
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
    dumps = free.dumps()
    _check_round_trip(free.trace.render(dumps), free.trace.events, dumps)
    n_events = len(free.trace.events)
    del free, dumps
    horizon = scenario.horizon + recover_after + 200
    rows = []
    for node in scenario.nodes:
        base = Simulator(fault_free, horizon=horizon,
                         auto_recover_after=recover_after)
        folds = audit.AuditState()      # of the base's events so far
        for index in range(0, n_events, stride):
            base.run_to(index)
            folds.feed(base.trace.events[folds.seen:])
            res = base.fork()
            # fired before any other work if the base reached `index`
            res.indexed_faults = [Fault("index", index, "crash", node)]
            res.run()
            report = audit_run(res, scenario.nodes, not rows,
                               folds.copy())[2]
            stable_ok = all(c[2] for c in res.crash_checks)
            vol_ok = all(c[3] for c in res.crash_checks)
            rows.append({
                "node": node,
                "index": index,
                "time": res.crash_checks[0][1] if res.crash_checks else None,
                "outcomes": dict(res.outcomes),
                "ok": report["ok"] and stable_ok and vol_ok,
                "failures": _failures(report),
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
        report = audit_run(res, scenario.nodes, seed == start)[2]
        rows.append({
            "seed": seed,
            "outcomes": dict(res.outcomes),
            "ok": report["ok"],
            "failures": _failures(report),
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
