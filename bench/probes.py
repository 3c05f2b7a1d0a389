"""Recording wrappers placed around the public functions of casim's
modules from the benchmark's own files.

`Recorder` is installed on every run, traced or not.  It adds one call
per simulator run and per audit: it keeps each audited trace text, the
host time each audit ended, and the event count of every simulator run.

`Probe` is installed only for the traced run.  It wraps the public
functions of each module in spans that accumulate call counts, inclusive
time and self time (a span's time minus its wrapped children).  The
probe's own bookkeeping after each call, including counts derived from
results, is excluded from every span's time.
"""

from collections import Counter, defaultdict
from time import perf_counter

from casim import audit, dag, engine, exprs, locks, scenario, store, txn
from casim import trace as trace_mod
from casim.errors import DeadlockVictim


class _Patches:
    def __init__(self):
        self._saved = []

    def patch(self, owner, name, make):
        """Replace owner.name by make(original); undone by restore()."""
        orig = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def restore(self):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


class Recorder(_Patches):
    """Captures each audited run's trace text and completion time, read
    from `clock`."""

    def __init__(self, clock=perf_counter):
        super().__init__()
        self.clock = clock
        self.start = None       # set by the caller when the runs begin
        self.texts = []
        self.audit_end = []
        self.events = 0

    def install(self):
        rec = self

        def make_run(orig):
            def run(sim, *args, **kw):
                result = orig(sim, *args, **kw)
                rec.events += len(result.trace.events)
                return result
            return run

        def make_audit(orig):
            def audit_trace(text, *args, **kw):
                report = orig(text, *args, **kw)
                rec.audit_end.append(rec.clock())
                rec.texts.append(text)
                return report
            return audit_trace

        self.patch(engine.Simulator, "run", make_run)
        self.patch(audit, "audit_trace", make_audit)
        return self


def _promoted(probe, args, result):
    probe.counts["locks.promoted"] += len(result)


def _acquired(probe, args, result):
    probe.counts["locks.granted" if result == "granted" else "locks.queued"] += 1


def _find_log(probe, args, result):
    log = args[0].nodes[args[1]].log
    if result is None:
        probe.counts["store.find_log_scanned"] += len(log)
    else:
        probe.counts["store.find_log_scanned"] += next(
            i for i, rec in enumerate(log) if rec is result) + 1


def _ran(probe, args, result):
    probe.counts["engine.events"] += len(result.trace.events)
    probe.counts["store.log_records"] += sum(
        len(ns.log) for ns in result.store.nodes.values())


def _rendered(probe, args, result):
    probe.counts["trace.bytes"] += len(result)


def _parsed(probe, args, result):
    probe.counts["sweep.events_audited"] += len(result[0])


def _serializability(probe, args, result):
    probe.counts["audit.serializability_edges"] += len(result[1]["edges"])


# (owner, attribute, span key, note on the result or None)
SPANS = [
    (scenario, "parse_scenario", "scenario.parse", None),
    (engine.Simulator, "run", "engine.run", _ran),
    (locks.LockTable, "acquire", "locks.acquire", _acquired),
    (locks.LockTable, "release_all", "locks.release", _promoted),
    (locks.LockTable, "release_objects", "locks.release", _promoted),
    (locks.LockTable, "transfer", "locks.release", _promoted),
    (locks.LockTable, "drop_waiters", "locks.release", None),
    (txn.TransactionManager, "begin", "txn.begin", None),
    (txn.TransactionManager, "read", "txn.read", None),
    (txn.TransactionManager, "write", "txn.write", None),
    (txn.TransactionManager, "abort", "txn.abort", None),
    (txn.TransactionManager, "commit_nested", "txn.commit_nested", None),
    (store.ObjectStore, "find_log", "store.find_log", _find_log),
    (store.ObjectStore, "dump_stable", "store.dump", None),
    (store.ObjectStore, "dump_volatile", "store.dump", None),
    (trace_mod.Trace, "emit", "trace.emit", None),
    (trace_mod.Trace, "render", "trace.render", _rendered),
    (trace_mod, "parse", "trace.parse", _parsed),
    (audit, "audit_trace", "audit.total", None),
    (audit, "audit_serializability", "audit.serializability",
     _serializability),
    (audit, "scan_smuggling", "audit.smuggling", None),
    (audit, "scan_bracketing", "audit.bracketing", None),
    (audit, "scan_atomicity", "audit.atomicity", None),
    (audit, "final_up_nodes", "audit.durability", None),
    (audit, "check_durability", "audit.durability", None),
    (audit, "verify_lock_rule", "audit.lock_rule", None),
    (exprs.Expr, "eval", "exprs.eval", None),
    (dag.OperationDAG, "add_node", "dag.add", None),
    (dag.OperationDAG, "add_edge", "dag.add", None),
]

# (owner, attribute, counter key): counted, not timed
COUNTS = [
    (engine.Simulator, "schedule", "engine.schedule_calls"),
    (audit.TxnView, "__init__", "audit.txnview_builds"),
    (dag.OperationDAG, "add_node", "dag.nodes"),
]


class Probe(_Patches):
    """Spans and counters for one traced iteration; spans are timed by
    `clock`."""

    def __init__(self, clock=perf_counter):
        super().__init__()
        self.clock = clock
        self.calls = Counter()
        self.total = defaultdict(float)   # inclusive seconds, outermost call
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._children = [0.0]            # child seconds of each open span
        self._open = Counter()
        self._excluded = 0.0              # probe bookkeeping seconds

    def _span(self, key, note):
        probe = self

        def make(orig):
            def wrapper(*args, **kw):
                children = probe._children
                children.append(0.0)
                probe._open[key] += 1
                x0 = probe._excluded
                t0 = probe.clock()
                returned = False
                try:
                    result = orig(*args, **kw)
                    returned = True
                    return result
                except DeadlockVictim:
                    if key == "locks.acquire":
                        probe.counts["locks.wait_die_kills"] += 1
                    raise
                finally:
                    t1 = probe.clock()
                    dt = t1 - t0 - (probe._excluded - x0)
                    child = children.pop()
                    children[-1] += dt
                    probe._open[key] -= 1
                    probe.calls[key] += 1
                    probe.self_time[key] += dt - child
                    if not probe._open[key]:
                        probe.total[key] += dt
                    if note is not None and returned:
                        note(probe, args, result)
                    probe._excluded += probe.clock() - t1
            return wrapper
        return make

    def _count(self, key):
        probe = self

        def make(orig):
            def wrapper(*args, **kw):
                probe.counts[key] += 1
                return orig(*args, **kw)
            return wrapper
        return make

    def install(self):
        for owner, name, key in COUNTS:
            self.patch(owner, name, self._count(key))
        for owner, name, key, note in SPANS:
            self.patch(owner, name, self._span(key, note))
        return self

    def metrics(self) -> dict:
        """name -> (value, unit) for the timed and counted layer metrics."""
        c, calls, total = self.counts, self.calls, self.total
        acquires = calls["locks.acquire"]
        return {
            "scenario.parse_s": (total["scenario.parse"], "s"),
            "engine.run_s": (total["engine.run"], "s"),
            "engine.self_s": (self.self_time["engine.run"], "s"),
            "engine.schedule_calls": (c["engine.schedule_calls"], "count"),
            "engine.events": (c["engine.events"], "count"),
            "sweep.runs": (calls["audit.total"], "count"),
            "sweep.events_simulated": (calls["trace.emit"], "count"),
            "sweep.events_audited": (c["sweep.events_audited"], "count"),
            "locks.acquire_calls": (acquires, "count"),
            "locks.acquire_s": (total["locks.acquire"], "s"),
            "locks.queued": (c["locks.queued"], "count"),
            "locks.wait_die_kills": (c["locks.wait_die_kills"], "count"),
            "locks.grant_ratio": (c["locks.granted"] / acquires
                                  if acquires else 0.0, "1"),
            "locks.release_s": (total["locks.release"], "s"),
            "locks.promoted": (c["locks.promoted"], "count"),
            "txn.begin_calls": (calls["txn.begin"], "count"),
            "txn.read_s": (total["txn.read"], "s"),
            "txn.write_s": (total["txn.write"], "s"),
            "txn.abort_calls": (calls["txn.abort"], "count"),
            "txn.abort_s": (total["txn.abort"], "s"),
            "txn.commit_nested_calls": (calls["txn.commit_nested"], "count"),
            "txn.commit_nested_s": (total["txn.commit_nested"], "s"),
            "store.find_log_calls": (calls["store.find_log"], "count"),
            "store.find_log_scanned": (c["store.find_log_scanned"], "count"),
            "store.find_log_s": (total["store.find_log"], "s"),
            "store.dump_s": (total["store.dump"], "s"),
            "store.log_records": (c["store.log_records"], "count"),
            "trace.emit_calls": (calls["trace.emit"], "count"),
            "trace.emit_s": (total["trace.emit"], "s"),
            "trace.render_s": (total["trace.render"], "s"),
            "trace.parse_s": (total["trace.parse"], "s"),
            "trace.bytes": (c["trace.bytes"], "bytes"),
            "audit.total_s": (total["audit.total"], "s"),
            "audit.serializability_s": (total["audit.serializability"], "s"),
            "audit.smuggling_s": (total["audit.smuggling"], "s"),
            "audit.bracketing_s": (total["audit.bracketing"], "s"),
            "audit.atomicity_s": (total["audit.atomicity"], "s"),
            "audit.durability_s": (total["audit.durability"], "s"),
            "audit.lock_rule_s": (total["audit.lock_rule"], "s"),
            "audit.txnview_builds": (c["audit.txnview_builds"], "count"),
            "audit.serializability_edges":
                (c["audit.serializability_edges"], "count"),
            "exprs.eval_calls": (calls["exprs.eval"], "count"),
            "exprs.eval_s": (total["exprs.eval"], "s"),
            "dag.nodes": (c["dag.nodes"], "count"),
            "dag.add_s": (total["dag.add"], "s"),
        }
