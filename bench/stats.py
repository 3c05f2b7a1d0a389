"""Simulated statistics derived from parsed trace events alone, like the
audits: commit ratio, action latency, abort causes, lock waits and
two-phase commit timing.  All values are in simulated ticks or counts,
so they repeat exactly for a given trace.

One fact is taken from event order rather than from a field: a top-level
instance's `line_recovery` event is immediately followed by the `begin`
of its transaction, which links instance keys to transaction ids.
"""

from collections import Counter

from casim.audit import TxnView

# Abort causes reported one count each; anything else counts as "other".
# "unstarted" is an instance aborted before its transaction began (entry
# timeout, a node down at entry, a crash while gathering).
ABORT_CAUSES = ("deadlock", "crash", "node_down", "2pc_timeout",
                "presumed_abort", "coordinator_recovery", "acceptance_test",
                "horizon", "unstarted", "other")


def percentile(values, pct):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def serializability_ops(events):
    """Operations the serializability audit orders: surviving reads and
    writes of committed top-level transactions."""
    view = TxnView(events)
    committed = view.committed_top()
    return sum(1 for ev in events
               if ev.kind in ("read", "write") and view.op_counts(ev)
               and view.top(ev.txn) in committed)


class TraceStats:
    """Accumulates statistics over the parsed events of many runs."""

    def __init__(self):
        self.submitted = 0
        self.committed = 0
        self.unregistered = 0
        self.instances = 0
        self.aborts = Counter()
        self.action_ticks = []
        self.lock_waits = []
        self.decision_ticks = []
        self.apply_ticks = []
        self.msgs = 0
        self.drops = 0

    def add(self, events):
        submitted = set()
        first_register = {}
        first_outcome = {}
        inst_txn = {}
        abort_cause = {}
        decided = {}
        test_pass = {}
        queued = {}
        for i, ev in enumerate(events):
            kind = ev.kind
            det = ev.detail
            if kind == "submit":
                submitted.add(det["action"])
            elif kind == "register":
                if det.get("ok") == "1":
                    first_register.setdefault(det["inst"], ev.time)
            elif kind == "outcome":
                first_outcome.setdefault(det["inst"], (ev.time, det["outcome"]))
            elif kind == "line_recovery":
                nxt = events[i + 1] if i + 1 < len(events) else None
                if nxt is not None and nxt.kind == "begin" \
                        and nxt.detail.get("parent") == "-":
                    inst_txn[det["inst"]] = nxt.txn
            elif kind == "abort":
                abort_cause.setdefault(ev.txn, det.get("cause", "other"))
            elif kind == "test_line":
                if det.get("result") == "pass":
                    test_pass.setdefault(det["inst"], ev.time)
            elif kind == "commit2":
                phase = det.get("phase")
                if phase == "decision":
                    decided.setdefault(ev.txn, (ev.time, det["outcome"]))
                elif phase == "apply" and ev.txn in decided:
                    self.apply_ticks.append(ev.time - decided[ev.txn][0])
            elif kind == "queue":
                queued[(ev.txn, ev.obj, det["mode"])] = ev.time
            elif kind == "grant":
                t = queued.pop((ev.txn, ev.obj, det["mode"]), None)
                if t is not None:
                    self.lock_waits.append(ev.time - t)
            elif kind == "msg_send":
                self.msgs += 1
            elif kind == "drop":
                self.drops += 1

        self.instances += len(first_register)
        for key in sorted(submitted):
            self.submitted += 1
            txn = inst_txn.get(key)
            if txn is not None and key in first_outcome:
                self.action_ticks.append(first_outcome[key][0]
                                         - first_register[key])
            if txn in decided and key in test_pass:
                self.decision_ticks.append(decided[txn][0] - test_pass[key])
            if txn in decided and decided[txn][1] == "commit":
                self.committed += 1
            elif txn in abort_cause:
                cause = abort_cause[txn]
                self.aborts[cause if cause in ABORT_CAUSES else "other"] += 1
            elif key in first_register:
                self.aborts["unstarted"] += 1
            else:
                self.unregistered += 1

    def end_to_end(self) -> dict:
        """name -> (value, unit) for the simulated end-to-end metrics."""
        return {
            "commit_ratio": (self.committed / self.submitted
                             if self.submitted else 0.0, "1"),
            "action_ticks_p50": (percentile(self.action_ticks, 50), "ticks"),
            "action_ticks_p99": (percentile(self.action_ticks, 99), "ticks"),
        }

    def per_layer(self) -> dict:
        """name -> (value, unit) for the trace-derived layer metrics."""
        out = {
            "actions.instances": (self.instances, "count"),
            "actions.unregistered": (self.unregistered, "count"),
        }
        for cause in ABORT_CAUSES:
            out["actions.abort." + cause] = (self.aborts[cause], "count")
        out.update({
            "locks.wait_ticks_p50": (percentile(self.lock_waits, 50), "ticks"),
            "locks.wait_ticks_p99": (percentile(self.lock_waits, 99), "ticks"),
            "twopc.decision_ticks_p50": (percentile(self.decision_ticks, 50),
                                         "ticks"),
            "twopc.decision_ticks_p99": (percentile(self.decision_ticks, 99),
                                         "ticks"),
            "twopc.apply_ticks_p99": (percentile(self.apply_ticks, 99),
                                      "ticks"),
            "twopc.msgs": (self.msgs, "count"),
            "twopc.drops": (self.drops, "count"),
        })
        return out
