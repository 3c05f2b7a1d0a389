"""Post-run trace audits.

Every audit here works from the trace alone (plus the appended state
dumps), rebuilding transaction trees, lock states and the lifecycles of
actions and transactions independently of the live simulator
structures, so a bug in the engine cannot vouch for itself.

Every pass is linear in the length of the trace: serializability keeps
only per-object frontier edges, and the smuggling and lock-rule scans
index objects per transaction, so an abort, a nested-commit transfer, a
decision or an apply touches only that transaction's objects.

Only bracketing reads every kind of event.  The transaction facts of
`TxnView` come from `begin`, `abort`, `commit2` and `outcome` events;
serializability adds `read` and `write`, smuggling `read`, `write`,
`abort` and `commit2`, atomicity `write` and `commit2`, durability
`commit2` alone, the lock rule `grant`, `abort` and `commit2`, and the
final up nodes `crash` and `recover`.  Each of these passes skips every
other kind and reads events only through their own fields (the seq
included, never a position in the list), so `audit_trace` hands them
`core`, the subsequence of `CORE_KINDS` events, which gives the same
report as the whole trace.  The atomicity pass formats its replayed
state as sorted dump lines and compares them with the `[stable]` lines,
and compares `[volatile]` with the `[stable]` lines of the up nodes; it
parses the dump lines only to explain a difference, record by record.

A caller that rendered the text may pass `audit_trace` the emitted
events and dump records it rendered, in place of a parse of the text:
`Trace.emit` numbers each event by its place and rendering checks it as
the parser checks its line, so the report is the same.  The passes only
read the events, which a run shares with its forks.

`audit_trace` pauses the cyclic collector while it parses and runs the
passes, and restores the caller's setting when it returns or raises.
Parsed events, detail dicts and every pass's indexes hold no reference
cycle, so reference counting frees them all once the report is built,
and the pause defers no garbage.
"""

import heapq
from collections import defaultdict

from . import trace as trace_mod
from .errors import MalformedTrace
from .gcpause import pause_cyclic_gc
from .locks import WRITE, conflicts

# the event kinds that every pass but bracketing reads
CORE_KINDS = frozenset(("begin", "abort", "commit2", "outcome", "read",
                        "write", "grant", "crash", "recover"))


class TxnView:
    """Transaction facts reconstructed from a trace."""

    def __init__(self, events):
        self.parents: dict[int, int | None] = {}
        self.aborted: set[int] = set()
        self.decided: dict[int, str] = {}       # top txn -> commit | abort
        self.decision_seq: dict[int, int] = {}
        self.apply_objs: dict[int, set] = {}    # top txn -> objs applied
        self.inst_outcome: dict[str, str] = {}
        for ev in events:
            kind = ev.kind
            if kind == "begin":
                p = ev.detail["parent"]
                self.parents[ev.txn] = None if p == "-" else int(p)
            elif kind == "abort":
                self.aborted.add(ev.txn)
            elif kind == "commit2":
                phase = ev.detail["phase"]
                if phase == "decision":
                    self.decided[ev.txn] = ev.detail["outcome"]
                    self.decision_seq[ev.txn] = ev.seq
                elif phase == "apply":
                    self.apply_objs.setdefault(ev.txn, set()).update(
                        o for o in ev.detail["objs"].split(",") if o)
            elif kind == "outcome":
                self.inst_outcome.setdefault(ev.detail["inst"],
                                             ev.detail["outcome"])

    def top(self, txn: int) -> int:
        while self.parents.get(txn) is not None:
            txn = self.parents[txn]
        return txn

    def is_proper_ancestor(self, a: int, b: int) -> bool:
        p = self.parents.get(b)
        while p is not None:
            if p == a:
                return True
            p = self.parents.get(p)
        return False

    def committed_top(self) -> set:
        return {t for t, d in self.decided.items() if d == "commit"}

    def op_counts(self, ev) -> bool:
        """Whether a read/write event contributes effects that survived:
        its transaction never aborted and its action instance did not
        roll back."""
        return ev.txn not in self.aborted \
            and self.inst_outcome.get(ev.detail["inst"]) != "aborted"


def audit_serializability(events):
    """Check committed top-level transactions for conflict
    serializability in one pass over the trace; returns (ok, info).

    Per object the pass keeps the last committed-top writer and the tops
    that read since that write.  It adds an edge from that writer to each
    later read or write, and from each of those readers to the next
    write.  These frontier edges have the same reachability as the edges
    between every conflicting pair of operations, so smallest-first Kahn
    yields the same serial witness.

    info["edges"] is the sorted list of frontier edges.  On success
    info["witness"] is the serial order.  On failure info["cycle"] lists
    the transactions of one cycle in edge order, starting at the
    smallest, and info["conflicts"] gives for each cycle edge
    (t1, t2, obj, seq1, seq2), the operation pair that first created it."""
    view = TxnView(events)
    committed = view.committed_top()
    edges = {}    # (t1, t2) -> (obj, seq1, seq2) of the first pair
    writer = {}   # obj -> (top, seq) of the last write
    readers = {}  # obj -> {top: seq of its first read since that write}
    for ev in events:
        if ev.kind not in ("read", "write") or not view.op_counts(ev):
            continue
        top = view.top(ev.txn)
        if top not in committed:
            continue
        w = writer.get(ev.obj)
        if w is not None and w[0] != top:
            edges.setdefault((w[0], top), (ev.obj, w[1], ev.seq))
        if ev.kind == "read":
            readers.setdefault(ev.obj, {}).setdefault(top, ev.seq)
            continue
        for r, seq in readers.pop(ev.obj, {}).items():
            if r != top:
                edges.setdefault((r, top), (ev.obj, seq, ev.seq))
        writer[ev.obj] = (top, ev.seq)

    succ: dict[int, list] = {t: [] for t in committed}
    preds: dict[int, list] = {t: [] for t in committed}
    indeg = dict.fromkeys(committed, 0)
    for a, b in edges:
        succ[a].append(b)
        preds[b].append(a)
        indeg[b] += 1
    ready = [t for t in committed if indeg[t] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        t = heapq.heappop(ready)
        order.append(t)
        for s in succ[t]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) == len(committed):
        return True, {"witness": order, "edges": sorted(edges)}
    # every unplaced transaction has an unplaced predecessor, so walking
    # predecessors from any of them must come back to a transaction seen
    t = min(t for t in committed if indeg[t])
    seen: dict[int, int] = {}
    path = []
    while t not in seen:
        seen[t] = len(path)
        path.append(t)
        t = min(p for p in preds[t] if indeg[p])
    cycle = path[seen[t]:][::-1]
    first = cycle.index(min(cycle))
    cycle = cycle[first:] + cycle[:first]
    conflicts = [(a, b) + edges[(a, b)]
                 for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return False, {"cycle": cycle, "conflicts": conflicts,
                   "edges": sorted(edges)}


def scan_smuggling(events):
    """Flag reads of data whose writer's top-level transaction had not yet
    committed or aborted: information leaving an atomic action early."""
    view = TxnView(events)
    dirty: dict[str, set] = {}     # obj -> txns with unresolved writes
    dirtied: dict[int, set] = {}   # txn -> objs it has in `dirty`
    problems = []
    for ev in events:
        if ev.kind == "write":
            dirty.setdefault(ev.obj, set()).add(ev.txn)
            dirtied.setdefault(ev.txn, set()).add(ev.obj)
        elif ev.kind == "read":
            for w in dirty.get(ev.obj, ()):
                if view.top(w) != view.top(ev.txn):
                    problems.append(
                        "seq %d: txn %d read %s dirty from txn %d"
                        % (ev.seq, ev.txn, ev.obj, w))
        elif ev.kind == "abort":
            for obj in dirtied.pop(ev.txn, ()):
                dirty[obj].discard(ev.txn)
        elif ev.kind == "commit2":
            phase = ev.detail["phase"]
            if phase == "nested":
                # anti-inheritance: the tentative write now belongs to
                # the parent transaction
                parent = int(ev.detail["parent"])
                objs = dirtied.pop(ev.txn, set())
                for obj in objs:
                    dirty[obj].discard(ev.txn)
                    dirty[obj].add(parent)
                dirtied.setdefault(parent, set()).update(objs)
            elif phase == "decision":
                for obj in dirtied.pop(ev.txn, ()):
                    dirty[obj].discard(ev.txn)
    return not problems, problems


BODY_KINDS = frozenset(("read", "write", "step", "sync_emit", "sync_await",
                        "line_recovery", "test_line"))
TXN_OPS = frozenset(("read", "write", "grant", "queue"))
TXN_ENDS = (("nested", None), ("decision", "commit"))  # commit2 phase, outcome


def scan_bracketing(events):
    """Every action-body event must fall after that instance's final
    registration and before its outcome delivery.  Each transaction begins
    once under an open parent, reads, writes, is granted and queues only
    while open, and ends once (abort, nested commit or commit decision),
    after every child it began; these problems follow the instance ones."""
    last_register: dict[str, int] = {}
    first_outcome: dict[str, int] = {}
    parent: dict = {}                # begun txn -> its parent txn or "-"
    open_kids: dict = {"-": set()}   # open txn ("-": the root) -> open kids
    txn_problems = []
    for ev in events:
        kind, t = ev.kind, ev.txn
        if kind in TXN_OPS:
            if t not in open_kids:
                txn_problems.append("seq %d: %s by txn %s %s" % (
                    ev.seq, kind, t, "after its end" if t in parent
                    else "before its begin"))
        elif kind == "register" and ev.detail["ok"] == "1":
            last_register[ev.detail["inst"]] = ev.seq
        elif kind == "outcome":
            first_outcome.setdefault(ev.detail["inst"], ev.seq)
        elif kind == "begin":
            p = ev.detail["parent"]
            p = p if p == "-" else int(p)
            if t in parent:
                txn_problems.append("seq %d: txn %s begins again"
                                    % (ev.seq, t))
                continue
            parent[t], open_kids[t] = p, set()
            if p in open_kids:
                open_kids[p].add(t)
            else:
                txn_problems.append("seq %d: txn %s begins under txn %s, "
                                    "which is not open" % (ev.seq, t, p))
        elif kind == "abort" or kind == "commit2" and (
                ev.detail["phase"], ev.detail.get("outcome")) in TXN_ENDS:
            kids = open_kids.pop(t, None)
            if kids is None:
                txn_problems.append("seq %d: txn %s ends %s" % (
                    ev.seq, t, "again" if t in parent else "before its begin"))
                continue
            siblings = open_kids.get(parent[t])
            if siblings is not None:
                siblings.discard(t)
            if kids:
                txn_problems.append("seq %d: txn %s ends before its child "
                                    "txn %s" % (ev.seq, t, min(kids)))
    problems = []
    for ev in events:
        if ev.kind not in BODY_KINDS:
            continue
        inst = ev.detail["inst"]
        if inst not in last_register:
            problems.append("seq %d: body event for unregistered instance %s"
                            % (ev.seq, inst))
        elif ev.seq < last_register[inst]:
            problems.append("seq %d: %s body event before %s finished "
                            "gathering" % (ev.seq, ev.kind, inst))
        elif inst in first_outcome and ev.seq > first_outcome[inst]:
            problems.append("seq %d: %s body event after %s outcome"
                            % (ev.seq, ev.kind, inst))
    problems += txn_problems
    return not problems, problems


def _parse_dump_lines(lines):
    out = {}
    for ln in lines:
        node, name, version, value = ln.split("\t")
        out[(node, name)] = (int(version), value)
    return out


def scan_atomicity(events, dumps, up_nodes):
    """Replay the trace's committed effects over the initial dump and
    compare with the final stable dump; also require the final volatile
    image of each node in `up_nodes` to hold exactly its stable records,
    and that of every other node to hold none."""
    view = TxnView(events)
    problems = []
    # last surviving write value per (top txn, obj), before its decision
    final_write: dict[tuple, str] = {}
    for ev in events:
        if ev.kind != "write" or not view.op_counts(ev):
            continue
        top = view.top(ev.txn)
        if ev.seq < view.decision_seq.get(top, float("inf")):
            final_write[(top, ev.obj)] = ev.detail["val"]
    state = _parse_dump_lines(dumps["initial"])
    homes = {name: node for (node, name) in state}
    for ev in events:
        if ev.kind == "commit2" and ev.detail["phase"] == "apply":
            for obj in ev.detail["objs"].split(","):
                if not obj:
                    continue
                if obj not in homes:
                    problems.append("seq %d: apply of %s, which the initial "
                                    "dump does not hold" % (ev.seq, obj))
                    continue
                key = (homes[obj], obj)
                version, _old = state[key]
                val = final_write.get((ev.txn, obj))
                if val is None:
                    problems.append("seq %d: apply of %s with no surviving "
                                    "write in txn %d" % (ev.seq, obj, ev.txn))
                    continue
                state[key] = (version + 1, val)
    stable_lines = dumps["stable"]
    replayed = sorted(["%s\t%s\t%d\t%s" % (node, name, version, value)
                       for (node, name), (version, value) in state.items()])
    volatile_lines = dumps["volatile"]
    up_stable = [ln for ln in stable_lines
                 if ln[:ln.index("\t")] in up_nodes]
    if replayed == stable_lines and volatile_lines == up_stable:
        return not problems, problems
    actual = _parse_dump_lines(stable_lines)
    for key in sorted(set(state) | set(actual)):
        if state.get(key) != actual.get(key):
            problems.append("stable mismatch at %s/%s: replay %s, dump %s"
                            % (key[0], key[1], state.get(key),
                               actual.get(key)))
    volatile = _parse_dump_lines(volatile_lines)
    for key in sorted(set(actual) | set(volatile)):
        if key[0] not in up_nodes:
            if key in volatile:
                problems.append("volatile record at %s/%s of a down node"
                                % key)
        elif volatile.get(key) != actual.get(key):
            problems.append("volatile/stable divergence at %s/%s after "
                            "quiescence" % key)
    return not problems, problems


def check_durability(events, up_nodes):
    """Every commit decision must be followed by an apply at each
    participant that is up at the end of the run."""
    applied: dict[int, set] = {}
    for ev in events:
        if ev.kind == "commit2" and ev.detail["phase"] == "apply":
            applied.setdefault(ev.txn, set()).add(ev.detail["node"])
    problems = []
    for ev in events:
        if ev.kind != "commit2" or ev.detail.get("outcome") != "commit":
            continue
        parts = [p for p in ev.detail["parts"].split(",") if p and p != "-"]
        for p in parts:
            if p in up_nodes and p not in applied.get(ev.txn, set()):
                problems.append("seq %d: txn %d committed but never applied "
                                "at up node %s" % (ev.seq, ev.txn, p))
    return not problems, problems


def final_up_nodes(events, all_nodes):
    up = set(all_nodes)
    for ev in events:
        if ev.kind == "crash":
            up.discard(ev.detail["node"])
        elif ev.kind == "recover":
            up.add(ev.detail["node"])
    return up


def verify_lock_rule(events):
    """Independent re-evaluation of every grant: all conflicting holders
    at grant time must be proper ancestors of the grantee."""
    view = TxnView(events)
    # objects released only at apply time, known in advance per txn
    apply_objs = view.apply_objs
    holders: dict[str, dict[int, str]] = {}   # obj -> {txn: mode}
    held: dict[int, set] = defaultdict(set)   # txn -> objs it holds
    problems = []

    def drop(txn, objs):
        for obj in objs:
            del holders[obj][txn]
        held[txn] -= objs

    for ev in events:
        if ev.kind == "grant":
            hs = holders.setdefault(ev.obj, {})
            mode = ev.detail["mode"]
            for h, m in hs.items():
                if h != ev.txn and conflicts(m, mode) \
                        and not view.is_proper_ancestor(h, ev.txn):
                    problems.append(
                        "seq %d: %s lock on %s granted to txn %d while "
                        "non-ancestor txn %d holds %s"
                        % (ev.seq, mode, ev.obj, ev.txn, h, m))
            if hs.get(ev.txn) != WRITE:
                hs[ev.txn] = mode
            held[ev.txn].add(ev.obj)
        elif ev.kind == "abort":
            drop(ev.txn, set(held[ev.txn]))
        elif ev.kind == "commit2":
            phase = ev.detail["phase"]
            if phase == "nested":
                parent = int(ev.detail["parent"])
                objs = held.pop(ev.txn, set())
                for obj in objs:
                    hs = holders[obj]
                    mode = hs.pop(ev.txn)
                    if hs.get(parent) != WRITE:
                        hs[parent] = mode
                held[parent] |= objs
            elif phase == "decision" and ev.detail["outcome"] == "commit":
                keep = apply_objs.get(ev.txn, set())
                drop(ev.txn, held[ev.txn] - keep)
            elif phase == "apply":
                objs = {o for o in ev.detail["objs"].split(",") if o}
                drop(ev.txn, held[ev.txn] & objs)
    return not problems, problems


@pause_cyclic_gc
def audit_trace(text: str, all_nodes=None, emitted=None):
    """Run every audit over a rendered trace file.  Returns a dict of
    check name -> (ok, info); key "ok" aggregates.  Raises MalformedTrace
    on schema violations and when a dump section is missing.  `emitted`,
    if given, is the (events, dumps) that `text` was rendered from, which
    the passes read in place of `trace.parse(text)`; they change none."""
    events, dumps = emitted or trace_mod.parse(text)
    for section in trace_mod.DUMP_SECTIONS:
        if section not in dumps:
            raise MalformedTrace("trace has no [%s] dump section" % section)
    if all_nodes is None:
        all_nodes = {ln.split("\t")[0] for ln in dumps["initial"]}
    core = [ev for ev in events if ev.kind in CORE_KINDS]
    up_nodes = final_up_nodes(core, all_nodes)
    report = {
        "serializability": audit_serializability(core),
        "smuggling": scan_smuggling(core),
        "bracketing": scan_bracketing(events),
        "atomicity": scan_atomicity(core, dumps, up_nodes),
        "durability": check_durability(core, up_nodes),
        "lock_rule": verify_lock_rule(core),
    }
    report["ok"] = all(ok for ok, _ in report.values())
    return report
