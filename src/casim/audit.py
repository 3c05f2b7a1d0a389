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

Each audit resumes an `AuditState`: the folds of the events fed so far,
the facts that no later event changes.  They are the events' count and
`core` subsequence, the final-up-nodes fold, each view-using pass's own
`TxnView` (serializability, smuggling, atomicity and the lock rule, so a
plain audit builds four), bracketing's transaction lifecycles with their
problems and each instance's last registration and first outcome,
durability's applies and commit decisions, and atomicity's parse of the
`[initial]` records.  A plain audit starts from a fresh state and feeds
it the whole trace; a crash fork starts from a copy of its paused base's
state and feeds it only the fork's own events.  Every walk that reads
final facts still runs over the whole trace when the events are all
fed: serializability, smuggling (a later `begin` can change the top of
an earlier transaction in a malformed trace), atomicity's replay, the
lock rule, bracketing's body-event check and durability's decision
check, so each report is the same however the trace was split.  A
state feeds its views only when it is copied and when a pass takes its
view, so a plain audit holds one view at a time.

`audit_trace` pauses the cyclic collector while it parses and runs the
passes, and restores the caller's setting when it returns or raises.
Parsed events, detail dicts and every pass's indexes hold no reference
cycle, so reference counting frees them all once the report is built,
and the pause defers no garbage.
"""

import heapq
from collections import defaultdict
from itertools import islice

from . import trace as trace_mod
from .errors import MalformedTrace
from .gcpause import pause_cyclic_gc
from .locks import WRITE, conflicts

# the event kinds that every pass but bracketing reads
CORE_KINDS = frozenset(("begin", "abort", "commit2", "outcome", "read",
                        "write", "grant", "crash", "recover"))
# the passes that read a `TxnView`, each its own
VIEW_PASSES = ("serializability", "smuggling", "atomicity", "lock_rule")


def _copied(fold):
    """A fold of the same events as `fold`, to feed apart from it: each of
    its containers copied one level deep, as a fold replaces and never
    updates what they hold."""
    copy = object.__new__(type(fold))
    copy.__dict__ = {k: v.copy() for k, v in fold.__dict__.items()}
    return copy


class TxnView:
    """Transaction facts reconstructed from a trace, as a fold: `feed`
    adds events and `copy` gives a view to feed apart from this one."""

    def __init__(self, events):
        self.parents: dict[int, int | None] = {}
        self.aborted: set[int] = set()
        self.decided: dict[int, str] = {}       # top txn -> commit | abort
        self.decision_seq: dict[int, int] = {}
        self.apply_objs: dict[int, set] = {}    # top txn -> objs applied
        self.inst_outcome: dict[str, str] = {}
        self.feed(events)

    def feed(self, events):
        parents, aborted = self.parents, self.aborted
        decided, decision_seq = self.decided, self.decision_seq
        apply_objs, inst_outcome = self.apply_objs, self.inst_outcome
        for ev in events:
            kind = ev.kind
            if kind == "begin":
                p = ev.detail["parent"]
                if p == "-":
                    parents[ev.txn] = None
                    continue
                # a link that would close a cycle is refused, so that every
                # walk up the tree ends
                a = p = int(p)
                while a is not None and a != ev.txn:
                    a = parents.get(a)
                if a is None:
                    parents[ev.txn] = p
            elif kind == "abort":
                aborted.add(ev.txn)
            elif kind == "commit2":
                phase = ev.detail["phase"]
                if phase == "decision":
                    decided[ev.txn] = ev.detail["outcome"]
                    decision_seq[ev.txn] = ev.seq
                elif phase == "apply":
                    objs = {o for o in ev.detail["objs"].split(",") if o}
                    old = apply_objs.get(ev.txn)
                    # a new set, never an update: copies share these sets
                    apply_objs[ev.txn] = old | objs if old else objs
            elif kind == "outcome":
                inst_outcome.setdefault(ev.detail["inst"],
                                        ev.detail["outcome"])

    def copy(self) -> "TxnView":
        return _copied(self)

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


def audit_serializability(events, view=None):
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
    (t1, t2, obj, seq1, seq2), the operation pair that first created it.
    `view`, if given, is a `TxnView` fed `events` and no other events, as
    for every pass that takes one."""
    if view is None:
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


def scan_smuggling(events, view=None):
    """Flag reads of data whose writer's top-level transaction had not yet
    committed or aborted: information leaving an atomic action early."""
    if view is None:
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


class Lifecycles:
    """Bracketing's fold: each instance's last registration and first
    outcome, and each transaction's begin and end, with the problems of
    the transactions' lifecycles in the order of the events fed."""

    def __init__(self):
        self.last_register: dict[str, int] = {}
        self.first_outcome: dict[str, int] = {}
        self.parent: dict = {}             # begun txn -> its parent or "-"
        self.open_kids: dict = {"-": set()}  # open txn ("-": root) -> kids
        self.problems: list = []

    def feed(self, events):
        last_register, first_outcome = self.last_register, self.first_outcome
        parent, open_kids = self.parent, self.open_kids
        txn_problems = self.problems
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
                    txn_problems.append("seq %d: txn %s begins under txn "
                                        "%s, which is not open"
                                        % (ev.seq, t, p))
            elif kind == "abort" or kind == "commit2" and (
                    ev.detail["phase"], ev.detail.get("outcome")) in TXN_ENDS:
                kids = open_kids.pop(t, None)
                if kids is None:
                    txn_problems.append("seq %d: txn %s ends %s" % (
                        ev.seq, t,
                        "again" if t in parent else "before its begin"))
                    continue
                siblings = open_kids.get(parent[t])
                if siblings is not None:
                    siblings.discard(t)
                if kids:
                    txn_problems.append("seq %d: txn %s ends before its "
                                        "child txn %s" % (ev.seq, t, min(kids)))

    def copy(self) -> "Lifecycles":
        fold = _copied(self)
        # the one container a fold updates in place
        fold.open_kids = {t: set(kids) for t, kids in self.open_kids.items()}
        return fold


def scan_bracketing(events, lifecycles=None):
    """Every action-body event must fall after that instance's final
    registration and before its outcome delivery.  Each transaction begins
    once under an open parent, reads, writes, is granted and queues only
    while open, and ends once (abort, nested commit or commit decision),
    after every child it began; these problems follow the instance ones.
    `lifecycles`, if given, is the `Lifecycles` fed `events`."""
    if lifecycles is None:
        lifecycles = Lifecycles()
        lifecycles.feed(events)
    last_register = lifecycles.last_register
    first_outcome = lifecycles.first_outcome
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
    problems += lifecycles.problems
    return not problems, problems


def _parse_dump_lines(lines):
    out = {}
    for ln in lines:
        node, name, version, value = ln.split("\t")
        out[(node, name)] = (int(version), value)
    return out


def initial_records(lines):
    """The records of an `[initial]` dump, (node, name) -> (version,
    value), and each object's home node."""
    records = _parse_dump_lines(lines)
    return records, {name: node for (node, name) in records}


def scan_atomicity(events, dumps, up_nodes, view=None, initial=None):
    """Replay the trace's committed effects over the initial dump and
    compare with the final stable dump; also require the final volatile
    image of each node in `up_nodes` to hold exactly its stable records,
    and that of every other node to hold none.  `initial`, if given, is
    `initial_records(dumps["initial"])`."""
    if view is None:
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
    records, homes = initial or initial_records(dumps["initial"])
    state = dict(records)
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


class Decisions:
    """Durability's fold: every apply and every commit decision, in trace
    order."""

    def __init__(self):
        self.applies: list = []
        self.commits: list = []

    def feed(self, events):
        for ev in events:
            if ev.kind == "commit2":
                if ev.detail["phase"] == "apply":
                    self.applies.append(ev)
                if ev.detail.get("outcome") == "commit":
                    self.commits.append(ev)

    def copy(self) -> "Decisions":
        return _copied(self)


def check_durability(events, up_nodes, decisions=None):
    """Every commit decision must be followed by an apply at each
    participant that is up at the end of the run.  `decisions`, if
    given, is the `Decisions` fed `events`."""
    if decisions is None:
        decisions = Decisions()
        decisions.feed(events)
    applied = {(ev.txn, ev.detail["node"]) for ev in decisions.applies}
    problems = []
    for ev in decisions.commits:
        parts = [p for p in ev.detail["parts"].split(",") if p and p != "-"]
        for p in parts:
            if p in up_nodes and (ev.txn, p) not in applied:
                problems.append("seq %d: txn %d committed but never applied "
                                "at up node %s" % (ev.seq, ev.txn, p))
    return not problems, problems


def _fold_up_down(up_down, events):
    """`up_down`, node -> whether it is up, updated by each crash and
    recover of `events`."""
    for ev in events:
        if ev.kind == "crash":
            up_down[ev.detail["node"]] = False
        elif ev.kind == "recover":
            up_down[ev.detail["node"]] = True
    return up_down


def final_up_nodes(events, all_nodes, up_down=None):
    """The nodes up after `events`: those of `all_nodes` that no crash
    left down, and those a recover brought up.  `up_down`, if given, is
    `_fold_up_down({}, events)`."""
    if up_down is None:
        up_down = _fold_up_down({}, events)
    up = set(all_nodes)
    for node, is_up in up_down.items():
        if is_up:
            up.add(node)
        else:
            up.discard(node)
    return up


def verify_lock_rule(events, view=None):
    """Independent re-evaluation of every grant: all conflicting holders
    at grant time must be proper ancestors of the grantee."""
    if view is None:
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


class AuditState:
    """The folds of one audit over the events fed so far: the facts that
    depend on no later event.  `audit_trace` feeds a state the events it
    has not seen and then runs every pass over the whole trace, using the
    state up; a copy is fed apart from the state it was copied from."""

    def __init__(self):
        self.seen = 0               # events fed
        self.last = None            # the last of them
        self.core: list = []        # their CORE_KINDS subsequence
        self.up_down: dict = {}     # `_fold_up_down` of them
        # the passes' own views, fed the first `viewed` events of `core`
        # and the rest only when copied or taken, so that an audit holds
        # one view at a time
        self.views = {name: TxnView(()) for name in VIEW_PASSES}
        self.viewed = 0
        self.lifecycles = Lifecycles()
        self.decisions = Decisions()
        # (lines, records, homes) of the last [initial] dump read; one
        # list shared by every copy, as a dump's parse depends on no event
        self.initial = [None]

    def feed(self, events):
        """Fold in `events`, the ones after those already fed."""
        if not events:
            return
        self.seen += len(events)
        self.last = events[-1]
        core = [ev for ev in events if ev.kind in CORE_KINDS]
        if self.core:
            self.core += core
        else:
            self.core = core
        _fold_up_down(self.up_down, core)
        self.lifecycles.feed(events)
        self.decisions.feed(core)

    def copy(self) -> "AuditState":
        unviewed = self.core[self.viewed:]
        for view in self.views.values():
            view.feed(unviewed)
        self.viewed = len(self.core)
        state = object.__new__(AuditState)
        state.seen, state.last = self.seen, self.last
        state.core = list(self.core)
        state.up_down = dict(self.up_down)
        state.views = {name: view.copy() for name, view in self.views.items()}
        state.viewed = self.viewed
        state.lifecycles = self.lifecycles.copy()
        state.decisions = self.decisions.copy()
        state.initial = self.initial
        return state

    def take_view(self, name) -> TxnView:
        """Pass `name`'s view, fed every event of `core`; the state keeps
        it no longer."""
        view = self.views.pop(name)
        view.feed(islice(self.core, self.viewed, None))
        return view

    def initial_records(self, lines):
        """`initial_records(lines)`, parsed once per `[initial]` list."""
        memo = self.initial[0]
        if memo is None or memo[0] is not lines:
            memo = self.initial[0] = (lines, *initial_records(lines))
        return memo[1:]


@pause_cyclic_gc
def audit_trace(text: str, all_nodes=None, emitted=None, state=None):
    """Run every audit over a rendered trace file.  Returns a dict of
    check name -> (ok, info); key "ok" aggregates.  Raises MalformedTrace
    on schema violations and when a dump section is missing.  `emitted`,
    if given, is the (events, dumps) that `text` was rendered from, which
    the passes read in place of `trace.parse(text)`; they change none.
    `state`, if given, is an `AuditState` fed the first events of the
    trace, which the audit feeds the rest and then reads; ValueError if
    the state was fed other events."""
    events, dumps = emitted or trace_mod.parse(text)
    for section in trace_mod.DUMP_SECTIONS:
        if section not in dumps:
            raise MalformedTrace("trace has no [%s] dump section" % section)
    if all_nodes is None:
        all_nodes = {ln.split("\t")[0] for ln in dumps["initial"]}
    if state is None:
        state = AuditState()
    n = state.seen
    if n and (len(events) < n or events[n - 1] is not state.last):
        raise ValueError("the audit state was fed events other than the "
                         "first %d of this trace" % n)
    state.feed(events[n:] if n else events)
    core = state.core
    up_nodes = final_up_nodes(core, all_nodes, state.up_down)
    report = {
        "serializability": audit_serializability(
            core, state.take_view("serializability")),
        "smuggling": scan_smuggling(core, state.take_view("smuggling")),
        "bracketing": scan_bracketing(events, state.lifecycles),
        "atomicity": scan_atomicity(
            core, dumps, up_nodes, state.take_view("atomicity"),
            state.initial_records(dumps["initial"])),
        "durability": check_durability(core, up_nodes, state.decisions),
        "lock_rule": verify_lock_rule(core, state.take_view("lock_rule")),
    }
    report["ok"] = all(ok for ok, _ in report.values())
    return report
