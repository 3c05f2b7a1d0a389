"""Deterministic discrete-event simulator hosting virtual nodes, clients,
logical threads, message delivery, crash injection and trace recording.

One event loop owns all state.  Logical threads are scheduler records
advancing one step per scheduling event; blocking (lock waits, signal
waits, entry gathering, the exit barrier) is modeled as the thread
becoming non-runnable until an enabling event reschedules it.  Replaying
the same (scenario, seed) reproduces a byte-identical trace and dump.

Scheduled work is data, never a closure: a queue entry is `(time, prio,
seq, fn, args)` with `fn` a bound `Simulator` method.  So the queue can be
inspected, and `copy.deepcopy` of a simulator binds the copy's pending
work and clock to the copy, not to the original.  The run loop itself
fires index faults: after each handler (and after each quiesce pass) it
schedules every `fault index K` whose K-th event has been emitted, so the
trace stays a plain log that calls nothing back.

Ownership runs one way.  The parts of a simulator never point back at it
or at their owner: the clock lives on the trace (`Trace.now`) that every
emitting part already holds, the lock table asks the transaction table
for ancestry, and cross-links between instances and two-phase commits are
keys into `instances`, with a nested child's `parent` the only strong
link between instances.  So a finished run holds no reference cycle and
is freed by reference counting when its last reference goes; the one
exception is a run stopped by its horizon, whose unrun queue entries stay
bound to the simulator.

Top-level commits run two-phase commit over simulated messages with
presumed abort: a prepared participant that finds no commit record at the
coordinator resolves to abort.  A recovering node resolves only its own
prepared records; as coordinator it applies its commits at participants
that are still in doubt.  A `TwoPC` keeps only acks and applies: the
decision is its instance's status, and each prepare reads its redo from
the txn's writes, which no step or abort changes after the test line.
"""

import heapq
import random
from dataclasses import dataclass, field

from . import actions as act
from . import dag as dagmod
from .errors import DeadlockVictim, InconsistentFault, NodeDown
from .scenario import Scenario
from .store import LogRecord, ObjectStore, encode_value, decode_value
from .trace import Trace
from .txn import TransactionManager

MSG_LATENCY = (1, 3)
TWO_PC_TIMEOUT = 20

# thread states
GATHERING = "gathering"
RUNNABLE = "runnable"
BLOCKED_LOCK = "blocked_lock"
BLOCKED_SYNC = "blocked_sync"
BLOCKED_ORDER = "blocked_order"
AT_BARRIER = "at_barrier"
DONE = "done"
DEAD = "dead"


@dataclass
class Frame:
    instance: act.CAActionInstance
    steps: list
    pc: int = 0


class LThread:
    """Scheduler-level logical thread; never a platform thread."""

    def __init__(self, tid: int, client: str, node: str):
        self.tid = tid
        self.client = client
        self.node = node
        self.frames: list[Frame] = []
        self.status = GATHERING
        self.gen = 0            # invalidates stale scheduled continuations

    @property
    def frame(self) -> Frame | None:
        return self.frames[-1] if self.frames else None


@dataclass
class TwoPC:
    key: str                        # the instance's key in `instances`
    txn: int
    coordinator: str
    parts: list
    acks: set = field(default_factory=set)
    applied: set = field(default_factory=set)


class Simulator:
    def __init__(self, scenario: Scenario, seed=None, strategy=None,
                 horizon=None, unsafe_early_release=False,
                 auto_recover_after=None):
        self.sc = scenario
        self.auto_recover_after = auto_recover_after
        self.seed = scenario.seed if seed is None else seed
        self.strategy_cfg = strategy if strategy is not None else scenario.strategy
        self.horizon = scenario.horizon if horizon is None else horizon
        self.rng = random.Random(self.seed)
        self.trace = Trace()
        self.store = ObjectStore(scenario.nodes)
        for name, node, value in scenario.objects:
            self.store.create_object(name, node, encode_value(value))
        self.txns = TransactionManager(
            self.store, self.trace, unsafe_early_release=unsafe_early_release)
        self._q: list = []
        self._qseq = 0
        self._mid = 0
        self.threads: dict[int, LThread] = {}
        self._next_tid = 0
        self.instances: dict[str, act.CAActionInstance] = {}
        self.inflight: dict[int, TwoPC] = {}
        self.rejections: list = []
        self.crash_checks: list = []  # (node, time, stable_ok, vol_cleared)
        # (K, op, node) of each `fault index K`, by K, then in file order
        self.indexed_faults = sorted(
            ((f.when, f.op, f.node) for f in scenario.faults
             if f.when_kind == "index"), key=lambda f: f[0])
        self.initial_dump: list = []
        self._nested_only = {n for d in scenario.defs.values() for n in d.nested}

    @property
    def outcomes(self) -> dict:
        return {key: inst.status for key, inst in self.instances.items()
                if inst.terminal}

    def dumps(self) -> dict:
        return {"initial": self.initial_dump,
                "stable": self.store.dump_stable(),
                "volatile": self.store.dump_volatile()}

    def trace_text(self) -> str:
        return self.trace.render(self.dumps())

    @property
    def now(self) -> int:
        return self.trace.now

    # ------------------------------------------------------------------
    # scheduling

    def schedule(self, time, fn, *args, prio=None):
        if prio is None:
            prio = self.rng.random()
        self._qseq += 1
        heapq.heappush(self._q, (time, prio, self._qseq, fn, args))

    def inject_fault(self, time, op, node, prio=None):
        self.schedule(time, self._crash if op == "crash" else self._recover,
                      node, prio=prio)

    # ------------------------------------------------------------------
    # run loop

    def run(self) -> "Simulator":
        self.initial_dump = self.store.dump_stable()
        # grouped by action key: the order fixes each submission's rng draw
        groups: dict[str, list] = {}
        for c in self.sc.clients:
            groups.setdefault(c.action_key, []).append(c)
        for contribs in groups.values():
            for c in contribs:
                self.schedule(c.time, self._do_submit, c)
        for f in self.sc.faults:
            if f.when_kind == "time":
                self.inject_fault(f.when, f.op, f.node)

        trace, faults = self.trace, self.indexed_faults
        events = trace.events
        horizon_hit = False
        while True:
            while self._q:
                if self._q[0][0] > self.horizon:
                    horizon_hit = True
                    break
                t, _p, _s, fn, args = heapq.heappop(self._q)
                trace.now = max(trace.now, t)
                fn(*args)
                if faults and faults[0][0] < len(events):
                    self._fire_indexed()
            if horizon_hit or not self._quiesce():
                break
            self._fire_indexed()
        # a fault indexed past this point never fires
        self._finish()
        return self

    def _fire_indexed(self):
        """Schedule, ahead of all other work at this time, each indexed
        fault whose event has been emitted."""
        faults, emitted = self.indexed_faults, len(self.trace.events)
        while faults and faults[0][0] < emitted:
            _k, op, node = faults.pop(0)
            self.inject_fault(self.now, op, node, prio=-1.0)

    def _quiesce(self) -> bool:
        """Resolve stuck coordination at an empty queue; True if progress
        was made (events were scheduled or instances terminated)."""
        progress = False
        for inst in self._open_instances():
            if self._waiting(inst.sync_waiters, BLOCKED_SYNC):
                self.coordinated_abort(inst, "unmatched_await")
                progress = True
        for inst in self._open_instances():
            if self._waiting(inst.order_waiters, BLOCKED_ORDER):
                self.coordinated_abort(inst, "constraint_wait")
                progress = True
        return progress or bool(self._q)

    def _waiting(self, waiters, status) -> bool:
        return any(self.threads[tid].status == status
                   for tids in waiters.values() for tid in tids)

    def _finish(self):
        for inst in self._open_instances():
            self.coordinated_abort(inst, "horizon")

    def _open_instances(self):
        return sorted((i for i in self.instances.values() if not i.terminal),
                      key=lambda i: (-i.depth, i.key))

    # ------------------------------------------------------------------
    # submission and registration

    def _do_submit(self, c):
        self.trace.emit(self.now, "submit", client=c.client, node=c.node,
                        action=c.action_key, role=c.role)
        if not self.store.node_up(c.node):
            return  # registration from a crashed node never occurs
        th = LThread(self._next_tid, c.client, c.node)
        self._next_tid += 1
        self.threads[th.tid] = th
        self._register_top(th, c.action_key, c.role)

    def _reject(self, key, role, th, err):
        self.rejections.append((err, key, role, th.tid))
        self.trace.emit(self.now, "register", inst=key, role=role, th=th.tid,
                        ok=0, err=err)

    def _new_instance(self, defn, key, th, parent=None):
        """Create, register and arm the entry deadline of an instance."""
        if parent is None:
            strategy = dagmod.strategy_select(bool(defn.nested),
                                              self.strategy_cfg)
        else:
            strategy = parent.strategy
        inst = act.CAActionInstance(defn, key, th.node, strategy, parent)
        if parent is not None:
            parent.nested[defn.name] = key
        self.instances[key] = inst
        self.schedule(self.now + defn.deadline, self._deadline, inst)
        return inst

    def _register_top(self, th, key, role):
        defname = key.split("#", 1)[0]
        if defname in self._nested_only:
            err = "NotParentParticipant"
        else:
            inst = self.instances.get(key)
            if inst is None:
                inst = self._new_instance(self.sc.defs[defname], key, th)
            if inst.status == act.GATHERING and role not in inst.registered:
                self._register(inst, th, role)
                return
            err = "RoleTaken"
        self._reject(key, role, th, err)
        th.status = DONE

    def _register(self, inst, th, role):
        inst.registered[role] = th.tid
        th.frames.append(Frame(inst, inst.defn.roles[role].steps))
        th.status = GATHERING
        self.trace.emit(self.now, "register", inst=inst.key, role=role,
                        th=th.tid, node=th.node, ok=1)
        if set(inst.registered) == set(inst.defn.roles):
            self._start_instance(inst)

    def _deadline(self, inst):
        if inst.status == act.GATHERING:
            self.coordinated_abort(inst, "entry_timeout")

    # ------------------------------------------------------------------
    # instance lifecycle

    def _start_instance(self, inst):
        inst.status = act.RUNNING
        # the recovery line (the txn's undo log) needs every footprint home up
        for name in inst.defn.footprint:
            if not self.store.node_up(self.store.homes[name]):
                self.coordinated_abort(inst, "node_down")
                return
        self.trace.emit(self.now, "line_recovery", inst=inst.key,
                        label="%s@%d" % (inst.key, self.now))
        if inst.parent is None:
            txn = self.txns.begin()
            inst.txn_id = txn.id
        elif inst.strategy == dagmod.NESTED:
            txn = self.txns.begin(inst.parent.txn_id)
            inst.txn_id = txn.id
        else:
            inst.txn_id = inst.parent.txn_id
            inst.savepoint = self.txns.savepoint(inst.txn_id)
        inst.dag = dagmod.OperationDAG()
        if inst.parent is not None:
            self._add_boundary(inst)
        for tid in inst.registered.values():
            th = self.threads[tid]
            if th.status == GATHERING:
                th.status = RUNNABLE
                self._schedule_step(th)

    def _add_boundary(self, inst):
        parent = inst.parent
        nid = parent.dag.add_node(-1, -1, "nested", inst.defn.name).nid
        inst.boundary_nid = nid
        for tid in inst.registered.values():
            prev = parent.last_nid.get(tid)
            if prev is not None:
                parent.dag.add_edge(prev, nid, dagmod.PROG)
            parent.last_nid[tid] = nid
        # an order edge joins two boundaries, so it is added once: when the
        # later of the two children it names starts
        name = inst.defn.name
        for a, b in parent.defn.order:
            ia, ib = self._child(parent, a), self._child(parent, b)
            if name in (a, b) and ia is not None and ib is not None \
                    and ia.boundary_nid is not None \
                    and ib.boundary_nid is not None:
                parent.dag.add_edge(ia.boundary_nid, ib.boundary_nid,
                                    dagmod.CONSTRAINT)

    def _child(self, inst, name):
        """inst's nested instance of action `name`, or None."""
        key = inst.nested.get(name)
        return None if key is None else self.instances[key]

    # ------------------------------------------------------------------
    # thread stepping

    def _schedule_step(self, th):
        th.gen += 1
        self.schedule(self.now + 1, self._thread_step, th, th.gen)

    def _wake(self, th):
        if th.status in (BLOCKED_LOCK, BLOCKED_SYNC, BLOCKED_ORDER):
            th.status = RUNNABLE
            self._schedule_step(th)

    def _thread_step(self, th, gen):
        if th.gen != gen or th.status != RUNNABLE or not th.frames:
            return
        frame = th.frame
        inst = frame.instance
        if inst.status != act.RUNNING:
            return
        if frame.pc >= len(frame.steps):
            self._arrive(th)
            return
        step = frame.steps[frame.pc]
        if step.kind == act.READ:
            self._step_read(th, inst, frame, step)
        elif step.kind == act.WRITE:
            self._step_write(th, inst, frame, step)
        elif step.kind == act.SYNC:
            self._step_sync(th, inst, frame, step)
        elif step.kind == act.ENTER:
            self._step_enter(th, inst, frame, step)
        else:  # EXIT, the one step kind left after parsing
            self._arrive(th)

    def _acquire_for(self, th, inst, wants) -> bool:
        """Acquire each (obj, mode); False if the thread blocked or its
        instance aborted along the way."""
        for obj, mode in wants:
            if not self.store.node_up(self.store.homes[obj]):
                self.coordinated_abort(self._txn_owner(inst), "node_down")
                return False
            try:
                status = self.txns.acquire(inst.txn_id, obj, mode, tag=th.tid)
            except DeadlockVictim:
                self.coordinated_abort(self._txn_owner(inst), "deadlock")
                return False
            if status == "queued":
                th.status = BLOCKED_LOCK
                return False
        return True

    def _txn_owner(self, inst):
        """Outermost instance bound to the same transaction (differs from
        inst only under the flatten strategy)."""
        while inst.parent is not None and inst.parent.txn_id == inst.txn_id:
            inst = inst.parent
        return inst

    def _dag_op(self, inst, th, frame, kind, obj):
        nid = inst.dag.add_node(th.tid, frame.pc, kind, obj).nid
        prev = inst.last_nid.get(th.tid)
        if prev is not None:
            inst.dag.add_edge(prev, nid, dagmod.PROG)
        inst.last_nid[th.tid] = nid
        return nid

    def _step_read(self, th, inst, frame, step):
        if not self._acquire_for(th, inst, [(step.obj, "r")]):
            return
        self.txns.read(inst.txn_id, step.obj, th=th.tid, inst=inst.key)
        self._dag_op(inst, th, frame, "read", step.obj)
        frame.pc += 1
        self._schedule_step(th)

    def _step_write(self, th, inst, frame, step):
        refs = [n for n in step.expr.names if n != step.obj]
        wants = [(n, "r") for n in refs] + [(step.obj, "w")]
        if not self._acquire_for(th, inst, wants):
            return
        env = {}
        for name in step.expr.names:
            env[name] = decode_value(
                self.txns.read(inst.txn_id, name, th=th.tid, inst=inst.key))
        try:
            value = encode_value(step.expr.eval(env))
        except ZeroDivisionError:
            self.coordinated_abort(inst, "eval_error")
            return
        granted = self.txns.write(inst.txn_id, step.obj, value,
                                  th=th.tid, inst=inst.key)
        if granted:
            self._apply_grants(granted)
        self._dag_op(inst, th, frame, "write", step.obj)
        frame.pc += 1
        self._schedule_step(th)

    def _step_sync(self, th, inst, frame, step):
        if step.sync_op == "emit":
            nid = self._dag_op(inst, th, frame, "sync_emit", None)
            inst.signals[step.signal] = nid
            self.trace.emit(self.now, "sync_emit", inst=inst.key, th=th.tid,
                            signal=step.signal)
            for tid in inst.sync_waiters.pop(step.signal, []):
                self._wake(self.threads[tid])
            frame.pc += 1
            self._schedule_step(th)
        else:
            if step.signal in inst.signals:
                nid = self._dag_op(inst, th, frame, "sync_await", None)
                inst.dag.add_edge(inst.signals[step.signal], nid, dagmod.SYNC)
                self.trace.emit(self.now, "sync_await", inst=inst.key,
                                th=th.tid, signal=step.signal)
                frame.pc += 1
                self._schedule_step(th)
            else:
                th.status = BLOCKED_SYNC
                inst.sync_waiters.setdefault(step.signal, []).append(th.tid)

    def _step_enter(self, th, inst, frame, step):
        for a, b in inst.defn.order:
            if b == step.action:
                pred = self._child(inst, a)
                if pred is None or not pred.terminal:
                    th.status = BLOCKED_ORDER
                    inst.order_waiters.setdefault(a, []).append(th.tid)
                    return
        sub = self._child(inst, step.action)
        if sub is None:
            key = "%s/%s" % (inst.key, step.action)
            sub = self._new_instance(self.sc.defs[step.action], key, th, inst)
        if sub.status != act.GATHERING or step.role in sub.registered:
            self._reject(step.action, step.role, th, "RoleTaken")
            self.coordinated_abort(inst, "roletaken")
            return
        self.trace.emit(self.now, "step", inst=inst.key, th=th.tid,
                        op="enter", target=step.action)
        self._register(sub, th, step.role)

    # ------------------------------------------------------------------
    # test line and outcomes

    def _arrive(self, th):
        inst = th.frame.instance
        if th.tid not in inst.arrived:
            self.trace.emit(self.now, "step", inst=inst.key, th=th.tid,
                            op="exit")
        th.status = AT_BARRIER
        inst.arrived.add(th.tid)
        alive = {tid for tid in inst.registered.values()
                 if self.threads[tid].status != DEAD}
        if alive and alive.issubset(inst.arrived):
            self._test_line(inst)

    def _txn_view(self, txn_id, name) -> bytes:
        t = txn_id
        while t is not None:
            txn = self.txns.txns[t]
            if name in txn.writes:
                return txn.writes[name]
            t = txn.parent
        return self.store.committed(name)[0]

    def _test_line(self, inst):
        inst.status = act.TESTING
        try:
            env = {name: decode_value(self._txn_view(inst.txn_id, name))
                   for name in inst.defn.footprint}
        except NodeDown:
            self.coordinated_abort(inst, "node_down")
            return
        try:
            failed = [t.name for t in inst.defn.tests
                      if not t.expr.eval(env)]
        except ZeroDivisionError:
            self.coordinated_abort(inst, "eval_error")
            return
        self.trace.emit(self.now, "test_line", inst=inst.key,
                        result="fail" if failed else "pass",
                        failed=",".join(failed) or "-")
        if failed:
            self.coordinated_abort(inst, "acceptance_test")
            return
        if inst.parent is None:
            self._start_2pc(inst)
        else:
            if inst.strategy == dagmod.NESTED:
                self._apply_grants(self.txns.commit_nested(inst.txn_id))
            inst.savepoint = None
            inst.status = act.COMMITTED
            self._deliver_outcome(inst)

    def _deliver_outcome(self, inst):
        for role, tid in inst.registered.items():
            th = self.threads[tid]
            if th.status in (DEAD, DONE):
                continue
            self.trace.emit(self.now, "outcome", inst=inst.key, th=tid,
                            role=role, outcome=inst.status)
            # children delivered first, so inst's frame is on top
            th.frames.pop()
            if th.frames:
                th.frames[-1].pc += 1
                th.status = RUNNABLE
                self._schedule_step(th)
            else:
                th.status = DONE
                th.gen += 1
        if inst.parent is not None:
            waiters = inst.parent.order_waiters.pop(inst.defn.name, [])
            for tid in sorted(waiters):
                if self.threads[tid].status == BLOCKED_ORDER:
                    self._wake(self.threads[tid])

    # ------------------------------------------------------------------
    # coordinated abort

    def coordinated_abort(self, inst, cause):
        if inst.terminal:
            return
        for key in list(inst.nested.values()):
            child = self.instances[key]
            if not child.terminal:
                self.coordinated_abort(child, "parent_abort")
        st = self.inflight.get(inst.txn_id) if inst.parent is None else None
        if st is not None:
            # undecided: each decision makes the instance terminal at once
            if self.store.node_up(st.coordinator):
                self.store.append_log(st.coordinator,
                                      LogRecord("abort", st.txn))
            self.trace.emit(self.now, "commit2", txn=st.txn,
                            phase="decision", outcome="abort")
        if inst.savepoint is not None:  # a region of its parent's txn
            self.txns.rollback_to(inst.savepoint)
            inst.savepoint = None
        elif inst.txn_id is not None:
            self._apply_grants(self.txns.abort(inst.txn_id, cause=cause))
        inst.status = act.ABORTED
        inst.abort_cause = cause
        self._deliver_outcome(inst)
        if inst.defn.escalate and inst.parent is not None:
            self.coordinated_abort(inst.parent, "escalated")

    # ------------------------------------------------------------------
    # two-phase commit

    def _start_2pc(self, inst):
        st = TwoPC(inst.key, inst.txn_id, inst.origin_node,
                   sorted(self.txns.writes_by_node(inst.txn_id)))
        self.inflight[st.txn] = st
        if not st.parts:
            self._decide_commit(st)
            return
        for p in st.parts:
            self._send(st.coordinator, p, "prepare", self._on_prepare, st, p)
        self.schedule(self.now + TWO_PC_TIMEOUT, self.coordinated_abort, inst,
                      "2pc_timeout")

    def _on_prepare(self, st, p):
        part = self.txns.writes_by_node(st.txn)[p]
        redo = tuple((name, value, self.store.committed(name)[1] + 1)
                     for name, value in sorted(part.items()))
        self.store.append_log(p, LogRecord("prepare", st.txn,
                                           coordinator=st.coordinator,
                                           redo=redo))
        self.trace.emit(self.now, "commit1", txn=st.txn, node=p)
        self._send(p, st.coordinator, "ack", self._on_ack, st, p)

    def _on_ack(self, st, p):
        st.acks.add(p)
        if not self.instances[st.key].terminal and set(st.parts) <= st.acks:
            self._decide_commit(st)

    def _decide_commit(self, st):
        self.store.append_log(st.coordinator, LogRecord("commit", st.txn))
        self.trace.emit(self.now, "commit2", txn=st.txn, phase="decision",
                        outcome="commit", parts=",".join(st.parts) or "-")
        written = set(self.txns.txns[st.txn].writes)
        other = [o for o, _m in self.txns.locktable.locks_of(st.txn)
                 if o not in written]
        self._apply_grants(self.txns.locktable.release_objects(st.txn, other))
        inst = self.instances[st.key]
        inst.status = act.COMMITTED
        self._deliver_outcome(inst)
        for p in st.parts:
            self._send(st.coordinator, p, "apply", self._apply_at, st, p)

    def _apply_at(self, st, p):
        if p in st.applied:
            return
        rec = self.store.find_log(p, "prepare", st.txn)
        names = []
        for name, value, version in rec.redo:
            self.store.apply_commit(name, value, version)
            names.append(name)
        st.applied.add(p)
        self.trace.emit(self.now, "commit2", txn=st.txn, phase="apply",
                        node=p, objs=",".join(names))
        self._apply_grants(self.txns.locktable.release_objects(st.txn, names))
        if st.applied == set(st.parts) \
                and self.store.node_up(st.coordinator):
            self.store.append_log(st.coordinator, LogRecord("end", st.txn))

    def _apply_grants(self, granted):
        if not granted:
            return
        self.txns.emit_grants(granted)
        for req in granted:
            th = self.threads.get(req.tag)
            if th is not None and th.status == BLOCKED_LOCK:
                self._wake(th)

    # ------------------------------------------------------------------
    # messages

    def _send(self, src, dst, mkind, fn, *args):
        # src is up: every send runs in a handler on its own node
        self._mid += 1
        self.trace.emit(self.now, "msg_send", **{"from": src},
                        to=dst, mtype=mkind, mid=self._mid)
        latency = self.rng.randint(*MSG_LATENCY)
        self.schedule(self.now + latency, self._deliver,
                      src, dst, mkind, self._mid, fn, args)

    def _deliver(self, src, dst, mkind, mid, fn, args):
        if not self.store.node_up(dst):
            self.trace.emit(self.now, "drop", **{"from": src},
                            to=dst, mtype=mkind, mid=mid)
            return
        self.trace.emit(self.now, "msg_recv", **{"from": src},
                        to=dst, mtype=mkind, mid=mid)
        fn(*args)

    # ------------------------------------------------------------------
    # crash and recovery

    def _crash(self, node):
        if not self.store.node_up(node):
            raise InconsistentFault("crash of down node %s" % node)
        before = self.store.dump_stable()
        self.store.crash_node(node)
        stable_ok = before == self.store.dump_stable()
        vol_cleared = not self.store.nodes[node].volatile
        self.crash_checks.append((node, self.now, stable_ok, vol_cleared))
        self.trace.emit(self.now, "crash", node=node)
        if self.auto_recover_after is not None:
            self.schedule(self.now + self.auto_recover_after,
                          self._auto_recover, node)
        dead = [th for th in self.threads.values()
                if th.node == node and th.status not in (DONE, DEAD)]
        for th in dead:
            th.status = DEAD
            th.gen += 1
        self.txns.locktable.drop_waiters([th.tid for th in dead])
        for inst in self._open_instances():
            if any(self.threads[tid].status == DEAD
                   for tid in inst.registered.values()):
                self.coordinated_abort(inst, "crash")

    def _auto_recover(self, node):
        if not self.store.node_up(node):
            self._recover(node)

    def _recover(self, node):
        if self.store.node_up(node):
            raise InconsistentFault("recover of up node %s" % node)
        self.store.recover_node(node)
        self.trace.emit(self.now, "recover", node=node)
        self._resolve_participant(node)
        self._resolve_coordinator(node)

    def _resolve_participant(self, node):
        """Presumed-abort resolution of prepared-but-unresolved records."""
        for rec in self.store.nodes[node].log:
            if rec.kind != "prepare":
                continue
            st = self.inflight[rec.txn]
            coord = rec.coordinator
            if not self.store.node_up(coord):
                continue  # in doubt: the coordinator's recovery applies a commit
            if self.store.find_log(coord, "commit", rec.txn) is not None:
                self._apply_at(st, node)  # returns at once if applied
            elif self.store.find_log(coord, "abort", rec.txn) is None:
                # no decision survives: presumed abort (an abort decided while
                # the coordinator was down is logged by _resolve_coordinator,
                # and its instance is terminal already)
                self.coordinated_abort(self.instances[st.key],
                                       "presumed_abort")

    def _resolve_coordinator(self, node):
        for st in self.inflight.values():
            if st.coordinator != node:
                continue
            # decided: the coordinator's crash killed its first
            # registrant's thread, and so aborted the instance
            status = self.instances[st.key].status
            if status == act.ABORTED \
                    and self.store.find_log(node, "abort", st.txn) is None:
                self.store.append_log(node, LogRecord("abort", st.txn))
            elif status == act.COMMITTED:
                for p in st.parts:
                    if p not in st.applied and self.store.node_up(p):
                        self._apply_at(st, p)

