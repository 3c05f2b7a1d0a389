"""Deterministic discrete-event simulator hosting virtual nodes, clients,
logical threads, message delivery, crash injection and trace recording.

One event loop owns all state.  Logical threads are scheduler records
advancing one step per scheduling event; blocking (lock waits, signal
waits, entry gathering, the exit barrier) is modeled as the thread
becoming non-runnable until an enabling event reschedules it.  Replaying
the same (scenario, seed) reproduces a byte-identical trace and dump.

Scheduled work is plain data, never a closure: a queue entry is `(time,
prio, seq, fn, args)` with `fn` a plain `Simulator` function, called as
`fn(sim, *args)`, and `args` only ids, keys, node names and immutable
scenario values, never a simulator, thread, instance or commit.  So the
queue can be inspected, and a fork (`Simulator.fork`) shares its entries.
The run loop reads its position (the number of events emitted) and its
clock from the trace alone.  Before each handler and each quiesce pass it
schedules every `fault index K` whose K-th event has been emitted, so the
trace stays a plain log that calls nothing back, and then `run_to` pauses
the run if the trace has passed its index.  `fork` copies a paused run's
mutable state.  A crash sweep gives each fork of one fault-free run its
crash as a `fault index` in `indexed_faults`, which the fork fires before
any other work when it runs on, instead of simulating the shared prefix
again for every crash point.

Ownership runs one way.  The parts of a simulator never point back at it
or at their owner: the clock lives on the trace (`Trace.now`) that every
emitting part already holds, the lock table asks the transaction table
for ancestry, and cross-links between instances and two-phase commits are
keys into `instances`, with a nested child's `parent` the only strong
link between instances.  So a run, finished or stopped at any point,
holds no reference cycle and is freed by reference counting when its
last reference goes.  So `run` and `run_to` pause the cyclic collector,
whose passes would only walk the live events and records and free
nothing, and they restore the caller's setting when they return or raise.

Top-level commits run two-phase commit over simulated messages with
presumed abort: a prepared participant that finds no commit record at the
coordinator resolves to abort.  A recovering node resolves only its own
prepared records; as coordinator it applies its commits at participants
that are still in doubt.  A `TwoPC` keeps only acks and applies: the
decision is its instance's status, and each prepare reads its redo from
the txn's writes, which no step or abort changes after the test line.
"""

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from . import actions as act
from . import dag as dagmod
from .errors import DeadlockVictim, InconsistentFault, NodeDown
from .gcpause import pause_cyclic_gc
from .scenario import Scenario
from .store import LogRecord, ObjectStore
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

    def __init__(self, tid: int, client: str, node: str, tid_text=None):
        self.tid = tid
        self.tid_text = tid_text or str(tid)    # as the trace writes it
        self.client = client
        self.node = node
        self.frames: list[Frame] = []
        self.status = GATHERING
        self.gen = 0            # invalidates stale scheduled continuations

    def copy(self, instances) -> "LThread":
        """This thread for a fork whose instances are `instances`."""
        th = LThread(self.tid, self.client, self.node, self.tid_text)
        th.frames = [Frame(instances[f.instance.key], f.steps, f.pc)
                     for f in self.frames]
        th.status = self.status
        th.gen = self.gen
        return th


@dataclass
class TwoPC:
    key: str                        # the instance's key in `instances`
    txn: int
    coordinator: str
    parts: list                     # never changed once sorted
    acks: set = field(default_factory=set)
    applied: set = field(default_factory=set)

    def copy(self) -> "TwoPC":
        return TwoPC(self.key, self.txn, self.coordinator, self.parts,
                     set(self.acks), set(self.applied))


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
            self.store.create_object(name, node, value)
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
        # each `fault index K`, by K, then in file order
        self.indexed_faults = sorted(
            (f for f in scenario.faults if f.when_kind == "index"),
            key=lambda f: f.when)
        self.initial_dump: list = []
        self._nested_only = {n for d in scenario.defs.values() for n in d.nested}
        self._started = False

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
        heappush(self._q, (time, prio, self._qseq, fn, args))

    def _inject_fault(self, time, op, node, prio=None):
        self.schedule(time, Simulator._crash if op == "crash"
                      else Simulator._recover, node, prio=prio)

    # ------------------------------------------------------------------
    # run loop

    @pause_cyclic_gc
    def run(self) -> "Simulator":
        """Run on from wherever this simulator is to the end of the run."""
        self._advance(None)
        # a fault indexed past this point never fires
        self._finish()
        return self

    @pause_cyclic_gc
    def run_to(self, index) -> bool:
        """Advance until the trace holds more than `index` events, checked
        just after indexed faults are: before each handler and each
        quiesce pass.  True if that point was reached; False if the run
        ended first, unfinished (`run` finishes it)."""
        return self._advance(index)

    def fork(self) -> "Simulator":
        """An independent copy of this simulator, paused where it is.  Only
        mutable state is copied; the scenario and everything it holds,
        and every emitted event, log record, lock request and savepoint are
        shared, as nothing changes them once made.  So are the rendered
        lines of the events so far (`Trace.copy`): the forks of one paused
        run render its prefix once between them.  No DAG is copied: each
        instance copy reads its DAG from the fork's trace."""
        sim = object.__new__(type(self))
        sim.__dict__.update(self.__dict__)
        sim.rng = random.Random.__new__(random.Random)  # state set at once
        sim.rng.setstate(self.rng.getstate())
        sim.trace = self.trace.copy()
        sim.store = self.store.copy()
        sim.txns = self.txns.copy(sim.store, sim.trace)
        sim._q = list(self._q)
        # parents come before their children in `instances`
        sim.instances = insts = {}
        for key, inst in self.instances.items():
            insts[key] = inst.copy(
                None if inst.parent is None else insts[inst.parent.key],
                sim.trace)
        sim.threads = {tid: th.copy(insts) for tid, th in self.threads.items()}
        sim.inflight = {t: st.copy() for t, st in self.inflight.items()}
        sim.rejections = list(self.rejections)
        sim.crash_checks = list(self.crash_checks)
        sim.indexed_faults = list(self.indexed_faults)
        return sim

    def _start(self):
        self._started = True
        self.initial_dump = self.store.dump_stable()
        # grouped by action key: the order fixes each submission's rng draw
        groups: dict[str, list] = {}
        for c in self.sc.clients:
            groups.setdefault(c.action_key, []).append(c)
        for contribs in groups.values():
            for c in contribs:
                self.schedule(c.time, Simulator._do_submit, c)
        for f in self.sc.faults:
            if f.when_kind == "time":
                self._inject_fault(f.when, f.op, f.node)

    def _advance(self, pause) -> bool:
        """The run loop: True once the trace holds more than `pause`
        events (never, for None), False when the run ends.  Before each
        handler and each quiesce pass it schedules, ahead of all other
        work at this time, each indexed fault whose event has been
        emitted, and then pauses if the trace has passed `pause`.  So a
        fault given to a paused run (a sweep fork's crash) fires first."""
        if not self._started:
            self._start()
        trace, q, faults = self.trace, self._q, self.indexed_faults
        events = trace.events
        while True:
            while faults and faults[0].when < len(events):
                f = faults.pop(0)
                self._inject_fault(trace.now, f.op, f.node, prio=-1.0)
            if pause is not None and pause < len(events):
                return True
            if not q:
                if not self._quiesce():
                    return False
            elif q[0][0] > self.horizon:
                return False
            else:
                t, _p, _s, fn, args = heappop(q)
                if t > trace.now:
                    trace.now = t
                fn(self, *args)

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
        self.trace.emit("submit", None, None, {
            "action": c.action_key, "client": c.client, "node": c.node,
            "role": c.role})
        if not self.store.node_up(c.node):
            return  # registration from a crashed node never occurs
        th = LThread(self._next_tid, c.client, c.node)
        self._next_tid += 1
        self.threads[th.tid] = th
        self._register_top(th, c.action_key, c.role)

    def _reject(self, key, role, th, err):
        self.rejections.append((err, key, role, th.tid))
        self.trace.emit("register", None, None, {
            "err": err, "inst": key, "ok": "0", "role": role,
            "th": th.tid_text})

    def _new_instance(self, defn, key, th, parent=None):
        """Create, register and arm the entry deadline of an instance."""
        if parent is None:
            strategy = dagmod.strategy_select(bool(defn.nested),
                                              self.strategy_cfg)
        else:
            strategy = parent.strategy
        inst = act.CAActionInstance(defn, key, th.node, strategy,
                                    self.trace, parent)
        if parent is not None:
            parent.nested[defn.name] = key
        self.instances[key] = inst
        self.schedule(self.now + defn.deadline, Simulator._deadline, key)
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
        self.trace.emit("register", None, None, {
            "inst": inst.key, "node": th.node, "ok": "1", "role": role,
            "th": th.tid_text})
        # the parser admits only declared roles, and each registers once
        if len(inst.registered) == len(inst.defn.roles):
            self._start_instance(inst)

    def _deadline(self, key):
        inst = self.instances[key]
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
        self.trace.emit("line_recovery", None, None, {
            "inst": inst.key, "label": "%s@%d" % (inst.key, self.now)})
        if inst.parent is None:
            txn = self.txns.begin()
            inst.txn_id = txn.id
        elif inst.strategy == dagmod.NESTED:
            txn = self.txns.begin(inst.parent.txn_id)
            inst.txn_id = txn.id
        else:
            inst.txn_id = inst.parent.txn_id
            inst.savepoint = self.txns.savepoint(inst.txn_id)
        for tid in inst.registered.values():
            th = self.threads[tid]
            if th.status == GATHERING:
                th.status = RUNNABLE
                self._schedule_step(th)

    def _child(self, inst, name):
        """inst's nested instance of action `name`, or None."""
        key = inst.nested.get(name)
        return None if key is None else self.instances[key]

    # ------------------------------------------------------------------
    # thread stepping

    def _schedule_step(self, th):
        th.gen += 1
        self.schedule(self.trace.now + 1, Simulator._thread_step, th.tid,
                      th.gen)

    def _wake(self, th):
        if th.status in (BLOCKED_LOCK, BLOCKED_SYNC, BLOCKED_ORDER):
            th.status = RUNNABLE
            self._schedule_step(th)

    def _thread_step(self, tid, gen):
        th = self.threads[tid]
        if th.gen != gen or th.status != RUNNABLE or not th.frames:
            return
        frame = th.frames[-1]
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

    def _step_read(self, th, inst, frame, step):
        if not self._acquire_for(th, inst, [(step.obj, "r")]):
            return
        self.txns.read(inst.txn_id, step.obj, inst.key, th.tid_text)
        frame.pc += 1
        self._schedule_step(th)

    def _step_write(self, th, inst, frame, step):
        refs = [n for n in step.expr.names if n != step.obj]
        wants = [(n, "r") for n in refs] + [(step.obj, "w")]
        if not self._acquire_for(th, inst, wants):
            return
        env = {name: self.txns.read(inst.txn_id, name, inst.key, th.tid_text)
               for name in step.expr.names}
        try:
            value = int(step.expr.eval(env))  # a comparison gives a bool
        except ZeroDivisionError:
            self.coordinated_abort(inst, "eval_error")
            return
        granted = self.txns.write(inst.txn_id, step.obj, value,
                                  inst.key, th.tid_text)
        if granted:
            self._apply_grants(granted)
        frame.pc += 1
        self._schedule_step(th)

    def _step_sync(self, th, inst, frame, step):
        if step.sync_op == "emit":
            inst.signals.add(step.signal)
            self.trace.emit("sync_emit", None, None, {
                "inst": inst.key, "signal": step.signal, "th": th.tid_text})
            for tid in inst.sync_waiters.pop(step.signal, []):
                self._wake(self.threads[tid])
            frame.pc += 1
            self._schedule_step(th)
        else:
            if step.signal in inst.signals:
                self.trace.emit("sync_await", None, None, {
                    "inst": inst.key, "signal": step.signal,
                    "th": th.tid_text})
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
        self.trace.emit("step", None, None, {
            "inst": inst.key, "op": "enter", "target": step.action,
            "th": th.tid_text})
        self._register(sub, th, step.role)

    # ------------------------------------------------------------------
    # test line and outcomes

    def _arrive(self, th):
        inst = th.frames[-1].instance
        if th.tid not in inst.arrived:
            self.trace.emit("step", None, None, {
                "inst": inst.key, "op": "exit", "th": th.tid_text})
        th.status = AT_BARRIER
        inst.arrived.add(th.tid)
        alive = {tid for tid in inst.registered.values()
                 if self.threads[tid].status != DEAD}
        if alive and alive.issubset(inst.arrived):
            self._test_line(inst)

    def _txn_view(self, txn_id, name) -> int:
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
            env = {name: self._txn_view(inst.txn_id, name)
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
        self.trace.emit("test_line", None, None, {
            "failed": ",".join(failed) or "-", "inst": inst.key,
            "result": "fail" if failed else "pass"})
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
            self.trace.emit("outcome", None, None, {
                "inst": inst.key, "outcome": inst.status, "role": role,
                "th": th.tid_text})
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
            self.trace.emit("commit2", st.txn, None,
                            {"outcome": "abort", "phase": "decision"})
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
            self._send(st.coordinator, p, "prepare", Simulator._on_prepare,
                       st.txn, p)
        self.schedule(self.now + TWO_PC_TIMEOUT, Simulator._commit_timeout,
                      inst.key)

    def _commit_timeout(self, key):
        self.coordinated_abort(self.instances[key], "2pc_timeout")

    def _on_prepare(self, txn, p):
        st = self.inflight[txn]
        part = self.txns.writes_by_node(st.txn)[p]
        redo = tuple((name, value, self.store.committed(name)[1] + 1)
                     for name, value in sorted(part.items()))
        self.store.append_log(p, LogRecord("prepare", st.txn,
                                           coordinator=st.coordinator,
                                           redo=redo))
        self.trace.emit("commit1", st.txn, None, {"node": p})
        self._send(p, st.coordinator, "ack", Simulator._on_ack, txn, p)

    def _on_ack(self, txn, p):
        st = self.inflight[txn]
        st.acks.add(p)
        if not self.instances[st.key].terminal and set(st.parts) <= st.acks:
            self._decide_commit(st)

    def _decide_commit(self, st):
        self.store.append_log(st.coordinator, LogRecord("commit", st.txn))
        self.trace.emit("commit2", st.txn, None, {
            "outcome": "commit", "parts": ",".join(st.parts) or "-",
            "phase": "decision"})
        written = set(self.txns.txns[st.txn].writes)
        other = [o for o, _m in self.txns.locktable.locks_of(st.txn)
                 if o not in written]
        self._apply_grants(self.txns.locktable.release_objects(st.txn, other))
        inst = self.instances[st.key]
        inst.status = act.COMMITTED
        self._deliver_outcome(inst)
        for p in st.parts:
            self._send(st.coordinator, p, "apply", Simulator._apply_at,
                       st.txn, p)

    def _apply_at(self, txn, p):
        st = self.inflight[txn]
        if p in st.applied:
            return
        rec = self.store.find_log(p, "prepare", st.txn)
        names = []
        for name, value, version in rec.redo:
            self.store.apply_commit(name, value, version)
            names.append(name)
        st.applied.add(p)
        self.trace.emit("commit2", st.txn, None, {
            "node": p, "objs": ",".join(names), "phase": "apply"})
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
        mid = str(self._mid)
        self.trace.emit("msg_send", None, None,
                        {"from": src, "mid": mid, "mtype": mkind, "to": dst})
        latency = self.rng.randint(*MSG_LATENCY)
        self.schedule(self.now + latency, Simulator._deliver,
                      src, dst, mkind, mid, fn, args)

    def _deliver(self, src, dst, mkind, mid, fn, args):
        detail = {"from": src, "mid": mid, "mtype": mkind, "to": dst}
        if not self.store.node_up(dst):
            self.trace.emit("drop", None, None, detail)
            return
        self.trace.emit("msg_recv", None, None, detail)
        fn(self, *args)

    # ------------------------------------------------------------------
    # crash and recovery

    def _crash(self, node):
        if not self.store.node_up(node):
            raise InconsistentFault("crash of down node %s" % node)
        before = [dict(ns.stable) for ns in self.store.nodes.values()]
        self.store.crash_node(node)
        stable_ok = before == [ns.stable for ns in self.store.nodes.values()]
        vol_cleared = not self.store.nodes[node].volatile
        self.crash_checks.append((node, self.now, stable_ok, vol_cleared))
        self.trace.emit("crash", None, None, {"node": node})
        if self.auto_recover_after is not None:
            self.schedule(self.now + self.auto_recover_after,
                          Simulator._auto_recover, node)
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
        self.trace.emit("recover", None, None, {"node": node})
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
                self._apply_at(st.txn, node)  # returns at once if applied
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
                        self._apply_at(st.txn, p)

