"""Operation DAGs and the two strategies for mapping a joint action onto
transactions.

The DAG captures the partial order over operation invocations of one
action instance: per-thread program order, cross-thread synchronization
edges from completed emit/await pairs, and declared ordering constraints
between nested-action boundary nodes.  Under flatten the whole tree runs
in one transaction and executes one linearization of the DAG; under
nested each nested action gets a child transaction and every linear
extension stays admissible.  `from_trace` builds it from a run's events,
and `instance_dag` from the part of a trace that one instance reads.
"""

from dataclasses import dataclass

from .errors import CyclicConstraint, MalformedTrace

PROG = "prog"
SYNC = "sync"
CONSTRAINT = "constraint"

FLATTEN = "flatten"
NESTED = "nested"


@dataclass
class OpNode:
    nid: int
    thread: int       # thread ordinal; -1 for a collapsed nested boundary
    step: int
    kind: str         # read | write | sync_emit | sync_await | nested
    obj: str | None = None


class OperationDAG:
    def __init__(self):
        self.nodes: list[OpNode] = []
        self.edges: list[tuple[int, int, str]] = []
        self._succ: dict[int, list[int]] = {}

    def add_node(self, thread, step, kind, obj=None) -> OpNode:
        node = OpNode(len(self.nodes), thread, step, kind, obj)
        self.nodes.append(node)
        return node

    def add_edge(self, src: int, dst: int, etype: str):
        assert src != dst
        self.edges.append((src, dst, etype))
        self._succ.setdefault(src, []).append(dst)

    def successors(self, nid: int):
        return self._succ.get(nid, [])

    def count_linear_extensions(self) -> int:
        """Number of topological orders; 0 when the DAG has a cycle."""
        indeg = {n.nid: 0 for n in self.nodes}
        for _s, d, _t in self.edges:
            indeg[d] += 1
        return _count_orders(self, indeg, set())


def _count_orders(dag, indeg, placed):
    """Topological orders of the nodes not in `placed`, `indeg` holding
    each node's count of in-edges from those nodes (a module function: a
    nested recursive closure would be a reference cycle left for the GC
    on every call)."""
    ready = [nid for nid in indeg if indeg[nid] == 0 and nid not in placed]
    if not ready:
        return 1 if len(placed) == len(dag.nodes) else 0
    total = 0
    for nid in ready:
        placed.add(nid)
        for s in dag.successors(nid):
            indeg[s] -= 1
        total += _count_orders(dag, indeg, placed)
        for s in dag.successors(nid):
            indeg[s] += 1
        placed.discard(nid)
    return total


def from_trace(events, key, defn) -> OperationDAG:
    """Instance `key` of `defn`'s DAG from its run's events: its threads'
    read, write and sync events but a write step's operand reads, and a
    boundary node per started child, after its registrants' last nodes."""
    dag = OperationDAG()
    at = {}         # registrant -> [its role's steps, index of its next step]
    # thread -> its last node, signal -> its last emit, child -> its node
    last, emits, boundary = {}, {}, {}
    kids = {"%s/%s" % (key, name): [] for name in defn.nested}  # registrants
    for ev in events:
        d, kind = ev.detail, ev.kind
        inst = d.get("inst")
        if kind == "register" and d["ok"] == "1":
            if inst == key:
                role = defn.roles.get(d["role"])
                if role is None:
                    raise MalformedTrace("seq %d: %s has no role %s"
                                         % (ev.seq, key, d["role"]))
                at[d["th"]] = [role.steps, 0]
            elif inst in kids:
                kids[inst].append(d["th"])
            continue
        if kind == "line_recovery" and inst in kids:
            name = inst[len(key) + 1:]
            nid = boundary[name] = dag.add_node(-1, -1, "nested", name).nid
            threads = kids[inst]
        elif inst == key and kind in ("read", "write", "sync_emit",
                                      "sync_await", "step"):
            th = d["th"]
            pos = at.get(th)
            # a role with no `exit` step still emits an exit step event
            if pos is None or pos[1] >= len(pos[0]) + (kind == "step"):
                raise MalformedTrace("seq %d: thread %s has no step of %s "
                                     "left for this %s"
                                     % (ev.seq, th, key, kind))
            if kind == "read" and pos[0][pos[1]].kind != "read":
                continue    # an operand of a write step
            pos[1] += 1
            if kind == "step":
                continue
            nid = dag.add_node(int(th), pos[1] - 1, kind, ev.obj).nid
            threads = (th,)
        else:
            continue
        for th in threads:
            if th in last:
                dag.add_edge(last[th], nid, PROG)
            last[th] = nid
        if kind == "sync_emit":
            emits[d["signal"]] = nid
        elif kind == "sync_await":
            signal = d["signal"]
            if signal not in emits:
                raise MalformedTrace("seq %d: await of %s before any emit "
                                     "of it" % (ev.seq, signal))
            dag.add_edge(emits[signal], nid, SYNC)
        elif kind == "line_recovery":
            for a, b in defn.order:
                if name in (a, b) and a in boundary and b in boundary:
                    dag.add_edge(boundary[a], boundary[b], CONSTRAINT)
    return dag


def instance_dag(trace, key, defn) -> OperationDAG:
    """`from_trace` of instance `key` from the events of `trace` that it
    reads.  They are grouped for every instance in one pass, which the
    trace keeps until it grows; a copy of the trace starts with none."""
    n = len(trace.events)
    if trace.by_instance is None or trace.by_instance[0] != n:
        trace.by_instance = (n, _by_instance(trace.events))
    return from_trace(trace.by_instance[1].get(key, ()), key, defn)


def _by_instance(events) -> dict:
    """inst -> the events `from_trace` reads for that key, in order: each
    event whose `inst` it is, and the `register` and `line_recovery`
    events of its children, whose keys add `/name` to it (no action name
    has a `/`)."""
    groups = {}
    for ev in events:
        inst = ev.detail.get("inst")
        if inst is None:
            continue
        groups.setdefault(inst, []).append(ev)
        if ev.kind in ("register", "line_recovery"):
            cut = inst.rfind("/")
            if cut >= 0:
                groups.setdefault(inst[:cut], []).append(ev)
    return groups


def strategy_select(has_nested: bool, configured: str | None) -> str:
    """Configured strategy wins; otherwise nested for defs with nested
    actions, flatten for leaf defs."""
    if configured in (FLATTEN, NESTED):
        return configured
    return NESTED if has_nested else FLATTEN


def count_admissible_orders(dag: OperationDAG, strategy: str) -> int:
    """Distinct execution orders the scheduler could produce under each
    strategy.  Flatten executes the single tie-broken linearization;
    nested leaves every linear extension of the DAG available.  Raises
    CyclicConstraint when the DAG has a cycle (no linear extension)."""
    count = dag.count_linear_extensions()
    if count == 0:
        raise CyclicConstraint("operation DAG has a cycle")
    return 1 if strategy == FLATTEN else count
