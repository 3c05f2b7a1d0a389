"""Operation DAGs and the two strategies for mapping a joint action onto
transactions.

The DAG captures the partial order over operation invocations of one
action instance: per-thread program order, cross-thread synchronization
edges from completed emit/await pairs, and declared ordering constraints
between nested-action boundary nodes.  Under flatten the whole tree runs
in one transaction and executes one linearization of the DAG; under
nested each nested action gets a child transaction and every linear
extension stays admissible.
"""

from dataclasses import dataclass

from .errors import CyclicConstraint

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
        placed = set()

        def rec():
            ready = [nid for nid in indeg if indeg[nid] == 0
                     and nid not in placed]
            if not ready:
                return 1 if len(placed) == len(self.nodes) else 0
            total = 0
            for nid in ready:
                placed.add(nid)
                for s in self.successors(nid):
                    indeg[s] -= 1
                total += rec()
                for s in self.successors(nid):
                    indeg[s] += 1
                placed.discard(nid)
            return total

        return rec()


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
