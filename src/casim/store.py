"""Named shared objects with per-node volatile and stable storage.

Each object lives at exactly one home node.  Volatile state holds the
working value (including tentative, uncommitted writes made in place by
the transaction layer); stable state holds only committed images and a
per-node log of commit-protocol records.  A crash wipes a node's volatile
side; recovery reloads it from stable.  The log is indexed by (kind, txn)
as it is appended, so finding a transaction's record takes one lookup.
A value is an int wherever it is held, and a dump record gives it in
decimal: `node TAB name TAB version TAB value`.

The store trusts its caller: the scenario parser has already checked that
names and homes are declared and unique, and the engine checks a node's
state before it crashes or recovers it.  The one error left is NodeDown,
for an access to a crashed node, which the engine catches.
"""

from dataclasses import dataclass

from .errors import NodeDown

_RECORD = "%s\t%s\t%d\t%d"


@dataclass
class LogRecord:
    """Stable-storage commit-protocol record (prepare/commit/abort/end)."""
    kind: str            # prepare | commit | abort | end
    txn: int
    coordinator: str = ""
    redo: tuple = ()     # prepare only: ((name, value, new_version), ...)


class NodeStore:
    def __init__(self, name: str):
        self.name = name
        self.up = True
        self.volatile: dict[str, int] = {}
        self.stable: dict[str, tuple[int, int]] = {}
        self.log: list[LogRecord] = []
        self.first: dict[tuple[str, int], LogRecord] = {}  # (kind, txn)

    def copy(self) -> "NodeStore":
        """A node to change apart from this one; log records are shared."""
        ns = NodeStore(self.name)
        ns.up = self.up
        ns.volatile = dict(self.volatile)
        ns.stable = dict(self.stable)
        ns.log = list(self.log)
        ns.first = dict(self.first)
        return ns


class ObjectStore:
    def __init__(self, nodes):
        self.nodes: dict[str, NodeStore] = {}
        for n in nodes:
            self.nodes[n] = NodeStore(n)
        self.homes: dict[str, str] = {}  # object name -> home node

    def copy(self) -> "ObjectStore":
        """A store to change apart from this one."""
        store = ObjectStore(())
        store.nodes = {n: ns.copy() for n, ns in self.nodes.items()}
        store.homes = dict(self.homes)
        return store

    def create_object(self, name: str, home: str, initial: int):
        ns = self.nodes[home]
        self.homes[name] = home
        ns.volatile[name] = initial
        ns.stable[name] = (initial, 0)

    def node_up(self, node: str) -> bool:
        return self.nodes[node].up

    def _up_node(self, node: str) -> NodeStore:
        ns = self.nodes[node]
        if not ns.up:
            raise NodeDown(node)
        return ns

    def _node_of(self, name: str) -> NodeStore:
        return self._up_node(self.homes[name])

    # --- volatile access (serialized by the caller; locks live above) ---

    def read_volatile(self, name: str) -> int:
        return self._node_of(name).volatile[name]

    def write_volatile(self, name: str, value: int):
        self._node_of(name).volatile[name] = value

    def committed(self, name: str) -> tuple[int, int]:
        return self._node_of(name).stable[name]

    def apply_commit(self, name: str, value: int, version: int):
        """Phase-2 apply: idempotent on (value, version)."""
        ns = self._node_of(name)
        cur_version = ns.stable[name][1]
        if version > cur_version:
            ns.stable[name] = (value, version)
            ns.volatile[name] = value

    def append_log(self, node: str, rec: LogRecord):
        ns = self._up_node(node)
        ns.log.append(rec)
        ns.first.setdefault((rec.kind, rec.txn), rec)

    def find_log(self, node: str, kind: str, txn: int) -> LogRecord | None:
        """The first record of that kind for txn in the node's log."""
        return self.nodes[node].first.get((kind, txn))

    # --- crash / recovery ---

    def crash_node(self, node: str):
        ns = self.nodes[node]
        ns.up = False
        ns.volatile = {}

    def recover_node(self, node: str):
        ns = self.nodes[node]
        ns.up = True
        ns.volatile = {name: value for name, (value, _v) in ns.stable.items()}

    # --- dumps ---

    def dump_stable(self) -> list[str]:
        return sorted(_RECORD % (ns.name, name, version, value)
                      for ns in self.nodes.values()
                      for name, (value, version) in ns.stable.items())

    def dump_volatile(self) -> list[str]:
        """Volatile image; down nodes contribute no records."""
        return sorted(_RECORD % (ns.name, name, ns.stable[name][1], value)
                      for ns in self.nodes.values() if ns.up
                      for name, value in ns.volatile.items())
