"""Named shared objects with per-node volatile and stable storage.

Each object lives at exactly one home node.  Volatile state holds the
working value (including tentative, uncommitted writes made in place by
the transaction layer); stable state holds only committed images and a
per-node log of commit-protocol records.  A crash wipes a node's volatile
side; recovery reloads it from stable.  The log is indexed by (kind, txn)
as it is appended, so finding a transaction's record takes one lookup.

The store trusts its caller: the scenario parser has already checked that
names and homes are declared and unique, and the engine checks a node's
state before it crashes or recovers it.  The one error left is NodeDown,
for an access to a crashed node, which the engine catches.
"""

from dataclasses import dataclass

from .errors import NodeDown


def encode_value(v: int) -> bytes:
    return str(int(v)).encode("ascii")


def decode_value(b: bytes) -> int:
    return int(b.decode("ascii"))


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
        self.volatile: dict[str, bytes] = {}
        self.stable: dict[str, tuple[bytes, int]] = {}
        self.log: list[LogRecord] = []
        self.first: dict[tuple[str, int], LogRecord] = {}  # (kind, txn)


class ObjectStore:
    def __init__(self, nodes):
        self.nodes: dict[str, NodeStore] = {}
        for n in nodes:
            self.nodes[n] = NodeStore(n)
        self.homes: dict[str, str] = {}  # object name -> home node

    def create_object(self, name: str, home: str, initial: bytes):
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

    def read_volatile(self, name: str) -> bytes:
        return self._node_of(name).volatile[name]

    def write_volatile(self, name: str, value: bytes):
        self._node_of(name).volatile[name] = value

    def committed(self, name: str) -> tuple[bytes, int]:
        return self._node_of(name).stable[name]

    def apply_commit(self, name: str, value: bytes, version: int):
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
        lines = []
        for ns in self.nodes.values():
            for name, (value, version) in ns.stable.items():
                lines.append("%s\t%s\t%d\t%s" %
                             (ns.name, name, version, value.hex()))
        return sorted(lines)

    def dump_volatile(self) -> list[str]:
        """Volatile image; down nodes contribute no records."""
        lines = []
        for ns in self.nodes.values():
            if not ns.up:
                continue
            for name, value in ns.volatile.items():
                version = ns.stable[name][1]
                lines.append("%s\t%s\t%d\t%s" %
                             (ns.name, name, version, value.hex()))
        return sorted(lines)
