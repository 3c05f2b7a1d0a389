"""Nested-transaction substrate: transaction trees, undo logs, in-place
tentative writes, lock acquisition, nested commit with anti-inheritance,
and abort.  A value is an int throughout (store, undo log, tentative
writes); `read` and `write` emit it as `val` in decimal.

Top-level (distributed) commit is a protocol spanning several simulator
events; the event-driven side lives in the engine, which calls back into
the bookkeeping here.  A flat transaction is simply a depth-0 tree.

The manager keeps no lifecycle state: it trusts the engine, whose action
instances end each transaction once and every open child first, and the
trace audit (`audit.scan_bracketing`) checks those lifecycles.
"""

from dataclasses import dataclass, field

from . import locks
from .errors import NodeDown
from .store import ObjectStore
from .trace import Trace


@dataclass
class Txn:
    id: int
    parent: int | None
    undo: list = field(default_factory=list)     # (name, old value) in write order
    writes: dict = field(default_factory=dict)   # name -> newest tentative value


@dataclass
class Savepoint:
    """Partial-rollback marker used when nested actions share one flat
    transaction."""
    txn: int
    undo_len: int
    writes: dict


class TxnTable(dict):
    """Transaction id -> Txn, with the ancestry query the lock table asks."""
    __slots__ = ()

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a is a proper ancestor of b."""
        p = self[b].parent
        while p is not None:
            if p == a:
                return True
            p = self[p].parent
        return False


class TransactionManager:
    def __init__(self, store: ObjectStore, trace: Trace,
                 unsafe_early_release=False):
        self.store = store
        self.trace = trace
        self.unsafe_early_release = unsafe_early_release
        self.txns = TxnTable()
        self._next = 0
        # the table's bound method: the lock table never reaches the manager
        self.locktable = locks.LockTable(self.txns.is_ancestor)

    def copy(self, store: ObjectStore, trace: Trace) -> "TransactionManager":
        """This manager for a fork whose store and trace are the given
        copies."""
        tm = TransactionManager(store, trace, self.unsafe_early_release)
        for t in self.txns.values():
            tm.txns[t.id] = Txn(t.id, t.parent, list(t.undo), dict(t.writes))
        tm._next = self._next
        tm.locktable.copy_state(self.locktable)
        return tm

    # --- tree bookkeeping ---

    def begin(self, parent: int | None = None) -> Txn:
        txn = Txn(self._next, parent)
        self._next += 1
        self.txns[txn.id] = txn
        self.trace.emit("begin", txn.id, None, {
            "parent": "-" if parent is None else str(parent)})
        return txn

    # --- locking ---

    def acquire(self, txn_id: int, obj: str, mode: str, tag=None) -> str:
        if self.locktable.covers(obj, txn_id, mode):
            return "granted"
        status = self.locktable.acquire(txn_id, obj, mode, tag)
        kind = "grant" if status == "granted" else "queue"
        self.trace.emit(kind, txn_id, obj, {"mode": mode})
        return status

    def emit_grants(self, granted):
        for req in granted:
            self.trace.emit("grant", req.txn, req.obj, {"mode": req.mode})

    # --- reads and writes (locks must already be held by caller) ---

    def read(self, txn_id: int, name: str, inst: str, th: str) -> int:
        value = self.store.read_volatile(name)
        self.trace.emit("read", txn_id, name,
                        {"inst": inst, "th": th, "val": str(value)})
        return value

    def write(self, txn_id: int, name: str, value: int, inst: str, th: str):
        txn = self.txns[txn_id]
        old = self.store.read_volatile(name)
        txn.undo.append((name, old))
        txn.writes[name] = value
        self.store.write_volatile(name, value)
        self.trace.emit("write", txn_id, name,
                        {"inst": inst, "th": th, "val": str(value)})
        if self.unsafe_early_release:
            # deliberately broken variant: strictness violation for
            # mutation testing of the smuggling audit
            return self.locktable.release_objects(txn_id, [name])
        return []

    # --- commit / abort ---

    def commit_nested(self, txn_id: int):
        """Anti-inherit locks, undo entries and tentative writes into the
        parent; effects stay tentative.  Returns promoted lock requests."""
        txn = self.txns[txn_id]
        parent = self.txns[txn.parent]
        parent.undo.extend(txn.undo)
        parent.writes.update(txn.writes)
        granted = self.locktable.transfer(txn_id, parent.id)
        self.trace.emit("commit2", txn_id, None,
                        {"parent": str(parent.id), "phase": "nested"})
        return granted

    def abort(self, txn_id: int, cause="abort"):
        """Abort one transaction, whose children have ended: undo its
        writes newest-first and release its locks.  Returns promoted lock
        requests."""
        self._undo_to(self.txns[txn_id], 0)
        self.trace.emit("abort", txn_id, None, {"cause": cause})
        return self.locktable.release_all(txn_id)

    # --- savepoints (flatten-strategy nested regions) ---

    def savepoint(self, txn_id: int) -> Savepoint:
        txn = self.txns[txn_id]
        return Savepoint(txn_id, len(txn.undo), dict(txn.writes))

    def rollback_to(self, sp: Savepoint):
        txn = self.txns[sp.txn]
        self._undo_to(txn, sp.undo_len)
        txn.writes = dict(sp.writes)

    def _undo_to(self, txn: Txn, undo_len: int):
        """Undo txn's writes newest-first down to undo_len entries."""
        while len(txn.undo) > undo_len:
            name, old = txn.undo.pop()
            try:
                self.store.write_volatile(name, old)
            except NodeDown:
                pass  # volatile already lost with the node

    # --- distributed-commit helpers ---

    def writes_by_node(self, txn_id: int) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for name, value in self.txns[txn_id].writes.items():
            out.setdefault(self.store.homes[name], {})[name] = value
        return out
