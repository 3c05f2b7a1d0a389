"""Nested-transaction substrate: transaction trees, undo logs, in-place
tentative writes, lock acquisition, nested commit with anti-inheritance,
and subtree abort.

Top-level (distributed) commit is a protocol spanning several simulator
events; the event-driven side lives in the engine, which calls back into
the bookkeeping here.  A flat transaction is simply a depth-0 tree.
"""

from dataclasses import dataclass, field

from . import locks
from .errors import (ChildrenActive, ParentNotActive, TxnNotActive,
                     TxnTerminal, NodeDown)
from .store import ObjectStore
from .trace import Trace

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class Txn:
    id: int
    parent: int | None
    status: str = ACTIVE
    children: list = field(default_factory=list)
    undo: list = field(default_factory=list)     # (name, old value) in write order
    writes: dict = field(default_factory=dict)   # name -> newest tentative value


@dataclass
class Savepoint:
    """Partial-rollback marker used when nested actions share one flat
    transaction."""
    txn: int
    undo_len: int
    writes: dict


class TransactionManager:
    def __init__(self, store: ObjectStore, trace: Trace, clock=None,
                 unsafe_early_release=False):
        self.store = store
        self.trace = trace
        self.clock = clock or (lambda: 0)
        self.unsafe_early_release = unsafe_early_release
        self.txns: dict[int, Txn] = {}
        self._next = 0
        self.locktable = locks.LockTable(self.is_ancestor, lambda t: t)

    # --- tree bookkeeping ---

    def get(self, txn_id: int) -> Txn:
        return self.txns[txn_id]

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a is a proper ancestor of b."""
        p = self.txns[b].parent
        while p is not None:
            if p == a:
                return True
            p = self.txns[p].parent
        return False

    def begin(self, parent: int | None = None) -> Txn:
        if parent is not None:
            p = self.txns[parent]
            if p.status != ACTIVE:
                raise ParentNotActive(parent)
        txn = Txn(self._next, parent)
        self._next += 1
        self.txns[txn.id] = txn
        if parent is not None:
            self.txns[parent].children.append(txn.id)
        self.trace.emit(self.clock(), "begin", txn=txn.id,
                        parent="-" if parent is None else parent)
        return txn

    # --- locking ---

    def acquire(self, txn_id: int, obj: str, mode: str, tag=None) -> str:
        if self.txns[txn_id].status != ACTIVE:
            raise TxnNotActive(txn_id)
        already = self.locktable.held_mode(obj, txn_id)
        if already == locks.WRITE or already == mode:
            return "granted"
        status = self.locktable.acquire(txn_id, obj, mode, tag)
        kind = "grant" if status == "granted" else "queue"
        self.trace.emit(self.clock(), kind, txn=txn_id, obj=obj, mode=mode)
        return status

    def emit_grants(self, granted):
        for req in granted:
            self.trace.emit(self.clock(), "grant", txn=req.txn, obj=req.obj,
                            mode=req.mode)

    # --- reads and writes (locks must already be held by caller) ---

    def read(self, txn_id: int, name: str, **ctx) -> bytes:
        value = self.store.read_volatile(name)
        self.trace.emit(self.clock(), "read", txn=txn_id, obj=name,
                        val=value.hex(), **ctx)
        return value

    def write(self, txn_id: int, name: str, value: bytes, **ctx):
        txn = self.txns[txn_id]
        if txn.status != ACTIVE:
            raise TxnNotActive(txn_id)
        old = self.store.read_volatile(name)
        txn.undo.append((name, old))
        txn.writes[name] = value
        self.store.write_volatile(name, value)
        self.trace.emit(self.clock(), "write", txn=txn_id, obj=name,
                        val=value.hex(), **ctx)
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
        if txn.status != ACTIVE:
            raise TxnTerminal(txn_id)
        if any(self.txns[c].status == ACTIVE for c in txn.children):
            raise ChildrenActive(txn_id)
        parent = self.txns[txn.parent]
        parent.undo.extend(txn.undo)
        parent.writes.update(txn.writes)
        txn.status = COMMITTED
        granted = self.locktable.transfer(txn_id, parent.id)
        self.trace.emit(self.clock(), "commit2", txn=txn_id, phase="nested",
                        parent=parent.id)
        return granted

    def abort(self, txn_id: int, cause="abort"):
        """Abort the whole subtree depth-first; undo newest-first; release
        every lock of the subtree.  Returns promoted lock requests."""
        txn = self.txns[txn_id]
        if txn.status != ACTIVE:
            raise TxnTerminal(txn_id)
        granted = []
        for child in reversed(txn.children):
            if self.txns[child].status == ACTIVE:
                granted.extend(self.abort(child, cause="parent"))
        self._undo_to(txn, 0)
        txn.status = ABORTED
        self.trace.emit(self.clock(), "abort", txn=txn_id, cause=cause)
        granted.extend(self.locktable.release_all(txn_id))
        return granted

    def mark_committed(self, txn_id: int):
        txn = self.txns[txn_id]
        if txn.status != ACTIVE:
            raise TxnTerminal(txn_id)
        if any(self.txns[c].status == ACTIVE for c in txn.children):
            raise ChildrenActive(txn_id)
        txn.status = COMMITTED

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

    def writes_by_node(self, txn_id: int) -> dict[str, dict[str, bytes]]:
        out: dict[str, dict[str, bytes]] = {}
        for name, value in self.txns[txn_id].writes.items():
            out.setdefault(self.store.home(name), {})[name] = value
        return out
