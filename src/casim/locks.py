"""Strict lock table with ancestor-based grants and wait-die arbitration.

A request is granted iff every holder of a conflicting lock on the object
is a proper ancestor of the requester; otherwise the request joins a FIFO
queue.  Wait-die applies only at request time: a requester younger than
any conflicting non-ancestor holder is killed instead of queued.  Locks
are held until commit or abort; a committing child's locks transfer to
its parent.
"""

from collections import deque
from dataclasses import dataclass

from .errors import DeadlockVictim

READ = "r"
WRITE = "w"


def conflicts(a: str, b: str) -> bool:
    return a == WRITE or b == WRITE


@dataclass
class Request:
    txn: int
    obj: str
    mode: str
    tag: object  # opaque waker handle (thread id), returned on grant


class LockTable:
    def __init__(self, is_ancestor, ordinal):
        # is_ancestor(a, b): txn a is a proper ancestor of txn b
        self._is_ancestor = is_ancestor
        self._ordinal = ordinal
        self.holders: dict[str, dict[int, str]] = {}  # obj -> txn -> mode
        self.queue: dict[str, deque[Request]] = {}

    def held_mode(self, obj: str, txn: int) -> str | None:
        return self.holders.get(obj, {}).get(txn)

    def _conflicting(self, obj: str, txn: int, mode: str):
        return [h for h, m in self.holders.get(obj, {}).items()
                if h != txn and conflicts(mode, m)]

    def _grantable(self, obj: str, txn: int, mode: str) -> bool:
        return all(self._is_ancestor(h, txn)
                   for h in self._conflicting(obj, txn, mode))

    def acquire(self, txn: int, obj: str, mode: str, tag) -> str:
        """Returns 'granted' or 'queued'; raises DeadlockVictim."""
        held = self.held_mode(obj, txn)
        if held == WRITE or held == mode:
            return "granted"
        if self._grantable(obj, txn, mode):
            self.holders.setdefault(obj, {})[txn] = mode
            return "granted"
        # wait-die: wait only if older than every conflicting non-ancestor
        my = self._ordinal(txn)
        for h in self._conflicting(obj, txn, mode):
            if not self._is_ancestor(h, txn) and self._ordinal(h) < my:
                raise DeadlockVictim((txn, obj, mode))
        self.queue.setdefault(obj, deque()).append(Request(txn, obj, mode, tag))
        return "queued"

    def _promote(self, obj: str) -> list[Request]:
        granted = []
        q = self.queue.get(obj)
        while q:
            req = q[0]
            held = self.held_mode(obj, req.txn)
            if held == WRITE or held == req.mode:
                granted.append(q.popleft())
                continue
            if not self._grantable(obj, req.txn, req.mode):
                break
            self.holders.setdefault(obj, {})[req.txn] = req.mode
            granted.append(q.popleft())
        if q is not None and not q:
            del self.queue[obj]
        return granted

    def _promote_all(self, objs) -> list[Request]:
        granted = []
        for obj in objs:
            granted.extend(self._promote(obj))
        return granted

    def release_all(self, txn: int) -> list[Request]:
        """Drop every lock and queued request of txn; returns promoted
        requests."""
        touched = []
        for obj, hs in list(self.holders.items()):
            if txn in hs:
                del hs[txn]
                touched.append(obj)
                if not hs:
                    del self.holders[obj]
        for obj, q in list(self.queue.items()):
            kept = deque(r for r in q if r.txn != txn)
            if kept:
                self.queue[obj] = kept
            else:
                del self.queue[obj]
            if len(kept) != len(q) and obj not in touched:
                touched.append(obj)
        return self._promote_all(touched)

    def release_objects(self, txn: int, objs) -> list[Request]:
        touched = []
        for obj in objs:
            hs = self.holders.get(obj)
            if hs and txn in hs:
                del hs[txn]
                if not hs:
                    del self.holders[obj]
                touched.append(obj)
        return self._promote_all(touched)

    def drop_waiters(self, tags) -> None:
        """Remove queued requests whose tag is in tags (dead threads)."""
        tags = set(tags)
        for obj, q in list(self.queue.items()):
            kept = deque(r for r in q if r.tag not in tags)
            if kept:
                self.queue[obj] = kept
            else:
                del self.queue[obj]

    def transfer(self, child: int, parent: int) -> list[Request]:
        """Anti-inheritance: the committing child's locks pass to parent."""
        touched = []
        for obj, hs in list(self.holders.items()):
            if child in hs:
                mode = hs.pop(child)
                cur = hs.get(parent)
                if cur != WRITE:
                    hs[parent] = WRITE if mode == WRITE else (cur or mode)
                touched.append(obj)
        return self._promote_all(touched)

    def locks_of(self, txn: int):
        return [(obj, m) for obj, hs in self.holders.items()
                for h, m in hs.items() if h == txn]
