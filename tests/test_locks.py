import pytest

from casim.errors import DeadlockVictim
from casim.locks import LockTable, Request, conflicts


class Tree:
    """Minimal transaction forest for ancestor queries."""

    def __init__(self):
        self.parent = {}

    def add(self, txn, parent=None):
        self.parent[txn] = parent

    def is_ancestor(self, a, b):
        p = self.parent.get(b)
        while p is not None:
            if p == a:
                return True
            p = self.parent.get(p)
        return False


def make():
    tree = Tree()
    table = LockTable(tree.is_ancestor)
    return tree, table


def test_conflict_matrix():
    assert not conflicts("r", "r")
    assert conflicts("r", "w")
    assert conflicts("w", "r")
    assert conflicts("w", "w")


def test_shared_reads_granted():
    tree, t = make()
    tree.add(1), tree.add(2)
    assert t.acquire(1, "x", "r", tag=1) == "granted"
    assert t.acquire(2, "x", "r", tag=2) == "granted"


def test_write_blocks_unrelated_older_requester_queues():
    tree, t = make()
    tree.add(1), tree.add(2)
    assert t.acquire(1, "x", "w", tag=1) == "granted"
    # txn 1 is older than holder? no: holder 1 older than requester 2 -> die
    with pytest.raises(DeadlockVictim):
        t.acquire(2, "x", "w", tag=2)


def test_older_requester_waits():
    tree, t = make()
    tree.add(1), tree.add(2)
    assert t.acquire(2, "x", "w", tag=2) == "granted"
    assert t.acquire(1, "x", "w", tag=1) == "queued"
    granted = t.release_all(2)
    assert [(r.txn, r.obj) for r in granted] == [(1, "x")]


def test_ancestor_holder_does_not_block_descendant():
    tree, t = make()
    tree.add(1)
    tree.add(2, parent=1)
    tree.add(3, parent=2)
    assert t.acquire(1, "x", "w", tag=1) == "granted"
    assert t.acquire(3, "x", "w", tag=3) == "granted"  # 1 is proper ancestor
    assert t.holders["x"][3] == "w"


def test_a_held_lock_covers_its_mode_and_a_write_lock_every_mode():
    tree, t = make()
    tree.add(1)
    tree.add(2)
    t.acquire(1, "x", "r", tag=1)
    t.acquire(2, "y", "w", tag=2)
    assert t.covers("x", 1, "r") and not t.covers("x", 1, "w")
    assert t.covers("y", 2, "r") and t.covers("y", 2, "w")
    assert not t.covers("x", 2, "r") and not t.covers("z", 1, "r")


def test_sibling_conflict_blocks():
    tree, t = make()
    tree.add(1)
    tree.add(2, parent=1)
    tree.add(3, parent=1)
    assert t.acquire(2, "x", "w", tag=2) == "granted"
    with pytest.raises(DeadlockVictim):
        t.acquire(3, "x", "w", tag=3)  # sibling, not ancestor; 3 younger


def test_transfer_to_parent_keeps_strongest_mode():
    tree, t = make()
    tree.add(1)
    tree.add(2, parent=1)
    t.acquire(1, "x", "r", tag=1)
    t.acquire(2, "x", "w", tag=2)
    t.transfer(2, 1)
    assert t.holders["x"] == {1: "w"}


def test_queue_is_fifo_and_promotion_stops_at_conflict():
    tree, t = make()
    for i in (1, 2, 3):
        tree.add(i)
    t.acquire(3, "x", "w", tag=3)
    assert t.acquire(1, "x", "r", tag=1) == "queued"
    assert t.acquire(2, "x", "w", tag=2) == "queued"
    granted = t.release_all(3)
    # FIFO: the read at the head is granted, the write behind it waits
    assert [r.txn for r in granted] == [1]
    granted = t.release_all(1)
    assert [r.txn for r in granted] == [2]


def test_release_all_drops_own_queued_requests():
    tree, t = make()
    tree.add(1), tree.add(2)
    t.acquire(2, "x", "w", tag=2)
    assert t.acquire(1, "x", "w", tag=1) == "queued"
    assert [r.txn for r in t.queue["x"]] == [1]
    t.release_all(1)
    assert "x" not in t.queue


def test_drop_waiters_by_tag():
    tree, t = make()
    tree.add(3), tree.add(1)
    t.acquire(3, "x", "w", tag="th3")
    assert t.acquire(1, "x", "w", tag="th1") == "queued"
    t.drop_waiters(["th1"])
    assert t.release_all(3) == []


def test_queued_waiter_never_dies_when_younger_holder_appears():
    # wait-die applies at request time only: once queued, a waiter stays
    # queued even if the set of holders changes under it
    tree, t = make()
    tree.add(1), tree.add(2), tree.add(3)
    t.acquire(2, "x", "w", tag=2)
    assert t.acquire(1, "x", "w", tag=1) == "queued"
    granted = t.release_all(2)
    assert [r.txn for r in granted] == [1]
