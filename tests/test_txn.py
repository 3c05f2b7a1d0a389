from casim.store import ObjectStore
from casim.trace import Trace
from casim.txn import TransactionManager


def make():
    store = ObjectStore(["n1", "n2"])
    store.create_object("x", "n1", b"1")
    store.create_object("y", "n2", b"2")
    return store, TransactionManager(store, Trace())


def test_begin_tree_and_ancestry():
    _store, tm = make()
    top = tm.begin()
    child = tm.begin(top.id)
    grand = tm.begin(child.id)
    assert tm.txns.is_ancestor(top.id, grand.id)
    assert tm.txns.is_ancestor(child.id, grand.id)
    assert not tm.txns.is_ancestor(grand.id, top.id)


def test_write_is_in_place_and_undo_restores():
    store, tm = make()
    t = tm.begin()
    tm.acquire(t.id, "x", "w")
    tm.write(t.id, "x", b"9")
    assert store.read_volatile("x") == b"9"
    tm.abort(t.id)
    assert store.read_volatile("x") == b"1"


def test_nested_commit_anti_inherits_undo_and_writes():
    store, tm = make()
    top = tm.begin()
    child = tm.begin(top.id)
    tm.acquire(child.id, "x", "w")
    tm.write(child.id, "x", b"5")
    tm.commit_nested(child.id)
    assert top.writes == {"x": b"5"}
    assert tm.locktable.held_mode("x", top.id) == "w"
    # aborting the parent now undoes the child's work too
    tm.abort(top.id)
    assert store.read_volatile("x") == b"1"


def test_child_abort_leaves_parent_intact():
    store, tm = make()
    top = tm.begin()
    tm.acquire(top.id, "y", "w")
    tm.write(top.id, "y", b"7")
    child = tm.begin(top.id)
    tm.acquire(child.id, "x", "w")
    tm.write(child.id, "x", b"5")
    tm.abort(child.id)
    assert store.read_volatile("x") == b"1"
    assert store.read_volatile("y") == b"7"


def test_abort_undoes_newest_first_across_subtree():
    store, tm = make()
    top = tm.begin()
    tm.acquire(top.id, "x", "w")
    tm.write(top.id, "x", b"2")
    child = tm.begin(top.id)
    tm.acquire(child.id, "x", "w")
    tm.write(child.id, "x", b"3")
    tm.commit_nested(child.id)
    tm.write(top.id, "x", b"4")
    tm.abort(top.id)
    assert store.read_volatile("x") == b"1"


def test_savepoint_rollback_restores_partial_region():
    store, tm = make()
    t = tm.begin()
    tm.acquire(t.id, "x", "w")
    tm.write(t.id, "x", b"2")
    sp = tm.savepoint(t.id)
    tm.write(t.id, "x", b"3")
    tm.acquire(t.id, "y", "w")
    tm.write(t.id, "y", b"8")
    tm.rollback_to(sp)
    assert store.read_volatile("x") == b"2"
    assert store.read_volatile("y") == b"2"
    assert t.writes == {"x": b"2"}


def test_writes_by_node_groups_by_home():
    _store, tm = make()
    t = tm.begin()
    tm.acquire(t.id, "x", "w")
    tm.acquire(t.id, "y", "w")
    tm.write(t.id, "x", b"5")
    tm.write(t.id, "y", b"6")
    assert tm.writes_by_node(t.id) == {"n1": {"x": b"5"}, "n2": {"y": b"6"}}


def test_unsafe_early_release_drops_write_lock():
    store = ObjectStore(["n1"])
    store.create_object("x", "n1", b"1")
    tm = TransactionManager(store, Trace(), unsafe_early_release=True)
    t = tm.begin()
    tm.acquire(t.id, "x", "w")
    tm.write(t.id, "x", b"2")
    assert tm.locktable.held_mode("x", t.id) is None
