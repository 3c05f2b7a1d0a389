import pytest

from casim.errors import NodeDown
from casim.store import LogRecord, ObjectStore, decode_value, encode_value


def make_store():
    st = ObjectStore(["n1", "n2"])
    st.create_object("x", "n1", b"10")
    st.create_object("y", "n2", b"5")
    return st


def test_value_codec_roundtrip():
    for v in (0, 7, -13, 12345):
        assert decode_value(encode_value(v)) == v


def test_create_and_read():
    st = make_store()
    assert st.read_volatile("x") == b"10"
    assert st.committed("x") == (b"10", 0)
    assert st.homes == {"x": "n1", "y": "n2"}


def test_volatile_write_does_not_touch_stable():
    st = make_store()
    st.write_volatile("x", b"99")
    assert st.read_volatile("x") == b"99"
    assert st.committed("x") == (b"10", 0)


def test_apply_commit_is_idempotent_by_version():
    st = make_store()
    st.apply_commit("x", b"20", 1)
    assert st.committed("x") == (b"20", 1)
    st.apply_commit("x", b"20", 1)  # replayed apply changes nothing
    assert st.committed("x") == (b"20", 1)
    st.apply_commit("x", b"5", 0)   # stale version loses
    assert st.committed("x") == (b"20", 1)


def test_crash_wipes_volatile_keeps_stable():
    st = make_store()
    st.write_volatile("x", b"99")
    st.crash_node("n1")
    assert not st.node_up("n1")
    assert st.nodes["n1"].volatile == {}
    assert st.nodes["n1"].stable["x"] == (b"10", 0)
    with pytest.raises(NodeDown):
        st.read_volatile("x")


def test_recover_reloads_volatile_from_stable():
    st = make_store()
    st.apply_commit("x", b"33", 1)
    st.crash_node("n1")
    st.recover_node("n1")
    assert st.read_volatile("x") == b"33"
    assert st.node_up("n1")


def test_log_survives_crash():
    st = make_store()
    st.append_log("n1", LogRecord("prepare", 7, coordinator="n2",
                                  redo=(("x", b"1", 1),)))
    st.crash_node("n1")
    st.recover_node("n1")
    rec = st.find_log("n1", "prepare", 7)
    assert rec is not None and rec.coordinator == "n2"
    assert st.find_log("n1", "commit", 7) is None


def test_find_log_returns_the_first_record_of_a_repeated_pair():
    st = make_store()
    first = LogRecord("abort", 3)
    st.append_log("n1", LogRecord("prepare", 3, coordinator="n2"))
    st.append_log("n1", first)
    st.append_log("n1", LogRecord("abort", 3))
    assert st.find_log("n1", "abort", 3) is first
    assert st.find_log("n2", "abort", 3) is None
    assert st.find_log("n1", "abort", 4) is None


def test_find_log_after_crash_and_recovery():
    st = make_store()
    rec = LogRecord("commit", 2)
    st.append_log("n2", rec)
    st.crash_node("n2")
    assert st.find_log("n2", "commit", 2) is rec
    with pytest.raises(NodeDown):
        st.append_log("n2", LogRecord("abort", 5))
    assert st.find_log("n2", "abort", 5) is None
    st.recover_node("n2")
    assert st.find_log("n2", "commit", 2) is rec
    st.append_log("n2", LogRecord("abort", 5))
    assert st.find_log("n2", "abort", 5) is st.nodes["n2"].log[-1]


def test_dumps_sorted_and_exclude_down_volatile():
    st = make_store()
    st.crash_node("n2")
    stable = st.dump_stable()
    assert stable == sorted(stable)
    assert any(ln.startswith("n2\t") for ln in stable)
    assert all(not ln.startswith("n2\t") for ln in st.dump_volatile())
