import pytest

from casim.actions import (AcceptanceTest, CAActionDef, Role, Step,
                           classify_concurrency, validate_defs,
                           COMPETITIVE, COOPERATIVE, INDEPENDENT,
                           READ, WRITE, ENTER, EXIT)
from casim.errors import CyclicConstraint, ModeViolation, ValidationError
from casim.exprs import Expr
from casim.trace import Trace


def leaf(name, obj="x", roles=1):
    rs = {}
    for i in range(roles):
        rs["r%d" % i] = Role("r%d" % i, [Step(READ, obj=obj), Step(EXIT)])
    return CAActionDef(name, rs, footprint=[obj])


def test_roles_required():
    with pytest.raises(ValidationError):
        validate_defs({"a": CAActionDef("a", {})}, known_objects=set())


def test_write_outside_footprint_rejected():
    d = CAActionDef("a", {"r": Role("r", [Step(WRITE, obj="y",
                                               expr=Expr("1"))])},
                    footprint=["x"])
    with pytest.raises(ValidationError):
        validate_defs({"a": d}, known_objects={"x", "y"})


def test_unknown_object_rejected():
    d = leaf("a", obj="ghost")
    with pytest.raises(ValidationError):
        validate_defs({"a": d}, known_objects={"x"})


def test_nested_footprint_must_be_subset():
    child = leaf("child", obj="y")
    parent = CAActionDef("parent", {"r": Role("r", [])}, footprint=["x"],
                         nested=["child"])
    with pytest.raises(ValidationError):
        validate_defs({"parent": parent, "child": child},
                      known_objects={"x", "y"})


def test_nested_role_count_bounded_by_parent():
    child = leaf("child", roles=2)
    parent = CAActionDef("parent", {"r": Role("r", [])}, footprint=["x"],
                         nested=["child"])
    with pytest.raises(ValidationError):
        validate_defs({"parent": parent, "child": child},
                      known_objects={"x"})


def test_flat_mode_forbids_nesting():
    child = leaf("child")
    parent = CAActionDef("parent", {"r": Role("r", []), "q": Role("q", [])},
                         footprint=["x"], nested=["child"], mode="flat")
    with pytest.raises(ModeViolation):
        validate_defs({"parent": parent, "child": child},
                      known_objects={"x"})


def test_same_kind_mode_rejects_mixed_kind_general_accepts():
    child = leaf("child", roles=1)   # single-threaded
    parent = CAActionDef("parent", {"a": Role("a", []), "b": Role("b", [])},
                         footprint=["x"], nested=["child"],
                         mode="nested_same_kind")
    with pytest.raises(ModeViolation):
        validate_defs({"parent": parent, "child": child},
                      known_objects={"x"})
    parent.mode = "general"
    validate_defs({"parent": parent, "child": child}, known_objects={"x"})


def test_order_names_must_be_nested_and_acyclic():
    a, b = leaf("a"), leaf("b")
    parent = CAActionDef("p", {"r": Role("r", [])}, footprint=["x"],
                         nested=["a", "b"], order=[("a", "b"), ("b", "a")])
    with pytest.raises(CyclicConstraint):
        validate_defs({"p": parent, "a": a, "b": b}, known_objects={"x"})
    parent.order = [("a", "zzz")]
    with pytest.raises(ValidationError):
        validate_defs({"p": parent, "a": a, "b": b}, known_objects={"x"})


def test_enter_must_target_declared_nested():
    child = leaf("child")
    parent = CAActionDef(
        "p", {"r": Role("r", [Step(ENTER, action="other", role="r0")])},
        footprint=["x"], nested=["child"])
    with pytest.raises(ValidationError):
        validate_defs({"p": parent, "child": child, "other": leaf("other")},
                      known_objects={"x"})


def test_acceptance_test_container():
    t = AcceptanceTest("conserved", Expr("x + y == 10"))
    assert t.expr.eval({"x": 4, "y": 6})


def test_classify_concurrency_three_way():
    tr = Trace()
    # threads 0,1 cooperate in inst a; thread 2 competes on object x;
    # thread 3 touches only z
    tr.emit(0, "register", inst="a", role="r1", th=0, ok=1)
    tr.emit(0, "register", inst="a", role="r2", th=1, ok=1)
    tr.emit(1, "read", txn=0, obj="x", th=0, inst="a")
    tr.emit(1, "write", txn=0, obj="y", th=1, val="31", inst="a")
    tr.emit(2, "register", inst="b", role="r", th=2, ok=1)
    tr.emit(3, "write", txn=1, obj="x", th=2, val="32", inst="b")
    tr.emit(4, "register", inst="c", role="r", th=3, ok=1)
    tr.emit(5, "read", txn=2, obj="z", th=3, inst="c")
    labels = classify_concurrency(tr.events)
    assert labels[(0, 1)] == COOPERATIVE
    assert labels[(0, 2)] == COMPETITIVE
    assert labels[(0, 3)] == INDEPENDENT
    assert labels[(1, 3)] == INDEPENDENT
