import pytest

from casim.dag import (FLATTEN, NESTED, PROG, SYNC, OperationDAG,
                       count_admissible_orders, strategy_select)
from casim.errors import CyclicConstraint


def two_chain_dag():
    """Two independent 2-op program chains (threads 0 and 1)."""
    d = OperationDAG()
    a0 = d.add_node(0, 0, "read", "x").nid
    a1 = d.add_node(0, 1, "write", "x").nid
    b0 = d.add_node(1, 0, "read", "y").nid
    b1 = d.add_node(1, 1, "write", "y").nid
    d.add_edge(a0, a1, PROG)
    d.add_edge(b0, b1, PROG)
    return d, (a0, a1, b0, b1)


def test_flatten_is_deterministic_single_order():
    d, _ = two_chain_dag()
    assert count_admissible_orders(d, FLATTEN) == 1


def test_linear_extension_count():
    d, _ = two_chain_dag()
    # interleavings of two 2-chains: C(4,2) = 6
    assert d.count_linear_extensions() == 6
    assert count_admissible_orders(d, NESTED) == 6


def test_sync_edge_restricts_orders():
    d, (a0, a1, b0, b1) = two_chain_dag()
    d.add_edge(a1, b0, SYNC)
    assert d.count_linear_extensions() == 1


def test_cycle_detected():
    d = OperationDAG()
    a = d.add_node(0, 0, "read", "x").nid
    b = d.add_node(0, 1, "write", "x").nid
    d.add_edge(a, b, PROG)
    d.add_edge(b, a, SYNC)
    for strategy in (FLATTEN, NESTED):
        with pytest.raises(CyclicConstraint):
            count_admissible_orders(d, strategy)


def test_strategy_select_default_and_override():
    assert strategy_select(False, None) == FLATTEN
    assert strategy_select(True, None) == NESTED
    assert strategy_select(True, FLATTEN) == FLATTEN
    assert strategy_select(False, NESTED) == NESTED

