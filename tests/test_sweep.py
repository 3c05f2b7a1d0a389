import gc
import weakref

from casim import sweep
from casim.engine import Simulator
from casim.scenario import parse_scenario
from casim.sweep import crash_sweep, render_rows, seed_sweep

from conftest import TRANSFER


def test_seed_sweep_rows_all_audited():
    rows = seed_sweep(parse_scenario(TRANSFER), 0, 4)
    assert len(rows) == 5
    assert all(r["ok"] for r in rows), rows
    assert {r["seed"] for r in rows} == set(range(5))


def test_crash_sweep_covers_both_nodes_and_passes():
    rows = crash_sweep(parse_scenario(TRANSFER), stride=8)
    assert {r["node"] for r in rows} == {"alpha", "beta"}
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]
    assert all(r["stable_unchanged"] and r["volatile_cleared"] for r in rows)
    # some crash points must actually abort the transfer
    outcomes = {r["outcomes"].get("transfer") for r in rows}
    assert "aborted" in outcomes and "committed" in outcomes


def test_render_rows_table():
    rows = seed_sweep(parse_scenario(TRANSFER), 0, 1)
    table = render_rows(rows)
    lines = table.strip().split("\n")
    assert lines[0].startswith("seed\t")
    assert len(lines) == 3


def test_sweeps_hold_one_run_at_a_time(monkeypatch):
    """Each run is freed once its row is built, before the next one (and,
    in a crash sweep, after the fault-free run that counts the events)."""
    live = []
    most = []

    class Tracked(Simulator):
        def run(self):
            live[:] = [ref for ref in live if ref() is not None]
            most.append(len(live))
            live.append(weakref.ref(self))
            return super().run()

    monkeypatch.setattr(sweep, "Simulator", Tracked)
    sc = parse_scenario(TRANSFER)
    gc.collect()
    gc.disable()
    try:
        runs = len(seed_sweep(sc, 0, 3)) + 1 + len(crash_sweep(sc, stride=8))
    finally:
        gc.enable()
    assert len(most) == runs
    assert max(most) == 0
