"""Tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import harness
import probes
import speed
import stats
import workloads
from casim import audit
from casim.engine import Simulator
from casim.scenario import load_scenario, parse_scenario
from casim.trace import parse

ROOT = Path(__file__).resolve().parent.parent

# An older transaction queues behind a younger one's write lock (wait-die
# lets the older wait) and is granted when the younger one's commit is
# applied: queue at tick 3, grant at tick 7.
LOCK_WAIT = """
node n1
object x n1 0
object y n1 0
action older
  footprint x y
  role r
    read y
    read y
    write x x + 1
    exit
end
action younger
  footprint x
  role r
    write x x + 2
    exit
end
client a n1 0 older r
client b n1 0 younger r
seed 1
horizon 500
"""


def _events(scenario):
    return parse(Simulator(scenario).run().trace_text())[0]


def _stats(scenario):
    st = stats.TraceStats()
    st.add(_events(scenario))
    return st


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_seeded(name):
    gen = workloads.GENERATORS[name]
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)
    parse_scenario(gen(3))


@pytest.mark.parametrize("name,events", [("crash_sweep", 304),
                                         ("nested_seeds", 1480)])
def test_sweep_workloads_have_fixed_fault_free_size(name, events):
    for seed in (1, 2):
        sc = parse_scenario(workloads.GENERATORS[name](seed))
        assert len(Simulator(sc).run().trace.events) == events


def test_stats_flat_transfer():
    st = _stats(load_scenario(str(ROOT / "scenarios/flat_transfer.scn")))
    assert (st.submitted, st.committed, st.instances) == (1, 1, 1)
    assert st.action_ticks == [10]        # register at 0, outcome at 10
    assert st.decision_ticks == [4]       # test line at 6, decision at 10
    assert sorted(st.apply_ticks) == [1, 3]   # applied at 11 and 13
    assert (st.msgs, st.drops, st.lock_waits) == (6, 0, [])
    assert not st.aborts
    e2e = st.end_to_end()
    assert e2e["commit_ratio"] == (1.0, "1")
    assert e2e["action_ticks_p99"] == (10, "ticks")


def test_stats_crash_recover():
    st = _stats(load_scenario(str(ROOT / "scenarios/crash_recover.scn")))
    assert (st.submitted, st.committed, st.instances) == (1, 0, 1)
    assert st.aborts == {"crash": 1}      # beta crashes at tick 4
    assert st.action_ticks == [4]
    assert (st.decision_ticks, st.apply_ticks, st.msgs) == ([], [], 0)
    layer = st.per_layer()
    assert layer["actions.abort.crash"] == (1, "count")
    assert layer["actions.abort.deadlock"] == (0, "count")
    assert st.end_to_end()["commit_ratio"] == (0.0, "1")


def test_stats_lock_wait():
    st = _stats(parse_scenario(LOCK_WAIT))
    assert st.lock_waits == [4]
    assert sorted(st.action_ticks) == [6, 13]
    assert (st.decision_ticks, sorted(st.apply_ticks)) == ([4, 4], [1, 3])
    assert st.committed == 2


def test_percentile_nearest_rank():
    assert stats.percentile([], 99) == 0
    assert stats.percentile([5], 50) == 5
    assert stats.percentile(list(range(1, 101)), 50) == 50
    assert stats.percentile(list(range(1, 101)), 99) == 99
    assert stats.percentile([3, 1, 2], 90) == 3


def test_meter_scales_by_nearby_samples():
    meter = speed.Meter()
    c0, t0 = meter.clock(), perf_counter()
    meter._sample()
    assert meter.clock() - c0 < perf_counter() - t0
    ref = speed.REF_S
    meter.samples = [(0.0, 2 * ref), (10.0, ref / 2)]
    assert meter.scale_at(0.1, 0.2) == 0.5
    assert meter.scale_at(9.8, 9.9) == 2.0
    assert meter.scale_at(5.0, 5.1) == pytest.approx(0.8)
    assert 0 < meter.scale() < 1.2   # 3 samples, more than 2.5 * REF_S
    assert meter.samples == []


def test_serializability_ops_flat_transfer():
    events = _events(load_scenario(str(ROOT / "scenarios/flat_transfer.scn")))
    assert stats.serializability_ops(events) == 5   # 3 reads, 2 writes


def test_probe_counts_and_restore():
    orig = (audit.audit_trace, Simulator.run, Simulator.__dict__["schedule"])
    sc = load_scenario(str(ROOT / "scenarios/flat_transfer.scn"))
    probe = probes.Probe().install()
    try:
        res = Simulator(sc).run()
        audit.audit_trace(res.trace_text())
    finally:
        probe.restore()
    assert (audit.audit_trace, Simulator.run,
            Simulator.__dict__["schedule"]) == orig
    m = probe.metrics()
    assert m["engine.events"] == (38, "count")
    assert m["trace.emit_calls"] == (38, "count")
    assert m["sweep.events_audited"] == (38, "count")
    assert m["audit.txnview_builds"] == (4, "count")
    assert m["locks.acquire_calls"] == (3, "count")
    assert m["locks.grant_ratio"] == (1.0, "1")
    assert m["store.find_log_calls"] == (2, "count")
    assert 0 < m["engine.self_s"][0] < m["engine.run_s"][0]


def _bench_small():
    """The seed-sweep pipeline over 100 seeds of flat_transfer.scn."""
    text = (ROOT / "scenarios/flat_transfer.scn").read_text()
    return harness.Bench("nested_seeds", text)


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_end_to_end_metrics_match_benchmark_json():
    bench = _bench_small()
    metrics, _notes = bench.end_to_end(0)
    assert {k: u for k, (_v, u) in metrics.items()} == _declared("end_to_end")
    assert (bench.attempted, bench.failed) == (100, 0)
    assert metrics["commit_ratio"][0] == 1.0
    assert metrics["events_per_s"][0] > 0


def test_per_layer_metrics_match_benchmark_json():
    bench = _bench_small()
    metrics, _notes = bench.per_layer(0)
    assert {k: u for k, (_v, u) in metrics.items()} == _declared("per_layer")
    assert bench.failed == 0
    assert metrics["sweep.runs"][0] == 100
    assert metrics["engine.events"][0] == 3800


def test_digest_mismatch_counts_as_failure():
    bench = _bench_small()
    _t, verdicts, rec = bench.iteration()
    bench.check(verdicts, rec)
    rec.texts[7] = rec.texts[7].replace("acct_a", "acct_z")
    bench.check(verdicts, rec)
    assert (bench.attempted, bench.failed) == (200, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                        "crash_sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
