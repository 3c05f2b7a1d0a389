"""Golden trace digests: byte-identical replay across commits.

Pins the sha256 of the rendered trace of every reference scenario under
each strategy (the scenario's own, flatten, nested) and of the crash-sweep
verdict table of crash_recover.scn, and the sha256 of the audit report of
each of those runs and of 50 generated competitive scenarios (the
serializability witness and every pass's verdict and problems; the
frontier edge list is left out), and of the failing reports of every
reference scenario run with `unsafe_early_release`.  It also pins, for
each benchmark workload generated at seed 1 (`bench/workloads.py`, read
only), the trace of the first run its benchmark checks (304 to ~38k
events), the verdict tables of the two sweep workloads, and the repr of
the parsed scenario of each workload and reference scenario, and the
operation DAG of every started instance of a corpus of runs
(`dag_corpus`).  A
change that is meant to keep traces unchanged (a refactor, a deletion, a
speed-up) must leave every digest as it is.  A change that alters a trace
on purpose, such as making the acceptance tests take read locks, updates
the digests here and gives the reason in CHANGES.md.
"""

import hashlib
import runpy
from dataclasses import replace
from pathlib import Path

from casim import audit, sweep
from casim.engine import Simulator
from casim.scenario import Fault, load_scenario, parse_scenario

from conftest import random_competitive_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

TRACE_DIGESTS = {
    ("competitive", None): "ea947319be81c3115dfed6cd5616c969198ff7d553f29059137b9efd28855460",
    ("competitive", "flatten"): "ea947319be81c3115dfed6cd5616c969198ff7d553f29059137b9efd28855460",
    ("competitive", "nested"): "ea947319be81c3115dfed6cd5616c969198ff7d553f29059137b9efd28855460",
    ("crash_recover", None): "cbb0abf011fe42b9f21d53428306dfd42e520cbe1752a8aec9168b9dcc89ade9",
    ("crash_recover", "flatten"): "cbb0abf011fe42b9f21d53428306dfd42e520cbe1752a8aec9168b9dcc89ade9",
    ("crash_recover", "nested"): "cbb0abf011fe42b9f21d53428306dfd42e520cbe1752a8aec9168b9dcc89ade9",
    ("deep_tree", None): "e13c7afc29e92766658520d510d0c80ec97aeabd282e5105389d401f4ceec071",
    ("deep_tree", "flatten"): "9cd0f9d3dcfcc52474cf0d0650329991ce8fe3298d04995f5c401d5d8cc0b937",
    ("deep_tree", "nested"): "e13c7afc29e92766658520d510d0c80ec97aeabd282e5105389d401f4ceec071",
    ("flat_transfer", None): "2fc8d8a2fb8beba45cd5107a499345426fe9c7f20f335670ecc663b718e47c55",
    ("flat_transfer", "flatten"): "2fc8d8a2fb8beba45cd5107a499345426fe9c7f20f335670ecc663b718e47c55",
    ("flat_transfer", "nested"): "2fc8d8a2fb8beba45cd5107a499345426fe9c7f20f335670ecc663b718e47c55",
    ("nested_audit", None): "6f4f13fb45f145eee289b26c9f2bbd8898f5b63e2ac8600a1925f2d5525c592a",
    ("nested_audit", "flatten"): "cb96af82c46991bce7fb901c6c70c228a827df37c5a0b146ddb3e70930da4c25",
    ("nested_audit", "nested"): "6f4f13fb45f145eee289b26c9f2bbd8898f5b63e2ac8600a1925f2d5525c592a",
}

AUDIT_DIGESTS = {
    ("competitive", None): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("competitive", "flatten"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("competitive", "nested"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("crash_recover", None): "773525bbdcfbcce949e4243a5ec6caa403069fa6c9655010e06b4fd050a769fe",
    ("crash_recover", "flatten"): "773525bbdcfbcce949e4243a5ec6caa403069fa6c9655010e06b4fd050a769fe",
    ("crash_recover", "nested"): "773525bbdcfbcce949e4243a5ec6caa403069fa6c9655010e06b4fd050a769fe",
    ("deep_tree", None): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("deep_tree", "flatten"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("deep_tree", "nested"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("flat_transfer", None): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("flat_transfer", "flatten"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("flat_transfer", "nested"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("nested_audit", None): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("nested_audit", "flatten"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
    ("nested_audit", "nested"): "36b7298fab12b0d3f5f057338c924022ab25a479276b947d16b065c768677250",
}

COMPETITIVE_AUDIT_DIGEST = \
    "1a0a04c704adbcc9150c3507d2eee2576ee8489c9160409cb7e7f1c1b43ab53c"

# failing reports: every reference scenario under each strategy at seeds
# 0-9 with write locks released before the commit decision (150 runs, 18
# of them failing, with 90 problems across smuggling, lock_rule and
# atomicity)
MUTANT_AUDIT_DIGEST = \
    "4e2d4f69e9eb621e929b0ec742bb179391a0f499d26673e0e642751d22e5fb28"

CRASH_SWEEP_DIGEST = \
    "ac3aa3e917fd1c2e884584fbd9e07f903716df0a78ba54c4aa14de0f5b8155d7"

# verdict tables of the benchmark's two sweep workloads generated at seed
# 1: nested_seeds over seeds 0-9, crash_sweep at its benchmark stride
SWEEP_TABLE_DIGESTS = {
    "nested_seeds": "7caabfa2f4021ca263dcce8602248a9ad8e922b560e7937d8ed7dc806e810006",
    "crash_sweep": "c00969246df284d03969606f656313f6769972453caeb1e24980b07fe7e94116",
}

# the run each workload's benchmark audits first: contended_2pc's one run,
# crash_sweep's fault-free run and nested_seeds' run at seed 0
WORKLOAD_TRACE_DIGESTS = {
    "contended_2pc": "d460c7bca1c5ed5f4aaa8c4fb5e8fd68351d4b631862eb5d631bce4ab0ab04e3",
    "crash_sweep": "a8bc57e59189d8705847ad42aa7a4c975501a7960f24bfeb9dd10e66d73f2ac2",
    "nested_seeds": "c79d2e79020d98e78569da91634f4a905685c7e1ca041263c4e363028c49798f",
}

PARSE_REPR_DIGESTS = {
    "competitive": "91f7dd8ec78eed00e14ec07b3bcb8602b75d8e836d625a8accfef42fdd968b7a",
    "crash_recover": "f887e8c1982ea57c17ae25a015d45e55e8cdc63a8187b53b7cd4105a2212b40e",
    "deep_tree": "27da3d8f17b3f0801aa5c224b91759d6f839e76119d6413e2e31b4c8aeba5ac8",
    "flat_transfer": "6cc71b37a318fd1ec2599584223651bf432d364902aaeaf9126869a84c87a75d",
    "nested_audit": "0985c34bbf306432a85163fa5d31e887c6fe6c12bdb42449725fa49c49e3e9e5",
    "contended_2pc": "b5954e419c116bda3c3a5bc87e29f67ca43d24451fee181e968e54c29dfd33fe",
    "crash_sweep": "c2c9afa65b4110f3638bc4c9d91eee16c87578364c68fc32cd4e88b772638d77",
    "nested_seeds": "befb2f2836758b5b8a6ce3f99a41f747ce4052ca637e02cbb3528ac7fb283b9e",
}

# the operation DAG of every started instance of every run of dag_corpus
DAG_DIGEST = \
    "8b1401602a99498b943643f26576558f46e8ce5260e9191c8c41b0f84b862004"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_trace_digests():
    assert {p.stem for p in SCENARIOS.glob("*.scn")} \
        == {name for name, _ in TRACE_DIGESTS}
    got = {}
    for name, strategy in TRACE_DIGESTS:
        sc = load_scenario(str(SCENARIOS / (name + ".scn")))
        got[(name, strategy)] = sha256(
            Simulator(sc, strategy=strategy).run().trace_text())
    assert got == TRACE_DIGESTS
    sc = load_scenario(str(SCENARIOS / "crash_recover.scn"))
    assert sha256(sweep.render_rows(sweep.crash_sweep(sc))) \
        == CRASH_SWEEP_DIGEST


def audit_report_text(report):
    rows = []
    for name in sorted(k for k in report if k != "ok"):
        ok, info = report[name]
        if isinstance(info, dict):
            info = {k: v for k, v in info.items() if k != "edges"}
        rows.append("%s\t%s\t%r" % (name, ok, info))
    return "\n".join(rows)


def test_golden_audit_reports():
    got = {}
    for name, strategy in AUDIT_DIGESTS:
        sc = load_scenario(str(SCENARIOS / (name + ".scn")))
        text = Simulator(sc, strategy=strategy).run().trace_text()
        got[(name, strategy)] = sha256(audit_report_text(
            audit.audit_trace(text, all_nodes=sc.nodes)))
    assert got == AUDIT_DIGESTS
    reports = []
    for seed in range(50):
        sc = random_competitive_scenario(seed)
        text = Simulator(sc).run().trace_text()
        reports.append(audit_report_text(
            audit.audit_trace(text, all_nodes=sc.nodes)))
    assert sha256("\n\n".join(reports)) == COMPETITIVE_AUDIT_DIGEST


def test_golden_mutant_audit_reports():
    reports = []
    failing = 0
    for path in sorted(SCENARIOS.glob("*.scn")):
        sc = load_scenario(str(path))
        for strategy in (None, "flatten", "nested"):
            for seed in range(10):
                text = Simulator(sc, seed=seed, strategy=strategy,
                                 unsafe_early_release=True).run().trace_text()
                report = audit.audit_trace(text, all_nodes=sc.nodes)
                failing += not report["ok"]
                reports.append(audit_report_text(report))
    assert (len(reports), failing) == (150, 18)
    assert sha256("\n\n".join(reports)) == MUTANT_AUDIT_DIGEST


def test_golden_workload_traces_and_parses():
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    texts = {name: workloads[name](1) for name in WORKLOAD_TRACE_DIGESTS}
    texts.update((p.stem, p.read_text()) for p in SCENARIOS.glob("*.scn"))
    parsed = {name: parse_scenario(text) for name, text in texts.items()}
    assert {name: sha256(repr(sc)) for name, sc in parsed.items()} \
        == PARSE_REPR_DIGESTS
    runs = {
        "contended_2pc": Simulator(parsed["contended_2pc"]),
        "crash_sweep": Simulator(replace(parsed["crash_sweep"], faults=[])),
        "nested_seeds": Simulator(parsed["nested_seeds"], seed=0),
    }
    assert {name: sha256(sim.run().trace_text())
            for name, sim in runs.items()} == WORKLOAD_TRACE_DIGESTS


def test_golden_sweep_tables():
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    nested = parse_scenario(workloads["nested_seeds"](1))
    crash = parse_scenario(workloads["crash_sweep"](1))
    assert {
        "nested_seeds": sha256(sweep.render_rows(
            sweep.seed_sweep(nested, 0, 9))),
        "crash_sweep": sha256(sweep.render_rows(sweep.crash_sweep(
            crash, stride=workloads["CRASH_STRIDE"]))),
    } == SWEEP_TABLE_DIGESTS


def dag_corpus():
    """Runs whose instance DAGs the golden DAG digest covers: each
    reference scenario under each strategy at seeds 0-9, a crash of each
    node right after each event of its fault-free run under each strategy
    (recovered 7 ticks later), nested_seeds at seeds 0-19 under its own
    strategy and flatten, and crash_sweep and contended_2pc at their own
    seeds, all generated at seed 1."""
    strategies = (None, "flatten", "nested")
    for path in sorted(SCENARIOS.glob("*.scn")):
        sc = load_scenario(str(path))
        for strategy in strategies:
            for seed in range(10):
                yield Simulator(sc, seed=seed, strategy=strategy).run()
        free = replace(sc, faults=[])
        for strategy in strategies:
            n_events = len(Simulator(free, strategy=strategy).run()
                           .trace.events)
            for node in sc.nodes:
                for k in range(n_events):
                    crash = replace(sc, faults=[Fault("index", k, "crash",
                                                      node)])
                    yield Simulator(crash, strategy=strategy,
                                    auto_recover_after=7).run()
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    nested = parse_scenario(workloads["nested_seeds"](1))
    for strategy in (None, "flatten"):
        for seed in range(20):
            yield Simulator(nested, seed=seed, strategy=strategy).run()
    for name in ("crash_sweep", "contended_2pc"):
        yield Simulator(parse_scenario(workloads[name](1))).run()


def dag_rows(sim):
    """One line per started instance: its key, nodes and edges."""
    for key, inst in sim.instances.items():
        dag = inst.dag
        if dag is not None:
            yield repr((key, [(n.nid, n.thread, n.step, n.kind, n.obj)
                              for n in dag.nodes], dag.edges))


def test_golden_dag_digest():
    digest = hashlib.sha256()
    for sim in dag_corpus():
        for row in dag_rows(sim):
            digest.update(row.encode() + b"\n")
    assert digest.hexdigest() == DAG_DIGEST
