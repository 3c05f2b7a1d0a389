"""Golden trace digests: byte-identical replay across commits.

Pins the sha256 of the rendered trace of every reference scenario under
each strategy (the scenario's own, flatten, nested) and of the crash-sweep
verdict table of crash_recover.scn, and the sha256 of the audit report of
each of those runs and of 50 generated competitive scenarios (the
serializability witness and every pass's verdict and problems; the
frontier edge list is left out).  A change that is meant to keep traces
unchanged (a refactor, a deletion, a speed-up) must leave every digest as
it is.  A change that alters a trace on purpose, such as making the
acceptance tests take read locks, updates the digests here and gives the
reason in CHANGES.md.
"""

import hashlib
from pathlib import Path

from casim import audit, sweep
from casim.engine import Simulator
from casim.scenario import load_scenario

from conftest import random_competitive_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRACE_DIGESTS = {
    ("competitive", None): "2118302fcaeaeab63619cef40295339ec5eeb7b97a59ff1f5e31690929f2080e",
    ("competitive", "flatten"): "2118302fcaeaeab63619cef40295339ec5eeb7b97a59ff1f5e31690929f2080e",
    ("competitive", "nested"): "2118302fcaeaeab63619cef40295339ec5eeb7b97a59ff1f5e31690929f2080e",
    ("crash_recover", None): "0f26981894b3926e8674276ff605a51ac82ee33a8f9acdef4c88b853870d702d",
    ("crash_recover", "flatten"): "0f26981894b3926e8674276ff605a51ac82ee33a8f9acdef4c88b853870d702d",
    ("crash_recover", "nested"): "0f26981894b3926e8674276ff605a51ac82ee33a8f9acdef4c88b853870d702d",
    ("deep_tree", None): "892bad1c890691a219ab8fe42bf54a35d66dd10f46a1973204f23b448ce15f69",
    ("deep_tree", "flatten"): "e8853d6acb6b075e22766514832ee186333def82757d097928aa3bd2bcd13947",
    ("deep_tree", "nested"): "892bad1c890691a219ab8fe42bf54a35d66dd10f46a1973204f23b448ce15f69",
    ("flat_transfer", None): "d490c429997dcb7216818c22b915c6c9c1433af12e52be3dacb8738caec524f8",
    ("flat_transfer", "flatten"): "d490c429997dcb7216818c22b915c6c9c1433af12e52be3dacb8738caec524f8",
    ("flat_transfer", "nested"): "d490c429997dcb7216818c22b915c6c9c1433af12e52be3dacb8738caec524f8",
    ("nested_audit", None): "b4328ed571278403069e9438fbfab1f7809713e16c21b40338741ef594ed427f",
    ("nested_audit", "flatten"): "2242f1575b787ae338098ca619e5a354d29638ebe84c366b25eaa9b2585940b6",
    ("nested_audit", "nested"): "b4328ed571278403069e9438fbfab1f7809713e16c21b40338741ef594ed427f",
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

CRASH_SWEEP_DIGEST = \
    "ac3aa3e917fd1c2e884584fbd9e07f903716df0a78ba54c4aa14de0f5b8155d7"


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
