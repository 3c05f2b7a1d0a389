import pytest

import casim.cli as cli
from casim import audit
from casim.trace import Trace

from conftest import TRANSFER


def write_scn(tmp_path, text=TRANSFER):
    p = tmp_path / "scn.scn"
    p.write_text(text)
    return str(p)


def test_run_writes_trace_and_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    rc = cli.main(["run", write_scn(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "transfer\tcommitted" in out
    assert (tmp_path / "scn.trace").exists()
    assert "audit\tserializability\tpass" in out


def test_run_explicit_outputs_and_flags(tmp_path, capsys):
    trace_path = tmp_path / "t.trace"
    dump_path = tmp_path / "d.dump"
    rc = cli.main(["run", write_scn(tmp_path), "--seed", "7",
                   "--strategy", "flatten", "--horizon", "900",
                   "--trace", str(trace_path), "--dump", str(dump_path)])
    assert rc == 0
    assert trace_path.read_text().startswith("0\t")
    assert "[stable]" in dump_path.read_text()


def test_audit_subcommand_on_written_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.trace"
    assert cli.main(["run", write_scn(tmp_path),
                     "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert cli.main(["audit", str(trace_path)]) == 0


def test_validation_error_exits_two_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("node n1\nobject x n1 oops\n")
    rc = cli.main(["run", str(bad)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_malformed_trace_exits_two(tmp_path, capsys):
    p = tmp_path / "junk.trace"
    p.write_text("0\t0\tnonsense\t-\t-\t-\n")
    assert cli.main(["audit", str(p)]) == 2


def test_sweep_seeds_subcommand(tmp_path, capsys):
    out = tmp_path / "table.tsv"
    rc = cli.main(["sweep", write_scn(tmp_path), "--mode", "seeds",
                   "--range", "0..3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sweep\t4 runs\t0 failed" in text
    assert out.read_text().startswith("seed\t")


def test_sweep_crash_subcommand(tmp_path, capsys):
    rc = cli.main(["sweep", write_scn(tmp_path), "--mode", "crash",
                   "--stride", "10"])
    assert rc == 0
    assert "0 failed" in capsys.readouterr().out


def test_version_flag(capsys):
    try:
        cli.main(["--version"])
    except SystemExit as e:
        assert e.code == 0
    assert capsys.readouterr().out.startswith("casim ")


OUTSIDE_FOOTPRINT = TRANSFER.replace(
    "object acct_b beta 40\n",
    "object acct_b beta 40\nobject audit_log beta 0\n").replace(
    "acct_a + acct_b == 140", "acct_a + audit_log == 100")
ROLE_TWICE = TRANSFER + "client c3 beta 1 transfer credit\n"
SLASH_IN_NAME = TRANSFER.replace("transfer", "pay/out")
SLASH_IN_KEY = TRANSFER.replace("0 transfer debit", "0 transfer#a/b debit")
UNDECLARED_FOOTPRINT = TRANSFER.replace("footprint acct_a acct_b",
                                        "footprint acct_a acct_b zz")


@pytest.mark.parametrize("text, message", [
    (OUTSIDE_FOOTPRINT, "test conserved names audit_log, outside the "
                        "footprint"),
    (ROLE_TWICE, "line 23: role credit of transfer already given on line 20"),
    (SLASH_IN_NAME, "line 6: 'pay/out'"),
    (SLASH_IN_KEY, "line 19: 'transfer#a/b'"),
    ("node n1\nseed\n", "line 2: usage: seed N"),
    (UNDECLARED_FOOTPRINT, "action transfer: footprint names unknown "
                           "object zz"),
], ids=["test_outside_footprint", "role_twice", "slash_in_name",
        "slash_in_key", "seed_without_value", "undeclared_footprint"])
def test_rejected_scenario_exits_two(tmp_path, capsys, monkeypatch, text,
                                     message):
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    rc = cli.main(["run", write_scn(tmp_path, text)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("faults, message", [
    ("fault at 1 crash beta\nfault at 2 crash beta\n",
     "error: InconsistentFault: crash of down node beta"),
    ("fault at 1 recover beta\n",
     "error: InconsistentFault: recover of up node beta"),
], ids=["crash_down_node", "recover_up_node"])
def test_inconsistent_fault_exits_two(tmp_path, capsys, monkeypatch, faults,
                                      message):
    # the engine's check is the only one: the store trusts its caller
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    rc = cli.main(["run", write_scn(tmp_path, TRANSFER + faults)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("0\t0\tbegin\tx\t-\tparent=-\n", "line 1: non-integer seq, time or txn"),
    ("0\t0\toutcome\t-\t-\toutcome=aborted\n",
     "line 1: outcome event lacks detail key 'inst'"),
    ("0\t0\tcommit2\t0\t-\tphase=decision\n",
     "line 1: commit2 event lacks detail key 'outcome'"),
    ("0\t0\tbegin\t0\t-\tparent=x\n", "line 1: non-integer parent 'x'"),
    ("dump\n[initial]\nn1\tx\t0\n",
     "line 3: expected 4 tab-separated fields in a dump record"),
    ("dump\n[initial]\nn1\tx\tv\t31\n",
     "line 3: non-integer version 'v' in a dump record"),
], ids=["txn", "outcome_without_inst", "decision_without_outcome",
        "begin_parent", "dump_fields", "dump_version"])
def test_rejected_trace_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "t.trace"
    path.write_text(text)
    rc = cli.main(["audit", str(path)])
    assert rc == 2
    assert message in capsys.readouterr().err


DIVIDE_BY_ZERO = """
node n1
object x n1 0
action a
  footprint x
  role r
    write x 1 // x
    exit
end
client c1 n1 0 a r
"""
TEST_MOD_ZERO = DIVIDE_BY_ZERO.replace(
    "    write x 1 // x\n", "    read x\n").replace(
    "end\n", "  test t x % 0 == 0\nend\n")


@pytest.mark.parametrize("text", [DIVIDE_BY_ZERO, TEST_MOD_ZERO],
                         ids=["write", "test"])
def test_division_by_zero_aborts_the_instance(tmp_path, capsys, monkeypatch,
                                              text):
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    rc = cli.main(["run", write_scn(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "a\taborted" in out
    assert out.count("\tpass") == 6
    assert "cause=eval_error" in (tmp_path / "scn.trace").read_text()


def test_failed_serializability_prints_cycle_and_conflicts(capsys):
    t = Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(0, "begin", txn=1, parent="-")
    t.emit(1, "read", txn=0, obj="x", val="31")     # seq 2
    t.emit(2, "write", txn=1, obj="x", val="33")    # seq 3
    t.emit(2, "write", txn=1, obj="y", val="32")    # seq 4
    t.emit(3, "write", txn=0, obj="y", val="34")    # seq 5
    for txn in (0, 1):
        t.emit(4, "commit2", txn=txn, phase="decision", outcome="commit",
               parts="-")
    report = {"serializability": audit.audit_serializability(t.events),
              "ok": False}
    assert cli._print_report(report) == 1
    assert capsys.readouterr().out.splitlines() == [
        "audit\tserializability\tFAIL",
        "\tcycle 0 -> 1",
        "\ttxn 0 -> txn 1: x at seq 2 then seq 3",
        "\ttxn 1 -> txn 0: y at seq 4 then seq 5",
    ]
