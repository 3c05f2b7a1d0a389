from pathlib import Path

import pytest

import casim.cli as cli
from casim import audit
from casim.trace import Trace

from conftest import (BAD_NAME, COMMA_IN_OBJECT, DASH_NODE, DASH_OBJECT,
                      NEGATIVE_DEADLINE, TRANSFER, order_chain)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _op(val):
    """The detail of a read or write of `val` by instance `a`'s thread 0."""
    return {"inst": "a", "th": "0", "val": val}


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


def test_run_dump_is_the_one_the_trace_rendered(tmp_path, capsys,
                                                monkeypatch):
    """`--dump` writes the dump sections the trace ends with, byte for
    byte, from the one state dump the run's trace was rendered with."""
    trace_path = tmp_path / "t.trace"
    dump_path = tmp_path / "d.dump"
    calls = []
    real = cli.Simulator.dumps

    def dumps(sim):
        calls.append(sim)
        return real(sim)

    monkeypatch.setattr(cli.Simulator, "dumps", dumps)
    assert cli.main(["run", str(SCENARIOS / "crash_recover.scn"),
                     "--trace", str(trace_path),
                     "--dump", str(dump_path)]) == 0
    assert len(calls) == 1
    trace_bytes = trace_path.read_bytes()
    after = trace_bytes[trace_bytes.index(b"\ndump\n") + len(b"\ndump\n"):]
    assert dump_path.read_bytes() == after
    assert after.startswith(b"[initial]\n") and b"\n[volatile]\n" in after


def test_audit_subcommand_on_written_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.trace"
    assert cli.main(["run", write_scn(tmp_path),
                     "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert cli.main(["audit", str(trace_path)]) == 0


def _audit_lines(out):
    return [ln for ln in out.splitlines()
            if ln.startswith(("audit\t", "\t"))]


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")),
                         ids=lambda p: p.stem)
def test_run_audits_as_audit_of_its_written_trace(tmp_path, capsys, path):
    """`casim run` audits the events it emitted; `casim audit` parses the
    written trace: both print the same audit lines."""
    trace_path = tmp_path / "t.trace"
    rc = cli.main(["run", str(path), "--trace", str(trace_path)])
    ran = _audit_lines(capsys.readouterr().out)
    assert cli.main(["audit", str(trace_path)]) == rc
    assert _audit_lines(capsys.readouterr().out) == ran
    assert len(ran) == 6


def test_validation_error_exits_two_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("node n1\nobject x n1 oops\n")
    rc = cli.main(["run", str(bad)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_run_rejects_a_horizon_before_a_timed_fault(tmp_path, capsys,
                                                    monkeypatch):
    # crash_recover.scn crashes beta at 4 and recovers it at 80
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    scn = str(Path(__file__).resolve().parent.parent / "scenarios"
              / "crash_recover.scn")
    for horizon in ("5", "79"):
        assert cli.main(["run", scn, "--horizon", horizon]) == 2
        assert capsys.readouterr().err == \
            "error: fault at time 80 beyond --horizon %s\n" % horizon
    assert not (tmp_path / "crash_recover.trace").exists()
    assert cli.main(["run", scn, "--horizon", "80"]) == 0
    trace_text = (tmp_path / "crash_recover.trace").read_text()
    assert "\t80\trecover\t-\t-\tnode=beta\n" in trace_text


def test_malformed_trace_exits_two(tmp_path, capsys):
    p = tmp_path / "junk.trace"
    p.write_text("0\t0\tnonsense\t-\t-\t-\n")
    assert cli.main(["audit", str(p)]) == 2


FLAT = str(Path(__file__).resolve().parent.parent / "scenarios"
           / "flat_transfer.scn")


# {tmp} is the test's directory; bad.scn holds bytes that are not UTF-8
@pytest.mark.parametrize("argv, path, reason", [
    (["run", "{tmp}/nope.scn"], "{tmp}/nope.scn", "No such file or directory"),
    (["audit", "{tmp}/nope.trace"], "{tmp}/nope.trace",
     "No such file or directory"),
    (["run", FLAT, "--trace", "{tmp}/no/such/dir/x.trace"],
     "{tmp}/no/such/dir/x.trace", "No such file or directory"),
    (["run", "{tmp}/bad.scn"], "{tmp}/bad.scn",
     "'utf-8' codec can't decode byte 0xff in position 0"),
    (["sweep", FLAT, "--mode", "seeds", "--range", "0..0",
      "--out", "{tmp}/no/such/t.tsv"], "{tmp}/no/such/t.tsv",
     "No such file or directory"),
], ids=["missing_scenario", "missing_trace", "unwritable_trace",
        "undecodable_scenario", "unwritable_sweep_table"])
def test_file_error_exits_two(tmp_path, capsys, monkeypatch, argv, path,
                              reason):
    # exit 1 would mean that an audit failed
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    (tmp_path / "bad.scn").write_bytes(b"\xff\xfe")
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: %s" % (path.format(tmp=tmp_path),
                                             reason))
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("args, message", [
    (["sweep", "--mode", "crash", "--stride", "0"],
     "argument --stride: expected an integer >= 1, got '0'"),
    (["sweep", "--mode", "crash", "--stride", "-1"],
     "argument --stride: expected an integer >= 1, got '-1'"),
    (["sweep", "--mode", "seeds", "--range", "5..3"],
     "argument --range: empty range '5..3'"),
    (["sweep", "--mode", "seeds", "--range", "5"],
     "argument --range: expected A..B, got '5'"),
    (["sweep", "--mode", "crash", "--recover-after", "-5"],
     "argument --recover-after: expected an integer >= 0, got '-5'"),
    (["run", "--horizon", "-1"],
     "argument --horizon: expected an integer >= 0, got '-1'"),
], ids=["stride_zero", "stride_negative", "empty_range", "bad_range",
        "recover_before_crash", "negative_horizon"])
def test_rejected_option_exits_two(tmp_path, capsys, args, message):
    # options that would run nothing, or recover a node before its crash
    with pytest.raises(SystemExit) as e:
        cli.main(args[:1] + [write_scn(tmp_path)] + args[1:])
    assert e.value.code == 2
    assert message in capsys.readouterr().err


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
    (COMMA_IN_OBJECT, "line 2: 'x,y': " + BAD_NAME),
    (DASH_OBJECT, "line 2: '-': " + BAD_NAME),
    (DASH_NODE, "line 2: '-': " + BAD_NAME),
    (NEGATIVE_DEADLINE, "line 2: negative deadline -3"),
], ids=["test_outside_footprint", "role_twice", "slash_in_name",
        "slash_in_key", "seed_without_value", "undeclared_footprint",
        "comma_in_object", "dash_object", "dash_node", "negative_deadline"])
def test_rejected_scenario_exits_two(tmp_path, capsys, monkeypatch, text,
                                     message):
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    rc = cli.main(["run", write_scn(tmp_path, text)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_a_long_order_chain_runs_and_its_cycle_exits_two(tmp_path, capsys,
                                                          monkeypatch):
    """A 1,200-constraint chain used to exit 1, the code of a failed audit,
    with a RecursionError traceback."""
    monkeypatch.setenv("CASIM_OUT_DIR", str(tmp_path))
    assert cli.main(["run", write_scn(tmp_path, order_chain(1200))]) == 0
    out = capsys.readouterr().out
    assert "top\tcommitted\n" in out and "FAIL" not in out
    assert cli.main(["run", write_scn(tmp_path,
                                      order_chain(1200, closed=True))]) == 2
    assert "ordering constraints are cyclic at c0" in capsys.readouterr().err


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
    ("dump\n[stable]\nn9\tzz\t7\t999\n[initial]\n[stable]\n",
     "line 5: repeated dump section 'stable'"),
    ("dump\n[stable]\nn1\tx\t0\t31\nn1\tx\t1\t32\n",
     "line 4: repeated dump record n1/x in [stable]"),
    ("", "error: trace has no [initial] dump section"),
    ("0\t0\tbegin\t0\t-\tparent=-\n",
     "error: trace has no [initial] dump section"),
    ("dump\n[initial]\nn1\tx\t0\t31\n[stable]\nn1\tx\t0\t31\n",
     "error: trace has no [volatile] dump section"),
], ids=["txn", "outcome_without_inst", "decision_without_outcome",
        "begin_parent", "dump_fields", "dump_version", "dump_section_twice",
        "dump_record_twice", "empty", "no_dump", "no_volatile"])
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
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("begin", 1, None, {"parent": "-"})
    t.emit("read", 0, "x", _op("31"))     # seq 2
    t.emit("write", 1, "x", _op("33"))    # seq 3
    t.emit("write", 1, "y", _op("32"))    # seq 4
    t.emit("write", 0, "y", _op("34"))    # seq 5
    for txn in (0, 1):
        t.emit("commit2", txn, None, {
            "outcome": "commit", "parts": "-", "phase": "decision"})
    report = {"serializability": audit.audit_serializability(t.events),
              "ok": False}
    assert cli._print_report(report) == 1
    assert capsys.readouterr().out.splitlines() == [
        "audit\tserializability\tFAIL",
        "\tcycle 0 -> 1",
        "\ttxn 0 -> txn 1: x at seq 2 then seq 3",
        "\ttxn 1 -> txn 0: y at seq 4 then seq 5",
    ]


@pytest.mark.parametrize("count", [10, 13])
def test_report_says_how_many_problems_it_leaves_out(capsys, count):
    """At most ten problems of an audit are printed; a line after them
    counts the rest."""
    problems = ["seq %d: problem" % i for i in range(count)]
    report = {"bracketing": (False, problems), "smuggling": (True, []),
              "ok": False}
    assert cli._print_report(report) == 1
    assert capsys.readouterr().out.splitlines() == [
        "audit\tbracketing\tFAIL", *["\t" + p for p in problems[:10]],
        *["\t... %d more" % (count - 10)] * (count > 10),
        "audit\tsmuggling\tpass"]
