"""Command-line front end.

    casim run SCENARIO [--seed N] [--strategy flatten|nested]
                       [--horizon T] [--trace PATH] [--dump PATH]
    casim sweep SCENARIO --mode crash|seeds [--range A..B]
                         [--recover-after T] [--stride K] [--out PATH]
    casim audit TRACEFILE

Output files default into $CASIM_OUT_DIR (falling back to the current
directory).  Exit status: 0 success, 1 an audit failed, 2 an option,
the scenario or the trace was rejected with a diagnostic, line-numbered
for a file, or a file could not be read, decoded or written (`error:
PATH: reason`).  Options that would run nothing or recover a node before
its crash are rejected: --stride below 1, an empty --range, a negative
--recover-after or --horizon.  So is a --horizon before a `fault at` time
of the scenario, as the parser rejects such a horizon in the file.
"""

import argparse
import os
import sys

from . import __version__, audit, sweep, trace
from .engine import Simulator
from .errors import MalformedTrace, SimError, ValidationError
from .scenario import load_scenario


def _out_path(name):
    return os.path.join(os.environ.get("CASIM_OUT_DIR", "."), name)


def _int_at_least(least):
    """argparse type: an integer no less than `least`."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (least, text))
        return n
    return parse


def _seed_range(text):
    """argparse type: a non-empty inclusive range A..B."""
    try:
        start, stop = (int(t) for t in text.split("..", 1))
    except ValueError:
        raise argparse.ArgumentTypeError("expected A..B, got %r" % text)
    if stop < start:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return start, stop


def _build_parser():
    p = argparse.ArgumentParser(
        prog="casim",
        description="Deterministic simulator for coordinated atomic "
                    "actions over nested transactions.")
    p.add_argument("--version", action="version",
                   version="casim %s" % __version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="execute one scenario")
    runp.add_argument("scenario")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--strategy", choices=("flatten", "nested"),
                      default=None)
    runp.add_argument("--horizon", type=_int_at_least(0), default=None)
    runp.add_argument("--trace", default=None,
                      help="trace output path (default: <scenario>.trace "
                           "in $CASIM_OUT_DIR)")
    runp.add_argument("--dump", default=None,
                      help="also write the state dump sections alone")

    sweepp = sub.add_parser("sweep", help="audited fault or seed sweep")
    sweepp.add_argument("scenario")
    sweepp.add_argument("--mode", choices=("crash", "seeds"), required=True)
    sweepp.add_argument("--range", type=_seed_range, default="0..19",
                        metavar="A..B",
                        help="seed range for --mode seeds (inclusive)")
    sweepp.add_argument("--recover-after", type=_int_at_least(0),
                        default=100)
    sweepp.add_argument("--stride", type=_int_at_least(1), default=1,
                        help="crash every K-th trace index only")
    sweepp.add_argument("--out", default=None,
                        help="write the verdict table here as well")

    auditp = sub.add_parser("audit", help="audit a previously written trace")
    auditp.add_argument("tracefile")
    return p


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    if args.horizon is not None:
        # as the parser checks a file's horizon: no timed fault is dropped
        for f in sc.faults:
            if f.when_kind == "time" and f.when > args.horizon:
                raise ValidationError("fault at time %d beyond --horizon %d"
                                      % (f.when, args.horizon))
    res = Simulator(sc, seed=args.seed, strategy=args.strategy,
                    horizon=args.horizon).run()
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    trace_path = args.trace or _out_path(stem + ".trace")
    text, dumps, report = sweep.audit_run(res, sc.nodes)
    with open(trace_path, "w") as f:
        f.write(text)
    if args.dump:
        with open(args.dump, "w") as f:
            for section in trace.DUMP_SECTIONS:
                f.write("[%s]\n" % section)
                for ln in dumps[section]:
                    f.write(ln + "\n")
    for key in sorted(res.outcomes):
        print("%s\t%s" % (key, res.outcomes[key]))
    for err, key, role, tid in res.rejections:
        print("rejected\t%s\t%s\t%s" % (key, role, err))
    print("trace\t%s\t%d events" % (trace_path, len(res.trace.events)))
    return _print_report(report)


def _print_report(report) -> int:
    for name in sorted(k for k in report if k != "ok"):
        ok, info = report[name]
        print("audit\t%s\t%s" % (name, "pass" if ok else "FAIL"))
        if not ok:
            probs = _cycle_lines(info) if name == "serializability" else info
            for msg in probs[:10]:
                print("\t%s" % msg)
            if len(probs) > 10:
                print("\t... %d more" % (len(probs) - 10))
    return 0 if report["ok"] else 1


def _cycle_lines(info):
    lines = ["cycle %s" % " -> ".join(str(t) for t in info["cycle"])]
    for t1, t2, obj, seq1, seq2 in info["conflicts"]:
        lines.append("txn %d -> txn %d: %s at seq %d then seq %d"
                     % (t1, t2, obj, seq1, seq2))
    return lines


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.scenario)
    if args.mode == "crash":
        rows = sweep.crash_sweep(sc, recover_after=args.recover_after,
                                 stride=args.stride)
    else:
        rows = sweep.seed_sweep(sc, *args.range)
    table = sweep.render_rows(rows)
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table)
    bad = sum(1 for r in rows if not r["ok"])
    print("sweep\t%d runs\t%d failed" % (len(rows), bad))
    return 1 if bad else 0


def _cmd_audit(args) -> int:
    with open(args.tracefile) as f:
        text = f.read()
    return _print_report(audit.audit_trace(text))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "run":
            return _cmd_run(args)
        if args.cmd == "sweep":
            return _cmd_sweep(args)
        return _cmd_audit(args)
    except (ValidationError, MalformedTrace) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SimError as e:
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:     # only the input file is decoded
        path = args.tracefile if args.cmd == "audit" else args.scenario
        print("error: %s: %s" % (path, e), file=sys.stderr)
        return 2
    except OSError as e:    # a file that cannot be opened, read or written
        where = "" if e.filename is None else "%s: " % e.filename
        print("error: %s%s" % (where, e.strerror or e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
