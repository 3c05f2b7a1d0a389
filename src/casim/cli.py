"""Command-line front end.

    casim run SCENARIO [--seed N] [--strategy flatten|nested]
                       [--horizon T] [--trace PATH] [--dump PATH]
    casim sweep SCENARIO --mode crash|seeds [--range A..B]
                         [--recover-after T] [--stride K] [--out PATH]
    casim audit TRACEFILE

Output files default into $CASIM_OUT_DIR (falling back to the current
directory).  Exit status: 0 success, 1 an audit failed, 2 the scenario or
trace was rejected with a line-numbered diagnostic.
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
    runp.add_argument("--horizon", type=int, default=None)
    runp.add_argument("--trace", default=None,
                      help="trace output path (default: <scenario>.trace "
                           "in $CASIM_OUT_DIR)")
    runp.add_argument("--dump", default=None,
                      help="also write the state dump sections alone")

    sweepp = sub.add_parser("sweep", help="audited fault or seed sweep")
    sweepp.add_argument("scenario")
    sweepp.add_argument("--mode", choices=("crash", "seeds"), required=True)
    sweepp.add_argument("--range", default="0..19", metavar="A..B",
                        help="seed range for --mode seeds (inclusive)")
    sweepp.add_argument("--recover-after", type=int, default=100)
    sweepp.add_argument("--stride", type=int, default=1,
                        help="crash every K-th trace index only")
    sweepp.add_argument("--out", default=None,
                        help="write the verdict table here as well")

    auditp = sub.add_parser("audit", help="audit a previously written trace")
    auditp.add_argument("tracefile")
    return p


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    res = Simulator(sc, seed=args.seed, strategy=args.strategy,
                    horizon=args.horizon).run()
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    trace_path = args.trace or _out_path(stem + ".trace")
    text = res.trace_text()
    with open(trace_path, "w") as f:
        f.write(text)
    if args.dump:
        dumps = res.dumps()
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
    report = audit.audit_trace(text, all_nodes=sc.nodes)
    return _print_report(report)


def _print_report(report) -> int:
    for name in sorted(k for k in report if k != "ok"):
        ok, info = report[name]
        print("audit\t%s\t%s" % (name, "pass" if ok else "FAIL"))
        if not ok:
            probs = _cycle_lines(info) if name == "serializability" else info
            for msg in probs[:10]:
                print("\t%s" % msg)
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
        try:
            start, stop = (int(t) for t in args.range.split("..", 1))
        except ValueError:
            raise ValidationError("bad --range %r, expected A..B" % args.range)
        rows = sweep.seed_sweep(sc, start, stop)
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


if __name__ == "__main__":
    sys.exit(main())
