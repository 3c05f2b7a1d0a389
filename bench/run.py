"""casim benchmark: host time from generated scenario text to every audit
verdict, on three seeded workloads (see workloads.py for why each).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: it imports casim from the checkout's src/.  It
generates the workload from the seed, then repeats rounds of set-up
timings and one iteration of the workload (parse -> simulate -> render
-> parse -> audit, or a whole sweep) for S seconds, starting no round
that would end past them, and reports medians of host times scaled to a
reference host speed (speed.py).  Every iteration's
outputs are checked: every audit passes, each trace survives a render
-> parse -> render round trip byte for byte, and each trace's sha256
matches the same run of the first iteration, which also fixes every
simulated metric.  It prints one `name value unit` line per metric,
then one JSON line {"correct", "attempted", "failed", "metrics"}; it
exits 1 if any check failed and 2 if it cannot run at all.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
iterations with traced ones (probes.Probe installed) and reports the
per-layer metrics, with the tracing overhead as traced / untraced time.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_casim():
    """Import casim from this checkout's src/ and nowhere else."""
    if not (SRC / "casim" / "__init__.py").is_file():
        raise ImportError("no casim sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import casim
    if Path(casim.__file__).resolve().parent != SRC / "casim":
        raise ImportError("casim imported from %s, not %s"
                          % (casim.__file__, SRC))


def main(argv=None):
    args = _args(argv)
    try:
        _import_casim()
    except ImportError as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 2
    import harness
    bench = harness.Bench(args.workload,
                          workloads.GENERATORS[args.workload](args.seed))
    try:
        if args.trace:
            metrics, notes = bench.per_layer(args.seconds)
        else:
            metrics, notes = bench.end_to_end(args.seconds)
    except Exception:
        traceback.print_exc()
        bench.attempted += 1
        bench.failed += 1
        metrics, notes = {}, ["stopped by an exception"]
    for note in notes:
        print("# %s seed %d: %s" % (args.workload, args.seed, note))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
