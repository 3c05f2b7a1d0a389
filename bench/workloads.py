"""Seeded scenario generators for the benchmark workloads.

Each generator takes the workload seed and returns scenario text; the
program under test only ever sees that text.  The same seed gives the
same text.  Sizes are fixed, so runs on different seeds do the same
amount of work and differ only in which objects, times and values are
drawn.

Write any workload out to reproduce it by hand:

    python3 bench/workloads.py contended_2pc 7 > contended.scn
    casim run contended.scn
    python3 bench/workloads.py crash_sweep 7 > crash.scn
    casim sweep crash.scn --mode crash --stride 2
    python3 bench/workloads.py nested_seeds 7 > nested.scn
    casim sweep nested.scn --mode seeds --range 0..99
"""

import random
import sys

NODES = ("n1", "n2", "n3", "n4")


def _objects(rng, count):
    """`count` objects homed round-robin on NODES; returns (lines, homes)."""
    lines, homes = [], {}
    for i in range(count):
        name = "o%d" % i
        homes[name] = NODES[i % len(NODES)]
        lines.append("object %s %s %d"
                     % (name, homes[name], rng.randint(1000, 2000)))
    return lines, homes


def _transfer(name, src, dst, amount):
    """Two-role debit/credit action whose roles are linked by a signal."""
    return [
        "action %s" % name,
        "  footprint %s %s" % (src, dst),
        "  role debit",
        "    read %s" % src,
        "    write %s %s - %d" % (src, src, amount),
        "    sync moved emit",
        "    exit",
        "  role credit",
        "    sync moved await",
        "    write %s %s + %d" % (dst, dst, amount),
        "    exit",
        "  test solvent %s >= 0" % src,
        "end",
    ]


def _transfers(rng, n_actions, n_objects, window):
    """Scenario lines for n_actions transfers over n_objects objects on
    four nodes, each submitted at a random time in [0, window)."""
    obj_lines, homes = _objects(rng, n_objects)
    lines = ["node %s" % n for n in NODES] + obj_lines
    clients = []
    for i in range(n_actions):
        src, dst = rng.sample(sorted(homes), 2)
        lines += _transfer("t%d" % i, src, dst, rng.randint(1, 9))
        at = rng.randrange(window)
        clients.append("client d%d %s %d t%d debit" % (i, homes[src], at, i))
        clients.append("client c%d %s %d t%d credit" % (i, homes[dst], at, i))
    return lines + clients


def contended_2pc(seed):
    """One long run: 1,200 transfers over 150 objects on 4 nodes, with two
    crash/recover time faults on different nodes (~38k events).

    Why: it is dominated by the audits, whose serializability pass compares
    every pair of operations.  Long commit logs make the linear
    `ObjectStore.find_log` scan cost grow; the lock table queues and kills
    under wait-die; recovery resolves in-doubt transactions at scale."""
    rng = random.Random(seed)
    window = 1500
    lines = _transfers(rng, 1200, 150, window)
    down_a, down_b = rng.sample(NODES, 2)
    t_a, t_b = window // 4, window * 3 // 4
    lines += ["fault at %d crash %s" % (t_a, down_a),
              "fault at %d recover %s" % (t_a + 60, down_a),
              "fault at %d crash %s" % (t_b, down_b),
              "fault at %d recover %s" % (t_b + 60, down_b),
              "seed %d" % seed,
              "horizon %d" % (window + 2000)]
    return "\n".join(lines) + "\n"


def _cross_node_pairs(rng, homes):
    """Split the objects into disjoint (src, dst) pairs homed on different
    nodes: two node pairs, drawn by the seed, each zip their shuffled
    object lists together.  Needs the same object count on every node."""
    per_node = {n: [o for o in sorted(homes) if homes[o] == n]
                for n in NODES}
    for objs in per_node.values():
        rng.shuffle(objs)
    order = list(NODES)
    rng.shuffle(order)
    pairs = []
    for a, b in ((order[0], order[1]), (order[2], order[3])):
        for x, y in zip(per_node[a], per_node[b]):
            pairs.append((x, y) if rng.random() < 0.5 else (y, x))
    rng.shuffle(pairs)
    return pairs


def crash_sweep(seed):
    """Eight transfers on 4 nodes for `sweep.crash_sweep` with stride
    CRASH_STRIDE (304 events in the fault-free run, so 608 audited runs).
    Every transfer debits one node and credits another, and no two
    transfers share an object, so the fault-free run has the same events
    on every seed; seeds change values, pairs, submit times and message
    delays.

    Why: many short runs where the simulator dominates; every crash point
    re-simulates its prefix, which a forking sweep would share, while the
    quadratic serializability audit is negligible at this size."""
    rng = random.Random(seed)
    obj_lines, homes = _objects(rng, 16)
    lines = ["node %s" % n for n in NODES] + obj_lines
    clients = []
    for i, (src, dst) in enumerate(_cross_node_pairs(rng, homes)):
        lines += _transfer("t%d" % i, src, dst, rng.randint(1, 9))
        at = rng.randrange(40)
        clients.append("client d%d %s %d t%d debit" % (i, homes[src], at, i))
        clients.append("client c%d %s %d t%d credit" % (i, homes[dst], at, i))
    lines += clients + ["seed %d" % seed, "horizon 1000"]
    return "\n".join(lines) + "\n"


# Stride of the crash_sweep workload's sweep.
CRASH_STRIDE = 2


def _tree(i, c, d, shared_a, shared_b):
    """Top action with two roles entering a two-role mid action; inside
    it a signal, then two single-role leaves under an ordering rule.
    Writes go to the tree's own objects c and d; the shared objects are
    only read."""
    top, mid, la, lb = ("top%d" % i, "mid%d" % i, "la%d" % i, "lb%d" % i)
    return [
        "action %s" % la,
        "  footprint %s" % c,
        "  role r",
        "    read %s" % shared_a,
        "    write %s %s + 1" % (c, c),
        "    exit",
        "end",
        "action %s" % lb,
        "  footprint %s" % d,
        "  role r",
        "    write %s %s + %s" % (d, d, c),
        "    exit",
        "end",
        "action %s" % mid,
        "  footprint %s %s" % (c, d),
        "  role m1",
        "    read %s" % c,
        "    sync ready emit",
        "    enter %s r" % la,
        "    exit",
        "  role m2",
        "    sync ready await",
        "    enter %s r" % lb,
        "    exit",
        "  nested %s %s" % (la, lb),
        "  order %s < %s" % (la, lb),
        "end",
        "action %s" % top,
        "  footprint %s %s" % (c, d),
        "  role t1",
        "    read %s" % shared_a,
        "    enter %s m1" % mid,
        "    exit",
        "  role t2",
        "    read %s" % shared_b,
        "    enter %s m2" % mid,
        "    exit",
        "  nested %s" % mid,
        "  test grew %s > %s" % (d, c),
        "end",
    ]


def nested_seeds(seed):
    """20 three-level action trees for `sweep.seed_sweep` over seeds
    SWEEP_SEEDS (~1.5k events per run).  Each tree writes two objects of
    its own on different nodes and reads two of four shared objects, so
    every tree uses 4 of the 44 objects and no two trees conflict.

    Why: nested commit with lock transfer, the operation DAG, threads
    blocked on ordering rules and signals.  Reads sit beside writes and
    never conflict, so every lock is granted at once.  Runs on different
    seeds diverge from event 0: a forking sweep has no prefix to share."""
    rng = random.Random(seed)
    obj_lines, homes = _objects(rng, 40)
    shared = ["s%d" % i for i in range(len(NODES))]
    obj_lines += ["object %s %s %d" % (s, n, rng.randint(1, 9))
                  for s, n in zip(shared, NODES)]
    lines = ["node %s" % n for n in NODES] + obj_lines
    clients = []
    for i, (c, d) in enumerate(_cross_node_pairs(rng, homes)):
        lines += _tree(i, c, d, *rng.sample(shared, 2))
        at = rng.randrange(200)
        clients.append("client p%d %s %d top%d t1" % (i, homes[c], at, i))
        clients.append("client q%d %s %d top%d t2" % (i, homes[d], at, i))
    lines += clients + ["seed %d" % seed, "horizon 2000"]
    return "\n".join(lines) + "\n"


GENERATORS = {
    "contended_2pc": contended_2pc,
    "crash_sweep": crash_sweep,
    "nested_seeds": nested_seeds,
}

# Seeds the nested_seeds workload sweeps, inclusive.
SWEEP_SEEDS = (0, 99)


def main(argv):
    if len(argv) != 2 or argv[0] not in GENERATORS:
        sys.stderr.write("usage: workloads.py {%s} SEED\n"
                         % "|".join(GENERATORS))
        return 2
    sys.stdout.write(GENERATORS[argv[0]](int(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
