import random

import pytest

from casim.engine import Simulator
from casim.scenario import parse_scenario


def run_text(text, **kw):
    return Simulator(parse_scenario(text), **kw).run()


TRANSFER = """
node alpha
node beta
object acct_a alpha 100
object acct_b beta 40
action transfer
  footprint acct_a acct_b
  role debit
    read acct_a
    write acct_a acct_a - 30
    sync moved emit
    exit
  role credit
    sync moved await
    write acct_b acct_b + 30
    exit
  test conserved acct_a + acct_b == 140
end
client c1 alpha 0 transfer debit
client c2 beta 0 transfer credit
seed 3
horizon 500
"""

# node and object names that a trace line cannot carry, each rejected at
# the line declaring it (line 2); accepted, an object `x,y` split into two
# names in its commit's `objs` and failed a correct run's atomicity audit,
# an object `-` wrote a trace whose grant line `casim audit` rejected, and
# a node `-` fell out of its commit's `parts`, so the durability audit
# never checked its applies
COMMA_IN_OBJECT = """node n1
object x,y n1 0
action a
  footprint x,y
  role r
    write x,y 5
    exit
end
client c n1 0 a r
"""
DASH_OBJECT = COMMA_IN_OBJECT.replace("x,y", "-")
DASH_NODE = """node n1
node -
object x n1 0
object y - 0
action a
  footprint x y
  role r
    write x 5
    write y 7
    exit
end
client c n1 0 a r
"""
# a deadline that would time an instance out before it opened; accepted,
# it scheduled the entry timeout 3 ticks in the past, and the instance
# aborted as soon as its first role registered
NEGATIVE_DEADLINE = """node n1
action a deadline=-3
  role r
    exit
  role s
    exit
end
client c1 n1 0 a r
client c2 n1 2 a s
"""
BAD_NAME = "node and object names may not be `-` or contain `,`"


def order_chain(n, closed=False):
    """Scenario text: one action that runs `n` nested actions in turn,
    each ordered after the one before (`order c0 < c1` and on); `closed`
    adds `order c<n-1> < c0` last, which makes the order a cycle."""
    lines = ["node n1", "object x n1 0"]
    for i in range(n):
        lines += ["action c%d" % i, "  footprint x", "  role r",
                  "    write x 1", "    exit", "end"]
    lines += ["action top", "  footprint x", "  role boss"]
    lines += ["    enter c%d r" % i for i in range(n)]
    lines += ["    exit", "  nested " + " ".join("c%d" % i for i in range(n))]
    lines += ["  order c%d < c%d" % (i, i + 1) for i in range(n - 1)]
    if closed:
        lines.append("  order c%d < c0" % (n - 1))
    lines += ["end", "client cl n1 0 top boss", "horizon %d" % (100 * n)]
    return "\n".join(lines) + "\n"


@pytest.fixture
def transfer_scenario():
    return parse_scenario(TRANSFER)


def random_competitive_scenario(seed):
    """2-5 single-threaded actions over 2-3 shared objects; used by the
    serializability and smuggling checks."""
    rng = random.Random(seed)
    n_objs = rng.randint(2, 3)
    objs = ["o%d" % i for i in range(n_objs)]
    lines = ["node n1", "node n2"]
    for i, o in enumerate(objs):
        lines.append("object %s n%d %d" % (o, i % 2 + 1, rng.randint(0, 9)))
    n_actions = rng.randint(2, 5)
    for i in range(n_actions):
        lines.append("action act%d" % i)
        lines.append("  footprint %s" % " ".join(objs))
        lines.append("  role solo")
        for _ in range(rng.randint(1, 4)):
            o = rng.choice(objs)
            if rng.random() < 0.5:
                lines.append("    read %s" % o)
            else:
                src = rng.choice(objs)
                lines.append("    write %s %s + %d" % (o, src,
                                                       rng.randint(1, 5)))
        lines.append("    exit")
        lines.append("end")
    for i in range(n_actions):
        lines.append("client c%d n%d %d act%d solo"
                     % (i, i % 2 + 1, rng.randint(0, 6), i))
    lines.append("seed %d" % seed)
    lines.append("horizon 2000")
    return parse_scenario("\n".join(lines))
