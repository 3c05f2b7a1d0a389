"""Line-oriented scenario files.

A scenario declares the simulated cluster (nodes, objects with home node
and initial integer value), the action definitions with role bodies, the
client contributions that jointly submit actions, a fault script, and run
configuration.  Grammar by example:

    node n1
    object x n1 0
    action transfer mode=general deadline=40
      footprint x y
      role debit
        read x
        write x x - 1
        sync moved emit
        enter audit checker
        exit
      role credit
        write y y + 1
        exit
      test balanced x + y == 10
      nested audit
      order audit < cleanup
    end
    client c1 n1 0 transfer debit
    client c2 n2 0 transfer credit
    fault at 20 crash n2
    fault index 5 recover n2
    seed 7
    strategy nested
    horizon 1000

The example is an excerpt: `audit` and `cleanup` are not defined in it;
README.md has a complete scenario.  A `#` starts a comment only at the
start of a line (after optional blanks), so a comment cannot follow
content on the same line.  Client lines may suffix the action with `#key`
to distinguish several instances of one definition.  `fault index K`
fires right after the K-th trace event instead of at a fixed virtual
time; K and the time of `fault at` are non-negative.

Parsing is the one input check (ValidationError, or ModeViolation and
CyclicConstraint from `validate_defs`); the engine trusts its result.
Beyond the grammar: no `/` in action names or client action keys (it
joins a nested instance's key to its parent's), every object an action
names is declared, a test names only objects in its action's footprint,
no two clients give one role of one key, and no `order` line repeats
another in its action.
"""

from dataclasses import dataclass, field

from .actions import (CAActionDef, AcceptanceTest, Role, Step,
                      MODES, validate_defs,
                      READ, WRITE, SYNC, ENTER, EXIT)
from .errors import ValidationError
from .exprs import Expr


@dataclass
class Contribution:
    client: str
    node: str
    time: int
    action_key: str   # definition name, optionally suffixed `#key`
    role: str

    @property
    def defname(self) -> str:
        return self.action_key.split("#", 1)[0]


@dataclass
class Fault:
    when_kind: str    # "time" | "index"
    when: int
    op: str           # "crash" | "recover"
    node: str


@dataclass
class Scenario:
    nodes: list = field(default_factory=list)
    objects: list = field(default_factory=list)   # (name, node, int value)
    defs: dict = field(default_factory=dict)
    clients: list = field(default_factory=list)
    faults: list = field(default_factory=list)
    seed: int = 0
    strategy: str | None = None
    horizon: int = 10000


def _int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ValidationError("expected integer %s, got %r" % (what, tok),
                              lineno)


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    cur_action = None
    cur_role = None
    given = {}        # (action key, role) -> line of the client giving it
    homes = {}        # object name -> line declaring it
    footprints = []   # (action, object, line) of each footprint entry
    fault_lines = []  # line of each fault, in order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("#") or not raw.strip():
            continue
        stripped = raw.strip()
        toks = stripped.split()
        head = toks[0]

        if cur_role is not None and head not in ("role", "test", "footprint",
                                                 "nested", "order", "end"):
            cur_role.steps.append(_parse_step(toks, lineno))
            continue

        if head == "node":
            if len(toks) != 2:
                raise ValidationError("usage: node NAME", lineno)
            if toks[1] in sc.nodes:
                raise ValidationError("duplicate node %s" % toks[1], lineno)
            sc.nodes.append(toks[1])
        elif head == "object":
            if len(toks) != 4:
                raise ValidationError("usage: object NAME NODE VALUE", lineno)
            first = homes.setdefault(toks[1], lineno)
            if first != lineno:
                raise ValidationError("duplicate object %s" % toks[1], lineno)
            sc.objects.append((toks[1], toks[2],
                               _int(toks[3], lineno, "initial value")))
        elif head == "action":
            if cur_action is not None:
                raise ValidationError("nested `action` block (missing `end`?)",
                                      lineno)
            cur_action = _parse_action_header(toks, lineno)
        elif head == "role":
            if cur_action is None:
                raise ValidationError("`role` outside action block", lineno)
            if len(toks) != 2:
                raise ValidationError("usage: role NAME", lineno)
            if toks[1] in cur_action.roles:
                raise ValidationError("duplicate role %s" % toks[1], lineno)
            cur_role = Role(toks[1], [])
            cur_action.roles[toks[1]] = cur_role
        elif head == "footprint":
            _need_action(cur_action, head, lineno)
            footprints.extend((cur_action.name, o, lineno) for o in toks[1:])
            cur_action.footprint.extend(toks[1:])
            cur_role = None
        elif head == "test":
            _need_action(cur_action, head, lineno)
            if len(toks) < 3:
                raise ValidationError("usage: test NAME EXPR", lineno)
            try:
                expr = Expr(" ".join(toks[2:]))
            except ValidationError as e:
                raise ValidationError(str(e), lineno)
            cur_action.tests.append(AcceptanceTest(toks[1], expr))
            cur_role = None
        elif head == "nested":
            _need_action(cur_action, head, lineno)
            cur_action.nested.extend(toks[1:])
            cur_role = None
        elif head == "order":
            _need_action(cur_action, head, lineno)
            if len(toks) != 4 or toks[2] != "<":
                raise ValidationError("usage: order A < B", lineno)
            if (toks[1], toks[3]) in cur_action.order:
                raise ValidationError("duplicate order %s < %s"
                                      % (toks[1], toks[3]), lineno)
            cur_action.order.append((toks[1], toks[3]))
            cur_role = None
        elif head == "end":
            if cur_action is None:
                raise ValidationError("`end` without action block", lineno)
            if cur_action.name in sc.defs:
                raise ValidationError("duplicate action %s" % cur_action.name,
                                      lineno)
            sc.defs[cur_action.name] = cur_action
            cur_action = None
            cur_role = None
        elif head == "client":
            if len(toks) != 6:
                raise ValidationError(
                    "usage: client NAME NODE TIME ACTION ROLE", lineno)
            _no_slash(toks[4], lineno)
            first = given.setdefault((toks[4], toks[5]), lineno)
            if first != lineno:
                raise ValidationError("role %s of %s already given on line %d"
                                      % (toks[5], toks[4], first), lineno)
            sc.clients.append(Contribution(toks[1], toks[2],
                                           _int(toks[3], lineno, "time"),
                                           toks[4], toks[5]))
        elif head == "fault":
            fault_lines.append(lineno)
            sc.faults.append(_parse_fault(toks, lineno))
        elif head in ("seed", "horizon"):
            if len(toks) != 2:
                raise ValidationError("usage: %s N" % head, lineno)
            setattr(sc, head, _int(toks[1], lineno, head))
        elif head == "strategy":
            if len(toks) != 2 or toks[1] not in ("flatten", "nested"):
                raise ValidationError("usage: strategy flatten|nested", lineno)
            sc.strategy = toks[1]
        else:
            raise ValidationError("unknown directive %r" % head, lineno)

    if cur_action is not None:
        raise ValidationError("unterminated action block %r" % cur_action.name)
    # checks that need the whole file, each at the offending line
    for name, node, _v in sc.objects:
        if node not in sc.nodes:
            raise ValidationError("object %s homed at unknown node %s"
                                  % (name, node), homes[name])
    for action, o, lineno in footprints:
        if o not in homes:
            raise ValidationError("action %s: footprint names unknown object "
                                  "%s" % (action, o), lineno)
    validate_defs(sc.defs, known_objects=homes)
    for c in sc.clients:
        if c.node not in sc.nodes:
            msg = "client %s at unknown node %s" % (c.client, c.node)
        elif c.defname not in sc.defs:
            msg = "client %s submits unknown action %s" % (c.client,
                                                             c.defname)
        elif c.role not in sc.defs[c.defname].roles:
            msg = "client %s: action %s has no role %s" % (c.client,
                                                            c.defname, c.role)
        else:
            continue
        raise ValidationError(msg, given[c.action_key, c.role])
    for f, lineno in zip(sc.faults, fault_lines):
        if f.node not in sc.nodes:
            msg = "fault targets unknown node %s" % f.node
        elif f.when_kind == "time" and f.when > sc.horizon:
            msg = "fault at time %d beyond horizon %d" % (f.when, sc.horizon)
        else:
            continue
        raise ValidationError(msg, lineno)
    return sc


def _no_slash(name, lineno):
    # `/` joins a nested instance's key to its parent's
    if "/" in name:
        raise ValidationError("%r: action names and keys may not contain /"
                              % name, lineno)


def _need_action(cur_action, head, lineno):
    if cur_action is None:
        raise ValidationError("`%s` outside action block" % head, lineno)


def _parse_action_header(toks, lineno) -> CAActionDef:
    if len(toks) < 2:
        raise ValidationError("usage: action NAME [mode=..] [deadline=..] "
                              "[escalate]", lineno)
    _no_slash(toks[1], lineno)
    d = CAActionDef(toks[1], {})
    for tok in toks[2:]:
        if tok == "escalate":
            d.escalate = True
        elif tok.startswith("mode="):
            d.mode = tok[5:]
            if d.mode not in MODES:
                raise ValidationError("unknown mode %r" % d.mode, lineno)
        elif tok.startswith("deadline="):
            d.deadline = _int(tok[9:], lineno, "deadline")
        else:
            raise ValidationError("unknown action option %r" % tok, lineno)
    return d


def _parse_step(toks, lineno) -> Step:
    head = toks[0]
    if head == "read":
        if len(toks) != 2:
            raise ValidationError("usage: read OBJECT", lineno)
        return Step(READ, obj=toks[1])
    if head == "write":
        if len(toks) < 3:
            raise ValidationError("usage: write OBJECT EXPR", lineno)
        try:
            expr = Expr(" ".join(toks[2:]))
        except ValidationError as e:
            raise ValidationError(str(e), lineno)
        return Step(WRITE, obj=toks[1], expr=expr)
    if head == "sync":
        if len(toks) != 3 or toks[2] not in ("emit", "await"):
            raise ValidationError("usage: sync SIGNAL emit|await", lineno)
        return Step(SYNC, signal=toks[1], sync_op=toks[2])
    if head == "enter":
        if len(toks) != 3:
            raise ValidationError("usage: enter ACTION ROLE", lineno)
        return Step(ENTER, action=toks[1], role=toks[2])
    if head == "exit":
        return Step(EXIT)
    raise ValidationError("unknown step %r" % head, lineno)


def _parse_fault(toks, lineno) -> Fault:
    if len(toks) != 5 or toks[1] not in ("at", "index") \
            or toks[3] not in ("crash", "recover"):
        raise ValidationError("usage: fault at|index N crash|recover NODE",
                              lineno)
    when = _int(toks[2], lineno, "fault position")
    if when < 0:
        raise ValidationError("negative fault position %d" % when, lineno)
    return Fault("time" if toks[1] == "at" else "index", when, toks[3],
                 toks[4])


def load_scenario(path: str) -> Scenario:
    with open(path) as f:
        return parse_scenario(f.read())
