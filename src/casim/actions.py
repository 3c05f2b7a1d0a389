"""Coordinated-action definitions, instances, static validation, and
post-run concurrency classification.

A definition names its roles (each an ordered program of steps), the
declared object footprint its recovery line covers, a set of acceptance
tests evaluated at the test line, nested definitions, and ordering
constraints between them.  Runtime orchestration lives in the engine;
this module owns the data model and every check that can be made
statically.
"""

from dataclasses import dataclass, field

from .errors import CyclicConstraint, MalformedTrace, ModeViolation, ValidationError
from .exprs import Expr

# concurrency-model modes
FLAT = "flat"
NESTED_SAME_KIND = "nested_same_kind"
GENERAL = "general"
MODES = (FLAT, NESTED_SAME_KIND, GENERAL)

# step kinds
READ = "read"
WRITE = "write"
SYNC = "sync"
ENTER = "enter"
EXIT = "exit"

DEFAULT_DEADLINE = 50


@dataclass
class Step:
    kind: str
    obj: str | None = None
    expr: Expr | None = None       # write value expression
    signal: str | None = None
    sync_op: str | None = None     # emit | await
    action: str | None = None      # enter target
    role: str | None = None


@dataclass
class Role:
    name: str
    steps: list


@dataclass
class AcceptanceTest:
    name: str
    expr: Expr


@dataclass
class CAActionDef:
    name: str
    roles: dict                      # role name -> Role
    footprint: list = field(default_factory=list)
    tests: list = field(default_factory=list)
    nested: list = field(default_factory=list)   # names of nested defs
    order: list = field(default_factory=list)    # (before, after) nested names
    mode: str = GENERAL
    deadline: int = DEFAULT_DEADLINE
    escalate: bool = False

    @property
    def multi_role(self) -> bool:
        return len(self.roles) > 1


GATHERING = "gathering"
RUNNING = "running"
TESTING = "testing"
COMMITTED = "committed"
ABORTED = "aborted"


class CAActionInstance:
    """One live run of a definition: registered participants, bound
    transaction (its undo log is the recovery line) and operation DAG."""

    def __init__(self, defn: CAActionDef, key: str, origin_node: str,
                 strategy: str, parent=None):
        self.defn = defn
        self.key = key
        self.origin_node = origin_node  # coordinator: first registrant's node
        self.strategy = strategy        # flatten | nested, the root's choice
        self.parent = parent            # CAActionInstance | None
        self.depth = 0 if parent is None else parent.depth + 1
        self.status = GATHERING
        self.registered: dict[str, int] = {}    # role -> thread id
        self.txn_id: int | None = None
        self.savepoint = None           # flatten-strategy region marker
        self.arrived: set[int] = set()
        self.signals: dict[str, int] = {}       # signal -> emitting DAG node
        self.sync_waiters: dict[str, list[int]] = {}
        self.order_waiters: dict[str, list[int]] = {}  # nested name -> tids
        self.nested: dict[str, "CAActionInstance"] = {}
        self.boundary_nid: int | None = None    # node in parent's DAG
        self.last_nid: dict[int, int] = {}      # thread id -> last DAG node
        self.twopc = None

    @property
    def terminal(self) -> bool:
        return self.status in (COMMITTED, ABORTED)


def validate_defs(defs: dict, known_objects=None):
    """Static checks over a set of definitions.  Raises ValidationError,
    ModeViolation or CyclicConstraint."""
    for name, d in defs.items():
        if not d.roles:
            raise ValidationError("action %s has no roles" % name)
        if d.mode not in MODES:
            raise ValidationError("action %s: unknown mode %r" % (name, d.mode))
        for n in d.nested:
            if n not in defs:
                raise ValidationError("action %s nests unknown action %s"
                                      % (name, n))
            child = defs[n]
            if len(child.roles) > len(d.roles):
                raise ValidationError(
                    "action %s: nested %s has more roles than its parent"
                    % (name, n))
            if any(o not in d.footprint for o in child.footprint):
                raise ValidationError(
                    "action %s: nested %s footprint exceeds parent footprint"
                    % (name, n))
        if d.mode == FLAT and d.nested:
            raise ModeViolation("action %s: mode=flat forbids nesting" % name)
        if d.mode == NESTED_SAME_KIND:
            for n in d.nested:
                if defs[n].multi_role != d.multi_role:
                    raise ModeViolation(
                        "action %s: mixed-kind nesting of %s under "
                        "mode=nested_same_kind" % (name, n))
        for a, b in d.order:
            for x in (a, b):
                if x not in d.nested:
                    raise ValidationError(
                        "action %s: ordering constraint names %s, which is "
                        "not nested here" % (name, x))
        _check_order_acyclic(name, d.order)
        for role in d.roles.values():
            for i, step in enumerate(role.steps):
                _validate_step(name, role.name, i, step, d, defs,
                               known_objects)


def _check_order_acyclic(action, order):
    succ = {}
    for a, b in order:
        succ.setdefault(a, []).append(b)
    seen, done = set(), set()

    def visit(n):
        if n in done:
            return
        if n in seen:
            raise CyclicConstraint("action %s: ordering constraints are "
                                   "cyclic at %s" % (action, n))
        seen.add(n)
        for m in succ.get(n, []):
            visit(m)
        done.add(n)

    for n in list(succ):
        visit(n)


def _validate_step(action, role, idx, step, d, defs, known_objects):
    where = "action %s role %s step %d" % (action, role, idx)
    if step.kind == WRITE:
        if step.obj not in d.footprint:
            raise ValidationError("%s: write to %s outside declared "
                                  "footprint" % (where, step.obj))
    if step.kind in (READ, WRITE) and known_objects is not None:
        for o in [step.obj] + list(step.expr.names if step.expr else []):
            if o is not None and o not in known_objects:
                raise ValidationError("%s: unknown object %s" % (where, o))
    if step.kind == ENTER:
        if step.action not in d.nested:
            raise ValidationError("%s: enters %s, which is not declared "
                                  "nested" % (where, step.action))
        if step.role not in defs[step.action].roles:
            raise ValidationError("%s: unknown role %s of %s"
                                  % (where, step.role, step.action))


# --- post-run concurrency classification (trace-level) ---

INDEPENDENT = "independent"
COMPETITIVE = "competitive"
COOPERATIVE = "cooperative"


def classify_concurrency(events) -> dict:
    """Label every pair of logical threads from a completed trace.

    Co-participants of some action instance are cooperative; threads
    sharing objects without a common instance are competitive; threads
    with disjoint object sets and no shared instance are independent.
    """
    objs: dict[int, set] = {}
    insts: dict[int, set] = {}
    for ev in events:
        th = ev.detail.get("th")
        if th is None:
            continue
        th = int(th)
        objs.setdefault(th, set())
        insts.setdefault(th, set())
        if ev.kind in ("read", "write") and ev.obj:
            objs[th].add(ev.obj)
        if ev.kind == "register" and ev.detail.get("ok", "1") == "1":
            inst = ev.detail.get("inst")
            if inst is None:
                raise MalformedTrace("register event without inst field")
            insts[th].add(inst)
    out = {}
    threads = sorted(objs)
    for i, a in enumerate(threads):
        for b in threads[i + 1:]:
            if insts[a] & insts[b]:
                out[(a, b)] = COOPERATIVE
            elif objs[a] & objs[b]:
                out[(a, b)] = COMPETITIVE
            else:
                out[(a, b)] = INDEPENDENT
    return out
