"""Coordinated-action definitions, instances and static validation.

A definition names its roles (each an ordered program of steps), the
declared object footprint its recovery line covers, a set of acceptance
tests evaluated at the test line, nested definitions, and ordering
constraints between them.  Runtime orchestration lives in the engine;
this module owns the data model and every check that can be made
statically.
"""

from dataclasses import dataclass, field

from . import dag as dagmod
from .errors import CyclicConstraint, ModeViolation, ValidationError
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


@dataclass(frozen=True)
class Step:
    """One step of a role body.  The scenario parser makes one Step per
    distinct step line and lets every role that has the line share it,
    hence frozen."""
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
    transaction (its undo log is the recovery line) and its run's trace,
    which `dag` reads; the trace holds no instance, so no cycle forms."""

    def __init__(self, defn: CAActionDef, key: str, origin_node: str,
                 strategy: str, trace, parent=None):
        self.defn = defn
        self.key = key
        self.trace = trace
        self.origin_node = origin_node  # coordinator: first registrant's node
        self.strategy = strategy        # flatten | nested, the root's choice
        self.parent = parent            # CAActionInstance | None
        self.depth = 0 if parent is None else parent.depth + 1
        self.status = GATHERING
        self.registered: dict[str, int] = {}    # role -> thread id
        self.txn_id: int | None = None
        self.savepoint = None           # flatten-strategy region marker
        self.arrived: set[int] = set()
        self.signals: set[str] = set()          # signals emitted so far
        self.sync_waiters: dict[str, list[int]] = {}
        self.order_waiters: dict[str, list[int]] = {}  # nested name -> tids
        # nested name -> child's key, in creation order; the key, not the
        # child, so no cycle: the child is looked up in Simulator.instances
        self.nested: dict[str, str] = {}

    @property
    def terminal(self) -> bool:
        return self.status in (COMMITTED, ABORTED)

    @property
    def dag(self):   # None until the instance starts
        return None if self.txn_id is None else dagmod.instance_dag(
            self.trace, self.key, self.defn)

    def copy(self, parent, trace) -> "CAActionInstance":
        """This instance for a fork with trace `trace`, under `parent`, the
        fork's copy of this one's parent."""
        inst = object.__new__(CAActionInstance)
        inst.__dict__.update(self.__dict__)
        inst.parent = parent
        inst.trace = trace
        inst.registered = dict(self.registered)
        inst.arrived = set(self.arrived)
        inst.signals = set(self.signals)
        inst.sync_waiters = {k: list(v) for k, v in self.sync_waiters.items()}
        inst.order_waiters = {k: list(v)
                              for k, v in self.order_waiters.items()}
        inst.nested = dict(self.nested)
        return inst


def validate_defs(defs: dict, known_objects, lines=None):
    """Static checks over a set of definitions whose steps name only objects
    among `known_objects` (the scenario parser checks each footprint entry
    at its line).  Raises ValidationError, ModeViolation or
    CyclicConstraint at the line, in `lines`, of the declaration it is
    about: keys `(action,)` for the header, `(action, "nested", name)`,
    `(action, "order", before, after)` and `(action, "test", i)` map to a
    line, and `(action, "role", role)` to the lines of the role's steps.
    A declaration missing from `lines` reports no line."""
    at = (lines or {}).get
    for name, d in defs.items():
        if not d.roles:
            raise ValidationError("action %s has no roles" % name,
                                  at((name,)))
        for n in d.nested:
            line = at((name, "nested", n))
            if n not in defs:
                raise ValidationError("action %s nests unknown action %s"
                                      % (name, n), line)
            child = defs[n]
            if len(child.roles) > len(d.roles):
                raise ValidationError(
                    "action %s: nested %s has more roles than its parent"
                    % (name, n), line)
            if any(o not in d.footprint for o in child.footprint):
                raise ValidationError(
                    "action %s: nested %s footprint exceeds parent footprint"
                    % (name, n), line)
        if d.mode == FLAT and d.nested:
            raise ModeViolation("action %s: mode=flat forbids nesting" % name,
                                at((name, "nested", d.nested[0])))
        if d.mode == NESTED_SAME_KIND:
            for n in d.nested:
                if defs[n].multi_role != d.multi_role:
                    raise ModeViolation(
                        "action %s: mixed-kind nesting of %s under "
                        "mode=nested_same_kind" % (name, n),
                        at((name, "nested", n)))
        for a, b in d.order:
            for x in (a, b):
                if x not in d.nested:
                    raise ValidationError(
                        "action %s: ordering constraint names %s, which is "
                        "not nested here" % (name, x),
                        at((name, "order", a, b)))
        _check_order_acyclic(name, d.order, at)
        for i, t in enumerate(d.tests):
            for o in t.expr.names:
                if o not in d.footprint:
                    raise ValidationError("action %s: test %s names %s, "
                                          "outside the footprint"
                                          % (name, t.name, o),
                                          at((name, "test", i)))
        for role in d.roles.values():
            step_lines = at((name, "role", role.name))
            for i, step in enumerate(role.steps):
                _validate_step(name, role.name, i, step, d, defs,
                               known_objects,
                               step_lines[i] if step_lines else None)


def _check_order_acyclic(action, order, at):
    """CyclicConstraint at the first node that a depth-first search over
    the constraints, in declaration order, reaches again while still on
    its path, and at the line of the constraint that reached it.  The
    search keeps its path on a list, so a chain of any length is
    checked without recursion."""
    succ = {}
    for a, b in order:
        succ.setdefault(a, []).append((b, at((action, "order", a, b))))
    seen, done = set(), set()
    for root in list(succ):
        if root in done:
            continue
        seen.add(root)
        path = [(root, iter(succ[root]))]
        while path:
            n, later = path[-1]
            for m, line in later:
                if m in done:
                    continue
                if m in seen:
                    raise CyclicConstraint("action %s: ordering constraints "
                                           "are cyclic at %s" % (action, m),
                                           line)
                seen.add(m)
                path.append((m, iter(succ.get(m, ()))))
                break
            else:
                done.add(n)
                path.pop()


def _validate_step(action, role, idx, step, d, defs, known_objects, line):
    problem = None
    if step.kind == WRITE and step.obj not in d.footprint:
        problem = "write to %s outside declared footprint" % step.obj
    elif step.kind in (READ, WRITE):
        for o in (step.obj,) + (step.expr.names if step.expr else ()):
            if o not in known_objects:
                problem = "unknown object %s" % o
                break
    elif step.kind == ENTER:
        if step.action not in d.nested:
            problem = "enters %s, which is not declared nested" % step.action
        elif step.role not in defs[step.action].roles:
            problem = "unknown role %s of %s" % (step.role, step.action)
    if problem is not None:     # the prefix is formatted only to raise
        raise ValidationError("action %s role %s step %d: %s"
                              % (action, role, idx, problem), line)

