"""Run traces: the tab-separated event log every audit consumes.

Each event is one line `seq TAB time TAB kind TAB txn TAB obj TAB detail`,
the detail `key=value` tokens in sorted key order.  A trace file ends with
a `dump` line and labelled state sections of object-store dump records,
`node TAB name TAB version TAB value` with an integer version, each
section at most once and with at most one record per (node, name).  An
object value (a record's, or a `val`) is written in decimal, and the
parser and the audits keep it a string compared only with other values.

`SCHEMA` is the one statement of the event format: per event shape, the
kind, whether txn and obj are present, the exact detail keys and the
values that tell a kind's shapes apart; `th` and `parent` hold integers.
The parser rejects a line of no shape at that line, and rendering an
emitted event of none or whose `th` or `parent` is not a str of an
integer, so the audits may read a run's emitted events in place of the
parse of its text; each sweep parses one run's text in full to check
that every line parses back to its event, values included.

`Trace.emit` takes each event's detail as the parser builds it from the
line, keys in sorted order and values str, and stamps the event with the
trace's clock, `Trace.now`, so it equals the event parsed back from it.
`parse` shares each distinct kind, name, detail key, value and token and
time or txn int between the events it returns, reading its text in
chunks of about `CHUNK_CHARS` characters, each ending after a newline.

Each line is formatted by its shape's function in `_FORMATTERS`, compiled
at import from that shape's `SCHEMA` row.  It applies the row's checks
inline and returns the line, or None, and then `_shape_error` reads the
parser's table of the same checks, `_SHAPES`, to say what broke.  `copy`
renders the events past the source's cache of lines and gives the copy
its own list of them, so the forks of one paused run format their common
prefix once.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

from .errors import MalformedTrace

Shape = namedtuple("Shape", "kind txn obj keys fixed")
# One Shape per row, as its lines read: the kind, `txn` or `-`, `obj` or
# `-`, then the sorted detail keys, `key=value` where it fixes the value.
SCHEMA = tuple(Shape(kind, txn == "txn", obj == "obj",
                     tuple(k.split("=")[0] for k in keys),
                     dict(k.split("=") for k in keys if "=" in k))
               for kind, txn, obj, *keys in map(str.split, """
    abort         txn -   cause
    begin         txn -   parent
    commit1       txn -   node
    commit2       txn -   node objs phase=apply
    commit2       txn -   outcome=abort phase=decision
    commit2       txn -   outcome=commit parts phase=decision
    commit2       txn -   parent phase=nested
    crash         -   -   node
    drop          -   -   from mid mtype to
    grant         txn obj mode
    line_recovery -   -   inst label
    msg_recv      -   -   from mid mtype to
    msg_send      -   -   from mid mtype to
    outcome       -   -   inst outcome role th
    queue         txn obj mode
    read          txn obj inst th val
    recover       -   -   node
    register      -   -   err inst ok=0 role th
    register      -   -   inst node ok=1 role th
    step          -   -   inst op=enter target th
    step          -   -   inst op=exit th
    submit        -   -   action client node role
    sync_await    -   -   inst signal th
    sync_emit     -   -   inst signal th
    test_line     -   -   failed inst result
    write         txn obj inst th val
""".strip().splitlines()))
INT_KEYS = ("parent", "th")  # hold integers; a begin's parent may be `-`

ALL_KINDS = frozenset(shape.kind for shape in SCHEMA)
# kind -> the one string for it, so parsed events share their kind
_KINDS = {k: k for k in ALL_KINDS}

# (kind, has a txn, has an obj, *sorted detail keys) -> that shape's
# checks (key, the value it must equal or None for an integer) and its one
# INT_KEYS key or None, whose value `_int_value` checks first (the parser
# once per token).
_SHAPES = {(s.kind, s.txn, s.obj, *s.keys): (
    tuple((k, s.fixed.get(k)) for k in s.keys
          if k in s.fixed or k == "parent" and s.kind != "begin"),
    next((k for k in s.keys if k in INT_KEYS), None)) for s in SCHEMA}

DUMP_SECTIONS = ("initial", "stable", "volatile")

# the parser reads its text in chunks of about this many characters
CHUNK_CHARS = 1 << 16


@dataclass(slots=True)
class Event:
    seq: int
    time: int
    kind: str
    txn: int | None
    obj: str | None
    detail: dict


def _is_int(value, ints):
    """Whether `value` is the str of an integer, kept in `ints` (string ->
    int) if so."""
    if value not in ints:
        if type(value) is not str:
            return False
        try:
            ints[value] = int(value)
        except ValueError:
            return False
    return True


def _odd_key(detail, checks, ints):
    """The first key whose value in `detail` `checks` rules out, or None."""
    for key, want in checks:
        value = detail[key]
        if not (value == want or want is None and _is_int(value, ints)):
            return key


def _int_value(key, value, ints):
    """Whether `key` of INT_KEYS may hold `value`: an int, or a parent `-`."""
    return key == "parent" and value == "-" or _is_int(value, ints)


def _formatter(shape):
    """The function of (event, ints) that gives an event of `shape` its
    line, or None if a value breaks the shape's checks (`ints` as for
    `_is_int`).  It is compiled from source made of the shape's row alone,
    as `collections.namedtuple` builds its methods: each detail value is
    read into a local and reaches the line only through the f-string."""
    names = ["v%d" % i for i in range(len(shape.keys))]
    body = ["d = ev.detail"]
    for name, key in zip(names, shape.keys):
        body.append("%s = d[%r]" % (name, key))
        if key in shape.fixed:
            body.append("if %s != %r: return None" % (name, shape.fixed[key]))
        elif key in INT_KEYS:
            dash = "%s != '-' and " % name if shape.kind == "begin" else ""
            body.append("if %s%s not in ints and not _is_int(%s, ints): "
                        "return None" % (dash, name, name))
    line = "\t".join([
        "{ev.seq}", "{ev.time}", shape.kind, "{ev.txn}" if shape.txn else "-",
        "{ev.obj}" if shape.obj else "-",
        " ".join(["%s={%s}" % kv for kv in zip(shape.keys, names)])])
    body.append("return f%r" % line)
    namespace = {"_is_int": _is_int}
    exec("def format_line(ev, ints):\n    " + "\n    ".join(body), namespace)
    return namespace["format_line"]


# the same keys as _SHAPES -> the formatter of that shape
_FORMATTERS = {(s.kind, s.txn, s.obj, *s.keys): _formatter(s) for s in SCHEMA}


def _shape_error(kind, txn, obj, pairs):
    """Why a `kind` event with `txn`, `obj` and the detail (key, value)
    `pairs`, in line order, has no shape (checking fixed values first)."""
    if kind not in ALL_KINDS:
        return "unknown event kind %r" % kind
    keys = [k for k, _ in pairs]
    for a, b in zip(keys, keys[1:]):
        if a >= b:
            return "detail key %r %s" % (b, "repeated" if a == b
                                         else "out of sorted order")
    detail, told = dict(pairs), set()
    shapes = [s for s in SCHEMA if s.kind == kind]
    while common := set.intersection(*[set(s.fixed) for s in shapes]) - told:
        key = min(common)
        if key not in detail and told:
            break       # a key every shape left has, named below
        if key not in detail:
            return "%s event with no %s" % (kind, key)
        shapes = [s for s in shapes if s.fixed[key] == detail[key]]
        if not shapes:
            return "%s event with unknown %s %r" % (kind, key, detail[key])
        told.add(key)
    shape = shapes[0]
    if (txn is not None, obj is not None) != (shape.txn, shape.obj):
        return "%s event needs %s txn and %s obj" % (
            kind, "a" if shape.txn else "no", "an" if shape.obj else "no")
    for key in shape.keys + tuple(keys):
        if (key in detail) != (key in shape.keys):
            return "%s event %s detail key %r" % (
                kind, "with unexpected" if key in detail else "lacks", key)
    checks, key = _SHAPES[(kind, *shape[1:3], *shape.keys)]
    if key is None or _int_value(key, detail[key], {}):
        key = _odd_key(detail, checks, {})
    return "non-integer %s %r" % (key, detail[key])


class Trace:
    """Append-only event log that calls nothing back, and the simulated
    clock of the run that owns it: every part that emits holds the trace,
    so `now` reaches them all without a back-reference."""

    def __init__(self):
        self.events: list[Event] = []
        self.now = 0
        self._lines = []      # lines of the first events; filled by copy()
        self.by_instance = None   # kept by dag.instance_dag

    def emit(self, kind: str, txn: int | None, obj: str | None,
             detail: dict) -> Event:
        """Append the event `kind` of `txn` on `obj`, stamped with the next
        seq and `now`.  `detail` is the dict the parser builds from the
        event's line: its keys in sorted (line) order, every value a str.
        It is kept as given; rendering checks it against `SCHEMA`."""
        ev = Event(len(self.events), self.now, kind, txn, obj, detail)
        self.events.append(ev)
        return ev

    def copy(self) -> "Trace":
        """A trace to extend apart from this one.  The events are shared,
        and so are their lines: this trace renders the events it has not
        rendered yet, and the copy starts with its own list of them."""
        done = self._lines = self.lines()
        tr = Trace()
        tr.events = list(self.events)
        tr._lines = list(done)
        tr.now = self.now
        return tr

    def lines(self):
        """Every event's line, from the cache and then each from its
        shape's formatter; MalformedTrace at an event's line where the
        parser would raise it (keys out of sorted order, no shape, or an
        odd value)."""
        done = self._lines
        new = []
        ints = {}   # integer detail value -> its int, within this call
        for ev in islice(self.events, len(done), None):
            detail = ev.detail
            fmt = _FORMATTERS.get(
                (ev.kind, ev.txn is not None, ev.obj is not None, *detail))
            line = fmt and fmt(ev, ints)
            if line is None:
                raise MalformedTrace(_shape_error(
                    ev.kind, ev.txn, ev.obj, list(detail.items())),
                    len(done) + len(new) + 1)
            new.append(line)
        return done + new if done else new

    def render(self, dumps: dict | None = None) -> str:
        out = self.lines()
        if dumps is not None:
            out.append("dump")
            for section in DUMP_SECTIONS:
                out.append("[%s]" % section)
                out.extend(dumps.get(section, []))
        out.append("")  # the final newline, without copying the text again
        return "\n".join(out) or "\n"


def _lines(text: str):
    """The lines of `text`, exactly as `text.splitlines()` gives them, split
    one chunk of about CHUNK_CHARS characters at a time.  Each chunk ends
    just after a newline, which no line break continues past, so no line
    is cut and the list of every line is never built."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _pair(tok: str, strings: dict, ints: dict, lineno: int) -> tuple:
    if "=" not in tok:
        raise MalformedTrace("bad detail token %r" % tok, lineno)
    k, v = tok.split("=", 1)
    if k in INT_KEYS and not _int_value(k, v, ints):
        raise MalformedTrace("non-integer %s %r" % (k, v), lineno)
    return strings.setdefault(k, k), strings.setdefault(v, v)


def parse(text: str):
    """Parse a trace file into (events, dump_sections).

    dump_sections maps section name to its list of raw record lines.
    Raises MalformedTrace at the first line that breaks the format, such
    as an event line of no shape (keys out of order or repeated have none).
    """
    events = []
    dumps = {}
    section = None
    in_dump = False
    expect_seq = 0
    # one object per distinct value within this parse
    ints = {}       # time, txn, th or parent field -> int
    strings = {}    # object name, detail key or value -> itself
    pairs = {}      # detail token -> (key, value)
    for lineno, raw in enumerate(_lines(text), start=1):
        if not raw.strip():
            continue
        if in_dump:
            if raw.startswith("[") and raw.endswith("]"):
                name = raw[1:-1]
                if name not in DUMP_SECTIONS:
                    raise MalformedTrace("unknown dump section %r" % name,
                                         lineno)
                if name in dumps:
                    raise MalformedTrace("repeated dump section %r" % name,
                                         lineno)
                section = name
                dumps[section] = []
                records = set()     # "node TAB object" of this section
            elif section is None:
                raise MalformedTrace("dump record before section header",
                                     lineno)
            else:
                fields = raw.split("\t")
                if len(fields) != 4:
                    raise MalformedTrace("expected 4 tab-separated fields in "
                                         "a dump record", lineno)
                try:
                    int(fields[2])
                except ValueError:
                    raise MalformedTrace("non-integer version %r in a dump "
                                         "record" % fields[2], lineno)
                key = raw[:len(fields[0]) + 1 + len(fields[1])]
                if key in records:
                    raise MalformedTrace("repeated dump record %s/%s in [%s]"
                                         % (fields[0], fields[1], section),
                                         lineno)
                records.add(key)
                dumps[section].append(raw)
            continue
        if raw == "dump":
            in_dump = True
            continue
        parts = raw.split("\t")
        if len(parts) != 6:
            raise MalformedTrace("expected 6 tab-separated fields", lineno)
        try:
            seq = int(parts[0])
            time = ints.get(parts[1])
            if time is None:
                time = ints[parts[1]] = int(parts[1])
            txn = None
            if parts[3] != "-":
                txn = ints.get(parts[3])
                if txn is None:
                    txn = ints[parts[3]] = int(parts[3])
        except ValueError:
            raise MalformedTrace("non-integer seq, time or txn", lineno)
        if seq != expect_seq:
            raise MalformedTrace("seq %d out of order" % seq, lineno)
        expect_seq += 1
        kind = _KINDS.get(parts[2])
        if kind is None:
            raise MalformedTrace("unknown event kind %r" % parts[2], lineno)
        obj = None if parts[4] == "-" else strings.setdefault(parts[4],
                                                              parts[4])
        detail = {}
        toks = () if parts[5] == "-" else parts[5].split(" ")
        for tok in toks:
            pair = pairs.get(tok)
            if pair is None:
                pair = pairs[tok] = _pair(tok, strings, ints, lineno)
            detail[pair[0]] = pair[1]
        shape = _SHAPES.get((kind, txn is not None, obj is not None, *detail))
        if shape is None or len(detail) < len(toks) \
                or shape[0] and _odd_key(detail, shape[0], ints):
            raise MalformedTrace(_shape_error(
                kind, txn, obj, [pairs[tok] for tok in toks]), lineno)
        events.append(Event(seq, time, kind, txn, obj, detail))
    return events, dumps
