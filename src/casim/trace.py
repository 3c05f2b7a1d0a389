"""Run traces: the tab-separated event log every audit consumes.

Each event is one line `seq TAB time TAB kind TAB txn TAB obj TAB detail`.
A trace file ends with a literal `dump` line followed by labelled state
sections in the object-store dump format: one record per line,
`node TAB name TAB version TAB value`, with an integer version.  Each
section appears at most once and holds at most one record per (node,
name), so no record can shadow another.

`Trace.emit` stamps each event with the trace's clock, `Trace.now`, which
the run loop sets before each handler; no emitter passes a time.  Detail
values are strings from the moment an event is emitted (`emit` converts
any other value with `str`), so an emitted event and the same event
parsed back from its line are equal.  Some kinds must carry detail keys
that the audits read directly (`REQUIRED_DETAIL`): `begin` a
`parent` (an integer or `-`), `grant` a `mode`, `write` a `val`,
`register` an `inst`, `outcome` an `inst` and an `outcome`, `crash` and
`recover` a `node`; a `commit2` a `phase` of `decision`, `apply` or
`nested`, with `phase=decision` an `outcome`, with `phase=apply` a
`node` and with `phase=nested` an integer `parent`.  The parser rejects
an event that lacks one, and a `commit2` of any other phase.

Within one trace most field values repeat, so both ends keep one object
per distinct value.  `parse` shares the kind string, each object name,
detail key and detail value, each (key, value) token pair and each int
of the time and txn fields across the events it returns, so equal values
of two events may be one object.  Only immutable strings and ints are
shared within one call; each event it returns has its own `detail` dict.
The parser reads its text in chunks of about `CHUNK_CHARS` characters,
each ending just after a newline, so it never holds a list of every
line; lines and line numbers are those of `str.splitlines`.
`Trace.emit` gives equal int detail values one string per trace.

`render(dumps, record)` also keeps in `record` (a `Rendered`) the text it
returned, the events it rendered and the dump sections it wrote.
`parse(text, record)` of that same text splits no line: it returns the
recorded events themselves, `detail` dicts included, after checking each
one's seq and required detail keys at the line it was rendered to.  So a
parse may return a run's own emitted events, and no reader of parsed
events may change one.  That is sound only while parsing each rendered
line gives back what it was rendered from, which each sweep checks by
parsing one run's text in full.  Any other text is parsed in full.

Each event's line is formatted from one template per event shape, the
kind followed by the detail keys in the order of its `detail` dict: a
format string with the kind and the sorted keys written in (`%` escaped)
and a getter of the detail values in sorted-key order, built the first
time a trace formats that shape.  The memo of templates belongs to the trace,
holds one entry per distinct shape it has formatted, and is shared with
every copy of the trace, so the forks of one paused run build each
template once between them.

A trace and its copies also share rendered lines.  `copy` first renders
the source's events past its cache of rendered lines, and the new trace
starts with its own copy of that list; `lines` and `render` format only
the events past the cache, so the copies of one paused run format their
common prefix once between them.  Emitted events are shared between a
trace and its copies and never change after `emit`, so neither do their
lines.  Only `copy` fills the cache: a trace that is never copied keeps
no lines after `render`.
"""

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .errors import MalformedTrace

# Event kinds, grouped by the subsystem that emits them.
TXN_KINDS = {"begin", "grant", "queue", "read", "write",
             "commit1", "commit2", "abort"}
STORE_KINDS = {"crash", "recover"}
ACTION_KINDS = {"register", "line_recovery", "sync_emit", "sync_await",
                "test_line", "outcome"}
SIM_KINDS = {"msg_send", "msg_recv", "drop", "step", "submit"}

ALL_KINDS = TXN_KINDS | STORE_KINDS | ACTION_KINDS | SIM_KINDS
# kind -> the one string for it, so parsed events share their kind
_KINDS = {k: k for k in ALL_KINDS}

DUMP_SECTIONS = ("initial", "stable", "volatile")

# the parser reads its text in chunks of about this many characters
CHUNK_CHARS = 1 << 16

# kind -> detail keys it must carry; for commit2, phase -> keys
REQUIRED_DETAIL = {
    "begin": ("parent",), "grant": ("mode",), "write": ("val",),
    "register": ("inst",), "outcome": ("inst", "outcome"),
    "crash": ("node",), "recover": ("node",),
    "commit2": {"decision": ("outcome",), "apply": ("node",),
                "nested": ("parent",)},
}


@dataclass(slots=True)
class Event:
    seq: int
    time: int
    kind: str
    txn: int | None
    obj: str | None
    detail: dict


def _no_detail(detail):
    return ()


def _template(shape):
    """The format string of the lines of events of `shape`, a kind then
    detail keys, and the getter of the tuple of their detail values in
    sorted-key order.  The string takes seq, time, txn and obj, then
    those values; the kind and the sorted keys are written into it with
    `%` escaped, and `-` stands for no key."""
    kind, keys = shape[0], sorted(shape[1:])
    head = "%%s\t%%s\t%s\t%%s\t%%s\t" % kind.replace("%", "%%")
    if not keys:
        return head + "-", _no_detail
    head += " ".join(["%s=%%s" % k.replace("%", "%%") for k in keys])
    if len(keys) == 1:
        key = keys[0]
        return head, lambda detail: (detail[key],)
    return head, itemgetter(*keys)


class Rendered:
    """What one `Trace.render` call returned and what it rendered from:
    `text`, the `events` (a list of its own) and the `dumps` sections it
    wrote (each a list of its own; empty if it wrote no dump)."""

    __slots__ = ("text", "events", "dumps")


class Trace:
    """Append-only event log that calls nothing back, and the simulated
    clock of the run that owns it: every part that emits holds the trace,
    so `now` reaches them all without a back-reference."""

    def __init__(self):
        self.events: list[Event] = []
        self.now = 0
        self._int_text = {}   # int detail value -> its one string
        self._lines = []      # lines of the first events; filled by copy()
        self._templates = {}  # shape -> _template(shape); shared by copies
        self.by_instance = None   # kept by dag.instance_dag

    def emit(self, kind: str, txn=None, obj=None, **detail) -> Event:
        """Append an event stamped with `now`."""
        assert kind in ALL_KINDS, kind
        for k, v in detail.items():
            if type(v) is int:    # exact: True == 1 must stay "True"
                text = self._int_text.get(v)
                if text is None:
                    text = self._int_text[v] = str(v)
                detail[k] = text
            elif type(v) is not str:
                detail[k] = str(v)
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
        tr._templates = self._templates
        tr.now = self.now
        tr._int_text = dict(self._int_text)
        return tr

    def lines(self):
        """Every event's line, from the cache and then each from its
        shape's template."""
        done = self._lines
        templates = self._templates
        new = []
        for ev in islice(self.events, len(done), None):
            detail = ev.detail
            shape = (ev.kind, *detail)
            try:
                template, values = templates[shape]
            except KeyError:
                template, values = templates[shape] = _template(shape)
            txn = ev.txn
            new.append(template % ((ev.seq, ev.time,
                                    "-" if txn is None else txn,
                                    ev.obj or "-") + values(detail)))
        return done + new if done else new

    def render(self, dumps: dict | None = None,
               record: Rendered | None = None) -> str:
        out = self.lines()
        if dumps is not None:
            out.append("dump")
            for section in DUMP_SECTIONS:
                out.append("[%s]" % section)
                out.extend(dumps.get(section, []))
        out.append("")  # the final newline, without copying the text again
        text = "\n".join(out) or "\n"
        if record is not None:
            record.text = text
            record.events = list(self.events)
            record.dumps = {} if dumps is None else {
                section: list(dumps.get(section, []))
                for section in DUMP_SECTIONS}
        return text


def _check_detail(kind, detail, need, lineno):
    if kind == "commit2":
        phase = detail.get("phase")
        need = need.get(phase)
        if need is None:
            raise MalformedTrace("commit2 event with %s" % (
                "no phase" if phase is None else "unknown phase %r" % phase),
                lineno)
    for key in need:
        if key not in detail:
            raise MalformedTrace("%s event lacks detail key %r" % (kind, key),
                                 lineno)
    if "parent" in need and not (kind == "begin"
                                 and detail["parent"] == "-"):
        try:
            int(detail["parent"])
        except ValueError:
            raise MalformedTrace("non-integer parent %r" % detail["parent"],
                                 lineno)


def _recorded(record: Rendered):
    """The events and dump records `record` kept, in new lists, checked as
    parsing their lines would check them now: event k, at line k + 1,
    must have seq k and its kind's required detail keys."""
    events = list(record.events)
    for seq, ev in enumerate(events):
        if ev.seq != seq:
            raise MalformedTrace("seq %d out of order" % ev.seq, seq + 1)
        need = REQUIRED_DETAIL.get(ev.kind)
        if need is not None:
            _check_detail(ev.kind, ev.detail, need, seq + 1)
    return events, {section: list(lines)
                    for section, lines in record.dumps.items()}


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


def _pair(tok: str, strings: dict, lineno: int) -> tuple:
    if "=" not in tok:
        raise MalformedTrace("bad detail token %r" % tok, lineno)
    k, v = tok.split("=", 1)
    return strings.setdefault(k, k), strings.setdefault(v, v)


def parse(text: str, record: Rendered | None = None):
    """Parse a trace file into (events, dump_sections).

    dump_sections maps section name to its list of raw record lines.
    Raises MalformedTrace with a line number on schema violations.

    `record`, if given, is what `Trace.render` kept of a render.  If
    `text` equals the text it rendered (at once if it is that object),
    the result is new lists of the recorded events and dump records,
    once each event has the seq and the required detail keys expected at
    its line; every other check depends on the line alone, which
    rendering that event made.  Any other text is parsed and checked in
    full.  `record` is only read.
    """
    if record is not None and text == record.text:
        return _recorded(record)
    events = []
    dumps = {}
    section = None
    in_dump = False
    expect_seq = 0
    # one object per distinct value within this parse
    ints = {}       # time or txn field -> int
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
        if parts[5] != "-":
            for tok in parts[5].split(" "):
                pair = pairs.get(tok)
                if pair is None:
                    pair = pairs[tok] = _pair(tok, strings, lineno)
                detail[pair[0]] = pair[1]
        need = REQUIRED_DETAIL.get(kind)
        if need is not None:
            _check_detail(kind, detail, need, lineno)
        events.append(Event(seq, time, kind, txn, obj, detail))
    return events, dumps
