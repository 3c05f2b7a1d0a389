"""Run traces: the tab-separated event log every audit consumes.

Each event is one line `seq TAB time TAB kind TAB txn TAB obj TAB detail`.
A trace file ends with a literal `dump` line followed by labelled state
sections in the object-store dump format: one record per line,
`node TAB name TAB version TAB value`, with an integer version.

Detail values are strings from the moment an event is emitted (`emit`
converts any other value with `str`), so an emitted event and the same
event parsed back from its line are equal.  Some kinds must carry detail
keys that the audits read directly (`REQUIRED_DETAIL`): `begin` a
`parent` (an integer or `-`), `grant` a `mode`, `write` a `val`,
`register` an `inst`, `outcome` an `inst` and an `outcome`, `crash` and
`recover` a `node`; a `commit2` with `phase=decision` an `outcome`, with
`phase=apply` a `node` and with `phase=nested` an integer `parent`.  The
parser rejects an event that lacks one.

Within one trace most field values repeat, so both ends keep one object
per distinct value.  `parse` shares the kind string, each object name,
detail key and detail value, each (key, value) token pair and each int
of the time and txn fields across the events it returns, so equal values
of two events may be one object.  Only immutable strings and ints are
shared; each event has its own `detail` dict.  The parser reads its text
in chunks of about `CHUNK_CHARS` characters, each ending just after a
newline, so it never holds a list of every line; lines and line numbers
are those of `str.splitlines`.  `Trace.emit` gives equal int detail
values one string per trace.
"""

from dataclasses import dataclass

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

    def line(self) -> str:
        d = self.detail
        return "%s\t%s\t%s\t%s\t%s\t%s" % (
            self.seq, self.time, self.kind,
            "-" if self.txn is None else self.txn, self.obj or "-",
            " ".join(["%s=%s" % (k, d[k]) for k in sorted(d)]) if d else "-")


class Trace:
    """Append-only event log that calls nothing back, and the simulated
    clock of the run that owns it: every part that emits holds the trace,
    so `now` reaches them all without a back-reference."""

    def __init__(self):
        self.events: list[Event] = []
        self.now = 0
        self._int_text = {}   # int detail value -> its one string

    def emit(self, time: int, kind: str, txn=None, obj=None, **detail) -> Event:
        assert kind in ALL_KINDS, kind
        for k, v in detail.items():
            if type(v) is int:    # exact: True == 1 must stay "True"
                text = self._int_text.get(v)
                if text is None:
                    text = self._int_text[v] = str(v)
                detail[k] = text
            elif type(v) is not str:
                detail[k] = str(v)
        ev = Event(len(self.events), time, kind, txn, obj, detail)
        self.events.append(ev)
        return ev

    def lines(self):
        return [ev.line() for ev in self.events]

    def render(self, dumps: dict | None = None) -> str:
        out = self.lines()
        if dumps is not None:
            out.append("dump")
            for section in DUMP_SECTIONS:
                out.append("[%s]" % section)
                out.extend(dumps.get(section, []))
        out.append("")  # the final newline, without copying the text again
        return "\n".join(out) or "\n"


def _check_detail(kind, detail, need, lineno):
    if kind == "commit2":
        need = need.get(detail.get("phase"), ())
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


def parse(text: str):
    """Parse a trace file into (events, dump_sections).

    dump_sections maps section name to its list of raw record lines.
    Raises MalformedTrace with a line number on schema violations.
    """
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
                section = name
                dumps[section] = []
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
