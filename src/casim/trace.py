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

DUMP_SECTIONS = ("initial", "stable", "volatile")

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

    def emit(self, time: int, kind: str, txn=None, obj=None, **detail) -> Event:
        assert kind in ALL_KINDS, kind
        for k, v in detail.items():
            if type(v) is not str:
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
        return "\n".join(out) + "\n"


def parse_detail(text: str) -> dict:
    if text == "-":
        return {}
    out = {}
    for tok in text.split(" "):
        if "=" not in tok:
            raise MalformedTrace("bad detail token %r" % tok)
        k, v = tok.split("=", 1)
        out[k] = v
    return out


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            time = int(parts[1])
            txn = None if parts[3] == "-" else int(parts[3])
        except ValueError:
            raise MalformedTrace("non-integer seq, time or txn", lineno)
        if seq != expect_seq:
            raise MalformedTrace("seq %d out of order" % seq, lineno)
        expect_seq += 1
        kind = parts[2]
        if kind not in ALL_KINDS:
            raise MalformedTrace("unknown event kind %r" % kind, lineno)
        obj = None if parts[4] == "-" else parts[4]
        try:
            detail = parse_detail(parts[5])
        except MalformedTrace as e:
            raise MalformedTrace(str(e), lineno)
        need = REQUIRED_DETAIL.get(kind)
        if need is not None:
            _check_detail(kind, detail, need, lineno)
        events.append(Event(seq, time, kind, txn, obj, detail))
    return events, dumps
