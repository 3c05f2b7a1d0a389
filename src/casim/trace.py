"""Run traces: the tab-separated event log every audit consumes.

Each event is one line `seq TAB time TAB kind TAB txn TAB obj TAB detail`.
A trace file ends with a literal `dump` line followed by labelled state
sections in the object-store dump format.
"""

from dataclasses import dataclass, field

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


@dataclass
class Event:
    seq: int
    time: int
    kind: str
    txn: int | None
    obj: str | None
    detail: dict

    def line(self) -> str:
        txn = "-" if self.txn is None else str(self.txn)
        obj = self.obj if self.obj else "-"
        if self.detail:
            det = " ".join("%s=%s" % (k, self.detail[k])
                           for k in sorted(self.detail))
        else:
            det = "-"
        return "\t".join((str(self.seq), str(self.time), self.kind,
                          txn, obj, det))


class Trace:
    """Append-only event log with an emission hook for fault injection."""

    def __init__(self):
        self.events: list[Event] = []
        self.hook = None  # called with each freshly emitted Event

    def emit(self, time: int, kind: str, txn=None, obj=None, **detail) -> Event:
        assert kind in ALL_KINDS, kind
        ev = Event(len(self.events), time, kind, txn, obj,
                   {k: str(v) for k, v in detail.items()})
        self.events.append(ev)
        if self.hook is not None:
            self.hook(ev)
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
        except ValueError:
            raise MalformedTrace("non-integer seq or time", lineno)
        if seq != expect_seq:
            raise MalformedTrace("seq %d out of order" % seq, lineno)
        expect_seq += 1
        kind = parts[2]
        if kind not in ALL_KINDS:
            raise MalformedTrace("unknown event kind %r" % kind, lineno)
        txn = None if parts[3] == "-" else int(parts[3])
        obj = None if parts[4] == "-" else parts[4]
        try:
            detail = parse_detail(parts[5])
        except MalformedTrace as e:
            raise MalformedTrace(str(e), lineno)
        events.append(Event(seq, time, kind, txn, obj, detail))
    return events, dumps
