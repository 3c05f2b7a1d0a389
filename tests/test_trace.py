import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from casim import trace
from casim.engine import Simulator
from casim.errors import MalformedTrace
from casim.scenario import load_scenario


def make_trace():
    t = trace.Trace()
    t.emit(0, "begin", txn=0, parent="-")
    t.emit(1, "grant", txn=0, obj="x", mode="w")
    t.emit(1, "write", txn=0, obj="x", val="32", th=0, inst="a")
    return t


def test_line_format_is_six_tab_fields():
    t = make_trace()
    for ln in t.lines():
        assert len(ln.split("\t")) == 6


def test_detail_keys_sorted():
    t = trace.Trace()
    t.emit(0, "write", txn=1, obj="x", val="aa", inst="k", th=3)
    det = t.lines()[0].split("\t")[5]
    assert det == "inst=k th=3 val=aa"


def test_roundtrip_parse():
    t = make_trace()
    dumps = {"initial": ["n1\tx\t0\t31"], "stable": ["n1\tx\t0\t31"],
             "volatile": ["n1\tx\t0\t31"]}
    events, parsed_dumps = trace.parse(t.render(dumps))
    assert [e.kind for e in events] == ["begin", "grant", "write"]
    assert events[2].detail["val"] == "32"
    assert parsed_dumps == dumps


def test_parse_rejects_bad_seq():
    text = "0\t0\tbegin\t0\t-\tparent=-\n5\t0\tabort\t0\t-\t-\n"
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 2


def test_parse_rejects_unknown_kind():
    with pytest.raises(MalformedTrace):
        trace.parse("0\t0\tfrobnicate\t-\t-\t-\n")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(MalformedTrace):
        trace.parse("0\t0\tbegin\t0\n")


def test_parse_rejects_unknown_dump_section():
    text = "0\t0\tbegin\t0\t-\tparent=-\ndump\n[bogus]\n"
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 3


@pytest.mark.parametrize("record, message", [
    ("n1\tx\t0", "expected 4 tab-separated fields in a dump record"),
    ("n1\tx\t0\t31\textra",
     "expected 4 tab-separated fields in a dump record"),
    ("n1\tx\tv\t31", "non-integer version 'v' in a dump record"),
])
def test_parse_rejects_bad_dump_record(record, message):
    text = "0\t0\tbegin\t0\t-\tparent=-\ndump\n[initial]\n%s\n" % record
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 4
    assert message in str(e.value)


def test_emit_asserts_known_kind():
    t = trace.Trace()
    with pytest.raises(AssertionError):
        t.emit(0, "nonsense")


def test_parse_rejects_non_integer_txn():
    text = ("0\t0\tbegin\t0\t-\tparent=-\n"
            "1\t0\tbegin\tx\t-\tparent=-\n")
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 2


@pytest.mark.parametrize("line, message", [
    ("begin\t0\t-\t-", "begin event lacks detail key 'parent'"),
    ("begin\t1\t-\tparent=x", "non-integer parent 'x'"),
    ("grant\t0\tx\t-", "grant event lacks detail key 'mode'"),
    ("write\t0\tx\tinst=a", "write event lacks detail key 'val'"),
    ("register\t-\t-\tok=1", "register event lacks detail key 'inst'"),
    ("outcome\t-\t-\toutcome=aborted",
     "outcome event lacks detail key 'inst'"),
    ("outcome\t-\t-\tinst=a", "outcome event lacks detail key 'outcome'"),
    ("crash\t-\t-\t-", "crash event lacks detail key 'node'"),
    ("recover\t-\t-\t-", "recover event lacks detail key 'node'"),
    ("commit2\t0\t-\tphase=decision",
     "commit2 event lacks detail key 'outcome'"),
    ("commit2\t0\t-\tobjs=x phase=apply",
     "commit2 event lacks detail key 'node'"),
    ("commit2\t1\t-\tphase=nested", "commit2 event lacks detail key 'parent'"),
    ("commit2\t1\t-\tparent=- phase=nested", "non-integer parent '-'"),
])
def test_parse_rejects_missing_or_bad_detail(line, message):
    text = "0\t0\tbegin\t0\t-\tparent=-\n1\t0\t%s\n" % line
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 2
    assert message in str(e.value)


def test_parse_needs_no_keys_for_other_commit2_phases():
    events, _ = trace.parse("0\t0\tcommit2\t0\t-\t-\n")
    assert events[0].detail == {}


_REQUIRED = {"begin": {"parent": "-"}, "grant": {"mode": "r"},
             "write": {"val": "31"}, "register": {"inst": "a"},
             "outcome": {"inst": "a", "outcome": "committed"},
             "crash": {"node": "n1"}, "recover": {"node": "n1"}}
_PHASES = {"decision": {"outcome": "commit"}, "apply": {"node": "n1"},
           "nested": {"parent": "3"}, "other": {}}
_KEYS = st.sampled_from(["a", "k9", "from", "inst", "x_y", "-"])
_VALUES = st.text("abz09_-.,#/:=", max_size=6)
_OBJS = st.none() | st.text("abz09_-.,#/:=", min_size=2, max_size=6)


@st.composite
def _events(draw):
    events = []
    for seq in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(sorted(trace.ALL_KINDS)))
        detail = draw(st.dictionaries(_KEYS, _VALUES, max_size=3))
        detail.update(_REQUIRED.get(kind, {}))
        if kind == "commit2":
            phase = draw(st.sampled_from(sorted(_PHASES)))
            detail["phase"] = phase
            detail.update(_PHASES[phase])
        events.append(trace.Event(
            seq, draw(st.integers(0, 10 ** 6)), kind,
            draw(st.none() | st.integers(-5, 10 ** 6)), draw(_OBJS), detail))
    return events


@settings(max_examples=200, deadline=None)
@given(_events())
def test_parse_inverts_render(events):
    """The format guard an in-memory audit relies on: events whose detail
    values are strings come back equal from their rendered lines."""
    t = trace.Trace()
    t.events = events
    text = t.render()
    assert text == "\n".join(t.lines()) + "\n"
    assert trace.parse(text) == (events, {})


def test_render_of_no_events_is_one_newline():
    assert trace.Trace().render() == "\n"
    assert trace.Trace().render({}) == \
        "dump\n[initial]\n[stable]\n[volatile]\n"


# --- the parser before it shared values and streamed its lines, kept as
# the reference the current parser must match on every input ---

def _reference_parse_detail(text):
    if text == "-":
        return {}
    out = {}
    for tok in text.split(" "):
        if "=" not in tok:
            raise MalformedTrace("bad detail token %r" % tok)
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _reference_check_detail(kind, detail, need, lineno):
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


def _reference_parse(text):
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
                if name not in trace.DUMP_SECTIONS:
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
        if kind not in trace.ALL_KINDS:
            raise MalformedTrace("unknown event kind %r" % kind, lineno)
        obj = None if parts[4] == "-" else parts[4]
        try:
            detail = _reference_parse_detail(parts[5])
        except MalformedTrace as e:
            raise MalformedTrace(str(e), lineno)
        need = trace.REQUIRED_DETAIL.get(kind)
        if need is not None:
            _reference_check_detail(kind, detail, need, lineno)
        events.append(trace.Event(seq, time, kind, txn, obj, detail))
    return events, dumps


def _outcome(parse, text):
    try:
        return parse(text)
    except MalformedTrace as e:
        return "MalformedTrace", str(e), e.line


def _assert_parses_like_reference(text):
    assert _outcome(trace.parse, text) == _outcome(_reference_parse, text)


# few distinct keys, values, objects, times and txns, so most repeat
_FEW_KEYS = ["th", "inst", "mid", "objs", "val", "from"]
_FEW_VALUES = ["0", "17", "1000", "a", "acct_a", "x,y", "-", "=", "a=b", ""]
_FEW_OBJS = [None, "x", "acct_a", "o17", "o17"]
_FEW_INTS = [0, 3, 300, 300, 70000, -2]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
           "\x85", "\u2028", "\u2029"]
_NOISE = ["", " ", "\t", "  \t", "x", "7\t0\tbegin\t-\t-\tparent=-",
          "0\t0\tbegin\t0\t-\tnovalue", "0\tt\tstep\t-\t-\t-",
          "0\t0\t1.5\t-\t-\t-", "0\t0\tfrobnicate\t-\t-\t-",
          "0\t 4\tstep\t\u0663\t-\t-", "dump", "[initial]", "[bogus]",
          "n1\tx\t0", "n1\tx\tv\t31", "n1\tx\t0\t31", "[stable"]
_BAD_FIELDS = ["", "-", "x", "+5", "05", "1_0", "bogus", "k", "k=v k",
               "parent=x", "phase=nested", "a=1  b=2"]


def _repetitive_text(rng):
    """A rendered trace of up to 200 events over few distinct values, with
    or without dumps, then possibly mutated: lines inserted, lines cut,
    fields replaced and the line breaks swapped for other ones."""
    events = []
    for seq in range(rng.randint(0, 200)):
        kind = rng.choice(sorted(trace.ALL_KINDS))
        detail = {rng.choice(_FEW_KEYS): rng.choice(_FEW_VALUES)
                  for _ in range(rng.randint(0, 4))}
        detail.update(_REQUIRED.get(kind, {}))
        if kind == "commit2":
            phase = rng.choice(sorted(_PHASES))
            detail["phase"] = phase
            detail.update(_PHASES[phase])
        events.append(trace.Event(
            seq, rng.choice(_FEW_INTS), kind,
            rng.choice([None] + _FEW_INTS), rng.choice(_FEW_OBJS), detail))
    t = trace.Trace()
    t.events = events
    dumps = rng.choice([None, {"initial": ["n1\tx\t0\t31"],
                               "stable": ["n1\tx\t1\t32"], "volatile": []}])
    lines = t.render(dumps).split("\n")
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(lines) - 1)
        op = rng.choice(["insert", "delete", "field"])
        if op == "insert":
            lines.insert(i, rng.choice(_NOISE))
        elif op == "delete":
            del lines[i]
        else:
            fields = lines[i].split("\t")
            fields[rng.randrange(len(fields))] = rng.choice(_BAD_FIELDS)
            lines[i] = "\t".join(fields)
    breaks = rng.sample(_BREAKS, rng.randint(1, 3))
    return "".join(ln + rng.choice(breaks) for ln in lines)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_parse_matches_reference(seed):
    _assert_parses_like_reference(_repetitive_text(random.Random(seed)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "\t", " "] + _BREAKS), max_size=40),
       st.integers(1, 8))
def test_lines_match_splitlines_at_every_chunk_edge(pieces, chunk):
    text = "".join(pieces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "CHUNK_CHARS", chunk)
        assert list(trace._lines(text)) == text.splitlines()


def _text_breaking_at(brk, at):
    """A trace text over one chunk long, its line breaks `\\r\\n` except
    one `brk` that starts at character `at`."""
    lines, ends, pos = [], [], 0
    while pos < trace.CHUNK_CHARS + 2000:
        seq = len(lines)
        lines.append("%d\t%d\tstep\t%d\to%d\tth=%d pad="
                     % (seq, seq // 7, seq % 13, seq % 5, seq % 3))
        ends.append(pos + len(lines[-1]))
        pos = ends[-1] + 2
    k = max(i for i, end in enumerate(ends) if end <= at)
    lines[0] += "x" * (at - ends[k])
    return "".join(ln + (brk if i == k else "\r\n")
                   for i, ln in enumerate(lines))


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\u2028",
                                 "\n\n", "\r\n \r\n", "\nbad\n"])
def test_parse_matches_reference_across_a_chunk_edge(brk):
    for shift in range(-3, 3):
        text = _text_breaking_at(brk, trace.CHUNK_CHARS + shift)
        assert text[trace.CHUNK_CHARS + shift:].startswith(brk)
        _assert_parses_like_reference(text)
    if "bad" not in brk:
        assert len(trace.parse(text)[0]) == \
            len([ln for ln in text.splitlines() if ln.strip()])


def test_parse_shares_repeated_values():
    path = Path(__file__).resolve().parent.parent / "scenarios" / \
        "crash_recover.scn"
    text = Simulator(load_scenario(str(path))).run().trace_text()
    events, _ = trace.parse(text)
    first = {}
    for ev in events:
        assert first.setdefault(ev.kind, ev.kind) is ev.kind
        assert first.setdefault(("time", ev.time), ev.time) is ev.time
        for k, v in ev.detail.items():
            assert first.setdefault(("key", k), k) is k
            assert first.setdefault(("token", k, v), v) is v
    assert len([k for k in first if k in trace.ALL_KINDS]) > 5
    assert len({id(ev.detail) for ev in events}) == len(events)
    # ints above the interpreter's small-int cache, repeated
    t = trace.Trace()
    for _ in range(3):
        t.emit(5000, "begin", txn=7000, obj="acct_a", parent="-")
    events, _ = trace.parse(t.render())
    assert events[0].time is events[1].time is events[2].time
    assert events[0].txn is events[1].txn is events[2].txn
    assert events[0].obj is events[1].obj is events[2].obj
    assert len({id(ev.detail) for ev in events}) == 3


def test_emit_shares_the_string_of_each_int():
    t = trace.Trace()
    for th in (3, 1234):
        a = t.emit(0, "step", th=th)
        b = t.emit(1, "step", th=th)
        assert a.detail["th"] == str(th)
        assert a.detail["th"] is b.detail["th"]
    ev = t.emit(2, "step", th=1, ok=True)
    assert ev.detail == {"th": "1", "ok": "True"}
    assert t.lines()[-1].endswith("ok=True th=1")
