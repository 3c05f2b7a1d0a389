import random
import runpy
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from casim import sweep, trace
from casim.engine import Simulator
from casim.errors import MalformedTrace
from casim.scenario import load_scenario, parse_scenario
from casim.txn import TransactionManager

from conftest import random_competitive_scenario

ROOT = Path(__file__).resolve().parent.parent


def make_trace():
    t = trace.Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.now = 1
    t.emit("grant", 0, "x", {"mode": "w"})
    t.emit("write", 0, "x", {"inst": "a", "th": "0", "val": "32"})
    return t


def test_line_format_is_six_tab_fields():
    t = make_trace()
    for ln in t.lines():
        assert len(ln.split("\t")) == 6


def test_emit_stamps_the_trace_clock():
    assert [ev.time for ev in make_trace().events] == [0, 1, 1]


def test_detail_keys_sorted():
    t = trace.Trace()
    t.emit("write", 1, "x", {"inst": "k", "th": "3", "val": "aa"})
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
    ("0\t0\tbegin\t0\t-\tparent=-",
     "expected 4 tab-separated fields in a dump record"),
])
def test_parse_rejects_bad_dump_record(record, message):
    text = "0\t0\tbegin\t0\t-\tparent=-\ndump\n[initial]\n%s\n" % record
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 4
    assert message in str(e.value)


@pytest.mark.parametrize("dump, line, message", [
    ("[initial]\n[stable]\n[initial]\n", 5,
     "repeated dump section 'initial'"),
    ("[stable]\nn1\tx\t0\t31\n[volatile]\n[stable]\n", 6,
     "repeated dump section 'stable'"),
    ("[stable]\nn1\tx\t0\t31\nn1\ty\t0\t31\nn1\tx\t1\t32\n", 6,
     "repeated dump record n1/x in [stable]"),
    ("[initial]\nn1\tx\t0\t31\n[stable]\nn2\tx\t0\t31\n"
     "n2\tx\t0\t31\n", 7, "repeated dump record n2/x in [stable]"),
])
def test_parse_rejects_a_repeated_dump_section_or_record(dump, line,
                                                         message):
    """A repeated section or (node, object) record would let a later one
    silently shadow the first."""
    text = "0\t0\tbegin\t0\t-\tparent=-\ndump\n" + dump
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == line
    assert str(e.value) == "line %d: %s" % (line, message)


def test_parse_keeps_one_record_per_section():
    """The same (node, object) may appear once in each section, and
    records of other nodes or objects do not collide."""
    text = ("dump\n[initial]\nn1\tx\t0\t31\nn2\tx\t0\t31\n"
            "n1\ty\t0\t31\n[stable]\nn1\tx\t1\t32\n"
            "[volatile]\nn1\tx\t1\t32\n")
    _, dumps = trace.parse(text)
    assert [len(dumps[s]) for s in trace.DUMP_SECTIONS] == [3, 1, 1]


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
    ("write\t0\tx\tinst=a th=0", "write event lacks detail key 'val'"),
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
    ("commit2\t0\t-\t-", "commit2 event with no phase"),
    ("commit2\t0\t-\toutcome=commit parts=n1",
     "commit2 event with no phase"),
    ("commit2\t0\t-\toutcome=commit phase=bogus",
     "commit2 event with unknown phase 'bogus'"),
    ("commit2\t0\t-\toutcome=commit phase=decision",
     "commit2 event lacks detail key 'parts'"),
    ("commit2\t0\t-\toutcome=bogus phase=decision",
     "commit2 event with unknown outcome 'bogus'"),
    ("grant\t0\tx\tmode=r mode=w", "detail key 'mode' repeated"),
    ("read\t0\tx\tinst=a val=31 th=0", "detail key 'th' out of sorted order"),
    ("grant\t0\tx\tmode=r x=1", "grant event with unexpected detail key 'x'"),
    ("grant\t0\t-\tmode=r", "grant event needs a txn and an obj"),
    ("crash\t0\t-\tnode=n1", "crash event needs no txn and no obj"),
    ("read\t0\tx\tinst=a th=x val=31", "non-integer th 'x'"),
    ("register\t-\t-\tinst=a node=n1 ok=2 role=r th=0",
     "register event with unknown ok '2'"),
    ("register\t-\t-\tinst=a node=n1 ok=0 role=r th=0",
     "register event lacks detail key 'err'"),
    ("step\t-\t-\tinst=a th=0", "step event with no op"),
    ("step\t-\t-\tinst=a op=enter th=0",
     "step event lacks detail key 'target'"),
])
def test_parse_rejects_missing_or_bad_detail(line, message):
    text = "0\t0\tbegin\t0\t-\tparent=-\n1\t0\t%s\n" % line
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert e.value.line == 2
    assert message in str(e.value)


@pytest.mark.parametrize("phase, message", [
    (None, "commit2 event with no phase"),
    ("bogus", "commit2 event with unknown phase 'bogus'"),
])
def test_a_commit_decision_without_its_phase_is_rejected(phase, message):
    """A decision line whose phase is cut or changed to one no pass reads
    would hide the decision from serializability and durability: it is
    rejected at its line, whether the text is parsed in full or the
    emitted event is changed before it is rendered."""
    res = Simulator(load_scenario(str(ROOT / "scenarios" /
                                      "flat_transfer.scn"))).run()
    ev = next(ev for ev in res.trace.events if ev.kind == "commit2"
              and ev.detail["phase"] == "decision")
    line = ev.seq + 1
    lines = res.trace_text().split("\n")
    assert lines[line - 1].endswith(" phase=decision")
    lines[line - 1] = lines[line - 1].replace(
        " phase=decision", "" if phase is None else " phase=" + phase)
    with pytest.raises(MalformedTrace) as e:
        trace.parse("\n".join(lines))
    assert (e.value.line, str(e.value)) == (line, "line %d: %s"
                                            % (line, message))
    del ev.detail["phase"]
    if phase is not None:
        ev.detail["phase"] = phase
    with pytest.raises(MalformedTrace) as e:
        res.trace.render(res.dumps())
    assert (e.value.line, str(e.value)) == (line, "line %d: %s"
                                            % (line, message))


_VALUES = st.text("abz09_-.,#/:=", max_size=6)
_OBJS = st.text("abz09_-.,#/:=", min_size=2, max_size=6)
_INTS = st.integers(-5, 10 ** 6).map(str)


@st.composite
def _detail(draw, shape):
    """A detail dict of `shape`, its keys in line order."""
    detail = {}
    for key in shape.keys:
        if key in shape.fixed:
            detail[key] = shape.fixed[key]
        elif key in trace.INT_KEYS:
            detail[key] = draw(_INTS | st.just("-")) \
                if shape.kind == "begin" else draw(_INTS)
        else:
            detail[key] = draw(_VALUES)
    return detail


@st.composite
def _events(draw):
    events = []
    for seq in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(trace.SCHEMA))
        events.append(trace.Event(
            seq, draw(st.integers(0, 10 ** 6)), shape.kind,
            draw(st.integers(-5, 10 ** 6)) if shape.txn else None,
            draw(_OBJS) if shape.obj else None, draw(_detail(shape))))
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


def test_only_a_copied_trace_keeps_rendered_lines():
    t = make_trace()
    text = t.render()
    assert t._lines == []       # render alone keeps nothing
    c = t.copy()
    # the source renders its events once and the copy takes its own list
    assert t._lines == c._lines == text.splitlines()
    assert c._lines is not t._lines
    c.now = t.now = 2
    c.emit("commit1", 0, None, {"node": "n1"})
    t.emit("abort", 0, None, {"cause": "deadlock"})
    assert c.render() == text + "3\t2\tcommit1\t0\t-\tnode=n1\n"
    assert t.render() == text + "3\t2\tabort\t0\t-\tcause=deadlock\n"
    assert len(t._lines) == len(c._lines) == 3


def test_render_of_no_events_is_one_newline():
    assert trace.Trace().render() == "\n"
    assert trace.Trace().render({}) == \
        "dump\n[initial]\n[stable]\n[volatile]\n"


def _reference_line(ev):
    """An event's line as it was formatted before per-shape templates:
    the detail keys sorted, one format per key."""
    d = ev.detail
    return "%s\t%s\t%s\t%s\t%s\t%s" % (
        ev.seq, ev.time, ev.kind, "-" if ev.txn is None else ev.txn,
        ev.obj or "-",
        " ".join(["%s=%s" % (k, d[k]) for k in sorted(d)]) if d else "-")


@st.composite
def _shaped_events(draw):
    """Events of a few schema shapes."""
    shapes = draw(st.lists(st.sampled_from(trace.SCHEMA), min_size=1,
                           max_size=4))
    events = []
    for seq in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(shapes))
        events.append(trace.Event(
            seq, draw(st.integers(0, 99)), shape.kind,
            draw(st.sampled_from([0, 7])) if shape.txn else None,
            draw(st.sampled_from(["x", "o%s"])) if shape.obj else None,
            draw(_detail(shape))))
    return events


@settings(max_examples=200, deadline=None)
@given(_shaped_events(), st.integers(0, 12))
@example([trace.Event(0, 0, "read", 3, "x",
                      {"inst": "%s", "th": "0", "val": "50%"}),
          trace.Event(1, 1, "read", 3, "x",
                      {"inst": "k", "th": "1", "val": "%"}),
          trace.Event(2, 2, "crash", None, None, {"node": "%%"})], 2)
@example([trace.Event(0, 0, "read", 3, "{x}",
                      {"inst": "{ev.seq}", "th": "0", "val": "}{"}),
          trace.Event(1, 1, "drop", None, None,
                      {"from": "\\", "mid": "'", "mtype": '"', "to": "{0}"}),
          trace.Event(2, 2, "crash", None, None,
                      {"node": "\\n'''\"\"\"{%s}"})], 1)
def test_lines_match_the_per_event_formula(events, cut):
    """Lines from the shapes' formatters are those of the old formula,
    also in a copy made after `cut` events, which renders what a fresh
    trace of all the events does.  Values holding `%`, braces, quotes or a
    backslash come out as they went in: a formatter's source is made of
    its shape's row alone, never of a value."""
    t = trace.Trace()
    t.events = events[:cut]
    assert t.lines() == [_reference_line(ev) for ev in t.events]
    fork = t.copy()
    fork.events += events[cut:]
    fresh = trace.Trace()
    fresh.events = list(events)
    assert fork.render() == fresh.render() == ("".join(
        _reference_line(ev) + "\n" for ev in events) or "\n")


def test_one_formatter_per_shape():
    """`_FORMATTERS` holds one function per SCHEMA shape, under the key
    `Trace.lines` looks it up by, which is also that shape's key in the
    parser's `_SHAPES`."""
    keys = [(s.kind, s.txn, s.obj, *s.keys) for s in trace.SCHEMA]
    assert list(trace._FORMATTERS) == keys and set(trace._SHAPES) == set(keys)
    assert len(set(trace._FORMATTERS.values())) == len(trace.SCHEMA) == 26


# --- the parser before it shared values and streamed its lines, kept as
# the reference the current parser must match on every input ---

def _reference_parse_detail(text):
    """The (key, value) pairs of a detail field, in line order; each `th`
    and `parent` an integer, or a `parent` `-`."""
    if text == "-":
        return []
    out = []
    for tok in text.split(" "):
        if "=" not in tok:
            raise MalformedTrace("bad detail token %r" % tok)
        k, v = tok.split("=", 1)
        if k in trace.INT_KEYS and not _is_int(v) \
                and (k, v) != ("parent", "-"):
            raise MalformedTrace("non-integer %s %r" % (k, v))
        out.append((k, v))
    return out


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _reference_check_shape(kind, txn, obj, pairs, lineno):
    """Accept a line whose keys are sorted and repeat none, and that has
    the txn, obj, detail keys and fixed values of a SCHEMA entry, with an
    integer for each INT_KEYS key (or `-` for a begin's parent).  The
    reason a line is rejected is worded as the parser words it."""
    keys = [k for k, _ in pairs]
    detail = dict(pairs)
    if keys == sorted(set(keys)) and any(
            shape.kind == kind and shape.txn == (txn is not None)
            and shape.obj == (obj is not None) and shape.keys == tuple(keys)
            and all(detail[k] == v for k, v in shape.fixed.items())
            for shape in trace.SCHEMA) and all(
            _is_int(v) or (kind, k, v) == ("begin", "parent", "-")
            for k, v in pairs if k in trace.INT_KEYS):
        return detail
    raise MalformedTrace(trace._shape_error(kind, txn, obj, pairs), lineno)


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
                if name in dumps:
                    raise MalformedTrace("repeated dump section %r" % name,
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
                if any(r.split("\t")[:2] == fields[:2]
                       for r in dumps[section]):
                    raise MalformedTrace("repeated dump record %s/%s in [%s]"
                                         % (fields[0], fields[1], section),
                                         lineno)
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
            pairs = _reference_parse_detail(parts[5])
        except MalformedTrace as e:
            raise MalformedTrace(str(e), lineno)
        detail = _reference_check_shape(kind, txn, obj, pairs, lineno)
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
_FEW_VALUES = ["0", "17", "1000", "a", "acct_a", "x,y", "-", "=", "a=b", ""]
_FEW_OBJS = ["x", "acct_a", "o17", "o17"]
_FEW_INTS = [0, 3, 300, 300, 70000, -2]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
           "\x85", "\u2028", "\u2029"]
_NOISE = ["", " ", "\t", "  \t", "x", "7\t0\tbegin\t-\t-\tparent=-",
          "0\t0\tbegin\t0\t-\tnovalue", "0\tt\tstep\t-\t-\t-",
          "0\t0\t1.5\t-\t-\t-", "0\t0\tfrobnicate\t-\t-\t-",
          "0\t 4\tstep\t\u0663\t-\t-", "dump", "[initial]", "[bogus]",
          "n1\tx\t0", "n1\tx\tv\t31", "n1\tx\t0\t31", "[stable"]
_BAD_FIELDS = ["", "-", "x", "+5", "05", "1_0", "bogus", "k", "k=v k",
               "parent=x", "phase=nested", "a=1  b=2", "mode=r mode=w",
               "node=n1 objs=x phase=apply", "inst=a th=x val=31",
               "inst=a th=0 val=31", "val=31 th=0 inst=a"]


def _random_trace(rng):
    """A trace of up to 200 events over few distinct values, and dumps
    for it or None."""
    events = []
    for seq in range(rng.randint(0, 200)):
        shape = rng.choice(trace.SCHEMA)
        drawn = {}      # values drawn in an order of their own
        for key in rng.sample(shape.keys, len(shape.keys)):
            if key in shape.fixed:
                drawn[key] = shape.fixed[key]
            elif key in trace.INT_KEYS:   # a begin's parent may be "-"
                drawn[key] = str(rng.choice(
                    _FEW_INTS + ["-"] * (shape.kind == "begin")))
            else:
                drawn[key] = rng.choice(_FEW_VALUES)
        events.append(trace.Event(
            seq, rng.choice(_FEW_INTS), shape.kind,
            rng.choice(_FEW_INTS) if shape.txn else None,
            rng.choice(_FEW_OBJS) if shape.obj else None,
            {key: drawn[key] for key in shape.keys}))
    t = trace.Trace()
    t.events = events
    dumps = rng.choice([None, {"initial": ["n1\tx\t0\t31"],
                               "stable": ["n1\tx\t1\t32"], "volatile": []}])
    return t, dumps


def _repetitive_text(rng):
    """A rendered `_random_trace`, then possibly mutated: lines inserted,
    lines cut, fields replaced and the line breaks swapped for other
    ones."""
    t, dumps = _random_trace(rng)
    lines = t.render(dumps).split("\n")
    for _ in range(rng.randint(0, 3)):
        if not lines:
            break   # deletions emptied it: no line is left to mutate
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
@example(seed=13121)    # two deletions empty the lines of an empty trace
def test_parse_matches_reference(seed):
    _assert_parses_like_reference(_repetitive_text(random.Random(seed)))


def _cut_corpus():
    """Each distinct (kind, or commit2 phase, detail key) pair of the
    reference scenarios' traces under both strategies, cut from the first
    line that has it: a list of (pair, text, line)."""
    corpus, seen = [], set()
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        for strategy in ("flatten", "nested"):
            res = Simulator(load_scenario(str(path)),
                            strategy=strategy).run()
            lines = res.trace_text().split("\n")
            for ev in res.trace.events:
                kind = ev.detail["phase"] if ev.kind == "commit2" \
                    else ev.kind
                for key in sorted(ev.detail):
                    if (kind, key) in seen:
                        continue
                    seen.add((kind, key))
                    fields = lines[ev.seq].split("\t")
                    fields[5] = " ".join(
                        tok for tok in fields[5].split(" ")
                        if tok.split("=", 1)[0] != key) or "-"
                    cut = lines[:ev.seq] + ["\t".join(fields)] \
                        + lines[ev.seq + 1:]
                    corpus.append(((kind, key), "\n".join(cut), ev.seq + 1))
    return corpus


def test_every_cut_detail_key_is_rejected_at_its_line():
    """A line that lost any one detail key has no schema shape: not only
    the keys an audit reads, but `val` and `inst` of a read, `parts` of a
    commit decision (which would match the abort decision's keys) and
    every key of a message event."""
    corpus = _cut_corpus()
    assert len(corpus) == 57
    accepted = []
    for pair, text, line in corpus:
        got = _outcome(trace.parse, text)
        assert got == _outcome(_reference_parse, text)
        if got[0] != "MalformedTrace" or got[2] != line:
            accepted.append((pair, got))
    assert accepted == []


_MUTATIONS = ("drop", "add", "repeat", "reorder", "txn", "obj", "int")


@st.composite
def _mutated_line(draw):
    """A rendered trace of schema events with one line mutated off its
    shape: (text, that line's number)."""
    events = draw(_events().filter(bool))
    t = trace.Trace()
    t.events = events
    lines = t.render().split("\n")
    at = draw(st.integers(0, len(events) - 1))
    ev = events[at]
    fields = lines[at].split("\t")
    toks = fields[5].split(" ")
    ints = [i for i, tok in enumerate(toks)
            if tok.split("=", 1)[0] in trace.INT_KEYS]
    op = draw(st.sampled_from([
        op for op in _MUTATIONS if (op != "reorder" or len(toks) > 1)
        and (op != "int" or ints)]))
    if op == "drop":
        del toks[draw(st.integers(0, len(toks) - 1))]
    elif op == "add":
        key = draw(st.sampled_from(["a", "inst", "mode", "node", "zz"])
                   .filter(lambda k: k not in ev.detail))
        toks.insert(draw(st.integers(0, len(toks))), key + "=1")
    elif op == "repeat":
        tok = draw(st.sampled_from(toks))
        toks.insert(draw(st.integers(0, len(toks))),
                    tok.split("=", 1)[0] + "=" + draw(_VALUES))
    elif op == "reorder":
        toks = draw(st.permutations(toks).filter(lambda p: p != toks))
    elif op == "txn":
        fields[3] = "-" if ev.txn is not None else "0"
    elif op == "obj":
        fields[4] = "-" if ev.obj is not None else "x"
    else:
        i = draw(st.sampled_from(ints))
        toks[i] = toks[i].split("=", 1)[0] + "=" + draw(st.sampled_from(
            ["x", "", "1.5", "0x1"] + ["-"] * (ev.kind != "begin")))
    fields[5] = " ".join(toks) or "-"
    lines[at] = "\t".join(fields)
    return "\n".join(lines), at + 1


@settings(max_examples=300, deadline=None)
@given(_mutated_line())
def test_a_line_mutated_off_its_shape_is_rejected_at_it(mutated):
    """Dropping, adding, repeating or reordering a key, `-` for a txn or
    obj the shape has or one it has not, or a non-integer `th` or
    `parent`: the parser and the reference both reject that line."""
    text, line = mutated
    got = _outcome(trace.parse, text)
    assert got == _outcome(_reference_parse, text)
    assert (got[0], got[2]) == ("MalformedTrace", line)


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
        lines.append("%d\t%d\tread\t%d\to%d\tinst=a th=%d val="
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
    path = ROOT / "scenarios" / "crash_recover.scn"
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
    t.now = 5000
    for _ in range(3):
        t.emit("grant", 7000, "acct_a", {"mode": "w"})
    events, _ = trace.parse(t.render())
    assert events[0].time is events[1].time is events[2].time
    assert events[0].txn is events[1].txn is events[2].txn
    assert events[0].obj is events[1].obj is events[2].obj
    assert len({id(ev.detail) for ev in events}) == 3


# --- the audits read the emitted events: parsing gives them back ---

def _assert_parses_to_emitted(text, events, dumps):
    """`text`, rendered from `events` and `dumps`, parses back to them,
    and event k has seq k: what an audit handed the emitted events in
    place of the parse of `text` relies on."""
    assert trace.parse(text) == (events, {} if dumps is None else dumps)
    assert all(ev.seq == i for i, ev in enumerate(events))


def _assert_as_parsed(events):
    """Each event's detail is what the parser builds from its line: every
    value a str, the keys in line (sorted) order."""
    for ev in events:
        assert list(ev.detail) == sorted(ev.detail), ev
        assert all(type(v) is str for v in ev.detail.values()), ev


def _assert_sweep_audits_parse_to_emitted(monkeypatch, scenario, **kw):
    """Every run that crash_sweep(scenario) audits emits its details as
    parsed, and its text parses back to the events and dump records the
    audit is handed in its place; returns the number of runs."""
    runs = []

    def check(text, all_nodes, emitted, state):
        _assert_as_parsed(emitted[0])
        _assert_parses_to_emitted(text, *emitted)
        runs.append(len(emitted[0]))
        return {"ok": True}

    with monkeypatch.context() as m:
        m.setattr(sweep.audit, "audit_trace", check)
        sweep.crash_sweep(scenario, **kw)
    assert all(runs)
    return len(runs)


def test_parse_gives_back_the_emitted_events(monkeypatch):
    """Over reference runs under every strategy and seed 0-4, every crash
    sweep fork of crash_recover.scn and of the crash_sweep workload,
    nested_seeds at seeds 0-4 and contended_2pc (the workloads at seed 1),
    each event the run emits has its detail as the parser builds it, and
    the run's text parses back to its emitted events and dump records."""
    paths = sorted((ROOT / "scenarios").glob("*.scn"))
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    nested = parse_scenario(workloads["nested_seeds"](1))
    runs = [Simulator(load_scenario(str(path)), seed=seed,
                      strategy=strategy).run()
            for path in paths for strategy in (None, "flatten", "nested")
            for seed in range(5)]
    runs += [Simulator(nested, seed=seed).run() for seed in range(5)]
    runs.append(Simulator(parse_scenario(workloads["contended_2pc"](1))).run())
    assert len(runs) == len(paths) * 15 + 6
    for res in runs:
        _assert_as_parsed(res.trace.events)
        _assert_parses_to_emitted(res.trace_text(), res.trace.events,
                                  res.dumps())
    crash_recover = load_scenario(str(ROOT / "scenarios" /
                                      "crash_recover.scn"))
    assert _assert_sweep_audits_parse_to_emitted(
        monkeypatch, crash_recover) == 76
    crash = parse_scenario(workloads["crash_sweep"](1))
    assert _assert_sweep_audits_parse_to_emitted(
        monkeypatch, crash, stride=workloads["CRASH_STRIDE"]) == 608


# --- every emit site builds its detail values as str ---

_FIXED_KEYS = {k for shape in trace.SCHEMA for k in shape.fixed}


def _survey_emits(monkeypatch, corpus):
    """Call `corpus()` with every emitted event surveyed; returns the
    indexes of the SCHEMA shapes the events have and the (kind, key,
    value) of each detail value that is not a str.  The survey is a test
    of the emit sites, so emitting costs nothing more in a run."""
    seen, odd = set(), []
    real = trace.Trace.emit

    def emit(self, kind, txn, obj, detail):
        odd.extend((kind, k, v) for k, v in detail.items()
                   if type(v) is not str)
        seen.add((kind, txn is not None, obj is not None,
                  tuple((k, v if k in _FIXED_KEYS else None)
                        for k, v in detail.items())))
        return real(self, kind, txn, obj, detail)

    with monkeypatch.context() as m:
        m.setattr(trace.Trace, "emit", emit)
        corpus()
    shapes = {i for kind, has_txn, has_obj, pairs in seen
              for i, s in enumerate(trace.SCHEMA)
              if (s.kind, s.txn, s.obj, s.keys) == (
                  kind, has_txn, has_obj, tuple(k for k, _ in pairs))
              and all(dict(pairs)[k] == v for k, v in s.fixed.items())}
    return shapes, odd


def _emit_corpus():
    """The reference scenarios under every strategy at seeds 0-4 and the
    crash sweeps of each at stride 3, 50 generated competitive scenarios
    and contended_2pc generated at seed 1."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        sc = load_scenario(str(path))
        for strategy in (None, "flatten", "nested"):
            for seed in range(5):
                Simulator(sc, seed=seed, strategy=strategy).run()
                sweep.crash_sweep(replace(sc, seed=seed,
                                          strategy=strategy or sc.strategy),
                                  stride=3)
    for seed in range(50):
        Simulator(random_competitive_scenario(seed)).run()
    Simulator(parse_scenario(workloads["contended_2pc"](1))).run()


def test_every_emitted_detail_value_is_a_str(monkeypatch):
    """Rendering type-checks only `th` and `parent`, and the audits read
    the emitted events, so every emit site must build its values as str:
    over a corpus that reaches every SCHEMA shape, each one does."""
    shapes, odd = _survey_emits(monkeypatch, _emit_corpus)
    assert odd == []
    assert shapes == set(range(len(trace.SCHEMA))) and len(shapes) == 26


def test_the_emit_survey_flags_a_value_that_is_not_a_str(monkeypatch):
    """A read that emits its `val` as an int renders (`val=100`), and the
    survey flags it."""
    def read(self, txn_id, name, inst, th):
        value = self.store.read_volatile(name)
        self.trace.emit("read", txn_id, name,
                        {"inst": inst, "th": th, "val": value})
        return value

    monkeypatch.setattr(TransactionManager, "read", read)
    sc = load_scenario(str(ROOT / "scenarios" / "flat_transfer.scn"))
    runs = []
    _shapes, odd = _survey_emits(
        monkeypatch, lambda: runs.append(Simulator(sc).run().trace_text()))
    assert "val=100\n" in runs[0]
    assert odd and all(kind == "read" and key == "val" and type(v) is int
                       for kind, key, v in odd)
    assert odd[0][2] == 100


def _two_events():
    t = trace.Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    t.emit("grant", 0, "x", {"mode": "w"})
    return t.render()


def _assert_parses_in_full(text, line, message):
    """`text` is rejected at `line`, as the reference rejects it."""
    with pytest.raises(MalformedTrace) as e:
        trace.parse(text)
    assert str(e.value) == "line %d: %s" % (line, message)
    assert e.value.line == line
    assert _outcome(trace.parse, text) == _outcome(_reference_parse, text)


READ = {"inst": "a", "th": "0", "val": "31"}
REGISTER = {"inst": "a", "node": "n1", "ok": "1", "role": "r", "th": "0"}


@pytest.mark.parametrize("events, line, message", [
    ([("grant", 0, "x", {})], 2, "grant event lacks detail key 'mode'"),
    ([("grant", 0, None, {"mode": "w"})], 2,
     "grant event needs a txn and an obj"),
    ([("crash", 0, None, {"node": "n1"})], 2,
     "crash event needs no txn and no obj"),
    ([("commit2", 0, None, {"parent": "x", "phase": "nested"})], 2,
     "non-integer parent 'x'"),
    ([("read", 0, "x", dict(READ, x="1"))], 2,
     "read event with unexpected detail key 'x'"),
    ([("register", None, None, dict(REGISTER, ok="True"))], 2,
     "register event with unknown ok 'True'"),
    ([("register", None, None, REGISTER),
      ("register", None, None, dict(REGISTER, ok="2"))], 3,
     "register event with unknown ok '2'"),
    ([("read", 0, "x", dict(READ, th="x"))], 2, "non-integer th 'x'"),
    ([("read", 0, "x", READ), ("read", 0, "x", dict(READ, th="x"))], 3,
     "non-integer th 'x'"),
    ([("read", 0, "x", dict(READ, th=0))], 2, "non-integer th 0"),
    ([("begin", 1, None, {"parent": 0})], 2, "non-integer parent 0"),
    ([("begin", 1, None, {"parent": "x"})], 2, "non-integer parent 'x'"),
    ([("commit2", 0, None, {"parent": "-", "phase": "nested"})], 2,
     "non-integer parent '-'"),
    ([("read", 0, "x", {"th": "0", "inst": "a", "val": "31"})], 2,
     "detail key 'inst' out of sorted order"),
    ([("nonsense", None, None, {})], 2, "unknown event kind 'nonsense'"),
], ids=["no_key", "no_obj", "a_txn", "parent_x", "unexpected_key", "ok_true",
        "second_of_a_shape", "th_x", "th_x_after_th_0", "th_int",
        "parent_int", "begin_parent_x", "nested_parent_dash",
        "keys_out_of_order", "unknown_kind"])
def test_rendering_an_event_of_no_shape_raises_at_its_line(events, line,
                                                           message):
    """Emitted events are checked against SCHEMA as they are rendered (the
    audits of a sweep run or `casim run` read them as emitted), as the
    parser checks a line: one of no shape, or with a value its shape rules
    out (an integer key's int among them, where a line holds a str),
    raises MalformedTrace at the line it would have, in a copy of a trace
    too."""
    t = trace.Trace()
    t.emit("begin", 0, None, {"parent": "-"})
    fork = t.copy()
    for trc in (t, fork):
        for kind, txn, obj, detail in events:
            trc.emit(kind, txn, obj, detail)
        with pytest.raises(MalformedTrace) as e:
            trc.render({})
        assert (e.value.line, str(e.value)) == (line, "line %d: %s"
                                                % (line, message))


def test_a_malformed_line_added_or_edited_names_its_own_line():
    """A rendered text with a line added, edited, moved or repeated is
    rejected at that line."""
    text = _two_events()
    for bad, message in [
            ("2\t0\tfrobnicate\t-\t-\t-", "unknown event kind 'frobnicate'"),
            ("2\t0\tgrant\t0\tx\t-", "grant event lacks detail key 'mode'"),
            ("5\t0\tabort\t0\t-\t-", "seq 5 out of order")]:
        _assert_parses_in_full("\n" + text + bad + "\n", 4, message)
    first, second = text.splitlines()
    for edited, message in [
            (second.replace("mode=w", "-"),
             "grant event lacks detail key 'mode'"),
            (second.replace("mode=w", "mode"), "bad detail token 'mode'"),
            (second.replace("grant", "grnt"), "unknown event kind 'grnt'"),
            (second.replace("\t0\tx", "\tx"),
             "expected 6 tab-separated fields")]:
        _assert_parses_in_full(first + "\n" + edited + "\n", 2, message)
    _assert_parses_in_full(second + "\n" + first + "\n", 1,
                           "seq 1 out of order")
    _assert_parses_in_full(first + "\n" + first + "\n", 2,
                           "seq 0 out of order")


def _variant(rng, lines):
    """`lines` with a few lines cut, swapped, repeated or replaced."""
    lines = list(lines)
    for _ in range(rng.randint(0, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.choice(["truncate", "delete", "swap", "repeat", "noise"])
        if op == "truncate":
            del lines[i:]
        elif op == "delete":
            del lines[i]
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "repeat":
            lines.insert(i, lines[rng.randrange(len(lines))])
        else:
            lines[i] = rng.choice(_NOISE)
    return "".join(ln + "\n" for ln in lines)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_recorded_parse_matches_reference(seed):
    """A rendered text parses to the events and dumps it was rendered
    from.  Its variants (lines cut, swapped, repeated or replaced) parse
    or raise exactly as the reference does."""
    rng = random.Random(seed)
    t, dumps = _random_trace(rng)
    text = t.render(dumps)
    _assert_parses_to_emitted(text, t.events, dumps)
    lines = text.splitlines()
    for _ in range(5):
        variant = _variant(rng, lines)
        assert _outcome(trace.parse, variant) == \
            _outcome(_reference_parse, variant)
