import pytest
from hypothesis import given, settings, strategies as st

from casim import trace
from casim.errors import MalformedTrace


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
    assert trace.parse(t.render()) == (events, {})
