from pathlib import Path

import pytest

from casim.errors import ValidationError
from casim.scenario import parse_scenario

from conftest import TRANSFER


def test_parse_full_scenario():
    sc = parse_scenario(TRANSFER)
    assert sc.nodes == ["alpha", "beta"]
    assert [o[0] for o in sc.objects] == ["acct_a", "acct_b"]
    assert set(sc.defs) == {"transfer"}
    d = sc.defs["transfer"]
    assert set(d.roles) == {"debit", "credit"}
    assert d.footprint == ["acct_a", "acct_b"]
    assert len(d.tests) == 1
    assert len(sc.clients) == 2
    assert sc.seed == 3 and sc.horizon == 500


def test_comments_and_blank_lines_ignored():
    sc = parse_scenario("# a comment\n\nnode n1\nobject x n1 0\n")
    assert sc.nodes == ["n1"]


def test_readme_scenario_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("## Scenario files", 1)[1].split("```")[1]
    sc = parse_scenario(example)
    assert set(sc.defs) == {"review", "cleanup", "transfer"}
    assert sc.defs["transfer"].order == [("review", "cleanup")]
    assert len(sc.clients) == 2 and len(sc.faults) == 2


def test_action_key_suffix():
    sc = parse_scenario("""
node n1
object x n1 0
action bump
  footprint x
  role w
    write x x + 1
end
client a n1 0 bump#left w
client b n1 0 bump#right w
""")
    assert sc.clients[0].action_key == "bump#left"
    assert sc.clients[0].defname == "bump"


@pytest.mark.parametrize("text,fragment", [
    ("node n1\nnode n1\n", "duplicate node"),
    ("node n1\nobject x n2 0\n", "unknown node"),
    ("node n1\nobject x n1 0\nobject x n1 1\n", "duplicate object"),
    ("bogus directive\n", "unknown directive"),
    ("node n1\nobject x n1 z\n", "integer"),
    ("fault someday 3 crash n1\n", "usage: fault"),
    ("node n1\nfault at 3 crash n2\n", "unknown node"),
    ("role r\n", "outside action"),
    ("end\n", "without action"),
    ("node n1\nobject x n1 0\naction a\n  footprint x zz\n  role r\n"
     "    read x\n    exit\nend\n", "footprint names unknown object zz"),
    ("node n1\nfault at -3 crash n1\n", "line 2: negative fault position"),
    ("node n1\nfault index -1 crash n1\n",
     "line 2: negative fault position"),
    ("action p\n  order b < c\n  order b < c\n", "line 3: duplicate order"),
    ("node\n", "line 1: usage: node NAME"),
    ("object x n1\n", "line 1: usage: object NAME NODE VALUE"),
    ("action a\naction b\n", "line 2: nested `action` block"),
    ("action\n", "line 1: usage: action NAME"),
    ("action a mode=odd\n", "line 1: unknown mode 'odd'"),
    ("action a fast\n", "line 1: unknown action option 'fast'"),
    ("footprint x\n", "line 1: `footprint` outside action block"),
    ("action a\n  role\n", "line 2: usage: role NAME"),
    ("action a\n  role r\n  role r\n", "line 3: duplicate role r"),
    ("action a\n  test t\n", "line 2: usage: test NAME EXPR"),
    ("action a\n  test t x +\n", "line 2: bad expression"),
    ("action a\n  order b c\n", "line 2: usage: order A < B"),
    ("action a\n  role r\n    exit\nend\naction a\n  role r\n    exit\n"
     "end\n", "line 8: duplicate action a"),
    ("client c n1 0 a\n", "line 1: usage: client NAME NODE TIME ACTION ROLE"),
    ("strategy sideways\n", "line 1: usage: strategy flatten|nested"),
    ("action a\n  role r\n    read\n", "line 3: usage: read OBJECT"),
    ("action a\n  role r\n    write x\n", "line 3: usage: write OBJECT EXPR"),
    ("action a\n  role r\n    write x x +\n", "line 3: bad expression"),
    ("action a\n  role r\n    sync s\n",
     "line 3: usage: sync SIGNAL emit|await"),
    ("action a\n  role r\n    enter b\n", "line 3: usage: enter ACTION ROLE"),
    ("action a\n  role r\n    jump\n", "line 3: unknown step 'jump'"),
])
def test_rejections(text, fragment):
    with pytest.raises(ValidationError) as e:
        parse_scenario(text)
    assert fragment in str(e.value)


ONE_ACTION = ("node n1\nobject x n1 0\naction a\n  footprint x\n  role r\n"
              "    read x\n    exit\nend\nclient ok n1 0 a r\n")


@pytest.mark.parametrize("text, line, message", [
    ("node n1\nnode n2\nnode n1\n", 3, "duplicate node n1"),
    ("node n1\nobject x n2 0\n", 2, "object x homed at unknown node n2"),
    ("node n1\nobject x n1 0\nobject y n1 0\nobject x n1 1\n", 4,
     "duplicate object x"),
    ("node n1\nobject x n1 0\naction a\n  footprint x\n  footprint zz\n"
     "  role r\n    read x\n    exit\nend\n", 5,
     "action a: footprint names unknown object zz"),
    (ONE_ACTION + "client c n2 0 a#k r\n", 10, "client c at unknown node n2"),
    (ONE_ACTION + "client c n1 0 b r\n", 10,
     "client c submits unknown action b"),
    (ONE_ACTION + "client c n1 0 a#k s\n", 10,
     "client c: action a has no role s"),
    (ONE_ACTION + "fault at 3 crash n1\nfault at 5 crash n2\n", 11,
     "fault targets unknown node n2"),
    ("node n1\nfault at 50 crash n1\nhorizon 10\n", 2,
     "fault at time 50 beyond horizon 10"),
], ids=["duplicate_node", "object_node", "duplicate_object", "footprint", "client_node",
        "client_action", "client_role", "fault_node", "fault_horizon"])
def test_whole_scenario_checks_name_the_line(text, line, message):
    """Checks that run after the whole file is read still point at the
    declaring line."""
    with pytest.raises(ValidationError) as e:
        parse_scenario(text)
    assert e.value.line == line
    assert str(e.value) == "line %d: %s" % (line, message)


def test_error_carries_line_number():
    with pytest.raises(ValidationError) as e:
        parse_scenario("node n1\nobject x n1 oops\n")
    assert e.value.line == 2


def test_unterminated_action_block():
    with pytest.raises(ValidationError):
        parse_scenario("node n1\nobject x n1 0\naction a\n  footprint x\n")


def test_client_role_must_exist():
    with pytest.raises(ValidationError) as e:
        parse_scenario("""
node n1
object x n1 0
action a
  footprint x
  role r
    read x
end
client c n1 0 a nosuchrole
""")
    assert "no role" in str(e.value)


def test_fault_beyond_horizon_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("node n1\nhorizon 10\nfault at 50 crash n1\n")


def test_step_validation_inside_role():
    with pytest.raises(ValidationError) as e:
        parse_scenario("""
node n1
object x n1 0
action a
  footprint x
  role r
    read y
end
""")
    assert "unknown object" in str(e.value)
