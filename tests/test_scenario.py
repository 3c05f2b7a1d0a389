import dataclasses
from pathlib import Path

import pytest

from casim.errors import CyclicConstraint, ModeViolation, ValidationError
from casim.scenario import parse_scenario

from conftest import (BAD_NAME, COMMA_IN_OBJECT, DASH_NODE, DASH_OBJECT,
                      order_chain,
                      NEGATIVE_DEADLINE, TRANSFER)


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
    # blanks are any run of whitespace; a comment may be indented
    sc = parse_scenario("node n1\nobject x n1 0\n \t\naction a\n"
                        "  footprint x\n  role r\n    write x x + 1\n"
                        "   # comment\n\twrite  x x\t+ 1  \n    exit\nend\n")
    first, second, _exit = sc.defs["a"].roles["r"].steps
    assert first is second and first.expr.text == "x + 1"


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
    ("node n1\nhorizon -1\n", "line 2: negative horizon -1"),
    ("node n1\nclient c n1 -5 a r\n", "line 2: negative client time -5"),
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
    # a repeated bad line or expression is reported at its first line
    ("action a\n  role r\n    write x x +\n    write x x +\n",
     "line 3: bad expression"),
    ("action a\n  role r\n    write x x +\n  test t x +\n",
     "line 3: bad expression"),
    ("action a\n  role r\n    sync s\n",
     "line 3: usage: sync SIGNAL emit|await"),
    ("action a\n  role r\n    enter b\n", "line 3: usage: enter ACTION ROLE"),
    ("action a\n  role r\n    jump\n", "line 3: unknown step 'jump'"),
    (COMMA_IN_OBJECT, "line 2: 'x,y': " + BAD_NAME),
    (DASH_OBJECT, "line 2: '-': " + BAD_NAME),
    (DASH_NODE, "line 2: '-': " + BAD_NAME),
    (NEGATIVE_DEADLINE, "line 2: negative deadline -3"),
])
def test_rejections(text, fragment):
    with pytest.raises(ValidationError) as e:
        parse_scenario(text)
    assert fragment in str(e.value)


# the step and expression lines of action a repeat in action b
SHARED_STEP = """node n1
object x n1 0
object y n1 0
action a
  footprint x
  role r
    write x x + 1
    exit
  test t x + 1 > 0
end
action b
  footprint x y
  role s
    write x x + 1
    write y x + 1
    exit
  test t x + 1 > 0
end
"""


def test_one_object_per_distinct_step_line_and_expression():
    sc = parse_scenario(SHARED_STEP)
    a, b = sc.defs["a"], sc.defs["b"]
    (write_a, exit_a), (write_bx, write_by, exit_b) = (
        a.roles["r"].steps, b.roles["s"].steps)
    assert write_a is write_bx and exit_a is exit_b
    assert write_by is not write_bx and write_by.expr is write_bx.expr
    assert a.tests[0].expr is b.tests[0].expr
    # the test's text differs from the writes' text
    assert a.tests[0].expr is not write_a.expr
    with pytest.raises(dataclasses.FrozenInstanceError):
        write_a.obj = "y"
    again = parse_scenario(SHARED_STEP)
    assert again.defs["a"].roles["r"].steps[0] is not write_a
    assert again.defs["a"].tests[0].expr is not a.tests[0].expr
    assert repr(again) == repr(sc)


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
    # one Step serves lines 7 and 12; only action b's footprint lacks x
    ("node n1\nobject x n1 0\nobject y n1 0\n"
     "action a\n  footprint x\n  role r\n    write x x + 1\nend\n"
     "action b\n  footprint y\n  role s\n    write x x + 1\nend\n", 12,
     "action b role s step 0: write to x outside declared footprint"),
], ids=["duplicate_node", "object_node", "duplicate_object", "footprint", "client_node",
        "client_action", "client_role", "fault_node", "fault_horizon",
        "shared_step_footprint"])
def test_whole_scenario_checks_name_the_line(text, line, message):
    """Checks that run after the whole file is read still point at the
    declaring line."""
    with pytest.raises(ValidationError) as e:
        parse_scenario(text)
    assert e.value.line == line
    assert str(e.value) == "line %d: %s" % (line, message)


# lines 1-20 define `one` (one role), `two` (two roles) and `far` (footprint
# y); action `a` opens on line 21 and its body starts on line 23
NESTABLE = ("node n1\nobject x n1 0\nobject y n1 0\n"
            "action one\n  footprint x\n  role c\n    exit\nend\n"
            "action two\n  footprint x\n  role c\n    exit\n  role d\n"
            "    exit\nend\n"
            "action far\n  footprint y\n  role c\n    exit\nend\n")
ROLE_R = "  role r\n    exit\n"
ROLES_RS = "  role r\n    exit\n  role s\n    exit\n"


@pytest.mark.parametrize("options, body, line, error, message", [
    ("", "", 21, ValidationError, "action a has no roles"),
    ("", ROLE_R + "  nested ghost\n", 25, ValidationError,
     "action a nests unknown action ghost"),
    ("", ROLE_R + "  nested one two\n", 25, ValidationError,
     "action a: nested two has more roles than its parent"),
    ("", ROLE_R + "  nested one\n  nested far\n", 26, ValidationError,
     "action a: nested far footprint exceeds parent footprint"),
    (" mode=flat", ROLE_R + "  nested one\n", 25, ModeViolation,
     "action a: mode=flat forbids nesting"),
    (" mode=nested_same_kind", ROLES_RS + "  nested two\n  nested one\n", 28,
     ModeViolation,
     "action a: mixed-kind nesting of one under mode=nested_same_kind"),
    ("", ROLE_R + "  nested one\n  order one < far\n", 26, ValidationError,
     "action a: ordering constraint names far, which is not nested here"),
    ("", ROLES_RS + "  nested one two\n  order one < two\n  order two < one\n",
     29, CyclicConstraint, "action a: ordering constraints are cyclic at one"),
    ("", ROLE_R + "  test t x == 0\n  test u y == 0\n", 26, ValidationError,
     "action a: test u names y, outside the footprint"),
    ("", "  role r\n    read x\n    write y 1\n", 25, ValidationError,
     "action a role r step 1: write to y outside declared footprint"),
    ("", ROLE_R + "  role s\n    read ghost\n", 26, ValidationError,
     "action a role s step 0: unknown object ghost"),
    ("", "  role r\n    exit\n    enter one c\n", 25, ValidationError,
     "action a role r step 1: enters one, which is not declared nested"),
    ("", "  role r\n    enter one z\n  nested one\n", 24, ValidationError,
     "action a role r step 0: unknown role z of one"),
], ids=["no_roles", "nested_unknown", "nested_roles", "nested_footprint",
        "flat_nesting", "mixed_kind", "order_not_nested", "order_cycle",
        "test_footprint", "step_write", "step_object", "step_enter",
        "step_role"])
def test_definition_checks_name_the_line(options, body, line, error,
                                         message):
    """Each check of `validate_defs` points at the declaration it is
    about: the action header, a nested, order or test line, or a step."""
    with pytest.raises(error) as e:
        parse_scenario(NESTABLE + "action a%s\n  footprint x\n%send\n"
                       % (options, body))
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


def test_a_long_order_chain_is_accepted_and_its_closing_cycle_named():
    """A chain of 1,200 ordering constraints raised RecursionError in the
    depth-first check; closing it is rejected at the closing line."""
    sc = parse_scenario(order_chain(1200))
    assert len(sc.defs["top"].order) == 1199
    text = order_chain(1200, closed=True)
    with pytest.raises(CyclicConstraint) as e:
        parse_scenario(text)
    assert str(e.value) == ("line %d: action top: ordering constraints are "
                            "cyclic at c0" % len(text.split("\n")[:-4]))
    assert text.split("\n")[e.value.line - 1] == "  order c1199 < c0"


def test_a_four_cycle_is_named_where_the_search_comes_back():
    text = order_chain(4).replace("  order c2 < c3\n",
                                  "  order c2 < c3\n  order c3 < c1\n")
    with pytest.raises(CyclicConstraint) as e:
        parse_scenario(text)
    assert "action top: ordering constraints are cyclic at c1" in str(e.value)
    assert text.split("\n")[e.value.line - 1] == "  order c3 < c1"
