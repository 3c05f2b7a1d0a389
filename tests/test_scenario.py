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
])
def test_rejections(text, fragment):
    with pytest.raises(ValidationError) as e:
        parse_scenario(text)
    assert fragment in str(e.value)


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
