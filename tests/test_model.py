import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mutual_pair, three_cycle
from stablectl.errors import InvalidInstanceError, ParseError
from stablectl.generators import random_sm, random_sr
from stablectl.model import (
    delete_agents,
    delete_pairs,
    induce_with_added,
    make_sm,
    make_sr,
    pair,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
    validate,
)
from stablectl.reductions import make_graph, is_to_csr_addag_existssm

MINIMAL = """
problem: sr
agent a
agent b
pref a: b
pref b: a
"""


def test_parse_minimal_pair():
    inst = parse_instance(MINIMAL)
    assert inst.kind == "sr"
    assert inst.agents == {"a", "b"}
    assert inst.prefs == {"a": ("b",), "b": ("a",)}
    assert inst.acceptable_pairs == {pair("a", "b")}


def test_parse_rejects_asymmetric_lists():
    with pytest.raises(InvalidInstanceError) as err:
        parse_instance(MINIMAL.replace("pref b: a", "pref b:"))
    assert any("asymmetric" in v for v in err.value.violations)


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("problem: sr\nagent a\nnonsense here\npref a:\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("agent a\n", "problem"),
        ("problem: xx\n", "problem"),
        ("problem: sr\nagent a\nagent a\npref a:\n", "duplicate agent"),
        ("problem: sr\nagent a\npref a:\npref a:\n", "duplicate pref"),
        ("problem: sr\nagent a\n", "missing pref"),
        ("problem: sr\nagent a side=a\npref a:\n", "side"),
        ("problem: sm\nagent a\npref a:\n", "side"),
        ("problem: sr\npref a:\n", "undeclared"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_comments_and_blank_lines_are_ignored():
    text = "# header\n\nproblem: sr  # trailing\nagent a\nagent b\npref a: b\npref b: a\n"
    assert parse_instance(text) == mutual_pair()


def test_serialize_empty_instance():
    assert serialize_instance(make_sr({})) == "problem: sr\n"


def test_serialize_is_deterministic_and_orders_agents():
    inst = parse_instance(MINIMAL)
    assert serialize_instance(inst) == (
        "problem: sr\nagent a\nagent b\npref a: b\npref b: a\n"
    )


def test_sm_serialization_keeps_sides_and_addable():
    inst = make_sm(
        {"m": ["w"], "w": ["m"]},
        side={"m": "a", "w": "b"},
        addable=["w"],
    )
    text = serialize_instance(inst)
    assert "agent m side=a" in text
    assert "agent w side=b addable" in text
    assert parse_instance(text) == inst


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 9), density=st.sampled_from([0.2, 0.6, 1.0]))
def test_roundtrip_random_sr(seed, n, density):
    inst = random_sr(n, density, seed)
    assert parse_instance(serialize_instance(inst)) == inst


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), na=st.integers(0, 5), nb=st.integers(0, 5))
def test_roundtrip_random_sm(seed, na, nb):
    inst = random_sm(na, nb, 0.7, seed)
    assert parse_instance(serialize_instance(inst)) == inst


def test_validate_accepts_mutual_pair():
    assert validate(mutual_pair()) == []


def test_validate_flags_symmetry_violation():
    inst = make_sr({"u": ["v"], "v": []})
    violations = validate(inst)
    assert len(violations) == 1 and "u" in violations[0] and "v" in violations[0]


def test_validate_flags_same_side_preference():
    inst = make_sm(
        {"m1": ["m2"], "m2": ["m1"], "w": []},
        side={"m1": "a", "m2": "a", "w": "b"},
    )
    assert any("same-side" in v for v in validate(inst))


def test_validate_flags_self_listing_and_duplicates():
    inst = make_sr({"u": ["u", "v", "v"], "v": ["u"]})
    messages = " ".join(validate(inst))
    assert "lists itself" in messages and "duplicate" in messages


def test_validate_rejects_identifiers_that_break_the_format():
    for bad in ("a>b", "a#b", "a b", "a:b", "a,b"):
        inst = make_sr({bad: ["x"], "x": [bad]})
        assert any("identifier" in v for v in validate(inst)), bad


def test_delete_agents_restricts_lists():
    reduced = delete_agents(three_cycle(), {"c"})
    assert reduced == make_sr({"a": ["b"], "b": ["a"]})


def test_delete_agents_empty_set_is_identity():
    inst = three_cycle()
    assert delete_agents(inst, set()) == inst


def test_delete_agents_can_isolate():
    reduced = delete_agents(mutual_pair(), {"a"})
    assert reduced == make_sr({"b": []})


def test_delete_agents_unknown_agent_raises():
    with pytest.raises(ValueError):
        delete_agents(mutual_pair(), {"zz"})


def test_delete_pairs_removes_both_directions():
    reduced = delete_pairs(three_cycle(), {pair("b", "c")})
    assert reduced == make_sr({"a": ["b", "c"], "b": ["a"], "c": ["a"]})


def test_delete_pairs_rejects_unacceptable_pair():
    with pytest.raises(ValueError):
        delete_pairs(mutual_pair(), {pair("a", "zz")})


def test_delete_pairs_can_empty_all_lists():
    reduced = delete_pairs(mutual_pair(), {pair("a", "b")})
    assert reduced == make_sr({"a": [], "b": []})


def test_induce_with_added():
    inst = make_sr({"a": ["b", "x"], "b": ["a"], "x": ["a"]}, addable=["x"])
    without = induce_with_added(inst, set())
    assert without == make_sr({"a": ["b"], "b": ["a"]})
    everything = induce_with_added(inst, {"x"})
    assert everything.agents == {"a", "b", "x"}
    assert everything.addable == frozenset()
    with pytest.raises(ValueError):
        induce_with_added(inst, {"b"})


def test_induce_on_reduction_gadget():
    gadget = is_to_csr_addag_existssm(make_graph(["v"], []), 1).query.instance
    assert gadget.agents == {"v", "s_1", "ai_1", "bi_1"}
    induced = induce_with_added(gadget, {"v"})
    assert induced.agents == gadget.agents and induced.addable == frozenset()


def test_deletions_commute_on_surviving_pairs():
    inst = three_cycle()
    a_then_p = delete_pairs(delete_agents(inst, {"c"}), set())
    p_then_a = delete_agents(delete_pairs(inst, {pair("b", "c")}), {"c"})
    assert a_then_p == p_then_a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_delete_agents_preserves_validity(seed):
    import random

    rng = random.Random(seed)
    inst = random_sr(rng.randint(0, 8), 0.7, seed)
    victims = {u for u in sorted(inst.agents) if rng.random() < 0.4}
    assert validate(delete_agents(inst, victims)) == []


def test_matching_file_roundtrip():
    m = frozenset({pair("a", "b"), pair("c", "d")})
    text = serialize_matching(m)
    assert text == "match a b\nmatch c d\n"
    assert parse_matching(text) == m
    assert parse_matching("") == frozenset()


def test_matching_file_rejects_bad_lines():
    with pytest.raises(ParseError):
        parse_matching("match a\n")
    with pytest.raises(ParseError):
        parse_matching("match a a\n")


@pytest.mark.parametrize(
    "line", ["pref a: b > > c", "pref a: b >", "pref a: > b", "pref a: b >  > c"]
)
def test_parse_rejects_empty_preference_entries(line):
    text = "problem: sr\nagent a\nagent b\nagent c\n" + line + "\npref b: a\npref c: a\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text, check=False)
    assert err.value.line == 5
    assert "empty preference entry" in str(err.value)


def test_parse_accepts_an_empty_list():
    inst = parse_instance("problem: sr\nagent a\npref a:\n")
    assert inst.prefs == {"a": ()}


def test_is_acceptable_pair_agrees_with_the_pair_set():
    for seed in range(20):
        inst = random_sr(7, 0.5, seed)
        agents = sorted(inst.agents)
        for u in agents:
            for v in agents:
                p = frozenset((u, v))
                assert inst.is_acceptable_pair(p) == (p in inst.acceptable_pairs)
    inst = mutual_pair()
    assert inst.is_acceptable_pair(pair("a", "b"))
    assert not inst.is_acceptable_pair(("a", "b"))
    assert not inst.is_acceptable_pair(frozenset({"a"}))
    assert not inst.is_acceptable_pair(pair("a", "zz"))


def test_delete_pairs_names_the_unknown_pairs():
    with pytest.raises(ValueError) as err:
        delete_pairs(mutual_pair(), {pair("a", "b"), pair("a", "zz")})
    assert str(err.value) == f"unknown acceptable pairs: {frozenset({'a', 'zz'})}"
