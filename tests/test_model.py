import copy
import dataclasses
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mutual_pair, three_cycle, two_by_two_sm
from stablectl.control import DELETE_AGENTS, ControlGoal, ControlQuery
from stablectl.classic import fixing_deletions
from stablectl import model
from stablectl.errors import InternalError, InvalidInstanceError, ParseError
from stablectl.generators import random_sm, random_sr
from stablectl.model import (
    delete_agents,
    delete_pairs,
    ID_RE,
    induce_with_added,
    RoommatesInstance,
    make_instance,
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


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("agent a side=b side=a", "agent a has more than one side label"),
        ("agent a side=a side=a", "agent a has more than one side label"),
        ("agent a side=a addable addable", "agent a repeats 'addable'"),
        ("agent a addable side=a addable", "agent a repeats 'addable'"),
    ],
)
def test_parse_rejects_a_repeated_agent_attribute(line, fragment):
    text = f"problem: sm\n{line}\nagent b side=b\npref a: b\npref b: a\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value) and err.value.line == 2


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


@pytest.mark.parametrize(
    "kind,prefs,side,addable,expected",
    [
        (
            "xx",
            {"a": ["a", "b", "z"], "b": ["a"], "c": ["d", "d"], "d": [], "e:x": []},
            {"a": "a"},
            ["a", "q"],
            [
                "unknown problem kind 'xx'",
                "invalid agent identifier 'e:x'",
                "agent a lists itself",
                "agent a lists unknown agent z",
                "agent c has duplicate preference entries",
                "asymmetric acceptability between c and d",
                "side labels are only allowed on sm instances",
                "addable agent q is not part of the instance",
            ],
        ),
        (
            "sm",
            {"m1": ["w1", "m2", "w9"], "m2": ["m1"], "w1": ["m1", "w2"], "w2": [], "x": []},
            {"m1": "a", "m2": "a", "w1": "b", "w2": "c"},
            ["zz"],
            [
                "agent m1 lists unknown agent w9",
                "asymmetric acceptability between w1 and w2",
                "agent w2 has no valid side label",
                "agent x has no valid side label",
                "same-side preference entry m2 on list of m1",
                "same-side preference entry m1 on list of m2",
                "addable agent zz is not part of the instance",
            ],
        ),
        (
            "sr",
            {"a": ["b"], "b": []},
            {"a": "a"},
            [],
            [
                "asymmetric acceptability between a and b",
                "side labels are only allowed on sm instances",
            ],
        ),
    ],
)
def test_validate_reports_every_category_in_order(kind, prefs, side, addable, expected):
    assert validate(make_instance(kind, prefs, side=side, addable=addable)) == expected


def reference_validate(inst):
    """The multi-loop ``validate`` that the one-walk version replaced."""
    out = []
    if inst.kind not in ("sr", "sm"):
        out.append(f"unknown problem kind {inst.kind!r}")
    for u in sorted(inst.agents):
        if not ID_RE.match(u):
            out.append(f"invalid agent identifier {u!r}")
    for u in sorted(set(inst.prefs) & set(inst.agents)):
        lst = inst.prefs[u]
        if u in lst:
            out.append(f"agent {u} lists itself")
        if len(set(lst)) != len(lst):
            out.append(f"agent {u} has duplicate preference entries")
        for v in lst:
            if v not in inst.agents:
                out.append(f"agent {u} lists unknown agent {v}")
    seen = set()
    for u in sorted(set(inst.prefs) & set(inst.agents)):
        for v in inst.prefs[u]:
            if v not in inst.agents or frozenset((u, v)) in seen:
                continue
            seen.add(frozenset((u, v)))
            if u not in inst.prefs.get(v, ()):
                out.append(f"asymmetric acceptability between {u} and {v}")
    if inst.kind == "sm":
        for u in sorted(inst.agents):
            s = inst.side.get(u)
            if s not in ("a", "b"):
                out.append(f"agent {u} has no valid side label")
        for u in sorted(set(inst.prefs) & set(inst.agents)):
            for v in inst.prefs[u]:
                if v in inst.agents and inst.side.get(u) == inst.side.get(v):
                    out.append(f"same-side preference entry {v} on list of {u}")
    elif inst.side:
        out.append("side labels are only allowed on sm instances")
    for u in sorted(inst.addable - inst.agents):
        out.append(f"addable agent {u} is not part of the instance")
    return out


def corrupted_instance(rng: random.Random, most: int = 12):
    """A seeded SR or SM market, complete or sparse, with a few random corruptions.

    An SR market has at most ``most`` agents, and each side of an SM
    market at most half as many.
    """
    complete = rng.random() < 0.3
    density = 1.0 if complete else rng.choice([0.2, 0.5, 0.8])
    if rng.random() < 0.5:
        base = random_sr(rng.randint(0, most), density, rng.randrange(10**6))
    else:
        base = random_sm(rng.randint(0, most // 2), rng.randint(0, most // 2), density, rng.randrange(10**6))
    kind, side, addable = base.kind, dict(base.side), set()
    prefs = {u: list(lst) for u, lst in base.prefs.items()}
    for _ in range(rng.randint(0, 4)):
        agents = sorted(prefs)
        u = rng.choice(agents) if agents else None
        move = rng.randrange(10)
        if u is None or move == 0:
            kind = rng.choice(["xx", "SR", ""])
        elif move == 1:  # self-insertion
            prefs[u].insert(rng.randint(0, len(prefs[u])), u)
        elif move == 2 and prefs[u]:  # duplicate entry
            prefs[u].insert(rng.randint(0, len(prefs[u])), rng.choice(prefs[u]))
        elif move == 3:  # unknown entry
            prefs[u].insert(rng.randint(0, len(prefs[u])), f"ghost{rng.randrange(3)}")
        elif move == 4 and prefs[u]:  # dropped back-entry
            v = rng.choice(prefs[u])
            if v in prefs and u in prefs[v]:
                prefs[v].remove(u)
        elif move == 5:  # side flip, also on an sr market
            side[u] = {"a": "b", "b": "a"}.get(side.get(u), "a")
        elif move == 6:  # side removal or a label that is not a side
            if rng.random() < 0.5:
                side.pop(u, None)
            else:
                side[u] = "c"
        elif move == 7:  # bad identifier, renamed everywhere
            bad = rng.choice(["a b", "x:y", "p>q", "h#", "c,d"])
            if bad not in prefs:
                prefs[bad] = prefs.pop(u)
                prefs = {w: [bad if v == u else v for v in lst] for w, lst in prefs.items()}
                if u in side:
                    side[bad] = side.pop(u)
        elif move == 8:  # stray addable agent, next to a legitimate one
            addable |= {f"stray{rng.randrange(3)}", u}
        elif move == 9 and len(agents) > 1:  # one-sided new entry
            v = rng.choice(agents)
            if v != u and v not in prefs[u]:
                prefs[u].append(v)
    return make_instance(kind, prefs, side=side, addable=addable)


def test_validate_matches_the_multi_loop_reference():
    rng = random.Random(20261018)
    corpus = [corrupted_instance(rng) for _ in range(2400)]
    flagged = 0
    for inst in corpus:
        expected = reference_validate(inst)
        assert validate(inst) == expected, (inst, expected)
        flagged += bool(expected)
    assert 1000 < flagged < len(corpus)


def instance_text(inst):
    """``inst`` in the file format, also when it breaks a rule that the parser enforces."""
    lines = [f"problem: {inst.kind}"]
    for u in sorted(inst.agents | inst.addable):
        side = f" side={inst.side[u]}" if u in inst.side else ""
        lines.append(f"agent {u}{side}{' addable' if u in inst.addable else ''}")
    lines += [f"pref {u}: {' > '.join(inst.prefs[u])}" for u in sorted(inst.agents)]
    return "\n".join(lines) + "\n"


def same_side_market(rng: random.Random):
    """A seeded SM market with a few same-side entries, some listed back and some not."""
    base = random_sm(rng.randint(1, 6), rng.randint(1, 6), rng.choice([0.3, 0.7, 1.0]), rng.randrange(10**6))
    prefs = {u: list(lst) for u, lst in base.prefs.items()}
    for _ in range(rng.randint(1, 3)):
        u = rng.choice(sorted(prefs))
        mates = sorted(v for v in prefs if v != u and base.side[v] == base.side[u] and v not in prefs[u])
        if mates:
            v = rng.choice(mates)
            prefs[u].insert(rng.randint(0, len(prefs[u])), v)
            if rng.random() < 0.6:  # mutual, so only the side rule breaks
                prefs[v].insert(rng.randint(0, len(prefs[v])), u)
    return make_sm(prefs, side=base.side, addable=base.addable)


# SHA-256 over every ParseError message that the corpus of
# ``test_parse_decides_validity_as_validate_does`` raises; any change to a
# message, its line number or which texts fail to parse changes it.
PARSE_ERROR_DIGEST = "352a18bc6bcc07a5bfc11bb10fd458f9f9144dce545bb3627aa46b6bfc1a2bc2"
PARSER_RULES = (
    "unknown problem kind",
    "invalid agent identifier",
    "has no valid side label",
    "side labels are only allowed",
    "is not part of the instance",
)


def test_parse_decides_validity_as_validate_does():
    rng = random.Random(20261019)
    corpus = [corrupted_instance(rng) for _ in range(2400)] + [same_side_market(rng) for _ in range(1000)]
    digest, outcomes = hashlib.sha256(), {"parse": 0, "invalid": 0, "side": 0, "valid": 0}
    for inst in corpus:
        violations = validate(inst)
        try:
            parsed = parse_instance(instance_text(inst))
        except ParseError as exc:
            assert any(rule in v for v in violations for rule in PARSER_RULES), (inst, exc)
            digest.update(f"{exc}\n".encode())
            outcomes["parse"] += 1
        except InvalidInstanceError as exc:
            assert exc.violations == violations != [], inst
            outcomes["side" if all(v.startswith("same-side") for v in violations) else "invalid"] += 1
        else:
            assert violations == [] and parsed == inst and "core" in vars(parsed), inst
            outcomes["valid"] += 1
    assert digest.hexdigest() == PARSE_ERROR_DIGEST
    assert len(corpus) - outcomes["parse"] >= 2000
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize(
    "prefs",
    [{"a": ["b"], "b": []}, {"a": ["a"]}, {"a": ["b", "b"], "b": ["a"]}, {"a": ["x"]}],
)
def test_a_list_rule_that_validate_does_not_see_is_an_internal_error(monkeypatch, prefs):
    monkeypatch.setattr(model, "validate", lambda inst: [])
    inst = make_sr(prefs)
    with pytest.raises(InternalError, match="validate accepts"):
        inst.core
    with pytest.raises(InternalError, match="validate accepts"):
        parse_instance(instance_text(inst))


def test_a_side_rule_that_validate_does_not_see_is_an_internal_error(monkeypatch):
    inst = make_sm({"m": ["n"], "n": ["m"], "w": []}, side={"m": "a", "n": "a", "w": "b"})
    with pytest.raises(InvalidInstanceError) as err:
        parse_instance(instance_text(inst))
    assert err.value.violations == [
        "same-side preference entry n on list of m",
        "same-side preference entry m on list of n",
    ]
    monkeypatch.setattr(model, "validate", lambda inst: [])
    with pytest.raises(InternalError, match="validate accepts"):
        parse_instance(instance_text(inst))


def test_agents_are_the_keys_of_the_preference_lists():
    with pytest.raises(TypeError):
        RoommatesInstance(kind="sr", agents=frozenset(), prefs={})
    inst = random_sm(4, 3, 0.8, 2)
    derived = [
        inst,
        make_sr({"a": ["b"], "b": ["a"], "c": []}, addable=["c"]),
        parse_instance(serialize_instance(inst)),
        delete_agents(inst, ["m00"]),
        delete_pairs(inst, sorted(inst.acceptable_pairs, key=sorted)[:2]),
        induce_with_added(make_sr({"a": ["b"], "b": ["a"], "c": []}, addable=["c"]), []),
        fixing_deletions(random_sr(8, 1.0, 4), "u00", "u01").reduced,
        pickle.loads(pickle.dumps(inst)),
        dataclasses.replace(inst, prefs={"z": ()}),
    ]
    for d in derived:
        assert d.agents == frozenset(d.prefs)


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
        parse_instance(text)
    assert err.value.line == 5
    assert "empty preference entry" in str(err.value)


@pytest.mark.parametrize(
    "line,token",
    [
        ("pref a: b > c:d > c", "c:d"),
        ("pref a: b > c > x,y", "x,y"),
        ("pref a: b > b c > c:d", "b c"),
    ],
)
def test_parse_names_the_first_bad_preference_entry(line, token):
    text = "problem: sr\nagent a\nagent b\nagent c\n" + line + "\npref b: a\npref c: a\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 5
    assert str(err.value) == f"line 5: invalid identifier {token!r}"


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
    # Neither a triple holding an acceptable pair nor a two-letter string
    # naming one is a pair.
    triple = frozenset({"a", "b", "c"})
    with pytest.raises(ValueError) as err:
        delete_pairs(mutual_pair(), {pair("a", "b"), triple, "ab"})
    assert str(err.value) == f"unknown acceptable pairs: ab {triple}"


def test_delete_pairs_accepts_exactly_the_acceptable_pairs():
    for seed in range(10):
        inst = random_sr(6, 0.5, seed) if seed % 2 else random_sm(3, 3, 0.6, seed)
        agents = sorted(inst.agents) + ["zz"]
        candidates = [frozenset((u, v)) for u in agents for v in agents]
        candidates += [tuple(agents[:2]), frozenset(agents[:3]), agents[0] + agents[1]]
        for p in candidates:
            if inst.is_acceptable_pair(p):
                assert p not in delete_pairs(inst, [p]).acceptable_pairs
            else:
                with pytest.raises(ValueError, match="^unknown acceptable pairs: "):
                    delete_pairs(inst, [p])


def test_instance_mappings_are_read_only():
    inst = two_by_two_sm()
    with pytest.raises(TypeError):
        inst.prefs["m1"] = ("w2",)
    with pytest.raises(TypeError):
        inst.side["m1"] = "b"
    for derived in (delete_agents(inst, ["m1"]), delete_pairs(inst, [pair("m1", "w1")])):
        with pytest.raises(TypeError):
            derived.prefs["m2"] = ()
        with pytest.raises(TypeError):
            derived.side["m2"] = "b"


def test_rank_map_is_read_only_and_built_once_per_instance():
    inst = random_sr(9, 0.6, 4)
    ranks = inst.ranks
    assert inst.ranks is ranks
    assert ranks == {u: {v: i for i, v in enumerate(lst)} for u, lst in inst.prefs.items()}
    u = next(u for u, lst in sorted(inst.prefs.items()) if lst)
    v = inst.prefs[u][0]
    assert ranks[u][v] == 0
    with pytest.raises(TypeError):
        ranks[u] = {}
    with pytest.raises(TypeError):
        ranks[u][v] = 1
    assert inst.ranks[u][v] == 0
    assert pickle.loads(pickle.dumps(inst)) == inst


def test_delete_pairs_equals_rebuilding_every_list():
    rng = random.Random(17)
    for seed in range(120):
        if seed % 2:
            inst = random_sr(rng.randint(0, 30), rng.choice([0.2, 0.6, 1.0]), seed)
        else:
            inst = random_sm(rng.randint(0, 10), rng.randint(0, 10), rng.choice([0.3, 1.0]), seed)
        pairs = sorted(inst.acceptable_pairs, key=sorted)
        for chosen in (frozenset(), frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))):
            banned = {u: {v for p in chosen if u in p for v in p - {u}} for u in inst.agents}
            expected = {u: tuple(v for v in lst if v not in banned[u]) for u, lst in inst.prefs.items()}
            reduced = delete_pairs(inst, chosen)
            assert reduced == RoommatesInstance(inst.kind, expected, inst.side, inst.addable)


def test_instances_keep_no_handle_on_their_inputs():
    prefs = {"m": ["w"], "w": ["m"]}
    side = {"m": "a", "w": "b"}
    built = [
        make_sm(prefs, side),
        RoommatesInstance(kind="sm", prefs=prefs, side=side),
    ]
    prefs["m"].append("x")
    prefs["x"] = ["m"]
    side["m"] = "b"
    for inst in built:
        assert inst.prefs == {"m": ("w",), "w": ("m",)}
        assert inst.side == {"m": "a", "w": "b"}
        assert inst.ranks["w"]["m"] == 0 and not validate(inst)


def test_instances_and_queries_hash_by_value():
    inst, twin = random_sr(6, 0.6, 3), random_sr(6, 0.6, 3)
    assert inst == twin and inst is not twin and hash(inst) == hash(twin)
    copies = (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst)), dataclasses.replace(inst))
    for other in (parse_instance(serialize_instance(inst)), *copies):
        assert other == inst and hash(other) == hash(inst)
    sm = random_sm(3, 3, 1.0, 5)
    assert hash(sm) == hash(make_sm(dict(sm.prefs), dict(sm.side)))
    assert hash(delete_agents(sm, ["m00"])) == hash(delete_agents(sm, ["m00"]))
    query = ControlQuery(instance=inst, action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=1)
    assert hash(query) == hash(dataclasses.replace(query, instance=twin))


def test_the_core_mirrors_every_list_and_acceptable_pairs_are_listed_both_ways():
    # On markets of lists no longer than 12 entries and of longer ones
    # alike, the core is built exactly when every list is mirrored, its
    # mirror holds each owner's position on the list of each agent it lists,
    # and the acceptable pairs are those listed both ways.
    rng = random.Random(25)
    corpus = [corrupted_instance(rng) for _ in range(600)]
    corpus += [corrupted_instance(rng, most=40) for _ in range(600)]
    built = {False: 0, True: 0}
    for inst in corpus:
        prefs = inst.prefs
        mirrored = all(
            len(set(lst)) == len(lst) and all(v != u and u in prefs.get(v, ()) for v in lst)
            for u, lst in prefs.items()
        )
        try:
            core = inst.core
        except InvalidInstanceError:
            assert not mirrored, inst
            continue
        assert mirrored, inst
        names = core.names
        for u, lst, back in zip(names, core.pref, core.mirror):
            assert [names[v] for v in lst] == list(prefs[u])
            assert list(back) == [prefs[names[v]].index(u) for v in lst]
        assert inst.acceptable_pairs == {frozenset((u, v)) for u in prefs for v in prefs[u] if u in prefs[v]}
        built[max(map(len, prefs.values()), default=0) > 12] += 1
    assert built[False] >= 200 and built[True] >= 80
