import random

import pytest

from helpers import (
    covered_agents,
    is_perfect,
    mutual_pair,
    pairs_of,
    prefers,
    three_cycle,
    two_by_two_sm,
)
from stablectl.errors import CapExceededError, InvalidInstanceError
from stablectl.generators import random_sm, random_sr
from stablectl.model import delete_pairs, make_sr, validate
from stablectl.stability import (
    blocking_pairs,
    enumerate_matchings,
    enumerate_stable_matchings,
    is_stable,
)


def test_unmatched_mutual_pair_blocks():
    assert blocking_pairs(mutual_pair(), frozenset()) == pairs_of(("a", "b"))


def test_matched_pair_does_not_block():
    assert blocking_pairs(mutual_pair(), pairs_of(("a", "b"))) == frozenset()


def test_three_cycle_single_pair_leaves_one_blocker():
    # With {a,b} matched, c is rejected by a but b prefers c: {b,c} blocks.
    assert blocking_pairs(three_cycle(), pairs_of(("a", "b"))) == pairs_of(("b", "c"))


def test_blocking_pairs_validates_matching():
    with pytest.raises(ValueError):
        blocking_pairs(mutual_pair(), pairs_of(("a", "zz")))
    inst = make_sr({"a": ["b", "c"], "b": ["a"], "c": ["a"]})
    with pytest.raises(ValueError):
        blocking_pairs(inst, pairs_of(("a", "b"), ("a", "c")))


def test_is_stable():
    assert is_stable(mutual_pair(), pairs_of(("a", "b")))
    assert not is_stable(three_cycle(), pairs_of(("a", "b")))
    assert is_stable(make_sr({"a": [], "b": []}), frozenset())


def test_enumerate_matchings_mutual_pair():
    assert list(enumerate_matchings(mutual_pair())) == [frozenset(), pairs_of(("a", "b"))]


def test_enumerate_matchings_three_cycle():
    out = list(enumerate_matchings(three_cycle()))
    assert len(out) == 4  # empty plus each single edge
    assert out[0] == frozenset()
    assert len(set(out)) == 4


def test_enumerate_matchings_empty_instance():
    assert list(enumerate_matchings(make_sr({}))) == [frozenset()]


def test_enumeration_cap_is_enforced():
    inst = random_sr(10, 1.0, 7)
    with pytest.raises(CapExceededError):
        list(enumerate_matchings(inst, cap=24))


def test_enumerate_stable_matchings():
    assert enumerate_stable_matchings(mutual_pair()) == [pairs_of(("a", "b"))]
    assert enumerate_stable_matchings(three_cycle()) == []
    assert enumerate_stable_matchings(two_by_two_sm()) == [pairs_of(("m1", "w2"), ("m2", "w1"))]


def test_is_perfect():
    assert is_perfect(mutual_pair(), pairs_of(("a", "b")))
    assert not is_perfect(three_cycle(), pairs_of(("a", "b")))
    assert is_perfect(make_sr({}), frozenset())


def test_covered_agents():
    assert covered_agents(frozenset()) == frozenset()
    assert covered_agents(pairs_of(("a", "b"))) == {"a", "b"}
    assert covered_agents(pairs_of(("a", "b"), ("c", "d"))) == {"a", "b", "c", "d"}


def test_blocking_pairs_are_disjoint_from_matching():
    rng = random.Random(5)
    for seed in range(40):
        inst = random_sr(rng.randint(0, 8), 0.6, seed)
        matching = next(m for m in enumerate_matchings(inst))
        blockers = blocking_pairs(inst, matching)
        assert blockers <= inst.acceptable_pairs - matching


def test_removing_a_blocking_pair_strictly_shrinks_the_set():
    rng = random.Random(6)
    checked = 0
    for seed in range(60):
        inst = random_sr(rng.randint(2, 8), 0.7, seed)
        matchings = list(enumerate_matchings(inst))
        matching = matchings[len(matchings) // 2]
        blockers = blocking_pairs(inst, matching)
        if not blockers:
            continue
        victim = min(blockers, key=lambda p: tuple(sorted(p)))
        fewer = blocking_pairs(delete_pairs(inst, {victim}), matching)
        assert len(fewer) < len(blockers)
        checked += 1
    assert checked > 10


def test_rural_hospitals_on_small_instances():
    # All stable matchings of one instance cover the same agents.
    rng = random.Random(7)
    for seed in range(80):
        inst = random_sr(rng.randint(0, 8), rng.choice([0.4, 0.8]), seed)
        stables = enumerate_stable_matchings(inst)
        covers = {covered_agents(m) for m in stables}
        assert len(covers) <= 1


def test_blocking_pairs_match_the_definition_on_every_matching():
    rng = random.Random(8)
    for seed in range(40):
        inst = random_sr(rng.randint(0, 7), rng.choice([0.4, 0.8]), seed)
        for matching in enumerate_matchings(inst):
            partner = {u: v for p in matching for u, v in (tuple(p), tuple(p)[::-1])}
            expected = {
                p
                for p in inst.acceptable_pairs - matching
                if all(
                    partner.get(u) is None or prefers(inst, u, v, partner[u])
                    for u, v in (tuple(p), tuple(p)[::-1])
                )
            }
            assert blocking_pairs(inst, matching) == expected


def test_blocking_pairs_match_the_definition_on_large_partial_matchings():
    # Every pair of agents, read off the lists alone, against markets up to
    # 200 agents and random matchings that leave agents unmatched.
    rng = random.Random(21)
    sizes = [2, 5, 12, 30, 60, 100, 150, 200]
    found = 0
    for seed, n in enumerate(sizes * 3):
        if seed % 2:
            inst = random_sr(n, rng.choice([0.05, 0.2, 1.0 if n <= 60 else 0.1]), seed)
        else:
            inst = random_sm(n // 2, n - n // 2, rng.choice([0.1, 0.5]), seed)
        pairs = sorted(inst.acceptable_pairs, key=sorted)
        rng.shuffle(pairs)
        used, matching = set(), set()
        for p in pairs[: rng.randint(0, len(pairs))]:
            if not p & used:
                matching.add(p)
                used |= p
        partner = {u: v for p in matching for u, v in (tuple(p), tuple(p)[::-1])}

        def wants(u, v):
            lst = inst.prefs[u]
            return v in lst and (u not in partner or lst.index(v) < lst.index(partner[u]))

        agents = sorted(inst.agents)
        expected = {
            frozenset((u, v))
            for i, u in enumerate(agents)
            for v in agents[i + 1 :]
            if partner.get(u) != v and wants(u, v) and wants(v, u)
        }
        assert blocking_pairs(inst, frozenset(matching)) == expected
        found += len(expected)
    assert found > 1000


def test_blocking_pairs_reject_a_list_that_names_an_agent_twice():
    # a lists b twice, so whether a prefers c to its partner b is ambiguous.
    inst = make_sr({"a": ["b", "c", "b"], "b": ["a", "c"], "c": ["a", "b"]})
    for check in (blocking_pairs, is_stable):
        with pytest.raises(InvalidInstanceError) as info:
            check(inst, {frozenset("ab")})
        assert info.value.violations == validate(inst) == ["agent a has duplicate preference entries"]


def test_is_stable_rejects_a_repeated_entry_that_the_scan_never_reaches():
    # {a,b} blocks the empty matching before the scan meets c's list.
    inst = make_sr({"a": ["b"], "b": ["a"], "c": ["d", "d"], "d": ["c"]})
    for kwargs in ({}, {"deleted_agents": frozenset("c")}, {"deleted_pairs": pairs_of(("c", "d"))}):
        with pytest.raises(InvalidInstanceError) as info:
            is_stable(inst, frozenset(), **kwargs)
        assert info.value.violations == ["agent c has duplicate preference entries"]


def test_is_stable_checks_the_matching_before_the_deletions():
    inst = make_sr({"a": ["b", "c"], "b": ["a"], "c": ["a"]})
    with pytest.raises(ValueError, match="matched twice"):
        is_stable(inst, pairs_of(("a", "b"), ("a", "c")), deleted_agents=frozenset("a"))
    assert not is_stable(inst, pairs_of(("a", "b")), deleted_agents=frozenset("b"))
    assert not is_stable(inst, pairs_of(("a", "b")), deleted_pairs=pairs_of(("a", "b")))
    assert is_stable(inst, pairs_of(("a", "c")), deleted_pairs=pairs_of(("a", "b")))


def random_matching(rng, inst):
    pairs = sorted(inst.acceptable_pairs, key=sorted)
    rng.shuffle(pairs)
    used, chosen = set(), set()
    for p in pairs[: rng.randint(0, len(pairs))]:
        if not p & used:
            chosen.add(p)
            used |= p
    return frozenset(chosen)


def test_stability_without_deleted_pairs_agrees_with_the_smaller_market():
    # ``is_stable`` with deleted pairs must say what deleting them says;
    # deleting a matched pair leaves no matching of the smaller market,
    # which counts as unstable.  The deleted pairs are the blocking set,
    # a subset or a superset of it, or a set that holds a matched pair.
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    shapes = {"blocking": 0, "subset": 0, "superset": 0, "matched": 0}
    for seed in range(2400):
        n = rng.randint(2, 30)
        if seed % 2:
            inst = random_sr(n, rng.choice([0.2, 0.5, 0.9]), seed)
        else:
            inst = random_sm(n // 2, n - n // 2, rng.choice([0.3, 0.6, 1.0]), seed)
        matching = random_matching(rng, inst)
        blockers = blocking_pairs(inst, matching)
        others = sorted(inst.acceptable_pairs - blockers - matching, key=sorted)
        shape = ("blocking", "subset", "superset", "matched")[seed % 4]
        if shape == "subset":
            deleted = set(rng.sample(sorted(blockers, key=sorted), rng.randint(0, len(blockers))))
        else:
            deleted = set(blockers)
        if shape == "superset" and others:
            deleted |= set(rng.sample(others, rng.randint(1, len(others))))
        if shape == "matched" and matching:
            deleted.add(rng.choice(sorted(matching, key=sorted)))
            deleted |= set(rng.sample(others, rng.randint(0, len(others))))
        deleted = frozenset(deleted)
        try:
            expected = is_stable(delete_pairs(inst, deleted), matching)
        except ValueError:  # a matched pair is deleted
            expected = False
        assert is_stable(inst, matching, deleted_pairs=deleted) == expected
        verdicts[expected] += 1
        shapes[shape] += 1
    assert min(verdicts.values()) >= 400
    assert min(shapes.values()) == 600
