import random

import pytest

from helpers import mutual_pair, pairs_of, three_cycle, two_by_two_sm
from stablectl.errors import CapExceededError
from stablectl.generators import random_sr
from stablectl.model import delete_pairs, make_sr
from stablectl.stability import (
    blocking_pairs,
    covered_agents,
    enumerate_matchings,
    enumerate_stable_matchings,
    is_perfect,
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
                    partner.get(u) is None or inst.prefers(u, v, partner[u])
                    for u, v in (tuple(p), tuple(p)[::-1])
                )
            }
            assert blocking_pairs(inst, matching) == expected
