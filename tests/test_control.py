import dataclasses
import random

import pytest

from helpers import (
    fault_the_engine,
    mutual_pair,
    pairs_of,
    spurious_odd_party,
    three_cycle,
    top_pair_and_loner,
    two_by_two_sm,
)
from stablectl.control import (
    ADD_AGENTS,
    DELETE_ACCEPTABILITY,
    DELETE_AGENTS,
    ControlGoal,
    ControlQuery,
    action_universe,
    apply_actions,
    goal_holds,
    original_agents,
    validate_query,
)
from stablectl.errors import InternalError, InvalidQueryError
from stablectl.generators import random_query, random_sr
from stablectl.model import make_sr, pair
from stablectl.stability import enumerate_stable_matchings


def delag(inst, goal, budget=0):
    return ControlQuery(instance=inst, action=DELETE_AGENTS, goal=goal, budget=budget)


def test_apply_actions_delete_agents():
    q = delag(three_cycle(), ControlGoal.esm(), budget=1)
    assert apply_actions(q, {"c"}) == make_sr({"a": ["b"], "b": ["a"]})


def test_apply_actions_addag_empty_choice_drops_pool():
    inst = make_sr({"a": ["b", "x"], "b": ["a"], "x": ["a"]}, addable=["x"])
    q = ControlQuery(instance=inst, action=ADD_AGENTS, goal=ControlGoal.esm(), budget=0)
    assert apply_actions(q, set()) == make_sr({"a": ["b"], "b": ["a"]})


def test_apply_actions_delacc():
    q = ControlQuery(
        instance=three_cycle(),
        action=DELETE_ACCEPTABILITY,
        goal=ControlGoal.esm(),
        budget=1,
    )
    controlled = apply_actions(q, {pair("b", "c")})
    assert controlled.agents == {"a", "b", "c"}
    assert pair("b", "c") not in controlled.acceptable_pairs


def test_apply_actions_rejects_actions_outside_universe():
    q = delag(three_cycle(), ControlGoal.ma("a"))
    with pytest.raises(InvalidQueryError):
        apply_actions(q, {"a"})  # the target itself is protected
    q2 = ControlQuery(
        instance=three_cycle(),
        action=DELETE_ACCEPTABILITY,
        goal=ControlGoal.mp(pair("a", "b")),
        budget=1,
    )
    with pytest.raises(InvalidQueryError):
        apply_actions(q2, {pair("a", "b")})


def test_action_universe_protects_goal_targets():
    q = delag(three_cycle(), ControlGoal.mp(pair("a", "b")))
    assert action_universe(q) == {"c"}
    q2 = delag(three_cycle(), ControlGoal.esm())
    assert action_universe(q2) == {"a", "b", "c"}


def test_goal_holds_existence():
    assert goal_holds(mutual_pair(), ControlGoal.esm())
    assert not goal_holds(three_cycle(), ControlGoal.esm())
    assert goal_holds(mutual_pair(), ControlGoal.epsm())
    assert goal_holds(make_sr({}), ControlGoal.epsm())
    # A stable matching exists but leaves an agent uncovered.
    inst = make_sr({"a": ["b"], "b": ["a"], "z": []})
    assert goal_holds(inst, ControlGoal.esm())
    assert not goal_holds(inst, ControlGoal.epsm())


def test_goal_holds_rejects_an_uncertified_odd_party(monkeypatch):
    # An engine fault that reports an odd party must not read as "no
    # stable matching", which the exact search would take as a verdict.
    assert goal_holds(top_pair_and_loner(), ControlGoal.esm())
    fault_the_engine(monkeypatch, spurious_odd_party)
    with pytest.raises(InternalError, match="invalid partition: b prefers its predecessor a"):
        goal_holds(top_pair_and_loner(), ControlGoal.esm())


def test_goal_holds_ma():
    assert goal_holds(mutual_pair(), ControlGoal.ma("a"))
    assert not goal_holds(three_cycle(), ControlGoal.ma("a"))
    assert not goal_holds(mutual_pair(), ControlGoal.ma("zz"))  # deleted target


def test_goal_holds_mp():
    assert goal_holds(two_by_two_sm(), ControlGoal.mp(pair("m1", "w2")))
    assert not goal_holds(two_by_two_sm(), ControlGoal.mp(pair("m1", "w1")))
    assert not goal_holds(mutual_pair(), ControlGoal.mp(pair("a", "zz")))


def test_goal_holds_mp_matches_enumeration():
    rng = random.Random(11)
    for seed in range(120):
        inst = random_sr(rng.randint(2, 7), rng.choice([0.5, 0.8, 1.0]), seed)
        stables = enumerate_stable_matchings(inst)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            expected = any(target in m for m in stables)
            assert goal_holds(inst, ControlGoal.mp(target)) == expected


def test_goal_holds_mp_matches_enumeration_bipartite():
    from stablectl.generators import random_sm

    rng = random.Random(12)
    for seed in range(60):
        inst = random_sm(rng.randint(1, 4), rng.randint(1, 4), 0.8, seed)
        stables = enumerate_stable_matchings(inst)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            expected = any(target in m for m in stables)
            assert goal_holds(inst, ControlGoal.mp(target)) == expected


def test_goal_holds_ms_subset_convention():
    inst = three_cycle()
    matching = pairs_of(("a", "b"))
    # {a,b} alone is blocked by {b,c}; dropping it leaves {a,b} blocking.
    assert not goal_holds(inst, ControlGoal.ms(matching), action=DELETE_AGENTS)
    reduced = make_sr({"a": ["b"], "b": ["a"]})
    assert goal_holds(reduced, ControlGoal.ms(matching), action=DELETE_AGENTS)


def test_goal_holds_ms_delacc_requires_intact_matching():
    inst = make_sr({"a": ["b"], "b": ["a"], "c": [], "d": []})
    goal = ControlGoal.ms(pairs_of(("a", "b")))
    assert goal_holds(inst, goal, action=DELETE_ACCEPTABILITY)
    gone = make_sr({"a": [], "b": [], "c": [], "d": []})
    assert not goal_holds(gone, goal, action=DELETE_ACCEPTABILITY)
    # Under the subset convention the empty submatching would do.
    assert goal_holds(gone, goal, action=DELETE_AGENTS)


def test_goal_holds_ms_exhaustive_agrees_with_fast_path():
    # The subset convention checked against every stable matching, on the
    # query's market and on that market less one or two random agents.
    rng = random.Random(13)
    for seed in range(120):
        inst = random_sr(rng.randint(0, 7), rng.choice([0.4, 0.8]), seed)
        q = random_query(inst, DELETE_AGENTS, "ms", seed)
        agents = sorted(q.instance.agents)
        for k in range(min(3, len(agents) + 1)):
            controlled = apply_actions(q, rng.sample(agents, k))
            fast = goal_holds(controlled, q.goal, action=DELETE_AGENTS)
            slow = any(m <= q.goal.matching for m in enumerate_stable_matchings(controlled))
            assert fast == slow


def test_validate_query_happy_paths():
    assert validate_query(delag(three_cycle(), ControlGoal.ma("a"), budget=1)) == []
    inst = make_sr({"a": ["b", "x"], "b": ["a"], "x": ["a"]}, addable=["x"])
    q = ControlQuery(instance=inst, action=ADD_AGENTS, goal=ControlGoal.esm(), budget=1)
    assert validate_query(q) == []
    assert original_agents(q) == {"a", "b"}


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: delag(three_cycle(), ControlGoal.ma("zz")), "not an original agent"),
        (lambda: delag(three_cycle(), ControlGoal.mp(pair("a", "zz"))), "original"),
        (lambda: delag(three_cycle(), ControlGoal.ma("a"), budget=-1), "budget"),
        (
            lambda: ControlQuery(
                instance=three_cycle(), action=ADD_AGENTS, goal=ControlGoal.esm(), budget=0
            ),
            "addable",
        ),
        (
            lambda: delag(
                make_sr({"a": ["b", "x"], "b": ["a"], "x": ["a"]}, addable=["x"]),
                ControlGoal.esm(),
            ),
            "addable",
        ),
        (
            lambda: delag(three_cycle(), ControlGoal.ms(pairs_of(("a", "b")))),
            "perfect",
        ),
        (
            lambda: delag(three_cycle(), ControlGoal(kind="esm", agent="a")),
            "takes no target",
        ),
    ],
)
def test_validate_query_flags_problems(build, fragment):
    problems = validate_query(build())
    assert any(fragment in p for p in problems)


def test_budget_monotonicity_in_subset_semantics():
    from stablectl.exact import solve_exact

    rng = random.Random(17)
    for seed in range(25):
        inst = random_sr(rng.randint(2, 6), 0.8, seed)
        try:
            q = random_query(inst, DELETE_AGENTS, "mp", seed)
        except ValueError:
            continue
        lower = solve_exact(q)
        # A fresh equal instance, so the second solve searches again.
        fresh = dataclasses.replace(q.instance)
        higher = solve_exact(
            ControlQuery(instance=fresh, action=q.action, goal=q.goal, budget=q.budget + 1)
        )
        if lower.verdict:
            assert higher.verdict
