import dataclasses
import random

import pytest

from helpers import (
    covered_agents,
    fault_the_engine,
    mutual_pair,
    original_agents,
    pairs_of,
    random_query,
    singletons,
    spurious_odd_party,
    three_cycle,
    top_pair_and_loner,
    two_by_two_sm,
)
from stablectl.classic import diagnose, partition_to_matching, tan_stable_partition
from stablectl.control import (
    ADD_AGENTS,
    DELETE_ACCEPTABILITY,
    DELETE_AGENTS,
    GOAL_KINDS,
    ControlGoal,
    ControlQuery,
    action_universe,
    apply_actions,
    goal_holds,
    goal_test,
    masked_agents,
    validate_query,
)
from stablectl.errors import InternalError, InvalidQueryError
from stablectl.generators import random_sm, random_sr
from stablectl.model import delete_agents, make_sr, pair
from stablectl.stability import enumerate_stable_matchings, is_stable


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


def test_action_universe_protects_every_pair_of_a_delacc_ms_target():
    inst = make_sr(
        {"a": ["b", "c", "d"], "b": ["c", "a", "d"], "c": ["a", "b", "d"], "d": ["a", "b", "c"]}
    )
    target = pairs_of(("a", "b"), ("c", "d"))
    q = ControlQuery(
        instance=inst, action=DELETE_ACCEPTABILITY, goal=ControlGoal.ms(target), budget=2
    )
    assert action_universe(q) == inst.acceptable_pairs - target
    for p in target:
        with pytest.raises(InvalidQueryError):
            apply_actions(q, {p})
        with pytest.raises(InvalidQueryError):
            apply_actions(q, {p, pair("a", "c")})
    assert pair("a", "c") not in apply_actions(q, {pair("a", "c")}).acceptable_pairs


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
    assert not goal_holds(inst, ControlGoal.ms(matching))
    reduced = make_sr({"a": ["b"], "b": ["a"]})
    assert goal_holds(reduced, ControlGoal.ms(matching))


def test_goal_holds_ms_delacc_requires_intact_matching():
    inst = make_sr({"a": ["b"], "b": ["a"], "c": [], "d": []})
    goal = ControlGoal.ms(pairs_of(("a", "b")))
    assert goal_holds(inst, goal)
    # Without the target pair its surviving pairs are the empty matching,
    # which is stable here; but no acceptability deletion reaches this market.
    gone = make_sr({"a": [], "b": [], "c": [], "d": []})
    assert goal_holds(gone, goal)
    q = ControlQuery(instance=inst, action=DELETE_ACCEPTABILITY, goal=goal, budget=1)
    assert action_universe(q) == frozenset()
    with pytest.raises(InvalidQueryError):
        apply_actions(q, {pair("a", "b")})


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
            fast = goal_holds(controlled, q.goal)
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


@pytest.mark.parametrize(
    "query,fragment",
    [
        (ControlQuery(three_cycle(), "swap", ControlGoal.esm(), 0), "unknown action"),
        (
            delag(make_sr({"a": ["b"], "b": ["a"], "c": []}), ControlGoal.mp(pair("a", "c"))),
            "not acceptable",
        ),
        (delag(three_cycle(), ControlGoal.ms(pairs_of(("a", "b"), ("a", "c")))), "twice"),
        (
            ControlQuery(
                three_cycle(), DELETE_ACCEPTABILITY, ControlGoal.ms({pair("a", "b"), pair("c", "zz")}), 0
            ),
            "not acceptable",
        ),
    ],
    ids=["unknown-action", "unacceptable-pair", "ms-agent-twice", "ms-unacceptable-pair"],
)
def test_validate_query_rejects_actions_and_targets(query, fragment):
    problems = validate_query(query)
    assert len(problems) == 1 and fragment in problems[0], problems


@pytest.mark.parametrize(
    "goal,fragment",
    [
        (ControlGoal.mp(frozenset({"a"})), "not a pair of agents"),
        (ControlGoal.mp(frozenset({"a", "b", "c"})), "not a pair of agents"),
        (ControlGoal.mp(("a", "b")), "not a pair of agents"),
        (ControlGoal.ms({frozenset({"a"})}), "member frozenset({'a'}) is not a pair of agents"),
        (ControlGoal(kind="ma", agent=["a"]), "not an original agent"),
        (ControlGoal(kind="ma", agent="a", pair=pair("a", "b")), "goal ma takes only a target agent"),
    ],
    ids=[
        "one-agent-pair",
        "three-agent-pair",
        "tuple-pair",
        "one-agent-member",
        "list-agent",
        "stray-pair",
    ],
)
def test_a_malformed_goal_target_is_a_problem_not_a_crash(goal, fragment):
    from stablectl.poly import solve

    query = delag(three_cycle(), goal, budget=1)
    problems = validate_query(query)
    assert len(problems) == 1 and fragment in problems[0], problems
    for method in ("exact", "poly"):
        with pytest.raises(InvalidQueryError) as info:
            solve(query, method=method)
        assert str(info.value) == problems[0]


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


def test_partition_goals_agree_with_enumerating_every_matching():
    # esm, epsm and ma are read off the stable partition; the oracle
    # enumerates every matching and keeps those without a blocking pair.
    markets = [random_sr(2 + seed % 7, (0.4, 0.7, 1.0)[seed % 3], seed) for seed in range(240)]
    markets += [
        random_sm(1 + seed % 4, 1 + seed // 4 % 4, (0.5, 1.0)[seed % 2], seed) for seed in range(120)
    ]
    shapes = {"none": 0, "imperfect": 0, "perfect": 0}
    for inst in markets:
        stables = enumerate_stable_matchings(inst, cap=28)
        covered = [covered_agents(m) for m in stables]
        perfect = inst.agents in covered
        shapes["none" if not stables else "perfect" if perfect else "imperfect"] += 1
        assert goal_holds(inst, ControlGoal.esm()) == bool(stables)
        assert goal_holds(inst, ControlGoal.epsm()) == perfect
        for agent in sorted(inst.agents):
            assert goal_holds(inst, ControlGoal.ma(agent)) == any(agent in c for c in covered)
    assert min(shapes.values()) >= 20, shapes


def test_existence_goals_follow_the_named_partition():
    # esm, epsm and ma are each a diagnosis cost of 0.  The rule they must
    # match is read off the named partition: no odd party, and no agent
    # the goal needs matched among its fixed points.  Most markets are
    # small, every tenth has up to 60 agents.
    rng = random.Random(20)
    seen = set()
    for seed in range(2000):
        n = rng.randint(2, 60) if seed % 10 == 0 else rng.randint(2, 20)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        if seed % 2:
            inst = random_sr(n, density, seed)
        else:
            inst = random_sm(n // 2, n - n // 2, density, seed)
        partition = tan_stable_partition(inst)
        odd, alone = bool(partition.odd_parties), singletons(partition)
        assert goal_holds(inst, ControlGoal.esm()) == (not odd), seed
        assert goal_holds(inst, ControlGoal.epsm()) == (not odd and not alone), seed
        for u in sorted(inst.agents):
            assert goal_holds(inst, ControlGoal.ma(u)) == (not odd and u not in alone), (seed, u)
        assert diagnose(inst).witness() == partition_to_matching(inst, partition), seed
        seen.add((inst.kind, odd, bool(alone)))
    assert seen >= {("sm", False, False), ("sm", False, True)}
    assert seen >= {("sr", odd, alone) for odd in (False, True) for alone in (False, True)}


def test_a_goal_on_a_mask_is_the_goal_on_the_market_without_the_masked_agents():
    # For every goal: an agent-action set masks exactly the agents that
    # applying it removes, and goal_holds on the market that delete_agents
    # builds without them is goal_holds on the controlled market.
    rng = random.Random(31)
    held = set()
    for seed in range(200):
        inst = random_sr(rng.randint(2, 7), 0.7, seed) if seed % 2 else random_sm(3, 3, 0.7, seed)
        for action in (ADD_AGENTS, DELETE_AGENTS):
            for kind in ("esm", "epsm", "ma", "mp", "ms"):
                try:
                    q = random_query(inst, action, kind, seed)
                except ValueError:
                    continue
                universe = sorted(action_universe(q))
                positions = sorted(rng.sample(range(len(universe)), rng.randint(0, len(universe))))
                chosen = frozenset(universe[i] for i in positions)
                names = q.instance.core.names
                masked = frozenset(names[u] for u in masked_agents(q, universe)(positions))
                exercised = apply_actions(q, chosen)
                assert exercised.prefs == delete_agents(q.instance, masked).prefs
                on_mask = goal_holds(delete_agents(q.instance, masked), q.goal)
                assert on_mask == goal_holds(exercised, q.goal)
                held.add((kind, on_mask))
    assert held == {(k, v) for k in ("esm", "epsm", "ma", "mp", "ms") for v in (True, False)}
    q = ControlQuery(instance=three_cycle(), action=DELETE_ACCEPTABILITY, goal=ControlGoal.esm(), budget=0)
    assert masked_agents(q, []) is None


def stable_oracle(market, goal):
    """``goal`` on ``market``, read off its enumerated stable matchings, or ``is_stable`` for ms."""
    if goal.kind == "ms":
        kept = frozenset(p for p in goal.matching if market.is_acceptable_pair(p))
        return is_stable(market, kept)
    stables = enumerate_stable_matchings(market)
    if goal.kind == "esm":
        return bool(stables)
    if goal.kind == "epsm":
        return any(2 * len(m) == len(market.agents) for m in stables)
    if goal.kind == "ma":
        return any(goal.agent in p for m in stables for p in m)
    return any(goal.pair in m for m in stables)


def test_a_compiled_goal_is_the_goal_on_the_market_without_the_masked_agents():
    # goal_test compiles a goal once on the market's core and is asked about
    # many masks of core indices.  Each answer equals goal_holds on the
    # market that delete_agents builds, and the enumeration oracle there.
    # Besides random masks, an mp goal is asked with each endpoint and each
    # agent an endpoint prefers to the other masked, and an ms goal with
    # each target partner masked.
    rng = random.Random(47)
    held = set()
    for seed in range(150):
        if seed % 2:
            inst = random_sr(rng.randint(3, 7), rng.choice([0.6, 0.9]), seed)
        else:
            inst = random_sm(rng.randint(2, 3), rng.randint(2, 3), 0.8, seed)
        for kind in GOAL_KINDS:
            try:
                q = random_query(inst, DELETE_AGENTS, kind, seed)
            except ValueError:
                continue
            market, goal = q.instance, q.goal
            core = market.core
            names = core.names
            test = goal_test(market, goal)
            n = len(names)
            masks = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(4)]
            if kind == "mp":
                a, b = sorted(goal.pair)
                la, lb = market.prefs[a], market.prefs[b]
                stars = la[: la.index(b)] + lb[: lb.index(a)]
                masks += [frozenset({core.index[u]}) for u in (a, b, *stars)]
                masks.append(frozenset(core.index[u] for u in stars))
            if kind == "ms":
                masks += [frozenset({core.index[u]}) for p in goal.matching for u in p]
            for mask in masks:
                without = delete_agents(market, {names[u] for u in mask})
                answer = test(mask)
                assert answer == goal_holds(without, goal), (seed, kind)
                assert answer == stable_oracle(without, goal), (seed, kind)
                held.add((kind, answer))
    assert held == {(k, v) for k in GOAL_KINDS for v in (True, False)}


def test_a_compiled_goal_raises_as_goal_holds_does():
    # A target matching with an agent in two of its pairs raises from
    # goal_test and from goal_holds alike.
    inst = three_cycle()
    clash = ControlGoal.ms(frozenset({pair("a", "b"), pair("a", "c")}))
    for evaluate in (lambda: goal_test(inst, clash), lambda: goal_holds(inst, clash)):
        with pytest.raises(ValueError, match="^agent a is matched twice$"):
            evaluate()


def test_an_addag_pool_outside_the_market_is_an_invalid_query():
    inst = make_sr({"a": ["b", "x"], "b": ["a"], "x": ["a"]}, addable=["x", "y", "0"])
    q = ControlQuery(instance=inst, action=ADD_AGENTS, goal=ControlGoal.esm(), budget=1)
    assert validate_query(q) == [
        "addable agent 0 is not part of the instance",
        "addable agent y is not part of the instance",
    ]
