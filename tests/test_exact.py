import dataclasses
import random
from itertools import combinations

import pytest

from helpers import candidate_actions, mutual_pair, random_query, three_cycle
from stablectl import exact
from stablectl.classic import tan_stable_partition
from stablectl.control import (
    ACTIONS,
    ADD_AGENTS,
    DELETE_ACCEPTABILITY,
    DELETE_AGENTS,
    GOAL_KINDS,
    ControlGoal,
    ControlQuery,
    apply_actions,
    goal_holds,
)
from stablectl.errors import CapExceededError, InvalidQueryError
from stablectl.exact import solve_exact
from stablectl.generators import random_sm, random_sr
from stablectl.model import make_sr, pair
from stablectl.reductions import is_to_csr_addag_existssm, make_graph


def fresh(query):
    """The same query over an equal but distinct instance, whose memo is empty."""
    return dataclasses.replace(query, instance=dataclasses.replace(query.instance))


def seeded_markets(count):
    """Seeded SR markets of 3-5 agents and SM markets of 2-3 per side, in turn."""
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 2:
            yield random_sm(rng.randint(2, 3), rng.randint(2, 3), 0.8, seed)
        else:
            yield random_sr(rng.randint(3, 5), 0.8, seed)


def seeded_queries(inst, action, goal_kind, seeds):
    out = []
    for seed in seeds:
        try:
            out.append(random_query(inst, action, goal_kind, seed))
        except ValueError:
            continue
    return out


def test_candidate_actions_delag_ma_protects_target():
    q = ControlQuery(
        instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.ma("a"), budget=1
    )
    assert candidate_actions(q) == ["b", "c"]


def test_candidate_actions_addag_lists_pool():
    inst = make_sr({"a": ["x", "y"], "x": ["a"], "y": ["a"]}, addable=["x", "y"])
    q = ControlQuery(instance=inst, action=ADD_AGENTS, goal=ControlGoal.esm(), budget=1)
    assert candidate_actions(q) == ["x", "y"]


def test_candidate_actions_delacc_mp_protects_pair():
    q = ControlQuery(
        instance=three_cycle(),
        action=DELETE_ACCEPTABILITY,
        goal=ControlGoal.mp(pair("a", "b")),
        budget=1,
    )
    assert candidate_actions(q) == [pair("a", "c"), pair("b", "c")]


def test_zero_budget_reduces_to_goal_check():
    q = ControlQuery(
        instance=mutual_pair(), action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=0
    )
    out = solve_exact(q)
    assert out.verdict and out.optimum == 0 and out.witness == frozenset()


def test_delag_esm_on_three_cycle_picks_lexicographic_witness():
    q = ControlQuery(
        instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=1
    )
    out = solve_exact(q)
    assert out.verdict and out.optimum == 1 and out.witness == {"a"}


def test_delacc_esm_can_cost_fewer_pair_deletions_than_odd_parties():
    # Two odd parties, yet deleting the one pair {u00,u04} leaves a stable
    # matching: the odd-party count only bounds delacc-esm from above.
    for inst in (random_sr(6, 0.6, 261), random_sr(6, 1.0, 311)):
        assert len(tan_stable_partition(inst).odd_parties) == 2
        q = ControlQuery(
            instance=inst, action=DELETE_ACCEPTABILITY, goal=ControlGoal.esm(), budget=2
        )
        out = solve_exact(q)
        assert (out.verdict, out.optimum, out.witness) == (True, 1, {pair("u00", "u04")})


def test_addag_esm_on_single_edge_gadget():
    graph = make_graph(["u", "v"], [("u", "v")])
    query = is_to_csr_addag_existssm(graph, 1).query
    out = solve_exact(query)
    assert out.verdict and out.optimum == 1 and out.witness == {"u"}
    controlled = apply_actions(query, out.witness)
    assert goal_holds(controlled, query.goal, action=query.action)


def test_no_verdict_still_reports_reachable_optimum():
    # Budget 0 cannot fix the cycle, one deletion can.
    q = ControlQuery(
        instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=0
    )
    out = solve_exact(q)
    assert not out.verdict and out.optimum == 1 and out.witness is None


def test_unreachable_goal_has_absent_optimum():
    inst = make_sr({"a": ["b"], "b": ["a"], "z": []})
    q = ControlQuery(instance=inst, action=DELETE_AGENTS, goal=ControlGoal.ma("z"), budget=2)
    out = solve_exact(q)
    assert not out.verdict and out.optimum is None and out.witness is None


def test_min_control_cost():
    q = ControlQuery(
        instance=three_cycle(),
        action=DELETE_AGENTS,
        goal=ControlGoal.mp(pair("a", "b")),
        budget=0,
    )
    assert solve_exact(q).optimum == 1
    inst = make_sr({"a": ["b"], "b": ["a"], "z": []})
    q2 = ControlQuery(instance=inst, action=DELETE_AGENTS, goal=ControlGoal.ma("z"), budget=0)
    assert solve_exact(q2).optimum is None


def test_cap_is_enforced():
    inst = random_sr(9, 1.0, 3)
    q = ControlQuery(
        instance=inst, action=DELETE_ACCEPTABILITY, goal=ControlGoal.esm(), budget=1
    )
    with pytest.raises(CapExceededError):
        solve_exact(q, cap=20)


def test_invalid_query_is_rejected():
    q = ControlQuery(
        instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.ma("zz"), budget=0
    )
    with pytest.raises(InvalidQueryError):
        solve_exact(q)


def test_witnesses_are_valid_and_deterministic():
    rng = random.Random(51)
    for seed in range(40):
        inst = random_sr(rng.randint(1, 6), 0.7, seed)
        action = rng.choice([DELETE_AGENTS, DELETE_ACCEPTABILITY, ADD_AGENTS])
        goal_kind = rng.choice(["ma", "mp", "ms", "esm", "epsm"])
        try:
            q = random_query(inst, action, goal_kind, seed)
        except ValueError:
            continue
        out = solve_exact(q)
        # A fresh equal instance, so the second solve searches again.
        again = solve_exact(fresh(q))
        assert out == again
        if out.verdict:
            assert len(out.witness) == out.optimum <= q.budget
            controlled = apply_actions(q, out.witness)
            assert goal_holds(controlled, q.goal, action=q.action)


def test_later_budgets_reuse_the_search(monkeypatch):
    calls = []
    real = exact.goal_holds

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exact, "goal_holds", counting)
    inst = make_sr({"a": ["b"], "b": ["a"], "x": ["y"], "y": ["x"], "z": []})
    q = ControlQuery(instance=inst, action=DELETE_AGENTS, goal=ControlGoal.ma("z"), budget=0)
    first = solve_exact(q)
    searched = len(calls)
    assert first.optimum is None and searched == 2 ** 4
    for budget in (1, 2, 3):
        assert solve_exact(dataclasses.replace(q, budget=budget)) == first
    assert len(calls) == searched
    assert solve_exact(fresh(q)) == first
    assert len(calls) == 2 * searched


def test_shared_instance_outcomes_equal_fresh_instance_outcomes():
    kinds = set()
    for inst in seeded_markets(12):
        # Several targets per kind, mostly on the same instance object, so
        # that memo entries of different goals sit side by side.
        queries = [
            q
            for action in ACTIONS
            for goal_kind in GOAL_KINDS
            for q in seeded_queries(inst, action, goal_kind, range(3))
        ]
        kinds |= {(q.action, q.goal.kind) for q in queries}
        for budget in range(4):
            for q in queries:
                shared = dataclasses.replace(q, budget=budget)
                assert solve_exact(shared) == solve_exact(fresh(shared))
    assert len(kinds) == 15


def test_memo_hit_still_checks_the_cap():
    q = ControlQuery(
        instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=1
    )
    assert solve_exact(q).optimum == 1
    assert q.instance.search_memo
    with pytest.raises(CapExceededError):
        solve_exact(dataclasses.replace(q, budget=2), cap=2)


def test_delacc_ms_search_matches_a_plain_subset_loop():
    def plain(q):
        candidates = candidate_actions(q)
        for size in range(len(candidates) + 1):
            for combo in combinations(candidates, size):
                if goal_holds(apply_actions(q, combo), q.goal, action=q.action):
                    return size, frozenset(combo)
        return None

    markets = seeded_markets(40)
    queries = [q for inst in markets for q in seeded_queries(inst, DELETE_ACCEPTABILITY, "ms", [0])]
    assert len(queries) > 30
    for q in queries:
        q = dataclasses.replace(q, budget=len(candidate_actions(q)))
        out = solve_exact(q)
        assert ((out.optimum, out.witness) if out.verdict else None) == plain(q)
