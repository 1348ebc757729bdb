import random

import pytest

from helpers import mutual_pair, three_cycle
from stablectl.control import (
    ADD_AGENTS,
    DELETE_ACCEPTABILITY,
    DELETE_AGENTS,
    ControlGoal,
    ControlQuery,
    apply_actions,
    goal_holds,
)
from stablectl.errors import CapExceededError, InvalidQueryError
from stablectl.exact import candidate_actions, solve_exact
from stablectl.generators import random_query, random_sr
from stablectl.model import make_sr, pair
from stablectl.reductions import is_to_csr_addag_existssm, make_graph


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
        again = solve_exact(q)
        assert out == again
        if out.verdict:
            assert len(out.witness) == out.optimum <= q.budget
            controlled = apply_actions(q, out.witness)
            assert goal_holds(controlled, q.goal, action=q.action)
