import pytest

from helpers import covered_agents, random_query
from stablectl.control import ADD_AGENTS, DELETE_ACCEPTABILITY, DELETE_AGENTS, validate_query
from stablectl.generators import random_sm, random_sr
from stablectl.model import validate


def test_random_sr_zero_agents():
    assert random_sr(0, 0.5, 1).agents == frozenset()


def test_random_sr_full_density_is_complete():
    inst = random_sr(6, 1.0, 2)
    assert all(len(lst) == 5 for lst in inst.prefs.values())
    assert validate(inst) == []


def test_random_sr_zero_density_is_isolated():
    inst = random_sr(5, 0.0, 3)
    assert all(lst == () for lst in inst.prefs.values())


def test_random_sr_rejects_bad_density():
    with pytest.raises(ValueError):
        random_sr(3, 1.5, 0)


def test_random_sr_is_deterministic_per_seed():
    assert random_sr(7, 0.5, 42) == random_sr(7, 0.5, 42)
    assert random_sr(7, 0.5, 42) != random_sr(7, 0.5, 43)


def test_random_sm_shapes():
    inst = random_sm(2, 2, 1.0, 1)
    assert validate(inst) == []
    assert sum(1 for u in inst.agents if inst.side[u] == "a") == 2
    empty_side = random_sm(0, 3, 0.7, 1)
    assert len(empty_side.agents) == 3
    assert all(lst == () for lst in empty_side.prefs.values())
    assert random_sm(3, 3, 0.0, 5).acceptable_pairs == frozenset()


def test_random_query_produces_valid_queries():
    produced = 0
    for seed in range(60):
        inst = random_sr(5, 0.7, seed)
        for action in (ADD_AGENTS, DELETE_AGENTS, DELETE_ACCEPTABILITY):
            for goal_kind in ("ma", "mp", "ms", "esm", "epsm"):
                try:
                    q = random_query(inst, action, goal_kind, seed)
                except ValueError:
                    continue
                assert validate_query(q) == [], (action, goal_kind, seed)
                assert validate(q.instance) == []
                produced += 1
    assert produced > 500


def test_random_query_ms_targets_follow_convention():
    for seed in range(30):
        inst = random_sr(5, 0.6, seed)
        q = random_query(inst, DELETE_AGENTS, "ms", seed)
        assert covered_agents(q.goal.matching) == q.instance.agents
        q2 = random_query(inst, DELETE_ACCEPTABILITY, "ms", seed)
        assert q2.goal.matching <= q2.instance.acceptable_pairs


def test_random_query_errors_without_target():
    with pytest.raises(ValueError):
        random_query(random_sr(0, 0.5, 1), DELETE_AGENTS, "ma", 1)
    with pytest.raises(ValueError):
        random_query(random_sr(4, 0.0, 1), DELETE_AGENTS, "mp", 1)
