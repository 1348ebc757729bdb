"""Cross-cutting edge cases: bipartite solvers, gadget files, multi-party markets."""

import random

from helpers import pairs_of, singletons
from stablectl.classic import irving_stable_matching, tan_stable_partition
from stablectl.control import ControlGoal, ControlQuery, DELETE_AGENTS
from stablectl.exact import solve_exact
from stablectl.generators import random_sm
from stablectl.model import (
    delete_agents,
    delete_pairs,
    make_sr,
    pair,
    parse_instance,
    serialize_instance,
)
from stablectl.poly import solve_delag_ma, solve_delag_mp
from stablectl.reductions import is_to_csr_addag_existssm, make_graph


def test_delag_solvers_on_marriage_instances_match_exact():
    rng = random.Random(91)
    for seed in range(40):
        inst = random_sm(rng.randint(1, 3), rng.randint(1, 3), 0.9, seed)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            for budget in (0, 1, 2):
                fast = solve_delag_mp(inst, target, budget)
                slow = solve_exact(
                    ControlQuery(
                        instance=inst,
                        action=DELETE_AGENTS,
                        goal=ControlGoal.mp(target),
                        budget=budget,
                    )
                )
                assert (fast.verdict, fast.optimum) == (slow.verdict, slow.optimum)
        for agent in sorted(inst.agents):
            fast = solve_delag_ma(inst, agent, 1)
            slow = solve_exact(
                ControlQuery(
                    instance=inst, action=DELETE_AGENTS, goal=ControlGoal.ma(agent), budget=1
                )
            )
            assert (fast.verdict, fast.optimum) == (slow.verdict, slow.optimum)


def test_marriage_partitions_never_have_large_odd_parties():
    # Odd parties of size >= 3 would be odd cycles in a bipartite graph.
    rng = random.Random(92)
    for seed in range(60):
        inst = random_sm(rng.randint(0, 5), rng.randint(0, 5), 0.8, seed)
        assert tan_stable_partition(inst).odd_parties == ()
        assert irving_stable_matching(inst) is not None


def test_serialized_existence_gadget_parses_back():
    gadget = is_to_csr_addag_existssm(make_graph(["v"], []), 1).query.instance
    parsed = parse_instance(serialize_instance(gadget))
    assert parsed == gadget
    assert parsed.agents == {"v", "s_1", "ai_1", "bi_1"}
    assert parsed.addable == {"v"}


def test_deletions_preserve_kind_and_sides():
    inst = random_sm(3, 3, 1.0, 5)
    smaller = delete_agents(inst, {"m00"})
    assert smaller.kind == "sm"
    assert set(smaller.side) == smaller.agents
    assert smaller.side["w00"] == "b"
    trimmed = delete_pairs(inst, {pair("m01", "w01")})
    assert trimmed.kind == "sm" and trimmed.side == inst.side


def _disjoint_triangles(count):
    prefs = {}
    for t in range(count):
        a, b, c = (f"t{t}{x}" for x in "abc")
        prefs[a] = [b, c]
        prefs[b] = [c, a]
        prefs[c] = [a, b]
    return make_sr(prefs)


def test_many_odd_parties_count_and_cost():
    inst = _disjoint_triangles(3)
    partition = tan_stable_partition(inst)
    assert len(partition.odd_parties) == 3
    # Making one triangle's pair stable-matched still costs one deletion in
    # each of the three independently blocked triangles.
    out = solve_delag_mp(inst, pair("t0a", "t0b"), budget=3)
    assert out.verdict and out.optimum == 3
    assert len(out.witness) == 3 and not out.witness & {"t0a", "t0b"}


def test_pair_solver_full_deletion_budget_always_succeeds():
    rng = random.Random(93)
    for seed in range(30):
        from stablectl.generators import random_sr

        inst = random_sr(rng.randint(2, 7), 0.6, seed)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            out = solve_delag_mp(inst, target, budget=len(inst.agents) - 2)
            assert out.verdict  # deleting everyone else always works


def test_partition_on_disconnected_mixture():
    inst = make_sr(
        {
            "a": ["b"],
            "b": ["a"],
            "p": ["q", "r"],
            "q": ["r", "p"],
            "r": ["p", "q"],
            "z": [],
        }
    )
    partition = tan_stable_partition(inst)
    assert ("a", "b") in partition.parties
    assert ("p", "q", "r") in partition.parties
    assert singletons(partition) == {"z"}
    assert irving_stable_matching(inst) is None
    assert irving_stable_matching(delete_agents(inst, {"p"})) == pairs_of(("a", "b"), ("q", "r"))
