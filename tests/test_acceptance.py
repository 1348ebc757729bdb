"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The final criterion replays every exact solve recorded
by the earlier ones, so the file is meant to run as a whole.
"""

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    brute_clique,
    brute_independent_set,
    covered_agents,
    is_perfect,
    partner_map,
    prefers,
)
from stablectl.classic import (
    gale_shapley,
    irving_stable_matching,
    tan_stable_partition,
    validate_partition,
)
from stablectl.control import (
    ControlGoal,
    ControlQuery,
    apply_actions,
    goal_holds,
)
from stablectl.exact import solve_exact
from stablectl.generators import random_sm, random_sr
from stablectl.model import delete_pairs
from stablectl.poly import solve_delacc_ms, solve_delag_ma, solve_delag_mp
from stablectl.reductions import (
    clique_to_csm_addag,
    is_to_csr_addag_existssm,
    is_to_csr_addag_ms,
    make_graph,
)
from stablectl.stability import (
    blocking_pairs,
    enumerate_stable_matchings,
    is_stable,
)

# Every exact solve performed by criteria 2, 3 and 7-9, replayed by criterion 10.
RECORDED: list = []


@contextmanager
def criterion(number, note):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:2d} FAIL - {note}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {number:2d} PASS - {note} ({elapsed:.1f}s)")


def _record_exact(query, cap=20):
    outcome = solve_exact(query, cap=cap)
    RECORDED.append((query, outcome, cap))
    return outcome


def _random_matching(inst, rng):
    pairs = sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p)))
    rng.shuffle(pairs)
    used, matching = set(), set()
    for p in pairs:
        if not (p & used) and rng.random() < 0.8:
            matching.add(p)
            used |= p
    return frozenset(matching)


def test_criterion_1_delacc_ms_exactness():
    rng = random.Random(1001)
    checked = 0
    with criterion(1, "acceptability-deletion matching solver is exact"):
        for i in range(300):
            inst = random_sr(rng.randint(1, 10), rng.choice([0.3, 0.6, 1.0]), seed=10_000 + i)
            matching = _random_matching(inst, rng)
            blockers = blocking_pairs(inst, matching)
            for budget in range(5):
                out = solve_delacc_ms(inst, matching, budget)
                assert out.verdict == (len(blockers) <= budget)
                assert out.optimum == len(blockers)
                assert out.witness == blockers
                assert is_stable(delete_pairs(inst, out.witness), matching)
                checked += 1
        assert checked == 1500


def _mp_family():
    rng = random.Random(1002)
    for i in range(300):
        yield random_sr(rng.randint(2, 7), rng.choice([0.5, 0.75, 1.0]), seed=20_000 + i)


def test_criterion_2_delag_mp_matches_exact_oracle():
    pairs_checked = 0
    with criterion(2, "agent-deletion pair solver equals the exact oracle"):
        for inst in _mp_family():
            for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
                for budget in range(4):
                    fast = solve_delag_mp(inst, target, budget)
                    query = ControlQuery(
                        instance=inst, action="delag", goal=ControlGoal.mp(target), budget=budget
                    )
                    slow = _record_exact(query)
                    assert fast.verdict == slow.verdict, (inst.prefs, sorted(target), budget)
                    assert fast.optimum == slow.optimum, (inst.prefs, sorted(target), budget)
                    pairs_checked += 1
        print(f"  {pairs_checked} pair/budget combinations", end="")


def test_criterion_3_delag_ma_matches_exact_oracle():
    agents_checked = 0
    with criterion(3, "agent-deletion agent solver equals the exact oracle"):
        for inst in _mp_family():
            for target in sorted(inst.agents):
                for budget in range(4):
                    fast = solve_delag_ma(inst, target, budget)
                    query = ControlQuery(
                        instance=inst, action="delag", goal=ControlGoal.ma(target), budget=budget
                    )
                    slow = _record_exact(query)
                    assert fast.verdict == slow.verdict, (inst.prefs, target, budget)
                    assert fast.optimum == slow.optimum, (inst.prefs, target, budget)
                    agents_checked += 1
        print(f"  {agents_checked} agent/budget combinations", end="")


def _consistency_family():
    rng = random.Random(1004)
    for i in range(500):
        yield rng, random_sr(rng.randint(0, 8), rng.choice([0.3, 0.6, 1.0]), seed=30_000 + i)


def test_criterion_4_and_5_partition_engine_against_enumeration():
    solvable = 0
    with criterion(4, "stable-matching existence, partition axioms, odd-party invariance"):
        for rng, inst in _consistency_family():
            stables = enumerate_stable_matchings(inst, cap=30)
            matching = irving_stable_matching(inst)
            partition = tan_stable_partition(inst)
            assert validate_partition(inst, partition) == []
            assert (matching is not None) == bool(stables) == (not partition.odd_parties)
            if matching is not None:
                assert is_stable(inst, matching)
            odd = sorted(sorted(p) for p in partition.odd_parties)
            order = sorted(inst.agents)
            for _ in range(5):
                rng.shuffle(order)
                shuffled = tan_stable_partition(inst, order=order)
                assert validate_partition(inst, shuffled) == []
                assert sorted(sorted(p) for p in shuffled.odd_parties) == odd
            if stables:
                solvable += 1
    with criterion(5, "all stable matchings of an instance cover the same agents"):
        for rng, inst in _consistency_family():
            stables = enumerate_stable_matchings(inst, cap=30)
            if not stables:
                continue
            covers = {covered_agents(m) for m in stables}
            assert len(covers) == 1
        assert solvable > 100


def test_criterion_6_gale_shapley_proposer_optimal():
    rng = random.Random(1006)
    with criterion(6, "deferred acceptance is stable and proposer-optimal"):
        for i in range(200):
            inst = random_sm(
                rng.randint(0, 5), rng.randint(0, 5), rng.choice([0.4, 0.7, 1.0]), seed=40_000 + i
            )
            for side in ("a", "b"):
                best = gale_shapley(inst, proposing=side)
                assert is_stable(inst, best)
                mine = partner_map(best)
                for other in enumerate_stable_matchings(inst, cap=30):
                    theirs = partner_map(other)
                    for u in sorted(inst.agents):
                        if inst.side[u] != side or u not in theirs:
                            continue
                        assert u in mine  # equal coverage across stable matchings
                        assert not prefers(inst, u, theirs[u], mine[u])


def _four_vertex_graph_classes():
    """One labelled representative per isomorphism class on four vertices."""
    names = ["v1", "v2", "v3", "v4"]
    all_pairs = list(itertools.combinations(range(4), 2))
    seen, reps = set(), []
    for mask in range(2 ** len(all_pairs)):
        edges = frozenset(frozenset(p) for i, p in enumerate(all_pairs) if mask >> i & 1)
        canon = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in map(tuple, edges)))
            for perm in itertools.permutations(range(4))
        )
        if canon in seen:
            continue
        seen.add(canon)
        reps.append(
            make_graph(names, [(names[u], names[v]) for u, v in map(tuple, edges)])
        )
    return reps


def test_criterion_7_clique_reduction_roundtrip():
    with criterion(7, "clique reduction round-trips through the exact solver"):
        graphs = _four_vertex_graph_classes()
        assert len(graphs) == 11
        for graph in graphs:
            for k in range(0, 5):
                expected = brute_clique(graph, k)
                for goal_kind in ("ma", "epsm"):
                    result = clique_to_csm_addag(graph, k, goal_kind)
                    assert result.query.budget == k + k * (k - 1) // 2
                    out = _record_exact(result.query)
                    assert out.verdict == expected, (sorted(map(sorted, graph.edges)), k, goal_kind)


def _all_labelled_graphs(names):
    pairs = list(itertools.combinations(names, 2))
    for mask in range(2 ** len(pairs)):
        yield make_graph(names, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_criterion_8_independent_set_ms_reduction_roundtrip():
    rng = random.Random(1008)
    with criterion(8, "independent-set matching reduction round-trips"):
        graphs = []
        for n in (1, 2, 3):
            graphs.extend(_all_labelled_graphs([f"v{i}" for i in range(1, n + 1)]))
        names4 = ["v1", "v2", "v3", "v4"]
        pairs4 = list(itertools.combinations(names4, 2))
        for _ in range(20):
            graphs.append(make_graph(names4, [p for p in pairs4 if rng.random() < 0.5]))
        for graph in graphs:
            for k in range(0, len(graph.vertices) + 1):
                expected = brute_independent_set(graph, k)
                result = is_to_csr_addag_ms(graph, k)
                assert result.query.budget == 2 * len(graph.vertices) - k
                out = _record_exact(result.query)
                assert out.verdict == expected, (sorted(map(sorted, graph.edges)), k)


def test_criterion_9_independent_set_existence_reduction_roundtrip():
    rng = random.Random(1009)
    with criterion(9, "independent-set existence reductions round-trip, matchings perfect"):
        names5 = ["v1", "v2", "v3", "v4", "v5"]
        p5 = names5
        graphs = [
            make_graph(names5, itertools.combinations(names5, 2)),  # complete
            make_graph(names5, []),  # empty
            make_graph(names5, zip(p5, p5[1:])),  # path
            make_graph(names5, list(zip(p5, p5[1:])) + [(p5[-1], p5[0])]),  # cycle
            make_graph(names5, [(p5[0], v) for v in p5[1:]]),  # star
        ]
        for _ in range(20):
            n = rng.randint(1, 5)
            names = names5[:n]
            graphs.append(
                make_graph(
                    names,
                    [p for p in itertools.combinations(names, 2) if rng.random() < 0.5],
                )
            )
        for graph in graphs:
            for k in range(0, min(len(graph.vertices), 3) + 1):
                expected = brute_independent_set(graph, k)
                outcomes = {}
                for goal_kind in ("esm", "epsm"):
                    result = is_to_csr_addag_existssm(graph, k, goal_kind)
                    assert result.query.budget == k
                    out = _record_exact(result.query)
                    outcomes[goal_kind] = out.verdict
                    assert out.verdict == expected, (sorted(map(sorted, graph.edges)), k, goal_kind)
                    if out.verdict:
                        controlled = apply_actions(result.query, out.witness)
                        matching = irving_stable_matching(controlled)
                        assert matching is not None and is_perfect(controlled, matching)
                assert outcomes["esm"] == outcomes["epsm"]


def test_criterion_10_monotonicity_and_witness_validity():
    if not RECORDED:
        pytest.skip("needs the recorded solves of criteria 2, 3 and 7-9")
    with criterion(10, f"all {len(RECORDED)} recorded exact solves replay cleanly"):
        for query, outcome, cap in RECORDED:
            if not outcome.verdict:
                continue
            assert outcome.witness is not None and len(outcome.witness) <= query.budget
            controlled = apply_actions(query, outcome.witness)
            assert goal_holds(controlled, query.goal, action=query.action)
            # A fresh equal instance, so the re-solve searches again
            # instead of reading the first solve's memo.
            bumped = ControlQuery(
                instance=dataclasses.replace(query.instance),
                action=query.action,
                goal=query.goal,
                budget=query.budget + 1,
            )
            assert solve_exact(bumped, cap=cap).verdict
