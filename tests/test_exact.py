import dataclasses
import gc
import random
from itertools import combinations

import pytest

from helpers import (
    candidate_actions,
    count_blocking_scans,
    count_engine_calls,
    count_fixings_and_conversions,
    goal_matchings,
    listed_fewest_blockers,
    mutual_pair,
    outcome_at,
    pairs_of,
    random_query,
    subset_search,
    three_cycle,
    within,
)
from stablectl import control, exact
from stablectl.classic import tan_stable_partition
from stablectl.control import (
    ACTIONS,
    ADD_AGENTS,
    DELETE_ACCEPTABILITY,
    DELETE_AGENTS,
    GOAL_KINDS,
    ControlGoal,
    ControlOutcome,
    ControlQuery,
    apply_actions,
    goal_holds,
)
from stablectl.errors import CapExceededError, InternalError, InvalidQueryError
from stablectl.exact import solve_exact
from stablectl.generators import random_sm, random_sr
from stablectl.model import MarketCore, delete_pairs, make_instance, make_sr, pair
from stablectl.poly import solve_delacc_ms
from stablectl.reductions import (
    clique_to_csm_addag,
    is_to_csr_addag_existssm,
    is_to_csr_addag_ms,
    make_graph,
)
from stablectl.stability import DEFAULT_ENUM_CAP, blocking_pairs


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
    assert goal_holds(controlled, query.goal)


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


def test_delacc_ms_cap_counts_only_the_pairs_outside_the_target():
    answered = 0
    for seed in range(6):
        q = random_query(random_sr(5, 1.0, seed), DELETE_ACCEPTABILITY, "ms", seed)
        if not q.goal.matching:
            continue  # the cap would count every pair
        out = solve_exact(q, cap=len(q.instance.acceptable_pairs - q.goal.matching))
        fast = solve_delacc_ms(q.instance, q.goal.matching, q.budget)
        assert (out.verdict, out.optimum) == (fast.verdict, fast.optimum)
        assert out.witness == (fast.witness if fast.verdict else None)
        answered += 1
    assert answered >= 3


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
            assert goal_holds(controlled, q.goal)


def test_later_budgets_reuse_the_search(monkeypatch):
    calls = []
    real = exact.goal_test

    def counting(market, goal):
        test = real(market, goal)
        return lambda mask: calls.append((market, goal, mask)) or test(mask)

    monkeypatch.setattr(exact, "goal_test", counting)
    inst = make_sr({"a": ["b"], "b": ["a"], "x": ["y"], "y": ["x"], "z": []})
    q = ControlQuery(instance=inst, action=DELETE_AGENTS, goal=ControlGoal.ma("z"), budget=0)
    first = solve_exact(q)
    searched = len(calls)
    assert first.optimum is None and searched == 2 ** 4
    # Each subset is evaluated as a mask of core indices on the query's own market.
    index = inst.core.index
    subsets = [m for size in range(5) for m in combinations("abxy", size)]
    masks = {frozenset(index[u] for u in m) for m in subsets}
    assert all(market is inst for market, _, _ in calls) and {m for *_, m in calls} == masks
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


def test_a_memo_hit_neither_validates_nor_builds_the_universe(monkeypatch):
    # A hit answers from the memo and checks only what differs between two
    # queries that share its key: the budget's sign and the cap.
    q = ControlQuery(
        instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=1
    )
    first = solve_exact(q)
    calls = []
    for name in ("validate_query", "action_universe"):

        def spy(query, name=name, real=getattr(exact, name)):
            calls.append(name)
            return real(query)

        monkeypatch.setattr(exact, name, spy)
    assert [solve_exact(dataclasses.replace(q, budget=b)) for b in (0, 1, 5)] == [
        ControlOutcome(verdict=False, optimum=1),
        first,
        first,
    ]
    with pytest.raises(CapExceededError, match="^3 candidate actions exceed the search cap of 2$"):
        solve_exact(q, cap=2)
    assert calls == []
    with pytest.raises(InvalidQueryError, match="^budget must be non-negative$"):
        solve_exact(dataclasses.replace(q, budget=-1))
    # An unhashable goal is refused by the full check, as before the memo.
    for goal in (ControlGoal(kind="mp", pair={"a", "b"}), ControlGoal(kind="mp", pair=["a", "b"])):
        with pytest.raises(InvalidQueryError, match="is not a pair of agents$"):
            solve_exact(dataclasses.replace(q, goal=goal))


def test_delacc_ms_search_matches_a_plain_subset_loop():
    # The loop searches every acceptable pair, target pairs included, in
    # the search's order; a set that deletes a target pair fails the goal.
    def plain(q):
        candidates = sorted(q.instance.acceptable_pairs, key=lambda p: tuple(sorted(p)))
        for size in range(len(candidates) + 1):
            for combo in combinations(candidates, size):
                if q.goal.matching.isdisjoint(combo) and goal_holds(
                    delete_pairs(q.instance, combo), q.goal
                ):
                    return size, frozenset(combo)
        return None

    markets = seeded_markets(40)
    queries = [q for inst in markets for q in seeded_queries(inst, DELETE_ACCEPTABILITY, "ms", [0])]
    assert len(queries) > 30
    for q in queries:
        q = dataclasses.replace(q, budget=len(candidate_actions(q)))
        out = solve_exact(q)
        assert ((out.optimum, out.witness) if out.verdict else None) == plain(q)


def small_delacc_markets():
    """Seeded SR markets of 3-6 agents and SM markets of 2-4 per side, each of at most 7 pairs."""
    seed = 0
    while True:
        rng = random.Random(seed)
        if seed % 2:
            inst = random_sm(rng.randint(2, 4), rng.randint(2, 4), rng.choice([0.5, 0.8]), seed)
        else:
            inst = random_sr(rng.randint(3, 6), rng.choice([0.4, 0.6, 0.8]), seed)
        if len(inst.acceptable_pairs) <= 7:
            yield seed, inst
        seed += 1


def test_delacc_search_matches_the_subset_search():
    # Verdict, optimum and witness of the matching search equal those of
    # the search over pair sets, for every goal, at budgets 0-3.
    checked, optima = 0, set()
    for seed, inst in small_delacc_markets():
        for kind in GOAL_KINDS:
            try:
                q = random_query(inst, DELETE_ACCEPTABILITY, kind, seed)
            except ValueError:
                continue
            found = subset_search(q)
            for budget in range(4):
                assert solve_exact(dataclasses.replace(q, budget=budget)) == outcome_at(found, budget)
            optima.add((kind, inst.kind, found and found[0]))
            checked += 1
        if checked >= 5000:
            break
    # Every goal at optima 0 and 1 and in both kinds of market; larger and unreachable optima too.
    reached = {(kind, optimum) for kind, _, optimum in optima}
    assert all((kind, o) in reached for kind in GOAL_KINDS for o in (0, 1))
    assert {o for _, o in reached} >= {None, 2, 3, 4}
    assert {(kind, m) for kind, m, _ in optima} == {(k, m) for k in GOAL_KINDS for m in ("sr", "sm")}


# Seeded (market seed, goal) queries on which two matchings share the
# fewest blocking pairs, and the set that ``combinations`` reaches first is
# not the one whose largest candidate position is smallest.
TIED_WITNESSES = [
    (365, "mp"), (1462, "mp"), (1544, "mp"), (3951, "ma"),
    (5405, "ma"), (6948, "mp"), (7397, "ma"), (8148, "ma"),
]


@pytest.mark.parametrize("seed,kind", TIED_WITNESSES)
def test_delacc_witness_is_the_first_fewest_blocking_set_in_candidate_order(seed, kind):
    rng = random.Random(seed)
    if seed % 2:
        inst = random_sm(rng.randint(3, 4), rng.randint(3, 4), 0.6, seed)
    else:
        inst = random_sr(rng.randint(5, 8), rng.choice([0.4, 0.6]), seed)
    q = random_query(inst, DELETE_ACCEPTABILITY, kind, seed)
    q = dataclasses.replace(q, budget=len(candidate_actions(q)))
    found = subset_search(q)
    blocking_sets = {blocking_pairs(inst, m) for m in goal_matchings(q)}
    assert found[0] >= 2 and sum(len(b) == found[0] for b in blocking_sets) >= 2
    assert solve_exact(q) == outcome_at(found, q.budget)


def pairs_and_a_three_cycle(k):
    """``k`` disjoint mutual pairs a_i-b_i plus the three-cycle x: y>z, y: z>x, z: x>y.

    It has 4 * 2 ** k matchings, and its ``delacc-esm`` optimum is 1 with
    witness {x,y}.  The pairs' agents sort apart (every ``a`` before every
    ``b``), so deciding agents in index order leaves a pair's fate open
    until its ``b`` agent's turn unless the bound reads it earlier.
    """
    prefs = {"x": ["y", "z"], "y": ["z", "x"], "z": ["x", "y"]}
    for i in range(k):
        prefs[f"a{i:02d}"], prefs[f"b{i:02d}"] = [f"b{i:02d}"], [f"a{i:02d}"]
    return make_sr(prefs)


# Blocking scans of the ``delacc-esm`` search on ``pairs_and_a_three_cycle(k)``,
# k = 8..17; listing every matching makes 4 * 2 ** k.
REACH_SCANS = [110, 132, 156, 182, 210, 240, 272, 306, 342, 380]


def test_delacc_search_reaches_the_cap_in_scans_quadratic_in_k(monkeypatch):
    # k = 17 is 20 candidate pairs, the default cap.
    counts, scans = count_blocking_scans(monkeypatch), []
    for k in range(8, 18):
        q = ControlQuery(pairs_and_a_three_cycle(k), DELETE_ACCEPTABILITY, ControlGoal.esm(), 1)
        assert len(candidate_actions(q)) == k + 3
        counts["scans"] = 0
        out = within(10, solve_exact, q)
        assert out == ControlOutcome(verdict=True, optimum=1, witness=pairs_of(("x", "y")))
        scans.append(counts["scans"])
    assert scans == REACH_SCANS
    assert all(s * 8 * 8 <= REACH_SCANS[0] * k * k for k, s in zip(range(8, 18), scans))


def delacc_differential_markets():
    """Seeded SR markets of 6-9 agents and SM markets of 3-5 per side with 11-20 acceptable pairs.

    Every fourth market gets an agent ``zz`` that lists no one, so an
    ``ma`` goal on it, and ``epsm`` on a market of odd size, asks for no
    matching.
    """
    seed = 0
    while True:
        rng = random.Random(seed)
        if seed % 2:
            inst = random_sm(rng.randint(3, 5), rng.randint(3, 5), rng.choice([0.6, 0.8]), seed)
        else:
            inst = random_sr(rng.randint(6, 9), rng.choice([0.4, 0.5, 0.6]), seed)
        if seed % 4 == 3:
            side = {**inst.side, "zz": "a"} if inst.side else {}
            inst = make_instance(inst.kind, {**inst.prefs, "zz": []}, side=side)
        if 11 <= len(inst.acceptable_pairs) <= 20:
            yield seed, inst
        seed += 1


def test_delacc_search_matches_the_listing_on_markets_past_the_subset_search():
    # Verdict, optimum and witness equal the least blocking set of a goal
    # matching in the listing, by size and then sorted candidate positions.
    checked, seen, tied, unmet = 0, set(), set(), set()
    for seed, inst in delacc_differential_markets():
        queries = [random_query(inst, DELETE_ACCEPTABILITY, kind, seed) for kind in GOAL_KINDS]
        if "zz" in inst.agents:
            queries.append(ControlQuery(inst, DELETE_ACCEPTABILITY, ControlGoal.ma("zz"), 0))
        for q in queries:
            found = listed_fewest_blockers(q)
            for budget in range(4):
                assert solve_exact(dataclasses.replace(q, budget=budget)) == outcome_at(found, budget)
            kind = q.goal.kind
            seen.add((kind, inst.kind, found and found[0]))
            if found is None:
                unmet.add("odd epsm" if kind == "epsm" and len(inst.agents) % 2 else q.goal.agent)
            elif len({b for m in goal_matchings(q) if len(b := blocking_pairs(inst, m)) == found[0]}) > 1:
                tied.add(kind)
            checked += 1
        if checked >= 480:
            break
    assert {(kind, m) for kind, m, _ in seen} == {(k, m) for k in GOAL_KINDS for m in ("sr", "sm")}
    assert {o for _, _, o in seen} >= {None, 0, 1, 2, 3}
    assert tied >= {"esm", "ma", "mp", "epsm"}
    assert {"odd epsm", "zz"} <= unmet


def test_delacc_search_leaves_no_reference_cycle():
    # Reference counting frees every search: the cyclic collector, which
    # the benchmark's timed rounds turn off, finds nothing.
    inst = pairs_and_a_three_cycle(6)
    gc.collect()
    gc.disable()
    try:
        outs = [solve_exact(random_query(inst, DELETE_ACCEPTABILITY, kind, 1)) for kind in GOAL_KINDS]
        assert [o.optimum for o in outs] == [1, 1, 1, 1, None]  # ma, mp, ms, esm, epsm
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_delacc_search_runs_no_engine_and_tests_no_controlled_market(monkeypatch):
    counts = count_engine_calls(monkeypatch)
    goals = []
    monkeypatch.setattr(exact, "goal_holds", lambda *args: goals.append(args))
    inst = random_sr(6, 0.6, 261)
    for kind in GOAL_KINDS:
        solve_exact(random_query(inst, DELETE_ACCEPTABILITY, kind, 0))
    assert counts["runs"] == 0 and counts["tables"] == 1 and goals == []


def test_subset_search_builds_the_universe_once(monkeypatch):
    calls = []
    real = control.action_universe

    def counting(query):
        calls.append(query)
        return real(query)

    monkeypatch.setattr(control, "action_universe", counting)
    monkeypatch.setattr(exact, "action_universe", counting)
    inst = make_sr({"a": ["b"], "b": ["a"], "x": ["y"], "y": ["x"], "z": []})
    q = ControlQuery(instance=inst, action=DELETE_AGENTS, goal=ControlGoal.ma("z"), budget=0)
    assert solve_exact(q).optimum is None  # after all 2 ** 4 subsets
    assert len(calls) == 1
    with pytest.raises(InvalidQueryError):
        apply_actions(q, {"z"})  # every other caller still has its actions checked


@pytest.mark.parametrize("kind", ["esm", "ma", "mp", "epsm"])
def test_delacc_certificate_does_not_read_the_integer_scan(kind, monkeypatch):
    # Every blocking set is read off ``MarketCore.blocking`` and the answer
    # is certified on names: a scan that drops a pair of the witness makes
    # some matching look cheaper than the optimum, and the certificate of
    # that matching must fail.
    for seed in range(40):
        q = random_query(random_sr(6, 0.8, seed), DELETE_ACCEPTABILITY, kind, seed)
        out = solve_exact(q)
        if out.optimum:
            break
    assert out.optimum
    index = q.instance.core.index
    dropped = tuple(index[u] for u in sorted(min(subset_search(q)[1], key=sorted)))
    scan = MarketCore.blocking
    monkeypatch.setattr(
        MarketCore, "blocking", lambda core, bound: [p for p in scan(core, bound) if p != dropped]
    )
    with pytest.raises(InternalError, match="did not stabilise"):
        solve_exact(fresh(q))


def test_delacc_search_answers_up_to_the_solver_cap():
    # 28-30 candidate pairs, past the matching enumerator's own cap: the
    # solver's cap is the only refusal.
    queries = [
        random_query(random_sr(9, 0.8, 2), DELETE_ACCEPTABILITY, kind, 2)
        for kind in ("esm", "ma", "mp")
    ]
    queries.append(random_query(random_sr(8, 1.0, 19), DELETE_ACCEPTABILITY, "epsm", 19))
    for q in queries:
        q = dataclasses.replace(q, budget=2)
        assert DEFAULT_ENUM_CAP < len(candidate_actions(q)) <= 30
        found = subset_search(q)
        assert found is not None and 1 <= found[0] <= 2
        assert solve_exact(q, cap=30) == outcome_at(found, 2)
        with pytest.raises(CapExceededError):
            solve_exact(fresh(q), cap=len(candidate_actions(q)) - 1)


# The gadget queries of the benchmark's exact-desk workload: (reduction,
# goal, edges over v1-v4, k).
DESK_GADGETS = [
    ("clique", "ma", [(1, 2), (2, 3), (1, 3), (3, 4)], 3),  # paw: yes
    ("clique", "epsm", [(1, 2), (2, 3), (3, 4), (4, 1)], 3),  # 4-cycle: no
    ("is-ms", "ms", [(1, 2), (2, 3), (3, 4)], 2),  # path: yes
    ("is-exist", "esm", [(1, 2), (1, 3), (1, 4)], 3),  # star: yes
    ("is-exist", "epsm", [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)], 3),  # diamond: no
]


def desk_gadget(kind, goal, edges, k):
    graph = make_graph([f"v{i}" for i in range(1, 5)], [(f"v{a}", f"v{b}") for a, b in edges])
    if kind == "clique":
        return clique_to_csm_addag(graph, k, goal).query
    if kind == "is-ms":
        return is_to_csr_addag_ms(graph, k).query
    return is_to_csr_addag_existssm(graph, k, goal).query


def test_agent_search_matches_the_subset_search():
    # The mask search equals the oracle that builds and tests a market per
    # subset, in verdict, optimum and witness: every agent-action goal, in
    # both kinds of market, at budgets 0-3, and on the desk gadgets.  Every
    # third seed's pools are also asked with two outsiders, names that sort
    # first and last: such a query is invalid, as the model's rule words it.
    checked, seen, seed = 0, set(), 0
    while checked < 5000:
        rng = random.Random(seed)
        if seed % 2:
            inst = random_sm(rng.randint(2, 3), rng.randint(2, 3), rng.choice([0.6, 0.9]), seed)
        else:
            inst = random_sr(rng.randint(3, 6), rng.choice([0.5, 0.8]), seed)
        for action in (ADD_AGENTS, DELETE_AGENTS):
            for q in (q for kind in GOAL_KINDS for q in seeded_queries(inst, action, kind, [seed])):
                if action == ADD_AGENTS and seed % 3 == 0:
                    pool = q.instance.addable | {"0", "~"}
                    market = dataclasses.replace(q.instance, addable=pool)
                    outsiders = dataclasses.replace(q, instance=market)
                    with pytest.raises(InvalidQueryError) as raised:
                        solve_exact(outsiders)
                    assert str(raised.value) == (
                        "addable agent 0 is not part of the instance; "
                        "addable agent ~ is not part of the instance"
                    )
                found = subset_search(q)
                for budget in range(4):
                    assert solve_exact(dataclasses.replace(q, budget=budget)) == outcome_at(found, budget)
                seen.add((action, q.goal.kind, inst.kind, found and found[0]))
                checked += 1
        seed += 1
    assert {s[:3] for s in seen} == {
        (a, k, m) for a in (ADD_AGENTS, DELETE_AGENTS) for k in GOAL_KINDS for m in ("sr", "sm")
    }
    assert {s[3] for s in seen} >= {None, 0, 1, 2, 3}
    for gadget in DESK_GADGETS:
        q = desk_gadget(*gadget)
        found = subset_search(q)
        for budget in (q.budget, q.budget + 1):
            assert solve_exact(dataclasses.replace(q, budget=budget)) == outcome_at(found, budget)


def test_agent_search_builds_no_core_per_subset(monkeypatch):
    # One core for the query's market and one for the market the witness
    # certificate builds; one engine run per subset tested and one for the
    # certificate.  An ``ms`` goal is decided by the core's blocking scan,
    # by no engine, and its witness is certified on names with no core
    # built (stability.is_stable).  A subset's mask is recorded as
    # ``(mask,)``, the certificate as ``()``.
    counts = count_engine_calls(monkeypatch)
    masks = []
    real_test, real_holds = exact.goal_test, exact.goal_holds

    def recorded(market, goal):
        test = real_test(market, goal)
        return lambda mask: masks.append((mask,)) or test(mask)

    monkeypatch.setattr(exact, "goal_test", recorded)
    monkeypatch.setattr(
        exact, "goal_holds", lambda *args: masks.append(args[2:]) or real_holds(*args)
    )
    searched = set()
    for seed in range(200):
        inst = random_sr(6, 0.7, seed) if seed % 2 else random_sm(3, 3, 0.8, seed)
        for action in (ADD_AGENTS, DELETE_AGENTS):
            for q in (q for kind in GOAL_KINDS for q in seeded_queries(inst, action, kind, [seed])):
                if (action, q.goal.kind) in searched:
                    continue
                counts.update(tables=0, runs=0)
                masks.clear()
                out = solve_exact(fresh(q))
                if not out.optimum:
                    continue
                subsets = sum(1 for m in masks if m)
                assert len(masks) == subsets + 1 > 2  # every subset, then the witness
                if q.goal.kind == "ms":
                    assert (counts["tables"], counts["runs"]) == (1, 0)
                else:
                    assert (counts["tables"], counts["runs"]) == (2, subsets + 1)
                searched.add((action, q.goal.kind))
    assert len(searched) == 10


def test_a_witness_that_holds_only_as_a_mask_is_an_internal_error(monkeypatch):
    # Masks that leave the chosen agents in and take every other one out:
    # the empty market meets the goal at once, and the certificate on the
    # market that exercising the empty set builds, the three-cycle, refutes it.
    def everyone_else(query, candidates):
        core = query.instance.core
        everyone = frozenset(range(len(core.names)))
        return lambda positions: everyone - {core.index[candidates[i]] for i in positions}

    monkeypatch.setattr(exact, "masked_agents", everyone_else)
    q = ControlQuery(instance=three_cycle(), action=DELETE_AGENTS, goal=ControlGoal.esm(), budget=1)
    with pytest.raises(InternalError, match="as a mask"):
        solve_exact(q)


def test_a_search_compiles_its_goal_once(monkeypatch):
    # Cost gate, in counts rather than time: no subset converts a name to a
    # core index (classic.index_mask) or fixes a pair, and a positive mp
    # search fixes its pair twice, once for the search and once for the
    # witness certificate, while it runs the engine once per subset and
    # once for the certificate.
    counts = count_engine_calls(monkeypatch)
    work = count_fixings_and_conversions(monkeypatch)
    per_subset = {"subsets": 0, "fixings": 0, "conversions": 0}
    real_test, real_masks = exact.goal_test, exact.masked_agents

    def watched(call):
        def counted(arg):
            before = dict(work)
            out = call(arg)
            for key in ("fixings", "conversions"):
                per_subset[key] += work[key] - before[key]
            return out

        return counted

    def watched_test(market, goal):
        test = watched(real_test(market, goal))
        return lambda mask: per_subset.update(subsets=per_subset["subsets"] + 1) or test(mask)

    monkeypatch.setattr(exact, "goal_test", watched_test)
    monkeypatch.setattr(exact, "masked_agents", lambda q, names: watched(real_masks(q, names)))
    searched, most = set(), 0
    for seed in range(200):
        inst = random_sr(6, 0.7, seed) if seed % 2 else random_sm(3, 3, 0.8, seed)
        for action in (ADD_AGENTS, DELETE_AGENTS):
            for q in (q for kind in GOAL_KINDS for q in seeded_queries(inst, action, kind, [seed])):
                counts.update(tables=0, runs=0)
                work.update(fixings=0, conversions=0)
                per_subset.update(subsets=0, fixings=0, conversions=0)
                out = solve_exact(fresh(q))
                assert per_subset["fixings"] == per_subset["conversions"] == 0
                # At most one conversion to compile a goal (an mp pair), one
                # for the pool, and two for the certificate (its empty mask
                # and its goal): none grows with the subsets.
                assert work["conversions"] <= 4
                most = max(most, per_subset["subsets"])
                if q.goal.kind == "mp" and out.optimum:
                    assert work["fixings"] == 2 and counts["runs"] == per_subset["subsets"] + 1 > 2
                    searched.add(action)
    assert searched == {ADD_AGENTS, DELETE_AGENTS} and most > 6
