import random

import pytest

from helpers import (
    all_alone,
    count_engine_calls,
    fault_the_engine,
    mutual_pair,
    pairs_of,
    three_cycle,
)
from stablectl import classic, poly
from stablectl.control import ACTIONS, DELETE_AGENTS, GOAL_KINDS, ControlGoal, ControlQuery
from stablectl.errors import InternalError, InvalidQueryError
from stablectl.exact import solve_exact
from stablectl.generators import random_query, random_sm, random_sr
from stablectl.model import delete_agents, delete_pairs, make_instance, make_sr, pair
from stablectl.poly import (
    POLY_PROBLEMS,
    fixing_deletions,
    solve_delacc_ms,
    solve_delag_ma,
    solve_delag_mp,
)
from stablectl.stability import enumerate_stable_matchings, is_stable


# -- fixing_deletions --------------------------------------------------------


def test_fixing_mutual_top_pair_deletes_nothing():
    ctx = fixing_deletions(mutual_pair(), "a", "b")
    assert ctx.a_star == frozenset() and ctx.b_star == frozenset()
    assert mutual_pair().acceptable_pairs - ctx.reduced.acceptable_pairs == frozenset()
    assert ctx.reduced == mutual_pair()


def test_fixing_three_cycle():
    ctx = fixing_deletions(three_cycle(), "a", "b")
    assert ctx.a_star == frozenset()
    assert ctx.b_star == {"c"}
    assert three_cycle().acceptable_pairs - ctx.reduced.acceptable_pairs == pairs_of(("b", "c"))


def test_fixing_with_competition_on_target_side():
    inst = make_sr({"a": ["c", "b"], "b": ["a"], "c": ["a"]})
    ctx = fixing_deletions(inst, "a", "b")
    assert ctx.a_star == {"c"} and ctx.b_star == frozenset()
    assert inst.acceptable_pairs - ctx.reduced.acceptable_pairs == pairs_of(("a", "c"))


def test_fixing_rejects_unacceptable_pair():
    with pytest.raises(ValueError):
        fixing_deletions(make_sr({"a": [], "b": []}), "a", "b")


def test_fixing_makes_target_mutually_top():
    rng = random.Random(23)
    for seed in range(60):
        inst = random_sr(rng.randint(2, 7), 0.8, seed)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            a, b = sorted(target)
            ctx = fixing_deletions(inst, a, b)
            assert ctx.reduced.prefs[a][0] == b
            assert ctx.reduced.prefs[b][0] == a
            assert target not in inst.acceptable_pairs - ctx.reduced.acceptable_pairs
            # Agents that outrank the target hold no options below it.
            for x in ctx.a_star:
                for y in ctx.reduced.prefs[x]:
                    assert y != a and not inst.prefers(x, a, y)


def test_fixing_matches_the_pairwise_rule():
    # Sparse to complete SR and SM markets, each with its generated
    # (shuffled) lists and with every list sorted by name.
    markets = []
    for seed in range(16):
        density = 0.5 + seed % 4 / 6
        inst = random_sr(9, density, seed) if seed % 2 else random_sm(4, 5, density, seed)
        ordered = {u: sorted(lst) for u, lst in inst.prefs.items()}
        markets += [inst, make_instance(inst.kind, ordered, inst.side)]
    for inst in markets:
        for target in sorted(inst.acceptable_pairs, key=sorted):
            a, b = sorted(target)
            a_star = {x for x in inst.prefs[a] if inst.prefers(a, x, b)}
            b_star = {x for x in inst.prefs[b] if inst.prefers(b, x, a)}
            # {x, y} goes when x is in a star and y is that star's endpoint
            # or an agent x ranks below it.
            doomed = {
                pair(x, y)
                for star, anchor in ((a_star, a), (b_star, b))
                for x in star
                for y in inst.prefs[x]
                if y == anchor or inst.prefers(x, anchor, y)
            }
            ctx = fixing_deletions(inst, a, b)
            assert (ctx.a_star, ctx.b_star) == (a_star, b_star)
            assert ctx.reduced == delete_pairs(inst, doomed)


def test_diagnosis_never_implicates_the_target_pair():
    from stablectl.poly import diagnose_fixed_instance

    rng = random.Random(24)
    for seed in range(40):
        inst = random_sr(rng.randint(2, 7), 0.7, seed)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            a, b = sorted(target)
            ctx = fixing_deletions(inst, a, b)
            diag = diagnose_fixed_instance(ctx)
            for party in diag.partition.odd_parties():
                assert a not in party and b not in party
            assert diag.forbidden_singletons <= (ctx.a_star | ctx.b_star)
            assert not diag.forbidden_singletons & {a, b}


# -- solve_delag_mp ----------------------------------------------------------


def test_mp_mutual_pair_needs_nothing():
    out = solve_delag_mp(mutual_pair(), pair("a", "b"), 0)
    assert out.verdict and out.optimum == 0 and out.witness == frozenset()


def test_mp_three_cycle():
    out0 = solve_delag_mp(three_cycle(), pair("a", "b"), 0)
    assert not out0.verdict and out0.optimum == 1
    out1 = solve_delag_mp(three_cycle(), pair("a", "b"), 1)
    assert out1.verdict and out1.optimum == 1 and out1.witness == {"c"}


def test_mp_competition_example():
    inst = make_sr({"a": ["c", "b"], "b": ["a"], "c": ["a"]})
    out = solve_delag_mp(inst, pair("a", "b"), 1)
    assert out.verdict and out.optimum == 1 and out.witness == {"c"}


def test_mp_witness_excludes_target_endpoints():
    rng = random.Random(29)
    for seed in range(40):
        inst = random_sr(rng.randint(2, 7), 0.9, seed)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            out = solve_delag_mp(inst, target, budget=len(inst.agents))
            assert out.verdict
            assert not (out.witness & target)
            controlled = delete_agents(inst, out.witness)
            assert any(
                target in m for m in enumerate_stable_matchings(controlled, cap=30)
            )


def test_claim_one_characterisation_via_enumeration():
    # A deletion set works exactly when the fixed instance minus the set
    # has a stable matching covering the surviving interested agents.
    import itertools

    rng = random.Random(31)
    for seed in range(25):
        inst = random_sr(rng.randint(2, 6), 0.8, seed)
        targets = sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p)))
        if not targets:
            continue
        target = targets[seed % len(targets)]
        a, b = sorted(target)
        ctx = fixing_deletions(inst, a, b)
        interested = ctx.a_star | ctx.b_star
        others = sorted(inst.agents - target)
        for size in range(0, min(3, len(others)) + 1):
            for combo in itertools.combinations(others, size):
                deleted = frozenset(combo)
                works = any(
                    target in m
                    for m in enumerate_stable_matchings(delete_agents(inst, deleted), cap=30)
                )
                reduced = delete_agents(ctx.reduced, deleted)
                characterised = any(
                    interested - deleted <= {u for p in m for u in p}
                    for m in enumerate_stable_matchings(reduced, cap=30)
                )
                assert works == characterised


def test_mp_agrees_with_exact_small():
    rng = random.Random(37)
    for seed in range(30):
        inst = random_sr(rng.randint(2, 6), 0.9, seed)
        for target in sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p))):
            for budget in (0, 1, 2):
                fast = solve_delag_mp(inst, target, budget)
                query = ControlQuery(
                    instance=inst, action=DELETE_AGENTS, goal=ControlGoal.mp(target), budget=budget
                )
                slow = solve_exact(query)
                assert fast.verdict == slow.verdict
                assert fast.optimum == slow.optimum


# -- solve_delag_ma ----------------------------------------------------------


def test_ma_examples():
    assert solve_delag_ma(mutual_pair(), "a", 0).verdict
    out0 = solve_delag_ma(three_cycle(), "a", 0)
    assert not out0.verdict and out0.optimum == 1
    out1 = solve_delag_ma(three_cycle(), "a", 1)
    assert out1.verdict and out1.optimum == 1


def test_ma_agent_without_partners():
    inst = make_sr({"a": ["b"], "b": ["a"], "z": []})
    out = solve_delag_ma(inst, "z", 5)
    assert not out.verdict and out.optimum is None and out.witness is None


def test_ma_unknown_agent():
    with pytest.raises(ValueError):
        solve_delag_ma(mutual_pair(), "zz", 0)


def test_ma_picks_cheapest_partner():
    rng = random.Random(41)
    for seed in range(30):
        inst = random_sr(rng.randint(2, 6), 0.9, seed)
        for agent in sorted(inst.agents):
            out = solve_delag_ma(inst, agent, budget=len(inst.agents))
            if not inst.prefs[agent]:
                assert out.optimum is None
                continue
            best = min(
                solve_delag_mp(inst, frozenset((agent, partner)), len(inst.agents)).optimum
                for partner in inst.prefs[agent]
            )
            assert out.optimum == best


def test_mp_fixes_and_partitions_once(monkeypatch):
    counts = count_engine_calls(monkeypatch)
    inst = random_sr(40, 0.25, 7)
    target = min(inst.acceptable_pairs, key=sorted)
    out = solve_delag_mp(inst, target, budget=len(inst.agents))
    assert out.verdict
    assert counts == {"tables": 1, "runs": 1}


def test_ma_fixes_and_partitions_each_partner_once(monkeypatch):
    counts = count_engine_calls(monkeypatch)
    inst = random_sr(40, 0.25, 7)
    target = max(sorted(inst.agents), key=lambda u: len(inst.prefs[u]))
    k = len(inst.prefs[target])
    out = solve_delag_ma(inst, target, budget=len(inst.agents))
    assert k >= 5 and out.verdict
    # One table for the market, one engine run per partner.
    assert counts == {"tables": 1, "runs": k}


def test_engine_fault_in_the_pair_read_off_is_an_internal_error(monkeypatch):
    fault_the_engine(monkeypatch, all_alone)
    with pytest.raises(InternalError, match="invalid partition: pair a,b blocks"):
        solve_delag_mp(three_cycle(), pair("a", "b"), 3)


def test_witness_follows_the_partition_rule_and_clears_the_fixed_instance():
    # The witness is one member (the smallest) of each odd party plus the
    # forbidden singletons, and a fresh partition of the fixed instance
    # minus the witness leaves no odd party and no interested agent alone.
    markets = []
    for seed in range(24):
        density = (0.4, 0.7, 1.0)[seed % 3]
        if seed % 2:
            markets.append(random_sr(3 + seed % 6, density, seed))
        else:
            markets.append(random_sm(2 + seed % 3, 3 + seed % 2, density, seed))
    assert any(all(len(i.prefs[u]) == len(i.agents) - 1 for u in i.agents) for i in markets)
    checked = 0
    for inst in markets:
        for target in sorted(inst.acceptable_pairs, key=sorted):
            a, b = sorted(target)
            ctx = fixing_deletions(inst, a, b)
            diag = classic.diagnose_fixed_instance(ctx)
            out = solve_delag_mp(inst, target, budget=len(inst.agents))
            rule = {min(p) for p in diag.partition.odd_parties()} | diag.forbidden_singletons
            assert out.verdict and out.witness == rule
            rest = classic.tan_stable_partition(delete_agents(ctx.reduced, out.witness))
            assert rest.odd_parties() == ()
            assert not rest.singletons & ((ctx.a_star | ctx.b_star) - out.witness)
            checked += 1
    assert checked >= 200


# -- solve_delacc_ms ---------------------------------------------------------


def test_delacc_ms_stable_matching_needs_nothing():
    out = solve_delacc_ms(mutual_pair(), pairs_of(("a", "b")), 0)
    assert out.verdict and out.optimum == 0 and out.witness == frozenset()


def test_delacc_ms_single_blocker():
    inst = make_sr(
        {"u1": ["u2", "u3"], "u2": ["u1", "u4"], "u3": ["u1"], "u4": ["u2"]}
    )
    matching = pairs_of(("u1", "u3"), ("u2", "u4"))
    out0 = solve_delacc_ms(inst, matching, 0)
    assert not out0.verdict and out0.optimum == 1
    assert out0.witness == pairs_of(("u1", "u2"))
    out1 = solve_delacc_ms(inst, matching, 1)
    assert out1.verdict
    assert is_stable(delete_pairs(inst, out1.witness), matching)


def test_delacc_ms_counts_blockers_exactly():
    from stablectl.stability import blocking_pairs

    rng = random.Random(43)
    for seed in range(60):
        inst = random_sr(rng.randint(0, 8), rng.choice([0.4, 0.9]), seed)
        matchings = list(enumerate_stable_matchings(inst, cap=30)) or [frozenset()]
        matching = next(iter(matchings))
        for budget in (0, 1, 3):
            out = solve_delacc_ms(inst, matching, budget)
            blockers = blocking_pairs(inst, matching)
            assert out.optimum == len(blockers)
            assert out.verdict == (len(blockers) <= budget)
            assert out.witness == blockers


# -- solve (dispatch) ----------------------------------------------------------

ALL_PROBLEMS = [(action, kind) for action in ACTIONS for kind in GOAL_KINDS]
OTHER_PROBLEMS = [p for p in ALL_PROBLEMS if p not in POLY_PROBLEMS]


def small_queries(action, kind, count=4):
    """Seeded queries of one kind on 4-6 agent markets, skipping seeds without a target."""
    out = []
    seed = 0
    while len(out) < count:
        inst = random_sr(4 + seed % 3, 0.6, seed)
        try:
            out.append(random_query(inst, action, kind, seed))
        except ValueError:
            pass
        seed += 1
    return out


def test_poly_problems_are_the_three_tractable_ones():
    assert POLY_PROBLEMS == {("delag", "mp"), ("delag", "ma"), ("delacc", "ms")}
    assert len(ALL_PROBLEMS) == 15 and len(OTHER_PROBLEMS) == 12


@pytest.mark.parametrize("action,kind", ALL_PROBLEMS)
def test_solve_auto_uses_poly_exactly_for_poly_problems(action, kind, monkeypatch):
    called = []

    def recording(name):
        original = getattr(poly, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("solve_delag_mp", "solve_delag_ma", "solve_delacc_ms", "solve_exact"):
        monkeypatch.setattr(poly, name, recording(name))
    expected = f"solve_{action}_{kind}" if (action, kind) in POLY_PROBLEMS else "solve_exact"
    for q in small_queries(action, kind):
        called.clear()
        poly.solve(q)
        assert called[0] == expected
        assert ("solve_exact" in called) == (expected == "solve_exact")


@pytest.mark.parametrize("action,kind", OTHER_PROBLEMS)
def test_solve_poly_rejects_problems_without_a_poly_solver(action, kind):
    for q in small_queries(action, kind, count=2):
        with pytest.raises(InvalidQueryError, match="no polynomial solver"):
            poly.solve(q, method="poly")


def test_solve_rejects_an_unknown_method():
    q = small_queries("delag", "mp", count=1)[0]
    with pytest.raises(ValueError, match="unknown method"):
        poly.solve(q, method="fast")


@pytest.mark.parametrize("action,kind", sorted(POLY_PROBLEMS))
def test_solve_poly_and_exact_agree_on_the_optimum(action, kind):
    for q in small_queries(action, kind, count=12):
        fast = poly.solve(q, method="poly")
        slow = poly.solve(q, method="exact")
        assert fast.optimum == slow.optimum
        assert fast.verdict == slow.verdict
        assert poly.solve(q) == fast
