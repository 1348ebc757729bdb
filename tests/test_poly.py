import hashlib
import random

import pytest

from helpers import (
    all_alone,
    count_engine_calls,
    delete_a_matched_agent,
    delete_an_unknown_agent,
    drop_a_matched_pair,
    fault_the_engine,
    fault_the_witness,
    match_an_agent_twice,
    mutual_pair,
    pairs_of,
    prefers,
    random_query,
    singletons,
    stars,
    three_cycle,
)
from stablectl import classic, poly
from stablectl.control import (
    ACTIONS,
    ADD_AGENTS,
    DELETE_AGENTS,
    GOAL_KINDS,
    ControlGoal,
    ControlQuery,
)
from stablectl.errors import InternalError, InvalidInstanceError, InvalidQueryError
from stablectl.exact import solve_exact
from stablectl.generators import random_sm, random_sr
from stablectl.model import delete_agents, delete_pairs, make_instance, make_sr, pair, validate
from stablectl.poly import (
    POLY_PROBLEMS,
    POLY_SOLVERS,
    fixing_deletions,
    solve_delacc_ms,
    solve_delag_ma,
    solve_delag_mp,
)
from stablectl.stability import blocking_pairs, enumerate_stable_matchings, is_stable


# -- fixing_deletions --------------------------------------------------------


def test_fixing_mutual_top_pair_deletes_nothing():
    ctx = fixing_deletions(mutual_pair(), "a", "b")
    assert stars(ctx) == (frozenset(), frozenset())
    assert mutual_pair().acceptable_pairs - ctx.reduced.acceptable_pairs == frozenset()
    assert ctx.reduced == mutual_pair()


def test_fixing_three_cycle():
    ctx = fixing_deletions(three_cycle(), "a", "b")
    assert stars(ctx) == (frozenset(), {"c"})
    assert three_cycle().acceptable_pairs - ctx.reduced.acceptable_pairs == pairs_of(("b", "c"))


def test_fixing_with_competition_on_target_side():
    inst = make_sr({"a": ["c", "b"], "b": ["a"], "c": ["a"]})
    ctx = fixing_deletions(inst, "a", "b")
    assert stars(ctx) == ({"c"}, frozenset())
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
            for x in stars(ctx)[0]:
                for y in ctx.reduced.prefs[x]:
                    assert y != a and not prefers(inst, x, a, y)


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
            a_star = {x for x in inst.prefs[a] if prefers(inst, a, x, b)}
            b_star = {x for x in inst.prefs[b] if prefers(inst, b, x, a)}
            # {x, y} goes when x is in a star and y is that star's endpoint
            # or an agent x ranks below it.
            doomed = {
                pair(x, y)
                for star, anchor in ((a_star, a), (b_star, b))
                for x in star
                for y in inst.prefs[x]
                if y == anchor or prefers(inst, x, anchor, y)
            }
            ctx = fixing_deletions(inst, a, b)
            assert stars(ctx) == (a_star, b_star)
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
            for party in diag.partition.odd_parties:
                assert a not in party and b not in party
            assert diag.forbidden_singletons <= frozenset().union(*stars(ctx))
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
        interested = frozenset().union(*stars(ctx))
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


def test_ma_names_at_most_one_partition(monkeypatch):
    # Every partner's partition is read as integers; only the answer is named.
    named = []
    post_init = classic.StablePartition.__post_init__

    def counted(partition):
        named.append(partition)
        post_init(partition)

    monkeypatch.setattr(classic.StablePartition, "__post_init__", counted)
    counts = count_engine_calls(monkeypatch)
    inst = random_sr(20, 1.0, 5)
    out = solve_delag_ma(inst, "u00", budget=len(inst.agents))
    assert out.verdict and counts["runs"] == 19
    assert len(named) <= 1


def test_engine_fault_in_the_pair_read_off_is_an_internal_error(monkeypatch):
    fault_the_engine(monkeypatch, all_alone)
    with pytest.raises(InternalError, match="invalid partition: pair a,b blocks"):
        solve_delag_mp(three_cycle(), pair("a", "b"), 3)


@pytest.mark.parametrize(
    "fault, message",
    [
        (drop_a_matched_pair, "^witness matching is unstable in the controlled instance$"),
        (delete_a_matched_agent, "^witness matching is unstable in the controlled instance$"),
        (match_an_agent_twice, "^witness matching is not a matching of the instance: "),
        (delete_an_unknown_agent, "^malformed deletion witness$"),
    ],
)
def test_a_faulty_witness_fails_the_certificate(fault, message, monkeypatch):
    # Deleting u03 puts {u00,u02} into the stable matching {u00,u02} {u01,u04}.
    inst = random_sr(5, 0.8, 0)
    assert solve_delag_mp(inst, pair("u00", "u02"), 5).witness == {"u03"}
    fault_the_witness(monkeypatch, "u00", fault)
    with pytest.raises(InternalError, match=message):
        solve_delag_mp(inst, pair("u00", "u02"), 5)
    with pytest.raises(InternalError, match=message):
        solve_delag_ma(inst, "u00", 5)


def test_stability_without_a_witness_agrees_with_the_controlled_instance():
    # ``is_stable`` with deleted agents must say what rebuilding the
    # controlled instance says; a matched agent that is deleted leaves no
    # matching of the controlled instance, which counts as unstable.
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    for seed in range(2000):
        n = rng.randint(4, 40)
        if seed % 2:
            inst = random_sr(n, rng.choice([0.15, 0.4, 0.8]), seed)
        else:
            inst = random_sm(n // 2, n - n // 2, rng.choice([0.2, 0.5, 1.0]), seed)
        agents = sorted(inst.agents)
        deleted = frozenset(rng.sample(agents, rng.randint(0, n // 3)))
        matching = (
            classic.irving_stable_matching(delete_agents(inst, deleted)) if seed % 3 else None
        )
        if matching is None:
            pairs = sorted(inst.acceptable_pairs, key=sorted)
            rng.shuffle(pairs)
            used, chosen = set(), set()
            for p in pairs[: rng.randint(0, len(pairs))]:
                if not p & used:
                    chosen.add(p)
                    used |= p
            matching = frozenset(chosen)
        if seed % 5 == 0:
            deleted = frozenset(rng.sample(agents, rng.randint(0, n // 3)))
        try:
            expected = is_stable(delete_agents(inst, deleted), matching)
        except ValueError:  # a matched pair meets the deleted agents
            expected = False
        assert is_stable(inst, matching, deleted_agents=deleted) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 400


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
            rule = {min(p) for p in diag.partition.odd_parties} | diag.forbidden_singletons
            assert out.verdict and out.witness == rule
            rest = classic.tan_stable_partition(delete_agents(ctx.reduced, out.witness))
            assert rest.odd_parties == ()
            assert not singletons(rest) & (frozenset().union(*stars(ctx)) - out.witness)
            checked += 1
    assert checked >= 200


# SHA-256 over the delag-mp and delag-ma outcomes of the corpus below,
# computed with a diagnosis that named every partition it read, so the
# integer read-off must give the same answers.
DIAGNOSIS_DIGEST = "856e53f68b2900c4a27047884c7c2e56e615f62d0795e0c59a0bfa885b3c480c"


def test_diagnosis_matches_the_named_partition_of_the_fixed_market():
    # Far beyond the exact oracle's reach: complete and sparse markets of
    # 10-60 agents, where the cost, witness and matching read off the
    # engine's successor list must be what the named partition of the
    # fixed market built as an instance gives.
    rng = random.Random(19)
    digest = hashlib.sha256()
    fixings = 0
    for seed in range(64):
        n = rng.randint(10, 60)
        inst = random_sr(n, 1.0 if seed % 2 else rng.choice((0.1, 0.25, 0.5)), seed)
        pairs = sorted(tuple(sorted(p)) for p in inst.acceptable_pairs)
        for a, b in rng.sample(pairs, min(36, len(pairs))):
            ctx = fixing_deletions(inst, a, b)
            diag = classic.diagnose_fixed_instance(ctx)
            partition = classic.tan_stable_partition(ctx.reduced)
            dropped, matching = classic.partition_to_matching(ctx.reduced, partition)
            la, lb = inst.prefs[a], inst.prefs[b]
            forbidden = singletons(partition) & set(la[: la.index(b)] + lb[: lb.index(a)])
            assert diag.partition == partition
            assert diag.forbidden_singletons == forbidden
            assert diag.cost == len(partition.odd_parties) + len(forbidden)
            assert diag.witness() == (dropped | forbidden, matching)
            budget = rng.choice((0, 3, n))
            out = solve_delag_mp(inst, frozenset((a, b)), budget)
            witness = " ".join(sorted(out.witness or ()))
            digest.update(f"{seed} mp {a},{b} {budget} {out.verdict} {out.optimum} {witness}\n".encode())
            fixings += 1
        for agent in rng.sample(sorted(inst.agents), 2):
            budget = rng.choice((0, 3, n))
            out = solve_delag_ma(inst, agent, budget)
            witness = " ".join(sorted(out.witness or ()))
            digest.update(f"{seed} ma {agent} {budget} {out.verdict} {out.optimum} {witness}\n".encode())
    assert fixings >= 2000
    assert digest.hexdigest() == DIAGNOSIS_DIGEST


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


def test_delacc_ms_certificate_catches_a_missing_blocker(monkeypatch):
    # A witness that leaves one blocking pair in place must fail the
    # certificate, which decides stability without the witness afresh.
    inst = random_sr(12, 0.6, 5)
    matching = frozenset()
    blockers = blocking_pairs(inst, matching)
    assert len(blockers) >= 2
    kept = min(blockers, key=sorted)
    monkeypatch.setattr(poly, "blocking_pairs", lambda i, m: blocking_pairs(i, m) - {kept})
    with pytest.raises(InternalError, match="did not stabilise$"):
        solve_delacc_ms(inst, matching, len(blockers))


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
    assert POLY_PROBLEMS == frozenset(POLY_SOLVERS)
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


@pytest.mark.parametrize("method", ["auto", "exact"])
@pytest.mark.parametrize("action", ACTIONS)
def test_solve_rejects_a_malformed_market_under_a_matching_goal(action, method):
    # a lists c, but c does not list a back; {ab, cd} is stable where that entry is ignored.
    prefs = {"a": ["b", "c"], "b": ["a", "d"], "c": ["d"], "d": ["c", "b"]}
    inst = make_sr(prefs, addable=["d"] if action == ADD_AGENTS else [])
    query = ControlQuery(inst, action, ControlGoal.ms(pairs_of("ab", "cd")), 1)
    with pytest.raises(InvalidInstanceError, match="asymmetric acceptability between a and c"):
        poly.solve(query, method=method)


@pytest.mark.parametrize("method", ["auto", "poly", "exact"])
def test_solve_rejects_a_malformed_market_under_an_agent_goal_without_partners(method):
    # b lists c, but c does not list b back; the target a has no partner at all.
    inst = make_sr({"a": [], "b": ["c"], "c": []})
    query = ControlQuery(inst, DELETE_AGENTS, ControlGoal.ma("a"), 1)
    with pytest.raises(InvalidInstanceError, match="asymmetric acceptability between b and c"):
        poly.solve(query, method=method)


# Markets whose only broken list is that of the pool agent d.
MALFORMED_POOLS = {
    "not-listed-back": {"a": ["b"], "b": ["a"], "d": ["a"]},
    "unknown-agent": {"a": ["b"], "b": ["a"], "d": ["z"]},
    "self-listed": {"a": ["b"], "b": ["a"], "d": ["d"]},
    "repeat": {"a": ["b", "d"], "b": ["a"], "d": ["a", "a"]},
}


@pytest.mark.parametrize("method", ["auto", "exact"])
@pytest.mark.parametrize("market", sorted(MALFORMED_POOLS))
def test_solve_rejects_a_market_whose_only_broken_list_is_in_the_pool(market, method):
    # Without d the market is well-formed, and the search starts there.
    prefs = MALFORMED_POOLS[market]
    goals = {
        "ma": ControlGoal.ma("a"),
        "mp": ControlGoal.mp(pair("a", "b")),
        "ms": ControlGoal.ms(pairs_of("ab")),
        "esm": ControlGoal.esm(),
        "epsm": ControlGoal.epsm(),
    }
    assert sorted(goals) == sorted(GOAL_KINDS)
    for action in ACTIONS:
        inst = make_sr(prefs, addable=["d"] if action == ADD_AGENTS else [])
        for kind, goal in goals.items():
            with pytest.raises(InvalidInstanceError) as info:
                poly.solve(ControlQuery(inst, action, goal, 1), method=method)
            assert info.value.violations == validate(inst), (action, kind)


@pytest.mark.parametrize("action,kind", sorted(POLY_PROBLEMS))
def test_solve_poly_and_exact_agree_on_the_optimum(action, kind):
    for q in small_queries(action, kind, count=12):
        fast = poly.solve(q, method="poly")
        slow = poly.solve(q, method="exact")
        assert fast.optimum == slow.optimum
        assert fast.verdict == slow.verdict
        assert poly.solve(q) == fast
