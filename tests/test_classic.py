import hashlib
import operator
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_alone,
    all_small_sr_instances,
    bench_module,
    count_engine_calls,
    covered_agents,
    drop_half_the_worklist,
    drop_one_proposer,
    fault_the_engine,
    fault_the_proposals,
    four_agent_unsolvable,
    mutual_pair,
    paired_triangles,
    pairs_of,
    partner_map,
    prefers,
    random_sr_instance,
    singletons,
    skip_proposals,
    spurious_odd_party,
    three_cycle,
    top_pair_and_loner,
    two_by_two_sm,
    within,
)
from stablectl import classic
from stablectl.classic import (
    StablePartition,
    diagnose,
    diagnose_fixed_instance,
    fixing_deletions,
    gale_shapley,
    irving_stable_matching,
    pair_fixing_cost,
    partition_to_matching,
    partner_fixings,
    render_partition,
    tan_stable_partition,
    validate_partition,
)
from stablectl.control import ControlGoal, ControlQuery
from stablectl.errors import InternalError, InvalidInstanceError
from stablectl.generators import random_sm, random_sr
from stablectl.model import make_sm, make_sr, pair, validate
from stablectl.poly import solve, solve_delag_ma, solve_delag_mp
from stablectl.stability import enumerate_stable_matchings, is_stable


# -- gale_shapley -----------------------------------------------------------


def test_gs_empty_instance():
    inst = make_sm({}, side={})
    assert gale_shapley(inst) == frozenset()


def test_gs_mutual_first_choices_are_forced():
    inst = make_sm(
        {"m1": ["w1"], "m2": ["w2"], "w1": ["m1"], "w2": ["m2"]},
        side={"m1": "a", "m2": "a", "w1": "b", "w2": "b"},
    )
    assert gale_shapley(inst) == pairs_of(("m1", "w1"), ("m2", "w2"))


def test_gs_two_by_two_unique_stable_matching():
    expected = pairs_of(("m1", "w2"), ("m2", "w1"))
    assert gale_shapley(two_by_two_sm(), proposing="a") == expected
    assert gale_shapley(two_by_two_sm(), proposing="b") == expected


def test_gs_rejects_roommates_instances():
    with pytest.raises(ValueError):
        gale_shapley(three_cycle())


@pytest.mark.parametrize("proposing", ["a", "b"])
def test_gs_rejects_a_market_the_engine_rejects(proposing):
    # w does not list m back; the partition engine refuses this market too.
    inst = make_sm({"m": ["w"], "w": []}, side={"m": "a", "w": "b"})
    for fn, *args in ((gale_shapley, inst, proposing), (irving_stable_matching, inst)):
        with pytest.raises(InvalidInstanceError) as info:
            fn(*args)
        assert info.value.violations == validate(inst)


def test_gs_equals_textbook_deferred_acceptance():
    # The benchmark's proposal loop shares no code with the engine.  Every
    # side size 0-9 at every density 0.1-1.0, five seeds each, then markets
    # of 50-200 agents a side; both sides propose on each.
    reference = bench_module("reference")
    rng = random.Random(20)
    shapes = [(a, b, d / 10) for a in range(10) for b in range(10) for d in range(1, 11)] * 5
    shapes += [
        (rng.randint(50, 200), rng.randint(50, 200), rng.choice((0.02, 0.05, 0.1, 0.3, 1.0)))
        for _ in range(200)
    ]
    two_optima = 0
    for seed, (n_a, n_b, density) in enumerate(shapes):
        inst = random_sm(n_a, n_b, density, seed)
        prefs, side = dict(inst.prefs), dict(inst.side)
        optima = [reference.deferred_acceptance(prefs, side, proposing) for proposing in "ab"]
        assert [gale_shapley(inst, proposing) for proposing in "ab"] == optima, seed
        two_optima += optima[0] != optima[1]
    assert two_optima >= 200


def test_gs_output_is_stable_and_proposer_optimal():
    from stablectl.generators import random_sm

    for seed in range(60):
        inst = random_sm(4, 4, 0.7, seed)
        best = gale_shapley(inst, proposing="a")
        assert is_stable(inst, best)
        best_partner = partner_map(best)
        for other in enumerate_stable_matchings(inst):
            partner = partner_map(other)
            for m in inst.agents:
                if inst.side[m] != "a" or m not in partner or m not in best_partner:
                    continue
                assert not prefers(inst, m, partner[m], best_partner[m])


# -- tan_stable_partition ---------------------------------------------------


def test_partition_mutual_pair():
    partition = tan_stable_partition(mutual_pair())
    assert partition.parties == (("a", "b"),)
    assert partition.odd_parties == ()


def test_partition_three_cycle_is_one_odd_party():
    partition = tan_stable_partition(three_cycle())
    assert partition.parties == (("a", "b", "c"),)
    assert partition.odd_parties == (("a", "b", "c"),)
    # Orientation follows the preferences: everyone prefers successor.
    assert partition.successor == {"a": "b", "b": "c", "c": "a"}


def test_partition_empty_list_gives_singleton():
    inst = make_sr({"a": ["b"], "b": ["a"], "z": []})
    partition = tan_stable_partition(inst)
    assert ("z",) in partition.parties
    assert singletons(partition) == {"z"}


def test_partition_of_unsolvable_four_agents():
    partition = tan_stable_partition(four_agent_unsolvable())
    assert partition.odd_parties == (("a", "b", "c"),)
    assert singletons(partition) == {"d"}


def test_diagnose_reads_the_whole_market_for_its_interested_agents():
    # a, b and c form an odd party and d is left alone.
    inst = four_agent_unsolvable()
    assert diagnose(inst).cost == 1
    assert diagnose(inst, ["a", "b"]).cost == 1
    diag = diagnose(inst, ["d", "d"])
    assert diag.cost == 2 and diag.forbidden_singletons == {"d"}
    assert diag.partition == tan_stable_partition(inst)
    assert diagnose(mutual_pair(), ["a", "b"]).cost == 0
    with pytest.raises(ValueError, match="^nobody is not an agent of the instance$"):
        diagnose(inst, ["a", "nobody"])


def test_partition_successor_is_a_read_only_hashable_copy():
    given = {"a": "b", "b": "c", "c": "a"}
    partition = StablePartition(given)
    assert partition.parties == (("a", "b", "c"),)
    given["a"] = "a"
    with pytest.raises(TypeError):
        partition.successor["a"] = "a"
    assert partition.successor == {"a": "b", "b": "c", "c": "a"}
    assert partition.parties == partition.odd_parties == (("a", "b", "c"),)
    assert singletons(partition) == frozenset()
    engine = tan_stable_partition(three_cycle())
    assert engine == partition and hash(engine) == hash(partition)
    assert len({engine, partition, StablePartition({"a": "a"})}) == 2
    assert pickle.loads(pickle.dumps(engine)) == engine


@pytest.mark.parametrize("successor", [{"a": "b", "b": "b"}, {"a": "c"}])
def test_parties_reject_a_successor_map_that_is_not_a_permutation(successor):
    # The map is kept as given, for validate_partition to report on.
    for read in (lambda p: p.parties, render_partition):
        with pytest.raises(ValueError, match="^successor map is not a permutation$"):
            within(2, read, StablePartition(successor))


def test_partition_rejects_bad_order():
    with pytest.raises(ValueError):
        tan_stable_partition(mutual_pair(), order=["a"])


def test_validate_partition_mutual_pair():
    good = StablePartition(successor={"a": "b", "b": "a"})
    assert validate_partition(mutual_pair(), good) == []
    both_single = StablePartition(successor={"a": "a", "b": "b"})
    assert any("blocks" in v for v in validate_partition(mutual_pair(), both_single))


def test_validate_partition_three_cycle():
    assert validate_partition(three_cycle(), StablePartition({"a": "b", "b": "c", "c": "a"})) == []
    # The reversed orientation violates the successor-over-predecessor axiom.
    bad = validate_partition(three_cycle(), StablePartition({"a": "c", "c": "b", "b": "a"}))
    assert any("prefers its predecessor" in v for v in bad)


def test_validate_partition_shape_checks():
    assert validate_partition(mutual_pair(), StablePartition({"a": "b"}))
    assert validate_partition(mutual_pair(), StablePartition({"a": "b", "b": "b"}))
    inst = make_sr({"a": ["b"], "b": ["a"], "c": [], "d": []})
    unacceptable = StablePartition({"a": "b", "b": "a", "c": "d", "d": "c"})
    assert any("unacceptable" in v for v in validate_partition(inst, unacceptable))


def test_validate_partition_reports_every_violation_in_order():
    # Lists in an order of their own, so that violations come in name
    # order and not in list order: ``a``'s blocking partners sit on its
    # list as e before c.
    prefs = {
        "a": ["e", "c", "f", "d", "b"],
        "b": ["d", "a", "f", "c", "e"],
        "c": ["a", "e", "b", "d", "f"],
        "d": ["f", "b", "a", "e", "c"],
        "e": ["c", "a", "d", "f", "b"],
        "f": ["b", "d", "e", "a", "c"],
    }
    reversed_party = StablePartition({"a": "a", "c": "c", "e": "e", "b": "f", "f": "d", "d": "b"})
    assert validate_partition(make_sr(prefs), reversed_party) == [
        "b prefers its predecessor d to its successor f",
        "d prefers its predecessor f to its successor b",
        "f prefers its predecessor b to its successor d",
        "pair a,c blocks the partition",
        "pair a,e blocks the partition",
        "pair c,e blocks the partition",
    ]
    gone = {("a", "b"), ("c", "d"), ("e", "f")}
    sparse = {
        u: [v for v in lst if (u, v) not in gone and (v, u) not in gone] for u, lst in prefs.items()
    }
    cross = StablePartition({"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"})
    assert validate_partition(make_sr(sparse), cross) == [
        "successor of a is the unacceptable agent b",
        "successor of b is the unacceptable agent a",
        "successor of c is the unacceptable agent d",
        "successor of d is the unacceptable agent c",
        "successor of e is the unacceptable agent f",
        "successor of f is the unacceptable agent e",
    ]


# -- partition_to_matching --------------------------------------------------


def test_partition_to_matching_mutual_pair():
    deleted, matching = partition_to_matching(mutual_pair(), tan_stable_partition(mutual_pair()))
    assert deleted == frozenset() and matching == pairs_of(("a", "b"))


def test_partition_to_matching_three_cycle():
    inst = three_cycle()
    deleted, matching = partition_to_matching(inst, tan_stable_partition(inst))
    assert deleted == {"a"}
    assert matching == pairs_of(("b", "c"))
    from stablectl.model import delete_agents

    assert is_stable(delete_agents(inst, deleted), matching)


def test_partition_to_matching_all_singletons():
    inst = make_sr({"a": [], "b": []})
    deleted, matching = partition_to_matching(inst, tan_stable_partition(inst))
    assert deleted == frozenset() and matching == frozenset()


def test_irving_reports_an_engine_fault_as_an_internal_error(monkeypatch):
    fault_the_engine(monkeypatch, all_alone)
    with pytest.raises(InternalError, match="invalid partition: pair a,b blocks"):
        irving_stable_matching(three_cycle())


def test_irving_certifies_a_negative_answer(monkeypatch):
    # A spurious odd party would otherwise read as "no stable matching".
    assert irving_stable_matching(top_pair_and_loner()) == pairs_of(("a", "b"))
    fault_the_engine(monkeypatch, spurious_odd_party)
    with pytest.raises(
        InternalError, match="^invalid partition: b prefers its predecessor a to its successor c$"
    ):
        irving_stable_matching(top_pair_and_loner())


def test_irving_interns_the_market_once(monkeypatch):
    counts = count_engine_calls(monkeypatch)
    for inst in (mutual_pair(), three_cycle(), random_sr(30, 0.3, 4)):
        counts.update(tables=0, runs=0)
        irving_stable_matching(inst)
        assert counts == {"tables": 1, "runs": 1}


def test_one_core_serves_every_engine_run_and_pair_answer_on_an_instance(monkeypatch):
    inst = random_sr(40, 0.3, 11)
    n = len(inst.agents)
    agent = max(sorted(inst.agents), key=lambda u: len(inst.prefs[u]))
    order = sorted(inst.agents)
    random.Random(3).shuffle(order)
    counts = count_engine_calls(monkeypatch)
    for target in sorted(inst.acceptable_pairs, key=sorted)[:50]:
        solve_delag_mp(inst, target, n)
    solve_delag_ma(inst, agent, n)
    irving_stable_matching(inst)
    assert validate_partition(inst, tan_stable_partition(inst, order)) == []
    assert counts == {"tables": 1, "runs": 50 + len(inst.prefs[agent]) + 2}
    twin = random_sr(40, 0.3, 11)
    irving_stable_matching(twin)
    assert twin == inst and twin.core is not inst.core and twin.core == inst.core
    assert counts["tables"] == 2


def test_fixing_contexts_on_one_instance_diagnose_in_any_order():
    inst = random_sr(30, 0.5, 5)
    agent = max(sorted(inst.agents), key=lambda u: len(inst.prefs[u]))
    ctxs = list(partner_fixings(inst, agent))[:2]
    ctxs.append(fixing_deletions(inst, *min(inst.acceptable_pairs, key=sorted)))
    for ctx in ctxs + ctxs[::-1] + ctxs:
        fresh = random_sr(30, 0.5, 5)
        assert diagnose_fixed_instance(ctx) == diagnose_fixed_instance(
            fixing_deletions(fresh, ctx.a, ctx.b)
        )


def test_the_core_rows_are_read_only():
    core = random_sr(9, 0.6, 4).core
    u = next(u for u, row in enumerate(core.pref) if row)
    for rows, key, value in (
        (core.pref, u, ()),
        (core.pref[u], 0, u),
        (core.mirror[u], 0, 0),
        (core.whole, u, -1),
        (core.index, core.names[u], 0),
    ):
        with pytest.raises(TypeError):
            operator.setitem(rows, key, value)
    with pytest.raises(AttributeError):
        core.pref = ()


def test_building_the_core_retains_at_most_32_bytes_per_list_entry():
    # A sparse 2000-agent market of degree 25: each agent lists its 12
    # neighbours on either side of a ring and the agent opposite.
    n, rng = 2000, random.Random(25)
    names = [f"u{i:04d}" for i in range(n)]
    prefs = {}
    for i, u in enumerate(names):
        lst = [names[(i + k) % n] for k in (*range(-12, 0), *range(1, 13), n // 2)]
        rng.shuffle(lst)
        prefs[u] = lst
    inst = make_sr(prefs)
    entries = sum(map(len, inst.prefs.values()))
    assert entries == 25 * n
    inst.ranks
    tracemalloc.start()
    try:
        inst.core
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 32 * entries and peak <= 32 * entries, (retained, peak, entries)


def test_engine_entry_points_report_an_unknown_agent_as_an_invalid_instance():
    inst = make_sr({"a": ["x"]})
    for call in (
        lambda: validate_partition(inst, StablePartition({"a": "a"})),
        lambda: tan_stable_partition(inst),
        lambda: fixing_deletions(inst, "a", "x"),
    ):
        with pytest.raises(InvalidInstanceError) as info:
            call()
        assert info.value.violations == ["agent a lists unknown agent x"]


# Markets whose lists the engine cannot read.  Read unchecked, a repeat
# makes a rotation cut nothing and the run find it forever, a repeat or a
# self-listed agent breaks a rotation or the partition, and an entry not
# listed back indexes a missing rank.
MALFORMED = {
    "repeat-hangs": {"a": ["b", "b"], "b": ["a"]},
    "repeat-breaks-a-rotation": {"a": ["b", "c", "b"], "b": ["a", "c"], "c": ["b", "a"]},
    "self-listed": {"a": ["a", "b"], "b": ["a"]},
    "repeat-beside-a-loner": {"a": ["b", "b"], "b": ["a"], "c": []},
    "not-listed-back": {"a": ["b"], "b": []},
    "unknown-agent": {"a": ["b", "x"], "b": ["a"]},
}


@pytest.mark.parametrize("prefs", MALFORMED.values(), ids=MALFORMED)
def test_engine_entry_points_reject_a_malformed_market(prefs):
    inst = make_sr(prefs)
    calls = [
        (tan_stable_partition, inst),
        (irving_stable_matching, inst),
        (validate_partition, inst, StablePartition({u: u for u in inst.agents})),
    ]
    goals = [ControlGoal.esm(), ControlGoal.ma("a")]
    if inst.is_acceptable_pair(pair("a", "b")):
        goals.append(ControlGoal.mp(pair("a", "b")))
    for goal in goals:
        query = ControlQuery(inst, "delag", goal, 0)
        calls.append((solve, query, "exact"))
        if goal.kind != "esm":  # the one goal here without a polynomial solver
            calls.append((solve, query, "poly"))
    for fn, *args in calls:
        with pytest.raises(InvalidInstanceError) as info:
            within(5, fn, *args)
        assert info.value.violations == validate(inst)


def test_the_fixed_instance_rejects_an_entry_not_listed_back():
    # c lists a, who does not list c back; fixing {a, b} reads no such
    # entry, but the market's core cannot mirror it.
    inst = make_sr({"a": ["b"], "b": ["a"], "c": ["a"]})
    with pytest.raises(InvalidInstanceError) as info:
        fixing_deletions(inst, "a", "b")
    assert info.value.violations == validate(inst)


def test_a_rotation_that_cuts_nothing_is_an_engine_fault():
    # A repeated entry, planted past the interning check, makes eliminating
    # the rotation (a, b) cut nothing: the run must stop, not find it again.
    # a lists b twice, and b finds a at a's last position.
    core = make_sr({"a": ["b"], "b": ["a"]}).core
    core = core._replace(pref=((1, 1), (0,)), mirror=((0, 0), (1,)))
    with pytest.raises(InternalError, match="^eliminating the rotation at a cut nothing$"):
        within(5, classic._Table(core, (1, 0)).run)


def test_a_faulty_proposal_round_ends_in_an_error_or_a_certified_partition(monkeypatch):
    # The rotation guards keep a table that proposals left unstable from
    # looping or indexing a missing entry: each run stops with an
    # InternalError or returns a partition the axioms accept.
    markets = [random_sr(3 + seed % 28, (0.3, 0.6, 1.0)[seed % 3], seed) for seed in range(150)]
    for fault in (skip_proposals, drop_half_the_worklist, drop_one_proposer):
        faults = 0
        with monkeypatch.context() as patch:
            fault_the_proposals(patch, fault)
            for inst in markets:
                try:
                    partition = within(5, tan_stable_partition, inst)
                except InternalError:
                    faults += 1
                    continue
                assert validate_partition(inst, partition) == []
        assert faults > 0, fault.__name__


def test_partition_to_matching_rejects_invalid_partition():
    with pytest.raises(ValueError):
        partition_to_matching(mutual_pair(), StablePartition({"a": "a", "b": "b"}))


def test_pair_path_partitions_the_fixed_market_it_would_build():
    # The engine run from the fixing cuts gives the partition of the fixed
    # market built as an instance, the axioms checked at those cuts agree
    # with the check on that instance, and every pair answer is read off
    # that partition.
    markets = []
    for seed in range(36):
        density = (0.3, 0.6, 1.0)[seed % 3]
        if seed % 2:
            markets.append(random_sr(4 + seed % 9, density, seed))
        else:
            markets.append(random_sm(2 + seed % 4, 3 + seed % 3, density, seed))
    assert sum(all(len(i.prefs[u]) == len(i.agents) - 1 for u in i.agents) for i in markets) >= 3
    checked = 0
    for inst in markets:
        n, core = len(inst.agents), inst.core
        for target in sorted(inst.acceptable_pairs, key=sorted):
            a, b = sorted(target)
            ctx = fixing_deletions(inst, a, b)
            diag = diagnose_fixed_instance(ctx)
            assert diag.partition == tan_stable_partition(ctx.reduced)
            alone = StablePartition({u: u for u in inst.agents})
            for partition in (diag.partition, alone):
                succ = [core.index[partition.successor[u]] for u in core.names]
                assert classic._violations(core, succ, ctx.tail) == validate_partition(
                    ctx.reduced, partition
                )
            assert pair_fixing_cost(inst, target) == diag.cost
            out = solve_delag_mp(inst, target, n)
            rule = {min(p) for p in diag.partition.odd_parties} | diag.forbidden_singletons
            assert (out.verdict, out.optimum, out.witness) == (True, diag.cost, rule)
            checked += 1
        for agent in sorted(inst.agents):
            costs = [pair_fixing_cost(inst, frozenset((agent, p))) for p in inst.prefs[agent]]
            assert solve_delag_ma(inst, agent, n).optimum == (min(costs) if costs else None)
    assert checked >= 400


def test_render_partition():
    text = render_partition(tan_stable_partition(four_agent_unsolvable()))
    assert "party (a b c) odd" in text
    assert "party (d) odd" in text


# -- irving_stable_matching -------------------------------------------------


def test_irving_examples():
    assert irving_stable_matching(mutual_pair()) == pairs_of(("a", "b"))
    assert irving_stable_matching(three_cycle()) is None
    assert irving_stable_matching(four_agent_unsolvable()) is None


def test_irving_on_marriage_instances():
    assert irving_stable_matching(two_by_two_sm()) == pairs_of(("m1", "w2"), ("m2", "w1"))


# -- singular rotations ------------------------------------------------------


def _matched(inst):
    """The stable matching of a market that has one, through every engine entry point."""
    partition = tan_stable_partition(inst)
    assert partition.odd_parties == ()
    matching = irving_stable_matching(inst)
    assert matching == partition.stable_matching() and is_stable(inst, matching)
    for target in sorted(matching, key=sorted):
        out = solve_delag_mp(inst, target, 0)
        assert (out.verdict, out.optimum, out.witness) == (True, 0, frozenset())
    return matching


def test_a_rotation_whose_tracks_coincide_is_eliminated_unless_singular():
    assert _matched(paired_triangles()) == pairs_of(("u01", "u05"), ("u02", "u03"), ("u04", "u06"))
    assert tan_stable_partition(paired_triangles()).parties == (
        ("u00",),
        ("u01", "u05"),
        ("u02", "u03"),
        ("u04", "u06"),
    )
    assert len(_matched(random_sr(16, 0.85, 129376))) == 8


def _grown(inst, rng):
    """``inst`` plus one or two agents, each listing 1-4 of the others.

    Every new agent lists its neighbours in random order and enters each
    neighbour's list at a random position.
    """
    prefs = {u: list(lst) for u, lst in inst.prefs.items()}
    for _ in range(rng.randint(1, 2)):
        new = f"u{len(prefs):02d}"
        nbrs = rng.sample(sorted(prefs), rng.randint(1, 4))
        for v in nbrs:
            prefs[v].insert(rng.randint(0, len(prefs[v])), new)
        prefs[new] = nbrs
    return make_sr(prefs)


def test_engine_agrees_with_brute_force_on_markets_grown_around_paired_triangles():
    # Uniform random markets almost never expose a rotation whose tracks
    # coincide without it being singular; these markets keep that shape
    # or break it next to it.
    rng = random.Random(11)
    base = paired_triangles()
    for _ in range(400):
        inst = _grown(base, rng)
        order = sorted(inst.agents)
        rng.shuffle(order)
        odd = {frozenset(p) for p in tan_stable_partition(inst).odd_parties}
        assert {frozenset(p) for p in tan_stable_partition(inst, order).odd_parties} == odd
        assert bool(enumerate_stable_matchings(inst)) == (not odd)


# -- exhaustive and randomized cross-validation ------------------------------


def _check_instance(inst, rng):
    partition = tan_stable_partition(inst)
    assert validate_partition(inst, partition) == []
    matching = irving_stable_matching(inst)
    stables = enumerate_stable_matchings(inst, cap=40)
    assert (matching is not None) == bool(stables)
    if matching is not None:
        assert is_stable(inst, matching)
        assert covered_agents(matching) == inst.agents - singletons(partition)
    odd = sorted(sorted(p) for p in partition.odd_parties)
    order = sorted(inst.agents)
    for _ in range(2):
        rng.shuffle(order)
        shuffled = tan_stable_partition(inst, order=order)
        assert validate_partition(inst, shuffled) == []
        assert sorted(sorted(p) for p in shuffled.odd_parties) == odd
        assert singletons(shuffled) == singletons(partition)


def test_every_three_agent_instance():
    rng = random.Random(0)
    for inst in all_small_sr_instances(["a", "b", "c"]):
        _check_instance(inst, rng)


def test_every_four_agent_instance():
    rng = random.Random(1)
    count = 0
    for inst in all_small_sr_instances(["a", "b", "c", "d"]):
        _check_instance(inst, rng)
        count += 1
    assert count == 2634


def test_random_instances_up_to_nine_agents():
    rng = random.Random(2)
    for _ in range(400):
        inst = random_sr_instance(rng, rng.randint(0, 9), rng.choice([0.25, 0.5, 0.8, 1.0]))
        _check_instance(inst, rng)


def test_partition_axioms_on_larger_instances():
    rng = random.Random(3)
    for _ in range(150):
        inst = random_sr_instance(rng, rng.randint(10, 16), rng.choice([0.3, 0.7, 1.0]))
        partition = tan_stable_partition(inst)
        assert validate_partition(inst, partition) == []


@st.composite
def sr_instances(draw, max_agents=7):
    n = draw(st.integers(0, max_agents))
    names = [f"u{i}" for i in range(n)]
    nbrs = {u: [] for u in names}
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if draw(st.booleans()):
                nbrs[u].append(v)
                nbrs[v].append(u)
    return make_sr({u: draw(st.permutations(nbrs[u])) for u in names})


@settings(max_examples=150, deadline=None)
@given(inst=sr_instances())
def test_partition_properties_hold_on_arbitrary_instances(inst):
    partition = tan_stable_partition(inst)
    assert validate_partition(inst, partition) == []
    matching = irving_stable_matching(inst)
    assert (matching is None) == bool(partition.odd_parties)
    if matching is not None:
        assert is_stable(inst, matching)
        assert covered_agents(matching) == inst.agents - singletons(partition)


# -- golden digest of engine outputs ----------------------------------------

# SHA-256 over the successor maps and delag-mp witnesses of the corpus
# below.  Any change to the partition returned for an (instance, order)
# pair, or to a polynomial solver's witness, changes the digest.
GOLDEN_DIGEST = "fdae8720d68ddae16869abb4e9df9a1145fae9f3d88b597f1a913481fcc78720"


def _golden_corpus():
    from stablectl.generators import random_sm, random_sr

    sr_cases = (
        (8, 0.5, 40),
        (12, 1.0, 20),
        (30, 0.3, 6),
        (60, 0.15, 3),
        (120, 0.08, 2),
        (200, 0.05, 2),
        (40, 1.0, 2),
        (100, 0.6, 1),
    )
    for n, density, seeds in sr_cases:
        for seed in range(seeds):
            yield f"sr {n} {density} {seed}", random_sr(n, density, seed)
    for n_a, n_b, density, seeds in ((5, 5, 0.6, 20), (20, 25, 0.4, 4), (60, 60, 1.0, 1)):
        for seed in range(seeds):
            yield f"sm {n_a} {n_b} {density} {seed}", random_sm(n_a, n_b, density, seed)


def test_partitions_and_mp_witnesses_match_golden_digest():
    from stablectl.poly import solve_delag_mp

    digest = hashlib.sha256()
    for label, inst in _golden_corpus():
        rng = random.Random(label)
        order = sorted(inst.agents)
        shuffled = list(order)
        rng.shuffle(shuffled)
        for o in (order, shuffled):
            succ = tan_stable_partition(inst, o).successor
            digest.update(f"{label} | {' '.join(f'{u}>{succ[u]}' for u in sorted(succ))}\n".encode())
        pairs = sorted(tuple(sorted(p)) for p in inst.acceptable_pairs)
        for a, b in rng.sample(pairs, min(3, len(pairs))):
            out = solve_delag_mp(inst, frozenset((a, b)), len(inst.agents))
            witness = " ".join(sorted(out.witness or ()))
            digest.update(f"{label} mp {a},{b} {out.verdict} {out.optimum} {witness}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
