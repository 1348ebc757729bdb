"""Shared fixtures and small instance builders for the test suite."""

from __future__ import annotations

import functools
import importlib
import itertools
import random
import signal
import sys
from itertools import combinations
from pathlib import Path

import pytest

from stablectl import classic, control, model, poly
from stablectl.classic import StablePartition
from stablectl.control import (
    ACTIONS,
    ADD_AGENTS,
    DELETE_AGENTS,
    ControlGoal,
    ControlOutcome,
    ControlQuery,
    action_universe,
    apply_actions,
    goal_holds,
    matching_meets_goal,
)
from stablectl.errors import CapExceededError
from stablectl.model import SM, RoommatesInstance, make_instance, make_sm, make_sr
from stablectl.reductions import UndirectedGraph
from stablectl.stability import blocking_pairs, check_matching, enumerate_matchings


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    """``bench/<name>.py`` as a module, imported with ``bench/`` on ``sys.path``.

    No bytecode is written under ``bench/``, and ``sys.path`` is restored.
    """
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = bytecode


def mutual_pair():
    return make_sr({"a": ["b"], "b": ["a"]})


def three_cycle():
    """a: b>c / b: c>a / c: a>b: no stable matching, one odd party."""
    return make_sr({"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"]})


def top_pair_and_loner():
    """a: b>c / b: a>c / c: a>b: a and b top each other, so {a,b} is the stable matching."""
    return make_sr({"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]})


def paired_triangles():
    """Seven agents whose stable table exposes a rotation that is not singular.

    The rotation xs = (u01 u06 u03 u05 u04 u02), ys = (u03 u05 u04 u02
    u01 u06) has both tracks on the same six agents, and its head map is
    the two 3-cycles (u01 u03 u04) and (u02 u06 u05).  Eliminating it
    leaves the only stable matching, {u01,u05} {u02,u03} {u04,u06}.
    """
    return make_sr(
        {
            "u00": ["u04"],
            "u01": ["u03", "u05", "u04"],
            "u02": ["u06", "u03", "u04", "u05"],
            "u03": ["u04", "u02", "u01"],
            "u04": ["u01", "u06", "u05", "u03", "u02", "u00"],
            "u05": ["u02", "u01", "u04", "u06"],
            "u06": ["u05", "u04", "u02"],
        }
    )


def all_alone(names):
    """Every agent alone: a partition that a three-cycle's pairs block."""
    return StablePartition({u: u for u in names})


def spurious_odd_party(names):
    """The odd party a->b->c, which b refutes on :func:`top_pair_and_loner`."""
    return StablePartition({"a": "b", "b": "c", "c": "a"})


def singletons(partition):
    """The fixed points of ``partition``: the agents that every stable matching leaves unmatched."""
    return frozenset(u for u, v in partition.successor.items() if u == v)


def stars(ctx):
    """The agents ``ctx.a`` prefers to ``ctx.b``, and those ``ctx.b`` prefers to ``ctx.a``."""
    names = ctx.instance.core.names
    return tuple(frozenset(names[x] for x in star) for star in ctx.stars)


def fault_the_engine(monkeypatch, partition):
    """Make every engine run assemble ``partition(names)`` instead of what it reached.

    The stand-in sits inside the run, before the run checks its successor
    list, so every path to the engine meets it and the check alike.
    """

    def assemble(table):
        names = table.core.names
        successor = partition(names).successor
        return [table.core.index[successor[u]] for u in names]

    monkeypatch.setattr(classic._Table, "_assemble", assemble)


def within(seconds, fn, *args):
    """``fn(*args)``, failing the test if it takes more than ``seconds`` of wall-clock time.

    A SIGALRM timer interrupts a call that loops, so this works on POSIX
    systems and in the main thread only.
    """

    def expire(signum, frame):
        pytest.fail(f"{fn.__name__} ran for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def skip_proposals(table, stabilize):
    """A proposal round that makes no proposal."""


def drop_half_the_worklist(table, stabilize):
    """A proposal round that forgets every other agent on its worklist first."""
    del table.work[::2]
    stabilize(table)


def drop_one_proposer(table, stabilize):
    """A proposal round that forgets the agent it would serve first."""
    if table.work:
        table.work.pop()
    stabilize(table)


def fault_the_proposals(monkeypatch, fault):
    """Make every proposal round of the engine run ``fault(table, stabilize)``.

    ``stabilize`` is the sound round, which a fault may call once it has
    done its damage.
    """
    stabilize = classic._Table.stabilize
    monkeypatch.setattr(classic._Table, "stabilize", lambda table: fault(table, stabilize))


def drop_a_matched_pair(deleted, spare, matching):
    """A witness whose matching loses ``spare``, which then blocks it."""
    return deleted, matching - {spare}


def delete_a_matched_agent(deleted, spare, matching):
    """A witness that deletes an endpoint of ``spare`` in place of one of its deletions."""
    return deleted - {min(deleted)} | {min(spare)}, matching


def delete_an_unknown_agent(deleted, spare, matching):
    """A witness that deletes an agent outside the market in place of one of its deletions."""
    return deleted - {min(deleted)} | {"nobody"}, matching


def match_an_agent_twice(deleted, spare, matching):
    """A witness whose matching also pairs an endpoint of ``spare`` with another matched agent."""
    other = min((p for p in matching if p != spare), key=sorted)
    return deleted, matching | {frozenset((min(spare), min(other)))}


def fault_the_witness(monkeypatch, keep, fault):
    """Make every diagnosis hand out ``fault(deleted, spare, matching)`` as its witness.

    ``spare`` is the smallest matched pair that misses ``keep``, an
    endpoint of the target pair.  Each fault keeps the number of
    deletions, so only the stability certificate can catch them.
    """
    witness = classic.PartitionDiagnosis.witness

    def faulty(diag):
        deleted, matching = witness(diag)
        spare = min((p for p in matching if keep not in p), key=sorted)
        return fault(deleted, spare, matching)

    monkeypatch.setattr(classic.PartitionDiagnosis, "witness", faulty)


def count_engine_calls(monkeypatch) -> dict:
    """Count integer cores built (as ``tables``) and engine runs, at the engine's own seam."""
    counts = {"tables": 0, "runs": 0}
    build, run = model.RoommatesInstance.core.func, classic._Table.run

    def counted_build(inst):
        counts["tables"] += 1
        return build(inst)

    def counted_run(table, *args, **kwargs):
        counts["runs"] += 1
        return run(table, *args, **kwargs)

    core = functools.cached_property(counted_build)
    core.__set_name__(model.RoommatesInstance, "core")
    monkeypatch.setattr(model.RoommatesInstance, "core", core)
    monkeypatch.setattr(classic._Table, "run", counted_run)
    return counts


def count_blocking_scans(monkeypatch) -> dict:
    """Count calls of ``MarketCore.blocking``, the integer blocking scan, as ``scans``."""
    counts = {"scans": 0}
    scan = model.MarketCore.blocking

    def counted(core, bound):
        counts["scans"] += 1
        return scan(core, bound)

    monkeypatch.setattr(model.MarketCore, "blocking", counted)
    return counts


def count_fixings_and_conversions(monkeypatch) -> dict:
    """Count pair fixings (``classic.fixing_deletions``) and name-to-index conversions.

    A conversion is a call of ``classic.index_mask``, the one function that
    turns a set of agent names into core indices.  Each is counted in every
    package module that binds it.
    """
    counts = {"fixings": 0, "conversions": 0}
    for key, name in (("fixings", "fixing_deletions"), ("conversions", "index_mask")):
        real = getattr(classic, name)

        def counted(*args, key=key, real=real, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        for module in (classic, control, poly):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return counts


def count_named_partitions(monkeypatch) -> list:
    """Record every ``StablePartition`` constructed, at its ``__post_init__``."""
    named = []
    post_init = classic.StablePartition.__post_init__

    def counted(partition):
        named.append(partition)
        post_init(partition)

    monkeypatch.setattr(classic.StablePartition, "__post_init__", counted)
    return named


class _RecordedWorklist(list):
    """An engine worklist that appends every agent popped off it to ``log``."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def pop(self, *args):
        u = super().pop(*args)
        self.log.append(("pop", u))
        return u


def record_engine_steps(monkeypatch) -> list:
    """Record the steps of every engine table built: one list per table, in order.

    A table's list holds ``("pop", u)`` for each agent taken off its
    worklist and ``("rotation", pairs)`` for each rotation the run finds,
    as the pairs ``(x[i], y[i+1])`` of core indices.  The worklist is
    swapped for a recording one as the table is built, so every pop,
    whichever loop makes it, is seen.
    """
    runs = []
    init, find = classic._Table.__init__, classic._Table.find_rotation

    def recorded_init(table, *args, **kwargs):
        init(table, *args, **kwargs)
        runs.append([])
        table.work = _RecordedWorklist(table.work, runs[-1])

    def recorded_find(table, start):
        rotation = find(table, start)
        table.work.log.append(("rotation", tuple(rotation)))
        return rotation

    monkeypatch.setattr(classic._Table, "__init__", recorded_init)
    monkeypatch.setattr(classic._Table, "find_rotation", recorded_find)
    return runs


def multi_pass_violations(core, succ, tail) -> list[str]:
    """The stable-partition axiom check as separate passes: the reference for ``_violations``.

    A permutation test, a predecessor list, each successor's position by a
    search of its owner's list, then one pass per axiom, and the blocking
    pairs read by ``MarketCore.blocking`` at each agent's predecessor.
    """
    names, pref, mirror = core.names, core.pref, core.mirror
    n = len(names)
    if len(succ) != n or set(succ) != set(range(n)):
        return ["successor map is not a permutation"]
    pred = [0] * n
    for u, s in enumerate(succ):
        pred[s] = u
    at = [-1] * n
    for u, s in enumerate(succ):
        if s != u:
            try:
                at[u] = pref[u].index(s)
            except ValueError:  # reported below as unacceptable
                pass
    out = [
        f"successor of {names[u]} is the unacceptable agent {names[s]}"
        for u, (s, r) in enumerate(zip(succ, at))
        if s != u and not (0 <= r <= tail[u] and mirror[u][r] <= tail[s])
    ]
    if out:
        return out
    bound = [mirror[p][at[p]] if p != u else tail[u] + 1 for u, p in enumerate(pred)]
    out = [
        f"{names[u]} prefers its predecessor {names[pred[u]]} to its successor {names[s]}"
        for u, s in enumerate(succ)
        if s != u and s != pred[u] and not at[u] < bound[u]
    ]
    blocking = sorted(core.blocking(bound))
    return out + [f"pair {names[u]},{names[v]} blocks the partition" for u, v in blocking]


def four_agent_unsolvable():
    return make_sr(
        {
            "a": ["b", "c", "d"],
            "b": ["c", "a", "d"],
            "c": ["a", "b", "d"],
            "d": ["a", "b", "c"],
        }
    )


def two_by_two_sm():
    """Unique stable matching {{m1,w2},{m2,w1}}."""
    return make_sm(
        {
            "m1": ["w1", "w2"],
            "m2": ["w1", "w2"],
            "w1": ["m2", "m1"],
            "w2": ["m2", "m1"],
        },
        side={"m1": "a", "m2": "a", "w1": "b", "w2": "b"},
    )


def random_sr_instance(rng: random.Random, n: int, density: float):
    """Direct random instance builder (independent of stablectl.generators)."""
    names = [f"u{i:02d}" for i in range(n)]
    nbrs = {u: [] for u in names}
    for u, v in itertools.combinations(names, 2):
        if rng.random() < density:
            nbrs[u].append(v)
            nbrs[v].append(u)
    for u in names:
        rng.shuffle(nbrs[u])
    return make_sr(nbrs)


def all_small_sr_instances(names):
    """Every SR instance on the given agents: edge subsets x list orders."""
    pairs = list(itertools.combinations(names, 2))
    for mask in range(2 ** len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        nbrs = {u: [v for p in edges for v in p if u in p and v != u] for u in names}
        orderings = [list(itertools.permutations(nbrs[u])) for u in names]
        for combo in itertools.product(*orderings):
            yield make_sr({u: list(combo[i]) for i, u in enumerate(names)})


BRUTE_VERTEX_CAP = 12


def brute_clique(graph: UndirectedGraph, k: int, cap: int = BRUTE_VERTEX_CAP) -> bool:
    """Does the graph contain a complete subgraph on at least ``k`` vertices?"""
    if len(graph.vertices) > cap:
        raise CapExceededError(f"graph exceeds the brute-force cap of {cap} vertices")
    if k <= 0:
        return True
    if k > len(graph.vertices):
        return False
    for combo in combinations(sorted(graph.vertices), k):
        if all(frozenset(p) in graph.edges for p in combinations(combo, 2)):
            return True
    return False


def brute_independent_set(graph: UndirectedGraph, k: int, cap: int = BRUTE_VERTEX_CAP) -> bool:
    """Does the graph contain ``k`` pairwise non-adjacent vertices?

    Exactly when the complement graph contains a ``k``-clique.
    """
    if len(graph.vertices) > cap:
        raise CapExceededError(f"graph exceeds the brute-force cap of {cap} vertices")
    non_edges = frozenset(map(frozenset, combinations(graph.vertices, 2))) - graph.edges
    return brute_clique(UndirectedGraph(vertices=graph.vertices, edges=non_edges), k, cap)


def pairs_of(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def prefers(inst, u, x, y):
    """Whether ``u`` strictly prefers ``x`` to ``y`` in ``inst``."""
    return inst.ranks[u][x] < inst.ranks[u][y]


def partner_map(matching):
    """Each matched agent's partner."""
    return {u: v for p in matching for u, v in (tuple(p), tuple(p)[::-1])}


def covered_agents(matching):
    """The agents that ``matching`` matches."""
    return frozenset().union(*matching)


def is_perfect(inst, matching):
    """Whether ``matching``, a matching of ``inst``, matches every agent."""
    return check_matching(inst, matching).keys() == inst.agents


def candidate_actions(query):
    """The individual actions available to the controller, in the exact search's order."""
    return sorted(
        action_universe(query),
        key=lambda a: tuple(sorted(a)) if isinstance(a, frozenset) else (a,),
    )


def subset_search(query):
    """The exact search over action sets, as the oracle of every search of ``solve_exact``.

    ``(size, witness)`` for the first candidate set that meets the goal,
    by size and then in ``combinations`` order over
    :func:`candidate_actions`, each applied with ``apply_actions`` and
    tested with ``goal_holds``; ``None`` when no set does.
    """
    candidates = candidate_actions(query)
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            if goal_holds(apply_actions(query, combo), query.goal):
                return size, frozenset(combo)
    return None


def goal_matchings(query):
    """Every matching of the queried market that an acceptability-deletion goal asks for.

    The listing that ``control.fewest_blocking_pairs`` prunes: the target
    itself for ``ms``, else every matching of ``query.instance`` that
    ``matching_meets_goal`` accepts, in ``enumerate_matchings`` order.
    """
    inst, goal = query.instance, query.goal
    if goal.kind == "ms":
        return iter((goal.matching,))
    everything = enumerate_matchings(inst, cap=len(inst.acceptable_pairs))
    return (m for m in everything if matching_meets_goal(inst, goal, m))


def listed_fewest_blockers(query):
    """The acceptability-deletion optimum read off the listing, as the search's oracle.

    ``(size, witness)`` for the blocking set of a :func:`goal_matchings`
    matching that is least by size and then by its sorted positions in
    :func:`candidate_actions`; ``None`` when no matching meets the goal.
    """
    position = {p: i for i, p in enumerate(candidate_actions(query))}
    keys = [
        (len(b), sorted(map(position.__getitem__, b)), b)
        for b in {blocking_pairs(query.instance, m) for m in goal_matchings(query)}
    ]
    if not keys:
        return None
    size, _, witness = min(keys, key=lambda k: k[:2])
    return size, witness


def outcome_at(found, budget):
    """The outcome that ``solve_exact`` reports at ``budget`` for a search result ``found``."""
    if found is None:
        return ControlOutcome(verdict=False, optimum=None, witness=None)
    size, witness = found
    if size <= budget:
        return ControlOutcome(verdict=True, optimum=size, witness=witness)
    return ControlOutcome(verdict=False, optimum=size, witness=None)


def original_agents(query):
    """The original market: every agent outside the addable pool."""
    return query.instance.agents - query.instance.addable


def _random_maximal_matching(inst: RoommatesInstance, rng: random.Random) -> set:
    pairs = sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p)))
    rng.shuffle(pairs)
    used: set = set()
    matching = set()
    for p in pairs:
        if not (p & used):
            matching.add(p)
            used |= p
    return matching


def _with_fillers(inst: RoommatesInstance, rng: random.Random):
    """Extend a random maximal matching to a perfect one with fresh partners.

    Agents left unmatched get a brand-new filler agent appended to the end
    of their list; the filler lists only them.  Returns the widened
    instance and the perfect matching.
    """
    matching = _random_maximal_matching(inst, rng)
    covered = set().union(*matching) if matching else set()
    prefs = {u: list(lst) for u, lst in inst.prefs.items()}
    side = dict(inst.side)
    for i, u in enumerate(sorted(inst.agents - covered)):
        filler = f"f{i:02d}"
        if filler in prefs:
            raise ValueError("filler name collides with an existing agent")
        prefs[u].append(filler)
        prefs[filler] = [u]
        if inst.kind == SM:
            side[filler] = "a" if side[u] == "b" else "b"
        matching.add(frozenset((u, filler)))
    widened = make_instance(inst.kind, prefs, side=side, addable=inst.addable)
    return widened, frozenset(matching)


def random_query(inst: RoommatesInstance, action: str, goal_kind: str, seed: int) -> ControlQuery:
    """A valid random query over ``inst`` for the given action and goal.

    For agent addition a random non-empty strict subset of the agents is
    marked addable.  Matching goals draw a random maximal matching,
    extended to a perfect one with fresh filler agents where the action's
    convention demands perfection.  Raises ``ValueError`` when no legal
    target exists.
    """
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    rng = random.Random(seed)
    if action == ADD_AGENTS:
        if not inst.agents:
            raise ValueError("cannot mark addable agents on an empty instance")
        agents = sorted(inst.agents)
        pool_size = rng.randint(1, max(1, len(agents) - 2)) if len(agents) > 1 else 1
        inst = make_instance(
            inst.kind, inst.prefs, side=inst.side, addable=rng.sample(agents, pool_size)
        )
    originals = sorted(inst.agents - inst.addable)
    budget = rng.randint(0, max(1, len(inst.agents) // 2))

    if goal_kind == "ma":
        if not originals:
            raise ValueError("no agent available as a target")
        goal = ControlGoal.ma(rng.choice(originals))
    elif goal_kind == "mp":
        legal = sorted(
            (p for p in inst.acceptable_pairs if p <= set(originals)),
            key=lambda p: tuple(sorted(p)),
        )
        if not legal:
            raise ValueError("no acceptable pair available as a target")
        goal = ControlGoal.mp(rng.choice(legal))
    elif goal_kind == "ms":
        if action == DELETE_AGENTS or action == ADD_AGENTS:
            inst, matching = _with_fillers(inst, rng)
        else:
            matching = frozenset(_random_maximal_matching(inst, rng))
        goal = ControlGoal.ms(matching)
    elif goal_kind in ("esm", "epsm"):
        goal = ControlGoal(kind=goal_kind)
    else:
        raise ValueError(f"unknown goal kind {goal_kind!r}")
    return ControlQuery(instance=inst, action=action, goal=goal, budget=budget)
