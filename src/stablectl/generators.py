"""Seeded random instances and control queries for property testing.

Everything here is deterministic given its arguments: the same seed
yields the same object within one build.  Tests derive their expected
values from the generated object itself, never from the seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from .control import ACTIONS, ADD_AGENTS, DELETE_AGENTS, ControlGoal, ControlQuery
from .model import RoommatesInstance, SM, SR, make_instance


def random_sr(n: int, density: float, seed: int) -> RoommatesInstance:
    """A roommates instance where each pair is acceptable with ``density``."""
    if n < 0:
        raise ValueError(f"agent count must be non-negative, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    names = [f"u{i:02d}" for i in range(n)]
    nbrs = {u: [] for u in names}
    for u, v in combinations(names, 2):
        if rng.random() < density:
            nbrs[u].append(v)
            nbrs[v].append(u)
    for u in names:
        rng.shuffle(nbrs[u])
    return make_instance(SR, nbrs)


def random_sm(n_a: int, n_b: int, density: float, seed: int) -> RoommatesInstance:
    """A marriage instance with the given side sizes."""
    if n_a < 0 or n_b < 0:
        raise ValueError(f"side sizes must be non-negative, got {n_a} and {n_b}")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    side_a = [f"m{i:02d}" for i in range(n_a)]
    side_b = [f"w{i:02d}" for i in range(n_b)]
    nbrs = {u: [] for u in side_a + side_b}
    for u in side_a:
        for v in side_b:
            if rng.random() < density:
                nbrs[u].append(v)
                nbrs[v].append(u)
    for u in nbrs:
        rng.shuffle(nbrs[u])
    side = {u: "a" for u in side_a} | {u: "b" for u in side_b}
    return make_instance(SM, nbrs, side=side)


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
