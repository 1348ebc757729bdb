"""Shared fixtures and small instance builders for the test suite."""

from __future__ import annotations

import itertools
import random

from stablectl.classic import StablePartition
from stablectl.model import make_sm, make_sr


def mutual_pair():
    return make_sr({"a": ["b"], "b": ["a"]})


def three_cycle():
    """a: b>c / b: c>a / c: a>b: no stable matching, one odd party."""
    return make_sr({"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"]})


def identity_partition(inst, order=None):
    """Every agent alone: a stand-in engine whose partition a three-cycle's pairs block."""
    return StablePartition({u: u for u in inst.agents})


def identity_run(table, tail):
    """The same stand-in at the engine's run, where the pair solvers reach it."""
    return StablePartition({u: u for u in table.names})


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


def pairs_of(*pairs):
    return frozenset(frozenset(p) for p in pairs)
