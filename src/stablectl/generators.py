"""Seeded random marriage and roommates instances.

Everything here is deterministic given its arguments: the same seed
yields the same instance within one build.  Callers derive their expected
values from the generated instance itself, never from the seed.
"""

from __future__ import annotations

import random
from itertools import combinations

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
