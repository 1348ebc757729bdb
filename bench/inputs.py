"""Seeded input generator for the benchmark.

It is independent of ``stablectl.generators`` so that a change there cannot
change a workload.  A market is a plain dict: ``kind`` (``"sr"`` or
``"sm"``), ``prefs`` (agent -> preference list), ``side`` (agent -> ``"a"``
or ``"b"``, marriage markets only) and ``addable`` (a set).  Agent names
are zero-padded so that sorted order is numeric order.
"""

from __future__ import annotations

import random
from itertools import combinations


def _market(kind, nbrs, rng, side=None, addable=()):
    for lst in nbrs.values():
        rng.shuffle(lst)
    return {"kind": kind, "prefs": nbrs, "side": side or {}, "addable": set(addable)}


def sparse_sr(rng: random.Random, n: int, degree: int) -> dict:
    """Roommates market with ``n * degree / 2`` distinct uniform random pairs."""
    names = [f"u{i:05d}" for i in range(n)]
    want = n * degree // 2
    edges = set()
    while len(edges) < want:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    nbrs = {u: [] for u in names}
    for a, b in sorted(edges):
        nbrs[names[a]].append(names[b])
        nbrs[names[b]].append(names[a])
    return _market("sr", nbrs, rng)


def dense_sr(rng: random.Random, n: int, density: float, prefix: str = "u") -> dict:
    """Roommates market where each pair is acceptable with probability ``density``."""
    names = [f"{prefix}{i:03d}" for i in range(n)]
    nbrs = {u: [] for u in names}
    for u, v in combinations(names, 2):
        if rng.random() < density:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return _market("sr", nbrs, rng)


def random_sm(rng: random.Random, na: int, nb: int, density: float) -> dict:
    """Marriage market; ``density`` 1.0 gives complete lists."""
    men = [f"m{i:03d}" for i in range(na)]
    women = [f"w{i:03d}" for i in range(nb)]
    nbrs = {u: [] for u in men + women}
    for u in men:
        for v in women:
            if density >= 1.0 or rng.random() < density:
                nbrs[u].append(v)
                nbrs[v].append(u)
    side = {u: "a" for u in men} | {u: "b" for u in women}
    return _market("sm", nbrs, rng, side=side)


def random_matching(rng: random.Random, market: dict, keep: float = 1.0) -> set:
    """A random maximal matching; each pair is then kept with probability ``keep``."""
    pairs = sorted(
        {tuple(sorted((u, v))) for u, lst in market["prefs"].items() for v in lst}
    )
    rng.shuffle(pairs)
    used, out = set(), set()
    for u, v in pairs:
        if u not in used and v not in used:
            used |= {u, v}
            if rng.random() < keep:
                out.add(frozenset((u, v)))
    return out


def with_fillers(rng: random.Random, market: dict, matching: set) -> set:
    """Give each agent the matching leaves uncovered a fresh filler partner.

    The filler is appended to the end of the agent's list and lists only
    that agent; the market is widened in place and the perfect matching
    returned.
    """
    covered = set().union(*matching) if matching else set()
    out = set(matching)
    for i, u in enumerate(sorted(set(market["prefs"]) - covered)):
        f = f"z{i:02d}"
        market["prefs"][u].append(f)
        market["prefs"][f] = [u]
        if market["kind"] == "sm":
            market["side"][f] = "b" if market["side"][u] == "a" else "a"
        out.add(frozenset((u, f)))
    return out


def random_graph(rng: random.Random, n: int, density: float) -> tuple:
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(u, v) for u, v in combinations(vertices, 2) if rng.random() < density]
    return vertices, edges


def instance_text(market: dict) -> str:
    """The instance file format, written from its documented grammar."""
    lines = [f"problem: {market['kind']}"]
    for u in sorted(market["prefs"]):
        attrs = f" side={market['side'][u]}" if market["kind"] == "sm" else ""
        if u in market["addable"]:
            attrs += " addable"
        lines.append(f"agent {u}{attrs}")
    for u in sorted(market["prefs"]):
        lines.append(f"pref {u}: " + " > ".join(market["prefs"][u]))
    return "\n".join(lines) + "\n"


def matching_text(matching) -> str:
    return "".join(f"match {a} {b}\n" for a, b in sorted(tuple(sorted(p)) for p in matching))


def graph_text(vertices, edges) -> str:
    return "vertices " + " ".join(vertices) + "\n" + "".join(f"edge {u} {v}\n" for u, v in edges)
