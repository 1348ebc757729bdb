"""Shared fixtures and small instance builders for the test suite."""

from __future__ import annotations

import itertools
import random

from stablectl import classic
from stablectl.classic import StablePartition
from stablectl.model import make_sm, make_sr


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


def fault_the_engine(monkeypatch, partition):
    """Make every engine run assemble ``partition(names)`` instead of what it reached.

    The stand-in sits inside the run, before the run checks its partition,
    so every path to the engine meets it and the check alike.
    """
    monkeypatch.setattr(classic._Table, "_assemble", lambda table: partition(table.names))


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


def count_engine_calls(monkeypatch) -> dict:
    """Count integer tables built and engine runs, at the engine's own seam."""
    counts = {"tables": 0, "runs": 0}
    build, run = classic._Table.__init__, classic._Table.run

    def counted_build(table, *args, **kwargs):
        counts["tables"] += 1
        return build(table, *args, **kwargs)

    def counted_run(table, *args, **kwargs):
        counts["runs"] += 1
        return run(table, *args, **kwargs)

    monkeypatch.setattr(classic._Table, "__init__", counted_build)
    monkeypatch.setattr(classic._Table, "run", counted_run)
    return counts


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
