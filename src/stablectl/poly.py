"""Polynomial-time control solvers.

Three problems admit efficient algorithms and are solved here exactly:

* agent deletion with a pair goal (:func:`solve_delag_mp`),
* agent deletion with an agent goal (:func:`solve_delag_ma`), reduced to
  the pair case over every acceptable partner, and
* acceptability deletion with a matching goal (:func:`solve_delacc_ms`),
  where the blocking pairs of the target matching are exactly the edges
  that must go.

The pair solver works on the *fixed* instance: delete every pair that
would let the target's endpoints do better than each other, so that the
two become mutual first choices.  In the fixed instance, a deletion set
works exactly when, after removing it, a stable matching covers every
agent that preferred an endpoint of the target to its own partner.  The
stable partition of the fixed instance reads that number off directly:
one deletion per odd party of size three or more, plus one for every
singleton party formed by such an agent.

Every solver re-verifies a positive witness by applying it and checking
stability; a failure there is a bug, never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classic import StablePartition, partition_to_matching, tan_stable_partition
from .control import ControlOutcome
from .errors import InternalError
from .model import (
    AgentId,
    Matching,
    Pair,
    RoommatesInstance,
    delete_agents,
    delete_pairs,
    pair_text,
)
from .stability import blocking_pairs, is_stable


@dataclass(frozen=True)
class FixingContext:
    """The instance reduced so that a target pair is mutually top-ranked.

    ``a_star`` holds the agents ``a`` prefers to ``b``; ``b_star`` the
    agents ``b`` prefers to ``a``.  ``fixing_pairs`` is the deleted edge
    set and ``reduced`` the instance without it.
    """

    a: AgentId
    b: AgentId
    a_star: frozenset
    b_star: frozenset
    fixing_pairs: frozenset
    reduced: RoommatesInstance


@dataclass(frozen=True)
class PartitionDiagnosis:
    """What the stable partition of a fixed instance says about deletions."""

    partition: StablePartition
    odd_count: int
    forbidden_singletons: frozenset


def fixing_deletions(inst: RoommatesInstance, a: AgentId, b: AgentId) -> FixingContext:
    """Delete every pair that competes with ``{a, b}``.

    Removed are the pairs ``{x, y}`` where ``x`` prefers ``a`` to ``y``
    (or ``y`` is ``a`` itself) for some ``x`` that ``a`` prefers to ``b``,
    and symmetrically on ``b``'s side.  Afterwards ``a`` and ``b`` are
    each other's first choices.
    """
    if a == b or not inst.acceptable(a, b):
        raise ValueError(f"target pair {a},{b} is not acceptable in the instance")
    a_star = frozenset(x for x in inst.prefs[a] if inst.prefers(a, x, b))
    b_star = frozenset(x for x in inst.prefs[b] if inst.prefers(b, x, a))
    fixing = set()
    for star, anchor in ((a_star, a), (b_star, b)):
        for x in star:
            # ``anchor`` itself and every entry ``x`` ranks below it.
            for y in inst.prefs[x][inst.rank(x, anchor):]:
                fixing.add(frozenset((x, y)))
    ctx = FixingContext(
        a=a,
        b=b,
        a_star=a_star,
        b_star=b_star,
        fixing_pairs=frozenset(fixing),
        reduced=delete_pairs(inst, fixing),
    )
    reduced = ctx.reduced
    if reduced.prefs[a][0] != b or reduced.prefs[b][0] != a:
        raise InternalError("fixing deletions did not make the target mutually top-ranked")
    return ctx


def diagnose_fixed_instance(ctx: FixingContext) -> PartitionDiagnosis:
    partition = tan_stable_partition(ctx.reduced)
    interested = ctx.a_star | ctx.b_star
    return PartitionDiagnosis(
        partition=partition,
        odd_count=len(partition.odd_parties()),
        forbidden_singletons=partition.singletons & interested,
    )


def pair_fixing_cost(inst: RoommatesInstance, target: Pair) -> int:
    """Minimum number of agent deletions putting ``target`` into a stable matching."""
    a, b = sorted(target)
    diag = diagnose_fixed_instance(fixing_deletions(inst, a, b))
    return diag.odd_count + len(diag.forbidden_singletons)


def solve_delag_mp(inst: RoommatesInstance, target: Pair, budget: int) -> ControlOutcome:
    """Agent deletion until ``target`` lies in some stable matching."""
    a, b = sorted(target)
    ctx = fixing_deletions(inst, a, b)
    diag = diagnose_fixed_instance(ctx)
    optimum = diag.odd_count + len(diag.forbidden_singletons)
    witness = frozenset(
        {min(party) for party in diag.partition.odd_parties()} | diag.forbidden_singletons
    )
    if len(witness) != optimum or witness & {a, b}:
        raise InternalError("malformed deletion witness")
    if optimum <= budget:
        _verify_mp_witness(inst, ctx, witness)
        return ControlOutcome(verdict=True, optimum=optimum, witness=witness)
    return ControlOutcome(verdict=False, optimum=optimum, witness=None)


def _verify_mp_witness(inst: RoommatesInstance, ctx: FixingContext, witness) -> None:
    """Check that deleting the witness really makes the target pair stable-matched."""
    fixed_rest = delete_agents(ctx.reduced, witness)
    partition = tan_stable_partition(fixed_rest)
    if partition.odd_parties():
        raise InternalError("witness deletion left an odd party")
    if partition.singletons & ((ctx.a_star | ctx.b_star) - witness):
        raise InternalError("witness deletion left an interested agent unmatched")
    _, matching = partition_to_matching(fixed_rest, partition)
    if frozenset((ctx.a, ctx.b)) not in matching:
        raise InternalError("stable matching of the fixed instance misses the target")
    if not is_stable(delete_agents(inst, witness), matching):
        raise InternalError("witness matching is unstable in the controlled instance")


def solve_delag_ma(inst: RoommatesInstance, target: AgentId, budget: int) -> ControlOutcome:
    """Agent deletion until ``target`` is covered by some stable matching.

    Tries every acceptable partner of ``target`` and keeps the cheapest;
    ties break on the smaller partner identifier.  With no acceptable
    partner the goal is unreachable and the optimum unknown.
    """
    if target not in inst.agents:
        raise ValueError(f"unknown agent {target!r}")
    best: tuple[int, AgentId] | None = None
    for partner in sorted(inst.prefs[target]):
        cost = pair_fixing_cost(inst, frozenset((target, partner)))
        if best is None or cost < best[0]:
            best = (cost, partner)
    if best is None:
        return ControlOutcome(verdict=False, optimum=None, witness=None)
    outcome = solve_delag_mp(inst, frozenset((target, best[1])), budget)
    if outcome.optimum != best[0]:
        raise InternalError("partner scan and pair solver disagree")
    return outcome


def solve_delacc_ms(inst: RoommatesInstance, matching: Matching, budget: int) -> ControlOutcome:
    """Acceptability deletion until ``matching`` is stable.

    The blocking pairs of ``matching`` must all be removed and removing
    them suffices, so they are both the witness and the optimum.
    """
    blockers = blocking_pairs(inst, matching)
    optimum = len(blockers)
    if optimum:
        stabilised = delete_pairs(inst, blockers)
        if not is_stable(stabilised, matching):
            raise InternalError(
                f"removing {' '.join(sorted(map(pair_text, blockers)))} did not stabilise"
            )
    return ControlOutcome(verdict=optimum <= budget, optimum=optimum, witness=blockers)
