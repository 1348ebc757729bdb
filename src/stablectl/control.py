"""Control queries: actions, goals, budgets, and goal evaluation.

A control query pairs an instance with one of three actions (adding
agents from a designated pool, deleting agents, or deleting
acceptability), a goal, and a budget limiting how many actions may be
taken.  Goals:

``ma``
    a chosen agent is covered by some stable matching,
``mp``
    a chosen pair is contained in some stable matching,
``ms``
    a chosen matching (restricted to the surviving market) contains a
    stable matching, or, for acceptability deletion, is itself stable,
``esm`` / ``epsm``
    a stable (resp. perfect and stable) matching exists.

Queries and outcomes are immutable; evaluation is purely functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .classic import irving_stable_matching
from .errors import CapExceededError, InvalidQueryError
from .model import (
    AgentId,
    Matching,
    Pair,
    RoommatesInstance,
    delete_agents,
    delete_pairs,
    induce_with_added,
    pair_text,
)
from .stability import covered_agents, is_stable

ADD_AGENTS = "addag"
DELETE_AGENTS = "delag"
DELETE_ACCEPTABILITY = "delacc"
ACTIONS = (ADD_AGENTS, DELETE_AGENTS, DELETE_ACCEPTABILITY)

GOAL_KINDS = ("ma", "mp", "ms", "esm", "epsm")

DEFAULT_MS_CAP = 20


@dataclass(frozen=True)
class ControlGoal:
    """A goal kind plus its target, if the kind takes one."""

    kind: str
    agent: AgentId | None = None
    pair: Pair | None = None
    matching: Matching | None = None

    @classmethod
    def ma(cls, agent: AgentId) -> "ControlGoal":
        return cls(kind="ma", agent=agent)

    @classmethod
    def mp(cls, target: Pair) -> "ControlGoal":
        return cls(kind="mp", pair=target)

    @classmethod
    def ms(cls, matching: Matching) -> "ControlGoal":
        return cls(kind="ms", matching=frozenset(matching))

    @classmethod
    def esm(cls) -> "ControlGoal":
        return cls(kind="esm")

    @classmethod
    def epsm(cls) -> "ControlGoal":
        return cls(kind="epsm")


@dataclass(frozen=True)
class ControlQuery:
    instance: RoommatesInstance
    action: str
    goal: ControlGoal
    budget: int


@dataclass(frozen=True)
class ControlOutcome:
    """Verdict plus, when known, the minimum action count and a witness."""

    verdict: bool
    optimum: int | None = None
    witness: frozenset | None = None


def original_agents(query: ControlQuery) -> frozenset:
    """The original market: every agent outside the addable pool."""
    return query.instance.agents - query.instance.addable


def validate_query(query: ControlQuery) -> list[str]:
    """Structural checks for a query; empty result means well-formed."""
    inst = query.instance
    out: list[str] = []
    if query.action not in ACTIONS:
        out.append(f"unknown action {query.action!r}")
        return out
    if query.goal.kind not in GOAL_KINDS:
        out.append(f"unknown goal {query.goal.kind!r}")
        return out
    if query.budget < 0:
        out.append("budget must be non-negative")
    if query.action == ADD_AGENTS:
        if not inst.addable:
            out.append("agent addition needs a non-empty addable pool")
    elif inst.addable:
        out.append("only agent-addition queries may carry addable agents")
    originals = original_agents(query)
    goal = query.goal
    if goal.kind == "ma":
        if goal.agent is None:
            out.append("goal ma needs a target agent")
        elif goal.agent not in originals:
            out.append(f"target agent {goal.agent} is not an original agent")
    elif goal.kind == "mp":
        if goal.pair is None:
            out.append("goal mp needs a target pair")
        elif not (goal.pair <= originals):
            out.append("target pair endpoints must be original agents")
        elif not inst.is_acceptable_pair(goal.pair):
            out.append(f"target pair {pair_text(goal.pair)} is not acceptable")
    elif goal.kind == "ms":
        if goal.matching is None:
            out.append("goal ms needs a target matching")
        else:
            seen: set[AgentId] = set()
            for p in goal.matching:
                if not inst.is_acceptable_pair(p):
                    out.append(f"target matching pair {pair_text(p)} is not acceptable")
                if seen & p:
                    out.append("target matching matches an agent twice")
                seen |= p
            if query.action in (ADD_AGENTS, DELETE_AGENTS):
                uncovered = inst.agents - covered_agents(goal.matching)
                if uncovered:
                    out.append(
                        "target matching must be perfect, uncovered: "
                        + " ".join(sorted(uncovered))
                    )
    else:
        if goal.agent is not None or goal.pair is not None or goal.matching is not None:
            out.append(f"goal {goal.kind} takes no target")
    return out


def action_universe(query: ControlQuery):
    """The set of individual actions the controller may pick from.

    Deleting a goal-target agent (or an endpoint of a goal pair, or the
    goal pair itself) can never help, so those are excluded.
    """
    inst = query.instance
    goal = query.goal
    if query.action == ADD_AGENTS:
        return frozenset(inst.addable)
    if query.action == DELETE_AGENTS:
        protected: set[AgentId] = set()
        if goal.kind == "ma" and goal.agent is not None:
            protected.add(goal.agent)
        if goal.kind == "mp" and goal.pair is not None:
            protected |= goal.pair
        return frozenset(inst.agents - protected)
    protected_pairs = {goal.pair} if goal.kind == "mp" and goal.pair is not None else set()
    return frozenset(inst.acceptable_pairs - protected_pairs)


def apply_actions(query: ControlQuery, actions) -> RoommatesInstance:
    """The controlled instance after exercising the given action set."""
    chosen = frozenset(actions)
    universe = action_universe(query)
    if not chosen <= universe:
        raise InvalidQueryError("action outside the candidate universe")
    if query.action == ADD_AGENTS:
        return induce_with_added(query.instance, chosen)
    if query.action == DELETE_AGENTS:
        return delete_agents(query.instance, chosen)
    return delete_pairs(query.instance, chosen)


def _ms_restricted(inst: RoommatesInstance, matching: Matching) -> Matching:
    return frozenset(p for p in matching if inst.is_acceptable_pair(p))


def _ms_holds(inst: RoommatesInstance, matching: Matching, exhaustive: bool, cap: int) -> bool:
    """Does some stable matching of ``inst`` sit inside ``matching``?

    Any stable subset must contain every pair of ``matching`` that
    survives in ``inst``: a dropped surviving pair leaves both its agents
    unmatched and blocking.  The restriction of ``matching`` to surviving
    pairs is therefore the only candidate; ``exhaustive`` re-derives the
    answer by checking every subset instead, as a cross-validation path.
    """
    survivors = _ms_restricted(inst, matching)
    if not exhaustive:
        return is_stable(inst, survivors)
    pairs = sorted(survivors, key=lambda p: tuple(sorted(p)))
    if len(pairs) > cap:
        raise CapExceededError(
            f"{len(pairs)} matching pairs exceed the subset-enumeration cap of {cap}"
        )
    for size in range(len(pairs), -1, -1):
        for combo in combinations(pairs, size):
            if is_stable(inst, frozenset(combo)):
                return True
    return False


def goal_holds(
    inst: RoommatesInstance,
    goal: ControlGoal,
    action: str = DELETE_AGENTS,
    ms_exhaustive: bool = False,
    ms_cap: int = DEFAULT_MS_CAP,
) -> bool:
    """Evaluate a goal on a concrete (already controlled) instance.

    ``action`` records which control action produced ``inst``; it only
    matters for the ``ms`` goal, whose convention differs: under
    acceptability deletion the target matching itself must survive and be
    stable, under agent addition/deletion it suffices that some stable
    matching sits inside the target's surviving pairs.  Targets that no
    longer resolve, such as a deleted agent or a pair with a missing
    endpoint, make the goal false rather than raising.
    """
    if goal.kind == "esm":
        return irving_stable_matching(inst) is not None
    if goal.kind == "epsm":
        matching = irving_stable_matching(inst)
        # Every stable matching covers the same agents, so one sample decides.
        return matching is not None and covered_agents(matching) == inst.agents
    if goal.kind == "ma":
        if goal.agent not in inst.agents:
            return False
        matching = irving_stable_matching(inst)
        return matching is not None and goal.agent in covered_agents(matching)
    if goal.kind == "mp":
        if goal.pair is None or not inst.is_acceptable_pair(goal.pair):
            return False
        from .poly import pair_fixing_cost

        return pair_fixing_cost(inst, goal.pair) == 0
    if goal.kind == "ms":
        if goal.matching is None:
            return False
        if action == DELETE_ACCEPTABILITY:
            # The target matching must be intact and stable as it stands.
            if not all(inst.is_acceptable_pair(p) for p in goal.matching):
                return False
            return is_stable(inst, goal.matching)
        return _ms_holds(inst, goal.matching, ms_exhaustive, ms_cap)
    raise InvalidQueryError(f"unknown goal {goal.kind!r}")
