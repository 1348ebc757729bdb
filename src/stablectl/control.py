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

:data:`GOAL_TARGETS` says which target field each goal kind takes, and
:data:`GOAL_KINDS` is read off it; :func:`validate_query` and the CLI
check a goal against that one table.

Queries and outcomes are immutable; evaluation is purely functional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classic import diagnose, pair_fixing_cost
from .errors import InvalidQueryError
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
from .stability import check_matching, is_stable

ADD_AGENTS = "addag"
DELETE_AGENTS = "delag"
DELETE_ACCEPTABILITY = "delacc"
ACTIONS = (ADD_AGENTS, DELETE_AGENTS, DELETE_ACCEPTABILITY)

# The one target field each goal kind takes, ``None`` for none.
GOAL_TARGETS = {"ma": "agent", "mp": "pair", "ms": "matching", "esm": None, "epsm": None}
GOAL_KINDS = tuple(GOAL_TARGETS)


@dataclass(frozen=True)
class ControlGoal:
    """A goal kind plus its target, if the kind takes one (:data:`GOAL_TARGETS`)."""

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


def validate_query(query: ControlQuery) -> list[str]:
    """Structural checks for a query; empty result means well-formed.

    The goal carries exactly the target :data:`GOAL_TARGETS` names for its
    kind: an original agent, an acceptable pair of original agents, or a
    matching (:func:`check_matching`), perfect under agent addition or
    deletion.  A malformed target is reported, never raised.  A market
    that breaks a list rule raises
    :class:`~stablectl.errors.InvalidInstanceError` when its ``core`` is
    built: here for agent addition, whose search starts from the market
    without its pool, and for a matching goal, whose test never runs the
    partition engine, and by the engine for every other query.
    """
    inst = query.instance
    out: list[str] = []
    if query.action not in ACTIONS:
        out.append(f"unknown action {query.action!r}")
        return out
    goal = query.goal
    if goal.kind not in GOAL_KINDS:
        out.append(f"unknown goal {goal.kind!r}")
        return out
    if query.budget < 0:
        out.append("budget must be non-negative")
    if query.action == ADD_AGENTS:
        # The search starts from the market without its pool and may answer
        # before any run reads a pool agent's list: prove the whole market.
        inst.core
        if not inst.addable:
            out.append("agent addition needs a non-empty addable pool")
    elif inst.addable:
        out.append("only agent-addition queries may carry addable agents")
    field = GOAL_TARGETS[goal.kind]
    target = None if field is None else getattr(goal, field)
    if field is not None and target is None:
        out.append(f"goal {goal.kind} needs a target {field}")
    elif (goal.agent, goal.pair, goal.matching).count(None) != 2 + (field is None):  # a stray one
        only = "no target" if field is None else f"only a target {field}"
        out.append(f"goal {goal.kind} takes {only}")
    elif field == "agent":
        # Original agents, those outside the addable pool, are tested on
        # ``agents`` and ``addable`` directly, without building their set.
        if not (isinstance(target, str) and target in inst.agents and target not in inst.addable):
            out.append(f"target agent {target} is not an original agent")
    elif field == "pair":
        if not (isinstance(target, frozenset) and len(target) == 2):
            out.append(f"target pair {target!r} is not a pair of agents")
        elif not (target <= inst.agents and inst.addable.isdisjoint(target)):
            out.append("target pair endpoints must be original agents")
        elif not inst.acceptable(*target):
            out.append(f"target pair {pair_text(target)} is not acceptable")
    elif field == "matching":
        inst.core  # an ``ms`` answer runs no engine: prove the list rules here, or raise
        try:
            partners = check_matching(inst, target)
        except ValueError as exc:
            out.append(f"target matching {exc}")
        else:
            if query.action != DELETE_ACCEPTABILITY and len(partners) != len(inst.agents):
                uncovered = inst.agents - partners.keys()
                out.append(
                    "target matching must be perfect, uncovered: " + " ".join(sorted(uncovered))
                )
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


def goal_holds(inst: RoommatesInstance, goal: ControlGoal, action: str = DELETE_AGENTS) -> bool:
    """Evaluate a goal on a concrete (already controlled) instance.

    ``action`` records which control action produced ``inst``; it only
    matters for the ``ms`` goal, whose convention differs: under
    acceptability deletion the target matching itself must survive and be
    stable, under agent addition/deletion it suffices that some stable
    matching sits inside the target's surviving pairs.  Targets that no
    longer resolve, such as a deleted agent or a pair with a missing
    endpoint, make the goal false rather than raising.

    Every goal but ``ms`` is a diagnosis cost of 0.  ``esm``, ``epsm`` and
    ``ma`` ask :func:`~stablectl.classic.diagnose` whether some stable
    matching matches every agent that the goal needs matched (none, all,
    or the target agent), and ``mp`` asks
    :func:`~stablectl.classic.pair_fixing_cost` whether no deletion is
    needed to put the pair into one.
    """
    if goal.kind in ("esm", "epsm", "ma"):
        if goal.kind == "ma" and goal.agent not in inst.agents:
            return False
        needed = {"esm": (), "epsm": inst.agents, "ma": (goal.agent,)}[goal.kind]
        return diagnose(inst, needed).cost == 0
    if goal.kind == "mp":
        if goal.pair is None or not inst.is_acceptable_pair(goal.pair):
            return False
        return pair_fixing_cost(inst, goal.pair) == 0
    if goal.kind == "ms":
        if goal.matching is None:
            return False
        if action == DELETE_ACCEPTABILITY:
            # The target matching must be intact and stable as it stands.
            if not all(inst.is_acceptable_pair(p) for p in goal.matching):
                return False
            return is_stable(inst, goal.matching)
        # A stable matching inside the target keeps every target pair that
        # survives in ``inst``: a dropped one leaves both its agents
        # unmatched and blocking.  So the surviving pairs are the only
        # candidate.
        return is_stable(inst, frozenset(p for p in goal.matching if inst.is_acceptable_pair(p)))
    raise InvalidQueryError(f"unknown goal {goal.kind!r}")
