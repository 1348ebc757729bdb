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
    the pairs of a chosen matching that survive form a stable matching;
    under acceptability deletion every pair of it survives, since no
    action may delete one, so the matching itself must become stable,
``esm`` / ``epsm``
    a stable (resp. perfect and stable) matching exists.

:data:`GOAL_TARGETS` says which target field each goal kind takes, and
:data:`GOAL_KINDS` is read off it; :func:`validate_query` and the CLI
check a goal against that one table.  :func:`goal_test` states each goal
rule once, compiled on the integer core of an instance as a test of
masks, sets of core indices of agents taken out of the market.  A search
compiles it once and tests on it the mask of every agent-action set it
tries (:func:`masked_agents`), with no controlled market built and no
name converted per set; :func:`goal_holds` evaluates a goal on a
controlled instance (:func:`apply_actions`) by the same test, except
that it reads an ``ms`` goal on names
(:func:`~stablectl.stability.is_stable`), apart from the core's blocking
scan that the search uses.  Under acceptability deletion a goal is also
the set of matchings of the queried market that it asks to be stable
(:func:`matching_meets_goal`).  The exact search reads the one of them
with the fewest blocking pairs (:func:`fewest_blocking_pairs`), a branch
and bound on the integer core whose root the goal sets, instead of
testing controlled instances.

Queries and outcomes are immutable; evaluation is purely functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .classic import diagnose, diagnose_fixed_instance, fixing_deletions, index_mask
from .errors import InvalidQueryError
from .model import (
    AgentId,
    Matching,
    Pair,
    RoommatesInstance,
    addable_violations,
    delete_agents,
    delete_pairs,
    induce_with_added,
    pair_text,
)
from .stability import blocking_pairs, check_matching, is_stable

ADD_AGENTS = "addag"
DELETE_AGENTS = "delag"
DELETE_ACCEPTABILITY = "delacc"
ACTIONS = (ADD_AGENTS, DELETE_AGENTS, DELETE_ACCEPTABILITY)

# The one target field each goal kind takes, ``None`` for none.
GOAL_TARGETS = {"ma": "agent", "mp": "pair", "ms": "matching", "esm": None, "epsm": None}
GOAL_KINDS = tuple(GOAL_TARGETS)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ControlQuery:
    instance: RoommatesInstance
    action: str
    goal: ControlGoal
    budget: int


@dataclass(frozen=True, slots=True)
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
    deletion.  Every member of an addable pool is an agent of the market,
    as :func:`~stablectl.model.validate` words it.  A malformed target is
    reported, never raised.  A market that breaks a list rule raises
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
        out += addable_violations(inst)
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

    Deleting a goal's target can never help, so its parts are protected:
    the target agent, or the endpoints of the target pair, under agent
    deletion; the target pair, or every pair of the target matching,
    under acceptability deletion.  A goal matching must itself be stable
    after acceptability deletion, so no answer deletes one of its pairs,
    and no search or witness ever reaches a market that lacks one.
    The addable pool of a valid query holds only agents of the market
    (:func:`validate_query`).
    """
    inst, goal = query.instance, query.goal
    if query.action == ADD_AGENTS:
        return frozenset(inst.addable)
    # A goal carries only its own kind's target (:func:`validate_query`), so
    # the one that is set is the one to protect; ``{None}`` protects nothing.
    if query.action == DELETE_AGENTS:
        return inst.agents - (goal.pair or {goal.agent})
    return inst.acceptable_pairs - (goal.matching or {goal.pair})


def apply_actions(query: ControlQuery, actions) -> RoommatesInstance:
    """The controlled instance after exercising the given action set.

    Raises :class:`InvalidQueryError` when an action lies outside
    :func:`action_universe`.
    """
    chosen = frozenset(actions)
    if not chosen <= action_universe(query):
        raise InvalidQueryError("action outside the candidate universe")
    if query.action == ADD_AGENTS:
        return induce_with_added(query.instance, chosen)
    if query.action == DELETE_AGENTS:
        return delete_agents(query.instance, chosen)
    return delete_pairs(query.instance, chosen)


def masked_agents(
    query: ControlQuery, candidates: Sequence[AgentId]
) -> Callable[[Sequence[int]], frozenset] | None:
    """The mask of each agent-action set that a search draws from ``candidates``.

    A set comes as its members' positions in ``candidates`` (agents of
    :func:`action_universe`), and its mask holds the core indices of the
    agents it takes out: the chosen agents under deletion, the unchosen
    pool under addition.  :func:`apply_actions` removes exactly these
    agents and keeps the order of every list left, so
    ``goal_test(query.instance, goal)(mask(positions))`` is
    ``goal_holds(apply_actions(query, chosen), goal)``.  Names are
    converted once, here.  ``None`` under acceptability deletion, which
    removes pairs, not agents.
    """
    if query.action == DELETE_ACCEPTABILITY:
        return None
    inst = query.instance
    core = inst.core
    ids = [core.index[u] for u in candidates]
    if query.action == DELETE_AGENTS:
        return lambda positions: frozenset(map(ids.__getitem__, positions))
    pool = index_mask(core, inst.addable)
    return lambda positions: pool.difference(map(ids.__getitem__, positions))


def fewest_blocking_pairs(query: ControlQuery) -> tuple[Matching, frozenset] | None:
    """The matching an acceptability-deletion goal asks for with the fewest blocking pairs.

    The goal asks for any matching of ``query.instance`` under ``esm``, a
    perfect one under ``epsm``, one covering the target agent under
    ``ma``, one containing the target pair under ``mp``, and the target
    itself under ``ms`` (:func:`matching_meets_goal`).  Of these, the one
    returned has the fewest blocking pairs, and then the lexicographically
    smallest sorted list of them, each pair read as its two names in
    order.  Core indices follow the sorted names, so that is the order of
    their sorted integer pairs.  ``(matching, blocking pairs)``, or
    ``None`` when the goal asks for no matching.

    A depth-first branch and bound over partial matchings on the market's
    core; :mod:`stablectl.exact` gives the argument that its pruning keeps
    that answer.  An ``ms`` target is the only matching its goal asks
    for, so its blocking pairs (:func:`~stablectl.stability.blocking_pairs`)
    are the answer.  Otherwise the goal sets the root: ``mp`` decides its
    target pair, and ``epsm`` and ``ma`` mark the agents that must be
    matched.  Each node then decides the smallest undecided agent: each
    undecided partner in its list order first, then unmatched, unless
    that agent must be matched.  A node's blocking pairs are read by
    :meth:`~stablectl.model.MarketCore.blocking` with each undecided agent
    bounded at its first undecided partner, the best it can still get,
    and a node where an agent that must be matched has no undecided
    partner left has no leaf.  The frames live on an explicit stack, so
    the search makes no reference cycle and its depth is not bounded by
    the interpreter's recursion limit.
    """
    inst, goal = query.instance, query.goal
    if goal.kind == "ms":
        return goal.matching, blocking_pairs(inst, goal.matching)
    core = inst.core
    index, pref, mirror = core.index, core.pref, core.mirror
    n = len(pref)
    # ``mate[u]`` is -1 while ``u`` is undecided, ``u`` once it is left unmatched.
    mate, bound, must = [-1] * n, [0] * n, [goal.kind == "epsm"] * n
    if goal.kind == "mp":
        i, j = (index[u] for u in goal.pair)
        p = pref[i].index(j)
        mate[i], mate[j], bound[i], bound[j] = j, i, p, mirror[i][p]
    elif goal.kind == "ma":
        must[index[goal.agent]] = True
    best, leaf, frames, u = (float("inf"), []), None, [], -1
    while True:
        # Visit the node just made, the root first; every agent up to ``u``
        # is decided.
        nxt, dead = n, False
        for v in range(u + 1, n):
            if mate[v] < 0:
                p = 0
                for w in pref[v]:
                    if mate[w] < 0:
                        break
                    p += 1
                bound[v] = p
                if nxt == n:
                    nxt = v
                if must[v] and p == len(pref[v]):
                    dead = True
        if not dead:
            found = list(core.blocking(bound))
            key = (len(found), sorted(found))
            if key < best:
                if nxt == n:
                    best, leaf = key, (mate.copy(), found)
                else:
                    frames.append([nxt, 0])
        # Make the next child: undo the decision of the deepest frame with
        # an option left, and take its next option.
        while frames:
            frame = frames[-1]
            u, p = frame
            if (v := mate[u]) >= 0:
                mate[u] = mate[v] = -1
            lst = pref[u]
            while p < len(lst) and mate[lst[p]] >= 0:
                p += 1
            if p < len(lst):
                v = lst[p]
                mate[u], mate[v], bound[u], bound[v] = v, u, p, mirror[u][p]
            elif must[u] or p > len(lst):
                frames.pop()
                continue
            else:
                mate[u], bound[u] = u, p
            frame[1] = p + 1
            break
        else:
            break
    if leaf is None:
        return None
    names, (mate, found) = core.names, leaf
    matching = frozenset(frozenset((names[u], names[v])) for u, v in enumerate(mate) if u < v)
    return matching, frozenset(frozenset((names[u], names[v])) for u, v in found)


def matching_meets_goal(inst: RoommatesInstance, goal: ControlGoal, matching: Matching) -> bool:
    """Whether ``matching``, a matching of ``inst``, is one that ``goal`` asks to be stable.

    See :func:`fewest_blocking_pairs`.  A perfect matching has a pair for every
    two agents, since no two of its pairs share an agent.
    """
    if goal.kind == "esm":
        return True
    if goal.kind == "epsm":
        return 2 * len(matching) == len(inst.agents)
    if goal.kind == "ma":
        return any(goal.agent in p for p in matching)
    if goal.kind == "mp":
        return goal.pair in matching
    if goal.kind == "ms":
        return matching == goal.matching
    raise InvalidQueryError(f"unknown goal {goal.kind!r}")


def goal_holds(inst: RoommatesInstance, goal: ControlGoal) -> bool:
    """Evaluate a goal on a concrete instance ``inst``.

    Every goal but ``ms`` is :func:`goal_test` of ``inst`` and ``goal``,
    asked about the empty mask, so each of those rules is stated there
    once.  An ``ms`` goal is read on names instead
    (:func:`~stablectl.stability.is_stable`): the target's acceptable
    pairs must form a stable matching, which raises ``ValueError`` when
    they are no matching (:func:`check_matching`).  It builds no core, so
    the witness certificate of an ``ms`` search checks the search's
    blocking scan against a second implementation.
    """
    if goal.kind != "ms":
        return goal_test(inst, goal)(frozenset())
    if goal.matching is None:
        return False
    kept = frozenset(p for p in goal.matching if inst.is_acceptable_pair(p))
    return is_stable(inst, kept)


def _never(mask: frozenset) -> bool:
    """The test of a goal whose target does not resolve in the market."""
    return False


def goal_test(inst: RoommatesInstance, goal: ControlGoal) -> Callable[[frozenset], bool]:
    """``goal`` compiled once on the cached core of ``inst``, as a test of masks.

    A mask is a frozenset of core indices, and ``goal_test(inst,
    goal)(mask)`` is ``goal_holds(delete_agents(inst, masked agents),
    goal)``.  What is fixed for a search is derived here, once: the
    interested indices, the pair fixing, the target's partner positions.
    A target that does not resolve (an agent outside the market, a pair
    that is not acceptable) makes the goal false under every mask, and a
    masked target agent or endpoint makes it false under that mask.

    ``esm``, ``epsm`` and ``ma`` ask whether some stable matching of the
    masked market (:func:`~stablectl.classic.diagnose`) matches no
    agent, every agent left, or the target agent
    (:attr:`~stablectl.classic.PartitionDiagnosis.matches_interested`).
    ``mp`` asks it for the agents the endpoints outrank, on the pair's
    fixing made once and masked per call
    (:func:`~stablectl.classic.diagnose_fixed_instance`).

    ``ms`` asks that the target's pairs that survive form a stable
    matching: the same as some stable matching lying inside the target,
    since a dropped surviving pair would leave both its agents unmatched
    and blocking.  Under acceptability deletion :func:`action_universe`
    protects every target pair, so the target itself must become stable.
    Each member of an acceptable target pair is bounded at its partner's
    position, a masked agent at 0 (it prefers no one) and an agent whose
    partner is masked past its last entry, and
    :meth:`~stablectl.model.MarketCore.blocking` decides.
    """
    core = inst.core
    if goal.kind == "esm":
        return lambda mask: diagnose(inst, (), mask).matches_interested
    if goal.kind == "epsm":
        everyone = frozenset(range(len(core.names)))
        return lambda mask: diagnose(inst, everyone - mask, mask).matches_interested
    if goal.kind == "ma":
        target = core.index.get(goal.agent)
        if target is None:
            return _never
        interested = (target,)
        return lambda mask: (
            target not in mask and diagnose(inst, interested, mask).matches_interested
        )
    if goal.kind == "mp":
        if not inst.is_acceptable_pair(goal.pair):
            return _never
        fixing = fixing_deletions(inst, *sorted(goal.pair))
        ends = index_mask(core, goal.pair)
        return lambda mask: (
            ends.isdisjoint(mask) and diagnose_fixed_instance(fixing, mask).matches_interested
        )
    if goal.kind == "ms":
        if goal.matching is None:
            return _never
        partners = check_matching(inst, [p for p in goal.matching if inst.is_acceptable_pair(p)])
        index, pref, whole = core.index, core.pref, core.whole
        mate = [-1] * len(whole)
        base = [w + 1 for w in whole]
        for u, v in partners.items():
            i, j = index[u], index[v]
            mate[i], base[i] = j, pref[i].index(j)

        def holds(mask: frozenset) -> bool:
            bound = base.copy()
            for u in mask:
                if (v := mate[u]) >= 0:
                    bound[v] = whole[v] + 1
            for u in mask:
                bound[u] = 0
            return next(core.blocking(bound), None) is None

        return holds
    raise InvalidQueryError(f"unknown goal {goal.kind!r}")
