"""Exhaustive ground-truth solver for every action/goal combination.

Agent addition and agent deletion search candidate action sets by
increasing cardinality, and lexicographically within one cardinality, so
the reported optimum is the true minimum and the witness is the smallest
successful set in that order.

Each set is tested as a mask on the queried market, and no market is
built for it.  The goal is compiled once per search on the market's one
cached core (:func:`~stablectl.control.goal_test`), and
:func:`~stablectl.control.masked_agents` gives each set's mask as core
indices: the agents the set takes out (the chosen agents under deletion,
the unchosen pool under addition), so no set converts a name.  The
engine starts each masked agent at tail -1, so its own list is empty and
its live rule kills every entry that names it.  The live entries are then
exactly those of the market that exercising the set builds, the
survivors keep their relative order, and a masked agent never proposes
or starts a rotation, so the run makes the same steps and reaches the
same partition, with each masked agent alone.  Nothing that decides a
goal depends on that anyway: the odd parties and the singletons are the
same in every stable partition, whatever the processing order [Tan 1991,
J. Algorithms 12:154; Irving 1985, J. Algorithms 6:577].  So a masked
agent is never one the goal needs matched, and a pair fixing made once on
the whole market is the fixing of every masked market once the masked
tails are set to -1.  An ``ms`` goal is read by the core's blocking scan
with each masked agent preferring no one.  The witness found is
certified once on a real market: the one that
:func:`~stablectl.control.apply_actions` builds from it, once it has
checked that the witness lies in the action universe.  The goal must
hold there too, or :class:`InternalError` is raised.  An ``ms`` witness
is certified there on names (:func:`~stablectl.stability.is_stable`), by
code the search never runs.

Acceptability deletion searches matchings instead of pair sets, and
reaches the same optimum and witness.  A pair set ``D`` makes a matching
``M`` stable in the market without ``D`` exactly when ``D`` avoids ``M``
and holds every pair that blocks ``M`` in the whole market.  Deleting
pairs keeps the order of every surviving list, and a pair of ``M`` never
blocks ``M``, so a surviving pair blocks ``M`` in the market without
``D`` exactly when it blocks ``M`` in the whole market.  So ``D`` meets a
goal exactly when some matching ``M`` that the goal asks for
(:func:`~stablectl.control.matching_meets_goal`) avoids ``D`` and has its
blocking set ``B(M)`` inside ``D``.  ``B(M)`` never holds a pair of
``M``, so it never holds a protected target pair and lies in
:func:`~stablectl.control.action_universe`; it works on its own.  Every
working set of the optimal size ``k`` is therefore some ``B(M)`` with
``|B(M)| = k``, and the witness is the first such set in the order above:
fewest pairs first, then the lexicographic order of the sorted candidate
positions, the order in which ``combinations`` reaches them.  This is
the minimum-blocking-pairs problem of almost-stable matchings, which is
NP-hard [Abraham, Biró & Manlove 2006; Biró, Manlove & Mittal 2010].

The least ``B(M)`` is found by a branch and bound over partial matchings
on the market's integer core
(:func:`~stablectl.control.fewest_blocking_pairs`), not by listing every
matching, so its cost follows the optimum rather than the number of
matchings.  A node decides some agents; each undecided agent is bounded
at its first undecided partner, and
:meth:`~stablectl.model.MarketCore.blocking` reads the node's pairs.
Every leaf below the node matches each undecided agent to one of its
undecided partners or to no one, so the agent ends at or past that
bound, and a pair that blocks at the node's bounds blocks at the leaf's.
So the node's blocking set lies inside that of every leaf below it, and
its count never falls on the way down.  A node is pruned when its count
exceeds the best found so far, or equals it and its sorted pairs are not
lexicographically smaller than the best's: at equal size only a leaf
that adds no pair can tie, and that leaf's set is the node's.  Core
indices follow the sorted names, so the sorted pairs compare as their
sorted candidate positions do, and the witness stays the first
fewest-blocking set in the order of the pair search.  The answer is
certified with none of that code, as a ``delacc-ms`` answer is: the
witness is a set of candidates, its matching meets the goal, and
:func:`~stablectl.stability.is_stable` finds it stable once the witness
is deleted.  A failed check raises :class:`InternalError`.

The search refuses instances whose candidate count exceeds the cap
instead of truncating: answers are exact or absent, never approximate.
The cap counts candidate actions under every action, pairs under
acceptability deletion, and is the only refusal.

The search result does not depend on the budget, so it runs once per
action and goal on an instance and is kept in that instance's
``search_memo``; a later call at another budget (or the same one) only
derives its verdict from it.  The memo lives and dies with the instance,
which is immutable, so it cannot go stale; an equal but distinct instance
searches again.  A hit is kept with the size of the action universe,
and answers with no other work: its query passed every check but the
budget's sign and the cap, so only those two are made again.  The cap is
checked on every call, memo hit or not; only a search builds and sorts
the universe into its candidate order.
"""

from __future__ import annotations

from itertools import combinations

from .control import (
    ControlOutcome,
    ControlQuery,
    action_universe,
    apply_actions,
    fewest_blocking_pairs,
    goal_holds,
    goal_test,
    masked_agents,
    matching_meets_goal,
    validate_query,
)
from .errors import CapExceededError, InternalError, InvalidQueryError
from .stability import is_stable

DEFAULT_CANDIDATE_CAP = 20


def _sort_key(item):
    if isinstance(item, frozenset):
        return tuple(sorted(item))
    return (item,)


def _first_success(query: ControlQuery, candidates: list, mask, max_size: int):
    """The first agent-action set that meets the goal, as ``(size, witness)``, or ``None``.

    The goal is compiled once on the queried market and each set, given
    by its candidate positions, is tested as a mask on it (``mask``, from
    :func:`~stablectl.control.masked_agents`); the witness is certified
    once on the market that :func:`~stablectl.control.apply_actions`
    builds from it, which also checks it against the action universe.
    """
    holds = goal_test(query.instance, query.goal)
    for size in range(0, max_size + 1):
        for combo in combinations(range(len(candidates)), size):
            if holds(mask(combo)):
                chosen = frozenset(candidates[i] for i in combo)
                if not goal_holds(apply_actions(query, chosen), query.goal):
                    raise InternalError("the witness meets the goal as a mask but not when exercised")
                return size, chosen
    return None


def _fewest_blockers(query: ControlQuery, candidates: list):
    """The first fewest-blocking set of a goal matching in candidate order, as ``(size, witness)``.

    The search (:func:`~stablectl.control.fewest_blocking_pairs`) runs on
    the integer core; its answer is certified here on names.
    """
    found = fewest_blocking_pairs(query)
    if found is None:
        return None
    inst, (matching, witness) = query.instance, found
    if not (
        witness.issubset(candidates)
        and matching_meets_goal(inst, query.goal, matching)
        and is_stable(inst, matching, deleted_pairs=witness)
    ):
        raise InternalError("deleting the blocking pairs did not stabilise the goal matching")
    return len(witness), witness


def solve_exact(query: ControlQuery, cap: int = DEFAULT_CANDIDATE_CAP) -> ControlOutcome:
    """Solve a control query by exhaustive search.

    A positive verdict carries the minimum action count and its first
    witness.  A negative verdict still reports the minimum count at which
    the goal becomes reachable, when one exists at any budget, as a
    diagnostic.  Agent actions search action sets; acceptability deletion
    reads the fewest blocking pairs of a matching that meets the goal, and
    the module docstring gives the argument that both reach the same
    optimum and witness.  Either way the cap counts candidate actions.
    """
    memo, key = query.instance.search_memo, (query.action, query.goal)
    try:
        found = memo.get(key)  # a hit hashes the goal once
    except TypeError:  # an unhashable goal: ``validate_query`` refuses it
        found = None
    if found is None or query.budget < 0:
        # A hit's query passed every check but the budget's sign, which
        # ``validate_query`` alone words; so only a miss builds the universe.
        problems = validate_query(query)
        if problems:
            raise InvalidQueryError("; ".join(problems))
        universe = action_universe(query)
        size = len(universe)
    else:
        size = found[0]
    if size > cap:
        raise CapExceededError(f"{size} candidate actions exceed the search cap of {cap}")
    if found is None:
        candidates = sorted(universe, key=_sort_key)
        mask = masked_agents(query, candidates)
        if mask is None:
            found = size, _fewest_blockers(query, candidates)
        else:
            found = size, _first_success(query, candidates, mask, size)
        memo[key] = found
    hit = found[1]
    if hit is None:
        return ControlOutcome(verdict=False, optimum=None, witness=None)
    optimum, witness = hit
    if optimum <= query.budget:
        return ControlOutcome(verdict=True, optimum=optimum, witness=witness)
    return ControlOutcome(verdict=False, optimum=optimum, witness=None)
