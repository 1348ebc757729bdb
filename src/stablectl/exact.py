"""Exhaustive ground-truth solver for every action/goal combination.

Candidate action sets are enumerated by increasing cardinality, and
lexicographically within one cardinality, so the reported optimum is the
true minimum and the witness is the smallest successful set in that
order.  The search refuses instances whose candidate count exceeds the
cap instead of truncating: answers are exact or absent, never
approximate.

A market that breaks a list rule raises :class:`InvalidInstanceError`
before it is answered, as it does under :func:`stablectl.poly.solve`.
:func:`~stablectl.control.validate_query` builds its core under agent
addition, whose first subset is the market without its pool, and for a
matching goal, whose test never runs the partition engine.  For every
other query the engine builds the core of the first subset tried, which
under agent or acceptability deletion is the market itself.

The search result does not depend on the budget, so it runs once per
action and goal on an instance and is kept in that instance's
``search_memo``; a later call at another budget (or the same one) only
derives its verdict from it.  The memo lives and dies with the instance,
which is immutable, so it cannot go stale; an equal but distinct instance
searches again.  The cap is checked on every call, memo hit or not, on
the size of the action universe; only a search sorts the universe into
its candidate order.

Under acceptability deletion with an ``ms`` goal, deleting a target pair
fails by definition, so the search leaves those pairs out of its
candidates.  The cap still counts them, and the surviving candidates keep
their relative order, so the optimum and the witness are unchanged.
"""

from __future__ import annotations

from itertools import combinations

from .control import (
    DELETE_ACCEPTABILITY,
    ControlOutcome,
    ControlQuery,
    action_universe,
    apply_actions,
    goal_holds,
    validate_query,
)
from .errors import CapExceededError, InvalidQueryError

DEFAULT_CANDIDATE_CAP = 20


def _sort_key(item):
    if isinstance(item, frozenset):
        return tuple(sorted(item))
    return (item,)


def _first_success(query: ControlQuery, candidates: list, max_size: int):
    for size in range(0, max_size + 1):
        for combo in combinations(candidates, size):
            controlled = apply_actions(query, combo)
            if goal_holds(controlled, query.goal, action=query.action):
                return size, frozenset(combo)
    return None


def solve_exact(query: ControlQuery, cap: int = DEFAULT_CANDIDATE_CAP) -> ControlOutcome:
    """Solve a control query by exhaustive search.

    A positive verdict carries the minimum action count and its first
    witness.  A negative verdict still reports the minimum count at which
    the goal becomes reachable, when one exists at any budget, as a
    diagnostic.
    """
    problems = validate_query(query)
    if problems:
        raise InvalidQueryError("; ".join(problems))
    universe = action_universe(query)
    if len(universe) > cap:
        raise CapExceededError(
            f"{len(universe)} candidate actions exceed the search cap of {cap}"
        )
    memo = query.instance.search_memo
    key = (query.action, query.goal)
    if key not in memo:
        candidates = sorted(universe, key=_sort_key)
        if query.action == DELETE_ACCEPTABILITY and query.goal.kind == "ms":
            candidates = [p for p in candidates if p not in query.goal.matching]
        memo[key] = _first_success(query, candidates, len(candidates))
    hit = memo[key]
    if hit is None:
        return ControlOutcome(verdict=False, optimum=None, witness=None)
    size, witness = hit
    if size <= query.budget:
        return ControlOutcome(verdict=True, optimum=size, witness=witness)
    return ControlOutcome(verdict=False, optimum=size, witness=None)

