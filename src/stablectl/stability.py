"""Blocking pairs, stability checks and exhaustive matching enumeration.

:func:`check_matching` is the one statement of what a matching of a
market is: a set of acceptable pairs of the market, no two sharing an
agent.  It returns the matching's partner map, which
:func:`blocking_pairs` and :func:`is_perfect` read, and the query checks
of :mod:`stablectl.control` call it on a target matching.

:func:`blocking_pairs` reads the instance's cached rank map
(``RoommatesInstance.ranks``) once per agent and scans only the entries
an agent prefers to its partner, in O(n + m) for ``n`` agents and ``m``
acceptable pairs; every stability check goes through it.

The enumeration here is the ground-truth substrate used by the exact
solvers and the test-suite oracles.  It is deliberately exhaustive and
refuses (rather than truncates) when an instance exceeds the size cap.
"""

from __future__ import annotations

from typing import Iterator

from .errors import CapExceededError, InvalidInstanceError
from .model import AgentId, Matching, RoommatesInstance, pair_text, validate

DEFAULT_ENUM_CAP = 24


def check_matching(inst: RoommatesInstance, matching: Matching) -> dict:
    """The partner map of ``matching``, a matching in ``inst``.

    Every member must be an acceptable pair of ``inst``, and no agent may
    be in two of them.  Raises ``ValueError`` naming the first member that
    breaks this: one that is no pair of agents is named by its ``repr``.
    """
    partners = {}
    for p in matching:
        if not (isinstance(p, frozenset) and len(p) == 2):
            raise ValueError(f"member {p!r} is not a pair of agents")
        if not inst.acceptable(*p):
            raise ValueError(f"pair {{{pair_text(p)}}} is not acceptable in the instance")
        a, b = p
        if a in partners or b in partners:
            raise ValueError(f"agent {a if a in partners else b} is matched twice")
        partners[a] = b
        partners[b] = a
    return partners


def partner_map(matching: Matching) -> dict:
    partners = {}
    for p in matching:
        a, b = p
        partners[a] = b
        partners[b] = a
    return partners


def blocking_pairs(inst: RoommatesInstance, matching: Matching) -> frozenset:
    """All acceptable pairs whose members would both rather be together.

    A pair blocks when each member is unmatched or strictly prefers the
    other to its current partner.  Raises :class:`InvalidInstanceError`
    on a list that names an agent twice, since a position on it is then
    ambiguous.
    """
    ranks, absent = inst.ranks, float("inf")
    # Lists run best first, so each matched agent prefers exactly the
    # entries before position ``bound[u]``, its partner's; an unmatched
    # agent prefers every entry.
    bound = {u: ranks[u][v] for u, v in check_matching(inst, matching).items()}
    out = []
    for u, lst in inst.prefs.items():
        if len(ranks[u]) != len(lst):
            raise InvalidInstanceError(validate(inst))
        for v in lst[: bound.get(u)]:
            if u < v and ranks.get(v, {}).get(u, absent) < bound.get(v, absent):
                out.append(frozenset((u, v)))
    return frozenset(out)


def is_stable(inst: RoommatesInstance, matching: Matching) -> bool:
    return not blocking_pairs(inst, matching)


def covered_agents(matching: Matching) -> frozenset:
    out: set[AgentId] = set()
    for p in matching:
        out |= p
    return frozenset(out)


def is_perfect(inst: RoommatesInstance, matching: Matching) -> bool:
    return check_matching(inst, matching).keys() == inst.agents


def enumerate_matchings(inst: RoommatesInstance, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Matching]:
    """Yield every matching of the acceptability graph exactly once.

    Pairs are considered in lexicographic order; for each pair the
    excluding branch is explored before the including one, so the empty
    matching always comes first and the order is reproducible.
    """
    pairs = sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p)))
    if len(pairs) > cap:
        raise CapExceededError(
            f"{len(pairs)} acceptable pairs exceed the enumeration cap of {cap}"
        )

    def rec(i: int, chosen: list, used: set) -> Iterator[Matching]:
        if i == len(pairs):
            yield frozenset(chosen)
            return
        yield from rec(i + 1, chosen, used)
        p = pairs[i]
        if not (p & used):
            chosen.append(p)
            used |= p
            yield from rec(i + 1, chosen, used)
            chosen.pop()
            used -= p

    yield from rec(0, [], set())


def enumerate_stable_matchings(inst: RoommatesInstance, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All stable matchings, in enumeration order."""
    return [m for m in enumerate_matchings(inst, cap=cap) if is_stable(inst, m)]
