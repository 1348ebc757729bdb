"""Blocking pairs, stability checks and exhaustive matching enumeration.

The enumeration here is the ground-truth substrate used by the exact
solvers and the test-suite oracles.  It is deliberately exhaustive and
refuses (rather than truncates) when an instance exceeds the size cap.
"""

from __future__ import annotations

from typing import Iterator

from .errors import CapExceededError
from .model import AgentId, Matching, RoommatesInstance, pair_text

DEFAULT_ENUM_CAP = 24


def check_matching(inst: RoommatesInstance, matching: Matching) -> None:
    """Raise ``ValueError`` unless ``matching`` is a matching in ``inst``."""
    seen = set()
    for p in matching:
        if not inst.is_acceptable_pair(p):
            raise ValueError(f"pair {{{pair_text(p)}}} is not acceptable in the instance")
        for u in p:
            if u in seen:
                raise ValueError(f"agent {u} is matched twice")
            seen.add(u)


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
    other to its current partner.
    """
    check_matching(inst, matching)
    partners = partner_map(matching)
    out = set()
    for u, lst in inst.prefs.items():
        pu = partners.get(u)
        # Lists run best first, so ``u`` prefers exactly the entries before ``pu``.
        for v in lst:
            if v == pu:
                break
            if u < v and inst.acceptable(u, v):
                pv = partners.get(v)
                if pv is None or inst.prefers(v, u, pv):
                    out.add(frozenset((u, v)))
    return frozenset(out)


def is_stable(inst: RoommatesInstance, matching: Matching) -> bool:
    return not blocking_pairs(inst, matching)


def covered_agents(matching: Matching) -> frozenset:
    out: set[AgentId] = set()
    for p in matching:
        out |= p
    return frozenset(out)


def is_perfect(inst: RoommatesInstance, matching: Matching) -> bool:
    check_matching(inst, matching)
    return covered_agents(matching) == inst.agents


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
