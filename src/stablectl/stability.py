"""Blocking pairs, stability checks and exhaustive matching enumeration.

:func:`check_matching` is the one statement of what a matching of a
market is: a set of acceptable pairs of the market, no two sharing an
agent.  It returns the matching's partner map, which both scans below
read, and the query checks of :mod:`stablectl.control` call it on a
target matching.

The blocking rule is stated once per representation, and each scan
visits only the entries an agent prefers to its partner, in O(n + m) for
``n`` agents and ``m`` acceptable pairs.  :func:`blocking_pairs`
enumerates: it reads every blocking pair off the instance's integer core
(:meth:`~stablectl.model.MarketCore.blocking`, the scan that also
certifies every partition of the engine and prunes the exact
acceptability-deletion search), and the polynomial ``delacc-ms`` solver
reads its witness off it.  :func:`is_stable` is the one check on
names, through the instance's cached rank map
(``RoommatesInstance.ranks``): it decides, returns at the first blocking
pair and builds no set of them.  It also answers for the market left once
some agents and some pairs are deleted, on the instance itself, so a
certificate builds no smaller market to check a witness.  A witness read
off the integers is thus certified by a scan that shares none of its
code.

The enumeration here lists every stable matching for ``stablectl stable
--enumerate`` and serves as the test-suite oracle.  It is deliberately
exhaustive and refuses (rather than truncates) when an instance exceeds
the size cap.  No solver lists matchings: the exact solver's
acceptability-deletion search prunes partial matchings on the integer
core (:func:`~stablectl.control.fewest_blocking_pairs`) and certifies its
answer with :func:`is_stable`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator

from .errors import CapExceededError, InvalidInstanceError
from .model import Matching, RoommatesInstance, pair_text, validate

DEFAULT_ENUM_CAP = 24

# The ranks read for an agent outside the market: it lists nobody.
_NO_RANKS = MappingProxyType({})


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


def blocking_pairs(inst: RoommatesInstance, matching: Matching) -> frozenset:
    """All acceptable pairs whose members would both rather be together.

    A pair blocks when each member is unmatched or strictly prefers the
    other to its current partner.  The pairs are read off the instance's
    integer core (:meth:`~stablectl.model.MarketCore.blocking`), with
    each matched agent's bound at its partner and each unmatched agent's
    past its last entry, and named at the end.  Raises ``ValueError``
    from :func:`check_matching` when ``matching`` is not a matching of
    ``inst``, and then :class:`InvalidInstanceError` with
    :func:`validate`'s violations on a market whose core cannot be built:
    one whose lists name an unknown agent, their owner or one agent
    twice, or an agent that does not list the owner back.
    """
    partners = check_matching(inst, matching)
    core, ranks = inst.core, inst.ranks
    names = core.names
    bound = [ranks[u][partners[u]] if u in partners else w + 1 for u, w in zip(names, core.whole)]
    return frozenset(frozenset((names[u], names[v])) for u, v in core.blocking(bound))


def is_stable(
    inst: RoommatesInstance,
    matching: Matching,
    *,
    deleted_agents: frozenset = frozenset(),
    deleted_pairs: frozenset = frozenset(),
) -> bool:
    """Whether ``matching`` is stable in ``inst`` without ``deleted_agents`` and ``deleted_pairs``.

    The answer is the one ``is_stable`` gives on the market that
    ``model.delete_agents`` and ``model.delete_pairs`` would build, read
    off ``inst`` itself.  Deleting agents or pairs keeps the order of every
    surviving entry on every surviving list, and keeps acceptability among
    the surviving pairs.  So once no pair of ``matching`` meets
    ``deleted_agents`` or is in ``deleted_pairs``, ``matching`` is a
    matching of the smaller market, every survivor keeps its partner, and
    a surviving pair blocks there exactly when it blocks in ``inst``.  A
    matched pair that meets a deleted agent or is a deleted pair is no
    pair of the smaller market, so ``matching`` is then not one of its
    matchings, and the answer is ``False``.

    Past the partner map, the scan allocates nothing while the matching is
    stable, and it returns at the first surviving blocking pair.  Raises
    ``ValueError`` from :func:`check_matching` when ``matching`` is not a
    matching of ``inst``, and :class:`InvalidInstanceError` when any list
    names an agent twice.
    """
    partners = check_matching(inst, matching)
    ranks, prefs = inst.ranks, inst.prefs
    # A rank map is shorter than its list exactly when the list repeats an entry.
    if sum(map(len, ranks.values())) != sum(map(len, prefs.values())):
        raise InvalidInstanceError(validate(inst))
    if not (partners.keys().isdisjoint(deleted_agents) and deleted_pairs.isdisjoint(matching)):
        return False
    mate = partners.get
    for u, lst in prefs.items():
        if u in deleted_agents:
            continue
        own = mate(u)
        for v in lst:  # the entries ``u`` prefers to its partner, best first
            if v == own:
                break
            if u < v:  # each pair is decided from its smaller end
                r = ranks.get(v, _NO_RANKS).get(u)
                if r is None:  # ``v`` does not list ``u`` back
                    continue
                w = mate(v)
                if (
                    (w is None or r < ranks[v][w])
                    and v not in deleted_agents
                    and frozenset((u, v)) not in deleted_pairs
                ):
                    return False
    return True


def enumerate_matchings(inst: RoommatesInstance, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Matching]:
    """Yield every matching of the acceptability graph exactly once.

    Pairs are considered in lexicographic order; for each pair the
    excluding branch is explored before the including one, so the empty
    matching always comes first and the order is reproducible.  The first
    ``next`` builds the instance's core, so it raises
    :class:`InvalidInstanceError` with :func:`validate`'s violations on a
    market the engine rejects, before any matching is yielded.
    """
    inst.core  # proves the list rules, or raises
    pairs = sorted(inst.acceptable_pairs, key=lambda p: tuple(sorted(p)))
    if len(pairs) > cap:
        raise CapExceededError(
            f"{len(pairs)} acceptable pairs exceed the enumeration cap of {cap}"
        )
    yield from _extensions(pairs, 0, [], set())


def _extensions(pairs: list, i: int, chosen: list, used: set) -> Iterator[Matching]:
    """Every matching that extends ``chosen`` (whose agents are ``used``) by pairs from ``pairs[i:]``.

    A module-level function, not a closure that calls itself through a
    cell: that would make each enumeration a reference cycle, kept alive
    until the cyclic collector runs.
    """
    if i == len(pairs):
        yield frozenset(chosen)
        return
    yield from _extensions(pairs, i + 1, chosen, used)
    p = pairs[i]
    if not (p & used):
        chosen.append(p)
        used |= p
        yield from _extensions(pairs, i + 1, chosen, used)
        chosen.pop()
        used -= p


def enumerate_stable_matchings(inst: RoommatesInstance, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All stable matchings, in enumeration order."""
    return [m for m in enumerate_matchings(inst, cap=cap) if is_stable(inst, m)]
