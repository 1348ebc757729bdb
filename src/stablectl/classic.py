"""Classical matching subroutines: proposal algorithms and stable partitions.

Four entry points:

* :func:`gale_shapley`: deferred acceptance for marriage instances,
  optimal for the proposing side.
* :func:`tan_stable_partition`: a stable partition for any roommates
  instance.  A stable partition is a permutation of the agents whose
  cycles ("parties") generalise stable matchings; one always exists, and
  the instance admits a stable matching exactly when no party of odd size
  three or more is present.
* :func:`irving_stable_matching`: stable matching existence and a
  witness, read off the engine's partition
  (:meth:`StablePartition.stable_matching`): pair up the parties when no
  odd party of size >= 3 exists.
* :func:`pair_fixing_cost`: the fewest agent deletions that put a chosen
  pair into some stable matching, read off the stable partition of the
  instance *fixed* for that pair (:func:`fixing_deletions`): every agent
  that an endpoint prefers to the other cuts its list just above that
  endpoint; the goal ``mp`` uses it.  :meth:`PartitionDiagnosis.witness`,
  the one rule for which agents a pair costs, reads those deletions and
  the stable matching they leave off the same partition for the solvers.
  Fixing is a set of tail cuts on one integer table of the instance the
  query was asked on: the engine runs from those tails and checks its
  partition at them, so no fixed instance is built on the way to an
  answer (``FixingContext.reduced`` builds it on demand, from the same
  cuts).

The partition engine runs the classical proposal ("phase 1") table
reduction followed by repeated rotation elimination [Irving 1985,
J. Algorithms 6:577].  A rotation ``(x_i, y_i)`` of the stable table,
with ``y_i`` the first and ``y_{i+1}`` the second entry of ``x_i``, is
an odd party exactly when it is singular (self-dual) [Tan 1991,
J. Algorithms 12:154; Gusfield & Irving 1989, *The Stable Marriage
Problem*, ch. 4]: its ``y`` agents are its ``x`` agents and every
``y_{i+1}`` ranks ``x_i`` first, so eliminating it would add exactly
the pairs it removes and empty the lists of its members.  Then the head
map ``x_i -> y_i`` permutes the ``x`` agents and its square steps the
rotation back by one, ``x_{i+1} -> x_i``; a permutation whose square is
one cycle of length ``r`` is itself one cycle of odd length ``r``, and
``r >= 3`` because no agent heads its own list.  Such a rotation is
locked in place as one odd party, following heads; every other rotation
is eliminated, even one whose two tracks coincide as sets.  Every run
ends by checking the partition it built against the
stable-partition axioms, on the same table and tails, and raises
:class:`InternalError` on a violation.  Every partition the engine
returns is therefore certified, whether it yields a stable matching or
an odd party that refutes one, and no caller checks it again.

Engine bookkeeping and cost, for ``n`` agents and ``m`` acceptable pairs:
the table interns the agents as ``0..n-1`` in processing order and builds
integer preference lists and rank maps once, in O(n + m); a run starts
from a tail per agent, in O(n), so the pair solvers fix and partition the
market for every partner of an agent on one table.  Every
reduction deletes the tail of some list, so a tail position per agent is
the only deletion state: an entry is live when it lies within the tails
of both lists that hold the pair.  A cut moves one tail and releases at
most one held proposal, in O(1), whatever the number of pairs it
deletes.  Per-agent head, second and tail pointers only move inwards,
passing each dead entry once, so all list access over a run costs
amortised O(n + m) in total, and so do all proposals, since only an
agent whose held proposal fell goes back on the worklist.  The rotation
start is a pointer that only moves forward through the processing order.
On top of that, each of the ``r`` rotations pays the walk from the
rotation start, at most O(n), for O(n + m + r * n) in all; ``r`` stays
small on the sparse random markets the benchmark measures, where time
per pair is nearly flat in ``n``.  Two guards on that walk, each O(1)
per rotation member, keep a broken table from looping: every agent the
walk leaves has a second entry, and ``y_{i+1}`` is the second entry of
``x_i``.  Then each elimination or lock shortens a list, so a run makes
at most O(n + m) rotation steps whatever the table, and a fault ends as
:class:`InternalError`, at a guard or at the closing axiom check.
Fixing a pair costs O(n) for a fresh copy of the tails plus one cut per
agent the endpoints outrank.  The closing axiom check
(:meth:`_Table.violations`) costs O(n) plus the entries above each
agent's predecessor, since no other entry can block, so at most
O(n + m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, InvalidInstanceError
from .model import SM, AgentId, Matching, Pair, RoommatesInstance, validate

# ---------------------------------------------------------------------------
# Stable partitions


@dataclass(frozen=True)
class StablePartition:
    """A permutation of the agents; each cycle is a party.

    ``successor`` maps every agent to the next member of its party, with
    fixed points for singleton parties.  Within a party of size >= 3 each
    agent prefers its successor to its predecessor.
    """

    successor: dict

    @cached_property
    def parties(self) -> tuple:
        """Cycle decomposition; each cycle starts at its smallest member."""
        done = set()
        out = []
        for start in sorted(self.successor):
            if start in done:
                continue
            cycle = [start]
            done.add(start)
            nxt = self.successor[start]
            while nxt != start:
                cycle.append(nxt)
                done.add(nxt)
                nxt = self.successor[nxt]
            out.append(tuple(cycle))
        return tuple(sorted(out))

    def odd_parties(self) -> tuple:
        """The parties of odd size three or more."""
        return tuple(p for p in self.parties if len(p) % 2 == 1 and len(p) >= 3)

    @cached_property
    def singletons(self) -> frozenset:
        return frozenset(u for u, v in self.successor.items() if u == v)

    def stable_matching(self) -> Matching | None:
        """The stable matching the parties pair up; ``None`` when an odd party exists."""
        return None if self.odd_parties() else self._pair_up()[1]

    def _pair_up(self) -> tuple[frozenset, Matching]:
        """Drop the smallest member of each odd party and pair up the rest."""
        deleted = set()
        pairs = set()
        for party in self.parties:
            if len(party) == 1:
                continue
            members = list(party)
            if len(members) % 2 == 1:
                drop = min(members)
                deleted.add(drop)
                i = members.index(drop)
                members = members[i + 1 :] + members[:i]
            for i in range(0, len(members), 2):
                pairs.add(frozenset((members[i], members[i + 1])))
        return frozenset(deleted), frozenset(pairs)


def render_partition(partition: StablePartition) -> str:
    """One ``party (a b c) odd`` line per party, odd sizes marked."""
    lines = []
    for p in partition.parties:
        mark = " odd" if len(p) % 2 == 1 else ""
        lines.append(f"party ({' '.join(p)}){mark}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_partition(inst: RoommatesInstance, partition: StablePartition) -> list[str]:
    """Check the stable-partition axioms; return violation descriptions.

    The check runs over a fresh integer table of ``inst``, whose lists are
    whole; see :meth:`_Table.violations`.  Like the engine, it raises
    :class:`InvalidInstanceError` when a list names an agent outside
    ``inst``.
    """
    table = _Table(inst, sorted(inst.agents))
    return table.violations(partition, table.whole)


def partition_to_matching(
    inst: RoommatesInstance, partition: StablePartition
) -> tuple[frozenset, Matching]:
    """Turn a partition into a stable matching after minimal deletions.

    One agent (the lexicographically smallest) is removed from every odd
    party of size >= 3; the remaining members of each party are paired up
    consecutively.  Singleton parties stay unmatched.  Returns the deleted
    agents and the matching, which is stable in ``inst`` minus the deleted
    agents.  A partition that fails the axioms raises :class:`ValueError`.
    """
    violations = validate_partition(inst, partition)
    if violations:
        raise ValueError("invalid partition: " + "; ".join(violations))
    return partition._pair_up()


# ---------------------------------------------------------------------------
# Deferred acceptance (marriage instances)


def gale_shapley(inst: RoommatesInstance, proposing: str = "a") -> Matching:
    """Deferred acceptance; returns the proposing-side-optimal matching."""
    if inst.kind != SM:
        raise ValueError("gale_shapley needs a marriage instance")
    if proposing not in ("a", "b"):
        raise ValueError("proposing side must be 'a' or 'b'")
    proposers = sorted(u for u in inst.agents if inst.side[u] == proposing)
    nxt = {u: 0 for u in proposers}
    engaged: dict[AgentId, AgentId] = {}  # reviewer -> proposer
    free = list(reversed(proposers))
    while free:
        u = free.pop()
        while nxt[u] < len(inst.prefs[u]):
            v = inst.prefs[u][nxt[u]]
            nxt[u] += 1
            cur = engaged.get(v)
            if cur is None:
                engaged[v] = u
                break
            if inst.prefers(v, u, cur):
                engaged[v] = u
                free.append(cur)
                break
        # List exhausted: u stays unmatched.
    return frozenset(frozenset((u, v)) for v, u in engaged.items())


# ---------------------------------------------------------------------------
# The proposal/rotation engine behind stable partitions


class _Table:
    """Mutable reduced preference table over integer-interned agents.

    Agent ``i`` is ``order[i]`` (``index`` inverts that).  ``pref[i]`` is
    its preference list as agent indices and ``rank[i]`` maps an index to
    its position there; these are built once, and every :meth:`run`
    starts afresh from the tails it is given.  Every reduction deletes a
    tail of some list, so the tail position ``tail[i]`` is the only
    deletion state: the entry at position ``p`` of ``u``'s list, naming
    ``v``, is live exactly when ``p <= tail[u]`` and ``rank[v][u] <=
    tail[v]`` (:meth:`live`), a rule that gives both sides of a pair the
    same fate.  A market cut before the run, such as one fixed for a
    pair, is therefore just a tail per agent.  The position pointers
    ``head``, ``sec`` and ``tail`` only move inwards and never pass the
    first, second and last live entry, so list access costs amortised
    O(1).  ``held[v]`` is the position on ``v``'s list of the proposal
    ``v`` holds (-1 for none).  ``work`` holds the agents that may have
    to propose again: every agent at the start, then each agent whose
    held proposal falls with a cut.
    The stable-table invariant, restored by :meth:`stabilize`, is that
    every agent with a non-empty list proposes to the head of its list
    and holds a proposal from its tail.  Interning is where an instance
    whose lists name an agent outside it fails, as
    :class:`InvalidInstanceError`; :func:`validate` runs only then.
    """

    def __init__(self, inst: RoommatesInstance, order: Sequence[AgentId]):
        self.names = list(order)
        self.index = index = {u: i for i, u in enumerate(self.names)}
        try:
            self.pref = [[index[v] for v in inst.prefs[u]] for u in self.names]
        except KeyError as exc:
            raise InvalidInstanceError(validate(inst)) from exc
        self.rank = [dict(zip(lst, range(len(lst)))) for lst in self.pref]
        self.whole = tuple(len(lst) - 1 for lst in self.pref)

    def live(self, u: int, p: int, tail: Sequence[int]) -> bool:
        """Whether position ``p`` of ``u``'s list is live under ``tail``."""
        v = self.pref[u][p]
        return p <= tail[u] and self.rank[v][u] <= tail[v]

    # -- list access (-1 when the entry asked for does not exist) --------

    def first(self, u: int) -> int:
        pref, rank, tail = self.pref[u], self.rank, self.tail
        h, t = self.head[u], tail[u]
        while h <= t and rank[pref[h]][u] > tail[pref[h]]:
            h += 1
        self.head[u] = h
        return pref[h] if h <= t else -1

    def second(self, u: int) -> int:
        if self.first(u) < 0:
            return -1
        pref, rank, tail = self.pref[u], self.rank, self.tail
        s, t = max(self.sec[u], self.head[u] + 1), tail[u]
        while s <= t and rank[pref[s]][u] > tail[pref[s]]:
            s += 1
        self.sec[u] = s
        return pref[s] if s <= t else -1

    def last(self, u: int) -> int:
        pref, rank, tail = self.pref[u], self.rank, self.tail
        t = tail[u]
        while t >= 0 and rank[pref[t]][u] > tail[pref[t]]:
            t -= 1
        tail[u] = t
        return pref[t] if t >= 0 else -1

    def cut(self, v: int, r: int) -> None:
        """Delete every entry of ``v``'s list ranked below position ``r``.

        The proposal ``v`` holds falls if it ranks below ``r``, and its
        proposer goes back on ``work``.  ``v``'s own proposal survives,
        since the head never passes a live entry: a proposal cuts at the
        live proposing entry, and eliminating a rotation cuts ``y[i+1]``'s
        list at ``x[i]``, which stays live as ``x[i]``'s new first entry.
        Locking a singular rotation cuts every member's list to nothing,
        so each proposal held inside it falls with its holder's list.
        """
        if r >= self.tail[v]:
            return
        self.tail[v] = r
        held = self.held
        if held[v] > r:
            self.work.append(self.pref[v][held[v]])
            held[v] = -1

    # -- proposal rounds -------------------------------------------------

    def stabilize(self) -> None:
        """Run proposals until every non-empty list is head-held and tail-holding.

        A list is cut below every proposal it accepts, so a live proposal
        never ranks below the one its target holds and is never refused.
        The deletions reached do not depend on the order in which agents
        propose, so the worklist is processed last in, first out.
        """
        work, held, rank = self.work, self.held, self.rank
        while work:
            u = work.pop()
            v = self.first(u)
            if v < 0:
                continue
            r = rank[v][u]
            if held[v] != r:
                # Cut before taking over ``held[v]``, so that the
                # displaced proposer goes back on the worklist.
                self.cut(v, r)
                held[v] = r

    # -- rotations --------------------------------------------------------

    def find_rotation(self, start: int) -> list[tuple[int, int]]:
        """The rotation that the walk ``x -> last(second(x))`` from ``start`` enters.

        It comes as the pairs ``(x[i], y[i+1])``, where ``y[i+1]`` is the
        second entry of ``x[i]`` and the first of ``x[i+1]``.  Two guards
        hold the walk to a rotation of a stable table, and a table that
        breaks either raises :class:`InternalError`: every agent it leaves
        has a second entry, and ``y[i+1]`` heads the list of its last entry
        ``x[i+1]``.  Then ``x[i]`` is live on ``y[i+1]``'s list above
        ``x[i+1]``, so eliminating the rotation shortens a list.
        """
        names, second = self.names, self.second
        seq: list[tuple[int, int]] = []
        index: dict[int, int] = {}
        x = start
        while x not in index:
            index[x] = len(seq)
            y = second(x)
            if y < 0:
                raise InternalError(f"rotation walk reached {names[x]}, which has no second entry")
            seq.append((x, y))
            x = self.last(y)
        rotation = seq[index[x] :]
        for (_, y), (x, _) in zip(rotation, rotation[1:] + rotation[:1]):
            if self.first(x) != y:
                raise InternalError(f"rotation breaks at {names[x]}, whose head is not {names[y]}")
        return rotation

    def lock_odd_party(self, xs: list) -> None:
        """Lock a singular rotation over ``xs`` as one odd party.

        Its head map is one cycle over ``xs`` (see the module docstring),
        so the party follows heads from its member with the smallest name.
        Its members' lists are cut to nothing.
        """
        x = min(xs, key=self.names.__getitem__)
        party = [x]
        while (x := self.first(x)) != party[0]:
            party.append(x)
        self.parties.append(tuple(self.names[x] for x in party))
        for x in party:
            self.cut(x, -1)

    # -- main loop ---------------------------------------------------------

    def run(self, tail: Sequence[int]) -> StablePartition:
        """Stabilize, resolve rotations until no list has two entries, and certify.

        The run starts from the lists cut at ``tail`` with no proposal
        made.  The rotation start is the first agent in ``order`` with at
        least two entries; locked agents have none.  Lists only shrink, so
        that agent never moves backwards in ``order``.  The rotation found
        from there is locked as one odd party when it is singular, that is
        when its ``y`` agents are its ``x`` agents and each ``y[i+1]``
        heads its list with ``x[i]``; otherwise it is eliminated, cutting
        each ``y[i+1]``'s list below ``x[i]``.  Either way a list shortens
        (:meth:`find_rotation`), so the loop ends.  The partition
        assembled at the end is checked against the market cut at
        ``tail`` (:meth:`violations`); a violation is an engine fault and
        raises :class:`InternalError`.
        """
        n = len(self.names)
        self.head = [0] * n
        self.sec = [1] * n
        self.tail = list(tail)
        self.held = [-1] * n
        self.parties: list[tuple[AgentId, ...]] = []
        self.work = list(range(n - 1, -1, -1))
        self.stabilize()
        first, second, rank = self.first, self.second, self.rank
        start = 0
        while True:
            while start < n and second(start) < 0:
                start += 1
            if start == n:
                break
            rotation = self.find_rotation(start)
            xs = [x for x, _ in rotation]
            if set(xs) == {y for _, y in rotation} and all(first(y) == x for x, y in rotation):
                self.lock_odd_party(xs)
            else:
                for x, y in rotation:
                    self.cut(y, rank[y][x])
            self.stabilize()
        partition = self._assemble()
        violations = self.violations(partition, tail)
        if violations:
            raise InternalError("invalid partition: " + "; ".join(violations))
        return partition

    def _assemble(self) -> StablePartition:
        succ: dict[AgentId, AgentId] = {}
        for party in self.parties:
            for i, u in enumerate(party):
                succ[u] = party[(i + 1) % len(party)]
        names = self.names
        for u, name in enumerate(names):
            if name in succ:  # a locked party member
                continue
            v = self.first(u)
            if v < 0:
                succ[name] = name
                continue
            if self.first(v) != u:
                raise InternalError(f"non-mutual residual pair at agent {name}")
            succ[name] = names[v]
        return StablePartition(successor=succ)

    # -- the stable-partition axioms ---------------------------------------

    def violations(self, partition: StablePartition, tail: Sequence[int]) -> list[str]:
        """Check ``partition`` against the market of the lists cut at ``tail``.

        The axioms: the successor map is a permutation of the agents; each
        agent's successor is acceptable to it, and preferred to its
        predecessor when the two differ; and no acceptable pair of
        agents that are not each other's successor blocks, where a pair
        blocks when each prefers the other to its predecessor (a fixed
        point ranks below every acceptable agent).  Violations come
        grouped in that order, and within a group in table order, which is
        the sorted order of the names when the table was interned sorted.
        Only the entries before each agent's predecessor are scanned for
        blocking pairs: no other entry can block.
        """
        names, index, pref, rank = self.names, self.index, self.pref, self.rank
        n, absent = len(names), float("inf")  # ``absent`` ranks a missing entry
        given = partition.successor
        if given.keys() != index.keys():
            return ["successor map does not cover exactly the instance agents"]
        succ = [index.get(given[u], -1) for u in names]
        if -1 in succ or len(set(succ)) != n:
            return ["successor map is not a permutation"]
        pred = [0] * n
        for u, s in enumerate(succ):
            pred[s] = u
        out = []
        for u, s in enumerate(succ):
            r, q = rank[u].get(s, absent), rank[s].get(u, absent)
            if s != u and not (r <= tail[u] and q <= tail[s]):
                out.append(f"successor of {names[u]} is the unacceptable agent {names[s]}")
        if out:
            return out
        for u, s in enumerate(succ):
            p = pred[u]
            if s != u and s != p and not rank[u][s] < rank[u][p]:
                out.append(
                    f"{names[u]} prefers its predecessor {names[p]} to its successor {names[s]}"
                )
        # Agent u prefers the entries before ``bound[u]`` to its predecessor.
        bound = [rank[u][p] if p != u else tail[u] + 1 for u, p in enumerate(pred)]
        for u in range(n):
            lst, s = pref[u], succ[u]
            blockers = [
                v
                for v in lst[: bound[u]]
                if v > u and rank[v].get(u, absent) < bound[v] and v != s and succ[v] != u
            ]
            out += [f"pair {names[u]},{names[v]} blocks the partition" for v in sorted(blockers)]
        return out


def tan_stable_partition(
    inst: RoommatesInstance, order: Iterable[AgentId] | None = None
) -> StablePartition:
    """Compute a stable partition of ``inst``.

    ``order`` fixes the internal processing priority and defaults to the
    sorted agent list; the partition returned may depend on it, but the
    multiset of odd parties never does.
    """
    if order is None:
        order = sorted(inst.agents)
    else:
        order = list(order)
        if set(order) != set(inst.agents) or len(order) != len(inst.agents):
            raise ValueError("order must be a permutation of the instance agents")
    table = _Table(inst, order)
    return table.run(table.whole)


def irving_stable_matching(inst: RoommatesInstance) -> Matching | None:
    """Some stable matching of ``inst``, or ``None`` when none exists."""
    return tan_stable_partition(inst).stable_matching()


# ---------------------------------------------------------------------------
# Pair fixing
#
# Delete every pair that would let the endpoints of a target pair do better
# than each other, so that the two become mutual first choices.  In the
# fixed instance, a deletion set works exactly when, after removing it, a
# stable matching covers every agent that preferred an endpoint of the
# target to its own partner.  The stable partition of the fixed instance
# reads that number off directly: one deletion per odd party of size three
# or more, plus one for every singleton party formed by such an agent.
#
# The fixed instance is never built on the way to an answer: fixing cuts
# the tails of one integer table of the instance the query was asked on,
# and the engine runs from those tails and checks its partition at them.


@dataclass(frozen=True)
class FixingContext:
    """A market fixed so that a target pair is mutually top-ranked.

    ``a_star`` holds the agents ``a`` prefers to ``b``; ``b_star`` the
    agents ``b`` prefers to ``a``.  The fixed market is ``instance``'s
    integer ``table`` with its lists cut at ``tail``: every agent of
    ``a_star`` (resp. ``b_star``) keeps only the entries above ``a``
    (resp. ``b``), and the tail rule of the table kills the mirror entry
    on the list of every agent it cut off.  ``reduced`` builds that
    market as an instance.
    """

    instance: RoommatesInstance
    a: AgentId
    b: AgentId
    a_star: frozenset
    b_star: frozenset
    table: _Table = field(repr=False, compare=False)
    tail: tuple = field(repr=False, compare=False)

    @cached_property
    def reduced(self) -> RoommatesInstance:
        """The fixed market as an instance: each list keeps its live entries."""
        inst, table, tail = self.instance, self.table, self.tail
        names, live = table.names, table.live
        prefs = {
            names[u]: tuple(names[v] for p, v in enumerate(lst) if live(u, p, tail))
            for u, lst in enumerate(table.pref)
        }
        return RoommatesInstance(kind=inst.kind, prefs=prefs, side=inst.side, addable=inst.addable)


@dataclass(frozen=True)
class PartitionDiagnosis:
    """What the stable partition of a fixed instance says about deletions.

    The partition is the engine's, so its axioms were checked on the fixed
    market when the engine returned it; nothing here checks them again.
    """

    partition: StablePartition
    forbidden_singletons: frozenset

    @property
    def cost(self) -> int:
        """Agent deletions needed: one per odd party and per forbidden singleton."""
        return len(self.partition.odd_parties()) + len(self.forbidden_singletons)

    def witness(self) -> tuple[frozenset, Matching]:
        """The deletions that ``cost`` counts, and the stable matching they leave.

        One member (the smallest) of each odd party goes, as in
        :func:`partition_to_matching`, the rest pair up, and the forbidden
        singletons go too.
        """
        dropped, matching = self.partition._pair_up()
        return dropped | self.forbidden_singletons, matching


def _fix(inst: RoommatesInstance, table: _Table, a: AgentId, b: AgentId) -> FixingContext:
    """Cut ``table``, interned sorted from ``inst``, so that ``{a, b}`` is fixed."""
    index, pref, rank, live = table.index, table.pref, table.rank, table.live
    i, j = index.get(a), index.get(b)
    if i is None or j is None or i == j or j not in rank[i] or i not in rank[j]:
        raise ValueError(f"target pair {a},{b} is not acceptable in the instance")
    a_star, b_star = pref[i][: rank[i][j]], pref[j][: rank[j][i]]
    tail = list(table.whole)
    for star, anchor in ((a_star, i), (b_star, j)):
        for x in star:
            tail[x] = min(tail[x], rank[x][anchor] - 1)
    for u, v in ((i, j), (j, i)):
        top = rank[u][v]
        if not live(u, top, tail) or any(live(u, p, tail) for p in range(top)):
            raise InternalError("fixing deletions did not make the target mutually top-ranked")
    names = table.names
    return FixingContext(
        instance=inst,
        a=a,
        b=b,
        a_star=frozenset(names[x] for x in a_star),
        b_star=frozenset(names[x] for x in b_star),
        table=table,
        tail=tuple(tail),
    )


def fixing_deletions(inst: RoommatesInstance, a: AgentId, b: AgentId) -> FixingContext:
    """Delete every pair that competes with ``{a, b}``.

    Removed are the pairs ``{x, y}`` where ``x`` prefers ``a`` to ``y``
    (or ``y`` is ``a`` itself) for some ``x`` that ``a`` prefers to ``b``,
    and symmetrically on ``b``'s side: each such ``x`` keeps only the head
    of its list above the endpoint, and leaves the list of every ``y`` in
    the tail it cuts off.  Afterwards ``a`` and ``b`` are each other's
    first choices.  The deletions are tail cuts on a fresh integer table
    of ``inst``; nothing is copied until ``reduced`` is read.
    """
    return _fix(inst, _Table(inst, sorted(inst.agents)), a, b)


def partner_fixings(inst: RoommatesInstance, agent: AgentId) -> Iterator[FixingContext]:
    """The market fixed for ``agent`` and each of its partners in turn.

    Partners come in sorted order, and every context cuts the same integer
    table of ``inst``, which is built once.
    """
    table = _Table(inst, sorted(inst.agents))
    for partner in sorted(inst.prefs[agent]):
        yield _fix(inst, table, *sorted((agent, partner)))


def diagnose_fixed_instance(ctx: FixingContext) -> PartitionDiagnosis:
    """Run the engine on the fixed market, from the tails that fixing cut."""
    partition = ctx.table.run(ctx.tail)
    return PartitionDiagnosis(
        partition=partition, forbidden_singletons=partition.singletons & (ctx.a_star | ctx.b_star)
    )


def pair_fixing_cost(inst: RoommatesInstance, target: Pair) -> int:
    """Minimum number of agent deletions putting ``target`` into a stable matching."""
    a, b = sorted(target)
    return diagnose_fixed_instance(fixing_deletions(inst, a, b)).cost
