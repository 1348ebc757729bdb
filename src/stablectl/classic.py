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
  witness, implemented on top of the partition engine: pair up the
  parties when no odd party of size >= 3 exists.
* :func:`pair_fixing_cost`: the fewest agent deletions that put a chosen
  pair into some stable matching, read off the stable partition of the
  instance *fixed* for that pair (:func:`fixing_deletions`): every agent
  that an endpoint prefers to the other cuts its list just above that
  endpoint; the goal ``mp`` uses it.  :func:`pair_fixing_witness`, the
  one rule for which agents a pair costs, reads those deletions and the
  stable matching they leave off the same partition for the solvers.

The partition engine runs the classical proposal ("phase 1") table
reduction followed by repeated rotation elimination.  When a rotation's
two agent tracks coincide as sets, eliminating it would wipe the table;
that configuration is exactly an odd party and is locked in place
instead.  Every output is a valid partition; callers that need hard
guarantees (the polynomial control solvers) re-verify the axioms on the
results they act on.

Engine bookkeeping and cost, for ``n`` agents and ``m`` acceptable pairs:
the table interns the agents as ``0..n-1`` in processing order and builds
integer preference lists and rank maps once, in O(n + m).  Every
reduction deletes the tail of some list, so a tail position per agent is
the only deletion state: an entry is live when it lies within the tails
of both lists that hold the pair.  A cut moves one tail and releases at
most one held proposal, in O(1), whatever the number of pairs it
deletes.  Per-agent head, second and tail pointers only move inwards,
passing each dead entry once, so all list access over a run costs
amortised O(n + m) in total, and so do all proposals, since only an
agent whose held proposal fell goes back on the worklist.  The rotation
start is a pointer that only moves forward through the processing order.
On top of that, each of the ``r`` rotations pays an O(n) table
consistency check and a walk from the rotation start, for
O(n + m + r * n) in all; ``r`` stays small on the sparse random markets
the benchmark measures, where time per pair is nearly flat in ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InternalError
from .model import SM, AgentId, Matching, Pair, RoommatesInstance

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
    def predecessor(self) -> dict:
        return {v: u for u, v in self.successor.items()}

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


def render_partition(partition: StablePartition) -> str:
    """One ``party (a b c) odd`` line per party, odd sizes marked."""
    lines = []
    for p in partition.parties:
        mark = " odd" if len(p) % 2 == 1 else ""
        lines.append(f"party ({' '.join(p)}){mark}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_partition(inst: RoommatesInstance, partition: StablePartition) -> list[str]:
    """Check the stable-partition axioms; return violation descriptions."""
    succ = partition.successor
    out: list[str] = []
    if set(succ) != set(inst.agents):
        out.append("successor map does not cover exactly the instance agents")
        return out
    if set(succ.values()) != set(inst.agents):
        out.append("successor map is not a permutation")
        return out
    pred = partition.predecessor
    for u in sorted(inst.agents):
        s = succ[u]
        if s != u and not inst.acceptable(u, s):
            out.append(f"successor of {u} is the unacceptable agent {s}")
    if out:
        return out
    for u in sorted(inst.agents):
        s, p = succ[u], pred[u]
        if s != u and s != p and not inst.prefers(u, s, p):
            out.append(f"{u} prefers its predecessor {p} to its successor {s}")

    def beats_predecessor(u: AgentId, v: AgentId) -> bool:
        # A fixed point ranks below every acceptable agent.
        return pred[u] == u or inst.prefers(u, v, pred[u])

    for u in sorted(inst.agents):
        for v in sorted(w for w in inst.prefs[u] if u < w and inst.acceptable(u, w)):
            if succ[u] == v or succ[v] == u:
                continue
            if beats_predecessor(u, v) and beats_predecessor(v, u):
                out.append(f"pair {u},{v} blocks the partition")
    return out


def partition_to_matching(
    inst: RoommatesInstance, partition: StablePartition
) -> tuple[frozenset, Matching]:
    """Turn a partition into a stable matching after minimal deletions.

    One agent (the lexicographically smallest) is removed from every odd
    party of size >= 3; the remaining members of each party are paired up
    consecutively.  Singleton parties stay unmatched.  Returns the deleted
    agents and the matching, which is stable in ``inst`` minus the deleted
    agents.
    """
    violations = validate_partition(inst, partition)
    if violations:
        raise ValueError("invalid partition: " + "; ".join(violations))
    deleted = set()
    pairs = set()
    for party in partition.parties:
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

    Agent ``i`` is ``order[i]``.  ``pref[i]`` is its preference list as
    agent indices and ``rank[i]`` maps an index to its position there.
    Every reduction deletes a tail of some list, so the tail position
    ``tail[i]`` is the only deletion state: the entry at position ``p``
    of ``u``'s list, naming ``v``, is live exactly when ``p <= tail[u]``
    and ``rank[v][u] <= tail[v]``, a rule that gives both sides of a pair
    the same fate.  The position pointers ``head``, ``sec`` and ``tail``
    only move inwards and never pass the first, second and last live
    entry, so list access costs amortised O(1).  ``held[v]`` is the
    position on ``v``'s list of the proposal ``v`` holds (-1 for none).
    ``work`` holds the agents that may have to propose again: every agent
    at the start, then each agent whose held proposal falls with a cut.
    The stable-table invariant, restored by :meth:`stabilize`, is that
    every agent with a non-empty list proposes to the head of its list
    and holds a proposal from its tail.
    """

    def __init__(self, inst: RoommatesInstance, order: Sequence[AgentId]):
        self.names = list(order)
        index = {u: i for i, u in enumerate(self.names)}
        self.pref = [[index[v] for v in inst.prefs[u]] for u in self.names]
        self.rank = [{v: r for r, v in enumerate(lst)} for lst in self.pref]
        n = len(self.names)
        self.head = [0] * n
        self.sec = [1] * n
        self.tail = [len(lst) - 1 for lst in self.pref]
        self.held = [-1] * n
        self.parties: list[tuple[AgentId, ...]] = []
        self.work = list(range(n - 1, -1, -1))

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
        live proposing entry, and a rotation cuts ``y[i+1]``'s list at
        ``x[i]``, which stays live as ``x[i]``'s new first entry.  Locking
        an odd party cuts every member's list, so each proposal held
        inside it falls with its holder's list.
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
        self._check_consistency()

    def _check_consistency(self) -> None:
        held, rank, first, last = self.held, self.rank, self.first, self.last
        for u in range(len(self.names)):
            f = first(u)
            if f < 0:
                continue
            if held[f] != rank[f][u] or last(f) != u:
                raise InternalError(f"proposal table inconsistent at agent {self.names[u]}")

    # -- rotations --------------------------------------------------------

    def find_rotation(self, start: int) -> tuple[list, list]:
        seq: list[int] = []
        index: dict[int, int] = {}
        x = start
        while x not in index:
            index[x] = len(seq)
            seq.append(x)
            x = self.last(self.second(x))
        xs = seq[index[x]:]
        ys = [self.first(x) for x in xs]
        return xs, ys

    def eliminate(self, xs: list, ys: list) -> None:
        """Classical rotation elimination: cut each ``y[i+1]`` below ``x[i]``."""
        r = len(xs)
        for i in range(r):
            v = ys[(i + 1) % r]
            self.cut(v, self.rank[v][xs[i]])

    def lock_odd_parties(self, xs: list) -> bool:
        """Lock the odd cycles of the head map over ``xs`` as parties.

        A self-paired rotation decomposes into cycles of the map sending
        each member to the head of its list.  Odd cycles are odd parties:
        eliminating them would empty their lists, so they are recorded and
        taken out of the table by cutting their lists to nothing.  Even
        cycles stay; ordinary elimination resolves them into pairs.  Each
        cycle starts at its member with the smallest name.  Returns
        whether any party was locked.
        """
        names = self.names
        succ = {x: self.first(x) for x in xs}
        if set(succ.values()) != set(xs):
            raise InternalError("self-paired rotation is not closed under heads")
        remaining = set(xs)
        locked_members: list[int] = []
        while remaining:
            start = min(remaining, key=names.__getitem__)
            cycle = [start]
            nxt = succ[start]
            while nxt != start:
                cycle.append(nxt)
                nxt = succ[nxt]
            remaining -= set(cycle)
            if len(cycle) % 2 == 1:
                if len(cycle) < 3:
                    raise InternalError("head map cannot have fixed points")
                self.parties.append(tuple(names[x] for x in cycle))
                locked_members.extend(cycle)
        for x in locked_members:
            self.cut(x, -1)
        return bool(locked_members)

    # -- main loop ---------------------------------------------------------

    def run(self) -> StablePartition:
        """Stabilize, then resolve rotations until no list has two entries.

        The rotation start is the first agent in ``order`` with at least
        two entries; locked agents have none.  Lists only shrink, so that
        agent never moves backwards in ``order``.
        """
        self.stabilize()
        second = self.second
        start, n = 0, len(self.names)
        while True:
            while start < n and second(start) < 0:
                start += 1
            if start == n:
                break
            xs, ys = self.find_rotation(start)
            if not (set(xs) == set(ys) and self.lock_odd_parties(xs)):
                self.eliminate(xs, ys)
            self.stabilize()
        return self._assemble()

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
    return _Table(inst, order).run()


def partition_stable_matching(
    inst: RoommatesInstance, partition: StablePartition
) -> Matching | None:
    """The stable matching that a stable partition of ``inst`` pairs up.

    ``None`` when the partition has an odd party of size >= 3, in which
    case ``inst`` has no stable matching.
    """
    if partition.odd_parties():
        return None
    deleted, matching = partition_to_matching(inst, partition)
    if deleted:
        raise InternalError("partition without odd parties required deletions")
    return matching


def irving_stable_matching(inst: RoommatesInstance) -> Matching | None:
    """Some stable matching of ``inst``, or ``None`` when none exists."""
    try:
        return partition_stable_matching(inst, tan_stable_partition(inst))
    except ValueError as exc:  # the engine's own partition failed its axioms
        raise InternalError(str(exc)) from exc


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


@dataclass(frozen=True)
class FixingContext:
    """The instance reduced so that a target pair is mutually top-ranked.

    ``a_star`` holds the agents ``a`` prefers to ``b``; ``b_star`` the
    agents ``b`` prefers to ``a``.  ``reduced`` is the instance in which
    every agent of ``a_star`` (resp. ``b_star``) has its list cut just
    above ``a`` (resp. ``b``).
    """

    a: AgentId
    b: AgentId
    a_star: frozenset
    b_star: frozenset
    reduced: RoommatesInstance


@dataclass(frozen=True)
class PartitionDiagnosis:
    """What the stable partition of a fixed instance says about deletions."""

    partition: StablePartition
    forbidden_singletons: frozenset

    @property
    def cost(self) -> int:
        """Agent deletions needed: one per odd party and per forbidden singleton."""
        return len(self.partition.odd_parties()) + len(self.forbidden_singletons)


def fixing_deletions(inst: RoommatesInstance, a: AgentId, b: AgentId) -> FixingContext:
    """Delete every pair that competes with ``{a, b}``.

    Removed are the pairs ``{x, y}`` where ``x`` prefers ``a`` to ``y``
    (or ``y`` is ``a`` itself) for some ``x`` that ``a`` prefers to ``b``,
    and symmetrically on ``b``'s side: each such ``x`` keeps only the head
    of its list above the endpoint, and leaves the list of every ``y`` in
    the tail it cuts off.  Afterwards ``a`` and ``b`` are each other's
    first choices.
    """
    if a == b or not inst.acceptable(a, b):
        raise ValueError(f"target pair {a},{b} is not acceptable in the instance")
    a_star = frozenset(inst.prefs[a][: inst.rank(a, b)])
    b_star = frozenset(inst.prefs[b][: inst.rank(b, a)])
    cut = {}  # agent of a star -> number of entries it keeps
    for star, anchor in ((a_star, a), (b_star, b)):
        for x in star:
            cut[x] = min(inst.rank(x, anchor), cut.get(x, len(inst.prefs[x])))
    dropped = {}  # agent -> the agents whose cut-off tails hold it
    for x, r in cut.items():
        for y in inst.prefs[x][r:]:
            dropped.setdefault(y, set()).add(x)
    prefs = {}
    for u, lst in inst.prefs.items():
        gone, lst = dropped.get(u), lst[: cut.get(u)]
        prefs[u] = tuple(v for v in lst if v not in gone) if gone else lst
    reduced = RoommatesInstance(kind=inst.kind, prefs=prefs, side=inst.side, addable=inst.addable)
    if reduced.prefs[a][0] != b or reduced.prefs[b][0] != a:
        raise InternalError("fixing deletions did not make the target mutually top-ranked")
    return FixingContext(a=a, b=b, a_star=a_star, b_star=b_star, reduced=reduced)


def diagnose_fixed_instance(ctx: FixingContext) -> PartitionDiagnosis:
    partition = tan_stable_partition(ctx.reduced)
    return PartitionDiagnosis(
        partition=partition, forbidden_singletons=partition.singletons & (ctx.a_star | ctx.b_star)
    )


def pair_fixing_witness(ctx: FixingContext, diag: PartitionDiagnosis) -> tuple[frozenset, Matching]:
    """The deletions that ``diag`` prices, and the stable matching they leave.

    :func:`partition_to_matching` re-checks the partition's axioms, drops
    one member of each odd party and pairs up the rest; the forbidden
    singletons go too.  A failed axiom is an engine fault, raised as
    :class:`InternalError`.
    """
    try:
        dropped, matching = partition_to_matching(ctx.reduced, diag.partition)
    except ValueError as exc:
        raise InternalError(str(exc)) from exc
    return dropped | diag.forbidden_singletons, matching


def pair_fixing_cost(inst: RoommatesInstance, target: Pair) -> int:
    """Minimum number of agent deletions putting ``target`` into a stable matching."""
    a, b = sorted(target)
    return diagnose_fixed_instance(fixing_deletions(inst, a, b)).cost
