"""Classical matching subroutines: proposal algorithms and stable partitions.

Three entry points:

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

The partition engine runs the classical proposal ("phase 1") table
reduction followed by repeated rotation elimination.  When a rotation's
two agent tracks coincide as sets, eliminating it would wipe the table;
that configuration is exactly an odd party and is locked in place
instead.  Every output is a valid partition; callers that need hard
guarantees (the polynomial control solvers) re-verify the axioms on the
results they act on.

Engine bookkeeping and cost, for ``n`` agents and ``m`` acceptable pairs:
the table interns the agents as ``0..n-1`` in processing order and builds
integer preference lists, rank maps and live flags once, in O(n + m).
Per-agent head, second and tail pointers only move inwards, so all list
access over a run costs O(n + m) in total.  Every pair is deleted at most
once, and a deletion puts back on the worklist only the agents whose held
proposal fell with the pair, so all proposals cost O(n + m) as well.
The rotation start is a pointer that only moves forward through the
processing order.  On top of that, each of the ``r`` rotations pays an
O(n) table consistency check and a walk from the rotation start, for
O(n + m + r * n) in all; ``r`` stays small on the sparse random markets
the benchmark measures, where time per pair is nearly flat in ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InternalError
from .model import AgentId, Matching, RoommatesInstance, SM

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

    def odd_parties(self, min_size: int = 3) -> tuple:
        return tuple(p for p in self.parties if len(p) % 2 == 1 and len(p) >= min_size)

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
    agent indices, ``rank[i]`` maps an index to its position there, and
    ``live[i][p]`` says whether the entry at position ``p`` survives;
    pairs are always removed from both sides.  The position pointers
    ``head``, ``sec`` and ``tail`` only move inwards and never pass the
    first, second and last live entry, so list access costs amortised
    O(1).  ``holder[v]`` is the agent whose proposal ``v`` currently holds
    (-1 for none).  ``work`` holds the agents that may have to propose
    again: every agent at the start, then each agent whose held proposal
    falls with a deleted pair.  The stable-table invariant, restored by
    :meth:`stabilize`, is that every agent with a non-empty list proposes
    to the head of its list and holds a proposal from its tail.
    """

    def __init__(self, inst: RoommatesInstance, order: Sequence[AgentId]):
        self.names = list(order)
        index = {u: i for i, u in enumerate(self.names)}
        self.pref = [[index[v] for v in inst.prefs[u]] for u in self.names]
        self.rank = [{v: r for r, v in enumerate(lst)} for lst in self.pref]
        self.live = [bytearray(b"\x01") * len(lst) for lst in self.pref]
        self.size = [len(lst) for lst in self.pref]
        n = len(self.names)
        self.head = [0] * n
        self.sec = [1] * n
        self.tail = [len(lst) - 1 for lst in self.pref]
        self.holder = [-1] * n
        self.locked = bytearray(n)
        self.parties: list[tuple[AgentId, ...]] = []
        self.work = list(range(n - 1, -1, -1))

    # -- list access ----------------------------------------------------

    def first(self, u: int) -> int:
        live, h = self.live[u], self.head[u]
        while not live[h]:
            h += 1
        self.head[u] = h
        return self.pref[u][h]

    def second(self, u: int) -> int:
        self.first(u)
        live = self.live[u]
        s = max(self.sec[u], self.head[u] + 1)
        while not live[s]:
            s += 1
        self.sec[u] = s
        return self.pref[u][s]

    def last(self, u: int) -> int:
        live, t = self.live[u], self.tail[u]
        while not live[t]:
            t -= 1
        self.tail[u] = t
        return self.pref[u][t]

    def delete(self, u: int, r: int) -> None:
        """Remove the live entry at position ``r`` of ``u``'s list from both sides.

        An agent whose held proposal falls with the pair goes back on ``work``.
        """
        v = self.pref[u][r]
        self.live[u][r] = 0
        self.live[v][self.rank[v][u]] = 0
        self.size[u] -= 1
        self.size[v] -= 1
        holder = self.holder
        if holder[u] == v:
            holder[u] = -1
            self.work.append(v)
        if holder[v] == u:
            holder[v] = -1
            self.work.append(u)

    def cut(self, v: int, r: int) -> None:
        """Delete every entry of ``v``'s list ranked below position ``r``."""
        live, delete, t = self.live[v], self.delete, self.tail[v]
        while t > r:
            if live[t]:
                delete(v, t)
            t -= 1
        self.tail[v] = t

    # -- proposal rounds -------------------------------------------------

    def stabilize(self) -> None:
        """Run proposals until every non-empty list is head-held and tail-holding.

        The deletions reached do not depend on the order in which agents
        propose, so the worklist is processed last in, first out.
        """
        work, size, locked, holder, rank = self.work, self.size, self.locked, self.holder, self.rank
        while work:
            u = work.pop()
            if locked[u]:
                continue
            while size[u]:
                v = self.first(u)
                h = holder[v]
                if h == u:
                    break
                rank_v = rank[v]
                if h < 0 or rank_v[u] < rank_v[h]:
                    # Cut before taking over ``holder[v]``, so that the
                    # displaced proposer ``h`` goes back on the worklist.
                    self.cut(v, rank_v[u])
                    holder[v] = u
                    break
                self.delete(u, self.head[u])
        self._check_consistency()

    def _check_consistency(self) -> None:
        holder, first, last = self.holder, self.first, self.last
        for u, (k, lock) in enumerate(zip(self.size, self.locked)):
            if lock or not k:
                continue
            f = first(u)
            if holder[f] != u or last(f) != u:
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
        eliminating them would empty their lists, so they are frozen in
        place and taken out of the table.  Even cycles stay; ordinary
        elimination resolves them into pairs.  Each cycle starts at its
        member with the smallest name.  Returns whether any party was
        locked.
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
            self.locked[x] = 1
        return bool(locked_members)

    # -- main loop ---------------------------------------------------------

    def run(self) -> StablePartition:
        """Stabilize, then resolve rotations until no list has two entries.

        The rotation start is the first agent in ``order`` that is not
        locked and has at least two entries.  Lists only shrink and locks
        are permanent, so that agent never moves backwards in ``order``.
        """
        self.stabilize()
        size, locked = self.size, self.locked
        start, n = 0, len(self.names)
        while True:
            while start < n and (locked[start] or size[start] < 2):
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
            if self.locked[u]:
                continue
            if not self.size[u]:
                succ[name] = name
                continue
            v = self.first(u)
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
    return partition_stable_matching(inst, tan_stable_partition(inst))
