"""Classical matching subroutines: proposal algorithms and stable partitions.

Five entry points, all on one partition engine:

* :func:`gale_shapley`: deferred acceptance for marriage instances,
  optimal for the proposing side [Gale & Shapley 1962, Amer. Math.
  Monthly 69:9].  It is the engine's proposal loop run from the
  proposing side alone, read at that side's heads, so it rejects every
  market the engine rejects.
* :func:`tan_stable_partition`: a stable partition for any roommates
  instance, a permutation of the agents whose cycles ("parties")
  generalise stable matchings.  One always exists; a stable matching
  exists exactly when no party has odd size three or more, and then
  every stable matching leaves exactly the singleton parties unmatched.
* :func:`irving_stable_matching`: the stable matching that pairs up the
  parties of that partition, or ``None`` when it has an odd party; it is
  the witness of :func:`diagnose` with no interested agent.
* :func:`diagnose`: the same partition read for a set of *interested*
  agents, as a :class:`PartitionDiagnosis` whose ``cost`` is 0 exactly
  when some stable matching matches all of them [Tan 1991, J. Algorithms
  12:154].  The existence goals of :mod:`stablectl.control` are this
  cost.  :func:`diagnose` and :func:`diagnose_fixed_instance` take a
  mask of agents as core indices (:func:`index_mask`), masked on the
  core as tails of -1, so that an agent-action search reads every
  subset it tries off the queried market's one core, with one pair
  fixing for the whole search.
* :func:`pair_fixing_cost`: the fewest agent deletions that put a chosen
  pair into some stable matching, read off the stable partition of the
  market *fixed* for that pair (:func:`fixing_deletions`, the one
  statement of fixing, which :func:`partner_fixings` applies to every
  partner of an agent): every agent that an endpoint prefers to the
  other cuts its list just above that endpoint, and those agents are the
  interested ones.  :meth:`PartitionDiagnosis.witness` reads the
  deletions and the stable matching they leave off the same partition.
  Fixing is a set of tail cuts on the integer core of the queried
  instance, and the engine runs from those tails, so no fixed instance
  is built on the way to an answer (``FixingContext.reduced`` builds one
  on demand), and no partition is named on the way either (see below).

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
``r >= 3`` because no agent heads its own list.  So the head map is the
party, and locking the rotation makes each member's head its successor.
Every other rotation is eliminated, even one whose two tracks coincide
as sets.  A run builds its partition as one integer successor list and
ends by checking that list against the stable-partition axioms, on the
same core and tails, raising :class:`InternalError` on a violation;
only then does it return the list.  Every partition the engine returns
is therefore certified, whether it yields a stable matching or an odd
party that refutes one.

Engine bookkeeping and cost, for ``n`` agents and ``m`` acceptable
pairs: the market is interned once per instance, in O(n + m), as its
cached ``RoommatesInstance.core`` (:class:`MarketCore`): the agents as
``0..n-1`` in sorted order, integer preference lists, and for every
entry the position of its owner on the list it names.  A list that names
an unknown agent, its owner or one agent twice, or an agent that does
not list its owner back, fails there, as :class:`InvalidInstanceError`.
Each run sets up its own state in O(n) and starts from a tail per agent,
so every engine run and pair answer on one instance, in any processing
order, shares that core.  Every reduction deletes the tail of some list,
so a tail position per agent is the only deletion state: an entry is
live when it lies within the tails of both lists that hold the pair.  A
cut moves one tail and releases at most one held proposal, in O(1).
Head, second and tail pointers only move inwards, passing each dead
entry once, and are walked inline, with no call per entry, so list
access and proposals cost amortised O(n + m) over a run.  The rotation
start only moves forward through the processing order, and each of the
``r`` rotations pays the walk from it, at most O(n), for
O(n + m + r * n) in all; ``r`` stays small on sparse random markets,
where time per pair is nearly flat in ``n``.  Two guards, O(1) per rotation member,
hold the walk to a rotation of a stable table: every agent it leaves has
a second entry, and ``y_{i+1}`` heads the list of ``x_{i+1}``.  Then, on
lists without repeats, every lock or elimination shortens a list, and an
elimination that shortens none raises :class:`InternalError`, so a run
makes at most O(n + m) rotation steps whatever the table.  Fixing a pair
costs O(n) plus one cut per agent the endpoints outrank.  The closing
axiom check (:func:`_violations`) is one pass over the successors, each
found with one scan of its owner's row, and a blocking scan of only the
entries above each agent's predecessor, since no other entry can block:
at most O(n + m).

Naming: ``_Table.run`` returns the certified successor list over the
core's agent indices, and the agents are named only where an answer
leaves the module.  The core's names are sorted, so "smallest member
first" means the same on indices as on names, and one party walk
(:func:`_parties`) and one pair-up (:func:`_pair_up`) serve both.  Every
engine run that ends in a partition is made by one constructor,
:func:`_diagnosis`, from a core, its tails, the interested agents and a
processing order, and gives a :class:`PartitionDiagnosis`.  That walks
the parties, counts its ``cost`` and pairs up its witness on integers,
names only the witness, and names ``partition`` and
``forbidden_singletons`` when they are read.  Only
:func:`tan_stable_partition` and ``stablectl stable --partition`` read
``partition``, once per run; every other caller reads the cost or the
witness, and :func:`irving_stable_matching` is the witness of a run that
costs 0.  So :func:`~stablectl.poly.solve_delag_ma` names one witness
per call, not a partition per partner, and neither a goal evaluation nor
a stable matching names a partition.  :func:`partition_to_matching`
pairs up a caller's named partition with the same :func:`_pair_up`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import gt
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import InternalError, InvalidInstanceError
from .model import SM, AgentId, MarketCore, Matching, Pair, RoommatesInstance, validate

# ---------------------------------------------------------------------------
# Stable partitions


@dataclass(frozen=True)
class StablePartition:
    """A permutation of the agents; each cycle is a party.

    ``successor`` maps every agent to the next member of its party, with
    fixed points for singleton parties.  Within a party of size >= 3 each
    agent prefers its successor to its predecessor.  It is a read-only
    copy, so the cached readings cannot go stale; it also gives the hash.
    A partition is only read: :func:`partition_to_matching` pairs up its
    parties, and the engine's own answers are read off a
    :class:`PartitionDiagnosis` before any partition is named.
    """

    successor: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "successor", MappingProxyType(dict(self.successor)))

    def __reduce__(self):
        # Read-only views do not pickle; rebuild from a plain copy instead.
        return StablePartition, (dict(self.successor),)

    def __hash__(self) -> int:
        return hash(frozenset(self.successor.items()))

    @cached_property
    def parties(self) -> tuple:
        """Cycle decomposition; each cycle starts at its smallest member.

        Raises ``ValueError`` when ``successor`` is not a permutation of
        its keys (:func:`_parties`).
        """
        return tuple(map(tuple, _parties(self.successor, sorted(self.successor))))

    @cached_property
    def odd_parties(self) -> tuple:
        """The parties of odd size three or more; a stable matching exists iff there are none."""
        return tuple(filter(_is_odd, self.parties))


def _parties(succ, agents: Iterable) -> list[list]:
    """The cycles of the successor map ``succ``, each from its first member in ``agents``.

    ``succ`` maps every agent of ``agents`` to one of them: a partition's
    names in sorted order, or the engine's successor list over the indices
    ``range(n)`` of a core, whose names are sorted, so that both walks give
    the same parties in the same order.  Raises ``ValueError`` when the
    walk from an agent revisits another one, or leaves the keys.
    """
    done, out = set(), []
    try:
        for start in agents:
            if start not in done:
                cycle = [start]
                done.add(start)
                while (nxt := succ[cycle[-1]]) != start:
                    if nxt in done:
                        raise ValueError("successor map is not a permutation")
                    cycle.append(nxt)
                    done.add(nxt)
                out.append(cycle)
    except KeyError:
        raise ValueError("successor map is not a permutation") from None
    return out


def _is_odd(party: Sequence) -> bool:
    """Whether a party is odd: of odd size three or more, so that it refutes a stable matching."""
    return len(party) % 2 == 1 and len(party) >= 3


def _pair_up(parties: Iterable[Sequence]) -> tuple[list, list]:
    """Drop the smallest (first) member of each odd party and pair up the rest in turn."""
    dropped, pairs = [], []
    for party in parties:
        members = iter(party)
        if _is_odd(party):
            dropped.append(next(members))
        pairs += zip(members, members)
    return dropped, pairs


def render_partition(partition: StablePartition) -> str:
    """One ``party (a b c) odd`` line per party, odd sizes marked."""
    lines = []
    for p in partition.parties:
        mark = " odd" if len(p) % 2 == 1 else ""
        lines.append(f"party ({' '.join(p)}){mark}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_partition(inst: RoommatesInstance, partition: StablePartition) -> list[str]:
    """Check the stable-partition axioms; return violation descriptions.

    The caller's names are mapped onto the cached integer core of
    ``inst``, whose lists are whole, and the axioms are checked there; see
    :func:`_violations`.  So this accepts exactly the markets that every
    engine entry accepts: a market whose core cannot be built, one that
    breaks a list rule, raises :class:`InvalidInstanceError` with
    :func:`~stablectl.model.validate`'s violations, and no other rule is
    checked.
    """
    core = inst.core
    given, index = partition.successor, core.index
    if given.keys() != index.keys():
        return ["successor map does not cover exactly the instance agents"]
    return _violations(core, [index.get(given[u], -1) for u in core.names], core.whole)


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
    dropped, pairs = _pair_up(partition.parties)
    return frozenset(dropped), frozenset(map(frozenset, pairs))


# ---------------------------------------------------------------------------
# Deferred acceptance (marriage instances)


def gale_shapley(inst: RoommatesInstance, proposing: str = "a") -> Matching:
    """Deferred acceptance; returns the proposing-side-optimal matching.

    This is the partition engine's proposal loop (:meth:`_Table.stabilize`)
    on the whole lists of the instance's cached core, with only the
    proposing side on the worklist.  On a marriage market a displaced
    proposer is always of the proposing side, so no other agent ever
    proposes, and the loop is textbook deferred acceptance: each proposer
    ends at the head of its list, its partner in the proposer-optimal
    stable matching, or with an empty list, unmatched [Gale & Shapley
    1962, Amer. Math. Monthly 69:9].  The reviewers' lists are cut below
    the proposal each holds, but are left as they are otherwise, so the
    table is not a stable one and :meth:`_Table.run` is never called on
    it.  A market whose core cannot be built, with an agent that has no
    ``a``/``b`` side label, or where a proposer ends matched to an agent
    of its own side, raises :class:`InvalidInstanceError` with
    :func:`~stablectl.model.validate`'s violations.  Only the result is
    checked, in O(n): a same-side entry that no proposer ends on goes
    unseen, as testing every list would cost O(m) per call.
    """
    if inst.kind != SM:
        raise ValueError("gale_shapley needs a marriage instance")
    if proposing not in ("a", "b"):
        raise ValueError("proposing side must be 'a' or 'b'")
    core = inst.core
    names = core.names
    sides = [inst.side.get(u) for u in names]
    if not {"a", "b"}.issuperset(sides):
        raise InvalidInstanceError(validate(inst))
    proposers = [i for i, s in enumerate(sides) if s == proposing]
    table = _Table(core, core.whole, proposers)
    table.stabilize()
    partner = table._assemble()
    matched = [i for i in proposers if partner[i] != i]
    if any(sides[partner[i]] == proposing for i in matched):
        raise InvalidInstanceError(validate(inst))
    return frozenset(frozenset((names[i], names[partner[i]])) for i in matched)


# ---------------------------------------------------------------------------
# The proposal/rotation engine behind stable partitions


class _Table:
    """The state of one engine run over a market's integer core.

    The market is ``core`` (:class:`MarketCore`): agent ``i`` is
    ``names[i]``, ``pref[i]`` its list as agent indices, and
    ``mirror[i][p]`` the position of ``i`` on the list of ``pref[i][p]``.
    The core is built once per instance and never written; a table adds
    the state of one run, set up in O(n) from the tails ``start`` it is
    given (copied once, into ``tail``) and the processing ``order``, so one
    table is one run.  :meth:`run` is the whole run, and needs ``order`` to
    be a permutation of the agents.  :func:`gale_shapley` gives only the
    proposing side of a marriage market as ``order`` and calls
    :meth:`stabilize` alone, never :meth:`run`: that is deferred
    acceptance, which leaves the reviewers' lists unstable.
    Every reduction deletes a tail of some list, so the tail position
    ``tail[i]`` is the only deletion state: the entry at position ``p`` of
    ``u``'s list, naming ``v``, is live exactly when ``p <= tail[u]`` and
    ``mirror[u][p] <= tail[v]``, a rule that gives both sides of a pair the
    same fate.  A market cut before the run, such as one fixed for a pair,
    is therefore just a tail per agent.  The position pointers ``head``,
    ``sec`` and ``tail`` only move inwards and never pass the first, second
    and last live entry, so list access costs amortised O(1).  Loops over
    agents walk them inline; only rotation members call :meth:`second` and
    :meth:`cut`.  ``held[v]`` is the position on ``v``'s list of the
    proposal ``v`` holds (-1 for none).  ``work`` holds the agents that may
    have to propose again: every agent of ``order`` at the start, the first
    on top, then each agent whose held proposal falls with a cut.  ``succ``
    is the partition the run builds, one successor index per agent; every
    agent starts alone.  When ``order`` holds every agent, the stable-table
    invariant, restored by :meth:`stabilize`, is that every agent with a
    non-empty list proposes to the head of its list and holds a proposal
    from its tail.
    """

    def __init__(self, core: MarketCore, tail: Sequence[int], order: Sequence[int] | None = None):
        n = len(core.names)
        self.core, self.start = core, tail
        self.names, self.pref, self.mirror = core.names, core.pref, core.mirror
        self.order = range(n) if order is None else order
        self.head = [0] * n
        self.sec = [1] * n
        self.tail = list(tail)
        self.held = [-1] * n
        self.succ = list(range(n))
        self.work = list(reversed(self.order))

    def second(self, u: int) -> int:
        """``u``'s second live entry (-1 for none); ``head`` and ``sec`` move onto the first two."""
        pref, mirror, tail = self.pref[u], self.mirror[u], self.tail
        h, t = self.head[u], tail[u]
        while h <= t and mirror[h] > tail[pref[h]]:
            h += 1
        self.head[u] = h
        s = max(self.sec[u], h + 1)
        while s <= t and mirror[s] > tail[pref[s]]:
            s += 1
        self.sec[u] = s
        return pref[s] if s <= t else -1

    def cut(self, v: int, r: int) -> bool:
        """Delete every entry of ``v``'s list ranked below position ``r``; say if any went.

        The proposal ``v`` holds falls if it ranks below ``r``, and its
        proposer goes back on ``work``.  ``v``'s own proposal survives,
        since the head never passes a live entry: a proposal cuts at the
        live proposing entry, and eliminating a rotation cuts ``y[i+1]``'s
        list at ``x[i]``, which stays live as ``x[i]``'s new first entry.
        Locking a singular rotation cuts every member's list to nothing,
        so each proposal held inside it falls with its holder's list.
        """
        if r >= self.tail[v]:
            return False
        self.tail[v] = r
        held = self.held
        if held[v] > r:
            self.work.append(self.pref[v][held[v]])
            held[v] = -1
        return True

    # -- proposal rounds -------------------------------------------------

    def stabilize(self) -> None:
        """Run proposals until no agent on the worklist has a proposal to make.

        A list is cut below every proposal it accepts (:meth:`cut`,
        inline), so a live proposal never ranks below the one its target
        holds and is never refused.  The deletions reached do not depend on
        the order in which agents propose, so the worklist is processed last
        in, first out.  Started with every agent on the worklist, it leaves
        every non-empty list head-held and tail-holding, the stable table of
        phase 1 [Irving 1985, J. Algorithms 6:577].  Started with one side of
        a marriage market, only that side ever proposes, since a cut
        releases only proposals made to the cut list's owner: this is
        deferred acceptance [Gale & Shapley 1962, Amer. Math. Monthly 69:9],
        which :func:`gale_shapley` reads at the proposers' heads.
        """
        work, held, head, tail = self.work, self.held, self.head, self.tail
        pref, mirror = self.pref, self.mirror
        while work:
            u = work.pop()
            lst, pos, h, t = pref[u], mirror[u], head[u], tail[u]
            while h <= t and pos[h] > tail[lst[h]]:
                h += 1
            head[u] = h
            if h > t:
                continue
            v, r = lst[h], pos[h]
            w = held[v]
            if w != r:
                # Cut before taking over ``held[v]``, so that the
                # displaced proposer goes back on the worklist.
                if r < tail[v]:
                    tail[v] = r
                    if w > r:
                        work.append(pref[v][w])
                held[v] = r

    # -- rotations --------------------------------------------------------

    def find_rotation(self, start: int) -> list[tuple[int, int]]:
        """The rotation entered by the walk from ``start`` to the last entry of each second entry.

        It comes as the pairs ``(x[i], y[i+1])``, where ``y[i+1]`` is the
        second entry of ``x[i]``, at position ``sec[x[i]]``, and the first
        of ``x[i+1]``.  Two guards hold the walk to a rotation of a stable
        table, and a table that breaks either raises
        :class:`InternalError`: every agent it leaves has a second entry,
        and ``y[i+1]`` heads the list of its last entry ``x[i+1]``.  Then,
        on lists without repeats, ``x[i]`` is live on ``y[i+1]``'s list
        above ``x[i+1]``, so eliminating it shortens a list.  The walk
        leaves ``head`` on each member's first live entry.
        """
        names, pref, mirror, head, tail = self.names, self.pref, self.mirror, self.head, self.tail
        seq: list[tuple[int, int]] = []
        index: dict[int, int] = {}
        x = start
        while x not in index:
            index[x] = len(seq)
            y = self.second(x)
            if y < 0:
                raise InternalError(f"rotation walk reached {names[x]}, which has no second entry")
            seq.append((x, y))
            lst, pos, t = pref[y], mirror[y], tail[y]
            while t >= 0 and pos[t] > tail[lst[t]]:
                t -= 1
            tail[y] = t
            x = lst[t] if t >= 0 else -1
        rotation = seq[index[x] :]
        for (_, y), (x, _) in zip(rotation, rotation[1:] + rotation[:1]):
            if pref[x][head[x]] != y:
                raise InternalError(f"rotation breaks at {names[x]}, whose head is not {names[y]}")
        return rotation

    # -- main loop ---------------------------------------------------------

    def run(self) -> list[int]:
        """Stabilize, resolve rotations until no list has two entries, and certify.

        The run starts from the lists cut at ``start`` with no proposal
        made.  The rotation start is the first agent in ``order`` with at
        least two entries; locked agents have none.  Lists only shrink, so
        that agent never moves backwards in ``order``.  The rotation found
        from there is locked as one odd party when it is singular (see the
        module docstring) and otherwise eliminated, cutting each
        ``y[i+1]``'s list below ``x[i]``, whose position there is
        ``mirror[x[i]][sec[x[i]]]``.  A lock empties lists of two entries
        or more, and an elimination that shortens no list is an engine
        fault, so the loop ends.  The successor list assembled at the end
        is checked against the market cut at ``start`` (:func:`_violations`)
        and returned as it is, one successor index per agent, unnamed.
        Engine faults raise :class:`InternalError`.
        """
        names, pref, mirror, order = self.names, self.pref, self.mirror, self.order
        head, sec, tail, cut, n, k = self.head, self.sec, self.tail, self.cut, len(names), 0
        self.stabilize()
        while True:
            # :meth:`second` of each agent from ``order[k]``, inline.
            while k < n:
                u = order[k]
                lst, pos, h, t = pref[u], mirror[u], head[u], tail[u]
                while h <= t and pos[h] > tail[lst[h]]:
                    h += 1
                head[u] = h
                s = sec[u]
                if s <= h:
                    s = h + 1
                while s <= t and pos[s] > tail[lst[s]]:
                    s += 1
                sec[u] = s
                if s <= t:
                    break
                k += 1
            if k == n:
                break
            rotation = self.find_rotation(order[k])
            xs, ys = zip(*rotation)
            if set(xs) == set(ys) and all(pref[y][head[y]] == x for x, y in rotation):
                # Lock the singular rotation as one odd party, its head map:
                # ``x[i]`` heads ``y[i+1]``'s list and becomes its successor.
                for x, y in rotation:
                    self.succ[y] = x
                    cut(y, -1)
            elif not any([cut(y, mirror[x][sec[x]]) for x, y in rotation]):
                raise InternalError(f"eliminating the rotation at {names[order[k]]} cut nothing")
            self.stabilize()
        succ = self._assemble()
        violations = _violations(self.core, succ, self.start)
        if violations:
            raise InternalError("invalid partition: " + "; ".join(violations))
        return succ

    def _assemble(self) -> list[int]:
        """``succ`` with the residual partner of each agent whose list is not empty."""
        pref, mirror, tail, succ = self.pref, self.mirror, self.tail, self.succ
        for u, h in enumerate(self.head):
            lst, pos, t = pref[u], mirror[u], tail[u]
            while h <= t and pos[h] > tail[lst[h]]:
                h += 1
            if h <= t:
                succ[u] = lst[h]
        return succ


# ---------------------------------------------------------------------------
# The stable-partition axioms


def _violations(core: MarketCore, succ: Sequence[int], tail: Sequence[int]) -> list[str]:
    """Check the successor list ``succ`` against ``core``'s market cut at ``tail``.

    The axioms: ``succ`` is a permutation of the agent indices; each
    agent's successor is acceptable to it, and preferred to its
    predecessor when the two differ; and no acceptable pair of agents
    that are not each other's successor blocks, where a pair blocks when
    each prefers the other to its predecessor (a fixed point ranks below
    every acceptable agent).  Violations come grouped in that order, and
    within a group in the sorted order of the names.

    One pass tests the permutation, finds each successor on its list
    (``at``) and sets each agent's ``bound``, the position of its
    predecessor (one past its last entry when alone): it prefers exactly
    the entries before it.  No list repeats an agent, so a successor lies
    past the bound exactly when it is not preferred to a predecessor it
    differs from.  :meth:`MarketCore.blocking` reads blocking pairs at
    those bounds, since no other entry can block, and meets no agent ``u``
    and its successor ``s``: ``bound[s]`` is the position of ``u``, and
    ``s`` is at ``u``'s bound against a strict ``<``.
    """
    names, pref, mirror = core.names, core.pref, core.mirror
    n = len(names)
    if len(succ) != n:
        return ["successor map is not a permutation"]
    pred, at, bound, unacceptable = [-1] * n, [-1] * n, [0] * n, []
    for u, s in enumerate(succ):
        if not 0 <= s < n or pred[s] >= 0:
            return ["successor map is not a permutation"]
        pred[s] = u
        if s == u:
            bound[u] = tail[u] + 1
            continue
        try:
            r = pref[u].index(s)
        except ValueError:
            r = n  # past every tail
        if r <= tail[u] and mirror[u][r] <= tail[s]:
            at[u], bound[s] = r, mirror[u][r]
        else:
            unacceptable.append(f"successor of {names[u]} is the unacceptable agent {names[s]}")
    if unacceptable:
        return unacceptable
    out = [
        f"{names[u]} prefers its predecessor {names[pred[u]]} to its successor {names[succ[u]]}"
        for u in compress(range(n), map(gt, at, bound))
    ]
    blocking = sorted(core.blocking(bound))  # the scan yields them in list order
    return out + [f"pair {names[u]},{names[v]} blocks the partition" for u, v in blocking]


# ---------------------------------------------------------------------------
# Engine runs, read for the agents a question is interested in


@dataclass(frozen=True)
class PartitionDiagnosis:
    """What the partition that one engine run reached says about its interested agents.

    ``succ`` is the engine's successor list over the agent indices of a
    market's core, whose agents are ``names``: the partition of the whole
    market (:func:`diagnose`, :func:`tan_stable_partition`) or of the
    market fixed for a pair (:func:`diagnose_fixed_instance`).  Its axioms
    were checked on that market when the engine returned it; nothing here
    checks them again.  The interested agents are those a stable matching
    has to match, and ``forbidden`` holds the ones the partition leaves
    alone.  So ``cost`` is 0 exactly when some stable matching matches
    every interested agent; on a fixed market, whose interested agents are
    the fixing's ``stars``, it is the fewest agent deletions that put the
    pair into a stable matching.  The party walk, ``cost`` and
    :meth:`witness` run on these integers; the agents are named only in
    the witness and when ``partition`` or ``forbidden_singletons`` is read.
    """

    names: tuple = field(repr=False)
    succ: tuple
    forbidden: frozenset

    @cached_property
    def parties(self) -> list[list[int]]:
        """The cycles of ``succ``, as agent indices (:func:`_parties`)."""
        return _parties(self.succ, range(len(self.succ)))

    @cached_property
    def cost(self) -> int:
        """One agent deletion per odd party and per interested agent left alone."""
        return sum(map(_is_odd, self.parties)) + len(self.forbidden)

    @property
    def matches_interested(self) -> bool:
        """Whether some stable matching matches every interested agent: ``cost == 0``.

        An interested agent left alone decides it without a walk over the
        parties, as most masks of an agent-action search do.
        """
        return not self.forbidden and self.cost == 0

    @cached_property
    def partition(self) -> StablePartition:
        """The partition, named."""
        names = self.names
        return StablePartition({names[u]: names[s] for u, s in enumerate(self.succ)})

    @cached_property
    def forbidden_singletons(self) -> frozenset:
        """The interested agents that the partition leaves alone, named."""
        return frozenset(map(self.names.__getitem__, self.forbidden))

    def witness(self) -> tuple[frozenset, Matching]:
        """The deletions that ``cost`` counts, and the stable matching they leave.

        One member (the smallest) of each odd party goes, as in
        :func:`partition_to_matching`, the rest pair up, and the forbidden
        singletons go too.
        """
        names = self.names
        dropped, pairs = _pair_up(self.parties)
        deleted = frozenset(names[u] for u in dropped).union(self.forbidden_singletons)
        return deleted, frozenset(frozenset((names[u], names[v])) for u, v in pairs)


def _diagnosis(
    core: MarketCore,
    tail: Sequence[int],
    interested: Iterable[int],
    order: Sequence[int] | None = None,
    mask: Collection[int] = (),
) -> PartitionDiagnosis:
    """One engine run on ``core`` cut at ``tail``, in ``order``, read for ``interested``.

    ``interested`` and ``mask`` hold agent indices.  A masked agent starts
    at tail -1: its own list is empty, and the live rule kills every entry
    that names it, so the engine sees the market without it.  Every engine
    run that ends in a partition is made here.
    """
    if mask:
        tail = list(tail)
        for u in mask:
            tail[u] = -1
    succ = _Table(core, tail, order).run()
    forbidden = frozenset(u for u in interested if succ[u] == u)
    return PartitionDiagnosis(names=core.names, succ=tuple(succ), forbidden=forbidden)


def index_mask(core: MarketCore, agents: Iterable[AgentId]) -> frozenset:
    """The core's indices of ``agents``; an agent outside the market raises ``ValueError``."""
    try:
        return frozenset([core.index[u] for u in agents])
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is not an agent of the instance") from None


def diagnose(
    inst: RoommatesInstance, interested: Iterable[int] = (), mask: Collection[int] = ()
) -> PartitionDiagnosis:
    """The stable partition of ``inst`` without ``mask``, read for ``interested``.

    Both are core indices of ``inst`` (:func:`index_mask` converts names).
    Its ``cost`` is 0 exactly when some stable matching of that market
    matches every interested agent: when the partition has no odd party
    and leaves none of them alone [Tan 1991, J. Algorithms 12:154].  The
    run is on the cached core of ``inst``, with the agents of ``mask``
    masked as tails of -1 (:func:`_diagnosis`), so it is the run on the
    market that ``model.delete_agents`` would build, with each masked
    agent added as a singleton: the survivors keep their relative order,
    and an agent with an empty list never proposes or starts a rotation,
    so the engine makes the same steps.  A masked agent is therefore never
    worth being interested in.
    """
    core = inst.core
    return _diagnosis(core, core.whole, interested, mask=mask)


def tan_stable_partition(
    inst: RoommatesInstance, order: Iterable[AgentId] | None = None
) -> StablePartition:
    """Compute a stable partition of ``inst``.

    ``order`` fixes the internal processing priority and defaults to the
    sorted agent list; the partition returned may depend on it, but the
    multiset of odd parties never does.  Every order runs on the one
    cached integer core of ``inst``: it is mapped to agent indices once,
    and raises ``ValueError`` unless those are a permutation.  The run is
    the one diagnosis constructor's, with no interested agent, and its
    certified successor list is named here, once.
    """
    core = inst.core
    if order is not None:
        n = len(core.names)
        order = [core.index.get(u, n) for u in order]
        if len(order) != n or set(order) != set(range(n)):
            raise ValueError("order must be a permutation of the instance agents")
    return _diagnosis(core, core.whole, (), order).partition


def irving_stable_matching(inst: RoommatesInstance) -> Matching | None:
    """Some stable matching of ``inst``, or ``None`` when none exists.

    One :func:`diagnose` run with no interested agent: its ``cost`` counts
    the odd parties, and when there are none its witness deletes nothing
    and pairs up the parties in turn.
    """
    return None if (diag := diagnose(inst)).cost else diag.witness()[1]


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
# the tails of the integer core of the instance the query was asked on,
# and the engine runs from those tails and checks its partition at them.


@dataclass(frozen=True)
class FixingContext:
    """A market fixed so that a target pair is mutually top-ranked.

    The fixed market is ``instance``'s integer ``core`` with its lists cut
    at ``tail``: every agent that ``a`` prefers to ``b`` (resp. ``b`` to
    ``a``) keeps only the entries above ``a`` (resp. ``b``), and the tail
    rule of the engine kills the mirror entry on the list of every agent
    it cut off.  ``stars`` holds those two sets of agents as the index
    runs of ``a``'s and ``b``'s lists above the other endpoint: the agents
    the diagnosis is interested in.  The context holds no run state, so
    any number of contexts on one instance share its core.  ``reduced``
    builds the fixed market as an instance.
    """

    instance: RoommatesInstance
    a: AgentId
    b: AgentId
    tail: tuple = field(repr=False, compare=False)
    stars: tuple = field(repr=False, compare=False)

    @cached_property
    def reduced(self) -> RoommatesInstance:
        """The fixed market as an instance: each list keeps its live entries."""
        inst, tail = self.instance, self.tail
        core = inst.core
        names = core.names
        prefs = {
            names[u]: tuple(
                names[v] for p, v in enumerate(lst[: tail[u] + 1]) if core.mirror[u][p] <= tail[v]
            )
            for u, lst in enumerate(core.pref)
        }
        return RoommatesInstance(kind=inst.kind, prefs=prefs, side=inst.side, addable=inst.addable)


def fixing_deletions(inst: RoommatesInstance, a: AgentId, b: AgentId) -> FixingContext:
    """Delete every pair that competes with ``{a, b}`` in ``inst``.

    Removed are the pairs ``{x, y}`` where ``x`` prefers ``a`` to ``y``
    (or ``y`` is ``a`` itself) for some ``x`` that ``a`` prefers to ``b``,
    and symmetrically on ``b``'s side: each such ``x`` keeps only the head
    of its list above the endpoint, and leaves the list of every ``y`` in
    the tail it cuts off.  Afterwards ``a`` and ``b`` are each other's
    first choices.  The deletions are tail cuts on the cached integer core
    of ``inst``, and both endpoints' positions are read off that core;
    nothing is copied until ``reduced`` is read.  Raises
    ``ValueError`` when ``{a, b}`` is not an acceptable pair of ``inst``,
    and :class:`InvalidInstanceError` when the core cannot be built.
    """
    core = inst.core
    index, pref, mirror = core.index, core.pref, core.mirror
    i, j = index.get(a), index.get(b)
    # The core is mirrored, so ``b`` is on ``a``'s list exactly when the pair
    # is acceptable, and ``mirror`` holds ``a``'s position on ``b``'s list.
    if i is None or j not in pref[i]:
        raise ValueError(f"target pair {a},{b} is not acceptable in the instance")
    p = pref[i].index(j)
    tops = {i: p, j: mirror[i][p]}
    tail = list(core.whole)
    # Each agent an endpoint outranks keeps only the entries above that endpoint.
    for u, top in tops.items():
        for x, q in zip(pref[u][:top], mirror[u]):
            if q <= tail[x]:
                tail[x] = q - 1
    for u, top in tops.items():
        live = [q <= tail[x] for x, q in zip(pref[u][: top + 1], mirror[u])]
        if top > tail[u] or any(live[:top]) or not live[top]:
            raise InternalError("fixing deletions did not make the target mutually top-ranked")
    stars = (pref[i][: tops[i]], pref[j][: tops[j]])
    return FixingContext(instance=inst, a=a, b=b, tail=tuple(tail), stars=stars)


def partner_fixings(inst: RoommatesInstance, agent: AgentId) -> Iterator[FixingContext]:
    """The market fixed for ``agent`` and each of its partners in turn.

    Partners come in sorted order, and every context cuts the one cached
    integer core of ``inst``.  That core is built before the first
    partner, so a market whose core cannot be built raises
    :class:`InvalidInstanceError` even for an agent with no partner, and
    an agent outside ``inst`` raises ``ValueError``, as in :func:`index_mask`.
    """
    if agent not in inst.core.index:
        raise ValueError(f"{agent} is not an agent of the instance")
    for partner in sorted(inst.prefs[agent]):
        yield fixing_deletions(inst, *sorted((agent, partner)))


def diagnose_fixed_instance(ctx: FixingContext, mask: Collection[int] = ()) -> PartitionDiagnosis:
    """Run the engine on the fixed market without ``mask``, from the tails that fixing cut.

    The interested agents are those of the fixing's ``stars``.  The agents
    of ``mask`` (core indices) are taken out as in :func:`diagnose`
    (:func:`_diagnosis`), and each leaves its star, as it is not in the market
    to be matched.  That is exactly the fixing of the market without them: a
    masked agent's tail is -1 there already, so no cut of fixing moves it,
    and every other agent's cuts are read off the endpoints' whole lists
    either way, since no cut raises a tail.  Masking only kills entries, so
    the endpoints, mutually top-ranked on the whole fixed market, stay so
    under every mask that spares them: the check that fixing made once
    covers every such mask.  A mask that holds an endpoint raises
    ``ValueError``, as fixing a pair that is not in the market does.
    """
    core = ctx.instance.core
    if mask and (core.index[ctx.a] in mask or core.index[ctx.b] in mask):
        raise ValueError(f"target pair {ctx.a},{ctx.b} is not acceptable without the mask")
    stars = [x for star in ctx.stars for x in star if x not in mask]
    return _diagnosis(core, ctx.tail, stars, mask=mask)


def pair_fixing_cost(inst: RoommatesInstance, target: Pair) -> int:
    """Minimum number of agent deletions putting ``target`` into a stable matching."""
    a, b = sorted(target)
    return diagnose_fixed_instance(fixing_deletions(inst, a, b)).cost
