"""Instance model for stable roommates and stable marriage markets.

An instance is its preference lists: each agent holds a strict preference
list over the agents it finds acceptable, and the agent set is the keys of
those lists.  Acceptability is symmetric: ``v`` appears on ``u``'s list
exactly when ``u`` appears on ``v``'s.  Marriage instances are roommates
instances with a bipartition label on every agent; every algorithm in this
package treats them uniformly.  :func:`validate` lists every broken
invariant in one walk over the agents; :func:`parse_instance` proves a
file valid without it, and calls it only to word a rejection.

Instances are immutable, hashable values: ``prefs`` and ``side`` are
read-only mappings copied once at construction, so values derived from an
instance and cached on it (``agents``, ``ranks``, ``core``,
``acceptable_pairs``, ``search_memo``) cannot go stale.  ``ranks`` is the
public rank map: built once per instance on first use and shared by every
reader, it maps each agent to a read-only view of the position of each
entry on its list.
``core`` is the market interned as integers for the partition engine
(:class:`MarketCore`), built once and shared by every engine run, pair
answer and ``gale_shapley`` call on the instance; a parsed instance
arrives with it built.  The core reads each position off ``ranks``, and
``acceptable`` reads ``ranks`` too, so every reader finds a position on
a list one way, whatever the list lengths.  All mutating operations
(agent deletion, acceptability deletion, induction on a chosen addable
subset) return fresh instances and never touch their input.

File formats
------------
Instance files are UTF-8 text.  ``#`` starts a comment and blank lines are
ignored::

    problem: sr                 # or "problem: sm"
    agent a                     # agent <id> [side=a|b] [addable]
    agent b addable
    pref a: b > c               # pref <id>: <id> > <id> > ...  (list may be empty,
                                #   entries may not)
    pref b: a
    pref c: a

Every declared agent needs exactly one ``pref`` line.  ``side=`` labels are
mandatory for ``sm`` instances and rejected for ``sr``; an ``agent`` line
gives each attribute at most once.  Matching files hold
one ``match <id> <id>`` line per pair, with the same comment rules.

Identifiers are opaque case-sensitive tokens without whitespace or the
format's own separators ``:``, ``,``, ``>`` and ``#``; this keeps
serialisation invertible for every valid instance.  Whenever the package
needs a deterministic order it sorts identifiers lexicographically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InternalError, InvalidInstanceError, ParseError

AgentId = str
Pair = frozenset  # frozenset[AgentId] of size two
Matching = frozenset  # frozenset[Pair]

SR = "sr"
SM = "sm"

# What the file formats accept as an agent or vertex identifier.
ID_RE = re.compile(r"^[^\s:,>#]+$")


def pair(a: AgentId, b: AgentId) -> Pair:
    """Build an unordered agent pair."""
    if a == b:
        raise ValueError(f"pair endpoints must be distinct, got {a!r} twice")
    return frozenset((a, b))


def pair_text(p: Pair) -> str:
    """Render a pair as ``a,b`` with endpoints in sorted order."""
    a, b = sorted(p)
    return f"{a},{b}"


class MarketCore(NamedTuple):
    """A market interned as integers: agent ``i`` is ``names[i]``, in sorted order.

    ``index`` inverts ``names``.  ``pref[u]`` is ``u``'s list as agent
    indices, and ``mirror[u][p]`` is the position of ``u`` on the list of
    ``pref[u][p]``, so both sides of a pair are reached without a lookup.
    ``whole[u]`` is the last position of ``u``'s list.  Every row is a
    tuple, except that ``mirror`` rows are ``bytes`` when no list is
    longer than 256, so that every position fits a byte; ``index`` is a
    read-only view.  So the core of an immutable instance is immutable.

    :meth:`blocking` is the integer statement of the blocking rule: it
    reads the blocking pairs of a matching for
    :func:`~stablectl.stability.blocking_pairs`, those of every
    partition the engine returns for the axiom check that certifies it,
    and those of every partial matching that
    :func:`~stablectl.control.fewest_blocking_pairs` visits.
    """

    names: tuple
    index: Mapping
    pref: tuple
    mirror: tuple
    whole: tuple

    def blocking(self, bound: Sequence[int]) -> Iterator[tuple[int, int]]:
        """The pairs ``(u, v)``, ``u < v``, that block at ``bound``, in list order.

        Agent ``u`` prefers exactly the entries before position
        ``bound[u]`` on its list, and a pair blocks when each member
        prefers the other.  The bound is the position of the agent that
        ``u`` compares every other against (its partner, or its
        predecessor in a partition), and one past the last entry ``u``
        may take when there is none.  Only the entries before each bound
        are read, in O(n + m) at most.
        """
        pref, mirror = self.pref, self.mirror
        return (
            (u, v)
            for u in range(len(pref))
            for p, v in enumerate(pref[u][: bound[u]])
            if v > u and mirror[u][p] < bound[v]
        )


@dataclass(frozen=True)
class RoommatesInstance:
    """A stable roommates (or marriage) market.

    ``prefs`` maps every agent to its preference tuple, most preferred
    first.  The agent set is the keys of ``prefs``: ``agents`` is derived
    from them on first read, never passed.  ``side`` maps agents to
    ``"a"`` or ``"b"`` and is non-empty exactly for marriage instances.
    ``addable`` marks the pool of agents an agent-addition controller may
    bring into the market; it is empty for ordinary instances.  Both
    mappings are stored as read-only copies of the ones passed in.
    """

    kind: str
    prefs: Mapping
    side: Mapping = field(default_factory=dict)
    addable: frozenset = frozenset()

    def __post_init__(self) -> None:
        prefs = {u: tuple(lst) for u, lst in self.prefs.items()}
        object.__setattr__(self, "prefs", MappingProxyType(prefs))
        object.__setattr__(self, "side", MappingProxyType(dict(self.side)))

    def __reduce__(self):
        # Read-only views do not pickle; rebuild from plain copies instead.
        fields = (self.kind, dict(self.prefs), dict(self.side), self.addable)
        return RoommatesInstance, fields

    def __hash__(self) -> int:
        prefs, side = frozenset(self.prefs.items()), frozenset(self.side.items())
        return hash((self.kind, prefs, side, self.addable))

    @cached_property
    def agents(self) -> frozenset:
        """The agents: the keys of ``prefs``, as a set built once, when first read.

        Not built at construction, so an instance that no caller asks for its
        agents keeps no set of them; being no dataclass field, it is left
        out of ``repr`` and ``dataclasses.fields``, as the other cached
        values are.
        """
        return frozenset(self.prefs)

    @cached_property
    def search_memo(self) -> dict:
        """Results that a search derives from this instance alone.

        ``exact.solve_exact`` keeps its budget-independent optimum here,
        keyed by action and goal.  The memo lives and dies with the
        instance: an equal but distinct instance starts with an empty one.
        """
        return {}

    @cached_property
    def ranks(self) -> Mapping:
        """``ranks[u][v]`` is the position of ``v`` on ``u``'s list (0 = most preferred).

        Built once per instance and cached; every lookup on the instance
        reads it.  Both levels are read-only views, so writing to them
        raises ``TypeError``.  An entry listed twice maps to its last
        position.
        """
        return MappingProxyType(
            {u: MappingProxyType(dict(zip(lst, range(len(lst))))) for u, lst in self.prefs.items()}
        )

    @cached_property
    def core(self) -> MarketCore:
        """The market interned as integers, built once and cached.

        The build proves the four list rules: a list that names an unknown
        agent, its owner, one agent twice, or an agent that does not list
        its owner back cannot be mirrored, and raises
        :class:`InvalidInstanceError` with :func:`validate`'s violations
        (:class:`InternalError` if there are none).  It checks no other
        rule: :func:`parse_instance`'s grammar enforces identifiers, the
        kind, side labels and the addable pool, and the parse checks that
        ``sm`` lists name only the other side.  Building it costs
        O(n + m) for ``n`` agents and ``m`` list entries.

        Each ``mirror`` entry is read from ``ranks``, which the build leaves
        built for every later reader.
        """
        prefs, ranks = self.prefs, self.ranks
        longest = max(map(len, prefs.values()), default=0)
        names = tuple(sorted(prefs))
        index = {u: i for i, u in enumerate(names)}
        # A byte per position takes an eighth of the room of a tuple entry.
        row = bytes if longest <= 256 else tuple
        pref, mirror = [], []
        try:
            for u in names:
                lst, mine = prefs[u], ranks[u]
                if u in mine or len(mine) != len(lst):
                    break
                # Sized once from a list: a tuple grown from an iterator is
                # reallocated as it grows, which fragments the heap.
                pref.append(tuple([index[v] for v in lst]))
                mirror.append(row([ranks[v][u] for v in lst]))
            else:
                whole = tuple([len(lst) - 1 for lst in pref])
                return MarketCore(names, MappingProxyType(index), tuple(pref), tuple(mirror), whole)
        except KeyError:  # an unknown agent, or one that does not list ``u`` back
            pass
        raise _rejection(self)

    @cached_property
    def acceptable_pairs(self) -> frozenset:
        """All mutually acceptable pairs, derived from the preference lists."""
        return frozenset(
            frozenset((u, v))
            for u, lst in self.prefs.items()
            for v in lst
            if u < v and self.acceptable(u, v)
        )

    def acceptable(self, u: AgentId, v: AgentId) -> bool:
        """Whether ``u`` and ``v`` are agents of the instance that list each other.

        Read through ``ranks``, as the core reads every position.
        """
        ranks = self.ranks
        try:
            return v in ranks[u] and u in ranks[v]
        except KeyError:  # an agent outside the instance
            return False

    def is_acceptable_pair(self, p) -> bool:
        """``p in self.acceptable_pairs``, without building that set."""
        return isinstance(p, frozenset) and len(p) == 2 and self.acceptable(*p)


def make_instance(
    kind: str,
    prefs: Mapping[AgentId, Sequence[AgentId]],
    side: Mapping[AgentId, str] | None = None,
    addable: Iterable[AgentId] = (),
) -> RoommatesInstance:
    """Normalise plain mappings into a :class:`RoommatesInstance`."""
    return RoommatesInstance(kind=kind, prefs=prefs, side=side or {}, addable=frozenset(addable))


def make_sr(prefs: Mapping[AgentId, Sequence[AgentId]], addable: Iterable[AgentId] = ()) -> RoommatesInstance:
    return make_instance(SR, prefs, addable=addable)


def make_sm(
    prefs: Mapping[AgentId, Sequence[AgentId]],
    side: Mapping[AgentId, str],
    addable: Iterable[AgentId] = (),
) -> RoommatesInstance:
    return make_instance(SM, prefs, side=side, addable=addable)


def validate(inst: RoommatesInstance) -> list[str]:
    """Check every structural invariant; return violation descriptions.

    An empty result means the instance is valid.  Violations are reported
    in a deterministic order and never raised: grouped by category, and
    within a category by sorted agent, then by list position.  One walk
    over the agents reads membership and symmetry off the cached ranks; an
    asymmetric pair is met only from the side that lists it.
    """
    ranks, side, sm = inst.ranks, inst.side, inst.kind == SM
    ids, entries, asymmetric, labels, same_side = [], [], [], [], []
    for u in sorted(inst.agents):
        lst, mine = inst.prefs[u], ranks[u]
        if not ID_RE.match(u):
            ids.append(f"invalid agent identifier {u!r}")
        if u in mine:
            entries.append(f"agent {u} lists itself")
        if len(mine) != len(lst):
            entries.append(f"agent {u} has duplicate preference entries")
        entries += [f"agent {u} lists unknown agent {v}" for v in lst if v not in ranks]
        asymmetric += [
            f"asymmetric acceptability between {u} and {v}"
            for v in mine  # each entry once, in order of first appearance
            if v in ranks and u not in ranks[v]
        ]
        if sm:
            su = side.get(u)
            if su not in ("a", "b"):
                labels.append(f"agent {u} has no valid side label")
            same_side += [
                f"same-side preference entry {v} on list of {u}"
                for v in lst
                if v in ranks and side.get(v) == su
            ]
    out = [f"unknown problem kind {inst.kind!r}"] if inst.kind not in (SR, SM) else []
    out += ids + entries + asymmetric + labels + same_side
    if side and not sm:
        out.append("side labels are only allowed on sm instances")
    return out + addable_violations(inst)


def addable_violations(inst: RoommatesInstance) -> list[str]:
    """One violation per member of the addable pool that is no agent of ``inst``, sorted."""
    if inst.addable <= inst.agents:  # the usual case, decided without building a set
        return []
    outside = sorted(inst.addable - inst.agents)
    return [f"addable agent {u} is not part of the instance" for u in outside]


def _rejection(inst: RoommatesInstance) -> Exception:
    """The error for a market that broke a list rule: :func:`validate`'s violations.

    A rule check that fails where :func:`validate` finds nothing is a fault
    of this package, never bad input, so it is an :class:`InternalError`.
    """
    violations = validate(inst)
    return InvalidInstanceError(violations) if violations else InternalError(
        f"a list rule failed on an {inst.kind} market that validate accepts"
    )


def _reject_unknown(unknown, what: str) -> None:
    if unknown:
        raise ValueError(f"unknown {what}: {' '.join(sorted(map(str, unknown)))}")


def _drop_agents(inst: RoommatesInstance, gone: frozenset, addable: frozenset) -> RoommatesInstance:
    """``inst`` without the agents ``gone``, with ``addable`` as its pool.

    Only the entries that name a removed agent leave a list, so an entry
    naming an agent outside ``inst`` stays for :func:`validate` to report.
    """
    return RoommatesInstance(
        kind=inst.kind,
        prefs={
            u: tuple(filterfalse(gone.__contains__, lst))
            for u, lst in inst.prefs.items()
            if u not in gone
        },
        side={u: s for u, s in inst.side.items() if u not in gone},
        addable=addable,
    )


def delete_agents(inst: RoommatesInstance, agents: Iterable[AgentId]) -> RoommatesInstance:
    """Remove the given agents and their entries on every other list.

    No other entry is touched: a list that names an agent outside the
    market keeps that entry, so a malformed market stays malformed.
    """
    gone = frozenset(agents)
    _reject_unknown(gone - inst.agents, "agents")
    return _drop_agents(inst, gone, inst.addable - gone)


def delete_pairs(inst: RoommatesInstance, pairs: Iterable[Pair]) -> RoommatesInstance:
    """Remove the given acceptable pairs from both preference lists."""
    banned = {u: set() for u in inst.agents}
    unknown = []
    for p in frozenset(pairs):
        if inst.is_acceptable_pair(p):
            u, v = p
            banned[u].add(v)
            banned[v].add(u)
        else:
            unknown.append(p)
    _reject_unknown(unknown, "acceptable pairs")
    return RoommatesInstance(
        kind=inst.kind,
        prefs={u: tuple(v for v in lst if v not in banned[u]) for u, lst in inst.prefs.items()},
        side=inst.side,
        addable=inst.addable,
    )


def induce_with_added(inst: RoommatesInstance, added: Iterable[AgentId]) -> RoommatesInstance:
    """Keep the chosen addable agents, drop the rest of the addable pool.

    The result is the market in which the agent-addition controller has
    exercised exactly ``added``; its addable pool is cleared.  As with
    :func:`delete_agents`, only the dropped agents' entries leave a list.
    """
    chosen = frozenset(added)
    _reject_unknown(chosen - inst.addable, "addable agents")
    return _drop_agents(inst, inst.addable - chosen, frozenset())


# ---------------------------------------------------------------------------
# Text formats


def content_lines(text: str):
    """``(line number, line)`` for each line left after comments and blanks go."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _check_id(token: str, lineno: int) -> str:
    if not ID_RE.match(token):
        raise ParseError(f"invalid identifier {token!r}", lineno)
    return token


def parse_instance(text: str) -> RoommatesInstance:
    """Parse the instance file format and prove the result valid.

    The grammar enforces every rule outside the lists: identifiers, the
    ``sr``/``sm`` kind, side labels (each ``sm`` agent has one, no ``sr``
    agent has any) and an addable pool of declared agents.  Building
    ``inst.core``, which the returned instance keeps for every later
    engine call, proves the four list rules (see ``core``), and one set
    test per list here proves that ``sm`` lists name only the other side.
    Raises :class:`ParseError` on malformed text and
    :class:`InvalidInstanceError` with :func:`validate`'s violations, all
    of them in its order, when a list rule fails.
    """
    kind: str | None = None
    agents: dict[AgentId, None] = {}  # declaration order, O(1) membership
    side: dict[AgentId, str] = {}
    addable: set[AgentId] = set()
    prefs: dict[AgentId, tuple[AgentId, ...]] = {}

    for lineno, line in content_lines(text):
        if kind is None:
            m = re.match(r"^problem:\s*(\S+)$", line)
            if not m or m.group(1) not in (SR, SM):
                raise ParseError("expected 'problem: sr' or 'problem: sm'", lineno)
            kind = m.group(1)
            continue
        if line.startswith("agent "):
            tokens = line.split()
            if len(tokens) < 2:
                raise ParseError("agent line needs an identifier", lineno)
            name = _check_id(tokens[1], lineno)
            if name in agents:
                raise ParseError(f"duplicate agent {name}", lineno)
            for tok in tokens[2:]:
                if tok == "addable":
                    if name in addable:
                        raise ParseError(f"agent {name} repeats 'addable'", lineno)
                    addable.add(name)
                elif tok in ("side=a", "side=b"):
                    if kind == SR:
                        raise ParseError("side labels are only allowed for sm", lineno)
                    if name in side:
                        raise ParseError(f"agent {name} has more than one side label", lineno)
                    side[name] = tok[-1]
                else:
                    raise ParseError(f"unknown agent attribute {tok!r}", lineno)
            if kind == SM and name not in side:
                raise ParseError(f"agent {name} needs side=a or side=b", lineno)
            agents[name] = None
        elif line.startswith("pref "):
            head, sep, tail = line[len("pref "):].partition(":")
            if not sep:
                raise ParseError("pref line needs ':' after the agent", lineno)
            name = _check_id(head.strip(), lineno)
            if name not in agents:
                raise ParseError(f"pref line for undeclared agent {name}", lineno)
            if name in prefs:
                raise ParseError(f"duplicate pref line for {name}", lineno)
            entries = [e.strip() for e in tail.split(">")] if tail.strip() else []
            if "" in entries:
                raise ParseError(f"empty preference entry on the list of {name}", lineno)
            # No entry is empty, so all are identifiers exactly when their
            # concatenation is one; only a failed line is walked entry by entry.
            if entries and not ID_RE.match("".join(entries)):
                for e in entries:
                    _check_id(e, lineno)
            prefs[name] = tuple(entries)
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)

    if kind is None:
        raise ParseError("empty input: missing 'problem:' header")
    missing = [a for a in agents if a not in prefs]
    if missing:
        raise ParseError(f"missing pref line for: {' '.join(sorted(missing))}")

    inst = RoommatesInstance(kind=kind, prefs=prefs, side=side, addable=frozenset(addable))
    inst.core  # proves the four list rules, or raises with validate's violations
    # Every sm agent has a side and lists only the other side; sr has no sides.
    other = {s: frozenset(u for u, t in side.items() if t != s) for s in "ab"}
    if not all(other[s].issuperset(prefs[u]) for u, s in side.items()):
        raise _rejection(inst)
    return inst


def serialize_instance(inst: RoommatesInstance) -> str:
    """Deterministic text form; ``parse_instance`` inverts it exactly."""
    lines = [f"problem: {inst.kind}"]
    for u in sorted(inst.agents):
        attrs = ""
        if inst.kind == SM:
            attrs += f" side={inst.side[u]}"
        if u in inst.addable:
            attrs += " addable"
        lines.append(f"agent {u}{attrs}")
    for u in sorted(inst.agents):
        lines.append(f"pref {u}: " + " > ".join(inst.prefs[u]) if inst.prefs[u] else f"pref {u}:")
    return "\n".join(lines) + "\n"


def parse_matching(text: str) -> Matching:
    """Parse a matching file into a set of pairs."""
    pairs = set()
    for lineno, line in content_lines(text):
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != "match":
            raise ParseError("expected 'match <id> <id>'", lineno)
        a = _check_id(tokens[1], lineno)
        b = _check_id(tokens[2], lineno)
        if a == b:
            raise ParseError("matched agents must be distinct", lineno)
        pairs.add(frozenset((a, b)))
    return frozenset(pairs)


def serialize_matching(matching: Matching) -> str:
    lines = [f"match {a} {b}" for a, b in sorted(tuple(sorted(p)) for p in matching)]
    return "\n".join(lines) + ("\n" if lines else "")
