"""Instance model for stable roommates and stable marriage markets.

An instance is a set of agents, each holding a strict preference list over
the agents it finds acceptable.  Acceptability is symmetric: ``v`` appears
on ``u``'s list exactly when ``u`` appears on ``v``'s.  Marriage instances
are roommates instances with a bipartition label on every agent; every
algorithm in this package treats them uniformly.

Instances are immutable values.  All mutating operations (agent deletion,
acceptability deletion, induction on a chosen addable subset) return fresh
instances and never touch their input.

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
mandatory for ``sm`` instances and rejected for ``sr``.  Matching files hold
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
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInstanceError, ParseError

AgentId = str
Pair = frozenset  # frozenset[AgentId] of size two
Matching = frozenset  # frozenset[Pair]

SR = "sr"
SM = "sm"

_ID_RE = re.compile(r"^[^\s:,>#]+$")


def pair(a: AgentId, b: AgentId) -> Pair:
    """Build an unordered agent pair."""
    if a == b:
        raise ValueError(f"pair endpoints must be distinct, got {a!r} twice")
    return frozenset((a, b))


def pair_text(p: Pair) -> str:
    """Render a pair as ``a,b`` with endpoints in sorted order."""
    a, b = sorted(p)
    return f"{a},{b}"


@dataclass(frozen=True)
class RoommatesInstance:
    """A stable roommates (or marriage) market.

    ``prefs`` maps every agent to its preference tuple, most preferred
    first.  ``side`` maps agents to ``"a"`` or ``"b"`` and is non-empty
    exactly for marriage instances.  ``addable`` marks the pool of agents
    an agent-addition controller may bring into the market; it is empty
    for ordinary instances.
    """

    kind: str
    agents: frozenset
    prefs: dict
    side: dict = field(default_factory=dict)
    addable: frozenset = frozenset()

    @cached_property
    def _ranks(self) -> dict:
        return {u: {v: i for i, v in enumerate(lst)} for u, lst in self.prefs.items()}

    @cached_property
    def acceptable_pairs(self) -> frozenset:
        """All mutually acceptable pairs, derived from the preference lists."""
        pairs = set()
        for u, lst in self.prefs.items():
            for v in lst:
                if u in self._ranks.get(v, {}):
                    pairs.add(frozenset((u, v)))
        return frozenset(pairs)

    def acceptable(self, u: AgentId, v: AgentId) -> bool:
        return v in self._ranks.get(u, {}) and u in self._ranks.get(v, {})

    def is_acceptable_pair(self, p) -> bool:
        """``p in self.acceptable_pairs``, without building that set."""
        return isinstance(p, frozenset) and len(p) == 2 and self.acceptable(*p)

    def rank(self, u: AgentId, v: AgentId) -> int:
        """Position of ``v`` on ``u``'s list (0 = most preferred)."""
        return self._ranks[u][v]

    def prefers(self, u: AgentId, x: AgentId, y: AgentId) -> bool:
        """True iff ``u`` strictly prefers ``x`` to ``y``."""
        r = self._ranks[u]
        return r[x] < r[y]


def make_instance(
    kind: str,
    prefs: Mapping[AgentId, Sequence[AgentId]],
    side: Mapping[AgentId, str] | None = None,
    addable: Iterable[AgentId] = (),
) -> RoommatesInstance:
    """Normalise plain mappings into a :class:`RoommatesInstance`."""
    return RoommatesInstance(
        kind=kind,
        agents=frozenset(prefs),
        prefs={u: tuple(lst) for u, lst in prefs.items()},
        side=dict(side or {}),
        addable=frozenset(addable),
    )


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
    in a deterministic order and never raised.
    """
    out: list[str] = []
    if inst.kind not in (SR, SM):
        out.append(f"unknown problem kind {inst.kind!r}")
    if set(inst.prefs) != set(inst.agents):
        missing = sorted(inst.agents - set(inst.prefs))
        extra = sorted(set(inst.prefs) - inst.agents)
        if missing:
            out.append(f"agents without preference list: {' '.join(missing)}")
        if extra:
            out.append(f"preference lists for undeclared agents: {' '.join(extra)}")
    for u in sorted(inst.agents):
        if not _ID_RE.match(u):
            out.append(f"invalid agent identifier {u!r}")
    for u in sorted(set(inst.prefs) & set(inst.agents)):
        lst = inst.prefs[u]
        if u in lst:
            out.append(f"agent {u} lists itself")
        if len(set(lst)) != len(lst):
            out.append(f"agent {u} has duplicate preference entries")
        for v in lst:
            if v not in inst.agents:
                out.append(f"agent {u} lists unknown agent {v}")
    # Symmetry of acceptability.
    seen = set()
    for u in sorted(set(inst.prefs) & set(inst.agents)):
        for v in inst.prefs[u]:
            if v not in inst.agents or frozenset((u, v)) in seen:
                continue
            seen.add(frozenset((u, v)))
            if u not in inst.prefs.get(v, ()):
                out.append(f"asymmetric acceptability between {u} and {v}")
    if inst.kind == SM:
        for u in sorted(inst.agents):
            s = inst.side.get(u)
            if s not in ("a", "b"):
                out.append(f"agent {u} has no valid side label")
        for u in sorted(set(inst.prefs) & set(inst.agents)):
            for v in inst.prefs[u]:
                if v in inst.agents and inst.side.get(u) == inst.side.get(v):
                    out.append(f"same-side preference entry {v} on list of {u}")
    elif inst.side:
        out.append("side labels are only allowed on sm instances")
    for u in sorted(inst.addable - inst.agents):
        out.append(f"addable agent {u} is not part of the instance")
    return out


def _reject_unknown(unknown, what: str) -> None:
    if unknown:
        raise ValueError(f"unknown {what}: {' '.join(sorted(map(str, unknown)))}")


def delete_agents(inst: RoommatesInstance, agents: Iterable[AgentId]) -> RoommatesInstance:
    """Remove the given agents and restrict every preference list to survivors."""
    gone = frozenset(agents)
    _reject_unknown(gone - inst.agents, "agents")
    keep = inst.agents - gone
    return RoommatesInstance(
        kind=inst.kind,
        agents=keep,
        prefs={u: tuple(v for v in inst.prefs[u] if v in keep) for u in inst.prefs if u in keep},
        side={u: s for u, s in inst.side.items() if u in keep},
        addable=inst.addable & keep,
    )


def delete_pairs(inst: RoommatesInstance, pairs: Iterable[Pair]) -> RoommatesInstance:
    """Remove the given acceptable pairs from both preference lists."""
    banned = {u: set() for u in inst.agents}
    unknown = []
    for p in frozenset(pairs):
        if not inst.is_acceptable_pair(p):
            unknown.append(p)
            continue
        u, v = p
        banned[u].add(v)
        banned[v].add(u)
    _reject_unknown(unknown, "acceptable pairs")
    return RoommatesInstance(
        kind=inst.kind,
        agents=inst.agents,
        prefs={u: tuple(v for v in lst if v not in banned[u]) for u, lst in inst.prefs.items()},
        side=dict(inst.side),
        addable=inst.addable,
    )


def induce_with_added(inst: RoommatesInstance, added: Iterable[AgentId]) -> RoommatesInstance:
    """Keep the chosen addable agents, drop the rest of the addable pool.

    The result is the market in which the agent-addition controller has
    exercised exactly ``added``; its addable pool is cleared.
    """
    chosen = frozenset(added)
    _reject_unknown(chosen - inst.addable, "addable agents")
    reduced = delete_agents(inst, inst.addable - chosen)
    return RoommatesInstance(
        kind=reduced.kind,
        agents=reduced.agents,
        prefs=reduced.prefs,
        side=reduced.side,
        addable=frozenset(),
    )


# ---------------------------------------------------------------------------
# Text formats


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _check_id(token: str, lineno: int) -> str:
    if not _ID_RE.match(token):
        raise ParseError(f"invalid identifier {token!r}", lineno)
    return token


def parse_instance(text: str, check: bool = True) -> RoommatesInstance:
    """Parse the instance file format.

    Raises :class:`ParseError` on malformed text.  With ``check`` (the
    default) the parsed instance is also validated and
    :class:`InvalidInstanceError` is raised if any invariant fails.
    """
    kind: str | None = None
    agents: list[AgentId] = []
    side: dict[AgentId, str] = {}
    addable: set[AgentId] = set()
    prefs: dict[AgentId, tuple[AgentId, ...]] = {}

    for lineno, line in _content_lines(text):
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
            if name in prefs or name in agents:
                raise ParseError(f"duplicate agent {name}", lineno)
            for tok in tokens[2:]:
                if tok == "addable":
                    addable.add(name)
                elif tok in ("side=a", "side=b"):
                    if kind == SR:
                        raise ParseError("side labels are only allowed for sm", lineno)
                    side[name] = tok[-1]
                else:
                    raise ParseError(f"unknown agent attribute {tok!r}", lineno)
            if kind == SM and name not in side:
                raise ParseError(f"agent {name} needs side=a or side=b", lineno)
            agents.append(name)
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
            prefs[name] = tuple(_check_id(e, lineno) for e in entries)
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)

    if kind is None:
        raise ParseError("empty input: missing 'problem:' header")
    missing = [a for a in agents if a not in prefs]
    if missing:
        raise ParseError(f"missing pref line for: {' '.join(sorted(missing))}")

    inst = RoommatesInstance(
        kind=kind,
        agents=frozenset(agents),
        prefs=prefs,
        side=side,
        addable=frozenset(addable),
    )
    if check:
        violations = validate(inst)
        if violations:
            raise InvalidInstanceError(violations)
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
    for lineno, line in _content_lines(text):
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
