"""Graph-to-control-instance constructions.

Three generators turn a graph problem into a concrete control query:

* :func:`clique_to_csm_addag`: clique detection becomes agent addition
  on a marriage market, with goal ``ma`` (match a distinguished woman) or
  ``epsm`` (perfect stable matching) and budget ``k + C(k, 2)``.
* :func:`is_to_csr_addag_ms`: independent set becomes agent addition on
  a roommates market with a matching goal and budget ``2|V| - k``.
* :func:`is_to_csr_addag_existssm`: independent set becomes agent
  addition with goal ``esm`` or ``epsm`` and budget ``k``.

Whenever a preference list contains a set of agents rather than a single
one, the set is laid out in lexicographic identifier order; the
constructions are correct for any fixed order.  Each result carries a
name map from gadget role to generated agent identifier so reduced
instances stay debuggable.  Every role and every agent identifier is
named once: a graph whose vertex or edge names would make two roles, or
two agents, share a name raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .control import ADD_AGENTS, ControlGoal, ControlQuery
from .errors import ParseError
from .model import ID_RE, SM, SR, Pair, content_lines, make_instance


@dataclass(frozen=True)
class UndirectedGraph:
    vertices: frozenset
    edges: frozenset

    @cached_property
    def _adjacency(self) -> dict:
        nbrs = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = e
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def neighbors(self, v: str) -> frozenset:
        return frozenset(self._adjacency[v])


def make_graph(vertices, edges) -> UndirectedGraph:
    vs = frozenset(vertices)
    es = set()
    for e in edges:
        u, v = tuple(e)
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if u not in vs or v not in vs:
            raise ValueError(f"edge {u!r},{v!r} uses an unknown vertex")
        es.add(frozenset((u, v)))
    return UndirectedGraph(vertices=vs, edges=frozenset(es))


def parse_graph(text: str) -> UndirectedGraph:
    """Parse ``vertices v1 v2 ...`` and ``edge u v`` lines."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, line in content_lines(text):
        tokens = line.split()
        if tokens[0] == "vertices":
            for tok in tokens[1:]:
                if not ID_RE.match(tok):
                    raise ParseError(f"invalid vertex name {tok!r}", lineno)
                vertices.append(tok)
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise ParseError("expected 'edge <u> <v>'", lineno)
            edges.append((tokens[1], tokens[2]))
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)
    try:
        return make_graph(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(graph: UndirectedGraph) -> str:
    lines = []
    if graph.vertices:
        lines.append("vertices " + " ".join(sorted(graph.vertices)))
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class ReductionResult:
    """A generated control query plus the gadget-role-to-agent name map."""

    query: ControlQuery
    name_map: dict


def _edge_token(e: Pair) -> str:
    u, v = sorted(e)
    return f"{u}-{v}"


def _check_k(graph: UndirectedGraph, k: int) -> None:
    if k < 0 or k > len(graph.vertices):
        raise ValueError(f"k must lie between 0 and the vertex count, got {k}")


def _name(name_map: dict, role: str, prefix: str, keys, label=str) -> dict:
    """Name the agent ``prefix + label(key)`` for each of ``keys``, in order.

    Each agent is entered in ``name_map`` under the gadget role
    ``role(label(key))``; the agents come back by key.  A role or an
    agent identifier that is already named raises ``ValueError``.
    """
    agents = {key: prefix + label(key) for key in keys}
    size = len(name_map) + len(agents)
    name_map.update((f"{role}({label(key)})", agent) for key, agent in agents.items())
    if len(name_map) != size or len(set(name_map.values())) != size:
        raise ValueError("vertex names collide under the gadget naming scheme")
    return agents


def clique_to_csm_addag(graph: UndirectedGraph, k: int, goal_kind: str = "ma") -> ReductionResult:
    """Clique detection as control by adding men to a marriage market.

    Women: one per vertex, one per edge, ``C(k, 2)`` selectors, and a
    distinguished woman.  Men: an addable partner per vertex, a base man
    and an addable partner per edge, ``|V| - k`` dummies, and a
    distinguished man.  A clique of size ``k`` exists exactly when adding
    ``k + C(k, 2)`` men lets the distinguished woman marry (equivalently,
    makes a perfect stable matching possible).
    """
    if goal_kind not in ("ma", "epsm"):
        raise ValueError("goal must be 'ma' or 'epsm'")
    _check_k(graph, k)
    vs = sorted(graph.vertices)
    es = sorted(graph.edges, key=_edge_token)
    wstar = "wstar"
    mstar = "mstar"
    name_map = {"w*": wstar, "m*": mstar}
    wv = _name(name_map, "w_v", "wv_", vs)
    mv = _name(name_map, "m'_v", "mv'_", vs)
    we = _name(name_map, "w_e", "we_", es, _edge_token)
    me = _name(name_map, "m_e", "me_", es, _edge_token)
    me_prime = _name(name_map, "m'_e", "me'_", es, _edge_token)
    selectors = tuple(_name(name_map, "s", "s_", range(1, k * (k - 1) // 2 + 1)).values())
    dummies = tuple(_name(name_map, "d", "d_", range(1, len(vs) - k + 1)).values())

    prefs: dict[str, tuple] = {}
    prefs[mstar] = (*selectors, wstar)
    prefs[wstar] = (mstar,)
    for s in selectors:
        prefs[s] = (*me.values(), mstar)
    for e in es:
        u, v = sorted(e)
        prefs[me[e]] = (we[e], wv[u], wv[v], *selectors)
        prefs[we[e]] = (me_prime[e], me[e])
        prefs[me_prime[e]] = (we[e],)
    for v in vs:
        incident = [me[e] for e in es if v in e]
        prefs[wv[v]] = (mv[v], *incident, *dummies)
        prefs[mv[v]] = (wv[v],)
    for d in dummies:
        prefs[d] = tuple(wv.values())

    women = {wstar, *wv.values(), *we.values(), *selectors}
    side = {agent: ("a" if agent in women else "b") for agent in prefs}
    addable = frozenset([*mv.values(), *me_prime.values()])
    inst = make_instance(SM, prefs, side=side, addable=addable)
    goal = ControlGoal.ma(wstar) if goal_kind == "ma" else ControlGoal.epsm()
    budget = k + k * (k - 1) // 2
    return ReductionResult(
        query=ControlQuery(instance=inst, action=ADD_AGENTS, goal=goal, budget=budget),
        name_map=name_map,
    )


def is_to_csr_addag_ms(graph: UndirectedGraph, k: int) -> ReductionResult:
    """Independent set as control by adding agents under a matching goal.

    Every vertex contributes three agents and their addable copies; the
    target matching pairs each agent with its copy.  Copies of adjacent
    vertices find each other acceptable, so a cheap addition set exists
    exactly when the graph has an independent set of size ``k``.
    """
    _check_k(graph, k)
    vs = sorted(graph.vertices)
    roles = ("a", "b", "c")
    name_map: dict = {}
    agent = {r: _name(name_map, r, f"{r}_", vs) for r in roles}
    copy = {r: _name(name_map, f"{r}'", f"{r}'_", vs) for r in roles}

    prefs: dict[str, tuple] = {}
    for v in vs:
        a, b, c = (agent[r][v] for r in roles)
        ap, bp, cp = (copy[r][v] for r in roles)
        adjacent_copies = tuple(copy["a"][u] for u in sorted(graph.neighbors(v)))
        prefs[a] = (ap, b, c)
        prefs[ap] = adjacent_copies + (a,)
        prefs[b] = (bp, a)
        prefs[bp] = (b,)
        prefs[c] = (cp, a)
        prefs[cp] = (c,)

    addable = frozenset(x for r in roles for x in copy[r].values())
    inst = make_instance(SR, prefs, addable=addable)
    matching = frozenset(frozenset((agent[r][v], copy[r][v])) for r in roles for v in vs)
    return ReductionResult(
        query=ControlQuery(
            instance=inst,
            action=ADD_AGENTS,
            goal=ControlGoal.ms(matching),
            budget=2 * len(vs) - k,
        ),
        name_map=name_map,
    )


def is_to_csr_addag_existssm(
    graph: UndirectedGraph, k: int, goal_kind: str = "esm"
) -> ReductionResult:
    """Independent set as control by adding agents under an existence goal.

    The original market holds ``k`` triples with circular preferences, so
    no stable matching exists until ``k`` pairwise non-adjacent vertices
    are added; any stable matching of a successful addition is perfect,
    so the same instance serves the perfect-existence goal.
    """
    if goal_kind not in ("esm", "epsm"):
        raise ValueError("goal must be 'esm' or 'epsm'")
    _check_k(graph, k)
    vs = sorted(graph.vertices)
    triples = range(1, k + 1)
    name_map: dict = {}
    vertex = _name(name_map, "vertex", "", vs)  # each vertex agent is the vertex
    selectors = _name(name_map, "s", "s_", triples)
    ai = _name(name_map, "a", "ai_", triples)
    bi = _name(name_map, "b", "bi_", triples)

    prefs: dict[str, tuple] = {}
    for v in vs:
        prefs[vertex[v]] = (*(vertex[u] for u in sorted(graph.neighbors(v))), *selectors.values())
    for i in triples:
        s, a, b = selectors[i], ai[i], bi[i]
        prefs[s] = (*vertex.values(), a, b)
        prefs[a] = (b, s)
        prefs[b] = (s, a)

    inst = make_instance(SR, prefs, addable=frozenset(vertex.values()))
    goal = ControlGoal.esm() if goal_kind == "esm" else ControlGoal.epsm()
    return ReductionResult(
        query=ControlQuery(instance=inst, action=ADD_AGENTS, goal=goal, budget=k),
        name_map=name_map,
    )
