import hashlib
import itertools
import random

import pytest

from helpers import brute_clique, brute_independent_set, is_perfect
from stablectl.control import apply_actions
from stablectl.errors import CapExceededError, ParseError
from stablectl.exact import solve_exact
from stablectl.model import pair_text, serialize_instance, serialize_matching, validate
from stablectl.reductions import (
    clique_to_csm_addag,
    is_to_csr_addag_existssm,
    is_to_csr_addag_ms,
    make_graph,
    parse_graph,
    serialize_graph,
)


def k_n(n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return make_graph(vs, itertools.combinations(vs, 2))


def random_graph(rng, n, p=0.5):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return make_graph(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < p])


# -- graphs and brute-force oracles -------------------------------------------


def test_graph_file_roundtrip():
    g = make_graph(["x", "y", "z"], [("x", "y")])
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert parse_graph("") == make_graph([], [])


def test_graph_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("edge a\n")
    with pytest.raises(ParseError):
        parse_graph("vertices a\nedge a b\n")
    with pytest.raises(ValueError):
        make_graph(["a"], [("a", "a")])


def test_brute_clique():
    assert brute_clique(k_n(3), 3)
    assert brute_clique(k_n(3), 0)
    assert not brute_clique(k_n(3), 4)
    path = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert brute_clique(path, 2) and not brute_clique(path, 3)


def test_brute_independent_set():
    assert not brute_independent_set(k_n(3), 2)
    five_cycle = make_graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    assert brute_independent_set(five_cycle, 2)
    assert brute_clique(five_cycle, 2)
    assert not brute_independent_set(five_cycle, 3)


def test_brute_cap():
    with pytest.raises(CapExceededError):
        brute_clique(k_n(13), 2)


# -- clique -> marriage agent-addition ----------------------------------------


def test_clique_reduction_counts_for_triangle():
    result = clique_to_csm_addag(k_n(3), 2)
    inst = result.query.instance
    assert result.query.budget == 3
    women = {a for a in inst.agents if inst.side[a] == "a"}
    men = {a for a in inst.agents if inst.side[a] == "b"}
    assert len(women) == 8  # 3 vertex + 3 edge + 1 selector + distinguished
    assert len(men) == 11  # 3 + 6 edge men + 1 dummy + distinguished
    assert validate(inst) == []
    assert result.query.goal.kind == "ma"
    assert result.query.goal.agent == "wstar"
    assert inst.addable == {m for m in men if m.startswith(("mv'", "me'"))}


def test_gadgets_refuse_a_name_they_would_give_twice():
    # Edge tokens join the endpoints with "-", so the edges {a, b-c} and
    # {a-b, c} both read "a-b-c" and would share one edge woman and one
    # role.  The independent-set gadgets name no edge, so they stay valid.
    graph = make_graph(["a", "b-c", "a-b", "c"], [("a", "b-c"), ("a-b", "c")])
    for goal_kind in ("ma", "epsm"):
        with pytest.raises(ValueError, match="^vertex names collide under the gadget naming scheme$"):
            clique_to_csm_addag(graph, 2, goal_kind)
    assert validate(is_to_csr_addag_ms(graph, 2).query.instance) == []
    assert validate(is_to_csr_addag_existssm(graph, 2).query.instance) == []
    # A vertex named like a selector would be the same agent as it.
    with pytest.raises(ValueError, match="collide"):
        is_to_csr_addag_existssm(make_graph(["s_1", "v"], []), 1)


def test_clique_reduction_k0_is_trivially_yes():
    result = clique_to_csm_addag(k_n(2), 0, "epsm")
    assert result.query.budget == 0
    out = solve_exact(result.query)
    assert out.verdict and out.optimum == 0


def test_clique_reduction_single_edge_two_clique():
    result = clique_to_csm_addag(k_n(2), 2)
    assert result.query.budget == 3
    out = solve_exact(result.query)
    assert out.verdict and out.optimum == 3


def test_clique_reduction_rejects_bad_k():
    with pytest.raises(ValueError):
        clique_to_csm_addag(k_n(2), 3)


def test_clique_reduction_name_map_covers_instance():
    result = clique_to_csm_addag(k_n(3), 2)
    assert set(result.name_map.values()) == set(result.query.instance.agents)


def test_clique_roundtrip_small_graphs():
    rng = random.Random(61)
    graphs = [k_n(1), k_n(2), k_n(3), random_graph(rng, 3, 0.4), random_graph(rng, 3, 0.8)]
    for g in graphs:
        for k in range(0, len(g.vertices) + 1):
            for goal_kind in ("ma", "epsm"):
                result = clique_to_csm_addag(g, k, goal_kind)
                assert validate(result.query.instance) == []
                out = solve_exact(result.query)
                assert out.verdict == brute_clique(g, k), (goal_kind, k, sorted(g.edges))


# -- independent set -> roommates agent-addition, matching goal ----------------


def test_is_ms_reduction_single_vertex():
    result = is_to_csr_addag_ms(make_graph(["v"], []), 1)
    q = result.query
    assert q.budget == 1
    assert len(q.instance.agents) == 6
    assert validate(q.instance) == []
    out = solve_exact(q)
    assert out.verdict and out.optimum == 1 and out.witness == {"a'_v"}


def test_is_ms_reduction_k2_on_edge():
    result = is_to_csr_addag_ms(k_n(2), 2)
    assert result.query.budget == 2
    assert not solve_exact(result.query).verdict


def test_is_ms_reduction_k1_on_edge():
    result = is_to_csr_addag_ms(k_n(2), 1)
    assert result.query.budget == 3
    out = solve_exact(result.query)
    assert out.verdict and out.optimum == 3


def test_is_ms_roundtrip_small_graphs():
    rng = random.Random(67)
    graphs = [k_n(1), k_n(2), random_graph(rng, 3, 0.5), random_graph(rng, 3, 0.9)]
    for g in graphs:
        for k in range(0, len(g.vertices) + 1):
            result = is_to_csr_addag_ms(g, k)
            assert validate(result.query.instance) == []
            out = solve_exact(result.query)
            assert out.verdict == brute_independent_set(g, k), (k, sorted(g.edges))


# -- independent set -> roommates agent-addition, existence goals --------------


def test_is_esm_reduction_single_edge():
    result = is_to_csr_addag_existssm(k_n(2), 1)
    q = result.query
    assert q.budget == 1
    assert q.instance.addable == {"v1", "v2"}
    out = solve_exact(q)
    assert out.verdict and out.witness == {"v1"}


def test_is_esm_reduction_k2_on_edge_fails():
    result = is_to_csr_addag_existssm(k_n(2), 2)
    assert result.query.budget == 2
    assert not solve_exact(result.query).verdict


def test_is_esm_reduction_two_isolated_vertices():
    g = make_graph(["v1", "v2"], [])
    result = is_to_csr_addag_existssm(g, 2)
    out = solve_exact(result.query)
    assert out.verdict and out.optimum == 2


def test_is_esm_yes_witness_gives_perfect_matching():
    from stablectl.classic import irving_stable_matching

    rng = random.Random(71)
    for g in [k_n(2), make_graph(["v1", "v2", "v3"], [("v1", "v2")]), random_graph(rng, 4, 0.5)]:
        for k in range(1, min(len(g.vertices), 3) + 1):
            for goal_kind in ("esm", "epsm"):
                result = is_to_csr_addag_existssm(g, k, goal_kind)
                assert validate(result.query.instance) == []
                out = solve_exact(result.query)
                assert out.verdict == brute_independent_set(g, k)
                if out.verdict:
                    controlled = apply_actions(result.query, out.witness)
                    matching = irving_stable_matching(controlled)
                    assert matching is not None and is_perfect(controlled, matching)


def test_reduction_all_queries_validate():
    from stablectl.control import validate_query

    g = k_n(3)
    queries = [
        clique_to_csm_addag(g, 2, "ma").query,
        clique_to_csm_addag(g, 2, "epsm").query,
        is_to_csr_addag_ms(g, 1).query,
        is_to_csr_addag_existssm(g, 1, "esm").query,
        is_to_csr_addag_existssm(g, 1, "epsm").query,
    ]
    for q in queries:
        assert validate_query(q) == []


# -- gadget digest --------------------------------------------------------------

# SHA-256 over every gadget that ``REDUCTION_TARGETS`` builds on the graphs
# below, for every k from 0 to |V|: the serialised instance, action, goal,
# budget and name map, or the error a build raises.  Any change to a
# gadget's agents, lists, pool, target or names changes the digest.
GADGET_DIGEST = "9bdd5ccea2a542e85317d308ddf3378116747177a9a79424094a3135bee88a25"


def _digest_graphs():
    for n in range(5):
        vs = [f"v{i}" for i in range(1, n + 1)]
        pairs = list(itertools.combinations(vs, 2))
        for mask in range(1 << len(pairs)):
            yield make_graph(vs, [p for i, p in enumerate(pairs) if mask >> i & 1])
    # Names that look like the gadgets' own: an edge token, a selector, a
    # copy.  No two edges share a token: the gadgets of such a graph depend
    # on set iteration order.
    pool = ["a", "b", "c", "b-c", "s_1", "s_2", "x", "x'", "v1"]
    rng = random.Random(113)
    for _ in range(12):
        vs = rng.sample(pool, rng.randint(5, 7))
        yield make_graph(vs, [p for p in itertools.combinations(vs, 2) if rng.random() < 0.5])


def _gadget_text(target, build, graph, k):
    head = f"{target} k={k}\n{serialize_graph(graph)}"
    try:
        result = build(graph, k)
    except ValueError as exc:
        return f"{head}error {exc}\n"
    query, goal = result.query, result.query.goal
    lines = [
        serialize_instance(query.instance),
        f"{query.action}-{goal.kind} budget={query.budget} agent={goal.agent}",
        "pair=" + (pair_text(goal.pair) if goal.pair is not None else "-"),
        serialize_matching(goal.matching) if goal.matching is not None else "matching=-",
        *(f"{role}={agent}" for role, agent in sorted(result.name_map.items())),
    ]
    return head + "\n".join(lines) + "\n"


def test_gadget_digest():
    from stablectl.cli import REDUCTION_TARGETS

    digest, count = hashlib.sha256(), 0
    for graph in _digest_graphs():
        for target, (_, build) in sorted(REDUCTION_TARGETS.items()):
            for k in range(len(graph.vertices) + 1):
                digest.update(_gadget_text(target, build, graph, k).encode())
                count += 1
    assert count == 2240
    assert digest.hexdigest() == GADGET_DIGEST
