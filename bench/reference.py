"""Reference checker for the benchmark; imports nothing from stablectl.

A market here is a plain ``dict`` mapping each agent to its preference
list (most preferred first), optionally with a ``side`` map for marriage
markets.  A matching is a set of two-element frozensets.  Everything is
written from the definitions, by brute force where the market is small,
so that a check does not share a line of code or a theorem-specific
shortcut with the program it checks, except where a docstring names the
classical theorem that the check relies on.
"""

from __future__ import annotations

from itertools import combinations


def ranks(prefs: dict) -> dict:
    return {u: {v: i for i, v in enumerate(lst)} for u, lst in prefs.items()}


def acceptable_pairs(prefs: dict) -> set:
    return {frozenset((u, v)) for u, lst in prefs.items() for v in lst if u in prefs.get(v, ())}


def check_symmetric(prefs: dict, side: dict | None = None) -> list:
    """Problems with a market: unknown entries, asymmetry, self or same-side entries."""
    out = []
    for u, lst in prefs.items():
        if len(set(lst)) != len(lst):
            out.append(f"{u} has duplicate entries")
        for v in lst:
            if v == u or v not in prefs:
                out.append(f"{u} lists {v}")
            elif u not in prefs[v]:
                out.append(f"{u},{v} is asymmetric")
            elif side and side[u] == side[v]:
                out.append(f"{u},{v} is a same-side entry")
    return out


def partners(matching) -> dict:
    out = {}
    for p in matching:
        a, b = tuple(p)
        if a in out or b in out:
            raise ValueError(f"agent matched twice in {sorted(p)}")
        out[a], out[b] = b, a
    return out


def is_matching(prefs: dict, matching) -> bool:
    """Pairs are disjoint and mutually acceptable."""
    try:
        partners(matching)
    except ValueError:
        return False
    return all(len(p) == 2 and _acc(prefs, *p) for p in matching)


def _acc(prefs, u, v) -> bool:
    """Are ``u`` and ``v`` both in the market and on each other's lists?"""
    return u in prefs and v in prefs and v in prefs[u] and u in prefs[v]


def blocking_pairs(prefs: dict, matching, rk: dict | None = None) -> set:
    """Acceptable pairs outside ``matching`` whose members both prefer each other."""
    rk = rk or ranks(prefs)
    mate = partners(matching)
    out = set()
    for u, lst in prefs.items():
        ru = rk[u]
        for v in lst:
            if u < v and u in rk[v] and mate.get(u) != v:
                pu, pv = mate.get(u), mate.get(v)
                if (pu is None or ru[v] < ru[pu]) and (pv is None or rk[v][u] < rk[v][pv]):
                    out.add(frozenset((u, v)))
    return out


def is_stable_matching(prefs: dict, matching) -> bool:
    return is_matching(prefs, matching) and not blocking_pairs(prefs, matching)


def partition_problems(prefs: dict, successor: dict) -> list:
    """Violations of the stable-partition axioms (Tan 1991).

    ``successor`` is a permutation of the agents.  Each agent other than a
    fixed point finds its successor and predecessor acceptable, strictly
    prefers its successor to its predecessor in a cycle of length three or
    more, and no acceptable pair ``{u, v}`` has ``u`` preferring ``v`` to
    its predecessor while ``v`` prefers ``u`` to its own (a fixed point
    counts as a predecessor worse than everyone).
    """
    out = []
    if set(successor) != set(prefs) or set(successor.values()) != set(prefs):
        return ["successor map is not a permutation of the agents"]
    pred = {v: u for u, v in successor.items()}
    rk = ranks(prefs)
    for u, s in successor.items():
        if s != u and not _acc(prefs, u, s):
            out.append(f"{u} -> {s} is not acceptable")
    if out:
        return out
    for u, s in successor.items():
        p = pred[u]
        if s != p and rk[u][s] > rk[u][p]:
            out.append(f"{u} prefers its predecessor")

    def beats_pred(u, v):
        return pred[u] == u or rk[u][v] < rk[u][pred[u]]

    for q in acceptable_pairs(prefs):
        u, v = tuple(q)
        if successor[u] == v or successor[v] == u:
            continue
        if beats_pred(u, v) and beats_pred(v, u):
            out.append(f"{sorted(q)} blocks the partition")
    return out


def cycles(successor: dict) -> list:
    seen, out = set(), []
    for s in sorted(successor):
        if s in seen:
            continue
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = successor[x]
        out.append(cyc)
    return out


def deferred_acceptance(prefs: dict, side: dict, proposing: str) -> set:
    """Textbook proposer-side deferred acceptance."""
    rk = ranks(prefs)
    free = sorted((u for u in prefs if side[u] == proposing), reverse=True)
    nxt = dict.fromkeys(free, 0)
    held = {}
    while free:
        u = free.pop()
        lst = prefs[u]
        while nxt[u] < len(lst):
            v = lst[nxt[u]]
            nxt[u] += 1
            cur = held.get(v)
            if cur is None or rk[v][u] < rk[v][cur]:
                held[v] = u
                if cur is not None:
                    free.append(cur)
                break
    return {frozenset((u, v)) for v, u in held.items()}


def stable_matchings(prefs: dict) -> list:
    """Every stable matching, by brute force over all matchings."""
    agents = sorted(prefs)
    rk = ranks(prefs)
    nbrs = {u: [v for v in prefs[u] if u in prefs[v]] for u in agents}
    out = []
    mate: dict = {}

    def rec(i):
        while i < len(agents) and agents[i] in mate:
            i += 1
        if i == len(agents):
            m = {frozenset((u, v)) for u, v in mate.items() if u < v}
            if not blocking_pairs(prefs, m, rk):
                out.append(m)
            return
        u = agents[i]
        rec(i + 1)
        for v in nbrs[u]:
            if v not in mate and v > u:
                mate[u], mate[v] = v, u
                rec(i + 1)
                del mate[u], mate[v]

    rec(0)
    return out


# -- control actions and goals, written from the definitions -----------------


def delete_agents(prefs: dict, gone) -> dict:
    gone = set(gone)
    return {u: [v for v in lst if v not in gone] for u, lst in prefs.items() if u not in gone}


def delete_pairs(prefs: dict, pairs) -> dict:
    pairs = set(pairs)
    return {u: [v for v in lst if frozenset((u, v)) not in pairs] for u, lst in prefs.items()}


def apply(market: dict, action: str, chosen) -> dict:
    """The controlled preference lists after taking ``chosen``."""
    prefs = market["prefs"]
    if action == "addag":
        return delete_agents(prefs, set(market["addable"]) - set(chosen))
    if action == "delag":
        return delete_agents(prefs, chosen)
    return delete_pairs(prefs, chosen)


def universe(market: dict, action: str) -> list:
    """Every single action, target-protecting exclusions left out on purpose."""
    if action == "addag":
        return sorted(market["addable"])
    if action == "delag":
        return sorted(market["prefs"])
    return sorted(acceptable_pairs(market["prefs"]), key=sorted)


def goal_holds(prefs: dict, action: str, goal: dict, side: dict | None = None) -> bool:
    """Does the goal hold in the controlled market ``prefs``?

    Markets with at most 14 agents are decided by enumerating every
    stable matching.  Larger markets are decided only where a classical
    theorem gives a direct test: in a marriage market deferred
    acceptance finds a stable matching and every stable matching covers
    the same agents (Gale and Sotomayor 1985), which decides ``ma``,
    ``esm`` and ``epsm``; and an ``ms`` goal holds exactly when the
    target's surviving pairs are stable, since a surviving target pair
    left out would block.  Anything else raises.
    """
    kind = goal["kind"]
    if kind == "ms":
        target = goal["matching"]
        if action == "delacc":
            return all(_acc(prefs, *p) for p in target) and not blocking_pairs(prefs, target)
        surviving = {p for p in target if _acc(prefs, *p)}
        return not blocking_pairs(prefs, surviving)
    if kind == "ma" and goal["agent"] not in prefs:
        return False
    if kind == "mp" and not _acc(prefs, *goal["pair"]):
        return False
    if len(prefs) <= 14:
        stables = stable_matchings(prefs)
        covered = [set().union(*m) if m else set() for m in stables]
        if kind == "esm":
            return bool(stables)
        if kind == "epsm":
            return any(c == set(prefs) for c in covered)
        if kind == "ma":
            return any(goal["agent"] in c for c in covered)
        return any(goal["pair"] in m for m in stables)
    if side and kind in ("ma", "esm", "epsm"):
        covered = set().union(*deferred_acceptance(prefs, side, "a") or [set()])
        if kind == "esm":
            return True
        if kind == "epsm":
            return covered == set(prefs)
        return goal["agent"] in covered
    raise ValueError(f"no reference test for goal {kind} on {len(prefs)} agents")


def cheaper_set_exists(market: dict, action: str, goal: dict, size: int) -> bool:
    """Does any set of ``size`` single actions reach the goal?"""
    side = market.get("side")
    for combo in combinations(universe(market, action), size):
        if goal_holds(apply(market, action, combo), action, goal, side):
            return True
    return False


# -- graph oracles --------------------------------------------------------------


def has_clique(vertices, edges, k: int) -> bool:
    edges = {frozenset(e) for e in edges}
    return any(
        all(frozenset(p) in edges for p in combinations(c, 2))
        for c in combinations(sorted(vertices), k)
    )


def has_independent_set(vertices, edges, k: int) -> bool:
    edges = {frozenset(e) for e in edges}
    return any(
        not any(frozenset(p) in edges for p in combinations(c, 2))
        for c in combinations(sorted(vertices), k)
    )


# -- the instance text format, parsed from its documented grammar ------------


def parse_market(text: str) -> dict:
    """Parse an instance file into ``{"kind", "prefs", "side", "addable"}``."""
    kind, prefs, side, addable, declared = None, {}, {}, set(), []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            key, _, val = line.partition(":")
            if key != "problem" or val.strip() not in ("sr", "sm"):
                raise ValueError(f"bad header {line!r}")
            kind = val.strip()
        elif line.startswith("agent "):
            name, *attrs = line.split()[1:]
            declared.append(name)
            for a in attrs:
                if a == "addable":
                    addable.add(name)
                elif a in ("side=a", "side=b"):
                    side[name] = a[-1]
                else:
                    raise ValueError(f"bad attribute {a!r}")
        elif line.startswith("pref "):
            head, _, tail = line[5:].partition(":")
            entries = [e.strip() for e in tail.split(">")] if tail.strip() else []
            if any(not e for e in entries):
                raise ValueError(f"empty entry in {line!r}")
            prefs[head.strip()] = entries
        else:
            raise ValueError(f"bad line {line!r}")
    if kind is None or sorted(prefs) != sorted(declared):
        raise ValueError("missing header or pref lines")
    return {"kind": kind, "prefs": prefs, "side": side, "addable": addable}
