"""The three benchmark workloads.

Each workload builds its inputs from the seed once (``__init__``), then
for every round builds fresh program objects and returns the round's
operations (``ops``); every round runs the same operations on the same
inputs.  ``check`` examines one round's results with the reference
checker, outside the timed region, and returns the problems it found;
``failed`` names the operations that failed in a known way.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import inputs
import reference as ref

ACTIONS = ("addag", "delag", "delacc")
GOALS = ("ma", "mp", "ms", "esm", "epsm")


@dataclass
class Op:
    """One timed operation; ``prep`` runs untimed and feeds ``call``."""

    key: str
    call: Callable[[Any], Any]
    prep: Callable[[], Any] | None = None


@dataclass
class Verdict:
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def make(m, market: dict):
    return m.model.make_instance(
        market["kind"], market["prefs"], side=market["side"] or None, addable=market["addable"]
    )


def market_of(inst) -> dict:
    """The reference view of a program instance's data."""
    return {
        "kind": inst.kind,
        "prefs": {u: list(lst) for u, lst in inst.prefs.items()},
        "side": dict(inst.side),
        "addable": set(inst.addable),
    }


def odd_party(successor: dict) -> bool:
    return any(len(c) % 2 == 1 and len(c) >= 3 for c in ref.cycles(successor))


def random_pair(rng: random.Random, market: dict, among=None) -> frozenset:
    prefs = market["prefs"]
    pool = sorted(among if among is not None else prefs)
    while True:
        u = rng.choice(pool)
        options = [v for v in prefs[u] if v in pool]
        if options:
            return frozenset((u, rng.choice(options)))


def certify_pair(m, market: dict, witness, target, v: Verdict, label: str) -> None:
    """After deleting ``witness``, some stable matching must contain ``target``.

    The candidate matching is built with the program's own pair-fixing
    construction; the reference checker alone decides whether it is a
    stable matching of the controlled market that contains the target.
    """
    controlled = ref.delete_agents(market["prefs"], witness)
    sub = dict(market, prefs=controlled, side={u: s for u, s in market["side"].items() if u in controlled})
    a, b = sorted(target)
    fixed = m.poly.fixing_deletions(make(m, sub), a, b).reduced
    _, matching = m.classic.partition_to_matching(fixed, m.classic.tan_stable_partition(fixed))
    v.expect(target in matching, f"{label}: certificate misses the target")
    v.expect(ref.is_stable_matching(controlled, matching), f"{label}: certificate is not stable")


def certify_agent(m, market: dict, witness, agent, v: Verdict, label: str) -> None:
    """After deleting ``witness``, some stable matching must cover ``agent``."""
    controlled = ref.delete_agents(market["prefs"], witness)
    sub = dict(market, prefs=controlled, side={u: s for u, s in market["side"].items() if u in controlled})
    matching = m.classic.irving_stable_matching(make(m, sub))
    v.expect(matching is not None, f"{label}: controlled market has no stable matching")
    if matching is not None:
        v.expect(any(agent in p for p in matching), f"{label}: agent left uncovered")
        v.expect(ref.is_stable_matching(controlled, matching), f"{label}: certificate is not stable")


def check_control(market: dict, action: str, goal: dict, outcomes: dict, v: Verdict, label: str,
                  universe_limit: int = 8) -> None:
    """Checks on one control query answered at several budgets.

    The optimum may not depend on the budget, verdicts are monotone in
    it, a yes witness has exactly ``optimum <= budget`` actions and meets
    the goal once applied, and a claim that no action set reaches the
    goal is re-checked by brute force when the universe is small.
    """
    optima = {o.optimum for o in outcomes.values()}
    v.expect(len(optima) == 1, f"{label}: optimum depends on the budget {sorted(map(str, optima))}")
    opt = next(iter(optima))
    last = False
    for budget in sorted(outcomes):
        o = outcomes[budget]
        v.expect(o.verdict == (opt is not None and opt <= budget), f"{label}@{budget}: verdict")
        v.expect(o.verdict or not last, f"{label}@{budget}: verdict not monotone in the budget")
        last = o.verdict
        if o.verdict:
            w = o.witness
            v.expect(w is not None and len(w) == opt, f"{label}@{budget}: witness size")
            if w is not None:
                controlled = ref.apply(market, action, w)
                v.expect(ref.goal_holds(controlled, action, goal, market["side"]),
                         f"{label}@{budget}: witness misses the goal")
    if opt is None:
        size = len(ref.universe(market, action))
        v.expect(size <= universe_limit, f"{label}: unreachable goal claimed on {size} candidates")
        if size <= universe_limit:
            v.expect(not any(ref.cheaper_set_exists(market, action, goal, s) for s in range(size + 1)),
                     f"{label}: goal reachable but reported unreachable")


def raw_goal(goal) -> dict:
    return {"kind": goal.kind, "agent": goal.agent, "pair": goal.pair, "matching": goal.matching}


def program_goal(m, goal: dict):
    G = m.control.ControlGoal
    kind = goal["kind"]
    if kind == "ma":
        return G.ma(goal["agent"])
    if kind == "mp":
        return G.mp(goal["pair"])
    if kind == "ms":
        return G.ms(frozenset(goal["matching"]))
    return G(kind=kind)


def desk_query(rng: random.Random, action: str, kind: str, sm: bool) -> dict:
    """A desk-scale control query whose goal does not hold before any action.

    Agent and acceptability deletion can always reach their goals here
    (targets have partners; ``epsm`` under acceptability deletion gets a
    market with a perfect matching), so the exact search stops at the
    optimum instead of exhausting every subset.  Every marriage market
    has a stable matching, so ``esm`` always gets a roommates market.
    """
    sm = sm and kind != "esm"
    while True:
        if action == "addag":
            market = inputs.random_sm(rng, 5, 5, 0.5) if sm else inputs.dense_sr(rng, 10, 0.4, "a")
            market["addable"] = set(rng.sample(sorted(market["prefs"]), rng.randint(4, 6)))
        elif action == "delag":
            market = inputs.random_sm(rng, 4, 4, 0.75) if sm else inputs.dense_sr(rng, 8, 0.6, "a")
        else:
            market = inputs.random_sm(rng, 4, 4, 0.65) if sm else inputs.dense_sr(rng, 8, 0.4, "a")
        prefs = market["prefs"]
        originals = sorted(set(prefs) - market["addable"])
        pairs = ref.acceptable_pairs(prefs)
        if action == "delacc" and not 7 <= len(pairs) <= 9:
            continue
        goal = {"kind": kind, "agent": None, "pair": None, "matching": None}
        if kind == "ma":
            live = [u for u in originals if prefs[u]]
            if not live:
                continue
            goal["agent"] = rng.choice(live)
        elif kind == "mp":
            if not any(p <= set(originals) for p in pairs):
                continue
            goal["pair"] = random_pair(rng, market, originals)
        elif kind == "ms":
            matching = inputs.random_matching(rng, market, 0.8 if action == "delacc" else 1.0)
            if action != "delacc":
                matching = inputs.with_fillers(rng, market, matching)
            goal["matching"] = frozenset(matching)
        elif kind == "epsm" and action == "delacc":
            if not any(len(s) * 2 == len(prefs) for s in _matchings(prefs)):
                continue
        if ref.goal_holds(ref.apply(market, action, ()), action, goal, market["side"]):
            continue
        return {"market": market, "action": action, "goal": goal}


def _matchings(prefs: dict):
    pairs = sorted(ref.acceptable_pairs(prefs), key=sorted)
    for size in range(len(prefs) // 2, -1, -1):
        for combo in combinations(pairs, size):
            if len(set().union(*combo)) == 2 * size:
                yield combo


# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def failed(self, res: dict) -> set:
        """Keys of operations that failed in a known way this round."""
        return set()


class PolyLarge(Workload):
    """A fixed batch of library calls on large in-memory markets."""

    name = "poly-large"
    SPARSE = ((1000, 2), (2000, 1), (4000, 1))  # (agents, markets), degree 25
    DEGREE = 25

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.sparse = [inputs.sparse_sr(rng, n, self.DEGREE) for n, k in self.SPARSE for _ in range(k)]
        self.orders = [rng.sample(sorted(mk["prefs"]), len(mk["prefs"])) for mk in self.sparse]
        # One delag-mp target on each 1000-agent market.
        self.mp = [(i, random_pair(rng, mk)) for i, mk in enumerate(self.sparse) if len(mk["prefs"]) == 1000]
        self.acc = [(i, inputs.random_matching(rng, mk, 0.9), rng.randint(0, 5000))
                    for i, mk in enumerate(self.sparse)]
        # A complete marriage market for deferred acceptance and the engine.
        self.sm = inputs.random_sm(rng, 300, 300, 1.0)
        # Many mid-size delag-mp calls, so that the median and the 90th
        # percentile of the per-call latencies fall among calls of one kind;
        # complete lists make their cost depend little on the market.
        self.dense = [inputs.dense_sr(rng, 60, 1.0) for _ in range(6)] + [inputs.dense_sr(rng, 120, 0.5)]
        self.dense_mp = [(i, random_pair(rng, self.dense[i])) for i in range(6) for _ in range(50)]
        self.dense_ma = [(6, rng.choice(sorted(self.dense[6]["prefs"])))]

    def ops(self, m) -> list:
        C, P = m.classic, m.poly
        insts = [make(m, mk) for mk in self.sparse]
        sm, dense = make(m, self.sm), [make(m, mk) for mk in self.dense]
        out = []
        for i, inst in enumerate(insts):
            out.append(Op(f"irving/{i}", lambda _, x=inst: C.irving_stable_matching(x)))
            out.append(Op(f"tan/{i}", lambda _, x=inst, o=self.orders[i]: C.tan_stable_partition(x, o)))
        for j, (i, pair) in enumerate(self.mp):
            out.append(Op(f"mp/{j}", lambda _, x=insts[i], p=pair: P.solve_delag_mp(x, p, len(x.agents))))
        for j, (i, matching, budget) in enumerate(self.acc):
            out.append(Op(f"acc/{j}", lambda _, x=insts[i], t=frozenset(matching), b=budget:
                          P.solve_delacc_ms(x, t, b)))
        for side in "ab":
            out.append(Op(f"gs/{side}", lambda _, s=side: C.gale_shapley(sm, s)))
        out.append(Op("sm-irving", lambda _: C.irving_stable_matching(sm)))
        for j, (i, pair) in enumerate(self.dense_mp):
            out.append(Op(f"dense-mp/{j}", lambda _, x=dense[i], p=pair: P.solve_delag_mp(x, p, 120)))
        for j, (i, agent) in enumerate(self.dense_ma):
            out.append(Op(f"dense-ma/{j}", lambda _, x=dense[i], a=agent: P.solve_delag_ma(x, a, 120)))
        return out

    def check(self, m, res: dict) -> Verdict:
        v = Verdict()
        for i, mk in enumerate(self.sparse):
            prefs = mk["prefs"]
            succ = res[f"tan/{i}"].successor
            v.expect(ref.partition_problems(prefs, succ) == [], f"tan/{i}: partition axioms fail")
            matching = res[f"irving/{i}"]
            if matching is None:
                v.expect(odd_party(succ), f"irving/{i}: None without an odd party")
            else:
                v.expect(ref.is_stable_matching(prefs, matching), f"irving/{i}: matching not stable")
                v.expect(not odd_party(succ), f"irving/{i}: matching despite an odd party")
        for j, (i, pair) in enumerate(self.mp):
            self._check_mp(m, self.sparse[i], pair, res[f"mp/{j}"], v, f"mp/{j}")
        for j, (i, matching, budget) in enumerate(self.acc):
            self._check_acc(self.sparse[i], matching, budget, res[f"acc/{j}"], v, f"acc/{j}")
        for side in "ab":
            v.expect(set(res[f"gs/{side}"]) == ref.deferred_acceptance(self.sm["prefs"], self.sm["side"], side),
                     f"gs/{side}: differs from reference deferred acceptance")
        v.expect(res["sm-irving"] is not None and ref.is_stable_matching(self.sm["prefs"], res["sm-irving"]),
                 "sm-irving: no stable matching")
        for j, (i, pair) in enumerate(self.dense_mp):
            self._check_mp(m, self.dense[i], pair, res[f"dense-mp/{j}"], v, f"dense-mp/{j}")
        for j, (i, agent) in enumerate(self.dense_ma):
            o = res[f"dense-ma/{j}"]
            v.expect(o.verdict and o.witness is not None and len(o.witness) == o.optimum,
                     f"dense-ma/{j}: full budget gave no witness")
            if o.verdict and o.witness is not None:
                certify_agent(m, self.dense[i], o.witness, agent, v, f"dense-ma/{j}")
        return v

    @staticmethod
    def _check_mp(m, market, pair, o, v, label):
        v.expect(o.verdict and o.witness is not None and len(o.witness) == o.optimum,
                 f"{label}: full budget gave no witness")
        if o.verdict and o.witness is not None:
            v.expect(not (o.witness & pair), f"{label}: witness deletes a target agent")
            certify_pair(m, market, o.witness, pair, v, label)

    @staticmethod
    def _check_acc(market, matching, budget, o, v, label):
        blockers = ref.blocking_pairs(market["prefs"], matching)
        v.expect(set(o.witness) == blockers, f"{label}: witness differs from the blocking pairs")
        v.expect(o.optimum == len(blockers) and o.verdict == (len(blockers) <= budget), f"{label}: verdict")


class ExactDesk(Workload):
    """``solve_exact`` on desk-scale queries, each asked at budgets 0-3."""

    name = "exact-desk"
    BASES = 40  # base queries per action/goal combination
    # (source problem, goal, 4-vertex graph, k).  These gadget queries are the
    # same for every seed: their search cost depends on the vertex labels
    # enough to swamp the seeded queries if the seed relabelled them.
    REDUCTIONS = (
        ("clique", "ma", ((0, 1), (1, 2), (0, 2), (2, 3)), 3),  # paw: yes
        ("clique", "epsm", ((0, 1), (1, 2), (2, 3), (3, 0)), 3),  # 4-cycle: no
        ("is-ms", "ms", ((0, 1), (1, 2), (2, 3)), 2),  # path: yes
        ("is-exist", "esm", ((0, 1), (0, 2), (0, 3)), 3),  # star: yes
        ("is-exist", "epsm", ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), 3),  # diamond: no
    )

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.queries = [desk_query(rng, a, g, sm=j % 2 == 1)
                        for a in ACTIONS for g in GOALS for j in range(self.BASES)]
        self.reductions = []
        vertices = ["v1", "v2", "v3", "v4"]
        for kind, goal, shape, k in self.REDUCTIONS:
            edges = [(vertices[a], vertices[b]) for a, b in shape]
            self.reductions.append((kind, goal, vertices, edges, k))
        self.sample = rng.sample(range(len(self.queries)), 10)

    def ops(self, m) -> list:
        Q, E = m.control.ControlQuery, m.exact
        out = []
        for i, q in enumerate(self.queries):
            inst, goal = make(m, q["market"]), program_goal(m, q["goal"])
            for b in range(4):
                query = Q(instance=inst, action=q["action"], goal=goal, budget=b)
                out.append(Op(f"q{i}/{b}", lambda _, x=query: E.solve_exact(x)))
        for i, reduction in enumerate(self.reductions):
            base = self._gadget(m, *reduction)
            for b in (base.budget, base.budget + 1):
                query = Q(instance=base.instance, action=base.action, goal=base.goal, budget=b)
                out.append(Op(f"r{i}/{b - base.budget}", lambda _, x=query: E.solve_exact(x)))
        return out

    @staticmethod
    def _gadget(m, kind, goal, vertices, edges, k):
        R = m.reductions
        graph = R.make_graph(vertices, edges)
        if kind == "clique":
            return R.clique_to_csm_addag(graph, k, goal).query
        if kind == "is-ms":
            return R.is_to_csr_addag_ms(graph, k).query
        return R.is_to_csr_addag_existssm(graph, k, goal).query

    def check(self, m, res: dict) -> Verdict:
        v = Verdict()
        for i, q in enumerate(self.queries):
            outcomes = {b: res[f"q{i}/{b}"] for b in range(4)}
            label = f"q{i} {q['action']}-{q['goal']['kind']}"
            check_control(q["market"], q["action"], q["goal"], outcomes, v, label)
            opt = outcomes[0].optimum
            if q["action"] == "delag" and q["goal"]["kind"] in ("mp", "ma"):
                inst = make(m, q["market"])
                if q["goal"]["kind"] == "mp":
                    fast = m.poly.solve_delag_mp(inst, q["goal"]["pair"], 3)
                else:
                    fast = m.poly.solve_delag_ma(inst, q["goal"]["agent"], 3)
                v.expect(fast.optimum == opt, f"{label}: poly optimum {fast.optimum} != exact {opt}")
            if i in self.sample and opt:
                v.expect(not ref.cheaper_set_exists(q["market"], q["action"], q["goal"], opt - 1),
                         f"{label}: an action set smaller than the optimum works")
        for i, (kind, goal, vertices, edges, k) in enumerate(self.reductions):
            query = self._gadget(m, kind, goal, vertices, edges, k)
            expected = (ref.has_clique if kind == "clique" else ref.has_independent_set)(vertices, edges, k)
            label = f"r{i} {kind}-{goal} k={k}"
            at, above = res[f"r{i}/0"], res[f"r{i}/1"]
            v.expect(at.verdict == expected, f"{label}: verdict {at.verdict} != reference {expected}")
            outcomes = {query.budget: at, query.budget + 1: above}
            check_control(market_of(query.instance), query.action, raw_goal(query.goal), outcomes, v, label)
        return v


# ---------------------------------------------------------------------------

MALFORMED = {
    # The parser drops the empty entry and accepts the file (exit 0).
    "bad-empty-entry.sr": "problem: sr\nagent a\nagent b\nagent c\npref a: b > > c\npref b: a\npref c: a\n",
    "bad-header.sr": "agent a\npref a:\n",
    "bad-line.sr": "problem: sr\nagent a\nwhat is this\npref a:\n",
    "bad-side.sr": "problem: sm\nagent a\npref a:\n",
}
KNOWN_FAULT = "validate bad-empty-entry.sr"


def run_cli(m, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue()


def parse_outcome(text: str) -> dict:
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    opt = fields["optimum"].strip()
    tokens = fields["actions"].split()
    return {
        "verdict": fields["verdict"].strip() == "yes",
        "optimum": None if opt == "unknown" else int(opt),
        "witness": frozenset(frozenset(t.split(",")) if "," in t else t for t in tokens),
    }


def parse_stable(text: str) -> tuple:
    """(matching or None, successor map or None) from ``stable`` output."""
    lines = text.splitlines()
    matching = None if lines[:1] == ["none"] else {
        frozenset(line.split()[1:]) for line in lines if line.startswith("match ")}
    parties = [line for line in lines if line.startswith("party (")]
    if not parties:
        return matching, None
    succ = {}
    for line in parties:
        members = line[len("party ("):line.index(")")].split()
        for i, u in enumerate(members):
            succ[u] = members[(i + 1) % len(members)]
    return matching, succ


class CliBatch(Workload):
    """In-process ``stablectl.cli.main`` over files written during set-up."""

    name = "cli-batch"
    # Sixteen sizes, so that the median and 90th-percentile commands are
    # market commands whose cost is set by the size ladder, not by the seed.
    SPARSE = tuple(range(200, 1000, 50))
    DEGREE = 10

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.dir = workdir
        self.markets = {}
        self.commands = []  # (key, argv, check kind, data)
        for i, n in enumerate(self.SPARSE):
            self.markets[f"s{i}.sr"] = inputs.sparse_sr(rng, n, self.DEGREE)
        for i in range(2):
            self.markets[f"sm{i}.sm"] = inputs.random_sm(rng, 150, 150, 0.2)
        desk = [desk_query(rng, a, g, sm=False) for a in ACTIONS for g in GOALS]
        for i, q in enumerate(desk):
            self.markets[f"x{i}.sr"] = q["market"]
        for name, market in self.markets.items():
            self._write(name, inputs.instance_text(market))
        for name, text in MALFORMED.items():
            self._write(name, text)

        big = [n for n in self.markets if not n.startswith("x")]
        for name in big:
            self._add(f"validate {name}", ["validate", self.path(name)], "ok", None)
        for name in MALFORMED:
            self._add(f"validate {name}", ["validate", self.path(name)], "exit2", None)
        for name in big:
            self._add(f"stable {name}", ["stable", self.path(name)], "stable", name)
            self._add(f"stable --partition {name}", ["stable", self.path(name), "--partition"], "stable", name)
        for i in range(len(self.SPARSE)):
            name = f"s{i}.sr"
            pair = random_pair(rng, self.markets[name])
            budget = rng.randint(0, 20)
            self._add(f"solve {name} delag-mp", ["solve", self.path(name), "--problem", "delag-mp",
                      "--target-pair", ",".join(sorted(pair)), "--budget", str(budget)],
                      "mp", (name, pair, budget))
        for name in ("s0.sr", "s1.sr"):
            agent = rng.choice([u for u, lst in self.markets[name]["prefs"].items() if lst])
            budget = rng.randint(0, 20)
            self._add(f"solve {name} delag-ma", ["solve", self.path(name), "--problem", "delag-ma",
                      "--target-agent", agent, "--budget", str(budget)], "ma", (name, agent, budget))
        for name in ("sm0.sm", "sm1.sm", "s2.sr", "s3.sr"):
            matching = inputs.random_matching(rng, self.markets[name], 0.9)
            target = f"{name}.matching"
            self._write(target, inputs.matching_text(matching))
            budget = rng.randint(0, 400)
            self._add(f"solve {name} delacc-ms", ["solve", self.path(name), "--problem", "delacc-ms",
                      "--target-matching", self.path(target), "--budget", str(budget)],
                      "acc", (name, matching, budget))
        for i, q in enumerate(desk):
            name, goal = f"x{i}.sr", q["goal"]
            argv = ["solve", self.path(name), "--problem", f"{q['action']}-{goal['kind']}",
                    "--budget", str(rng.randint(0, 3)), "--method", "exact"]
            if goal["agent"] is not None:
                argv += ["--target-agent", goal["agent"]]
            if goal["pair"] is not None:
                argv += ["--target-pair", ",".join(sorted(goal["pair"]))]
            if goal["matching"] is not None:
                self._write(f"{name}.matching", inputs.matching_text(goal["matching"]))
                argv += ["--target-matching", self.path(f"{name}.matching")]
            self._add(f"solve {name} exact", argv, "exact", q)
        targets = (("clique", "csm-addag-ma"), ("clique", "csm-addag-epsm"), ("is", "csr-addag-ms"),
                   ("is", "csr-addag-esm"), ("is", "csr-addag-epsm"))
        for i, (source, target) in enumerate(targets):
            vertices, edges = inputs.random_graph(rng, 4, 0.5)
            k = rng.randint(1, 4 if source == "clique" else 3)
            self._write(f"g{i}.g", inputs.graph_text(vertices, edges))
            gadget = self.path(f"gadget{i}.sr")
            self._add(f"reduce g{i}.g {target}", ["reduce", self.path(f"g{i}.g"), "--from", source,
                      "--to", target, "--k", str(k), "--out", gadget], "reduce", None)
            self._add(f"solve gadget{i}.sr", None, "gadget", (source, vertices, edges, k, gadget))
        for i in range(6):
            bip = i >= 4
            n = rng.randint(30, 200)
            args = ["--bipartite", "--na", str(n // 2), "--nb", str(n // 2)] if bip else ["--n", str(n)]
            density = round(rng.uniform(0.05, 0.3), 3)
            out = self.path(f"gen{i}.sr")
            self._add(f"gen {i}", ["gen", *args, "--density", str(density), "--seed", str(rng.randint(0, 10**6)),
                      "--out", out], "gen", (out, n // 2 * 2 if bip else n, "sm" if bip else "sr"))

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def _write(self, name: str, text: str) -> None:
        (self.dir / name).write_text(text, encoding="utf-8")

    def _add(self, key, argv, kind, data):
        self.commands.append((key, argv, kind, data))

    def ops(self, m) -> list:
        out = []
        for key, argv, kind, data in self.commands:
            if kind == "gadget":
                out.append(Op(key, lambda a: run_cli(m, a), prep=lambda d=data: self._gadget_argv(d[4])))
            else:
                out.append(Op(key, lambda _, a=argv: run_cli(m, a)))
        return out

    @staticmethod
    def _gadget_argv(gadget: str) -> list:
        fields = {}
        for line in Path(gadget + ".query").read_text(encoding="utf-8").splitlines():
            if not line.startswith("#") and ":" in line:
                key, _, value = line.partition(":")
                fields[key.strip()] = value.strip()
        argv = ["solve", gadget, "--problem", fields["problem"], "--budget", fields["budget"]]
        if "target-agent" in fields:
            argv += ["--target-agent", fields["target-agent"]]
        if "target-matching" in fields:
            argv += ["--target-matching", str(Path(gadget).with_name(fields["target-matching"]))]
        return argv

    def failed(self, res: dict) -> set:
        return {KNOWN_FAULT} if res[KNOWN_FAULT][0] != 2 else set()

    def check(self, m, res: dict) -> Verdict:
        v = Verdict()
        for key, argv, kind, data in self.commands:
            code, out = res[key]
            if key == KNOWN_FAULT:
                continue
            if kind == "exit2":
                v.expect(code == 2, f"{key}: exit {code}, expected 2")
                continue
            v.expect(code == 0, f"{key}: exit {code}")
            if code != 0:
                continue
            if kind == "ok":
                v.expect(out == "ok\n", f"{key}: printed {out[:40]!r}")
            elif kind == "stable":
                self._check_stable(key, data, out, res, v)
            elif kind in ("mp", "ma", "acc"):
                self._check_poly(m, key, kind, data, parse_outcome(out), v)
            elif kind == "exact":
                o = parse_outcome(out)
                budget = int(argv[argv.index("--budget") + 1])
                check_control(data["market"], data["action"], data["goal"], {budget: _Outcome(**o)}, v, key)
                if o["optimum"]:
                    v.expect(not ref.cheaper_set_exists(data["market"], data["action"], data["goal"],
                                                        o["optimum"] - 1),
                             f"{key}: an action set smaller than the optimum works")
            elif kind == "gadget":
                source, vertices, edges, k, _ = data
                expected = (ref.has_clique if source == "clique" else ref.has_independent_set)(vertices, edges, k)
                v.expect(parse_outcome(out)["verdict"] == expected, f"{key}: verdict differs from the graph")
            elif kind == "gen":
                path, n, kind_ = data
                market = ref.parse_market(Path(path).read_text(encoding="utf-8"))
                v.expect(market["kind"] == kind_ and len(market["prefs"]) == n, f"{key}: wrong market")
                v.expect(not ref.check_symmetric(market["prefs"], market["side"]), f"{key}: invalid market")
        return v

    def _check_stable(self, key, name, out, res, v):
        prefs = self.markets[name]["prefs"]
        matching, succ = parse_stable(out)
        if matching is not None:
            v.expect(ref.is_stable_matching(prefs, matching), f"{key}: matching not stable")
        if succ is None:
            other = parse_stable(res[f"stable --partition {name}"][1])
            v.expect(other[0] == matching, f"{key}: differs from the --partition run")
            return
        v.expect(ref.partition_problems(prefs, succ) == [], f"{key}: partition axioms fail")
        v.expect(odd_party(succ) == (matching is None), f"{key}: odd parties disagree with the verdict")

    def _check_poly(self, m, key, kind, data, o, v):
        name, target, budget = data
        market = self.markets[name]
        v.expect(o["verdict"] == (o["optimum"] is not None and o["optimum"] <= budget), f"{key}: verdict")
        if kind == "acc":
            blockers = ref.blocking_pairs(market["prefs"], target)
            v.expect(o["optimum"] == len(blockers), f"{key}: optimum differs from the blocking pairs")
            v.expect(o["witness"] == blockers, f"{key}: witness differs from the blocking pairs")
        elif o["verdict"]:
            v.expect(len(o["witness"]) == o["optimum"], f"{key}: witness size")
            if kind == "mp":
                certify_pair(m, market, o["witness"], target, v, key)
            else:
                certify_agent(m, market, o["witness"], target, v, key)


@dataclass(frozen=True)
class _Outcome:
    verdict: bool
    optimum: int | None
    witness: frozenset | None


WORKLOADS = {w.name: w for w in (PolyLarge, ExactDesk, CliBatch)}
