"""Per-layer tracing from outside the program.

Wrappers are installed around the public functions of each stablectl
module.  The modules bind one another's functions with ``from .x import
y``, so a wrapper replaces the original on every module namespace (and
every module-level table) that holds it, and ``acceptable_pairs`` is
replaced on the instance class as a new cached property.  A span's self
time is its duration minus the time covered by its child spans; spans
are folded into totals as they close, so memory stays flat.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

# (module, function, span group); group None counts calls without a span.
TARGETS = [
    ("model", "parse_instance", "model.parse"),
    ("model", "parse_matching", "model.parse"),
    ("model", "validate", "model.validate"),
    ("model", "serialize_instance", "model.serialize"),
    ("model", "serialize_matching", "model.serialize"),
    ("model", "delete_agents", "model.derive"),
    ("model", "delete_pairs", "model.derive"),
    ("model", "induce_with_added", "model.derive"),
    ("stability", "blocking_pairs", "stability.blocking_pairs"),
    ("stability", "enumerate_stable_matchings", "stability.enumerate"),
    ("classic", "tan_stable_partition", "classic.partition"),
    ("classic", "gale_shapley", "classic.gale_shapley"),
    ("classic", "irving_stable_matching", "classic.matching"),
    ("classic", "partition_to_matching", "classic.matching"),
    ("classic", "validate_partition", "classic.matching"),
    ("control", "goal_holds", "control.goal"),
    ("control", "apply_actions", "control.apply"),
    ("control", "validate_query", "control.validate"),
    ("control", "action_universe", None),
    ("poly", "solve_delag_mp", "poly.solve"),
    ("poly", "solve_delag_ma", "poly.solve"),
    ("poly", "solve_delacc_ms", "poly.solve"),
    ("poly", "pair_fixing_cost", "poly.other"),
    ("poly", "fixing_deletions", "poly.other"),
    ("poly", "diagnose_fixed_instance", "poly.other"),
    ("exact", "solve_exact", "exact.solve"),
    ("reductions", "clique_to_csm_addag", "reductions.build"),
    ("reductions", "is_to_csr_addag_ms", "reductions.build"),
    ("reductions", "is_to_csr_addag_existssm", "reductions.build"),
    ("reductions", "parse_graph", "reductions.build"),
    ("reductions", "serialize_graph", "reductions.build"),
    ("cli", "main", "cli.main"),
]

# Agent counts of the sparse size ladder that the growth exponent is fitted on.
LADDER = (1000, 2000, 4000)


class Tracer:
    def __init__(self):
        self.on = False
        self.stack: list = []  # open spans: [group, child seconds]
        self.open = Counter()  # open spans per function name
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.partition_sizes: list = []  # (agents, pairs, self seconds) per partition
        self.poly_partitions = 0
        self.poly_solves = 0
        self.subsets = 0
        self.triples: set = set()

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, fn, name, group):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.on:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        def spanned(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer._enter(name, args)
            frame = [group, 0.0]
            tracer.stack.append(frame)
            tracer.open[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                tracer.open[name] -= 1
                tracer.stack.pop()
                own = took - frame[1]
                tracer.self_s[group] += own
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += took
                if name == "tan_stable_partition":
                    inst = args[0]
                    pairs = sum(map(len, inst.prefs.values())) // 2
                    tracer.partition_sizes.append((len(inst.agents), pairs, own))

        return spanned if group else counted

    def _enter(self, name, args):
        """Counts that need the caller's context, taken before the span opens."""
        in_poly = sum(self.open[n] for n in ("solve_delag_mp", "solve_delag_ma", "solve_delacc_ms"))
        if name == "tan_stable_partition" and in_poly:
            self.poly_partitions += 1
        elif name.startswith("solve_del") and not in_poly:
            self.poly_solves += 1
        elif name == "apply_actions" and self.open["solve_exact"]:
            self.subsets += 1
        elif name == "solve_exact":
            q = args[0]
            inst = q.instance
            self.triples.add(
                (
                    inst.kind,
                    tuple(sorted(inst.prefs.items())),
                    tuple(sorted(inst.side.items())),
                    tuple(sorted(inst.addable)),
                    q.action,
                    repr(_canon(q.goal)),
                )
            )

    # -- installation -------------------------------------------------------

    def install(self, mods) -> None:
        """Replace every binding of each target on the loaded stablectl modules."""
        loaded = [m for n, m in sys.modules.items() if n == "stablectl" or n.startswith("stablectl.")]
        for mod_name, fn_name, group in TARGETS:
            original = getattr(getattr(mods, mod_name), fn_name)
            wrapped = self._wrap(original, fn_name, group)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if isinstance(v, tuple) and original in v:
                                value[k] = tuple(wrapped if x is original else x for x in v)
        cls = mods.model.RoommatesInstance
        prop = cls.__dict__["acceptable_pairs"]
        replacement = cached_property(
            self._wrap(prop.func, "acceptable_pairs", "model.acceptable_pairs")
        )
        replacement.__set_name__(cls, "acceptable_pairs")
        setattr(cls, "acceptable_pairs", replacement)

    # -- metrics --------------------------------------------------------------

    def metrics(self, rounds: int, overhead: float) -> dict:
        """Per-layer metrics, per traced round."""
        s, c = self.self_s, self.calls
        per = 1.0 / rounds
        part_pairs = sum(p for _, p, _ in self.partition_sizes)
        solves = c["solve_exact"]
        out = {
            "classic.partition_s": (s["classic.partition"] * per, "s"),
            "classic.partition_calls": (c["tan_stable_partition"] * per, "count"),
            "classic.partition_ns_per_pair": (
                1e9 * s["classic.partition"] / part_pairs if part_pairs else 0.0,
                "ns/pair",
            ),
            "classic.partition_growth_exp": (self.growth_exponent(), "exponent"),
            "classic.gale_shapley_s": (s["classic.gale_shapley"] * per, "s"),
            "classic.matching_s": (s["classic.matching"] * per, "s"),
            "poly.self_s": ((s["poly.solve"] + s["poly.other"]) * per, "s"),
            "poly.solve_calls": (self.poly_solves * per, "count"),
            "poly.partitions_per_solve": (
                self.poly_partitions / self.poly_solves if self.poly_solves else 0.0,
                "count/solve",
            ),
            "exact.self_s": (s["exact.solve"] * per, "s"),
            "exact.solves": (solves * per, "count"),
            "exact.subsets": (self.subsets * per, "count"),
            "exact.distinct_ratio": (
                len(self.triples) / (solves * per) if solves else 0.0,
                "ratio",
            ),
            "control.goal_s": (s["control.goal"] * per, "s"),
            "control.goal_calls": (c["goal_holds"] * per, "count"),
            "control.apply_s": (s["control.apply"] * per, "s"),
            "control.universe_calls": (c["action_universe"] * per, "count"),
            "model.derive_s": (s["model.derive"] * per, "s"),
            "model.derive_calls": (
                (c["delete_agents"] + c["delete_pairs"] + c["induce_with_added"]) * per,
                "count",
            ),
            "model.acceptable_pairs_s": (s["model.acceptable_pairs"] * per, "s"),
            "model.acceptable_pairs_builds": (c["acceptable_pairs"] * per, "count"),
            "model.parse_s": ((s["model.parse"] + s["model.validate"]) * per, "s"),
            "model.parse_calls": ((c["parse_instance"] + c["parse_matching"]) * per, "count"),
            "model.serialize_s": (s["model.serialize"] * per, "s"),
            "stability.blocking_pairs_s": (s["stability.blocking_pairs"] * per, "s"),
            "stability.blocking_pairs_calls": (c["blocking_pairs"] * per, "count"),
            "stability.enumerate_s": (s["stability.enumerate"] * per, "s"),
            "reductions.build_s": (s["reductions.build"] * per, "s"),
            "cli.self_s": (s["cli.main"] * per, "s"),
            "cli.commands": (c["main"] * per, "count"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
        return {k: {"value": round(v, 9), "unit": u} for k, (v, u) in out.items()}

    def ladder(self) -> list:
        """(agents, partitions, mean pairs, mean seconds) for each ladder size in the run.

        Only partitions of whole ladder markets count: their agent count is
        on the ladder.
        """
        by_size = defaultdict(list)
        for agents, pairs, own in self.partition_sizes:
            if agents in LADDER:
                by_size[agents].append((pairs, own))
        return [
            (n, len(rows), sum(p for p, _ in rows) / len(rows), sum(t for _, t in rows) / len(rows))
            for n, rows in sorted(by_size.items())
        ]

    def growth_exponent(self) -> float:
        """Least-squares slope of log(partition time) on log(pairs) over the size ladder.

        0.0 when a run has fewer than two ladder sizes.
        """
        rows = self.ladder()
        if len(rows) < 2:
            return 0.0
        xs = [math.log(pairs) for _, _, pairs, _ in rows]
        ys = [math.log(secs) for _, _, _, secs in rows]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _canon(goal):
    target = goal.matching
    return (
        goal.kind,
        goal.agent,
        tuple(sorted(goal.pair)) if goal.pair else None,
        tuple(sorted(tuple(sorted(p)) for p in target)) if target is not None else None,
    )
