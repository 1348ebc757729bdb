"""The benchmark's checker accepts the package's answers, and only those.

``bench/workloads.py`` certifies each answer with the package's own
objects: ``certify_pair`` rebuilds the fixed market through
``poly.fixing_deletions(...).reduced`` and pairs up
``classic.tan_stable_partition`` with ``classic.partition_to_matching``,
``certify_agent`` reads ``classic.irving_stable_matching``, and
``check_control`` checks a query answered at several budgets against the
reference.  These tests import those checks unchanged, with ``bench/`` on
``sys.path``, and run them on small seeded markets, so that a change to
the objects they read fails here rather than in a benchmark run.
"""

from __future__ import annotations

import importlib
import random
from types import SimpleNamespace

import pytest

from helpers import bench_module
from stablectl import poly
from stablectl.control import ControlOutcome, ControlQuery

LAYERS = ("model", "stability", "classic", "control", "poly", "exact", "reductions", "cli")


@pytest.fixture(scope="module")
def bench():
    """``bench/workloads.py`` as a module, imported without writing under ``bench/``."""
    return bench_module("workloads")


@pytest.fixture(scope="module")
def m():
    """The package as the benchmark passes it to its checks."""
    return SimpleNamespace(**{n: importlib.import_module(f"stablectl.{n}") for n in LAYERS})


def dense_markets(bench, count, seed):
    rng = random.Random(seed)
    return rng, [bench.inputs.dense_sr(rng, rng.randint(8, 24), rng.choice((0.3, 0.6, 1.0)))
                 for _ in range(count)]


def test_certify_pair_accepts_every_delag_mp_witness(bench, m):
    rng, markets = dense_markets(bench, 12, 1)
    certified = refuted = 0
    for i, market in enumerate(markets):
        inst = bench.make(m, market)
        for j in range(4):
            target = bench.random_pair(rng, market)
            out = poly.solve_delag_mp(inst, target, len(inst.agents))
            v = bench.Verdict()
            bench.certify_pair(m, market, out.witness, target, v, f"{i}/{j}")
            assert out.verdict and v.problems == []
            certified += 1
            if out.optimum:
                # Deleting nothing leaves the target in no stable matching.
                bench.certify_pair(m, market, frozenset(), target, v, f"{i}/{j} empty")
                assert v.problems
                refuted += 1
    assert certified == 48 and refuted >= 10


def test_certify_agent_accepts_every_delag_ma_witness(bench, m):
    rng, markets = dense_markets(bench, 10, 2)
    refuted = 0
    for i, market in enumerate(markets):
        inst = bench.make(m, market)
        agent = rng.choice(sorted(u for u, lst in market["prefs"].items() if lst))
        out = poly.solve_delag_ma(inst, agent, len(inst.agents))
        v = bench.Verdict()
        bench.certify_agent(m, market, out.witness, agent, v, str(i))
        assert out.verdict and v.problems == []
        if out.optimum:
            bench.certify_agent(m, market, frozenset(), agent, v, f"{i} empty")
            assert v.problems
            refuted += 1
    assert refuted >= 2


def test_check_control_accepts_solve_on_desk_queries(bench, m):
    rng = random.Random(3)
    solved = 0
    for action in bench.ACTIONS:
        for kind in bench.GOALS:
            for j in range(2):
                q = bench.desk_query(rng, action, kind, sm=j == 1)
                inst, goal = bench.make(m, q["market"]), bench.program_goal(m, q["goal"])
                outcomes = {b: poly.solve(ControlQuery(inst, action, goal, b)) for b in range(4)}
                v = bench.Verdict()
                label = f"{action}-{kind}/{j}"
                bench.check_control(q["market"], action, q["goal"], outcomes, v, label)
                assert v.problems == [], label
                opt = outcomes[0].optimum
                if opt:
                    # An optimum one too high is caught at the budget that reaches the true one.
                    wrong = dict(outcomes)
                    wrong[opt] = ControlOutcome(verdict=False, optimum=opt + 1, witness=None)
                    bench.check_control(q["market"], action, q["goal"], wrong, v, label)
                    assert v.problems, label
                solved += 1
    assert solved == 30
