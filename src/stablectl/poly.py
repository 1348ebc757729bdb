"""Polynomial-time control solvers and the solver dispatch.

Three problems admit efficient algorithms and are solved here exactly;
:data:`POLY_SOLVERS` maps each, as (action, goal kind), to the call that
answers it, and :data:`POLY_PROBLEMS` is its key set:

* agent deletion with a pair goal (:func:`solve_delag_mp`),
* agent deletion with an agent goal (:func:`solve_delag_ma`), reduced to
  the pair case over every acceptable partner, and
* acceptability deletion with a matching goal (:func:`solve_delacc_ms`),
  where the blocking pairs of the target matching are exactly the edges
  that must go.

The pair solver reads its optimum, witness and matching off one stable
partition of the instance fixed for the target pair, built next to the
partition engine in :mod:`stablectl.classic`.  That partition stays the
engine's certified integer successor list: the diagnosis counts the
optimum and pairs up the matching on agent indices, and names only the
witness it hands out, so the agent solver names nothing for the
partners it tries and drops.  :func:`solve` answers any query, with
these solvers or with the search of :mod:`stablectl.exact`.

Every answer is certified; a failed check is a bug, never a verdict.  A
pair answer is computed on the cached integer core of the instance it was
asked on: fixing cuts its tails, and the engine runs from them and checks the
axioms of the partition it returns at the same tails, as every engine run
does, for positive and negative answers alike.  The agent solver does the
same for every partner on that core.  A positive answer is then certified
with none of the engine's code: the target pair is in the matching read
off, the witness names agents of the instance, and the matching is stable
once the witness is deleted.  An acceptability-deletion answer is
certified the same way: the target matching is stable once its blocking
pairs are deleted.  Both stability checks are one early-exit scan of the
instance the query was asked on (:func:`~stablectl.stability.is_stable`
with the deletions as arguments), through its cached rank map, the one
fact it shares with the engine, whose core mirrors that map.  So no
certified answer builds a controlled instance or a set of the pairs that
block its witness matching.  The acceptability witness is enumerated by
:func:`~stablectl.stability.blocking_pairs` and certified by that other
scan, so the two checks are derived separately.
"""

from __future__ import annotations

from .classic import (  # the pair-fixing names are re-exported from here
    FixingContext,
    PartitionDiagnosis,
    diagnose_fixed_instance,
    fixing_deletions,
    pair_fixing_cost,
    partner_fixings,
)
from .control import (
    DELETE_ACCEPTABILITY,
    DELETE_AGENTS,
    ControlOutcome,
    ControlQuery,
    validate_query,
)
from .errors import InternalError, InvalidQueryError
from .exact import DEFAULT_CANDIDATE_CAP, solve_exact
from .model import AgentId, Matching, Pair, RoommatesInstance, pair_text
from .stability import blocking_pairs, is_stable

def solve_delag_mp(inst: RoommatesInstance, target: Pair, budget: int) -> ControlOutcome:
    """Agent deletion until ``target`` lies in some stable matching."""
    a, b = sorted(target)
    ctx = fixing_deletions(inst, a, b)
    return _mp_outcome(inst, ctx, diagnose_fixed_instance(ctx), budget)


def _mp_outcome(
    inst: RoommatesInstance, ctx: FixingContext, diag: PartitionDiagnosis, budget: int
) -> ControlOutcome:
    """The pair goal's outcome, read off the diagnosis of the fixed market.

    A positive answer is certified on ``inst`` itself: the witness names
    agents of ``inst``, the target pair is in the witness matching, and
    that matching is stable in ``inst`` minus the witness, decided by
    :func:`is_stable` on ``inst``.  A failed check raises
    :class:`InternalError`.
    """
    optimum = diag.cost
    witness, matching = diag.witness()
    if len(witness) != optimum or witness & {ctx.a, ctx.b} or not witness <= inst.agents:
        raise InternalError("malformed deletion witness")
    if optimum > budget:
        return ControlOutcome(verdict=False, optimum=optimum, witness=None)
    if frozenset((ctx.a, ctx.b)) not in matching:
        raise InternalError("stable matching of the fixed instance misses the target")
    try:
        stable = is_stable(inst, matching, deleted_agents=witness)
    except ValueError as exc:  # not a matching of ``inst`` at all
        raise InternalError(f"witness matching is not a matching of the instance: {exc}") from exc
    if not stable:
        raise InternalError("witness matching is unstable in the controlled instance")
    return ControlOutcome(verdict=True, optimum=optimum, witness=witness)


def solve_delag_ma(inst: RoommatesInstance, target: AgentId, budget: int) -> ControlOutcome:
    """Agent deletion until ``target`` is covered by some stable matching.

    Tries every acceptable partner of ``target`` and keeps the cheapest;
    ties break on the smaller partner identifier.  With no acceptable
    partner the goal is unreachable and the optimum unknown.
    """
    if target not in inst.agents:
        raise ValueError(f"unknown agent {target!r}")
    inst.core  # a rejected market raises here, even where ``target`` has no partner
    best: tuple[FixingContext, PartitionDiagnosis] | None = None
    for ctx in partner_fixings(inst, target):
        diag = diagnose_fixed_instance(ctx)
        if best is None or diag.cost < best[1].cost:
            best = (ctx, diag)
    if best is None:
        return ControlOutcome(verdict=False, optimum=None, witness=None)
    return _mp_outcome(inst, *best, budget)


def solve_delacc_ms(inst: RoommatesInstance, matching: Matching, budget: int) -> ControlOutcome:
    """Acceptability deletion until ``matching`` is stable.

    The blocking pairs of ``matching`` must all be removed and removing
    them suffices, so they are both the witness and the optimum.  A
    nonzero optimum is certified by deciding that ``matching`` is stable
    once they are deleted.
    """
    blockers = blocking_pairs(inst, matching)
    optimum = len(blockers)
    if optimum and not is_stable(inst, matching, deleted_pairs=blockers):
        raise InternalError(
            f"removing {' '.join(sorted(map(pair_text, blockers)))} did not stabilise"
        )
    return ControlOutcome(verdict=optimum <= budget, optimum=optimum, witness=blockers)


# The call that answers each problem with a polynomial solver, keyed by
# (action, goal kind).  Each entry looks its solver up when it runs, so a
# solver rebound on this module is the one called.
POLY_SOLVERS = {
    (DELETE_AGENTS, "mp"): lambda q: solve_delag_mp(q.instance, q.goal.pair, q.budget),
    (DELETE_AGENTS, "ma"): lambda q: solve_delag_ma(q.instance, q.goal.agent, q.budget),
    (DELETE_ACCEPTABILITY, "ms"): lambda q: solve_delacc_ms(q.instance, q.goal.matching, q.budget),
}
POLY_PROBLEMS = frozenset(POLY_SOLVERS)


def solve(
    query: ControlQuery, method: str = "auto", cap: int = DEFAULT_CANDIDATE_CAP
) -> ControlOutcome:
    """Solve any control query.

    ``method`` is ``"poly"`` (only for :data:`POLY_PROBLEMS`), ``"exact"``
    (exhaustive search over at most ``cap`` candidate actions) or
    ``"auto"``, which picks ``"poly"`` wherever it applies.  Raises
    :class:`InvalidQueryError` for a malformed query or a ``"poly"``
    request on a problem without a polynomial solver.
    """
    solver = POLY_SOLVERS.get((query.action, query.goal.kind))
    if method == "auto":
        method = "exact" if solver is None else "poly"
    if method == "exact":
        return solve_exact(query, cap=cap)
    if method != "poly":
        raise ValueError(f"unknown method {method!r}")
    problems = validate_query(query)
    if problems:
        raise InvalidQueryError("; ".join(problems))
    if solver is None:
        raise InvalidQueryError(f"no polynomial solver for {query.action}-{query.goal.kind}")
    return solver(query)
