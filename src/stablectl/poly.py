"""Polynomial-time control solvers and the solver dispatch.

Three problems admit efficient algorithms and are solved here exactly
(:data:`POLY_PROBLEMS`):

* agent deletion with a pair goal (:func:`solve_delag_mp`),
* agent deletion with an agent goal (:func:`solve_delag_ma`), reduced to
  the pair case over every acceptable partner, and
* acceptability deletion with a matching goal (:func:`solve_delacc_ms`),
  where the blocking pairs of the target matching are exactly the edges
  that must go.

The pair solver reads its optimum, witness and matching off one stable
partition of the instance fixed for the target pair, built next to the
partition engine in :mod:`stablectl.classic`.  :func:`solve` answers any
query, with these solvers or with the search of :mod:`stablectl.exact`.

Every answer is certified; a failed check is a bug, never a verdict.  A
pair answer is computed on one integer table of the instance it was asked
on: fixing cuts its tails, and the engine runs from them and checks the
axioms of the partition it returns at the same tails, as every engine run
does, for positive and negative answers alike.  The agent solver does the
same for every partner on one table.  A positive answer is then certified
on real instances, with nothing shared with the engine: the target pair
is in the matching read off, and that matching is stable once the witness
is deleted.
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
from .model import (
    AgentId,
    Matching,
    Pair,
    RoommatesInstance,
    delete_agents,
    delete_pairs,
    pair_text,
)
from .stability import blocking_pairs, is_stable

# (action, goal kind) of each problem with a polynomial solver below.
POLY_PROBLEMS = frozenset(
    {(DELETE_AGENTS, "mp"), (DELETE_AGENTS, "ma"), (DELETE_ACCEPTABILITY, "ms")}
)


def solve_delag_mp(inst: RoommatesInstance, target: Pair, budget: int) -> ControlOutcome:
    """Agent deletion until ``target`` lies in some stable matching."""
    a, b = sorted(target)
    ctx = fixing_deletions(inst, a, b)
    return _mp_outcome(inst, ctx, diagnose_fixed_instance(ctx), budget)


def _mp_outcome(
    inst: RoommatesInstance, ctx: FixingContext, diag: PartitionDiagnosis, budget: int
) -> ControlOutcome:
    """The pair goal's outcome, certified on the diagnosed fixed instance."""
    optimum = diag.cost
    witness, matching = diag.witness()
    if len(witness) != optimum or witness & {ctx.a, ctx.b}:
        raise InternalError("malformed deletion witness")
    if optimum > budget:
        return ControlOutcome(verdict=False, optimum=optimum, witness=None)
    if frozenset((ctx.a, ctx.b)) not in matching:
        raise InternalError("stable matching of the fixed instance misses the target")
    if not is_stable(delete_agents(inst, witness), matching):
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
    them suffices, so they are both the witness and the optimum.
    """
    blockers = blocking_pairs(inst, matching)
    optimum = len(blockers)
    if optimum:
        stabilised = delete_pairs(inst, blockers)
        if not is_stable(stabilised, matching):
            raise InternalError(
                f"removing {' '.join(sorted(map(pair_text, blockers)))} did not stabilise"
            )
    return ControlOutcome(verdict=optimum <= budget, optimum=optimum, witness=blockers)


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
    is_poly = (query.action, query.goal.kind) in POLY_PROBLEMS
    if method == "auto":
        method = "poly" if is_poly else "exact"
    if method == "exact":
        return solve_exact(query, cap=cap)
    if method != "poly":
        raise ValueError(f"unknown method {method!r}")
    problems = validate_query(query)
    if problems:
        raise InvalidQueryError("; ".join(problems))
    if not is_poly:
        raise InvalidQueryError(f"no polynomial solver for {query.action}-{query.goal.kind}")
    inst, goal, budget = query.instance, query.goal, query.budget
    if goal.kind == "mp":
        return solve_delag_mp(inst, goal.pair, budget)
    if goal.kind == "ma":
        return solve_delag_ma(inst, goal.agent, budget)
    return solve_delacc_ms(inst, goal.matching, budget)
