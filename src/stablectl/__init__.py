"""Control problems for stable marriage and stable roommates markets.

Library layout:

* :mod:`stablectl.model`: instances, matchings, file formats, mutation.
* :mod:`stablectl.stability`: blocking pairs and exhaustive enumeration.
* :mod:`stablectl.classic`: deferred acceptance, stable partitions,
  stable-matching existence, and pair fixing (the fewest agent deletions
  that put a pair into a stable matching).
* :mod:`stablectl.control`: control queries (action, goal, budget) and
  goal evaluation.
* :mod:`stablectl.poly`: the polynomial-time control solvers and
  :func:`solve`, which answers any control query with them or, where
  none applies, with the exhaustive search.
* :mod:`stablectl.exact`: the brute-force ground-truth solver.
* :mod:`stablectl.reductions`: graph-to-control-instance constructions
  with brute-force clique/independent-set oracles.
* :mod:`stablectl.generators`: seeded random instances and queries.
* :mod:`stablectl.cli`: the ``stablectl`` command line front end.
"""

from .classic import (
    StablePartition,
    gale_shapley,
    irving_stable_matching,
    partition_to_matching,
    render_partition,
    tan_stable_partition,
    validate_partition,
)
from .errors import (
    CapExceededError,
    InternalError,
    InvalidInstanceError,
    InvalidQueryError,
    ParseError,
    StablectlError,
)
from .model import (
    RoommatesInstance,
    delete_agents,
    delete_pairs,
    induce_with_added,
    make_instance,
    make_sm,
    make_sr,
    pair,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
    validate,
)
from .poly import solve
from .stability import (
    blocking_pairs,
    covered_agents,
    enumerate_matchings,
    enumerate_stable_matchings,
    is_perfect,
    is_stable,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "InternalError",
    "InvalidInstanceError",
    "InvalidQueryError",
    "ParseError",
    "RoommatesInstance",
    "StablePartition",
    "StablectlError",
    "blocking_pairs",
    "covered_agents",
    "delete_agents",
    "delete_pairs",
    "enumerate_matchings",
    "enumerate_stable_matchings",
    "gale_shapley",
    "induce_with_added",
    "irving_stable_matching",
    "is_perfect",
    "is_stable",
    "make_instance",
    "make_sm",
    "make_sr",
    "pair",
    "parse_instance",
    "parse_matching",
    "partition_to_matching",
    "render_partition",
    "serialize_instance",
    "serialize_matching",
    "solve",
    "tan_stable_partition",
    "validate",
    "validate_partition",
]
