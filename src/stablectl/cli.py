"""Command line front end.

Subcommands::

    stablectl validate <instance>
    stablectl stable <instance> [--enumerate] [--partition] [--cap N]
    stablectl solve <instance> --problem <action>-<goal> --budget L
              [--target-agent X | --target-pair X,Y | --target-matching FILE]
              [--method auto|poly|exact] [--cap N]
    stablectl reduce <graph> --from clique|is --to <problem> --k K --out PATH
    stablectl gen [--n N | --bipartite --na N --nb N] --density D --seed S
              [--out PATH]

Exit codes: 0 completed (including a ``no`` verdict), 2 parse error,
3 invalid input or query, 4 size cap exceeded, 1 internal error; an
unexpected exception propagates with its traceback, so a program fault is
never reported as invalid input.  Verdicts are reported on
stdout only, never through the exit code, so pipelines can tell "solved,
answer no" from failure.  The environment variable ``STABLECTL_CAP``
overrides the default enumeration and search caps; a ``--cap`` flag wins
over both.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import exact, generators, poly, reductions
from .classic import render_partition, tan_stable_partition
from .control import ACTIONS, GOAL_KINDS, GOAL_TARGETS, ControlGoal, ControlOutcome, ControlQuery
from .errors import (
    CapExceededError,
    InvalidInstanceError,
    InvalidQueryError,
    ParseError,
    StablectlError,
)
from .model import (
    pair_text,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)
from .stability import DEFAULT_ENUM_CAP, enumerate_stable_matchings

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAP = 4

REDUCTION_TARGETS = {
    "csm-addag-ma": ("clique", lambda g, k: reductions.clique_to_csm_addag(g, k, "ma")),
    "csm-addag-epsm": ("clique", lambda g, k: reductions.clique_to_csm_addag(g, k, "epsm")),
    "csr-addag-ms": ("is", reductions.is_to_csr_addag_ms),
    "csr-addag-esm": ("is", lambda g, k: reductions.is_to_csr_addag_existssm(g, k, "esm")),
    "csr-addag-epsm": ("is", lambda g, k: reductions.is_to_csr_addag_existssm(g, k, "epsm")),
}


def _env_cap(default: int) -> int:
    raw = os.environ.get("STABLECTL_CAP")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidQueryError(f"STABLECTL_CAP must be an integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InvalidQueryError(str(exc))


def cmd_validate(args) -> int:
    try:
        parse_instance(_read(args.instance))
    except InvalidInstanceError as exc:
        for v in exc.violations:
            print(v)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_stable(args) -> int:
    inst = parse_instance(_read(args.instance))
    cap = args.cap if args.cap is not None else _env_cap(DEFAULT_ENUM_CAP)
    partition = None
    if args.enumerate:
        matchings = enumerate_stable_matchings(inst, cap=cap)
        print(f"stable matchings: {len(matchings)}")
        for i, m in enumerate(matchings):
            print(f"matching {i}:")
            for line in serialize_matching(m).splitlines():
                print(f"  {line}")
    else:
        partition = tan_stable_partition(inst)
        matching = partition.stable_matching()
        if matching is None:
            print("none")
        else:
            print(serialize_matching(matching), end="")
    if args.partition:
        if partition is None:
            partition = tan_stable_partition(inst)
        print(render_partition(partition), end="")
    return EXIT_OK


def _build_goal(args, kind: str) -> ControlGoal:
    field = GOAL_TARGETS[kind]
    if field is None:
        return ControlGoal(kind=kind)
    target = getattr(args, f"target_{field}")
    if not target:
        raise InvalidQueryError(f"goal {kind} needs --target-{field}")
    if field == "pair":
        parts = target.split(",")
        if len(parts) != 2 or parts[0] == parts[1] or not all(parts):
            raise InvalidQueryError("--target-pair must be two distinct ids joined by ','")
        target = frozenset(parts)
    elif field == "matching":
        target = parse_matching(_read(target))
    return ControlGoal(kind=kind, **{field: target})


def _render_outcome(outcome: ControlOutcome) -> None:
    print(f"verdict: {'yes' if outcome.verdict else 'no'}")
    print(f"optimum: {outcome.optimum if outcome.optimum is not None else 'unknown'}")
    if outcome.witness:
        items = sorted(pair_text(w) if isinstance(w, frozenset) else w for w in outcome.witness)
        print(f"actions: {' '.join(items)}")
    else:
        print("actions:")


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    action, _, goal_kind = args.problem.partition("-")
    if action not in ACTIONS or goal_kind not in GOAL_KINDS:
        raise InvalidQueryError(f"unknown problem {args.problem!r}")
    query = ControlQuery(
        instance=inst, action=action, goal=_build_goal(args, goal_kind), budget=args.budget
    )
    cap = args.cap if args.cap is not None else _env_cap(exact.DEFAULT_CANDIDATE_CAP)
    _render_outcome(poly.solve(query, args.method, cap))
    return EXIT_OK


def cmd_reduce(args) -> int:
    graph = reductions.parse_graph(_read(args.graph))
    source, build = REDUCTION_TARGETS[args.to]
    if args.source != source:
        raise InvalidQueryError(f"--to {args.to} needs --from {source}")
    try:
        result = build(graph, args.k)
    except ValueError as exc:
        raise InvalidQueryError(str(exc))
    query = result.query
    out = Path(args.out)
    out.write_text(serialize_instance(query.instance), encoding="utf-8")
    sidecar_lines = [
        f"# reduced from {args.source} via {args.to}",
        *(f"# name {role} = {agent}" for role, agent in sorted(result.name_map.items())),
        f"problem: {query.action}-{query.goal.kind}",
        f"budget: {query.budget}",
    ]
    if query.goal.agent is not None:
        sidecar_lines.append(f"target-agent: {query.goal.agent}")
    if query.goal.matching is not None:
        matching_path = out.with_name(out.name + ".matching")
        matching_path.write_text(serialize_matching(query.goal.matching), encoding="utf-8")
        sidecar_lines.append(f"target-matching: {matching_path.name}")
    sidecar = out.with_name(out.name + ".query")
    sidecar.write_text("\n".join(sidecar_lines) + "\n", encoding="utf-8")
    print(f"instance: {out}")
    print(f"query: {sidecar}")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.bipartite:
            if args.na is None or args.nb is None:
                raise InvalidQueryError("--bipartite needs --na and --nb")
            inst = generators.random_sm(args.na, args.nb, args.density, args.seed)
        else:
            if args.n is None:
                raise InvalidQueryError("gen needs --n (or --bipartite with --na/--nb)")
            inst = generators.random_sr(args.n, args.density, args.seed)
    except ValueError as exc:  # a negative size or a density outside [0, 1]
        raise InvalidQueryError(str(exc))
    text = serialize_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="stablectl",
        description="Solve control problems on stable roommates and marriage markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stable", help="find or enumerate stable matchings")
    p.add_argument("instance")
    p.add_argument("--enumerate", action="store_true", help="list all stable matchings")
    p.add_argument("--partition", action="store_true", help="print the stable partition")
    p.add_argument("--cap", type=int, default=None, help="enumeration size cap")
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("solve", help="solve a control query")
    p.add_argument("instance")
    p.add_argument(
        "--problem",
        required=True,
        help=f"one of {{{','.join(ACTIONS)}}}-{{{','.join(GOAL_KINDS)}}}",
    )
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--target-agent")
    p.add_argument("--target-pair", help="two agent ids joined by ','")
    p.add_argument("--target-matching", help="path to a matching file")
    p.add_argument("--method", choices=("auto", "poly", "exact"), default="auto")
    p.add_argument("--cap", type=int, default=None, help="exact-search candidate cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="turn a graph problem into a control query")
    p.add_argument("graph")
    p.add_argument("--from", dest="source", choices=("clique", "is"), required=True)
    p.add_argument("--to", choices=sorted(REDUCTION_TARGETS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="instance output path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--na", type=int, default=None)
    p.add_argument("--nb", type=int, default=None)
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidInstanceError, InvalidQueryError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except StablectlError as exc:  # internal errors and anything unforeseen
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
