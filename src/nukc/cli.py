"""Command line front end: gen, solve, check.

Exit codes follow the verdict: 0 for a solution (or a successful gen/check
run, or --help), 2 for infeasible (or a failed check), 3 for undecided (the
iteration cap ran out), 1 for usage and input errors.  Timing belongs to the
benchmark harness in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict

from .generators import (
    graph_instance,
    planted_instance,
    planted_kcenter_instance,
    uniform_instance,
)
from .model import MetricError, SolveResult, verify_solution
from .outer import optimize, solve_feasibility
from .serialize import (
    dump_json,
    instance_from_json,
    instance_to_json,
    load_json,
    solution_from_json,
)
from .wellsep import SolverConfig

EXIT_SOLUTION = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNDECIDED = 3
EXIT_CODES = {"solution": EXIT_SOLUTION, "infeasible": EXIT_INFEASIBLE, "undecided": EXIT_UNDECIDED}


def _generate(kind: str, seed: int, args: argparse.Namespace):
    """Build (instance, truth-or-None) for a generator kind."""
    if kind == "planted":
        return planted_instance(
            seed,
            clusters=args.clusters,
            points_per_cluster=args.points_per_cluster,
            outliers=args.outliers,
            r1=args.r1,
            r2=args.r2,
        )
    if kind == "kcenter":
        return planted_kcenter_instance(
            seed,
            clusters=args.clusters,
            points_per_cluster=args.points_per_cluster,
            outliers=args.outliers,
            r1=args.r1,
        )
    if kind == "uniform":
        return (
            uniform_instance(seed, args.n, args.r1, args.r2, args.k1, args.k2, args.m),
            None,
        )
    if kind == "graph":
        return (
            graph_instance(seed, args.n, args.k1, args.k2, args.m),
            None,
        )
    raise ValueError(f"unknown generator kind {kind!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    instance, truth = _generate(args.kind, args.seed, args)
    data = instance_to_json(instance)
    if truth is not None:
        data["planted"] = asdict(truth)
    dump_json(data, args.out)
    return EXIT_SOLUTION


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.optimize and args.rho != 1.0:
        raise ValueError("--rho cannot be combined with --optimize, which searches the scale itself")
    instance = instance_from_json(load_json(args.instance))
    cfg = SolverConfig(max_iters=args.max_iters, shortcuts=not args.no_shortcuts)
    if args.optimize:
        opt = optimize(instance, cfg)
        if opt.solution is None:
            status = "undecided" if any(s == "undecided" for _, s in opt.probes) else "infeasible"
            dump_json(SolveResult(status).to_json(), args.out)
            return EXIT_CODES[status]
        result = SolveResult.verified(instance, opt.solution, "optimize")
        data = {**result.to_json(), "rho_star": opt.rho_star}
        if args.trace:
            for rho, status in opt.probes:
                print(f"trace: rho={rho:.6g} -> {status}", file=sys.stderr)
        dump_json(data, args.out)
        return EXIT_SOLUTION

    work = instance if args.rho == 1.0 else instance.scaled(args.rho)
    result = solve_feasibility(work, cfg)
    if args.trace:
        print(
            f"trace: method={result.method} case={result.case or '-'} "
            f"iterations={result.iterations} cuts={len(result.cuts)}",
            file=sys.stderr,
        )
        kinds = Counter(cut.kind for cut in result.cuts)
        counts = " ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
        print(f"trace: cuts by kind: {counts or '-'}", file=sys.stderr)
    data = result.to_json()
    if result.status == "solution" and args.rho != 1.0:
        # Report the dilation relative to the original radii.
        data["dilation"] = result.solution.dilation * args.rho
    dump_json(data, args.out)
    return EXIT_CODES[result.status]


def _cmd_check(args: argparse.Namespace) -> int:
    instance = instance_from_json(load_json(args.instance))
    record = solution_from_json(load_json(args.solution))
    if record.status != "solution":
        print(f"{record.status} claim: nothing to verify")
        return EXIT_SOLUTION
    ok, count = verify_solution(instance, record.solution, record.solution.dilation)
    if not ok:
        print(f"invalid: covers {count} < m={instance.m} or violates budgets")
        return EXIT_INFEASIBLE
    if record.covered_count != count:
        print(f"invalid: claimed covered_count={record.covered_count}, actual {count}")
        return EXIT_INFEASIBLE
    print(
        f"valid: covers {count} >= m={instance.m} at dilation "
        f"{record.solution.dilation:.6g}"
    )
    return EXIT_SOLUTION


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR: argparse's own 2 means INFEASIBLE here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nukc",
        description="Two-radius covering with outliers: generate, solve, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance as JSON")
    gen.add_argument("kind", choices=("planted", "kcenter", "uniform", "graph"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    gen.add_argument("--clusters", type=int, default=3)
    gen.add_argument("--points-per-cluster", type=int, default=5)
    gen.add_argument("--outliers", type=int, default=2)
    gen.add_argument("--n", type=int, default=30, help="points (uniform/graph)")
    gen.add_argument("--r1", type=float, default=1.0)
    gen.add_argument("--r2", type=float, default=0.4)
    gen.add_argument("--k1", type=int, default=2, help="budget (uniform/graph)")
    gen.add_argument("--k2", type=int, default=2, help="budget (uniform/graph)")
    gen.add_argument("--m", type=int, default=None, help="coverage target")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("--rho", type=float, default=1.0,
                       help="scale both radii before solving")
    solve.add_argument("--optimize", action="store_true",
                       help="binary search the smallest irrefutable scale")
    solve.add_argument("--trace", action="store_true",
                       help="print solver progress to stderr")
    solve.add_argument("--no-shortcuts", action="store_true",
                       help="skip the greedy screen: every nontrivial verdict "
                            "comes from the cutting-plane driver")
    solve.add_argument("-o", "--out", default=None)
    solve.add_argument("--max-iters", type=_positive_int, default=None,
                       help="cap on separation oracle calls")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="verify a solution file against an instance")
    check.add_argument("instance")
    check.add_argument("solution")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MetricError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
