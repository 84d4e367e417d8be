"""Command-line front end: solve, verify, export-lp, gen-x3c."""

from __future__ import annotations

import argparse
import json
import sys

from . import milp, polycases, reduction, verify as verify_mod
from .model import (InstanceError, cost_to_json, load_instance, load_solution,
                    save_instance, save_solution, validate_instance)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3


def _load_validated(path, allow_multi_arcs=False):
    try:
        inst = load_instance(path)
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    report = validate_instance(inst, allow_multi_arcs=allow_multi_arcs)
    if not report.ok:
        for issue in report.errors:
            print(f"error: {issue.code}: {issue.message} ({issue.location})",
                  file=sys.stderr)
        return None
    return inst


def _solve_with_mode(inst, mode, limits):
    """Returns (status, solution or None, branch-and-bound result or None).
    Raises UnsupportedInstance for an explicit mode that does not fit the
    instance."""
    if mode in ("arborescence", "sp"):
        solver = (polycases.solve_arborescence if mode == "arborescence"
                  else polycases.solve_series_parallel)
        sol = solver(inst)
        return ("optimal", sol, None) if sol is not None else ("infeasible", None, None)
    if mode == "auto":
        for solver in (polycases.solve_arborescence, polycases.solve_series_parallel):
            try:
                sol = solver(inst)
            except polycases.UnsupportedInstance:
                continue
            return ("optimal", sol, None) if sol is not None else ("infeasible", None, None)
    from . import solver_bb

    system = milp.build(inst)
    result = solver_bb.solve(system, limits)
    if result.status == "optimal":
        return "optimal", solver_bb.extract_solution(inst, result), result
    return result.status, None, result


def cmd_solve(args):
    from . import solver_bb  # NumPy and HiGHS load only for a solve

    inst = _load_validated(args.instance)
    if inst is None:
        return EXIT_INPUT
    limits = solver_bb.SolveLimits(time_limit=args.time_limit,
                                   node_limit=args.node_limit)
    try:
        status, sol, result = _solve_with_mode(inst, args.mode, limits)
    except polycases.UnsupportedInstance as exc:
        print(f"error: mode {args.mode}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if status == "optimal":
        print(f"status: optimal")
        print(f"objective: {cost_to_json(sol.objective_value)}")
        print(f"expansion_cost_total: {cost_to_json(sol.expansion_cost_total)}")
        print(f"penalty_total: {cost_to_json(sol.penalty_total)}")
        if result is not None:
            print(f"nodes: {result.stats['nodes']}")
        if args.output:
            save_solution(sol, args.output)
        return EXIT_OK
    if status == "infeasible":
        print("status: infeasible")
        return EXIT_INFEASIBLE
    # what the search knows when it stops; a non-optimal result writes no file
    print("status: limit_reached")
    print(f"nodes: {result.stats['nodes']}")
    if result.bound is not None:
        print(f"bound: {cost_to_json(result.bound)}")
    if result.objective is not None:
        print(f"objective: {cost_to_json(result.objective)}")
    return EXIT_LIMIT


def cmd_verify(args):
    inst = _load_validated(args.instance)
    if inst is None:
        return EXIT_INPUT
    try:
        sol = load_solution(args.solution)
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    violations = verify_mod.verify(inst, sol)
    for v in violations:
        print(f"{v.family}\t{v.detail}")
    return EXIT_OK if not violations else EXIT_INPUT


def cmd_export_lp(args):
    inst = _load_validated(args.instance)
    if inst is None:
        return EXIT_INPUT
    text = milp.export_lp(milp.build(inst))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen_x3c(args):
    x3c = reduction.gen_random_x3c(args.q, args.subsets, args.seed, planted=args.planted)
    inst, threshold = reduction.x3c_to_instance(
        x3c, unit_capacity_encoding=args.unit_capacity)
    save_instance(inst, args.output)
    sidecar = {
        "ground_set": list(x3c.ground_set),
        "subsets": [sorted(s) for s in x3c.subsets],
        "threshold": cost_to_json(threshold),
    }
    if len(x3c.subsets) <= 20:
        sidecar["has_cover"] = reduction.x3c_brute_force(x3c)
    sidecar_path = args.output + ".x3c.json"
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output} and {sidecar_path}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="raildesign",
                                description="Exact railway network design under "
                                            "timetable constraints")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance file")
    sp.add_argument("instance")
    sp.add_argument("--mode", choices=["auto", "milp", "arborescence", "sp"],
                    default="auto")
    sp.add_argument("--time-limit", type=float, default=None)
    sp.add_argument("--node-limit", type=int, default=None)
    sp.add_argument("-o", "--output", default=None, help="solution file to write")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check a solution against an instance")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("export-lp", help="write the LP text model")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_export_lp)

    sp = sub.add_parser("gen-x3c", help="generate an exact-cover test instance")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--subsets", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--planted", action="store_true")
    sp.add_argument("--unit-capacity", action="store_true",
                    help="encode unit lines as capacity 1 instead of expandable")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_gen_x3c)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
