#!/usr/bin/env python3
"""End-to-end benchmark: instance file -> verified optimal design.

Each operation takes one generated instance file along the path that
``raildesign solve`` follows in its default ``auto`` mode: load and
validate, the special-case solvers in ``polycases``, ``milp.build``,
``solver_bb.solve`` and ``extract_solution``, then ``verify.verify`` on the
decoded solution.  After the timed rounds every distinct instance is checked
against an oracle that does not use the program's solver (see
``oracles.py``).  An operation fails when it raises, reaches the solver's
time limit, reports the wrong status or objective, or yields a solution with
a violation; any failure makes the command exit 1.  Times are CPU seconds
scaled to a reference speed (see ``refspeed.py``), and each instance counts
with its fastest time over the run's rounds.

Usage, from the repository root:

  python3 railbench/run.py --workload x3c --seed 1 --seconds 35 --trace 0
  python3 railbench/run.py --workload all --seed 1 --seconds 35 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends the
first half of the run untraced and the second half traced, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("x3c", "corridor", "scenarios")
SETUP_REPEATS = 5
SETUP_REF_SAMPLES = 10  # before and after the set-up work, each
MIN_ROUNDS = 2  # per run, and per half of a traced run; the first also warms up
# Operations are timed in the process's CPU time.  The path is single
# threaded (BLAS pinned to one thread, HiGHS serial), so this is its wall
# time less the time the host gave to other tenants of a shared machine.
CLOCK = time.process_time
# A safety net, not part of the measurement: an instance that runs this long
# counts as a failed operation (limit reached) instead of stalling the run.
INSTANCE_TIME_LIMIT_S = 60.0

# Settings that would take the program off its default path.
UNSET_VARS = ("RAILDESIGN_NO_LP", "RAILDESIGN_PURE")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PIPELINE = ("model", "polycases", "milp", "solver_bb", "verify")

TIMED_LAYERS = ("model.load_s", "polycases.decline_s", "polycases.solve_s",
                "timegraph.expand_s", "milp.build_s", "solver_bb.solve_s",
                "solver_bb.lp_s", "kernel.engine_s", "solver_bb.decode_s",
                "verify.verify_s")
COUNTED_LAYERS = ("milp.vars", "milp.rows", "milp.headway_rows", "solver_bb.nodes",
                  "solver_bb.lp_calls", "kernel.assign_calls", "kernel.value_calls")


def pin_environment():
    for var in UNSET_VARS:
        if os.environ.pop(var, None) is not None:
            print(f"note: {var} unset for the benchmark", file=sys.stderr)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "raildesign" / "__init__.py").is_file():
        print(f"error: no raildesign package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def import_pipeline():
    return {name: importlib.import_module(f"raildesign.{name}") for name in PIPELINE}


def environment_record():
    import raildesign
    import scipy
    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                         f"{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = "unknown"
    return {"backend": raildesign.BACKEND, "python": platform.python_version(),
            "scipy": scipy.__version__, "highs": highs_version,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


# ---------------------------------------------------------------------------
# set-up: runs in a fresh process, timed from outside


def setup_into(workload, seed, out_dir):
    """Import the program, then generate and write the workload's files.
    Prints the CPU seconds that took and reference samples taken around it."""
    refs = refspeed.sample(CLOCK, SETUP_REF_SAMPLES)
    t = CLOCK()
    import_pipeline()
    import workloads
    entries = workloads.write_workload(workload, seed, out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(entries, fh)
    work = CLOCK() - t
    refs += refspeed.sample(CLOCK, SETUP_REF_SAMPLES)
    print(json.dumps({"cpu_s": work, "refs": refs}))


def timed_setups(workload, seed, out_dir):
    """Set-up times at the reference speed, one per fresh process, and the
    CPU seconds they were scaled from."""
    times, cpu = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-into",
                               str(out_dir), "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        cpu.append(record["cpu_s"])
        times.append(record["cpu_s"] * refspeed.REF_SECONDS / statistics.median(record["refs"]))
    return times, cpu


# ---------------------------------------------------------------------------
# one operation: instance file -> verified solution


@dataclass
class Outcome:
    status: str
    objective: object = None  # Fraction when a solution was decoded
    violations: int = 0
    system: object = None  # the built model, for the traced counts
    result: object = None  # the SolveResult, for the traced counts
    error: str | None = None


def _no_lap(name):
    pass


def solve_file(m, path, limits, tracer):
    lap = tracer.lap if tracer is not None else _no_lap
    model, polycases, milp, solver_bb = m["model"], m["polycases"], m["milp"], m["solver_bb"]
    inst = model.load_instance(path)
    report = model.validate_instance(inst)
    if not report.ok:
        return Outcome("invalid", error="; ".join(i.code for i in report.errors))
    lap("model.load_s")
    system = result = None
    for special in (polycases.solve_arborescence, polycases.solve_series_parallel):
        try:
            sol = special(inst)
        except polycases.UnsupportedInstance:
            lap("polycases.decline_s")
            continue
        lap("polycases.solve_s")
        status = "optimal" if sol is not None else "infeasible"
        break
    else:
        system = milp.build(inst)
        lap("milp.build_s")
        if tracer is not None:
            tracer.root_lp = None
        result = solver_bb.solve(system, limits)
        lap("solver_bb.solve_s")
        status = result.status
        sol = solver_bb.extract_solution(inst, result) if status == "optimal" else None
        lap("solver_bb.decode_s")
    violations = m["verify"].verify(inst, sol) if sol is not None else []
    lap("verify.verify_s")
    return Outcome(status, sol.objective_value if sol is not None else None,
                   len(violations), system, result)


def run_round(m, entries, limits, tracer):
    """Every instance once.  Returns per-instance (status, objective,
    violations, error), per-instance CPU seconds, the reference samples
    taken before each instance and the round's wall seconds."""
    outcomes, times, refs = [], [], []
    wall = time.perf_counter()
    for entry in entries:
        refs.append(refspeed.sample(CLOCK))
        t0 = CLOCK()
        if tracer is not None:
            tracer.start()
        try:
            out = solve_file(m, entry["path"], limits, tracer)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            out = Outcome("error", error=f"{type(exc).__name__}: {exc}")
        times.append(CLOCK() - t0)
        if tracer is not None:
            count_layers(tracer, out)
        # keep only what the checks need, so no model outlives its operation
        outcomes.append((out.status, out.objective, out.violations, out.error))
    return outcomes, times, refs, time.perf_counter() - wall


def count_layers(tracer, out):
    acc = tracer.acc
    if out.system is not None:
        acc["milp.vars"] += len(out.system.variables)
        acc["milp.rows"] += len(out.system.rows)
        acc["milp.headway_rows"] += sum(1 for r in out.system.rows
                                        if r.name.startswith("hw_"))
    if out.result is not None:
        nodes = out.result.stats.get("nodes")
        if nodes is None:
            tracer.missing.add("solver_bb.nodes")
        else:
            acc["solver_bb.nodes"] += nodes
        if (out.status == "optimal" and out.objective > 0 and tracer.root_lp is not None
                and tracer.root_lp[0] == 0):
            root = float(out.system.objective_constant) + tracer.root_lp[1]
            obj = float(out.objective)
            tracer.gaps.append((obj - root) / obj)


# ---------------------------------------------------------------------------
# oracles and failure accounting


def expected_outcomes(m, entries):
    import oracles
    expected = []
    for entry in entries:
        try:
            if "subsets" in entry:
                expected.append(oracles.x3c_expected(entry))
            else:
                system = m["milp"].build(m["model"].load_instance(entry["path"]))
                expected.append(oracles.highs_expected(system))
        except Exception as exc:  # an oracle that cannot answer fails the operation
            traceback.print_exc(file=sys.stderr)
            expected.append((f"oracle-error: {type(exc).__name__}", None))
    return expected


def failures(entries, rounds, expected):
    failed = 0
    reasons = {}
    for outcomes in rounds:
        for entry, (status, objective, violations, error), (want, want_obj) in zip(
                entries, outcomes, expected):
            why = None
            if error is not None:
                why = f"{status}: {error}"
            elif status != want:
                why = f"status {status}, oracle says {want}"
            elif objective != want_obj:
                why = f"objective {objective}, oracle says {want_obj}"
            elif violations:
                why = f"{violations} verify violations"
            if why is not None:
                failed += 1
                reasons.setdefault(os.path.basename(entry["path"]), why)
    return failed, reasons


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest_pass(rounds_times):
    """Per instance, its fastest time over the rounds.  What is left of the
    machine's drift after scaling to the reference speed can only add
    time, so each instance's fastest time tracks the program best."""
    return [min(per_instance) for per_instance in zip(*rounds_times)]


def end_to_end(setup_times, rounds_times, rounds_refs, peak_rss_mb):
    fastest = fastest_pass(refspeed.scale(rounds_times, rounds_refs))
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "suite_s": metric(sum(fastest), "s"),
        "instance_p50_s": metric(statistics.median(fastest), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced_rounds, untraced, traced):
    """Layer times from the fastest traced round, so they add up within one
    round, scaled to the reference speed by that round's samples; counts
    repeat exactly from round to round.  ``untraced`` and ``traced`` are
    (times, refs) of the two halves of the run."""
    untraced_scaled = refspeed.scale(*untraced)
    traced_scaled = refspeed.scale(*traced)
    traced_suites = [sum(times) for times in traced_scaled]
    k = traced_suites.index(min(traced_suites))
    best = dict(traced_rounds[k])
    factor = refspeed.REF_SECONDS / refspeed.reference_median([traced[1][k]])
    out = {}
    for name in TIMED_LAYERS:
        best[name] = best.get(name, 0.0) * factor
        out[name] = metric(best[name], "s")
    for name in COUNTED_LAYERS:
        out[name] = metric(int(best.get(name, 0)), "count")
    lp_calls = best.get("solver_bb.lp_calls", 0)
    out["solver_bb.lp_ms_per_call"] = metric(
        1000 * best.get("solver_bb.lp_s", 0.0) / lp_calls if lp_calls else 0.0, "ms")
    out["solver_bb.self_s"] = metric(best.get("solver_bb.solve_s", 0.0)
                                     - best.get("solver_bb.lp_s", 0.0)
                                     - best.get("kernel.engine_s", 0.0), "s")
    gaps = best["gaps"]
    out["solver_bb.root_gap"] = metric(statistics.fmean(gaps) if gaps else 0.0, "ratio")
    untraced = sum(fastest_pass(untraced_scaled))
    traced = sum(fastest_pass(traced_scaled))
    out["trace.untraced_suite_s"] = metric(untraced, "s")
    out["trace.traced_suite_s"] = metric(traced, "s")
    out["trace.overhead_s"] = metric(traced - untraced, "s")
    for name in tracer.missing:
        out.pop(name, None)
    return out


# ---------------------------------------------------------------------------
# running a workload


def more_rounds(walls, minimum, t_start, budget):
    """Whole rounds only: start another one while it is expected to end
    within the budget (in wall seconds), and always run ``minimum`` of them."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - t_start + min(walls) <= budget


def run_workload(workload, seed, seconds, trace):
    out_dir = OUT / f"{workload}-s{seed}"
    setup_times, setup_cpu = timed_setups(workload, seed, out_dir)
    m = import_pipeline()
    from tracing import Tracer
    with open(out_dir / "manifest.json") as fh:
        entries = json.load(fh)
    limits = m["solver_bb"].SolveLimits(time_limit=INSTANCE_TIME_LIMIT_S)

    rounds, untraced_times, traced_times, traced_rounds = [], [], [], []
    untraced_refs, traced_refs, untraced_walls, traced_walls = [], [], [], []
    tracer = None
    t_start = time.perf_counter()
    untraced_budget = seconds / 2 if trace else seconds
    while more_rounds(untraced_walls, MIN_ROUNDS, t_start, untraced_budget):
        outcomes, times, refs, wall = run_round(m, entries, limits, None)
        rounds.append(outcomes)
        untraced_times.append(times)
        untraced_refs.append(refs)
        untraced_walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracer = Tracer(m)
        tracer.install()
        try:
            while more_rounds(traced_walls, MIN_ROUNDS, t_start, seconds):
                tracer.acc.clear()
                tracer.gaps = []
                outcomes, times, refs, wall = run_round(m, entries, limits, tracer)
                rounds.append(outcomes)
                traced_times.append(times)
                traced_refs.append(refs)
                traced_walls.append(wall)
                traced_rounds.append(dict(tracer.acc, gaps=tracer.gaps))
        finally:
            tracer.remove()

    expected = expected_outcomes(m, entries)
    failed, reasons = failures(entries, rounds, expected)
    attempted = len(entries) * len(rounds)
    if trace:
        metrics = per_layer(tracer, traced_rounds, (untraced_times, untraced_refs),
                            (traced_times, traced_refs))
        for name in sorted(tracer.missing):
            print(f"note: {name} missing: its entry point is not in the program",
                  file=sys.stderr)
    else:
        metrics = end_to_end(setup_times, untraced_times, untraced_refs, peak_rss_mb)

    summary = {"workload": workload, "seed": seed, "trace": trace,
               "environment": environment_record(), "instances": len(entries),
               "rounds": len(rounds), "attempted": attempted, "failed": failed,
               "failures": reasons, "metrics": metrics,
               # CPU seconds as measured, before scaling to the reference speed
               "setup_cpu_s": setup_cpu,
               "cpu_suite_s": sum(fastest_pass(untraced_times)),
               "round_cpu_s": [sum(t) for t in untraced_times + traced_times],
               "round_wall_s": untraced_walls + traced_walls,
               "reference_median_s": refspeed.reference_median(untraced_refs + traced_refs),
               "instance_cpu_s": untraced_times,
               "per_instance": [
                   {"file": os.path.basename(e["path"]), "status": o[0],
                    "objective": str(o[1]) if o[1] is not None else None,
                    "oracle": str(x[1]) if x[1] is not None else x[0]}
                   for e, o, x in zip(entries, rounds[0], expected)]}
    with open(out_dir / f"run-trace{trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def print_summary(summary):
    print(f"environment: {json.dumps(summary['environment'], sort_keys=True)}")
    print(f"workload {summary['workload']} seed {summary['seed']}: "
          f"{summary['instances']} instances x {summary['rounds']} rounds, "
          f"attempted {summary['attempted']}, failed {summary['failed']}")
    for file, why in sorted(summary["failures"].items()):
        print(f"  FAILED {file}: {why}")
    for name, m in summary["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")


def run_all(args):
    """Every workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_environment()
    if args.setup_into is not None:
        setup_into(args.workload, args.seed, args.setup_into)
        return 0
    if args.workload == "all":
        return run_all(args)
    summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_summary(summary)
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": summary["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
