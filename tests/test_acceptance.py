"""Acceptance gate: one test per acceptance criterion, each printing a single
PASS/FAIL line (run with -s or read captured stdout).  These intentionally
overlap the per-module tests; this file is the end-to-end contract."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

from helpers import (enumerate_system, line_instance, mk_train,
                     random_arborescence_instance, random_sp_instance)
from raildesign import milp, polycases, reduction, solver_bb
from raildesign.model import Instance, Scenario
from raildesign.verify import verify

# solutions produced while the gate runs; criterion 5 re-checks all of them
PRODUCED = []


def gate(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_reduction_equivalence():
    t0 = time.perf_counter()
    cases = [(1, 1, seed) for seed in range(20)]
    for q in (2, 3):
        for m in range(q, 9):
            for seed in range(14):
                cases.append((q, m, seed))
    assert len(cases) >= 200
    mismatches = 0
    for q, m, seed in cases:
        x3c = reduction.gen_random_x3c(q, m, seed, planted=(seed % 2 == 0))
        inst, threshold = reduction.x3c_to_instance(x3c)
        res = solver_bb.solve(milp.build(inst))
        covered = res.status == "optimal" and res.objective <= threshold
        if covered != reduction.x3c_brute_force(x3c):
            mismatches += 1
        if res.status == "optimal":
            PRODUCED.append((inst, solver_bb.extract_solution(inst, res)))
    elapsed = time.perf_counter() - t0
    gate(1, mismatches == 0 and elapsed < 300,
         f"{len(cases)} exact-cover instances, {mismatches} oracle mismatches, "
         f"{elapsed:.1f}s")


def test_criterion_2_worked_example():
    x3c = reduction.worked_example()
    inst, _ = reduction.x3c_to_instance(x3c)
    res = solver_bb.solve(milp.build(inst))
    assert res.status == "optimal"
    sol = solver_bb.extract_solution(inst, res)
    PRODUCED.append((inst, sol))
    arcs = inst.network.arc_by_key()
    paid = sorted(key for key in sol.expanded_arcs
                  if arcs[key].expansion_cost > 0)
    # the paid expansions must select subsets that partition the ground set
    chosen = [x3c.subsets[int(to[1:])] for frm, to in paid]
    union = [e for s in chosen for e in s]
    is_cover = sorted(union) == sorted(x3c.ground_set)
    matches_witness = paid == [("s", "C0"), ("s", "C2")]
    gate(2, res.objective == 6 and is_cover and verify(inst, sol) == [],
         f"objective {res.objective}, expanded {paid}"
         + (" (the documented witness)" if matches_witness else ""))


def test_criterion_3_headway_linearization():
    checked = bad = 0
    for M, t1, t2 in itertools.product(range(6), repeat=3):
        if t1 >= t2:
            continue
        row = milp.headway_row(M, t1, t2, 0, 1)
        for x1, x2 in itertools.product((0, 1), repeat=2):
            quad_ok = x1 * (M - (t2 - t1)) * x2 <= 0
            if row is None:
                row_ok = True
            else:
                row_ok = sum(c * (x1, x2)[v] for v, c in row.terms) <= row.rhs
            checked += 1
            bad += row_ok != quad_ok
    gate(3, checked == 360 and bad == 0,
         f"{checked} (M, t1, t2, assignment) combinations, {bad} mismatches")


def test_criterion_4_special_case_oracles():
    rng = random.Random(2026)
    counts = {}
    for label, generate, solve_direct in (
            ("arborescence", random_arborescence_instance,
             polycases.solve_arborescence),
            ("series-parallel", random_sp_instance,
             polycases.solve_series_parallel)):
        feasible = infeasible = 0
        for _ in range(100):
            inst = generate(rng)
            sol = solve_direct(inst)
            res = solver_bb.solve(milp.build(inst))
            if sol is None:
                assert res.status == "infeasible", label
                infeasible += 1
            else:
                assert res.status == "optimal", label
                assert sol.objective_value == res.objective, label
                PRODUCED.append((inst, sol))
                feasible += 1
        counts[label] = (feasible, infeasible)
    gate(4, all(sum(v) == 100 for v in counts.values()),
         ", ".join(f"{k}: {f} feasible + {i} infeasible agree"
                   for k, (f, i) in counts.items()))


def test_criterion_5_verifier_closure_and_mutations():
    pool = list(PRODUCED)
    if not pool:  # keep the test meaningful when run in isolation
        for inst in (line_instance(c=1, ce=1, k=3, n_trains=2, horizon=2,
                                   dwell=False),
                     line_instance(c=0, ce=2, k=5, n_trains=2, horizon=1,
                                   window=1, dwell=False)):
            res = solver_bb.solve(milp.build(inst))
            pool.append((inst, solver_bb.extract_solution(inst, res)))
    dirty = sum(1 for inst, sol in pool if verify(inst, sol))

    # one-bit flips of the expansion set on tight exact-cover optima, with the
    # declared costs recomputed honestly for the mutated set
    plan = [(1, 1, s) for s in range(4)]
    plan += [(2, 2, s) for s in range(8)]
    plan += [(3, 3, s) for s in range(8)]
    plan += [(3, 4, s) for s in range(2)]
    flips = flagged = costlier = 0
    for q, m, seed in plan:
        x3c = reduction.gen_random_x3c(q, m, seed, planted=True)
        inst, threshold = reduction.x3c_to_instance(
            x3c, unit_capacity_encoding=True)
        res = solver_bb.solve(milp.build(inst))
        assert res.status == "optimal" and res.objective == threshold
        sol = solver_bb.extract_solution(inst, res)
        arcs = inst.network.arc_by_key()
        for arc in inst.network.arcs:
            if arc.expandable_capacity == 0:
                continue
            if arc.key in sol.expanded_arcs:
                new = tuple(k for k in sol.expanded_arcs if k != arc.key)
            else:
                new = sol.expanded_arcs + (arc.key,)
            cost = sum((arcs[k].expansion_cost for k in new), Fraction(0))
            mutant = dataclasses.replace(sol, expanded_arcs=new,
                                         objective_value=cost,
                                         expansion_cost_total=cost)
            flips += 1
            if verify(inst, mutant):
                flagged += 1
            else:
                assert mutant.objective_value > sol.objective_value
                costlier += 1
    ratio = flagged / flips
    gate(5, dirty == 0 and ratio >= 0.95 and flagged + costlier == flips,
         f"{len(pool)} solutions verify clean; {flagged}/{flips} mutations "
         f"flagged ({ratio:.1%}), {costlier} strictly costlier feasible")


def tradeoff_instance(k, k_v):
    base = line_instance(c=1, ce=1, k=k, n_trains=1, horizon=1, window=1,
                         dwell=False)
    trains = base.trains + (mk_train("O", "A", "B", 0, 1, optional=True,
                                     penalty=k_v),)
    return Instance(network=base.network, horizon=1, trains=trains,
                    capacity_window=1, allow_dwell=False)


def test_criterion_6_robust_tradeoff():
    outcomes = []
    for k, k_v in ((5, 2), (2, 5), (3, 3)):
        inst = tradeoff_instance(k, k_v)
        system = milp.build(inst)
        res = solver_bb.solve(system)
        assert res.status == "optimal"
        assert enumerate_system(system) == ("optimal", res.objective)
        assert res.objective == min(k, k_v)
        sol = solver_bb.extract_solution(inst, res)
        PRODUCED.append((inst, sol))
        dropped = "O" not in sol.routes
        expanded = ("A", "B") in sol.expanded_arcs
        if k_v < k:
            assert dropped and not expanded
        elif k_v > k:
            assert expanded and not dropped
        else:
            assert dropped != expanded  # either answer, at cost k
        outcomes.append(f"k={k},k_v={k_v}: objective {res.objective} "
                        + ("drop" if dropped else "expand"))
    gate(6, True, "; ".join(outcomes))


def scenario_instance(partition):
    inst = line_instance(c=16, ce=0, k=0, n_trains=16, horizon=25,
                         dwell=False, headway_default=2)
    ids = [t.id for t in inst.trains]
    scenarios, at = [], 0
    for i, size in enumerate(partition):
        scenarios.append(Scenario(f"S{i}", tuple(ids[at:at + size])))
        at += size
    return Instance(network=inst.network, horizon=inst.horizon,
                    trains=inst.trains, scenarios=tuple(scenarios),
                    capacity_window=1, allow_dwell=False)


def test_criterion_7_scenario_scaling():
    results = {}
    for partition in ((4, 4, 4, 4), (12, 2, 1, 1)):
        inst = scenario_instance(partition)
        system = milp.build(inst)
        hw = sum(r.name.startswith("hw_") for r in system.rows)
        cap = sum(r.name.startswith("cap_") for r in system.rows)
        # one arc, travel time 1: departures 0..horizon-1, headway 2 means
        # only consecutive departure pairs conflict
        time_pairs = inst.horizon - 1
        assert hw == sum(v * (v - 1) for v in partition) * time_pairs
        # capacity 16 holds every scenario, so no window can bind
        assert cap == 0
        res = solver_bb.solve(system)
        assert res.status == "optimal" and res.objective == 0
        results[partition] = (hw, res.stats["nodes"])
    (hw_even, nodes_even) = results[(4, 4, 4, 4)]
    (hw_skew, nodes_skew) = results[(12, 2, 1, 1)]
    gate(7, hw_even <= hw_skew and nodes_even <= nodes_skew,
         f"headway rows {hw_even} (even) <= {hw_skew} (skewed), "
         f"nodes {nodes_even} <= {nodes_skew}; row counts match closed forms")


def test_criterion_8_exhaustive_small_systems():
    checked = 0
    for c, ce, k, n_tr, w, dwell, M in itertools.product(
            (0, 1), (0, 1), (0, 3), (1, 2), (1, 2), (False, True), (0, 2)):
        inst = line_instance(c=c, ce=ce, k=k, n_trains=n_tr, horizon=2,
                             window=w, dwell=dwell, headway_default=M)
        system = milp.build(inst)
        if len(system.variables) > 12:
            continue
        res = solver_bb.solve(system)
        assert (res.status, res.objective) == enumerate_system(system)
        checked += 1
    gate(8, checked >= 30,
         f"{checked} systems with <= 12 variables match 2^n enumeration")
