import dataclasses
import itertools
import random
from fractions import Fraction

from helpers import (line_instance, mk_network, mk_train,
                     random_arborescence_instance, row_satisfied, two_arc_line)
from raildesign import milp, reduction, solver_bb
from raildesign.model import (ConnectionRequirement, Instance, RoutedStep,
                              Solution)
from raildesign.verify import FAMILIES, verify


def families(violations):
    return {v.family for v in violations}


def solved(inst):
    res = solver_bb.solve(milp.build(inst))
    assert res.status == "optimal"
    return solver_bb.extract_solution(inst, res)


def test_solver_output_verifies_clean():
    pool = [
        line_instance(c=1, ce=1, k=3, n_trains=2, horizon=2, dwell=False),
        line_instance(c=1, ce=1, k=3, n_trains=2, horizon=3,
                      headway_default=2, dwell=False),
        reduction.x3c_to_instance(reduction.worked_example())[0],
    ]
    rng = random.Random(8)
    pool += [random_arborescence_instance(rng) for _ in range(5)]
    for inst in pool:
        res = solver_bb.solve(milp.build(inst))
        if res.status != "optimal":
            continue
        sol = solver_bb.extract_solution(inst, res)
        assert verify(inst, sol) == []


def tight_solution():
    inst = line_instance(c=0, ce=2, k=5, n_trains=2, horizon=1, window=1,
                         dwell=False)
    return inst, solved(inst)


def test_missing_expansion_is_flagged():
    inst, sol = tight_solution()
    broken = dataclasses.replace(sol, expanded_arcs=(),
                                 objective_value=Fraction(0),
                                 expansion_cost_total=Fraction(0))
    assert "capacity" in families(verify(inst, broken))


def test_early_departure_is_flagged():
    inst = line_instance(c=2, ce=0, k=0, n_trains=1, horizon=2, dep=1,
                         dwell=False)
    sol = solved(inst)
    shifted = dataclasses.replace(
        sol, routes={"T0": (RoutedStep("T0", "A", "B", 0),)})
    assert "departure" in families(verify(inst, shifted))


def test_late_arrival_is_flagged():
    inst = line_instance(c=2, ce=0, k=0, n_trains=1, horizon=3, arr=1,
                         dwell=False)
    sol = solved(inst)
    shifted = dataclasses.replace(
        sol, routes={"T0": (RoutedStep("T0", "A", "B", 2),)})
    assert "arrival" in families(verify(inst, shifted))


def test_headway_gap_is_flagged():
    inst = line_instance(c=5, ce=0, k=0, n_trains=2, horizon=3,
                         headway_default=3, dwell=False)
    sol = Solution(
        expanded_arcs=(),
        routes={"T0": (RoutedStep("T0", "A", "B", 0),),
                "T1": (RoutedStep("T1", "A", "B", 1),)},
        objective_value=Fraction(0), expansion_cost_total=Fraction(0),
        penalty_total=Fraction(0))
    assert "headway" in families(verify(inst, sol))


def test_broken_walk_is_flagged():
    net = mk_network([("A", "B", 1, 2, 0, 0), ("B", "C", 1, 2, 0, 0)])
    inst = Instance(network=net, horizon=3,
                    trains=(mk_train("T", "A", "C", 0, 3),),
                    capacity_window=1, allow_dwell=False)
    gap = Solution((), {"T": (RoutedStep("T", "A", "B", 0),
                              RoutedStep("T", "B", "C", 2))},
                   Fraction(0), Fraction(0), Fraction(0))
    assert "flow" in families(verify(inst, gap))  # dwells while dwell disabled
    wrong_start = Solution((), {"T": (RoutedStep("T", "B", "C", 1),)},
                           Fraction(0), Fraction(0), Fraction(0))
    assert "flow" in families(verify(inst, wrong_start))
    missing = Solution((), {}, Fraction(0), Fraction(0), Fraction(0))
    assert "flow" in families(verify(inst, missing))


def test_connection_and_via_violations():
    net = mk_network([("A", "B", 1, 2, 0, 0), ("B", "C", 1, 2, 0, 0),
                      ("A", "C", 2, 2, 0, 0)])
    trains = (mk_train("F", "A", "B", 0, 3),
              mk_train("G", "B", "C", 0, 3),
              mk_train("V", "A", "C", 0, 3, via=["B"]))
    inst = Instance(network=net, horizon=3, trains=trains,
                    connections=(ConnectionRequirement("B", "F", "G"),),
                    capacity_window=1, allow_dwell=True)
    bad = Solution(
        (), {"F": (RoutedStep("F", "A", "B", 2),),
             "G": (RoutedStep("G", "B", "C", 0),),
             "V": (RoutedStep("V", "A", "C", 0),)},
        Fraction(0), Fraction(0), Fraction(0))
    fams = families(verify(inst, bad))
    assert "connection" in fams  # G departs B before F arrives
    assert "via" in fams  # V skips B entirely


def test_objective_mismatch_is_flagged():
    inst, sol = tight_solution()
    lied = dataclasses.replace(sol, objective_value=Fraction(1))
    assert "objective" in families(verify(inst, lied))


def test_structure_violations():
    inst = line_instance(c=1, ce=0, k=0, n_trains=1, horizon=2, dwell=False)
    sol = Solution((("A", "Z"),),
                   {"T0": (RoutedStep("T0", "A", "B", 0),),
                    "GHOST": (RoutedStep("GHOST", "A", "B", 1),)},
                   Fraction(0), Fraction(0), Fraction(0))
    fams = families(verify(inst, sol))
    assert "structure" in fams
    horizon_cross = Solution((), {"T0": (RoutedStep("T0", "A", "B", 2),)},
                             Fraction(0), Fraction(0), Fraction(0))
    assert "structure" in families(verify(inst, horizon_cross))


def test_departure_before_time_zero_is_flagged():
    # no capacity window starts before 0, so only the structure check sees
    # two trains sharing a step there
    inst = line_instance(c=1, ce=0, k=0, n_trains=2, horizon=2, dep=-3)
    early = Solution((), {f"T{i}": (RoutedStep(f"T{i}", "A", "B", -1),) for i in range(2)},
                     Fraction(0), Fraction(0), Fraction(0))
    assert families(verify(inst, early)) == {"structure"}


def test_violations_are_ordered_and_deduplicated():
    inst, sol = tight_solution()
    broken = dataclasses.replace(sol, expanded_arcs=(),
                                 objective_value=Fraction(99))
    out = verify(inst, broken)
    ranks = [FAMILIES.index(v.family) for v in out]
    assert ranks == sorted(ranks)
    assert len(out) == len(set(out))


def test_scenario_capacity_checked_per_scenario():
    from raildesign.model import Scenario
    inst = line_instance(c=1, ce=0, k=0, n_trains=2, horizon=1, dwell=False)
    both = Solution((), {"T0": (RoutedStep("T0", "A", "B", 0),),
                         "T1": (RoutedStep("T1", "A", "B", 0),)},
                    Fraction(0), Fraction(0), Fraction(0))
    assert "capacity" in families(verify(inst, both))
    split = Instance(network=inst.network, horizon=1, trains=inst.trains,
                     scenarios=(Scenario("S1", ("T0",)), Scenario("S2", ("T1",))),
                     capacity_window=1, allow_dwell=False)
    # never together in one scenario, so the same routes are fine
    assert verify(split, both) == []


# -- cross-check against the row model on small systems ----------------------


def decode(inst, system, bits):
    """The solution ``bits`` encode: one walk per routed train, with dwell
    bits set exactly on the walk's waits; None for anything else."""
    result = solver_bb.SolveResult("optimal", dict(enumerate(bits)), None, None,
                                   {}, system)
    try:
        sol = solver_bb.extract_solution(inst, result)
    except solver_bb.DecodeError:
        return None
    arcs = inst.network.arc_by_key()
    waits = {(s.train, s.frm, tau) for steps in sol.routes.values()
             for prev, s in zip(steps, steps[1:])
             for tau in range(prev.depart + arcs[(prev.frm, prev.to)].travel_time, s.depart)}
    on = {(m.train, m.node, m.t) for m, bit in zip(system.variables, bits)
          if m.kind == "dwell" and bit}
    return sol if on == waits else None


def test_verifier_agrees_with_rows_exhaustively():
    instances = [
        line_instance(c=1, ce=1, k=2, n_trains=1, horizon=2, dwell=False),
        line_instance(c=0, ce=1, k=1, n_trains=2, horizon=2, window=2,
                      dwell=False, headway_default=2),
        two_arc_line(1, 4, dwell=True),
        two_arc_line(2, 3, dwell=True, headway=2),
        two_arc_line(2, 3, dwell=False, headway=1, c=0),
    ]
    checked = 0
    for inst in instances:
        system = milp.build(inst)
        n = len(system.variables)
        assert n <= 12
        for bits in itertools.product((0, 1), repeat=n):
            sol = decode(inst, system, bits)
            if sol is None:
                continue  # not interpretable as walks; rows may still hold
            rows_ok = all(row_satisfied(row, bits) for row in system.rows)
            sem_ok = verify(inst, sol) == []
            assert rows_ok == sem_ok, (inst, bits)
            checked += 1
    assert checked > 50


def test_mutation_sensitivity_on_x3c():
    # small version of acceptance criterion 5: flip one expansion bit
    x3c = reduction.gen_random_x3c(2, 4, seed=3)
    inst, _ = reduction.x3c_to_instance(x3c, unit_capacity_encoding=True)
    sol = solved(inst)
    arcs = inst.network.arc_by_key()
    expandable = [a.key for a in inst.network.arcs if a.expandable_capacity > 0]
    flagged = worse = 0
    for key in expandable:
        if key in sol.expanded_arcs:
            new = tuple(k for k in sol.expanded_arcs if k != key)
        else:
            new = sol.expanded_arcs + (key,)
        cost = sum((arcs[k].expansion_cost for k in new), Fraction(0))
        mutant = dataclasses.replace(sol, expanded_arcs=new,
                                     objective_value=cost,
                                     expansion_cost_total=cost)
        out = verify(inst, mutant)
        if out:
            flagged += 1
        else:
            assert mutant.objective_value > sol.objective_value
            worse += 1
    assert flagged + worse == len(expandable)
    assert flagged >= 1
