"""Soundness of the propagation engine: random row systems and random
assign/backtrack scripts, checked against brute-force 0-1 enumeration."""

import itertools
import random

import raildesign
from raildesign.milp import LinearRow
from raildesign.solver_bb import FREE, PropEngine


def random_rows(rng, nvars, senses=None):
    """Rows of 1-4 terms; all <= unless ``senses`` is given to draw from."""
    rows = []
    for i in range(rng.randint(1, 12)):
        k = rng.randint(1, min(4, nvars))
        cols = rng.sample(range(nvars), k)
        coefs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in cols]
        rhs = rng.randint(-3, 5)
        sense = rng.choice(senses) if senses else "<="
        rows.append(LinearRow(list(zip(cols, coefs)), sense, rhs, f"r{i}"))
    return rows


def snapshot(engine, nvars):
    return [engine.values[v] for v in range(nvars)]


def holds(row, bits):
    lhs = sum(c * bits[v] for v, c in row.terms)
    return {"<=": lhs <= row.rhs, "=": lhs == row.rhs, ">=": lhs >= row.rhs}[row.sense]


def completions(rows, nvars, decisions):
    """Every 0-1 point that agrees with the (var, val) decisions and satisfies
    every row."""
    return [bits for bits in itertools.product((0, 1), repeat=nvars)
            if all(bits[v] == val for v, val in decisions)
            and all(holds(row, bits) for row in rows)]


def check_sound(engine, rows, nvars, decisions, ok):
    sols = completions(rows, nvars, decisions)
    # Row-by-row propagation cannot refute every infeasible branch (three
    # pairwise-exclusive variables of which two must be set pass it), but on
    # these seeded systems it does.
    assert ok == bool(sols)
    if not ok:
        return
    fixed = {v: engine.values[v] for v in range(nvars) if engine.values[v] != FREE}
    assert all(bits[v] == val for bits in sols for v, val in fixed.items())


def run_script(rng, engine, rows, nvars, start):
    """The root pass and then random assign/backtrack steps, each checked;
    ``start`` holds the (var, val) fixings the engine was built with, which
    never reach its trail."""
    ok = engine.propagate_root()
    check_sound(engine, rows, nvars, start, ok)
    if not ok:
        return
    stack = []  # (mark, snapshot before, var, val) per accepted decision
    for _ in range(rng.randint(3, 25)):
        op = rng.random()
        if op < 0.55:
            v, val = rng.randrange(nvars), rng.randint(0, 1)
            mark, before = engine.mark(), snapshot(engine, nvars)
            ok = engine.assign(v, val)
            decisions = start + [d[2:] for d in stack] + [(v, val)]
            check_sound(engine, rows, nvars, decisions, ok)
            if ok:
                stack.append((mark, before, v, val))
            else:
                engine.backtrack(mark)
                assert snapshot(engine, nvars) == before
        elif stack:
            i = rng.randrange(len(stack))
            mark, before = stack[i][:2]
            del stack[i:]
            engine.backtrack(mark)
            assert snapshot(engine, nvars) == before
        assert not {v for v, _ in start} & set(engine.trail)


def test_engine_is_sound_on_random_scripts():
    rng = random.Random(42)
    for _ in range(150):
        nvars = rng.randint(2, 10)
        rows = random_rows(rng, nvars)
        engine = PropEngine([FREE] * nvars, rows)
        run_script(rng, engine, rows, nvars, [])


def test_columns_fixed_before_the_engine_stay_fixed():
    # the engine adopts the caller's list: what it holds already counts in
    # every row's minimum activity, and stays fixed through any backtrack
    rng = random.Random(7)
    refuted = 0
    for _ in range(150):
        nvars = rng.randint(2, 10)
        rows = random_rows(rng, nvars, ("<=", "=", ">="))
        start = [(v, rng.randint(0, 1))
                 for v in rng.sample(range(nvars), rng.randint(1, nvars - 1))]
        values = [FREE] * nvars
        for v, val in start:
            values[v] = val
        given = list(values)
        engine = PropEngine(values, rows)
        assert engine.values is values
        refuted += not completions(rows, nvars, start)
        run_script(rng, engine, rows, nvars, start)
        engine.backtrack(0)
        assert values == given
    assert 0 < refuted < 150


def test_backend_reports_itself():
    assert raildesign.BACKEND == "python"
    e = PropEngine([FREE], [LinearRow([(0, 1)], "<=", 0, "r")])
    assert e.propagate_root()
    assert e.values[0] == 0  # coef 1 > slack 0 forces the variable to 0
