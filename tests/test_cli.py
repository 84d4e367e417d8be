import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import line_instance, mk_network, mk_train, run_fresh
from raildesign import cli, milp, solver_bb
from raildesign.model import (Instance, cost_to_json, load_instance, load_solution,
                              save_instance)

DATA = Path(__file__).parent / "data"


def write(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    save_instance(inst, path)
    return str(path)


def test_only_solve_loads_numpy():
    out = run_fresh("import sys\n"
                    "import raildesign.cli\n"
                    "print('numpy' in sys.modules, 'raildesign.solver_bb' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_without_numpy_and_scipy_only_the_solver_fails(tmp_path):
    # the file commands still work; the solver refuses to load rather than
    # falling back to some slower search
    inst = write(tmp_path, line_instance(c=1, ce=0, k=0, n_trains=1))
    sol = str(tmp_path / "sol.json")
    assert cli.main(["solve", inst, "-o", sol]) == 0
    x3c, lp = str(tmp_path / "x3c.json"), str(tmp_path / "m.lp")
    out = run_fresh(
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] in ('numpy', 'scipy'):\n"
        "            raise ImportError(f'blocked: {name}')\n"
        "sys.meta_path.insert(0, Block())\n"
        "from raildesign import cli\n"
        f"codes = [cli.main(['gen-x3c', '--q', '2', '--subsets', '5', '--seed', '1',"
        f" '-o', {x3c!r}]), cli.main(['export-lp', {inst!r}, '-o', {lp!r}]),"
        f" cli.main(['verify', {inst!r}, {sol!r}])]\n"
        "try:\n"
        "    import raildesign.solver_bb\n"
        "except ImportError as exc:\n"
        "    codes.append(exc)\n"
        "print(*codes, sep='\\n')")
    assert out.splitlines()[-4:] == ["0", "0", "0", "blocked: numpy"]


def test_solve_feasible(tmp_path, capsys):
    path = write(tmp_path, line_instance(c=1, ce=0, k=0, n_trains=1))
    out = str(tmp_path / "sol.json")
    assert cli.main(["solve", path, "-o", out]) == 0
    printed = capsys.readouterr().out
    assert "status: optimal" in printed and "objective: 0" in printed
    sol = load_solution(out)
    assert sol.objective_value == 0 and "T0" in sol.routes


def test_solve_infeasible(tmp_path):
    inst = line_instance(c=1, ce=0, k=0, n_trains=2, horizon=1, dwell=False)
    assert cli.main(["solve", write(tmp_path, inst)]) == 2


def test_a_train_without_a_walk_is_refuted_by_the_root_lp(monkeypatch, capsys):
    # T1 cannot reach D in its window, so its departure row reads 0 = 1; the
    # file is no arborescence and has dwell, so both special cases decline
    def no_engine(*args):
        raise AssertionError("PropEngine built")

    monkeypatch.setattr(solver_bb, "PropEngine", no_engine)
    assert cli.main(["solve", str(DATA / "no_walk.json")]) == 2
    assert capsys.readouterr().out == "status: infeasible\n"


def test_a_malformed_command_line_exits_1(tmp_path, capsys):
    # exit 2 is solve's "infeasible"; a command line that does not parse, or
    # a limit below 0 or NaN, is an input error
    path = write(tmp_path, line_instance(c=1, ce=0, k=0, n_trains=1))
    for argv in (["solve", path, "--node-limit", "abc"], ["solve", path, "--mode", "bogus"],
                 ["solve"], ["gen-x3c", "--q", "two", "--subsets", "5", "--seed", "1", "-o", path],
                 ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    # the limits parse, and SolveLimits rejects them
    for argv in (["solve", path, "--node-limit", "-3"], ["solve", path, "--time-limit", "-1"],
                 ["solve", path, "--time-limit", "nan"]):
        assert cli.main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0


def test_solve_limit(tmp_path):
    inst = line_instance(c=0, ce=1, k=1, n_trains=2, horizon=2, dwell=False)
    assert cli.main(["solve", write(tmp_path, inst), "--node-limit", "0",
                     "--mode", "milp"]) == 3


def test_solve_limit_reports_bound(tmp_path, capsys):
    path = str(tmp_path / "x3c.json")
    assert cli.main(["gen-x3c", "--q", "3", "--subsets", "8", "--seed", "4", "-o", path]) == 0
    assert cli.main(["solve", path]) == 0
    optimum = int(re.search(r"^objective: (\d+)$", capsys.readouterr().out, re.M).group(1))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", path, "--node-limit", "2", "-o", str(out)]) == 3
    printed = capsys.readouterr().out
    assert printed.startswith("status: limit_reached\nnodes: ")
    bound = re.search(r"^bound: (\d+)$", printed, re.M)
    assert bound and int(bound.group(1)) <= optimum
    incumbent = re.search(r"^objective: (\d+)$", printed, re.M)
    assert incumbent is None or int(incumbent.group(1)) >= optimum
    assert not out.exists()


def test_force_rows_lift_the_root_bound_to_the_optimum(capsys):
    # a benchmark corridor: 8 trains over S0 -> S1 -> S2, two pairs of them
    # bunched.  Counting forces both expansions, so the root LP bound (1
    # without the force rows) is the optimum, 2, which the model without
    # them confirms
    path = str(DATA / "bunched_corridor.json")
    assert cli.main(["export-lp", path]) == 0
    forced = re.findall(r"^ (force_\w+): ", capsys.readouterr().out, re.M)
    assert forced == ["force_S0_S1", "force_S1_S2"]
    assert cli.main(["solve", path, "--node-limit", "1"]) == 3
    assert capsys.readouterr().out == "status: limit_reached\nnodes: 1\nbound: 2\n"
    system = milp.build(load_instance(path))
    bare = dataclasses.replace(system, rows=[
        row for row in system.rows if not row.name.startswith("force_")])
    res = solver_bb.solve(bare)
    assert (res.status, res.objective) == ("optimal", 2)
    assert solver_bb.solve(bare, solver_bb.SolveLimits(node_limit=1)).bound == 1


def test_solve_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    assert cli.main(["solve", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    # UTF-16 text starts with the bytes ff fe, which UTF-8 never does
    inst = line_instance(c=1, ce=0, k=0, n_trains=1)
    path, sol = write(tmp_path, inst), str(tmp_path / "sol.json")
    assert cli.main(["solve", path, "-o", sol]) == 0
    wide = tmp_path / "wide.json"
    wide.write_bytes(Path(path).read_text().encode("utf-16"))
    assert wide.read_bytes()[:2] == b"\xff\xfe"
    capsys.readouterr()
    for argv in (["solve", str(wide)], ["verify", str(wide), sol], ["verify", path, str(wide)]):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: {wide}: not UTF-8 text"), argv


@pytest.mark.parametrize("value", ["1e20", "1e400", "1e-400"])
@pytest.mark.parametrize("field", ["expansion_cost", "penalty"])
def test_exact_costs_past_a_float_solve_exactly(tmp_path, capsys, field, value):
    # 1e20 is what HiGHS takes for an infinite cost, 1e400 overflows a float
    # and 1e-400 underflows to 0.  On the bunched corridor counting forces
    # both expansions; the penalty is an optional train's, which the
    # expanded arcs can carry
    data = json.loads((DATA / "bunched_corridor.json").read_text())
    if field == "expansion_cost":
        data["arcs"][0]["expansion_cost"] = value
        optimum = Fraction(value) + 1
    else:
        data["trains"].append({"id": "TX", "origin": "S0", "destination": "S2",
                               "earliest_departure": 0, "latest_arrival": 5,
                               "optional": True, "penalty": value})
        optimum = 2
    path, sol = tmp_path / "costly.json", str(tmp_path / "sol.json")
    path.write_text(json.dumps(data))
    assert cli.main(["solve", str(path), "--mode", "milp", "-o", sol]) == 0
    assert f"objective: {cost_to_json(optimum)}\n" in capsys.readouterr().out
    assert load_solution(sol).objective_value == optimum
    assert cli.main(["verify", str(path), sol]) == 0


@pytest.mark.parametrize("value", ["1e5000", "1e-5000"])
def test_a_cost_past_the_digit_limit_exits_1(tmp_path, capsys, value):
    # 10**5000 and 1/10**5000 are exact, but no int of 5001 digits prints
    # under Python's default limit of 4300, so the load rejects them
    data = json.loads((DATA / "bunched_corridor.json").read_text())
    path, sol = tmp_path / "huge.json", str(tmp_path / "sol.json")
    assert cli.main(["solve", str(DATA / "bunched_corridor.json"), "-o", sol]) == 0
    data["arcs"][0]["expansion_cost"] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    for argv in (["solve", str(path), "--mode", "milp"], ["export-lp", str(path)],
                 ["verify", str(path), sol]):
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.err == "error: arcs[0]: expansion_cost has more than 4300 digits\n", argv
        assert out.out == "", argv


@pytest.mark.parametrize("arc", [{"expansion_cost": "1" * 5000}, [1] * 3000],
                         ids=["long-cost", "long-list"])
def test_a_long_bad_value_is_echoed_cut_short(tmp_path, capsys, arc):
    # a cost string of 5000 digits, and an arc that is a list of 3000 ints
    data = json.loads((DATA / "bunched_corridor.json").read_text())
    data["arcs"][0] = dict(data["arcs"][0], **arc) if isinstance(arc, dict) else arc
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    assert cli.main(["solve", str(path)]) == 1
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: arcs[0]: "), out.err[:300]
    assert len(lines[0]) < 200 and lines[0].endswith("…"), lines[0]


@pytest.mark.parametrize("table", ["nodes", "headways", "routes"])
def test_a_long_id_is_echoed_cut_short(tmp_path, capsys, table):
    # an id of 3000 characters: a node declared twice, a headway given twice
    # for a train of that id, and a solution's route of that name that is no
    # list; each is named in one error line
    data = json.loads((DATA / "bunched_corridor.json").read_text())
    long, path = "N" * 3000, tmp_path / "long.json"
    argv, start = ["solve", str(path)], "error: NODE_DUP: "
    if table == "nodes":
        data["nodes"] += [{"id": long}, {"id": long}]
    elif table == "headways":
        data["trains"][0]["id"] = long
        data["headways"] = 2 * [{"from": "S0", "to": "S1", "v1": long,
                                 "v2": data["trains"][1]["id"], "M": 1}]
        start = "error: headways[1]: repeats the headway "
    else:
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"expanded_arcs": [], "routes": {long: 5},
                                   "objective_value": 0, "cost_breakdown": {
                                       "expansion_cost_total": 0, "penalty_total": 0}}))
        argv, start = ["verify", str(path), str(sol)], "error: routes: "
    path.write_text(json.dumps(data))
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), out.err[:300]
    assert len(lines[0]) < 200 and "…" in lines[0], lines[0]


def test_a_headway_of_a_train_with_itself_is_an_input_error(tmp_path, capsys):
    # no row could keep a train from itself, so the entry would be misread
    data = json.loads((DATA / "bunched_corridor.json").read_text())
    tid = data["trains"][0]["id"]
    data["headways"] = [{"from": "S0", "to": "S1", "v1": tid, "v2": tid, "M": 2}]
    path = tmp_path / "self.json"
    path.write_text(json.dumps(data))
    assert cli.main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: HEADWAY_REF: headway names one train as both leading and following "
        f"(headway S0->S1 {tid}/{tid})\n")


@pytest.mark.parametrize("mode", ["arborescence", "sp", "milp"])
def test_solve_reports_no_answer_that_verify_rejects(tmp_path, capsys, monkeypatch, mode):
    # each solver, made to forget the expansion that carries the second
    # train: solve names the first violation, and reports and writes nothing
    def forgetful(solver):
        return lambda inst, *args: dataclasses.replace(solver(inst, *args), expanded_arcs=())

    if mode == "milp":
        monkeypatch.setattr(solver_bb, "extract_solution", forgetful(solver_bb.extract_solution))
    else:
        monkeypatch.setitem(cli._MODES, mode, tuple(map(forgetful, cli._MODES[mode])))
    path = write(tmp_path, line_instance(c=1, ce=1, k=4, n_trains=2, horizon=1, dwell=False))
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", path, "--mode", mode, "-o", str(sol)]) == 1
    out = capsys.readouterr()
    assert out.err == ("error: the answer fails verify: capacity: arc A->B scenario all: "
                       "2 departures in window [0,1) exceed 1\n")
    assert "status: optimal" not in out.out and not sol.exists()


def test_solve_invalid_instance(tmp_path, capsys):
    inst = line_instance(c=1, ce=0, k=0, n_trains=1)
    data = json.loads(Path(write(tmp_path, inst)).read_text())
    data["arcs"][0]["travel_time"] = 0
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(data))
    assert cli.main(["solve", str(p)]) == 1
    assert "ARC_TRAVEL_TIME" in capsys.readouterr().err


@pytest.mark.parametrize("where, patch", [
    ((), {"nodes": 5}),
    ((), {"headway_default": "x"}),
    (("trains", 0), {"optional": "yes", "penalty": 4}),
    (("trains", 0), {"optional": "false", "penalty": 4}),
], ids=["nodes-int", "headway-default-str", "optional-yes", "optional-false-str"])
def test_solve_mistyped_field(tmp_path, capsys, where, patch):
    data = json.loads(Path(write(tmp_path, line_instance(c=1, ce=0, k=0,
                                                         n_trains=1))).read_text())
    target = data
    for key in where:
        target = target[key]
    target.update(patch)
    p = tmp_path / "mistyped.json"
    p.write_text(json.dumps(data))
    assert cli.main(["solve", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_explicit_mode_mismatch(tmp_path, capsys):
    # dwell on: both special-case solvers refuse, and an explicit mode says so
    path = write(tmp_path, line_instance(c=1, ce=0, k=0, n_trains=1))
    for mode in ("sp", "arborescence"):
        assert cli.main(["solve", path, "--mode", mode]) == 1
        assert f"error: mode {mode}" in capsys.readouterr().err


def test_sp_mode_takes_multi_arcs(tmp_path, capsys):
    # two copies of s->t carry both trains at once; the arborescence solver
    # declines a multi-arc, so auto mode answers through the SP solver too
    net = mk_network([("s", "t", 1, 1, 0, 0, 2)])
    inst = Instance(network=net, horizon=1, capacity_window=1, allow_dwell=False,
                    trains=(mk_train("T0", "s", "t", 0, 1), mk_train("T1", "s", "t", 0, 1)))
    path = write(tmp_path, inst)
    out = tmp_path / "sol.json"
    for mode in ("sp", "auto"):
        assert cli.main(["solve", path, "--mode", mode, "-o", str(out)]) == 0
        assert "objective: 0" in capsys.readouterr().out
        assert set(load_solution(out).routes) == {"T0", "T1"}
    # with dwell on the SP solver declines as well, and the full model takes
    # no multi-arc: both commands that build it say so
    dwell = write(tmp_path, dataclasses.replace(inst, allow_dwell=True), "dwell.json")
    message = "multi-arc instances are only supported by the SP solver\n"
    assert cli.main(["solve", dwell]) == 1
    assert capsys.readouterr().err == "error: " + message
    assert cli.main(["export-lp", dwell]) == 1
    assert capsys.readouterr().err == "error: " + message


def test_sp_multi_arc_solution_verifies(tmp_path, capsys):
    # both copies of s->t are expanded, each listed once; verify checks the
    # file that solve --mode sp writes
    path = str(DATA / "sp_multi_arc.json")
    out = str(tmp_path / "sol.json")
    assert cli.main(["solve", path, "--mode", "sp", "-o", out]) == 0
    assert "objective: 8\n" in capsys.readouterr().out
    assert cli.main(["verify", path, out]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name, reason", [("sp_two_blocks", "longest path"),
                                          ("sp_two_scenarios", "one scenario")])
def test_auto_falls_back_where_sp_declines(name, reason, capsys):
    # series-parallel networks where timing or scenarios matter: the SP
    # solver declines, and auto mode answers from the full model
    path = str(DATA / f"{name}.json")
    assert cli.main(["solve", path]) == 0
    printed = capsys.readouterr().out
    assert "status: optimal" in printed and "objective: 0\n" in printed
    assert cli.main(["solve", path, "--mode", "sp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mode sp:") and reason in err


def test_solve_then_verify_round_trip(tmp_path, capsys):
    inst = line_instance(c=1, ce=1, k=4, n_trains=2, horizon=1, dwell=False)
    path = write(tmp_path, inst)
    out = str(tmp_path / "sol.json")
    assert cli.main(["solve", path, "-o", out]) == 0
    assert cli.main(["verify", path, out]) == 0
    assert capsys.readouterr().out.count("\t") == 0


def test_verify_reports_violations(tmp_path, capsys):
    inst = line_instance(c=1, ce=1, k=4, n_trains=2, horizon=1, dwell=False)
    path = write(tmp_path, inst)
    out = str(tmp_path / "sol.json")
    cli.main(["solve", path, "-o", out])
    capsys.readouterr()
    data = json.loads(Path(out).read_text())
    data["expanded_arcs"] = []
    (tmp_path / "mut.json").write_text(json.dumps(data))
    assert cli.main(["verify", path, str(tmp_path / "mut.json")]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(re.match(r"[a-z]+\t.+", ln) for ln in lines)


@pytest.mark.parametrize("patch", [
    {"routes": {"T": 5}},
    {"routes": [1]},
    {"routes": {"T00": [5]}},
    {"expanded_arcs": 5},
    {"expanded_arcs": [["a", "b", "c"]]},
], ids=["route-int", "routes-list", "step-int", "arcs-int", "arc-triple"])
def test_verify_mistyped_solution(tmp_path, capsys, patch):
    inst = line_instance(c=1, ce=1, k=4, n_trains=2, horizon=1, dwell=False)
    path = write(tmp_path, inst)
    out = str(tmp_path / "sol.json")
    assert cli.main(["solve", path, "-o", out]) == 0
    capsys.readouterr()
    data = json.loads(Path(out).read_text())
    data.update(patch)
    (tmp_path / "mistyped.json").write_text(json.dumps(data))
    assert cli.main(["verify", path, str(tmp_path / "mistyped.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_export_lp(tmp_path, capsys):
    path = write(tmp_path, line_instance(c=1, ce=1, k=5, n_trains=1, horizon=2,
                                         dwell=False))
    assert cli.main(["export-lp", path]) == 0
    text = capsys.readouterr().out
    assert text.startswith("\\ raildesign LP export")
    assert "Minimize" in text and text.rstrip().endswith("End")
    out = tmp_path / "model.lp"
    assert cli.main(["export-lp", path, "-o", str(out)]) == 0
    assert out.read_text() == text


def test_gen_x3c(tmp_path, capsys):
    out = str(tmp_path / "x3c.json")
    assert cli.main(["gen-x3c", "--q", "2", "--subsets", "4", "--seed", "11",
                     "--planted", "-o", out]) == 0
    sidecar = json.loads(Path(out + ".x3c.json").read_text())
    assert sidecar["threshold"] == 6
    assert sidecar["has_cover"] is True
    assert len(sidecar["subsets"]) == 4
    # generated instance solves consistently with the sidecar truth
    assert cli.main(["solve", out]) == 0
    printed = capsys.readouterr().out
    assert "objective: 6" in printed


@pytest.mark.parametrize("q, subsets", [(0, 1), (3, 2), (1, 5)])
def test_gen_x3c_without_such_a_draw_exits_1(tmp_path, capsys, q, subsets):
    # q < 1, fewer subsets than q, and more 3-sets than a ground set of 3q has
    out = tmp_path / "x.json"
    argv = ["gen-x3c", "--q", str(q), "--subsets", str(subsets), "--seed", "1", "-o", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_an_output_file_that_cannot_be_written_exits_1(tmp_path, capsys):
    path = write(tmp_path, line_instance(c=1, ce=0, k=0, n_trains=1))
    out = str(tmp_path / "no-such-dir" / "out.json")
    for argv in (["solve", path, "-o", out], ["export-lp", path, "-o", out],
                 ["gen-x3c", "--q", "2", "--subsets", "5", "--seed", "1", "-o", out]):
        assert cli.main(argv) == 1, argv
        printed = capsys.readouterr()
        # solve checks the directory before it loads and solves
        assert printed.err.startswith("error: ") and printed.out == "", argv
