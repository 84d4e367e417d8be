import json
import re

import pytest

from helpers import line_instance, run_fresh
from raildesign import cli
from raildesign.model import load_solution, save_instance


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


def test_solve_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    assert cli.main(["solve", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_invalid_instance(tmp_path, capsys):
    inst = line_instance(c=1, ce=0, k=0, n_trains=1)
    data = json.loads(open(write(tmp_path, inst)).read())
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
    data = json.loads(open(write(tmp_path, line_instance(c=1, ce=0, k=0,
                                                         n_trains=1))).read())
    target = data
    for key in where:
        target = target[key]
    target.update(patch)
    p = tmp_path / "mistyped.json"
    p.write_text(json.dumps(data))
    assert cli.main(["solve", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_explicit_mode_mismatch(tmp_path, capsys):
    inst = line_instance(c=1, ce=0, k=0, n_trains=1)  # dwell on: SP solver refuses
    assert cli.main(["solve", write(tmp_path, inst), "--mode", "sp"]) == 1
    assert "error: mode sp" in capsys.readouterr().err


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
    data = json.loads(open(out).read())
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
    data = json.loads(open(out).read())
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
    sidecar = json.loads(open(out + ".x3c.json").read())
    assert sidecar["threshold"] == 6
    assert sidecar["has_cover"] is True
    assert len(sidecar["subsets"]) == 4
    # generated instance solves consistently with the sidecar truth
    assert cli.main(["solve", out]) == 0
    printed = capsys.readouterr().out
    assert "objective: 6" in printed
