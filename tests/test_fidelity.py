"""The artifact comparison of tools/fidelity.py on a directory of real artifacts."""

import importlib.util
import json
import os
import shutil

import pytest

from slipflow import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "fidelity", os.path.join(ROOT, "tools", "fidelity.py"))
fidelity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fidelity)
_spec = importlib.util.spec_from_file_location(
    "fidelity_matrix", os.path.join(ROOT, "tools", "fidelity_matrix.py"))
fidelity_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fidelity_matrix)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Artifacts of one `solve ns` run on an 8 x 16 Hamel annulus, with its exit code."""
    root = tmp_path_factory.mktemp("before")
    cfg = json.load(open(os.path.join(ROOT, "configs", "hamel.json")))
    cfg["mesh"] = {"generator": "annulus", "n_radial": 8, "n_angular": 16}
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    out = root / "ns"
    code = cli.main(["--deterministic", "solve", "ns", "--config", str(path), "--out", str(out)])
    (out / "exit_code").write_text(f"{code}\n")
    return root


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_directory_against_itself_is_identical(run_dir, capsys):
    result = fidelity.compare(run_dir, run_dir)
    assert set(result["artifacts"]) == {
        "config.json", "ns/exit_code", "ns/solution.vtk", "ns/boundary.csv",
        "ns/solution.json", "ns/trace.json"}
    assert set(result["artifacts"].values()) == {"identical"}
    assert result["outcomes"] == {}
    assert fidelity.main([str(run_dir), str(run_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "outcomes: 0 changed"


def test_perturbed_copy_reports_each_difference(run_dir, tmp_path, capsys):
    after = tmp_path / "after"
    shutil.copytree(run_dir, after)
    ns = after / "ns"
    # one velocity component, one CSV value, one metadata number, the counts
    vtk = (ns / "solution.vtk").read_text().splitlines()
    row = vtk.index("VECTORS velocity double") + 1
    u1 = float(vtk[row].split()[0])
    vtk[row] = " ".join(["%.16e" % (u1 + 1e-3)] + vtk[row].split()[1:])
    (ns / "solution.vtk").write_text("\n".join(vtk) + "\n")
    csv = (ns / "boundary.csv").read_text().splitlines()
    cells = csv[2].split(",")
    cells[2] = "%.16e" % (float(cells[2]) * 2)
    csv[2] = ",".join(cells)
    (ns / "boundary.csv").write_text("\n".join(csv) + "\n")
    solution = json.load(open(ns / "solution.json"))
    meta = solution["metadata"]
    meta["iterations"] += 1
    meta["stokes_lift_energy"] *= 1 + 1e-6
    (ns / "solution.json").write_text(json.dumps(solution))
    (ns / "exit_code").write_text("3\n")
    (ns / "extra.txt").write_text("new\n")

    result = fidelity.compare(run_dir, after)
    artifacts = result["artifacts"]
    assert artifacts["ns/trace.json"] == artifacts["config.json"] == "identical"
    assert artifacts["ns/extra.txt"] == "only in after"
    assert list(artifacts["ns/solution.vtk"]) == ["VECTORS velocity"]
    diff, rel = artifacts["ns/solution.vtk"]["VECTORS velocity"]
    assert diff == pytest.approx(1e-3, rel=1e-9) and 0 < rel < 1
    assert list(artifacts["ns/boundary.csv"]) == ["u_n"]
    assert set(artifacts["ns/solution.json"]) == {"metadata.iterations",
                                                  "metadata.stokes_lift_energy"}
    assert artifacts["ns/solution.json"]["metadata.stokes_lift_energy"][1] \
        == pytest.approx(1e-6, rel=1e-6)
    assert result["outcomes"] == {
        "ns/exit_code": (0, 3),
        "ns/solution.json:metadata.iterations": (meta["iterations"] - 1, meta["iterations"])}
    assert fidelity.main([str(run_dir), str(after)]) == 1
    out = capsys.readouterr().out
    assert "ns/solution.vtk: differs" in out and "outcomes: 2 changed" in out
    assert fidelity.main([str(run_dir), str(tmp_path / "missing")]) == 2


def test_matrix_subset_runs_and_compares(tmp_path):
    # two cases of the command matrix, each in its own subprocess on this
    # tree: one converging solve and the solve below the roundoff floor
    names = ("couette-ns", "hamel-ns-roundoff-floor")
    cases = [case for case in fidelity_matrix.MATRIX if case[0] in names]
    assert len(fidelity_matrix.MATRIX) == 42 and len(cases) == 2
    assert {f"{config}-mesh" for config in fidelity_matrix.CONFIGS} | {"audit-twohole-0-mesh"} \
        <= {name for name, _ in fidelity_matrix.MATRIX}
    codes = fidelity_matrix.run_matrix(ROOT, tmp_path, cases)
    assert codes == {"couette-ns": 0, "hamel-ns-roundoff-floor": 3}
    assert (tmp_path / "couette-ns" / "exit_code").read_text() == "0\n"
    stopped = json.load(open(tmp_path / "hamel-ns-roundoff-floor" / "out" / "trace.json"))
    assert [stop["reason"] for stop in stopped["stops"]] == ["stalled"]
    result = fidelity.compare(tmp_path, tmp_path)
    assert {"couette-ns/out/solution.vtk", "couette-ns/config.json",
            "hamel-ns-roundoff-floor/exit_code"} <= set(result["artifacts"])
    assert set(result["artifacts"].values()) == {"identical"}
    assert result["outcomes"] == {}


def test_changed_list_reported_by_its_first_difference(run_dir, tmp_path, capsys):
    # the phases of a run stopped after 60 steps against one converged in 26
    before, after = tmp_path / "before", tmp_path / "after"
    for root, phases in ((before, ["anderson@1"] * 60),
                         (after, ["anderson@1"] * 22 + ["newton@1"] * 4)):
        shutil.copytree(run_dir, root)
        trace = json.load(open(root / "ns" / "trace.json"))
        trace["phases"] = phases
        (root / "ns" / "trace.json").write_text(json.dumps(trace))
    note = 'length 60 -> 26, first difference at [22]: "anderson@1" -> "newton@1"'
    result = fidelity.compare(before, after)
    assert result["artifacts"]["ns/trace.json"] == {"phases": note}
    assert list(result["outcomes"]) == ["ns/trace.json:phases"]
    assert fidelity.main([str(before), str(after)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"  phases: {note}" in lines and f"  ns/trace.json:phases: {note}" in lines
    assert all(len(line) < 200 for line in lines)
