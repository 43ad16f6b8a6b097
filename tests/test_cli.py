import json
import os

import numpy as np
import pytest

from slipflow import cli
from slipflow import validation as val
from slipflow.errors import ConfigurationError
from slipflow.meshing import import_mesh


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def hamel_config(tmp_path, **overrides):
    cfg = json.load(open(os.path.join(CONFIG_DIR, "hamel.json")))
    cfg["mesh"] = {"generator": "annulus", "n_radial": 8, "n_angular": 16}
    for key, value in overrides.items():
        block, _, name = key.partition(".")
        if name:
            cfg.setdefault(block, {})[name] = value
        else:
            cfg[block] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_packaged_schema_is_the_enforced_one(self, tmp_path, monkeypatch):
        from importlib import resources
        packaged = json.loads(
            resources.files("slipflow").joinpath("config_schema.json").read_text())
        assert packaged["required"] == ["domain", "physics", "boundary"]
        assert cli.config_validator().schema == packaged
        # an output key that nothing but the packaged schema forbids
        path = hamel_config(tmp_path, output={"directory": str(tmp_path), "note": "x"})
        argv = ["mesh", "--config", path, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        permissive = type(cli.config_validator())({})
        monkeypatch.setattr(cli, "config_validator", lambda: permissive)
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("setting, literal, key", [
        ({"mesh.target_h": float("nan")}, None, "mesh.target_h"),
        ({"physics.nu": float("inf")}, None, "physics.nu"),
        ({"mesh.n_radial": -float("inf")}, None, "mesh.n_radial"),
        ({"boundary.b_tau": [0.0, float("inf")]}, "1e400", "boundary.b_tau.1"),
    ], ids=["nan", "inf", "minus-inf", "overflow"])
    def test_non_finite_number_rejected_at_load(self, tmp_path, capsys, setting, literal, key):
        # json reads NaN and Infinity tokens, and 1e400 overflows to inf
        path = hamel_config(tmp_path, **setting)
        if literal:
            written = tmp_path / "config.json"
            written.write_text(written.read_text().replace("Infinity", literal))
        with pytest.raises(ConfigurationError, match=rf"at {key} is not a finite number"):
            cli.load_config(path)
        out = tmp_path / "out"
        assert cli.main(["mesh", "--config", path, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_golden_configs_validate(self):
        for name in ("hamel", "couette", "theorem1_pass", "symmetric_domain"):
            cfg = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
            cli.build_domain(cfg)
            cli.build_data(cfg, cli.build_domain(cfg))

    @pytest.mark.parametrize("make", [
        lambda path: path.write_text('{"domain": '),
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"domain": "\xff\xfe"}'),
    ], ids=["truncated-json", "missing", "directory", "invalid-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, make):
        path = tmp_path / "config.json"
        make(path)
        with pytest.raises(ConfigurationError, match=f"cannot read config {path}"):
            cli.load_config(str(path))
        out = tmp_path / "out"
        assert cli.main(["audit", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_keys_rejected(self, tmp_path):
        path = hamel_config(tmp_path, typo={"oops": 1})
        assert cli.main(["audit", "--config", path, "--out", str(tmp_path)]) == 2

    def test_picard_budget_key_rejected(self, tmp_path, capsys):
        # the default mode needs no Picard budget, and the key no longer exists
        path = hamel_config(tmp_path, **{"solver.picard_iterations": 8})
        out = tmp_path / "out"
        assert cli.main(["solve", "ns", "--config", path, "--out", str(out)]) == 2
        assert "picard_iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_expression_boundary_values(self, tmp_path):
        path = hamel_config(
            tmp_path,
            boundary={"a_star": ["-1.5 - 0.2*cos(theta)", "3.0 + 0.4*cos(theta)"],
                      "b_tau": [0.0, 0.0]})
        assert cli.main(["audit", "--config", path, "--out", str(tmp_path)]) == 0

    def test_malicious_expression_rejected(self, tmp_path):
        path = hamel_config(
            tmp_path,
            boundary={"a_star": ["__import__('os').system('true')", "0.0"],
                      "b_tau": [0.0, 0.0]})
        assert cli.main(["audit", "--config", path, "--out", str(tmp_path)]) == 2


class TestMeshImport:
    @pytest.mark.parametrize("suffix, pick, edit", [
        ("node", lambda fields: True, lambda fields: fields[:2]),   # no y coordinate
        ("ele", lambda fields: True, lambda fields: fields[:1] + ["1.5"] + fields[2:]),
        ("node", lambda fields: fields[-1] == "0",                  # an interior vertex
         lambda fields: fields[:1] + ["nan"] + fields[2:]),
    ], ids=["short-node-row", "non-integer-ele-field", "nan-interior-coordinate"])
    def test_malformed_mesh_file_exit_code(self, tmp_path, capsys, suffix, pick, edit):
        path = hamel_config(tmp_path, mesh={"generator": "annulus", "n_radial": 4,
                                            "n_angular": 16})
        written = tmp_path / "written"
        assert cli.main(["mesh", "--config", path, "--out", str(written)]) == 0
        target = written / f"mesh.{suffix}"
        lines = target.read_text().splitlines()
        data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
        row = next(i for i in data if pick(lines[i].split()))
        lines[row] = " ".join(edit(lines[row].split()))
        target.write_text("\n".join(lines) + "\n")
        path = hamel_config(tmp_path, mesh={"generator": "import",
                                            "node_file": str(written / "mesh.node"),
                                            "ele_file": str(written / "mesh.ele")})
        capsys.readouterr()
        assert cli.main(["mesh", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"mesh.{suffix}, line {row + 1}:" in capsys.readouterr().err


class TestSubcommands:
    def test_audit_golden(self, tmp_path):
        path = hamel_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["audit", "--config", path, "--out", str(out)]) == 0
        report = json.load(open(out / "audit.json"))
        assert report["theorem_friction_curvature"]["verdict"] is False
        assert report["theorem_friction_curvature"]["margin"] == pytest.approx(
            -0.25, abs=1e-12)
        assert report["theorem_outflow_convex_hole"]["verdict"] is False
        assert abs(report["fluxes"]["total"]) < 1e-10
        assert "provenance" in report

    def test_mesh_roundtrip(self, tmp_path):
        path = hamel_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["mesh", "--config", path, "--out", str(out)]) == 0
        domain = cli.build_domain(cli.load_config(path))
        mesh = import_mesh(str(out / "mesh.node"), str(out / "mesh.ele"), domain)
        assert mesh.n_vertices == 9 * 16

    def test_solve_ns_hamel(self, tmp_path):
        path = hamel_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "ns", "--config", path, "--out", str(out)]) == 0
        meta = json.load(open(out / "solution.json"))["metadata"]
        assert meta["residual"] <= 1e-10
        assert (out / "boundary.csv").exists()
        assert (out / "trace.json").exists()
        # VTK point count equals vertex + midside node count
        vtk = open(out / "solution.vtk").read().splitlines()
        points_line = next(l for l in vtk if l.startswith("POINTS"))
        domain = cli.build_domain(cli.load_config(path))
        mesh = cli.build_mesh(cli.load_config(path), domain)
        assert int(points_line.split()[1]) == mesh.n_p2_nodes
        # boundary profile carries the prescribed normal trace on component 0
        rows = [line.split(",") for line in
                open(out / "boundary.csv").read().splitlines()[2:] if line]
        u_n = [float(r[2]) for r in rows if r[0] == "0"]
        assert np.allclose(u_n, -1.5, atol=5e-3)

    def test_solve_ns_symmetric_subspace_matches_full_space(self, tmp_path):
        # the shipped 12 x 32 symmetric config solved on the mirror subspace
        # and in the full space: the same iterations, one factorization each,
        # a symmetric velocity and the same one
        cfg = json.load(open(os.path.join(CONFIG_DIR, "symmetric_domain.json")))
        velocity, defects = {}, []
        for symmetric in (True, False):
            cfg["solver"]["symmetric_subspace"] = symmetric
            path = tmp_path / f"config_{symmetric}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"out_{symmetric}"
            argv = ["--deterministic", "solve", "ns", "--config", str(path), "--out", str(out)]
            assert cli.main(argv) == 0
            meta = json.load(open(out / "solution.json"))["metadata"]
            assert (meta["iterations"], meta["factorizations"]) == (10, 1)
            defects.append(meta.get("symmetry_defect"))
            vtk = open(out / "solution.vtk").read().splitlines()
            start = vtk.index("VECTORS velocity double") + 1
            velocity[symmetric] = np.loadtxt(vtk[start:start + int(vtk[4].split()[1])])
        assert defects[0] <= 1e-10 and defects[1] is None
        gap = np.linalg.norm(velocity[True] - velocity[False])
        assert gap <= 1e-10 * np.linalg.norm(velocity[False])

    def test_incompatible_flux_exit_code(self, tmp_path):
        path = hamel_config(tmp_path,
                            boundary={"a_star": [1.0, 1.0], "b_tau": [0.0, 0.0]})
        assert cli.main(["solve", "ns", "--config", path,
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("problem", ["stokes", "ns"])
    def test_non_finite_boundary_data_exit_code(self, tmp_path, problem):
        path = hamel_config(tmp_path,
                            mesh={"generator": "annulus", "n_radial": 4, "n_angular": 16},
                            boundary={"a_star": [-1.5, 3.0], "b_tau": ["x1/0", 0.0]})
        out = tmp_path / "out"
        assert cli.main(["solve", problem, "--config", path, "--out", str(out)]) == 2
        assert not (out / "solution.vtk").exists()
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize("problem", ["stokes", "ns"])
    def test_non_finite_nodal_normal_datum_exit_code(self, tmp_path, capsys, problem):
        # finite at every flux and friction quadrature point, inf at the
        # outer boundary node t = 0.5
        path = hamel_config(tmp_path,
                            mesh={"generator": "annulus", "n_radial": 4, "n_angular": 16},
                            physics={"nu": 1.0, "beta": [1.0, 1.0], "f": None},
                            boundary={"a_star": ["1/(t-0.5)", 0.0], "b_tau": [0.0, 0.0]})
        out = tmp_path / "out"
        assert cli.main(["solve", problem, "--config", path, "--out", str(out)]) == 2
        assert "not finite at a boundary node" in capsys.readouterr().err
        assert not (out / "solution.vtk").exists()

    @pytest.mark.parametrize("command", [["audit"], ["solve", "stokes"]])
    @pytest.mark.parametrize("expression", ["1/0", "10**400"])
    def test_unevaluable_expression_exit_code(self, tmp_path, capsys, command, expression):
        # 10**400 is an exact Python int; as the float it is evaluated as, it overflows
        path = hamel_config(tmp_path,
                            mesh={"generator": "annulus", "n_radial": 4, "n_angular": 16},
                            boundary={"a_star": [-1.5, 3.0], "b_tau": [expression, 0.0]})
        out = tmp_path / "out"
        assert cli.main([*command, "--config", path, "--out", str(out)]) == 2
        assert "has no real value" in capsys.readouterr().err
        assert not (out / "solution.vtk").exists()
        assert not (out / "audit.json").exists()

    @pytest.mark.parametrize("setting, pin", [
        ({"solver.lambda_schedule": []}, []),
        ({"solver.lambda_schedule": [float("nan")]}, []),
        ({"solver.tolerance": float("nan")}, []),
        ({"solver.damping": float("nan")}, []),
        ({"physics.nu": float("nan")}, []),
        ({"physics.nu": float("inf")}, []),
        ({}, ["--pin", "1=nan"]),
        ({}, ["--pin", "1=inf"]),
    ], ids=["empty-schedule", "nan-schedule", "nan-tolerance", "nan-damping", "nan-nu",
            "inf-nu", "nan-pin", "inf-pin"])
    def test_non_finite_or_empty_solver_value_exit_code(self, tmp_path, capsys, setting, pin):
        path = hamel_config(tmp_path, mesh={"generator": "annulus", "n_radial": 4,
                                            "n_angular": 16}, **setting)
        out = tmp_path / "out"
        assert cli.main(["solve", "ns", "--config", path, "--out", str(out), *pin]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() or not any(out.iterdir())

    def test_audit_non_finite_normal_datum_exit_code(self, tmp_path, capsys):
        # x1/0 is +-inf (NaN at x1 = 0) at the exact-curve flux points
        path = hamel_config(tmp_path,
                            mesh={"generator": "annulus", "n_radial": 4, "n_angular": 16},
                            boundary={"a_star": ["-1.5 + x1/0", 3.0], "b_tau": [0.0, 0.0]})
        out = tmp_path / "out"
        assert cli.main(["audit", "--config", path, "--out", str(out)]) == 2
        assert "not finite at a boundary flux quadrature point" in capsys.readouterr().err
        assert not (out / "audit.json").exists()

    def test_audit_non_finite_friction_exit_code(self, tmp_path, capsys):
        # 0*x1/0 is NaN at every point of the outer boundary
        path = hamel_config(tmp_path,
                            mesh={"generator": "annulus", "n_radial": 4, "n_angular": 16},
                            physics={"nu": 1.0, "beta": ["0*x1/0", 0.0], "f": None})
        out = tmp_path / "out"
        assert cli.main(["audit", "--config", path, "--out", str(out)]) == 2
        assert "friction coefficient is not finite" in capsys.readouterr().err
        assert not (out / "audit.json").exists()

    def test_invalid_mesh_exit_code(self, tmp_path):
        # with 8 cells around, the snapped midnodes fold the thin boundary elements
        path = hamel_config(tmp_path,
                            mesh={"generator": "annulus", "n_radial": 4, "n_angular": 8})
        assert cli.main(["solve", "stokes", "--config", path,
                         "--out", str(tmp_path / "o")]) == 2

    HOLE = {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}
    NAN = float("nan")

    @pytest.mark.parametrize("curves", [
        [{"kind": "circle", "center": [0.0, 0.0], "radius": 2.0},
         {"kind": "circle", "center": [5.0, 0.0], "radius": 0.5}],
        [{"kind": "circle", "center": [0.0, 0.0], "radius": 2.0},
         {"kind": "circle", "center": [0.0, 0.0], "radius": 3.0}],
        [{"kind": "spline", "points": [[2, 0], [0, 2], [-2, 0]]}, HOLE],
        [{"kind": "spline", "points": [[0, 0], [1, 0], [2, 0], [1, 0]]}, HOLE],
        [{"kind": "circle", "center": [0.0, 0.0], "radius": NAN}, HOLE],
        [{"kind": "circle", "center": [NAN, 0.0], "radius": 2.0}, HOLE],
        [{"kind": "spline", "points": [[2, 0], [0, 2], [-2, NAN], [0, -2]]}, HOLE],
    ], ids=["hole-outside", "hole-larger", "three-point-spline", "degenerate-tangent",
            "nan-radius", "nan-center", "nan-spline-point"])
    def test_invalid_geometry_exit_code(self, tmp_path, capsys, curves):
        path = hamel_config(tmp_path, domain={"curves": curves})
        out = tmp_path / "out"
        assert cli.main(["solve", "stokes", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_non_finite_target_h_exit_code(self, tmp_path, capsys):
        path = hamel_config(tmp_path, mesh={"generator": "disk", "target_h": self.NAN})
        out = tmp_path / "out"
        assert cli.main(["mesh", "--config", path, "--out", str(out)]) == 2
        assert "target_h" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_non_convergence_exit_code_writes_trace(self, tmp_path):
        path = hamel_config(tmp_path,
                            solver={"mode": "picard", "max_iterations": 2,
                                    "tolerance": 1e-14, "pins": {"1": 0.0}})
        out = tmp_path / "out"
        assert cli.main(["solve", "ns", "--config", path, "--out", str(out)]) == 3
        trace = json.load(open(out / "trace.json"))
        assert len(trace["residuals"]) == 2
        assert trace["linear"] == ["direct", "direct"]
        assert trace["krylov_iterations"] == [0, 0]
        assert all(r <= 1e-8 for r in trace["linear_relres"])
        assert trace["stops"] == [{"lambda": 1.0, "newton_from": None,
                                   "reason": "max_iterations"}]
        assert "no convergence" in trace["error"]

    def test_pin_flag_overrides(self, tmp_path):
        path = hamel_config(tmp_path, solver={"tolerance": 1e-10})
        out = tmp_path / "out"
        code = cli.main(["solve", "ns", "--config", path, "--out", str(out),
                         "--pin", f"1={2 * np.pi}"])
        assert code == 0
        meta = json.load(open(out / "solution.json"))["metadata"]
        assert meta["circulations"]["1"] == pytest.approx(2 * np.pi)
        # one factorization: every accelerated Picard step back-solves with it
        assert meta["factorizations"] == 1
        trace = json.load(open(out / "trace.json"))
        assert trace["linear"] == ["direct"] * 12
        assert trace["krylov_iterations"] == [0] * 12

    def test_korn_constants(self, tmp_path):
        path = hamel_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["korn", "--config", path, "--out", str(out)]) == 0
        payload = json.load(open(out / "constants.json"))
        assert payload["korn"]["K"] > 0
        assert payload["sobolev"]["C_r"] > 0

    def test_diagnose(self, tmp_path):
        path = hamel_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["diagnose", "--config", path, "--out", str(out)]) == 0
        bern = json.load(open(out / "bernoulli.json"))
        assert len(bern["component_means"]) == 2
        res = json.load(open(out / "residuals.json"))
        assert res["nonlinear_residual"] <= 1e-10

    def test_diagnose_non_convergence_writes_trace(self, tmp_path):
        path = hamel_config(tmp_path, solver={"max_iterations": 1, "tolerance": 1e-14,
                                              "pins": {"1": 0.0}})
        out = tmp_path / "out"
        assert cli.main(["diagnose", "--config", path, "--out", str(out)]) == 3
        trace = json.load(open(out / "trace.json"))
        assert len(trace["residuals"]) == 1
        assert "no convergence" in trace["error"]
        assert not (out / "residuals.json").exists()

    def test_validate_couette(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["validate", "couette", "--levels", "2",
                         "--out", str(out)]) == 0
        lines = open(out / "convergence_couette.csv").read().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "level,h,eL2_u,order,eH1_u,order,eL2_p,order"

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_validate_needs_a_level(self, tmp_path, capsys, levels):
        out = tmp_path / "out"
        assert cli.main(["validate", "couette", "--levels", levels, "--out", str(out)]) == 2
        assert "--levels must be at least 1" in capsys.readouterr().err
        assert not (out / "convergence_couette.csv").exists()


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        path = hamel_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["--deterministic", "solve", "ns", "--config", path,
                             "--out", str(out)]) == 0
            assert cli.main(["--deterministic", "audit", "--config", path,
                             "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("solution.vtk", "boundary.csv", "solution.json",
                         "trace.json", "audit.json"):
            b1 = open(outs[0] / artifact, "rb").read()
            b2 = open(outs[1] / artifact, "rb").read()
            assert b1 == b2, f"{artifact} differs between identical runs"
