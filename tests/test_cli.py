import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

from slipflow import cli
from slipflow import linear_solvers as ls
from slipflow import validation as val
from slipflow.errors import ConfigurationError
from slipflow.meshing import import_mesh


ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")


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


def perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def config_corpus():
    """The shipped configs and the distinct ones the benchmark generates for seeds 0-3."""
    configs = [json.load(open(os.path.join(CONFIG_DIR, name)))
               for name in sorted(os.listdir(CONFIG_DIR))]
    configs += [make(random.Random(seed))[0]
                for make in perfbench_workloads().GENERATORS.values() for seed in range(4)]
    return list(map(json.loads, dict.fromkeys(json.dumps(c, sort_keys=True) for c in configs)))


def subschemas(schema):
    """schema and, depth first, every schema inside it."""
    yield schema
    inner = [*schema.get("properties", {}).values(),
             *schema.get("patternProperties", {}).values()]
    for sub in inner + ([schema["items"]] if "items" in schema else []):
        yield from subschemas(sub)


def reference_validator(schema):
    """jsonschema's validator of schema, with the interpreter's integer rule:
    an integral float such as 8.0 is no integer."""
    base = jsonschema.validators.validator_for(schema)
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool))
    return jsonschema.validators.extend(base, type_checker=checker)(schema)


def json_locations(value, path=()):
    """Key path of every node of a JSON value, the root first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_locations(item, (*path, key))


def json_node(value, path):
    for key in path:
        value = value[key]
    return value


class TestConfig:
    def test_packaged_schema_is_the_enforced_one(self, tmp_path, monkeypatch):
        from importlib import resources
        packaged = json.loads(
            resources.files("slipflow").joinpath("config_schema.json").read_text())
        assert packaged["required"] == ["domain", "physics", "boundary"]
        assert cli.config_schema() == packaged
        # an output key that nothing but the packaged schema forbids
        path = hamel_config(tmp_path, output={"directory": str(tmp_path), "note": "x"})
        argv = ["mesh", "--config", path, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        monkeypatch.setattr(cli, "config_schema", lambda: {})
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("setting, literal, key, reason", [
        ({"mesh.target_h": float("nan")}, None, "mesh.target_h", " is not a finite number"),
        ({"physics.nu": float("inf")}, None, "physics.nu", " is not a finite number"),
        ({"mesh.n_radial": -float("inf")}, None, "mesh.n_radial", " is not a finite number"),
        ({"boundary.b_tau": [0.0, float("inf")]}, "1e400", "boundary.b_tau.1",
         " is not a finite number"),
        # an integer key takes JSON integers only; 8.0 once passed the schema
        # check and then raised TypeError in the mesher or the solver
        ({"mesh.n_radial": 8.0}, None, "mesh.n_radial", ": 8.0 is not of type 'integer'"),
        ({"solver.max_iterations": 60.0}, None, "solver.max_iterations",
         ": 60.0 is not of type 'integer'"),
    ], ids=["nan", "inf", "minus-inf", "overflow", "float-n-radial", "float-max-iterations"])
    def test_non_finite_number_rejected_at_load(self, tmp_path, capsys, setting, literal, key,
                                                reason):
        # json reads NaN and Infinity tokens, and 1e400 overflows to inf
        path = hamel_config(tmp_path, **setting)
        if literal:
            written = tmp_path / "config.json"
            written.write_text(written.read_text().replace("Infinity", literal))
        with pytest.raises(ConfigurationError, match=re.escape(f"at {key}{reason}")):
            cli.load_config(path)
        out = tmp_path / "out"
        assert cli.main(["mesh", "--config", path, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_packaged_schema_is_a_valid_schema(self):
        # the run-time validator trusts the packaged schema; it is checked here
        schema = cli.config_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_schema_uses_only_implemented_keywords(self):
        # the interpreter raises on a keyword it lacks, but only where a
        # config reaches it; every keyword of the packaged schema is checked here
        used = {keyword for sub in subschemas(cli.config_schema()) for keyword in sub}
        assert used <= set(cli.SCHEMA_KEYWORDS), used - set(cli.SCHEMA_KEYWORDS)
        with pytest.raises(NotImplementedError, match="'format'"):
            next(cli.schema_errors({"format": "uri"}, "x"))
        with pytest.raises(NotImplementedError, match="additionalProperties"):
            next(cli.schema_errors({"additionalProperties": {"type": "number"}}, {"a": 1}))

    def test_interpreter_agrees_with_jsonschema_at_every_bound(self):
        # every number of the shipped and the benchmark's configs set to each
        # bound of the schema, to one below and to one above it, as an
        # integer and as a float
        schema = cli.config_schema()
        reference = reference_validator(schema)
        # the one departure from jsonschema, which takes 8.0 for an integer
        integer = {"type": "integer"}
        assert jsonschema.validators.validator_for(integer)(integer).is_valid(8.0)
        assert not reference_validator(integer).is_valid(8.0)
        bounds = {sub[k] for sub in subschemas(schema)
                  for k in ("minimum", "exclusiveMinimum") if k in sub}
        edges = sorted({edge for bound in bounds for edge in (bound - 1, bound, bound + 1)})
        edges += [float(edge) for edge in edges] + [0.5]
        checked = 0
        for cfg in config_corpus():
            for path in json_locations(cfg):
                parent = json_node(cfg, path[:-1])
                value = parent[path[-1]] if path else cfg
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                for edge in edges:
                    parent[path[-1]] = edge
                    found = next(cli.schema_errors(schema, cfg), None)
                    assert (found is None) == reference.is_valid(cfg), (path, edge, found)
                    checked += 1
                parent[path[-1]] = value
        assert checked > 500

    def test_interpreter_agrees_with_jsonschema(self):
        # mutated shipped and benchmark configs: values replaced by random
        # JSON, keys and items dropped, keys and items added
        from hypothesis import given, settings, strategies as st
        schema = cli.config_schema()
        reference = reference_validator(schema)
        configs = config_corpus()
        names = st.sampled_from(sorted({key for cfg in configs for path in json_locations(cfg)
                                        for key in path if isinstance(key, str)} | {"note"}))
        leaves = (st.none() | st.booleans() | st.integers(-3, 100)
                  | st.floats(-100, 100, allow_nan=False) | st.text(max_size=4)
                  | st.sampled_from([0, 2, 8, 2.0, 8.0, 0.5, "1", "circle", "disk", "newton"]))
        json_values = st.recursive(
            leaves, lambda children: st.lists(children, max_size=3)
            | st.dictionaries(names | st.text(max_size=3), children, max_size=3),
            max_leaves=6)
        accepted = []

        @settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @given(st.data())
        def check(data):
            cfg = json.loads(json.dumps(data.draw(st.sampled_from(configs))))
            for _ in range(data.draw(st.integers(1, 3))):
                path = data.draw(st.sampled_from(list(json_locations(cfg))))
                action = data.draw(st.sampled_from(["replace", "drop", "add"]))
                if path and action != "add":
                    parent = json_node(cfg, path[:-1])
                    if action == "replace":
                        parent[path[-1]] = data.draw(json_values)
                    else:
                        del parent[path[-1]]
                    continue
                target = json_node(cfg, path)
                if isinstance(target, dict):
                    target[data.draw(names | st.text(max_size=3))] = data.draw(json_values)
                elif isinstance(target, list):
                    target.append(data.draw(json_values))
            found = list(cli.schema_errors(schema, cfg))
            expected = [tuple(e.absolute_path) for e in reference.iter_errors(cfg)]
            assert bool(found) == bool(expected), (cfg, found, expected)
            # each error lies at or under a place jsonschema faults, and each
            # of those places holds an error (jsonschema reports an unknown or
            # a missing key at its object, the interpreter at the key)
            assert all(any(key[:len(e)] == e for e in expected) for key, _ in found)
            assert all(any(key[:len(e)] == e for key, _ in found) for e in expected)
            accepted.append(not found)

        check()
        assert 0.05 < np.mean(accepted) < 0.95, np.mean(accepted)

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
        # the retired settings of the damped Picard iteration: the Picard
        # budget, the damping knob and the plain Picard mode; each error
        # names its key
        for setting, key in (({"solver.picard_iterations": 8}, "picard_iterations"),
                             ({"solver.damping": 0.5}, "damping"),
                             ({"solver.mode": "picard"}, "solver.mode")):
            path = hamel_config(tmp_path, **setting)
            out = tmp_path / "out"
            assert cli.main(["solve", "ns", "--config", path, "--out", str(out)]) == 2, key
            assert key in capsys.readouterr().err
            assert not out.exists(), key

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

    def test_audit_reports_match_the_documented_schema(self, tmp_path):
        # docs/audit_schema.json describes audit.json; it is itself a valid
        # schema, and the audits of the theorem-1 annulus and of a two-hole
        # disk (the benchmark's audit workload) follow it
        schema = json.load(open(os.path.join(ROOT, "docs", "audit_schema.json")))
        validator = jsonschema.validators.validator_for(schema)
        validator.check_schema(schema)
        twohole = perfbench_workloads().generate("audit-twohole", 0, str(tmp_path / "twohole"))
        for name, path in (("theorem1", os.path.join(CONFIG_DIR, "theorem1_pass.json")),
                           ("twohole", twohole.config_path)):
            out = tmp_path / name
            assert cli.main(["audit", "--config", path, "--out", str(out)]) == 0
            validator(schema).validate(json.load(open(out / "audit.json")))

    def test_audit_with_a_large_exponent_writes_strict_json(self, tmp_path):
        # |u|^1000 overflowed in the L^q norm, and audit.json held Infinity
        cfg = json.load(open(os.path.join(CONFIG_DIR, "theorem1_pass.json")))
        cfg["audit"] = {"q": 1000}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["audit", "--config", str(path), "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-finite number {token} in audit.json")
        report = json.loads((out / "audit.json").read_text(), parse_constant=reject)
        small_flux = report["theorem_small_flux"]
        assert np.isfinite(small_flux["harmonic_part_lq_norm"]) and np.isfinite(small_flux["lhs"])

    @pytest.mark.parametrize("radius, n_angular, beta", [(1.01, 64, 1.0), (1.001, 600, 0.0)],
                             ids=["0.01-wide", "0.001-wide"])
    def test_thin_annulus_with_force_audits_in_bounded_time(self, tmp_path, radius, n_angular,
                                                            beta):
        # the mirror check reads the force at the mesh's quadrature points.  A
        # random interior sampler once looped for ever on the 0.01-wide annulus,
        # and on the 0.001-wide one found no point and exited 2.  f1 = x2 is odd
        # in x2.  The 0.001-wide annulus has zero friction, so the audit skips
        # the Korn constant, whose eigenvalue loop does not converge there.
        cfg = {
            "domain": {"curves": [{"kind": "circle", "center": [0.0, 0.0], "radius": radius},
                                  {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}]},
            "mesh": {"generator": "annulus", "n_radial": 2, "n_angular": n_angular},
            "physics": {"nu": 1.0, "beta": [beta, beta], "f": ["x2", "0"]},
            "boundary": {"a_star": [0.0, 0.0], "b_tau": [0.0, 0.0]},
        }
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        done = subprocess.run([sys.executable, "-m", "slipflow.cli", "audit", "--config",
                               str(path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        report = json.load(open(out / "audit.json"))
        assert report["theorem_symmetric"]["admissible"] is True
        assert report["theorem_symmetric"]["data_symmetric"] is False

    def test_mesh_roundtrip(self, tmp_path):
        path = hamel_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["mesh", "--config", path, "--out", str(out)]) == 0
        domain = cli.build_domain(cli.load_config(path))
        mesh = import_mesh(str(out / "mesh.node"), str(out / "mesh.ele"), domain)
        assert mesh.n_vertices == 9 * 16

    def test_off_origin_annulus_meshes_the_config_circles(self, tmp_path):
        # the couette annulus moved to centre (5, 0) is meshed on its own
        # circles, and its Stokes solution is the origin-centred one moved
        cfg = json.load(open(os.path.join(CONFIG_DIR, "couette.json")))
        moved = json.loads(json.dumps(cfg))
        for curve in moved["domain"]["curves"]:
            curve["center"] = [5.0, 0.0]
        velocity = {}
        for name, config in (("origin", cfg), ("moved", moved)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / name
            assert cli.main(["solve", "stokes", "--config", str(path), "--out", str(out)]) == 0
            vtk = open(out / "solution.vtk").read().splitlines()
            start = vtk.index("VECTORS velocity double") + 1
            velocity[name] = np.loadtxt(vtk[start:start + int(vtk[4].split()[1])])
        domain = cli.build_domain(moved)
        mesh = cli.build_mesh(moved, domain)
        radius = np.hypot(*(mesh.vertices - [5.0, 0.0]).T)
        on = mesh.node_component[:mesh.n_vertices]
        assert np.allclose(radius[on == 0], 2.0, rtol=0, atol=1e-12)
        assert np.allclose(radius[on == 1], 1.0, rtol=0, atol=1e-12)
        assert np.all((radius > 1.0 - 1e-12) & (radius < 2.0 + 1e-12))
        assert np.allclose(velocity["moved"], velocity["origin"], rtol=0, atol=1e-9)

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

    def test_solve_ns_factors_once(self, tmp_path, monkeypatch):
        # the saddle core is the one SuperLU factor of a solve and its
        # artifacts: the projections written to the VTK file factor nothing
        import scipy.sparse.linalg as spla
        factored = []
        monkeypatch.setattr(spla, "splu", lambda A, real=spla.splu, **kw:
                            factored.append(A.shape) or real(A, **kw))
        out = tmp_path / "out"
        path = hamel_config(tmp_path)
        assert cli.main(["solve", "ns", "--config", path, "--out", str(out)]) == 0
        assert len(factored) == 1
        assert json.load(open(out / "solution.json"))["metadata"]["factorizations"] == 1

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
        ({"solver.pins": {"1": float("nan")}}, []),
        ({"physics.nu": float("nan")}, []),
        ({"physics.nu": float("inf")}, []),
        ({}, ["--pin", "1=nan"]),
        ({}, ["--pin", "1=inf"]),
        ({"solver.max_iterations": 60.0}, []),
    ], ids=["empty-schedule", "nan-schedule", "nan-tolerance", "nan-config-pin", "nan-nu",
            "inf-nu", "nan-pin", "inf-pin", "float-max-iterations"])
    def test_non_finite_or_empty_solver_value_exit_code(self, tmp_path, capsys, setting, pin):
        path = hamel_config(tmp_path, mesh={"generator": "annulus", "n_radial": 4,
                                            "n_angular": 16}, **setting)
        out = tmp_path / "out"
        assert cli.main(["solve", "ns", "--config", path, "--out", str(out), *pin]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if setting == {"solver.lambda_schedule": []}:
            assert "solver.lambda_schedule" in err
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
                            solver={"max_iterations": 2, "tolerance": 1e-14,
                                    "pins": {"1": 0.0}})
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
        assert ls.LANCZOS_MINSTEPS <= payload["korn"]["lanczos_steps"] <= ls.LANCZOS_MAXITER
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

    @pytest.mark.parametrize("case", ["hamel", "mms"])
    def test_validate_exact_families(self, tmp_path, case):
        out = tmp_path / "out"
        assert cli.main(["validate", case, "--levels", "2", "--out", str(out)]) == 0
        lines = open(out / f"convergence_{case}.csv").read().splitlines()
        header, *rows = [l for l in lines if not l.startswith("#")]
        assert header == "level,h,eL2_u,order,eH1_u,order,eL2_p,order"
        assert [row.split(",")[0] for row in rows] == ["0", "1"]
        assert np.all(np.isfinite([float(v) for v in rows[1].split(",")]))

    def test_validate_levels_above_the_cap_fail_before_meshing(self, tmp_path, capsys):
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert cli.main(["validate", "couette", "--levels", "5", "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"at most {cli.VALIDATE_MAX_LEVELS}" in capsys.readouterr().err
        assert not (out / "convergence_couette.csv").exists()

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
