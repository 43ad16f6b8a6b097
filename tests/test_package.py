"""Structure of the package source."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "slipflow"

FOOTPRINT_SCRIPT = """
import json, sys
HEAVY = ("scipy.interpolate", "scipy.spatial", "scipy.optimize", "scipy.special", "jsonschema")
loaded = lambda: [name for name in HEAVY if name in sys.modules]
config, symmetric, out, report = sys.argv[1:]
steps = {}
import slipflow
steps["import slipflow"] = loaded()
from slipflow import cli, geometry, meshing
steps["import slipflow.cli"] = loaded()
codes = [cli.main(["--deterministic", "solve", "ns", "--config", config, "--out", out])]
steps["solve ns"] = loaded()
codes.append(cli.main(["--deterministic", "solve", "ns", "--config", symmetric, "--out", out]))
steps["solve ns symmetric"] = loaded()
geometry.SplineCurve([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
steps["SplineCurve"] = loaded()
meshing.mesh_disk_with_holes(geometry.DomainSpec(
    [geometry.Circle((0.0, 0.0), 3.0), geometry.Circle((0.0, 0.0), 1.0)]), 0.5)
steps["mesh_disk_with_holes"] = loaded()
json.dump({"codes": codes, "steps": steps}, open(report, "w"))
"""


def test_no_function_level_relative_imports():
    # an import deferred into a function body is how an import cycle between
    # package modules hides; every intra-package import is made at module level
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.update(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                             if isinstance(inner, ast.ImportFrom) and inner.level > 0)
    assert not found, sorted(found)


def test_splu_called_only_in_the_factorization_helper():
    # one factorization setting: every SuperLU factorization of the package,
    # and the reverse Cuthill-McKee order ahead of it, goes through
    # linear_solvers._splu
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("splu", "reverse_cuthill_mckee"):
                    calls.append((path.name, owner.get(id(node)), name))
    assert sorted(calls) == [("linear_solvers.py", "_splu", "reverse_cuthill_mckee"),
                             ("linear_solvers.py", "_splu", "splu")], calls


def test_fields_meet_quadrature_points_only_in_assembly():
    # one field evaluator: outside assembly.py no module reads the shape
    # functions or basis gradients of an element context, or scatters element
    # contributions itself; and outside assembly.py and elements.py no module
    # evaluates the reference element, apart from the parent geometry map of
    # meshing.refine_nested
    reference = ("p2_shape", "p2_grad", "p1_shape", "edge_shape", "edge_shape_deriv",
                 "physical_gradients", "mapped_jacobians")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "assembly.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("N", "grads"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("scatter_vector", "scatter_matrix"):
                    found.append(f"{path.name}:{node.lineno} {name}()")
                if name in reference and path.name != "elements.py" and (
                        path.name, owner.get(id(node)), name) != (
                        "meshing.py", "refine_nested", "p2_shape"):
                    found.append(f"{path.name}:{node.lineno} {name}()")
    assert not found, found


def test_lambda_walk_has_one_driver():
    # one continuation driver: the Stokes lift and the iteration at one
    # lambda are called only from navier_stokes._continuation
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("_stokes_lift", "_solve_at_lambda"):
                    calls.append((path.name, owner.get(id(node)), name))
    assert sorted(calls) == [("navier_stokes.py", "_continuation", "_solve_at_lambda"),
                             ("navier_stokes.py", "_continuation", "_stokes_lift")], calls


def test_boundary_data_normalized_only_in_assembly():
    # one owner of per-component boundary data: ProblemData keeps callables and
    # assembly.boundary_values evaluates them, so outside assembly.py only
    # validation.mms_generate normalizes a constant friction datum itself
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "as_boundary_scalar" and path.name not in ("assembly.py",
                                                                       "validation.py"):
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, calls


def _names_used(tree, own=None):
    """Names a tree loads, reads as an attribute or imports, except `own`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and node.id != own:
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr != own:
            yield node.attr


def test_every_public_name_has_a_caller():
    # the package ships what a command, the benchmark or the README calls:
    # each public top-level function and class of src/slipflow is used by
    # another module of the package or by its own outside its definition, by
    # perfbench/ or tools/, or is named in a code span of README.md.  A
    # re-export in __init__.py is not a use, nor are the tests.  Names are
    # matched, not resolved, so a method of the same name counts as a use.
    traced_only = {
        # patched by name in perfbench/tracer.py, called by nothing; they go
        # once the library reports its own run statistics (ROADMAP item 2)
        "assemble_vector_gradient",
    }
    root = SRC.parent.parent
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = getattr(stmt, "name", None)
            if own is not None and not own.startswith("_"):
                defined[own] = path.name
            used.update(_names_used(stmt, own))
    for path in sorted((root / "perfbench").glob("*.py")) + sorted((root / "tools").glob("*.py")):
        used.update(_names_used(ast.parse(path.read_text(), str(path))))
    readme = re.sub(r"```.*?```", "", (root / "README.md").read_text(), flags=re.S)
    named = {word for span in re.findall(r"`([^`\n]+)`", readme)
             for word in re.findall(r"\w+", span)}
    uncalled = sorted(f"{module}:{name}" for name, module in defined.items()
                      if name not in used | named | traced_only)
    assert not uncalled, uncalled
    assert traced_only <= set(defined) - used - named


def test_no_random_numbers():
    # every check of the data reads points of the discrete problem: no module
    # imports a random generator or reaches numpy's
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            if any(name.split(".")[-1] in ("random", "default_rng") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_artifacts_written_only_as_new_files():
    # a file truncated in place makes a re-run wait for the old content's
    # writeback: the one write-mode open of the package is files.new_file's,
    # which unlinks the path first, apart from the worker's pipe, opened by
    # its integer descriptor; no np.savetxt, write_text or write_bytes either
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            where = f"{path.name}:{owner.get(id(node))}"
            if name in ("savetxt", "write_text", "write_bytes"):
                found.append(f"{where} {name}()")
            if name not in ("open", "fdopen"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                and not set(mode.value) & set("wax+")):
                continue
            target = node.args[0] if node.args else None
            if where == "concurrency.py:_serve" and isinstance(target, ast.Name) \
                    and target.id == "write_fd":
                continue
            found.append(f"{where} {name}()")
    assert found == ["files.py:new_file open()"], found


def test_import_footprint(tmp_path):
    # a circle-bounded annulus run, the mirror-symmetric solve included, loads
    # no scipy package beyond sparse and linalg, and no run loads jsonschema,
    # the test-side reference of the config check; spline boundaries and the
    # Delaunay mesher load their own
    configs = []
    for name in ("hamel", "symmetric_domain"):
        cfg = json.loads((SRC.parent.parent / "configs" / f"{name}.json").read_text())
        cfg["mesh"] = {"generator": "annulus", "n_radial": 4, "n_angular": 16}
        configs.append(tmp_path / f"{name}.json")
        configs[-1].write_text(json.dumps(cfg))
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, *map(str, configs),
                    str(tmp_path / "out"), str(report)],
                   env=env, check=True, capture_output=True, timeout=120)
    result = json.loads(report.read_text())
    steps = result["steps"]
    assert result["codes"] == [0, 0]
    assert steps["import slipflow"] == steps["import slipflow.cli"] == steps["solve ns"] == []
    assert steps["solve ns symmetric"] == []
    assert "scipy.interpolate" in steps["SplineCurve"]
    assert "scipy.spatial" in steps["mesh_disk_with_holes"]


def test_every_config_key_has_a_reader():
    # a key of config_schema.json that no code reads is an option that does
    # nothing: each property name is a string cli.py reads, or a field of the
    # SolverConfig that build_solver_config passes the solver block to
    import dataclasses

    from slipflow.navier_stokes import SolverConfig

    def property_names(node):
        if isinstance(node, dict):
            for name, value in node.items():
                if name == "properties":
                    yield from value
                yield from property_names(value)
        elif isinstance(node, list):
            for value in node:
                yield from property_names(value)

    schema = json.loads((SRC / "config_schema.json").read_text())
    strings = {node.value for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    unread = sorted(set(property_names(schema)) - strings - fields)
    assert not unread, unread
