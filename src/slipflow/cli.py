"""Command-line pipeline: mesh, audit, solve, diagnose, korn, validate."""

import argparse
import functools
import json
import os
import re
import sys
from importlib import resources

import numpy as np

from . import analysis, assembly, expressions, geometry
from . import meshing, navier_stokes as nvs, output, validation
from .errors import ConfigurationError, NonConvergenceError, SlipflowError, SolverError

@functools.cache
def config_schema():
    """The JSON schema of run configurations (package data, read on first use)."""
    return json.loads(resources.files(__package__).joinpath("config_schema.json").read_text())


# the JSON types of the schema keyword "type"; bool is no JSON number, and an
# integer is an integer token of the file, never an integral float such as 8.0
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None), "integer": int, "number": (int, float)}


def _is_type(value, name):
    return isinstance(value, _JSON_TYPES[name]) and (
        name == "boolean" or not isinstance(value, bool))


def _type(schema, value, path):
    names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    if not any(_is_type(value, name) for name in names):
        yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"


def _enum(schema, value, path):
    # plain equality: the schema's options are strings, which no bool or
    # number equals (JSON Schema, unlike Python, holds true and 1 apart)
    if value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"


def _minimum(schema, value, path):
    if _is_type(value, "number") and value < schema["minimum"]:
        yield path, f"{value!r} is less than the minimum of {schema['minimum']!r}"


def _exclusive_minimum(schema, value, path):
    if _is_type(value, "number") and value <= schema["exclusiveMinimum"]:
        yield path, (f"{value!r} is less than or equal to the minimum of "
                     f"{schema['exclusiveMinimum']!r}")


def _min_items(schema, value, path):
    if isinstance(value, list) and len(value) < schema["minItems"]:
        yield path, f"{value!r} has fewer than {schema['minItems']} items"


def _max_items(schema, value, path):
    if isinstance(value, list) and len(value) > schema["maxItems"]:
        yield path, f"{value!r} has more than {schema['maxItems']} items"


def _items(schema, value, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from schema_errors(schema["items"], item, (*path, i))


def _properties(schema, value, path):
    if isinstance(value, dict):
        for key, sub in schema["properties"].items():
            if key in value:
                yield from schema_errors(sub, value[key], (*path, key))


def _pattern_properties(schema, value, path):
    if isinstance(value, dict):
        for pattern, sub in schema["patternProperties"].items():
            for key in value:
                if re.search(pattern, key):
                    yield from schema_errors(sub, value[key], (*path, key))


def _additional_properties(schema, value, path):
    if schema["additionalProperties"] is not False:   # the schema closes every object
        raise NotImplementedError("config schema: only additionalProperties false is implemented")
    if isinstance(value, dict):
        for key in value:
            if key not in schema.get("properties", {}) and not any(
                    re.search(pattern, key) for pattern in schema.get("patternProperties", {})):
                yield (*path, key), "is not an allowed key"


def _required(schema, value, path):
    if isinstance(value, dict):
        for key in schema["required"]:
            if key not in value:
                yield (*path, key), "is required but missing"


# every keyword of config_schema.json, and no other: JSON Schema 2020-12
# meaning, apart from the integer rule of _JSON_TYPES
SCHEMA_KEYWORDS = {
    "type": _type, "enum": _enum, "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum, "minItems": _min_items,
    "maxItems": _max_items, "items": _items, "properties": _properties,
    "patternProperties": _pattern_properties,
    "additionalProperties": _additional_properties, "required": _required,
}


def schema_errors(schema, value, path=()):
    """Every (key path, reason) at which value breaks schema, in schema order.

    NotImplementedError for a keyword outside SCHEMA_KEYWORDS: a schema
    keyword the interpreter would skip is a check that silently does not run.
    """
    for keyword in schema:
        if keyword not in SCHEMA_KEYWORDS:
            raise NotImplementedError(f"config schema keyword {keyword!r} is not implemented")
        yield from SCHEMA_KEYWORDS[keyword](schema, value, path)


def _non_finite_key(value, key=()):
    """Key path (a tuple) of the first non-finite number in a loaded config, else None."""
    if isinstance(value, float):
        return None if np.isfinite(value) else key
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        found = _non_finite_key(v, (*key, str(k)))
        if found is not None:
            return found
    return None


def load_config(path):
    """The run configuration in the JSON file at path, checked against the schema.

    ConfigurationError (naming the path) when the file cannot be read, is
    not UTF-8 or is not JSON, or when a value is out of the schema.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: JSON and UTF-8 decoding errors
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    # json reads NaN and Infinity tokens and overflows 1e400 to inf; no
    # config value may be non-finite, and the schema cannot say so
    def where(key):
        return ".".join(map(str, key)) or "the top level"

    key = _non_finite_key(cfg)
    if key is not None:
        raise ConfigurationError(f"config value at {where(key)} is not a finite number")
    error = next(schema_errors(config_schema(), cfg), None)
    if error is not None:
        raise ConfigurationError(f"config validation failed at {where(error[0])}: {error[1]}")
    return cfg


def build_domain(cfg):
    curves = []
    labels = []
    for spec in cfg["domain"]["curves"]:
        if spec["kind"] == "circle":
            if "center" not in spec or "radius" not in spec:
                raise ConfigurationError("circle needs center and radius")
            curves.append(geometry.Circle(spec["center"], spec["radius"]))
        else:
            if "points" not in spec:
                raise ConfigurationError("spline needs a points list")
            curves.append(geometry.SplineCurve(spec["points"]))
        labels.append(spec.get("label", f"component{len(labels)}"))
    return geometry.DomainSpec(curves, labels=labels)


def build_mesh(cfg, domain):
    mcfg = dict(cfg.get("mesh", {}))
    gen = mcfg.get("generator", "annulus" if domain.n_holes == 1 else "disk")
    if gen == "annulus":
        if domain.n_holes != 1 or not all(
                isinstance(c, geometry.Circle) for c in domain.curves):
            raise ConfigurationError("annulus generator needs two concentric circles")
        inner, outer = domain.curves[1], domain.curves[0]
        if np.hypot(*(inner.center - outer.center)) > 1e-12 * outer.radius:
            raise ConfigurationError("annulus generator needs concentric circles")
        return meshing.mesh_annulus(inner.radius, outer.radius,
                                    mcfg.get("n_radial", 16),
                                    mcfg.get("n_angular", 48), center=outer.center)
    if gen == "disk":
        return meshing.mesh_disk_with_holes(domain, mcfg.get("target_h", 0.1))
    if gen == "import":
        if "node_file" not in mcfg or "ele_file" not in mcfg:
            raise ConfigurationError("import generator needs node_file and ele_file")
        return meshing.import_mesh(mcfg["node_file"], mcfg["ele_file"], domain)
    raise ConfigurationError(f"unknown mesh generator {gen!r}")


def build_data(cfg, domain):
    phys = cfg["physics"]
    bnd = cfg["boundary"]
    ncomp = domain.n_components

    def per_component(values, name):
        if len(values) != ncomp:
            raise ConfigurationError(
                f"{name} needs {ncomp} entries (one per component), got {len(values)}")
        return tuple(expressions.boundary_value(v) for v in values)

    beta = per_component(phys["beta"], "physics.beta")
    a_star = per_component(bnd["a_star"], "boundary.a_star")
    b_tau = per_component(bnd.get("b_tau", [0.0] * ncomp), "boundary.b_tau")
    f = expressions.force_field(phys.get("f"))
    return assembly.ProblemData(nu=float(phys["nu"]), beta=beta, a_star=a_star,
                                b_tau=b_tau, f=f)


def build_solver_config(cfg, pin_overrides=None):
    """SolverConfig of the config's solver keys (its field names); SolverConfig
    holds the defaults.  pin_overrides replace pins of the same component."""
    scfg = dict(cfg.get("solver", {}))
    pins = {int(k): float(v) for k, v in scfg.pop("pins", {}).items()}
    pins.update(pin_overrides or {})
    return nvs.SolverConfig(**scfg, pins=pins or None)


def _audit_exponent(cfg):
    """Lebesgue exponent q of the small-flux audit (default 4)."""
    return cfg.get("audit", {}).get("q", 4.0)


def _problem(cfg):
    """(domain, ProblemData, mesh) of a run configuration."""
    domain = build_domain(cfg)
    return domain, build_data(cfg, domain), build_mesh(cfg, domain)


def _outdir(args, cfg):
    out = args.out or cfg.get("output", {}).get("directory", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_solution(flow, trace, data, out, prov):
    """Write the artifacts of a solve; returns the (vorticity, total head)
    projections of solution.vtk."""
    line = f"config={prov['config_sha256_16']} version={prov['version']}"
    fields = output.write_vtk(flow, os.path.join(out, "solution.vtk"), line)
    output.write_boundary_csv(flow, data, os.path.join(out, "boundary.csv"), line)
    meta = {k: v for k, v in flow.metadata.items() if _jsonable(v)}
    output.write_json({"metadata": meta}, os.path.join(out, "solution.json"), prov)
    if trace is not None:
        output.write_json(trace.as_dict(), os.path.join(out, "trace.json"), prov)
    return fields


def _solve_ns(mesh, data, config, out, prov):
    """Navier-Stokes solve that writes its artifacts; returns the FlowState
    and its (vorticity, total head) projections.

    On non-convergence trace.json is written all the same, with the error
    message, before the error propagates.
    """
    try:
        flow, trace = nvs.solve_navier_stokes(mesh, data, config)
    except NonConvergenceError as exc:
        if exc.trace is not None:
            output.write_json(dict(exc.trace.as_dict(), error=str(exc)),
                              os.path.join(out, "trace.json"), prov)
        raise
    return flow, _write_solution(flow, trace, data, out, prov)


def _jsonable(v):
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


def cmd_mesh(args, cfg):
    domain = build_domain(cfg)
    mesh = build_mesh(cfg, domain)
    out = _outdir(args, cfg)
    prov = output.provenance(cfg)
    line = f"config={prov['config_sha256_16']} version={prov['version']}"
    meshing.write_mesh(mesh, os.path.join(out, "mesh"), header=line)
    print(f"wrote mesh ({mesh.n_vertices} vertices, {len(mesh.triangles)} triangles) to {out}")
    return 0


def cmd_audit(args, cfg):
    domain, data, mesh = _problem(cfg)
    q = _audit_exponent(cfg)
    report = analysis.audit(domain, data, mesh=mesh, q=q)
    out = _outdir(args, cfg)
    output.write_json(report.as_dict(), os.path.join(out, "audit.json"),
                      output.provenance(cfg))
    print(report.to_json())
    return 0


def cmd_solve(args, cfg):
    _, data, mesh = _problem(cfg)
    out = _outdir(args, cfg)
    prov = output.provenance(cfg)
    pins = _parse_pins(args.pin)
    if args.problem == "stokes":
        flow = nvs.solve_stokes(mesh, data)
        _write_solution(flow, None, data, out, prov)
        print(f"stokes solve done (linear residual {flow.metadata['linear_residual']:.3e})")
        return 0
    flow, _ = _solve_ns(mesh, data, build_solver_config(cfg, pins), out, prov)
    print(f"navier-stokes solve done (residual {flow.metadata['residual']:.3e}, "
          f"{flow.metadata['iterations']} iterations)")
    return 0


def cmd_diagnose(args, cfg):
    _, data, mesh = _problem(cfg)
    out = _outdir(args, cfg)
    prov = output.provenance(cfg)
    flow, fields = _solve_ns(mesh, data, build_solver_config(cfg, _parse_pins(args.pin)),
                             out, prov)
    bern = analysis.bernoulli_audit(flow)
    output.write_json(bern.as_dict(), os.path.join(out, "bernoulli.json"), prov)
    resids = {
        "head_pressure_residual": analysis.head_pressure_residual(flow, data, fields),
        "weingarten_identity_residual": analysis.weingarten_identity_check(flow),
        "nonlinear_residual": flow.metadata["residual"],
    }
    output.write_json(resids, os.path.join(out, "residuals.json"), prov)
    print(json.dumps(resids, indent=2, sort_keys=True))
    return 0


def cmd_korn(args, cfg):
    _, data, mesh = _problem(cfg)
    est, sob, _ = analysis.korn_and_sobolev(mesh, data, _audit_exponent(cfg))
    payload = {
        "korn": {"K": est.K, "lambda_min": est.lambda_min, "lanczos_steps": est.lanczos_steps,
                 "rotation_projected": est.rotation_projected, "rigor": est.rigor},
        "sobolev": {"C_r": sob.C_r, "r": sob.r, "iterations": sob.iterations,
                    "rigor": sob.rigor},
    }
    out = _outdir(args, cfg)
    output.write_json(payload, os.path.join(out, "constants.json"),
                      output.provenance(cfg))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _parse_pins(pin_args):
    pins = {}
    for spec in pin_args or ():
        try:
            comp, val = spec.split("=", 1)
            pins[int(comp)] = float(val)
        except ValueError as exc:
            raise ConfigurationError(f"bad --pin {spec!r}; expected comp=value") from exc
    return pins


VALIDATE_MAX_LEVELS = 4    # 33M LU fill at level 4, about 9.5x more per level


def cmd_validate(args, cfg):
    levels = args.levels
    if not 1 <= levels <= VALIDATE_MAX_LEVELS:
        raise ConfigurationError(
            f"--levels must be at least 1 and at most {VALIDATE_MAX_LEVELS}, got {levels}")
    out = _outdir(args, cfg if cfg else {})
    prov = output.provenance(cfg or {"case": args.case})
    line = f"config={prov['config_sha256_16']} version={prov['version']}"
    meshes = [meshing.mesh_annulus(1.0, 2.0, 8 * 2 ** k, 16 * 2 ** k)
              for k in range(levels)]
    if args.case == "couette":
        exact, solver = validation.slip_couette(), nvs.solve_stokes
    else:   # the Hamel continuum is pinned to its k = 0 member
        hamel = args.case == "hamel"
        exact = validation.hamel(0.0) if hamel else validation.manufactured()
        config = nvs.SolverConfig(pins={1: 0.0} if hamel else None)
        solver = lambda mesh, data: nvs.solve_navier_stokes(mesh, data, config)[0]
    table = validation.convergence_study(exact, solver, meshes)
    path = os.path.join(out, f"convergence_{args.case}.csv")
    table.to_csv(path, header_lines=[line])
    print(table.to_csv())
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="slipflow",
        description="Steady slip-flow solver and solvability auditor")
    parser.add_argument("--deterministic", action="store_true",
                        help="accepted for compatibility and changes nothing: every "
                             "run writes byte-identical artifacts for the same input")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        return p

    add("mesh", help="generate and write the triangulation")
    add("audit", help="evaluate the solvability conditions")
    p = add("solve", help="solve the stationary problem")
    p.add_argument("problem", choices=["stokes", "ns"])
    p.add_argument("--pin", action="append",
                   help="circulation pin component=value (repeatable)")
    p = add("diagnose", help="solve and compute solution diagnostics")
    p.add_argument("--pin", action="append")
    add("korn", help="estimate the Korn and Sobolev constants")
    p = add("validate", help="convergence study against an exact solution")
    p.add_argument("case", choices=["hamel", "couette", "mms"])
    p.add_argument("--levels", type=int, default=3)

    args = parser.parse_args(argv)
    if not args.config and args.command not in ("validate",):
        parser.error(f"{args.command} requires --config")

    handlers = {
        "mesh": cmd_mesh, "audit": cmd_audit, "solve": cmd_solve,
        "diagnose": cmd_diagnose, "korn": cmd_korn, "validate": cmd_validate,
    }
    try:
        cfg = load_config(args.config) if args.config else None
        return handlers[args.command](args, cfg)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except SlipflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
