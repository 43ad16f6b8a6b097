"""Command-line pipeline: mesh, audit, solve, diagnose, korn, validate."""

import argparse
import functools
import json
import os
import sys
from importlib import resources

import numpy as np
import jsonschema

from . import analysis, assembly, expressions, geometry
from . import linear_solvers as ls
from . import meshing, navier_stokes as nvs, output, validation
from .errors import ConfigurationError, NonConvergenceError, SlipflowError, SolverError

@functools.cache
def config_schema():
    """The JSON schema of run configurations (package data, read on first use)."""
    return json.loads(resources.files(__package__).joinpath("config_schema.json").read_text())


@functools.cache
def config_validator():
    """The validator of config_schema(); the schema itself is checked once."""
    schema = config_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


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
    key = _non_finite_key(cfg)
    if key is not None:
        raise ConfigurationError(
            f"config value at {'.'.join(key) or 'the top level'} is not a finite number")
    error = jsonschema.exceptions.best_match(config_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigurationError(f"config validation failed: {error.message}") from error
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
                                    mcfg.get("n_angular", 48))
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
    line = f"config={prov['config_sha256_16']} version={prov['version']}"
    output.write_vtk(flow, os.path.join(out, "solution.vtk"), line)
    output.write_boundary_csv(flow, data, os.path.join(out, "boundary.csv"), line)
    meta = {k: v for k, v in flow.metadata.items() if _jsonable(v)}
    output.write_json({"metadata": meta}, os.path.join(out, "solution.json"), prov)
    if trace is not None:
        output.write_json(trace.as_dict(), os.path.join(out, "trace.json"), prov)


def _solve_ns(mesh, data, config, out, prov):
    """Navier-Stokes solve that writes its artifacts; returns the FlowState.

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
    _write_solution(flow, trace, data, out, prov)
    return flow


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
    flow = _solve_ns(mesh, data, build_solver_config(cfg, pins), out, prov)
    print(f"navier-stokes solve done (residual {flow.metadata['residual']:.3e}, "
          f"{flow.metadata['iterations']} iterations)")
    return 0


def cmd_diagnose(args, cfg):
    _, data, mesh = _problem(cfg)
    out = _outdir(args, cfg)
    prov = output.provenance(cfg)
    flow = _solve_ns(mesh, data, build_solver_config(cfg, _parse_pins(args.pin)), out, prov)
    bern = analysis.bernoulli_audit(flow)
    output.write_json(bern.as_dict(), os.path.join(out, "bernoulli.json"), prov)
    resids = {
        "head_pressure_residual": analysis.head_pressure_residual(flow, data),
        "weingarten_identity_residual": analysis.weingarten_identity_check(flow),
        "nonlinear_residual": flow.metadata["residual"],
    }
    output.write_json(resids, os.path.join(out, "residuals.json"), prov)
    print(json.dumps(resids, indent=2, sort_keys=True))
    return 0


def cmd_korn(args, cfg):
    domain, data, mesh = _problem(cfg)
    q = _audit_exponent(cfg)
    est = ls.korn_constant(mesh, analysis.korn_weight(data),
                           project_rotation=data.free_rotation_center(domain) is not None)
    sob = ls.sobolev_constant(mesh, r=2 * q / (q - 2))
    payload = {
        "korn": {"K": est.K, "lambda_min": est.lambda_min,
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


def cmd_validate(args, cfg):
    levels = args.levels
    if levels < 1:
        raise ConfigurationError(f"--levels must be at least 1, got {levels}")
    out = _outdir(args, cfg if cfg else {})
    prov = output.provenance(cfg or {"case": args.case})
    line = f"config={prov['config_sha256_16']} version={prov['version']}"
    meshes = [meshing.mesh_annulus(1.0, 2.0, 8 * 2 ** k, 16 * 2 ** k)
              for k in range(levels)]
    if args.case == "hamel":
        exact = validation.hamel(0.0)
        solver = lambda mesh, data: nvs.solve_navier_stokes(
            mesh, data, nvs.SolverConfig(pins={1: 0.0}))[0]
    elif args.case == "couette":
        exact = validation.slip_couette()
        solver = nvs.solve_stokes
    else:  # mms: divergence-free rotated gradient of sin(x1) sin(x2)
        domain = meshes[0].domain
        amp = 0.15

        def u_exact(x):
            x = np.asarray(x)
            return amp * np.stack([-np.sin(x[:, 0]) * np.cos(x[:, 1]),
                                   np.cos(x[:, 0]) * np.sin(x[:, 1])], axis=1)

        def p_exact(x):
            x = np.asarray(x)
            return np.cos(x[:, 0]) * np.sin(x[:, 1])

        data = validation.mms_generate(u_exact, p_exact, domain, nu=1.0,
                                       beta=(1.0, 1.0))
        exact = validation.ExactSolution(
            name="mms", domain=domain, data=data, velocity=u_exact,
            pressure=p_exact)
        solver = lambda mesh, d: nvs.solve_navier_stokes(
            mesh, d, nvs.SolverConfig())[0]
    if exact.velocity_jacobian is None:
        h = 1e-5 * exact.domain.diameter
        exact.velocity_jacobian = lambda x: validation._fd_first(
            exact.velocity, np.asarray(x, np.longdouble), np.longdouble(h)).astype(float)
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
                        help="fixed seeds and formats for byte-identical artifacts")
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
    if args.deterministic:
        np.random.seed(0)

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
