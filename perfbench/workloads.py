"""Seeded workloads of the slipflow benchmark and the checks on their output.

Each workload turns a seed into one generated config file plus the
command line of one CLI operation.  The program under test sees only
those files; the expected answers stay here and are used by `check`,
which reads the artifacts an operation wrote and returns one
`(name, passed, detail)` triple per check.  Why each workload exists,
and which layer it loads, is recorded in perfbench/README.md.
"""

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

ANNULUS_DOMAIN = {"curves": [
    {"kind": "circle", "center": [0.0, 0.0], "radius": 2.0, "label": "outer"},
    {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0, "label": "inner"},
]}
TOLERANCE = 1e-10
HAMEL_MESH = (20, 40)
# Both pinned branches reach 1.28e-4 on the 20x40 annulus; the other
# branch is O(1) away, so this ceiling separates right from wrong.
HAMEL_U_ERR_CEILING = 2e-4
CIRCULATION_RTOL = 1e-8
MARGIN_ATOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One generated operation: its command line and what the checks expect."""

    workload: str
    config_path: str
    out_dir: str
    argv: tuple
    expect: dict


def _hamel(rng):
    # The Hamel data has a continuum of solutions; the pin selects branch k.
    k = rng.choice((1, -1))
    n_radial, n_angular = HAMEL_MESH
    cfg = {
        "domain": ANNULUS_DOMAIN,
        "mesh": {"generator": "annulus", "n_radial": n_radial, "n_angular": n_angular},
        "physics": {"nu": 1.0, "beta": [0.75, 0.0], "f": None},
        "boundary": {"a_star": [-1.5, 3.0], "b_tau": [0.0, 0.0]},
        "solver": {"mode": "picard-then-newton", "tolerance": TOLERANCE,
                   "max_iterations": 60},
    }
    circulation = 2.0 * math.pi * k
    return cfg, ["solve", "ns", "--pin", f"1={circulation!r}"], {
        "k": k, "circulation": circulation}


def _twohole(rng):
    # Shifting the holes along x1 keeps the mirror class and every audit
    # branch; the flux range keeps the small-flux verdict fixed.
    c1 = -1.2 + rng.uniform(-0.05, 0.05)
    c2 = 1.3 + rng.uniform(-0.05, 0.05)
    a1 = round(rng.uniform(0.1, 0.3), 4)
    a2 = -a1 * 0.6 / 0.5          # hole 2 takes back what hole 1 lets through
    cfg = {
        "domain": {"curves": [
            {"kind": "circle", "center": [0.0, 0.0], "radius": 3.0, "label": "outer"},
            {"kind": "circle", "center": [c1, 0.0], "radius": 0.6, "label": "hole1"},
            {"kind": "circle", "center": [c2, 0.0], "radius": 0.5, "label": "hole2"},
        ]},
        "mesh": {"generator": "disk", "target_h": 0.15},
        "physics": {"nu": 1.0, "beta": [1.0, 1.0, 1.0], "f": None},
        "boundary": {"a_star": [0.0, a1, a2]},
    }
    # outer curvature is -1/3, so min(beta/nu + 2 kappa) = 1 - 2/3
    return cfg, ["audit"], {"friction_margin": 1.0 / 3.0}


GENERATORS = {"ns-hamel": _hamel, "audit-twohole": _twohole}


def generate(workload, seed, work_dir):
    """Write the workload's config for `seed` under work_dir; return the Case."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(GENERATORS)}")
    cfg, command, expect = GENERATORS[workload](random.Random(seed))
    os.makedirs(work_dir, exist_ok=True)
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    out_dir = os.path.join(work_dir, "out")
    argv = ("--deterministic", *command, "--config", config_path, "--out", out_dir)
    return Case(workload, config_path, out_dir, argv, expect)


# -- checks -------------------------------------------------------------------

def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_vtk_vectors(path):
    """Points and velocity vectors of a legacy VTK file written by slipflow."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = int(next(line for line in lines if line.startswith("POINTS ")).split()[1])

    def rows_after(header):
        i = lines.index(header)
        return np.array(" ".join(lines[i + 1:i + 1 + n]).split(), float).reshape(n, 3)[:, :2]

    return rows_after(f"POINTS {n} double"), rows_after("VECTORS velocity double")


def hamel_velocity_error(sf, vtk_path, k):
    """Relative L2 error of the VTK velocity against the exact branch k."""
    mesh = sf.meshing.mesh_annulus(1.0, 2.0, *HAMEL_MESH)
    points, velocity = read_vtk_vectors(vtk_path)
    if points.shape != mesh.p2_coords().shape or \
            np.max(np.abs(points - mesh.p2_coords())) > 1e-12:
        raise ValueError("VTK points do not match the annulus nodes")
    return sf.norms.velocity_error_l2(mesh, velocity.ravel(), sf.validation.hamel(k).velocity)


def _finite_numbers(node):
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check(sf, case, exit_code):
    """Untimed checks of one operation's artifacts; a list of (name, passed, detail)."""
    results = [("exit_code", exit_code == 0, exit_code)]
    if exit_code != 0:
        return results
    out = case.out_dir
    if case.workload == "ns-hamel":
        meta = _read_json(os.path.join(out, "solution.json"))["metadata"]
        results.append(("residual", meta["residual"] <= TOLERANCE, meta["residual"]))
        target = case.expect["circulation"]
        circ = meta["circulations"]["1"]
        results.append(("circulation",
                        abs(circ - target) <= CIRCULATION_RTOL * abs(target), circ))
        err = hamel_velocity_error(sf, os.path.join(out, "solution.vtk"), case.expect["k"])
        results.append(("u_err_l2", err < HAMEL_U_ERR_CEILING, err))
    elif case.workload == "audit-twohole":
        stored = _read_json(os.path.join(out, "audit.json"))
        results.append(("finite", _finite_numbers(stored), None))
        report = sf.analysis.AuditReport(**{k: v for k, v in stored.items()
                                            if k != "provenance"})
        recomputed = report.recompute_verdicts()
        results.append(("verdicts", all(stored[k]["verdict"] == v
                                        for k, v in recomputed.items()), recomputed))
        margin = stored["theorem_friction_curvature"]["margin"]
        results.append(("friction_margin",
                        abs(margin - case.expect["friction_margin"]) <= MARGIN_ATOL, margin))
    return results
