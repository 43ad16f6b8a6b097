"""Artifact writers: legacy VTK, boundary-profile CSV, JSON reports.

Every artifact carries a provenance header (config hash + package
version); float formatting is fixed so identical runs produce
byte-identical files.
"""

import hashlib
import json

import numpy as np

from . import __version__, assembly
from .analysis import boundary_head, total_head, vorticity

FLOAT_FMT = "%.16e"


def config_hash(config_dict):
    blob = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance(config_dict):
    return {"config_sha256_16": config_hash(config_dict), "version": __version__}


def _write_rows(fh, table, fmt):
    """Write each row of a 2D table through one printf-style row format."""
    fh.write((fmt + "\n") * len(table) % tuple(table.ravel().tolist()))


def write_vtk(flow, path, provenance_line=""):
    """Legacy ASCII unstructured grid with u, p, vorticity and total head;
    returns those two projections, which share one scalar mass matrix.

    Quadratic nodes become points; each triangle is written as its four
    straight-sided children so standard viewers can render the data.
    """
    mesh = flow.mesh
    pts = mesh.p2_coords()
    # (v0, v1, v2, m01, m12, m20) -> (v0 m01 m20), (v1 m12 m01), (v2 m20 m12), (m01 m12 m20)
    cells = mesh.triangle_nodes()[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)
    u = flow.velocity.reshape(-1, 2)
    p_vertex = flow.pressure
    edge_p = 0.5 * (p_vertex[mesh.edges[:, 0]] + p_vertex[mesh.edges[:, 1]])
    p_all = np.concatenate([p_vertex, edge_p])
    mass = assembly.scalar_mass(mesh)
    omega, phi = vorticity(flow, mass), total_head(flow, mass)
    xyz = f"{FLOAT_FMT} {FLOAT_FMT} " + FLOAT_FMT % 0.0     # planar: z is written as text

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"slipflow {provenance_line}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        _write_rows(fh, pts, xyz)
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        _write_rows(fh, cells, "3 %d %d %d")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        fh.write("5\n" * len(cells))
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("VECTORS velocity double\n")
        _write_rows(fh, u, xyz)
        for name, vals in (("pressure", p_all), ("vorticity", omega), ("total_head", phi)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, vals[:, None], FLOAT_FMT)
    return omega, phi


def _arclength_of(curve, t):
    """Cumulative arclength of curve parameters (dense trapezoid table)."""
    grid = np.linspace(0.0, 1.0, 2049)
    speed = np.hypot(*curve.derivative(grid).T)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(grid))])
    return np.interp(np.asarray(t) % 1.0, grid, s)


def write_boundary_csv(flow, data, path, provenance_line=""):
    """Per-quadrature-point boundary profile along each component."""
    mesh = flow.mesh
    bq, phi, u = boundary_head(flow)
    u_n = np.einsum("kqx,kqx->kq", u, bq.normal)
    u_t = np.einsum("kqx,kqx->kq", u, bq.tangent)
    beta = assembly._eval_per_component(bq, data.beta)
    margin = beta / data.nu + 2.0 * bq.kappa

    blocks = []
    for comp in range(mesh.domain.n_components):
        curve = mesh.domain.curves[comp]
        sel = np.nonzero(bq.component == comp)[0]
        ts = bq.t[sel].ravel()
        arc = _arclength_of(curve, ts)
        order = np.argsort(arc, kind="stable")
        cols = [arr[sel].ravel()[order] for arr in (u_n, u_t, phi, bq.kappa, margin)]
        blocks.append(np.column_stack([np.full(len(ts), comp), arc[order], *cols]))
    with open(path, "w") as fh:
        if provenance_line:
            fh.write(f"# {provenance_line}\n")
        fh.write("component,arclength,u_n,u_tau,total_head,kappa,friction_margin\n")
        _write_rows(fh, np.vstack(blocks), ",".join(["%d"] + [FLOAT_FMT] * 6))


def write_json(payload, path, provenance_dict=None):
    out = dict(payload)
    if provenance_dict:
        out["provenance"] = provenance_dict
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
