"""Artifact writers: legacy VTK, boundary-profile CSV, JSON reports.

Every artifact carries a provenance header (config hash + package
version); float formatting is fixed so identical runs produce
byte-identical files.
"""

import hashlib
import json

import numpy as np

from . import __version__, assembly
from .analysis import boundary_head, scalar_mass_factor, total_head, vorticity

FLOAT_FMT = "%.16e"


def config_hash(config_dict):
    blob = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance(config_dict):
    return {"config_sha256_16": config_hash(config_dict), "version": __version__}


def _fmt(x):
    return FLOAT_FMT % float(x)


def write_vtk(flow, path, provenance_line=""):
    """Legacy ASCII unstructured grid with u, p, vorticity and total head.

    Quadratic nodes become points; each triangle is written as its four
    straight-sided children so standard viewers can render the data.
    """
    mesh = flow.mesh
    pts = mesh.p2_coords()
    tn = mesh.triangle_nodes()
    cells = []
    for v0, v1, v2, m01, m12, m20 in tn:
        cells.extend([(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)])
    u = flow.velocity.reshape(-1, 2)
    p_vertex = flow.pressure
    edge_p = 0.5 * (p_vertex[mesh.edges[:, 0]] + p_vertex[mesh.edges[:, 1]])
    p_all = np.concatenate([p_vertex, edge_p])
    mass_lu = scalar_mass_factor(mesh)
    omega = vorticity(flow, mass_lu)
    phi = total_head(flow, mass_lu)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"slipflow {provenance_line}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        for x, y in pts:
            fh.write(f"{_fmt(x)} {_fmt(y)} {_fmt(0)}\n")
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        for a, b, c in cells:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        fh.write("5\n" * len(cells))
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("VECTORS velocity double\n")
        for ux, uy in u:
            fh.write(f"{_fmt(ux)} {_fmt(uy)} {_fmt(0)}\n")
        for name, vals in (("pressure", p_all), ("vorticity", omega), ("total_head", phi)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in vals:
                fh.write(_fmt(v) + "\n")


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
    beta = assembly._eval_per_component(bq, [assembly.as_boundary_scalar(b)
                                             for b in data.beta])
    margin = beta / data.nu + 2.0 * bq.kappa

    rows = []
    for comp in range(mesh.domain.n_components):
        curve = mesh.domain.curves[comp]
        sel = np.nonzero(bq.component == comp)[0]
        ts = bq.t[sel].ravel()
        arc = _arclength_of(curve, ts)
        order = np.argsort(arc, kind="stable")
        flat = lambda arr: arr[sel].ravel()[order]
        for k in range(len(order)):
            rows.append((comp, arc[order][k], flat(u_n)[k], flat(u_t)[k],
                         flat(phi)[k], flat(bq.kappa)[k], flat(margin)[k]))
    with open(path, "w") as fh:
        if provenance_line:
            fh.write(f"# {provenance_line}\n")
        fh.write("component,arclength,u_n,u_tau,total_head,kappa,friction_margin\n")
        for comp, arc, un, ut, ph, kap, mg in rows:
            fh.write(f"{comp},{_fmt(arc)},{_fmt(un)},{_fmt(ut)},{_fmt(ph)},"
                     f"{_fmt(kap)},{_fmt(mg)}\n")


def write_json(payload, path, provenance_dict=None):
    out = dict(payload)
    if provenance_dict:
        out["provenance"] = provenance_dict
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
