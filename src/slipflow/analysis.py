"""Numeric audits of the solvability conditions and solution diagnostics.

The audit evaluates, for given data on a given domain, the margins of
each solvability condition: friction against boundary curvature,
outflow through the outer boundary with a convex hole, smallness of the
harmonic part against Korn/Sobolev constants, and mirror symmetry.  The
verdicts are pure functions of the recorded numbers.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import assembly, elements, extensions, geometry, norms
from .errors import MultivaluedStreamError
from .linear_solvers import (BorderedSolver, FlowState, korn_constant,
                             scalar_integral_vector, scalar_mass,
                             scalar_stiffness, sobolev_constant, _splu)
from .quadrature import interval_rule


# -- field extraction --------------------------------------------------------

def scalar_mass_factor(mesh):
    """Factored P2 mass matrix; pass it to several projections to factor once."""
    return _splu(scalar_mass(mesh))


def _scalar_projection(mesh, values_at_quad, mass_lu=None):
    """P2 L2 projection of values at the VOLUME_DEGREE quadrature points."""
    ctx = assembly.volume_context(mesh)
    load = np.zeros(mesh.n_p2_nodes)
    np.add.at(load, ctx.nodes, np.einsum("tq,tq,qi->ti", ctx.dv, values_at_quad, ctx.N))
    if mass_lu is None:
        mass_lu = scalar_mass_factor(mesh)
    return mass_lu.solve(load)


def vorticity(flow, mass_lu=None):
    """P2 projection of du1/dx2 - du2/dx1 (outward-normal curl convention).

    mass_lu: optional scalar_mass_factor(flow.mesh) to reuse.
    """
    mesh = flow.mesh
    gu = assembly.velocity_gradient_at(mesh, flow.velocity,
                                       assembly.volume_context(mesh).grads)
    return _scalar_projection(mesh, gu[:, :, 0, 1] - gu[:, :, 1, 0], mass_lu)


def total_head(flow, mass_lu=None):
    """P2 projection of p + |u|^2/2; mass_lu as for vorticity."""
    mesh = flow.mesh
    pts = assembly.volume_context(mesh).pts
    u = norms.velocity_values(mesh, flow.velocity, pts)
    p = norms.pressure_values(mesh, flow.pressure, pts)
    return _scalar_projection(mesh, p + 0.5 * np.einsum("tqx,tqx->tq", u, u), mass_lu)


@dataclass
class DiagnosticsFields:
    vorticity: np.ndarray
    total_head: np.ndarray
    stream: np.ndarray | None


def diagnostics_fields(flow, with_stream=True):
    psi = None
    if with_stream:
        try:
            psi = stream_function(flow)
        except MultivaluedStreamError:
            psi = None
    mass_lu = scalar_mass_factor(flow.mesh)
    return DiagnosticsFields(vorticity=vorticity(flow, mass_lu),
                             total_head=total_head(flow, mass_lu), stream=psi)


# -- Bernoulli-type boundary diagnostics --------------------------------------

def boundary_head(flow):
    """Boundary quadrature with the total head and velocity at its points.

    Returns (bq, head[nb, nq], u[nb, nq, 2]); the pressure trace on an
    edge is linear between its two endpoint values.
    """
    mesh = flow.mesh
    bq = assembly.boundary_quadrature(mesh)
    unod = flow.velocity.reshape(-1, 2)[bq.nodes3]
    u = np.einsum("qi,kix->kqx", bq.shape, unod)
    s, _ = interval_rule(assembly.EDGE_POINTS)
    pa = flow.pressure[bq.nodes3[:, :2]]
    p = pa[:, 0][:, None] * (1 - s)[None, :] + pa[:, 1][:, None] * s[None, :]
    phi = p + 0.5 * np.einsum("kqx,kqx->kq", u, u)
    return bq, phi, u


@dataclass
class BernoulliReport:
    component_means: list          # arclength mean of the total head per component
    component_deviations: list     # max |head - mean| per component
    component_fluxes: list         # contour integral of u . n per component
    consistency_value: float       # sum of mean_j * flux_j over all components

    def as_dict(self):
        return {
            "component_means": list(map(float, self.component_means)),
            "component_deviations": list(map(float, self.component_deviations)),
            "component_fluxes": list(map(float, self.component_fluxes)),
            "consistency_value": float(self.consistency_value),
        }


def bernoulli_audit(flow):
    """Boundary statistics of the total head pressure p + |u|^2/2.

    Accepts a FlowState or any object with `domain`, `velocity(points)`
    and `pressure(points)` (analytic sampling path).
    """
    pieces = []
    if isinstance(flow, FlowState):
        bq, phi, u = boundary_head(flow)
        for comp in range(flow.mesh.domain.n_components):
            sel = bq.component == comp
            flux = np.einsum("kq,kqx,kqx->", bq.w_ds[sel], u[sel], bq.normal[sel])
            pieces.append((bq.w_ds[sel], phi[sel], flux))
    else:
        domain = flow.domain
        for comp, curve in enumerate(domain.curves):
            t, _, w_ds = geometry.curve_rule(curve)
            pts, n, _, _ = geometry.frames_at(domain, comp, t)
            u = np.asarray(flow.velocity(pts), float)
            phi = np.asarray(flow.pressure(pts), float) + 0.5 * np.einsum("ma,ma->m", u, u)
            pieces.append((w_ds, phi, np.sum(w_ds * np.einsum("ma,ma->m", u, n))))
    means, devs, fluxes = [], [], []
    for w_ds, phi, flux in pieces:
        mean = float((w_ds * phi).sum() / w_ds.sum())
        means.append(mean)
        devs.append(float(np.max(np.abs(phi - mean))))
        fluxes.append(float(flux))
    return BernoulliReport(means, devs, fluxes, float(np.dot(means, fluxes)))


# -- stream function -----------------------------------------------------------

def stream_function(flow, flux_rtol=1e-8):
    """Least-squares potential with grad(psi) = (-u2, u1), zero mean.

    Requires zero net flux through every boundary component; otherwise
    the potential is multivalued and MultivaluedStreamError is raised.
    """
    mesh = flow.mesh
    bq = assembly.boundary_quadrature(mesh)
    uscale = max(float(np.max(np.abs(flow.velocity))), 1e-30)
    for comp in range(mesh.domain.n_components):
        flux = assembly.boundary_flux(mesh, flow.velocity, comp)
        length = bq.w_ds[bq.component == comp].sum()
        if abs(flux) > flux_rtol * uscale * length:
            raise MultivaluedStreamError(
                f"component {comp} carries net flux {flux:.6e}; "
                "stream function would be multivalued")
    ctx = assembly.volume_context(mesh)
    u = norms.velocity_values(mesh, flow.velocity, ctx.pts)
    rotated = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    load = np.zeros(mesh.n_p2_nodes)
    contrib = np.einsum("tq,tqix,tqx->ti", ctx.dv, ctx.grads, rotated, optimize=True)
    np.add.at(load, ctx.nodes, contrib)
    K = scalar_stiffness(mesh)
    m = scalar_integral_vector(mesh)
    scale = float(np.mean(K.diagonal())) or 1.0
    solver = BorderedSolver(K, C=m[:, None], bumps=[(0, scale)])
    psi, _, _ = solver.solve(load)
    return psi - (m @ psi) / m.sum()


# -- interior identity residuals ------------------------------------------------

def _interior_dual_norm(mesh, residual_vector, interior):
    K = scalar_stiffness(mesh)
    M = scalar_mass(mesh)
    W = (K + M).tocsc()[interior][:, interior]
    r = residual_vector[interior]
    z = _splu(W).solve(r)
    return float(np.sqrt(max(r @ z, 0.0)))


def head_pressure_residual(flow, data):
    """Dual-norm defect of the elliptic balance satisfied by the total head.

    Tests Delta(Phi) = omega^2 + div(Phi u)/nu - (f . u)/nu against
    interior quadratic test functions.
    """
    mesh = flow.mesh
    nu = flow.nu
    ctx = assembly.volume_context(mesh)
    pts, grads, dv, N, nodes = ctx.pts, ctx.grads, ctx.dv, ctx.N, ctx.nodes
    mass_lu = scalar_mass_factor(mesh)
    phi = total_head(flow, mass_lu)
    omega = vorticity(flow, mass_lu)
    gphi = np.einsum("ti,tqix->tqx", phi[nodes], grads)
    om_q = np.einsum("qi,ti->tq", N, omega[nodes])
    phi_q = np.einsum("qi,ti->tq", N, phi[nodes])
    u = norms.velocity_values(mesh, flow.velocity, pts)

    r = np.zeros(mesh.n_p2_nodes)
    term = -np.einsum("tq,tqx,tqix->ti", dv, gphi, grads, optimize=True)
    term -= np.einsum("tq,tq,tq,qi->ti", dv, om_q, om_q, N, optimize=True)
    term += np.einsum("tq,tq,tqx,tqix->ti", dv, phi_q, u, grads, optimize=True) / nu
    if data.f is not None and callable(data.f):
        x = elements.mapped_points(ctx.coords, pts)
        fval = np.asarray(data.f(x.reshape(-1, 2)), float).reshape(x.shape)
        term += np.einsum("tq,tqx,tqx,qi->ti", dv, fval, u, N, optimize=True) / nu
    np.add.at(r, nodes, term)
    interior = np.nonzero(~mesh.node_is_boundary)[0]
    return _interior_dual_norm(mesh, r, interior)


def weingarten_identity_check(flow):
    """Boundary L2 residual of the tangential-stress decomposition

    [S(u) n]_tau = (curl u)(n2, -n1) + 2 grad_tau(u . n) + 2 W^T u,

    with curl u = du1/dx2 - du2/dx1 and W = kappa tau tau^T.  The
    tangential gradient term differentiates the boundary trace of u . n
    intrinsically along the curved edge, so the residual measures the
    volumetric/trace mismatch of a discrete field (order h or better for
    interpolated smooth fields, zero only in the continuum).
    """
    mesh = flow.mesh
    bq = assembly.boundary_quadrature(mesh)
    nq = bq.shape.shape[0]
    s, _ = interval_rule(nq)
    # reference coordinates of the edge quadrature points inside each triangle
    refmap = {
        0: lambda s: np.column_stack([s, np.zeros_like(s)]),
        1: lambda s: np.column_stack([1.0 - s, s]),
        2: lambda s: np.column_stack([np.zeros_like(s), 1.0 - s]),
    }
    coords_all = mesh.triangle_coords()
    p2 = mesh.p2_coords()
    unodal = flow.velocity.reshape(-1, 2)
    tri_nodes = mesh.triangle_nodes()
    total = 0.0
    length = 0.0
    for loc in (0, 1, 2):
        sel = np.nonzero(bq.local == loc)[0]
        if len(sel) == 0:
            continue
        ref = refmap[loc](s)
        tris = bq.tri[sel]
        gref = elements.p2_grad(ref)
        grads, _ = elements.physical_gradients(coords_all[tris], ref, gref)
        gu = np.einsum("kia,kqib->kqab", unodal[tri_nodes[tris]], grads)
        Nq = elements.p2_shape(ref)
        uq = np.einsum("qi,kix->kqx", Nq, unodal[tri_nodes[tris]])
        n = bq.normal[sel]
        tau = bq.tangent[sel]
        kap = bq.kappa[sel]
        S = gu + np.swapaxes(gu, 2, 3)
        Sn = np.einsum("kqab,kqb->kqa", S, n)
        Sn_tau = Sn - n * np.einsum("kqa,kqa->kq", Sn, n)[..., None]
        curl = gu[..., 0, 1] - gu[..., 1, 0]
        perp = np.stack([n[..., 1], -n[..., 0]], axis=-1)
        u_tau = np.einsum("kqa,kqa->kq", uq, tau)
        # intrinsic derivative of the trace of u . n along the curved edge
        edge_pts = p2[bq.nodes3[sel]]                       # [k, 3, 2]
        edge_u = unodal[bq.nodes3[sel]]                     # [k, 3, 2]
        dx = np.einsum("qi,kix->kqx", bq.dshape, edge_pts)  # d(map)/ds
        du = np.einsum("qi,kix->kqx", bq.dshape, edge_u)
        speed = np.hypot(dx[..., 0], dx[..., 1])
        align = np.sign(np.einsum("kqa,kqa->kq", tau, dx))
        dstangent = align * np.einsum("kqa,kqa->kq", du, n) / speed - kap * u_tau
        rhs = curl[..., None] * perp + 2.0 * dstangent[..., None] * tau \
            + 2.0 * (kap * u_tau)[..., None] * tau
        resid = Sn_tau - rhs
        total += float(np.einsum("kq,kqa,kqa->", bq.w_ds[sel], resid, resid))
        length += float(bq.w_ds[sel].sum())
    return float(np.sqrt(total / max(length, 1e-300)))


# -- the audit ------------------------------------------------------------------

@dataclass
class AuditReport:
    fluxes: dict
    theorem_friction_curvature: dict
    theorem_outflow_convex_hole: dict
    theorem_symmetric: dict
    theorem_small_flux: dict
    notes: list = field(default_factory=list)

    def as_dict(self):
        return {
            "fluxes": self.fluxes,
            "theorem_friction_curvature": self.theorem_friction_curvature,
            "theorem_outflow_convex_hole": self.theorem_outflow_convex_hole,
            "theorem_symmetric": self.theorem_symmetric,
            "theorem_small_flux": self.theorem_small_flux,
            "notes": list(self.notes),
        }

    def to_json(self, **kwargs):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, **kwargs)

    def recompute_verdicts(self):
        """Re-derive every verdict from the stored numbers."""
        out = {}
        t1 = self.theorem_friction_curvature
        out["theorem_friction_curvature"] = t1["margin"] >= 0.0
        t2 = self.theorem_outflow_convex_hole
        if t2.get("applicable", False):
            out["theorem_outflow_convex_hole"] = (
                t2["min_hole_curvature"] >= -1e-10
                and t2["outer_flux"] >= -t2["flux_tolerance"]
                and not t2["needs_nonzero_friction"])
        else:
            out["theorem_outflow_convex_hole"] = False
        t3 = self.theorem_symmetric
        out["theorem_symmetric"] = bool(t3["admissible"] and t3["data_symmetric"])
        t4 = self.theorem_small_flux
        if t4.get("evaluable", False):
            out["theorem_small_flux"] = t4["lhs"] < t4["rhs"]
        else:
            out["theorem_small_flux"] = False
        return out


def _boundary_min(domain, fn_per_component, extra_per_component=None, samples=256):
    worst = np.inf
    per_comp = []
    for comp in range(domain.n_components):
        t = (np.arange(samples) + 0.5) / samples
        pts, _, _, kappa = geometry.frames_at(domain, comp, t)
        vals = np.asarray(assembly.as_boundary_scalar(fn_per_component[comp])(t, pts), float)
        combined = vals + 2.0 * kappa if extra_per_component == "curvature" else vals
        per_comp.append(float(np.min(combined)))
        worst = min(worst, per_comp[-1])
    return worst, per_comp


def audit(domain, data, mesh=None, q=4.0):
    """Evaluate every applicability condition; always returns a report."""
    notes = []
    fluxes = extensions.component_fluxes(domain, data.a_star)
    flux_block = {
        "per_component": [float(f) for f in fluxes],
        "total": float(np.sum(fluxes)),
    }

    # friction vs curvature: need beta/nu + 2 kappa >= 0 everywhere
    ratio_fns = []
    for comp in range(domain.n_components):
        bfn = data.beta_fn(comp)
        ratio_fns.append(lambda t, x, bfn=bfn: np.asarray(bfn(t, x), float) / data.nu)
    margin, per_comp = _boundary_min(domain, ratio_fns, "curvature")
    t1 = {"margin": float(margin), "per_component_margin": per_comp,
          "verdict": bool(margin >= 0.0)}

    # outflow with one convex hole
    sym = geometry.classify_symmetry(domain)
    circ = sym.circularly_symmetric is not None
    beta_zero = data.beta_identically_zero(domain)
    t2 = {"applicable": domain.n_holes == 1}
    if domain.n_holes == 1:
        tt = (np.arange(256) + 0.5) / 256.0
        _, _, _, kap = geometry.frames_at(domain, 1, tt)
        outer_flux = float(fluxes[0])
        scale = max(abs(np.asarray(fluxes)).max(), 1e-30)
        t2.update({
            "min_hole_curvature": float(np.min(kap)),
            "outer_flux": outer_flux,
            "flux_tolerance": 1e-10 * scale,
            "needs_nonzero_friction": bool(circ and beta_zero),
        })
        t2["verdict"] = bool(
            t2["min_hole_curvature"] >= -1e-10
            and outer_flux >= -t2["flux_tolerance"]
            and not t2["needs_nonzero_friction"])
    else:
        t2["verdict"] = False
        notes.append("outflow condition applies to doubly-connected domains only")

    # mirror symmetry of domain and data
    admissible = sym.admissible_x1
    from .navier_stokes import SYMMETRY_TOL, symmetric_data_defect
    data_sym = symmetric_data_defect(domain, data) <= SYMMETRY_TOL
    t3 = {"admissible": bool(admissible), "data_symmetric": bool(data_sym),
          "verdict": bool(admissible and data_sym)}

    # small-flux condition via Korn and Sobolev estimates
    t4 = {"evaluable": False, "q": float(q), "r": float(2 * q / (q - 2)),
          "euler_supremum": "not evaluable (infinite-dimensional solution set)"}
    if mesh is None:
        notes.append("small-flux audit skipped: no mesh supplied for the constants")
    elif beta_zero and circ:
        notes.append("small-flux audit not evaluable: zero friction on a circularly "
                     "symmetric domain (no Korn bound; hypothesis excludes this case)")
    else:
        dofmap = assembly.DofMap(mesh)
        basis = extensions.harmonic_basis(mesh)
        h = extensions.harmonic_part(basis, fluxes[1:])
        hnorm = norms.lq_norm(mesh, h, q=q, vector=True)
        weight = []
        for comp in range(domain.n_components):
            bfn = data.beta_fn(comp)
            weight.append(lambda t, x, bfn=bfn: 2.0 * np.asarray(bfn(t, x), float) / data.nu)
        korn = korn_constant(mesh, dofmap, weight)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sob = sobolev_constant(mesh, dofmap, r=2 * q / (q - 2))
        lhs = float(np.sqrt(2.0) * sob.C_r * hnorm)
        rhs = float(0.5 * data.nu / korn.K)
        t4.update({
            "evaluable": True,
            "harmonic_part_lq_norm": hnorm,
            "korn_constant": korn.K,
            "korn_lambda_min": korn.lambda_min,
            "sobolev_constant": sob.C_r,
            "lhs": lhs,
            "rhs": rhs,
            "verdict": bool(lhs < rhs),
            "rigor": "non-rigorous: both constants are one-sided discrete estimates "
                     "(Korn from below, Sobolev from below), making the test permissive",
        })
    if "verdict" not in t4:
        t4["verdict"] = False

    return AuditReport(
        fluxes=flux_block,
        theorem_friction_curvature=t1,
        theorem_outflow_convex_hole=t2,
        theorem_symmetric=t3,
        theorem_small_flux=t4,
        notes=notes,
    )
