"""Numeric audits of the solvability conditions and solution diagnostics.

The audit evaluates, for given data on a given domain, the margins of
each solvability condition: friction against boundary curvature,
outflow through the outer boundary with a convex hole, smallness of the
harmonic part against Korn/Sobolev constants, and mirror symmetry.  The
verdicts are pure functions of the recorded numbers.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import assembly, extensions, geometry, norms
from .assembly import component_fluxes
from .concurrency import beside
from .errors import MultivaluedStreamError
from .linear_solvers import (FlowState, interior_h1_factor, korn_constant, l2_projection,
                             sobolev_constant, zero_mean_neumann_solve)
from .navier_stokes import SYMMETRY_TOL, symmetric_data_defect


# -- field extraction --------------------------------------------------------

def vorticity(flow, mass=None):
    """P2 projection of du1/dx2 - du2/dx1 (outward-normal curl convention);
    mass: scalar_mass(flow.mesh) when the caller has assembled it."""
    gu = assembly.volume_context(flow.mesh).gradient(flow.velocity.reshape(-1, 2))
    return l2_projection(flow.mesh, gu[..., 0, 1] - gu[..., 1, 0], mass)


def _head_values(ctx, flow):
    """Velocity [.., 2] and total head p + |u|^2/2 at the points of an evaluator."""
    u = ctx.values(flow.velocity.reshape(-1, 2))
    return u, ctx.values(flow.pressure) + 0.5 * np.sum(u * u, axis=-1)


def total_head(flow, mass=None):
    """P2 projection of p + |u|^2/2; mass as for vorticity."""
    _, head = _head_values(assembly.volume_context(flow.mesh), flow)
    return l2_projection(flow.mesh, head, mass)


# -- Bernoulli-type boundary diagnostics --------------------------------------

def boundary_head(flow):
    """Boundary quadrature with the total head and velocity at its points.

    Returns (bq, head[nb, nq], u[nb, nq, 2]); the pressure trace on an
    edge is linear between its two endpoint values.
    """
    bq = assembly.boundary_quadrature(flow.mesh)
    u, head = _head_values(bq, flow)
    return bq, head, u


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
        fluxes = bq.component_integrals(np.sum(u * bq.normal, axis=-1))
        for comp, flux in enumerate(fluxes):
            sel = bq.component == comp
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

def stream_function(flow):
    """Least-squares potential with grad(psi) = (-u2, u1), zero mean.

    Requires zero net flux through every boundary component; otherwise
    the potential is multivalued and MultivaluedStreamError is raised.
    """
    mesh = flow.mesh
    uscale = max(float(np.max(np.abs(flow.velocity))), 1e-30)
    bq = assembly.boundary_quadrature(mesh)
    u_n = np.sum(bq.values(flow.velocity.reshape(-1, 2)) * bq.normal, axis=-1)
    lengths = bq.component_integrals(1.0)
    for comp, (flux, length) in enumerate(zip(bq.component_integrals(u_n), lengths)):
        if abs(flux) > assembly.FLUX_RTOL * uscale * length:
            raise MultivaluedStreamError(
                f"component {comp} carries net flux {flux:.6e}; "
                "stream function would be multivalued")
    ctx = assembly.volume_context(mesh)
    u = ctx.values(flow.velocity.reshape(-1, 2))
    rotated = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    return zero_mean_neumann_solve(mesh, ctx.load(None, flux=rotated))


# -- interior identity residuals ------------------------------------------------

def _interior_dual_norm(mesh, residual_vector):
    """H^{-1} norm of a load tested against the interior P2 functions."""
    r = residual_vector[~mesh.node_is_boundary]
    z = interior_h1_factor(mesh).solve(r)
    return float(np.sqrt(max(r @ z, 0.0)))


def head_pressure_residual(flow, data, fields=None):
    """Dual-norm defect of the elliptic balance satisfied by the total head.

    Tests Delta(Phi) = omega^2 + div(Phi u)/nu - (f . u)/nu against
    interior quadratic test functions.  fields: the (vorticity, total_head)
    projections of flow when the caller has them.
    """
    mesh, nu = flow.mesh, flow.nu
    ctx = assembly.volume_context(mesh)
    if fields is None:
        mass = assembly.scalar_mass(mesh)
        fields = vorticity(flow, mass), total_head(flow, mass)
    om, phi = ctx.values(fields[0]), fields[1]
    u = ctx.values(flow.velocity.reshape(-1, 2))
    values = -om * om
    if data.f is not None:
        x = ctx.points()
        fval = np.asarray(data.f(x.reshape(-1, 2)), float).reshape(x.shape)
        values = values + np.sum(fval * u, axis=-1) / nu
    flux = ctx.values(phi)[..., None] * u / nu - ctx.gradient(phi)
    return _interior_dual_norm(mesh, ctx.load(values, flux))


def weingarten_identity_check(flow):
    """Boundary L2 residual of the tangential-stress decomposition

    [S(u) n]_tau = (curl u)(n2, -n1) + 2 grad_tau(u . n) + 2 W^T u,

    with curl u = du1/dx2 - du2/dx1 and W = kappa tau tau^T.  The
    tangential gradient term differentiates the boundary trace of u . n
    intrinsically along the curved edge, so the residual measures the
    volumetric/trace mismatch of a discrete field (order h or better for
    interpolated smooth fields, zero only in the continuum).
    """
    bq = assembly.boundary_quadrature(flow.mesh)
    u = flow.velocity.reshape(-1, 2)
    gu, uq, du = bq.gradient(u), bq.values(u), bq.tangential_derivative(u)
    n, tau, kap = bq.normal, bq.tangent, bq.kappa
    Sn = ((gu + np.swapaxes(gu, -1, -2)) @ n[..., None])[..., 0]
    Sn_tau = Sn - n * np.sum(Sn * n, axis=-1)[..., None]
    curl = gu[..., 0, 1] - gu[..., 1, 0]
    perp = np.stack([n[..., 1], -n[..., 0]], axis=-1)
    u_tau = np.sum(uq * tau, axis=-1)
    # intrinsic derivative of the trace of u . n along the curved edge
    dstangent = np.sum(du * n, axis=-1) - kap * u_tau
    rhs = curl[..., None] * perp + 2.0 * dstangent[..., None] * tau \
        + 2.0 * (kap * u_tau)[..., None] * tau
    resid = Sn_tau - rhs
    total = bq.component_integrals(np.sum(resid * resid, axis=-1)).sum()
    return float(np.sqrt(total / max(bq.component_integrals(1.0).sum(), 1e-300)))


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


def korn_weight(data):
    """Per-component boundary weight 2 beta / nu of the Korn pencil."""
    return [lambda t, x, b=b: 2.0 * np.asarray(b(t, x), float) / data.nu for b in data.beta]


def korn_and_sobolev(mesh, data, q, hole_fluxes=None):
    """(KornEstimate, SobolevEstimate at r = 2q/(q-2), L^q norm of the
    harmonic part of hole_fluxes, or None without them) of a mesh.

    The Korn pencil projects out the rigid rotation when it costs no energy.
    The mesh's element geometry, patterns and boundary rule are derived
    first, so that a worker forked by concurrency.beside does not derive
    them again; it runs the harmonic part and the Sobolev ascent while the
    caller solves the Korn pencil, the larger share of the work.  Warnings
    of the worker reach the caller.
    """
    assembly.volume_context(mesh)       # with the sparsity and the slip plan
    assembly.boundary_quadrature(mesh)

    def worker():
        hnorm = None
        if hole_fluxes is not None:
            h = extensions.harmonic_part(extensions.harmonic_basis(mesh), hole_fluxes)
            hnorm = norms.lq_norm(mesh, h, q=q)
        return hnorm, sobolev_constant(mesh, r=2 * q / (q - 2))

    with beside(worker) as sobolev:
        korn = korn_constant(mesh, korn_weight(data),
                             project_rotation=data.free_rotation_center(mesh.domain) is not None)
        hnorm, sob = sobolev.result()
    return korn, sob, hnorm


def audit(domain, data, mesh=None, q=4.0):
    """Evaluate every applicability condition and return the report.

    DataError when the data do not have one entry per component, or the
    normal datum or the friction coefficient is not finite at a boundary
    point where the conditions sample it.
    """
    data.check_against(domain)
    notes = []
    fluxes, _, _ = component_fluxes(domain, data.a_star)
    flux_block = {
        "per_component": [float(f) for f in fluxes],
        "total": float(np.sum(fluxes)),
    }

    # friction vs curvature: need beta/nu + 2 kappa >= 0 everywhere
    tt = (np.arange(256) + 0.5) / 256.0
    pts, _, _, kappas = map(np.array, zip(*(geometry.frames_at(domain, comp, tt)
                                            for comp in range(domain.n_components))))
    beta = assembly.boundary_values(
        data.beta, domain.n_components, np.arange(domain.n_components)[:, None], tt, pts,
        "friction coefficient is not finite at a boundary sample point")
    per_comp = [float(m) for m in np.min(beta / data.nu + 2.0 * kappas, axis=1)]
    margin = float(np.min(per_comp))
    t1 = {"margin": float(margin), "per_component_margin": per_comp}

    # outflow with one convex hole
    rotation_free = data.free_rotation_center(domain) is not None
    t2 = {"applicable": domain.n_holes == 1}
    if domain.n_holes == 1:
        outer_flux = float(fluxes[0])
        scale = max(abs(np.asarray(fluxes)).max(), 1e-30)
        t2.update({
            "min_hole_curvature": float(np.min(kappas[1])),
            "outer_flux": outer_flux,
            "flux_tolerance": 1e-10 * scale,
            "needs_nonzero_friction": rotation_free,
        })
    else:
        notes.append("outflow condition applies to doubly-connected domains only")

    # mirror symmetry of domain and data; the force is compared where the
    # discrete problem reads it, at the quadrature points of the mesh
    admissible = geometry.classify_symmetry(domain).admissible_x1
    if mesh is None and data.f is not None:
        data_sym = False
        notes.append("data symmetry not evaluated: no mesh supplied for the force's "
                     "quadrature points")
    else:
        data_sym = symmetric_data_defect(domain, data, mesh) <= SYMMETRY_TOL
    t3 = {"admissible": bool(admissible), "data_symmetric": bool(data_sym)}

    # small-flux condition via Korn and Sobolev estimates
    t4 = {"evaluable": False, "q": float(q), "r": float(2 * q / (q - 2)),
          "euler_supremum": "not evaluable (infinite-dimensional solution set)"}
    if mesh is None:
        notes.append("small-flux audit skipped: no mesh supplied for the constants")
    elif rotation_free:
        notes.append("small-flux audit not evaluable: zero friction on a circularly "
                     "symmetric domain (no Korn bound; hypothesis excludes this case)")
    else:
        korn, sobolev, hnorm = korn_and_sobolev(mesh, data, q, hole_fluxes=fluxes[1:])
        lhs = float(np.sqrt(2.0) * sobolev.C_r * hnorm)
        rhs = float(0.5 * data.nu / korn.K)
        t4.update({
            "evaluable": True,
            "harmonic_part_lq_norm": hnorm,
            "korn_constant": korn.K,
            "korn_lambda_min": korn.lambda_min,
            "sobolev_constant": sobolev.C_r,
            "lhs": lhs,
            "rhs": rhs,
            "rigor": "non-rigorous: both constants are one-sided discrete estimates "
                     "(Korn from below, Sobolev from below), making the test permissive",
        })
    report = AuditReport(
        fluxes=flux_block,
        theorem_friction_curvature=t1,
        theorem_outflow_convex_hole=t2,
        theorem_symmetric=t3,
        theorem_small_flux=t4,
        notes=notes,
    )
    for name, verdict in report.recompute_verdicts().items():
        getattr(report, name)["verdict"] = bool(verdict)
    return report
