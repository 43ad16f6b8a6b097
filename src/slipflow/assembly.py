"""Discrete forms on the quadratic-velocity / linear-pressure pair.

All matrices are assembled in Cartesian velocity components; the slip
constraint rotates each boundary node's dof pair into its (n, tau) frame
and eliminates the normal dof, which is the discrete counterpart of
working in the space of fields with prescribed normal trace.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import elements, geometry
from .errors import CompatibilityError, DataError, MeshError
from .quadrature import interval_rule, triangle_rule

VOLUME_DEGREE = 6
ERROR_DEGREE = 10
EDGE_POINTS = 8


# -- problem data ----------------------------------------------------------

def as_boundary_scalar(value):
    """Normalize a per-component boundary scalar to callable(t, x) -> array."""
    if callable(value):
        return value
    const = float(value)
    return lambda t, x, c=const: np.full(np.shape(t), c)


@dataclass
class ProblemData:
    """Viscosity, volume force and per-component boundary data.

    beta, a_star, b_tau are sequences with one entry per boundary
    component; each entry is a constant or a callable(t, points).
    f is None, a callable(points) -> (n, 2), or a per-node array.
    """

    nu: float
    beta: tuple
    a_star: tuple
    b_tau: tuple
    f: object = None

    def __post_init__(self):
        if self.nu <= 0:
            raise DataError(f"viscosity must be positive, got {self.nu}")
        self.beta = tuple(self.beta)
        self.a_star = tuple(self.a_star)
        self.b_tau = tuple(self.b_tau)

    def component_count(self):
        return len(self.beta)

    def beta_fn(self, comp):
        return as_boundary_scalar(self.beta[comp])

    def a_fn(self, comp):
        return as_boundary_scalar(self.a_star[comp])

    def b_fn(self, comp):
        return as_boundary_scalar(self.b_tau[comp])

    def check_against(self, domain, flux_rtol=1e-8):
        """Validate data against a domain: component count, beta sign, flux."""
        if self.component_count() != domain.n_components:
            raise DataError(
                f"data has {self.component_count()} components, domain has {domain.n_components}")
        for comp, curve in enumerate(domain.curves):
            t, pts, _ = geometry.curve_rule(curve)
            if np.any(np.asarray(self.beta_fn(comp)(t, pts), float) < -1e-14):
                raise DataError(f"negative friction coefficient on component {comp}")
        return check_total_flux(domain, self.a_star, flux_rtol)

    def beta_identically_zero(self, domain, samples=65):
        for comp in range(domain.n_components):
            fn = self.beta_fn(comp)
            t = np.linspace(0.0, 1.0, samples)
            vals = np.asarray(fn(t, domain.curves[comp].point(t)), float)
            if np.max(np.abs(vals)) > 0:
                return False
        return True


def check_total_flux(domain, a_star, flux_rtol=1e-8):
    """Total exact-curve flux of a per-component normal datum.

    Raises CompatibilityError unless the total vanishes to within
    flux_rtol * max|a_star| * perimeter (a non-finite total fails too).
    """
    if len(a_star) != domain.n_components:
        raise DataError(
            f"normal datum has {len(a_star)} components, domain has {domain.n_components}")
    total = 0.0
    scale = 0.0
    perimeter = 0.0
    for curve, a in zip(domain.curves, a_star):
        t, pts, w_ds = geometry.curve_rule(curve)
        vals = np.asarray(as_boundary_scalar(a)(t, pts), float)
        total += float(np.sum(w_ds * vals))
        scale = max(scale, float(np.max(np.abs(vals))))
        perimeter += float(np.sum(w_ds))
    tol = max(flux_rtol * scale * perimeter, 1e-14 * perimeter)
    if not abs(total) <= tol:
        raise CompatibilityError(
            f"total boundary flux {total:.6e} violates the zero-flux compatibility "
            f"condition (tolerance {tol:.3e})")
    return total


# -- dof map ---------------------------------------------------------------

class DofMap:
    """Velocity (2 dofs per quadratic node) and vertex pressure dofs."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.n_nodes = mesh.n_p2_nodes
        self.n_velocity = 2 * self.n_nodes
        self.n_pressure = mesh.n_vertices
        self.boundary_nodes = np.nonzero(mesh.node_is_boundary)[0]

    def velocity_dofs(self, nodes):
        nodes = np.asarray(nodes)
        return np.stack([2 * nodes, 2 * nodes + 1], axis=-1)

    def rotation(self):
        """Orthogonal map taking Cartesian dofs to (n, tau) dofs at boundary nodes."""
        mesh = self.mesh
        rows, cols, vals = [], [], []
        interior = np.ones(self.n_nodes, bool)
        interior[self.boundary_nodes] = False
        idx = np.nonzero(interior)[0]
        for k in (0, 1):
            rows.append(2 * idx + k)
            cols.append(2 * idx + k)
            vals.append(np.ones(len(idx)))
        b = self.boundary_nodes
        n = mesh.node_normal[b]
        tau = mesh.node_tangent[b]
        rows.extend([2 * b, 2 * b, 2 * b + 1, 2 * b + 1])
        cols.extend([2 * b, 2 * b + 1, 2 * b, 2 * b + 1])
        vals.extend([n[:, 0], n[:, 1], tau[:, 0], tau[:, 1]])
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n_velocity, self.n_velocity))

    def normal_dofs(self):
        """Rotated dof ids carrying the normal component at boundary nodes."""
        return 2 * self.boundary_nodes


# -- per-mesh element context ----------------------------------------------

def _frozen(arrays):
    for a in arrays:
        a.flags.writeable = False


def _cached_on_mesh(mesh, name, key, build):
    """build() once per mesh, rebuilt when any object in key was replaced."""
    hit = getattr(mesh, name, None)
    if hit is not None and all(a is b for a, b in zip(hit[0], key)):
        return hit[1]
    value = build()
    setattr(mesh, name, (key, value))
    return value


@dataclass(frozen=True)
class VolumeContext:
    """Element data of a mesh at one triangle rule; every array is read-only."""

    pts: np.ndarray     # [nq, 2] reference quadrature points
    w: np.ndarray       # [nq] reference weights
    nodes: np.ndarray   # [nt, 6] P2 node ids per triangle
    coords: np.ndarray  # [nt, 6, 2] P2 node coordinates per triangle
    grads: np.ndarray   # [nt, nq, 6, 2] physical gradients of the P2 basis
    dv: np.ndarray      # [nt, nq] weight times Jacobian determinant
    N: np.ndarray       # [nq, 6] P2 shape functions
    P: np.ndarray       # [nq, 3] P1 shape functions


def _volume_context(mesh, degree):
    pts, w = triangle_rule(degree)
    coords = mesh.triangle_coords()
    grads, det = elements.physical_gradients(coords, pts, elements.p2_grad(pts))
    if det.min() <= 0:
        raise MeshError("nonpositive Jacobian in curved element")
    ctx = VolumeContext(pts=pts, w=w, nodes=mesh.triangle_nodes(), coords=coords,
                        grads=grads, dv=det * w[None, :], N=elements.p2_shape(pts),
                        P=elements.p1_shape(pts))
    _frozen(vars(ctx).values())
    return ctx


def volume_context(mesh, degree=VOLUME_DEGREE):
    """Element geometry of the mesh at the given triangle rule.

    The VOLUME_DEGREE context is derived once and kept on the mesh; it is
    derived again when the mesh's vertices, triangles, tri_edges or
    edge_nodes are replaced by other arrays.  Other degrees (the
    ERROR_DEGREE norms) are derived on every call and not kept.
    Raises MeshError when an element has a nonpositive Jacobian.
    """
    if degree != VOLUME_DEGREE:
        return _volume_context(mesh, degree)
    key = (mesh.vertices, mesh.triangles, mesh.tri_edges, mesh.edge_nodes)
    return _cached_on_mesh(mesh, "_volume_context", key,
                           lambda: _volume_context(mesh, degree))


def _scatter(rows, cols, vals, shape):
    return sp.csr_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


def _vector_pattern(dofmap, nodes):
    """Row/col index grids for interleaved 12x12 element blocks."""
    nt = nodes.shape[0]
    dofs = np.empty((nt, 12), np.int64)
    dofs[:, 0::2] = 2 * nodes
    dofs[:, 1::2] = 2 * nodes + 1
    rows = np.repeat(dofs, 12, axis=1)
    cols = np.tile(dofs, (1, 12))
    return dofs, rows, cols


def _interleave(block_iajb):
    """[t, i, a, j, b] element blocks -> [t, 12, 12] interleaved dofs."""
    nt = block_iajb.shape[0]
    return block_iajb.transpose(0, 1, 2, 3, 4).reshape(nt, 12, 12)


def assemble_viscous(mesh, dofmap, nu):
    """Matrix of (nu/2) * integral S(u):S(phi) over curved elements."""
    ctx = volume_context(mesh)
    g, dv, nodes = ctx.grads, ctx.dv, ctx.nodes
    same = np.einsum("tq,tqix,tqjx->tij", dv, g, g, optimize=True)
    cross = np.einsum("tq,tqib,tqja->tiajb", dv, g, g, optimize=True)
    block = nu * (np.einsum("tij,ab->tiajb", same, np.eye(2)) + cross)
    _, rows, cols = _vector_pattern(dofmap, nodes)
    return _scatter(rows, cols, _interleave(block), (dofmap.n_velocity, dofmap.n_velocity))


def assemble_vector_mass(mesh, dofmap):
    """Velocity-space L2 mass matrix."""
    ctx = volume_context(mesh)
    nodes = ctx.nodes
    m = np.einsum("tq,qi,qj->tij", ctx.dv, ctx.N, ctx.N, optimize=True)
    block = np.einsum("tij,ab->tiajb", m, np.eye(2))
    _, rows, cols = _vector_pattern(dofmap, nodes)
    return _scatter(rows, cols, _interleave(block), (dofmap.n_velocity, dofmap.n_velocity))


def assemble_vector_gradient(mesh, dofmap):
    """Matrix of integral grad(u):grad(phi) (componentwise H1 seminorm)."""
    ctx = volume_context(mesh)
    nodes, g = ctx.nodes, ctx.grads
    same = np.einsum("tq,tqix,tqjx->tij", ctx.dv, g, g, optimize=True)
    block = np.einsum("tij,ab->tiajb", same, np.eye(2))
    _, rows, cols = _vector_pattern(dofmap, nodes)
    return _scatter(rows, cols, _interleave(block), (dofmap.n_velocity, dofmap.n_velocity))


def assemble_divergence(mesh, dofmap):
    """Matrix B with (B u)_q = integral q div(u); pressure rows."""
    ctx = volume_context(mesh)
    nodes = ctx.nodes
    blk = np.einsum("tq,qk,tqjb->tkjb", ctx.dv, ctx.P, ctx.grads, optimize=True)  # [t, 3, 6, 2]
    nt = len(nodes)
    vals = blk.reshape(nt, 3, 12)
    prow = np.repeat(mesh.triangles, 12, axis=1)
    dofs = np.empty((nt, 12), np.int64)
    dofs[:, 0::2] = 2 * nodes
    dofs[:, 1::2] = 2 * nodes + 1
    pcol = np.tile(dofs, (1, 3))
    return _scatter(prow, pcol, vals, (dofmap.n_pressure, dofmap.n_velocity))


def assemble_pressure_mean(mesh, dofmap):
    """Vector m with m_q = integral of the pressure basis function q."""
    ctx = volume_context(mesh)
    contrib = np.einsum("tq,qk->tk", ctx.dv, ctx.P)
    m = np.zeros(dofmap.n_pressure)
    np.add.at(m, mesh.triangles, contrib)
    return m


def velocity_gradient_at(mesh, coeffs, grads):
    """Velocity gradients du_a/dx_b at quadrature points, [t, q, 2, 2]."""
    nodal = coeffs.reshape(-1, 2)[mesh.triangle_nodes()]
    return np.einsum("tia,tqib->tqab", nodal, grads)


def assemble_convection(mesh, dofmap, w_coeffs, lam=1.0):
    """Matrix C(w) of integral ((w . grad) u) . phi, plus N(w) = C(w) w."""
    ctx = volume_context(mesh)
    nodes = ctx.nodes
    wq_field = np.einsum("qi,tix->tqx", ctx.N, w_coeffs.reshape(-1, 2)[nodes])
    conv = np.einsum("tqx,tqjx->tqj", wq_field, ctx.grads)  # (w . grad) phi_j
    scal = lam * np.einsum("tq,qi,tqj->tij", ctx.dv, ctx.N, conv, optimize=True)
    block = np.einsum("tij,ab->tiajb", scal, np.eye(2))
    _, rows, cols = _vector_pattern(dofmap, nodes)
    C = _scatter(rows, cols, _interleave(block), (dofmap.n_velocity, dofmap.n_velocity))
    return C, C @ w_coeffs


def convection_vector(mesh, dofmap, w_coeffs):
    """N(w) = integral ((w . grad) w) . phi without forming C(w).

    Equals assemble_convection(mesh, dofmap, w_coeffs)[1] up to roundoff.
    """
    ctx = volume_context(mesh)
    nodal = w_coeffs.reshape(-1, 2)[ctx.nodes]                  # [t, i, a]
    wq = np.einsum("qi,tia->tqa", ctx.N, nodal)
    adv = np.einsum("tqb,tqib,tia->tqa", wq, ctx.grads, nodal, optimize=True)
    contrib = np.einsum("tq,qi,tqa->tia", ctx.dv, ctx.N, adv, optimize=True)
    dofs = 2 * ctx.nodes[:, :, None] + np.arange(2)
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=dofmap.n_velocity)


def assemble_convection_newton(mesh, dofmap, w_coeffs, lam=1.0):
    """Matrix of integral ((u . grad) w) . phi for the Newton linearization."""
    ctx = volume_context(mesh)
    nodes, N = ctx.nodes, ctx.N
    gw = velocity_gradient_at(mesh, w_coeffs, ctx.grads)    # [t, q, a, b]
    block = lam * np.einsum("tq,qi,qj,tqab->tiajb", ctx.dv, N, N, gw, optimize=True)
    _, rows, cols = _vector_pattern(dofmap, nodes)
    return _scatter(rows, cols, _interleave(block), (dofmap.n_velocity, dofmap.n_velocity))


def load_volume(mesh, dofmap, f):
    """Load vector of <f, phi> for f callable, per-node array, or None."""
    F = np.zeros(dofmap.n_velocity)
    if f is None:
        return F
    ctx = volume_context(mesh)
    N, nodes = ctx.N, ctx.nodes
    if callable(f):
        x = elements.mapped_points(ctx.coords, ctx.pts)
        fval = np.asarray(f(x.reshape(-1, 2)), float).reshape(x.shape)
    else:
        fnod = np.asarray(f, float).reshape(-1, 2)[nodes]
        fval = np.einsum("qi,tix->tqx", N, fnod)
    if not np.all(np.isfinite(fval)):
        raise DataError("volume force is not finite at a quadrature point")
    contrib = np.einsum("tq,qi,tqx->tix", ctx.dv, N, fval, optimize=True)
    np.add.at(F, 2 * nodes, contrib[:, :, 0])
    np.add.at(F, 2 * nodes + 1, contrib[:, :, 1])
    return F


# -- boundary quadrature ---------------------------------------------------

@dataclass
class BoundaryQuadrature:
    """Per-edge quadrature on the curved quadratic boundary edges."""

    nodes3: np.ndarray     # [nb, 3] P2 node ids (first, second, mid)
    component: np.ndarray  # [nb]
    t: np.ndarray          # [nb, nq] curve parameters
    x: np.ndarray          # [nb, nq, 2] positions (isoparametric map)
    w_ds: np.ndarray       # [nb, nq] quadrature weight times arclength element
    normal: np.ndarray     # [nb, nq, 2]
    tangent: np.ndarray    # [nb, nq, 2]
    kappa: np.ndarray      # [nb, nq]
    shape: np.ndarray      # [nq, 3] edge shape functions
    dshape: np.ndarray     # [nq, 3]
    edge_len: np.ndarray   # [nb] arclength of each edge
    tri: np.ndarray        # [nb] adjacent triangle
    local: np.ndarray      # [nb] local edge in the triangle


def boundary_quadrature(mesh):
    """EDGE_POINTS-point rule on every boundary edge, kept on the mesh.

    Derived again when the mesh's vertices, triangles, tri_edges,
    edge_nodes, boundary_edges or domain are replaced; arrays are read-only.
    """
    key = (mesh.vertices, mesh.triangles, mesh.tri_edges, mesh.edge_nodes,
           mesh.boundary_edges, mesh.domain)
    return _cached_on_mesh(mesh, "_boundary_quadrature", key,
                           lambda: _boundary_quadrature(mesh))


def _boundary_quadrature(mesh):
    s, w = interval_rule(EDGE_POINTS)
    Nq = elements.edge_shape(s)
    dNq = elements.edge_shape_deriv(s)
    rows = mesh.boundary_edges
    nb = len(rows)
    nodes3 = np.zeros((nb, 3), np.int64)
    comp = np.zeros(nb, np.int64)
    tq = np.zeros((nb, EDGE_POINTS))
    tri = np.zeros(nb, np.int64)
    local = np.zeros(nb, np.int64)
    nv = mesh.n_vertices
    coords = mesh.p2_coords()
    for k, row in enumerate(rows):
        e = row["edge"]
        a = mesh.triangles[row["tri"]][row["local"]]
        b = mesh.triangles[row["tri"]][(row["local"] + 1) % 3]
        nodes3[k] = (a, b, nv + e)
        comp[k] = row["component"]
        tq[k] = row["t0"] + s * (row["t1"] - row["t0"])
        tri[k] = row["tri"]
        local[k] = row["local"]
    pts3 = coords[nodes3]                                   # [nb, 3, 2]
    x = np.einsum("qi,kix->kqx", Nq, pts3)
    dx = np.einsum("qi,kix->kqx", dNq, pts3)
    speed = np.hypot(dx[..., 0], dx[..., 1])
    w_ds = speed * w[None, :]
    normal = np.zeros((nb, EDGE_POINTS, 2))
    tangent = np.zeros((nb, EDGE_POINTS, 2))
    kappa = np.zeros((nb, EDGE_POINTS))
    for c in range(mesh.domain.n_components):
        sel = comp == c
        if not sel.any():
            continue
        _, n, tau, kap = geometry.frames_at(mesh.domain, c, tq[sel].ravel())
        normal[sel] = n.reshape(-1, EDGE_POINTS, 2)
        tangent[sel] = tau.reshape(-1, EDGE_POINTS, 2)
        kappa[sel] = kap.reshape(-1, EDGE_POINTS)
    bq = BoundaryQuadrature(
        nodes3=nodes3, component=comp, t=tq, x=x, w_ds=w_ds,
        normal=normal, tangent=tangent, kappa=kappa, shape=Nq, dshape=dNq,
        edge_len=w_ds.sum(axis=1), tri=tri, local=local)
    _frozen(vars(bq).values())
    return bq


def _eval_per_component(bq, per_component_fns):
    vals = np.zeros(bq.t.shape)
    for c, fn in enumerate(per_component_fns):
        sel = bq.component == c
        if sel.any():
            vals[sel] = np.asarray(
                fn(bq.t[sel].ravel(), bq.x[sel].reshape(-1, 2)), float
            ).reshape(-1, bq.t.shape[1])
    if not np.all(np.isfinite(vals)):
        raise DataError("boundary data is not finite at a boundary quadrature point")
    return vals


def assemble_friction(mesh, dofmap, beta):
    """Boundary matrix of integral beta (u . tau)(phi . tau) ds."""
    bq = boundary_quadrature(mesh)
    fns = [as_boundary_scalar(b) for b in beta]
    bvals = _eval_per_component(bq, fns)
    if np.any(bvals < -1e-14):
        raise DataError("negative friction coefficient at a boundary quadrature point")
    bvals = np.maximum(bvals, 0.0)
    # basis (N_i e_a) . tau = N_i tau_a
    blk = np.einsum("kq,kq,qi,qj,kqa,kqb->kiajb",
                    bq.w_ds, bvals, bq.shape, bq.shape, bq.tangent, bq.tangent,
                    optimize=True)
    nb = len(bq.nodes3)
    dofs = np.empty((nb, 6), np.int64)
    dofs[:, 0::2] = 2 * bq.nodes3
    dofs[:, 1::2] = 2 * bq.nodes3 + 1
    rows = np.repeat(dofs, 6, axis=1)
    cols = np.tile(dofs, (1, 6))
    vals = blk.reshape(nb, 6, 6)
    return _scatter(rows, cols, vals, (dofmap.n_velocity, dofmap.n_velocity))


def load_boundary_tangential(mesh, dofmap, b_tau):
    """Load vector of integral b_tau (phi . tau) ds."""
    F = np.zeros(dofmap.n_velocity)
    bq = boundary_quadrature(mesh)
    fns = [as_boundary_scalar(b) for b in b_tau]
    vals = _eval_per_component(bq, fns)
    contrib = np.einsum("kq,kq,qi,kqa->kia", bq.w_ds, vals, bq.shape, bq.tangent,
                        optimize=True)
    np.add.at(F, 2 * bq.nodes3, contrib[:, :, 0])
    np.add.at(F, 2 * bq.nodes3 + 1, contrib[:, :, 1])
    return F


def circulation_functional(mesh, dofmap, component):
    """Row vector L with L u = contour integral of u . tau over the component.

    The contour is traversed in the tau = (n2, -n1) direction.
    """
    bq = boundary_quadrature(mesh)
    L = np.zeros(dofmap.n_velocity)
    sel = bq.component == component
    contrib = np.einsum("kq,qi,kqa->kia", bq.w_ds[sel], bq.shape, bq.tangent[sel],
                        optimize=True)
    np.add.at(L, 2 * bq.nodes3[sel], contrib[:, :, 0])
    np.add.at(L, 2 * bq.nodes3[sel] + 1, contrib[:, :, 1])
    return L


def boundary_flux(mesh, coeffs, component):
    """Contour integral of u . n over one component for a velocity field."""
    bq = boundary_quadrature(mesh)
    sel = bq.component == component
    uval = np.einsum("qi,kix->kqx", bq.shape, coeffs.reshape(-1, 2)[bq.nodes3[sel]])
    return float(np.einsum("kq,kqx,kqx->", bq.w_ds[sel], uval, bq.normal[sel]))


# -- slip constraint -------------------------------------------------------

@dataclass
class SlipConstraint:
    """Rotated basis plus elimination data for u . n = a_star at boundary nodes."""

    dofmap: DofMap
    Q: sp.csr_matrix
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray

    def reduce_matrix(self, A):
        """Rotate a velocity-velocity matrix and split (A_ff, A_fc)."""
        Ahat = (self.Q @ A) @ self.Q.T
        return Ahat[self.free][:, self.free], Ahat[self.free][:, self.fixed]

    def reduce_rows(self, B):
        """Rotate the columns of a (pressure x velocity) matrix and split."""
        Bhat = B @ self.Q.T
        return Bhat[:, self.free], Bhat[:, self.fixed]

    def reduce_vector(self, F):
        return (self.Q @ F)[self.free]

    def expand(self, u_free):
        """Rotated free dofs -> full Cartesian velocity coefficients."""
        uhat = np.zeros(self.dofmap.n_velocity)
        uhat[self.free] = u_free
        uhat[self.fixed] = self.fixed_values
        return self.Q.T @ uhat

    def restrict(self, u_full):
        """Cartesian velocity coefficients -> rotated free dofs."""
        return (self.Q @ u_full)[self.free]


def normal_trace_constraint(mesh, dofmap, a_star, flux_rtol=1e-8):
    """Build the slip constraint for prescribed normal trace a_star.

    a_star is a per-component sequence.  The nodal values are
    interpolated on the exact curve parameters of the boundary nodes.
    Raises CompatibilityError when the total flux is out of tolerance.
    """
    check_total_flux(mesh.domain, a_star, flux_rtol)
    fns = [as_boundary_scalar(a) for a in a_star]
    Q = dofmap.rotation()
    fixed = dofmap.normal_dofs()
    mask = np.ones(dofmap.n_velocity, bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    b = dofmap.boundary_nodes
    values = np.zeros(len(fixed))
    coords = mesh.p2_coords()
    for comp in range(mesh.domain.n_components):
        sel = mesh.node_component[b] == comp
        if sel.any():
            values[sel] = np.asarray(
                fns[comp](mesh.node_param[b[sel]], coords[b[sel]]), float)
    return SlipConstraint(dofmap=dofmap, Q=Q, free=free, fixed=fixed,
                          fixed_values=values)


@dataclass
class StokesSystem:
    """Unconstrained assembled blocks of the viscous slip problem."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    F: np.ndarray
    mean: np.ndarray


@dataclass
class ConstrainedSystem:
    """Stokes blocks reduced to the tangential/interior dof space."""

    constraint: SlipConstraint
    A_ff: sp.csr_matrix
    B_f: sp.csr_matrix
    F_f: np.ndarray
    G_f: np.ndarray
    mean: np.ndarray


def apply_normal_trace(mesh, dofmap, system, a_star):
    """Constrain a StokesSystem to prescribed normal trace a_star."""
    con = normal_trace_constraint(mesh, dofmap, a_star)
    A_ff, A_fc = con.reduce_matrix(system.A)
    B_f, B_c = con.reduce_rows(system.B)
    F_f = con.reduce_vector(system.F) - A_fc @ con.fixed_values
    G_f = -(B_c @ con.fixed_values)
    return ConstrainedSystem(constraint=con, A_ff=A_ff, B_f=B_f,
                             F_f=F_f, G_f=G_f, mean=system.mean)
