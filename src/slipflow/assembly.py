"""Discrete forms on the quadratic-velocity / linear-pressure pair.

All matrices are assembled in Cartesian velocity components; the slip
constraint rotates each boundary node's dof pair into its (n, tau) frame
and eliminates the normal dof, which is the discrete counterpart of
working in the space of fields with prescribed normal trace.  The mesh
fixes both spaces: velocity dofs are 2*node + a over its quadratic nodes,
pressure dofs are its vertices.
"""

from dataclasses import dataclass

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

    beta, a_star, b_tau hold one entry per boundary component; each entry
    is given as a constant or a callable(t, points) and kept as a callable.
    f is None, a callable(points) -> (n, 2), or a per-node array.
    """

    nu: float
    beta: tuple
    a_star: tuple
    b_tau: tuple
    f: object = None

    def __post_init__(self):
        if not (0 < self.nu < np.inf):
            raise DataError(f"viscosity must be positive and finite, got {self.nu}")
        self.beta = tuple(map(as_boundary_scalar, self.beta))
        self.a_star = tuple(map(as_boundary_scalar, self.a_star))
        self.b_tau = tuple(map(as_boundary_scalar, self.b_tau))

    def check_against(self, domain):
        """DataError unless beta, a_star and b_tau have one entry per component
        (assemble_friction checks the sign of beta, normal_trace_constraint the flux)."""
        for name, entries in (("beta", self.beta), ("a_star", self.a_star),
                              ("b_tau", self.b_tau)):
            if len(entries) != domain.n_components:
                raise DataError(f"{name} has {len(entries)} components, "
                                f"domain has {domain.n_components}")

    def free_rotation_center(self, domain):
        """Centre of the rigid rotation that costs no energy, else None.

        That is the centre of circular symmetry of the domain when beta
        vanishes at 65 samples on each component, the only case the
        existence theorems exclude.  DataError when a sample is not finite
        or the data do not have one entry per component.
        """
        self.check_against(domain)
        t = np.linspace(0.0, 1.0, 65)
        beta = boundary_values(self.beta, domain.n_components,
                               np.arange(domain.n_components)[:, None], t,
                               np.array([curve.point(t) for curve in domain.curves]),
                               "friction coefficient is not finite at a boundary sample point")
        if np.any(beta != 0.0):
            return None
        return geometry.classify_symmetry(domain).circularly_symmetric


def boundary_values(per_component, n_components, component, t, x, error):
    """Values of a per-component boundary datum at boundary points: their
    component and curve parameter t (broadcast together) and positions x [..., 2].

    Each of the n_components entries, a constant or a callable(t, points), is
    evaluated once at that component's points, in their order.  Raises
    DataError when the datum does not have n_components entries, and
    DataError(error) when a value is not finite.
    """
    if len(per_component) != n_components:
        raise DataError(f"boundary datum has {len(per_component)} components, "
                        f"domain has {n_components}")
    component, t = np.broadcast_arrays(component, np.asarray(t, float))
    vals = np.zeros(t.shape)
    for c, value in enumerate(per_component):
        sel = component == c
        if sel.any():
            vals[sel] = np.asarray(as_boundary_scalar(value)(t[sel], x[sel]), float)
    if not np.all(np.isfinite(vals)):
        raise DataError(error)
    return vals


def component_fluxes(domain, a_star):
    """Exact-curve flux of a per-component normal datum through each component.

    Returns (flux, peak, length), one entry per component: the curve_rule
    integral of a_star, max |a_star| at the rule points and the curve length.
    Raises DataError when a value at a rule point is not finite or a_star
    does not have one entry per component.
    """
    t, pts, w_ds = map(np.array, zip(*map(geometry.curve_rule, domain.curves)))
    vals = boundary_values(a_star, domain.n_components, np.arange(domain.n_components)[:, None],
                           t, pts, "normal datum is not finite at a boundary flux quadrature point")
    return np.sum(w_ds * vals, axis=1), np.max(np.abs(vals), axis=1), np.sum(w_ds, axis=1)


def check_total_flux(domain, a_star, flux_rtol=1e-8):
    """Total exact-curve flux of a per-component normal datum.

    Raises CompatibilityError unless the total vanishes to within
    flux_rtol * max|a_star| * perimeter, and DataError when the datum is
    not finite at a rule point.
    """
    flux, peak, length = component_fluxes(domain, a_star)
    total, perimeter = sum(flux.tolist()), sum(length.tolist())
    tol = max(flux_rtol * peak.max() * perimeter, 1e-14 * perimeter)
    if not abs(total) <= tol:
        raise CompatibilityError(
            f"total boundary flux {total:.6e} violates the zero-flux compatibility "
            f"condition (tolerance {tol:.3e})")
    return total


# -- per-mesh element context and field evaluation ---------------------------

def _frozen(arrays):
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


def _cached_on_mesh(mesh, name, key, build):
    """build() once per mesh, rebuilt when any object in key was replaced."""
    hit = getattr(mesh, name, None)
    if hit is not None and all(a is b for a, b in zip(hit[0], key)):
        return hit[1]
    value = build()
    setattr(mesh, name, (key, value))
    return value


def _interpolate(nodal, spaces, point_shape):
    """Values [*point_shape, ...] of a nodal array [n, ...] in the space of
    spaces = {node count: (node ids [e, k], shape functions [nq, k])} with n nodes."""
    nodal = np.asarray(nodal, float)
    if len(nodal) not in spaces:
        raise ValueError(f"a nodal array of length {len(nodal)} fits no element space here")
    ids, shape = spaces[len(nodal)]
    return (shape @ nodal[ids].reshape(*ids.shape, -1)).reshape(*point_shape, *nodal.shape[1:])


def _gradient(nodal, nodes, grads, n_nodes):
    """Gradients [e, q, ..., 2] of a P2 field on n_nodes nodes from the physical
    basis gradients grads [e, q, 6, 2] of the element nodes [e, 6]."""
    nodal = np.asarray(nodal, float)
    if len(nodal) != n_nodes:
        raise ValueError(f"gradient of a nodal array of length {len(nodal)}, not P2")
    elementT = np.swapaxes(nodal[nodes].reshape(*nodes.shape, -1), 1, 2)
    return (elementT[:, None] @ grads).reshape(*grads.shape[:2], *nodal.shape[1:], 2)


def _weighted(values, weights):
    """values [e, q, ...] (or a constant) times the quadrature weights [e, q]."""
    values = np.asarray(values, float)
    return values * weights.reshape(weights.shape + (1,) * (values.ndim - 2))


def _tested(shape, values, weights):
    """Element contributions [e, k, ...] of sum_q weights values shape[q, k]."""
    wv = _weighted(values, weights)
    return (shape.T @ wv.reshape(*weights.shape, -1)).reshape(
        len(wv), shape.shape[1], *wv.shape[2:])


def _scatter_nodal(nodes, contrib, n):
    """Sum element contributions [e, k] or [e, k, 2] into a nodal array [n] or [n, 2]."""
    if contrib.ndim == 2:
        return scatter_vector(nodes, contrib, n)
    return scatter_vector(velocity_dofs(nodes), contrib, 2 * n).reshape(-1, 2)


@dataclass(frozen=True)
class VolumeContext:
    """Element data of a mesh at one triangle rule; every array is read-only.

    The package's field evaluator: nodal fields meet quadrature points only
    through its methods.  A nodal array is a P2 scalar [n_nodes], a P2 vector
    [n_nodes, 2] (velocity coefficients.reshape(-1, 2)) or a P1 pressure [n_vertices].
    """

    pts: np.ndarray     # [nq, 2] reference quadrature points
    w: np.ndarray       # [nq] reference weights
    nodes: np.ndarray   # [nt, 6] P2 node ids per triangle, vertices first
    coords: np.ndarray  # [nt, 6, 2] P2 node coordinates per triangle
    grads: np.ndarray   # [nt, nq, 6, 2] physical gradients of the P2 basis
    dv: np.ndarray      # [nt, nq] weight times Jacobian determinant
    N: np.ndarray       # [nq, 6] P2 shape functions
    P: np.ndarray       # [nq, 3] P1 shape functions
    n_nodes: int        # P2 node count of the mesh
    n_vertices: int     # vertex (P1 pressure node) count of the mesh

    def points(self):
        """Physical quadrature points [nt, nq, 2]."""
        return self.N @ self.coords

    def values(self, nodal):
        """Field values [nt, nq, ...] at the quadrature points."""
        return _interpolate(nodal, {self.n_nodes: (self.nodes, self.N),
                                    self.n_vertices: (self.nodes[:, :3], self.P)},
                            self.dv.shape)

    def gradient(self, nodal):
        """Gradients [nt, nq, ..., 2] of a P2 field; [..., a, b] = du_a/dx_b."""
        return _gradient(nodal, self.nodes, self.grads, self.n_nodes)

    def integral(self, values):
        """Integral of values [nt, nq, ...] (or a constant) over the mesh."""
        return _weighted(values, self.dv).sum(axis=(0, 1))

    def element_load(self, values, flux=None):
        """Element contributions [nt, 6, ...] of integral values phi_i + flux . grad(phi_i).

        values [nt, nq, ...] (a constant, or None) and flux [nt, nq, ..., 2]
        share the trailing shape of the result, element-local for element matrices.
        """
        nt, nq = self.dv.shape
        out = 0.0 if values is None else _tested(self.N, values, self.dv)
        if flux is not None:
            wf = _weighted(flux, self.dv)
            per_point = self.grads @ np.swapaxes(wf.reshape(nt, nq, -1, 2), -1, -2)
            out = out + per_point.sum(axis=1).reshape(nt, 6, *wf.shape[2:-1])
        return out

    def load(self, values, flux=None):
        """Nodal vector [n_nodes] or [n_nodes, 2] of integral values phi_i + flux . grad(phi_i)."""
        return _scatter_nodal(self.nodes, self.element_load(values, flux), self.n_nodes)


def _volume_context(mesh, degree):
    pts, w = triangle_rule(degree)
    coords = mesh.triangle_coords()
    grads, det = elements.physical_gradients(coords, pts, elements.p2_grad(pts))
    if det.min() <= 0:
        raise MeshError("nonpositive Jacobian in curved element")
    ctx = VolumeContext(pts=pts, w=w, nodes=mesh.triangle_nodes(), coords=coords,
                        grads=grads, dv=det * w[None, :], N=elements.p2_shape(pts),
                        P=elements.p1_shape(pts), n_nodes=mesh.n_p2_nodes,
                        n_vertices=mesh.n_vertices)
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


# -- element to global ------------------------------------------------------

def velocity_dofs(nodes):
    """Interleaved velocity dof ids 2*node + a of a [..., k] node array, [..., 2k]."""
    return (2 * nodes[..., None] + np.arange(2)).reshape(*nodes.shape[:-1], -1)


def scatter_matrix(row_dofs, col_dofs, blocks, shape):
    """Sum element blocks [e, r, c] into a csr matrix at (row_dofs[e, r], col_dofs[e, c])."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1)
    cols = np.tile(col_dofs, (1, row_dofs.shape[1]))
    return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


def scatter_vector(dofs, contrib, n):
    """Sum element contributions into a length-n vector at dofs, in element order."""
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n)


def _scalar_form(mesh, nodes, blk):
    """Scalar P2 matrix from [t, 6, 6] element blocks."""
    return scatter_matrix(nodes, nodes, blk, (mesh.n_p2_nodes, mesh.n_p2_nodes))


def _velocity_form(mesh, nodes, blk):
    """Velocity matrix from [e, k, 2, k, 2] element blocks on the [e, k] node array."""
    dofs = velocity_dofs(nodes)
    n = 2 * mesh.n_p2_nodes
    return scatter_matrix(dofs, dofs, blk.reshape(len(dofs), dofs.shape[1], -1), (n, n))


def componentwise(scalar):
    """scalar (x) I_2 in interleaved velocity dofs, with no stored zeros."""
    out = sp.kron(scalar, sp.eye(2), format="csr")
    out.eliminate_zeros()
    return out


# -- scalar P2 forms -------------------------------------------------------

def _stiffness_blocks(ctx):
    return np.einsum("tq,tqix,tqjx->tij", ctx.dv, ctx.grads, ctx.grads, optimize=True)


def _mass_blocks(ctx):
    return np.einsum("tq,qi,qj->tij", ctx.dv, ctx.N, ctx.N, optimize=True)


def scalar_stiffness(mesh):
    """Matrix of integral grad(u) . grad(v) on the scalar P2 space."""
    ctx = volume_context(mesh)
    return _scalar_form(mesh, ctx.nodes, _stiffness_blocks(ctx))


def scalar_mass(mesh):
    """Scalar P2 L2 mass matrix."""
    ctx = volume_context(mesh)
    return _scalar_form(mesh, ctx.nodes, _mass_blocks(ctx))


def scalar_h1_gram(mesh):
    """Matrix of integral grad(u) . grad(v) + u v, the scalar P2 H1 Gram matrix."""
    ctx = volume_context(mesh)
    return _scalar_form(mesh, ctx.nodes, _stiffness_blocks(ctx) + _mass_blocks(ctx))


def scalar_integral_vector(mesh):
    """Vector of integrals of each P2 basis function."""
    return volume_context(mesh).load(1.0)


# -- velocity and pressure forms ---------------------------------------------

def assemble_viscous(mesh, nu):
    """Matrix of (nu/2) * integral S(u):S(phi) over curved elements."""
    ctx = volume_context(mesh)
    g, dv, nodes = ctx.grads, ctx.dv, ctx.nodes
    same = np.einsum("tq,tqix,tqjx->tij", dv, g, g, optimize=True)
    cross = np.einsum("tq,tqib,tqja->tiajb", dv, g, g, optimize=True)
    return _velocity_form(mesh, nodes, nu * (np.einsum("tij,ab->tiajb", same, np.eye(2)) + cross))


def assemble_vector_mass(mesh):
    """Velocity-space L2 mass matrix: the scalar mass on each component."""
    return componentwise(scalar_mass(mesh))


def assemble_vector_gradient(mesh):
    """Matrix of integral grad(u):grad(phi) (componentwise H1 seminorm)."""
    return componentwise(scalar_stiffness(mesh))


def assemble_divergence(mesh):
    """Matrix B with (B u)_q = integral q div(u); pressure rows."""
    ctx = volume_context(mesh)
    blk = np.einsum("tq,qk,tqjb->tkjb", ctx.dv, ctx.P, ctx.grads, optimize=True)  # [t, 3, 6, 2]
    return scatter_matrix(mesh.triangles, velocity_dofs(ctx.nodes),
                          blk.reshape(len(ctx.nodes), 3, 12),
                          (mesh.n_vertices, 2 * mesh.n_p2_nodes))


def assemble_pressure_mean(mesh):
    """Vector m with m_q = integral of the pressure basis function q."""
    ctx = volume_context(mesh)
    contrib = np.einsum("tq,qk->tk", ctx.dv, ctx.P)
    return scatter_vector(mesh.triangles, contrib, mesh.n_vertices)


def assemble_convection(mesh, w_coeffs, lam=1.0):
    """Matrix C(w) of integral ((w . grad) u) . phi, plus N(w) = C(w) w."""
    ctx = volume_context(mesh)
    wq = ctx.values(w_coeffs.reshape(-1, 2))
    conv = np.einsum("tqjx,tqx->tqj", ctx.grads, wq)                    # (w . grad) phi_j
    C = componentwise(_scalar_form(mesh, ctx.nodes, lam * ctx.element_load(conv)))
    return C, C @ w_coeffs


def convection_vector(mesh, w_coeffs):
    """N(w) = integral ((w . grad) w) . phi without forming C(w).

    Equals assemble_convection(mesh, w_coeffs)[1] up to roundoff.
    """
    ctx = volume_context(mesh)
    w = w_coeffs.reshape(-1, 2)
    adv = np.einsum("tqab,tqb->tqa", ctx.gradient(w), ctx.values(w))     # (w . grad) w
    return ctx.load(adv).ravel()


def assemble_convection_newton(mesh, w_coeffs, lam=1.0):
    """Matrix of integral ((u . grad) w) . phi for the Newton linearization."""
    ctx = volume_context(mesh)
    gw = ctx.gradient(w_coeffs.reshape(-1, 2))                         # [t, q, a, b]
    # one trial function j at a time keeps the temporaries at [t, q, 2, 2]
    blk = np.stack([ctx.element_load(ctx.N[:, j, None, None] * gw) for j in range(6)], axis=3)
    return _velocity_form(mesh, ctx.nodes, lam * blk)                  # [t, i, a, j, b]


def load_volume(mesh, f):
    """Load vector of <f, phi> for f callable, per-node array, or None."""
    if f is None:
        return np.zeros(2 * mesh.n_p2_nodes)
    ctx = volume_context(mesh)
    if callable(f):
        x = ctx.points()
        fval = np.asarray(f(x.reshape(-1, 2)), float).reshape(x.shape)
    else:
        fval = ctx.values(np.asarray(f, float).reshape(-1, 2))
    if not np.all(np.isfinite(fval)):
        raise DataError("volume force is not finite at a quadrature point")
    return ctx.load(fval).ravel()


# -- boundary quadrature ---------------------------------------------------

@dataclass
class BoundaryQuadrature:
    """Per-edge quadrature on the curved quadratic boundary edges; it evaluates
    edge traces of nodal fields as VolumeContext does (P1 linear along the edge)
    and gradients in the adjacent triangle.  Each edge runs from vertex `local`
    of that positively oriented triangle to the next, against tau = (n2, -n1)."""

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
    shape_p1: np.ndarray   # [nq, 2] linear shape functions of the end vertices
    speed: np.ndarray      # [nb, nq] arclength per unit edge parameter
    edge_len: np.ndarray   # [nb] arclength of each edge
    local: np.ndarray      # [nb] local edge in the adjacent triangle
    cell_nodes: np.ndarray   # [nb, 6] P2 node ids of the adjacent triangle
    cell_coords: np.ndarray  # [nb, 6, 2] their coordinates
    n_nodes: int           # P2 node count of the mesh
    n_vertices: int        # vertex count of the mesh
    n_components: int      # boundary component count of the domain

    def values(self, nodal):
        """Trace values [nb, nq, ...] at the edge quadrature points."""
        return _interpolate(nodal, {self.n_nodes: (self.nodes3, self.shape),
                                    self.n_vertices: (self.nodes3[:, :2], self.shape_p1)},
                            self.t.shape)

    def gradient(self, nodal):
        """Gradients [nb, nq, ..., 2] of a P2 field in the adjacent triangles;
        [..., a, b] = du_a/dx_b."""
        grads = np.empty((*self.t.shape, 6, 2))
        for loc in range(3):
            sel = self.local == loc
            ref = self.shape_p1 @ elements.P2_REFERENCE[[loc, (loc + 1) % 3]]
            grads[sel] = elements.physical_gradients(self.cell_coords[sel], ref,
                                                     elements.p2_grad(ref))[0]
        return _gradient(nodal, self.cell_nodes, grads, self.n_nodes)

    def tangential_derivative(self, nodal):
        """Derivative [nb, nq, ...] of the edge trace of a P2 field along tau."""
        d = _interpolate(nodal, {self.n_nodes: (self.nodes3, self.dshape)}, self.t.shape)
        return -d / self.speed.reshape(self.speed.shape + (1,) * (d.ndim - 2))

    def component_integrals(self, values):
        """Integral of values [nb, nq] (or a constant) over each boundary component."""
        return np.bincount(self.component, weights=_weighted(values, self.w_ds).sum(axis=1))

    def load(self, values):
        """Nodal vector [n_nodes] or [n_nodes, 2] of integral values phi_i ds."""
        return _scatter_nodal(self.nodes3, _tested(self.shape, values, self.w_ds), self.n_nodes)


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
    local, comp = rows["local"].copy(), rows["component"].copy()
    cell_nodes = mesh.triangle_nodes()[rows["tri"]]
    nodes3 = np.take_along_axis(cell_nodes, np.column_stack([local, (local + 1) % 3, 3 + local]),
                                axis=1)
    tq = rows["t0"][:, None] + s * (rows["t1"] - rows["t0"])[:, None]
    p2 = mesh.p2_coords()
    pts3 = p2[nodes3]                                       # [nb, 3, 2]
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
        shape_p1=np.column_stack([1.0 - s, s]), speed=speed, edge_len=w_ds.sum(axis=1),
        local=local, cell_nodes=cell_nodes, cell_coords=p2[cell_nodes],
        n_nodes=mesh.n_p2_nodes, n_vertices=mesh.n_vertices,
        n_components=mesh.domain.n_components)
    _frozen(vars(bq).values())
    return bq


def _eval_per_component(bq, per_component):
    """boundary_values of a per-component datum at the edge quadrature points, [nb, nq]."""
    return boundary_values(per_component, bq.n_components, bq.component[:, None], bq.t, bq.x,
                           "boundary data is not finite at a boundary quadrature point")


def assemble_friction(mesh, beta):
    """Boundary matrix of integral beta (u . tau)(phi . tau) ds."""
    bq = boundary_quadrature(mesh)
    bvals = _eval_per_component(bq, beta)
    if np.any(bvals < -1e-14):
        raise DataError("negative friction coefficient at a boundary quadrature point")
    bvals = np.maximum(bvals, 0.0)
    # basis (N_i e_a) . tau = N_i tau_a
    blk = np.einsum("kq,kq,qi,qj,kqa,kqb->kiajb",
                    bq.w_ds, bvals, bq.shape, bq.shape, bq.tangent, bq.tangent,
                    optimize=True)
    return _velocity_form(mesh, bq.nodes3, blk)


def load_boundary_tangential(mesh, b_tau):
    """Load vector of integral b_tau (phi . tau) ds."""
    bq = boundary_quadrature(mesh)
    vals = _eval_per_component(bq, b_tau)
    return bq.load(vals[..., None] * bq.tangent).ravel()


def circulation_functional(mesh, component):
    """Row vector L with L u = contour integral of u . tau over the component.

    The contour is traversed in the tau = (n2, -n1) direction.
    """
    bq = boundary_quadrature(mesh)
    on = (bq.component == component)[:, None, None]
    return bq.load(np.where(on, bq.tangent, 0.0)).ravel()


def boundary_flux(mesh, coeffs, component):
    """Contour integral of u . n over one component for a velocity field."""
    bq = boundary_quadrature(mesh)
    u_n = np.sum(bq.values(coeffs.reshape(-1, 2)) * bq.normal, axis=-1)
    return float(bq.component_integrals(u_n)[component])


# -- slip constraint -------------------------------------------------------

def boundary_node_values(mesh, per_component):
    """Boundary node ids and a per-component datum at them, on the exact curve
    parameters of the nodes; DataError when a value is not finite or the datum
    does not have one entry per component."""
    b = np.nonzero(mesh.node_is_boundary)[0]
    return b, boundary_values(per_component, mesh.domain.n_components,
                              mesh.node_component[b], mesh.node_param[b],
                              mesh.p2_coords()[b],
                              "boundary data is not finite at a boundary node")


@dataclass
class SlipConstraint:
    """Rotated basis plus elimination data for u . n = a_star at boundary nodes."""

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
        uhat = np.zeros(self.Q.shape[0])
        uhat[self.free] = u_free
        uhat[self.fixed] = self.fixed_values
        return self.Q.T @ uhat

    def restrict(self, u_full):
        """Cartesian velocity coefficients -> rotated free dofs."""
        return (self.Q @ u_full)[self.free]


def normal_trace_constraint(mesh, a_star, flux_rtol=1e-8):
    """Build the slip constraint for prescribed normal trace a_star.

    a_star is a per-component sequence.  The nodal values are
    interpolated on the exact curve parameters of the boundary nodes.
    Q is orthogonal: it takes the Cartesian dofs of each boundary node to
    its (n, tau) dofs and is the identity elsewhere; the rotated normal
    dofs 2*node are fixed.  Raises CompatibilityError when the total flux
    is out of tolerance and DataError when a nodal value is not finite.
    """
    check_total_flux(mesh.domain, a_star, flux_rtol)
    b, values = boundary_node_values(mesh, a_star)
    n_velocity = 2 * mesh.n_p2_nodes
    idx = np.nonzero(~mesh.node_is_boundary)[0]
    n, tau = mesh.node_normal[b], mesh.node_tangent[b]
    rows = np.concatenate([2 * idx, 2 * idx + 1, 2 * b, 2 * b, 2 * b + 1, 2 * b + 1])
    cols = np.concatenate([2 * idx, 2 * idx + 1, 2 * b, 2 * b + 1, 2 * b, 2 * b + 1])
    vals = np.concatenate([np.ones(2 * len(idx)), n[:, 0], n[:, 1], tau[:, 0], tau[:, 1]])
    Q = sp.csr_matrix((vals, (rows, cols)), shape=(n_velocity, n_velocity))
    fixed = 2 * b
    mask = np.ones(n_velocity, bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    return SlipConstraint(Q=Q, free=free, fixed=fixed, fixed_values=values)


@dataclass
class ConstrainedSystem:
    """Stokes blocks reduced to the tangential/interior dof space."""

    constraint: SlipConstraint
    A_ff: sp.csr_matrix
    B_f: sp.csr_matrix
    F_f: np.ndarray
    G_f: np.ndarray
    mean: np.ndarray


def apply_normal_trace(mesh, A, B, F, mean, a_star):
    """Constrain the Stokes blocks (viscous A, divergence B, load F, pressure
    mean) to prescribed normal trace a_star."""
    con = normal_trace_constraint(mesh, a_star)
    A_ff, A_fc = con.reduce_matrix(A)
    B_f, B_c = con.reduce_rows(B)
    F_f = con.reduce_vector(F) - A_fc @ con.fixed_values
    G_f = -(B_c @ con.fixed_values)
    return ConstrainedSystem(constraint=con, A_ff=A_ff, B_f=B_f,
                             F_f=F_f, G_f=G_f, mean=mean)
