"""Discrete forms on the quadratic-velocity / linear-pressure pair.

All matrices are assembled in Cartesian velocity components; the slip
constraint rotates each boundary node's dof pair into its (n, tau) frame
and eliminates the normal dof, which is the discrete counterpart of
working in the space of fields with prescribed normal trace.  The mesh
fixes both spaces: velocity dofs are 2*node + a over its quadratic nodes,
pressure dofs are its vertices.
"""

from dataclasses import dataclass, replace

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
    """Make each array, and the array it is a view of, read-only."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base


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
    # one [e m, k] @ [k, nq] product over all elements and components
    e, k = ids.shape
    vals = np.swapaxes(nodal[ids].reshape(e, k, -1), 1, 2).reshape(-1, k) @ shape.T
    vals = np.ascontiguousarray(np.swapaxes(vals.reshape(e, -1, len(shape)), 1, 2))
    return vals.reshape(*point_shape, *nodal.shape[1:])


def _gradient(nodal, nodes, dphi, n_nodes):
    """Gradients [e, q, ..., 2] of a P2 field on n_nodes nodes from the physical
    basis gradients dphi [e, 6, q, 2] (node-major) of the element nodes [e, 6]."""
    nodal = np.asarray(nodal, float)
    if len(nodal) != n_nodes:
        raise ValueError(f"gradient of a nodal array of length {len(nodal)}, not P2")
    e, k, nq, _ = dphi.shape
    # [e, 2q, 6] @ [e, 6, m]: every point and direction against the nodal values
    g = np.swapaxes(dphi.reshape(e, k, 2 * nq), 1, 2) @ nodal[nodes].reshape(e, k, -1)
    return np.swapaxes(g.reshape(e, nq, 2, -1), 2, 3).reshape(e, nq, *nodal.shape[1:], 2)


def _weighted(values, weights):
    """values [e, q, ...] (or a constant) times the quadrature weights [e, q]."""
    values = np.asarray(values, float)
    return values * weights.reshape(weights.shape + (1,) * (values.ndim - 2))


def _tested(shape, values, weights):
    """Element contributions [e, k, ...] of sum_q weights values shape[q, k]."""
    wv = _weighted(values, weights)
    # one [e m, nq] @ [nq, k] product over all elements and components
    e, nq = weights.shape
    out = np.swapaxes(wv.reshape(e, nq, -1), 1, 2).reshape(-1, nq) @ shape
    return np.swapaxes(out.reshape(e, -1, shape.shape[1]), 1, 2).reshape(
        e, shape.shape[1], *wv.shape[2:])


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
    grads: np.ndarray   # [nt, nq, 6, 2] physical gradients of the P2 basis (a view of dphi)
    dv: np.ndarray      # [nt, nq] weight times Jacobian determinant
    N: np.ndarray       # [nq, 6] P2 shape functions
    P: np.ndarray       # [nq, 3] P1 shape functions
    n_nodes: int        # P2 node count of the mesh
    n_vertices: int     # vertex (P1 pressure node) count of the mesh

    @property
    def dphi(self):
        """The basis gradients in their C-contiguous node-major layout [nt, 6, nq, 2]."""
        return np.swapaxes(self.grads, 1, 2)

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
        return _gradient(nodal, self.nodes, self.dphi, self.n_nodes)

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
            # [nt, 6, 2 nq] @ [nt, 2 nq, m]: the flux against every basis gradient
            wf = np.swapaxes(_weighted(flux, self.dv).reshape(nt, nq, -1, 2), 2, 3)
            per_node = self.dphi.reshape(nt, 6, 2 * nq) @ wf.reshape(nt, 2 * nq, -1)
            out = out + per_node.reshape(nt, 6, *np.shape(flux)[2:-1])
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
    edge_nodes are replaced by other arrays.  The mesh's Sparsity and
    SlipPlan are derived with it, ahead of the large temporaries of an
    operation, so that these long-lived arrays do not pin freed heap
    memory (derived in the middle of an audit, after the error norms'
    temporaries, they raise its peak resident memory).  Other degrees (the
    ERROR_DEGREE norms) are derived on every call and not kept.
    Raises MeshError when an element has a nonpositive Jacobian.
    """
    if degree != VOLUME_DEGREE:
        return _volume_context(mesh, degree)

    def derive():
        ctx = _volume_context(mesh, degree)
        slip_plan(mesh)
        return ctx

    key = (mesh.vertices, mesh.triangles, mesh.tri_edges, mesh.edge_nodes)
    return _cached_on_mesh(mesh, "_volume_context", key, derive)


# -- sparsity patterns and element to global -----------------------------------

def velocity_dofs(nodes):
    """Interleaved velocity dof ids 2*node + a of a [..., k] node array, [..., 2k]."""
    return (2 * nodes[..., None] + np.arange(2)).reshape(*nodes.shape[:-1], -1)


@dataclass(frozen=True)
class Pattern:
    """Canonical CSR sparsity pattern (int32 indptr and indices) of one kind of matrix.

    slots: for an element form, the data slot of each entry of its element
    blocks [e, ...], in element order (None otherwise).  velocity_slots:
    for a pattern inside the velocity pattern, the velocity-pattern data
    slot of each of its own slots (None otherwise).
    """

    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple
    slots: np.ndarray = None
    velocity_slots: np.ndarray = None

    @property
    def nnz(self):
        return len(self.indices)

    def matrix(self, data):
        """csr matrix with the given data array on this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def holds(self, A):
        """Whether the sparse matrix A was built on this pattern (shares its arrays)."""
        return (sp.issparse(A) and A.format == "csr" and A.indptr is self.indptr
                and (A.indices is self.indices or A.indices.base is self.indices))

    def rows(self):
        """Row of each data slot."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def data_of(self, A):
        """The data of the sparse matrix A laid on this pattern, zero where A
        stores nothing (A's own data when A was built on it); ValueError when
        A has an entry outside the pattern."""
        if self.holds(A):
            return A.data
        A = sp.csr_matrix(A)
        if A.shape != self.shape:
            raise ValueError(f"a {A.shape} matrix does not fit a {self.shape} pattern")
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        data = np.zeros(self.nnz)
        data[_slots_in(self, rows, A.indices)] = A.data
        return data


def _element_pattern(row_ids, col_ids, shape):
    """Pattern of the element blocks at (row_ids[e, r], col_ids[e, c]), with slots [e, r, c]."""
    keys = (row_ids.astype(np.int64)[:, :, None] * shape[1] + col_ids[:, None, :]).ravel()
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.diff(ordered, prepend=-1) != 0          # the first entry of each (row, col)
    slots = np.empty(len(keys), np.int32)
    slots[order] = np.cumsum(new) - 1
    unique = ordered[new]
    indptr = np.searchsorted(unique, np.arange(shape[0] + 1, dtype=np.int64) * shape[1])
    return Pattern(indptr=indptr.astype(np.int32), indices=(unique % shape[1]).astype(np.int32),
                   shape=shape, slots=slots.reshape(len(row_ids), -1))


def _slots_in(pattern, rows, cols):
    """Data slots of the entries (rows, cols) in pattern; ValueError if one is not in it."""
    keys = pattern.rows() * pattern.shape[1] + pattern.indices
    wanted = np.asarray(rows, np.int64) * pattern.shape[1] + cols
    slots = np.searchsorted(keys, wanted)
    if np.any(slots >= len(keys)) or np.any(keys[np.minimum(slots, len(keys) - 1)] != wanted):
        raise ValueError("the matrix has entries outside the sparsity pattern")
    return slots


def _block_slots(scalar):
    """(first, step): where the 2x2 block of each scalar P2 slot sits in the velocity pattern.

    The velocity pattern holds the full block of every scalar entry (r, c):
    row 2r + a holds the columns 2c, 2c + 1 of every entry of the scalar
    row r in turn, so the (a, b) entry of the block of slot s is at
    first[s] + a * step[s] + b, with first[s] = 2 (s + indptr[r]) and
    step[s] = 2 deg(r).
    """
    row, deg = scalar.rows(), np.diff(scalar.indptr)
    first = 2 * (np.arange(scalar.nnz, dtype=np.int32) + scalar.indptr[row])
    return first, 2 * deg[row]


@dataclass(frozen=True)
class Sparsity:
    """Sparsity patterns of a mesh's matrices; every array is read-only and int32.

    velocity holds the full 2x2 block of every scalar P2 entry in the
    interleaved dofs 2*node + a; componentwise the scalar pattern (x) I_2;
    divergence the vertex rows of the scalar pattern with doubled columns;
    friction the blocks of the boundary edges.
    """

    scalar: Pattern          # slots [nt, 36]
    velocity: Pattern        # slots [nt, 144], (i, j, b, a) order: column component first
    componentwise: Pattern   # velocity_slots; source: its scalar slot
    source: np.ndarray       # [2 nnz] the scalar data slot each componentwise slot copies
    divergence: Pattern      # slots [nt, 36], (vertex k, node j, b) order
    friction: Pattern        # slots [nb, 36], (i, a, j, b) order; velocity_slots

    def velocity_data(self, A):
        """The data of the velocity matrix A laid on the velocity pattern, zero
        where A stores nothing: through the slot map of A's pattern when A was
        built on the componentwise or friction pattern, else Pattern.data_of."""
        for pattern in (self.componentwise, self.friction):
            if pattern.holds(A):
                data = np.zeros(self.velocity.nnz)
                data[pattern.velocity_slots] = A.data
                return data
        return self.velocity.data_of(A)


def sparsity(mesh):
    """The Sparsity of the mesh, derived once and kept on the mesh.

    Derived again when the mesh's vertices, triangles, tri_edges or
    boundary_edges are replaced by other arrays.
    """
    key = (mesh.vertices, mesh.triangles, mesh.tri_edges, mesh.boundary_edges)
    return _cached_on_mesh(mesh, "_sparsity", key, lambda: _sparsity(mesh))


def _sparsity(mesh):
    nodes = mesh.triangle_nodes()
    n, nv, nt = mesh.n_p2_nodes, mesh.n_vertices, len(nodes)
    scalar = _element_pattern(nodes, nodes, (n, n))
    nnz, cols = scalar.nnz, 2 * scalar.indices
    first, step = _block_slots(scalar)

    indices = np.empty(4 * nnz, np.int32)
    slots = np.empty((nt, 36, 2, 2), np.int32)          # (i, j, b, a)
    at, steps = first[scalar.slots], step[scalar.slots]
    for a in range(2):
        for b in range(2):
            indices[first + (a * step + b)] = cols + b
            slots[..., b, a] = at + (a * steps + b)
    velocity = Pattern(indptr=_pair_indptr(4 * scalar.indptr.astype(np.int64)),
                       indices=indices, shape=(2 * n, 2 * n), slots=slots.reshape(nt, -1))

    # the (a, a) entries: row 2r + a holds column 2c + a of each entry s of the
    # scalar row r, at slot s + indptr[r] + a deg(r) = first / 2 + a step / 2
    own = first // 2
    cw_indices, source, cw_slots = (np.empty(2 * nnz, np.int32) for _ in range(3))
    for a in range(2):
        at = own + a * (step // 2)
        cw_indices[at] = cols + a
        source[at] = np.arange(nnz)
        cw_slots[at] = first + a * (step + 1)
    componentwise = Pattern(indptr=_pair_indptr(2 * scalar.indptr.astype(np.int64)),
                            indices=cw_indices, shape=(2 * n, 2 * n), velocity_slots=cw_slots)

    # vertices are the first P2 nodes and the first three of every triangle
    end = scalar.indptr[nv]
    div_slots = np.empty((nt, 3, 6, 2), np.int32)      # (vertex k, node j, b)
    for b in range(2):
        div_slots[..., b] = 2 * scalar.slots.reshape(nt, 6, 6)[:, :3] + b
    divergence = Pattern(indptr=2 * scalar.indptr[:nv + 1], shape=(nv, 2 * n),
                         indices=np.stack([cols[:end], cols[:end] + 1], axis=1).ravel(),
                         slots=div_slots.reshape(nt, -1))

    edges = _boundary_edge_nodes(mesh)[2]
    dofs = velocity_dofs(edges)
    friction = _element_pattern(dofs, dofs, (2 * n, 2 * n))
    dof_rows = friction.rows()
    at = _slots_in(scalar, dof_rows // 2, friction.indices // 2)
    friction = replace(friction, velocity_slots=(
        first[at] + (dof_rows % 2) * step[at] + friction.indices % 2).astype(np.int32))

    out = Sparsity(scalar=scalar, velocity=velocity, componentwise=componentwise,
                   source=source, divergence=divergence, friction=friction)
    _frozen([source])
    for pattern in (scalar, velocity, componentwise, divergence, friction):
        _frozen(vars(pattern).values())
    return out


def _pair_indptr(indptr):
    """int32 indptr of a pattern whose rows 2r and 2r + 1 split the entries
    indptr[r]:indptr[r + 1] in halves."""
    starts = indptr[:-1]
    rows = np.stack([starts, starts + np.diff(indptr) // 2], axis=1).ravel()
    return np.append(rows, indptr[-1]).astype(np.int32)


def scatter_matrix(pattern, blocks):
    """Sum element blocks [e, ...] into a csr matrix on an element pattern, in
    element order (one np.bincount, bitwise equal to np.add.at)."""
    data = np.bincount(pattern.slots.ravel(), weights=blocks.ravel(), minlength=pattern.nnz)
    return pattern.matrix(data)


def scatter_vector(dofs, contrib, n):
    """Sum element contributions into a length-n vector at dofs, in element order."""
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n)


def componentwise(mesh, scalar):
    """scalar (x) I_2 in interleaved velocity dofs, with no stored zeros.

    A scalar matrix not on the scalar pattern is first gathered onto it.
    """
    s = sparsity(mesh)
    data = s.scalar.data_of(scalar)[s.source]
    if np.all(data != 0.0):
        return s.componentwise.matrix(data)
    out = sp.csr_matrix((data, s.componentwise.indices.copy(), s.componentwise.indptr.copy()),
                        shape=s.componentwise.shape)
    out.eliminate_zeros()
    return out


def velocity_sum(mesh, *terms):
    """Sum of velocity matrices, each term a matrix or a (weight, matrix) pair.

    The sum is on the velocity pattern and is taken on the data arrays
    (Sparsity.velocity_data), in the order of the terms.
    """
    s = sparsity(mesh)
    data = np.zeros(s.velocity.nnz)
    for term in terms:
        weight, A = term if isinstance(term, tuple) else (1.0, term)
        data += weight * s.velocity_data(A)
    return s.velocity.matrix(data)


# -- element kernels: one GEMM per element, or one for the whole mesh ----------

def _basis_products(N):
    """[36, nq] products N_i N_j of the shape functions at each point."""
    return (N.T[:, None, :] * N.T[None, :, :]).reshape(-1, len(N))


def _by_component(ctx):
    """Basis gradients [t, 12, nq] in (node, component) rows."""
    nt, nq = ctx.dv.shape
    return np.swapaxes(ctx.dphi, 2, 3).reshape(nt, 12, nq)


def _stiffness_blocks(ctx):
    """[t, 6, 6] integral grad(phi_i) . grad(phi_j): [t, 6, 2q] @ [t, 2q, 6],
    with the contraction in (x, q) order and both operands C-contiguous, as
    np.einsum takes it (so the blocks are bitwise those of the einsum)."""
    nt, nq = ctx.dv.shape
    d = _by_component(ctx).reshape(nt, 6, 2 * nq)
    return (d * np.tile(ctx.dv, 2)[:, None, :]) @ np.ascontiguousarray(np.swapaxes(d, 1, 2))


def _mass_blocks(ctx):
    """[t, 6, 6] integral phi_i phi_j: [36, q] @ [q, t]."""
    return (_basis_products(ctx.N) @ ctx.dv.T).reshape(6, 6, -1).transpose(2, 0, 1)


def _viscous_blocks(ctx, nu):
    """[t, i, j, b, a] blocks of nu * integral (grad u : grad v + grad u : grad v^T)
    from P[t, i, x, j, y] = integral d(phi_i)/dx_x d(phi_j)/dx_y: [t, 12, q] @ [t, q, 12]."""
    nt, nq = ctx.dv.shape
    g = _by_component(ctx)                                          # [t, (i, x), q]
    P = ((g * ctx.dv[:, None, :]) @ np.swapaxes(g, 1, 2)).reshape(nt, 6, 2, 6, 2)
    blk = np.ascontiguousarray(P.transpose(0, 1, 3, 2, 4))         # grad u : grad v^T
    same = P[:, :, 0, :, 0] + P[:, :, 1, :, 1]                      # grad phi_i . grad phi_j
    for a in range(2):
        blk[..., a, a] += same
    blk *= nu
    return blk


def _divergence_blocks(ctx):
    """[t, k, j, b] integral psi_k d(phi_j)/dx_b: [t, 3, q] @ [t, q, 12]."""
    nt, nq = ctx.dv.shape
    return ((ctx.dv[:, None, :] * ctx.P.T) @ ctx.grads.reshape(nt, nq, 12)).reshape(nt, 3, 6, 2)


def _convection_blocks(ctx, wq):
    """[t, i, j] integral phi_i (w . grad) phi_j for w at the points wq [t, q, 2]:
    [t, 6, 2q] @ [t, 2q, 6]."""
    nt, nq = ctx.dv.shape
    weighted = (ctx.dv[:, :, None] * wq).reshape(nt, 1, 2 * nq)
    left = np.repeat(ctx.N.T, 2, axis=1) * weighted                 # phi_i w_x at (q, x)
    return left @ np.swapaxes(ctx.dphi.reshape(nt, 6, 2 * nq), 1, 2)


def _newton_blocks(ctx, gw):
    """[t, i, j, b, a] integral phi_i phi_j dw_a/dx_b for gw [t, q, 2, 2]
    ([..., a, b] = dw_a/dx_b): [36, q] @ [t, q, 4]."""
    nt, nq = ctx.dv.shape
    wg = (ctx.dv[:, :, None, None] * np.swapaxes(gw, 2, 3)).reshape(nt, nq, 4)
    return (_basis_products(ctx.N) @ wg).reshape(nt, 6, 6, 2, 2)


# -- scalar P2 forms -------------------------------------------------------

def scalar_stiffness(mesh):
    """Matrix of integral grad(u) . grad(v) on the scalar P2 space."""
    return scatter_matrix(sparsity(mesh).scalar, _stiffness_blocks(volume_context(mesh)))


def scalar_mass(mesh):
    """Scalar P2 L2 mass matrix."""
    return scatter_matrix(sparsity(mesh).scalar, _mass_blocks(volume_context(mesh)))


def scalar_h1_gram(mesh):
    """Matrix of integral grad(u) . grad(v) + u v, the scalar P2 H1 Gram matrix."""
    ctx = volume_context(mesh)
    return scatter_matrix(sparsity(mesh).scalar, _stiffness_blocks(ctx) + _mass_blocks(ctx))


def scalar_integral_vector(mesh):
    """Vector of integrals of each P2 basis function."""
    return volume_context(mesh).load(1.0)


# -- velocity and pressure forms ---------------------------------------------

def assemble_viscous(mesh, nu):
    """Matrix of (nu/2) * integral S(u):S(phi) over curved elements."""
    return scatter_matrix(sparsity(mesh).velocity, _viscous_blocks(volume_context(mesh), nu))


def assemble_vector_mass(mesh):
    """Velocity-space L2 mass matrix: the scalar mass on each component."""
    return componentwise(mesh, scalar_mass(mesh))


def assemble_vector_gradient(mesh):
    """Matrix of integral grad(u):grad(phi) (componentwise H1 seminorm)."""
    return componentwise(mesh, scalar_stiffness(mesh))


def assemble_divergence(mesh):
    """Matrix B with (B u)_q = integral q div(u); pressure rows."""
    return scatter_matrix(sparsity(mesh).divergence, _divergence_blocks(volume_context(mesh)))


def assemble_pressure_mean(mesh):
    """Vector m with m_q = integral of the pressure basis function q."""
    ctx = volume_context(mesh)
    contrib = np.einsum("tq,qk->tk", ctx.dv, ctx.P)
    return scatter_vector(mesh.triangles, contrib, mesh.n_vertices)


def assemble_convection(mesh, w_coeffs, lam=1.0):
    """Matrix C(w) of integral ((w . grad) u) . phi, plus N(w) = C(w) w."""
    ctx = volume_context(mesh)
    blk = _convection_blocks(ctx, ctx.values(w_coeffs.reshape(-1, 2)))
    C = componentwise(mesh, scatter_matrix(sparsity(mesh).scalar, lam * blk))
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
    blk = _newton_blocks(ctx, ctx.gradient(w_coeffs.reshape(-1, 2)))
    return scatter_matrix(sparsity(mesh).velocity, lam * blk)


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
        nb, nq = self.t.shape
        dphi = np.empty((nb, 6, nq, 2))
        for loc in range(3):
            sel = self.local == loc
            ref = self.shape_p1 @ elements.P2_REFERENCE[[loc, (loc + 1) % 3]]
            dphi[sel] = np.swapaxes(elements.physical_gradients(
                self.cell_coords[sel], ref, elements.p2_grad(ref))[0], 1, 2)
        return _gradient(nodal, self.cell_nodes, dphi, self.n_nodes)

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


def _boundary_edge_nodes(mesh):
    """(local edge [nb], adjacent triangle's P2 nodes [nb, 6], edge nodes [nb, 3]
    (first, second, mid)) of every boundary edge."""
    rows = mesh.boundary_edges
    local = rows["local"].copy()
    cell_nodes = mesh.triangle_nodes()[rows["tri"]]
    nodes3 = np.take_along_axis(cell_nodes, np.column_stack([local, (local + 1) % 3, 3 + local]),
                                axis=1)
    return local, cell_nodes, nodes3


def _boundary_quadrature(mesh):
    s, w = interval_rule(EDGE_POINTS)
    Nq = elements.edge_shape(s)
    dNq = elements.edge_shape_deriv(s)
    rows = mesh.boundary_edges
    nb = len(rows)
    comp = rows["component"].copy()
    local, cell_nodes, nodes3 = _boundary_edge_nodes(mesh)
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
    return scatter_matrix(sparsity(mesh).friction, blk)


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


@dataclass(frozen=True)
class SlipPlan:
    """The mesh-fixed part of every slip constraint on a mesh; arrays read-only.

    Q is orthogonal: it takes the Cartesian dofs of each boundary node to
    its (n, tau) dofs and is the identity elsewhere; the rotated normal
    dofs 2*node are fixed.  Q A Q^T differs from A only in the 2x2 node
    blocks with a boundary row or column node: `blocks` holds their
    velocity-pattern data slots, `left` and `right` the rotations that act
    on them from either side.  free_free and free_fixed are the patterns of
    the (free, free) and (free, fixed) parts, their velocity_slots the
    slots they gather.
    """

    sparsity: Sparsity
    Q: sp.csr_matrix
    free: np.ndarray
    fixed: np.ndarray
    blocks: np.ndarray       # [m, 2, 2]
    left: np.ndarray         # [m, 2, 2] rotation of the row node
    right: np.ndarray        # [m, 2, 2] transposed rotation of the column node
    free_free: Pattern
    free_fixed: Pattern


def slip_plan(mesh):
    """The SlipPlan of the mesh, derived once and kept on the mesh.

    Derived again with the mesh's Sparsity, or when its node_is_boundary,
    node_normal or node_tangent are replaced by other arrays.
    """
    key = (sparsity(mesh), mesh.node_is_boundary, mesh.node_normal, mesh.node_tangent)
    return _cached_on_mesh(mesh, "_slip_plan", key, lambda: _slip_plan(mesh))


def _slip_plan(mesh):
    patterns = sparsity(mesh)
    scalar, velocity = patterns.scalar, patterns.velocity
    n_velocity = 2 * mesh.n_p2_nodes
    bnd = mesh.node_is_boundary
    b = np.nonzero(bnd)[0]
    rotation = np.tile(np.eye(2), (mesh.n_p2_nodes, 1, 1))
    rotation[b, 0] = mesh.node_normal[b]
    rotation[b, 1] = mesh.node_tangent[b]
    idx = np.nonzero(~bnd)[0]
    rows = np.concatenate([2 * idx, 2 * idx + 1, 2 * b, 2 * b, 2 * b + 1, 2 * b + 1])
    cols = np.concatenate([2 * idx, 2 * idx + 1, 2 * b, 2 * b + 1, 2 * b, 2 * b + 1])
    vals = np.concatenate([np.ones(2 * len(idx)), rotation[b, 0, 0], rotation[b, 0, 1],
                           rotation[b, 1, 0], rotation[b, 1, 1]])
    Q = sp.csr_matrix((vals, (rows, cols)), shape=(n_velocity, n_velocity))

    # the blocks of the scalar entries with a boundary row or column node
    node_rows, node_cols = scalar.rows(), scalar.indices
    touched = np.nonzero(bnd[node_rows] | bnd[node_cols])[0]
    first, step = (x[touched] for x in _block_slots(scalar))
    blocks = first[:, None, None] + step[:, None, None] * np.arange(2)[:, None] + np.arange(2)

    fixed = 2 * b
    is_fixed = np.zeros(n_velocity, bool)
    is_fixed[fixed] = True
    free = np.nonzero(~is_fixed)[0]
    renumber = np.zeros(n_velocity, np.int64)
    renumber[free] = np.arange(len(free))
    renumber[fixed] = np.arange(len(fixed))
    free_row = np.repeat(~is_fixed, np.diff(velocity.indptr))
    fixed_col = is_fixed[velocity.indices]

    def part(keep, n_cols):
        # kept slots lie in free rows only, so each free row's part starts
        # where its first velocity slot would be among them
        slots = np.flatnonzero(keep)
        starts = np.searchsorted(slots, velocity.indptr[np.append(free, n_velocity)])
        return Pattern(indptr=starts.astype(np.int32), shape=(len(free), n_cols),
                       indices=renumber[velocity.indices[slots]].astype(np.int32),
                       velocity_slots=slots.astype(np.int32))

    plan = SlipPlan(sparsity=patterns, Q=Q, free=free, fixed=fixed,
                    blocks=blocks.astype(np.int32), left=rotation[node_rows[touched]],
                    right=np.swapaxes(rotation[node_cols[touched]], 1, 2),
                    free_free=part(free_row & ~fixed_col, len(free)),
                    free_fixed=part(free_row & fixed_col, len(fixed)))
    _frozen([Q.data, Q.indices, Q.indptr, free, fixed, plan.blocks, plan.left, plan.right])
    for p in (plan.free_free, plan.free_fixed):
        _frozen(vars(p).values())
    return plan


@dataclass
class SlipConstraint:
    """Rotated basis plus elimination data for u . n = a_star at boundary nodes."""

    plan: SlipPlan
    fixed_values: np.ndarray

    @property
    def Q(self):
        return self.plan.Q

    @property
    def free(self):
        return self.plan.free

    @property
    def fixed(self):
        return self.plan.fixed

    def reduce_matrix(self, A):
        """Rotate a velocity-velocity matrix and split (A_ff, A_fc).

        A is taken on the velocity pattern (a matrix on another pattern of
        the mesh is gathered onto it first); only the 2x2 node blocks with a
        boundary node are rotated, and both parts are gathered from the data.
        """
        plan = self.plan
        data = np.array(plan.sparsity.velocity_data(A))
        data[plan.blocks] = plan.left @ data[plan.blocks] @ plan.right
        return (plan.free_free.matrix(data[plan.free_free.velocity_slots]),
                plan.free_fixed.matrix(data[plan.free_fixed.velocity_slots]))

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
    interpolated on the exact curve parameters of the boundary nodes; the
    rotation and the elimination pattern are the mesh's SlipPlan.  Raises
    CompatibilityError when the total flux is out of tolerance and
    DataError when a nodal value is not finite.
    """
    check_total_flux(mesh.domain, a_star, flux_rtol)
    _, values = boundary_node_values(mesh, a_star)
    return SlipConstraint(plan=slip_plan(mesh), fixed_values=values)


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
