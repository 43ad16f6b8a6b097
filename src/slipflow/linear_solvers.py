"""Direct solves: scalar Laplace problems, the Stokes saddle system with
slip constraints and nullspace handling, and the generalized eigenvalue
estimates for the Korn and Sobolev constants."""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, geometry
from .errors import DataError, SolverError

RESIDUAL_TOL = 1e-10


# -- states ----------------------------------------------------------------

@dataclass
class FlowState:
    """Discrete velocity/pressure pair with solver metadata."""

    mesh: object
    nu: float
    velocity: np.ndarray       # Cartesian coefficients, interleaved (2 per node)
    pressure: np.ndarray       # vertex coefficients, zero mean
    metadata: dict = field(default_factory=dict)

    def velocity_nodal(self):
        return self.velocity.reshape(-1, 2)

    def copy_with(self, velocity=None, pressure=None, **meta):
        md = dict(self.metadata)
        md.update(meta)
        return FlowState(self.mesh, self.nu,
                         self.velocity if velocity is None else velocity,
                         self.pressure if pressure is None else pressure, md)


@dataclass
class RigidMode:
    """Interpolated rigid displacement a + b(-x2, x1) on the mesh."""

    coefficients: np.ndarray
    center: tuple
    b: float = 1.0


def rigid_rotation_mode(mesh, center=(0.0, 0.0), b=1.0):
    coords = mesh.p2_coords()
    rel = coords - np.asarray(center, float)
    vals = b * np.column_stack([-rel[:, 1], rel[:, 0]])
    return RigidMode(coefficients=vals.ravel(), center=tuple(center), b=b)


# -- scalar P2 assembly ------------------------------------------------------

def _scalar_matrix(mesh, blk):
    nodes = mesh.triangle_nodes()
    rows = np.repeat(nodes, 6, axis=1)
    cols = np.tile(nodes, (1, 6))
    n = mesh.n_p2_nodes
    return sp.csr_matrix((blk.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def scalar_stiffness(mesh):
    ctx = assembly.volume_context(mesh)
    return _scalar_matrix(
        mesh, np.einsum("tq,tqix,tqjx->tij", ctx.dv, ctx.grads, ctx.grads, optimize=True))


def scalar_mass(mesh):
    ctx = assembly.volume_context(mesh)
    return _scalar_matrix(mesh, np.einsum("tq,qi,qj->tij", ctx.dv, ctx.N, ctx.N, optimize=True))


def scalar_integral_vector(mesh):
    """Vector of integrals of each P2 basis function."""
    ctx = assembly.volume_context(mesh)
    out = np.zeros(mesh.n_p2_nodes)
    np.add.at(out, ctx.nodes, np.einsum("tq,qi->ti", ctx.dv, ctx.N))
    return out


def _splu(matrix):
    try:
        return spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


class BorderedSolver:
    """Exact solve of [[P, C], [R^T, D]] [z; mu] = [b; d] around a sparse core.

    Dense constraint rows (pressure mean, rigid-mode orthogonality) would
    cause catastrophic fill inside the sparse factorization, so they are
    eliminated through the factored core with a small dense Schur
    complement, followed by iterative refinement on the full system.

    `bumps` lists (index, alpha) diagonal shifts that make a singular core
    factorizable; each is compensated exactly through an extra border, so
    the solved system is unchanged.
    """

    def __init__(self, core, C=None, R=None, D=None, bumps=()):
        core = sp.csc_matrix(core)
        n = core.shape[0]
        C = np.zeros((n, 0)) if C is None else np.asarray(C, float).reshape(n, -1)
        R = C.copy() if R is None else np.asarray(R, float).reshape(n, -1)
        k = C.shape[1]
        D = np.zeros((k, k)) if D is None else np.asarray(D, float)
        kb = len(bumps)
        if kb:
            idx = np.array([b[0] for b in bumps], np.int64)
            alpha = np.array([b[1] for b in bumps], float)
            core = core + sp.csr_matrix((alpha, (idx, idx)), shape=core.shape)
            Cx = np.zeros((n, k + kb))
            Rx = np.zeros((n, k + kb))
            Dx = np.zeros((k + kb, k + kb))
            Cx[:, :k] = C
            Rx[:, :k] = R
            Dx[:k, :k] = D
            for j, (i, a) in enumerate(bumps):
                Cx[i, k + j] = -a
                Rx[i, k + j] = -1.0
                Dx[k + j, k + j] = 1.0
            C, R, D = Cx, Rx, Dx
        self.n, self.k = n, C.shape[1]
        self.k_true = k
        self.bumps = (np.array([b[0] for b in bumps], np.int64),
                      np.array([b[1] for b in bumps], float))
        self.core = core
        self.C, self.R, self.D = C, R, D
        self.lu = _splu(core)
        if self.k:
            self.W = self.lu.solve(C)
            self.H = D - R.T @ self.W
        else:
            self.W = np.zeros((n, 0))
            self.H = np.zeros((0, 0))

    def solve(self, b, d=None, refine=3, rtol=1e-13):
        b = np.asarray(b, float)
        d = np.zeros(self.k) if d is None else np.concatenate(
            [np.asarray(d, float), np.zeros(self.k - self.k_true)])
        z = np.zeros(self.n)
        mu = np.zeros(self.k)
        scale = max(np.linalg.norm(b), np.linalg.norm(d), 1e-300)
        relres = np.inf
        for _ in range(refine + 1):
            rb = b - (self.core @ z + self.C @ mu)
            rd = d - (self.R.T @ z + self.D @ mu)
            relres = max(np.linalg.norm(rb), np.linalg.norm(rd)) / scale
            if relres < rtol:
                break
            dz, dmu = self._inverse(rb, rd)
            z += dz
            mu += dmu
        return z, mu[:self.k_true], float(relres)

    def _inverse(self, rb, rd):
        """One pass through the factored core and the Schur complement."""
        y = self.lu.solve(rb)
        if not self.k:
            return y, np.zeros(0)
        try:
            dmu = np.linalg.solve(self.H, rd - self.R.T @ y)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular border Schur complement: {exc}") from exc
        return y - self.W @ dmu, dmu

    def apply_inverse(self, x):
        """Exact inverse of the system as given (bumps compensated) on [b; d]."""
        kt = self.k_true
        d = np.concatenate([x[self.n:], np.zeros(self.k - kt)])
        dz, dmu = self._inverse(x[:self.n], d)
        return np.concatenate([dz, dmu[:kt]])

    def matvec(self, x):
        """Product of the system as given (bumps removed) with [z; mu]."""
        kt = self.k_true
        z, mu = x[:self.n], x[self.n:]
        top = self.core @ z + self.C[:, :kt] @ mu
        idx, alpha = self.bumps
        np.subtract.at(top, idx, alpha * z[idx])
        return np.concatenate([top, self.R[:, :kt].T @ z + self.D[:kt, :kt] @ mu])


def solve_laplace_dirichlet(mesh, values):
    """Harmonic P2 field with per-component Dirichlet data.

    values: sequence of constants or callables(t, points), one per component.
    """
    K = scalar_stiffness(mesh)
    n = mesh.n_p2_nodes
    fns = [assembly.as_boundary_scalar(v) for v in values]
    bnodes = np.nonzero(mesh.node_is_boundary)[0]
    g = np.zeros(n)
    coords = mesh.p2_coords()
    for comp in range(mesh.domain.n_components):
        sel = bnodes[mesh.node_component[bnodes] == comp]
        if len(sel):
            g[sel] = np.asarray(fns[comp](mesh.node_param[sel], coords[sel]), float)
    free = np.ones(n, bool)
    free[bnodes] = False
    fidx = np.nonzero(free)[0]
    rhs = -(K[fidx][:, bnodes] @ g[bnodes])
    q = g.copy()
    q[fidx] = _splu(K[fidx][:, fidx]).solve(rhs)
    lo, hi = g[bnodes].min(), g[bnodes].max()
    if q.min() < lo - 1e-8 or q.max() > hi + 1e-8:
        raise SolverError("discrete maximum principle violated beyond tolerance")
    return q


def solve_laplace_neumann(mesh, a_star):
    """Zero-mean P2 field with weak normal derivative a_star on the boundary."""
    assembly.check_total_flux(mesh.domain, a_star)
    bq = assembly.boundary_quadrature(mesh)
    load = np.zeros(mesh.n_p2_nodes)
    vals = assembly._eval_per_component(bq, [assembly.as_boundary_scalar(a) for a in a_star])
    contrib = np.einsum("kq,kq,qi->ki", bq.w_ds, vals, bq.shape)
    np.add.at(load, bq.nodes3, contrib)

    K = scalar_stiffness(mesh)
    m = scalar_integral_vector(mesh)
    diag_scale = float(np.mean(K.diagonal())) or 1.0
    solver = BorderedSolver(K, C=m[:, None], bumps=[(0, diag_scale)])
    q, _, relres = solver.solve(load)
    if not relres <= RESIDUAL_TOL:
        raise SolverError(f"Neumann solve residual {relres:.3e} above tolerance")
    return q - (m @ q) / m.sum()


# -- saddle solves -----------------------------------------------------------

def _reduce_row(con, vec):
    """Rotate a Cartesian velocity functional; returns (free part, fixed offset)."""
    rotated = con.Q @ np.asarray(vec, float)
    return rotated[con.free], float(rotated[con.fixed] @ con.fixed_values)


def build_saddle_solver(cs, sparse_rows=(), dense_rows=(), pressure_rows=(),
                        A_override=None):
    """Factor the constrained saddle system with pressure-mean multiplier.

    sparse_rows: velocity functionals with local support (circulation
    pins, mirror pairings); they join the sparse core.  pressure_rows:
    local functionals on the pressure dofs (mirror pairings of the
    pressure).  dense_rows: globally supported velocity functionals
    (rigid-mode orthogonality); they are eliminated as borders together
    with the dense pressure-mean row.  Velocity functionals are given as
    full Cartesian vectors.
    Returns (solver, shape info) for use with solve_saddle_rhs.
    """
    con = cs.constraint
    A_ff = cs.A_ff if A_override is None else A_override
    nf = A_ff.shape[0]
    npres = cs.B_f.shape[0]
    ks = len(sparse_rows)
    kp = len(pressure_rows)
    kd = len(dense_rows)
    srows = [_reduce_row(con, v) for v in sparse_rows]
    drows = [_reduce_row(con, v) for v in dense_rows]

    nblock = 2 + ks + kp
    grid = [[None] * nblock for _ in range(nblock)]
    grid[0][0] = A_ff
    grid[0][1] = cs.B_f.T
    grid[1][0] = cs.B_f
    for i, (vf, _) in enumerate(srows):
        col = sp.csc_matrix(vf[:, None])
        grid[0][2 + i] = col
        grid[2 + i][0] = col.T
    for j, pr in enumerate(pressure_rows):
        col = sp.csc_matrix(np.asarray(pr, float)[:, None])
        grid[1][2 + ks + j] = col
        grid[2 + ks + j][1] = col.T
    core = sp.bmat(grid, format="csc")
    n = core.shape[0]

    # dense borders: pressure mean plus any dense velocity rows
    C = np.zeros((n, 1 + kd))
    C[nf:nf + npres, 0] = cs.mean
    for i, (vf, _) in enumerate(drows):
        C[:nf, 1 + i] = vf
    diag_scale = float(np.mean(np.abs(A_ff.diagonal()))) or 1.0
    bumps = [(nf, diag_scale)]
    for i, (vf, _) in enumerate(drows):
        bumps.append((int(np.argmax(np.abs(vf))), diag_scale))
    solver = BorderedSolver(core, C=C, bumps=bumps)
    offsets = {
        "nf": nf, "npres": npres, "ks": ks, "kp": kp,
        "sparse_offsets": [s[1] for s in srows],
        "dense_offsets": [d[1] for d in drows],
    }
    return solver, offsets


def _saddle_rhs(cs, offsets, sparse_vals, dense_vals, pressure_vals, F_override):
    """Right-hand side [b; d] of the bordered saddle system."""
    F_f = cs.F_f if F_override is None else F_override
    svals = [v - off for v, off in zip(sparse_vals, offsets["sparse_offsets"])]
    pvals = list(pressure_vals) or [0.0] * offsets["kp"]
    b = np.concatenate([F_f, cs.G_f, np.asarray(svals, float),
                        np.asarray(pvals, float)])
    d = np.concatenate([
        np.zeros(1),
        np.asarray([v - off for v, off in zip(dense_vals, offsets["dense_offsets"])], float),
    ])
    return b, d


def _split_saddle(cs, offsets, x):
    """[z; mu] of the bordered system -> (u, p, multipliers).

    The multipliers are ordered sparse rows, pressure rows, pressure
    mean, dense rows; concatenate((restrict(u), p, mults)) is x again.
    """
    nf, npres = offsets["nf"], offsets["npres"]
    return cs.constraint.expand(x[:nf]), x[nf:nf + npres], x[nf + npres:]


def solve_saddle_rhs(cs, solver, offsets, sparse_vals=(), dense_vals=(),
                     pressure_vals=(), F_override=None):
    """Solve a factored saddle system for one right-hand side."""
    b, d = _saddle_rhs(cs, offsets, sparse_vals, dense_vals, pressure_vals, F_override)
    z, mu, relres = solver.solve(b, d)
    u, p, mults = _split_saddle(cs, offsets, np.concatenate([z, mu]))
    return u, p, mults, relres


def solve_saddle_krylov(cs, solver, offsets, delta, cycle, sparse_vals=(),
                        dense_vals=(), F_override=None, guess=None):
    """GMRES on a saddle system preconditioned by a nearby factored one.

    `solver`/`offsets` come from build_saddle_solver on a system with the
    same constraint rows whose velocity block differs from cs.A_ff by
    `delta`; its exact inverse preconditions one GMRES cycle of at most
    `cycle` iterations on the full bordered system of cs, asked for a
    relative residual of 1e-12.  `guess` is an optional (u, p, mults)
    start.  Returns (u, p, mults, relres, iterations) with relres the
    true relative residual of the result.
    """
    nf = offsets["nf"]
    b, d = _saddle_rhs(cs, offsets, sparse_vals, dense_vals, (), F_override)
    rhs = np.concatenate([b, d])

    def matvec(x):
        out = solver.matvec(x)
        out[:nf] += delta @ x[:nf]
        return out

    n = len(rhs)
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    pre = spla.LinearOperator((n, n), matvec=solver.apply_inverse, dtype=float)
    x0 = None if guess is None else np.concatenate(
        [cs.constraint.restrict(guess[0]), guess[1], guess[2]])
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, _ = spla.gmres(op, rhs, x0=x0, rtol=1e-12, atol=0.0, restart=cycle, maxiter=1,
                      M=pre, callback=count, callback_type="pr_norm")
    relres = float(np.linalg.norm(rhs - op.matvec(x)) / max(np.linalg.norm(rhs), 1e-300))
    u, p, mults = _split_saddle(cs, offsets, x)
    return u, p, mults, relres, iterations


def solve_stokes(mesh, data):
    """Weak solution of the viscous slip problem on the given mesh.

    When the friction coefficient vanishes identically on a circularly
    symmetric domain, the rigid rotation is a zero-energy mode: the data
    must satisfy the force/traction compatibility and the returned
    solution is the unique one orthogonal to the rotation in L2.
    """
    from .navier_stokes import _Workspace  # navier_stokes imports this module
    ws = _Workspace(mesh, data)
    u, p, _, step = ws.solve_linear(ws.A_base)
    resid = step.relres
    if not resid <= RESIDUAL_TOL:
        raise SolverError(f"saddle solve residual {resid:.3e} above tolerance")
    meta = dict(ws.meta, problem="stokes", linear_residual=resid)
    return FlowState(mesh=mesh, nu=data.nu, velocity=u, pressure=ws.physical_pressure(p),
                     metadata=meta)


# -- eigenvalue estimates ----------------------------------------------------

def _pencil_smallest(K, M, constraints=(), v0=None, maxiter=300, tol=1e-11):
    """Smallest eigenvalue of K x = lambda M x subject to c . x = 0 rows.

    Inverse iteration with a fixed shift just below zero, run through the
    bordered solver; since the pencil is positive semidefinite on the
    constrained space, the eigenvalue nearest the shift is the smallest.
    Deterministic for a fixed start vector.
    """
    n = K.shape[0]
    scale = (K.diagonal().sum() / max(M.diagonal().sum(), 1e-300))
    sigma = -1e-9 * max(scale, 1e-30)
    C = np.column_stack(constraints) if constraints else None
    solver = BorderedSolver(K - sigma * M, C=C)

    x = np.ones(n) if v0 is None else v0.copy()
    for c in constraints:
        cc = float(c @ c)
        if cc > 0:
            x -= (c @ x) / cc * c
    xn = np.sqrt(x @ (M @ x))
    if xn == 0:
        raise SolverError("eigen iteration started in the constraint space")
    x /= xn
    lam_old = None
    lam = np.nan
    change = np.inf
    for _ in range(maxiter):
        y, _, _ = solver.solve(M @ x, refine=1)
        yn = np.sqrt(y @ (M @ y))
        if not np.isfinite(yn) or yn == 0:
            raise SolverError("eigen iteration broke down")
        x = y / yn
        lam = float(x @ (K @ x))
        if lam_old is not None:
            change = abs(lam - lam_old)
            # absolute floor: below assembly roundoff the eigenvalue is zero
            if change <= max(tol * abs(lam), 1e-13 * scale):
                return lam, x
        lam_old = lam
    raise SolverError(f"eigen iteration did not converge (last change {change:.3e})")


@dataclass
class KornEstimate:
    lambda_min: float
    K: float
    mode: np.ndarray
    rotation_projected: bool
    rigor: str = "lower bound on the continuum constant (discrete subspace)"


def korn_constant(mesh, dofmap, weight, project_rotation=None):
    """Best discrete constant of the symmetric-gradient/friction inequality.

    weight is the per-component boundary factor multiplying |u_tau|^2
    (the solvability audits call this with 2*beta/nu).  The reported
    K = 1/lambda_min is a lower bound for the continuum constant.
    """
    fns = [assembly.as_boundary_scalar(wc) for wc in weight]
    weight_zero = True
    for comp, curve in enumerate(mesh.domain.curves):
        t = np.linspace(0.0, 1.0, 65)
        vals = np.asarray(fns[comp](t, curve.point(t)), float)
        if np.any(vals < -1e-14):
            raise DataError("Korn boundary weight must be nonnegative")
        if np.max(np.abs(vals)) > 0:
            weight_zero = False
    sym = geometry.classify_symmetry(mesh.domain)
    if project_rotation is None:
        project_rotation = False
    kform = assembly.assemble_viscous(mesh, dofmap, 2.0)  # integral S(u):S(v)
    kform = kform + assembly.assemble_friction(mesh, dofmap, weight)
    mass = assembly.assemble_vector_mass(mesh, dofmap)
    wform = mass + assembly.assemble_vector_gradient(mesh, dofmap)

    con = assembly.normal_trace_constraint(mesh, dofmap, [0.0] * mesh.domain.n_components)
    K_ff, _ = con.reduce_matrix(kform)
    W_ff, _ = con.reduce_matrix(wform)
    constraints = []
    if project_rotation:
        if sym.circularly_symmetric is None:
            raise DataError("rotation projection requested on a non-symmetric domain")
        mode = rigid_rotation_mode(mesh, sym.circularly_symmetric)
        c = mass @ mode.coefficients
        constraints.append((con.Q @ c)[con.free])
    v0 = _deterministic_start(len(con.free))
    lam, x = _pencil_smallest(K_ff, W_ff, constraints, v0=v0)
    mode_full = con.expand(x)
    K = float(1.0 / lam) if lam > 0 else np.inf
    return KornEstimate(lambda_min=float(lam), K=K, mode=mode_full,
                        rotation_projected=bool(project_rotation))


def _deterministic_start(n):
    k = np.arange(n, dtype=float)
    return np.sin(0.37 * k + 0.2) + 1.1


@dataclass
class SobolevEstimate:
    C_r: float
    r: float
    maximizer: np.ndarray
    iterations: int
    rigor: str = "lower bound by discrete-space ascent (non-rigorous)"


def sobolev_constant(mesh, dofmap, r, maxiter=600, tol=1e-10, v0=None):
    """Ascent estimate of the L^r/W^{1,2} embedding constant.

    The quotient is maximized over the scalar quadratic space by the
    normalized fixed-point iteration v <- W^{-1} |v|^{r-2} v starting
    from a localized bump (the constant function is only a local
    maximizer); the vector-field constant coincides with the scalar one.
    Pass v0 (for instance a prolonged coarse maximizer) to warm-start.
    """
    if not (2 < r < np.inf):
        raise DataError(f"exponent must satisfy 2 < r < inf, got {r}")
    K = scalar_stiffness(mesh)
    M = scalar_mass(mesh)
    W = (K + M).tocsc()
    lu = _splu(W)
    ctx = assembly.volume_context(mesh)
    dv, N, nodes = ctx.dv, ctx.N, ctx.nodes

    def ratio_and_load(v):
        vq = np.einsum("qi,ti->tq", N, v[nodes])
        lr = np.einsum("tq,tq->", dv, np.abs(vq) ** r) ** (1.0 / r)
        wnorm = np.sqrt(v @ (W @ v))
        load = np.zeros(len(v))
        contrib = np.einsum("tq,tq,qi->ti", dv, np.abs(vq) ** (r - 2.0) * vq, N)
        np.add.at(load, nodes, contrib)
        return lr / wnorm, load

    if v0 is None:
        x0 = mesh.domain.curves[0].point(np.array([0.0]))[0]
        d2 = ((mesh.p2_coords() - x0) ** 2).sum(axis=1)
        v = np.exp(-16.0 * d2 / mesh.domain.diameter ** 2)
    else:
        v = np.asarray(v0, float).copy()
    best_ratio, _ = ratio_and_load(np.ones(mesh.n_p2_nodes))
    best_v = np.ones(mesh.n_p2_nodes)
    last = -np.inf
    it = 0
    stalled = False
    for it in range(maxiter):
        ratio, load = ratio_and_load(v)
        if ratio > best_ratio:
            best_ratio, best_v = ratio, v.copy()
        if abs(ratio - last) <= tol * max(abs(ratio), 1.0):
            break
        last = ratio
        y = lu.solve(load)
        yn = np.sqrt(y @ (W @ y))
        if yn == 0 or not np.isfinite(yn):
            stalled = True
            break
        v = y / yn
    else:
        stalled = True
    if stalled:
        warnings.warn("Sobolev ascent stopped before stationarity; estimate kept")
    return SobolevEstimate(C_r=float(best_ratio), r=float(r),
                           maximizer=best_v, iterations=it + 1)
