"""Linear solves: the P2 L2 projection by Jacobi-preconditioned CG, and by
direct factorization scalar Laplace problems, the bordered saddle systems
with slip constraints and nullspace handling, and the generalized
eigenvalue estimates for the Korn and Sobolev constants."""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import assembly, geometry
from .assembly import scalar_integral_vector, scalar_mass, scalar_stiffness
from .errors import DataError, SolverError

RESIDUAL_TOL = 1e-10
MASS_RTOL = 1e-14
BORDER_RTOL = 1e-13     # BorderedSolver.solve refines down to this relative residual
LANCZOS_TOL = 1e-12     # _pencil_smallest stops once the largest Ritz value's last change
                        # and its error estimate r^2/gap are both below this, relative,
LANCZOS_MINSTEPS = 20   # and not before this many steps;
LANCZOS_BASIS = 40      # it holds at most this many basis vectors, restarting with the
LANCZOS_KEEP = 20       # Ritz vectors of this many largest values,
LANCZOS_MAXITER = 3000  # and raises SolverError after this many shift-invert steps
SOBOLEV_TOL = 1e-10     # relative change of the quotient that ends the Sobolev ascent,
SOBOLEV_MAXITER = 600   # and its step limit


# -- states ----------------------------------------------------------------

@dataclass
class FlowState:
    """Discrete velocity/pressure pair with solver metadata."""

    mesh: object
    nu: float
    velocity: np.ndarray       # Cartesian coefficients, interleaved (2 per node)
    pressure: np.ndarray       # vertex coefficients, zero mean
    metadata: dict = field(default_factory=dict)


def rigid_rotation_mode(mesh, center=(0.0, 0.0)):
    """Interleaved velocity coefficients of the unit rigid rotation
    (-(x2 - c2), x1 - c1) about center, interpolated on the mesh."""
    rel = mesh.p2_coords() - np.asarray(center, float)
    return np.column_stack([-rel[:, 1], rel[:, 0]]).ravel()


@dataclass(frozen=True)
class _OrderedLU:
    """SuperLU factor `lu` of A[perm][:, perm]; solve() takes and returns A's
    own numbering, for a 1-D right-hand side or the columns of an [n, k] one."""

    lu: object
    perm: np.ndarray

    def solve(self, b):
        y = self.lu.solve(np.asarray(b)[self.perm])
        x = np.empty_like(y)
        x[self.perm] = y
        return x

    # read on demand only: SuperLU builds a fresh copy of the factor per access
    @property
    def L(self):
        return self.lu.L

    @property
    def U(self):
        return self.lu.U


def _splu(matrix):
    """SuperLU factorization of a matrix with a symmetric sparsity pattern.

    Every matrix factored here has one (up to entries a sparse product drops
    where it cancels to exactly zero): the scalar and vector forms, the
    bordered Neumann and Korn pencils, the saddle cores with both B_f and
    B_f^T, and the Newton blocks A + C + D; diagonal bumps keep it.  So the
    matrix is first renumbered symmetrically by reverse Cuthill-McKee on its
    own pattern: the minimum degree order that SuperLU then takes on A^T + A
    depends on the numbering it starts from, and from the structured annulus
    numbering it is poor (LU fill of the 7241-row Hamel saddle core 1.62M
    without the pre-order, 1.16M with it).  The pivots stay on the diagonal
    unless a diagonal entry is below 1e-3 of its column's largest, and the
    supernodes are kept small (relax=1, panel_size=10), which factors and
    back-solves these 2-D element matrices faster than SuperLU's default.
    The callers' residual checks (BorderedSolver's refinement, the
    RESIDUAL_TOL gates) guard the accuracy.
    """
    A = sp.csc_matrix(matrix)
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    try:
        lu = spla.splu(_permuted(A, perm), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                       relax=1, panel_size=10, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    return _OrderedLU(lu, perm)


def _permuted(A, perm):
    """A[perm][:, perm] of a CSC matrix by one gather of whole columns and a
    renumbering of their row indices; the arrays, entry order within each
    column included, are those of the two fancy-indexing passes."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm), dtype=perm.dtype)
    columns = A[:, perm]
    return sp.csc_matrix((columns.data, inverse[columns.indices], columns.indptr),
                         shape=A.shape)


def l2_projection(mesh, values, mass=None):
    """P2 L2 projection of values at the VOLUME_DEGREE quadrature points,
    [nt, nq] to nodal [n] or [nt, nq, 2] to [n, 2]; mass: scalar_mass(mesh)
    when the caller has assembled it.

    Each column is solved by Jacobi-preconditioned CG to relative residual
    MASS_RTOL, with no factor: the P2 mass matrix is spectrally equivalent to
    its diagonal (Wathen, IMA J. Numer. Anal. 7, 1987), so the steps do not
    grow with the mesh.  A non-finite load or a true residual above the
    tolerance is a SolverError.
    """
    with np.errstate(all="ignore"):     # a non-finite load is the error raised here
        load = assembly.volume_context(mesh).load(values)
    if not np.all(np.isfinite(load)):
        raise SolverError("L2 projection of non-finite values")
    mass = scalar_mass(mesh) if mass is None else mass
    jacobi = sp.diags(1.0 / mass.diagonal())
    columns = load.reshape(len(load), -1)
    out = np.empty_like(columns)
    for j in range(columns.shape[1]):
        b = columns[:, j]
        out[:, j], _ = spla.cg(mass, b, rtol=MASS_RTOL, atol=0.0, M=jacobi)
        relres = np.linalg.norm(b - mass @ out[:, j]) / max(np.linalg.norm(b), 1e-300)
        if not relres <= MASS_RTOL:
            raise SolverError(f"L2 projection: CG residual {relres:.3e} above {MASS_RTOL:g}")
    return out.reshape(load.shape)


def interior_h1_factor(mesh):
    """Factored H1 Gram matrix on the interior P2 nodes (the H^1_0 Riesz map)."""
    interior = ~mesh.node_is_boundary
    return _splu(assembly.scalar_h1_gram(mesh)[interior][:, interior])


class BorderedSolver:
    """Exact solve of [[P, C], [C^T, 0]] [z; mu] = [b; d] around a sparse core.

    Dense constraint rows (pressure mean, rigid-mode orthogonality) would
    cause catastrophic fill inside the sparse factorization, so they are
    eliminated through the factored core with a small dense Schur
    complement, followed by iterative refinement on the full system.

    `bumps` lists (index, alpha) diagonal shifts that make a singular core
    factorizable; each is compensated exactly through an extra border, so
    the solved system is unchanged.
    """

    def __init__(self, core, C=None, bumps=()):
        core = sp.csc_matrix(core)
        n = core.shape[0]
        C = np.zeros((n, 0)) if C is None else np.asarray(C, float).reshape(n, -1)
        k = C.shape[1]
        R, D = C, np.zeros((k, k))
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
        self.core = core
        self.C, self.R, self.D = C, R, D
        self.lu = _splu(core)
        if self.k:
            self.W = self.lu.solve(C)
            self.H = D - R.T @ self.W
        else:
            self.W = np.zeros((n, 0))
            self.H = np.zeros((0, 0))

    def solve(self, b, d=None, refine=3):
        b = np.asarray(b, float)
        d = np.zeros(self.k) if d is None else np.concatenate(
            [np.asarray(d, float), np.zeros(self.k - self.k_true)])
        z = np.zeros(self.n)
        mu = np.zeros(self.k)
        # np.max, not max(): max() drops a NaN that is not its first argument
        scale = np.max([np.linalg.norm(b), np.linalg.norm(d), 1e-300])
        # at most refine + 1 corrections; relres is always that of the returned z
        rb, rd = b, d  # the residual of z = 0, mu = 0 needs no product
        for step in range(refine + 2):
            relres = np.max([np.linalg.norm(rb), np.linalg.norm(rd)]) / scale
            if relres < BORDER_RTOL or step == refine + 1:
                break
            dz, dmu = self._inverse(rb, rd)
            z += dz
            mu += dmu
            rb = b - (self.core @ z + self.C @ mu)
            rd = d - (self.R.T @ z + self.D @ mu)
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


def solve_laplace_dirichlet(mesh, values):
    """Harmonic P2 field with per-component Dirichlet data.

    values: sequence of constants or callables(t, points), one per component;
    DataError when a value at a boundary node is not finite.
    """
    return dirichlet_solver(mesh)(values)


def dirichlet_solver(mesh):
    """solve(values) as solve_laplace_dirichlet, factoring the interior stiffness once."""
    K = scalar_stiffness(mesh)
    bnodes = np.nonzero(mesh.node_is_boundary)[0]
    fidx = np.nonzero(~mesh.node_is_boundary)[0]
    K_fb = K[fidx][:, bnodes]
    lu = _splu(K[fidx][:, fidx])

    def solve(values):
        _, g = assembly.boundary_node_values(mesh, values)
        q = np.zeros(mesh.n_p2_nodes)
        q[bnodes] = g
        q[fidx] = lu.solve(-(K_fb @ g))
        if q.min() < g.min() - 1e-8 or q.max() > g.max() + 1e-8:
            raise SolverError("discrete maximum principle violated beyond tolerance")
        return q

    return solve


def solve_laplace_neumann(mesh, a_star):
    """Zero-mean P2 field with weak normal derivative a_star on the boundary."""
    assembly.check_total_flux(mesh.domain, a_star)
    bq = assembly.boundary_quadrature(mesh)
    vals = assembly._eval_per_component(bq, a_star)
    return zero_mean_neumann_solve(mesh, bq.load(vals))


def zero_mean_neumann_solve(mesh, load):
    """Zero-mean P2 solution of the pure Neumann system K q = load.

    The constants are removed by a bordered mean constraint; a residual
    above RESIDUAL_TOL (non-finite loads included) raises SolverError.
    """
    K = scalar_stiffness(mesh)
    m = scalar_integral_vector(mesh)
    diag_scale = float(np.mean(K.diagonal())) or 1.0
    solver = BorderedSolver(K, C=m[:, None], bumps=[(0, diag_scale)])
    q, _, relres = solver.solve(load)
    if not relres <= RESIDUAL_TOL:
        raise SolverError(f"Neumann solve residual {relres:.3e} above tolerance")
    return q - (m @ q) / m.sum()


# -- saddle solves -----------------------------------------------------------

class SaddleLayout:
    """The constrained Stokes blocks with their extra rows: the one owner of
    the slip reduction, the subspace restriction and the multiplier order.

    The bordered system in x = [z; mu] = [u_f; p; mu_v | mu_mean; mu_d]
    reads

        [A_ff  B_f^T  V^T  | .     D^T]        [F_f          ]
        [B_f   .      .    | mean  .  ]        [G_f          ]
        [V     .      .    | .     .  ]  x  =  [v_vals - v_off]
        [.     mean^T .    | .     .  ]        [0            ]
        [D     .      .    | .     .  ]        [-d_off       ]

    con is the slip constraint with the divergence B_f it reduces and G_f
    that of its prescribed normal values (apply_normal_trace); `reduce`
    gives the A_ff and F_f of a velocity operator and load.  V holds the
    velocity rows with local support (circulation pins); they stay in the
    sparse core left of the bar, a fixed 3x3 block grid.  D holds the
    globally supported velocity rows with zero targets (rigid-mode
    orthogonality); they are eliminated as borders together with the dense
    pressure-mean row, since inside the core they would cause catastrophic
    fill.  Velocity rows are given in Cartesian form and reduced once by
    the slip rotation into a free part and the offset of the prescribed
    normal values.  Given sparse bases Z_v (free velocities) and Z_p
    (pressures) of a subspace, u_f and p are coefficients in them: every
    block is restricted to them (Z_v^T A_ff Z_v, Z_p^T B_f Z_v, ...).
    """

    def __init__(self, con, B_f, G_f, mean, velocity_rows, velocity_vals, dense_rows=(),
                 Z_v=None, Z_p=None):
        if Z_v is not None:
            B_f, G_f, mean = Z_p.T @ B_f @ Z_v, Z_p.T @ G_f, Z_p.T @ mean
        self.con, self.B_f, self.G_f, self.mean = con, B_f, G_f, mean
        self.Z_v, self.Z_p = Z_v, Z_p
        self.npres, self.nf = B_f.shape
        VQ = (sp.csr_matrix(velocity_rows) @ con.Q.T).tocsc()
        V = VQ[:, con.free]
        self.V = (V if Z_v is None else V @ Z_v).tocsr()
        self.v_rhs = np.asarray(velocity_vals, float) - VQ[:, con.fixed] @ con.fixed_values
        DQ = np.asarray(dense_rows, float).reshape(-1, con.Q.shape[0]) @ con.Q.T
        self.D = DQ[:, con.free] if Z_v is None else DQ[:, con.free] @ Z_v
        self.d_rhs = np.zeros(len(DQ)) - DQ[:, con.fixed] @ con.fixed_values  # zero targets
        self.n_flow = self.nf + self.npres
        self.n_core = self.n_flow + self.V.shape[0]
        # where x splits into u_f, p, mu_v, mu_mean, mu_d
        self._cuts = [self.nf, self.n_flow, self.n_core, self.n_core + 1]
        # the velocity block's pattern: the slip plan's free/free one, or
        # the structure of Z_v^T A_ff Z_v on it
        a = self._a_block = con.plan.free_free
        if Z_v is not None:
            ones = abs(Z_v).T @ a.matrix(np.ones(a.nnz)) @ abs(Z_v)
            ones.sort_indices()
            a = self._a_block = assembly.Pattern(
                ones.indptr.astype(np.int32), ones.indices.astype(np.int32), ones.shape)
        # the core's pattern, once: each entry numbered by its source in the
        # data of A_ff (on the velocity block's pattern), then of B_f and V
        blocks = [sp.csr_matrix(M, copy=True) for M in (self.B_f, self.V)]
        for M in blocks:
            M.sum_duplicates()
        self._fixed_data = np.concatenate([M.data for M in blocks])
        start = a.nnz + np.cumsum([0] + [M.nnz for M in blocks])
        B_f, V = (sp.csr_matrix((np.arange(s, s + M.nnz) + 1.0, M.indices, M.indptr), M.shape)
                  for s, M in zip(start, blocks))
        core = sp.bmat([[a.matrix(np.arange(a.nnz) + 1.0), B_f.T, V.T],
                        [B_f, None, None], [V, None, None]], format="csc")
        core.indices.flags.writeable = core.indptr.flags.writeable = False  # shared by every core
        self._core_pattern = core.indices, core.indptr, core.shape
        self._source = (core.data - 1).astype(np.int32)

    def reduce(self, A, F):
        """(A_ff, F_f) of the velocity operator A with the Cartesian load F:
        A slip-reduced, the prescribed normal values moved into the load,
        both restricted to Z_v."""
        A_ff, A_fc = self.con.reduce_matrix(A)
        F_f = self.con.reduce_vector(F) - A_fc @ self.con.fixed_values
        if self.Z_v is not None:
            A_ff, F_f = self.Z_v.T @ A_ff @ self.Z_v, self.Z_v.T @ F_f
        return A_ff, F_f

    def load(self, F):
        """A Cartesian velocity load slip-reduced, then restricted to Z_v."""
        F_f = self.con.reduce_vector(F)
        return F_f if self.Z_v is None else self.Z_v.T @ F_f

    def core(self, A_ff):
        """Sparse core of the system with velocity block A_ff, gathered onto
        the core's pattern."""
        data = np.concatenate([self._a_block.data_of(A_ff), self._fixed_data])
        indices, indptr, shape = self._core_pattern
        return sp.csc_matrix((data[self._source], indices, indptr), shape=shape)

    def borders(self):
        """Dense border columns: the pressure mean, then the rows of D."""
        C = np.zeros((self.n_core, 1 + len(self.D)))
        C[self.nf:self.n_flow, 0] = self.mean
        C[:self.nf, 1:] = self.D.T
        return C

    def rhs(self, F_f):
        """Right-hand side [b; d] for the momentum load F_f."""
        b = np.concatenate([F_f, self.G_f, self.v_rhs])
        return b, np.concatenate([np.zeros(1), self.d_rhs])

    def product(self, A_ff, x):
        """The bordered system with velocity block A_ff applied to x."""
        u, p, mv, mm, md = np.split(x, self._cuts)
        return np.concatenate([
            A_ff @ u + self.B_f.T @ p + self.V.T @ mv + self.D.T @ md,
            self.B_f @ u + self.mean * mm,
            self.V @ u, [self.mean @ p], self.D @ u])

    def split(self, x):
        """x -> (Cartesian velocity, saddle pressure)."""
        u, p = x[:self.nf], x[self.nf:self.n_flow]
        if self.Z_v is not None:
            u, p = self.Z_v @ u, self.Z_p @ p
        return self.con.expand(u), p

    def unpinned(self, x):
        """x with the multipliers of V and D zeroed (the pressure mean's kept)."""
        out = np.zeros_like(x)
        out[:self.n_flow] = x[:self.n_flow]
        out[self.n_core] = x[self.n_core]
        return out


def build_saddle_solver(layout, A_ff):
    """Factor the bordered saddle system of `layout` with velocity block A_ff."""
    diag_scale = float(np.mean(np.abs(A_ff.diagonal()))) or 1.0
    bumps = [(layout.nf, diag_scale)]
    bumps += [(int(i), diag_scale) for i in np.argmax(np.abs(layout.D), axis=1)]
    return BorderedSolver(layout.core(A_ff), C=layout.borders(), bumps=bumps)


def solve_saddle_rhs(layout, solver, F_f):
    """Solve a factored saddle system for the momentum load F_f; returns (x, relres)."""
    z, mu, relres = solver.solve(*layout.rhs(F_f))
    return np.concatenate([z, mu]), relres


def solve_saddle_krylov(layout, solver, A_ff, F_f, cycle, guess=None):
    """GMRES on a saddle system preconditioned by a nearby factored one.

    `solver` factors the system of `layout` with another velocity block;
    its exact inverse preconditions one GMRES cycle of at most `cycle`
    iterations on the system with block A_ff, asked for a relative
    residual of 1e-12 from the start x `guess`.  Returns (x, relres,
    iterations) with relres the true relative residual of x.
    """
    rhs = np.concatenate(layout.rhs(F_f))
    n = len(rhs)
    op = spla.LinearOperator((n, n), matvec=lambda x: layout.product(A_ff, x), dtype=float)
    pre = spla.LinearOperator((n, n), matvec=solver.apply_inverse, dtype=float)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, _ = spla.gmres(op, rhs, x0=guess, rtol=1e-12, atol=0.0, restart=cycle, maxiter=1,
                      M=pre, callback=count, callback_type="pr_norm")
    relres = float(np.linalg.norm(rhs - op.matvec(x)) / max(np.linalg.norm(rhs), 1e-300))
    return x, relres, iterations


# -- eigenvalue estimates ----------------------------------------------------

def _shifted_korn_pencil(mesh, con, weight):
    """(A, W, sigma, scale) of the slip-reduced Korn pencil K x = lambda W x:
    K the symmetric-gradient/friction form and W the H1 Gram form, both on
    the free/free pattern of the slip constraint con; scale = trace(K)/trace(W),
    the eigenvalue scale, sigma = -1e-9 scale the shift and A = K - sigma W.
    The full forms are dropped once reduced, and K once shifted, before the
    pencil is factored, which is the peak of an audit's memory."""
    K, _ = con.reduce_matrix(assembly.velocity_sum(
        mesh, assembly.assemble_viscous(mesh, 2.0),                  # integral S(u):S(v)
        assembly.assemble_friction(mesh, weight)))
    W, _ = con.reduce_matrix(assembly.componentwise(mesh, assembly.scalar_h1_gram(mesh)))
    scale = max(K.diagonal().sum() / max(W.diagonal().sum(), 1e-300), 1e-30)
    sigma = -1e-9 * scale
    return K - sigma * W, W, sigma, scale


def _pencil_smallest(A, M, sigma, constraints, v0):
    """Smallest eigenvalue of K x = lambda M x subject to c . x = 0 rows,
    given A = K - sigma M with the shift sigma just below it.

    Lanczos on the shift-invert operator OP = A^-1 M, which is self-adjoint
    in the M inner product: A is factored once by the bordered solver, each
    step is one back-solve on M q and one product with M, and the basis is
    kept M-orthonormal by classical Gram-Schmidt twice against every vector,
    with M q held beside each q.  Every solver output satisfies the
    constraint rows, so the Krylov space stays in the constrained space,
    where the pencil is positive semidefinite: the largest Ritz value theta
    gives the smallest eigenvalue sigma + 1/theta.

    The loop stops on the eigenvalue, not on the Ritz vector: once theta
    changed by at most LANCZOS_TOL relative over the last step and its
    error estimate r^2/gap (r the Ritz residual, gap to the next Ritz
    value; Parlett, The Symmetric Eigenvalue Problem, 1998) is below it
    too, or once the Krylov space is invariant.  Not before
    LANCZOS_MINSTEPS steps, where ARPACK first checks: on the annulus,
    theta at first settles on the upper member of a near-degenerate pair,
    and the change alone is not enough on a clustered spectrum (the 0.01
    wide annulus), where theta creeps.  Memory is bounded by a thick
    restart (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 2000): at
    LANCZOS_BASIS vectors (and as many M products) the basis is replaced
    by the Ritz vectors of the LANCZOS_KEEP largest values and the
    residual direction; Ritz values are never compared across a restart.
    Returns (lambda, x, steps) with x M-normalized and steps the number of
    shift-invert solves; deterministic for the start vector v0 (projected
    onto the constraints).  SolverError after LANCZOS_MAXITER steps.
    """
    solver = BorderedSolver(A, C=np.column_stack(constraints) if constraints else None)
    x = v0.copy()
    for c in constraints:
        cc = float(c @ c)
        if cc > 0:
            x -= (c @ x) / cc * c
    if not np.any(x):
        raise SolverError("Lanczos start vector vanishes after the constraint projection")
    Mx = M @ x
    norm = np.sqrt(x @ Mx)
    basis, products = [x / norm], [Mx / norm]       # q_i, M-orthonormal, and M q_i
    T = np.zeros((LANCZOS_BASIS, LANCZOS_BASIS))   # Q^T M OP Q: tridiagonal, arrowed by a restart
    previous = None                                 # theta of the step before, in this cycle
    for step in range(1, LANCZOS_MAXITER + 1):
        j = len(basis) - 1
        w = solver.solve(products[j], refine=1)[0]
        for _ in range(2):      # classical Gram-Schmidt, twice, in the M inner product
            coefficients = np.array([p @ w for p in products])
            for c, q in zip(coefficients, basis):
                w -= c * q
            T[j, j] += coefficients[j]
        Mw = M @ w
        beta = np.sqrt(max(float(w @ Mw), 0.0))
        theta, S = np.linalg.eigh(T[:j + 1, :j + 1])
        top, residual = theta[-1], beta * abs(S[j, -1])
        gap = top - theta[-2] if j else np.inf
        settled = (step >= LANCZOS_MINSTEPS and previous is not None
                   and abs(top - previous) <= LANCZOS_TOL * top
                   and residual ** 2 <= LANCZOS_TOL * top * gap)
        if settled or beta <= LANCZOS_TOL * top:
            x = sum(s * q for s, q in zip(S[:, -1], basis))
            return float(sigma + 1.0 / top), x, step
        previous = top
        if j + 1 == LANCZOS_BASIS:
            kept = S[:, -LANCZOS_KEEP:]
            basis, products = (list(kept.T @ np.array(vectors)) for vectors in (basis, products))
            T[:] = 0.0
            T[:LANCZOS_KEEP, :LANCZOS_KEEP] = np.diag(theta[-LANCZOS_KEEP:])
            T[LANCZOS_KEEP, :LANCZOS_KEEP] = T[:LANCZOS_KEEP, LANCZOS_KEEP] = beta * kept[j]
            previous = None
        else:
            T[j + 1, j] = T[j, j + 1] = beta
        basis.append(w / beta)
        products.append(Mw / beta)
    raise SolverError(f"shift-invert Lanczos did not converge in {LANCZOS_MAXITER} steps")


@dataclass
class KornEstimate:
    lambda_min: float
    K: float
    mode: np.ndarray
    rotation_projected: bool
    lanczos_steps: int      # shift-invert solves of the eigenvalue loop
    rigor: str = "lower bound on the continuum constant (discrete subspace)"


def korn_constant(mesh, weight, project_rotation=False):
    """Best discrete constant of the symmetric-gradient/friction inequality.

    weight is the per-component boundary factor multiplying |u_tau|^2
    (the solvability audits call this with 2*beta/nu).  lambda_min is the
    smallest eigenvalue of the reduced pencil by shift-invert Lanczos
    (_pencil_smallest); the reported K = 1/lambda_min is a lower bound
    for the continuum constant.  At or below the roundoff floor
    1e-13 trace(K)/trace(W), where the sign of lambda_min means nothing,
    K is inf and lambda_min is kept as computed; a non-finite lambda_min
    raises SolverError, and a negative weight or one without an entry per
    component DataError (assemble_friction).
    """
    sym = geometry.classify_symmetry(mesh.domain)
    con = assembly.normal_trace_constraint(mesh, [0.0] * mesh.domain.n_components)
    A, W_ff, sigma, scale = _shifted_korn_pencil(mesh, con, weight)
    constraints = []
    if project_rotation:
        if sym.circularly_symmetric is None:
            raise DataError("rotation projection requested on a non-symmetric domain")
        mode = rigid_rotation_mode(mesh, sym.circularly_symmetric)
        c = assembly.assemble_vector_mass(mesh) @ mode
        constraints.append((con.Q @ c)[con.free])
    lam, x, steps = _pencil_smallest(A, W_ff, sigma, constraints,
                                     v0=_deterministic_start(len(con.free)))
    if not np.isfinite(lam):
        raise SolverError(f"Korn eigenvalue is not finite ({lam})")
    # below assembly roundoff the eigenvalue is zero, whatever its sign
    K = float(1.0 / lam) if lam > 1e-13 * scale else np.inf
    return KornEstimate(lambda_min=float(lam), K=K, mode=con.expand(x),
                        rotation_projected=bool(project_rotation), lanczos_steps=steps)


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


def sobolev_constant(mesh, r, v0=None):
    """Ascent estimate of the L^r/W^{1,2} embedding constant.

    The quotient is maximized over the scalar quadratic space by the
    normalized fixed-point iteration v <- W^{-1} |v|^{r-2} v starting
    from a localized bump (the constant function is only a local
    maximizer); the vector-field constant coincides with the scalar one.
    Pass v0 (for instance a prolonged coarse maximizer) to warm-start.
    """
    if not (2 < r < np.inf):
        raise DataError(f"exponent must satisfy 2 < r < inf, got {r}")
    W = assembly.scalar_h1_gram(mesh)
    lu = _splu(W)
    ctx = assembly.volume_context(mesh)

    def ratio_and_load(v):
        vq = ctx.values(v)
        lr = ctx.integral(np.abs(vq) ** r) ** (1.0 / r)
        wnorm = np.sqrt(v @ (W @ v))
        return lr / wnorm, ctx.load(np.abs(vq) ** (r - 2.0) * vq)

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
    for it in range(SOBOLEV_MAXITER):
        ratio, load = ratio_and_load(v)
        if ratio > best_ratio:
            best_ratio, best_v = ratio, v.copy()
        if abs(ratio - last) <= SOBOLEV_TOL * max(abs(ratio), 1.0):
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
