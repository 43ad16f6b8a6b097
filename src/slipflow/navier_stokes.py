"""Stationary Stokes and Navier-Stokes slip solvers.

The nonlinear problem is attacked as a fixed point of the viscous slip
operator.  The default mode iterates the Picard map (all convection
explicit, each step being one Stokes-type solve) accelerated by Anderson
mixing of its last ANDERSON_DEPTH images, which improves Picard's linear
rate for Navier-Stokes (Pollock, Rebholz & Xiao, SIAM J. Numer. Anal.
57, 2019); Newton takes over only when an accelerated step does not
lower the residual.  Mode "newton" takes Newton steps from the start.
A Newton step halves on residual growth; the first starts from a full
step, a later one from 1.5 times the fraction of the one before (at
most a full step).  One generator, _continuation, walks a continuation
parameter lambda that scales the convection from 0 (the Stokes lift,
solved once) to 1.  It
carries N(u) and the residual of its iterate from one lambda to the
next and yields one fully described state per lambda:
solve_navier_stokes keeps the last, continuation_sweep keeps them all.
On configurations with a solution continuum the Jacobian is singular;
optional circulation pins (one scalar constraint per hole) restore
uniqueness and select the branch.

One nonlinear solve factors one matrix: the Stokes lift factors the
constrained base system, every Picard step (at every continuation
value) back-solves with that factor, and each Newton step solves its
system by GMRES on the full bordered system preconditioned by it (an
inexact Newton-Krylov method; Knoll & Keyes, J. Comput. Phys. 193,
2004).  Only when one GMRES cycle of KRYLOV_CYCLE iterations does not
meet the linear tolerance, as at low viscosity, is the Newton operator
factored; that factor replaces the held one, so at most one
factorization is alive.  Residuals need only the convection vector
N(w), which is computed without assembling C(w), so a solve that needs
no Newton step assembles no convection matrix.

One SaddleLayout per workspace owns the slip reduction and the
constraint rows: circulation pins as a sparse Cartesian block inside the
sparse core; the rigid-rotation row (zero friction on a circularly
symmetric domain) as a dense border next to the pressure mean.  The
mirror-symmetric subspace is no row at all: its unknowns are the
coefficients in sparse bases of the symmetric free velocities and
pressures, and the layout restricts the slip-reduced blocks to them, the
base operator once and each Newton operator as it comes.  The iteration
carries the solution x of the bordered system; the layout splits it into
velocity and pressure, and its block product gives both the GMRES
operator and the nonlinear residual.  The Stokes problem is the
workspace's base solve alone (solve_stokes).
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import assembly, geometry
from .errors import (BranchDegeneracyError, DataError, MeshError,
                     NonConvergenceError, SolverError)
from .linear_solvers import (RESIDUAL_TOL, FlowState, SaddleLayout, build_saddle_solver,
                             rigid_rotation_mode, solve_saddle_krylov, solve_saddle_rhs)

LINEAR_TOL = 1e-8
SYMMETRY_TOL = 1e-10
# One GMRES cycle of at most this many iterations before the workspace
# factors the operator itself.  Preconditioned by the Stokes factor, a
# Newton step takes a number of iterations growing like 1/nu: on a 10x20
# Hamel annulus 17, 36, 82 and 161 at nu = 1, 0.3, 0.1 and 0.05 from a
# zero start, 14, 29, 61 and 100 from the Stokes lift.  One factorization
# costs about as much as 20 iterations on 10x20 and 50 on 20x40, so past
# this crossover factoring the Newton operator is the cheaper way.
KRYLOV_CYCLE = 40
# Picard images kept by the Anderson-accelerated iteration of the default mode
ANDERSON_DEPTH = 3
# steps without a new lowest residual after which the iteration at one lambda stops
STALL_STEPS = 5


@dataclass
class SolverConfig:
    """Iteration strategy for the nonlinear solve."""

    mode: str = "picard-then-newton"    # or "newton"
    lambda_schedule: tuple = (1.0,)     # nondecreasing continuation values in [0, 1]
    tolerance: float = 1e-10            # relative nonlinear residual
    max_iterations: int = 60            # per lambda, accelerated and Newton steps together
    pins: dict = None                   # {hole component: circulation target}
    symmetric_subspace: bool = False

    def __post_init__(self):
        self.lambda_schedule = lam = tuple(self.lambda_schedule)
        if not (lam and all(0 <= l <= 1 for l in lam)) or any(
                lam[i] > lam[i + 1] for i in range(len(lam) - 1)):
            raise DataError("lambda schedule must be nonempty and nondecreasing within [0, 1]")
        if not (0 < self.tolerance < np.inf and self.max_iterations > 0):
            raise DataError("tolerance must be finite and positive, iteration limits positive")
        if self.mode not in ("newton", "picard-then-newton"):
            raise DataError(f"unknown solver mode {self.mode!r}")


@dataclass(frozen=True)
class LinearStep:
    """How one linearized system was solved.

    method: "direct" (back-solve with the held factor, or the first
    factorization), "krylov" (GMRES preconditioned by the held factor) or
    "refactor" (GMRES did not converge within one cycle, so the operator
    was factored and replaced the held factor).
    """

    method: str
    iterations: int     # GMRES iterations (of the failed cycle for "refactor")
    relres: float       # relative residual of the returned solution


@dataclass
class IterationTrace:
    """Per-iteration lists of the nonlinear solve, and per lambda in `stops`
    why its iteration stopped: reason "converged", "max_iterations" or
    "stalled" (STALL_STEPS steps since the lowest residual at that lambda),
    and `newton_from`, the index (into the per-iteration lists) of its
    first Newton step, or None without one."""

    residuals: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    dampings: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    linear: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)
    linear_relres: list = field(default_factory=list)
    stops: list = field(default_factory=list)

    def record(self, residual, energy, damping, phase, step):
        self.residuals.append(float(residual))
        self.energies.append(float(energy))
        self.dampings.append(float(damping))
        self.phases.append(phase)
        self.linear.append(step.method)
        self.krylov_iterations.append(int(step.iterations))
        self.linear_relres.append(float(step.relres))

    def stop(self, lam, reason, first):
        """Record why the iteration at lam, whose first step is index first, stopped."""
        newton = [i for i, phase in enumerate(self.phases[first:], first)
                  if phase.startswith("newton")]
        self.stops.append({"lambda": float(lam), "reason": reason,
                           "newton_from": newton[0] if newton else None})

    def as_dict(self):
        """Every list by field name (the trace.json layout)."""
        return asdict(self)


class _Workspace:
    """Assembled base operators and the SaddleLayout of the problem.

    `rows` is that layout: the slip constraint, the circulation pins the
    config asks for and, on a zero-friction circularly symmetric domain,
    the rigid-rotation row.  On the mirror-symmetric subspace Z_v and Z_p
    are its bases and `mirror` the node pairing they are built from (all
    None otherwise).  A_ff and F_f are the reduced base operator and load.
    The workspace holds one factored bordered saddle system at a time,
    first that of A_base (built by the Stokes lift).  A system of the held
    operator is a back-solve; any other operator is solved by one GMRES
    cycle preconditioned by the held factor and, if that cycle does not
    meet LINEAR_TOL, by factoring the operator, which then replaces the
    held factor.
    """

    def __init__(self, mesh, data, config=None):
        config = config or SolverConfig()
        domain = mesh.domain
        data.check_against(domain)
        self.mesh = mesh
        self.data = data
        self.A_base = assembly.velocity_sum(mesh, assembly.assemble_viscous(mesh, data.nu),
                                            assembly.assemble_friction(mesh, data.beta))
        self.F = assembly.load_volume(mesh, data.f) \
            + assembly.load_boundary_tangential(mesh, data.b_tau)
        self.mean = assembly.assemble_pressure_mean(mesh)
        con, B_f, G_f = assembly.apply_normal_trace(mesh, assembly.assemble_divergence(mesh),
                                                    data.a_star)

        velocity, targets, dense = [], [], []   # pin rows and targets, rigid-mode rows
        self.Z_v = self.Z_p = self.mirror = None
        self.meta = {}
        pins = dict(config.pins or {})
        if not np.all(np.isfinite(list(pins.values()))):
            raise DataError(f"circulation pins must be finite, got {pins}")
        if config.symmetric_subspace:
            if not geometry.classify_symmetry(domain).admissible_x1:
                raise DataError("domain is not admissible (mirror symmetry about x1 required)")
            defect = symmetric_data_defect(domain, data, mesh)
            if not defect <= SYMMETRY_TOL:
                raise DataError(
                    f"data is not symmetric about the x1-axis (relative defect {defect:.3e})")
            # mirror symmetry already forces zero circulation around every hole,
            # so zero pins are redundant and nonzero pins are contradictory
            if any(abs(target) > 1e-12 for target in pins.values()):
                raise DataError(f"circulation pins {pins} are incompatible with mirror "
                                "symmetry (symmetric fields have zero circulation)")
            pins = {}
            self.mirror = _mirror_lookup(mesh)
            self.Z_v, self.Z_p = _mirror_bases(mesh, con, self.mirror)
        elif (center := data.free_rotation_center(domain)) is not None:
            mode = rigid_rotation_mode(mesh, center)
            compat = float(self.F @ mode)
            scale = np.linalg.norm(self.F) * np.linalg.norm(mode)
            if abs(compat) > max(1e-8 * scale, 1e-12):
                raise DataError(
                    "zero-friction circularly symmetric domain needs compatible "
                    f"data; residual <f + b, rigid rotation> = {compat:.6e}")
            mass = assembly.assemble_vector_mass(mesh)
            dense.append(mass @ mode)
            self.meta["rigid_constraint"] = True
            self.meta["symmetric_compatibility_residual"] = compat
        for comp, target in sorted(pins.items()):
            if comp < 1 or comp > domain.n_holes:
                raise DataError(f"circulation pin on invalid hole component {comp}")
            velocity.append(assembly.circulation_functional(mesh, comp))
            targets.append(float(target))
        self.rows = SaddleLayout(con, B_f, G_f, self.mean,
                                 np.reshape(velocity, (-1, 2 * mesh.n_p2_nodes)), targets,
                                 dense, self.Z_v, self.Z_p)
        self.A_ff, self.F_f = self.rows.reduce(self.A_base, self.F)
        self._held = None       # (operator, its factored saddle system)
        self.factorizations = 0

    def solve_linear(self, A, extra_rhs=None, guess=None):
        """Constrained saddle solve with operator A; returns (x, LinearStep).

        x is the solution of the bordered system (`rows.split` gives the
        velocity and pressure); guess: optional start x for the GMRES cycle.
        """
        A_ff, F_f = (self.A_ff, self.F_f) if A is self.A_base else self.rows.reduce(A, self.F)
        if extra_rhs is not None:
            F_f = F_f + self.rows.load(extra_rhs)
        method, iterations = "direct", 0
        if self._held is not None and self._held[0] is not A:
            x, relres, iterations = solve_saddle_krylov(
                self.rows, self._held[1], A_ff, F_f, KRYLOV_CYCLE, guess)
            if relres <= LINEAR_TOL:
                return x, LinearStep("krylov", iterations, relres)
            method = "refactor"
            self._held = None           # at most one factorization is alive
        if self._held is None:
            self._held = (A, build_saddle_solver(self.rows, A_ff))
            self.factorizations += 1
        x, relres = solve_saddle_rhs(self.rows, self._held[1], F_f)
        if not relres <= LINEAR_TOL:
            raise SolverError(
                f"linearized solve residual {relres:.3e}; the system is "
                "singular or the constraints are degenerate")
        return x, LinearStep(method, iterations, relres)

    def physical_pressure(self, p):
        """Zero-mean physical pressure from the saddle solution.

        The saddle solve uses +B^T in the momentum rows; the weak form
        carries the pressure as +int p div(phi) on the right, so the
        physical pressure is the negative of the saddle unknown.
        """
        p = -p
        return p - (self.mean @ p) / self.mean.sum()

    def residual(self, x, lam, conv_vec):
        """Residual vector of the bordered system of A_base at x, with the
        convection load lam * N(u) on the right-hand side."""
        b, d = self.rows.rhs(self.F_f - lam * self.rows.load(conv_vec))
        return np.concatenate([b, d]) - self.rows.product(self.A_ff, x)


def _mirror_lookup(mesh):
    """Index of the mirror partner (within 1e-9 diameters) of every quadratic node, or error.

    The nodes are sorted by x1 into clusters, chains of values each within
    the tolerance of the next; in a cluster sorted by |x2| the nodes off the
    axis come in mirror pairs, and those on it are their own partners.
    """
    coords = mesh.p2_coords()
    tol = 1e-9 * mesh.domain.diameter
    x1, x2 = coords.T
    by_x1 = np.argsort(x1, kind="stable")
    cluster = np.empty(len(x1), np.int64)
    cluster[by_x1] = np.cumsum(np.diff(x1[by_x1], prepend=x1[by_x1[0]]) > tol)
    order = np.lexsort((np.abs(x2), cluster))
    off_axis = order[np.abs(x2[order]) > tol]
    pairs = off_axis[:len(off_axis) // 2 * 2].reshape(-1, 2)
    idx = np.arange(len(coords))
    idx[pairs[:, 0]], idx[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    if np.hypot(*(coords[idx] - coords * [1.0, -1.0]).T).max() > tol:
        raise MeshError("mesh is not mirror-symmetric about the x1-axis")
    return idx


def _mirror_bases(mesh, con, mirror):
    """Sparse bases (Z_v, Z_p) of the mirror-symmetric free velocities and pressures;
    mirror is the _mirror_lookup of the mesh.

    A field symmetric about the x1-axis is even in u1, u_n and p and odd in
    u2 and u_tau: each rotated dof 2*node + a is (1, -1)[a] times that of
    the mirror node, and each vertex pressure that of the mirror vertex.
    """
    nv = mesh.n_vertices
    if np.any(mirror[:nv] >= nv):
        raise MeshError("vertex mirrors onto a midside node")
    free_of = np.zeros(2 * len(mirror), np.int64)
    free_of[con.free] = np.arange(len(con.free))
    partner = free_of[assembly.velocity_dofs(mirror[:, None]).ravel()[con.free]]
    sign = np.tile([1.0, -1.0], len(mirror))[con.free]
    return _pairing_basis(partner, sign), _pairing_basis(mirror[:nv], np.ones(nv))


def _pairing_basis(partner, sign):
    """Sparse basis of {x : x[partner] = sign * x} for an involution `partner`:
    a column e_i + sign[i] e_partner[i] per pair i < partner[i], and e_i per
    unknown that is its own partner with sign[i] > 0 (the others are zero)."""
    i = np.arange(len(partner))
    lead = np.nonzero((i < partner) | ((i == partner) & (sign > 0)))[0]
    paired = partner[lead] != lead
    cols = np.arange(len(lead))
    return sp.csr_matrix((np.concatenate([np.ones(len(lead)), sign[lead[paired]]]),
                          (np.concatenate([lead, partner[lead[paired]]]),
                           np.concatenate([cols, cols[paired]]))),
                         shape=(len(partner), len(lead)))


def symmetric_data_defect(domain, data, mesh=None):
    """Mirror defect of the data about the x1-axis relative to its size.

    The boundary data are compared at 48 points of each curve and at their
    mirror images; the force at the volume quadrature points of the mesh,
    the points load_volume reads, and at theirs (the mesh is needed only
    when data.f is set).  Symmetric data has a defect below SYMMETRY_TOL;
    non-finite data gives NaN.  Errors evaluating the data propagate.
    """
    scales = [1.0]
    defects = [0.0]
    t = (np.arange(48) + 0.17) / 48.0
    with np.errstate(invalid="ignore"):   # non-finite data gives NaN defects
        for comp, curve in enumerate(domain.curves):
            pts = curve.point(t)
            mirrored = pts * np.array([1.0, -1.0])
            t2, dist = curve.project(mirrored)
            # the tangential density b_tau is odd, a_star and beta are even
            for datum, parity in ((data.a_star, -1.0), (data.b_tau, 1.0), (data.beta, -1.0)):
                fn = datum[comp]
                v1, v2 = np.asarray(fn(t, pts), float), np.asarray(fn(t2, mirrored), float)
                scales.append(np.max(np.abs(v1)))
                defects.append(np.max(np.abs(v1 + parity * v2)))
        if data.f is not None:
            pts = assembly.volume_context(mesh).points().reshape(-1, 2)
            pts = np.vstack([pts, pts * np.array([1.0, -1.0])])
            fv = np.asarray(data.f(pts), float)
            n = len(pts) // 2
            defects += [np.max(np.abs(fv[:n, 0] - fv[n:, 0])),
                        np.max(np.abs(fv[:n, 1] + fv[n:, 1]))]
            scales.append(np.max(np.abs(fv)))
    # np.max, unlike max(), propagates NaN; an infinite scale is non-finite data too
    scale = float(np.max(scales))
    return float(np.max(defects)) / scale if np.isfinite(scale) else np.nan


def _stokes_lift(ws):
    """The lambda = 0 solve (the initial guess w = 0), which factors A_base;
    returns (x, the residual scale, LinearStep)."""
    x, step = ws.solve_linear(ws.A_base)
    # the reduced load and the inhomogeneous boundary terms set the scale
    scale = np.max([np.linalg.norm(ws.rows.load(ws.F)), np.linalg.norm(ws.rows.G_f),
                    np.linalg.norm(ws.F_f), 1e-30])
    return x, scale, step


def solve_stokes(mesh, data):
    """Weak solution of the viscous slip problem on the given mesh.

    When the friction coefficient vanishes identically on a circularly
    symmetric domain, the rigid rotation is a zero-energy mode: the data
    must satisfy the force/traction compatibility and the returned
    solution is the unique one orthogonal to the rotation in L2.
    """
    ws = _Workspace(mesh, data)
    x, step = ws.solve_linear(ws.A_base)
    u, p = ws.rows.split(x)
    resid = step.relres
    if not resid <= RESIDUAL_TOL:
        raise SolverError(f"saddle solve residual {resid:.3e} above tolerance")
    meta = dict(ws.meta, problem="stokes", linear_residual=resid)
    return FlowState(mesh=mesh, nu=data.nu, velocity=u, pressure=ws.physical_pressure(p),
                     metadata=meta)


def solve_navier_stokes(mesh, data, config=None):
    """Nonlinear slip-flow solve; returns (FlowState, IterationTrace)."""
    config = config or SolverConfig()
    for flow, trace, _ in _continuation(_Workspace(mesh, data, config), config):
        pass
    return flow, trace


def _continuation(ws, config):
    """Walk config.lambda_schedule from the Stokes lift; after each lambda
    yield (FlowState, the growing IterationTrace, energy norm of u - lift)."""
    mesh = ws.mesh
    trace = IterationTrace()
    x, scale, lift_step = _stokes_lift(ws)
    lift, _ = ws.rows.split(x)
    lift_energy = 0.5 * float(lift @ (ws.A_base @ lift))
    conv = assembly.convection_vector(mesh, lift)
    for lam in config.lambda_schedule:
        if lam == 0.0:
            res = np.linalg.norm(ws.residual(x, 0.0, conv)) / scale
            trace.record(res, lift_energy, 1.0, "stokes", lift_step)
            trace.stop(lam, "converged", len(trace.residuals))
        else:
            x, conv, res = _solve_at_lambda(ws, config, lam, x, conv, trace, scale)
        u, p = ws.rows.split(x)
        weak = ws.residual(ws.rows.unpinned(x), lam, conv)[:ws.rows.n_flow]
        meta = {**ws.meta, "problem": "navier-stokes", "residual": res,
                "weak_residual_unpinned": np.linalg.norm(weak) / scale,
                "iterations": len(trace.residuals), "factorizations": ws.factorizations,
                "lambda": lam, "pins": dict(config.pins or {}),
                "stokes_lift_energy": lift_energy}
        if config.pins:
            meta["circulations"] = {
                comp: float(assembly.circulation_functional(mesh, comp) @ u)
                for comp in config.pins}
        if config.symmetric_subspace:
            meta["symmetry_defect"] = _symmetry_defect(ws.mirror, u)
        w = u - lift
        yield (FlowState(mesh=mesh, nu=ws.data.nu, velocity=u,
                         pressure=ws.physical_pressure(p), metadata=meta),
               trace, float(np.sqrt(max(w @ (ws.A_base @ w), 0.0))))


def _solve_at_lambda(ws, config, lam, x, conv, trace, scale):
    """Iterate at one lambda from x, whose convection vector N(u) is conv.

    Returns (x, N(u), relative residual) of the converged iterate.  Records
    in trace why the iteration stopped, also before raising.
    """
    mesh = ws.mesh
    damping = 1.0           # first fraction of the next Newton step
    u = ws.rows.split(x)[0]
    res_prev = np.linalg.norm(ws.residual(x, lam, conv)) / scale
    best, since_best = res_prev, 0      # a NaN residual is never a new lowest
    phase = "newton" if config.mode == "newton" else "anderson"
    history = []            # (Picard image, its field step) of the anderson steps here
    first = len(trace.residuals)

    def evaluate(x_try):
        u_try = ws.rows.split(x_try)[0]
        conv_try = assembly.convection_vector(mesh, u_try)
        return u_try, conv_try, np.linalg.norm(ws.residual(x_try, lam, conv_try)) / scale

    for _ in range(config.max_iterations):
        if res_prev <= config.tolerance:
            break
        try:
            if phase == "newton":
                C, _ = assembly.assemble_convection(mesh, u)
                D = assembly.assemble_convection_newton(mesh, u, lam)
                x_new, step = ws.solve_linear(
                    assembly.velocity_sum(mesh, ws.A_base, (lam, C), D),
                    extra_rhs=(D @ u), guess=x)
            else:
                x_new, step = ws.solve_linear(ws.A_base, extra_rhs=-lam * conv)
        except SolverError as exc:
            raise BranchDegeneracyError(
                f"singular linearized system at lambda={lam:g}; a circulation pin "
                f"may be needed to select a branch ({exc})") from exc

        if phase == "anderson":         # undamped: the mixing replaces the line search
            alpha = 1.0
            step_fields = np.concatenate(ws.rows.split(x_new)) - np.concatenate(ws.rows.split(x))
            x_try = _anderson_update(history, x_new, step_fields)
            u_try, conv_try, res_try = evaluate(x_try)
        else:
            # Newton update, halving on residual growth
            alpha = damping
            for _ in range(6):
                x_try = x + alpha * (x_new - x)
                u_try, conv_try, res_try = evaluate(x_try)
                if res_try <= res_prev or alpha < 0.05:
                    break
                alpha *= 0.5
            damping = min(1.0, alpha * 1.5)
        x, u, conv = x_try, u_try, conv_try
        energy = 0.5 * float(u @ (ws.A_base @ u))
        trace.record(res_try, energy, alpha, f"{phase}@{lam:g}", step)
        if res_try > res_prev and phase == "anderson":
            # the accelerated Picard map has stalled: Newton takes over from a
            # full step, and the Anderson history is not used again
            phase = "newton"
        res_prev = res_try
        best, since_best = (res_try, 0) if res_try < best else (best, since_best + 1)
        if since_best >= STALL_STEPS:
            trace.stop(lam, "stalled", first)
            raise NonConvergenceError(
                f"residual stalled: {STALL_STEPS} steps without going below {best:.3e} "
                f"at lambda={lam:g}", trace)
    if not res_prev <= config.tolerance:
        trace.stop(lam, "max_iterations", first)
        raise NonConvergenceError(
            f"no convergence within {config.max_iterations} iterations at "
            f"lambda={lam:g} (residual {res_prev:.3e})", trace)
    trace.stop(lam, "converged", first)
    return x, conv, res_prev


def _anderson_update(history, g, r):
    """Next iterate of Anderson acceleration of depth ANDERSON_DEPTH (Walker &
    Ni, SIAM J. Numer. Anal. 49, 2011) from the Picard image g of the
    iterate and r, the step it makes in the Cartesian velocity and the
    pressure; history holds the (image, step) pairs of the earlier steps
    and is extended in place.

    gamma minimizes |r - dR gamma| over the differences dR of the last
    steps.  Measured in the fields rather than in the unknowns of the
    bordered system, the iteration is the same on the mirror subspace and
    in the full space.  The update g - dG gamma (g at the first step)
    combines Picard images, so it meets every linear constraint they meet.
    """
    history.append((g, r))
    del history[:-ANDERSON_DEPTH - 1]
    if len(history) == 1:
        return g
    G, R = (np.diff(np.array(column), axis=0).T for column in zip(*history))
    return g - G @ np.linalg.lstsq(R, r, rcond=None)[0]


def _symmetry_defect(mirror, u):
    """Largest mirror defect of the velocity u relative to its size."""
    vals = u.reshape(-1, 2)
    worst = np.max(np.abs(vals - vals[mirror] * [1.0, -1.0]))
    return float(worst / max(np.max(np.abs(vals)), 1e-30))


def continuation_sweep(mesh, data, lambda_grid, config=None):
    """Warm-started solves over a nondecreasing grid of convection scales in [0, 1].

    Returns a list of (lambda, FlowState, J-norm of w) where w is the
    deviation from the Stokes lift measured in the energy norm whose
    boundedness the solvability argument requires.  Each state carries the
    metadata of solve_navier_stokes and the norm as `w_norm`.
    """
    config = replace(config or SolverConfig(), lambda_schedule=tuple(lambda_grid))
    states = _continuation(_Workspace(mesh, data, config), config)
    out = []
    for lam in config.lambda_schedule:
        try:
            flow, _, w_norm = next(states)
        except (NonConvergenceError, BranchDegeneracyError) as exc:
            # keep the type, the traceback and a NonConvergenceError's trace
            exc.args = (f"continuation failed at lambda={lam:g}: {exc}",)
            raise
        flow.metadata["w_norm"] = w_norm
        out.append((lam, flow, w_norm))
    return out
