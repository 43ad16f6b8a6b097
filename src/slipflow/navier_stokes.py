"""Stationary Navier-Stokes slip solver.

The nonlinear problem is attacked as a fixed point of the viscous slip
operator: damped Picard steps (all convection explicit, each step being
one Stokes-type solve) optionally followed by Newton.  A continuation
parameter scales the convection terms from 0 (Stokes lift, the initial
guess) to 1.  On configurations with a solution continuum the Jacobian
is singular; optional circulation pins (one scalar constraint per hole)
restore uniqueness and select the branch.

One nonlinear solve factors one matrix: the Stokes lift factors the
constrained base system, every Picard step (at every continuation
value) back-solves with that factor, and each Newton step solves its
system by GMRES on the full bordered system preconditioned by it (an
inexact Newton-Krylov method; Knoll & Keyes, J. Comput. Phys. 193,
2004).  Only when one GMRES cycle of KRYLOV_CYCLE iterations does not
meet the linear tolerance, as at low viscosity, is the Newton operator
factored; that factor replaces the held one, so at most one
factorization is alive.  Residuals need only the convection vector
N(w), which is computed without assembling C(w).
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import assembly, geometry
from .errors import (BranchDegeneracyError, DataError, MeshError,
                     NonConvergenceError, SolverError)
from .linear_solvers import (FlowState, build_saddle_solver, rigid_rotation_mode,
                             solve_saddle_krylov, solve_saddle_rhs)

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


@dataclass
class SolverConfig:
    """Iteration strategy for the nonlinear solve."""

    mode: str = "picard-then-newton"    # "picard" | "newton" | "picard-then-newton"
    lambda_schedule: tuple = (1.0,)     # nondecreasing continuation values in [0, 1]
    tolerance: float = 1e-10            # relative nonlinear residual
    max_iterations: int = 60
    picard_iterations: int = 8          # Picard budget before Newton
    damping: float = 1.0
    pins: dict = None                   # {hole component: circulation target}
    symmetric_subspace: bool = False

    def __post_init__(self):
        lam = tuple(self.lambda_schedule)
        if any(l < 0 or l > 1 for l in lam) or any(
                lam[i] > lam[i + 1] for i in range(len(lam) - 1)):
            raise DataError("lambda schedule must be nondecreasing within [0, 1]")
        if self.tolerance <= 0 or self.max_iterations <= 0:
            raise DataError("tolerance and iteration limits must be positive")
        if self.mode not in ("picard", "newton", "picard-then-newton"):
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
    residuals: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    dampings: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    linear: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)
    linear_relres: list = field(default_factory=list)

    def record(self, residual, energy, damping, phase, step):
        self.residuals.append(float(residual))
        self.energies.append(float(energy))
        self.dampings.append(float(damping))
        self.phases.append(phase)
        self.linear.append(step.method)
        self.krylov_iterations.append(int(step.iterations))
        self.linear_relres.append(float(step.relres))

    def as_dict(self):
        """Every per-iteration list by field name (the trace.json layout)."""
        return asdict(self)


class _Workspace:
    """Assembled base operators plus the slip constraint for one problem.

    The workspace holds one factored bordered saddle system at a time,
    first that of A_base (built by the Stokes lift).  A system of the held
    operator is a back-solve; any other operator is solved by one GMRES
    cycle preconditioned by the held factor and, if that cycle does not
    meet LINEAR_TOL, by factoring the operator, which then replaces the
    held factor.
    """

    def __init__(self, mesh, data, symmetric=False):
        domain = mesh.domain
        data.check_against(domain)
        self.mesh = mesh
        self.data = data
        self.dofmap = assembly.DofMap(mesh)
        self.A_base = assembly.assemble_viscous(mesh, self.dofmap, data.nu) \
            + assembly.assemble_friction(mesh, self.dofmap, data.beta)
        self.B = assembly.assemble_divergence(mesh, self.dofmap)
        self.F = assembly.load_volume(mesh, self.dofmap, data.f) \
            + assembly.load_boundary_tangential(mesh, self.dofmap, data.b_tau)
        self.mean = assembly.assemble_pressure_mean(mesh, self.dofmap)
        self.base = assembly.apply_normal_trace(
            mesh, self.dofmap,
            assembly.StokesSystem(A=self.A_base, B=self.B, F=self.F, mean=self.mean),
            data.a_star)
        self.con = self.base.constraint

        self.sparse_rows = []
        self.sparse_vals = []
        self.pressure_rows = []
        self.dense_rows = []
        self.dense_vals = []
        self.meta = {}
        sym = geometry.classify_symmetry(domain)
        if sym.circularly_symmetric is not None and not symmetric \
                and data.beta_identically_zero(domain):
            mode = rigid_rotation_mode(mesh, sym.circularly_symmetric)
            compat = float(self.F @ mode.coefficients)
            scale = np.linalg.norm(self.F) * np.linalg.norm(mode.coefficients)
            if abs(compat) > max(1e-8 * scale, 1e-12):
                raise DataError(
                    "zero-friction circularly symmetric domain needs compatible "
                    f"data; residual <f + b, rigid rotation> = {compat:.6e}")
            mass = assembly.assemble_vector_mass(mesh, self.dofmap)
            self.dense_rows.append(mass @ mode.coefficients)
            self.dense_vals.append(0.0)
            self.meta["rigid_constraint"] = True
            self.meta["symmetric_compatibility_residual"] = compat
        self._held = None       # (operator, its A_ff, solver, offsets)
        self.factorizations = 0

    def constrained_system(self, A):
        if A is self.A_base:
            return self.base
        A_ff, A_fc = self.con.reduce_matrix(A)
        return replace(self.base, A_ff=A_ff,
                       F_f=self.con.reduce_vector(self.F) - A_fc @ self.con.fixed_values)

    def solve_linear(self, A, extra_rhs=None, guess=None):
        """Constrained saddle solve with operator A; returns (u, p, mults, LinearStep).

        guess: optional (u, p, mults) start for the GMRES cycle.
        """
        cs = self.constrained_system(A)
        F_f = cs.F_f if extra_rhs is None else \
            cs.F_f + self.con.reduce_vector(extra_rhs)
        method, iterations = "direct", 0
        if self._held is not None and self._held[0] is not A:
            u, p, mults, relres, iterations = self._krylov(cs, F_f, guess)
            if relres <= LINEAR_TOL:
                return u, p, mults, LinearStep("krylov", iterations, relres)
            method = "refactor"
            self._held = None           # at most one factorization is alive
        if self._held is None:
            solver, offsets = build_saddle_solver(
                cs, sparse_rows=self.sparse_rows, dense_rows=self.dense_rows,
                pressure_rows=self.pressure_rows)
            self._held = (A, cs.A_ff, solver, offsets)
            self.factorizations += 1
        _, _, solver, offsets = self._held
        u, p, mults, relres = solve_saddle_rhs(
            cs, solver, offsets, sparse_vals=self.sparse_vals,
            dense_vals=self.dense_vals, F_override=F_f)
        if not relres <= LINEAR_TOL:
            raise SolverError(
                f"linearized solve residual {relres:.3e}; the system is "
                "singular or the constraints are degenerate")
        return u, p, mults, LinearStep(method, iterations, relres)

    def _krylov(self, cs, F_f, guess):
        _, A_ff, solver, offsets = self._held
        return solve_saddle_krylov(
            cs, solver, offsets, cs.A_ff - A_ff, KRYLOV_CYCLE,
            sparse_vals=self.sparse_vals, dense_vals=self.dense_vals,
            F_override=F_f, guess=guess)

    def physical_pressure(self, p):
        """Zero-mean physical pressure from the saddle solution.

        The saddle solve uses +B^T in the momentum rows; the weak form
        carries the pressure as +int p div(phi) on the right, so the
        physical pressure is the negative of the saddle unknown.
        """
        p = -p
        return p - (self.mean @ p) / self.mean.sum()

    def residual(self, u, p, mults, lam, conv_vec):
        """Reduced nonlinear residual including the multiplier forces."""
        con = self.con
        r_cart = self.A_base @ u + lam * conv_vec + self.B.T @ p - self.F
        r_m = (con.Q @ r_cart)[con.free]
        k = 0
        for vec in self.sparse_rows:
            r_m += mults[k] * (con.Q @ vec)[con.free]
            k += 1
        r_c = self.B @ u
        for pr in self.pressure_rows:
            r_c = r_c + mults[k] * np.asarray(pr)
            k += 1
        mu_mean = mults[k]
        k += 1
        for vec in self.dense_rows:
            r_m += mults[k] * (con.Q @ vec)[con.free]
            k += 1
        r_c = r_c + self.mean * mu_mean
        r_mean = np.array([self.mean @ p])
        r_rows = [np.einsum("i,i->", np.asarray(v), u) - val
                  for v, val in zip(self.sparse_rows, self.sparse_vals)]
        r_rows += [float(np.asarray(pr) @ p) for pr in self.pressure_rows]
        r_rows += [np.einsum("i,i->", np.asarray(v), u) - val
                   for v, val in zip(self.dense_rows, self.dense_vals)]
        pieces = [r_m, r_c, r_mean, np.asarray(r_rows, float)]
        return np.sqrt(sum(float(x @ x) for x in pieces))

    def unpinned_weak_residual(self, u, p, lam, conv_vec, mu_mean=0.0):
        con = self.con
        r_cart = self.A_base @ u + lam * conv_vec + self.B.T @ p - self.F
        r_m = (con.Q @ r_cart)[con.free]
        r_c = self.B @ u + self.mean * mu_mean
        return np.sqrt(float(r_m @ r_m) + float(r_c @ r_c))


def _mirror_lookup(mesh, tol_rel=1e-9):
    """Index of the mirror partner of every quadratic node (or error)."""
    from scipy.spatial import cKDTree
    coords = mesh.p2_coords()
    tol = tol_rel * mesh.domain.diameter
    tree = cKDTree(coords)
    dist, idx = tree.query(coords * np.array([1.0, -1.0]), k=1)
    if dist.max() > tol:
        raise MeshError("mesh is not mirror-symmetric about the x1-axis")
    return coords, idx, tol


def _mirror_pair_rows(mesh, tol_rel=1e-9):
    """Sparse symmetry rows pairing mirror nodes about the x1-axis."""
    coords, mirror, tol = _mirror_lookup(mesh, tol_rel)
    n_vel = 2 * len(coords)
    rows, vals = [], []
    for m, (x, y) in enumerate(coords):
        if y < -tol:
            continue
        s = int(mirror[m])
        on_axis = abs(y) <= tol
        if mesh.node_is_boundary[m]:
            tau_m = mesh.node_tangent[m]
            if on_axis:
                row = np.zeros(n_vel)
                row[2 * m:2 * m + 2] = tau_m
                rows.append(row)
                vals.append(0.0)
            elif s != m:
                tau_s = mesh.node_tangent[s]
                row = np.zeros(n_vel)
                row[2 * m:2 * m + 2] = tau_m
                row[2 * s:2 * s + 2] = tau_s
                rows.append(row)
                vals.append(0.0)
        else:
            if on_axis:
                row = np.zeros(n_vel)
                row[2 * m + 1] = 1.0
                rows.append(row)
                vals.append(0.0)
            elif s != m:
                r1 = np.zeros(n_vel)
                r1[2 * s] = 1.0
                r1[2 * m] = -1.0
                r2 = np.zeros(n_vel)
                r2[2 * s + 1] = 1.0
                r2[2 * m + 1] = 1.0
                rows.extend([r1, r2])
                vals.extend([0.0, 0.0])
    return rows, vals


def _mirror_pressure_rows(mesh, tol_rel=1e-9):
    """Evenness constraints pairing mirror vertices of the pressure space."""
    coords, mirror, tol = _mirror_lookup(mesh, tol_rel)
    nv = mesh.n_vertices
    rows = []
    for m in range(nv):
        s = int(mirror[m])
        if s >= nv:
            raise MeshError("vertex mirrors onto a midside node")
        if coords[m, 1] > tol and s != m:
            row = np.zeros(nv)
            row[s] = 1.0
            row[m] = -1.0
            rows.append(row)
    return rows


def symmetric_data_defect(domain, data):
    """Mirror defect of the data about the x1-axis relative to its size.

    Symmetric data has a defect below SYMMETRY_TOL; non-finite data gives
    NaN.  Errors evaluating the data propagate.
    """
    scale = 0.0
    worst = 0.0
    t = (np.arange(48) + 0.17) / 48.0
    for comp, curve in enumerate(domain.curves):
        pts = curve.point(t)
        mirrored = pts * np.array([1.0, -1.0])
        t2, dist = curve.project(mirrored)
        a = assembly.as_boundary_scalar(data.a_star[comp])
        b = assembly.as_boundary_scalar(data.b_tau[comp])
        bet = assembly.as_boundary_scalar(data.beta[comp])
        a1, a2 = np.asarray(a(t, pts), float), np.asarray(a(t2, mirrored), float)
        b1, b2 = np.asarray(b(t, pts), float), np.asarray(b(t2, mirrored), float)
        c1, c2 = np.asarray(bet(t, pts), float), np.asarray(bet(t2, mirrored), float)
        scale = max(scale, np.max(np.abs(a1)), np.max(np.abs(b1)), np.max(np.abs(c1)), 1.0)
        worst = max(worst,
                    float(np.max(np.abs(a1 - a2))),
                    float(np.max(np.abs(b1 + b2))),   # tangential density is odd
                    float(np.max(np.abs(c1 - c2))))
    if data.f is not None and callable(data.f):
        rng = np.random.default_rng(3)
        from .validation import sample_interior_points
        pts = sample_interior_points(domain, 32, rng)
        pts = np.vstack([pts, pts * np.array([1.0, -1.0])])
        fv = np.asarray(data.f(pts), float)
        n = len(pts) // 2
        worst = max(worst, float(np.max(np.abs(fv[:n, 0] - fv[n:, 0]))),
                    float(np.max(np.abs(fv[:n, 1] + fv[n:, 1]))))
        scale = max(scale, float(np.max(np.abs(fv))))
    return float(worst) / float(scale)


def _workspace(mesh, data, config):
    """Workspace carrying the constraint rows the config asks for."""
    ws = _Workspace(mesh, data, symmetric=config.symmetric_subspace)
    pins = dict(config.pins or {})
    if config.symmetric_subspace:
        sym = geometry.classify_symmetry(mesh.domain)
        if not sym.admissible_x1:
            raise DataError("domain is not admissible (mirror symmetry about x1 required)")
        defect = symmetric_data_defect(mesh.domain, data)
        if not defect <= SYMMETRY_TOL:
            raise DataError(
                f"data is not symmetric about the x1-axis (relative defect {defect:.3e})")
        # mirror symmetry already forces zero circulation around every hole,
        # so zero pins are redundant and nonzero pins are contradictory
        for comp, target in list(pins.items()):
            if abs(target) > 1e-12:
                raise DataError(
                    f"circulation pin {target:g} on component {comp} is "
                    "incompatible with mirror symmetry (symmetric fields have "
                    "zero circulation)")
            del pins[comp]
        rows, vals = _mirror_pair_rows(mesh)
        ws.sparse_rows.extend(rows)
        ws.sparse_vals.extend(vals)
        ws.pressure_rows.extend(_mirror_pressure_rows(mesh))
    for comp, target in sorted(pins.items()):
        if comp < 1 or comp > mesh.domain.n_holes:
            raise DataError(f"circulation pin on invalid hole component {comp}")
        ws.sparse_rows.append(assembly.circulation_functional(mesh, ws.dofmap, comp))
        ws.sparse_vals.append(float(target))
    return ws


def _stokes_lift(ws):
    """The lambda = 0 solve (also the initial guess w = 0) and the residual scale.

    Returns (u, p, mults, scale, LinearStep); the solve factors A_base.
    """
    u, p, mults, step = ws.solve_linear(ws.A_base)
    # the reduced load and the inhomogeneous boundary terms set the scale
    scale = max(np.linalg.norm(ws.con.reduce_vector(ws.F)),
                np.linalg.norm(ws.base.G_f), 1e-30)
    scale = max(scale, float(np.linalg.norm(ws.base.F_f)))
    return u, p, mults, scale, step


def solve_navier_stokes(mesh, data, config=None):
    """Nonlinear slip-flow solve; returns (FlowState, IterationTrace)."""
    config = config or SolverConfig()
    return _iterate(_workspace(mesh, data, config), config)


def _iterate(ws, config):
    mesh, data = ws.mesh, ws.data
    trace = IterationTrace()
    dofmap = ws.dofmap

    u, p, mults, scale, lift_step = _stokes_lift(ws)
    lift = u.copy()

    energy = 0.5 * float(u @ (ws.A_base @ u))
    for lam in config.lambda_schedule:
        if lam == 0.0:
            conv = assembly.convection_vector(mesh, dofmap, u)
            res = ws.residual(u, p, mults, 0.0, conv) / scale
            trace.record(res, energy, 1.0, "stokes", lift_step)
            continue
        u, p, mults, trace = _solve_at_lambda(ws, config, lam, u, p, mults, trace, scale)
    conv = assembly.convection_vector(mesh, dofmap, u)
    final_res = ws.residual(u, p, mults, config.lambda_schedule[-1], conv) / scale
    meta = dict(ws.meta)
    meta.update({
        "problem": "navier-stokes",
        "residual": final_res,
        "weak_residual_unpinned": ws.unpinned_weak_residual(
            u, p, config.lambda_schedule[-1], conv,
            mults[len(ws.sparse_rows) + len(ws.pressure_rows)]) / scale,
        "iterations": len(trace.residuals),
        "factorizations": ws.factorizations,
        "lambda": config.lambda_schedule[-1],
        "pins": dict(config.pins or {}),
        "stokes_lift_energy": 0.5 * float(lift @ (ws.A_base @ lift)),
    })
    if config.pins:
        meta["circulations"] = {
            comp: float(assembly.circulation_functional(mesh, dofmap, comp) @ u)
            for comp in config.pins}
    if config.symmetric_subspace:
        meta["symmetry_defect"] = _symmetry_defect(mesh, u)
    flow = FlowState(mesh=mesh, nu=data.nu, velocity=u, pressure=ws.physical_pressure(p),
                     metadata=meta)
    return flow, trace


def _solve_at_lambda(ws, config, lam, u, p, mults, trace, scale):
    mesh, dofmap = ws.mesh, ws.dofmap
    damping = config.damping
    conv = assembly.convection_vector(mesh, dofmap, u)
    res_prev = ws.residual(u, p, mults, lam, conv) / scale
    growth_streak = 0
    newton_allowed = config.mode in ("newton", "picard-then-newton")
    picard_budget = {"picard": config.max_iterations,
                     "newton": 0,
                     "picard-then-newton": config.picard_iterations}[config.mode]

    for it in range(config.max_iterations):
        if res_prev <= config.tolerance:
            break
        phase = "picard" if it < picard_budget else "newton"
        if phase == "newton" and not newton_allowed:
            phase = "picard"
        try:
            if phase == "picard":
                u_new, p_new, mults_new, step = ws.solve_linear(
                    ws.A_base, extra_rhs=-lam * conv)
            else:
                C, _ = assembly.assemble_convection(mesh, dofmap, u)
                D = assembly.assemble_convection_newton(mesh, dofmap, u, lam)
                A_op = ws.A_base + lam * C + D
                u_new, p_new, mults_new, step = ws.solve_linear(
                    A_op, extra_rhs=(D @ u), guess=(u, p, mults))
        except SolverError as exc:
            raise BranchDegeneracyError(
                f"singular linearized system at lambda={lam:g}; a circulation pin "
                f"may be needed to select a branch ({exc})") from exc

        # damped update, halving on residual growth
        alpha = damping
        for _ in range(6):
            u_try = u + alpha * (u_new - u)
            p_try = p + alpha * (p_new - p)
            m_try = mults + alpha * (np.asarray(mults_new) - np.asarray(mults)) \
                if len(mults) else mults_new
            conv_try = assembly.convection_vector(mesh, dofmap, u_try)
            res_try = ws.residual(u_try, p_try, m_try, lam, conv_try) / scale
            if res_try <= res_prev or alpha < 0.05:
                break
            alpha *= 0.5
        u, p, mults = u_try, p_try, np.asarray(m_try)
        conv = conv_try
        energy = 0.5 * float(u @ (ws.A_base @ u))
        trace.record(res_try, energy, alpha, f"{phase}@{lam:g}", step)
        growth_streak = growth_streak + 1 if res_try > res_prev else 0
        if growth_streak >= 5:
            raise NonConvergenceError(
                f"residual grew for 5 consecutive steps at lambda={lam:g}", trace)
        res_prev = res_try
        damping = min(1.0, alpha * 1.5)
    else:
        if not res_prev <= config.tolerance:
            raise NonConvergenceError(
                f"no convergence within {config.max_iterations} iterations at "
                f"lambda={lam:g} (residual {res_prev:.3e})", trace)
    return u, p, mults, trace


def _symmetry_defect(mesh, u):
    coords, mirror, _ = _mirror_lookup(mesh)
    vals = u.reshape(-1, 2)
    paired = vals[mirror]
    worst = max(float(np.max(np.abs(vals[:, 0] - paired[:, 0]))),
                float(np.max(np.abs(vals[:, 1] + paired[:, 1]))))
    return float(worst / max(np.max(np.abs(vals)), 1e-30))


def solve_symmetric(mesh, data, config=None):
    """Solve restricted to the mirror-symmetric subspace (admissible domains)."""
    cfg = replace(config or SolverConfig(), symmetric_subspace=True)
    flow, trace = solve_navier_stokes(mesh, data, cfg)
    defect = flow.metadata.get("symmetry_defect", np.inf)
    if not defect <= 1e-10:
        raise SolverError(f"symmetric solve left a symmetry defect {defect:.3e}")
    return flow


def continuation_sweep(mesh, data, lambda_grid, config=None):
    """Warm-started solves over a nondecreasing grid of convection scales.

    Returns a list of (lambda, FlowState, J-norm of w) where w is the
    deviation from the Stokes lift measured in the energy norm whose
    boundedness the solvability argument requires.
    """
    lam_grid = tuple(lambda_grid)
    if any(lam_grid[i] > lam_grid[i + 1] for i in range(len(lam_grid) - 1)):
        raise DataError("continuation grid must be nondecreasing")
    config = config or SolverConfig()
    ws = _workspace(mesh, data, config)

    trace = IterationTrace()
    u, p, mults, scale, _ = _stokes_lift(ws)
    lift = u.copy()
    out = []
    for lam in lam_grid:
        if lam > 0:
            try:
                u, p, mults, trace = _solve_at_lambda(
                    ws, config, lam, u, p, mults, trace, scale)
            except (NonConvergenceError, BranchDegeneracyError) as exc:
                # keep the type, the traceback and a NonConvergenceError's trace
                exc.args = (f"continuation failed at lambda={lam:g}: {exc}",)
                raise
        w = u - lift
        wnorm = float(np.sqrt(max(w @ (ws.A_base @ w), 0.0)))
        conv = assembly.convection_vector(mesh, ws.dofmap, u)
        flow = FlowState(mesh=mesh, nu=data.nu, velocity=u.copy(),
                         pressure=ws.physical_pressure(p),
                         metadata={"problem": "navier-stokes", "lambda": lam,
                                   "residual": ws.residual(u, p, mults, lam, conv) / scale,
                                   "w_norm": wnorm})
        out.append((lam, flow, wnorm))
    return out
