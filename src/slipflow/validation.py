"""Exact solutions, independent residual oracles, manufactured data, and
convergence studies.

Every exact solution, the manufactured one included, ships closed-form
derivatives, and mms_generate and the convergence studies read them.  The
certification oracle deliberately ignores them: it differentiates the
velocity/pressure callables with high-order centered stencils in extended
precision, so a transcription error in any formula cannot hide.  It
reads the interior points its caller passes, and on the boundary the
SLIP_SAMPLES parameters of each component, where mms_generate also checks
that the velocity is divergence-free; nothing here draws random points.
"""

import io
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, norms
from .assembly import ProblemData, as_boundary_scalar
from .errors import DataError

LOG2 = float(np.log(2.0))
# finite-difference steps in domain diameters: of the interior oracles,
# and of slip_residual at its SLIP_SAMPLES boundary points
FD_STEP = 1e-5
SLIP_FD_STEP = 1e-6
SLIP_SAMPLES = 64
MANUFACTURED_AMPLITUDE = 0.15


@dataclass
class ExactSolution:
    """Analytic velocity/pressure pair with compatible slip data."""

    name: str
    domain: geometry.DomainSpec
    data: ProblemData
    velocity: callable                  # (m, 2) points -> (m, 2)
    pressure: callable                  # (m, 2) points -> (m,)
    velocity_jacobian: callable         # -> (m, 2, 2), J[a, b] = du_a/dx_b
    velocity_laplacian: callable        # -> (m, 2)
    pressure_gradient: callable         # -> (m, 2)
    model: str = "navier-stokes"        # or "stokes"


# -- the explicit annulus family --------------------------------------------

def _annulus_domain(r_in=1.0, r_out=2.0, center=(0.0, 0.0)):
    return geometry.DomainSpec(
        [geometry.Circle(center, r_out), geometry.Circle(center, r_in)],
        labels=["outer", "inner"])


def hamel(k):
    """Radial-plus-swirl family on the annulus 1 < |x| < 2.

    All members share the same boundary data (the non-uniqueness
    exhibit); the swirl strength k sets the circulation 2*pi*k around
    the hole.  The pressure comes from integrating the radial momentum
    balance p'(r) = u_theta^2/r - u_r u_r', normalized to zero mean.
    """
    k = float(k)

    def velocity(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        r = np.sqrt(r2)
        perp = np.stack([-x[:, 1], x[:, 0]], axis=1)
        return -3.0 * x / r2[:, None] + (k * (3.0 * r - 2.0) / (r * r2))[:, None] * perp

    # p(r) = -9/(2 r^2) + k^2 (-9/(2 r^2) + 4/r^3 - 1/r^4) + C, C fixing zero mean
    mean = (-9.0 * np.log(2.0) + k * k * (-9.0 * np.log(2.0) + 13.0 / 4.0)) / 3.0

    def pressure(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        r = np.sqrt(r2)
        return (-4.5 / r2 + k * k * (-4.5 / r2 + 4.0 / r2 / r - 1.0 / r2 ** 2)) - mean

    def velocity_jacobian(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        r = np.sqrt(r2)
        perp = np.stack([-x[:, 1], x[:, 0]], axis=1)
        phi = -3.0 / r2
        dphi = 6.0 / (r2 * r)
        chi = k * (3.0 / r2 - 2.0 / (r2 * r))
        dchi = k * (-6.0 / (r2 * r) + 6.0 / (r2 * r2))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        J = (dphi / r)[:, None, None] * x[:, :, None] * x[:, None, :]
        J += phi[:, None, None] * np.eye(2)
        J += (dchi / r)[:, None, None] * perp[:, :, None] * x[:, None, :]
        J += chi[:, None, None] * rot
        return J

    def velocity_laplacian(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        r = np.sqrt(r2)
        perp = np.stack([-x[:, 1], x[:, 0]], axis=1)
        return (-6.0 * k / (r2 ** 2 * r))[:, None] * perp

    def pressure_gradient(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        r = np.sqrt(r2)
        dp = 9.0 / (r2 * r) + k * k * (9.0 / (r2 * r) - 12.0 / r2 ** 2 + 4.0 / (r2 ** 2 * r))
        return (dp / r)[:, None] * x

    data = ProblemData(nu=1.0, beta=(0.75, 0.0), a_star=(-1.5, 3.0),
                       b_tau=(0.0, 0.0), f=None)
    return ExactSolution(
        name=f"hamel(k={k:g})", domain=_annulus_domain(), data=data,
        velocity=velocity, pressure=pressure,
        velocity_jacobian=velocity_jacobian,
        velocity_laplacian=velocity_laplacian,
        pressure_gradient=pressure_gradient)


def hamel_velocity_gap(k0, k1):
    """Closed-form L2 distance between two family members' velocities."""
    dk = abs(k1 - k0)
    integral = 2.0 * np.pi * (9.0 * np.log(2.0) - 4.5)
    return dk * np.sqrt(integral)


def rigid_rotation(b, center=(0.0, 0.0), domain=None):
    """Rotation around `center`: a zero-data solution on symmetric domains.

    The pressure |u|^2/2 is kept unshifted so the total head on a circle
    of radius rho around the center is exactly (b * rho)^2.
    """
    center = np.asarray(center, float)
    if domain is None:
        domain = _annulus_domain(center=tuple(center))
    sym = geometry.classify_symmetry(domain)
    if sym.circularly_symmetric is None or \
            np.hypot(*(np.asarray(sym.circularly_symmetric) - center)) > 1e-9 * domain.diameter:
        raise DataError("rigid rotation needs a circularly symmetric domain about its center")
    b = float(b)

    def velocity(x):
        rel = np.asarray(x) - center
        return b * np.stack([-rel[:, 1], rel[:, 0]], axis=1)

    def pressure(x):
        rel = np.asarray(x) - center
        return 0.5 * b * b * (rel[:, 0] ** 2 + rel[:, 1] ** 2)

    def velocity_jacobian(x):
        n = len(np.asarray(x))
        J = np.zeros((n, 2, 2))
        J[:, 0, 1] = -b
        J[:, 1, 0] = b
        return J

    def velocity_laplacian(x):
        return np.zeros_like(np.asarray(x, float))

    def pressure_gradient(x):
        return b * b * (np.asarray(x) - center)

    ncomp = domain.n_components
    data = ProblemData(nu=1.0, beta=(0.0,) * ncomp, a_star=(0.0,) * ncomp,
                       b_tau=(0.0,) * ncomp, f=None)
    return ExactSolution(
        name=f"rigid_rotation(b={b:g})", domain=domain, data=data,
        velocity=velocity, pressure=pressure,
        velocity_jacobian=velocity_jacobian,
        velocity_laplacian=velocity_laplacian,
        pressure_gradient=pressure_gradient)


def slip_couette(r_in=1.0, r_out=2.0, nu=1.0, beta=(1.0, 1.0), g=(1.0, 2.0)):
    """Azimuthal Stokes flow A r + B/r driven by tangential tractions.

    (A, B) solve the 2x2 system obtained by writing the slip condition
    on each circle with S_{r theta} = -2B/r^2 and tau = (n2, -n1):
    outer:  -beta0*b*A + (2 nu/b^2 - beta0/b) B = g0
    inner:   beta1*a*A + (2 nu/a^2 + beta1/a) B = g1
    """
    a, bb = float(r_in), float(r_out)
    beta0, beta1 = float(beta[0]), float(beta[1])
    g0, g1 = float(g[0]), float(g[1])
    mat = np.array([
        [-beta0 * bb, 2.0 * nu / bb ** 2 - beta0 / bb],
        [beta1 * a, 2.0 * nu / a ** 2 + beta1 / a],
    ])
    if abs(np.linalg.det(mat)) < 1e-14 * max(1.0, abs(mat).max() ** 2):
        raise DataError("slip Couette system is singular (rigid rotation undetermined)")
    A, B = np.linalg.solve(mat, np.array([g0, g1]))

    def velocity(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        perp = np.stack([-x[:, 1], x[:, 0]], axis=1)
        return (A + B / r2)[:, None] * perp

    def pressure(x):
        return np.zeros(len(np.asarray(x)))

    def velocity_jacobian(x):
        x = np.asarray(x)
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        r = np.sqrt(r2)
        perp = np.stack([-x[:, 1], x[:, 0]], axis=1)
        psi = A + B / r2
        dpsi = -2.0 * B / (r2 * r)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        J = (dpsi / r)[:, None, None] * perp[:, :, None] * x[:, None, :]
        J += psi[:, None, None] * rot
        return J

    def velocity_laplacian(x):
        return np.zeros_like(np.asarray(x, float))

    def pressure_gradient(x):
        return np.zeros_like(np.asarray(x, float))

    data = ProblemData(nu=nu, beta=(beta0, beta1), a_star=(0.0, 0.0),
                       b_tau=(g0, g1), f=None)
    return ExactSolution(
        name="slip_couette", domain=_annulus_domain(a, bb), data=data,
        velocity=velocity, pressure=pressure,
        velocity_jacobian=velocity_jacobian,
        velocity_laplacian=velocity_laplacian,
        pressure_gradient=pressure_gradient,
        model="stokes")


def manufactured():
    """Rotated gradient of a sin(x1) sin(x2) on the annulus 1 < |x| < 2, with
    the pressure cos(x1) sin(x2), a = MANUFACTURED_AMPLITUDE.

    Nothing here solves the equations: mms_generate manufactures the force
    and the slip data (nu = 1, beta = 1 on both circles) from the fields.
    """
    a = MANUFACTURED_AMPLITUDE

    def velocity(x):
        x = np.asarray(x)
        return a * np.stack([-np.sin(x[:, 0]) * np.cos(x[:, 1]),
                             np.cos(x[:, 0]) * np.sin(x[:, 1])], axis=1)

    def pressure(x):
        x = np.asarray(x)
        return np.cos(x[:, 0]) * np.sin(x[:, 1])

    def velocity_jacobian(x):
        x = np.asarray(x)
        cc = a * np.cos(x[:, 0]) * np.cos(x[:, 1])
        ss = a * np.sin(x[:, 0]) * np.sin(x[:, 1])
        return np.stack([np.stack([-cc, ss], axis=1), np.stack([-ss, cc], axis=1)], axis=1)

    def velocity_laplacian(x):
        return -2.0 * velocity(x)

    def pressure_gradient(x):
        x = np.asarray(x)
        return np.stack([-np.sin(x[:, 0]) * np.sin(x[:, 1]),
                         np.cos(x[:, 0]) * np.cos(x[:, 1])], axis=1)

    sol = ExactSolution(
        name="manufactured", domain=_annulus_domain(), data=None,
        velocity=velocity, pressure=pressure,
        velocity_jacobian=velocity_jacobian,
        velocity_laplacian=velocity_laplacian,
        pressure_gradient=pressure_gradient)
    return replace(sol, data=mms_generate(sol, nu=1.0, beta=(1.0, 1.0)))


# -- independent finite-difference oracles -----------------------------------

def _fd_first(fn, x, h):
    """Fourth-order centered first derivatives of fn: (m, ..., 2) output."""
    out = []
    for axis in range(2):
        e = np.zeros(2, dtype=x.dtype)
        e[axis] = h
        d = (fn(x - 2 * e) - 8 * fn(x - e) + 8 * fn(x + e) - fn(x + 2 * e)) / (12 * h)
        out.append(d)
    return np.stack(out, axis=-1)


def _fd_laplacian(fn, x, h):
    total = None
    for axis in range(2):
        e = np.zeros(2, dtype=x.dtype)
        e[axis] = h
        d2 = (-fn(x + 2 * e) + 16 * fn(x + e) - 30 * fn(x)
              + 16 * fn(x - e) - fn(x - 2 * e)) / (12 * h * h)
        total = d2 if total is None else total + d2
    return total


def _slip_frames(domain, component):
    """(t, points, normals, tangents) of a component at its SLIP_SAMPLES parameters."""
    t = (np.arange(SLIP_SAMPLES) + 0.31) / SLIP_SAMPLES
    return (t, *geometry.frames_at(domain, component, t)[:3])


def momentum_residual(sol, points):
    """Max norm of the momentum residual via extended-precision stencils."""
    h = np.longdouble(FD_STEP * sol.domain.diameter)
    x = np.asarray(points, np.longdouble)
    u = np.asarray(sol.velocity(x), np.longdouble)
    J = _fd_first(sol.velocity, x, h)                 # [m, 2, 2]
    lap = _fd_laplacian(sol.velocity, x, h)
    gp = _fd_first(sol.pressure, x, h)                # [m, 2]
    f = np.zeros_like(u)
    if sol.data.f is not None:
        f = np.asarray(sol.data.f(x), np.longdouble)
    resid = -sol.data.nu * lap + gp - f
    if sol.model == "navier-stokes":
        resid = resid + np.einsum("mab,mb->ma", J, u)
    return float(np.max(np.abs(resid.astype(float))))


def continuity_residual(sol, points):
    h = np.longdouble(FD_STEP * sol.domain.diameter)
    x = np.asarray(points, np.longdouble)
    J = _fd_first(sol.velocity, x, h)
    return float(np.max(np.abs((J[:, 0, 0] + J[:, 1, 1]).astype(float))))


def slip_residual(sol, component):
    """Max violation of the tangential stress balance on one component."""
    h = np.longdouble(SLIP_FD_STEP * sol.domain.diameter)
    t, pts, n, tau = _slip_frames(sol.domain, component)
    x = np.asarray(pts, np.longdouble)
    J = _fd_first(sol.velocity, x, h)
    S = J + np.swapaxes(J, 1, 2)
    u = np.asarray(sol.velocity(x), np.longdouble)
    beta = np.asarray(sol.data.beta[component](t, pts), float)
    b = np.asarray(sol.data.b_tau[component](t, pts), float)
    Sn = np.einsum("mab,mb->ma", S.astype(float), n)
    traction_tau = sol.data.nu * np.einsum("ma,ma->m", Sn, tau)
    u_tau = np.einsum("ma,ma->m", u.astype(float), tau)
    resid = traction_tau + beta * u_tau - b
    normal_gap = np.einsum("ma,ma->m", u.astype(float), n) - np.asarray(
        sol.data.a_star[component](t, pts), float)
    return float(np.max([np.max(np.abs(resid)), np.max(np.abs(normal_gap))]))


def certify(sol, points):
    """Run the full oracle battery at the given interior points and each
    component's slip samples; returns the observed maxima."""
    report = {
        "momentum": momentum_residual(sol, points),
        "continuity": continuity_residual(sol, points),
        "slip": float(np.max([slip_residual(sol, c) for c in range(sol.domain.n_components)])),
    }
    return report


# -- manufactured data --------------------------------------------------------

def mms_generate(sol, nu, beta):
    """Navier-Stokes slip-problem data (nu, beta) solved by sol's velocity and pressure.

    Reads sol's domain, velocity and closed-form derivatives, not its data.
    Raises DataError when the velocity is not divergence-free at the
    boundary points slip_residual reads.
    """
    domain, u_exact = sol.domain, sol.velocity
    jac, lap, pgrad = sol.velocity_jacobian, sol.velocity_laplacian, sol.pressure_gradient
    Jc = jac(np.vstack([_slip_frames(domain, c)[1] for c in range(domain.n_components)]))
    div = np.abs(Jc[:, 0, 0] + Jc[:, 1, 1])
    scale = max(1.0, float(np.max(np.abs(Jc))))
    if np.max(div) > 1e-8 * scale:
        raise DataError(f"manufactured velocity is not solenoidal (max div {np.max(div):.3e})")

    def f(points):
        x = np.asarray(points, float)
        u = np.asarray(u_exact(x), float)
        return -nu * lap(x) + pgrad(x) + np.einsum("mab,mb->ma", jac(x), u)

    beta_fns = [as_boundary_scalar(b) for b in beta]

    def make_a(comp):
        def a_fn(t, pts):
            _, n, _, _ = geometry.frames_at(domain, comp, t)
            u = np.asarray(u_exact(np.asarray(pts, float)), float)
            return np.einsum("ma,ma->m", u, n)
        return a_fn

    def make_b(comp):
        def b_fn(t, pts):
            _, n, tau, _ = geometry.frames_at(domain, comp, t)
            x = np.asarray(pts, float)
            J = jac(x)
            S = J + np.swapaxes(J, 1, 2)
            Sn = np.einsum("mab,mb->ma", S, n)
            u = np.asarray(u_exact(x), float)
            return (nu * np.einsum("ma,ma->m", Sn, tau)
                    + beta_fns[comp](t, x) * np.einsum("ma,ma->m", u, tau))
        return b_fn

    ncomp = domain.n_components
    return ProblemData(
        nu=nu, beta=tuple(beta),
        a_star=tuple(make_a(c) for c in range(ncomp)),
        b_tau=tuple(make_b(c) for c in range(ncomp)),
        f=f)


# -- convergence studies ------------------------------------------------------

@dataclass
class ConvergenceRow:
    level: int
    h: float
    eL2_u: float
    order_u: float
    eH1_u: float
    order_h1: float
    eL2_p: float
    order_p: float


@dataclass
class ConvergenceTable:
    rows: list

    def to_csv(self, path=None, header_lines=()):
        buf = io.StringIO()
        for line in header_lines:
            print(f"# {line}", file=buf)
        print("level,h,eL2_u,order,eH1_u,order,eL2_p,order", file=buf)
        for r in self.rows:
            print(f"{r.level},{r.h:.12g},{r.eL2_u:.12g},{r.order_u:.6g},"
                  f"{r.eH1_u:.12g},{r.order_h1:.6g},{r.eL2_p:.12g},{r.order_p:.6g}",
                  file=buf)
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def convergence_study(exact, solver, meshes):
    """Errors and observed orders of `solver` against an exact solution.

    solver: callable(mesh, ProblemData) -> FlowState.  meshes: a
    refinement sequence (at least 2 levels; 3+ for meaningful orders).
    """
    rows = []
    p_scale = None
    for level, mesh in enumerate(meshes):
        flow = solver(mesh, exact.data)
        h = mesh.max_diameter()
        e_u = norms.velocity_error_l2(mesh, flow.velocity, exact.velocity)
        e_h1 = norms.velocity_error_h1(mesh, flow.velocity, exact.velocity_jacobian)
        if p_scale is None:
            pts_ref = mesh.vertices
            p_scale = float(np.max(np.abs(exact.pressure(pts_ref))))
        relative_p = p_scale > 1e-12
        e_p = norms.pressure_error_l2(mesh, flow.pressure, exact.pressure,
                                      relative=relative_p)
        if rows:
            prev = rows[-1]
            ratio = np.log(prev.h / h) / LOG2

            def order(a, b):
                if not (a > 0 and b > 0 and np.isfinite(a) and np.isfinite(b)):
                    return float("nan")
                return float(np.log(a / b) / LOG2 / ratio)

            rows.append(ConvergenceRow(level, h, e_u, order(prev.eL2_u, e_u),
                                       e_h1, order(prev.eH1_u, e_h1),
                                       e_p, order(prev.eL2_p, e_p)))
        else:
            rows.append(ConvergenceRow(level, h, e_u, float("nan"),
                                       e_h1, float("nan"), e_p, float("nan")))
    return ConvergenceTable(rows=rows)
