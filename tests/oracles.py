"""Test references that the package does not ship: finite-difference
residual oracles, one more exact solution, and norms and a flux that the
tests compare against.

The oracles deliberately ignore the closed-form derivatives of an exact
solution: they differentiate the velocity/pressure callables with
fourth-order centered stencils in extended precision, so a transcription
error in any formula cannot hide.  They read the interior points their
caller passes, and on the boundary the SLIP_SAMPLES parameters of each
component, where mms_generate also checks that the velocity is
divergence-free.
"""

import numpy as np

from slipflow import geometry, norms, validation
from slipflow.assembly import ERROR_DEGREE, ProblemData, boundary_quadrature, volume_context
from slipflow.errors import DataError

# finite-difference steps in domain diameters: of the interior oracles,
# and of slip_residual at its SLIP_SAMPLES boundary points
FD_STEP = 1e-5
SLIP_FD_STEP = 1e-6


# -- independent finite-difference oracles -----------------------------------

def fd_first(fn, x, h):
    """Fourth-order centered first derivatives of fn: (m, ..., 2) output."""
    out = []
    for axis in range(2):
        e = np.zeros(2, dtype=x.dtype)
        e[axis] = h
        d = (fn(x - 2 * e) - 8 * fn(x - e) + 8 * fn(x + e) - fn(x + 2 * e)) / (12 * h)
        out.append(d)
    return np.stack(out, axis=-1)


def fd_laplacian(fn, x, h):
    total = None
    for axis in range(2):
        e = np.zeros(2, dtype=x.dtype)
        e[axis] = h
        d2 = (-fn(x + 2 * e) + 16 * fn(x + e) - 30 * fn(x)
              + 16 * fn(x - e) - fn(x - 2 * e)) / (12 * h * h)
        total = d2 if total is None else total + d2
    return total


def momentum_residual(sol, points):
    """Max norm of the momentum residual via extended-precision stencils."""
    h = np.longdouble(FD_STEP * sol.domain.diameter)
    x = np.asarray(points, np.longdouble)
    u = np.asarray(sol.velocity(x), np.longdouble)
    J = fd_first(sol.velocity, x, h)                  # [m, 2, 2]
    lap = fd_laplacian(sol.velocity, x, h)
    gp = fd_first(sol.pressure, x, h)                 # [m, 2]
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
    J = fd_first(sol.velocity, x, h)
    return float(np.max(np.abs((J[:, 0, 0] + J[:, 1, 1]).astype(float))))


def slip_residual(sol, component):
    """Max violation of the tangential stress balance on one component."""
    h = np.longdouble(SLIP_FD_STEP * sol.domain.diameter)
    t, pts, n, tau = validation._slip_frames(sol.domain, component)
    x = np.asarray(pts, np.longdouble)
    J = fd_first(sol.velocity, x, h)
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
    return {
        "momentum": momentum_residual(sol, points),
        "continuity": continuity_residual(sol, points),
        "slip": float(np.max([slip_residual(sol, c) for c in range(sol.domain.n_components)])),
    }


# -- exact references ---------------------------------------------------------

def hamel_velocity_gap(k0, k1):
    """Closed-form L2 distance between two validation.hamel members' velocities."""
    dk = abs(k1 - k0)
    integral = 2.0 * np.pi * (9.0 * np.log(2.0) - 4.5)
    return dk * np.sqrt(integral)


def rigid_rotation(b, domain=None):
    """Rotation around the origin: a zero-data solution on symmetric domains,
    by default the annulus 1 < |x| < 2.

    The pressure |u|^2/2 is kept unshifted so the total head on a circle
    of radius rho around the center is exactly (b * rho)^2.
    """
    if domain is None:
        domain = validation.hamel(0.0).domain
    sym = geometry.classify_symmetry(domain)
    if sym.circularly_symmetric is None or \
            np.hypot(*sym.circularly_symmetric) > 1e-9 * domain.diameter:
        raise DataError("rigid rotation needs a circularly symmetric domain about its center")
    b = float(b)

    def velocity(x):
        x = np.asarray(x)
        return b * np.stack([-x[:, 1], x[:, 0]], axis=1)

    def pressure(x):
        x = np.asarray(x)
        return 0.5 * b * b * (x[:, 0] ** 2 + x[:, 1] ** 2)

    def velocity_jacobian(x):
        J = np.zeros((len(np.asarray(x)), 2, 2))
        J[:, 0, 1] = -b
        J[:, 1, 0] = b
        return J

    def velocity_laplacian(x):
        return np.zeros_like(np.asarray(x, float))

    def pressure_gradient(x):
        return b * b * np.asarray(x)

    ncomp = domain.n_components
    data = ProblemData(nu=1.0, beta=(0.0,) * ncomp, a_star=(0.0,) * ncomp,
                       b_tau=(0.0,) * ncomp, f=None)
    return validation.ExactSolution(
        name=f"rigid_rotation(b={b:g})", domain=domain, data=data,
        velocity=velocity, pressure=pressure,
        velocity_jacobian=velocity_jacobian,
        velocity_laplacian=velocity_laplacian,
        pressure_gradient=pressure_gradient)


# -- norms and a flux ---------------------------------------------------------

def velocity_l2(mesh, coeffs):
    ctx = volume_context(mesh, ERROR_DEGREE)
    return norms._l2(ctx, ctx.values(np.asarray(coeffs).reshape(-1, 2)))


def scalar_error_l2(mesh, coeffs, exact):
    """L2 error of a scalar P2 field against exact(points), relative to the exact norm."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    return norms._error(ctx, ctx.values(coeffs), exact, relative=True)


def boundary_flux(mesh, coeffs, component):
    """Contour integral of u . n over one component for a velocity field."""
    bq = boundary_quadrature(mesh)
    u_n = np.sum(bq.values(coeffs.reshape(-1, 2)) * bq.normal, axis=-1)
    return float(bq.component_integrals(u_n)[component])
