"""Volume norms and errors of discrete fields on curved elements."""

import numpy as np

from .assembly import ERROR_DEGREE, volume_context


def _l2(ctx, values):
    """L2 norm of values [nt, nq, ...] at the quadrature points of ctx."""
    return float(np.sqrt(ctx.integral(np.sum((values * values).reshape(*ctx.dv.shape, -1), -1))))


def _error(ctx, uh, exact, relative, zero_mean=False):
    """L2 error of values uh against exact(points) at the points of ctx, relative to
    the exact field's norm if relative; zero_mean aligns both to zero mean first."""
    ue = np.asarray(exact(ctx.points().reshape(-1, 2)), float).reshape(uh.shape)
    if zero_mean:
        uh, ue = (v - ctx.integral(v) / ctx.integral(1.0) for v in (uh, ue))
    err = _l2(ctx, uh - ue)
    return err / _l2(ctx, ue) if relative else err


def velocity_error_l2(mesh, coeffs, exact_velocity, relative=True):
    ctx = volume_context(mesh, ERROR_DEGREE)
    return _error(ctx, ctx.values(np.asarray(coeffs).reshape(-1, 2)), exact_velocity, relative)


def velocity_error_h1(mesh, coeffs, exact_jacobian, relative=True):
    """H1-seminorm error; exact_jacobian(points) -> [n, 2, 2] du_a/dx_b."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    return _error(ctx, ctx.gradient(np.asarray(coeffs).reshape(-1, 2)), exact_jacobian, relative)


def pressure_error_l2(mesh, p_coeffs, exact_pressure, relative=True):
    """L2 pressure error after aligning both fields to zero mean."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    return _error(ctx, ctx.values(p_coeffs), exact_pressure, relative, zero_mean=True)


def lq_norm(mesh, coeffs, q):
    """L^q norm of a velocity field.  Scaled exactly by powers of two: u by the
    one just above its largest component, so |u|^2 neither overflows nor
    underflows, then |u| by the one just above its maximum, so a large q
    cannot overflow."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    u = ctx.values(np.asarray(coeffs).reshape(-1, 2))
    e = int(np.frexp(np.max(np.abs(u)))[1])
    u = np.ldexp(u, -e)
    size = np.sqrt(np.sum(u * u, axis=-1))
    k = int(np.frexp(np.max(size))[1])
    return float(np.ldexp(ctx.integral(np.ldexp(size, -k) ** q) ** (1.0 / q), e + k))
