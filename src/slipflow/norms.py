"""Volume norms and errors of discrete fields on curved elements."""

import numpy as np

from . import elements
from .assembly import ERROR_DEGREE, volume_context


def domain_area(mesh):
    return float(volume_context(mesh).dv.sum())


def velocity_values(mesh, coeffs, pts):
    nodal = np.asarray(coeffs).reshape(-1, 2)[mesh.triangle_nodes()]
    return np.einsum("qi,tix->tqx", elements.p2_shape(pts), nodal)


def pressure_values(mesh, p_coeffs, pts):
    nodal = np.asarray(p_coeffs)[mesh.triangles]
    return np.einsum("qk,tk->tq", elements.p1_shape(pts), nodal)


def scalar_values(mesh, coeffs, pts):
    nodal = np.asarray(coeffs)[mesh.triangle_nodes()]
    return np.einsum("qi,ti->tq", elements.p2_shape(pts), nodal)


def velocity_l2(mesh, coeffs, degree=ERROR_DEGREE):
    ctx = volume_context(mesh, degree)
    u = velocity_values(mesh, coeffs, ctx.pts)
    return float(np.sqrt(np.einsum("tq,tqx,tqx->", ctx.dv, u, u)))


def velocity_error_l2(mesh, coeffs, exact_velocity, relative=True):
    ctx = volume_context(mesh, ERROR_DEGREE)
    dv, x = ctx.dv, elements.mapped_points(ctx.coords, ctx.pts)
    u = velocity_values(mesh, coeffs, ctx.pts)
    ue = np.asarray(exact_velocity(x.reshape(-1, 2))).reshape(x.shape)
    diff = u - ue
    err = np.sqrt(np.einsum("tq,tqx,tqx->", dv, diff, diff))
    if not relative:
        return float(err)
    ref = np.sqrt(np.einsum("tq,tqx,tqx->", dv, ue, ue))
    return float(err / ref)


def velocity_error_h1(mesh, coeffs, exact_jacobian, relative=True):
    """H1-seminorm error; exact_jacobian(points) -> [n, 2, 2] du_a/dx_b."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    dv, x = ctx.dv, elements.mapped_points(ctx.coords, ctx.pts)
    nodal = np.asarray(coeffs).reshape(-1, 2)[ctx.nodes]
    gu = np.einsum("tia,tqib->tqab", nodal, ctx.grads)
    ge = np.asarray(exact_jacobian(x.reshape(-1, 2))).reshape(gu.shape)
    diff = gu - ge
    err = np.sqrt(np.einsum("tq,tqab,tqab->", dv, diff, diff))
    if not relative:
        return float(err)
    ref = np.sqrt(np.einsum("tq,tqab,tqab->", dv, ge, ge))
    return float(err / ref)


def pressure_error_l2(mesh, p_coeffs, exact_pressure, relative=True):
    """L2 pressure error after aligning both fields to zero mean."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    dv, x = ctx.dv, elements.mapped_points(ctx.coords, ctx.pts)
    ph = pressure_values(mesh, p_coeffs, ctx.pts)
    pe = np.asarray(exact_pressure(x.reshape(-1, 2))).reshape(ph.shape)
    area = dv.sum()
    ph = ph - np.einsum("tq,tq->", dv, ph) / area
    pe = pe - np.einsum("tq,tq->", dv, pe) / area
    diff = ph - pe
    err = np.sqrt(np.einsum("tq,tq->", dv, diff * diff))
    if not relative:
        return float(err)
    ref = np.sqrt(np.einsum("tq,tq->", dv, pe * pe))
    return float(err / ref)


def scalar_error_l2(mesh, coeffs, exact, relative=True):
    ctx = volume_context(mesh, ERROR_DEGREE)
    dv, x = ctx.dv, elements.mapped_points(ctx.coords, ctx.pts)
    q = scalar_values(mesh, coeffs, ctx.pts)
    qe = np.asarray(exact(x.reshape(-1, 2))).reshape(q.shape)
    diff = q - qe
    err = np.sqrt(np.einsum("tq,tq->", dv, diff * diff))
    if not relative:
        return float(err)
    return float(err / np.sqrt(np.einsum("tq,tq->", dv, qe * qe)))


def lq_norm(mesh, coeffs, q, vector=True):
    """L^q norm of a velocity (vector=True) or scalar P2 field."""
    ctx = volume_context(mesh, ERROR_DEGREE)
    if vector:
        u = velocity_values(mesh, coeffs, ctx.pts)
        mag = np.sqrt(np.einsum("tqx,tqx->tq", u, u))
    else:
        mag = np.abs(scalar_values(mesh, coeffs, ctx.pts))
    return float(np.einsum("tq,tq->", ctx.dv, mag ** q) ** (1.0 / q))
