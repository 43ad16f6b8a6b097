"""Reference shape functions for the quadratic/linear triangle pair.

Local node numbering on the reference triangle (0,0)-(1,0)-(0,1):
vertices 0, 1, 2 followed by edge midnodes 3 (edge 0-1), 4 (edge 1-2),
5 (edge 2-0).  The same quadratic map doubles as the isoparametric
geometry map, so triangles with a snapped boundary midnode are curved.
"""

import numpy as np

# reference coordinates of the P2 nodes v0 v1 v2 m01 m12 m20
P2_REFERENCE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])


def p2_shape(pts):
    """Quadratic shape functions at reference points pts[n, 2] -> [n, 6]."""
    xi, eta = pts[:, 0], pts[:, 1]
    lam0 = 1.0 - xi - eta
    return np.column_stack([
        lam0 * (2.0 * lam0 - 1.0),
        xi * (2.0 * xi - 1.0),
        eta * (2.0 * eta - 1.0),
        4.0 * lam0 * xi,
        4.0 * xi * eta,
        4.0 * eta * lam0,
    ])


def p2_grad(pts):
    """Reference gradients of the quadratic basis, shape [n, 6, 2]."""
    xi, eta = pts[:, 0], pts[:, 1]
    lam0 = 1.0 - xi - eta
    g = np.empty((len(pts), 6, 2))
    g[:, 0, 0] = 1.0 - 4.0 * lam0
    g[:, 0, 1] = 1.0 - 4.0 * lam0
    g[:, 1, 0] = 4.0 * xi - 1.0
    g[:, 1, 1] = 0.0
    g[:, 2, 0] = 0.0
    g[:, 2, 1] = 4.0 * eta - 1.0
    g[:, 3, 0] = 4.0 * (lam0 - xi)
    g[:, 3, 1] = -4.0 * xi
    g[:, 4, 0] = 4.0 * eta
    g[:, 4, 1] = 4.0 * xi
    g[:, 5, 0] = -4.0 * eta
    g[:, 5, 1] = 4.0 * (lam0 - eta)
    return g


def p1_shape(pts):
    """Linear shape functions at reference points pts[n, 2] -> [n, 3]."""
    xi, eta = pts[:, 0], pts[:, 1]
    return np.column_stack([1.0 - xi - eta, xi, eta])


def edge_shape(s):
    """Quadratic shape functions on a 3-node edge at s in [0, 1] -> [n, 3].

    Node order: start vertex, end vertex, midnode.
    """
    s = np.asarray(s)
    return np.stack([
        (1.0 - s) * (1.0 - 2.0 * s),
        s * (2.0 * s - 1.0),
        4.0 * s * (1.0 - s),
    ], axis=-1)


def edge_shape_deriv(s):
    """d/ds of the 3-node edge shape functions -> [n, 3]."""
    s = np.asarray(s)
    return np.stack([
        4.0 * s - 3.0,
        4.0 * s - 1.0,
        4.0 - 8.0 * s,
    ], axis=-1)


def mapped_jacobians(coords, pts):
    """Jacobians of the quadratic map at reference points.

    Returns (J[ntri, nq, 2, 2], detJ[ntri, nq], Jinv[ntri, nq, 2, 2]).
    """
    dN = p2_grad(pts)
    nt, nq = len(coords), len(pts)
    # J[t, q, x, r] = sum_i coords[t, i, x] dN[q, i, r]: one [2 nt, 6] @ [6, 2 nq] product
    J = np.swapaxes(coords, 1, 2).reshape(-1, 6) @ np.swapaxes(dN, 0, 1).reshape(6, -1)
    J = J.reshape(nt, 2, nq, 2).transpose(0, 2, 1, 3)
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    Jinv = np.empty_like(J)
    Jinv[..., 0, 0] = J[..., 1, 1]
    Jinv[..., 0, 1] = -J[..., 0, 1]
    Jinv[..., 1, 0] = -J[..., 1, 0]
    Jinv[..., 1, 1] = J[..., 0, 0]
    Jinv /= det[..., None, None]
    return J, det, Jinv


def physical_gradients(coords, pts, basis_grad):
    """Physical-space gradients of a reference basis on mapped triangles.

    basis_grad: [nq, nb, 2] reference gradients.
    Returns (grads[ntri, nq, nb, 2], detJ[ntri, nq]); grads is a view of
    basis-major memory [ntri, nb, nq, 2], so np.swapaxes(grads, 1, 2) is
    C-contiguous.
    """
    _, det, Jinv = mapped_jacobians(coords, pts)
    grads = np.empty((len(coords), basis_grad.shape[1], len(pts), 2))
    np.matmul(basis_grad[None], Jinv, out=np.swapaxes(grads, 1, 2))
    return np.swapaxes(grads, 1, 2), det
