"""Solenoidal extensions of the normal boundary datum and the harmonic
vector-field basis of a multiply-connected domain.

The basis fields are gradients of harmonic functions that equal 1 on one
hole boundary and 0 on the others, L2-projected by CG on the scalar mass
of each component (`l2_projection`); after L2 orthonormalization the
harmonic part of ANY solenoidal extension is a universal linear function
of the hole fluxes, which is the formula implemented here (the
projection route stays available as a cross-check).
"""

from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import DataError, SolverError
from .linear_solvers import dirichlet_solver, l2_projection, solve_laplace_neumann


@dataclass
class ExtensionField:
    """A divergence-free velocity field matching a normal boundary datum."""

    coefficients: np.ndarray
    fluxes: np.ndarray        # hole fluxes (components 1..N)


@dataclass
class HarmonicBasis:
    """Orthonormalized curl-free, divergence-free fields of the domain."""

    mesh: object
    gradients: np.ndarray     # [N, n_velocity] the raw gradient fields
    psi: np.ndarray           # [N, n_velocity] L2-orthonormal basis
    alpha: np.ndarray         # [N, N] lower-triangular mixing matrix
    mass: object              # vector mass matrix (for projections)

    @property
    def dimension(self):
        return len(self.gradients)

    def project(self, velocity_coeffs):
        """L2 projection of a velocity field onto the basis span."""
        if self.dimension == 0:
            return np.zeros_like(velocity_coeffs)
        Mv = self.mass @ velocity_coeffs
        coeffs = self.psi @ Mv
        return self.psi.T @ coeffs


def solenoidal_extension(mesh, a_star):
    """Gradient-of-harmonic extension with normal trace a_star."""
    q = solve_laplace_neumann(mesh, a_star)
    coeffs = l2_projection(mesh, assembly.volume_context(mesh).gradient(q)).ravel()
    fluxes = assembly.component_fluxes(mesh.domain, a_star)[0][1:]
    return ExtensionField(coefficients=coeffs, fluxes=fluxes)


def harmonic_basis(mesh):
    """Dirichlet solves plus L2 Gram-Schmidt; empty basis when there are no holes."""
    N = mesh.domain.n_holes
    scalar_mass = assembly.scalar_mass(mesh)
    mass = assembly.componentwise(mesh, scalar_mass)
    if N == 0:
        return HarmonicBasis(mesh=mesh, gradients=np.zeros((0, 2 * mesh.n_p2_nodes)),
                             psi=np.zeros((0, 2 * mesh.n_p2_nodes)),
                             alpha=np.zeros((0, 0)), mass=mass)
    ctx = assembly.volume_context(mesh)
    solve = dirichlet_solver(mesh)
    grads = []
    for k in range(1, N + 1):
        qk = solve([1.0 if j == k else 0.0 for j in range(mesh.domain.n_components)])
        grads.append(l2_projection(mesh, ctx.gradient(qk), scalar_mass).ravel())
    G = np.array([[gi @ (mass @ gj) for gj in grads] for gi in grads])
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"harmonic basis Gram matrix is numerically singular: {exc}") from exc
    diag = np.diag(L)
    if diag.min() < 1e-10 * diag.max():
        raise SolverError("harmonic basis Gram matrix is numerically rank-deficient")
    alpha = np.linalg.inv(L)          # lower-triangular: psi_i = sum_k alpha[i,k] grad_k
    gradients = np.asarray(grads)
    psi = alpha @ gradients
    return HarmonicBasis(mesh=mesh, gradients=gradients, psi=psi, alpha=alpha, mass=mass)


def harmonic_part(basis, fluxes):
    """Harmonic component determined by the hole fluxes alone.

    Implements h = sum_k grad_k * sum_i alpha[i,k] * sum_j alpha[i,j] F_j.
    """
    fluxes = np.asarray(fluxes, float)
    if len(fluxes) != basis.dimension:
        raise DataError(
            f"expected {basis.dimension} hole fluxes, got {len(fluxes)}")
    if basis.dimension == 0:
        return np.zeros(basis.gradients.shape[1] if basis.gradients.size else 0)
    weights = basis.alpha.T @ (basis.alpha @ fluxes)
    return basis.gradients.T @ weights
