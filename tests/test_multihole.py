"""Two-hole domains: harmonic basis dimension, audits, unstructured solves."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import slipflow as sf
from slipflow import analysis as an
from slipflow import assembly as asm
from slipflow import extensions as ext
from slipflow import linear_solvers as ls
from slipflow import navier_stokes as nvs
from slipflow import norms
from slipflow.geometry import Circle, DomainSpec


@pytest.fixture(scope="module")
def two_hole_domain():
    return DomainSpec([
        Circle((0.0, 0.0), 3.0),
        Circle((-1.2, 0.0), 0.6),
        Circle((1.3, 0.0), 0.5),
    ], labels=["outer", "left", "right"])


@pytest.fixture(scope="module")
def two_hole_mesh(two_hole_domain):
    return sf.mesh_disk_with_holes(two_hole_domain, 0.22)


class TestHarmonicBasisTwoHoles:
    def test_dimension_and_orthonormality(self, two_hole_mesh):
        hb = ext.harmonic_basis(two_hole_mesh)
        assert hb.dimension == 2
        gram = np.array([[hb.psi[i] @ (hb.mass @ hb.psi[j]) for j in range(2)]
                         for i in range(2)])
        assert np.allclose(gram, np.eye(2), atol=1e-8)
        # alpha is lower triangular by construction
        assert hb.alpha[0, 1] == 0.0

    def test_gradients_match_vector_mass_projection(self, two_hole_mesh):
        # each component is projected with the scalar mass; reference: one
        # solve with the interleaved vector mass
        hb = ext.harmonic_basis(two_hole_mesh)
        mass_lu = spla.splu(asm.assemble_vector_mass(two_hole_mesh).tocsc())
        ctx = asm.volume_context(two_hole_mesh)
        solve = ls.dirichlet_solver(two_hole_mesh)
        for k, grad in enumerate(hb.gradients, start=1):
            q = solve([float(j == k) for j in range(3)])
            gq = np.einsum("ti,tqix->tqx", q[ctx.nodes], ctx.grads)
            contrib = np.einsum("tq,qi,tqx->tix", ctx.dv, ctx.N, gq)
            b = np.zeros(2 * two_hole_mesh.n_p2_nodes)
            np.add.at(b, 2 * ctx.nodes, contrib[:, :, 0])
            np.add.at(b, 2 * ctx.nodes + 1, contrib[:, :, 1])
            ref = mass_lu.solve(b)
            assert np.linalg.norm(grad - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_harmonic_part_reproduces_fluxes(self, two_hole_mesh):
        hb = ext.harmonic_basis(two_hole_mesh)
        target = [1.7, -0.9]
        h = ext.harmonic_part(hb, target)
        for comp, expected in ((1, target[0]), (2, target[1])):
            flux = asm.boundary_flux(two_hole_mesh, h, comp)
            assert flux == pytest.approx(expected, rel=2e-2)  # O(h^2) accuracy
        # total flux through the outer boundary balances the holes
        outer = asm.boundary_flux(two_hole_mesh, h, 0)
        assert outer == pytest.approx(-sum(target), rel=2e-2)

    def test_linearity_in_flux_vector(self, two_hole_mesh):
        hb = ext.harmonic_basis(two_hole_mesh)
        h10 = ext.harmonic_part(hb, [1.0, 0.0])
        h01 = ext.harmonic_part(hb, [0.0, 1.0])
        h = ext.harmonic_part(hb, [2.0, -3.0])
        assert np.allclose(h, 2 * h10 - 3 * h01, atol=1e-12 * np.max(np.abs(h)))


class TestKornTwoHoles:
    WEIGHT = (2.0, 2.0, 2.0)

    def test_one_factorization_and_few_solves(self, two_hole_mesh, monkeypatch):
        factors, solves = [], []
        splu, solve = ls._splu, ls.BorderedSolver.solve
        monkeypatch.setattr(ls, "_splu", lambda m: factors.append(m.shape) or splu(m))

        def counted(self, *args, **kwargs):
            solves.append(args)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(ls.BorderedSolver, "solve", counted)
        ls.korn_constant(two_hole_mesh, self.WEIGHT)
        assert len(factors) == 1
        assert len(solves) <= 40

    def test_repeatable_bitwise(self, two_hole_mesh):
        a, b = (ls.korn_constant(two_hole_mesh, self.WEIGHT) for _ in range(2))
        assert a.lambda_min == b.lambda_min
        assert np.array_equal(a.mode, b.mode)


class TestAuditTwoHoles:
    def test_outflow_theorem_not_applicable(self, two_hole_domain, two_hole_mesh):
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0),
                               a_star=(0.0, 0.0, 0.0), b_tau=(0.0, 0.0, 0.0),
                               f=None)
        rep = an.audit(two_hole_domain, data, mesh=two_hole_mesh)
        assert rep.theorem_outflow_convex_hole["applicable"] is False
        assert rep.theorem_outflow_convex_hole["verdict"] is False

    def test_scalar_forms_assembled_once_per_audit(self, two_hole_domain, two_hole_mesh,
                                                   monkeypatch):
        # the harmonic basis takes its vector mass and mass factor from one
        # scalar mass; Korn and Sobolev each build one H1 Gram matrix
        calls = []
        for name in ("scalar_mass", "scalar_stiffness", "scalar_h1_gram"):
            def counted(mesh, original=getattr(asm, name), name=name):
                calls.append(name)
                return original(mesh)
            for module in (asm, ls):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0), a_star=(0.0, 0.5, -0.6),
                               b_tau=(0.0, 0.0, 0.0), f=None)
        rep = an.audit(two_hole_domain, data, mesh=two_hole_mesh)
        assert rep.theorem_small_flux["evaluable"]
        assert sorted(calls) == ["scalar_h1_gram", "scalar_h1_gram", "scalar_mass",
                                 "scalar_stiffness"]

    def test_audit_derives_patterns_once(self, two_hole_domain, two_hole_mesh,
                                         pattern_derivations):
        import copy
        mesh = copy.copy(two_hole_mesh)
        mesh.triangles = two_hole_mesh.triangles.copy()     # nothing derived yet
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0), a_star=(0.0, 0.5, -0.6),
                               b_tau=(0.0, 0.0, 0.0), f=None)
        assert an.audit(two_hole_domain, data, mesh=mesh).theorem_small_flux["evaluable"]
        assert sorted(pattern_derivations) == ["_slip_plan", "_sparsity"]

    def test_friction_margin_uses_all_components(self, two_hole_domain):
        # smallest hole has kappa = 2, outer has kappa = -1/3
        data = asm.ProblemData(nu=1.0, beta=(1.0, 0.0, 0.0),
                               a_star=(0.0, 0.0, 0.0), b_tau=(0.0, 0.0, 0.0),
                               f=None)
        rep = an.audit(two_hole_domain, data)
        margins = rep.theorem_friction_curvature["per_component_margin"]
        assert margins[0] == pytest.approx(1.0 - 2.0 / 3.0, abs=1e-10)
        assert margins[1] == pytest.approx(2.0 / 0.6, abs=1e-9)
        assert margins[2] == pytest.approx(2.0 / 0.5, abs=1e-9)
        assert rep.theorem_friction_curvature["verdict"] is True

    def test_admissible_on_axis_holes(self, two_hole_domain):
        from slipflow.geometry import classify_symmetry
        info = classify_symmetry(two_hole_domain)
        assert info.admissible_x1
        assert info.circularly_symmetric is None


class TestSolvesTwoHoles:
    def test_stokes_with_hole_to_hole_transfer(self, two_hole_mesh):
        # fluid enters through one hole and leaves through the other;
        # circumferences are 1.2 pi and pi, so balance the total flux
        a_left = 1.0
        a_right = -a_left * (1.2 * np.pi) / np.pi
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0),
                               a_star=(0.0, a_left, a_right),
                               b_tau=(0.0, 0.0, 0.0), f=None)
        flow = nvs.solve_stokes(two_hole_mesh, data)
        assert flow.metadata["linear_residual"] < 1e-10
        assert asm.boundary_flux(two_hole_mesh, flow.velocity, 1) == \
            pytest.approx(a_left * 1.2 * np.pi, rel=1e-3)
        assert asm.boundary_flux(two_hole_mesh, flow.velocity, 2) == \
            pytest.approx(a_right * np.pi, rel=1e-3)
        # energy balance with a_* != 0 has no simple closed form, but the
        # pressure stays zero-mean and the solve is symmetric in the data
        mean = asm.assemble_pressure_mean(two_hole_mesh)
        assert abs(mean @ flow.pressure) < 1e-10 * max(
            1e-30, np.linalg.norm(flow.pressure)) * mean.sum()

    def test_navier_stokes_converges(self, two_hole_mesh):
        a_left = 0.5
        a_right = -a_left * (1.2 * np.pi) / np.pi
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0),
                               a_star=(0.0, a_left, a_right),
                               b_tau=(0.0, 0.0, 0.0), f=None)
        flow, trace = nvs.solve_navier_stokes(two_hole_mesh, data,
                                              nvs.SolverConfig())
        assert flow.metadata["residual"] <= 1e-10

    def test_symmetric_solve_rejected_on_unstructured(self, two_hole_mesh):
        from slipflow.errors import MeshError
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0),
                               a_star=(0.0, 0.0, 0.0), b_tau=(0.0, 0.0, 0.0),
                               f=None)
        with pytest.raises(MeshError):
            nvs.solve_symmetric(two_hole_mesh, data)

    def test_stream_function_zero_flux_swirl(self, two_hole_mesh):
        # tangentially driven flow: no net flux anywhere, psi single-valued
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0, 1.0),
                               a_star=(0.0, 0.0, 0.0),
                               b_tau=(1.0, 0.5, -0.5), f=None)
        flow = nvs.solve_stokes(two_hole_mesh, data)
        psi = an.stream_function(flow)
        assert np.all(np.isfinite(psi))
        m = ls.scalar_integral_vector(two_hole_mesh)
        assert abs(m @ psi) < 1e-9 * max(np.max(np.abs(psi)), 1e-30) * m.sum()
