from dataclasses import replace

import numpy as np
import pytest

import slipflow as sf
from slipflow import linear_solvers as ls
from slipflow import navier_stokes as nvs
from slipflow import validation as val
from slipflow.errors import DataError


def interpolation_solver(exact):
    """A 'solver' that just interpolates the exact fields on the mesh."""
    def solve(mesh, data):
        coords = mesh.p2_coords()
        u = np.asarray(exact.velocity(coords), float).ravel()
        p = np.asarray(exact.pressure(mesh.vertices), float)
        return ls.FlowState(mesh=mesh, nu=data.nu, velocity=u, pressure=p,
                            metadata={"problem": "interpolation"})
    return solve


ALL_SOLUTIONS = [val.hamel(0.0), val.hamel(1.0), val.hamel(-2.0),
                 val.rigid_rotation(1.3), val.slip_couette(), val.manufactured()]


class TestOracles:
    @pytest.mark.parametrize("sol", ALL_SOLUTIONS, ids=lambda s: s.name)
    def test_momentum_residual(self, sol, annulus_points):
        assert val.momentum_residual(sol, annulus_points) <= 1e-6

    @pytest.mark.parametrize("sol", ALL_SOLUTIONS, ids=lambda s: s.name)
    def test_continuity_residual(self, sol, annulus_points):
        assert val.continuity_residual(sol, annulus_points) <= 1e-8

    @pytest.mark.parametrize("sol", ALL_SOLUTIONS, ids=lambda s: s.name)
    def test_slip_residual(self, sol):
        for comp in range(sol.domain.n_components):
            assert val.slip_residual(sol, comp) <= 1e-9

    def test_nan_slip_residual_propagates(self, annulus_points):
        # a normal datum that is NaN on the last component only: the NaN normal
        # gap must reach both the component's residual and certify's maximum
        sol = val.hamel(1.0)
        a_star = (sol.data.a_star[0], lambda t, x: np.full(len(t), np.nan))
        sol = replace(sol, data=replace(sol.data, a_star=a_star))
        assert np.isfinite(val.slip_residual(sol, 0))
        assert np.isnan(val.slip_residual(sol, 1))
        report = val.certify(sol, annulus_points)
        assert np.isnan(report["slip"])
        assert not report["slip"] <= 1e-9

    @pytest.mark.parametrize("sol", ALL_SOLUTIONS, ids=lambda s: s.name)
    def test_analytic_derivatives_match_stencils(self, sol, annulus_points):
        pts = annulus_points
        h = np.longdouble(1e-5 * sol.domain.diameter)
        xl = np.asarray(pts, np.longdouble)
        J_fd = val._fd_first(sol.velocity, xl, h).astype(float)
        assert np.allclose(J_fd, sol.velocity_jacobian(pts), atol=1e-9)
        L_fd = val._fd_laplacian(sol.velocity, xl, h).astype(float)
        assert np.allclose(L_fd, sol.velocity_laplacian(pts), atol=1e-7)
        G_fd = val._fd_first(sol.pressure, xl, h).astype(float)
        assert np.allclose(G_fd, sol.pressure_gradient(pts), atol=1e-8)


class TestHamelFamily:
    def test_printed_value_k1(self):
        sol = val.hamel(1.0)
        u = sol.velocity(np.array([[1.0, 0.0]]))[0]
        assert u == pytest.approx([-3.0, 1.0], abs=1e-14)

    def test_boundary_traces(self):
        sol = val.hamel(0.0)
        assert sol.velocity(np.array([[2.0, 0.0]]))[0] @ [1, 0] == pytest.approx(-1.5)
        assert sol.velocity(np.array([[1.0, 0.0]]))[0] @ [-1, 0] == pytest.approx(3.0)

    def test_data_is_k_independent(self):
        base = val.hamel(0.0).data
        t = np.linspace(0, 1, 17)
        for k in (1.0, -2.0):
            other = val.hamel(k).data
            assert other.nu == base.nu
            for comp in range(2):
                pts = val.hamel(k).domain.curves[comp].point(t)
                for attr in ("a_star", "b_tau", "beta"):
                    v1 = getattr(base, attr)[comp](t, pts)
                    v2 = getattr(other, attr)[comp](t, pts)
                    assert np.array_equal(v1, v2)

    def test_hole_circulation(self):
        sol = val.hamel(2.5)
        dom = sol.domain
        from slipflow import geometry
        t = np.linspace(0, 1, 257)[:-1]
        pts, _, tau, _ = geometry.frames_at(dom, 1, t)
        u = sol.velocity(pts)
        circ = np.einsum("ma,ma->m", u, tau).mean() * 2 * np.pi
        assert circ == pytest.approx(2 * np.pi * 2.5, rel=1e-10)

    def test_velocity_gap_formula(self):
        m = sf.mesh_annulus(1, 2, 16, 32)
        from slipflow import norms
        coords = m.p2_coords()
        du = (val.hamel(1.0).velocity(coords) - val.hamel(0.0).velocity(coords)).ravel()
        gap = norms.velocity_l2(m, du)
        assert gap == pytest.approx(val.hamel_velocity_gap(0, 1), rel=1e-3)

    def test_pressure_zero_mean(self, annulus_medium):
        from slipflow import norms
        for k in (0.0, 1.5):
            sol = val.hamel(k)
            pts, w = np.polynomial.legendre.leggauss(40)
            r = 1.5 + 0.5 * pts
            integrand = sol.pressure(np.column_stack([r, 0 * r])) * 2 * np.pi * r
            assert np.sum(w * integrand) * 0.5 == pytest.approx(0.0, abs=1e-10)


class TestRigidRotation:
    def test_tangential_on_circles(self):
        sol = val.rigid_rotation(1.0)
        from slipflow import geometry
        for comp in (0, 1):
            t = np.linspace(0, 1, 33)
            pts, n, _, _ = geometry.frames_at(sol.domain, comp, t)
            assert np.max(np.abs(np.einsum("ma,ma->m", sol.velocity(pts), n))) < 1e-14

    def test_zero_rotation_zero_solution(self):
        sol = val.rigid_rotation(0.0)
        pts = np.array([[1.5, 0.2]])
        assert np.all(sol.velocity(pts) == 0.0)

    def test_asymmetric_domain_rejected(self):
        from slipflow.geometry import Circle, DomainSpec
        dom = DomainSpec([Circle((0, 0), 2.0), Circle((0.5, 0.1), 0.4)])
        with pytest.raises(DataError):
            val.rigid_rotation(1.0, domain=dom)


def closed_form(velocity, jacobian):
    """An ExactSolution on the Hamel annulus with zero pressure and Laplacian
    (the fields below are linear), for mms_generate."""
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    return val.ExactSolution(
        name="closed_form", domain=val.hamel(0.0).domain, data=None,
        velocity=velocity, pressure=lambda x: np.zeros(len(np.asarray(x))),
        velocity_jacobian=jacobian, velocity_laplacian=zero, pressure_gradient=zero)


class TestMMS:
    def test_recovers_hamel_data(self, annulus_points):
        sol = val.hamel(1.0)
        data = val.mms_generate(sol, nu=1.0, beta=sol.data.beta)
        assert np.max(np.abs(data.f(annulus_points))) < 1e-9
        t = np.linspace(0, 1, 33)
        for comp in (0, 1):
            x = sol.domain.curves[comp].point(t)
            assert np.max(np.abs(data.b_tau[comp](t, x))) < 1e-9
            expected = -1.5 if comp == 0 else 3.0
            assert np.allclose(data.a_star[comp](t, x), expected, atol=1e-12)

    def test_rigid_rotation_with_friction(self, annulus_points):
        sol = val.rigid_rotation(1.0)
        data = val.mms_generate(sol, nu=1.0, beta=(1.0, 1.0))
        assert np.max(np.abs(data.f(annulus_points))) < 1e-9   # S(u) = 0, pressure balances
        from slipflow import geometry
        t = np.linspace(0, 1, 17)
        x, _, tau, _ = geometry.frames_at(sol.domain, 0, t)
        u_tau = np.einsum("ma,ma->m", sol.velocity(x), tau)
        assert np.allclose(data.b_tau[0](t, x), u_tau, atol=1e-10)

    def test_zero_fields(self):
        sol = closed_form(lambda x: np.zeros_like(np.asarray(x, float)),
                          lambda x: np.zeros((len(np.asarray(x)), 2, 2)))
        data = val.mms_generate(sol, nu=1.0, beta=(1.0, 1.0))
        pts = np.array([[1.5, 0.0]])
        assert np.all(data.f(pts) == 0.0)

    def test_non_solenoidal_rejected(self):
        # u = x, whose divergence is 2
        sol = closed_form(lambda x: np.asarray(x, float),
                          lambda x: np.broadcast_to(np.eye(2), (len(np.asarray(x)), 2, 2)))
        with pytest.raises(DataError):
            val.mms_generate(sol, nu=1.0, beta=(1.0, 1.0))

    def test_manufactured_field_is_the_validate_mms_field(self):
        # the rotated gradient of sin(x1) sin(x2) and the pressure cos(x1) sin(x2)
        sol = val.manufactured()
        x = np.array([[1.2, -0.7], [-0.4, 1.5]])
        a = val.MANUFACTURED_AMPLITUDE
        u = a * np.column_stack([-np.sin(x[:, 0]) * np.cos(x[:, 1]),
                                 np.cos(x[:, 0]) * np.sin(x[:, 1])])
        assert np.array_equal(sol.velocity(x), u)
        assert np.array_equal(sol.pressure(x), np.cos(x[:, 0]) * np.sin(x[:, 1]))
        assert (sol.data.nu, sol.model) == (1.0, "navier-stokes")


class TestConvergenceStudy:
    def test_couette_table_and_csv(self):
        exact = val.slip_couette()
        meshes = [sf.mesh_annulus(1, 2, n, 2 * n) for n in (8, 16)]
        table = val.convergence_study(
            exact, nvs.solve_stokes, meshes)
        csv = table.to_csv()
        header = csv.splitlines()[0]
        assert header == "level,h,eL2_u,order,eH1_u,order,eL2_p,order"
        assert len(table.rows) == 2
        assert table.rows[1].order_u > 2.5

    def test_interpolation_beats_solver(self):
        exact = val.slip_couette()
        meshes = [sf.mesh_annulus(1, 2, n, 2 * n) for n in (8, 16)]
        solve_table = val.convergence_study(
            exact, nvs.solve_stokes, meshes)
        interp_table = val.convergence_study(
            exact, interpolation_solver(exact), meshes)
        for rs, ri in zip(solve_table.rows, interp_table.rows):
            assert ri.eL2_u <= rs.eL2_u * 1.05
        assert interp_table.rows[1].order_u >= solve_table.rows[1].order_u - 0.3
