import json

import numpy as np
import pytest

import slipflow as sf
from slipflow import analysis as an
from slipflow import assembly as asm
from slipflow import navier_stokes as nvs
from slipflow import norms, validation as val
from slipflow.errors import DataError, MultivaluedStreamError, SolverError
from slipflow.linear_solvers import FlowState


def interpolated_flow(mesh, velocity, pressure=None, nu=1.0):
    coords = mesh.p2_coords()
    u = np.asarray(velocity(coords), float).ravel()
    p = np.zeros(mesh.n_vertices) if pressure is None else \
        np.asarray(pressure(mesh.vertices), float)
    return FlowState(mesh=mesh, nu=nu, velocity=u, pressure=p, metadata={})


class TestAudit:
    def test_hamel_golden_values(self, annulus_medium):
        sol = val.hamel(0.0)
        rep = an.audit(sol.domain, sol.data, mesh=annulus_medium)
        t1 = rep.theorem_friction_curvature
        assert t1["margin"] == pytest.approx(-0.25, abs=1e-12)
        assert t1["verdict"] is False
        fx = rep.fluxes
        assert fx["per_component"][0] == pytest.approx(-6 * np.pi, rel=1e-10)
        assert fx["per_component"][1] == pytest.approx(6 * np.pi, rel=1e-10)
        assert abs(fx["total"]) < 1e-10
        t2 = rep.theorem_outflow_convex_hole
        assert t2["outer_flux"] < 0 and t2["verdict"] is False
        assert t2["min_hole_curvature"] == pytest.approx(1.0, abs=1e-10)

    def test_friction_large_enough_passes(self, annulus_medium):
        data = asm.ProblemData(nu=1.0, beta=(1.25, 1.0), a_star=(-1.5, 3.0),
                               b_tau=(0.0, 0.0), f=None)
        rep = an.audit(annulus_medium.domain, data, mesh=annulus_medium)
        t1 = rep.theorem_friction_curvature
        assert t1["margin"] == pytest.approx(0.25, abs=1e-12)
        assert t1["verdict"] is True

    @pytest.mark.parametrize("beta", [(np.nan, 0.0), (0.0, np.nan)], ids=["outer", "hole"])
    def test_non_finite_friction_rejected(self, annulus_coarse, beta):
        # a NaN coefficient is neither a margin nor zero friction
        data = asm.ProblemData(nu=1.0, beta=beta, a_star=(-1.5, 3.0), b_tau=(0.0, 0.0), f=None)
        with pytest.raises(DataError, match="friction coefficient is not finite"):
            data.free_rotation_center(annulus_coarse.domain)
        with pytest.raises(DataError, match="friction coefficient is not finite"):
            an.audit(annulus_coarse.domain, data, mesh=annulus_coarse)

    def test_outflow_condition_passes_with_reversed_data(self, annulus_medium):
        data = asm.ProblemData(nu=1.0, beta=(0.75, 0.0), a_star=(1.5, -3.0),
                               b_tau=(0.0, 0.0), f=None)
        rep = an.audit(annulus_medium.domain, data, mesh=annulus_medium)
        assert rep.theorem_outflow_convex_hole["verdict"] is True

    def test_small_flux_branch_passes_for_tiny_fluxes(self, annulus_medium):
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0),
                               a_star=(-0.0005, 0.001), b_tau=(0.0, 0.0), f=None)
        rep = an.audit(annulus_medium.domain, data, mesh=annulus_medium)
        t4 = rep.theorem_small_flux
        assert t4["evaluable"] and t4["verdict"] is True
        assert "non-rigorous" in t4["rigor"]

    def test_small_flux_not_evaluable_without_friction_on_annulus(self, annulus_medium):
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        rep = an.audit(annulus_medium.domain, data, mesh=annulus_medium)
        assert rep.theorem_small_flux["evaluable"] is False
        assert rep.theorem_small_flux["verdict"] is False

    def test_verdicts_recomputable(self, annulus_medium):
        sol = val.hamel(0.0)
        rep = an.audit(sol.domain, sol.data, mesh=annulus_medium)
        recomputed = rep.recompute_verdicts()
        assert recomputed["theorem_friction_curvature"] == \
            rep.theorem_friction_curvature["verdict"]
        assert recomputed["theorem_outflow_convex_hole"] == \
            rep.theorem_outflow_convex_hole["verdict"]
        assert recomputed["theorem_symmetric"] == rep.theorem_symmetric["verdict"]
        assert recomputed["theorem_small_flux"] == rep.theorem_small_flux["verdict"]
        # report survives a JSON round trip
        again = json.loads(rep.to_json())
        assert again["theorem_friction_curvature"]["margin"] == \
            rep.theorem_friction_curvature["margin"]

    def test_margin_invariant_under_joint_scaling(self, annulus_medium):
        dom = annulus_medium.domain
        for s in (2.0, 4.0, 0.5):
            d1 = asm.ProblemData(nu=1.0, beta=(0.75, 0.0), a_star=(-1.5, 3.0),
                                 b_tau=(0.0, 0.0), f=None)
            d2 = asm.ProblemData(nu=s, beta=(0.75 * s, 0.0), a_star=(-1.5, 3.0),
                                 b_tau=(0.0, 0.0), f=None)
            m1 = an.audit(dom, d1).theorem_friction_curvature["margin"]
            m2 = an.audit(dom, d2).theorem_friction_curvature["margin"]
            assert m1 == m2  # exact: power-of-two scaling cancels bitwise


class TestLqNorm:
    @pytest.mark.parametrize("q", [4.0, 1000.0])
    def test_scales_exactly_by_a_power_of_two(self, annulus_coarse, q):
        # 2^1000 |u|^1000 overflows unless the norm scales before the power
        u = val.hamel(1.0).velocity(annulus_coarse.p2_coords()).ravel()
        base = norms.lq_norm(annulus_coarse, u, q)
        assert np.isfinite(base) and base > 0
        for k in (-400, -3, 5, 400):
            assert norms.lq_norm(annulus_coarse, np.ldexp(u, k), q) == np.ldexp(base, k)

    def test_zero_and_non_finite_fields(self, annulus_coarse):
        u = np.zeros(2 * annulus_coarse.n_p2_nodes)
        assert norms.lq_norm(annulus_coarse, u, 4.0) == 0.0
        u[7] = np.nan
        assert np.isnan(norms.lq_norm(annulus_coarse, u, 4.0))


class TestBernoulli:
    def test_rigid_rotation_analytic(self):
        b = 1.3
        sol = val.rigid_rotation(b)
        rep = an.bernoulli_audit(sol)
        assert rep.component_means[0] == pytest.approx(4 * b * b, abs=1e-10)
        assert rep.component_means[1] == pytest.approx(b * b, abs=1e-10)
        assert max(rep.component_deviations) < 1e-10

    def test_potential_flow_zero_head(self):
        # u = grad(-3 ln r), p = -|u|^2/2: head vanishes identically
        sol = val.hamel(0.0)

        class Fields:
            domain = sol.domain
            velocity = staticmethod(sol.velocity)

            @staticmethod
            def pressure(x):
                u = sol.velocity(x)
                return -0.5 * np.einsum("ma,ma->m", u, u)

        rep = an.bernoulli_audit(Fields())
        assert np.max(np.abs(rep.component_means)) < 1e-12
        assert max(rep.component_deviations) < 1e-12

    def test_hamel_solve_deviations_shrink(self, hamel_family):
        devs = []
        for rec in hamel_family["flows"][0.0][:2]:
            rep = an.bernoulli_audit(rec["flow"])
            devs.append(max(rep.component_deviations))
        assert devs[1] < devs[0] / 3.0

    def test_rotation_invariance(self):
        # rotating the whole configuration must not change the statistics
        from slipflow.geometry import Circle, DomainSpec
        base = DomainSpec([Circle((0, 0), 2.0), Circle((0.4, 0.1), 0.5)])
        # angle compatible with the 16-panel boundary sampling, so the
        # quadrature point sets of the two configurations coincide exactly
        ang = 2 * np.pi * 3 / 16
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = DomainSpec([Circle((0, 0), 2.0), Circle(R @ (0.4, 0.1), 0.5)])

        def u_base(x):
            return np.stack([-x[:, 1], x[:, 0]], axis=1) * 0.5

        def p_base(x):
            return 0.3 * (x[:, 0] ** 2 + x[:, 1] ** 2) + 0.1 * x[:, 0]

        class A:
            domain = base
            velocity = staticmethod(u_base)
            pressure = staticmethod(p_base)

        class B:
            domain = rotated

            @staticmethod
            def velocity(x):
                return u_base(np.asarray(x) @ R) @ R.T

            @staticmethod
            def pressure(x):
                return p_base(np.asarray(x) @ R)

        ra, rb = an.bernoulli_audit(A()), an.bernoulli_audit(B())
        assert np.allclose(ra.component_means, rb.component_means, atol=1e-10)
        assert np.allclose(ra.component_deviations, rb.component_deviations,
                           atol=1e-10)
        assert ra.consistency_value == pytest.approx(rb.consistency_value, abs=1e-10)


class TestStreamFunction:
    def test_rigid_rotation(self, annulus_medium):
        b = 0.8
        flow = interpolated_flow(annulus_medium,
                                 lambda x: b * np.stack([-x[:, 1], x[:, 0]], axis=1))
        psi = an.stream_function(flow)
        # paper convention grad(psi) = (-u2, u1) makes psi = -b r^2 / 2 + const
        exact = lambda x: -b * ((x[:, 0] ** 2 + x[:, 1] ** 2) / 2 - 5.0 / 4.0)
        assert norms.scalar_error_l2(annulus_medium, psi, exact) < 1e-3

    def test_zero_flow(self, annulus_coarse):
        flow = interpolated_flow(annulus_coarse, lambda x: np.zeros_like(x))
        psi = an.stream_function(flow)
        assert np.max(np.abs(psi)) < 1e-12

    def test_non_finite_velocity_fails_the_residual_gate(self, annulus_coarse):
        flow = interpolated_flow(annulus_coarse,
                                 lambda x: np.stack([-x[:, 1], x[:, 0]], axis=1))
        flow.velocity[7] = np.nan
        with pytest.raises(SolverError, match="Neumann solve residual"):
            an.stream_function(flow)

    def test_net_flux_rejected(self, hamel_family):
        flow = hamel_family["flows"][0.0][0]["flow"]
        with pytest.raises(MultivaluedStreamError):
            an.stream_function(flow)

    def test_gradient_recovery_second_order(self):
        # grad(psi) reproduces (-u2, u1) in L2 up to the best-approximation
        # error of the curved quadratic space, which is O(h^2)
        from slipflow import elements
        from slipflow.quadrature import triangle_rule
        b = 0.8
        errs = []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            flow = interpolated_flow(mesh,
                                     lambda x: b * np.stack([-x[:, 1], x[:, 0]], axis=1))
            psi = an.stream_function(flow)
            pts, w = triangle_rule(6)
            coords = mesh.triangle_coords()
            grads, det = elements.physical_gradients(coords, pts, elements.p2_grad(pts))
            dv = det * w[None, :]
            gp = np.einsum("ti,tqix->tqx", psi[mesh.triangle_nodes()], grads)
            u = np.einsum("qi,tix->tqx", elements.p2_shape(pts),
                          flow.velocity.reshape(-1, 2)[mesh.triangle_nodes()])
            target = np.stack([-u[..., 1], u[..., 0]], axis=-1)
            errs.append(float(np.sqrt(np.einsum("tq,tqx->", dv, (gp - target) ** 2))))
        assert errs[1] < errs[0] / 3.0


class TestHeadPressureIdentity:
    def test_hamel_solve_residual_decreases(self, hamel_family):
        sols = hamel_family["solutions"]
        res = []
        for rec in hamel_family["flows"][0.0][:2]:
            res.append(an.head_pressure_residual(rec["flow"], sols[0.0].data))
        assert res[1] < res[0] / 1.8   # at least first order

    def test_stokes_solution_fails_identity(self, hamel_family):
        # the identity encodes the full momentum balance: the Stokes field
        # with the same data leaves an O(1) defect that does NOT vanish
        # under refinement, unlike the converged nonlinear solve
        data = hamel_family["solutions"][0.0].data
        r_stokes, r_ns = [], []
        for k in (1, 2):
            mesh = hamel_family["meshes"][k]
            r_stokes.append(an.head_pressure_residual(nvs.solve_stokes(mesh, data), data))
            r_ns.append(an.head_pressure_residual(
                hamel_family["flows"][0.0][k]["flow"], data))
        assert r_stokes[1] > 0.9 * r_stokes[0]       # stagnates at O(1)
        assert r_ns[1] < 0.6 * r_ns[0]               # keeps converging
        assert r_stokes[1] > 3 * r_ns[1]

    def test_zero_flow_zero_residual(self, annulus_coarse):
        flow = interpolated_flow(annulus_coarse, lambda x: np.zeros_like(x))
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        assert an.head_pressure_residual(flow, data) < 1e-12


class TestWeingartenIdentity:
    def test_interpolated_smooth_field_first_order(self):
        sol = val.hamel(1.0)
        res = []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            flow = interpolated_flow(mesh, sol.velocity)
            res.append(an.weingarten_identity_check(flow))
        assert res[1] < res[0] / 2.0

    def test_zero_field(self, annulus_coarse):
        flow = interpolated_flow(annulus_coarse, lambda x: np.zeros_like(x))
        assert an.weingarten_identity_check(flow) == 0.0

    def test_normal_field_balance(self, annulus_medium):
        flow = interpolated_flow(
            annulus_medium,
            lambda x: x / (x[:, 0] ** 2 + x[:, 1] ** 2)[:, None])
        assert an.weingarten_identity_check(flow) < 1e-3


class TestDiagnosticsFields:
    def test_vorticity_of_rigid_rotation(self, annulus_medium):
        b = 0.5
        flow = interpolated_flow(annulus_medium,
                                 lambda x: b * np.stack([-x[:, 1], x[:, 0]], axis=1))
        om = an.vorticity(flow)
        # curl convention du1/dx2 - du2/dx1 gives -2b
        assert np.max(np.abs(om + 2 * b)) < 1e-8

    def test_total_head_of_rigid_pair(self, annulus_medium):
        b = 0.5
        flow = interpolated_flow(
            annulus_medium,
            lambda x: b * np.stack([-x[:, 1], x[:, 0]], axis=1),
            pressure=lambda x: 0.5 * b * b * (x[:, 0] ** 2 + x[:, 1] ** 2))
        phi = an.total_head(flow)
        coords = annulus_medium.p2_coords()
        exact = b * b * (coords[:, 0] ** 2 + coords[:, 1] ** 2)
        assert np.max(np.abs(phi - exact)) < 5e-3
