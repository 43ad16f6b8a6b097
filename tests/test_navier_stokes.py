from dataclasses import replace

import numpy as np
import pytest

import slipflow as sf
from slipflow import assembly as asm
from slipflow import linear_solvers as ls
from slipflow import navier_stokes as nvs
from slipflow import norms, validation as val
from slipflow.errors import DataError, MeshError


class TestHamelBranches:
    def test_pinned_k0(self, hamel_family):
        rec = hamel_family["flows"][0.0][0]
        flow = rec["flow"]
        sol = hamel_family["solutions"][0.0]
        mesh = hamel_family["meshes"][0]
        assert flow.metadata["residual"] <= 1e-10
        assert abs(flow.metadata["circulations"][1]) < 1e-8
        assert norms.velocity_error_l2(mesh, flow.velocity, sol.velocity) < 5e-3

    def test_pinned_k1(self, hamel_family):
        rec = hamel_family["flows"][1.0][0]
        flow = rec["flow"]
        sol = hamel_family["solutions"][1.0]
        mesh = hamel_family["meshes"][0]
        assert flow.metadata["residual"] <= 1e-10
        assert flow.metadata["circulations"][1] == pytest.approx(2 * np.pi, rel=1e-8)
        assert norms.velocity_error_l2(mesh, flow.velocity, sol.velocity) < 5e-3
        # velocity at the inner stagnation-free point matches the closed form
        coords = mesh.p2_coords()
        node = np.argmin(np.abs(coords - [1.0, 0.0]).sum(axis=1))
        assert flow.velocity.reshape(-1, 2)[node] == pytest.approx([-3.0, 1.0],
                                                                   abs=2e-2)

    def test_zero_data_trivial_solution(self, annulus_coarse):
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        flow, trace = nvs.solve_navier_stokes(annulus_coarse, data)
        assert np.max(np.abs(flow.velocity)) < 1e-12
        assert np.max(np.abs(flow.pressure)) < 1e-12

    def test_pin_is_linear_constraint(self, annulus_coarse):
        """On a uniquely solvable problem, pinning at the unpinned
        solution's circulation reproduces that solution."""
        data = val.slip_couette().data
        free_flow, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                               nvs.SolverConfig())
        dm = asm.DofMap(annulus_coarse)
        circ = float(asm.circulation_functional(annulus_coarse, dm, 1)
                     @ free_flow.velocity)
        pinned_flow, _ = nvs.solve_navier_stokes(
            annulus_coarse, data, nvs.SolverConfig(pins={1: circ}))
        gap = norms.velocity_l2(annulus_coarse,
                                pinned_flow.velocity - free_flow.velocity)
        scale = norms.velocity_l2(annulus_coarse, free_flow.velocity)
        assert gap < 1e-8 * scale

    def test_non_convergence_carries_trace(self, annulus_coarse):
        from slipflow.errors import NonConvergenceError
        data = val.hamel(0.0).data
        with pytest.raises(NonConvergenceError) as err:
            nvs.solve_navier_stokes(
                annulus_coarse, data,
                nvs.SolverConfig(mode="picard", max_iterations=2,
                                 tolerance=1e-14, pins={1: 0.0}))
        assert err.value.trace is not None
        assert len(err.value.trace.residuals) == 2

    def test_invalid_pin_component(self, annulus_coarse):
        data = val.hamel(0.0).data
        with pytest.raises(DataError):
            nvs.solve_navier_stokes(annulus_coarse, data,
                                    nvs.SolverConfig(pins={3: 0.0}))


class TestIterationMechanics:
    def test_picard_step_is_stokes_solve_on_modified_data(self, annulus_coarse):
        """One explicit-convection step equals the viscous solve with the
        convection load moved to the right-hand side."""
        mesh = annulus_coarse
        data = val.hamel(0.0).data
        ws = nvs._Workspace(mesh, data)
        u0, p0, _, _ = ws.solve_linear(ws.A_base)         # the Stokes lift
        C, conv = asm.assemble_convection(mesh, ws.dofmap, u0)
        u1, p1, _, _ = ws.solve_linear(ws.A_base, extra_rhs=-conv)
        # reference: a fresh saddle solve of the same viscous operator whose
        # right-hand side carries the frozen convection of the lift
        cs = ws.constrained_system(ws.A_base)
        solver, offsets = ls.build_saddle_solver(cs)
        u_ref, p_ref, _, _ = ls.solve_saddle_rhs(
            cs, solver, offsets,
            F_override=cs.F_f - ws.con.reduce_vector(conv))
        assert np.allclose(u1, u_ref, atol=1e-12 * max(1.0, np.max(np.abs(u_ref))))
        assert np.allclose(p1, p_ref, atol=1e-10 * max(1.0, np.max(np.abs(p_ref))))

    def test_energy_identity_with_explicit_convection(self, annulus_medium):
        # a_* = 0: viscous + friction energy equals work of b plus the
        # (discretely nonzero) convection triple product
        exact = val.slip_couette()
        flow, _ = nvs.solve_navier_stokes(annulus_medium, exact.data,
                                          nvs.SolverConfig())
        dm = asm.DofMap(annulus_medium)
        A = asm.assemble_viscous(annulus_medium, dm, exact.data.nu)
        Mf = asm.assemble_friction(annulus_medium, dm, exact.data.beta)
        u = flow.velocity
        _, conv = asm.assemble_convection(annulus_medium, dm, u)
        lhs = u @ (A @ u) + u @ (Mf @ u) + u @ conv
        F = asm.load_boundary_tangential(annulus_medium, dm, exact.data.b_tau)
        rhs = F @ u
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_convection_triple_product_is_small(self, annulus_medium):
        exact = val.slip_couette()
        flow, _ = nvs.solve_navier_stokes(annulus_medium, exact.data,
                                          nvs.SolverConfig())
        dm = asm.DofMap(annulus_medium)
        _, conv = asm.assemble_convection(annulus_medium, dm, flow.velocity)
        unorm = norms.velocity_l2(annulus_medium, flow.velocity)
        assert abs(flow.velocity @ conv) < 1e-3 * unorm ** 3

    def test_newton_only_mode(self, annulus_coarse):
        data = val.hamel(0.0).data
        flow, trace = nvs.solve_navier_stokes(
            annulus_coarse, data,
            nvs.SolverConfig(mode="newton", pins={1: 0.0}))
        assert flow.metadata["residual"] <= 1e-10
        assert all(p.startswith("newton") for p in trace.phases)

    def test_trace_records_every_iteration(self, hamel_family):
        trace = hamel_family["flows"][0.0][0]["trace"]
        n = len(trace.residuals)
        assert n >= 1
        assert len(trace.energies) == n == len(trace.dampings) == len(trace.phases)
        assert trace.residuals[-1] <= 1e-10


class TestOneFactorization:
    @pytest.fixture
    def factors(self, monkeypatch):
        """Counts SuperLU factorizations and the most that were alive at once."""
        real = ls.spla.splu
        count = {"calls": 0, "alive": 0, "peak": 0}

        class Tracked:
            def __init__(self, lu):
                self.lu = lu
                count["alive"] += 1
                count["peak"] = max(count["peak"], count["alive"])

            def solve(self, rhs):
                return self.lu.solve(rhs)

            def __del__(self):
                count["alive"] -= 1

        def splu(matrix, *args, **kwargs):
            count["calls"] += 1
            return Tracked(real(matrix, *args, **kwargs))

        monkeypatch.setattr(ls.spla, "splu", splu)
        return count

    def test_one_factorization_per_solve(self, annulus_coarse, factors):
        flow, trace = nvs.solve_navier_stokes(annulus_coarse, val.hamel(1.0).data,
                                              nvs.SolverConfig(pins={1: 2 * np.pi}))
        assert factors["calls"] == 1
        assert flow.metadata["factorizations"] == 1
        assert flow.metadata["residual"] <= 1e-10
        assert trace.linear == ["direct"] * 8 + ["krylov"] * 2
        assert trace.krylov_iterations[:8] == [0] * 8
        assert all(0 < k <= nvs.KRYLOV_CYCLE for k in trace.krylov_iterations[8:])
        assert all(r <= nvs.LINEAR_TOL for r in trace.linear_relres)

    def test_one_factorization_per_sweep(self, annulus_coarse, factors):
        sweep = nvs.continuation_sweep(annulus_coarse, val.hamel(1.0).data,
                                       (0.0, 0.25, 0.5, 0.75, 1.0),
                                       nvs.SolverConfig(pins={1: 2 * np.pi}))
        assert factors["calls"] == 1
        assert all(flow.metadata["residual"] <= 1e-10 for _, flow, _ in sweep)

    def test_krylov_newton_step_matches_direct_factorization(self, annulus_coarse):
        mesh = annulus_coarse
        ws = nvs._workspace(mesh, val.hamel(1.0).data, nvs.SolverConfig(pins={1: 2 * np.pi}))
        u, _, _, _, _ = nvs._stokes_lift(ws)
        C, _ = asm.assemble_convection(mesh, ws.dofmap, u)
        D = asm.assemble_convection_newton(mesh, ws.dofmap, u)
        A_op = ws.A_base + C + D
        u_k, p_k, m_k, step = ws.solve_linear(A_op, extra_rhs=D @ u)
        assert step.method == "krylov" and ws.factorizations == 1
        cs = ws.constrained_system(A_op)
        solver, offsets = ls.build_saddle_solver(cs, sparse_rows=ws.sparse_rows)
        u_d, p_d, m_d, _ = ls.solve_saddle_rhs(
            cs, solver, offsets, sparse_vals=ws.sparse_vals,
            F_override=cs.F_f + ws.con.reduce_vector(D @ u))
        assert np.linalg.norm(u_k - u_d) <= 1e-10 * np.linalg.norm(u_d)
        assert np.linalg.norm(p_k - p_d) <= 1e-10 * np.linalg.norm(p_d)
        # the multipliers are small against the solution; compare them in its scale
        x_k, x_d = np.concatenate([u_k, p_k, m_k]), np.concatenate([u_d, p_d, m_d])
        assert np.linalg.norm(x_k - x_d) <= 1e-10 * np.linalg.norm(x_d)

    def test_stall_rule_refactors_at_low_viscosity(self, factors):
        mesh = sf.mesh_annulus(1.0, 2.0, 10, 20)
        data = replace(val.hamel(1.0).data, nu=0.05)
        flow, trace = nvs.solve_navier_stokes(
            mesh, data, nvs.SolverConfig(mode="newton", pins={1: 2 * np.pi}))
        assert len(trace.residuals) == 3
        assert flow.metadata["residual"] <= 1e-10
        # the first cycle stalls; the factored Newton operator then
        # preconditions the later steps
        assert trace.linear == ["refactor", "krylov", "krylov"]
        assert trace.krylov_iterations[0] == nvs.KRYLOV_CYCLE
        assert factors["calls"] == flow.metadata["factorizations"] == 2
        assert factors["peak"] == 1

    def test_picard_divergence_still_reported(self):
        from slipflow.errors import NonConvergenceError
        mesh = sf.mesh_annulus(1.0, 2.0, 10, 20)
        data = replace(val.hamel(1.0).data, nu=0.3)
        with pytest.raises(NonConvergenceError, match="grew for 5 consecutive"):
            nvs.solve_navier_stokes(mesh, data, nvs.SolverConfig(pins={1: 2 * np.pi}))


class TestContinuation:
    def test_sweep_endpoints(self, annulus_coarse):
        data = val.hamel(0.0).data
        grid = (0.0, 0.5, 1.0)
        sweep = nvs.continuation_sweep(annulus_coarse, data, grid,
                                       nvs.SolverConfig(pins={1: 0.0}))
        lams = [s[0] for s in sweep]
        assert lams == list(grid)
        # lambda = 0 is the plain Stokes lift: w = 0 for the unpinned sweep
        sweep0 = nvs.continuation_sweep(annulus_coarse, data, (0.0,))
        assert sweep0[0][2] == pytest.approx(0.0, abs=1e-12)
        # lambda = 1 agrees with the direct solve
        direct, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                            nvs.SolverConfig(pins={1: 0.0}))
        gap = norms.velocity_l2(annulus_coarse, sweep[-1][1].velocity - direct.velocity)
        assert gap < 1e-8

    def test_pinned_branch_norm_curve_finite(self, annulus_coarse):
        data = val.hamel(1.0).data
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        sweep = nvs.continuation_sweep(annulus_coarse, data, grid,
                                       nvs.SolverConfig(pins={1: 2 * np.pi}))
        wnorms = [s[2] for s in sweep]
        assert all(np.isfinite(w) for w in wnorms)

    def test_decreasing_grid_rejected(self, annulus_coarse):
        data = val.hamel(0.0).data
        with pytest.raises(DataError):
            nvs.continuation_sweep(annulus_coarse, data, (0.5, 0.25))

    def test_symmetric_subspace_builds_mirror_rows(self, annulus_domain):
        # the mirror pairing needs a mirror-symmetric mesh; this one is not
        mesh = sf.mesh_disk_with_holes(annulus_domain, 0.3)
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        with pytest.raises(MeshError):
            nvs.continuation_sweep(mesh, data, (1.0,),
                                   nvs.SolverConfig(symmetric_subspace=True))

    def test_symmetric_subspace_rejects_nonzero_pin(self, annulus_coarse):
        config = nvs.SolverConfig(symmetric_subspace=True, pins={1: 1.0})
        with pytest.raises(DataError):
            nvs.continuation_sweep(annulus_coarse, val.hamel(0.0).data, (1.0,), config)

    def test_non_convergence_keeps_trace(self, annulus_coarse):
        from slipflow.errors import NonConvergenceError
        config = nvs.SolverConfig(mode="picard", max_iterations=2, tolerance=1e-14,
                                  pins={1: 0.0})
        with pytest.raises(NonConvergenceError) as err:
            nvs.continuation_sweep(annulus_coarse, val.hamel(0.0).data, (1.0,), config)
        assert "continuation failed at lambda=1" in str(err.value)
        assert len(err.value.trace.residuals) == 2


class TestSymmetricSolve:
    def test_matches_unrestricted_radial_solution(self, annulus_coarse):
        data = val.hamel(0.0).data  # radial data, symmetric
        sym_flow = nvs.solve_symmetric(annulus_coarse, data,
                                       nvs.SolverConfig(pins={1: 0.0}))
        free_flow, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                               nvs.SolverConfig(pins={1: 0.0}))
        gap = norms.velocity_l2(annulus_coarse,
                                sym_flow.velocity - free_flow.velocity)
        assert gap < 1e-7
        assert sym_flow.metadata["symmetry_defect"] < 1e-10

    def test_asymmetric_data_rejected(self, annulus_coarse):
        data = asm.ProblemData(
            nu=1.0, beta=(1.0, 1.0),
            a_star=(lambda t, x: -1.5 + 0.3 * np.sin(2 * np.pi * np.asarray(t)),
                    3.0),
            b_tau=(0.0, 0.0), f=None)
        with pytest.raises(DataError):
            nvs.solve_symmetric(annulus_coarse, data)

    def test_non_admissible_domain_rejected(self):
        from slipflow.geometry import Circle, DomainSpec
        dom = DomainSpec([Circle((0, 0), 2.0), Circle((0.3, 0.5), 0.4)])
        mesh = sf.mesh_disk_with_holes(dom, 0.25)
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        with pytest.raises(DataError):
            nvs.solve_symmetric(mesh, data)

    def test_non_mirror_mesh_rejected(self, annulus_domain):
        mesh = sf.mesh_disk_with_holes(annulus_domain, 0.3)
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        with pytest.raises(MeshError):
            nvs.solve_symmetric(mesh, data)

    def test_mirrored_data_reproduces_bitwise(self, annulus_coarse):
        """Symmetric data equals its mirror image; deterministic re-solve
        must reproduce the identical coefficient vectors."""
        data = val.hamel(0.0).data
        mirrored = asm.ProblemData(nu=data.nu, beta=data.beta,
                                   a_star=data.a_star, b_tau=data.b_tau, f=None)
        f1 = nvs.solve_symmetric(annulus_coarse, data,
                                 nvs.SolverConfig(pins={1: 0.0}))
        f2 = nvs.solve_symmetric(annulus_coarse, mirrored,
                                 nvs.SolverConfig(pins={1: 0.0}))
        assert np.array_equal(f1.velocity, f2.velocity)
        assert np.array_equal(f1.pressure, f2.pressure)

    def test_symmetric_solve_beta_zero_allowed(self, annulus_coarse):
        # mirror restriction removes the rotation mode, so zero friction is fine
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(-1.5, 3.0),
                               b_tau=(0.0, 0.0), f=None)
        flow = nvs.solve_symmetric(annulus_coarse, data,
                                   nvs.SolverConfig(pins={1: 0.0}))
        sol = val.hamel(0.0)
        assert norms.velocity_error_l2(annulus_coarse, flow.velocity,
                                       sol.velocity) < 5e-3
