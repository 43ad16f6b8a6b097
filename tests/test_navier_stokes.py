from dataclasses import replace

import numpy as np
import pytest

import slipflow as sf
from slipflow import assembly as asm
from slipflow import linear_solvers as ls
from slipflow import navier_stokes as nvs
from slipflow import norms, validation as val
from slipflow.errors import DataError, MeshError

import oracles


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
        circ = float(asm.circulation_functional(annulus_coarse, 1)
                     @ free_flow.velocity)
        pinned_flow, _ = nvs.solve_navier_stokes(
            annulus_coarse, data, nvs.SolverConfig(pins={1: circ}))
        gap = oracles.velocity_l2(annulus_coarse,
                                  pinned_flow.velocity - free_flow.velocity)
        scale = oracles.velocity_l2(annulus_coarse, free_flow.velocity)
        assert gap < 1e-8 * scale

    def test_non_convergence_carries_trace(self, annulus_coarse):
        from slipflow.errors import NonConvergenceError
        data = val.hamel(0.0).data
        with pytest.raises(NonConvergenceError) as err:
            nvs.solve_navier_stokes(
                annulus_coarse, data,
                nvs.SolverConfig(max_iterations=2, tolerance=1e-14, pins={1: 0.0}))
        assert err.value.trace is not None
        assert len(err.value.trace.residuals) == 2
        assert err.value.trace.linear == ["direct", "direct"]
        assert err.value.trace.stops == [
            {"lambda": 1.0, "reason": "max_iterations", "newton_from": None}]

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
        x0, _ = ws.solve_linear(ws.A_base)                # the Stokes lift
        C, conv = asm.assemble_convection(mesh, ws.rows.split(x0)[0])
        x1, _ = ws.solve_linear(ws.A_base, extra_rhs=-conv)
        u1, p1 = ws.rows.split(x1)
        # reference: a fresh saddle solve of the same viscous operator whose
        # right-hand side carries the frozen convection of the lift
        solver = ls.build_saddle_solver(ws.rows, ws.A_ff)
        x_ref, _ = ls.solve_saddle_rhs(ws.rows, solver,
                                       ws.F_f - ws.rows.con.reduce_vector(conv))
        u_ref, p_ref = ws.rows.split(x_ref)
        assert np.allclose(u1, u_ref, atol=1e-12 * max(1.0, np.max(np.abs(u_ref))))
        assert np.allclose(p1, p_ref, atol=1e-10 * max(1.0, np.max(np.abs(p_ref))))

    def test_energy_identity_with_explicit_convection(self, annulus_medium):
        # a_* = 0: viscous + friction energy equals work of b plus the
        # (discretely nonzero) convection triple product
        exact = val.slip_couette()
        flow, _ = nvs.solve_navier_stokes(annulus_medium, exact.data,
                                          nvs.SolverConfig())
        A = asm.assemble_viscous(annulus_medium, exact.data.nu)
        Mf = asm.assemble_friction(annulus_medium, exact.data.beta)
        u = flow.velocity
        _, conv = asm.assemble_convection(annulus_medium, u)
        lhs = u @ (A @ u) + u @ (Mf @ u) + u @ conv
        F = asm.load_boundary_tangential(annulus_medium, exact.data.b_tau)
        rhs = F @ u
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_convection_triple_product_is_small(self, annulus_medium):
        exact = val.slip_couette()
        flow, _ = nvs.solve_navier_stokes(annulus_medium, exact.data,
                                          nvs.SolverConfig())
        _, conv = asm.assemble_convection(annulus_medium, flow.velocity)
        unorm = oracles.velocity_l2(annulus_medium, flow.velocity)
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
        # every accelerated Picard step back-solves with the one factor
        assert trace.linear == ["direct"] * 12
        assert trace.krylov_iterations == [0] * 12
        assert all(r <= nvs.LINEAR_TOL for r in trace.linear_relres)

    def test_one_factorization_per_sweep(self, annulus_coarse, factors):
        sweep = nvs.continuation_sweep(annulus_coarse, val.hamel(1.0).data,
                                       (0.0, 0.25, 0.5, 0.75, 1.0),
                                       nvs.SolverConfig(pins={1: 2 * np.pi}))
        assert factors["calls"] == 1
        assert all(flow.metadata["residual"] <= 1e-10 for _, flow, _ in sweep)

    def test_krylov_newton_step_matches_direct_factorization(self, annulus_coarse):
        mesh = annulus_coarse
        ws = nvs._Workspace(mesh, val.hamel(1.0).data, nvs.SolverConfig(pins={1: 2 * np.pi}))
        x, _, _ = nvs._stokes_lift(ws)
        u, _ = ws.rows.split(x)
        C, _ = asm.assemble_convection(mesh, u)
        D = asm.assemble_convection_newton(mesh, u)
        A_op = ws.A_base + C + D
        x_k, step = ws.solve_linear(A_op, extra_rhs=D @ u)
        assert step.method == "krylov" and ws.factorizations == 1
        A_ff, F_f = ws.rows.reduce(A_op, ws.F)
        solver = ls.build_saddle_solver(ws.rows, A_ff)
        x_d, _ = ls.solve_saddle_rhs(ws.rows, solver, F_f + ws.rows.con.reduce_vector(D @ u))
        (u_k, p_k), (u_d, p_d) = ws.rows.split(x_k), ws.rows.split(x_d)
        assert np.linalg.norm(u_k - u_d) <= 1e-10 * np.linalg.norm(u_d)
        assert np.linalg.norm(p_k - p_d) <= 1e-10 * np.linalg.norm(p_d)
        # the multipliers are small against the solution; compare them in its scale
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

    def test_one_factorization_per_symmetric_solve(self, annulus_coarse, factors):
        flow, _ = nvs.solve_navier_stokes(annulus_coarse, val.hamel(0.0).data,
                                          nvs.SolverConfig(pins={1: 0.0}, symmetric_subspace=True))
        assert flow.metadata["symmetry_defect"] <= 1e-10
        assert factors["calls"] == flow.metadata["factorizations"] == 1

    def test_one_mirror_pairing_per_symmetric_solve(self, monkeypatch):
        import os
        from slipflow import cli
        cfg = cli.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                           "symmetric_domain.json"))
        _, data, mesh = cli._problem(cfg)
        lookups = []

        def counted(mesh, original=nvs._mirror_lookup):
            lookups.append(mesh)
            return original(mesh)
        monkeypatch.setattr(nvs, "_mirror_lookup", counted)
        flow, _ = nvs.solve_navier_stokes(mesh, data, cli.build_solver_config(cfg))
        assert len(lookups) == 1
        # the defect of the kept pairing is that of a fresh one
        defect = flow.metadata["symmetry_defect"]
        assert defect == nvs._symmetry_defect(nvs._mirror_lookup(mesh), flow.velocity)
        assert defect <= 1e-10

    @pytest.mark.parametrize("mode, steps, newton_from",
                             [("picard-then-newton", 26, 22), ("newton", 8, 0)])
    def test_roundoff_floor_stops_as_stalled(self, annulus_coarse, mode, steps, newton_from):
        # a tolerance below the attainable residual: the iteration stops 5
        # steps after its lowest residual, not when max_iterations is spent
        from slipflow.errors import NonConvergenceError
        config = nvs.SolverConfig(mode=mode, pins={1: 2 * np.pi}, tolerance=1e-15,
                                  max_iterations=60)
        with pytest.raises(NonConvergenceError, match="stalled") as err:
            nvs.solve_navier_stokes(annulus_coarse, val.hamel(1.0).data, config)
        trace = err.value.trace
        assert len(trace.residuals) == steps
        assert trace.stops == [{"lambda": 1.0, "reason": "stalled", "newton_from": newton_from}]
        lowest = int(np.argmin(trace.residuals))
        assert lowest == steps - 1 - nvs.STALL_STEPS
        assert trace.residuals[lowest] < 1e-13

    def test_non_finite_residual_stops_as_stalled(self, annulus_coarse, monkeypatch):
        # a NaN residual is never a new lowest, so it ends the iteration too
        from slipflow.errors import NonConvergenceError
        real = nvs._Workspace.residual
        calls = []
        monkeypatch.setattr(nvs._Workspace, "residual", lambda ws, *args:
                            real(ws, *args) * (np.nan if calls.append(1) or len(calls) > 2 else 1))
        config = nvs.SolverConfig(pins={1: 2 * np.pi}, max_iterations=60)
        with pytest.raises(NonConvergenceError, match="stalled") as err:
            nvs.solve_navier_stokes(annulus_coarse, val.hamel(1.0).data, config)
        trace = err.value.trace
        assert np.isnan(trace.residuals[-1])
        assert len(trace.residuals) == 1 + nvs.STALL_STEPS
        assert trace.stops[0]["reason"] == "stalled"

    def test_accelerated_picard_needs_no_newton(self, annulus_coarse, factors, monkeypatch):
        # the default mode converges on the held factor alone: no Newton
        # matrix is assembled and no GMRES cycle runs
        assembled = []
        for name in ("assemble_convection", "assemble_convection_newton"):
            real = getattr(asm, name)
            monkeypatch.setattr(asm, name, lambda *args, name=name, real=real:
                                assembled.append(name) or real(*args))
        data, pins = val.hamel(1.0).data, {1: 2 * np.pi}
        flow, trace = nvs.solve_navier_stokes(annulus_coarse, data, nvs.SolverConfig(pins=pins))
        assert assembled == []
        assert flow.metadata["residual"] <= 1e-10
        assert factors["calls"] == flow.metadata["factorizations"] == 1
        assert set(trace.phases) == {"anderson@1"} and set(trace.linear) == {"direct"}
        assert trace.stops == [{"lambda": 1.0, "reason": "converged", "newton_from": None}]
        newton, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                            nvs.SolverConfig(mode="newton", pins=pins))
        assert np.linalg.norm(flow.velocity - newton.velocity) \
            <= 1e-8 * np.linalg.norm(newton.velocity)

    @pytest.mark.parametrize("limit", [1, 3])
    def test_max_iterations_bounds_accelerated_and_newton_steps(self, limit):
        # the benchmark's seed-0 Hamel data at nu = 0.5 on 8 x 16: 2 accelerated
        # steps, the second of which stalls, then 2 Newton steps
        from slipflow.errors import NonConvergenceError
        mesh = sf.mesh_annulus(1.0, 2.0, 8, 16)
        data = asm.ProblemData(nu=0.5, beta=(0.75, 0.0), a_star=(-1.5, 3.0),
                               b_tau=(0.0, 0.0), f=None)
        config = nvs.SolverConfig(pins={1: -2 * np.pi}, max_iterations=limit)
        with pytest.raises(NonConvergenceError, match=f"within {limit} iterations") as err:
            nvs.solve_navier_stokes(mesh, data, config)
        trace = err.value.trace
        assert trace.phases == (["anderson@1"] * 2 + ["newton@1"])[:limit]
        assert trace.stops == [{"lambda": 1.0, "reason": "max_iterations",
                                "newton_from": 2 if limit > 2 else None}]
        flow, _ = nvs.solve_navier_stokes(mesh, data, replace(config, max_iterations=4))
        assert flow.metadata["iterations"] == 4

    def test_anderson_update_solves_a_linear_map(self):
        # on an affine map of R^3 Anderson mixing of depth 3 is GMRES: the
        # fixed point after at most 4 updates; the first update is the image
        rng = np.random.default_rng(0)
        M, b = 0.4 * rng.standard_normal((3, 3)), rng.standard_normal(3)
        fixed = np.linalg.solve(np.eye(3) - M, b)
        history, x = [], np.zeros(3)
        for k in range(4):
            g = M @ x + b
            x_next = nvs._anderson_update(history, g, g - x)
            assert k > 0 or x_next is g
            x = x_next
        assert len(history) == nvs.ANDERSON_DEPTH + 1
        assert np.linalg.norm(x - fixed) <= 1e-12 * np.linalg.norm(fixed)

    @pytest.mark.parametrize("case", ["benchmark-nu0.5", "hamel-k1-nu0.3"])
    def test_stalled_picard_hands_over_to_newton(self, case):
        # the accelerated Picard map stalls here: its second step raises the
        # residual, and Newton converges from there
        if case == "benchmark-nu0.5":      # the benchmark's seed-0 Hamel problem
            mesh = sf.mesh_annulus(1.0, 2.0, 8, 16)
            data = asm.ProblemData(nu=0.5, beta=(0.75, 0.0), a_star=(-1.5, 3.0),
                                   b_tau=(0.0, 0.0), f=None)
            pins = {1: -2 * np.pi}
        else:
            mesh = sf.mesh_annulus(1.0, 2.0, 10, 20)
            data = replace(val.hamel(1.0).data, nu=0.3)
            pins = {1: 2 * np.pi}
        flow, trace = nvs.solve_navier_stokes(mesh, data, nvs.SolverConfig(pins=pins))
        assert flow.metadata["residual"] <= 1e-10
        assert trace.phases == ["anderson@1"] * 2 + ["newton@1"] * 2
        assert trace.stops == [{"lambda": 1.0, "reason": "converged", "newton_from": 2}]
        assert trace.residuals[1] > trace.residuals[0]
        assert trace.dampings[2] == 1.0        # Newton starts from a full step
        newton, _ = nvs.solve_navier_stokes(mesh, data,
                                            nvs.SolverConfig(mode="newton", pins=pins))
        assert np.linalg.norm(flow.velocity - newton.velocity) \
            <= 1e-8 * np.linalg.norm(newton.velocity)


def _loop_mirror_rows(mesh):
    """Reference per-node construction of the dense mirror rows:
    (velocity rows, pressure rows)."""
    coords, mirror = mesh.p2_coords(), nvs._mirror_lookup(mesh)
    tol = 1e-9 * mesh.domain.diameter
    n_vel = 2 * len(coords)
    rows = []
    for m, (x, y) in enumerate(coords):
        if y < -tol:
            continue
        s = int(mirror[m])
        on_axis = abs(y) <= tol
        if mesh.node_is_boundary[m]:
            if on_axis or s != m:
                row = np.zeros(n_vel)
                row[2 * m:2 * m + 2] = mesh.node_tangent[m]
                if not on_axis:
                    row[2 * s:2 * s + 2] = mesh.node_tangent[s]
                rows.append(row)
        elif on_axis:
            row = np.zeros(n_vel)
            row[2 * m + 1] = 1.0
            rows.append(row)
        elif s != m:
            r1, r2 = np.zeros(n_vel), np.zeros(n_vel)
            r1[2 * s], r1[2 * m] = 1.0, -1.0
            r2[2 * s + 1], r2[2 * m + 1] = 1.0, 1.0
            rows.extend([r1, r2])
    nv = mesh.n_vertices
    prows = []
    for m in range(nv):
        s = int(mirror[m])
        if coords[m, 1] > tol and s != m:
            row = np.zeros(nv)
            row[s], row[m] = 1.0, -1.0
            prows.append(row)
    return np.array(rows), np.array(prows)


def _cartesian_residual(ws, cart_rows, x, lam, unpinned=False):
    """Reference residual: Cartesian momentum rotated afterwards, every
    extra row applied one at a time, multipliers ordered velocity rows,
    pressure mean, dense rows; on a subspace the momentum and continuity
    parts are projected onto the workspace's bases.  unpinned: only the
    momentum and continuity parts, without the forces of the extra rows."""
    velocity, vals, dense = cart_rows
    con, nf, npres = ws.rows.con, ws.rows.nf, ws.rows.npres
    u, p = ws.rows.split(x)
    mults = iter(x[nf + npres:])
    conv = asm.convection_vector(ws.mesh, u)
    B = asm.assemble_divergence(ws.mesh)
    r_m = (con.Q @ (ws.F - ws.A_base @ u - lam * conv - B.T @ p))[con.free]
    r_c = -(B @ u)
    keep = 0.0 if unpinned else 1.0
    for row in velocity:
        r_m -= keep * next(mults) * (con.Q @ row)[con.free]
    r_c -= next(mults) * ws.mean
    for row in dense:
        r_m -= keep * next(mults) * (con.Q @ row)[con.free]
    if ws.Z_v is not None:
        r_m, r_c = ws.Z_v.T @ r_m, ws.Z_p.T @ r_c
    if unpinned:
        return np.concatenate([r_m, r_c])
    r_rows = [val - row @ u for row, val in zip(velocity, vals)] + [-(ws.mean @ p)]
    r_rows += [-(row @ u) for row in dense]
    return np.concatenate([r_m, r_c, r_rows])


class TestSaddleLayout:
    def test_mirror_blocks_equal_the_per_node_rows(self, annulus_coarse):
        # the mirror bases span exactly the null space of the per-node rows:
        # each row vanishes on every basis column, and the columns number
        # the unknowns less the rank of the rows
        ref_v, ref_p = _loop_mirror_rows(annulus_coarse)
        ws = nvs._Workspace(annulus_coarse, val.hamel(0.0).data,
                            nvs.SolverConfig(symmetric_subspace=True))
        con = ws.rows.con
        rotated = np.array([con.Q @ row for row in ref_v])[:, con.free]
        # in exact arithmetic the rotated rows hold only 0 and +-1 (tau . tau = 1);
        # the rotation rounds |tau|^2 off by an ulp at some boundary nodes
        exact = np.round(rotated)
        assert np.abs(rotated - exact).max() <= 2 * np.finfo(float).eps
        for rows, Z in ((exact, ws.Z_v), (ref_p, ws.Z_p)):
            assert not np.any(rows @ Z.toarray())
            assert Z.shape == (rows.shape[1], rows.shape[1] - np.linalg.matrix_rank(rows))
        assert ws.rows.V.shape == (0, ws.Z_v.shape[1])

    def test_rows_reduce_like_a_per_row_rotation(self, annulus_coarse):
        import scipy.sparse as sp
        ws = nvs._Workspace(annulus_coarse, val.hamel(0.0).data)
        rows = ws.rows
        con = rows.con
        # a radial field: its normal parts meet the normal data without cancelling
        radial = annulus_coarse.p2_coords().ravel()
        row = asm.assemble_vector_mass(annulus_coarse) @ radial
        rotated = con.Q @ row
        offset = rotated[con.fixed] @ con.fixed_values
        assert abs(offset) > 1e-3
        layout = ls.SaddleLayout(con, rows.B_f, rows.G_f, rows.mean, sp.csr_matrix(row), [0.5],
                                 dense_rows=[row])
        assert np.array_equal(layout.V.toarray()[0], rotated[con.free])
        assert np.array_equal(layout.D[0], rotated[con.free])
        assert layout.v_rhs[0] == pytest.approx(0.5 - offset, rel=1e-14)
        assert layout.d_rhs[0] == pytest.approx(-offset, rel=1e-14)

    @pytest.mark.parametrize("case", ["pins", "symmetric", "rigid"])
    def test_residual_matches_cartesian_reference(self, annulus_coarse, case):
        mesh = annulus_coarse
        data = val.hamel(1.0).data
        cart_rows = ([], [], [])
        if case == "pins":
            config = nvs.SolverConfig(pins={1: 2 * np.pi})
            cart_rows = ([asm.circulation_functional(mesh, 1)], [2 * np.pi], [])
        elif case == "symmetric":
            data = val.hamel(0.0).data
            config = nvs.SolverConfig(symmetric_subspace=True)
        else:
            data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(-1.5, 3.0),
                                   b_tau=(0.0, 0.0), f=None)
            config = nvs.SolverConfig()
            mode = ls.rigid_rotation_mode(mesh)
            cart_rows = ([], [], [asm.assemble_vector_mass(mesh) @ mode])
        ws = nvs._Workspace(mesh, data, config)
        x, _, _ = nvs._stokes_lift(ws)
        # away from the solution, with every multiplier nonzero
        x = x + 0.1 * np.sin(np.arange(len(x))) * np.max(np.abs(x))
        conv = asm.convection_vector(mesh, ws.rows.split(x)[0])
        r = ws.residual(x, 1.0, conv)
        r_ref = _cartesian_residual(ws, cart_rows, x, 1.0)
        assert len(r) == len(r_ref)
        assert np.linalg.norm(r - r_ref) <= 1e-14 * np.linalg.norm(r_ref)
        # the unpinned weak residual of the run report
        weak = ws.residual(ws.rows.unpinned(x), 1.0, conv)[:ws.rows.n_flow]
        weak_ref = _cartesian_residual(ws, cart_rows, x, 1.0, unpinned=True)
        assert np.linalg.norm(weak - weak_ref) <= 1e-14 * np.linalg.norm(weak_ref)

    def test_core_grid_does_not_grow_with_rows(self, annulus_coarse, monkeypatch):
        grids = []
        real = ls.sp.bmat

        def bmat(blocks, *args, **kwargs):
            grids.append((len(blocks), {len(row) for row in blocks}))
            return real(blocks, *args, **kwargs)

        monkeypatch.setattr(ls.sp, "bmat", bmat)
        for config in (nvs.SolverConfig(pins={1: 0.0}), nvs.SolverConfig(symmetric_subspace=True)):
            ws = nvs._Workspace(annulus_coarse, val.hamel(0.0).data, config)
            ws.solve_linear(ws.A_base)
            assert ws.rows.V.shape[0] == (0 if config.symmetric_subspace else 1)
        assert grids == [(3, {3}), (3, {3})]


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lambda_schedule": ()}, {"lambda_schedule": (np.nan,)}, {"lambda_schedule": (0.5, np.nan)},
        {"tolerance": np.nan}, {"tolerance": np.inf}, {"tolerance": 0.0},
        {"max_iterations": 0}, {"mode": "secant"}, {"mode": "picard"},
    ], ids=["empty-schedule", "nan-schedule", "nan-late-schedule", "nan-tolerance",
            "inf-tolerance", "zero-tolerance", "no-iterations", "unknown-mode", "retired-mode"])
    def test_rejected(self, kwargs):
        with pytest.raises(DataError):
            nvs.SolverConfig(**kwargs)

    def test_schedule_normalized_to_a_tuple(self):
        assert nvs.SolverConfig(lambda_schedule=[0.0, 1.0]).lambda_schedule == (0.0, 1.0)

    def test_empty_sweep_rejected(self, annulus_coarse):
        with pytest.raises(DataError, match="nonempty"):
            nvs.continuation_sweep(annulus_coarse, val.hamel(0.0).data, ())

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_non_finite_pin_rejected(self, annulus_coarse, symmetric, target):
        config = nvs.SolverConfig(pins={1: target}, symmetric_subspace=symmetric)
        with pytest.raises(DataError, match="finite"):
            nvs.solve_navier_stokes(annulus_coarse, val.hamel(0.0).data, config)


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
        gap = oracles.velocity_l2(annulus_coarse, sweep[-1][1].velocity - direct.velocity)
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
        config = nvs.SolverConfig(max_iterations=2, tolerance=1e-14, pins={1: 0.0})
        with pytest.raises(NonConvergenceError) as err:
            nvs.continuation_sweep(annulus_coarse, val.hamel(0.0).data, (1.0,), config)
        assert "continuation failed at lambda=1" in str(err.value)
        assert len(err.value.trace.residuals) == 2
        assert err.value.trace.stops == [
            {"lambda": 1.0, "reason": "max_iterations", "newton_from": None}]


class TestOneDriver:
    """solve_navier_stokes and continuation_sweep walk lambda through one driver."""

    def test_sweep_state_is_the_solve_state(self, annulus_coarse):
        data, grid = val.hamel(1.0).data, (0.0, 0.5, 1.0)
        config = nvs.SolverConfig(pins={1: 2 * np.pi})
        sweep = nvs.continuation_sweep(annulus_coarse, data, grid, config)
        flow, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                          replace(config, lambda_schedule=grid))
        last = dict(sweep[-1][1].metadata)
        assert last.pop("w_norm") == sweep[-1][2]
        assert last == flow.metadata
        assert np.array_equal(sweep[-1][1].velocity, flow.velocity)
        assert np.array_equal(sweep[-1][1].pressure, flow.pressure)

    def test_sweep_states_carry_the_full_metadata(self, annulus_coarse):
        sweep = nvs.continuation_sweep(annulus_coarse, val.hamel(1.0).data,
                                       (0.0, 0.5, 1.0), nvs.SolverConfig(pins={1: 2 * np.pi}))
        metas = [flow.metadata for _, flow, _ in sweep]
        assert [m["lambda"] for m in metas] == [0.0, 0.5, 1.0]
        # every lambda restarts the accelerated iteration, and each records its stop
        _, trace = nvs.solve_navier_stokes(annulus_coarse, val.hamel(1.0).data,
                                           nvs.SolverConfig(pins={1: 2 * np.pi},
                                                            lambda_schedule=(0.0, 0.5, 1.0)))
        assert [s["lambda"] for s in trace.stops] == [0.0, 0.5, 1.0]
        assert {s["reason"] for s in trace.stops} == {"converged"}
        assert trace.phases[0] == "stokes" and "newton" not in "".join(trace.phases)
        assert all(m["factorizations"] == 1 for m in metas)
        assert all(set(m["circulations"]) == {1} for m in metas)
        assert all(np.isfinite(m["weak_residual_unpinned"]) for m in metas)
        iterations = [m["iterations"] for m in metas]
        assert iterations == sorted(iterations)

    @pytest.mark.parametrize("grid", [(0.5, 1.5), (-0.1, 1.0)])
    def test_grid_outside_unit_interval_rejected(self, annulus_coarse, grid):
        with pytest.raises(DataError):
            nvs.continuation_sweep(annulus_coarse, val.hamel(0.0).data, grid)

    def test_convection_vector_once_per_iterate(self, annulus_coarse, monkeypatch):
        # the lift and each accepted iterate; N(u) is carried, never recomputed
        real = asm.convection_vector
        calls = []
        monkeypatch.setattr(asm, "convection_vector",
                            lambda *args: calls.append(1) or real(*args))
        _, trace = nvs.solve_navier_stokes(annulus_coarse, val.hamel(1.0).data,
                                           nvs.SolverConfig(pins={1: 2 * np.pi}))
        assert trace.dampings == [1.0] * len(trace.residuals)
        assert len(calls) == 1 + len(trace.residuals)


class TestSymmetricSolve:
    def test_matches_unrestricted_radial_solution(self, annulus_coarse):
        # in both modes; in "newton" every step's operator is reduced onto
        # the mirror subspace as it comes
        data = val.hamel(0.0).data  # radial data, symmetric
        for mode in ("picard-then-newton", "newton"):
            config = nvs.SolverConfig(mode=mode, pins={1: 0.0})
            sym_flow, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                                  replace(config, symmetric_subspace=True))
            free_flow, _ = nvs.solve_navier_stokes(annulus_coarse, data, config)
            gap = oracles.velocity_l2(annulus_coarse,
                                      sym_flow.velocity - free_flow.velocity)
            assert gap < 1e-7, mode
            assert sym_flow.metadata["symmetry_defect"] < 1e-10, mode
            assert sym_flow.metadata["iterations"] >= 1, mode

    def test_non_finite_data_defect_is_nan(self):
        # the hole datum is -inf on the unit circle; max() used to drop the
        # NaN defects and report 0.0, i.e. symmetric data
        from slipflow import expressions
        sol = val.hamel(1.0)
        data = replace(sol.data, a_star=tuple(expressions.boundary_value(v) for v in
                                              ("-1.5", "3.0 + log(x1*x1 + x2*x2 - 1)")))
        defect = nvs.symmetric_data_defect(sol.domain, data)
        assert np.isnan(defect)
        assert not defect <= nvs.SYMMETRY_TOL
        assert nvs.symmetric_data_defect(sol.domain, sol.data) <= nvs.SYMMETRY_TOL

    @pytest.mark.parametrize("force, symmetric", [
        (lambda x: np.column_stack([x[:, 0] + x[:, 1] ** 2, x[:, 0] * x[:, 1]]), True),
        (lambda x: np.column_stack([x[:, 1], np.zeros(len(x))]), False),
        (lambda x: np.column_stack([
            1.0 + 1e-6 * np.exp(-((x[:, 0] - 0.3) ** 2 + (x[:, 1] - 1.4) ** 2) / 0.01),
            np.zeros(len(x))]), False),
    ], ids=["symmetric", "f1=x2", "off-axis-bump"])
    def test_force_defect_is_that_of_the_load_vector(self, annulus_coarse, force, symmetric):
        # the check reads the force at the points the load quadrature reads, so
        # it passes exactly when the load vector is mirror-symmetric: even in
        # the u1 dofs of mirror partners, odd in the u2 dofs
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=force)
        F = asm.load_volume(annulus_coarse, force).reshape(-1, 2)
        mirrored = F[nvs._mirror_lookup(annulus_coarse)] * [1.0, -1.0]
        load_symmetric = np.max(np.abs(F - mirrored)) <= nvs.SYMMETRY_TOL * np.max(np.abs(F))
        defect = nvs.symmetric_data_defect(annulus_coarse.domain, data, annulus_coarse)
        assert (defect <= nvs.SYMMETRY_TOL) == load_symmetric == symmetric

    def test_mirror_lookup_pairs_nodes_across_a_rounding_grid(self, annulus_coarse):
        # each mirror pair moved to the two sides of a boundary of the grid
        # x1 / tol rounded, 1e-12 diameters apart: the pairing chains x1 values
        # within the tolerance instead of rounding them; a node moved off its
        # partner's mirror image by twice the tolerance is an asymmetric mesh
        from types import SimpleNamespace
        mirror = nvs._mirror_lookup(annulus_coarse)
        tol = 1e-9 * annulus_coarse.domain.diameter
        coords = annulus_coarse.p2_coords().copy()
        boundary = (np.round(coords[:, 0] / tol) + 0.5) * tol
        coords[:, 0] = boundary + np.where(coords[:, 1] > 0, -1e-3, 1e-3) * tol
        moved = SimpleNamespace(p2_coords=lambda: coords, domain=annulus_coarse.domain)
        assert np.array_equal(nvs._mirror_lookup(moved), mirror)
        coords[np.argmax(coords[:, 1]), 1] += 2 * tol
        with pytest.raises(MeshError, match="not mirror-symmetric"):
            nvs._mirror_lookup(moved)

    def test_asymmetric_data_rejected(self, annulus_coarse):
        data = asm.ProblemData(
            nu=1.0, beta=(1.0, 1.0),
            a_star=(lambda t, x: -1.5 + 0.3 * np.sin(2 * np.pi * np.asarray(t)),
                    3.0),
            b_tau=(0.0, 0.0), f=None)
        with pytest.raises(DataError):
            nvs.solve_navier_stokes(annulus_coarse, data, nvs.SolverConfig(symmetric_subspace=True))

    def test_non_admissible_domain_rejected(self):
        from slipflow.geometry import Circle, DomainSpec
        dom = DomainSpec([Circle((0, 0), 2.0), Circle((0.3, 0.5), 0.4)])
        mesh = sf.mesh_disk_with_holes(dom, 0.25)
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        with pytest.raises(DataError):
            nvs.solve_navier_stokes(mesh, data, nvs.SolverConfig(symmetric_subspace=True))

    def test_non_mirror_mesh_rejected(self, annulus_domain):
        mesh = sf.mesh_disk_with_holes(annulus_domain, 0.3)
        data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        with pytest.raises(MeshError):
            nvs.solve_navier_stokes(mesh, data, nvs.SolverConfig(symmetric_subspace=True))

    def test_mirrored_data_reproduces_bitwise(self, annulus_coarse):
        """Symmetric data equals its mirror image; deterministic re-solve
        must reproduce the identical coefficient vectors."""
        data = val.hamel(0.0).data
        mirrored = asm.ProblemData(nu=data.nu, beta=data.beta,
                                   a_star=data.a_star, b_tau=data.b_tau, f=None)
        config = nvs.SolverConfig(pins={1: 0.0}, symmetric_subspace=True)
        f1, _ = nvs.solve_navier_stokes(annulus_coarse, data, config)
        f2, _ = nvs.solve_navier_stokes(annulus_coarse, mirrored, config)
        assert f1.metadata["symmetry_defect"] <= 1e-10
        assert f2.metadata["symmetry_defect"] <= 1e-10
        assert np.array_equal(f1.velocity, f2.velocity)
        assert np.array_equal(f1.pressure, f2.pressure)

    def test_symmetric_solve_beta_zero_allowed(self, annulus_coarse):
        # mirror restriction removes the rotation mode, so zero friction is fine
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(-1.5, 3.0),
                               b_tau=(0.0, 0.0), f=None)
        flow, _ = nvs.solve_navier_stokes(annulus_coarse, data,
                                          nvs.SolverConfig(pins={1: 0.0}, symmetric_subspace=True))
        assert flow.metadata["symmetry_defect"] <= 1e-10
        sol = val.hamel(0.0)
        assert norms.velocity_error_l2(annulus_coarse, flow.velocity,
                                       sol.velocity) < 5e-3
