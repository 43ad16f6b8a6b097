import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

import slipflow as sf
from slipflow import assembly as asm
from slipflow import cli
from slipflow import linear_solvers as ls
from slipflow import navier_stokes as nvs
from slipflow import norms, validation as val
from slipflow.errors import CompatibilityError, DataError, SolverError
from slipflow.expressions import compile_expression

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def potential_velocity(x):
    r2 = x[:, 0] ** 2 + x[:, 1] ** 2
    return -3.0 * x / r2[:, None]


class TestLaplaceDirichlet:
    def test_annulus_log_solution(self, annulus_medium):
        q = ls.solve_laplace_dirichlet(annulus_medium, [0.0, 1.0])
        exact = lambda x: (np.log(2.0) - 0.5 * np.log(x[:, 0] ** 2 + x[:, 1] ** 2)) / np.log(2.0)
        assert norms.scalar_error_l2(annulus_medium, q, exact) < 5e-4
        # midline value 1/2 at r = sqrt(2)
        coords = annulus_medium.p2_coords()
        node = np.argmin(np.abs(np.hypot(*coords.T) - np.sqrt(2.0))
                         + np.abs(coords[:, 1]))
        r_node = np.hypot(*coords[node])
        q_exact = (np.log(2) - np.log(r_node)) / np.log(2)
        assert q[node] == pytest.approx(q_exact, abs=5e-4)

    def test_constant_boundary_values(self, annulus_coarse):
        q0 = ls.solve_laplace_dirichlet(annulus_coarse, [0.0, 0.0])
        assert np.max(np.abs(q0)) < 1e-12
        q1 = ls.solve_laplace_dirichlet(annulus_coarse, [1.0, 1.0])
        assert np.max(np.abs(q1 - 1.0)) < 1e-11


    def test_non_finite_nodal_value_rejected(self, annulus_coarse):
        # inf at the outer node t = 0.5; the maximum principle cannot see NaN
        datum = compile_expression("1/(t-0.5)")
        with pytest.raises(DataError, match="boundary node"):
            ls.solve_laplace_dirichlet(annulus_coarse, [datum, 0.0])


class TestLaplaceNeumann:
    def test_hamel_data_log_solution(self, annulus_medium):
        q = ls.solve_laplace_neumann(annulus_medium, [-1.5, 3.0])
        mean = -3.0 * (2 * np.log(2) - 0.75) * 2 * np.pi / (3 * np.pi)
        exact = lambda x: -1.5 * np.log(x[:, 0] ** 2 + x[:, 1] ** 2) - mean
        assert norms.scalar_error_l2(annulus_medium, q, exact) < 1e-3

    def test_zero_data(self, annulus_coarse):
        q = ls.solve_laplace_neumann(annulus_coarse, [0.0, 0.0])
        assert np.max(np.abs(q)) < 1e-12

    def test_cos_theta_on_disk(self):
        from slipflow.geometry import Circle, DomainSpec
        disk = DomainSpec([Circle((0.0, 0.0), 1.0)])
        mesh = sf.mesh_disk_with_holes(disk, 0.1)
        a = lambda t, x: np.cos(2 * np.pi * np.asarray(t))
        q = ls.solve_laplace_neumann(mesh, [a])
        assert norms.scalar_error_l2(mesh, q, lambda x: x[:, 0]) < 2e-3

    def test_incompatible_flux_rejected(self, annulus_coarse):
        with pytest.raises(CompatibilityError):
            ls.solve_laplace_neumann(annulus_coarse, [1.0, 1.0])


class TestBorderedSolver:
    def test_relres_is_that_of_the_returned_iterate(self, annulus_coarse, monkeypatch):
        # when refinement runs out, relres is that of the returned iterate, so
        # a NaN last correction shows in relres and cannot pass a gate
        K = asm.scalar_stiffness(annulus_coarse)
        m = asm.scalar_integral_vector(annulus_coarse)
        solver = ls.BorderedSolver(K, C=m[:, None], bumps=[(0, float(np.mean(K.diagonal())))])
        inverse, calls = solver._inverse, []

        def nan_on_last(rb, rd):
            calls.append(None)
            dz, dmu = inverse(rb, rd)
            return (dz * np.nan, dmu * np.nan) if len(calls) == 4 else (dz, dmu)

        monkeypatch.setattr(solver, "_inverse", nan_on_last)
        monkeypatch.setattr(ls, "BORDER_RTOL", 0.0)
        load = np.random.default_rng(0).standard_normal(annulus_coarse.n_p2_nodes)
        z, _, relres = solver.solve(load - m * (load.sum() / m.sum()), refine=3)
        assert len(calls) == 4 and not np.all(np.isfinite(z))
        assert not np.isfinite(relres)
        assert not relres <= ls.RESIDUAL_TOL

    def test_one_core_product_per_correction(self, annulus_coarse, monkeypatch):
        # the residual of the zero start is the right-hand side itself, so each
        # core product measures a corrected iterate and none is spent on z = 0
        K = asm.scalar_stiffness(annulus_coarse)
        m = asm.scalar_integral_vector(annulus_coarse)
        solver = ls.BorderedSolver(K, C=m[:, None], bumps=[(0, float(np.mean(K.diagonal())))])
        core, inverse, products, corrections = solver.core, solver._inverse, [], []

        class CountedCore:
            def __matmul__(self, z):
                products.append(None)
                return core @ z

        def counted_inverse(rb, rd):
            corrections.append(None)
            return inverse(rb, rd)

        monkeypatch.setattr(solver, "core", CountedCore())
        monkeypatch.setattr(solver, "_inverse", counted_inverse)
        load = np.random.default_rng(1).standard_normal(annulus_coarse.n_p2_nodes)
        load -= m * (load.sum() / m.sum())
        default = ls.BORDER_RTOL
        for rtol in (default, 0.0):
            monkeypatch.setattr(ls, "BORDER_RTOL", rtol)
            products.clear()
            corrections.clear()
            z, _, relres = solver.solve(load)
            assert relres <= ls.RESIDUAL_TOL and np.all(np.isfinite(z))
            assert len(products) == len(corrections) >= 1
        assert len(corrections) == 4  # rtol 0: all refine + 1 corrections
        monkeypatch.setattr(ls, "BORDER_RTOL", default)
        products.clear()
        z, mu, relres = solver.solve(np.zeros(annulus_coarse.n_p2_nodes))
        assert relres == 0.0 and not products and not np.any(z) and not np.any(mu)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def unordered_splu(A):
    """The SuperLU setting of _splu without its reverse Cuthill-McKee pre-order."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                     options={"SymmetricMode": True})


def hamel_core(mesh, config=None):
    """The bordered saddle core of the k = 1 Hamel Stokes system, pinned
    unless another SolverConfig is given."""
    config = config or nvs.SolverConfig(pins={1: 2 * np.pi})
    ws = nvs._Workspace(mesh, val.hamel(1.0).data, config)
    return ls.build_saddle_solver(ws.rows, ws.A_ff).core


def factored_by(call):
    """The one matrix that call() factors through _splu."""
    factored = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "_splu", lambda m, real=ls._splu: factored.append(m) or real(m))
        call()
    assert len(factored) == 1
    return factored[0]


def one_ascent_step(mesh):
    """sobolev_constant(mesh, 4) stopped after its first ascent step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "SOBOLEV_MAXITER", 1)
        return ls.sobolev_constant(mesh, 4.0)


def korn_pencil(mesh):
    """The shifted, reduced Korn pencil that korn_constant factors."""
    return factored_by(lambda: ls.korn_constant(mesh, weight=[2.0] * mesh.domain.n_components))


def newton_core(mesh):
    """The bordered saddle core of the Newton operator at the Stokes lift of the
    pinned k = 1 Hamel data."""
    ws = nvs._Workspace(mesh, val.hamel(1.0).data, nvs.SolverConfig(pins={1: 2 * np.pi}))
    u, _ = ws.rows.split(nvs._stokes_lift(ws)[0])
    A = ws.A_base + asm.assemble_convection(mesh, u)[0] + asm.assemble_convection_newton(mesh, u)
    return ls.build_saddle_solver(ws.rows, ws.rows.reduce(A, ws.F)[0]).core


class TestFactorization:
    """The symmetric-pattern SuperLU setting on the pinned Hamel saddle systems."""

    @pytest.mark.parametrize("newton", [False, True], ids=["stokes", "newton-nu0.05"])
    def test_saddle_fill_below_default_and_accurate(self, annulus_coarse, newton):
        mesh = annulus_coarse
        data = val.hamel(1.0).data
        if newton:
            data = replace(data, nu=0.05)
        ws = nvs._Workspace(mesh, data, nvs.SolverConfig(pins={1: 2 * np.pi}))
        A = ws.A_base
        if newton:
            u, _ = ws.rows.split(nvs._stokes_lift(ws)[0])
            A = A + asm.assemble_convection(mesh, u)[0] + asm.assemble_convection_newton(mesh, u)
        A_ff, F_f = ws.rows.reduce(A, ws.F)
        asymmetry = spla.norm(A_ff - A_ff.T) / spla.norm(A_ff)
        assert asymmetry > 1e-3 if newton else asymmetry < 1e-14
        solver = ls.build_saddle_solver(ws.rows, A_ff)
        # the premise of the setting: the factored core has a symmetric pattern,
        # up to the few entries a sparse product drops where it cancels to zero
        pattern = sp.csc_matrix(solver.core, copy=True)
        pattern.data[:] = 1.0
        assert abs(pattern - pattern.T).sum() <= 1e-3 * pattern.nnz
        default = spla.splu(sp.csc_matrix(solver.core))
        assert fill(solver.lu) < fill(default)
        _, relres = ls.solve_saddle_rhs(ws.rows, solver, F_f)
        assert relres <= 1e-12

    KINDS = [("hamel-saddle", "annulus"), ("mirror-saddle", "annulus"),
             ("newton-block", "annulus"), ("korn-pencil", "annulus"), ("korn-pencil", "two-hole"),
             ("h1-gram", "annulus"), ("h1-gram", "two-hole"), ("dirichlet-stiffness", "annulus"),
             ("dirichlet-stiffness", "two-hole")]

    @staticmethod
    def _matrix_of_kind(mesh, kind):
        return {
            "hamel-saddle": lambda: hamel_core(mesh),
            "mirror-saddle": lambda: hamel_core(mesh, nvs.SolverConfig(symmetric_subspace=True)),
            "newton-block": lambda: newton_core(mesh),
            "korn-pencil": lambda: korn_pencil(mesh),
            "h1-gram": lambda: factored_by(lambda: one_ascent_step(mesh)),
            "dirichlet-stiffness": lambda: factored_by(lambda: ls.dirichlet_solver(mesh)),
        }[kind]()

    @pytest.mark.filterwarnings("ignore:Sobolev ascent stopped")   # one ascent step
    @pytest.mark.parametrize("kind, which", KINDS)
    def test_fill_below_default_per_matrix_kind(self, annulus_coarse, two_hole_coarse,
                                                 kind, which):
        # a watch on every kind of matrix the package factors: one factorization
        # setting serves them all only while each fills less than SuperLU's
        # default would.
        mesh = annulus_coarse if which == "annulus" else two_hole_coarse
        matrix = self._matrix_of_kind(mesh, kind)
        assert fill(ls._splu(matrix)) < fill(spla.splu(sp.csc_matrix(matrix)))

    @pytest.mark.filterwarnings("ignore:Sobolev ascent stopped")   # one ascent step
    @pytest.mark.parametrize("kind, which", KINDS)
    def test_one_gather_permutation_factors_bitwise_alike(self, annulus_coarse,
                                                          two_hole_coarse, kind, which):
        # the symmetric permutation by one column gather gives SuperLU the same
        # arrays as two fancy-indexing passes, so the same factor bit for bit
        mesh = annulus_coarse if which == "annulus" else two_hole_coarse
        A = sp.csc_matrix(self._matrix_of_kind(mesh, kind))
        perm = reverse_cuthill_mckee(A, symmetric_mode=True)
        ref, got = A[perm][:, perm], ls._permuted(A, perm)
        assert all(np.array_equal(getattr(got, name), getattr(ref, name))
                   for name in ("indptr", "indices", "data"))
        options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3, relax=1,
                       panel_size=10, options={"SymmetricMode": True})
        lu, lu_ref = ls._splu(A).lu, spla.splu(ref, **options)
        for name in ("perm_r", "perm_c"):
            assert np.array_equal(getattr(lu, name), getattr(lu_ref, name))
        for name in ("L", "U"):
            factor, factor_ref = getattr(lu, name), getattr(lu_ref, name)
            assert (factor != factor_ref).nnz == 0
            assert all(np.array_equal(getattr(factor, part), getattr(factor_ref, part))
                       for part in ("indptr", "indices", "data"))

    @pytest.mark.parametrize("config", [nvs.SolverConfig(pins={1: 2 * np.pi}),
                                        nvs.SolverConfig(symmetric_subspace=True)],
                             ids=["pinned", "mirror"])
    def test_core_gathered_onto_its_pattern(self, annulus_coarse, config):
        # the layout derives the core's pattern once and gathers each core onto
        # it; entry for entry that is the block stack of the core's blocks
        ws = nvs._Workspace(annulus_coarse, val.hamel(1.0).data, config)
        rows = ws.rows
        u, _ = rows.split(nvs._stokes_lift(ws)[0])
        newton = asm.velocity_sum(annulus_coarse, ws.A_base,
                                  asm.assemble_convection(annulus_coarse, u)[0],
                                  asm.assemble_convection_newton(annulus_coarse, u))
        assert rows.V.nnz or config.symmetric_subspace
        for A in (ws.A_base, newton):
            # on the mirror subspace A_ff and B_f are the blocks restricted to its bases
            A_ff, _ = rows.reduce(A, ws.F)
            ref = sp.bmat([[A_ff, rows.B_f.T, rows.V.T], [rows.B_f, None, None],
                           [rows.V, None, None]], format="csc")
            # a copy is on no pattern of the mesh and is gathered onto it first
            for given in (A_ff, A_ff.copy()):
                core = rows.core(given)
                assert all(np.array_equal(getattr(core, name), getattr(ref, name))
                           for name in ("indptr", "indices", "data"))

    def test_mirror_core_fills_less_than_the_full_core(self):
        # on the 12 x 32 annulus of the shipped symmetric config: restricted to
        # the bases of the symmetric subspace, the core has 1755 rows and 0.18M
        # fill against 3488 rows and 0.44M for the unconstrained core; with
        # mirror multiplier rows it had 5221 rows and 3.81M fill
        cfg = cli.load_config(os.path.join(CONFIG_DIR, "symmetric_domain.json"))
        _, data, mesh = cli._problem(cfg)
        fills = []
        for symmetric in (True, False):
            ws = nvs._Workspace(mesh, data, nvs.SolverConfig(symmetric_subspace=symmetric))
            fills.append(fill(ls._splu(ls.build_saddle_solver(ws.rows, ws.A_ff).core)))
        assert fills[0] < fills[1]

    def test_pre_order_cuts_the_hamel_fill(self, annulus_coarse):
        # minimum degree from the structured annulus numbering fills more than
        # from the reverse Cuthill-McKee one (134,202 against 112,538 entries)
        core = hamel_core(annulus_coarse)
        assert fill(ls._splu(core)) < fill(unordered_splu(core))

    @pytest.mark.parametrize("columns", [None, 3], ids=["1-D", "n-by-3"])
    @pytest.mark.parametrize("matrix", ["hamel-core", "p2-mass", "korn-pencil"])
    def test_ordered_solve_matches_unordered(self, annulus_coarse, two_hole_coarse,
                                             matrix, columns):
        A = {"hamel-core": lambda: hamel_core(annulus_coarse),
             "p2-mass": lambda: asm.scalar_mass(annulus_coarse),
             "korn-pencil": lambda: korn_pencil(two_hole_coarse)}[matrix]()
        n = A.shape[0]
        b = np.random.default_rng(0).standard_normal(n if columns is None else (n, columns))
        x = ls._splu(A).solve(b)
        ref = unordered_splu(A).solve(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_factor_keeps_only_superlu_and_permutation(self, annulus_coarse):
        # L and U are built on demand from the SuperLU object, never kept:
        # holding them costs peak memory for every live factor
        factor = ls._splu(asm.scalar_mass(annulus_coarse))
        assert set(vars(factor)) == {"lu", "perm"}
        assert isinstance(factor.lu, spla.SuperLU)
        assert np.array_equal(np.sort(factor.perm), np.arange(annulus_coarse.n_p2_nodes))
        assert fill(factor) == fill(factor.lu)


class TestL2Projection:
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("which", ["annulus", "two-hole"])
    def test_reproduces_a_p2_field(self, annulus_coarse, two_hole_coarse, which, vector):
        # the projection of a P2 field's own quadrature values is the field
        mesh = annulus_coarse if which == "annulus" else two_hole_coarse
        rng = np.random.default_rng(7)
        field = rng.standard_normal((mesh.n_p2_nodes, 2) if vector else mesh.n_p2_nodes)
        got = ls.l2_projection(mesh, asm.volume_context(mesh).values(field))
        assert got.shape == field.shape
        assert np.linalg.norm(got - field) <= 1e-13 * np.linalg.norm(field)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, annulus_coarse, bad):
        values = np.ones(asm.volume_context(annulus_coarse).dv.shape + (2,))
        values[3, 5, 1] = bad
        with pytest.raises(SolverError, match="non-finite"):
            ls.l2_projection(annulus_coarse, values)

    def test_missed_tolerance_rejected(self, annulus_coarse, monkeypatch):
        # the true residual is checked, not CG's own report
        monkeypatch.setattr(ls.spla, "cg", lambda A, b, **kw: (np.zeros_like(b), 0))
        values = np.ones(asm.volume_context(annulus_coarse).dv.shape)
        with pytest.raises(SolverError, match="CG residual"):
            ls.l2_projection(annulus_coarse, values)


class TestStokes:
    def test_radial_potential_field(self, annulus_levels, hamel_family):
        errs = []
        for mesh in annulus_levels[:2]:
            flow = nvs.solve_stokes(mesh, hamel_family["solutions"][0.0].data)
            errs.append(norms.velocity_error_l2(mesh, flow.velocity, potential_velocity))
            assert flow.metadata["linear_residual"] < 1e-10
            assert np.sqrt(np.mean(flow.pressure ** 2)) < 5e-2 * errs[-1] ** 0  # p ~ 0
        assert np.log2(errs[0] / errs[1]) > 2.5

    def test_couette_analytic(self, annulus_medium):
        exact = val.slip_couette()
        flow = nvs.solve_stokes(annulus_medium, exact.data)
        assert norms.velocity_error_l2(annulus_medium, flow.velocity,
                                       exact.velocity) < 1e-3

    def test_pressure_zero_mean(self, annulus_coarse, hamel_family):
        flow = nvs.solve_stokes(annulus_coarse, hamel_family["solutions"][0.0].data)
        mean = asm.assemble_pressure_mean(annulus_coarse)
        pbar = abs(mean @ flow.pressure)
        assert pbar <= 1e-10 * max(np.linalg.norm(flow.pressure), 1e-30) * mean.sum()

    def test_zero_data_zero_friction_symmetric(self, annulus_coarse):
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0), f=None)
        flow = nvs.solve_stokes(annulus_coarse, data)
        assert flow.metadata.get("rigid_constraint")
        assert np.max(np.abs(flow.velocity)) < 1e-12
        assert np.max(np.abs(flow.pressure)) < 1e-12

    def test_incompatible_symmetric_case_rejected(self, annulus_coarse):
        # <b, rigid rotation> != 0 with zero friction on the annulus
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(0.0, 0.0),
                               b_tau=(1.0, 0.0), f=None)
        with pytest.raises(DataError):
            nvs.solve_stokes(annulus_coarse, data)

    def test_compatible_symmetric_case_solves(self, annulus_coarse):
        # b_tau = (c0, c1) is compatible iff -8 pi c0 + 2 pi c1 = 0
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(0.0, 0.0),
                               b_tau=(1.0, 4.0), f=None)
        flow = nvs.solve_stokes(annulus_coarse, data)
        mode = ls.rigid_rotation_mode(annulus_coarse)
        M = asm.assemble_vector_mass(annulus_coarse)
        ortho = abs(flow.velocity @ (M @ mode))
        assert ortho < 1e-9 * np.linalg.norm(flow.velocity) * np.linalg.norm(mode)

    def test_energy_balance(self, annulus_medium):
        # a_* = 0: (nu/2) S:S energy + friction energy = <b, u>
        exact = val.slip_couette()
        flow = nvs.solve_stokes(annulus_medium, exact.data)
        A = asm.assemble_viscous(annulus_medium, exact.data.nu)
        Mf = asm.assemble_friction(annulus_medium, exact.data.beta)
        lhs = flow.velocity @ (A @ flow.velocity) + flow.velocity @ (Mf @ flow.velocity)
        F = asm.load_boundary_tangential(annulus_medium, exact.data.b_tau)
        rhs = F @ flow.velocity
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestKorn:
    def test_zero_weight_zero_mode(self, annulus_levels):
        for mesh in annulus_levels[:2]:
            est = ls.korn_constant(mesh, weight=(0.0, 0.0))
            h = mesh.max_diameter()
            assert est.lambda_min <= h ** 2
            mode = est.mode / np.linalg.norm(est.mode)
            u0 = ls.rigid_rotation_mode(mesh)
            u0 /= np.linalg.norm(u0)
            assert abs(mode @ u0) > 0.999

    def test_projected_bounded_away(self, annulus_coarse):
        nested = [annulus_coarse, sf.refine_nested(annulus_coarse)]
        lams = []
        for mesh in nested:
            est = ls.korn_constant(mesh, weight=(0.0, 0.0), project_rotation=True)
            lams.append(est.lambda_min)
        assert lams[-1] > 0.1
        assert abs(lams[1] / lams[0] - 1.0) < 0.02

    def test_monotone_K_over_nested_meshes(self, annulus_coarse):
        meshes = [annulus_coarse]
        meshes.append(sf.refine_nested(meshes[-1]))
        meshes.append(sf.refine_nested(meshes[-1]))
        Ks = []
        for mesh in meshes:
            Ks.append(ls.korn_constant(mesh, weight=(1.0, 1.0)).K)
        assert all(Ks[i] <= Ks[i + 1] + 1e-12 for i in range(len(Ks) - 1))

    def test_monotone_in_weight(self, annulus_coarse):
        l1 = ls.korn_constant(annulus_coarse, weight=(1.0, 1.0)).lambda_min
        l4 = ls.korn_constant(annulus_coarse, weight=(4.0, 4.0)).lambda_min
        assert l4 >= l1

    def test_negative_weight_rejected(self, annulus_coarse):
        with pytest.raises(DataError):
            ls.korn_constant(annulus_coarse, weight=(-1.0, 0.0))

    @staticmethod
    def _dense_lambda_min(mesh, weight, project_rotation):
        """Smallest eigenvalue of the reduced Korn pencil by dense eigh, with
        the rotation projected out through a null-space basis."""
        mass = asm.assemble_vector_mass(mesh)
        kform = asm.assemble_viscous(mesh, 2.0) + asm.assemble_friction(mesh, weight)
        wform = mass + asm.assemble_vector_gradient(mesh)
        con = asm.normal_trace_constraint(mesh, [0.0] * mesh.domain.n_components)
        K = con.reduce_matrix(kform)[0].toarray()
        W = con.reduce_matrix(wform)[0].toarray()
        if project_rotation:
            c = (con.Q @ (mass @ ls.rigid_rotation_mode(mesh)))[con.free]
            Z = sla.null_space(c[None, :])
            K, W = Z.T @ K @ Z, Z.T @ W @ Z
        return sla.eigh(K, W, eigvals_only=True, subset_by_index=[0, 0])[0]

    @pytest.mark.parametrize("weight, project", [((0.0, 0.0), True), ((2.0, 2.0), False)],
                             ids=["projected", "weighted"])
    def test_lambda_min_matches_dense_pencil(self, annulus_coarse, weight, project):
        est = ls.korn_constant(annulus_coarse, weight, project_rotation=project)
        ref = self._dense_lambda_min(annulus_coarse, weight, project)
        assert est.lambda_min == pytest.approx(ref, rel=1e-10)

    def test_roundoff_floor_gives_infinite_K(self, annulus_levels):
        # the rigid rotation is exactly representable, so lambda_min is zero
        # up to roundoff, of either sign; K is infinite, lambda_min kept
        for mesh in annulus_levels:
            est = ls.korn_constant(mesh, weight=(0.0, 0.0))
            assert np.isfinite(est.lambda_min) and abs(est.lambda_min) < 1e-12
            assert est.K == np.inf

    def test_thin_annulus_clustered_spectrum_matches_dense_pencil(self):
        # on the annulus 0.01 wide the low end of the spectrum is a cluster
        # (1.99974, 1.99985, 1.99986, ...): the largest Ritz value creeps for
        # hundreds of steps, across thick restarts, before it settles (n = 1024)
        mesh = sf.mesh_annulus(1.0, 1.01, 2, 64)
        est = ls.korn_constant(mesh, weight=(2.0, 2.0))
        assert est.lanczos_steps > ls.LANCZOS_BASIS
        ref = self._dense_lambda_min(mesh, (2.0, 2.0), False)
        assert est.lambda_min == pytest.approx(ref, rel=1e-10)

    def test_non_finite_eigenvalue_rejected(self, annulus_coarse, monkeypatch):
        monkeypatch.setattr(ls, "_pencil_smallest",
                            lambda A, M, sigma, constraints, v0: (np.nan, np.zeros(A.shape[0]), 1))
        with pytest.raises(SolverError):
            ls.korn_constant(annulus_coarse, weight=(1.0, 1.0))

    def test_exhausted_steps_are_solver_error(self, annulus_coarse, monkeypatch):
        monkeypatch.setattr(ls, "LANCZOS_MAXITER", 2)
        with pytest.raises(SolverError, match="did not converge in 2 steps"):
            ls.korn_constant(annulus_coarse, weight=(1.0, 1.0))


class TestSobolev:
    def test_constant_lower_bound(self, annulus_coarse):
        est = ls.sobolev_constant(annulus_coarse, r=4.0)
        area = 3 * np.pi
        assert est.C_r >= area ** 0.25 / area ** 0.5 - 1e-12

    @pytest.mark.parametrize("r", [4.0, 8.0])
    def test_finite_positive(self, annulus_coarse, r):
        est = ls.sobolev_constant(annulus_coarse, r=r)
        assert np.isfinite(est.C_r) and est.C_r > 0

    def test_nested_non_decreasing(self, annulus_coarse):
        fine = sf.refine_nested(annulus_coarse)
        e1 = ls.sobolev_constant(annulus_coarse, r=4.0)
        e2 = ls.sobolev_constant(fine, r=4.0,
                                 v0=fine.prolongation @ e1.maximizer)
        assert e2.C_r >= e1.C_r * (1.0 - 1e-9)

    def test_bad_exponent_rejected(self, annulus_coarse):
        with pytest.raises(DataError):
            ls.sobolev_constant(annulus_coarse, r=2.0)
