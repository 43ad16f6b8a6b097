import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import slipflow as sf
from slipflow import assembly as asm
from slipflow.errors import CompatibilityError, DataError


def rigid_rotation_coeffs(mesh, b=1.0):
    coords = mesh.p2_coords()
    return b * np.column_stack([-coords[:, 1], coords[:, 0]]).ravel()


def domain_area(mesh):
    from slipflow.norms import domain_area
    return domain_area(mesh)


class TestViscous:
    def test_annihilates_rigid_rotation(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        A = asm.assemble_viscous(annulus_coarse, dm, nu=1.0)
        u0 = rigid_rotation_coeffs(annulus_coarse)
        bound = 1e-10 * spla.norm(A) * np.linalg.norm(u0)
        assert np.linalg.norm(A @ u0) <= bound

    def test_annihilates_constants(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        A = asm.assemble_viscous(annulus_coarse, dm, nu=1.0)
        coords = annulus_coarse.p2_coords()
        const = np.column_stack([np.ones(len(coords)), np.zeros(len(coords))]).ravel()
        assert np.linalg.norm(A @ const) <= 1e-10 * spla.norm(A) * np.linalg.norm(const)

    @pytest.mark.parametrize("nu", [1.0, 0.37])
    def test_linear_field_energy(self, annulus_coarse, nu):
        # u = (x1, -x2): S = diag(2, -2), S:S = 8, energy = 4 nu |Omega|
        dm = asm.DofMap(annulus_coarse)
        A = asm.assemble_viscous(annulus_coarse, dm, nu=nu)
        coords = annulus_coarse.p2_coords()
        u = np.column_stack([coords[:, 0], -coords[:, 1]]).ravel()
        area = domain_area(annulus_coarse)
        assert u @ (A @ u) == pytest.approx(4 * nu * area, rel=1e-12)

    def test_psd_and_pd_with_friction(self):
        mesh = sf.mesh_annulus(1, 2, 2, 8)
        dm = asm.DofMap(mesh)
        A = asm.assemble_viscous(mesh, dm, nu=1.0)
        con = asm.normal_trace_constraint(mesh, dm, [0.0, 0.0])
        A_ff, _ = con.reduce_matrix(A)
        eigs = np.linalg.eigvalsh(A_ff.toarray())
        assert eigs.min() > -1e-12 * abs(eigs).max()   # PSD, rigid mode at zero
        Af = A + asm.assemble_friction(mesh, dm, (1.0, 1.0))
        A_ff, _ = con.reduce_matrix(Af)
        eigs = np.linalg.eigvalsh(A_ff.toarray())
        assert eigs.min() > 0                          # PD once friction acts


class TestFriction:
    def test_zero_beta_zero_matrix(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        M = asm.assemble_friction(annulus_coarse, dm, (0.0, 0.0))
        assert abs(M).sum() == 0.0

    def test_unit_circle_tangential_energy(self, annulus_coarse):
        # beta = 1 on the unit inner circle; tangential unit field -> 2 pi
        dm = asm.DofMap(annulus_coarse)
        M = asm.assemble_friction(annulus_coarse, dm, (0.0, 1.0))
        ut = rigid_rotation_coeffs(annulus_coarse)  # unit tangential speed at r=1
        assert ut @ (M @ ut) == pytest.approx(2 * np.pi, rel=1e-4)

    def test_normal_field_no_energy(self):
        # tangential part of a radial field vanishes up to the quadratic
        # edge-geometry error, which dies out very fast under refinement
        vals = []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            dm = asm.DofMap(mesh)
            M = asm.assemble_friction(mesh, dm, (1.0, 1.0))
            ur = mesh.p2_coords().ravel()  # radial on circles
            vals.append(ur @ (M @ ur))
        assert vals[1] < 2e-7
        assert vals[0] / vals[1] > 30

    def test_negative_beta_rejected(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        with pytest.raises(DataError):
            asm.assemble_friction(annulus_coarse, dm, (-1.0, 0.0))


class TestDivergence:
    def test_rigid_rotation_divergence_free(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        B = asm.assemble_divergence(annulus_coarse, dm)
        u0 = rigid_rotation_coeffs(annulus_coarse)
        assert np.linalg.norm(B @ u0) < 1e-10

    def test_constant_divergence_free(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        B = asm.assemble_divergence(annulus_coarse, dm)
        coords = annulus_coarse.p2_coords()
        const = np.column_stack([np.ones(len(coords)), 2 * np.ones(len(coords))]).ravel()
        assert np.linalg.norm(B @ const) < 1e-12

    def test_dilation_row_sum(self, annulus_coarse):
        # q = 1 rows sum to integral of div(x) = 2 |Omega|
        dm = asm.DofMap(annulus_coarse)
        B = asm.assemble_divergence(annulus_coarse, dm)
        u = annulus_coarse.p2_coords().ravel()
        assert np.sum(B @ u) == pytest.approx(2 * domain_area(annulus_coarse), rel=1e-12)


class TestConvection:
    def test_zero_field(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        C, N = asm.assemble_convection(annulus_coarse, dm, np.zeros(dm.n_velocity))
        assert abs(C).sum() == 0.0 and np.linalg.norm(N) == 0.0

    def test_centripetal_direction(self, annulus_coarse):
        # (w . grad) w = -b^2 x for the rigid rotation
        mesh = annulus_coarse
        dm = asm.DofMap(mesh)
        b = 0.7
        w = rigid_rotation_coeffs(mesh, b)
        C, N = asm.assemble_convection(mesh, dm, w)
        Mv = asm.assemble_vector_mass(mesh, dm)
        centripetal = -b * b * mesh.p2_coords().ravel()
        assert np.allclose(N, Mv @ centripetal, atol=2e-3 * np.linalg.norm(N))

    def test_discrete_skew_defect_shrinks(self):
        # for discrete div-free w with w.n = 0 the triple product vanishes
        # only in the continuum limit; on unstructured meshes the defect is
        # well below O(h^2) ||w||^3 and dies out under refinement.
        # (Mirror-symmetric structured meshes cancel it to roundoff outright.)
        from slipflow import geometry, linear_solvers as ls
        dom = geometry.DomainSpec([geometry.Circle((0, 0), 2.0),
                                   geometry.Circle((0, 0), 1.0)])
        defects, hs = [], []
        for h in (0.3, 0.15):
            mesh = sf.mesh_disk_with_holes(dom, h)
            data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                                   b_tau=(1.0, 2.0), f=None)
            flow = ls.solve_stokes(mesh, data)
            dm = asm.DofMap(mesh)
            C, N = asm.assemble_convection(mesh, dm, flow.velocity)
            wnorm = np.sqrt(flow.velocity @ (asm.assemble_vector_mass(mesh, dm)
                                             @ flow.velocity))
            defects.append(abs(flow.velocity @ N) / wnorm ** 3)
            hs.append(mesh.max_diameter())
        assert defects[0] <= hs[0] ** 2
        assert defects[1] <= hs[1] ** 2
        assert defects[1] < defects[0] / 4.0

    def test_matrix_free_vector_matches_assembled(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        w = np.random.default_rng(7).standard_normal(dm.n_velocity)
        _, N = asm.assemble_convection(annulus_coarse, dm, w)
        assert np.linalg.norm(asm.convection_vector(annulus_coarse, dm, w) - N) \
            <= 1e-14 * np.linalg.norm(N)

    def test_newton_term_consistency(self, annulus_coarse):
        # directional derivative of N(w) matches C(w) d + D(w) d
        mesh = annulus_coarse
        dm = asm.DofMap(mesh)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(dm.n_velocity)
        d = rng.standard_normal(dm.n_velocity)
        C, Nw = asm.assemble_convection(mesh, dm, w)
        D = asm.assemble_convection_newton(mesh, dm, w)
        eps = 1e-6
        _, Np = asm.assemble_convection(mesh, dm, w + eps * d)
        _, Nm = asm.assemble_convection(mesh, dm, w - eps * d)
        fd = (Np - Nm) / (2 * eps)
        assert np.allclose(fd, C @ d + D @ d, atol=1e-7 * np.linalg.norm(fd))


class TestNormalTrace:
    def test_hamel_data_accepted(self, annulus_coarse):
        con = asm.normal_trace_constraint(annulus_coarse, asm.DofMap(annulus_coarse),
                                          [-1.5, 3.0])
        b = annulus_coarse.n_vertices  # spot-check nodal values on each circle
        outer = np.nonzero(annulus_coarse.node_is_boundary
                           & (annulus_coarse.node_component == 0))[0]
        idx = np.searchsorted(con.dofmap.boundary_nodes, outer)
        assert np.allclose(con.fixed_values[idx], -1.5)

    def test_nonzero_total_flux_rejected(self, annulus_coarse):
        with pytest.raises(CompatibilityError):
            asm.normal_trace_constraint(annulus_coarse, asm.DofMap(annulus_coarse),
                                        [1.0, 1.0])

    def test_homogeneous_constraint(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        con = asm.normal_trace_constraint(annulus_coarse, dm, [0.0, 0.0])
        assert np.all(con.fixed_values == 0.0)
        assert len(con.fixed) + len(con.free) == dm.n_velocity
        assert len(np.intersect1d(con.fixed, con.free)) == 0

    def test_rotation_round_trip(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        Q = dm.rotation()
        rng = np.random.default_rng(1)
        u = rng.standard_normal(dm.n_velocity)
        assert np.allclose(Q.T @ (Q @ u), u, atol=1e-14 * np.linalg.norm(u))
        I = (Q @ Q.T) - sp.eye(dm.n_velocity)
        assert spla.norm(I) < 1e-13

    def test_normal_trace_exact_at_nodes(self, annulus_coarse):
        mesh = annulus_coarse
        dm = asm.DofMap(mesh)
        con = asm.normal_trace_constraint(mesh, dm, [-1.5, 3.0])
        u = con.expand(np.zeros(len(con.free)))
        vals = u.reshape(-1, 2)
        for node in dm.boundary_nodes:
            un = vals[node] @ mesh.node_normal[node]
            expected = -1.5 if mesh.node_component[node] == 0 else 3.0
            assert un == pytest.approx(expected, abs=1e-13)


class TestDeterminism:
    def test_triangle_order_invariance(self, annulus_coarse):
        mesh = annulus_coarse
        dm = asm.DofMap(mesh)
        A1 = asm.assemble_viscous(mesh, dm, nu=1.0)
        perm = np.random.default_rng(2).permutation(len(mesh.triangles))
        import copy
        shuffled = copy.copy(mesh)
        shuffled.triangles = mesh.triangles[perm]
        shuffled.tri_edges = mesh.tri_edges[perm]
        A2 = asm.assemble_viscous(shuffled, dm, nu=1.0)
        diff = spla.norm(A1 - A2) / spla.norm(A1)
        assert diff < 1e-13

    def test_repeat_assembly_bitwise(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        A1 = asm.assemble_viscous(annulus_coarse, dm, nu=1.0)
        A2 = asm.assemble_viscous(annulus_coarse, dm, nu=1.0)
        assert (A1 != A2).nnz == 0


class TestVolumeContext:
    @staticmethod
    def _count_geometry(monkeypatch):
        from slipflow import elements
        calls = []
        original = elements.physical_gradients

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)
        monkeypatch.setattr(elements, "physical_gradients", counted)
        return calls

    def test_solve_derives_geometry_once(self, monkeypatch):
        from slipflow import navier_stokes as nvs, validation as val
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        calls = self._count_geometry(monkeypatch)
        nvs.solve_navier_stokes(mesh, val.hamel(1.0).data,
                                nvs.SolverConfig(pins={1: 2 * np.pi}))
        assert len(calls) == 1

    def test_audit_derives_geometry_twice(self, monkeypatch):
        from slipflow import analysis, validation as val
        from slipflow.quadrature import triangle_rule
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        calls = self._count_geometry(monkeypatch)
        report = analysis.audit(mesh.domain, val.hamel(0.0).data, mesh=mesh)
        assert report.theorem_small_flux["evaluable"]
        # once at the assembly rule, once at the error-norm rule (not kept)
        assert calls == [len(triangle_rule(asm.VOLUME_DEGREE)[0]),
                         len(triangle_rule(asm.ERROR_DEGREE)[0])]

    def test_cached_arrays_reject_writes(self):
        import copy
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        ctx = asm.volume_context(mesh)
        bq = asm.boundary_quadrature(mesh)
        assert asm.volume_context(mesh) is ctx
        assert asm.boundary_quadrature(mesh) is bq
        for arr in list(vars(ctx).values()) + list(vars(bq).values()):
            with pytest.raises(ValueError):
                arr[...] = 0
        # replacing a geometry array derives a new context
        moved = copy.copy(mesh)
        moved.edge_nodes = mesh.edge_nodes.copy()
        assert asm.volume_context(moved) is not ctx
        assert asm.volume_context(mesh) is ctx

    def test_non_finite_volume_force_rejected(self, annulus_coarse):
        dm = asm.DofMap(annulus_coarse)
        with pytest.raises(DataError):
            asm.load_volume(annulus_coarse, dm,
                            lambda x: np.column_stack([np.full(len(x), np.nan), x[:, 0]]))
