from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import slipflow as sf
from slipflow import assembly as asm
from slipflow import geometry, navier_stokes as nvs
from slipflow.errors import CompatibilityError, DataError


def rigid_rotation_coeffs(mesh, b=1.0):
    coords = mesh.p2_coords()
    return b * np.column_stack([-coords[:, 1], coords[:, 0]]).ravel()


def domain_area(mesh):
    return float(asm.volume_context(mesh).dv.sum())


class TestViscous:
    def test_annihilates_rigid_rotation(self, annulus_coarse):
        A = asm.assemble_viscous(annulus_coarse, nu=1.0)
        u0 = rigid_rotation_coeffs(annulus_coarse)
        bound = 1e-10 * spla.norm(A) * np.linalg.norm(u0)
        assert np.linalg.norm(A @ u0) <= bound

    def test_annihilates_constants(self, annulus_coarse):
        A = asm.assemble_viscous(annulus_coarse, nu=1.0)
        coords = annulus_coarse.p2_coords()
        const = np.column_stack([np.ones(len(coords)), np.zeros(len(coords))]).ravel()
        assert np.linalg.norm(A @ const) <= 1e-10 * spla.norm(A) * np.linalg.norm(const)

    @pytest.mark.parametrize("nu", [1.0, 0.37])
    def test_linear_field_energy(self, annulus_coarse, nu):
        # u = (x1, -x2): S = diag(2, -2), S:S = 8, energy = 4 nu |Omega|
        A = asm.assemble_viscous(annulus_coarse, nu=nu)
        coords = annulus_coarse.p2_coords()
        u = np.column_stack([coords[:, 0], -coords[:, 1]]).ravel()
        area = domain_area(annulus_coarse)
        assert u @ (A @ u) == pytest.approx(4 * nu * area, rel=1e-12)

    def test_psd_and_pd_with_friction(self):
        mesh = sf.mesh_annulus(1, 2, 2, 8)
        A = asm.assemble_viscous(mesh, nu=1.0)
        con = asm.normal_trace_constraint(mesh, [0.0, 0.0])
        A_ff, _ = con.reduce_matrix(A)
        eigs = np.linalg.eigvalsh(A_ff.toarray())
        assert eigs.min() > -1e-12 * abs(eigs).max()   # PSD, rigid mode at zero
        Af = A + asm.assemble_friction(mesh, (1.0, 1.0))
        A_ff, _ = con.reduce_matrix(Af)
        eigs = np.linalg.eigvalsh(A_ff.toarray())
        assert eigs.min() > 0                          # PD once friction acts


class TestFriction:
    def test_zero_beta_zero_matrix(self, annulus_coarse):
        M = asm.assemble_friction(annulus_coarse, (0.0, 0.0))
        assert abs(M).sum() == 0.0

    def test_unit_circle_tangential_energy(self, annulus_coarse):
        # beta = 1 on the unit inner circle; tangential unit field -> 2 pi
        M = asm.assemble_friction(annulus_coarse, (0.0, 1.0))
        ut = rigid_rotation_coeffs(annulus_coarse)  # unit tangential speed at r=1
        assert ut @ (M @ ut) == pytest.approx(2 * np.pi, rel=1e-4)

    def test_normal_field_no_energy(self):
        # tangential part of a radial field vanishes up to the quadratic
        # edge-geometry error, which dies out very fast under refinement
        vals = []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            M = asm.assemble_friction(mesh, (1.0, 1.0))
            ur = mesh.p2_coords().ravel()  # radial on circles
            vals.append(ur @ (M @ ur))
        assert vals[1] < 2e-7
        assert vals[0] / vals[1] > 30

    def test_negative_beta_rejected(self, annulus_coarse):
        with pytest.raises(DataError):
            asm.assemble_friction(annulus_coarse, (-1.0, 0.0))

    def test_negative_beta_rejected_by_the_solve(self, annulus_coarse):
        from slipflow import navier_stokes as nvs
        data = asm.ProblemData(nu=1.0, beta=(-1.0, 0.0), a_star=(0.0, 0.0), b_tau=(0.0, 0.0))
        with pytest.raises(DataError, match="negative friction coefficient"):
            nvs.solve_stokes(annulus_coarse, data)


class TestProblemData:
    @pytest.mark.parametrize("nu", [0.0, -1.0, np.nan, np.inf])
    def test_viscosity_positive_and_finite(self, nu):
        with pytest.raises(DataError, match="viscosity"):
            asm.ProblemData(nu=nu, beta=(1.0, 1.0), a_star=(0.0, 0.0), b_tau=(0.0, 0.0))

    @pytest.mark.parametrize("solve", [nvs.solve_stokes, nvs.solve_navier_stokes],
                             ids=["stokes", "ns"])
    @pytest.mark.parametrize("name", ["b_tau", "a_star", "beta"])
    @pytest.mark.parametrize("entries", [(0.0,), (0.0, 0.0, 0.0)], ids=["short", "long"])
    def test_one_entry_per_component(self, annulus_coarse, solve, name, entries):
        # a missing entry must not be solved as zero, nor an extra one ignored
        given = {"beta": (1.0, 1.0), "a_star": (0.0, 0.0), "b_tau": (1.0, 0.0), name: entries}
        data = asm.ProblemData(nu=1.0, **given)
        with pytest.raises(DataError, match=f"{name} has {len(entries)} components"):
            solve(annulus_coarse, data)

    @pytest.mark.parametrize("form", [
        lambda mesh, entries: asm.assemble_friction(mesh, entries),
        lambda mesh, entries: asm.load_boundary_tangential(mesh, entries),
        lambda mesh, entries: sf.linear_solvers.solve_laplace_neumann(mesh, entries),
        lambda mesh, entries: sf.korn_constant(mesh, weight=entries),
    ], ids=["assemble_friction", "load_boundary_tangential", "solve_laplace_neumann",
            "korn_constant"])
    @pytest.mark.parametrize("entries", [(0.0,), (0.0, 0.0, 1.0)], ids=["short", "long"])
    def test_library_forms_need_one_entry_per_component(self, annulus_coarse, form, entries):
        # a per-component tuple given to a form directly: a missing entry must
        # not be read as zero, nor an extra one ignored
        with pytest.raises(DataError, match=f"has {len(entries)} components, domain has 2"):
            form(annulus_coarse, entries)

    def test_component_fluxes_match_the_per_curve_rule(self):
        # the one evaluator keeps each curve's rule points and their order
        domain = geometry.DomainSpec([geometry.Circle((0.0, 0.0), 3.0),
                                      geometry.Circle((-1.2, 0.0), 0.6),
                                      geometry.Circle((1.3, 0.0), 0.5)])
        a_star = (lambda t, x: np.cos(2 * np.pi * t) + x[:, 0],
                  lambda t, x: np.full(len(t), 0.25), lambda t, x: x[:, 1] ** 2)
        flux, peak, length = asm.component_fluxes(domain, a_star)
        for c, (curve, a) in enumerate(zip(domain.curves, a_star)):
            t, pts, w_ds = geometry.curve_rule(curve)
            vals = a(t, pts)
            assert flux[c] == np.sum(w_ds * vals)
            assert peak[c] == np.max(np.abs(vals))
            assert length[c] == np.sum(w_ds)

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.0, 1e-3)])
    def test_friction_leaves_no_free_rotation(self, annulus_domain, beta):
        data = asm.ProblemData(nu=1.0, beta=beta, a_star=(0.0, 0.0), b_tau=(0.0, 0.0))
        assert data.free_rotation_center(annulus_domain) is None

    def test_zero_friction_frees_the_rotation_about_the_centre(self):
        center = (0.5, -0.25)
        domain = geometry.DomainSpec([geometry.Circle(center, 2.0), geometry.Circle(center, 1.0)])
        data = asm.ProblemData(nu=1.0, beta=(0.0, 0.0), a_star=(0.0, 0.0), b_tau=(0.0, 0.0))
        assert data.free_rotation_center(domain) == pytest.approx(center, abs=1e-15)
        eccentric = geometry.DomainSpec([geometry.Circle((0.0, 0.0), 2.0),
                                         geometry.Circle((0.3, 0.0), 1.0)])
        assert data.free_rotation_center(eccentric) is None

    @pytest.mark.parametrize("outer", [0.0, 1.0])
    def test_non_finite_friction_on_the_hole_rejected(self, annulus_domain, outer):
        data = asm.ProblemData(nu=1.0, beta=(outer, np.nan), a_star=(0.0, 0.0),
                               b_tau=(0.0, 0.0))
        with pytest.raises(DataError, match="friction coefficient is not finite"):
            data.free_rotation_center(annulus_domain)


class TestDivergence:
    def test_rigid_rotation_divergence_free(self, annulus_coarse):
        B = asm.assemble_divergence(annulus_coarse)
        u0 = rigid_rotation_coeffs(annulus_coarse)
        assert np.linalg.norm(B @ u0) < 1e-10

    def test_constant_divergence_free(self, annulus_coarse):
        B = asm.assemble_divergence(annulus_coarse)
        coords = annulus_coarse.p2_coords()
        const = np.column_stack([np.ones(len(coords)), 2 * np.ones(len(coords))]).ravel()
        assert np.linalg.norm(B @ const) < 1e-12

    def test_dilation_row_sum(self, annulus_coarse):
        # q = 1 rows sum to integral of div(x) = 2 |Omega|
        B = asm.assemble_divergence(annulus_coarse)
        u = annulus_coarse.p2_coords().ravel()
        assert np.sum(B @ u) == pytest.approx(2 * domain_area(annulus_coarse), rel=1e-12)


class TestConvection:
    def test_zero_field(self, annulus_coarse):
        C, N = asm.assemble_convection(annulus_coarse, np.zeros(2 * annulus_coarse.n_p2_nodes))
        assert abs(C).sum() == 0.0 and np.linalg.norm(N) == 0.0

    def test_centripetal_direction(self, annulus_coarse):
        # (w . grad) w = -b^2 x for the rigid rotation
        mesh = annulus_coarse
        b = 0.7
        w = rigid_rotation_coeffs(mesh, b)
        C, N = asm.assemble_convection(mesh, w)
        Mv = asm.assemble_vector_mass(mesh)
        centripetal = -b * b * mesh.p2_coords().ravel()
        assert np.allclose(N, Mv @ centripetal, atol=2e-3 * np.linalg.norm(N))

    def test_discrete_skew_defect_shrinks(self):
        # for discrete div-free w with w.n = 0 the triple product vanishes
        # only in the continuum limit; on unstructured meshes the defect is
        # well below O(h^2) ||w||^3 and dies out under refinement.
        # (Mirror-symmetric structured meshes cancel it to roundoff outright.)
        from slipflow import geometry, navier_stokes as nvs
        dom = geometry.DomainSpec([geometry.Circle((0, 0), 2.0),
                                   geometry.Circle((0, 0), 1.0)])
        defects, hs = [], []
        for h in (0.3, 0.15):
            mesh = sf.mesh_disk_with_holes(dom, h)
            data = asm.ProblemData(nu=1.0, beta=(1.0, 1.0), a_star=(0.0, 0.0),
                                   b_tau=(1.0, 2.0), f=None)
            flow = nvs.solve_stokes(mesh, data)
            C, N = asm.assemble_convection(mesh, flow.velocity)
            wnorm = np.sqrt(flow.velocity @ (asm.assemble_vector_mass(mesh)
                                             @ flow.velocity))
            defects.append(abs(flow.velocity @ N) / wnorm ** 3)
            hs.append(mesh.max_diameter())
        assert defects[0] <= hs[0] ** 2
        assert defects[1] <= hs[1] ** 2
        assert defects[1] < defects[0] / 4.0

    def test_matrix_free_vector_matches_assembled(self, annulus_coarse, two_hole_coarse):
        for mesh in (annulus_coarse, two_hole_coarse):
            w = np.random.default_rng(7).standard_normal(2 * mesh.n_p2_nodes)
            _, N = asm.assemble_convection(mesh, w)
            assert np.linalg.norm(asm.convection_vector(mesh, w) - N) \
                <= 1e-14 * np.linalg.norm(N)

    def test_newton_term_consistency(self, annulus_coarse):
        # directional derivative of N(w) matches C(w) d + D(w) d
        mesh = annulus_coarse
        rng = np.random.default_rng(5)
        w = rng.standard_normal(2 * mesh.n_p2_nodes)
        d = rng.standard_normal(2 * mesh.n_p2_nodes)
        C, Nw = asm.assemble_convection(mesh, w)
        D = asm.assemble_convection_newton(mesh, w)
        eps = 1e-6
        _, Np = asm.assemble_convection(mesh, w + eps * d)
        _, Nm = asm.assemble_convection(mesh, w - eps * d)
        fd = (Np - Nm) / (2 * eps)
        assert np.allclose(fd, C @ d + D @ d, atol=1e-7 * np.linalg.norm(fd))


class TestComponentwiseForms:
    W_SEED = 11

    @classmethod
    def _forms(cls, form, mesh):
        """(assembled matrix, scalar [t, 6, 6] element blocks) of one componentwise form."""
        ctx = asm.volume_context(mesh)
        if form == "mass":
            return asm.assemble_vector_mass(mesh), np.einsum(
                "tq,qi,qj->tij", ctx.dv, ctx.N, ctx.N, optimize=True)
        if form == "gradient":
            return asm.assemble_vector_gradient(mesh), np.einsum(
                "tq,tqix,tqjx->tij", ctx.dv, ctx.grads, ctx.grads, optimize=True)
        w = np.random.default_rng(cls.W_SEED).standard_normal(2 * mesh.n_p2_nodes)
        wq = np.einsum("qi,tix->tqx", ctx.N, w.reshape(-1, 2)[ctx.nodes])
        conv = np.einsum("tqx,tqjx->tqj", wq, ctx.grads)
        return asm.assemble_convection(mesh, w)[0], np.einsum(
            "tq,qi,tqj->tij", ctx.dv, ctx.N, conv, optimize=True)

    @staticmethod
    def _full_scatter(mesh, blk):
        """blk (x) I_2 scattered as full 12x12 [t, i, a, j, b] element blocks."""
        nodes = asm.volume_context(mesh).nodes
        nt, n = len(nodes), 2 * mesh.n_p2_nodes
        dofs = (2 * nodes[:, :, None] + np.arange(2)).reshape(nt, 12)
        block = np.einsum("tij,ab->tiajb", blk, np.eye(2)).reshape(nt, 144)
        rows, cols = np.repeat(dofs, 12, axis=1), np.tile(dofs, (1, 12))
        return sp.csr_matrix((block.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))

    @staticmethod
    def _nonzeros(A):
        A = sp.csr_matrix(A)
        A.sort_indices()
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        keep = A.data != 0
        return rows[keep], A.indices[keep], A.data[keep]

    @pytest.mark.parametrize("form", ["mass", "gradient", "convection"])
    @pytest.mark.parametrize("which", ["annulus", "two-hole"])
    def test_no_stored_zeros_and_bitwise_values(self, annulus_coarse, form, which):
        """The kron(scalar form, I_2) assembly against the full 12x12 scatter:
        the same nonzero pattern exactly, values to summation-order roundoff."""
        from slipflow.geometry import Circle, DomainSpec
        mesh = annulus_coarse if which == "annulus" else sf.mesh_disk_with_holes(
            DomainSpec([Circle((0.0, 0.0), 3.0), Circle((-1.2, 0.0), 0.6),
                        Circle((1.3, 0.0), 0.5)]), 0.3)
        A, blk = self._forms(form, mesh)
        assert A.nnz == np.count_nonzero(A.data)
        rows, cols, vals = self._nonzeros(A)
        ref_rows, ref_cols, ref_vals = self._nonzeros(self._full_scatter(mesh, blk))
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
        assert np.max(np.abs(vals - ref_vals)) <= 1e-15 * np.max(np.abs(ref_vals))


class TestScatterBitwise:
    """scatter_vector / scatter_matrix sites against the per-site np.add.at and
    hand-built index grids they replaced, bit for bit; the element contributions
    of the field evaluator against the einsum contractions it replaced."""

    @pytest.fixture(scope="class", params=["annulus", "two-hole"])
    def mesh(self, request, annulus_coarse, two_hole_coarse):
        return annulus_coarse if request.param == "annulus" else two_hole_coarse

    @staticmethod
    def _velocity_add_at(n, nodes, contrib):
        out = np.zeros(n)
        np.add.at(out, 2 * nodes, contrib[..., 0])
        np.add.at(out, 2 * nodes + 1, contrib[..., 1])
        return out

    @staticmethod
    def _interleaved(nodes):
        dofs = np.empty((len(nodes), 2 * nodes.shape[1]), np.int64)
        dofs[:, 0::2] = 2 * nodes
        dofs[:, 1::2] = 2 * nodes + 1
        return dofs

    @staticmethod
    def _grid_scatter(rows, cols, vals, shape):
        return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)

    @staticmethod
    def _close(a, ref):
        assert np.max(np.abs(a - ref)) <= 1e-15 * np.max(np.abs(ref))

    @staticmethod
    def _same_csr(A, B):
        return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
                and np.array_equal(A.indices, B.indices) and np.array_equal(A.data, B.data))

    def test_volume_vectors(self, mesh):
        ctx = asm.volume_context(mesh)
        rng = np.random.default_rng(3)
        nv = 2 * mesh.n_p2_nodes
        f_nodal = rng.standard_normal(nv)
        fq = ctx.values(f_nodal.reshape(-1, 2))
        self._close(fq, np.einsum("qi,tix->tqx", ctx.N, f_nodal.reshape(-1, 2)[ctx.nodes]))
        contrib = ctx.element_load(fq)
        self._close(contrib, np.einsum("tq,qi,tqx->tix", ctx.dv, ctx.N, fq, optimize=True))
        assert np.array_equal(asm.load_volume(mesh, f_nodal),
                              self._velocity_add_at(nv, ctx.nodes, contrib))
        mean = np.zeros(mesh.n_vertices)
        np.add.at(mean, mesh.triangles, np.einsum("tq,qk->tk", ctx.dv, ctx.P))
        assert np.array_equal(asm.assemble_pressure_mean(mesh), mean)
        integral = np.zeros(mesh.n_p2_nodes)
        self._close(ctx.element_load(1.0), np.einsum("tq,qi->ti", ctx.dv, ctx.N))
        np.add.at(integral, ctx.nodes, ctx.element_load(1.0))
        assert np.array_equal(asm.scalar_integral_vector(mesh), integral)
        # the scatter of convection_vector, fed the evaluator's element contributions
        w = rng.standard_normal(nv).reshape(-1, 2)
        adv = np.einsum("tqab,tqb->tqa", ctx.gradient(w), ctx.values(w))
        assert np.array_equal(asm.convection_vector(mesh, w.ravel()), self._velocity_add_at(
            nv, ctx.nodes, ctx.element_load(adv)))

    def test_convection_contrib_matches_einsum(self, mesh):
        # convection_vector's element contributions by the evaluator against
        # the chained einsum they replaced
        ctx = asm.volume_context(mesh)
        w = np.random.default_rng(3).standard_normal(2 * mesh.n_p2_nodes).reshape(-1, 2)
        nodal = w[ctx.nodes]
        wq = np.einsum("qi,tia->tqa", ctx.N, nodal)
        adv = np.einsum("tqb,tqib,tia->tqa", wq, ctx.grads, nodal, optimize=True)
        ref = np.einsum("tq,qi,tqa->tia", ctx.dv, ctx.N, adv, optimize=True)
        gw = ctx.gradient(w)
        self._close(gw, np.einsum("tia,tqib->tqab", nodal, ctx.grads))
        self._close(ctx.element_load(np.einsum("tqab,tqb->tqa", gw, ctx.values(w))), ref)

    def test_boundary_vectors(self, mesh, monkeypatch):
        from slipflow import linear_solvers as ls
        bq, nv = asm.boundary_quadrature(mesh), 2 * mesh.n_p2_nodes
        ncomp = mesh.domain.n_components
        b_tau = [lambda t, x, c=c: np.cos(2 * np.pi * t) + c for c in range(ncomp)]
        vals = asm._eval_per_component(bq, b_tau)
        # each vector scatters the boundary evaluator's element contributions
        contrib = asm._tested(bq.shape, vals[..., None] * bq.tangent, bq.w_ds)
        self._close(contrib, np.einsum("kq,kq,qi,kqa->kia", bq.w_ds, vals, bq.shape, bq.tangent,
                                       optimize=True))
        assert np.array_equal(asm.load_boundary_tangential(mesh, b_tau),
                              self._velocity_add_at(nv, bq.nodes3, contrib))
        contrib = asm._tested(bq.shape, bq.tangent, bq.w_ds)
        for comp in range(ncomp):
            sel = bq.component == comp
            self._close(contrib[sel], np.einsum("kq,qi,kqa->kia", bq.w_ds[sel], bq.shape,
                                                bq.tangent[sel], optimize=True))
            assert np.array_equal(asm.circulation_functional(mesh, comp),
                                  self._velocity_add_at(nv, bq.nodes3[sel], contrib[sel]))
        a_star = [lambda t, x: np.sin(2 * np.pi * t)] * ncomp
        loads = []
        monkeypatch.setattr(ls, "zero_mean_neumann_solve", lambda m, load: loads.append(load))
        ls.solve_laplace_neumann(mesh, a_star)
        vals = asm._eval_per_component(bq, a_star)
        contrib = asm._tested(bq.shape, vals, bq.w_ds)
        self._close(contrib, np.einsum("kq,kq,qi->ki", bq.w_ds, vals, bq.shape))
        ref = np.zeros(mesh.n_p2_nodes)
        np.add.at(ref, bq.nodes3, contrib)
        assert np.array_equal(loads[0], ref)

    def test_scalar_projections(self, mesh):
        from slipflow import analysis, extensions

        class Captured:
            def __init__(self):
                self.loads = []

            def solve(self, b):
                self.loads.append(b)
                return np.zeros_like(b)

        ctx = asm.volume_context(mesh)
        rng = np.random.default_rng(4)
        values = rng.standard_normal(ctx.dv.shape)
        lu = Captured()
        analysis._scalar_projection(mesh, values, lu)
        contrib = ctx.element_load(values)
        self._close(contrib, np.einsum("tq,tq,qi->ti", ctx.dv, values, ctx.N))
        ref = np.zeros(mesh.n_p2_nodes)
        np.add.at(ref, ctx.nodes, contrib)
        assert np.array_equal(lu.loads[0], ref)
        q = rng.standard_normal(mesh.n_p2_nodes)
        extensions._project_scalar_gradient(mesh, q, lu)
        gq = ctx.gradient(q)
        self._close(gq, np.einsum("ti,tqix->tqx", q[ctx.nodes], ctx.grads))
        contrib = ctx.element_load(gq)
        self._close(contrib, np.einsum("tq,qi,tqx->tix", ctx.dv, ctx.N, gq, optimize=True))
        ref = np.zeros((mesh.n_p2_nodes, 2))
        np.add.at(ref, ctx.nodes, contrib)
        assert np.array_equal(lu.loads[1], ref)

    @staticmethod
    def _add_at(rows, cols, vals, shape):
        """The csr matrix of the entries vals at (rows, cols), its pattern every
        entry given and each value summed by np.add.at in element order."""
        keys = rows.astype(np.int64).ravel() * shape[1] + cols.ravel()
        unique, slot = np.unique(keys, return_inverse=True)
        data = np.zeros(len(unique))
        np.add.at(data, slot, vals.ravel())
        indptr = np.searchsorted(unique, np.arange(shape[0] + 1) * shape[1])
        return sp.csr_matrix((data, unique % shape[1], indptr), shape=shape)

    def test_matrix_forms(self, mesh):
        # the element blocks of each form against the einsum contractions they
        # replaced, and each assembled form against the element-order np.add.at
        # of its own blocks, bit for bit
        ctx = asm.volume_context(mesh)
        g, dv, N, nodes = ctx.grads, ctx.dv, ctx.N, ctx.nodes
        nt, nv, n = len(nodes), 2 * mesh.n_p2_nodes, mesh.n_p2_nodes
        dofs = self._interleaved(nodes)
        rows, cols = np.repeat(dofs, 12, axis=1), np.tile(dofs, (1, 12))
        same = np.einsum("tq,tqix,tqjx->tij", dv, g, g, optimize=True)
        cross = np.einsum("tq,tqib,tqja->tiajb", dv, g, g, optimize=True)
        # the velocity kernels give [t, i, j, b, a] blocks: column component first
        block = asm._viscous_blocks(ctx, 0.7).transpose(0, 1, 4, 2, 3)
        self._close(block, 0.7 * (np.einsum("tij,ab->tiajb", same, np.eye(2)) + cross))
        assert self._same_csr(asm.assemble_viscous(mesh, 0.7), self._add_at(
            rows, cols, block.reshape(nt, 12, 12), (nv, nv)))
        w = np.random.default_rng(5).standard_normal(nv)
        gw = ctx.gradient(w.reshape(-1, 2))
        self._close(gw, np.einsum("tia,tqib->tqab", w.reshape(-1, 2)[nodes], g))
        block = asm._newton_blocks(ctx, gw).transpose(0, 1, 4, 2, 3)
        self._close(block, np.einsum("tq,qi,qj,tqab->tiajb", dv, N, N, gw, optimize=True))
        assert self._same_csr(asm.assemble_convection_newton(mesh, w), self._add_at(
            rows, cols, block.reshape(nt, 12, 12), (nv, nv)))
        blk = asm._divergence_blocks(ctx)
        self._close(blk, np.einsum("tq,qk,tqjb->tkjb", dv, ctx.P, g, optimize=True))
        assert self._same_csr(asm.assemble_divergence(mesh), self._add_at(
            np.repeat(mesh.triangles, 12, axis=1), np.tile(dofs, (1, 3)), blk,
            (mesh.n_vertices, nv)))
        srows, scols = np.repeat(nodes, 6, axis=1), np.tile(nodes, (1, 6))
        blk = asm._stiffness_blocks(ctx)
        self._close(blk, same)
        assert self._same_csr(asm.scalar_stiffness(mesh), self._add_at(srows, scols, blk, (n, n)))
        blk = asm._mass_blocks(ctx)
        self._close(blk, np.einsum("tq,qi,qj->tij", dv, N, N, optimize=True))
        assert self._same_csr(asm.scalar_mass(mesh), self._add_at(srows, scols, blk, (n, n)))
        blk = asm._convection_blocks(ctx, ctx.values(w.reshape(-1, 2)))
        self._close(blk, np.einsum("tq,qi,tqjx,tqx->tij", dv, N, g, ctx.values(w.reshape(-1, 2)),
                                   optimize=True))
        scalar = self._add_at(srows, scols, blk, (n, n))
        C = asm.assemble_convection(mesh, w)[0]
        assert C.nnz == 2 * scalar.nnz
        assert self._same_csr(C, sp.kron(scalar, sp.eye(2), format="csr"))

    def test_friction(self, mesh):
        bq = asm.boundary_quadrature(mesh)
        beta = [lambda t, x, c=c: 1.0 + 0.5 * c + np.sin(2 * np.pi * t) ** 2
                for c in range(mesh.domain.n_components)]
        bvals = asm._eval_per_component(bq, beta)
        blk = np.einsum("kq,kq,qi,qj,kqa,kqb->kiajb", bq.w_ds, bvals, bq.shape, bq.shape,
                        bq.tangent, bq.tangent, optimize=True)
        dofs = self._interleaved(bq.nodes3)
        ref = self._grid_scatter(np.repeat(dofs, 6, axis=1), np.tile(dofs, (1, 6)),
                                 blk.reshape(len(dofs), 6, 6), (2 * mesh.n_p2_nodes,) * 2)
        assert self._same_csr(asm.assemble_friction(mesh, beta), ref)


class TestFieldEvaluator:
    """The quadrature contexts as field evaluators, on affine fields, which the
    isoparametric P2 space reproduces exactly."""

    A = np.array([[0.3, -1.2], [0.7, 0.4]])
    C = np.array([0.5, -0.2])

    @pytest.fixture(scope="class", params=["annulus", "two-hole"])
    def mesh(self, request, annulus_coarse, two_hole_coarse):
        return annulus_coarse if request.param == "annulus" else two_hole_coarse

    def affine(self, x):
        return x @ self.A.T + self.C

    @pytest.mark.parametrize("degree", [asm.VOLUME_DEGREE, asm.ERROR_DEGREE])
    def test_affine_velocity_values_and_gradient(self, mesh, degree):
        ctx = asm.volume_context(mesh, degree)
        u = self.affine(mesh.p2_coords())
        exact = self.affine(ctx.points())
        assert np.max(np.abs(ctx.values(u) - exact)) <= 1e-12 * np.max(np.abs(exact))
        gu = ctx.gradient(u)
        assert gu.shape == ctx.dv.shape + (2, 2)
        assert np.max(np.abs(gu - self.A)) <= 1e-12 * np.max(np.abs(self.A))
        # one component as a scalar field; a constant pressure on the vertices
        assert np.max(np.abs(ctx.gradient(u[:, 1]) - self.A[1])) <= 1e-12
        assert np.max(np.abs(ctx.values(np.full(mesh.n_vertices, 2.5)) - 2.5)) <= 1e-14

    def test_affine_boundary_trace(self, mesh):
        bq = asm.boundary_quadrature(mesh)
        exact = self.affine(bq.x)
        trace = bq.values(self.affine(mesh.p2_coords()))
        assert np.max(np.abs(trace - exact)) <= 1e-12 * np.max(np.abs(exact))
        # the pressure trace is linear between the end vertices
        from slipflow.quadrature import interval_rule
        s, _ = interval_rule(asm.EDGE_POINTS)
        ends = mesh.vertices[bq.nodes3[:, :2], 0]
        linear = ends[:, :1] * (1.0 - s) + ends[:, 1:] * s
        assert np.max(np.abs(bq.values(mesh.vertices[:, 0]) - linear)) <= 1e-14
        lengths = bq.component_integrals(1.0)
        assert np.allclose(lengths, [bq.edge_len[bq.component == c].sum()
                                     for c in range(mesh.domain.n_components)], rtol=1e-14)
        assert bq.load(np.ones(bq.t.shape)).sum() == pytest.approx(lengths.sum(), rel=1e-13)

    def test_load_of_one_sums_to_integral(self, mesh):
        ctx = asm.volume_context(mesh)
        area = ctx.integral(1.0)
        assert area == pytest.approx(domain_area(mesh), rel=1e-14)
        assert ctx.load(1.0).sum() == pytest.approx(area, rel=1e-13)
        vec = ctx.load(np.ones(ctx.dv.shape + (2,)))
        assert vec.shape == (mesh.n_p2_nodes, 2)
        assert np.allclose(vec.sum(axis=0), area, rtol=1e-13)

    def test_load_is_the_integral_against_the_basis(self, mesh):
        # <load(values, flux), u> = integral values u + flux . grad u for a P2 field u
        ctx = asm.volume_context(mesh)
        rng = np.random.default_rng(8)
        values, flux = rng.standard_normal(ctx.dv.shape), rng.standard_normal(ctx.dv.shape + (2,))
        u = rng.standard_normal(mesh.n_p2_nodes)
        ref = ctx.integral(values * ctx.values(u) + np.sum(flux * ctx.gradient(u), axis=-1))
        assert ctx.load(values, flux) @ u == pytest.approx(ref, rel=1e-12)

    def test_wrong_length_rejected(self, mesh):
        ctx = asm.volume_context(mesh)
        with pytest.raises(ValueError):
            ctx.values(np.zeros(2 * mesh.n_p2_nodes))
        with pytest.raises(ValueError):
            ctx.gradient(np.zeros(mesh.n_vertices))

    def test_affine_gradient_at_the_edge_points(self, mesh):
        # taken in the adjacent triangle at every boundary quadrature point
        bq = asm.boundary_quadrature(mesh)
        u = self.affine(mesh.p2_coords())
        gu = bq.gradient(u)
        assert gu.shape == bq.t.shape + (2, 2)
        assert np.max(np.abs(gu - self.A)) <= 1e-12
        assert np.max(np.abs(bq.gradient(u[:, 1]) - self.A[1])) <= 1e-12
        du = bq.tangential_derivative(u)
        assert du.shape == bq.t.shape + (2,)
        one = bq.tangential_derivative(u[:, 1])
        assert np.max(np.abs(du[..., 1] - one)) <= 1e-14 * np.max(np.abs(one))
        with pytest.raises(ValueError):
            bq.gradient(np.zeros(mesh.n_vertices))
        with pytest.raises(ValueError):
            bq.tangential_derivative(np.zeros(mesh.n_vertices))

    def test_tangential_derivative_third_order(self):
        # d/dtau of c . x is c . tau; the gap is that of the isoparametric tangent
        c = np.array([0.3, -1.1])
        gaps = []
        for n in (4, 8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            bq = asm.boundary_quadrature(mesh)
            exact = bq.tangent @ c
            gaps.append(np.max(np.abs(bq.tangential_derivative(mesh.p2_coords() @ c) - exact)))
        assert gaps[0] > 5 * gaps[1] > 25 * gaps[2]

    @pytest.mark.parametrize("degree", [asm.VOLUME_DEGREE, asm.ERROR_DEGREE])
    def test_physical_gradients_match_einsum(self, mesh, degree):
        from slipflow import elements
        from slipflow.quadrature import triangle_rule
        pts, _ = triangle_rule(degree)
        coords, basis_grad = mesh.triangle_coords(), elements.p2_grad(pts)
        grads, _ = elements.physical_gradients(coords, pts, basis_grad)
        _, _, Jinv = elements.mapped_jacobians(coords, pts)
        ref = np.einsum("qir,tqrx->tqix", basis_grad, Jinv)
        assert np.max(np.abs(grads - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestSparsity:
    """The per-mesh patterns, the data-array sums and the planned slip reduction."""

    @pytest.fixture(scope="class", params=["annulus", "two-hole"])
    def mesh(self, request, annulus_coarse, two_hole_coarse):
        return annulus_coarse if request.param == "annulus" else two_hole_coarse

    @staticmethod
    def _forms(mesh):
        w = np.random.default_rng(6).standard_normal(2 * mesh.n_p2_nodes)
        beta = (1.0,) * mesh.domain.n_components
        return {"viscous": asm.assemble_viscous(mesh, 0.8),
                "friction": asm.assemble_friction(mesh, beta),
                "newton": asm.assemble_convection_newton(mesh, w, 0.3),
                "convection": asm.assemble_convection(mesh, w)[0],
                "mass": asm.assemble_vector_mass(mesh),
                "gradient": asm.assemble_vector_gradient(mesh)}

    def test_pattern_arrays_read_only_and_rebuilt(self):
        import copy
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        s, plan = asm.sparsity(mesh), asm.slip_plan(mesh)
        assert asm.sparsity(mesh) is s and asm.slip_plan(mesh) is plan
        patterns = [s.scalar, s.velocity, s.componentwise, s.divergence, s.friction,
                    plan.free_free, plan.free_fixed]
        maps = [a for p in patterns for a in vars(p).values() if isinstance(a, np.ndarray)]
        maps += [s.source, plan.blocks]
        assert all(a.dtype == np.int32 for a in maps)
        arrays = maps + [plan.Q.data, plan.Q.indices, plan.Q.indptr, plan.free, plan.fixed,
                         plan.left, plan.right]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
        # a matrix shares the arrays of its pattern, so it cannot write to them
        A = asm.assemble_viscous(mesh, 1.0)
        assert s.velocity.holds(A)
        with pytest.raises(ValueError):
            A.indices[0] = 0
        # replacing the triangles derives new patterns and a new plan on them
        moved = copy.copy(mesh)
        moved.triangles = mesh.triangles.copy()
        assert asm.sparsity(moved) is not s
        assert asm.slip_plan(moved) is not plan
        assert asm.slip_plan(moved).sparsity is asm.sparsity(moved)
        # replacing the node frames derives a new plan on the same patterns
        turned = copy.copy(mesh)
        turned.node_normal = -mesh.node_normal
        assert asm.sparsity(turned) is s
        assert asm.slip_plan(turned) is not plan and asm.slip_plan(turned).sparsity is s
        assert asm.sparsity(mesh) is s and asm.slip_plan(mesh) is plan

    def test_solve_derives_patterns_once(self, annulus_coarse, pattern_derivations):
        import copy
        from slipflow import validation as val
        mesh = copy.copy(annulus_coarse)
        mesh.triangles = annulus_coarse.triangles.copy()    # nothing derived yet
        # at nu = 0.5 the accelerated Picard map stalls and Newton takes over
        data = replace(val.hamel(1.0).data, nu=0.5)
        _, trace = nvs.solve_navier_stokes(mesh, data, nvs.SolverConfig(pins={1: 2 * np.pi}))
        assert any(phase.startswith("newton") for phase in trace.phases)
        assert sorted(pattern_derivations) == ["_slip_plan", "_sparsity"]

    def test_sum_on_data_arrays(self, mesh):
        forms = self._forms(mesh)
        total = asm.velocity_sum(mesh, forms["viscous"], (0.3, forms["convection"]),
                                 forms["newton"], forms["friction"])
        assert asm.sparsity(mesh).velocity.holds(total)
        ref = forms["viscous"] + 0.3 * forms["convection"] + forms["newton"] \
            + forms["friction"]
        assert abs(total - ref).max() <= 1e-15 * abs(ref).max()
        # a matrix on no pattern of the mesh (scipy's sum drops stored zeros)
        # is gathered onto the velocity pattern
        dropped = forms["viscous"] + forms["friction"]
        assert not asm.sparsity(mesh).velocity.holds(dropped)
        assert (asm.velocity_sum(mesh, dropped) != dropped).nnz == 0
        scalar = asm.sparsity(mesh).scalar
        apart = np.setdiff1d(np.arange(mesh.n_p2_nodes), scalar.indices[:scalar.indptr[1]])[0]
        off = sp.csr_matrix(([1.0], ([0], [2 * apart])), shape=dropped.shape)
        with pytest.raises(ValueError, match="outside the sparsity pattern"):
            asm.velocity_sum(mesh, off)

    def test_reduce_matrix_is_the_rotation(self, mesh):
        # Q A Q^T split by rows and columns, as reduce_matrix computed it before
        con = asm.normal_trace_constraint(mesh, [0.0] * mesh.domain.n_components)
        forms = self._forms(mesh)
        forms["dropped"] = forms["viscous"] + forms["friction"]
        for name, A in forms.items():
            A_ff, A_fc = con.reduce_matrix(A)
            hat = (con.Q @ A) @ con.Q.T
            ref_ff, ref_fc = hat[con.free][:, con.free], hat[con.free][:, con.fixed]
            scale = abs(hat).max()
            assert A_ff.shape == ref_ff.shape and A_fc.shape == ref_fc.shape, name
            assert abs(A_ff - ref_ff).max() <= 1e-15 * scale, name
            assert abs(A_fc - ref_fc).max() <= 1e-15 * scale, name
            assert A_ff.has_canonical_format and A_fc.has_canonical_format, name


class TestNormalTrace:
    def test_hamel_data_accepted(self, annulus_coarse):
        con = asm.normal_trace_constraint(annulus_coarse, [-1.5, 3.0])
        b = annulus_coarse.n_vertices  # spot-check nodal values on each circle
        outer = np.nonzero(annulus_coarse.node_is_boundary
                           & (annulus_coarse.node_component == 0))[0]
        idx = np.searchsorted(con.fixed // 2, outer)
        assert np.allclose(con.fixed_values[idx], -1.5)

    def test_nonzero_total_flux_rejected(self, annulus_coarse):
        with pytest.raises(CompatibilityError):
            asm.normal_trace_constraint(annulus_coarse, [1.0, 1.0])

    def test_homogeneous_constraint(self, annulus_coarse):
        con = asm.normal_trace_constraint(annulus_coarse, [0.0, 0.0])
        assert np.all(con.fixed_values == 0.0)
        assert len(con.fixed) + len(con.free) == 2 * annulus_coarse.n_p2_nodes
        assert len(np.intersect1d(con.fixed, con.free)) == 0

    def test_rotation_round_trip(self, annulus_coarse):
        Q = asm.normal_trace_constraint(annulus_coarse, [0.0, 0.0]).Q
        rng = np.random.default_rng(1)
        u = rng.standard_normal(Q.shape[0])
        assert np.allclose(Q.T @ (Q @ u), u, atol=1e-14 * np.linalg.norm(u))
        I = (Q @ Q.T) - sp.eye(Q.shape[0])
        assert spla.norm(I) < 1e-13

    def test_normal_trace_exact_at_nodes(self, annulus_coarse):
        mesh = annulus_coarse
        con = asm.normal_trace_constraint(mesh, [-1.5, 3.0])
        u = con.expand(np.zeros(len(con.free)))
        vals = u.reshape(-1, 2)
        for node in con.fixed // 2:
            un = vals[node] @ mesh.node_normal[node]
            expected = -1.5 if mesh.node_component[node] == 0 else 3.0
            assert un == pytest.approx(expected, abs=1e-13)


class TestDeterminism:
    def test_triangle_order_invariance(self, annulus_coarse):
        mesh = annulus_coarse
        A1 = asm.assemble_viscous(mesh, nu=1.0)
        perm = np.random.default_rng(2).permutation(len(mesh.triangles))
        import copy
        shuffled = copy.copy(mesh)
        shuffled.triangles = mesh.triangles[perm]
        shuffled.tri_edges = mesh.tri_edges[perm]
        A2 = asm.assemble_viscous(shuffled, nu=1.0)
        diff = spla.norm(A1 - A2) / spla.norm(A1)
        assert diff < 1e-13

    def test_repeat_assembly_bitwise(self, annulus_coarse):
        A1 = asm.assemble_viscous(annulus_coarse, nu=1.0)
        A2 = asm.assemble_viscous(annulus_coarse, nu=1.0)
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
        from slipflow import analysis, concurrency, validation as val
        from slipflow.quadrature import triangle_rule
        monkeypatch.setattr(concurrency, "usable_cpus", lambda: 1)     # one process
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        calls = self._count_geometry(monkeypatch)
        report = analysis.audit(mesh.domain, val.hamel(0.0).data, mesh=mesh)
        assert report.theorem_small_flux["evaluable"]
        # once at the assembly rule, once at the error-norm rule (not kept)
        assert calls == [len(triangle_rule(asm.VOLUME_DEGREE)[0]),
                         len(triangle_rule(asm.ERROR_DEGREE)[0])]

    def test_audit_derives_geometry_once_before_the_fork(self, monkeypatch):
        # the worker reuses the caller's assembly-rule geometry and derives
        # the error-norm rule of the harmonic part itself
        from slipflow import analysis, concurrency, validation as val
        from slipflow.quadrature import triangle_rule
        monkeypatch.setattr(concurrency, "usable_cpus", lambda: 2)
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        calls = self._count_geometry(monkeypatch)
        report = analysis.audit(mesh.domain, val.hamel(0.0).data, mesh=mesh)
        assert report.theorem_small_flux["evaluable"]
        assert calls == [len(triangle_rule(asm.VOLUME_DEGREE)[0])]

    def test_cached_arrays_reject_writes(self):
        import copy
        mesh = sf.mesh_annulus(1.0, 2.0, 4, 16)
        ctx = asm.volume_context(mesh)
        bq = asm.boundary_quadrature(mesh)
        assert asm.volume_context(mesh) is ctx
        assert asm.boundary_quadrature(mesh) is bq
        fields = list(vars(ctx).values()) + list(vars(bq).values())
        # besides read-only arrays, each holds only its (immutable) counts
        assert [f for f in fields if not isinstance(f, np.ndarray)] == \
            [mesh.n_p2_nodes, mesh.n_vertices] * 2 + [mesh.domain.n_components]
        for arr in fields:
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr[...] = 0
        # replacing a geometry array derives a new context
        moved = copy.copy(mesh)
        moved.edge_nodes = mesh.edge_nodes.copy()
        assert asm.volume_context(moved) is not ctx
        assert asm.volume_context(mesh) is ctx

    def test_non_finite_volume_force_rejected(self, annulus_coarse):
        with pytest.raises(DataError):
            asm.load_volume(annulus_coarse,
                            lambda x: np.column_stack([np.full(len(x), np.nan), x[:, 0]]))
