import numpy as np
import pytest

import slipflow as sf
from slipflow import assembly as asm
from slipflow import extensions as ext
from slipflow import norms
from slipflow.errors import DataError

import oracles


HAMEL_A = [-1.5, 3.0]


def potential_velocity(x):
    r2 = x[:, 0] ** 2 + x[:, 1] ** 2
    return -3.0 * x / r2[:, None]


class TestSolenoidalExtension:
    def test_hamel_extension_is_radial(self, annulus_medium):
        e = ext.solenoidal_extension(annulus_medium, HAMEL_A)
        err = norms.velocity_error_l2(annulus_medium, e.coefficients, potential_velocity)
        assert err < 3e-3
        assert e.fluxes == pytest.approx([6 * np.pi], rel=1e-10)

    def test_zero_datum(self, annulus_coarse):
        e = ext.solenoidal_extension(annulus_coarse, [0.0, 0.0])
        assert np.max(np.abs(e.coefficients)) < 1e-12

    def test_cos_theta_on_disk(self):
        from slipflow.geometry import Circle, DomainSpec
        disk = DomainSpec([Circle((0.0, 0.0), 1.0)])
        mesh = sf.mesh_disk_with_holes(disk, 0.1)
        a = lambda t, x: np.cos(2 * np.pi * np.asarray(t))
        e = ext.solenoidal_extension(mesh, [a])
        const = lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))])
        assert norms.velocity_error_l2(mesh, e.coefficients, const) < 5e-3

    def test_weak_div_residual_shrinks(self):
        resid = []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            e = ext.solenoidal_extension(mesh, HAMEL_A)
            B = asm.assemble_divergence(mesh)
            resid.append(np.linalg.norm(B @ e.coefficients))
        assert resid[1] < resid[0] / 2.0


class TestHarmonicBasis:
    def test_annulus_single_field(self, annulus_medium):
        hb = ext.harmonic_basis(annulus_medium)
        assert hb.dimension == 1
        # alpha = 1/||grad q1||, with ||grad q1||^2 = 2 pi / ln 2
        assert hb.alpha[0, 0] == pytest.approx(1.0 / np.sqrt(2 * np.pi / np.log(2)),
                                               rel=1e-3)
        gram = hb.psi[0] @ (hb.mass @ hb.psi[0])
        assert gram == pytest.approx(1.0, abs=1e-8)
        # direction is radial: e_r / (r ln 2) up to sign and normalization
        coords = annulus_medium.p2_coords()
        g = hb.gradients[0].reshape(-1, 2)
        radial = coords / (coords[:, 0] ** 2 + coords[:, 1] ** 2)[:, None]
        cos = (g * radial).sum() / (np.linalg.norm(g) * np.linalg.norm(radial))
        assert abs(cos) > 0.999

    def test_gradients_div_and_curl_free(self):
        from slipflow.analysis import vorticity
        from slipflow.linear_solvers import FlowState
        div_resid, curl_resid = [], []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            hb = ext.harmonic_basis(mesh)
            B = asm.assemble_divergence(mesh)
            div_resid.append(np.linalg.norm(B @ hb.gradients[0]))
            fs = FlowState(mesh=mesh, nu=1.0, velocity=hb.gradients[0],
                           pressure=np.zeros(mesh.n_vertices), metadata={})
            om = vorticity(fs)
            interior = ~mesh.node_is_boundary
            curl_resid.append(float(np.max(np.abs(om[interior]))))
        assert div_resid[1] < div_resid[0] / 2
        assert curl_resid[1] < curl_resid[0] / 2

    def test_simply_connected_empty_basis(self):
        from slipflow.geometry import Circle, DomainSpec
        disk = DomainSpec([Circle((0.0, 0.0), 1.0)])
        mesh = sf.mesh_disk_with_holes(disk, 0.15)
        hb = ext.harmonic_basis(mesh)
        assert hb.dimension == 0
        h = ext.harmonic_part(hb, [])
        assert np.all(h == 0.0)


class TestHarmonicPart:
    def test_zero_fluxes_zero_part(self, annulus_coarse):
        hb = ext.harmonic_basis(annulus_coarse)
        h = ext.harmonic_part(hb, [0.0])
        assert np.linalg.norm(h) == 0.0

    def test_hamel_fluxes_give_radial_field(self, annulus_medium):
        hb = ext.harmonic_basis(annulus_medium)
        h = ext.harmonic_part(hb, [6 * np.pi])
        assert norms.velocity_error_l2(annulus_medium, h, potential_velocity) < 3e-3

    def test_linearity(self, annulus_coarse):
        hb = ext.harmonic_basis(annulus_coarse)
        h1 = ext.harmonic_part(hb, [2.0])
        h3 = ext.harmonic_part(hb, [6.0])
        assert np.allclose(h3, 3.0 * h1, atol=1e-13 * np.max(np.abs(h3)))

    def test_wrong_flux_count(self, annulus_coarse):
        hb = ext.harmonic_basis(annulus_coarse)
        with pytest.raises(DataError):
            ext.harmonic_part(hb, [1.0, 2.0])


class TestExtensionIndependence:
    def test_three_routes_agree_and_converge(self, hamel_family):
        """Flux formula vs projections of two different extensions."""
        meshes = hamel_family["meshes"][:2]
        data = hamel_family["solutions"][0.0].data
        gaps_ab, gaps_ac = [], []
        for k, mesh in enumerate(meshes):
            hb = ext.harmonic_basis(mesh)
            h_formula = ext.harmonic_part(hb, [6 * np.pi])
            neumann = ext.solenoidal_extension(mesh, HAMEL_A)
            h_proj = hb.project(neumann.coefficients)
            stokes_flow = hamel_family["flows"][0.0][k]["flow"]
            h_stokes = hb.project(stokes_flow.velocity)
            scale = oracles.velocity_l2(mesh, h_formula)
            gaps_ab.append(oracles.velocity_l2(mesh, h_formula - h_proj) / scale)
            gaps_ac.append(oracles.velocity_l2(mesh, h_formula - h_stokes) / scale)
        assert gaps_ab[1] < gaps_ab[0] / 2.5
        assert gaps_ac[1] < gaps_ac[0] / 2.5

    def test_decomposition_orthogonality(self, annulus_medium):
        # the non-harmonic remainder of the split is L2-orthogonal to the basis
        hb = ext.harmonic_basis(annulus_medium)
        e = ext.solenoidal_extension(annulus_medium, HAMEL_A)
        resid = e.coefficients - hb.project(e.coefficients)
        scale = oracles.velocity_l2(annulus_medium, e.coefficients)
        for psi in hb.psi:
            assert abs(resid @ (hb.mass @ psi)) < 1e-8 * max(scale, 1.0)
        # and the flux-formula part converges to the projection part
        gaps = []
        for n in (8, 16):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            hb = ext.harmonic_basis(mesh)
            e = ext.solenoidal_extension(mesh, HAMEL_A)
            h = ext.harmonic_part(hb, e.fluxes)
            gaps.append(oracles.velocity_l2(mesh, h - hb.project(e.coefficients)))
        assert gaps[1] < gaps[0] / 2.5
