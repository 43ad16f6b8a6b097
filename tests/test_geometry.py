import numpy as np
import pytest

from slipflow import geometry
from slipflow.errors import GeometryError


def frame(domain, component, t):
    """(point, n, tau, kappa) of the boundary frame at one curve parameter."""
    g, n, tau, kappa = geometry.frames_at(domain, component, [t])
    return g[0], n[0], tau[0], float(kappa[0])


def arclength_integral(domain, component, integrand):
    """Integral of integrand(points) over one component by the exact-curve rule."""
    _, points, w_ds = geometry.curve_rule(domain.curves[component])
    return float(np.sum(w_ds * integrand(points)))


def circle_domain(r_out=2.0, r_in=1.0, center=(0.0, 0.0)):
    return geometry.DomainSpec(
        [geometry.Circle(center, r_out), geometry.Circle(center, r_in)])


class TestFrames:
    def test_outer_circle_curvature(self, annulus_domain):
        for t in (0.0, 0.13, 0.5, 0.77):
            _, _, _, kappa = frame(annulus_domain, 0, t)
            assert kappa == pytest.approx(-0.5, abs=1e-12)

    def test_hole_curvature(self, annulus_domain):
        for t in (0.0, 0.3, 0.9):
            _, _, _, kappa = frame(annulus_domain, 1, t)
            assert kappa == pytest.approx(1.0, abs=1e-12)

    def test_straight_segment_zero_curvature(self):
        # stadium: long straight sides sampled densely, semicircular caps
        xs = np.linspace(-3, 3, 13)
        cap = np.linspace(-np.pi / 2, np.pi / 2, 7)[1:-1]
        bottom = np.column_stack([xs, np.full_like(xs, -1.0)])
        right = np.column_stack([3 + np.cos(cap), np.sin(cap)])
        top = np.column_stack([xs[::-1], np.full_like(xs, 1.0)])
        left = np.column_stack([-3 - np.cos(cap), np.sin(cap)])[::-1]
        stadium = geometry.SplineCurve(np.vstack([bottom, right, top, left]))
        dom = geometry.DomainSpec([stadium, geometry.Circle((0, 0), 0.4)])
        # parameter of the middle of the bottom straight (control point 6 of 42)
        t_mid = 6.0 / len(stadium.control_points)
        _, n, _, kappa = frame(dom, 0, t_mid)
        # cubic-spline smoothing leaks a little cap curvature into the side
        assert abs(kappa) < 1e-3
        assert n == pytest.approx((0.0, -1.0), abs=1e-9)

    def test_frame_orthonormal_and_weingarten(self, annulus_domain):
        rng = np.random.default_rng(0)
        for comp in (0, 1):
            for t in rng.uniform(0, 1, 8):
                _, n, tau, kappa = frame(annulus_domain, comp, t)
                W = kappa * np.outer(tau, tau)      # the Weingarten map
                assert np.hypot(*n) == pytest.approx(1.0, abs=1e-12)
                assert np.hypot(*tau) == pytest.approx(1.0, abs=1e-12)
                assert abs(n @ tau) < 1e-12
                assert tau == pytest.approx((n[1], -n[0]))
                assert np.allclose(W @ n, 0.0, atol=1e-14)
                assert np.allclose(W, W.T)
                eigs = np.sort(np.linalg.eigvalsh(W))
                assert np.allclose(sorted([kappa, 0.0]), eigs, atol=1e-12)
                u = rng.standard_normal(2)
                assert abs((W @ u) @ n) < 1e-12

    def test_normals_point_outward(self, annulus_domain):
        point, n, _, _ = frame(annulus_domain, 0, 0.2)
        assert n @ point > 0  # away from the fluid
        point, n, _, _ = frame(annulus_domain, 1, 0.2)
        assert n @ point < 0  # into the hole

    def test_curvature_orientation_invariance(self):
        t = np.linspace(0, 2 * np.pi, 33)[:-1]
        pts = np.column_stack([2 * np.cos(t), 2 * np.sin(t)])
        ccw = geometry.SplineCurve(pts)
        cw = geometry.SplineCurve(pts[::-1])
        hole = geometry.Circle((0, 0), 0.5)
        for curve in (ccw, cw):
            dom = geometry.DomainSpec([curve, hole])
            _, _, _, kappa = geometry.frames_at(dom, 0, np.linspace(0, 1, 64))
            assert np.allclose(kappa, -0.5, atol=2e-3)  # spline approximation
        dom1 = geometry.DomainSpec([ccw, hole])
        dom2 = geometry.DomainSpec([cw, hole])
        pts_probe = ccw.point(np.linspace(0, 1, 16, endpoint=False))
        t1, _ = ccw.project(pts_probe)
        t2, _ = cw.project(pts_probe)
        _, _, _, k1 = geometry.frames_at(dom1, 0, t1)
        _, _, _, k2 = geometry.frames_at(dom2, 0, t2)
        assert np.allclose(k1, k2, atol=1e-10)

    def test_degenerate_component_index(self, annulus_domain):
        with pytest.raises(GeometryError):
            geometry.frames_at(annulus_domain, 5, [0.0])


class TestBoundaryIntegral:
    def test_hamel_fluxes(self, annulus_domain):
        outer = arclength_integral(annulus_domain, 0, lambda x: -1.5)
        inner = arclength_integral(annulus_domain, 1, lambda x: 3.0)
        assert outer == pytest.approx(-6 * np.pi, rel=1e-12)
        assert inner == pytest.approx(6 * np.pi, rel=1e-12)
        assert outer + inner == pytest.approx(0.0, abs=1e-10)
        # the same fluxes straight from the exact-curve rule
        for comp, a, expected in ((0, -1.5, -6 * np.pi), (1, 3.0, 6 * np.pi)):
            t, pts, w_ds = geometry.curve_rule(annulus_domain.curves[comp])
            assert len(t) == len(pts) == len(w_ds) == 128
            assert np.sum(w_ds * a) == pytest.approx(expected, rel=1e-12)

    def test_zero_integrand(self, annulus_domain):
        assert arclength_integral(annulus_domain, 0, lambda x: 0.0) == 0.0

    def test_circumference(self, annulus_domain):
        val = arclength_integral(annulus_domain, 0, lambda x: 1.0)
        assert val == pytest.approx(4 * np.pi, rel=1e-12)

    def test_polynomial_in_angle_exact(self, annulus_domain):
        # cos^2(theta) has degree 2 in angle; exact value pi * R
        val = arclength_integral(annulus_domain, 0, lambda x: (x[:, 0] / 2.0) ** 2)
        assert val == pytest.approx(2 * np.pi, rel=1e-13)


class TestSymmetry:
    def test_annulus(self, annulus_domain):
        info = geometry.classify_symmetry(annulus_domain)
        assert info.admissible_x1
        assert info.circularly_symmetric == pytest.approx((0.0, 0.0))

    def test_shifted_annulus(self):
        dom = circle_domain(center=(5.0, 0.0))
        info = geometry.classify_symmetry(dom)
        assert info.admissible_x1
        assert info.circularly_symmetric == pytest.approx((5.0, 0.0))

    def test_off_axis_hole(self):
        dom = geometry.DomainSpec(
            [geometry.Circle((0, 0), 2.0), geometry.Circle((0.3, 0.4), 0.5)])
        info = geometry.classify_symmetry(dom)
        assert not info.admissible_x1
        assert info.circularly_symmetric is None

    def test_on_axis_eccentric_hole_admissible_not_circular(self):
        dom = geometry.DomainSpec(
            [geometry.Circle((0, 0), 2.0), geometry.Circle((0.6, 0.0), 0.5)])
        info = geometry.classify_symmetry(dom)
        assert info.admissible_x1
        assert info.circularly_symmetric is None

    def test_component_missing_axis_not_admissible(self):
        # hole strictly above the axis: mirror symmetry ruined
        dom = geometry.DomainSpec(
            [geometry.Circle((0, 0), 3.0), geometry.Circle((0.0, 1.5), 0.4)])
        info = geometry.classify_symmetry(dom)
        assert not info.admissible_x1


class TestDomainValidity:
    def test_hole_outside_rejected(self):
        with pytest.raises(GeometryError):
            geometry.DomainSpec(
                [geometry.Circle((0, 0), 1.0), geometry.Circle((5, 0), 0.5)])

    def test_overlapping_holes_rejected(self):
        with pytest.raises(GeometryError):
            geometry.DomainSpec([
                geometry.Circle((0, 0), 3.0),
                geometry.Circle((0.0, 0), 0.6),
                geometry.Circle((0.5, 0), 0.6)])

    def test_area(self, annulus_domain):
        assert annulus_domain.area() == pytest.approx(3 * np.pi, rel=1e-6)

    def test_projection_of_points_on_curve(self):
        curve = geometry.SplineCurve(np.column_stack(
            [2 * np.cos(np.linspace(0, 2 * np.pi, 33)[:-1]),
             np.sin(np.linspace(0, 2 * np.pi, 33)[:-1])]))
        probe = curve.point(np.linspace(0.05, 0.95, 11))
        _, dist = curve.project(probe)
        assert dist.max() < 1e-11 * curve.diameter

    def test_spline_needs_enough_points(self):
        with pytest.raises(GeometryError):
            geometry.SplineCurve([[0, 0], [1, 0], [0, 1]])

    @pytest.mark.parametrize("center, radius", [
        ((0.0, 0.0), np.nan), ((0.0, 0.0), np.inf), ((np.nan, 0.0), 1.0), ((0.0, np.inf), 1.0),
    ], ids=["nan-radius", "inf-radius", "nan-center", "inf-center"])
    def test_circle_needs_finite_input(self, center, radius):
        with pytest.raises(GeometryError, match="finite"):
            geometry.Circle(center, radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_spline_needs_finite_points(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            geometry.SplineCurve([[1, 0], [0, 1], [-1, bad], [0, -1]])

    def test_min_distance_matches_the_broadcast_reference(self):
        # sample sets as DomainSpec validation takes them: 256 points per curve
        t = np.linspace(0.0, 1.0, 256, endpoint=False)
        curves = [geometry.Circle((0, 0), 3.0), geometry.Circle((-1.2, 0.1), 0.6),
                  geometry.Circle((1.3, -0.2), 0.5)]
        rng = np.random.default_rng(0)
        samples = [c.point(t) for c in curves] + [rng.standard_normal((256, 2))]
        for a in samples:
            for b in samples:
                ref = float(np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).min()))
                assert geometry._min_distance(a, b) == ref
