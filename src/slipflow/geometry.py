"""Parametric boundary curves and multiply-connected planar domains.

A domain is an outer closed curve and N hole curves.  Frames carry the
unit outward normal n of the domain (pointing away from the fluid into
the exterior or into a hole), the tangent tau = (n2, -n1), and the
curvature kappa measured in the direction of n, so an outer circle of
radius R has kappa = -1/R and a circular hole of radius R has
kappa = +1/R.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .quadrature import interval_rule

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])  # v -> (-v2, v1)


class Curve:
    """Closed parametric curve over t in [0, 1)."""

    def point(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def second_derivative(self, t):
        raise NotImplementedError

    @property
    def diameter(self):
        pts = self.point(np.linspace(0.0, 1.0, 257))
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    @property
    def orientation(self):
        """+1 for counterclockwise parametrization, -1 for clockwise."""
        return 1.0 if self.enclosed_area() > 0.0 else -1.0

    def enclosed_area(self):
        """Signed area enclosed by the curve (shoelace integral)."""
        s, w = interval_rule(12)
        total = 0.0
        for k in range(32):
            t = (k + s) / 32.0
            g = self.point(t)
            dg = self.derivative(t)
            total += np.sum(w * (g[:, 0] * dg[:, 1] - g[:, 1] * dg[:, 0])) / 32.0
        return 0.5 * total

    def project(self, points):
        """Nearest-parameter projection; returns (t, distance) arrays."""
        points = np.atleast_2d(np.asarray(points, float))
        tgrid = np.linspace(0.0, 1.0, 1024, endpoint=False)
        sample = self.point(tgrid)
        d2 = ((points[:, None, :] - sample[None, :, :]) ** 2).sum(axis=2)
        t = tgrid[np.argmin(d2, axis=1)]
        for _ in range(30):
            g = self.point(t)
            dg = self.derivative(t)
            ddg = self.second_derivative(t)
            diff = g - points
            f1 = np.einsum("ij,ij->i", diff, dg)
            f2 = np.einsum("ij,ij->i", dg, dg) + np.einsum("ij,ij->i", diff, ddg)
            step = f1 / np.where(np.abs(f2) > 1e-300, f2, 1.0)
            t = (t - np.clip(step, -2e-3, 2e-3)) % 1.0
            if np.max(np.abs(step)) < 1e-15:
                break
        dist = np.hypot(*(self.point(t) - points).T)
        return t, dist

    def contains(self, points):
        """Winding-number test against a dense polyline of the curve."""
        points = np.atleast_2d(np.asarray(points, float))
        poly = self.point(np.linspace(0.0, 1.0, 720, endpoint=False))
        x, y = poly[:, 0], poly[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        px = points[:, 0][:, None]
        py = points[:, 1][:, None]
        cross1 = (y <= py) & (yn > py)
        cross2 = (y > py) & (yn <= py)
        slope = (px - x) * (yn - y) - (py - y) * (xn - x)
        wn = np.sum(cross1 & (slope > 0), axis=1) - np.sum(cross2 & (slope < 0), axis=1)
        return wn != 0

    def _check_closed_regular(self):
        d = self.diameter
        gap = np.hypot(*(self.point(np.array([0.0])) - self.point(np.array([1.0 - 1e-13])))[0])
        if gap > 1e-9 * d:
            raise GeometryError(f"curve endpoints do not coincide (gap {gap:.3e})")
        speeds = np.hypot(*self.derivative(np.linspace(0, 1, 513)).T)
        if speeds.min() <= 1e-14 * d:
            raise GeometryError("curve has a degenerate tangent")


class Circle(Curve):
    """Exact circle, parametrized counterclockwise from angle 0."""

    def __init__(self, center, radius):
        if not 0 < radius < np.inf:
            raise GeometryError(f"circle radius must be positive and finite, got {radius}")
        self.center = np.asarray(center, float)
        if not np.all(np.isfinite(self.center)):
            raise GeometryError(f"circle center must be finite, got {center}")
        self.radius = float(radius)

    def _angles(self, t):
        return 2.0 * np.pi * np.asarray(t, float)

    def point(self, t):
        a = self._angles(t)
        return self.center + self.radius * np.column_stack([np.cos(a), np.sin(a)])

    def derivative(self, t):
        a = self._angles(t)
        return 2.0 * np.pi * self.radius * np.column_stack([-np.sin(a), np.cos(a)])

    def second_derivative(self, t):
        a = self._angles(t)
        return -((2.0 * np.pi) ** 2) * self.radius * np.column_stack([np.cos(a), np.sin(a)])

    @property
    def diameter(self):
        return 2.0 * self.radius

    def enclosed_area(self):
        return np.pi * self.radius ** 2

    def project(self, points):
        points = np.atleast_2d(np.asarray(points, float))
        rel = points - self.center
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        t = (ang / (2.0 * np.pi)) % 1.0
        dist = np.abs(np.hypot(*rel.T) - self.radius)
        return t, dist

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, float))
        return np.hypot(*(points - self.center).T) < self.radius


class SplineCurve(Curve):
    """Closed periodic cubic spline through the given control points."""

    def __init__(self, control_points):
        from scipy.interpolate import CubicSpline  # loaded only by spline boundaries

        pts = np.asarray(control_points, float)
        if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[1] != 2:
            raise GeometryError("spline needs at least 4 control points in the plane")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("spline control points must be finite")
        if np.hypot(*(pts[0] - pts[-1])) < 1e-12:
            pts = pts[:-1]
        closed = np.vstack([pts, pts[:1]])
        t = np.linspace(0.0, 1.0, len(closed))
        self.control_points = pts
        self._spline = CubicSpline(t, closed, bc_type="periodic")
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)
        self._check_closed_regular()

    def point(self, t):
        return self._spline(np.asarray(t, float) % 1.0)

    def derivative(self, t):
        return self._d1(np.asarray(t, float) % 1.0)

    def second_derivative(self, t):
        return self._d2(np.asarray(t, float) % 1.0)


class DomainSpec:
    """Outer curve (index 0) plus N hole curves, with validity checks."""

    def __init__(self, curves, labels=None, check=True):
        if not curves:
            raise GeometryError("domain needs at least an outer curve")
        self.curves = list(curves)
        if labels is None:
            labels = [f"component{j}" for j in range(len(curves))]
        self.labels = list(labels)
        if len(self.labels) != len(self.curves):
            raise GeometryError("one label per curve required")
        if check:
            self._validate()

    @property
    def n_holes(self):
        return len(self.curves) - 1

    @property
    def n_components(self):
        return len(self.curves)

    @property
    def diameter(self):
        return self.curves[0].diameter

    def _validate(self):
        outer = self.curves[0]
        samples = [c.point(np.linspace(0.0, 1.0, 256, endpoint=False)) for c in self.curves]
        for j, hole in enumerate(self.curves[1:], start=1):
            inside = outer.contains(samples[j])
            if not inside.all():
                raise GeometryError(f"hole {j} is not inside the outer boundary")
            clearance = _min_distance(samples[j], samples[0])
            if clearance <= 0:
                raise GeometryError(f"hole {j} touches the outer boundary")
        for i in range(1, len(self.curves)):
            for j in range(i + 1, len(self.curves)):
                if self.curves[i].contains(samples[j]).any() or self.curves[j].contains(samples[i]).any():
                    raise GeometryError(f"holes {i} and {j} overlap")
                if _min_distance(samples[i], samples[j]) <= 0:
                    raise GeometryError(f"holes {i} and {j} touch")

    def area(self):
        total = abs(self.curves[0].enclosed_area())
        for hole in self.curves[1:]:
            total -= abs(hole.enclosed_area())
        return total

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, float))
        inside = self.curves[0].contains(points)
        for hole in self.curves[1:]:
            inside &= ~hole.contains(points)
        return inside


def _min_distance(a, b):
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    return float(np.sqrt((dx * dx + dy * dy).min()))


def frames_at(domain, component, t):
    """Vectorized frames: returns (points, n, tau, kappa) arrays for t[m]."""
    if component < 0 or component > domain.n_holes:
        raise GeometryError(f"component {component} out of range")
    curve = domain.curves[component]
    t = np.atleast_1d(np.asarray(t, float))
    g = curve.point(t)
    dg = curve.derivative(t)
    ddg = curve.second_derivative(t)
    speed = np.hypot(*dg.T)
    if np.any(speed < 1e-14 * curve.diameter):
        raise GeometryError("degenerate tangent at requested parameter")
    T = dg / speed[:, None]
    omega = curve.orientation
    rot_T = T @ _ROT90.T
    sign_role = 1.0 if component == 0 else -1.0
    n = -sign_role * omega * rot_T
    tau = np.column_stack([n[:, 1], -n[:, 0]])
    cross = dg[:, 0] * ddg[:, 1] - dg[:, 1] * ddg[:, 0]
    k_curve = cross / speed ** 3
    kappa = -sign_role * omega * k_curve
    return g, n, tau, kappa


CURVE_PANELS = 16
CURVE_POINTS = 8


def curve_rule(curve):
    """Composite Gauss-Legendre rule on the exact curve.

    CURVE_POINTS nodes on each of CURVE_PANELS parameter subintervals.
    Returns (t[m], points[m, 2], w_ds[m]): parameters, curve points and
    quadrature weights times the arclength element, so that
    sum(w_ds * f(t, points)) is the arclength integral of f.
    """
    s, w = interval_rule(CURVE_POINTS)
    t = ((np.arange(CURVE_PANELS)[:, None] + s[None, :]) / CURVE_PANELS).ravel()
    speed = np.hypot(*curve.derivative(t).T)
    return t, curve.point(t), np.tile(w, CURVE_PANELS) * speed / CURVE_PANELS


@dataclass
class SymmetryInfo:
    admissible_x1: bool
    circularly_symmetric: tuple | None


def classify_symmetry(domain):
    """Mirror symmetry about the x1-axis and circular symmetry detection."""
    tol = 1e-10 * domain.diameter
    admissible = True
    for curve in domain.curves:
        pts = curve.point(np.linspace(0.0, 1.0, 128, endpoint=False))
        mirrored = pts * np.array([1.0, -1.0])
        _, dist = curve.project(mirrored)
        if dist.max() > tol:
            admissible = False
            break
        if pts[:, 1].min() > tol or pts[:, 1].max() < -tol:
            admissible = False  # component does not meet the axis
            break

    center = _common_circle_center(domain, tol)
    return SymmetryInfo(admissible_x1=admissible, circularly_symmetric=center)


def _common_circle_center(domain, tol):
    centers = []
    for curve in domain.curves:
        if isinstance(curve, Circle):
            centers.append(curve.center)
            continue
        pts = curve.point(np.linspace(0.0, 1.0, 256, endpoint=False))
        c = pts.mean(axis=0)
        r = np.hypot(*(pts - c).T)
        if r.max() - r.min() > max(tol, 1e-12 * r.mean()):
            return None
        centers.append(c)
    centers = np.asarray(centers)
    if np.max(np.abs(centers - centers[0])) > max(tol, 1e-12):
        return None
    return tuple(centers[0])
