import numpy as np
import pytest
from scipy.sparse import csr_matrix

import slipflow as sf
from slipflow import elements, geometry, meshing
from slipflow.errors import ConfigurationError, MeshError, MeshImportError
from slipflow.quadrature import triangle_rule


def curved_area(mesh):
    pts, w = triangle_rule(6)
    _, det, _ = elements.mapped_jacobians(mesh.triangle_coords(), pts)
    return float((det * w[None, :]).sum())


class TestAnnulus:
    def test_structured_counts(self):
        mesh = sf.mesh_annulus(1, 2, 4, 16)
        assert mesh.n_vertices == 5 * 16
        assert len(mesh.triangles) == 2 * 4 * 16
        for comp, expected in ((0, 16), (1, 16)):
            rows = mesh.boundary_edges[mesh.boundary_edges["component"] == comp]
            assert len(rows) == expected

    def test_refinement_halves_h(self):
        h = [sf.mesh_annulus(1, 2, n, 2 * n).max_diameter() for n in (8, 16, 32)]
        for a, b in zip(h, h[1:]):
            assert a / b == pytest.approx(2.0, rel=0.05)

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            sf.mesh_annulus(2, 1, 4, 16)
        with pytest.raises(ConfigurationError):
            sf.mesh_annulus(1, 2, 1, 16)
        with pytest.raises(ConfigurationError):
            sf.mesh_annulus(1, 2, 4, 4)

    def test_invariants(self, annulus_coarse):
        annulus_coarse.validate()
        v = annulus_coarse.vertices[annulus_coarse.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)

    def test_area_error_decreases(self):
        errs = []
        for n in (8, 16, 32):
            mesh = sf.mesh_annulus(1, 2, n, 2 * n)
            errs.append(abs(curved_area(mesh) - 3 * np.pi))
        assert errs[0] > errs[1] > errs[2]

    def test_boundary_frames_point_outward(self, annulus_coarse):
        mesh = annulus_coarse
        centroid_r = 1.5
        coords = mesh.p2_coords()
        for node in np.nonzero(mesh.node_is_boundary)[0]:
            x = coords[node]
            n = mesh.node_normal[node]
            inward = x * (1.0 - centroid_r / np.hypot(*x))
            assert n @ inward > 0  # normal agrees with leaving the interior


def _two_hole_domain(c1=(-1.2, 0.0), c2=(1.3, 0.0)):
    return geometry.DomainSpec([geometry.Circle((0, 0), 3.0), geometry.Circle(c1, 0.6),
                                geometry.Circle(c2, 0.5)])


_SWEEP_H = (0.1, 0.15, 0.2, 0.25, 0.3)


def _sweep():
    """The benchmark's two-hole domain with one or both hole centres moved
    by +-0.3 or +-0.5, each at two target_h from 0.1 to 0.3 (capped at a
    third of the narrowest gap), then an annulus and a disk."""
    cases = []
    for s in (-0.5, -0.3, 0.3, 0.5):
        for d1x, d1y, d2x, d2y in ((s, 0, 0, 0), (0, s, 0, 0), (0, 0, s, 0), (0, 0, 0, s),
                                   (0, s, 0, -s)):
            c1, c2 = np.array([-1.2 + d1x, d1y]), np.array([1.3 + d2x, d2y])
            gap = min(3.0 - np.hypot(*c1) - 0.6, 3.0 - np.hypot(*c2) - 0.5,
                      np.hypot(*(c1 - c2)) - 1.1)
            k = len(cases) // 2
            for h in (_SWEEP_H[k % 5], _SWEEP_H[(k + 2) % 5]):
                h = min(h, gap / 3.0)
                cases.append(pytest.param(_two_hole_domain(c1, c2), h,
                                          id=f"{c1[0]:g},{c1[1]:g};{c2[0]:g},{c2[1]:g}@{h:.3g}"))
    cases.append(pytest.param(geometry.DomainSpec([geometry.Circle((0, 0), 2.0),
                                                   geometry.Circle((0, 0), 1.0)]), 0.2,
                              id="annulus@0.2"))
    cases.append(pytest.param(geometry.DomainSpec([geometry.Circle((0, 0), 1.0)]), 0.1,
                              id="disk@0.1"))
    return cases


class TestDiskWithHoles:
    def test_annulus_area(self, annulus_domain):
        mesh = sf.mesh_disk_with_holes(annulus_domain, 0.2)
        mesh.validate()
        h = mesh.max_diameter()
        assert curved_area(mesh) == pytest.approx(3 * np.pi, abs=0.02 * h * 3 * np.pi)

    def test_disk_area(self):
        disk = geometry.DomainSpec([geometry.Circle((0, 0), 1.0)])
        mesh = sf.mesh_disk_with_holes(disk, 0.1)
        assert curved_area(mesh) == pytest.approx(np.pi, rel=0.01)
        assert mesh.min_angle() >= 20.0

    def test_close_holes_rejected(self):
        dom = geometry.DomainSpec([
            geometry.Circle((0, 0), 3.0),
            geometry.Circle((-0.7045, 0), 0.5),
            geometry.Circle((0.7055, 0), 0.9)])
        with pytest.raises(MeshError):
            sf.mesh_disk_with_holes(dom, 0.1)

    def test_two_delaunay_calls_per_mesh(self, monkeypatch):
        # one triangulation to smooth on, one of the smoothed points
        import scipy.spatial
        calls = []

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return delaunay(points, *args, **kwargs)

        delaunay = scipy.spatial.Delaunay
        monkeypatch.setattr(scipy.spatial, "Delaunay", counted)
        for rounds in (meshing.SMOOTH_ROUNDS, 1):
            monkeypatch.setattr(meshing, "SMOOTH_ROUNDS", rounds)
            calls.clear()
            sf.mesh_disk_with_holes(_two_hole_domain(), 0.15)
            assert len(calls) == 2

    @pytest.mark.parametrize("domain, target_h", _sweep())
    def test_quality_over_hole_layouts(self, domain, target_h):
        mesh = sf.mesh_disk_with_holes(domain, target_h)
        mesh.validate()
        assert mesh.min_angle() >= 20.0

    def test_non_circle_rejected(self):
        t = np.linspace(0, 2 * np.pi, 33)[:-1]
        oval = geometry.SplineCurve(np.column_stack([2 * np.cos(t), np.sin(t)]))
        dom = geometry.DomainSpec([oval])
        with pytest.raises(ConfigurationError):
            sf.mesh_disk_with_holes(dom, 0.1)


class TestImportExport:
    def test_round_trip(self, tmp_path, annulus_coarse):
        base = str(tmp_path / "mesh")
        meshing.write_mesh(annulus_coarse, base)
        again = meshing.import_mesh(base + ".node", base + ".ele",
                                    annulus_coarse.domain)
        assert np.array_equal(again.triangles, annulus_coarse.triangles)
        assert np.allclose(again.vertices, annulus_coarse.vertices, atol=1e-12)
        comps = sorted(set(again.boundary_edges["component"].tolist()))
        assert comps == [0, 1]

    def test_clockwise_triangle_reoriented(self, tmp_path, annulus_domain):
        mesh = sf.mesh_annulus(1, 2, 4, 16)
        base = str(tmp_path / "cw")
        meshing.write_mesh(mesh, base)
        lines = open(base + ".ele").read().splitlines()
        head, first = lines[0], lines[1].split()
        # swap two vertices of triangle 0 to make it clockwise
        lines[1] = " ".join([first[0], first[1], first[3], first[2]])
        with open(base + ".ele", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        again = meshing.import_mesh(base + ".node", base + ".ele", annulus_domain)
        v = again.vertices[again.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)

    def test_off_curve_vertex_rejected(self, tmp_path, annulus_domain):
        mesh = sf.mesh_annulus(1, 2, 4, 16)
        base = str(tmp_path / "bad")
        verts = mesh.vertices.copy()
        # push one inner-boundary vertex half an edge length off the circle
        bnode = np.nonzero(mesh.node_is_boundary[:mesh.n_vertices]
                           & (mesh.node_component[:mesh.n_vertices] == 1))[0][0]
        edge_len = 2 * np.pi / 16
        verts[bnode] *= 1.0 - 0.5 * edge_len
        bad = meshing.Mesh(annulus_domain, verts, mesh.triangles.copy())
        with pytest.raises(MeshImportError):
            meshing._tag_boundary_by_projection(bad)


class TestNestedRefinement:
    def test_counts_and_conformity(self, annulus_coarse):
        fine = sf.refine_nested(annulus_coarse)
        assert len(fine.triangles) == 4 * len(annulus_coarse.triangles)
        fine.validate()

    def test_geometry_preserved_exactly(self, annulus_coarse):
        fine = sf.refine_nested(annulus_coarse)
        assert curved_area(fine) == pytest.approx(curved_area(annulus_coarse),
                                                  abs=1e-12)

    def test_prolongation_reproduces_quadratics(self, annulus_coarse):
        fine = sf.refine_nested(annulus_coarse)
        coords = annulus_coarse.p2_coords()
        f = 1.0 + 2 * coords[:, 0] - coords[:, 1]
        ff = fine.prolongation @ f
        fc = fine.p2_coords()
        assert np.allclose(ff, 1.0 + 2 * fc[:, 0] - fc[:, 1], atol=1e-12)


# -- reference walks: the per-edge loops the Mesh boundary table replaced ----

def _edge_to_triangles(mesh):
    out = [[] for _ in range(len(mesh.edges))]
    for tri in range(len(mesh.triangles)):
        for loc in range(3):
            out[mesh.tri_edges[tri, loc]].append((tri, loc))
    return out


def _unwrap(t0, t1):
    while t1 - t0 > 0.5:
        t1 -= 1.0
    while t1 - t0 < -0.5:
        t1 += 1.0
    return t0, t1


def _ring_walk(mesh, n_radial, n_angular):
    """Boundary rows (edge, tri, local, component, t0, t1), ring by ring."""
    def vid(i, j):
        return i * n_angular + (j % n_angular)
    edge_lookup = {tuple(e): k for k, e in enumerate(np.sort(mesh.edges, axis=1).tolist())}
    tri_of_edge = _edge_to_triangles(mesh)
    rows = []
    for comp, ring in ((0, n_radial), (1, 0)):
        for j in range(n_angular):
            va, vb = vid(ring, j), vid(ring, j + 1)
            e = edge_lookup[tuple(sorted((va, vb)))]
            (tri, loc), = tri_of_edge[e]
            a = mesh.triangles[tri][loc]
            t_a = (j if a == va else j + 1) / n_angular
            t_b = (j + 1 if a == va else j) / n_angular
            rows.append((e, tri, loc, comp, *_unwrap(t_a, t_b)))
    return rows


def _projection_walk(mesh):
    """Boundary rows by projecting each boundary edge on every curve."""
    tri_of_edge = _edge_to_triangles(mesh)
    rows = []
    for e in range(len(mesh.edges)):
        if len(tri_of_edge[e]) != 1:
            continue
        (tri, loc), = tri_of_edge[e]
        a, b = mesh.triangles[tri][loc], mesh.triangles[tri][(loc + 1) % 3]
        best = None
        for comp, curve in enumerate(mesh.domain.curves):
            (ta, tb), dist = curve.project(np.array([mesh.vertices[a], mesh.vertices[b]]))
            if best is None or dist.max() < best[0]:
                best = (dist.max(), comp, ta, tb)
        _, comp, ta, tb = best
        rows.append((e, tri, loc, comp, *_unwrap(ta, tb)))
    return rows


def _attached(mesh, rows, snapped=True):
    """boundary_edges, node_* and edge_nodes as the per-edge loop set them."""
    nv, n = mesh.n_vertices, mesh.n_p2_nodes
    out = {"boundary_edges": np.array(rows, dtype=[
               ("edge", np.int64), ("tri", np.int64), ("local", np.int64),
               ("component", np.int64), ("t0", float), ("t1", float)]),
           "node_is_boundary": np.zeros(n, bool),
           "node_component": np.full(n, -1, np.int64),
           "node_param": np.zeros(n),
           "edge_nodes": 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])}
    for e, tri, loc, comp, t0, t1 in rows:
        a, b = mesh.triangles[tri][loc], mesh.triangles[tri][(loc + 1) % 3]
        for node, t in ((a, t0), (b, t1), (nv + e, 0.5 * (t0 + t1))):
            out["node_is_boundary"][node] = True
            out["node_component"][node] = comp
            out["node_param"][node] = t % 1.0
        if snapped:
            out["edge_nodes"][e] = mesh.domain.curves[comp].point(np.array([0.5 * (t0 + t1)]))[0]
    out["node_normal"], out["node_tangent"], out["node_kappa"] = (
        np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n))
    for comp in range(mesh.domain.n_components):
        sel = np.nonzero(out["node_is_boundary"] & (out["node_component"] == comp))[0]
        _, nrm, tau, kappa = geometry.frames_at(mesh.domain, comp, out["node_param"][sel])
        out["node_normal"][sel], out["node_tangent"][sel], out["node_kappa"][sel] = nrm, tau, kappa
    return out


def _smoothed(points, simplices, n_fixed):
    neighbor_sum = np.zeros_like(points)
    neighbor_cnt = np.zeros(len(points))
    for a, b in meshing._tri_edge_pairs(simplices):
        neighbor_sum[a] += points[b]
        neighbor_cnt[a] += 1
    ok = (np.arange(len(points)) >= n_fixed) & (neighbor_cnt > 0)
    out = points.copy()
    out[ok] = neighbor_sum[ok] / neighbor_cnt[ok, None]
    return out


_CHILD_EDGE_MID = {
    (0, 3): (0.25, 0.0), (3, 1): (0.75, 0.0), (1, 4): (0.75, 0.25), (4, 2): (0.25, 0.75),
    (2, 5): (0.0, 0.75), (5, 0): (0.0, 0.25),
    (3, 4): (0.5, 0.25), (4, 5): (0.25, 0.5), (5, 3): (0.25, 0.25)}


def _refined(mesh):
    """Arrays and prolongation of refine_nested, child by child."""
    nv = mesh.n_vertices
    old_tri_nodes = mesh.triangle_nodes()
    children = []
    for v0, v1, v2, m01, m12, m20 in old_tri_nodes:
        children.extend([(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)])
    fine = meshing.Mesh(mesh.domain, mesh.p2_coords(), np.array(children), snapped=False)
    coords = mesh.triangle_coords()
    edge_nodes = np.zeros((len(fine.edges), 2))
    placed = np.zeros(len(fine.edges), bool)
    prol = [(node, node, 1.0) for node in range(mesh.n_p2_nodes)]
    for child, tri in enumerate(fine.triangles):
        parent_nodes = list(old_tri_nodes[child // 4])
        for loc in range(3):
            e = fine.tri_edges[child, loc]
            if placed[e]:
                continue
            la, lb = parent_nodes.index(tri[loc]), parent_nodes.index(tri[(loc + 1) % 3])
            mid = _CHILD_EDGE_MID.get((la, lb)) or _CHILD_EDGE_MID[(lb, la)]
            shape = elements.p2_shape(np.array([mid]))[0]
            edge_nodes[e] = shape @ coords[child // 4]
            prol += [(fine.n_vertices + e, parent_nodes[l], shape[l]) for l in range(6)]
            placed[e] = True
    edge_lookup = {tuple(e): k for k, e in enumerate(np.sort(fine.edges, axis=1).tolist())}
    tri_of_edge = _edge_to_triangles(fine)
    rows = []
    for e_old, tri_old, loc, comp, t0, t1 in mesh.boundary_edges.tolist():
        a, b = mesh.triangles[tri_old][loc], mesh.triangles[tri_old][(loc + 1) % 3]
        tm = 0.5 * (t0 + t1)
        for x, y, ta, tb in ((a, nv + e_old, t0, tm), (nv + e_old, b, tm, t1)):
            e = edge_lookup[tuple(sorted((int(x), int(y))))]
            (tri, loc_new), = tri_of_edge[e]
            flip = fine.triangles[tri][loc_new] != x
            rows.append((e, tri, loc_new, comp, *((tb, ta) if flip else (ta, tb))))
    expected = _attached(fine, rows, snapped=False)
    expected["edge_nodes"] = edge_nodes
    expected["triangles"] = fine.triangles
    r, c, v = zip(*prol)
    return expected, csr_matrix((v, (r, c)), shape=(fine.n_p2_nodes, mesh.n_p2_nodes))


def _assert_bitwise(mesh, expected):
    for name, value in expected.items():
        got = getattr(mesh, name)
        assert got.dtype == value.dtype and got.shape == value.shape, name
        assert got.tobytes() == value.tobytes(), name


class TestBoundaryTable:
    def test_annulus_matches_ring_walk(self):
        mesh = sf.mesh_annulus(1, 2, 4, 16)
        ref = meshing.Mesh(mesh.domain, mesh.vertices, mesh.triangles.copy())
        _assert_bitwise(mesh, _attached(ref, _ring_walk(ref, 4, 16)))

    def test_disk_matches_projection_walk(self):
        mesh = sf.mesh_disk_with_holes(_two_hole_domain(), 0.15)
        ref = meshing.Mesh(mesh.domain, mesh.vertices, mesh.triangles.copy())
        _assert_bitwise(mesh, _attached(ref, _projection_walk(ref)))

    @pytest.mark.parametrize("make", [lambda: sf.mesh_annulus(1, 2, 20, 40),
                                      lambda: sf.mesh_disk_with_holes(_two_hole_domain(), 0.15)],
                             ids=["annulus", "disk"])
    def test_edges_match_row_unique(self, make):
        # the edge table as np.unique over the sorted (a, b) rows gives it
        mesh = make()
        t = mesh.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        uniq, inverse, counts = np.unique(np.sort(pairs, axis=1), axis=0,
                                          return_inverse=True, return_counts=True)
        _assert_bitwise(mesh, {"edges": uniq,
                               "tri_edges": inverse.reshape(3, len(t)).T,
                               "_edge_count": counts})

    def test_smoothing_matches_pair_loop(self):
        mesh = sf.mesh_disk_with_holes(_two_hole_domain(), 0.15)
        rng = np.random.default_rng(0)
        points = mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape)
        got = meshing._smooth(points, mesh.triangles, 100)
        assert got.tobytes() == _smoothed(points, mesh.triangles, 100).tobytes()

    @pytest.mark.parametrize("target_h", [0.3, 0.22, 0.15])
    def test_disk_mesh_unchanged_by_the_smoothing_sum(self, target_h, monkeypatch):
        # the two-hole meshes of the tests and the benchmark, smoothed by the
        # bincount sums and by the pair loop (the order np.add.at sums in)
        got = sf.mesh_disk_with_holes(_two_hole_domain(), target_h)
        monkeypatch.setattr(meshing, "_smooth", _smoothed)
        ref = sf.mesh_disk_with_holes(_two_hole_domain(), target_h)
        _assert_bitwise(got, {name: getattr(ref, name) for name in (
            "vertices", "triangles", "edges", "edge_nodes", "boundary_edges", "node_param")})

    def test_two_refinements_match_child_loop(self):
        mesh = sf.mesh_annulus(1, 2, 4, 16)
        for _ in range(2):
            expected, prolongation = _refined(mesh)
            mesh = sf.refine_nested(mesh)
            _assert_bitwise(mesh, expected)
            for name in ("indptr", "indices", "data"):
                assert (getattr(mesh.prolongation, name).tobytes()
                        == getattr(prolongation, name).tobytes()), name

    def test_untagged_boundary_edge_rejected(self):
        ann = sf.mesh_annulus(1, 2, 4, 16)
        disk = geometry.DomainSpec([ann.domain.curves[0]])
        mesh = meshing.Mesh(disk, ann.vertices, ann.triangles.copy())
        outer = ann.boundary_edges[ann.boundary_edges["component"] == 0]
        order = np.searchsorted(mesh.topo_boundary["edge"], outer["edge"])
        mesh._attach_boundary(order, outer["component"], outer["t0"], outer["t1"])
        assert mesh.boundary_loops_ok()
        with pytest.raises(MeshError, match="interior edge"):
            mesh.validate()

    def test_component_with_two_loops_rejected(self):
        # both rings of an annulus tagged as the single component of a disk
        ann = sf.mesh_annulus(1, 2, 4, 16)
        disk = geometry.DomainSpec([ann.domain.curves[0]])
        mesh = meshing.Mesh(disk, ann.vertices, ann.triangles.copy(), snapped=False)
        rows = ann.boundary_edges
        order = np.searchsorted(mesh.topo_boundary["edge"], rows["edge"])
        mesh._attach_boundary(order, np.zeros(len(rows), np.int64), rows["t0"], rows["t1"])
        assert not mesh.boundary_loops_ok()
        with pytest.raises(MeshError, match="one closed loop"):
            mesh.validate()
