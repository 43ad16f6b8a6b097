"""Conforming triangulations with curved quadratic boundary edges.

Velocity nodes are the vertices plus one midside node per edge; midside
nodes of boundary edges are snapped onto the exact domain curve, so
boundary-ring triangles carry a curved quadratic geometry map.  Node ids
run 0..nv-1 for vertices and nv..nv+ne-1 for edge nodes.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import geometry
from .elements import P2_REFERENCE, p2_shape
from .errors import ConfigurationError, MeshError, MeshImportError
from .files import new_file, write_rows

FORMAT_VERSION = "slipflow-mesh-1"
SMOOTH_ROUNDS = 6  # Laplacian smoothing rounds of mesh_disk_with_holes


class Mesh:
    """Triangulation of a DomainSpec with boundary tags and frames."""

    def __init__(self, domain, vertices, triangles, snapped=True):
        self.domain = domain
        self.vertices = np.asarray(vertices, float)
        self.triangles = np.asarray(triangles, np.int64)
        self.snapped = snapped
        self._orient_ccw()
        self._build_edges()
        # filled by _attach_boundary (arrays indexed by P2 node id)
        self.edge_nodes = None
        self.boundary_edges = None
        self.node_is_boundary = None
        self.node_component = None
        self.node_param = None
        self.node_normal = None
        self.node_tangent = None
        self.node_kappa = None

    # -- construction ----------------------------------------------------

    def _orient_ccw(self):
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        flip = area2 < 0
        if flip.any():
            t[flip, 1], t[flip, 2] = t[flip, 2].copy(), t[flip, 1].copy()
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if not np.all(area2 > 0):  # NaN areas fail too
            raise MeshError("degenerate triangle with nonpositive area")

    def _build_edges(self):
        t = self.triangles
        nt = len(t)
        # pair p is local edge p // nt of triangle p % nt, in its ccw order
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        # one int64 key per edge orders the sorted pairs (a, b) as rows do
        n = len(self.vertices)
        key = pairs.min(axis=1) * n + pairs.max(axis=1)
        uniq, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
        if counts.max() > 2:
            raise MeshError("non-conforming mesh: an edge is shared by more than 2 triangles")
        self.edges = np.column_stack(np.divmod(uniq, n))
        self.tri_edges = inverse.reshape(3, nt).T
        self._edge_count = counts
        # the topological boundary: edges of one triangle, in edge-id order
        own = np.nonzero(counts[inverse] == 1)[0]
        own = own[np.argsort(inverse[own])]
        table = np.zeros(len(own), dtype=[
            ("edge", np.int64), ("tri", np.int64), ("local", np.int64),
            ("a", np.int64), ("b", np.int64)])
        table["edge"], table["tri"], table["local"] = inverse[own], own % nt, own // nt
        table["a"], table["b"] = pairs[own, 0], pairs[own, 1]
        self.topo_boundary = table

    def _attach_boundary(self, order, component, t0, t1):
        """Tag the topological boundary rows `order` as boundary_edges.

        Row k lies on curve component[k]; t0[k], t1[k] are the curve
        parameters of its ends in the owning triangle's ccw order.
        """
        nv, ne = len(self.vertices), len(self.edges)
        rows = self.topo_boundary[order]
        record = np.zeros(len(rows), dtype=[
            ("edge", np.int64), ("tri", np.int64), ("local", np.int64),
            ("component", np.int64), ("t0", float), ("t1", float)])
        for name in ("edge", "tri", "local"):
            record[name] = rows[name]
        record["component"], record["t0"], record["t1"] = component, t0, t1
        self.boundary_edges = record

        n_nodes = nv + ne
        self.node_is_boundary = np.zeros(n_nodes, bool)
        self.node_component = np.full(n_nodes, -1, np.int64)
        self.node_param = np.zeros(n_nodes)
        self.node_normal = np.zeros((n_nodes, 2))
        self.node_tangent = np.zeros((n_nodes, 2))
        self.node_kappa = np.zeros(n_nodes)
        # a node shared by two edges keeps the values of the later edge
        tm = 0.5 * (record["t0"] + record["t1"])
        nodes = np.column_stack([rows["a"], rows["b"], nv + rows["edge"]]).ravel()
        self.node_is_boundary[nodes] = True
        self.node_component[nodes] = np.repeat(record["component"], 3)
        self.node_param[nodes] = np.column_stack([record["t0"], record["t1"], tm]).ravel() % 1.0

        self.edge_nodes = 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])
        for comp, curve in enumerate(self.domain.curves):
            sel = record["component"] == comp
            if self.snapped and sel.any():
                self.edge_nodes[rows["edge"][sel]] = curve.point(tm[sel])
            sel = np.nonzero(self.node_component == comp)[0]
            if len(sel) == 0:
                continue
            _, n, tau, kappa = geometry.frames_at(self.domain, comp, self.node_param[sel])
            self.node_normal[sel] = n
            self.node_tangent[sel] = tau
            self.node_kappa[sel] = kappa

    # -- queries ----------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_p2_nodes(self):
        return len(self.vertices) + len(self.edges)

    def p2_coords(self):
        """Coordinates of all P2 nodes, vertices first."""
        return np.vstack([self.vertices, self.edge_nodes])

    def triangle_nodes(self):
        """P2 node ids per triangle, shape [nt, 6] in local order."""
        nv = self.n_vertices
        return np.hstack([self.triangles, nv + self.tri_edges])

    def triangle_coords(self):
        """P2 node coordinates per triangle, shape [nt, 6, 2]."""
        return self.p2_coords()[self.triangle_nodes()]

    def max_diameter(self):
        v = self.vertices[self.triangles]
        e = [np.hypot(*(v[:, i] - v[:, j]).T) for i, j in ((0, 1), (1, 2), (2, 0))]
        return float(np.max(e))

    def min_angle(self):
        v = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            a = v[:, (i + 1) % 3] - v[:, i]
            b = v[:, (i + 2) % 3] - v[:, i]
            cosang = np.einsum("ij,ij->i", a, b) / (np.hypot(*a.T) * np.hypot(*b.T))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
        return float(np.min(angles))

    def boundary_loops_ok(self):
        """Boundary edges must form one closed loop per component."""
        nv = len(self.vertices)
        for comp in range(self.domain.n_components):
            ends = self.edges[self.boundary_edges["edge"][self.boundary_edges["component"] == comp]]
            degree = np.bincount(ends.ravel(), minlength=nv)
            if len(ends) == 0 or np.any((degree != 0) & (degree != 2)):
                return False
            graph = sparse.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(nv, nv))
            _, label = connected_components(graph, directed=False)
            if np.unique(label[degree > 0]).size != 1:
                return False
        return True

    def validate(self):
        """Check the mesh invariants; raises MeshError on violation."""
        if not self.boundary_loops_ok():
            raise MeshError("boundary edges do not form one closed loop per component")
        interior = np.ones(len(self.edges), bool)
        interior[self.boundary_edges["edge"]] = False
        if not np.all(self._edge_count[interior] == 2):
            raise MeshError("interior edge not shared by exactly two triangles")
        if self.snapped:
            tol = 1e-10 * self.domain.diameter
            coords = self.p2_coords()
            for comp in range(self.domain.n_components):
                sel = np.nonzero(self.node_is_boundary & (self.node_component == comp))[0]
                on_curve = self.domain.curves[comp].point(self.node_param[sel])
                gap = np.hypot(*(coords[sel] - on_curve).T)
                if gap.max() > tol:
                    raise MeshError(
                        f"boundary node off component {comp} by {gap.max():.3e}")
        return self


def mesh_annulus(r_in, r_out, n_radial, n_angular, center=(0.0, 0.0)):
    """Structured triangulation of the annulus r_in < |x - center| < r_out.

    Component 0 is the outer circle, component 1 the inner circle.
    """
    if not (0 < r_in < r_out):
        raise ConfigurationError(f"need 0 < r_in < r_out, got ({r_in}, {r_out})")
    if n_radial < 2 or n_angular < 8:
        raise ConfigurationError("need n_radial >= 2 and n_angular >= 8")
    if n_angular % 2:
        raise ConfigurationError("n_angular must be even (mirror-symmetric grid)")

    # two concentric circles with 0 < r_in < r_out form a valid domain
    domain = geometry.DomainSpec(
        [geometry.Circle(center, r_out), geometry.Circle(center, r_in)],
        labels=["outer", "inner"], check=False)

    radii = np.linspace(r_in, r_out, n_radial + 1)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    vertices = domain.curves[0].center + np.column_stack(
        [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])

    # vertex (ring i, angle j) is i * n_angular + j; quad (i, j) is a b c d
    i, j = np.meshgrid(np.arange(n_radial), np.arange(n_angular), indexing="ij")
    a = i * n_angular + j
    d = i * n_angular + (j + 1) % n_angular
    b, c = a + n_angular, d + n_angular
    # alternate the quad diagonal across the x1-axis so the
    # triangulation is mirror-symmetric (needed for symmetric solves)
    lower = (j < n_angular // 2)[..., None]
    tris = np.stack([np.where(lower, np.stack([a, b, c], -1), np.stack([a, b, d], -1)),
                     np.where(lower, np.stack([a, c, d], -1), np.stack([b, c, d], -1))], axis=2)
    mesh = Mesh(domain, vertices, tris.reshape(-1, 3), snapped=True)

    # ring edge j joins angles j and j + 1; its ends sit at parameters j/n, (j+1)/n
    top = mesh.topo_boundary
    ring, ja = np.divmod(top["a"], n_angular)
    jb = top["b"] % n_angular
    walk = np.where((ja + 1) % n_angular == jb, ja, jb)
    component = np.where(ring == n_radial, 0, 1)
    order = np.lexsort((walk, component))
    t0 = (walk + (ja != walk)) / n_angular
    t1 = (walk + (jb != walk)) / n_angular
    mesh._attach_boundary(order, component[order], t0[order], t1[order])
    return mesh.validate()


def _tag_boundary_by_projection(mesh, snap_vertices=False):
    """Match topological boundary edges to the nearest domain curve (within 0.1 edge lengths).

    With snap_vertices each edge, in edge-id order, moves its two ends onto
    its curve; a vertex met again is projected from where it was left.
    """
    top = mesh.topo_boundary
    ends = np.column_stack([top["a"], top["b"]])
    pts = mesh.vertices[ends]
    elen = np.hypot(*(pts[:, 1] - pts[:, 0]).T)
    params, worst = [], []
    for curve in mesh.domain.curves:
        t, dist = curve.project(pts.reshape(-1, 2))
        params.append(t.reshape(-1, 2))
        worst.append(dist.reshape(-1, 2).max(axis=1))
    comp = np.argmin(worst, axis=0)  # ties go to the first curve
    rows = np.arange(len(top))
    worst = np.asarray(worst)[comp, rows]
    far = np.nonzero(worst > 0.1 * elen)[0]
    if len(far):
        va, vb = mesh.edges[top["edge"][far[0]]]
        raise MeshImportError(
            f"boundary edge ({va}, {vb}) lies {worst[far[0]]:.3e} from every domain curve")
    t = np.asarray(params)[comp, rows]
    if snap_vertices:
        flat, curve_of = ends.ravel(), np.repeat(comp, 2)
        by_vertex = np.argsort(flat, kind="stable")
        rank = np.empty_like(flat)  # how many earlier edges end at the same vertex
        rank[by_vertex] = np.arange(flat.size) - np.searchsorted(flat[by_vertex], flat[by_vertex])
        for r in range(rank.max() + 1):
            for k, curve in enumerate(mesh.domain.curves):
                on = np.nonzero((rank == r) & (curve_of == k))[0]
                if r:
                    t.flat[on] = curve.project(mesh.vertices[flat[on]])[0]
                mesh.vertices[flat[on]] = curve.point(_near_branch(t).flat[on])
    mesh._attach_boundary(rows, comp, *_near_branch(t).T)
    return mesh


def _near_branch(t):
    """Edge end parameters [n, 2], the second moved by a period to lie
    within half a period of the first (curve parameters are periodic)."""
    ta, tb = t.T
    return np.column_stack([ta, np.where(tb - ta > 0.5, tb - 1.0,
                                         np.where(tb - ta < -0.5, tb + 1.0, tb))])


def mesh_disk_with_holes(domain, target_h):
    """Delaunay mesh of a circle-bounded domain with circular holes.

    Boundary points about target_h apart on every circle and a hexagonal
    lattice of spacing target_h clear of the circles are triangulated once;
    the lattice points then take SMOOTH_ROUNDS rounds of Laplacian smoothing
    on that fixed connectivity, and the smoothed points are triangulated
    again for the final mesh (two Delaunay calls whatever SMOOTH_ROUNDS is).
    Triangles whose centroid lies outside the domain are dropped each time.
    """
    from scipy.spatial import Delaunay  # loaded only by the Delaunay mesher

    if not 0 < target_h < np.inf:
        raise ConfigurationError(f"target_h must be positive and finite, got {target_h}")
    for curve in domain.curves:
        if not isinstance(curve, geometry.Circle):
            raise ConfigurationError("built-in generator supports circles only; import a mesh instead")
    outer = domain.curves[0]
    holes = domain.curves[1:]
    for i, hi in enumerate(holes):
        gap = outer.radius - np.hypot(*(hi.center - outer.center)) - hi.radius
        if gap < 3.0 * target_h:
            raise MeshError(f"hole {i + 1} too close to the outer boundary for target_h")
        for j in range(i + 1, len(holes)):
            hj = holes[j]
            gap = np.hypot(*(hi.center - hj.center)) - hi.radius - hj.radius
            if gap < 3.0 * target_h:
                raise MeshError(f"holes {i + 1} and {j + 1} too close for target_h")

    boundary_pts = []
    for curve in domain.curves:
        n = max(16, int(np.ceil(2.0 * np.pi * curve.radius / target_h)))
        t = np.arange(n) / n
        boundary_pts.append(curve.point(t))
    n_boundary = sum(len(p) for p in boundary_pts)

    # hexagonal interior lattice, kept away from all boundaries
    c, R = outer.center, outer.radius
    dy = target_h * np.sqrt(3.0) / 2.0
    rows = int(np.ceil(2 * R / dy)) + 1
    pts = []
    for k in range(rows + 1):
        y = c[1] - R + k * dy
        offset = 0.5 * target_h if k % 2 else 0.0
        x = np.arange(c[0] - R + offset, c[0] + R + 0.5 * target_h, target_h)
        pts.append(np.column_stack([x, np.full(len(x), y)]))
    interior = np.vstack(pts)
    clear = 0.65 * target_h
    keep = np.hypot(*(interior - c).T) < R - clear
    for hole in holes:
        keep &= np.hypot(*(interior - hole.center).T) > hole.radius + clear
    interior = interior[keep]

    points = np.vstack(boundary_pts + [interior])
    simplices = _inside_triangles(Delaunay(points).simplices, points, domain)
    for _ in range(SMOOTH_ROUNDS):
        points = _smooth(points, simplices, n_boundary)
    simplices = _inside_triangles(Delaunay(points).simplices, points, domain)
    used = np.unique(simplices)
    remap = -np.ones(len(points), np.int64)
    remap[used] = np.arange(len(used))
    mesh = Mesh(domain, points[used], remap[simplices], snapped=True)
    _tag_boundary_by_projection(mesh)
    mesh.validate()
    if mesh.min_angle() < 20.0:
        raise MeshError(f"mesh quality too low: min angle {mesh.min_angle():.1f} deg")
    return mesh


def _smooth(points, simplices, n_fixed):
    """One Laplacian smoothing round: points past the first n_fixed move to
    the mean of their edge neighbours (counted once per triangle)."""
    pairs = _tri_edge_pairs(simplices)
    # bincount adds in pair order from zero, as np.add.at would, in one pass
    neighbor_sum = np.column_stack([np.bincount(pairs[:, 0], points[pairs[:, 1], a],
                                                minlength=len(points)) for a in (0, 1)])
    neighbor_cnt = np.bincount(pairs[:, 0], minlength=len(points))
    ok = (np.arange(len(points)) >= n_fixed) & (neighbor_cnt > 0)
    points = points.copy()
    points[ok] = neighbor_sum[ok] / neighbor_cnt[ok, None]
    return points


def _tri_edge_pairs(simplices):
    pairs = np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]])
    return np.vstack([pairs, pairs[:, ::-1]])


def _inside_triangles(simplices, points, domain):
    centroid = points[simplices].mean(axis=1)
    return simplices[domain.contains(centroid)]


def refine_nested(mesh):
    """Uniform refinement that keeps the parent curved geometry exactly.

    Children of a curved triangle take their new midside nodes from the
    parent quadratic map, so the refined finite element spaces nest
    inside the parent spaces.  Boundary nodes are not re-snapped.
    """
    nv = mesh.n_vertices
    new_vertices = mesh.p2_coords()  # old vertices + old edge nodes
    old_tri_nodes = mesh.triangle_nodes()
    children = old_tri_nodes[:, [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]].reshape(-1, 3)
    new_mesh = Mesh(mesh.domain, new_vertices, children, snapped=False)

    # each new edge node is placed by the parent quadratic map of the first
    # child that reaches it, at the mean of its ends' parent reference points
    first = np.unique(new_mesh.tri_edges.ravel(), return_index=True)[1]
    child, loc = np.divmod(first, 3)
    parent = child // 4
    ends = new_mesh.triangles[child[:, None], np.column_stack([loc, (loc + 1) % 3])]
    parent_nodes = old_tri_nodes[parent]
    local = np.argmax(parent_nodes[:, None, :] == ends[:, :, None], axis=2)
    shape = p2_shape(0.5 * P2_REFERENCE[local].sum(axis=1))
    edge_nodes = np.matmul(shape[:, None, :], mesh.triangle_coords()[parent])[:, 0]
    n_old = mesh.n_p2_nodes
    n_new = new_mesh.n_p2_nodes
    # old vertices and edge nodes keep their values
    prol_rows = np.concatenate([np.arange(n_old),
                                np.repeat(len(new_vertices) + np.arange(len(first)), 6)])
    prol_cols = np.concatenate([np.arange(n_old), parent_nodes.ravel()])
    prol_vals = np.concatenate([np.ones(n_old), shape.ravel()])

    # boundary tagging: a parent boundary row k splits at its midpoint
    # parameter into rows 2k (first end to midside) and 2k + 1
    old = mesh.boundary_edges
    top = new_mesh.topo_boundary
    mid = np.maximum(top["a"], top["b"])  # the old midside node, now a vertex
    row_of = np.zeros(len(mesh.edges), np.int64)
    row_of[old["edge"]] = np.arange(len(old))
    k = row_of[mid - nv]
    row = old[k]
    second = np.minimum(top["a"], top["b"]) != mesh.triangles[row["tri"], row["local"]]
    tm = 0.5 * (row["t0"] + row["t1"])
    t_first = np.where(second, tm, row["t0"])
    t_last = np.where(second, row["t1"], tm)
    reverse = (top["a"] == mid) != second
    t0 = np.where(reverse, t_last, t_first)
    t1 = np.where(reverse, t_first, t_last)
    order = np.argsort(2 * k + second)
    new_mesh._attach_boundary(order, row["component"][order], t0[order], t1[order])
    new_mesh.edge_nodes = edge_nodes  # keep parent-map geometry, no snapping
    new_mesh.prolongation = sparse.csr_matrix(
        (prol_vals, (prol_rows, prol_cols)), shape=(n_new, n_old))
    return new_mesh


# -- Triangle-compatible file formats -------------------------------------

def write_mesh(mesh, basename, header=None):
    """Write basename.node/.ele/.bnd in the documented ASCII layout."""
    comment = f"# {header}\n" if header else ""
    nv = mesh.n_vertices
    markers = np.zeros(nv, np.int64)
    bsel = mesh.node_is_boundary[:nv]
    markers[bsel] = mesh.node_component[:nv][bsel] + 1
    with new_file(f"{basename}.node") as fh:
        fh.write(f"{comment}{nv} 2 0 1\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"{i} {float(x)!r} {float(y)!r} {markers[i]}\n")

    with new_file(f"{basename}.ele") as fh:
        fh.write(f"{comment}{len(mesh.triangles)} 3 0\n")
        write_rows(fh, np.column_stack([np.arange(len(mesh.triangles)), mesh.triangles]),
                   "%d %d %d %d")

    with new_file(f"{basename}.bnd") as fh:
        fh.write(f"{comment}{len(mesh.boundary_edges)}\n")
        write_rows(fh, np.column_stack([mesh.edges[mesh.boundary_edges["edge"]],
                                        mesh.boundary_edges["component"]]), "%d %d %d")


def import_mesh(node_file, ele_file, domain):
    """Read Triangle-format .node/.ele files and tag against the domain.

    Triangles listed clockwise are reoriented; every topological boundary
    edge must project onto some domain curve within a tenth of its length.
    """
    vertices, base = _read_node(node_file)
    triangles = _read_ele(ele_file, base, len(vertices))
    mesh = Mesh(domain, vertices, triangles, snapped=True)
    _tag_boundary_by_projection(mesh, snap_vertices=True)
    return mesh.validate()


def _read_node(path):
    header, rows = _data_rows(path)
    n = _columns(path, [header], (int,))[0][0]
    if len(rows) != n:
        raise MeshImportError(f"{path}: expected {n} node rows, found {len(rows)}")
    if n == 0:
        raise MeshImportError(f"{path}: no nodes")
    ids, x, y = _columns(path, rows, (int, float, float))
    base = ids.min()
    if not np.array_equal(np.sort(ids), np.arange(base, base + n)):
        raise MeshImportError(f"{path}: node ids must be consecutive")
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        raise MeshImportError(f"{path}, line {rows[np.argmax(bad)][0]}: coordinate is not finite")
    verts = np.zeros((n, 2))
    verts[ids - base] = np.column_stack([x, y])
    return verts, base


def _read_ele(path, base, nv):
    header, rows = _data_rows(path)
    n, per = (col[0] for col in _columns(path, [header], (int, int)))
    if per != 3:
        raise MeshImportError(f"{path}: only 3-node triangles supported, got {per}")
    if len(rows) != n:
        raise MeshImportError(f"{path}: expected {n} element rows, found {len(rows)}")
    if n == 0:
        raise MeshImportError(f"{path}: no elements")
    ids, *corners = _columns(path, rows, (int, int, int, int))
    if not np.array_equal(np.sort(ids), np.arange(base, base + n)):
        raise MeshImportError(f"{path}: element ids must be consecutive from {base}")
    tris = np.zeros((n, 3), np.int64)
    tris[ids - base] = np.column_stack(corners) - base
    if tris.min() < 0 or tris.max() >= nv:
        raise MeshImportError(f"{path}: vertex index out of range")
    return tris


def _data_rows(path):
    """(line number, fields) of the header and of each data row."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split("#", 1)[0].split()
            if fields:
                rows.append((number, fields))
    if not rows:
        raise MeshImportError(f"{path}: empty file")
    return rows[0], rows[1:]


def _columns(path, rows, kinds):
    """The leading fields of `rows` parsed by `kinds`, one array per kind."""
    cols = [np.empty(len(rows), kind) for kind in kinds]
    for i, (number, fields) in enumerate(rows):
        if len(fields) < len(kinds):
            raise MeshImportError(
                f"{path}, line {number}: expected {len(kinds)} fields, found {len(fields)}")
        for col, kind, field in zip(cols, kinds, fields):
            try:
                col[i] = kind(field)
            except (ValueError, OverflowError):
                raise MeshImportError(
                    f"{path}, line {number}: cannot read {field!r} as {kind.__name__}") from None
    return cols
