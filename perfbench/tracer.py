"""Spans around slipflow's layers, recorded from outside the program.

`installed(tracer, sf)` replaces each traced function by a pass-through
wrapper under the name its caller looks it up by, and restores the
originals on exit.  A wrapper calls the original with the same arguments
and returns its result unchanged; it only opens a span around the call
and, with the clock paused, notes counts read off the arguments or the
result.  Spans stay in memory; `layer_metrics` turns one operation's
spans into the per-layer metrics.

Self time is a span's duration minus the part its child spans cover, so
the self times of one operation plus `untraced_s` add up to its duration.
"""

import contextlib
import functools
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str                   # metric stem, e.g. "linear_solvers.factor"
    start: float
    parent: int = None          # index of the enclosing span in Tracer.spans
    op: int = None              # operation id
    end: float = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store with a clock that stops while counts are noted."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._paused = 0.0

    def now(self):
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.now(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.now()

    @contextlib.contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one operation; spans opened inside share its id."""
        self.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None


# -- what is traced -----------------------------------------------------------

def _note_mesh(attrs, args, mesh):
    attrs["triangles"] = len(mesh.triangles)


def _note_factor(attrs, args, lu):
    matrix = args[0]
    digest = hashlib.blake2b(digest_size=16)
    for part in (repr(matrix.shape).encode(), matrix.indptr, matrix.indices, matrix.data):
        digest.update(part)
    attrs["fill"] = int(lu.L.nnz + lu.U.nnz)
    attrs["hash"] = digest.hexdigest()


def _note_solve(attrs, args, result):
    attrs["relres"] = result[2]


def _note_sobolev(attrs, args, estimate):
    attrs["iterations"] = estimate.iterations


def _note_nonlinear(attrs, args, result):
    trace = result[1]
    attrs["iterations"] = len(trace.residuals)
    attrs["newton_steps"] = sum(phase.startswith("newton") for phase in trace.phases)
    attrs["damped_steps"] = sum(alpha < 1.0 for alpha in trace.dampings)


def _note_bytes(path_index):
    def note(attrs, args, result):
        attrs["bytes"] = os.path.getsize(args[path_index])
    return note


def targets(sf):
    """(owner, attribute, span name, note) for every traced call site.

    Each name is patched where its caller looks it up: module attributes
    for `module.function` calls, the importing module for names bound by
    `from ... import`, and the class for methods.
    """
    a, ls = sf.assembly, sf.linear_solvers
    forms = ("assemble_viscous", "assemble_friction", "assemble_divergence",
             "assemble_pressure_mean", "assemble_vector_mass", "assemble_vector_gradient",
             "load_volume", "load_boundary_tangential")
    out = [(sf.cli, name, "cli.config", None)
           for name in ("load_config", "build_domain", "build_data")]
    out += [(sf.meshing, name, "meshing.mesh", _note_mesh)
            for name in ("mesh_annulus", "mesh_disk_with_holes")]
    out += [(sf.elements, name, "elements.geometry", None)
            for name in ("physical_gradients", "mapped_jacobians")]
    out += [(a, name, "assembly.forms", None) for name in forms]
    out += [(a, name, "assembly.convection", None)
            for name in ("assemble_convection", "assemble_convection_newton")]
    out += [(a, name, "assembly.boundary", None)
            for name in ("boundary_quadrature", "circulation_functional")]
    out += [(a, name, "assembly.constraint", None)
            for name in ("normal_trace_constraint", "apply_normal_trace")]
    out += [(a.SlipConstraint, name, "assembly.constraint", None)
            for name in ("reduce_matrix", "reduce_rows", "reduce_vector", "expand", "restrict")]
    out += [
        (sf.navier_stokes, "build_saddle_solver", "linear_solvers.saddle_build", None),
        (sf.navier_stokes, "solve_saddle_rhs", "linear_solvers.saddle_rhs", None),
        (ls.BorderedSolver, "__init__", "linear_solvers.border", None),
        (ls.BorderedSolver, "solve", "linear_solvers.solve", _note_solve),
        (ls.spla, "splu", "linear_solvers.factor", _note_factor),
        (sf.analysis, "korn_constant", "linear_solvers.korn", None),
        (sf.analysis, "sobolev_constant", "linear_solvers.sobolev", _note_sobolev),
        (sf.extensions, "harmonic_basis", "extensions.harmonic_basis", None),
        (sf.navier_stokes, "solve_navier_stokes", "navier_stokes.solve", _note_nonlinear),
        (sf.analysis, "audit", "analysis", None),
        (sf.output, "vorticity", "analysis", None),
        (sf.output, "total_head", "analysis", None),
        (sf.output, "write_vtk", "output.write", _note_bytes(1)),
        (sf.output, "write_boundary_csv", "output.write", _note_bytes(2)),
        (sf.output, "write_json", "output.write", _note_bytes(1)),
    ]
    return out


def _wrap(tracer, name, fn, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if note is not None:
            with tracer.untimed():
                note(span.attrs, args, result)
        return result
    return traced


@contextlib.contextmanager
def installed(tracer, sf):
    """Patch every target with a pass-through wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, note in targets(sf):
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, name, original, note))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------

def _self_times(spans):
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _op_metrics(spans, self_s, op):
    idx = [i for i, s in enumerate(spans) if s.op == op]
    time_of, count_of, attrs_of = {}, {}, {}
    for i in idx:
        name = spans[i].name
        time_of[name] = time_of.get(name, 0.0) + self_s[i]
        # geometry derived inside another geometry call is not a new derivation
        nested = spans[i].parent is not None and spans[spans[i].parent].name == name
        count_of[name] = count_of.get(name, 0) + (not nested)
        attrs_of.setdefault(name, []).append(spans[i].attrs)

    def t(name):
        return time_of.get(name, 0.0)

    def n(name):
        return count_of.get(name, 0)

    def total(name, key):
        return sum(a[key] for a in attrs_of.get(name, ()))

    factors = attrs_of.get("linear_solvers.factor", [])
    relres = [a["relres"] for a in attrs_of.get("linear_solvers.solve", ())]
    return {
        "meshing.mesh_s": t("meshing.mesh"),
        "meshing.triangles": total("meshing.mesh", "triangles"),
        "elements.geometry_s": t("elements.geometry"),
        "elements.geometry_calls": n("elements.geometry"),
        "assembly.forms_s": t("assembly.forms"),
        "assembly.convection_s": t("assembly.convection"),
        "assembly.convection_calls": n("assembly.convection"),
        "assembly.boundary_s": t("assembly.boundary"),
        "assembly.constraint_s": t("assembly.constraint"),
        "linear_solvers.saddle_build_s": t("linear_solvers.saddle_build"),
        "linear_solvers.saddle_rhs_s": t("linear_solvers.saddle_rhs"),
        "linear_solvers.border_s": t("linear_solvers.border"),
        "linear_solvers.factor_s": t("linear_solvers.factor"),
        "linear_solvers.factor_count": len(factors),
        "linear_solvers.lu_fill_nnz": total("linear_solvers.factor", "fill"),
        "linear_solvers.distinct_factor_ratio":
            len({a["hash"] for a in factors}) / len(factors) if factors else 0.0,
        "linear_solvers.solve_s": t("linear_solvers.solve"),
        "linear_solvers.solve_count": n("linear_solvers.solve"),
        "linear_solvers.relres_max": max(relres, default=0.0),
        "linear_solvers.korn_s": t("linear_solvers.korn"),
        "linear_solvers.sobolev_s": t("linear_solvers.sobolev"),
        "linear_solvers.sobolev_iterations": total("linear_solvers.sobolev", "iterations"),
        "extensions.harmonic_basis_s": t("extensions.harmonic_basis"),
        "navier_stokes.self_s": t("navier_stokes.solve"),
        "navier_stokes.iterations": total("navier_stokes.solve", "iterations"),
        "navier_stokes.newton_steps": total("navier_stokes.solve", "newton_steps"),
        "navier_stokes.damped_steps": total("navier_stokes.solve", "damped_steps"),
        "analysis.self_s": t("analysis"),
        "output.write_s": t("output.write"),
        "output.bytes": total("output.write", "bytes"),
        "cli.config_s": t("cli.config"),
        "untraced_s": t("op"),
    }


def layer_metrics(tracer):
    """Per-layer metrics of every traced operation: {op id: {metric: value}}."""
    self_s = _self_times(tracer.spans)
    ops = sorted({s.op for s in tracer.spans if s.op is not None})
    return {op: _op_metrics(tracer.spans, self_s, op) for op in ops}


def median_over_ops(per_op):
    """Median of each metric across operations; a value that repeats passes through."""
    rows = list(per_op.values())
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
