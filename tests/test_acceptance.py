"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import os

import numpy as np
import pytest

import slipflow as sf
from slipflow import analysis as an
from slipflow import assembly as asm
from slipflow import cli
from slipflow import extensions as ext
from slipflow import linear_solvers as ls
from slipflow import navier_stokes as nvs
from slipflow import norms, validation as val
from slipflow.errors import DataError
from slipflow.linear_solvers import FlowState


def _report(num, name, checks):
    ok = all(flag for _, flag in checks)
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {name}")
    for desc, flag in checks:
        print(f"   {'ok ' if flag else 'BAD'} {desc}")
    assert ok, f"criterion {num} failed: " + "; ".join(
        desc for desc, flag in checks if not flag)


def _orders(errors):
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


def test_criterion_1_hamel_branch_k0(hamel_family):
    sol = hamel_family["solutions"][0.0]
    errs, times, resids = [], [], []
    for mesh, rec in zip(hamel_family["meshes"], hamel_family["flows"][0.0]):
        errs.append(norms.velocity_error_l2(mesh, rec["flow"].velocity, sol.velocity))
        times.append(rec["seconds"])
        resids.append(rec["flow"].metadata["residual"])
    orders = _orders(errs)
    checks = [
        (f"all three levels converged (residuals {['%.1e' % r for r in resids]})",
         all(r <= 1e-10 for r in resids)),
        (f"relative L2 velocity error on the 32x64 mesh = {errs[-1]:.3e} < 1%",
         errs[-1] < 0.01),
        (f"observed orders {['%.2f' % o for o in orders]} all >= 2.5",
         all(o >= 2.5 for o in orders)),
        (f"runtime per level {['%.1fs' % t for t in times]} < 60 s",
         all(t < 60.0 for t in times)),
    ]
    _report(1, "pinned branch k=0 of the explicit annulus family", checks)


def test_criterion_2_hamel_branch_k1(hamel_family):
    sol = hamel_family["solutions"][1.0]
    mesh = hamel_family["meshes"][-1]
    flow = hamel_family["flows"][1.0][-1]["flow"]
    e_u = norms.velocity_error_l2(mesh, flow.velocity, sol.velocity)
    e_p = norms.pressure_error_l2(mesh, flow.pressure, sol.pressure)
    circ = flow.metadata["circulations"][1]
    checks = [
        (f"circulation pinned to 2*pi (got {circ:.10f})",
         abs(circ - 2 * np.pi) < 1e-8 * 2 * np.pi),
        (f"relative L2 velocity error = {e_u:.3e} < 1%", e_u < 0.01),
        (f"relative L2 pressure error vs the momentum-integrated pressure "
         f"= {e_p:.3e} < 2%", e_p < 0.02),
    ]
    _report(2, "pinned branch k=1 with swirl", checks)


def test_criterion_3_audit_golden_values(annulus_medium):
    sol = val.hamel(0.0)
    rep = an.audit(sol.domain, sol.data, mesh=annulus_medium)
    margin = rep.theorem_friction_curvature["margin"]
    f0 = rep.fluxes["per_component"][0]
    total = rep.fluxes["total"]
    checks = [
        (f"friction margin = {margin!r} equals -0.25 within 1e-12",
         abs(margin + 0.25) <= 1e-12),
        (f"outer flux = {f0:.12f} equals -6*pi within 1e-10 relative",
         abs(f0 + 6 * np.pi) <= 1e-10 * 6 * np.pi),
        (f"total flux = {total:.3e} within 1e-10 of zero", abs(total) <= 1e-10),
        ("friction-vs-curvature verdict false",
         rep.theorem_friction_curvature["verdict"] is False),
        ("outflow verdict false",
         rep.theorem_outflow_convex_hole["verdict"] is False),
    ]
    _report(3, "audit reproduces the printed example margins", checks)


def test_criterion_4_stokes_couette_rates():
    exact = val.slip_couette()
    meshes = [sf.mesh_annulus(1, 2, n, 2 * n) for n in (8, 16, 32)]
    table = val.convergence_study(
        exact, nvs.solve_stokes, meshes)
    o_u = table.rows[-1].order_u
    o_p = table.rows[-1].order_p
    checks = [
        (f"velocity L2 order = {o_u:.2f} within 3 +- 0.3", abs(o_u - 3.0) <= 0.3),
        (f"pressure L2 order = {o_p:.2f} >= 1.7 (superconvergence above the "
         "nominal 2 is possible: the exact pressure is identically zero)",
         o_p >= 1.7),
    ]
    _report(4, "slip Couette convergence at the mixed-element rates", checks)


def test_criterion_5_harmonic_part_invariance(hamel_family):
    meshes = hamel_family["meshes"]
    data = hamel_family["solutions"][0.0].data
    gaps_ab, gaps_ac = [], []
    for mesh in meshes:
        basis = ext.harmonic_basis(mesh)
        h_formula = ext.harmonic_part(basis, [6 * np.pi])
        neumann = ext.solenoidal_extension(mesh, list(data.a_star))
        h_neumann = basis.project(neumann.coefficients)
        stokes = nvs.solve_stokes(mesh, data)
        h_stokes = basis.project(stokes.velocity)
        scale = norms.velocity_l2(mesh, h_formula)
        gaps_ab.append(norms.velocity_l2(mesh, h_formula - h_neumann) / scale)
        gaps_ac.append(norms.velocity_l2(mesh, h_formula - h_stokes) / scale)
    basis = ext.harmonic_basis(meshes[0])
    h_zero = ext.harmonic_part(basis, [0.0])
    r_ab = [gaps_ab[i] / gaps_ab[i + 1] for i in range(len(gaps_ab) - 1)]
    r_ac = [gaps_ac[i] / gaps_ac[i + 1] for i in range(len(gaps_ac) - 1)]
    checks = [
        (f"formula vs Neumann-projection gaps {['%.2e' % g for g in gaps_ab]} "
         f"shrink x{['%.1f' % r for r in r_ab]} (>= 3 per halving)",
         all(r >= 3.0 for r in r_ab)),
        (f"formula vs Stokes-projection gaps {['%.2e' % g for g in gaps_ac]} "
         f"shrink x{['%.1f' % r for r in r_ac]} (>= 3 per halving)",
         all(r >= 3.0 for r in r_ac)),
        (f"zero fluxes give ||h|| = {np.linalg.norm(h_zero):.1e} <= 1e-10",
         np.linalg.norm(h_zero) <= 1e-10),
    ]
    _report(5, "harmonic part agrees across flux formula and projections", checks)


def test_criterion_6_korn_spectrum(annulus_coarse):
    # unconstrained zero-friction case on exactly-snapped meshes: the rigid
    # rotation is exactly representable, so the eigenvalue sits at the
    # roundoff floor inside the shrinking C h^2 envelope
    lam_seq, cos_seq, hs = [], [], []
    for n in (8, 16, 32):
        mesh = sf.mesh_annulus(1, 2, n, 2 * n)
        est = ls.korn_constant(mesh, weight=(0.0, 0.0))
        mode = est.mode / np.linalg.norm(est.mode)
        u0 = ls.rigid_rotation_mode(mesh)
        u0 /= np.linalg.norm(u0)
        lam_seq.append(est.lambda_min)
        cos_seq.append(abs(mode @ u0))
        hs.append(mesh.max_diameter())
    nested = [annulus_coarse]
    nested.append(sf.refine_nested(nested[-1]))
    nested.append(sf.refine_nested(nested[-1]))
    proj, beta1 = [], []
    for mesh in nested:
        proj.append(ls.korn_constant(mesh, weight=(0.0, 0.0),
                                     project_rotation=True))
        beta1.append(ls.korn_constant(mesh, weight=(2.0, 2.0)))
    dproj = abs(proj[-1].lambda_min / proj[-2].lambda_min - 1.0)
    dbeta = abs(beta1[-1].lambda_min / beta1[-2].lambda_min - 1.0)
    Kp = [e.K for e in proj]
    Kb = [e.K for e in beta1]
    checks = [
        (f"zero-weight eigenvalues {['%.1e' % l for l in lam_seq]} within the "
         f"h^2 envelope {['%.1e' % (h * h) for h in hs]}",
         all(l <= h * h for l, h in zip(lam_seq, hs))),
        ("zero-weight eigenvalues stay at the roundoff floor (non-increasing "
         "up to 1e-10)", all(lam_seq[i + 1] <= max(lam_seq[i], 1e-10)
                             for i in range(len(lam_seq) - 1))),
        (f"eigenvector-rotation cosine {['%.6f' % c for c in cos_seq]} > 0.999",
         all(c > 0.999 for c in cos_seq)),
        (f"rotation-projected eigenvalue stabilizes (final change {dproj:.2%} < 2%)",
         dproj < 0.02),
        (f"weighted (2*beta/nu = 2) eigenvalue stabilizes (final change {dbeta:.2%} < 2%)",
         dbeta < 0.02),
        (f"projected K nondecreasing over nested meshes {['%.6f' % k for k in Kp]}",
         all(Kp[i] <= Kp[i + 1] + 1e-12 for i in range(len(Kp) - 1))),
        (f"weighted K nondecreasing over nested meshes {['%.6f' % k for k in Kb]}",
         all(Kb[i] <= Kb[i + 1] + 1e-12 for i in range(len(Kb) - 1))),
    ]
    _report(6, "Korn spectrum: rigid mode, projection, monotonicity", checks)


def test_criterion_7_bernoulli_diagnostics(hamel_family):
    b = 1.3
    rigid = val.rigid_rotation(b)
    rep = an.bernoulli_audit(rigid)
    devs = []
    for rec in hamel_family["flows"][0.0]:
        devs.append(max(an.bernoulli_audit(rec["flow"]).component_deviations))
    ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]
    checks = [
        (f"rigid-rotation head means ({rep.component_means[0]:.12f}, "
         f"{rep.component_means[1]:.12f}) equal (4b^2, b^2)",
         abs(rep.component_means[0] - 4 * b * b) < 1e-10
         and abs(rep.component_means[1] - b * b) < 1e-10),
        (f"rigid-rotation deviations {max(rep.component_deviations):.1e} < 1e-10",
         max(rep.component_deviations) < 1e-10),
        (f"solved-branch deviations {['%.2e' % d for d in devs]} shrink "
         f"x{['%.1f' % r for r in ratios]} (>= 3 per halving)",
         all(r >= 3.0 for r in ratios)),
    ]
    _report(7, "total-head boundary diagnostics", checks)


def test_criterion_8_identity_suite(hamel_family):
    sol = val.hamel(1.0)
    wres = []
    for mesh in hamel_family["meshes"]:
        coords = mesh.p2_coords()
        flow = FlowState(mesh=mesh, nu=1.0,
                         velocity=np.asarray(sol.velocity(coords)).ravel(),
                         pressure=np.zeros(mesh.n_vertices), metadata={})
        wres.append(an.weingarten_identity_check(flow))
    w_orders = _orders(wres)
    hres = []
    for rec, mesh in zip(hamel_family["flows"][0.0], hamel_family["meshes"]):
        hres.append(an.head_pressure_residual(rec["flow"],
                                              hamel_family["solutions"][0.0].data))
    h_orders = _orders(hres)
    mesh = hamel_family["meshes"][0]
    A = asm.assemble_viscous(mesh, 1.0)
    import scipy.sparse.linalg as spla
    u0 = ls.rigid_rotation_mode(mesh)
    rigid_rel = np.linalg.norm(A @ u0) / (spla.norm(A) * np.linalg.norm(u0))
    checks = [
        (f"tangential-stress identity residuals {['%.2e' % r for r in wres]} "
         f"converge at orders {['%.2f' % o for o in w_orders]} >= 1",
         all(o >= 1.0 for o in w_orders)),
        (f"total-head identity residuals {['%.2e' % r for r in hres]} converge "
         f"at orders {['%.2f' % o for o in h_orders]} >= 1",
         all(o >= 1.0 for o in h_orders)),
        (f"viscous matrix annihilates the rigid rotation ({rigid_rel:.1e} <= 1e-10)",
         rigid_rel <= 1e-10),
    ]
    _report(8, "boundary and interior identity suite", checks)


def test_criterion_9_non_uniqueness_exhibit(hamel_family):
    mesh = hamel_family["meshes"][-1]
    f0 = hamel_family["flows"][0.0][-1]["flow"]
    f1 = hamel_family["flows"][1.0][-1]["flow"]
    gap = norms.velocity_l2(mesh, f1.velocity - f0.velocity)
    exact_gap = val.hamel_velocity_gap(0.0, 1.0)
    rel = abs(gap / exact_gap - 1.0)
    checks = [
        (f"branch k=0 residual {f0.metadata['residual']:.1e} <= 1e-10",
         f0.metadata["residual"] <= 1e-10),
        (f"branch k=1 residual {f1.metadata['residual']:.1e} <= 1e-10",
         f1.metadata["residual"] <= 1e-10),
        (f"same data, distinct solutions: ||u1 - u0|| = {gap:.6f} matches the "
         f"closed form {exact_gap:.6f} within 2% (off by {rel:.2%})",
         rel <= 0.02),
    ]
    _report(9, "two solutions from identical data (no a priori estimate)", checks)


def test_criterion_10_compatibility_and_determinism(tmp_path):
    cfg = json.load(open(os.path.join(os.path.dirname(__file__), "..",
                                      "configs", "hamel.json")))
    cfg["mesh"] = {"generator": "annulus", "n_radial": 8, "n_angular": 16}
    bad = dict(cfg)
    bad["boundary"] = {"a_star": [1.0, 1.0], "b_tau": [0.0, 0.0]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code_bad = cli.main(["solve", "ns", "--config", str(bad_path),
                         "--out", str(tmp_path / "bad")])

    mesh = sf.mesh_annulus(1, 2, 8, 16)
    asym = asm.ProblemData(
        nu=1.0, beta=(1.0, 1.0),
        a_star=(lambda t, x: -1.5 + 0.3 * np.sin(2 * np.pi * np.asarray(t)), 3.0),
        b_tau=(0.0, 0.0), f=None)
    try:
        nvs.solve_symmetric(mesh, asym)
        asym_rejected = False
    except DataError:
        asym_rejected = True

    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(cfg))
    blobs = []
    # --deterministic changes nothing: a run without it writes the same bytes
    for name, flags in (("r1", ["--deterministic"]), ("r2", ["--deterministic"]), ("r3", [])):
        out = tmp_path / name
        assert cli.main([*flags, "solve", "ns", "--config",
                         str(good_path), "--out", str(out)]) == 0
        blobs.append(b"".join(
            open(out / art, "rb").read()
            for art in ("solution.vtk", "boundary.csv", "solution.json",
                        "trace.json")))
    checks = [
        (f"nonzero-total-flux config exits with code 2 (got {code_bad})",
         code_bad == 2),
        ("asymmetric data rejected by the symmetric solve", asym_rejected),
        ("deterministic mode yields byte-identical artifacts",
         blobs[0] == blobs[1]),
        ("a run without --deterministic yields the same bytes", blobs[0] == blobs[2]),
    ]
    _report(10, "compatibility rejection and deterministic artifacts", checks)
