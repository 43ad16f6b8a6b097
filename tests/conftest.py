import numpy as np
import pytest

import slipflow as sf
from slipflow import navier_stokes as nvs
from slipflow import validation as val


@pytest.fixture(scope="session")
def annulus_domain():
    from slipflow.geometry import Circle, DomainSpec
    return DomainSpec([Circle((0.0, 0.0), 2.0), Circle((0.0, 0.0), 1.0)],
                      labels=["outer", "inner"])


@pytest.fixture
def pattern_derivations(monkeypatch):
    """Names of the per-mesh pattern derivations (sparsity, slip plan) run in a test."""
    from slipflow import assembly
    calls = []
    for name in ("_sparsity", "_slip_plan"):
        def counted(mesh, original=getattr(assembly, name), name=name):
            calls.append(name)
            return original(mesh)
        monkeypatch.setattr(assembly, name, counted)
    return calls


@pytest.fixture(scope="session")
def annulus_coarse():
    return sf.mesh_annulus(1.0, 2.0, 8, 16)


@pytest.fixture(scope="session")
def two_hole_coarse():
    from slipflow.geometry import Circle, DomainSpec
    return sf.mesh_disk_with_holes(
        DomainSpec([Circle((0.0, 0.0), 3.0), Circle((-1.2, 0.0), 0.6),
                    Circle((1.3, 0.0), 0.5)]), 0.3)


@pytest.fixture(scope="session")
def annulus_medium():
    return sf.mesh_annulus(1.0, 2.0, 16, 32)


@pytest.fixture(scope="session")
def annulus_levels():
    return [sf.mesh_annulus(1.0, 2.0, n, 2 * n) for n in (8, 16, 32)]


@pytest.fixture(scope="session")
def hamel_family(annulus_levels):
    """Pinned Navier-Stokes solves of both branches on three mesh levels."""
    sols = {0.0: val.hamel(0.0), 1.0: val.hamel(1.0)}
    flows = {}
    import time
    for k, pin in ((0.0, 0.0), (1.0, 2.0 * np.pi)):
        per_level = []
        for mesh in annulus_levels:
            t0 = time.time()
            flow, trace = nvs.solve_navier_stokes(
                mesh, sols[k].data, nvs.SolverConfig(pins={1: pin}))
            per_level.append({"flow": flow, "trace": trace,
                              "seconds": time.time() - t0})
        flows[k] = per_level
    return {"solutions": sols, "flows": flows, "meshes": annulus_levels}
