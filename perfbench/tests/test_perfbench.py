"""Tests of the benchmark itself: seeded inputs, checks that catch wrong
answers, a traced run that changes nothing, and the output contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracer as tracing
import workloads

WORKLOADS = sorted(workloads.GENERATORS)
COUNT_METRICS = [m["name"] for m in run._benchmark_spec()["per_layer"]
                 if m["unit"] in ("count", "bytes") or m["name"].endswith("_ratio")]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    names = sorted(cmp.left_list)
    return names == sorted(cmp.right_list) and all(
        _read(os.path.join(a, n)) == _read(os.path.join(b, n)) for n in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_come_from_the_seed(workload, work_root):
    def config(seed, tag):
        case = workloads.generate(workload, seed, str(work_root / f"gen-{workload}-{tag}"))
        return (_read(case.config_path), case.expect, case.argv[1:-4]), case
    first, case = config(3, "a")
    again, _ = config(3, "b")
    assert first == again
    assert any(config(s, "c")[0] != first for s in range(4, 8))
    assert case.argv[0] == "--deterministic"


def test_hamel_seeds_reach_both_branches(work_root):
    ks = {workloads.generate("ns-hamel", s, str(work_root / "ks")).expect["k"]
          for s in range(10)}
    assert ks == {1, -1}


def test_wrong_hamel_branch_is_counted_as_a_failure(sf, work_root):
    """Negative control: pin -k but check against +k."""
    case = workloads.generate("ns-hamel", 0, str(work_root / "hamel-right"))
    right = run.Loop(sf, case)
    right.run_op()
    assert (right.attempted, right.failed) == (1, 0)

    pin = f"1={case.expect['circulation']!r}"
    wrong_case = workloads.generate("ns-hamel", 0, str(work_root / "hamel-wrong"))
    wrong_case = dataclasses.replace(wrong_case, argv=tuple(
        f"1={-case.expect['circulation']!r}" if a == pin else a for a in wrong_case.argv))
    assert wrong_case.argv != case.argv
    wrong = run.Loop(sf, wrong_case)
    wrong.run_op()
    assert (wrong.attempted, wrong.failed) == (1, 1)
    assert wrong.check_failures["circulation"] == 1
    assert wrong.check_failures["u_err_l2"] == 1
    assert wrong.check_failures["exit_code"] == 0


def test_tampered_audit_is_counted_as_a_failure(sf, work_root):
    case = workloads.generate("audit-twohole", 0, str(work_root / "audit-tamper"))
    loop = run.Loop(sf, case)
    loop.run_op()
    assert loop.failed == 0
    path = os.path.join(case.out_dir, "audit.json")
    with open(path) as fh:
        stored = json.load(fh)
    stored["theorem_small_flux"]["verdict"] = not stored["theorem_small_flux"]["verdict"]
    stored["theorem_friction_curvature"]["margin"] = float("nan")
    with open(path, "w") as fh:
        json.dump(stored, fh)
    loop.record(workloads.check(sf, case, 0))
    assert (loop.attempted, loop.failed) == (2, 1)
    assert {n for n, c in loop.check_failures.items() if c} == {
        "finite", "verdicts", "friction_margin"}


def test_nonzero_exit_is_counted_as_a_failure(sf, work_root):
    case = workloads.generate("audit-twohole", 0, str(work_root / "exit"))
    loop = run.Loop(sf, case)
    loop.record(workloads.check(sf, case, 3))
    assert (loop.attempted, loop.failed) == (1, 1)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request, sf, work_root):
    """One untraced and two traced operations of one workload, same seed."""
    workload = request.param
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.targets(sf)]
    plain = workloads.generate(workload, 0, str(work_root / f"{workload}-plain"))
    loop = run.Loop(sf, plain)
    loop.run_op()
    tracer = tracing.Tracer()
    traced_dirs = []
    for op in range(2):
        case = workloads.generate(workload, 0, str(work_root / f"{workload}-traced{op}"))
        loop.case = case
        loop.run_op(tracer, op_id=op)
        traced_dirs.append(case.out_dir)
    restored = all(getattr(owner, attr) is original for (owner, attr, _, _), original
                   in zip(tracing.targets(sf), originals))
    return types.SimpleNamespace(workload=workload, loop=loop, plain_dir=plain.out_dir,
                                 traced_dirs=traced_dirs, tracer=tracer, restored=restored)


def test_traced_operations_write_identical_artifacts(traced_pair):
    assert traced_pair.loop.failed == 0
    for traced_dir in traced_pair.traced_dirs:
        assert _same_tree(traced_pair.plain_dir, traced_dir)


def test_tracing_restores_every_patched_name(traced_pair):
    assert traced_pair.restored


def test_counts_repeat_and_times_add_up(traced_pair):
    tracer = traced_pair.tracer
    per_op = tracing.layer_metrics(tracer)
    assert sorted(per_op) == [0, 1]
    first, second = per_op[0], per_op[1]
    assert {m: first[m] for m in COUNT_METRICS} == {m: second[m] for m in COUNT_METRICS}
    assert set(first) | {"trace_overhead_s"} == {
        m["name"] for m in run._benchmark_spec()["per_layer"]}
    # every moment of an operation belongs to exactly one span or to untraced_s
    root = next(s for s in tracer.spans if s.name == "op" and s.op == 0)
    timed = sum(v for k, v in first.items() if k.endswith("_s"))
    assert timed == pytest.approx(root.end - root.start, rel=1e-9)
    assert first["untraced_s"] >= 0.0


def _inside(tracer, ancestor):
    """Spans nested, at any depth, in a span named `ancestor`."""
    spans = tracer.spans

    def under(i):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == ancestor:
                return True
            p = spans[p].parent
        return False
    return [s for i, s in enumerate(spans) if under(i)]


def test_traced_shape_matches_the_workload_choice(traced_pair):
    workload, tracer = traced_pair.workload, traced_pair.tracer
    metrics = tracing.layer_metrics(tracer)[0]
    times = {k: v for k, v in metrics.items() if k.endswith("_s") and k != "untraced_s"}
    largest = max(times, key=times.get)
    if workload == "ns-hamel":
        assert largest == "linear_solvers.factor_s"
        factors = [s for s in _inside(tracer, "navier_stokes.solve")
                   if s.name == "linear_solvers.factor" and s.op == 0]
        assert len(factors) == 11
        assert len({s.attrs["hash"] for s in factors}) == 3
        assert (metrics["navier_stokes.iterations"], metrics["navier_stokes.newton_steps"]) \
            == (10, 2)
        assert metrics["linear_solvers.saddle_build_s"] > 0.0
    else:
        assert metrics["linear_solvers.solve_count"] > 100
        assert metrics["navier_stokes.iterations"] == 0


def _run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_contract(trace, section):
    proc = _run_benchmark(run.ROOT, "--workload", "audit-twohole", "--seed", "5",
                          "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in run._benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_refuses_to_run_without_the_program(work_root):
    bare = work_root / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(bare, "--workload", "ns-hamel", "--seed", "0",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
