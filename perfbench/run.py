"""slipflow benchmark: one workload, one seed, a closed loop of CLI operations.

    python3 perfbench/run.py --workload ns-hamel --seed 0 --seconds 45 --trace 0

Run from the repository root.  Each operation is one in-process call of
`slipflow.cli.main(argv)` on the config generated from the seed, with its
artifacts written; one client issues the next operation only after the
previous one has returned.  Every operation is checked, untimed.

`--trace 0` measures end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced operations and reports the per-layer
metrics of the traced ones (see tracer.py).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit code 2 means the
benchmark could not run at all.
"""

import os

# One BLAS thread in every benchmark process, set before numpy is imported.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SLIPFLOW_MODULES = ("cli", "meshing", "elements", "assembly", "linear_solvers",
                    "extensions", "navier_stokes", "analysis", "output", "norms",
                    "validation")


def slipflow_modules():
    """The slipflow modules the benchmark calls, checked to come from src/."""
    importlib.import_module("slipflow.cli")
    sf = types.SimpleNamespace(**{m: sys.modules[f"slipflow.{m}"] for m in SLIPFLOW_MODULES})
    if not Path(sf.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"slipflow was imported from {sf.cli.__file__}, not from {SRC}")
    return sf


def load_slipflow():
    """Import slipflow afresh, as a new process would, and return its modules."""
    for name in [n for n in sys.modules if n == "slipflow" or n.startswith("slipflow.")]:
        del sys.modules[name]
    return slipflow_modules()


class Loop:
    """Runs, times and checks operations; counts attempts and failures."""

    def __init__(self, sf=None, case=None):
        self.sf = sf
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.checks = Counter()
        self.check_failures = Counter()
        self.details = {}

    def run_op(self, tracer=None, op_id=None):
        """One operation; returns its wall seconds.  Checks run untimed."""
        os.makedirs(self.case.out_dir, exist_ok=True)
        with open(os.path.join(self.case.out_dir, "stdout.txt"), "w") as out, \
                contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.sf.cli.main(list(self.case.argv))
                else:
                    with tracing.installed(tracer, self.sf), tracer.operation(op_id):
                        code = self.sf.cli.main(list(self.case.argv))
            except Exception:  # one failed operation must not stop the run
                traceback.print_exc(file=sys.stderr)
                code = None
            seconds = time.perf_counter() - t0
        try:
            results = workloads.check(self.sf, self.case, code) if code is not None \
                else [("exit_code", False, "exception")]
        except Exception:  # unreadable artifacts are a wrong answer
            traceback.print_exc(file=sys.stderr)
            results = [("artifacts", False, "unreadable")]
        self.record(results)
        return seconds

    def record(self, results):
        self.attempted += 1
        ok = True
        for name, passed, detail in results:
            self.checks[name] += 1
            if not passed:
                self.check_failures[name] += 1
                ok = False
                print(f"check failed: {name} = {detail!r}", file=sys.stderr)
            self.details.setdefault(name, []).append(detail)
        self.failed += not ok


def setup(workload, seed, work_dir):
    """Import slipflow, generate the inputs and run one warm-up operation.

    Done SETUP_REPEATS times, re-importing slipflow each time; returns the
    loop, left on the last import, and the seconds of each set-up.  A set-up's
    seconds are those of the import, the generation and the warm-up call
    itself; the warm-up's check is not counted.
    """
    loop, times = Loop(), []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        loop.sf = load_slipflow()
        loop.case = workloads.generate(workload, seed, work_dir)
        prepare_s = time.perf_counter() - t0
        times.append(prepare_s + loop.run_op())
    return loop, times


def measure(loop, seconds, trace):
    """Closed loop for `seconds`; with trace, untraced and traced ops alternate."""
    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and not traced):
        if trace and len(untraced) > len(traced):
            traced.append(loop.run_op(tracer, op_id=len(traced)))
        else:
            untraced.append(loop.run_op())
    return untraced, traced, tracer


def environment():
    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    import scipy
    return {
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                       "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(np), "scipy": blas_version(scipy)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    work_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        loop, setup_times = setup(args.workload, args.seed, str(work_dir))
        untraced, traced, tracer = measure(loop, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: cannot import slipflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    for name in sorted(loop.checks):
        print(f"check {name}: {loop.checks[name] - loop.check_failures[name]}"
              f"/{loop.checks[name]} passed")
    print(f"err_rate {loop.failed / loop.attempted!r} ({loop.failed}/{loop.attempted} failed)")
    if "u_err_l2" in loop.details:
        print(f"u_err_l2 median {statistics.median(loop.details['u_err_l2']):.6e}")

    if args.trace:
        metrics = tracing.median_over_ops(tracing.layer_metrics(tracer))
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        print(f"traced ops {len(traced)}, untraced ops {len(untraced)}")
    else:
        metrics = {
            "op_s_p50": statistics.median(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
        print(f"op samples {len(untraced)}, setup samples {len(setup_times)}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
