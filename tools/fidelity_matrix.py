"""Run slipflow's fixed command matrix on one source tree.

    python tools/fidelity_matrix.py TREE OUT

Each case of MATRIX runs `python -m slipflow.cli --deterministic ...` in a
subprocess with PYTHONPATH=TREE/src.  Case NAME gets the directory
OUT/NAME, holding the config it ran (`config.json`), its artifacts
(`out/`) and its exit code (`exit_code`).  The configs come from this
repository, not from TREE, so two trees run the same inputs; compare
their OUT directories with tools/fidelity.py.

The matrix:
- `solve ns`, `solve stokes`, `audit`, `korn` and `diagnose` on each of
  the four `configs/`;
- `solve ns` on each config with `mode: newton`;
- the benchmark workloads, by `perfbench/workloads.generate`: `ns-hamel`
  seeds 0-2 and `audit-twohole` seeds 0-3;
- `solve ns` below the roundoff floor: the 8 x 16 Hamel annulus pinned
  at 2 pi with `tolerance` 1e-15, which exits 3 when the residual stalls;
- `korn` on the thin annulus: `couette` with the outer radius 1.01 on a
  2 x 64 mesh, whose clustered Korn spectrum takes the eigenvalue loop
  hundreds of steps and thick restarts;
- `audit` with a force on a thinner annulus: the outer radius 1.001 on a
  2 x 600 mesh, zero friction and tangential data, and `f` = (x2, 0),
  whose mirror check reads the force at the mesh's quadrature points;
- `validate couette|hamel|mms --levels 2`, which read no config.

Exit status 0 when every case ran, 2 on a wrong command line.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, ROOT)
from perfbench import workloads  # noqa: E402

CONFIGS = ("couette", "hamel", "symmetric_domain", "theorem1_pass")
COMMANDS = {"ns": ("solve", "ns"), "stokes": ("solve", "stokes"), "audit": ("audit",),
            "korn": ("korn",), "diagnose": ("diagnose",)}


def shipped(config, command, **blocks):
    """A case on configs/<config>.json, each keyword block's keys updated;
    called with the run directory, it writes the config and returns the argv."""
    def write(run_dir):
        with open(os.path.join(ROOT, "configs", f"{config}.json")) as fh:
            cfg = json.load(fh)
        for block, values in blocks.items():
            cfg[block] = {**cfg.get(block, {}), **values}
        path = os.path.join(run_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        return ("--deterministic", *command, "--config", path,
                "--out", os.path.join(run_dir, "out"))
    return write


def validate(case):
    """A two-level convergence study of `validate CASE`."""
    return lambda run_dir: ("--deterministic", "validate", case, "--levels", "2",
                            "--out", os.path.join(run_dir, "out"))


def workload(name, seed):
    """A case of a benchmark workload, as perfbench/workloads.py generates it."""
    return lambda run_dir: workloads.generate(name, seed, run_dir).argv


MATRIX = (
    [(f"{config}-{key}", shipped(config, command))
     for config in CONFIGS for key, command in COMMANDS.items()]
    + [(f"{config}-ns-newton", shipped(config, COMMANDS["ns"], solver={"mode": "newton"}))
       for config in CONFIGS]
    + [(f"ns-hamel-{seed}", workload("ns-hamel", seed)) for seed in range(3)]
    + [(f"audit-twohole-{seed}", workload("audit-twohole", seed)) for seed in range(4)]
    + [("hamel-ns-roundoff-floor", shipped(
        "hamel", COMMANDS["ns"], mesh={"n_radial": 8, "n_angular": 16},
        solver={"tolerance": 1e-15, "pins": {"1": 2 * math.pi}}))]
    + [("thin-annulus-korn", shipped(
        "couette", COMMANDS["korn"], mesh={"n_radial": 2, "n_angular": 64},
        domain={"curves": [
            {"kind": "circle", "center": [0.0, 0.0], "radius": 1.01, "label": "outer"},
            {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0, "label": "inner"}]}))]
    + [("thin-annulus-audit-force", shipped(
        "couette", COMMANDS["audit"], mesh={"n_radial": 2, "n_angular": 600},
        domain={"curves": [
            {"kind": "circle", "center": [0.0, 0.0], "radius": 1.001, "label": "outer"},
            {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0, "label": "inner"}]},
        physics={"beta": [0.0, 0.0], "f": ["x2", "0"]}, boundary={"b_tau": [0.0, 0.0]}))]
    + [(f"validate-{case}", validate(case)) for case in ("couette", "hamel", "mms")]
)


def run_matrix(tree, out, cases):
    """Run each (name, case) of cases with TREE/src first on the path; return
    {name: exit code}.  OUT/name must not exist yet."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    codes = {}
    for name, case in cases:
        run_dir = os.path.abspath(os.path.join(out, name))
        os.makedirs(run_dir)
        argv = case(run_dir)
        done = subprocess.run([sys.executable, "-m", "slipflow.cli", *argv], env=env,
                              cwd=run_dir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        codes[name] = done.returncode
        with open(os.path.join(run_dir, "exit_code"), "w") as fh:
            fh.write(f"{done.returncode}\n")
    return codes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for name, code in run_matrix(*argv, MATRIX).items():
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
