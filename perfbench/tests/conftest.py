import shutil
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (pins BLAS threads and puts src/ on sys.path)


@pytest.fixture(scope="session")
def work_root():
    """Scratch space inside the checkout, as the benchmark itself uses."""
    root = run.ROOT / ".perfbench_out" / "tests"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="session")
def sf():
    return run.slipflow_modules()
