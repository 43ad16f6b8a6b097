import json
import os
import signal
import time
import warnings

import numpy as np
import pytest

from slipflow import analysis, cli, concurrency
from slipflow.concurrency import beside
from slipflow.errors import DataError, SolverError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture(params=["forked", "in-process"])
def path(request, monkeypatch):
    """Both paths of the helper, whatever the CPU count of the machine."""
    monkeypatch.setattr(concurrency, "usable_cpus", lambda: 2 if request.param == "forked" else 1)
    return request.param


@pytest.fixture
def forked(monkeypatch):
    monkeypatch.setattr(concurrency, "usable_cpus", lambda: 2)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_config(tmp_path):
    cfg = json.load(open(os.path.join(CONFIG_DIR, "theorem1_pass.json")))
    cfg["mesh"] = {"generator": "annulus", "n_radial": 4, "n_angular": 16}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    return str(config)


class TestBeside:
    def test_result_larger_than_the_pipe_buffer(self, path):
        # a caller that waited for the worker before reading its result
        # would block with it; the alarm turns that into a failure
        def timeout(*_):
            raise TimeoutError("the result was not read within 30 s")
        big = np.arange(100_000, dtype=float)            # 800 KB
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            with beside(lambda: (big * 2.0, "tag")) as worker:
                value, tag = worker.result()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert tag == "tag" and value.tobytes() == (big * 2.0).tobytes()
        assert_no_child_left()

    def test_worker_exception_keeps_type_and_message(self, path):
        def fail():
            raise DataError("no such datum")
        with pytest.raises(DataError, match="^no such datum$"):
            with beside(fail) as worker:
                worker.result()
        assert_no_child_left()

    def test_worker_warning_reaches_the_caller(self, path):
        def warn():
            warnings.warn("ascent stopped early")
            return 1
        with pytest.warns(UserWarning, match="ascent stopped early"):
            with beside(warn) as worker:
                assert worker.result() == 1

    def test_killed_worker_is_a_solver_error(self, forked):
        with pytest.raises(SolverError, match=f"killed by signal {int(signal.SIGKILL)}"):
            with beside(lambda: os.kill(os.getpid(), signal.SIGKILL)) as worker:
                worker.result()
        assert_no_child_left()

    def test_caller_exception_reaps_the_worker(self, forked):
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="caller failed"):
            with beside(lambda: time.sleep(60)):
                raise RuntimeError("caller failed")
        assert_no_child_left()
        assert time.perf_counter() - t0 < 30

    def test_unread_result_reaps_the_worker(self, forked):
        with beside(lambda: time.sleep(60)):
            pass
        assert_no_child_left()

    def test_one_cpu_never_forks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called with one usable CPU")
        monkeypatch.setattr(concurrency, "usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        with beside(lambda: 42) as worker:
            assert worker.result() == 42
        config = small_config(tmp_path)
        for command in ("audit", "korn"):
            assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0


class TestCommands:
    @pytest.mark.parametrize("error, code", [(SolverError, 3), (DataError, 2)])
    def test_worker_error_exit_code(self, tmp_path, capsys, monkeypatch, path, error, code):
        def failing(mesh, r):
            raise error(f"sobolev failed at r={r:g}")
        monkeypatch.setattr(analysis, "sobolev_constant", failing)
        out = tmp_path / "out"
        assert cli.main(["korn", "--config", small_config(tmp_path), "--out", str(out)]) == code
        assert "sobolev failed at r=4" in capsys.readouterr().err
        assert not (out / "constants.json").exists()
        assert_no_child_left()

    def test_korn_constants_bitwise_on_both_paths(self, tmp_path, monkeypatch):
        written = {}
        for cpus in (1, 2):
            monkeypatch.setattr(concurrency, "usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["--deterministic", "korn", "--config",
                             os.path.join(CONFIG_DIR, "theorem1_pass.json"),
                             "--out", str(out)]) == 0
            written[cpus] = (out / "constants.json").read_bytes()
        assert written[1] == written[2]
        assert_no_child_left()
