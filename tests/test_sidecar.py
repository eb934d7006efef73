"""Lifecycle of the helper processes that `run_stream` forks.

Every test here runs under a hard SIGALRM timeout: a helper left blocked
on a pipe would otherwise hang the suite instead of failing it.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from afslab import sidecar, trainer
from afslab.errors import InvalidConfigError, InvalidInputError, RunFailedError
from afslab.losses import LossConfig
from afslab.memory import MemoryBuffer
from afslab.model import NetworkSpec, init_network
from afslab.sidecar import CHUNK_STEPS, Helpers
from afslab.stream import gen_synthetic, split_tasks, task_streams, task_test_sets
from afslab.trainer import AFS, TrainConfig, run_stream
from helpers import fork_helpers

TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def hard_timeout():
    def expire(signum, frame):
        raise TimeoutError(f"test still running after {TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_run(dim=8, augment_kind="vector", per_class=40):
    """Inputs of a two-task AFS run: (state, memory, train, streams, tests, config)."""
    train, test = gen_synthetic(4, dim, per_class, 0.6, 0, test_per_class=5)
    split = split_tasks(train, 2)
    config = TrainConfig(
        stream_batch=4, retrieve_batch=20, loss=LossConfig(num_classes=4),
        augment_kind=augment_kind, seed=3,
    )
    return (
        init_network(NetworkSpec((dim, 6, 4), seed=1)), MemoryBuffer(30), train,
        task_streams(train, split, 4, 2), task_test_sets(test, split), config,
    )


class TestErrorsCrossTheFork:
    def test_afslab_error_keeps_type_and_message(self, monkeypatch):
        def fail():
            raise InvalidInputError("bad row 3")

        fork_helpers(monkeypatch, True)
        with Helpers() as helpers:
            assert helpers.forked
            pending = helpers.call(fail)
            with pytest.raises(InvalidInputError, match=r"^bad row 3$"):
                pending()
        assert_no_children()

    @pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
    def test_schedule_error_in_run_stream(self, forked, monkeypatch):
        # 8 is no square: the schedule's first image draw raises
        fork_helpers(monkeypatch, forked)
        with pytest.raises(InvalidConfigError) as info:
            run_stream(*small_run(augment_kind="image"), AFS)
        assert str(info.value) == "image augmentation needs square features, got 8"
        assert_no_children()

    def test_dead_child_raises_run_failed(self, monkeypatch):
        fork_helpers(monkeypatch, True)
        with Helpers() as helpers:
            pending = helpers.call(lambda: os._exit(1))
            with pytest.raises(RunFailedError, match="died with exit code 1"):
                pending()
        assert_no_children()

    def test_dead_scorer_fails_the_run(self, monkeypatch):
        fork_helpers(monkeypatch, True)
        monkeypatch.setattr(trainer, "evaluate", lambda state, test_set: os._exit(1))
        with pytest.raises(RunFailedError, match="helper process .* died"):
            run_stream(*small_run(), AFS)
        assert_no_children()


class TestNoChildLeftBehind:
    @pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
    def test_after_a_run_returns(self, forked, monkeypatch):
        fork_helpers(monkeypatch, forked)
        record = run_stream(*small_run(), AFS)
        assert record.accuracy_matrix.num_tasks == 2
        assert_no_children()

    @pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
    def test_when_the_trainer_raises_mid_run(self, forked, monkeypatch):
        # task 2 fails once task 1's scorer is out and while the schedule
        # is blocked on a full pipe: 20 x 32 floats of jitter per step
        fork_helpers(monkeypatch, forked)
        inputs = small_run(dim=32, per_class=200)
        first_task_steps = len(inputs[3][0])
        real_step = trainer.sgd_on_batch
        calls = []

        def failing_step(*args):
            calls.append(1)
            if len(calls) == first_task_steps + 1 + CHUNK_STEPS:
                time.sleep(0.2)  # let the schedule fill the pipe
                raise InvalidInputError("step failed")
            return real_step(*args)

        monkeypatch.setattr(trainer, "sgd_on_batch", failing_step)
        with pytest.raises(InvalidInputError, match="step failed"):
            run_stream(*inputs, AFS)
        assert_no_children()


def open_files():
    """What each open file descriptor of this process points at."""
    names = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            names.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            pass  # the descriptor of the listing itself, closed by now
    return names


def test_scorer_holds_no_other_helper_pipe(monkeypatch):
    # a scorer that kept the schedule's read end open would keep a blocked
    # schedule child from ever seeing its reader go away
    fork_helpers(monkeypatch, True)
    with Helpers() as helpers:
        plan = helpers.stream(lambda: (np.zeros(1000) for _ in range(10_000)))
        next(plan)
        (reader,) = helpers._readers.values()
        schedule_pipe = os.readlink(f"/proc/self/fd/{reader.fileno()}")  # "pipe:[inode]"
        scorer_files = helpers.call(open_files)()
        assert schedule_pipe.startswith("pipe:") and schedule_pipe not in scorer_files
    assert_no_children()


@pytest.mark.parametrize(
    "cpus,threads,forked", [(1, 1, False), (2, 1, True), (2, 2, False), (4, 2, True)]
)
def test_forks_only_onto_cpus_blas_leaves_idle(cpus, threads, forked, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(sidecar, "blas_threads", lambda: threads)
    assert Helpers().forked is forked


def test_blas_threads_reads_a_pinned_pool_worker():
    if sidecar.openblas_function("get") is None:
        pytest.skip("NumPy is not linked against OpenBLAS")
    script = (
        "from afslab import runner, sidecar\n"
        "runner._pin_blas_to_one_thread()\n"
        "print(sidecar.blas_threads())\n"
    )
    src = os.path.dirname(os.path.dirname(sidecar.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]
