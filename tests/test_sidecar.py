"""Lifecycle of the helper processes that `run_stream` forks.

Every test here runs under a hard SIGALRM timeout: a helper left blocked
on a pipe would otherwise hang the suite instead of failing it.
"""

import fcntl
import os
import signal
import time

import numpy as np
import pytest

from afslab import trainer
from afslab.errors import InvalidConfigError, InvalidInputError, RunFailedError
from afslab.model import NetworkSpec, init_network
from afslab.sidecar import CHUNK_STEPS, STREAM_PIPE_BYTES, Helpers
from afslab.stream import gen_synthetic, split_tasks, task_streams, task_test_sets
from afslab.trainer import AFS, TrainConfig, run_stream

TIMEOUT_S = 60
SEED = 3  # the trainer seed of every run here
CPUS = frozenset(os.sched_getaffinity(0))  # where forked helpers run here


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


def small_run(dim=8, augment="vector", per_class=40):
    """Inputs of a two-task AFS run: (state, train, streams, tests, config)."""
    train, test = gen_synthetic(4, dim, per_class, 0.6, 0, test_per_class=5)
    split = split_tasks(train, 2)
    config = TrainConfig(
        memory=30, stream_batch=4, retrieve_batch=20, augment=augment, jitter_sigma=0.1
    )
    return (
        init_network(NetworkSpec((dim, 6, 4), seed=1)), train,
        task_streams(train, split, 4, 2), task_test_sets(test, split), config,
    )


class TestErrorsCrossTheFork:
    def test_afslab_error_keeps_type_and_message(self):
        def fail():
            raise InvalidInputError("bad row 3")

        with Helpers(CPUS) as helpers:
            pending = helpers.call(fail)
            with pytest.raises(InvalidInputError, match=r"^bad row 3$"):
                pending()
        assert_no_children()

    @pytest.mark.parametrize("helper_cpus", [None, CPUS], ids=["in_process", "forked"])
    def test_schedule_error_in_run_stream(self, helper_cpus):
        # 8 is no square: the schedule's first image draw raises
        with pytest.raises(InvalidConfigError) as info:
            run_stream(*small_run(augment="image"), AFS, SEED, helper_cpus)
        assert str(info.value) == "image augmentation needs square features, got 8"
        assert_no_children()

    def test_dead_child_raises_run_failed(self):
        with Helpers(CPUS) as helpers:
            pending = helpers.call(lambda: os._exit(1))
            with pytest.raises(RunFailedError, match="died with exit code 1"):
                pending()
        assert_no_children()

    def test_dead_scorer_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(trainer, "evaluate", lambda state, test_set: os._exit(1))
        with pytest.raises(RunFailedError, match="helper process .* died"):
            run_stream(*small_run(), AFS, SEED, helper_cpus=CPUS)
        assert_no_children()


class TestNoChildLeftBehind:
    @pytest.mark.parametrize("helper_cpus", [None, CPUS], ids=["in_process", "forked"])
    def test_after_a_run_returns(self, helper_cpus):
        record = run_stream(*small_run(), AFS, SEED, helper_cpus)
        assert record.accuracy_matrix.num_tasks == 2
        assert_no_children()

    @pytest.mark.parametrize("helper_cpus", [None, CPUS], ids=["in_process", "forked"])
    def test_when_the_trainer_raises_mid_run(self, helper_cpus, monkeypatch):
        # task 2 fails once task 1's scorer is out and while the schedule
        # is blocked on a full pipe: 20 x 32 floats of jitter per step, and
        # task 2's 500 steps are more than a pipe grown to 1 MiB holds
        inputs = small_run(dim=32, per_class=1000)
        first_task_steps = len(inputs[2][0])
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
            run_stream(*inputs, AFS, SEED, helper_cpus)
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


def test_scorer_holds_no_other_helper_pipe():
    # a scorer that kept the schedule's read end open would keep a blocked
    # schedule child from ever seeing its reader go away
    with Helpers(CPUS) as helpers:
        plan = helpers.stream(lambda: (np.zeros(1000) for _ in range(10_000)))
        next(plan)
        (reader,) = helpers._readers.values()
        schedule_pipe = os.readlink(f"/proc/self/fd/{reader.fileno()}")  # "pipe:[inode]"
        scorer_files = helpers.call(open_files)()
        assert schedule_pipe.startswith("pipe:") and schedule_pipe not in scorer_files
    assert_no_children()



def test_stream_messages_larger_than_a_default_pipe_arrive_in_order():
    # a message of CHUNK_STEPS items of 8 KB is 256 KB, four default 64 KiB pipes
    count = 3 * CHUNK_STEPS + 5
    with open("/proc/sys/fs/pipe-max-size", encoding="utf-8") as fh:
        grows = int(fh.read()) >= STREAM_PIPE_BYTES
    with Helpers(CPUS) as helpers:
        plan = helpers.stream(lambda: ((i, np.full(1024, float(i))) for i in range(count)))
        got = [next(plan)]
        (reader,) = helpers._readers.values()
        if grows:
            assert fcntl.fcntl(reader.fileno(), fcntl.F_GETPIPE_SZ) == STREAM_PIPE_BYTES
        got += list(plan)
    assert [i for i, _ in got] == list(range(count))
    assert all(np.array_equal(row, np.full(1024, float(i))) for i, row in got)
    assert_no_children()
