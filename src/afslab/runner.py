"""Experiment configs and the pool of workers that runs their jobs.

`ExperimentConfig` describes one experiment. It extends `trainer.TrainConfig`
(which extends `losses.LossConfig`) with the run, data and model keys, so
`fields(ExperimentConfig)` is every key of a config file, each declared
once, and the loops take the config itself. Each class checks its own
fields when it is built; `_check_inputs` adds the checks that need the
loaded data.

A `Job(config, run, part)` is one pass of one run: a recipe run has a
"method" pass and a memory-free "reference" pass, a `reference` or
`offline` run has one pass. Every pass is one `run_stream`, which trains
and scores it; the reference and offline passes run `ER` with no replay
(`_run_job`). Every job's result has the same keys, and `assemble` alone
reads from them what a run's record keeps.
`_run_job` derives all seeds of a run from `config.seed + run`; the reservoir
(`config.memory` slots) is built empty by `run_stream` for each pass, so a
job carries nothing from another.

`run_jobs` takes the jobs of any mix of configs and loads each config's
data once, in this process, and checks each config against it. Then it
runs them on workers forked by `sidecar.Helpers` that inherit that data
unpickled, one per CPU this process may use (`os.sched_getaffinity`);
with one CPU they run here. A free worker reads the next job index from
one shared pipe. Each worker runs one OpenBLAS thread: `run_jobs` pins
OpenBLAS to one thread just before the workers fork and restores its own
count once they are reaped. (OpenBLAS stops its threads in a forked
child, and a child that set its count itself would start a new thread
that spins before it sleeps.) One BLAS thread sums some products in
another order, which moves the `mean_weight_*`/`mean_logit_*` diagnostics
of a 784-pixel image stream by at most 1.3e-15; all else is identical.
`run_jobs` also places the jobs and decides where `run_stream` runs its
helpers (`sidecar`). Only on the pool, and only when no job waits for a
worker, do the helpers fork, so that they take CPU time no job uses; a full
pool, and `taskset -c 0`, leave none, so there they run in the job's
process. When they fork, each worker places itself as it takes a job: the
k-th method pass in queue order runs alone on the k-th CPU this process may
use, and every other pass, and every helper a method pass forks, runs on
the CPUs no method pass holds. (A recipe's reference pass is a job of its
own, so a CPU is always left for them.) A run's trainer is its one serial
chain, so its helpers and its reference pass take no time from it. The
parent keeps its own CPUs, and a host that refuses a CPU set leaves the
process unpinned.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import AfslabError, InvalidConfigError, RunFailedError
from .metrics import (
    AccuracyMatrix,
    average_accuracy,
    average_forgetting,
    average_intransigence,
)
from .model import NetworkSpec, init_network
from .sidecar import Helpers, _portable, pin
from .stream import (
    Dataset,
    TaskSplit,
    check_augment,
    gen_synthetic,
    load_idx,
    offline_stream,
    split_tasks,
    task_streams,
    task_test_sets,
)
from .trainer import ER, Recipe, TrainConfig, run_stream

BASELINES = ("reference", "offline")  # the memory-free, non-recipe methods


def parse_method(text: str) -> Recipe | str:
    """A `Recipe`, or the name of one of the `BASELINES`."""
    name = text.strip().lower()
    return name if name in BASELINES else Recipe.parse(name)


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """A run's settings: the loops' (`TrainConfig`) plus the run, data and model keys."""

    dataset: str = "synthetic"
    method: str = "afs"
    runs: int = 1
    seed: int = 0
    out: str = ""
    num_tasks: int = 5
    hidden: tuple[int, ...] = (512,)
    # synthetic data
    synth_classes: int = 10
    synth_dim: int = 32
    synth_per_class: int = 500
    synth_test_per_class: int = 100
    synth_spread: float = 1.2
    data_seed: int | None = None
    # idx data
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(self.hidden))  # hashable
        super().__post_init__()
        if any(width < 1 for width in self.hidden):
            raise InvalidConfigError(f"hidden widths must be positive, got {self.hidden}")
        for key in ("runs", "num_tasks", "synth_classes", "synth_dim", "synth_per_class"):
            if getattr(self, key) < 1:
                raise InvalidConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("seed", "data_seed", "synth_test_per_class", "synth_spread"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise InvalidConfigError(f"{key} must be non-negative, got {value}")
        if self.dataset not in ("synthetic", "idx"):
            raise InvalidConfigError(f"unknown dataset kind {self.dataset!r}")
        parse_method(self.method)


def _load_data(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if config.dataset == "synthetic":
        data_seed = config.seed if config.data_seed is None else config.data_seed
        return gen_synthetic(
            num_classes=config.synth_classes,
            dim=config.synth_dim,
            per_class=config.synth_per_class,
            spread=config.synth_spread,
            seed=data_seed,
            test_per_class=config.synth_test_per_class,
        )
    for key in ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels"):
        if not getattr(config, key):
            raise InvalidConfigError(f"dataset=idx requires config key {key}")
    train = load_idx(config.idx_train_images, config.idx_train_labels)
    test = load_idx(config.idx_test_images, config.idx_test_labels)
    train.num_classes = test.num_classes = max(train.num_classes, test.num_classes)
    return train, test


class Job(NamedTuple):
    """One pass of one run of one config."""

    config: ExperimentConfig
    run: int
    part: str  # "method" or "reference"

    @property
    def name(self) -> str:
        return f"run {self.run} (seed {self.config.seed + self.run})"


class _Inputs(NamedTuple):
    """The data every job of one config reads, loaded once per config."""

    train_ds: Dataset
    split: TaskSplit
    tests: list[tuple[np.ndarray, np.ndarray]]


def jobs_for(config: ExperimentConfig) -> list[Job]:
    """Every job of `config`, in serial order: run by run, method pass first."""
    method = parse_method(config.method)
    if isinstance(method, Recipe):
        passes = ("method", "reference")
    else:
        passes = ("reference",) if method == "reference" else ("method",)
    return [Job(config, run, part) for run in range(config.runs) for part in passes]


def _check_inputs(config: ExperimentConfig, inputs: _Inputs) -> None:
    """Raise InvalidConfigError if `config` cannot run on its loaded data."""
    num_classes = inputs.train_ds.num_classes
    if num_classes < 2:
        raise InvalidConfigError(f"need at least 2 classes, got {num_classes}")
    tasks = zip(inputs.split.tasks, inputs.tests)
    for task, (classes, (test_features, _)) in enumerate(tasks, start=1):
        if not np.isin(inputs.train_ds.labels, classes).any():
            named = ", ".join(map(str, classes))
            raise InvalidConfigError(f"task {task} (classes {named}) has no training rows")
        if len(test_features) == 0:
            raise InvalidConfigError(f"task {task} has an empty test set")
    method = parse_method(config.method)
    if isinstance(method, Recipe) and method.augment_replay:
        check_augment(config.augment, inputs.train_ds.features.shape[1])


def _run_job(job: Job, inputs: _Inputs, helper_cpus: frozenset[int] | None) -> dict:
    """One pass of one run: its accuracy matrix, wall time, step counts and
    diagnostics, as plain values.

    Every pass is a `run_stream`. A recipe's method pass forks its helpers
    onto `helper_cpus`, or runs them here when None. The reference and
    offline passes run `ER` without replay (`retrieve_batch` 0) and never
    fork: the reference pass over the task streams, and the offline pass
    over `num_tasks` tasks whose last streams `offline_epochs` shuffles of
    the whole dataset and whose others are empty, so that the last matrix
    row scores the trained model on every task's test set.
    """
    config, run_index, part = job
    method = parse_method(config.method)
    train_ds, split, tests = inputs
    keys = np.random.SeedSequence(config.seed + run_index).spawn(4)
    model_seed = int(keys[0].generate_state(1)[0])
    trainer_seed = int(keys[2].generate_state(1)[0])
    widths = (train_ds.features.shape[1], *config.hidden, train_ds.num_classes)
    spec = NetworkSpec(layer_widths=widths, seed=model_seed)
    if method == "offline":
        stream = offline_stream(train_ds, config.stream_batch, config.offline_epochs, keys[3])
        streams = [[] for _ in range(config.num_tasks - 1)] + [stream]
    else:
        streams = task_streams(train_ds, split, config.stream_batch, keys[1])
    recipe = method
    if part == "reference" or method == "offline":
        recipe, config, helper_cpus = ER, replace(config, retrieve_batch=0), None

    # from here on an error is a failed run, not a bad configuration
    try:
        started = time.perf_counter()
        record = run_stream(
            init_network(spec), train_ds, streams, tests, config, recipe, trainer_seed,
            helper_cpus,
        )
        return {
            "matrix": record.accuracy_matrix.rows,
            "wall_time": time.perf_counter() - started,
            "steps": record.steps,
            "review_steps": record.review_steps,
            "diagnostics": {str(task): asdict(d) for task, d in record.diagnostics.items()},
        }
    except AfslabError as exc:
        raise RunFailedError(f"{job.name}: {exc}") from exc


def assemble(config: ExperimentConfig, run_index: int, results: dict) -> dict:
    """The record of one run of `config`, built from the results of its passes."""
    method = parse_method(config.method)
    out: dict = {"run": run_index, "seed": config.seed + run_index}
    if method != "offline":
        rows = results[Job(config, run_index, "reference")]["matrix"]
        reference = [row[-1] for row in rows]  # each task's accuracy right after it was learned
    if isinstance(method, Recipe):
        out.update(results[Job(config, run_index, "method")], reference=reference)
        matrix = AccuracyMatrix(out["matrix"])
        out["metrics"] = [
            {
                "task": t,
                "A_T": average_accuracy(matrix, t),
                "F_T": average_forgetting(matrix, t) if t >= 2 else math.nan,
                "I_T": average_intransigence(matrix, reference, t),
            }
            for t in range(1, matrix.num_tasks + 1)
        ]
    elif method == "reference":
        wall_time = results[Job(config, run_index, "reference")]["wall_time"]
        out.update(reference=reference, wall_time=wall_time, diagnostics={})
        out["metrics"] = [
            {"task": t, "A_T": acc, "F_T": math.nan, "I_T": math.nan}
            for t, acc in enumerate(reference, start=1)
        ]
    else:  # offline
        result = results[Job(config, run_index, "method")]
        per_task = result["matrix"][-1]  # the trained model on every task's test set
        out.update(offline_per_task=per_task, wall_time=result["wall_time"], diagnostics={})
        out["metrics"] = [{"task": len(per_task), "A_T": float(np.mean(per_task)),
                           "F_T": math.nan, "I_T": math.nan}]
    return out


# Names of the OpenBLAS thread-count functions across builds, "{}" get or set.
OPENBLAS_THREAD_COUNTS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                          "scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


def _pin_blas_to_one_thread(maps_path: str = "/proc/self/maps"):
    """Cap the OpenBLAS library named in this process's memory map at one thread.

    Returns a call that restores the thread count it had, or None when no
    OpenBLAS is mapped.
    """
    import ctypes

    try:
        with open(maps_path, encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in OPENBLAS_THREAD_COUNTS:
            get = getattr(handle, name.format("get"), None)
            set_ = getattr(handle, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                previous = get()
                set_(1)
                return partial(set_, previous)
    return None


def run_jobs(jobs: list[Job]) -> dict[Job, dict]:
    """The result of every job, keyed by job.

    Each config's data is loaded and checked once, here, before the pool
    forks. On the pool every job finishes, even after one has failed; with
    one worker the jobs run here in order and the first failure stops the
    loop, so no later job starts. Either way the error raised is the first
    one in the order of `jobs`. A worker that dies fails the call, naming
    the runs whose results it took with it.
    """
    loaded: dict[ExperimentConfig, _Inputs] = {}
    for config in dict.fromkeys(job.config for job in jobs):
        train_ds, test_ds = _load_data(config)
        split = split_tasks(train_ds, config.num_tasks)
        loaded[config] = _Inputs(train_ds, split, task_test_sets(test_ds, split))
        _check_inputs(config, loaded[config])
    cpus = sorted(os.sched_getaffinity(0))
    workers = min(len(jobs), len(cpus))
    if workers < 2:
        return {job: _run_job(job, loaded[job.config], None) for job in jobs}
    # the method passes are the long ones, so they start first
    order = sorted(range(len(jobs)), key=lambda i: jobs[i].part != "method")
    places: dict[int, frozenset[int]] = {}  # job index -> the CPUs it runs on
    helper_cpus = None
    if len(jobs) <= workers:  # every job has a worker, so helpers get idle CPU time
        trainers = [i for i in order if jobs[i].part == "method"]
        helper_cpus = frozenset(cpus[len(trainers):]) or None  # None: no recipe, no helper
        if helper_cpus:
            places = dict.fromkeys(range(len(jobs)), helper_cpus)
            places.update((i, frozenset([cpus[k]])) for k, i in enumerate(trainers))
    queue_out, queue_in = os.pipe()  # job indices, 4 bytes each; a free worker reads the next

    def work() -> list[tuple[int, object]]:
        os.close(queue_in)  # else the queue never reaches its end
        done = []
        while index := os.read(queue_out, 4):
            i = int.from_bytes(index, "little")
            if places:
                pin(places[i])
            try:
                done.append((i, _run_job(jobs[i], loaded[jobs[i].config], helper_cpus)))
            except Exception as exc:
                done.append((i, _portable(exc)))
        return done

    results: dict[int, object] = {}
    restore_blas = _pin_blas_to_one_thread()  # before the fork (module docstring)
    try:
        with Helpers(frozenset(cpus)) as helpers:
            # fork first: written first, more indices than a pipe buffer holds block;
            # a worker starts on this process's CPUs and places itself per job
            pending = [helpers.call(work, pinned=False) for _ in range(workers)]
            os.close(queue_out)
            with suppress(BrokenPipeError), open(queue_in, "wb") as queue:  # all workers died
                queue.write(b"".join(i.to_bytes(4, "little") for i in order))
            for done in pending:
                with suppress(RunFailedError):  # a dead worker; its results count as missing
                    results.update(done())
    finally:
        if restore_blas is not None:
            restore_blas()
    for i in range(len(jobs)):
        if i not in results:
            missing = dict.fromkeys(job.name for k, job in enumerate(jobs) if k not in results)
            raise RunFailedError(f"a worker process died; no result for {', '.join(missing)}")
        if isinstance(results[i], BaseException):
            raise results[i]
    return {job: results[i] for i, job in enumerate(jobs)}
