"""Experiment configs and the pool of workers that runs their jobs.

`ExperimentConfig` describes one experiment. A `Job(config, run, part)` is
one pass of one run: a recipe run has a "method" pass (`run_stream`) and a
memory-free "reference" pass (`train_reference`), a `reference` or
`offline` run has one pass. `_run_job` derives all seeds of a run from
`config.seed + run`.

`run_jobs` takes the jobs of any mix of configs and loads each config's
data once, in this process. Then it runs them on forked workers that
inherit that data unpickled, one per CPU this process may use
(`os.sched_getaffinity`), each held to one OpenBLAS thread; with one CPU
they run here. One BLAS thread sums some products in another order, which
moves the `mean_weight_*`/`mean_logit_*` diagnostics of a 784-pixel image
stream by at most 1.3e-15; all else is identical. In a worker, `run_stream`
forks helpers onto the CPU time its BLAS thread leaves (see `sidecar`), and
a tracer in the job's process sees none of their calls; under
`taskset -c 0` the jobs and their helpers all run in this process.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import AfslabError, InvalidConfigError, RunFailedError
from .losses import LossConfig
from .memory import MemoryBuffer
from .metrics import (
    AccuracyMatrix,
    DiagnosticsRecord,
    average_accuracy,
    average_forgetting,
    average_intransigence,
)
from .model import NetworkSpec, init_network
from .sidecar import openblas_function
from .stream import (
    AUGMENT_KINDS,
    Dataset,
    TaskSplit,
    gen_synthetic,
    load_idx,
    split_tasks,
    task_streams,
    task_test_sets,
)
from .trainer import (
    Recipe,
    TrainConfig,
    evaluate,
    run_stream,
    train_offline,
    train_reference,
)

BASELINES = ("reference", "offline")  # the memory-free, non-recipe methods


def parse_method(text: str) -> Recipe | str:
    """A `Recipe`, or the name of one of the `BASELINES`."""
    name = text.strip().lower()
    return name if name in BASELINES else Recipe.parse(name)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    method: str = "afs"
    runs: int = 1
    seed: int = 0
    out: str = ""
    memory: int = 200
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
    # trainer
    stream_batch: int = 10
    retrieve_batch: int = 100
    lr: float = 0.1
    rv_lr: float = 0.01
    rv_batch: int = 10
    rv_every: int | None = None
    augment: str = "vector"
    jitter_sigma: float = 1.2
    offline_epochs: int = 3
    # loss
    alpha: float = 0.25
    gamma: float = 2.0
    mu: float = 0.3
    sigma: float = 0.5
    beta: float = 0.1
    temperature: float = 20.0
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(self.hidden))  # hashable
        if self.dataset not in ("synthetic", "idx"):
            raise InvalidConfigError(f"unknown dataset kind {self.dataset!r}")
        if self.runs < 1:
            raise InvalidConfigError(f"runs must be positive, got {self.runs}")
        if self.memory < 1:
            raise InvalidConfigError(f"memory must be positive, got {self.memory}")
        if self.augment not in AUGMENT_KINDS:
            raise InvalidConfigError(f"unknown augmentation kind {self.augment!r}")
        if self.offline_epochs < 1:
            raise InvalidConfigError(f"offline_epochs must be positive, got {self.offline_epochs}")
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
    train = load_idx(config.idx_train_images, config.idx_train_labels, split="train")
    test = load_idx(config.idx_test_images, config.idx_test_labels, split="test")
    train.num_classes = test.num_classes = max(train.num_classes, test.num_classes)
    return train, test


def _train_config(config: ExperimentConfig, trainer_seed: int, num_classes: int) -> TrainConfig:
    return TrainConfig(
        stream_batch=config.stream_batch,
        retrieve_batch=config.retrieve_batch,
        lr=config.lr,
        rv_lr=config.rv_lr,
        rv_batch=config.rv_batch,
        rv_every=config.rv_every,
        loss=LossConfig(
            alpha=config.alpha,
            gamma=config.gamma,
            mu=config.mu,
            sigma=config.sigma,
            beta=config.beta,
            temperature=config.temperature,
            epsilon=config.epsilon,
            num_classes=num_classes,
        ),
        augment_kind=config.augment,
        jitter_sigma=config.jitter_sigma,
        seed=trainer_seed,
    )


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


def _diagnostics(d: DiagnosticsRecord) -> dict:
    """The probes of one task boundary, interval counts as hsi/asi/esi keys."""
    out = asdict(d)
    out.update((name.lower(), count) for name, count in out.pop("interval_counts").items())
    return out


def _run_job(job: Job, inputs: _Inputs) -> dict:
    """One pass of one run; returns the plain values its record needs."""
    config, run_index, part = job
    method = parse_method(config.method)
    train_ds, split, tests = inputs
    keys = np.random.SeedSequence(config.seed + run_index).spawn(4)
    model_seed = int(keys[0].generate_state(1)[0])
    trainer_seed = int(keys[2].generate_state(1)[0])
    widths = (train_ds.features.shape[1], *config.hidden, train_ds.num_classes)
    spec = NetworkSpec(layer_widths=widths, seed=model_seed)
    tcfg = _train_config(config, trainer_seed, train_ds.num_classes)
    streams = task_streams(train_ds, split, config.stream_batch, keys[1])

    # from here on an error is a failed run, not a bad configuration
    try:
        started = time.perf_counter()
        if part == "reference":
            reference = train_reference(init_network(spec), train_ds, streams, tests, tcfg)
            return {"reference": reference, "wall_time": time.perf_counter() - started}
        if method == "offline":
            state = train_offline(
                init_network(spec), train_ds, tcfg, config.offline_epochs, keys[3]
            )
            per_task = [evaluate(state, ts) for ts in tests]
            return {"offline_per_task": per_task, "wall_time": time.perf_counter() - started}
        record = run_stream(
            init_network(spec), MemoryBuffer(config.memory), train_ds,
            streams, tests, tcfg, method,
        )
        return {
            "matrix": record.accuracy_matrix.rows,
            "wall_time": record.wall_time,
            "steps": record.steps,
            "review_steps": record.review_steps,
            "diagnostics": {str(task): _diagnostics(d) for task, d in record.diagnostics.items()},
        }
    except AfslabError as exc:
        raise RunFailedError(f"{job.name}: {exc}") from exc


def assemble(config: ExperimentConfig, run_index: int, results: dict) -> dict:
    """The record of one run of `config`, built from the results of its passes."""
    method = parse_method(config.method)
    out: dict = {"run": run_index, "seed": config.seed + run_index}
    if isinstance(method, Recipe):
        out.update(results[Job(config, run_index, "method")])
        out["reference"] = reference = results[Job(config, run_index, "reference")]["reference"]
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
        out.update(results[Job(config, run_index, "reference")], diagnostics={})
        out["metrics"] = [
            {"task": t, "A_T": acc, "F_T": math.nan, "I_T": math.nan}
            for t, acc in enumerate(out["reference"], start=1)
        ]
    else:  # offline
        out.update(results[Job(config, run_index, "method")], diagnostics={})
        per_task = out["offline_per_task"]
        out["metrics"] = [{"task": len(per_task), "A_T": float(np.mean(per_task)),
                           "F_T": math.nan, "I_T": math.nan}]
    return out


_WORKER_JOBS: list[tuple[Job, _Inputs]] | None = None  # set only inside pool workers


def _start_worker(jobs: list[tuple[Job, _Inputs]]) -> None:
    global _WORKER_JOBS
    _pin_blas_to_one_thread()
    _WORKER_JOBS = jobs


def _worker_job(index: int) -> dict:
    return _run_job(*_WORKER_JOBS[index])


def _pin_blas_to_one_thread(maps_path: str = "/proc/self/maps") -> None:
    """Cap the OpenBLAS mapped into this process at one thread, if any."""
    import ctypes

    fn = openblas_function("set", maps_path)
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)


def run_jobs(jobs: list[Job]) -> dict[Job, dict]:
    """The result of every job, keyed by job.

    Each config's data is loaded once, here, before the pool forks. Every
    job finishes before the first failure in the order of `jobs` is raised.
    """
    loaded: dict[ExperimentConfig, _Inputs] = {}
    for config in dict.fromkeys(job.config for job in jobs):
        train_ds, test_ds = _load_data(config)
        split = split_tasks(train_ds, config.num_tasks)
        loaded[config] = _Inputs(train_ds, split, task_test_sets(test_ds, split))
    work = [(job, loaded[job.config]) for job in jobs]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        return {job: _run_job(job, inputs) for job, inputs in work}
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: workers inherit `work` unpickled and get only its indices. The
    # pool forks all of them at the first submit, before its own thread.
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(work,),
    ) as pool:
        futures = {}
        try:
            # the method passes are the long ones, so they start first
            for i in sorted(range(len(jobs)), key=lambda i: jobs[i].part != "method"):
                futures[i] = pool.submit(_worker_job, i)
        except BrokenProcessPool:
            pass  # a worker died already; the jobs left out count as lost

    def lost(i: int) -> bool:
        return i not in futures or isinstance(futures[i].exception(), BrokenProcessPool)

    results = {}
    for i, job in enumerate(jobs):
        if lost(i):
            unfinished = dict.fromkeys(jobs[k].name for k in range(len(jobs)) if lost(k))
            raise RunFailedError(f"a worker process died; unfinished: {', '.join(unfinished)}")
        results[job] = futures[i].result()
    return results
