"""Experiment runner and report writer.

Experiments are described by a flat key=value config file; the `run`
command executes one method over several seeded runs and writes a JSON
record store plus CSV reports, and `report` re-emits reports from a stored
record file. Outputs carry no timestamps, so identical configs and seeds
reproduce byte-identical reports (wall-time columns aside).

Each run is split into jobs: a recipe run has its `run_stream` pass and
its memory-free `train_reference` pass, a `reference` or `offline` run has
one pass. The jobs run on a pool of forked workers, one per CPU this
process may use (`os.sched_getaffinity`), each held to one OpenBLAS thread;
with one worker they run in this process. Results are put back together in
run order, so the records match the serial loop's. A one-thread BLAS sums
some products in another order, which on a 784-pixel image stream moves
the `mean_weight_*`/`mean_logit_*` diagnostics by a few units in the last
place (at most 1.3e-15 measured); accuracies, counts, steps and summaries
are identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from csv import writer as csv_writer
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import AfslabError, InvalidConfigError, RunFailedError
from .losses import LossConfig
from .memory import MemoryBuffer
from .metrics import (
    AccuracyMatrix,
    average_accuracy,
    average_forgetting,
    average_intransigence,
    confidence_interval,
)
from .model import NetworkSpec, init_network
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

OUT_ENV_VAR = "AFSLAB_OUT"
DEFAULT_OUT = "runs"

METRICS_HEADER = ["method", "memory", "run", "task", "A_T", "F_T", "I_T", "wall_time"]
DIAGNOSTICS_HEADER = [
    "method", "memory", "run", "task",
    "mean_weight_old", "mean_weight_new",
    "mean_logit_old", "mean_logit_new",
    "hsi", "asi", "esi",
]
SUMMARY_HEADER = ["method", "memory", "runs", "metric", "mean", "ci_half_width"]


BASELINES = ("reference", "offline")  # the memory-free, non-recipe methods

# Names of the OpenBLAS thread-count setter across builds (prefix, int64 suffix).
BLAS_SET_THREADS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def parse_method(text: str) -> Recipe | str:
    """A `Recipe`, or the name of one of the `BASELINES`."""
    name = text.strip().lower()
    return name if name in BASELINES else Recipe.parse(name)


@dataclass
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
        if self.dataset not in ("synthetic", "idx"):
            raise InvalidConfigError(f"unknown dataset kind {self.dataset!r}")
        if self.runs < 1:
            raise InvalidConfigError(f"runs must be positive, got {self.runs}")
        if self.memory < 1:
            raise InvalidConfigError(f"memory must be positive, got {self.memory}")
        if self.augment not in AUGMENT_KINDS:
            raise InvalidConfigError(f"unknown augmentation kind {self.augment!r}")
        if self.offline_epochs < 1:
            raise InvalidConfigError(
                f"offline_epochs must be positive, got {self.offline_epochs}"
            )
        parse_method(self.method)


def _parse_hidden(value: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidConfigError(f"hidden must be comma-separated ints: {value!r}") from exc
    if not widths or any(w < 1 for w in widths):
        raise InvalidConfigError(f"hidden widths must be positive: {value!r}")
    return widths


def parse_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat key=value file; later lines win, '#' starts a comment."""
    values: dict[str, object] = {}
    known = {f.name: f for f in fields(ExperimentConfig)}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise InvalidConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value

    kwargs: dict[str, object] = {}
    defaults = ExperimentConfig()
    for key, raw_value in values.items():
        if isinstance(raw_value, str):
            kwargs[key] = _convert(key, raw_value, defaults)
        else:
            kwargs[key] = raw_value
    return ExperimentConfig(**kwargs)


def _convert(key: str, value: str, defaults: ExperimentConfig):
    if key == "hidden":
        return _parse_hidden(value)
    if key in ("rv_every", "data_seed"):
        if value.lower() in ("", "none"):
            return None
        try:
            return int(value)
        except ValueError as exc:
            raise InvalidConfigError(f"config key {key!r} needs an integer, got {value!r}") from exc
    template = getattr(defaults, key)
    try:
        if isinstance(template, int):
            return int(value)
        if isinstance(template, float):
            return float(value)
    except ValueError as exc:
        raise InvalidConfigError(
            f"config key {key!r} needs a {type(template).__name__}, got {value!r}"
        ) from exc
    return value


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
    num_classes = max(train.num_classes, test.num_classes)
    train.num_classes = num_classes
    test.num_classes = num_classes
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


class _Inputs(NamedTuple):
    """What every job reads. Forked workers inherit it; it is never pickled."""

    method: Recipe | str
    config: ExperimentConfig
    train_ds: Dataset
    split: TaskSplit
    tests: list[tuple[np.ndarray, np.ndarray]]


def _jobs(method: Recipe | str, runs: int) -> list[tuple[int, str]]:
    """(run index, pass) of every job, in serial order.

    A recipe run has a "method" pass (`run_stream`) and a "reference" pass
    (`train_reference`); a `reference` or `offline` run is one pass.
    """
    if isinstance(method, Recipe):
        passes = ("method", "reference")
    else:
        passes = ("reference",) if method == "reference" else ("method",)
    return [(run, part) for run in range(runs) for part in passes]


def _run_job(inputs: _Inputs, run_index: int, part: str) -> dict:
    """One pass of one run; returns the plain values its record needs."""
    method, config, train_ds, split, tests = inputs
    run_seed = config.seed + run_index
    keys = np.random.SeedSequence(run_seed).spawn(4)
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
            "diagnostics": {
                str(task): {
                    "mean_weight_old": d.mean_weight_old,
                    "mean_weight_new": d.mean_weight_new,
                    "mean_logit_old": d.mean_logit_old,
                    "mean_logit_new": d.mean_logit_new,
                    "hsi": d.interval_counts["HSI"],
                    "asi": d.interval_counts["ASI"],
                    "esi": d.interval_counts["ESI"],
                }
                for task, d in record.diagnostics.items()
            },
        }
    except AfslabError as exc:
        raise RunFailedError(f"run {run_index} (seed {run_seed}): {exc}") from exc


def _assemble(method: Recipe | str, config: ExperimentConfig, run_index: int, results: dict) -> dict:
    """The record of one run, built from the results of its passes."""
    out: dict = {"run": run_index, "seed": config.seed + run_index}
    if isinstance(method, Recipe):
        out.update(results[run_index, "method"])
        out["reference"] = reference = results[run_index, "reference"]["reference"]
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
        out.update(results[run_index, "reference"], diagnostics={})
        out["metrics"] = [
            {"task": t, "A_T": acc, "F_T": math.nan, "I_T": math.nan}
            for t, acc in enumerate(out["reference"], start=1)
        ]
    else:  # offline
        out.update(results[run_index, "method"], diagnostics={})
        per_task = out["offline_per_task"]
        out["metrics"] = [{
            "task": len(per_task),
            "A_T": float(np.mean(per_task)),
            "F_T": math.nan,
            "I_T": math.nan,
        }]
    return out


_WORKER_INPUTS: _Inputs | None = None  # set only inside pool workers


def _start_worker(inputs: _Inputs) -> None:
    global _WORKER_INPUTS
    _pin_blas_to_one_thread()
    _WORKER_INPUTS = inputs


def _worker_job(run_index: int, part: str) -> dict:
    return _run_job(_WORKER_INPUTS, run_index, part)


def _pin_blas_to_one_thread(maps_path: str = "/proc/self/maps") -> None:
    """Cap the OpenBLAS mapped into this process at one thread, if any.

    Calls the first of `BLAS_SET_THREADS_SYMBOLS` that a library named in
    the memory map exports; does nothing when no OpenBLAS is mapped.
    """
    import ctypes

    try:
        with open(maps_path, encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in BLAS_SET_THREADS_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                return


def _run_jobs(inputs: _Inputs, jobs: list[tuple[int, str]]) -> dict:
    """The result of every job, keyed by job.

    Jobs run on a pool of forked workers, one per CPU this process may use,
    each pinned to one BLAS thread; with one worker they run here, in
    order. Every job finishes before the first failure in serial order is
    raised.
    """
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        return {job: _run_job(inputs, *job) for job in jobs}
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: workers inherit `inputs` unpickled. The pool forks all of them at
    # the first submit, before it starts its own thread.
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(inputs,),
    ) as pool:
        futures = {}
        try:
            # the method passes are the long ones, so they start first
            for job in sorted(jobs, key=lambda job: job[1] != "method"):
                futures[job] = pool.submit(_worker_job, *job)
        except BrokenProcessPool:
            pass  # a worker died already; the jobs left out count as lost

    def lost(job) -> bool:
        return job not in futures or isinstance(futures[job].exception(), BrokenProcessPool)

    results = {}
    for job in jobs:
        if lost(job):
            unfinished = sorted({job[0] for job in jobs if lost(job)})
            names = ", ".join(f"run {r} (seed {inputs.config.seed + r})" for r in unfinished)
            raise RunFailedError(f"a worker process died; unfinished: {names}")
        results[job] = futures[job].result()
    return results


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all runs of one method and return the JSON-ready record store."""
    method = parse_method(config.method)
    train_ds, test_ds = _load_data(config)
    split = split_tasks(train_ds, config.num_tasks)
    inputs = _Inputs(method, config, train_ds, split, task_test_sets(test_ds, split))
    results = _run_jobs(inputs, _jobs(method, config.runs))
    runs = [_assemble(method, config, r, results) for r in range(config.runs)]
    summary = []
    if config.runs >= 2 and runs and runs[0].get("metrics"):
        final_task = max(m["task"] for m in runs[0]["metrics"])
        for name in ("A_T", "F_T", "I_T"):
            values = [
                m[name]
                for run in runs
                for m in run["metrics"]
                if m["task"] == final_task and not math.isnan(m[name])
            ]
            if len(values) == len(runs):
                mean, half = confidence_interval(values)
                summary.append({"metric": name, "mean": mean, "ci_half_width": half})
    return {
        "method": getattr(method, "label", method),
        "memory": config.memory,
        "num_runs": config.runs,
        "base_seed": config.seed,
        "runs": runs,
        "summary": summary,
    }


def _format(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def emit_report(records: dict, out_dir: str, fmt: str) -> list[str]:
    """Write reports for a record store; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "json":
        path = os.path.join(out_dir, "records.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True, allow_nan=True)
            fh.write("\n")
        written.append(path)
        return written
    if fmt != "csv":
        raise InvalidConfigError(f"unknown report format {fmt!r}")

    method = records["method"]
    memory = records["memory"]

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        out = csv_writer(fh)
        out.writerow(METRICS_HEADER)
        for run in records["runs"]:
            for m in run.get("metrics", []):
                out.writerow([
                    method, memory, run["run"], m["task"],
                    _format(float(m["A_T"])), _format(float(m["F_T"])),
                    _format(float(m["I_T"])), _format(float(run["wall_time"])),
                ])
    written.append(metrics_path)

    diag_path = os.path.join(out_dir, "diagnostics.csv")
    with open(diag_path, "w", newline="", encoding="utf-8") as fh:
        out = csv_writer(fh)
        out.writerow(DIAGNOSTICS_HEADER)
        for run in records["runs"]:
            for task in sorted(run.get("diagnostics", {}), key=int):
                d = run["diagnostics"][task]
                out.writerow([
                    method, memory, run["run"], task,
                    _format(float(d["mean_weight_old"])),
                    _format(float(d["mean_weight_new"])),
                    _format(float(d["mean_logit_old"])),
                    _format(float(d["mean_logit_new"])),
                    d["hsi"], d["asi"], d["esi"],
                ])
    written.append(diag_path)

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        out = csv_writer(fh)
        out.writerow(SUMMARY_HEADER)
        for item in records.get("summary", []):
            out.writerow([
                method, memory, records["num_runs"], item["metric"],
                _format(float(item["mean"])), _format(float(item["ci_half_width"])),
            ])
    written.append(summary_path)
    return written


def _resolve_out(cli_out: str | None, config: ExperimentConfig) -> str:
    return cli_out or config.out or os.environ.get(OUT_ENV_VAR, "") or DEFAULT_OUT


def _cmd_run(args) -> int:
    config = parse_config(
        args.config,
        overrides={
            "seed": args.seed, "runs": args.runs,
            "method": args.method, "out": args.out,
        },
    )
    out_dir = _resolve_out(args.out, config)
    os.makedirs(out_dir, exist_ok=True)
    try:
        records = run_experiment(config)
    except Exception as exc:
        # configuration and data errors surface before the first step and
        # exit 2 from main; anything later leaves a marker and exits 1
        if isinstance(exc, AfslabError) and not isinstance(exc, RunFailedError):
            raise
        marker = os.path.join(out_dir, "INCOMPLETE")
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(f"run failed: {exc}\n")
        print(f"error: run failed, marker written to {marker}", file=sys.stderr)
        return 1
    emit_report(records, out_dir, "json")
    emit_report(records, out_dir, "csv")
    final = records["runs"][-1].get("metrics", [])
    if final:
        last = final[-1]
        print(
            f"{records['method']}: runs={config.runs} "
            f"A_T={last['A_T']:.4f} (final task {last['task']})"
        )
    print(f"reports written to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    path = os.path.join(args.in_dir, "records.json")
    if not os.path.exists(path):
        print(f"error: no records.json under {args.in_dir}", file=sys.stderr)
        return 2
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    for written in emit_report(records, args.in_dir, args.format):
        print(written)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="afslab",
        description="Replay-based online class-incremental learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a seeded multi-run experiment")
    run_parser.add_argument("--config", required=True, help="key=value config file")
    run_parser.add_argument("--seed", type=int, help="override the base seed")
    run_parser.add_argument("--runs", type=int, help="override the number of runs")
    run_parser.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./{DEFAULT_OUT})")
    run_parser.add_argument("--method", help="afs | er | reference | offline | ablation:<flags>")

    report_parser = sub.add_parser("report", help="re-emit reports from records.json")
    report_parser.add_argument("--in", dest="in_dir", required=True)
    report_parser.add_argument("--format", choices=("csv", "json"), required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except AfslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
