"""Experiment runner and report writer.

Experiments are described by a flat key=value config file; the `run`
command executes one method over several seeded runs and writes a JSON
record store plus CSV reports, and `report` re-emits reports from a stored
record file. Outputs carry no timestamps, so identical configs and seeds
reproduce byte-identical reports (wall-time columns aside).
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

import numpy as np

from .errors import AfslabError, InvalidConfigError, RunFailedError
from .losses import LossConfig
from .memory import MemoryBuffer
from .metrics import (
    average_accuracy,
    average_forgetting,
    average_intransigence,
    confidence_interval,
)
from .model import NetworkSpec, init_network
from .stream import (
    AUGMENT_KINDS,
    Dataset,
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
        if isinstance(template, bool):
            return value.lower() in ("1", "true", "yes", "on")
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


def _single_run(
    method: Recipe | str,
    config: ExperimentConfig,
    train_ds: Dataset,
    split,
    tests,
    run_index: int,
) -> dict:
    run_seed = config.seed + run_index
    keys = np.random.SeedSequence(run_seed).spawn(4)
    model_seed = int(keys[0].generate_state(1)[0])
    trainer_seed = int(keys[2].generate_state(1)[0])
    widths = (train_ds.features.shape[1], *config.hidden, train_ds.num_classes)
    spec = NetworkSpec(layer_widths=widths, seed=model_seed)
    tcfg = _train_config(config, trainer_seed, train_ds.num_classes)
    streams = task_streams(train_ds, split, config.stream_batch, keys[1])

    out: dict = {"run": run_index, "seed": run_seed}
    # from here on an error is a failed run, not a bad configuration
    try:
        if isinstance(method, Recipe):
            record = run_stream(
                init_network(spec), MemoryBuffer(config.memory), train_ds,
                streams, tests, tcfg, method,
            )
            reference = train_reference(init_network(spec), train_ds, streams, tests, tcfg)
            matrix = record.accuracy_matrix
            rows = []
            for t in range(1, matrix.num_tasks + 1):
                rows.append({
                    "task": t,
                    "A_T": average_accuracy(matrix, t),
                    "F_T": average_forgetting(matrix, t) if t >= 2 else math.nan,
                    "I_T": average_intransigence(matrix, reference, t),
                })
            out.update({
                "matrix": matrix.rows,
                "reference": reference,
                "metrics": rows,
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
            })
        elif method == "reference":
            started = time.perf_counter()
            reference = train_reference(init_network(spec), train_ds, streams, tests, tcfg)
            out.update({
                "reference": reference,
                "metrics": [
                    {"task": t, "A_T": acc, "F_T": math.nan, "I_T": math.nan}
                    for t, acc in enumerate(reference, start=1)
                ],
                "wall_time": time.perf_counter() - started,
                "diagnostics": {},
            })
        else:  # offline
            started = time.perf_counter()
            state = train_offline(
                init_network(spec), train_ds, tcfg, config.offline_epochs, keys[3]
            )
            per_task = [evaluate(state, ts) for ts in tests]
            out.update({
                "offline_per_task": per_task,
                "metrics": [{
                    "task": len(tests),
                    "A_T": float(np.mean(per_task)),
                    "F_T": math.nan,
                    "I_T": math.nan,
                }],
                "wall_time": time.perf_counter() - started,
                "diagnostics": {},
            })
    except AfslabError as exc:
        raise RunFailedError(f"run {run_index} (seed {run_seed}): {exc}") from exc
    return out


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all runs of one method and return the JSON-ready record store."""
    method = parse_method(config.method)
    train_ds, test_ds = _load_data(config)
    split = split_tasks(train_ds, config.num_tasks)
    tests = task_test_sets(test_ds, split)
    runs = [
        _single_run(method, config, train_ds, split, tests, r)
        for r in range(config.runs)
    ]
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
