"""The `afslab` command: config files, experiments and reports.

`parse_config` reads a flat key=value file into a `runner.ExperimentConfig`.
`run` hands the jobs of every run to `runner.run_jobs`, the same pool the
acceptance suite submits to, and writes a JSON record store plus CSV
reports in run order; `report` re-emits reports from a stored record file.
Outputs carry no timestamps, so identical configs and seeds reproduce
byte-identical reports (wall-time columns aside).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from csv import writer as csv_writer
from dataclasses import fields

from .errors import AfslabError, InvalidConfigError, RunFailedError
from .metrics import confidence_interval
from .runner import ExperimentConfig, assemble, jobs_for, parse_method, run_jobs

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


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all runs of one method and return the JSON-ready record store."""
    method = parse_method(config.method)
    results = run_jobs(jobs_for(config))
    runs = [assemble(config, r, results) for r in range(config.runs)]
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
        # over two runs or more, their mean A_T and its confidence half-width
        summary = {item["metric"]: item for item in records["summary"]}
        a_t = summary.get("A_T")
        value = (
            f"{a_t['mean']:.4f} +/- {a_t['ci_half_width']:.4f}"
            if a_t else f"{final[-1]['A_T']:.4f}"
        )
        print(
            f"{records['method']}: runs={config.runs} "
            f"A_T={value} (final task {final[-1]['task']})"
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
