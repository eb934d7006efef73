"""The `afslab` command: config files, experiments and reports.

`parse_config` reads a flat key=value file into a `runner.ExperimentConfig`,
whose construction checks every setting, the loss's and the trainer's too.
`run` hands the jobs of every run to `runner.run_jobs`, the same pool the
acceptance suite submits to, and writes a JSON record store plus CSV
reports in run order; `report` re-emits reports from a stored record file.
Each CSV table is declared once in `TABLES`, and one row builder reads the
store through it both to write and to check: every row is built before any
file is opened, so a malformed store exits 2 naming the path, the run and
the key. Outputs carry no timestamps, so identical configs and seeds
reproduce byte-identical reports (wall-time columns aside).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from csv import writer as csv_writer
from dataclasses import fields
from typing import NamedTuple

from .errors import AfslabError, FormatError, InvalidConfigError, RunFailedError
from .metrics import confidence_interval
from .runner import ExperimentConfig, assemble, jobs_for, parse_method, run_jobs

OUT_ENV_VAR = "AFSLAB_OUT"
DEFAULT_OUT = "runs"


class Column(NamedTuple):
    """One report column; a value that is no `number` is written as stored."""

    header: str
    where: str = "row"  # its value lives in the "store", the "run" record or the table's "row"
    key: str = ""  # its key there, if not the header
    number: bool = False  # a float, written at full precision ("nan" for NaN)


class Table(NamedTuple):
    """One CSV report, declared once for `emit_report` and `_check_record_store`."""

    file: str
    # the rows it walks: "summary" (the store's list), "metrics" (each run's list)
    # or "diagnostics" (each run's mapping in task order, its key the row's "task")
    rows: str
    columns: tuple[Column, ...]


_LABELS = (Column("method", "store"), Column("memory", "store"))
_RUN_TASK = (Column("run", "run"), Column("task"))
TABLES = (
    Table("metrics.csv", "metrics", (
        *_LABELS, *_RUN_TASK, *(Column(key, number=True) for key in ("A_T", "F_T", "I_T")),
        Column("wall_time", "run", number=True),
    )),
    Table("diagnostics.csv", "diagnostics", (
        *_LABELS, *_RUN_TASK, *(Column(key, number=True) for key in (
            "mean_weight_old", "mean_weight_new", "mean_logit_old", "mean_logit_new")),
        Column("hsi"), Column("asi"), Column("esi"),
    )),
    Table("summary.csv", "summary", (
        *_LABELS, Column("runs", "store", "num_runs"), Column("metric"),
        Column("mean", number=True), Column("ci_half_width", number=True),
    )),
)


def _parse_hidden(value: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        widths = ()
    if not widths:
        raise InvalidConfigError(f"hidden must be comma-separated ints: {value!r}")
    return widths


def parse_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat key=value file; later lines win, '#' starts a comment."""
    values: dict[str, object] = {}
    known = {f.name: f for f in fields(ExperimentConfig)}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
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
    values.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    defaults = ExperimentConfig()
    return ExperimentConfig(**{
        key: _convert(key, value, defaults) if isinstance(value, str) else value
        for key, value in values.items()
    })


def _convert(key: str, value: str, defaults: ExperimentConfig):
    if key == "hidden":
        return _parse_hidden(value)
    if key == "data_seed" and value.lower() in ("", "none"):
        return None
    template = 0 if key == "data_seed" else getattr(defaults, key)  # its default is None
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
    if config.runs >= 2:
        final_task = max(m["task"] for m in runs[0]["metrics"])
        for name in ("A_T", "F_T", "I_T"):
            values = [m[name] for run in runs for m in run["metrics"]
                      if m["task"] == final_task and not math.isnan(m[name])]
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


def _cell(scope: dict, column: Column, place: str):
    """The written value of `column` in `scope`; FormatError names `place` and the key."""
    key = column.key or column.header
    if key not in scope:
        raise FormatError(f"{place} misses key {key!r}" if place else f"missing key {key!r}")
    if not column.number:
        return scope[key]
    try:
        value = float(scope[key])
    except (TypeError, ValueError):
        raise FormatError(f"{place} key {key!r} holds {scope[key]!r}, not a number") from None
    return "nan" if math.isnan(value) else repr(value)


def _entries(value, kind: str, place: str) -> list[tuple[str, dict]]:
    """(place, row) of each entry of a summary or metrics list or a diagnostics mapping."""
    if value is None:  # the part is absent
        return []
    mapping = kind == "diagnostics"  # walked in task order, its key the row's "task"
    pairs = None
    if mapping and isinstance(value, dict) and all(map(str.isdigit, value)):
        pairs = [(task, value[task]) for task in sorted(value, key=int)]
    elif not mapping and isinstance(value, list):
        pairs = list(enumerate(value))
    if pairs is None or not all(isinstance(entry, dict) for _, entry in pairs):
        shape = "an object of task entries" if mapping else "a list of objects"
        raise FormatError(f"{place}{kind!r} is not {shape}")
    return [(f"{place}{kind}[{k!r}]", {"task": k, **e} if mapping else e) for k, e in pairs]


def _table_rows(table: Table, records: dict) -> list[list]:
    """Every row of `table` in `records`, as written."""
    known = {c: _cell(records, c, "") for c in table.columns if c.where == "store"}
    if table.rows == "summary":
        parts = [("", {}, records.get("summary"))]
    else:
        runs = _cell(records, Column("runs", "store"), "")
        if not isinstance(runs, list) or not all(isinstance(run, dict) for run in runs):
            raise FormatError("'runs' is not a list of objects")
        parts = [(f"run {i} ", run, run.get(table.rows)) for i, run in enumerate(runs)]
    rows = []
    for place, run, value in parts:
        known.update((c, _cell(run, c, place.strip())) for c in table.columns if c.where == "run")
        rows += [[known[c] if c in known else _cell(entry, c, where) for c in table.columns]
                 for where, entry in _entries(value, table.rows, place)]
    return rows


def _check_record_store(records, path: str) -> list[list[list]]:
    """The rows of each of `TABLES` in `records`, or FormatError naming the first gap."""
    try:
        if not isinstance(records, dict):
            raise FormatError(f"a JSON {type(records).__name__}, not an object")
        return [_table_rows(table, records) for table in TABLES]
    except FormatError as exc:
        raise FormatError(f"{path} is not a record store: {exc}") from None


def emit_report(records: dict, out_dir: str, fmt: str) -> list[str]:
    """Write reports for a record store; returns the paths written.

    Every row of every table is built before any file is opened, so a
    malformed store raises FormatError and leaves the files as they were.
    """
    if fmt not in ("csv", "json"):
        raise InvalidConfigError(f"unknown report format {fmt!r}")
    path = os.path.join(out_dir, "records.json")
    tables = _check_record_store(records, path)
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True, allow_nan=True)
            fh.write("\n")
        return [path]
    written = [os.path.join(out_dir, table.file) for table in TABLES]
    for path, table, rows in zip(written, TABLES, tables):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv_writer(fh).writerows([[c.header for c in table.columns], *rows])
    return written


def _cmd_run(args) -> int:
    overrides = {"seed": args.seed, "runs": args.runs, "method": args.method, "out": args.out}
    config = parse_config(args.config, overrides)
    out_dir = config.out or os.environ.get(OUT_ENV_VAR, "") or DEFAULT_OUT
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
    final = records["runs"][-1]["metrics"][-1]
    # over two runs or more, their mean A_T and its confidence half-width
    a_t = next((item for item in records["summary"] if item["metric"] == "A_T"), None)
    value = f"{a_t['mean']:.4f} +/- {a_t['ci_half_width']:.4f}" if a_t else f"{final['A_T']:.4f}"
    print(f"{records['method']}: runs={config.runs} A_T={value} (final task {final['task']})")
    print(f"reports written to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    path = os.path.join(args.in_dir, "records.json")
    if not os.path.exists(path):
        raise FormatError(f"no records.json under {args.in_dir}")
    with open(path, encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path} is not a JSON record store: {exc}") from exc
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
        return _cmd_run(args) if args.command == "run" else _cmd_report(args)
    except AfslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
