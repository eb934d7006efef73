"""Output checks applied to every repetition.

A repetition passes when the process exited 0 and its reports describe the
requested experiment: one record per seed, one optimizer step per stream
batch, a lower-triangular accuracy matrix of values in [0, 1], a final
average accuracy inside the band the seed commit produced, and a final
accuracy on the earlier tasks that only a replaying learner keeps. Repetitions of
the same inputs must also write byte-identical reports once the wall-time
fields are removed, as the README promises.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

REPORTS = ("records.json", "metrics.csv", "diagnostics.csv", "summary.csv")


def check_repetition(exit_code: int | None, out_dir: str, inputs) -> list[str]:
    """Problems found with one repetition's exit code and reports; [] if none."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in REPORTS if not os.path.isfile(os.path.join(out_dir, name))]
    if missing:
        return [f"missing reports {missing}"]
    try:
        with open(os.path.join(out_dir, "records.json"), encoding="utf-8") as fh:
            return _check_records(json.load(fh), inputs)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"records.json malformed: {exc!r}"]


def _check_records(records: dict, inputs) -> list[str]:
    runs = records["runs"]
    seeds = [run["seed"] for run in runs]
    problems = []
    expected = [inputs.base_seed + i for i in range(inputs.runs)]
    if seeds != expected:
        problems.append(f"seeds {seeds} != {expected}")
    lo, hi = inputs.final_accuracy
    for run in runs:
        tag = f"run {run.get('run')}"
        if run.get("steps") != inputs.steps_per_run:
            problems.append(f"{tag}: steps {run.get('steps')} != {inputs.steps_per_run} batches")
        matrix = run.get("matrix") or []
        if len(matrix) != inputs.num_tasks or any(
            len(row) != i + 1 for i, row in enumerate(matrix)
        ):
            problems.append(f"{tag}: accuracy matrix is not {inputs.num_tasks}-task lower-triangular")
        elif not all(
            isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for row in matrix for v in row
        ):
            problems.append(f"{tag}: accuracy outside [0, 1]")
        elif inputs.num_tasks > 1:
            old = sum(matrix[-1][:-1]) / (inputs.num_tasks - 1)
            if old < inputs.min_old_accuracy:
                problems.append(f"{tag}: old-task accuracy {old:.4f} < "
                                f"{inputs.min_old_accuracy} after the last task (forgetting)")
        final = [m for m in run.get("metrics", []) if m.get("task") == inputs.num_tasks]
        a_t = final[0].get("A_T") if final else None
        if not isinstance(a_t, (int, float)) or math.isnan(a_t) or not lo <= a_t <= hi:
            problems.append(f"{tag}: final A_T {a_t} outside [{lo}, {hi}]")
    return problems


def comparable_reports(out_dir: str) -> dict[str, str]:
    """Report contents with every wall-time field and column removed."""
    out = {}
    for name in REPORTS:
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            text = fh.read()
        if name.endswith(".json"):  # written with indent=2: one key per line
            lines = text.splitlines()
            text = "\n".join(l for l in lines if not l.lstrip().startswith('"wall_time"'))
        else:
            rows = list(csv.reader(io.StringIO(text)))
            keep = [i for i, h in enumerate(rows[0] if rows else []) if h != "wall_time"]
            text = "\n".join(",".join(row[i] for i in keep) for row in rows)
        out[name] = text
    return out


def report_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))
