"""Continual-learning metrics over the task accuracy matrix.

The matrix is lower-triangular: entry (i, j) is the accuracy on task j's
test set measured after training on task i, for j <= i. From it come average
accuracy, average forgetting and, with an incrementally fine-tuned reference,
average intransigence. Confidence intervals use the Student-t 0.975 quantile.

`bias_diagnostics` scores rows through `model.score_rows`: given row
indices it reads them from the feature matrix in fixed chunks instead of
gathering them, so its peak is chunk rows x the widest layers plus the
`[n, C]` logits, not a copy of every scanned row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .losses import difficulty_counts, softmax_stable
from .model import NetworkState, score_rows

# Two-sided 95% Student-t quantiles (0.975 one-sided) for df 1..30; the
# normal quantile is used past the table.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z_975 = 1.959964


class AccuracyMatrix:
    """Lower-triangular accuracy records, one row appended per trained task."""

    def __init__(self, rows: list[list[float]] | None = None):
        self._rows: list[list[float]] = []
        for row in rows or []:
            self.append_row(row)

    @property
    def num_tasks(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[float]]:
        return [list(r) for r in self._rows]

    def append_row(self, row: list[float]) -> None:
        if len(row) != len(self._rows) + 1:
            raise InvalidInputError(
                f"row {len(self._rows) + 1} must have {len(self._rows) + 1} "
                f"entries, got {len(row)}"
            )
        values = [float(v) for v in row]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise InvalidInputError(f"accuracies must lie in [0, 1]: {values}")
        self._rows.append(values)

    def entry(self, after_task: int, on_task: int) -> float:
        """a_{i,j} with 1-based task indices, defined for j <= i."""
        if not 1 <= on_task <= after_task <= self.num_tasks:
            raise UndefinedMetricError(
                f"entry ({after_task}, {on_task}) outside the recorded triangle"
            )
        return self._rows[after_task - 1][on_task - 1]


def average_accuracy(matrix: AccuracyMatrix, after_task: int | None = None) -> float:
    """Mean accuracy over all tasks seen so far: (1/T) sum_j a_{T,j}."""
    t = matrix.num_tasks if after_task is None else after_task
    if not 1 <= t <= matrix.num_tasks:
        raise UndefinedMetricError(f"no row recorded for task {t}")
    return float(np.mean(matrix.rows[t - 1]))


def average_forgetting(matrix: AccuracyMatrix, after_task: int | None = None) -> float:
    """Mean drop from each old task's best earlier accuracy to its current one.

    f_{T,j} = max_{l < T} a_{l,j} - a_{T,j}, averaged over j < T. Undefined
    for fewer than two tasks.
    """
    t = matrix.num_tasks if after_task is None else after_task
    if t < 2:
        raise UndefinedMetricError("forgetting needs at least two tasks")
    if t > matrix.num_tasks:
        raise UndefinedMetricError(f"no row recorded for task {t}")
    drops = []
    for j in range(1, t):
        best = max(matrix.entry(l, j) for l in range(j, t))
        drops.append(best - matrix.entry(t, j))
    return float(np.mean(drops))


def average_intransigence(
    matrix: AccuracyMatrix, reference_accuracies: list[float],
    after_task: int | None = None,
) -> float:
    """Mean gap between a per-task reference model and the continual learner.

    I_T = (1/T) sum_j (a_j^ref - a_{j,j}) where a_j^ref is the reference
    accuracy on task j right after it was learned in isolation from memory
    constraints.
    """
    t = matrix.num_tasks if after_task is None else after_task
    if not 1 <= t <= matrix.num_tasks:
        raise UndefinedMetricError(f"no row recorded for task {t}")
    if len(reference_accuracies) < t:
        raise InvalidInputError(
            f"need {t} reference accuracies, got {len(reference_accuracies)}"
        )
    gaps = [reference_accuracies[j - 1] - matrix.entry(j, j) for j in range(1, t + 1)]
    return float(np.mean(gaps))


def confidence_interval(values: list[float]) -> tuple[float, float]:
    """Mean and 95% half-width t_{0.975, n-1} * s / sqrt(n) over runs."""
    if len(values) < 2:
        raise UndefinedMetricError("confidence interval needs at least two values")
    arr = np.asarray(values, dtype=np.float64)
    n = len(arr)
    quantile = _T_975.get(n - 1, _Z_975)
    half = quantile * float(np.std(arr, ddof=1)) / math.sqrt(n)
    return float(arr.mean()), half


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Classifier-bias probes for one old/new class grouping.

    The fields are the report's diagnostics columns; `hsi`, `asi` and `esi`
    count new-class rows per p_t difficulty interval (`difficulty_counts`).
    """

    mean_weight_old: float
    mean_weight_new: float
    mean_logit_old: float
    mean_logit_new: float
    hsi: int
    asi: int
    esi: int


def bias_diagnostics(
    state: NetworkState,
    features: np.ndarray,
    labels: np.ndarray,
    old_classes: set[int],
    new_classes: set[int],
    rows: np.ndarray | None = None,
) -> DiagnosticsRecord:
    """Measure how the class head and logits tilt between old and new classes.

    The scanned rows are `features[rows]` with labels `labels[rows]`, or
    every row when `rows` is None; they are scored in chunks by index
    (`score_rows`), so passing indices into a dataset copies none of its
    features. Weight means pool every final-layer weight entry and bias of
    the group's rows. Logit means pool each scanned row's logits at the
    group's class indices, so target and non-target logits both contribute.
    Difficulty counts classify p_t for the new-class rows only.
    """
    if not old_classes or not new_classes:
        raise InvalidInputError("both class groups must be non-empty")
    if old_classes & new_classes:
        raise InvalidInputError("class groups must be disjoint")
    if len(features if rows is None else rows) == 0:
        raise InvalidInputError("need at least one row to scan")
    num_classes = state.num_classes
    for c in old_classes | new_classes:
        if not 0 <= c < num_classes:
            raise InvalidInputError(f"class {c} outside the {num_classes}-way head")

    old_idx = sorted(old_classes)
    new_idx = sorted(new_classes)

    def weight_mean(idx: list[int]) -> float:
        w = state.weights[-1][idx]
        b = state.biases[-1][idx]
        return float(np.concatenate([w.reshape(-1), b]).mean())

    logits = score_rows(state, features, rows)
    labels = np.asarray(labels)
    if rows is not None:
        labels = labels[rows]

    new_rows = np.flatnonzero(np.isin(labels, new_idx))
    p_t = np.empty(0)
    if new_rows.size:
        p_t = softmax_stable(logits[new_rows])[np.arange(new_rows.size), labels[new_rows]]

    return DiagnosticsRecord(
        mean_weight_old=weight_mean(old_idx),
        mean_weight_new=weight_mean(new_idx),
        mean_logit_old=float(logits[:, old_idx].mean()),
        mean_logit_new=float(logits[:, new_idx].mean()),
        **difficulty_counts(p_t),
    )
