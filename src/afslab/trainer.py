"""Single-pass replay training: one stream loop, one `Recipe` per method.

The stream loop retrieves a replay batch from memory, optionally augments
it, takes one SGD step on the mean per-row loss over the incoming rows plus
the replay rows, then offers the incoming rows to the reservoir. After each
task boundary an optional review pass fine-tunes on the memory contents at
a low learning rate, and the model is scored on every task seen so far to
fill one row of the accuracy matrix. Rows travel as arrays throughout: a
stream batch is an index array into the `Dataset`, a replay batch an index
array into the `MemoryBuffer`.

Retrieval is random, so what a step replays, its augmentation and what
the reservoir keeps never depend on the model. `run_stream` therefore
splits in two: `replay_schedule`, a generator that owns the rng and the
buffer and yields each step's replay rows as dataset indices plus their
augmentation draws (and each review's order), and the training, which reads
those rows from the dataset and steps. At each task boundary it hands the
state of that moment to a scorer that runs `evaluate` and the bias
diagnostics. When the process may use more CPUs than its BLAS runs
threads (a one-thread pool worker on two CPUs), the schedule and each
scorer run in forked helper processes (`sidecar`), overlapping the steps;
otherwise, as under `taskset -c 0`, they run in this process in the
serial order. Either way every draw and every BLAS call sees the same
inputs in the same order, so the record is the same.

Scoring never gathers the rows it scores: `evaluate` and the bias
diagnostics over every row seen so far both go through `model.score_rows`,
which reads rows by index in fixed chunks of `SCORE_CHUNK_ROWS`, so their
peak is chunk rows x the widest layers plus the `[n, C]` logits.

Every loop here (`run_stream`, `review_pass`, `train_reference`,
`train_offline`) copies the caller's `NetworkState` once on entry and steps
that copy in place through one `Workspace`, so the caller's state is never
changed and a step allocates no parameter or activation arrays.
`sgd_on_batch` without a workspace returns a stepped copy.

A `Recipe` says which ingredients a method switches on: the classification
loss, the regulariser, the review pass and replay augmentation. `AFS` and
`ER` are the two named recipes; `ablation:<cls>+<reg>+<rv|norv>` names the
rest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import AfslabError, InvalidConfigError, InvalidInputError
from .losses import CLS_KINDS, REG_KINDS, LossConfig, Objective, make_objective
from .memory import MemoryBuffer, random_retrieve, reservoir_update
from .metrics import AccuracyMatrix, DiagnosticsRecord, bias_diagnostics
from .model import NetworkState, Workspace, backward, forward, score_rows, sgd_step
from .sidecar import Helpers
from .stream import Dataset, apply_augment, draw_augment


@dataclass(frozen=True)
class Recipe:
    """Which ingredients of the replay loop a method uses.

    `name` is display only: `AFS` equals `Recipe.parse("ablation:rfl+vkd+rv")`
    but keeps its own label.
    """

    cls: str = "rfl"
    reg: str = "vkd"
    review: bool = True
    augment_replay: bool = True
    name: str = field(default="", compare=False)

    @property
    def label(self) -> str:
        """The method name that `parse` maps back to this recipe."""
        rv = "rv" if self.review else "norv"
        return self.name or f"ablation:{self.cls}+{self.reg}+{rv}"

    @staticmethod
    def parse(text: str) -> Recipe:
        """Parse "afs", "er" or ablation:<cls>+<reg>+<rv|norv>.

        Ablation axes come in any order, each at most once; unset axes
        default to the full method, and augmentation of replay stays on.
        """
        name = text.strip().lower()
        if name in _NAMED:
            return _NAMED[name]
        if not name.startswith("ablation:"):
            raise InvalidConfigError(f"unknown method {text!r}")
        axes = {"cls": CLS_KINDS, "reg": REG_KINDS, "rv": ("rv", "norv")}
        chosen = {"cls": "rfl", "reg": "vkd", "rv": "rv"}
        seen: set[str] = set()
        tokens = [t for t in name.split(":", 1)[1].replace(",", "+").split("+") if t]
        for token in tokens:
            axis = next((a for a, options in axes.items() if token in options), None)
            if axis is None:
                raise InvalidConfigError(f"unknown ablation flag {token!r} in {text!r}")
            if axis in seen:
                raise InvalidConfigError(f"method {text!r} sets the {axis} axis twice")
            seen.add(axis)
            chosen[axis] = token
        return Recipe(chosen["cls"], chosen["reg"], review=chosen["rv"] == "rv")


# Full recipe: RFL + distillation on incoming plus augmented replay, review
# after each task. Plain experience replay: cross-entropy on incoming plus
# retrieved rows, no augmentation, no review.
AFS = Recipe(name="afs")
ER = Recipe("ce", "none", review=False, augment_replay=False, name="er")
_NAMED = {"afs": AFS, "er": ER}


@dataclass
class TrainConfig:
    """Knobs for the stream loop.

    Batch sizes, step sizes and loss settings default to the values of
    `runner.ExperimentConfig`. Replay augmentation defaults to off
    (`augment_kind="none"`; `jitter_sigma=0.1` applies once "vector" is
    chosen). The recipe's "vector" augmentation at sigma 1.2 is set by the
    caller: `ExperimentConfig` (`augment`, `jitter_sigma`) and the
    acceptance constants pass both explicitly.
    """

    stream_batch: int = 10
    retrieve_batch: int = 100
    lr: float = 0.1
    rv_lr: float = 0.01
    rv_batch: int = 10
    rv_every: int | None = None  # None: review at task boundaries
    loss: LossConfig = field(default_factory=LossConfig)
    augment_kind: str = "none"
    jitter_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("stream_batch", 1), ("retrieve_batch", 0), ("rv_batch", 1)):
            value = getattr(self, name)
            if value < least:
                raise InvalidConfigError(f"{name} must be at least {least}, got {value}")
        if self.lr <= 0:
            raise InvalidConfigError(f"lr must be positive, got {self.lr}")
        if self.rv_lr < 0:
            raise InvalidConfigError(f"rv_lr must be non-negative, got {self.rv_lr}")
        if self.rv_every is not None and self.rv_every < 1:
            raise InvalidConfigError(f"rv_every must be positive, got {self.rv_every}")


@dataclass
class RunRecord:
    """Everything one training run produces."""

    accuracy_matrix: AccuracyMatrix
    diagnostics: dict[int, DiagnosticsRecord]
    wall_time: float
    steps: int
    review_steps: int
    final_state: NetworkState


def sgd_on_batch(
    state: NetworkState,
    features: np.ndarray,
    labels: np.ndarray,
    objective: Objective,
    lr: float,
    workspace: Workspace | None = None,
) -> NetworkState:
    """One step on the mean per-row gradient over the [n, d] batch.

    One forward pass, one objective call on the [n, C] logits and one
    backward pass, which sums the per-row gradients. Without a workspace
    the step is taken on a copy, which is returned, and `state` is left as
    it was; with one, `state` itself is stepped in place and returned.
    """
    if len(features) == 0:
        raise InvalidInputError("cannot step on an empty batch")
    if workspace is None:
        state, workspace = state.copy(), Workspace()
    trace = forward(state, features, workspace)
    out = objective.rows(trace.logits, labels)
    grads = backward(state, trace, out.grad_logits, workspace)
    sgd_step(state, grads.scale(1.0 / len(features)), lr)
    return state


def evaluate(state: NetworkState, test_set: tuple[np.ndarray, np.ndarray]) -> float:
    """Fraction of argmax-correct predictions on one task's test set."""
    features, labels = test_set
    if len(features) == 0:
        raise InvalidInputError("test set is empty")
    predictions = np.argmax(score_rows(state, features), axis=1)
    return float(np.mean(predictions == labels))


def review_pass(
    state: NetworkState,
    memory: MemoryBuffer,
    rv_lr: float,
    rv_batch: int,
    loss: LossConfig,
    rng: np.random.Generator,
    cls_kind: str = "rfl",
) -> NetworkState:
    """One low-rate epoch over a shuffled copy of the memory contents.

    Uses the classification loss alone, with no augmentation and no
    distillation term. Memory itself is never modified. Returns the
    reviewed copy of `state`; a zero rv_lr or an empty buffer returns
    `state` itself and draws nothing.
    """
    if rv_batch < 1:
        raise InvalidConfigError(f"rv_batch must be positive, got {rv_batch}")
    if rv_lr < 0:
        raise InvalidConfigError(f"rv_lr must be non-negative, got {rv_lr}")
    if rv_lr == 0 or len(memory) == 0:
        return state
    order = rng.permutation(len(memory))
    return review_rows(
        state, memory.features, memory.labels, order, rv_lr, rv_batch, loss, cls_kind
    )


def review_rows(
    state: NetworkState,
    features: np.ndarray,
    labels: np.ndarray,
    order: np.ndarray,
    rv_lr: float,
    rv_batch: int,
    loss: LossConfig,
    cls_kind: str = "rfl",
) -> NetworkState:
    """The review epoch over `features[order]`, rv_batch rows to a step.

    Returns a stepped copy of `state`, or `state` itself for an empty order.
    """
    if len(order) == 0:
        return state
    objective = make_objective(cls_kind, "none", loss)
    state, workspace = state.copy(), Workspace()
    for start in range(0, len(order), rv_batch):
        rows = order[start : start + rv_batch]
        sgd_on_batch(state, features[rows], labels[rows], objective, rv_lr, workspace)
    return state


def _review_due(recipe: Recipe, config: TrainConfig, steps: int | None = None) -> bool:
    """Whether a review follows step number `steps`, or the task when None."""
    if not recipe.review:
        return False
    if steps is None:
        return not config.rv_every
    return bool(config.rv_every) and steps % config.rv_every == 0


def replay_schedule(
    memory: MemoryBuffer,
    dataset: Dataset,
    streams: list[list[np.ndarray]],
    config: TrainConfig,
    recipe: Recipe,
):
    """The model-free half of `run_stream`: what each step replays, and how.

    Owns the run's rng and `memory`, and makes the loop's draws in the
    loop's order: per step `random_retrieve`, then the augmentation draws of
    the replay rows, then `reservoir_update` with the incoming rows; per
    review a permutation of the memory slots (none when rv_lr is 0 or the
    buffer is empty). Yields, in loop order, `(replay, draws)` per step,
    with the replay rows as dataset indices and `draws` None when nothing is
    augmented, and the review order as dataset indices per review. The last
    item is the buffer's final `(tot, labels, uids)`.
    """
    rng = np.random.default_rng(config.seed)
    kind = config.augment_kind if recipe.augment_replay else "none"
    width = dataset.features.shape[1]

    def review_order() -> np.ndarray:
        if config.rv_lr == 0 or len(memory) == 0:
            return np.empty(0, dtype=np.int64)
        return memory.uids[rng.permutation(len(memory))]

    steps = 0
    for stream in streams:
        for batch in stream:
            picks = random_retrieve(memory, config.retrieve_batch, rng)
            draws = None
            if len(picks) and kind != "none":
                draws = draw_augment(kind, (len(picks), width), rng, config.jitter_sigma)
            replay = memory.uids[picks]
            reservoir_update(memory, dataset.features[batch], dataset.labels[batch], batch, rng)
            yield replay, draws
            steps += 1
            if _review_due(recipe, config, steps):
                yield review_order()
        if _review_due(recipe, config):
            yield review_order()
    yield memory.tot, memory.labels, memory.uids


def _score(state, test_sets, dataset, old_classes, new_classes, rows):
    """A task boundary's accuracy row, and its bias diagnostics once there are old classes."""
    accuracies = [evaluate(state, test_set) for test_set in test_sets]
    if not old_classes:
        return accuracies, None
    return accuracies, bias_diagnostics(
        state, dataset.features, dataset.labels, old_classes, new_classes, rows
    )


def _check_memory_rows(memory: MemoryBuffer, dataset: Dataset) -> None:
    """Replay reads memory rows from the dataset by uid; they must agree."""
    uids = memory.uids[: len(memory)]
    if len(uids) and (
        uids.min() < 0
        or uids.max() >= len(dataset)
        or not np.array_equal(memory.features[: len(uids)], dataset.features[uids])
    ):
        raise InvalidInputError("memory rows must be the dataset rows named by their uids")


def _restore_memory(memory, dataset, tot, labels, uids) -> None:
    """Set `memory` to the schedule's final buffer, reading its rows by uid."""
    memory.tot, memory.labels, memory.uids = tot, labels, uids
    filled = uids[: len(memory)]
    if len(filled):
        if memory.features is None:
            memory.features = np.empty(
                (memory.capacity, dataset.features.shape[1]), dataset.features.dtype
            )
        memory.features[: len(filled)] = dataset.features[filled]


def run_stream(
    state: NetworkState,
    memory: MemoryBuffer,
    dataset: Dataset,
    streams: list[list[np.ndarray]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
    recipe: Recipe,
) -> RunRecord:
    """Train one recipe over the task streams (index arrays into `dataset`).

    `state` is copied on entry; the trained copy is the record's `final_state`.
    `memory` may already hold rows, each the dataset row its uid names; it
    ends as the reservoir left it.
    """
    if len(test_sets) < len(streams):
        raise InvalidInputError("need one test set per task")
    _check_memory_rows(memory, dataset)
    state, workspace = state.copy(), Workspace()
    objective = make_objective(recipe.cls, recipe.reg, config.loss)
    matrix = AccuracyMatrix()
    diagnostics: dict[int, DiagnosticsRecord] = {}
    steps = 0
    review_steps = 0
    seen = np.empty(0, dtype=np.int64)  # dataset rows of the finished tasks
    seen_classes: set[int] = set()
    scores = []  # per finished task, a call returning its `_score`
    started = time.perf_counter()

    def review(state: NetworkState, order: np.ndarray) -> NetworkState:
        nonlocal review_steps
        review_steps += math.ceil(len(order) / config.rv_batch)
        return review_rows(
            state, dataset.features, dataset.labels, order,
            config.rv_lr, config.rv_batch, config.loss, recipe.cls,
        )

    with Helpers() as helpers:
        plan = helpers.stream(
            lambda: replay_schedule(memory, dataset, streams, config, recipe)
        )
        try:
            for task_number, stream in enumerate(streams, start=1):
                for batch in stream:
                    replay, draws = next(plan)
                    rows = np.concatenate([batch, replay])
                    x, y = dataset.features[rows], dataset.labels[rows]
                    if draws is not None:
                        # step rows: incoming, then replay, then augmented replay
                        augmented = apply_augment(x[len(batch):], config.augment_kind, draws)
                        x = np.concatenate([x, augmented])
                        y = np.concatenate([y, y[len(batch):]])
                    sgd_on_batch(state, x, y, objective, config.lr, workspace)
                    steps += 1
                    if _review_due(recipe, config, steps):
                        state = review(state, next(plan))
                if _review_due(recipe, config):
                    state = review(state, next(plan))
                rows = np.concatenate([seen, *stream])
                new_classes = set(np.unique(dataset.labels[rows[len(seen):]]).tolist())
                scores.append(helpers.call(partial(
                    _score, state, test_sets[:task_number], dataset,
                    seen_classes, new_classes, rows,
                )))
                seen = rows
                seen_classes |= new_classes
            tot, labels, uids = next(plan)
        except AfslabError:
            for score in scores:
                score()  # a scoring failure comes first in the loop's order
            raise
        for task_number, score in enumerate(scores, start=1):
            accuracies, diagnosed = score()
            matrix.append_row(accuracies)
            if diagnosed is not None:
                diagnostics[task_number] = diagnosed
        if helpers.forked:  # the schedule filled its own copy of the buffer
            _restore_memory(memory, dataset, tot, labels, uids)

    return RunRecord(
        accuracy_matrix=matrix,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - started,
        steps=steps,
        review_steps=review_steps,
        final_state=state,
    )


def train_reference(
    state: NetworkState,
    dataset: Dataset,
    streams: list[list[np.ndarray]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> list[float]:
    """Memory-free incremental fine-tuning with cross-entropy.

    Returns each task's accuracy measured right after that task was learned,
    the per-task reference used by the intransigence metric.
    """
    objective = make_objective("ce", "none", config.loss)
    state, workspace = state.copy(), Workspace()
    accuracies = []
    for task_number, stream in enumerate(streams, start=1):
        for batch in stream:
            sgd_on_batch(
                state, dataset.features[batch], dataset.labels[batch],
                objective, config.lr, workspace,
            )
        accuracies.append(evaluate(state, test_sets[task_number - 1]))
    return accuracies


def train_offline(
    state: NetworkState,
    dataset: Dataset,
    config: TrainConfig,
    epochs: int,
    seed,
) -> NetworkState:
    """Multi-epoch iid training on the pooled dataset; the upper-bound oracle.

    Returns the trained copy of `state`.
    """
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be positive, got {epochs}")
    rng = np.random.default_rng(seed)
    objective = make_objective("ce", "none", config.loss)
    state, workspace = state.copy(), Workspace()
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), config.stream_batch):
            rows = order[start : start + config.stream_batch]
            sgd_on_batch(
                state, dataset.features[rows], dataset.labels[rows],
                objective, config.lr, workspace,
            )
    return state
