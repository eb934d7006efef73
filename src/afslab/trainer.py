"""Single-pass replay training: one stream loop, one `Recipe` per method.

The stream loop retrieves a replay batch from memory, optionally augments
it, takes one SGD step on the mean per-row loss over the incoming rows plus
the replay rows, then offers the incoming rows to the reservoir. After each
task boundary an optional review pass fine-tunes on the memory contents at
a low learning rate, and the model is scored on every task seen so far to
fill one row of the accuracy matrix. Rows travel as arrays throughout: a
stream batch is an index array into the `Dataset`, a replay batch an index
array into the `MemoryBuffer`.

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

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .losses import CLS_KINDS, REG_KINDS, LossConfig, Objective, make_objective
from .memory import MemoryBuffer, random_retrieve, reservoir_update
from .metrics import AccuracyMatrix, DiagnosticsRecord, bias_diagnostics
from .model import NetworkState, Workspace, backward, forward, score_rows, sgd_step
from .stream import Dataset, augment


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
    `cli.ExperimentConfig`. Replay augmentation defaults to off
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
        if self.stream_batch < 1 or self.retrieve_batch < 0 or self.rv_batch < 1:
            raise InvalidConfigError("batch sizes out of range")
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
    `state` itself.
    """
    if rv_batch < 1:
        raise InvalidConfigError(f"rv_batch must be positive, got {rv_batch}")
    if rv_lr < 0:
        raise InvalidConfigError(f"rv_lr must be non-negative, got {rv_lr}")
    if rv_lr == 0 or len(memory) == 0:
        return state
    objective = make_objective(cls_kind, "none", loss)
    state, workspace = state.copy(), Workspace()
    order = rng.permutation(len(memory))
    for start in range(0, len(order), rv_batch):
        rows = order[start : start + rv_batch]
        sgd_on_batch(
            state, memory.features[rows], memory.labels[rows], objective, rv_lr,
            workspace,
        )
    return state


def _review_step_count(memory: MemoryBuffer, config: TrainConfig) -> int:
    if config.rv_lr == 0 or len(memory) == 0:
        return 0
    return math.ceil(len(memory) / config.rv_batch)


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
    """
    if len(test_sets) < len(streams):
        raise InvalidInputError("need one test set per task")
    state, workspace = state.copy(), Workspace()
    rng = np.random.default_rng(config.seed)
    objective = make_objective(recipe.cls, recipe.reg, config.loss)
    augment_replay = recipe.augment_replay and config.augment_kind != "none"
    matrix = AccuracyMatrix()
    diagnostics: dict[int, DiagnosticsRecord] = {}
    steps = 0
    review_steps = 0
    seen = np.empty(0, dtype=np.int64)  # dataset rows of the finished tasks
    seen_classes: set[int] = set()
    started = time.perf_counter()

    def review(state: NetworkState) -> NetworkState:
        nonlocal review_steps
        review_steps += _review_step_count(memory, config)
        return review_pass(
            state, memory, config.rv_lr, config.rv_batch,
            config.loss, rng, cls_kind=recipe.cls,
        )

    for task_number, stream in enumerate(streams, start=1):
        for batch in stream:
            x, y = dataset.features[batch], dataset.labels[batch]
            # step rows: incoming, then replay, then augmented replay
            step_x, step_y = [x], [y]
            picks = random_retrieve(memory, config.retrieve_batch, rng)
            if len(picks):
                replay_x, replay_y = memory.features[picks], memory.labels[picks]
                step_x.append(replay_x)
                step_y.append(replay_y)
                if augment_replay:
                    step_x.append(
                        augment(replay_x, config.augment_kind, rng, config.jitter_sigma)
                    )
                    step_y.append(replay_y)
            sgd_on_batch(
                state, np.concatenate(step_x), np.concatenate(step_y),
                objective, config.lr, workspace,
            )
            steps += 1
            reservoir_update(memory, x, y, batch, rng)
            if recipe.review and config.rv_every and steps % config.rv_every == 0:
                state = review(state)
        if recipe.review and not config.rv_every:
            state = review(state)
        matrix.append_row(
            [evaluate(state, test_sets[j]) for j in range(task_number)]
        )
        rows = np.concatenate([seen, *stream])
        new_classes = set(np.unique(dataset.labels[rows[len(seen):]]).tolist())
        if seen_classes:
            diagnostics[task_number] = bias_diagnostics(
                state, dataset.features, dataset.labels,
                seen_classes, new_classes, rows,
            )
        seen = rows
        seen_classes |= new_classes

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
