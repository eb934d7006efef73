"""Single-pass replay training loops.

The stream loop follows one recipe: retrieve a replay batch from memory,
optionally augment it, take one SGD step on the mean per-sample loss over
the incoming batch plus the replay material, then offer the incoming batch
to the reservoir. After each task boundary an optional review pass
fine-tunes on the memory contents at a low learning rate, and the model is
scored on every task seen so far to fill one row of the accuracy matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .losses import LossConfig, Objective, make_objective
from .memory import MemoryBuffer, random_retrieve, reservoir_update
from .metrics import AccuracyMatrix, DiagnosticsRecord, bias_diagnostics
from .model import NetworkState, backward, forward, sgd_step
from .stream import Dataset, Sample, StreamBatch, augment


@dataclass
class TrainConfig:
    """Knobs for the stream loop; defaults match the reference recipe."""

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
    state: NetworkState, samples: list[Sample], objective: Objective, lr: float
) -> NetworkState:
    """One step on the mean per-sample gradient over the batch.

    The batch goes through as one [n, d] matrix: one forward pass, one
    objective call on the [n, C] logits and one backward pass, which sums
    the per-row gradients.
    """
    if not samples:
        raise InvalidInputError("cannot step on an empty batch")
    trace = forward(state, np.stack([s.features for s in samples]))
    out = objective.rows(trace.logits, [s.label for s in samples])
    grads = backward(state, trace, out.grad_logits)
    return sgd_step(state, grads.scale(1.0 / len(samples)), lr)


def evaluate(state: NetworkState, test_set: tuple[np.ndarray, np.ndarray]) -> float:
    """Fraction of argmax-correct predictions on one task's test set."""
    features, labels = test_set
    if len(features) == 0:
        raise InvalidInputError("test set is empty")
    predictions = np.argmax(forward(state, features).logits, axis=1)
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
    distillation term. Memory itself is never modified. A zero rv_lr or an
    empty buffer leaves the model untouched.
    """
    if rv_batch < 1:
        raise InvalidConfigError(f"rv_batch must be positive, got {rv_batch}")
    if rv_lr < 0:
        raise InvalidConfigError(f"rv_lr must be non-negative, got {rv_lr}")
    if rv_lr == 0 or not memory.slots:
        return state
    objective = make_objective(cls_kind, "none", loss)
    order = rng.permutation(len(memory.slots))
    for start in range(0, len(order), rv_batch):
        chunk = [memory.slots[int(i)] for i in order[start : start + rv_batch]]
        state = sgd_on_batch(state, chunk, objective, rv_lr)
    return state


def _review_step_count(memory: MemoryBuffer, config: TrainConfig) -> int:
    if config.rv_lr == 0 or not memory.slots:
        return 0
    return math.ceil(len(memory.slots) / config.rv_batch)


def _run_stream(
    state: NetworkState,
    memory: MemoryBuffer,
    task_streams: list[list[StreamBatch]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
    cls_kind: str,
    reg_kind: str,
    use_review: bool,
    augment_replay: bool,
) -> RunRecord:
    if len(test_sets) < len(task_streams):
        raise InvalidInputError("need one test set per task")
    rng = np.random.default_rng(config.seed)
    objective = make_objective(cls_kind, reg_kind, config.loss)
    matrix = AccuracyMatrix()
    diagnostics: dict[int, DiagnosticsRecord] = {}
    steps = 0
    review_steps = 0
    seen_samples: list[Sample] = []
    seen_classes: set[int] = set()
    started = time.perf_counter()

    for task_number, stream in enumerate(task_streams, start=1):
        task_samples: list[Sample] = []
        for batch in stream:
            incoming = list(batch.samples)
            replay = random_retrieve(memory, config.retrieve_batch, rng)
            if replay and augment_replay and config.augment_kind != "none":
                replay = replay + augment(
                    replay, config.augment_kind, rng, config.jitter_sigma
                )
            state = sgd_on_batch(state, incoming + replay, objective, config.lr)
            steps += 1
            reservoir_update(memory, incoming, rng)
            task_samples.extend(incoming)
            if use_review and config.rv_every and steps % config.rv_every == 0:
                review_steps += _review_step_count(memory, config)
                state = review_pass(
                    state, memory, config.rv_lr, config.rv_batch,
                    config.loss, rng, cls_kind=cls_kind,
                )
        if use_review and not config.rv_every:
            review_steps += _review_step_count(memory, config)
            state = review_pass(
                state, memory, config.rv_lr, config.rv_batch,
                config.loss, rng, cls_kind=cls_kind,
            )
        matrix.append_row(
            [evaluate(state, test_sets[j]) for j in range(task_number)]
        )
        new_classes = {s.label for s in task_samples}
        if seen_classes:
            diagnostics[task_number] = bias_diagnostics(
                state, seen_samples + task_samples, seen_classes, new_classes
            )
        seen_samples.extend(task_samples)
        seen_classes |= new_classes

    return RunRecord(
        accuracy_matrix=matrix,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - started,
        steps=steps,
        review_steps=review_steps,
        final_state=state,
    )


def train_afs(
    state: NetworkState,
    memory: MemoryBuffer,
    task_streams: list[list[StreamBatch]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> RunRecord:
    """Full recipe: RFL + distillation on incoming plus augmented replay,
    review pass after each task."""
    return _run_stream(
        state, memory, task_streams, test_sets, config,
        cls_kind="rfl", reg_kind="vkd", use_review=True, augment_replay=True,
    )


def train_er_baseline(
    state: NetworkState,
    memory: MemoryBuffer,
    task_streams: list[list[StreamBatch]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> RunRecord:
    """Plain experience replay: cross-entropy on incoming plus retrieved
    samples, no augmentation, no review pass."""
    return _run_stream(
        state, memory, task_streams, test_sets, config,
        cls_kind="ce", reg_kind="none", use_review=False, augment_replay=False,
    )


def train_ablation(
    state: NetworkState,
    memory: MemoryBuffer,
    task_streams: list[list[StreamBatch]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
    cls_kind: str = "rfl",
    reg_kind: str = "vkd",
    use_review: bool = True,
) -> RunRecord:
    """The replay pipeline with each ingredient toggleable independently."""
    return _run_stream(
        state, memory, task_streams, test_sets, config,
        cls_kind=cls_kind, reg_kind=reg_kind, use_review=use_review,
        augment_replay=True,
    )


def train_reference(
    state: NetworkState,
    task_streams: list[list[StreamBatch]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> list[float]:
    """Memory-free incremental fine-tuning with cross-entropy.

    Returns each task's accuracy measured right after that task was learned,
    the per-task reference used by the intransigence metric.
    """
    objective = make_objective("ce", "none", config.loss)
    accuracies = []
    for task_number, stream in enumerate(task_streams, start=1):
        for batch in stream:
            state = sgd_on_batch(state, list(batch.samples), objective, config.lr)
        accuracies.append(evaluate(state, test_sets[task_number - 1]))
    return accuracies


def train_offline(
    state: NetworkState,
    dataset: Dataset,
    config: TrainConfig,
    epochs: int,
    seed,
) -> NetworkState:
    """Multi-epoch iid training on the pooled dataset; the upper-bound oracle."""
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be positive, got {epochs}")
    rng = np.random.default_rng(seed)
    objective = make_objective("ce", "none", config.loss)
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), config.stream_batch):
            chunk = [dataset.sample(int(i)) for i in order[start : start + config.stream_batch]]
            state = sgd_on_batch(state, chunk, objective, config.lr)
    return state
