"""Single-pass replay training: one stream loop, one `Recipe` per method.

The stream loop retrieves a replay batch from memory, optionally augments
it, takes one SGD step on the mean per-row loss over the incoming rows plus
the replay rows, then offers the incoming rows to the reservoir. After each
task boundary an optional review pass fine-tunes on the memory contents at
a low learning rate, and the model is scored on every task seen so far to
fill one row of the accuracy matrix. Rows travel as index arrays into the
`Dataset` throughout: a stream batch, a replay batch and a review order all
name dataset rows, and the `MemoryBuffer` holds dataset indices, not rows.

Retrieval is random, so what a step replays, its augmentation and what the
reservoir keeps never depend on the model. `run_stream` therefore splits in
two: `replay_schedule`, a generator that owns the rng and the reservoir and
yields each step's replay rows as dataset indices plus their augmentation
draws (and each task's review order), and the training, which reads those
rows from the dataset and steps. `run_stream` builds the reservoir empty,
`config.memory` slots, for each run, and nothing reads it once the run ends.
At each task boundary the training hands the state of that moment to a
scorer that runs `evaluate` and the bias diagnostics. Given a CPU set
`helper_cpus`, which `runner.run_jobs` passes when every job has a pool
worker of its own, the schedule and each scorer run in forked helper
processes (`sidecar`) on those CPUs, overlapping the steps; the last task's
scorer stays on the trainer's CPUs, since from then on the trainer only
waits for it. By default (None) they run in this process in the serial
order. Either way every draw and every BLAS call sees the same inputs in the
same order, so the record is the same.

Scoring never gathers the rows it scores: `evaluate` and the bias
diagnostics over every row seen so far both go through `model.score_rows`,
which reads rows by index in fixed chunks of `SCORE_CHUNK_ROWS`, so their
peak is chunk rows x the widest layers plus the `[n, C]` logits.

`run_stream` is the one training loop: every pass of a run goes through
it, the memory-free reference and offline passes too (`runner._run_job`),
and it takes every step of a pass, the review's included. It copies the
caller's `NetworkState` once on entry and steps that copy in place through
one `Workspace`, so the caller's state is never changed and a step
allocates no parameter or activation arrays. `sgd_on_batch`, the one step,
steps the state it is given in place through the workspace it is given.

A `Recipe` says which ingredients a method switches on: the classification
loss, the regulariser, the review pass and replay augmentation. `AFS` and
`ER` are the two named recipes; `ablation:<cls>+<reg>+<rv|norv>` names the
rest. `TrainConfig` is how they run: it extends `losses.LossConfig` with the
loops' reservoir size, batch sizes, step sizes, replay augmentation and
offline epochs, and `runner.ExperimentConfig` extends it in turn, so every
loop here takes the experiment's own config. A run's trainer seed is no
setting but derived from it, so the loops that draw (`run_stream`,
`replay_schedule`) take it as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import AfslabError, InvalidConfigError, InvalidInputError
from .losses import CLS_KINDS, REG_KINDS, LossConfig, Objective, make_objective
from .memory import MemoryBuffer, random_retrieve, reservoir_update
from .metrics import AccuracyMatrix, DiagnosticsRecord, bias_diagnostics
from .model import NetworkState, Workspace, backward, forward, score_rows, sgd_step
from .sidecar import Helpers
from .stream import AUGMENT_KINDS, Dataset, apply_augment, draw_augment


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


@dataclass(frozen=True)
class TrainConfig(LossConfig):
    """The loss's settings plus the loops' own.

    Each step takes `stream_batch` incoming rows and retrieves up to
    `retrieve_batch` replay rows from a reservoir of `memory` slots,
    stepping at `lr`; a recipe that augments replay adds an `augment` copy
    of them ("vector" jitter at `jitter_sigma`, or "image" flip and crop).
    After each task's last step a review takes steps of `rv_batch` memory
    rows at `rv_lr` on the classification loss alone; `replay_schedule`
    decides its order, one per task. The offline pass streams
    `offline_epochs` shuffles of the whole dataset (`stream.offline_stream`)
    as the last of its tasks.
    """

    memory: int = 200
    stream_batch: int = 10
    retrieve_batch: int = 100
    lr: float = 0.1
    rv_lr: float = 0.01
    rv_batch: int = 10
    augment: str = "vector"
    jitter_sigma: float = 1.2
    offline_epochs: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.memory < 1:
            raise InvalidConfigError(f"memory must be positive, got {self.memory}")
        for name, least in (("stream_batch", 1), ("retrieve_batch", 0), ("rv_batch", 1)):
            value = getattr(self, name)
            if value < least:
                raise InvalidConfigError(f"{name} must be at least {least}, got {value}")
        if self.lr <= 0:
            raise InvalidConfigError(f"lr must be positive, got {self.lr}")
        if self.rv_lr < 0:
            raise InvalidConfigError(f"rv_lr must be non-negative, got {self.rv_lr}")
        if self.augment not in AUGMENT_KINDS:
            raise InvalidConfigError(f"unknown augmentation kind {self.augment!r}")
        if self.jitter_sigma < 0:
            raise InvalidConfigError(f"jitter_sigma must be non-negative, got {self.jitter_sigma}")
        if self.offline_epochs < 1:
            raise InvalidConfigError(f"offline_epochs must be positive, got {self.offline_epochs}")


@dataclass
class RunRecord:
    """Everything one training run produces."""

    accuracy_matrix: AccuracyMatrix
    diagnostics: dict[int, DiagnosticsRecord]
    steps: int
    review_steps: int
    final_state: NetworkState


def sgd_on_batch(
    state: NetworkState,
    features: np.ndarray,
    labels: np.ndarray,
    objective: Objective,
    lr: float,
    workspace: Workspace,
) -> None:
    """Step `state` in place on the mean per-row gradient over the [n, d] batch.

    One forward pass into `workspace`, which is its trace, one objective
    call on the [n, C] logits and one backward pass through that trace,
    which sums the per-row gradients into the workspace's `grads`.
    """
    if len(features) == 0:
        raise InvalidInputError("cannot step on an empty batch")
    trace = forward(state, features, workspace)
    out = objective.rows(trace.logits, labels)
    grads = backward(state, trace, out.grad_logits)
    sgd_step(state, grads.scale(1.0 / len(features)), lr)


def evaluate(state: NetworkState, test_set: tuple[np.ndarray, np.ndarray]) -> float:
    """Fraction of argmax-correct predictions on one task's test set."""
    features, labels = test_set
    if len(features) == 0:
        raise InvalidInputError("test set is empty")
    predictions = np.argmax(score_rows(state, features), axis=1)
    return float(np.mean(predictions == labels))


def replay_schedule(
    memory: MemoryBuffer,
    dataset: Dataset,
    streams: list[list[np.ndarray]],
    config: TrainConfig,
    recipe: Recipe,
    seed: int,
):
    """The model-free half of `run_stream`: what each step replays, and how.

    Owns the run's rng, seeded with `seed`, and `memory`, and makes the
    loop's draws in the loop's order: per step `random_retrieve`, then the
    augmentation draws of the replay rows, then `reservoir_update` with the
    incoming rows; per task a permutation of the memory slots for the
    review. This is the one place that decides a review. Yields, in loop
    order, `(replay, draws)` per step, with the replay rows as dataset
    indices and `draws` None when nothing is augmented, and after each
    task's last step exactly one review order as dataset indices: empty,
    with no draw, when the recipe has no review, rv_lr is 0 or the buffer
    is empty.
    """
    rng = np.random.default_rng(seed)
    kind = config.augment if recipe.augment_replay else "none"
    width = dataset.features.shape[1]
    for stream in streams:
        for batch in stream:
            picks = random_retrieve(memory, config.retrieve_batch, rng)
            draws = None
            if len(picks) and kind != "none":
                draws = draw_augment(kind, (len(picks), width), rng, config.jitter_sigma)
            replay = memory.uids[picks]
            reservoir_update(memory, batch, rng)
            yield replay, draws
        if not recipe.review or config.rv_lr == 0 or len(memory) == 0:
            yield np.empty(0, dtype=np.int64)
        else:
            yield memory.uids[rng.permutation(len(memory))]


def _score(state, test_sets, dataset, old_classes, new_classes, rows):
    """A task boundary's accuracy row, and its bias diagnostics once there are old classes."""
    accuracies = [evaluate(state, test_set) for test_set in test_sets]
    if not old_classes:
        return accuracies, None
    return accuracies, bias_diagnostics(
        state, dataset.features, dataset.labels, old_classes, new_classes, rows
    )


def run_stream(
    state: NetworkState,
    dataset: Dataset,
    streams: list[list[np.ndarray]],
    test_sets: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
    recipe: Recipe,
    seed: int,
    helper_cpus: frozenset[int] | None = None,
) -> RunRecord:
    """Train one recipe over the task streams (index arrays into `dataset`).

    `state` is copied on entry; the trained copy is the record's
    `final_state`. The replay schedule, seeded with `seed`, owns the run's
    reservoir: a new, empty `MemoryBuffer` of `config.memory` slots. After
    each task's last step it reviews in the one order the schedule yields
    for that task, `config.rv_batch` rows to a step at `config.rv_lr` on
    the classification loss alone, through the same state and workspace as
    the stream steps; an empty order means no review. A task with an empty
    stream takes no stream step and is scored all the same. Each task's
    scorer sees the reviewed state. A CPU set `helper_cpus`
    runs the replay schedule and the scoring in helper processes on those
    CPUs (`sidecar.Helpers`), the last task's scoring on this process's; the
    record is the same either way.
    """
    if len(test_sets) < len(streams):
        raise InvalidInputError("need one test set per task")
    memory = MemoryBuffer(config.memory)
    state, workspace = state.copy(), Workspace()
    objective = make_objective(recipe.cls, recipe.reg, config, state.num_classes)
    review = make_objective(recipe.cls, "none", config, state.num_classes)
    matrix = AccuracyMatrix()
    diagnostics: dict[int, DiagnosticsRecord] = {}
    steps = 0
    review_steps = 0
    seen = np.empty(0, dtype=np.int64)  # dataset rows of the finished tasks
    seen_classes: set[int] = set()
    scores = []  # per finished task, a call returning its `_score`

    with Helpers(helper_cpus) as helpers:
        plan = helpers.stream(
            lambda: replay_schedule(memory, dataset, streams, config, recipe, seed)
        )
        try:
            for task_number, stream in enumerate(streams, start=1):
                for batch in stream:
                    replay, draws = next(plan)
                    rows = np.concatenate([batch, replay])
                    x, y = dataset.features[rows], dataset.labels[rows]
                    if draws is not None:
                        # step rows: incoming, then replay, then augmented replay
                        augmented = apply_augment(x[len(batch):], config.augment, draws)
                        x = np.concatenate([x, augmented])
                        y = np.concatenate([y, y[len(batch):]])
                    sgd_on_batch(state, x, y, objective, config.lr, workspace)
                    steps += 1
                order = next(plan)  # the task's review; empty takes no step
                for start in range(0, len(order), config.rv_batch):
                    rows = order[start : start + config.rv_batch]
                    sgd_on_batch(
                        state, dataset.features[rows], dataset.labels[rows],
                        review, config.rv_lr, workspace,
                    )
                    review_steps += 1
                rows = np.concatenate([seen, *stream])
                new_classes = set(np.unique(dataset.labels[rows[len(seen):]]).tolist())
                scores.append(helpers.call(partial(
                    _score, state, test_sets[:task_number], dataset,
                    seen_classes, new_classes, rows,
                ), pinned=task_number < len(streams)))
                seen = rows
                seen_classes |= new_classes
        except AfslabError:
            for score in scores:
                score()  # a scoring failure comes first in the loop's order
            raise
        for task_number, score in enumerate(scores, start=1):
            accuracies, diagnosed = score()
            matrix.append_row(accuracies)
            if diagnosed is not None:
                diagnostics[task_number] = diagnosed

    return RunRecord(
        accuracy_matrix=matrix,
        diagnostics=diagnostics,
        steps=steps,
        review_steps=review_steps,
        final_state=state,
    )
