"""Shared numeric oracles for the test suite."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np

from afslab.errors import InvalidInputError
from afslab.losses import (
    BIN_WIDTH,
    NUM_BINS,
    LossOutput,
    MuValue,
    distill,
    make_objective,
    weighted_ce,
)
from afslab.memory import random_retrieve, reservoir_update
from afslab.metrics import AccuracyMatrix, bias_diagnostics
from afslab.model import Gradients, NetworkState, Workspace, backward, forward, sgd_step
from afslab.stream import apply_augment, draw_augment, offline_stream
from afslab.trainer import ER, RunRecord, TrainConfig, evaluate, run_stream, sgd_on_batch


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at x by central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return grad


def two_class_logits(p_target):
    """Logits whose softmax puts p_target on class 0 in a two-class problem."""
    return np.array([np.log(p_target), np.log(1.0 - p_target)])


def bin_index(score):
    """Reference bin of one score: [i*0.04, (i+1)*0.04), with 1.0 folded into bin 24."""
    if not 0.0 <= score <= 1.0:
        raise InvalidInputError(f"score must lie in [0, 1], got {score}")
    return min(int(score * NUM_BINS), NUM_BINS - 1)


def reference_bins(scores):
    """Reference for losses.record_scores: the NUM_BINS counts, one score at a time."""
    bins = np.zeros(NUM_BINS, dtype=np.int64)
    for s in np.atleast_1d(np.asarray(scores, dtype=np.float64)):
        bins[bin_index(float(s))] += 1
    return bins


def reference_mu(bins, b):
    """Reference for losses.compute_mu: the cumulative scan over one class's bins."""
    total = int(np.sum(bins))
    if total == 0:
        return MuValue(mu=0.0, degenerate=True)
    threshold = total * b
    cumulative = 0
    for m in range(NUM_BINS):
        cumulative += int(bins[m])
        if cumulative >= threshold:
            return MuValue(mu=m * BIN_WIDTH, degenerate=False)
    raise AssertionError("the full prefix holds every score")


def per_sample_step(state, features, labels, objective, lr):
    """Reference for trainer.sgd_on_batch: one row at a time.

    Each row takes its own one-row forward pass, objective call and
    backward pass; the gradients are summed, scaled by 1/n and applied once
    to a copy of `state`, which is returned.
    """
    weights = [np.zeros_like(w) for w in state.weights]
    biases = [np.zeros_like(b) for b in state.biases]
    for x, label in zip(features, labels):
        trace = forward(state, x[None])
        out = objective.rows(trace.logits, [label])
        grads = backward(state, trace, out.grad_logits)
        for total, g in zip(weights + biases, grads.weights + grads.biases):
            total += g
    mean = Gradients(weights=weights, biases=biases).scale(1.0 / len(features))
    state = state.copy()
    sgd_step(state, mean, lr)
    return state


def reference_forward(state, features):
    """Reference for model.forward: separate pre-activation and activation arrays.

    Returns each layer's input and each layer's pre-activation, the last of
    which is the logits; the ReLU of a hidden layer is a new array.
    """
    a = np.asarray(features, dtype=np.float64)
    inputs, pre = [], []
    for w, b in zip(state.weights, state.biases):
        inputs.append(a)
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
    return inputs, pre


def summed_rows(objective, logits, labels):
    """Reference for Objective.rows: `weighted_ce` plus beta times `distill`,
    each called on its own and summed into new arrays."""
    cfg = objective.config
    cls = weighted_ce(
        logits, labels, objective.cls_kind,
        alpha=cfg.alpha, gamma=cfg.gamma, mu=cfg.mu, sigma=cfg.sigma,
    )
    if objective.teacher is None:
        return cls
    reg = distill(logits, labels, objective.teacher, objective.temperature)
    return LossOutput(
        value=cls.value + cfg.beta * reg.value,
        grad_logits=cls.grad_logits + cfg.beta * reg.grad_logits,
        p_target=cls.p_target,
    )


def allocating_step(state, features, labels, objective, lr):
    """Reference for trainer.sgd_on_batch: the step before the workspace.

    A batched forward (`reference_forward`), the loss terms called apart
    (`summed_rows`), and a backward that allocates every delta and
    gradient and masks by the pre-activation; then a scale and an update
    that build new arrays, in the same arithmetic order: g * (1/n), then
    lr * that, then w - that. Returns a new state; `state` is untouched.
    """
    inputs, pre = reference_forward(state, features)
    delta = summed_rows(objective, pre[-1], labels).grad_logits
    weights, biases = [], []
    for layer in range(len(state.weights) - 1, -1, -1):
        weights.append(delta.T @ inputs[layer])
        biases.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ state.weights[layer]) * (pre[layer - 1] > 0.0)
    factor = 1.0 / len(features)
    return NetworkState(
        weights=[w - lr * (g * factor) for w, g in zip(state.weights, weights[::-1])],
        biases=[b - lr * (g * factor) for b, g in zip(state.biases, biases[::-1])],
    )


class ListReservoir:
    """Reference for memory.reservoir_update: a list of uid slots.

    This is the per-offer loop the array buffer replaced: append while
    there is room, then one rng.integers(0, tot + 1) draw per offer, kept
    if it lands inside the buffer.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.slots = []
        self.tot = 0

    def update(self, uids, rng):
        for uid in uids:
            if self.tot < self.capacity:
                self.slots.append(int(uid))
            else:
                j = int(rng.integers(0, self.tot + 1))
                if j < self.capacity:
                    self.slots[j] = int(uid)
            self.tot += 1


def flip_horizontal(features, side):
    """Mirror a row-major square image left to right."""
    return features.reshape(side, side)[:, ::-1].reshape(-1).copy()


def pad_crop(features, side, rng, pad=4):
    """Zero-pad by `pad` on each side, then crop a random side x side window."""
    img = np.pad(features.reshape(side, side), pad)
    dy, dx = rng.integers(0, 2 * pad + 1, size=2)
    return img[dy : dy + side, dx : dx + side].reshape(-1).copy()


def augment(features, kind, rng, jitter_sigma=0.1):
    """Transformed copies of the [k, dim] rows; the input is never touched.

    Kinds: "none" hands the input back unchanged, "image" applies a random
    horizontal flip plus a pad-4 random crop to square images, and "vector"
    adds Gaussian jitter with the given sigma. The training loop makes the
    draws (`draw_augment`) before the rows are at hand and applies them
    (`apply_augment`) later; this is the two in one call.
    """
    return apply_augment(features, kind, draw_augment(kind, features.shape, rng, jitter_sigma))


def augment_image_rows(features, rng):
    """Reference for augment(kind="image"): one row at a time.

    This is the per-row loop the batched gather replaced: a flip coin,
    then a flip if it comes up below 0.5, then a pad-4 random crop.
    """
    side = math.isqrt(features.shape[1])
    out = np.empty_like(features)
    for i, row in enumerate(features):
        if rng.random() < 0.5:
            row = flip_horizontal(row, side)
        out[i] = pad_crop(row, side, rng)
    return out


def image_draws_per_row(rng, k):
    """Reference for draw_augment(kind="image"): the per-row loop of draws.

    Per row a flip coin, `rng.random() < 0.5`, then the two crop offsets
    (dy, dx) in one `rng.integers(0, 9, size=2)`.
    """
    flips = np.empty(k, dtype=bool)
    offsets = np.empty((k, 2), dtype=np.int64)
    for i in range(k):
        flips[i] = rng.random() < 0.5
        offsets[i] = rng.integers(0, 9, size=2)
    return flips, offsets


def max_param_diff(a, b):
    """Largest absolute difference over every weight and bias of two states."""
    return max(
        float(np.max(np.abs(x - y)))
        for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


def traced_peak(fn, *args, **kwargs):
    """Run fn(*args, **kwargs); return (its result, peak bytes it allocated).

    The peak is tracemalloc's, which counts NumPy's array buffers, less
    what was already allocated when the call started; arrays the result
    keeps alive count too.
    """
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already:
            tracemalloc.stop()
    return result, peak - before


def review_rows(
    state: NetworkState,
    features: np.ndarray,
    labels: np.ndarray,
    order: np.ndarray,
    config: TrainConfig,
    cls_kind: str = "rfl",
) -> NetworkState:
    """Reference for the review in trainer.run_stream: the function it replaced.

    The review epoch over `features[order]`, `config.rv_batch` rows to a
    step at `config.rv_lr`, on a copy of `state` through a `Workspace` of
    its own. Returns the stepped copy, or `state` itself for an empty order.
    """
    if len(order) == 0:
        return state
    objective = make_objective(cls_kind, "none", config, state.num_classes)
    state, workspace = state.copy(), Workspace()
    for start in range(0, len(order), config.rv_batch):
        rows = order[start : start + config.rv_batch]
        sgd_on_batch(state, features[rows], labels[rows], objective, config.rv_lr, workspace)
    return state


def review_pass(state, memory, dataset, config, rng, cls_kind="rfl"):
    """Reference for the review in trainer.run_stream: one pass over `memory`.

    One low-rate epoch over the held rows, read from `dataset` by uid in
    the order of one permutation of the memory slots, with the
    classification loss alone, at `config.rv_lr` in batches of
    `config.rv_batch`. Memory itself is never modified. Returns the reviewed
    copy of `state`; a zero rv_lr or an empty buffer returns `state` itself
    and draws nothing.
    """
    if config.rv_lr == 0 or len(memory) == 0:
        return state
    order = memory.uids[rng.permutation(len(memory))]
    return review_rows(state, dataset.features, dataset.labels, order, config, cls_kind)


def interleaved_run_stream(state, memory, dataset, streams, test_sets, config, recipe, seed):
    """Reference for trainer.run_stream: the loop before the replay schedule.

    One loop does everything in order: per step retrieve from `memory`,
    augment the replay rows, take the SGD step and offer the incoming rows
    to the reservoir; per task review (if the recipe does), evaluate and
    diagnose. Replay and review read memory rows and their labels from
    `dataset` by uid.
    """
    state, workspace = state.copy(), Workspace()
    rng = np.random.default_rng(seed)
    objective = make_objective(recipe.cls, recipe.reg, config, state.num_classes)
    augment_replay = recipe.augment_replay and config.augment != "none"
    matrix, diagnostics = AccuracyMatrix(), {}
    steps = review_steps = 0
    seen = np.empty(0, dtype=np.int64)
    seen_classes = set()

    def review(state):
        nonlocal review_steps
        if config.rv_lr != 0 and len(memory):
            review_steps += math.ceil(len(memory) / config.rv_batch)
        return review_pass(state, memory, dataset, config, rng, cls_kind=recipe.cls)

    for task_number, stream in enumerate(streams, start=1):
        for batch in stream:
            x, y = dataset.features[batch], dataset.labels[batch]
            step_x, step_y = [x], [y]
            picks = random_retrieve(memory, config.retrieve_batch, rng)
            if len(picks):
                uids = memory.uids[picks]
                replay_x, replay_y = dataset.features[uids], dataset.labels[uids]
                step_x.append(replay_x)
                step_y.append(replay_y)
                if augment_replay:
                    step_x.append(
                        augment(replay_x, config.augment, rng, config.jitter_sigma)
                    )
                    step_y.append(replay_y)
            sgd_on_batch(
                state, np.concatenate(step_x), np.concatenate(step_y),
                objective, config.lr, workspace,
            )
            steps += 1
            reservoir_update(memory, batch, rng)
        if recipe.review:
            state = review(state)
        matrix.append_row([evaluate(state, test_sets[j]) for j in range(task_number)])
        rows = np.concatenate([seen, *stream])
        new_classes = set(np.unique(dataset.labels[rows[len(seen):]]).tolist())
        if seen_classes:
            diagnostics[task_number] = bias_diagnostics(
                state, dataset.features, dataset.labels, seen_classes, new_classes, rows,
            )
        seen = rows
        seen_classes |= new_classes

    return RunRecord(
        accuracy_matrix=matrix,
        diagnostics=diagnostics,
        steps=steps,
        review_steps=review_steps,
        final_state=state,
    )


def reference_pass(state, dataset, streams, test_sets, config, seed=0):
    """The memory-free reference pass as `runner._run_job` runs it.

    `ER` with no replay over the task streams; returns the diagonal of the
    run's accuracy matrix, each task's accuracy right after it was learned.
    """
    config = replace(config, retrieve_batch=0)
    record = run_stream(state, dataset, streams, test_sets, config, ER, seed)
    return [row[-1] for row in record.accuracy_matrix.rows]


def offline_pass(state, dataset, test_sets, config, seed):
    """The offline pass as `runner._run_job` runs it; returns the trained state.

    `ER` with no replay over one task per test set: the last streams
    `config.offline_epochs` shuffles of the whole dataset drawn from `seed`,
    and the others are empty.
    """
    stream = offline_stream(dataset, config.stream_batch, config.offline_epochs, seed)
    streams = [[] for _ in range(len(test_sets) - 1)] + [stream]
    config = replace(config, retrieve_batch=0)
    return run_stream(state, dataset, streams, test_sets, config, ER, 0).final_state


def train_reference(state, dataset, streams, test_sets, config):
    """Reference for the reference pass: the loop it replaced.

    Memory-free incremental fine-tuning with cross-entropy. Returns each
    task's accuracy measured right after that task was learned.
    """
    objective = make_objective("ce", "none", config, state.num_classes)
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


def train_offline(state, dataset, config, seed):
    """Reference for the offline pass: the loop it replaced.

    `config.offline_epochs` epochs of iid training on the pooled dataset,
    each a permutation drawn from one rng seeded with `seed` and cut into
    `config.stream_batch` rows. Returns the trained copy of `state`.
    """
    rng = np.random.default_rng(seed)
    objective = make_objective("ce", "none", config, state.num_classes)
    state, workspace = state.copy(), Workspace()
    for _ in range(config.offline_epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), config.stream_batch):
            rows = order[start : start + config.stream_batch]
            sgd_on_batch(
                state, dataset.features[rows], dataset.labels[rows],
                objective, config.lr, workspace,
            )
    return state
