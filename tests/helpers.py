"""Shared numeric oracles for the test suite."""

import math
import tracemalloc

import numpy as np

from afslab.model import Gradients, NetworkState, backward, forward, sgd_step


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


def allocating_step(state, features, labels, objective, lr):
    """Reference for trainer.sgd_on_batch: the step before the workspace.

    A batched forward and backward that allocate every activation, delta
    and gradient, then a scale and an update that build new arrays, in the
    same arithmetic order: g * (1/n), then lr * that, then w - that.
    Returns a new state; `state` is untouched.
    """
    a = np.asarray(features, dtype=np.float64)
    inputs, pre = [], []
    for w, b in zip(state.weights, state.biases):
        inputs.append(a)
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
    delta = objective.rows(pre[-1], labels).grad_logits
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
    """Reference for memory.reservoir_update: a list of (features, label, uid) slots.

    This is the per-offer loop the array buffer replaced: append while
    there is room, then one rng.integers(0, tot + 1) draw per offer, kept
    if it lands inside the buffer.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.slots = []
        self.tot = 0

    def update(self, features, labels, uids, rng):
        for x, label, uid in zip(features, labels, uids):
            stored = (np.array(x, copy=True), int(label), int(uid))
            if self.tot < self.capacity:
                self.slots.append(stored)
            else:
                j = int(rng.integers(0, self.tot + 1))
                if j < self.capacity:
                    self.slots[j] = stored
            self.tot += 1


def flip_horizontal(features, side):
    """Mirror a row-major square image left to right."""
    return features.reshape(side, side)[:, ::-1].reshape(-1).copy()


def pad_crop(features, side, rng, pad=4):
    """Zero-pad by `pad` on each side, then crop a random side x side window."""
    img = np.pad(features.reshape(side, side), pad)
    dy, dx = rng.integers(0, 2 * pad + 1, size=2)
    return img[dy : dy + side, dx : dx + side].reshape(-1).copy()


def augment_image_rows(features, rng):
    """Reference for stream.augment(kind="image"): one row at a time.

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
