"""Fully-connected classifier with hand-written backpropagation.

ReLU hidden layers, a linear class head, and plain SGD. Gradients are exact
and flow through stored forward traces, so every update is reproducible and
testable against finite differences without any autodiff machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidConfigError, InvalidInputError

CHECKPOINT_FORMAT = "afslab-mlp"
CHECKPOINT_VERSION = 1


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


@dataclass
class ForwardTrace:
    """Intermediate values kept for the backward pass.

    Each array has one row per input row, [n, width], or is 1-d when a
    single input vector went through.
    """

    input: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)

    @property
    def logits(self) -> np.ndarray:
        return self.pre_activations[-1]


@dataclass
class Gradients:
    """Parameter gradients, same shapes as the state they differentiate."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def scale(self, factor: float) -> "Gradients":
        return Gradients(
            weights=[w * factor for w in self.weights],
            biases=[b * factor for b in self.biases],
        )


def init_network(spec: NetworkSpec) -> NetworkState:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkState(weights=weights, biases=biases)


def forward(state: NetworkState, x: np.ndarray) -> ForwardTrace:
    """Run a [n, fan_in] batch, or one fan_in vector, through the network.

    Rows are independent; every layer's values are recorded for backward.
    """
    a = np.asarray(x, dtype=np.float64)
    fan_in = state.weights[0].shape[1]
    if a.ndim not in (1, 2) or a.shape[-1] != fan_in:
        raise InvalidInputError(
            f"input of shape {a.shape} does not match fan-in {fan_in}"
        )
    trace = ForwardTrace(input=a)
    last = len(state.weights) - 1
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        z = a @ w.T + b
        trace.pre_activations.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
            trace.activations.append(a)
    return trace


def backward(
    state: NetworkState, trace: ForwardTrace, grad_logits: np.ndarray
) -> Gradients:
    """Exact backprop of a logit gradient through the stored trace.

    grad_logits has the shape of the trace's logits; for a batch the
    returned gradients are summed over its rows.
    """
    delta = np.asarray(grad_logits, dtype=np.float64)
    if delta.shape != trace.logits.shape:
        raise InvalidInputError(
            f"grad_logits shape {delta.shape} does not match logits "
            f"{trace.logits.shape}"
        )
    if len(trace.pre_activations) != len(state.weights):
        raise InvalidInputError("trace does not match network depth")
    delta = np.atleast_2d(delta)
    weights, biases = [], []
    for layer in range(len(state.weights) - 1, -1, -1):
        a_in = trace.activations[layer - 1] if layer > 0 else trace.input
        if a_in.shape[-1] != state.weights[layer].shape[1]:
            raise InvalidInputError("stale trace: activation width mismatch")
        weights.append(delta.T @ np.atleast_2d(a_in))
        biases.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ state.weights[layer]) * (
                trace.pre_activations[layer - 1] > 0.0
            )
    return Gradients(weights=weights[::-1], biases=biases[::-1])


def sgd_step(
    state: NetworkState, grads: Gradients, learning_rate: float
) -> NetworkState:
    """Return a new state with parameters moved one step downhill."""
    if learning_rate <= 0:
        raise InvalidConfigError(f"learning rate must be positive, got {learning_rate}")
    for w, g in zip(state.weights, grads.weights):
        if w.shape != g.shape:
            raise InvalidInputError(f"gradient shape {g.shape} != weight {w.shape}")
    return NetworkState(
        weights=[w - learning_rate * g for w, g in zip(state.weights, grads.weights)],
        biases=[b - learning_rate * g for b, g in zip(state.biases, grads.biases)],
    )


def predict(state: NetworkState, x: np.ndarray) -> int:
    """Argmax over logits; ties resolve to the lowest class index."""
    return int(np.argmax(forward(state, x).logits))


def save_checkpoint(state: NetworkState, path: str) -> None:
    """Write a versioned JSON dump of layer widths and row-major parameters."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_widths": list(state.layer_widths),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(state.weights, state.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> NetworkState:
    """Read a checkpoint written by save_checkpoint; round-trip is lossless."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"checkpoint is not valid JSON: {exc}") from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"unknown checkpoint format {payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {payload.get('version')!r}")
    widths = tuple(payload["layer_widths"])
    weights = [np.asarray(layer["weights"], dtype=np.float64) for layer in payload["layers"]]
    biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in payload["layers"]]
    state = NetworkState(weights=weights, biases=biases)
    if state.layer_widths != widths:
        raise FormatError(
            f"checkpoint widths {widths} do not match stored arrays "
            f"{state.layer_widths}"
        )
    return state
