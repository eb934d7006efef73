"""Loss kernels with exact logit gradients.

Every loss returns its value together with the closed-form gradient with
respect to the logits, so training never depends on autodiff and the
arithmetic can be pinned against finite differences in tests. Logits are
always [n, C] rows, one per sample; a single sample is a one-row batch.
Two kernels do the work: `weighted_ce`, the cross-entropy -w(p_t) log p_t
with a weight w(p_t) that is 1, the focal weight or the revised focal
Gaussian bump, and `distill`, a temperature-softened cross-entropy against
a per-label teacher table. Each checks its logits and labels and calls a
private kernel that computes on checked input. `make_objective` is the one
place they are combined, as cls + beta * reg: `Objective.rows` checks the
logits and labels once and calls both kernels. `record_scores` and
`compute_mu` derive a per-class anchor for the bump's centre mu from p_t
histograms.

`LossConfig` is the base of the one layered run config: `trainer.TrainConfig`
extends it with the stream loop's settings and `runner.ExperimentConfig`
with the run's, so each setting is one field of one class, checked where it
is declared. The class count is no setting: it comes from the data, and
`make_objective` takes it from its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

# Probabilities are clamped here before any log.
P_FLOOR = 1e-12

# Difficulty intervals over the predicted target probability p_t.
# The names are the keys of the report's diagnostics columns.
HSI = "hsi"  # hard:      [0.0, 0.3)
ASI = "asi"  # ambiguous: [0.3, 0.6]
ESI = "esi"  # easy:      (0.6, 1.0]
HARD_BELOW = 0.3  # p_t under this is hard; the edge itself is ambiguous
EASY_ABOVE = 0.6  # p_t over this is easy; the edge itself is ambiguous

# Anchor histograms: p_t in NUM_BINS bins [k * 0.04, (k + 1) * 0.04), 1.0 in the last.
NUM_BINS = 25
BIN_WIDTH = 0.04

CLS_KINDS = ("ce", "fl", "rfl")
REG_KINDS = ("none", "lsr", "vkd")


@dataclass(frozen=True)
class LossConfig:
    """Hyper-parameters shared by the loss kernels.

    alpha, gamma scale and shape the focal weighting; mu, sigma place the
    Gaussian bump of the revised focal weight; beta weighs the distillation
    term inside the combined objective; temperature and epsilon shape the
    virtual teacher. As the root of the layered config it also rejects a
    non-finite value of any float field, its subclasses' included.
    """

    alpha: float = 0.25
    gamma: float = 2.0
    mu: float = 0.3
    sigma: float = 0.5
    beta: float = 0.1
    temperature: float = 20.0
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfigError(f"{f.name} must be finite, got {value}")
        if self.sigma <= 0:
            raise InvalidConfigError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.alpha <= 0:
            raise InvalidConfigError(f"alpha must be positive, got {self.alpha}")
        if self.gamma < 0:
            raise InvalidConfigError(f"gamma must be non-negative, got {self.gamma}")
        if not 0.0 <= self.mu <= 1.0:
            raise InvalidConfigError(f"mu must lie in [0, 1], got {self.mu}")
        if self.beta < 0:
            raise InvalidConfigError(f"beta must be non-negative, got {self.beta}")
        if self.temperature <= 0:
            raise InvalidConfigError(
                f"temperature must be positive, got {self.temperature}"
            )


@dataclass(frozen=True)
class LossOutput:
    """Per-row value, exact logit gradient, and the target probability.

    value and p_target are [n] arrays and grad_logits is [n, C]. `distill`
    leaves p_target as None, since its value does not depend on p_t.
    """

    value: np.ndarray
    grad_logits: np.ndarray
    p_target: np.ndarray | None


def _finite_rows(logits) -> np.ndarray:
    """`logits` as float64 [n, C] rows, rejecting non-finite values by row."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.size == 0:
        raise InvalidInputError(
            f"logits must be non-empty [n, C] rows, got shape {z.shape}"
        )
    finite = np.isfinite(z)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise InvalidInputError(f"logits must be finite (row {row})")
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of checked [n, C] logits, the row max subtracted first."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of [n, C] logits.

    The row max is subtracted first; non-finite input is rejected, naming
    the first offending row.
    """
    return _softmax(_finite_rows(logits))


def difficulty_counts(p_t) -> dict[str, int]:
    """Count target probabilities per difficulty interval, keyed HSI/ASI/ESI.

    Hard below HARD_BELOW (0.3), ambiguous in [0.3, 0.6], easy above
    EASY_ABOVE (0.6). Both interval boundaries belong to the ambiguous
    bucket. Every value must lie in [0, 1].
    """
    p = np.asarray(p_t, dtype=np.float64)
    inside = (p >= 0.0) & (p <= 1.0)
    if not inside.all():
        raise InvalidInputError(f"p_t must lie in [0, 1], got {p[~inside][0]}")
    hard = int(np.count_nonzero(p < HARD_BELOW))
    easy = int(np.count_nonzero(p > EASY_ABOVE))
    return {HSI: hard, ASI: p.size - hard - easy, ESI: easy}


def rfl_weight(p_t, alpha: float, mu: float, sigma: float):
    """Gaussian re-weighting term alpha * exp(-(p_t - mu)^2 / sigma).

    Peaks at p_t = mu and decays symmetrically, so ambiguous samples carry
    the largest weight while confident and hopeless ones are damped. p_t may
    be a float or an array of them.
    """
    if sigma <= 0:
        raise InvalidConfigError(f"sigma must be positive, got {sigma}")
    return alpha * np.exp(-((p_t - mu) ** 2) / sigma)


class MuValue(NamedTuple):
    mu: float
    degenerate: bool  # True when the class has no recorded scores


class ScoreHistogram:
    """Per-class p_t counts in NUM_BINS bins; b is the anchor's coverage."""

    def __init__(self, num_classes: int, b: float = 0.25):
        if num_classes < 1:
            raise InvalidConfigError(f"num_classes must be positive, got {num_classes}")
        if not 0.0 < b < 1.0:
            raise InvalidConfigError(f"b must lie in (0, 1), got {b}")
        self.num_classes = num_classes
        self.b = b
        self.bins = np.zeros((num_classes, NUM_BINS), dtype=np.int64)


def _class_bins(hist: ScoreHistogram, cls: int) -> np.ndarray:
    if not 0 <= cls < hist.num_classes:
        raise InvalidInputError(f"class {cls} out of range for {hist.num_classes} classes")
    return hist.bins[cls]


def record_scores(hist: ScoreHistogram, cls: int, scores) -> ScoreHistogram:
    """Add one class's target probabilities to its bins.

    Score s lands in bin min(int(25 s), 24). Every score must lie in [0, 1];
    all are checked before any is counted, so a rejected batch leaves the
    histogram unchanged.
    """
    row = _class_bins(hist, cls)
    s = np.asarray(scores, dtype=np.float64).ravel()
    bad = np.flatnonzero(~((s >= 0.0) & (s <= 1.0)))  # NaN fails both
    if bad.size:
        raise InvalidInputError(f"score must lie in [0, 1], got {s[bad[0]]} (index {bad[0]})")
    index = np.minimum((s * NUM_BINS).astype(np.int64), NUM_BINS - 1)
    row += np.bincount(index, minlength=NUM_BINS)
    return hist


def compute_mu(hist: ScoreHistogram, cls: int) -> MuValue:
    """Anchor for the class: left edge of the smallest prefix covering b.

    M is the least bin index whose cumulative count reaches total * b; the
    anchor is M * 0.04. A class with no recorded scores yields mu 0 with the
    degenerate flag set.
    """
    cumulative = np.cumsum(_class_bins(hist, cls))
    total = int(cumulative[-1])
    if total == 0:
        return MuValue(mu=0.0, degenerate=True)
    m = int(np.searchsorted(cumulative, total * hist.b, side="left"))
    return MuValue(mu=m * BIN_WIDTH, degenerate=False)


def _check_labels(labels, shape: tuple[int, int]) -> np.ndarray:
    """One integer label in [0, C) per row of an [n, C] batch."""
    y = np.asarray(labels)
    n, num_classes = shape
    if y.shape != (n,):
        raise InvalidInputError(f"need {n} labels, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise InvalidInputError(f"targets must be integers, got dtype {y.dtype}")
    bad = np.flatnonzero((y < 0) | (y >= num_classes))
    if bad.size:
        row = int(bad[0])
        raise InvalidInputError(
            f"target {y[row]} out of range for {num_classes} classes (row {row})"
        )
    return y


def _weighted_ce(
    p: np.ndarray, y: np.ndarray, kind: str, alpha: float, gamma: float, mu: float, sigma: float
) -> LossOutput:
    """`weighted_ce` on the softmax `p` of checked logits and checked labels
    `y`; `p` is overwritten with the gradient."""
    rows = np.arange(len(y))
    p_t = p[rows, y]
    p_safe = np.maximum(p_t, P_FLOOR)
    log_pt = np.log(p_safe)
    if kind == "ce":
        # w = 1, w' = 0: g is exactly -1, so the gradient is p - onehot(target)
        p[rows, y] = p_t - 1.0
        return LossOutput(value=-log_pt, grad_logits=p, p_target=p_t)
    if kind == "fl":
        if gamma < 0:
            raise InvalidConfigError(f"gamma must be non-negative, got {gamma}")
        q = 1.0 - p_t
        weight = alpha * q**gamma
        if gamma == 0.0:
            dweight = 0.0  # w' vanishes
        else:
            with np.errstate(divide="ignore"):
                dweight = -alpha * gamma * q ** (gamma - 1.0)
            if gamma < 1.0:
                # the q^(gamma-1) blow-up at q = 0 is cancelled by
                # log(p_t) = 0, so the limit is 0 as well
                dweight[q == 0.0] = 0.0
    elif kind == "rfl":
        weight = rfl_weight(p_t, alpha, mu, sigma)
        dweight = weight * (-2.0 * (p_t - mu) / sigma)
    else:
        raise InvalidConfigError(f"unknown classification loss {kind!r}")
    g = -(dweight * log_pt * p_t + weight * (p_t / p_safe))
    grad = np.multiply(-g[:, None], p, out=p)
    grad[rows, y] = g * (1.0 - p_t)
    return LossOutput(value=-weight * log_pt, grad_logits=grad, p_target=p_t)


def weighted_ce(
    logits: np.ndarray,
    labels,
    kind: str = "ce",
    alpha: float = 0.25,
    gamma: float = 2.0,
    mu: float = 0.3,
    sigma: float = 0.5,
) -> LossOutput:
    """Per-row -w(p_t) log p_t over [n, C] logits, with exact logit gradients.

    kind picks the weight: "ce" is w = 1, "fl" the focal weight
    alpha (1 - p_t)^gamma, "rfl" the revised focal bump `rfl_weight`. With
    w' = dw/dp_t the softmax Jacobian d p_t / d z_k = p_t (delta_tk - p_k)
    gives the gradient g (1 - p_t) on the target logit and -g p_k elsewhere,
    with g = -(w' p_t log p_t + w p_t / p_t'), where p_t' is p_t clamped to
    P_FLOOR. Cross-entropy takes p_t / p_t' as 1, so its gradient stays
    p - onehot(target) even where the clamp flattens its value.
    """
    p = softmax_stable(logits)
    y = _check_labels(labels, p.shape)
    return _weighted_ce(p, y, kind, alpha, gamma, mu, sigma)


def virtual_teacher(target: int, num_classes: int, epsilon: float) -> np.ndarray:
    """Smoothed one-hot teacher logits: 1-eps at the target, eps/(C-1) elsewhere."""
    if num_classes < 2:
        raise InvalidConfigError(f"need at least 2 classes, got {num_classes}")
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 <= target < num_classes:
        raise InvalidInputError(
            f"target {target} out of range for {num_classes} classes"
        )
    v = np.full(num_classes, epsilon / (num_classes - 1), dtype=np.float64)
    v[target] = 1.0 - epsilon
    return v


def teacher_table(num_classes: int, epsilon: float, temperature: float) -> np.ndarray:
    """[C, C] softened teachers: row c is softmax(virtual_teacher(c) / T).

    The teacher depends on the label alone, so one table serves a whole run.
    """
    if temperature <= 0:
        raise InvalidConfigError(f"temperature must be positive, got {temperature}")
    v = np.stack([virtual_teacher(c, num_classes, epsilon) for c in range(num_classes)])
    return softmax_stable(v / temperature)


def _distill(
    scaled: np.ndarray, y: np.ndarray, teacher: np.ndarray, temperature: float
) -> LossOutput:
    """`distill` on the logits divided by T, `scaled`, and checked labels `y`."""
    if teacher.shape != (scaled.shape[1],) * 2:
        raise InvalidInputError(
            f"logits of shape {scaled.shape} do not match a teacher table of "
            f"shape {teacher.shape}"
        )
    p_soft = _softmax(scaled)
    q = teacher[y]
    value = -temperature**2 * np.sum(q * np.log(np.maximum(p_soft, P_FLOOR)), axis=1)
    grad = np.subtract(p_soft, q, out=p_soft)
    grad *= temperature
    return LossOutput(value=value, grad_logits=grad, p_target=None)


def distill(
    logits: np.ndarray, labels, teacher: np.ndarray, temperature: float
) -> LossOutput:
    """Per-row distillation against the teacher row of each label.

    With p = softmax(z / T) and q = teacher[label] the value is the scaled
    cross-entropy -T^2 * sum_i q_i log p_i and the exact logit gradient is
    T * (p - q); minimized over the logits exactly when p equals q.
    """
    scaled = _finite_rows(np.asarray(logits, dtype=np.float64) / temperature)
    y = _check_labels(labels, scaled.shape)
    return _distill(scaled, y, teacher, temperature)


@dataclass(frozen=True, eq=False)
class Objective:
    """cls + beta * reg over [n, C] logits; built by `make_objective`.

    `teacher` is the [C, C] teacher table of the regulariser at
    `temperature`, or None for the classification term alone.
    """

    cls_kind: str
    config: LossConfig
    teacher: np.ndarray | None = None
    temperature: float = 1.0

    def rows(self, logits: np.ndarray, labels) -> LossOutput:
        """Per-row values, [n, C] logit gradients and p_t of the combined loss.

        The logits and labels are checked once, and both terms come from the
        kernels of `weighted_ce` and `distill`; beta times the distillation
        gradient is added to the classification gradient in place.
        """
        cfg = self.config
        z = _finite_rows(logits)
        y = _check_labels(labels, z.shape)
        cls = _weighted_ce(
            _softmax(z), y, self.cls_kind, cfg.alpha, cfg.gamma, cfg.mu, cfg.sigma
        )
        if self.teacher is None:
            return cls
        reg = _distill(z / self.temperature, y, self.teacher, self.temperature)
        grad = cls.grad_logits
        grad += np.multiply(reg.grad_logits, cfg.beta, out=reg.grad_logits)
        return LossOutput(
            value=cls.value + cfg.beta * reg.value, grad_logits=grad, p_target=cls.p_target
        )


def make_objective(
    cls_kind: str, reg_kind: str, cfg: LossConfig, num_classes: int
) -> Objective:
    """Compose an objective over `num_classes` logits from a classification
    and a smoothing term.

    "vkd" distils from the virtual teacher at cfg.temperature; "lsr" is the
    same term at temperature 1 (label smoothing).
    """
    if cls_kind not in CLS_KINDS:
        raise InvalidConfigError(f"unknown classification loss {cls_kind!r}")
    if reg_kind not in REG_KINDS:
        raise InvalidConfigError(f"unknown regularizer {reg_kind!r}")
    if reg_kind == "none":
        return Objective(cls_kind, cfg)
    temperature = cfg.temperature if reg_kind == "vkd" else 1.0
    return Objective(
        cls_kind, cfg,
        teacher=teacher_table(num_classes, cfg.epsilon, temperature),
        temperature=temperature,
    )
