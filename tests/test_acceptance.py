"""Acceptance suite: one check per shipped guarantee.

Each test prints a PASS line when its guarantee holds, so a verbose run reads
as a checklist. The directional benchmark checks (06x, 07x) train the full
recipes at the pinned benchmark scale and take a few minutes combined.

Three checks are retained even though they do not pass at this scale: the
final-accuracy and hard-sample-count directions of 06 and the distillation
arm of 07. Each one's docstring states what the pinned seeds measure and the
measured cause. A failing check here means the stated property does not hold
for this implementation at the pinned constants, not that the code crashed.
"""

import csv
import math
import time
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from afslab.cli import main
from afslab.losses import ScoreHistogram, compute_mu, record_scores
from afslab.losses import (
    LossConfig,
    distill,
    make_objective,
    teacher_table,
    virtual_teacher,
    weighted_ce,
)
from afslab.memory import MemoryBuffer, reservoir_update
from afslab.metrics import (
    AccuracyMatrix,
    average_accuracy,
    average_forgetting,
    average_intransigence,
    confidence_interval,
)
from afslab.model import NetworkSpec, backward, forward, init_network
from afslab.runner import ExperimentConfig, Job, run_jobs

# Benchmark constants, frozen; the 06/07 docstrings give what they measure.
NUM_CLASSES = 10
DIM = 32
PER_CLASS = 500
TEST_PER_CLASS = 100
MEMORY = 200
NUM_TASKS = 5
SPREAD = 1.2
HIDDEN = (512,)
JITTER = 1.2
BETA = 0.1
COMPARISON_SEEDS = range(5)
ABLATION_SEEDS = range(8)


def _ok(label: str) -> None:
    print(f"PASS {label}")


def _target_logits(p_target: float, num_classes: int = 10) -> np.ndarray:
    """Logits with softmax probability p_target on class 0, uniform elsewhere."""
    z = np.zeros(num_classes)
    z[0] = math.log(p_target * (num_classes - 1) / (1.0 - p_target))
    return z


# --- 01: analytic gradients against central finite differences -------------


class TestGradientOracles:
    # each scores [1, C] logits against a one-label list
    LOSSES = {
        "ce": partial(weighted_ce, kind="ce"),
        "focal": partial(weighted_ce, kind="fl"),
        "rfl": partial(weighted_ce, kind="rfl"),
        "lsr": partial(
            distill, teacher=teacher_table(NUM_CLASSES, 0.01, 1.0), temperature=1.0
        ),
        "vkd": partial(
            distill, teacher=teacher_table(NUM_CLASSES, 0.01, 20.0), temperature=20.0
        ),
        "afs": make_objective("rfl", "vkd", LossConfig(), NUM_CLASSES).rows,
    }

    def test_01_gradients_match_finite_differences(self):
        start = time.monotonic()
        rng = np.random.default_rng(20240817)
        h = 1e-5
        for name, loss in self.LOSSES.items():
            for _ in range(100):
                z = rng.normal(0.0, 2.0, NUM_CLASSES)
                target = [int(rng.integers(NUM_CLASSES))]
                analytic = loss(z[None], target).grad_logits[0]
                numeric = np.zeros(NUM_CLASSES)
                for i in range(NUM_CLASSES):
                    bump = np.zeros(NUM_CLASSES)
                    bump[i] = h
                    numeric[i] = (
                        loss((z + bump)[None], target).value[0]
                        - loss((z - bump)[None], target).value[0]
                    ) / (2.0 * h)
                assert np.max(np.abs(analytic - numeric)) <= 1e-6, name

        # end to end: loss gradients propagated through the network match a
        # finite-difference sweep over every weight and bias
        state = init_network(NetworkSpec((9, 7, NUM_CLASSES), seed=11))
        x = rng.normal(size=9)[None]
        target = [int(rng.integers(NUM_CLASSES))]
        for name, loss in self.LOSSES.items():
            trace = forward(state, x)
            grads = backward(state, trace, loss(trace.logits, target).grad_logits)
            for arrays, got in (
                (state.weights, grads.weights),
                (state.biases, grads.biases),
            ):
                for layer in range(len(arrays)):
                    flat = arrays[layer].reshape(-1)
                    numeric = np.zeros_like(flat)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + h
                        up = loss(forward(state, x).logits, target).value[0]
                        flat[i] = orig - h
                        down = loss(forward(state, x).logits, target).value[0]
                        flat[i] = orig
                        numeric[i] = (up - down) / (2.0 * h)
                    assert_allclose(
                        got[layer].reshape(-1), numeric, rtol=1e-5, atol=1e-8,
                        err_msg=f"{name} layer {layer}",
                    )
        assert time.monotonic() - start < 10.0
        _ok("01 gradient oracle suite")


# --- 02: target-gradient magnitude ordering against plain cross-entropy ----


class TestGradientOrdering:
    def test_02_revised_focal_crosses_cross_entropy_at_mu(self):
        """With unit weighting the revised focal target gradient is weaker
        than cross-entropy below the bump center, equal at it, stronger just
        above it, and weaker again near certainty."""
        cases = [(0.2, "lt"), (0.3, "eq"), (0.45, "gt"), (0.9, "lt")]
        for p, relation in cases:
            z = _target_logits(p)
            rfl = weighted_ce(z[None], [0], "rfl", alpha=1.0, mu=0.3, sigma=0.5)
            got = abs(rfl.grad_logits[0, 0])
            ref = abs(weighted_ce(z[None], [0], "ce").grad_logits[0, 0])
            if relation == "eq":
                assert abs(got - ref) <= 1e-9, f"p_t={p}"
            elif relation == "lt":
                assert got < ref, f"p_t={p}: {got} vs {ref}"
            else:
                assert got > ref, f"p_t={p}: {got} vs {ref}"
        _ok("02 revised focal gradient ordering")

    def test_02_focal_gradient_below_cross_entropy_everywhere(self):
        """The focal target-gradient magnitude is
        alpha (1-p)^gamma ((1-p) - gamma p ln p) against (1-p) for plain
        cross-entropy. With unit weighting and gamma = 2 the ratio
        (1-p)((1-p) - 2 p ln p) exceeds one below p* = 0.2976 (peak 1.2246
        near p = 0.104), so focal is stronger than cross-entropy for hard
        samples and weaker above p*. At the shipped alpha = 0.25 the ratio
        is at most 0.25 * 1.2246 = 0.306, so focal stays below cross-entropy
        everywhere. The expected values come from the closed form here, not
        from weighted_ce."""

        def closed_form(p, alpha):
            q = 1.0 - p
            return alpha * q**2 * (q - 2.0 * p * math.log(p))

        # the unit-weight crossing, by bisection on closed form minus (1-p)
        lo, hi = 0.01, 0.5
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if closed_form(mid, 1.0) > 1.0 - mid:
                lo = mid
            else:
                hi = mid
        p_star = 0.5 * (lo + hi)
        assert abs(p_star - 0.29764) < 1e-5, p_star

        shipped_alpha = LossConfig().alpha
        for p in np.arange(1, 20) * 0.05:
            z = _target_logits(float(p))
            ref = abs(weighted_ce(z[None], [0], "ce").grad_logits[0, 0])
            for alpha in (1.0, shipped_alpha):
                got = abs(weighted_ce(z[None], [0], "fl", alpha=alpha).grad_logits[0, 0])
                expected = closed_form(float(p), alpha)
                assert abs(got - expected) <= 1e-12, (
                    f"p_t={p:.2f} alpha={alpha}: focal {got:.15g} vs closed form "
                    f"{expected:.15g}"
                )
                if alpha == 1.0 and p < p_star:
                    assert got > ref, f"p_t={p:.2f}: focal {got:.6f} <= ce {ref:.6f}"
                else:
                    assert got < ref, (
                        f"p_t={p:.2f} alpha={alpha}: focal {got:.6f} >= ce {ref:.6f}"
                    )
        _ok("02 focal gradient ordering against cross-entropy")


# --- 03: high-temperature linearization of the distillation gradient -------


class TestDistillationLinearization:
    def test_03_high_temperature_gradient_is_affine_in_logits(self):
        """The unscaled distillation gradient approaches
        (z_i - v_i) / (C * T^2) for centered logits and teacher values."""
        rng = np.random.default_rng(5)
        for temperature in (50.0, 100.0, 200.0):
            teacher = teacher_table(NUM_CLASSES, 0.01, temperature)
            for _ in range(100):
                z = rng.normal(0.0, 1.5, NUM_CLASSES)
                z -= z.mean()
                target = int(rng.integers(NUM_CLASSES))
                v = virtual_teacher(target, NUM_CLASSES, epsilon=0.01)
                v = v - v.mean()
                unscaled = (
                    distill(z[None], [target], teacher, temperature).grad_logits[0]
                    / temperature**2
                )
                predicted = (z - v) / (NUM_CLASSES * temperature**2)
                err = np.linalg.norm(unscaled - predicted)
                assert err <= 0.05 * np.linalg.norm(predicted), temperature
        _ok("03 distillation gradient linearization")


# --- 04: reservoir inclusion guarantee --------------------------------------


class TestReservoirGuarantee:
    def test_04_inclusion_probability_is_capacity_over_offered(self):
        start = time.monotonic()
        rng = np.random.default_rng(99)
        trials = 100_000
        for capacity, offered in ((1, 3), (2, 4), (5, 50)):
            uids = np.arange(offered)
            counts = np.zeros(offered)
            for _ in range(trials):
                buffer = MemoryBuffer(capacity)
                reservoir_update(buffer, uids, rng)
                counts[buffer.uids[: len(buffer)]] += 1
            rates = counts / trials
            expected = capacity / offered
            assert np.max(np.abs(rates - expected)) <= 0.01, (capacity, offered)
        assert time.monotonic() - start < 30.0
        _ok("04 reservoir inclusion probability")


# --- 05: metric hand values and ranges --------------------------------------


class TestMetricHandChecks:
    def test_05_worked_values_and_ranges(self):
        final = average_accuracy(AccuracyMatrix([[0.9], [0.5, 0.7]]))
        assert abs(final - 0.6) < 1e-12

        drop = average_forgetting(
            AccuracyMatrix([[0.9], [0.7, 0.8], [0.6, 0.5, 0.9]])
        )
        assert abs(drop - 0.3) < 1e-12

        matrix = AccuracyMatrix([[0.7], [0.5, 0.6], [0.4, 0.3, 0.7]])
        lag = average_intransigence(matrix, [0.8, 0.6, 0.9])
        assert abs(lag - 0.1) < 1e-12

        rng = np.random.default_rng(3)
        for _ in range(1000):
            tasks = int(rng.integers(2, 9))
            rows = [list(rng.random(k + 1)) for k in range(tasks)]
            m = AccuracyMatrix(rows)
            reference = list(rng.random(tasks))
            assert 0.0 <= average_accuracy(m) <= 1.0
            assert -1.0 <= average_forgetting(m) <= 1.0
            assert -1.0 <= average_intransigence(m, reference) <= 1.0
        _ok("05 metric hand checks and ranges")


# --- 06/07: directional benchmark at the frozen constants ------------------


def _benchmark_config(method, seed):
    return ExperimentConfig(
        dataset="synthetic", method=method, runs=1, seed=seed, data_seed=1000 + seed,
        memory=MEMORY, num_tasks=NUM_TASKS, hidden=HIDDEN,
        synth_classes=NUM_CLASSES, synth_dim=DIM, synth_per_class=PER_CLASS,
        synth_test_per_class=TEST_PER_CLASS, synth_spread=SPREAD,
        stream_batch=10, retrieve_batch=100, lr=0.1, rv_lr=0.01, rv_batch=10,
        augment="vector", jitter_sigma=JITTER,
        alpha=0.25, gamma=2.0, mu=0.3, sigma=0.5, beta=BETA,
        temperature=20.0, epsilon=0.01,
    )


def _benchmark_runs(methods, seeds):
    """Per method, the final accuracy, head weight gap, hard-sample count and
    a_{T,T} (accuracy on the last task, just learned) at each seed, in seed
    order; every run is a job of one `run_jobs` call."""
    jobs = {(m, s): Job(_benchmark_config(m, s), 0, "method") for m in methods for s in seeds}
    results = run_jobs(list(jobs.values()))
    runs = {m: [] for m, _ in jobs}
    for (method, _), job in jobs.items():
        diag = results[job]["diagnostics"][str(NUM_TASKS)]
        runs[method].append({
            "accuracy": float(np.mean(results[job]["matrix"][-1])),
            "weight_gap": diag["mean_weight_new"] - diag["mean_weight_old"],
            "hard_count": diag["hsi"],
            "a_TT": results[job]["matrix"][-1][-1],
        })
    return runs


@pytest.fixture(scope="module")
def comparison_runs():
    start = time.monotonic()
    runs = _benchmark_runs(("afs", "er"), COMPARISON_SEEDS)
    runs["elapsed"] = time.monotonic() - start
    return runs


@pytest.fixture(scope="module")
def ablation_runs():
    arms = {
        "base": "ablation:ce+none+norv",
        "rfl": "ablation:rfl+none+norv",
        "rfl_vkd": "ablation:rfl+vkd+norv",
    }
    runs = _benchmark_runs(arms.values(), ABLATION_SEEDS)
    out = {name: [r["accuracy"] for r in runs[arm]] for name, arm in arms.items()}
    out["a_TT"] = {name: [r["a_TT"] for r in runs[arm]] for name, arm in arms.items()}
    return out


class TestMethodComparison:
    def test_06_benchmark_runtime(self, comparison_runs):
        assert comparison_runs["elapsed"] < 300.0
        _ok("06 benchmark runtime under five minutes")

    def test_06_final_accuracy_beats_plain_replay(self, comparison_runs):
        """Documented failure. Over the pinned seeds the method scores
        0.1874 +/- 0.0162 against plain replay's 0.1850 +/- 0.0191: the mean
        gap is +0.0024, so the first assertion holds and the check fails on
        the confidence-interval overlap. Measured cause: the revised focal
        weight scales every gradient by alpha * w(p_t), about 0.2, which cuts
        the effective step about five-fold, so a fresh class cannot reach
        argmax within a task's 100 optimizer steps. At seed 0 the accuracy
        on the task just learned is 0.04 for the method against 0.425 for
        plain replay."""
        afs = [r["accuracy"] for r in comparison_runs["afs"]]
        er = [r["accuracy"] for r in comparison_runs["er"]]
        afs_mean, afs_half = confidence_interval(afs)
        er_mean, er_half = confidence_interval(er)
        gap = afs_mean - er_mean
        assert gap > 0.0, (
            f"final accuracy gap {gap:+.4f} "
            f"(method {afs_mean:.4f}+/-{afs_half:.4f}, "
            f"baseline {er_mean:.4f}+/-{er_half:.4f})"
        )
        assert afs_mean - afs_half > er_mean + er_half, "confidence intervals overlap"
        _ok("06 final accuracy direction")

    def test_06_head_weight_bias_is_smaller(self, comparison_runs):
        afs = np.mean([r["weight_gap"] for r in comparison_runs["afs"]])
        er = np.mean([r["weight_gap"] for r in comparison_runs["er"]])
        assert afs < er, f"weight gap {afs:+.4f} vs baseline {er:+.4f}"
        _ok("06 new-vs-old head weight gap direction")

    def test_06_fewer_hard_new_class_samples(self, comparison_runs):
        """Documented failure. Over the pinned seeds the method leaves 997.4
        of the 1000 new-class samples in the hard interval (p_t < 0.3)
        against 542.2 for plain replay. The cause is the one measured in the
        accuracy check above: with every gradient scaled by about 0.2, the
        fresh classes are not learned within a task's 100 steps (at seed 0
        the method's mean max-softmax on them is 0.23)."""
        afs = np.mean([r["hard_count"] for r in comparison_runs["afs"]])
        er = np.mean([r["hard_count"] for r in comparison_runs["er"]])
        assert afs < er, f"hard-sample count {afs:.0f} vs baseline {er:.0f}"
        _ok("06 hard-sample count direction")


class TestAblationChain:
    def test_07_focused_loss_does_not_hurt(self, ablation_runs):
        gap = np.mean(ablation_runs["rfl"]) - np.mean(ablation_runs["base"])
        assert gap >= 0.0, f"revised focal vs cross-entropy gap {gap:+.4f}"
        _ok("07 revised focal ablation gap")

    def test_07_distillation_does_not_hurt(self, ablation_runs):
        """Documented failure. Over the pinned seeds adding the distillation
        term to the revised focal arm moves mean final accuracy by -0.0030.
        Its logit gradient is about beta (z - v) / C, roughly 0.01 per logit,
        too small to offset the revised focal arm's under-learned fresh
        classes (accuracy 0.02-0.10 on the task just learned, seeds 0-2)."""
        gap = np.mean(ablation_runs["rfl_vkd"]) - np.mean(ablation_runs["rfl"])
        assert gap >= 0.0, f"distillation vs revised focal gap {gap:+.4f}"
        _ok("07 distillation ablation gap")


class TestDocumentedCauses:
    """The measured causes that the docstrings of the failing 06/07 checks
    state, checked on the same fixture runs, each within a band stated here."""

    def test_06_method_has_not_learned_the_last_task_at_seed_0(self, comparison_runs):
        # stated: a_{T,T} is 0.04 for the method against 0.425 for plain replay
        at = COMPARISON_SEEDS.index(0)
        afs = comparison_runs["afs"][at]["a_TT"]
        er = comparison_runs["er"][at]["a_TT"]
        assert afs <= 0.10, f"method a_TT {afs:.3f}"
        assert er >= 0.30, f"plain replay a_TT {er:.3f}"
        _ok("06 cause: fresh classes not learned at seed 0")

    def test_07_revised_focal_arm_under_learns_the_last_task(self, ablation_runs):
        # stated: accuracy 0.02-0.10 on the task just learned, seeds 0-2
        for seed in range(3):
            a_tt = ablation_runs["a_TT"]["rfl"][ABLATION_SEEDS.index(seed)]
            assert 0.02 <= a_tt <= 0.10, f"seed {seed}: revised focal arm a_TT {a_tt:.3f}"
        _ok("07 cause: revised focal arm under-learns the last task")


# --- 08: adaptive difficulty threshold --------------------------------------


class TestAdaptiveThreshold:
    def test_08_worked_examples_and_monotonicity(self):
        hist = ScoreHistogram(1)
        hist = record_scores(hist, 0, [0.01] * 8)
        assert compute_mu(hist, 0) == (0.0, False)

        hist = ScoreHistogram(1)
        hist = record_scores(hist, 0, [k * 0.04 for k in range(8)])
        value = compute_mu(hist, 0)
        assert value.mu == pytest.approx(0.04) and not value.degenerate

        hist = ScoreHistogram(1)
        hist = record_scores(hist, 0, [0.99] * 6)
        assert compute_mu(hist, 0).mu == pytest.approx(0.96)

        rng = np.random.default_rng(8)
        for _ in range(1000):
            scores = rng.random(int(rng.integers(1, 40)))
            hist = record_scores(ScoreHistogram(1), 0, scores)
            before = compute_mu(hist, 0).mu
            shifted = np.minimum(scores + rng.random() * 0.5, 1.0)
            hist = record_scores(ScoreHistogram(1), 0, shifted)
            assert compute_mu(hist, 0).mu >= before - 1e-12
        _ok("08 adaptive threshold worked examples")


# --- 09: deterministic reports ----------------------------------------------


def _strip_column(path, name):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(name)
    return [[cell for i, cell in enumerate(row) if i != drop] for row in rows]


class TestDeterminism:
    def test_09_identical_runs_emit_identical_reports(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "dataset = synthetic\nmethod = afs\nruns = 2\nseed = 3\n"
            "synth_classes = 4\nsynth_dim = 8\nsynth_per_class = 40\n"
            "synth_test_per_class = 10\nsynth_spread = 0.8\n"
            "num_tasks = 2\nhidden = 16\nmemory = 60\njitter_sigma = 0.8\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        for name in ("metrics.csv", "diagnostics.csv", "summary.csv"):
            if name == "metrics.csv":
                a = _strip_column(str(out_a / name), "wall_time")
                b = _strip_column(str(out_b / name), "wall_time")
            else:
                a = (out_a / name).read_bytes()
                b = (out_b / name).read_bytes()
            assert a == b, name
        _ok("09 deterministic reports")
