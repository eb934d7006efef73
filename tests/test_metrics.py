import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from afslab.errors import InvalidInputError, UndefinedMetricError
from afslab.metrics import (
    AccuracyMatrix,
    average_accuracy,
    average_forgetting,
    average_intransigence,
    bias_diagnostics,
    confidence_interval,
)
from afslab.losses import difficulty_counts, softmax_stable
from afslab.model import SCORE_CHUNK_ROWS, NetworkSpec, NetworkState, init_network
from helpers import traced_peak


def random_matrix(rng, num_tasks):
    return AccuracyMatrix(
        [list(rng.random(i + 1)) for i in range(num_tasks)]
    )


class TestAccuracyMatrix:
    def test_append_enforces_row_length(self):
        m = AccuracyMatrix()
        m.append_row([0.5])
        with pytest.raises(InvalidInputError):
            m.append_row([0.5])
        m.append_row([0.4, 0.6])
        assert m.num_tasks == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            AccuracyMatrix([[1.5]])

    def test_entry_triangle_only(self):
        m = AccuracyMatrix([[0.9], [0.7, 0.8]])
        assert m.entry(2, 1) == 0.7
        for bad in [(1, 2), (3, 1), (0, 0), (2, 0)]:
            with pytest.raises(UndefinedMetricError):
                m.entry(*bad)

    def test_rows_are_copies(self):
        m = AccuracyMatrix([[0.9]])
        m.rows[0][0] = 0.0
        assert m.entry(1, 1) == 0.9


class TestAverageAccuracy:
    def test_two_task_mean(self):
        m = AccuracyMatrix([[0.9], [0.5, 0.7]])
        assert_allclose(average_accuracy(m), 0.6)

    def test_perfect(self):
        m = AccuracyMatrix([[1.0], [1.0, 1.0]])
        assert average_accuracy(m) == 1.0

    def test_single_task_is_identity(self):
        assert average_accuracy(AccuracyMatrix([[0.37]])) == 0.37

    def test_after_task_picks_row(self):
        m = AccuracyMatrix([[0.9], [0.5, 0.7]])
        assert average_accuracy(m, after_task=1) == 0.9
        with pytest.raises(UndefinedMetricError):
            average_accuracy(m, after_task=3)


class TestAverageForgetting:
    def test_single_drop(self):
        m = AccuracyMatrix([[0.9], [0.5, 0.7]])
        assert_allclose(average_forgetting(m), 0.4)

    def test_improvement_goes_negative(self):
        m = AccuracyMatrix([[0.5], [0.8, 0.6]])
        assert average_forgetting(m) < 0
        assert_allclose(average_forgetting(m), -0.3)

    def test_three_task_hand_value(self):
        m = AccuracyMatrix([[0.9], [0.7, 0.8], [0.6, 0.5, 0.9]])
        assert_allclose(average_forgetting(m), 0.3)

    def test_needs_two_tasks(self):
        with pytest.raises(UndefinedMetricError):
            average_forgetting(AccuracyMatrix([[0.9]]))

    def test_never_degrading_is_non_positive(self):
        rng = np.random.default_rng(0)
        t = 4
        for _ in range(50):
            # each column improves monotonically as training continues
            cols = [np.sort(rng.random(t - j)) for j in range(t)]
            rows = [[float(cols[j][i - j]) for j in range(i + 1)] for i in range(t)]
            m = AccuracyMatrix(rows)
            assert average_forgetting(m) <= 1e-12


class TestAverageIntransigence:
    def test_matching_reference_cancels(self):
        m = AccuracyMatrix([[0.9], [0.4, 0.7]])
        assert_allclose(average_intransigence(m, [0.9, 0.7]), 0.0)

    def test_signed_cancellation(self):
        m = AccuracyMatrix([[0.9], [0.4, 0.7]])
        assert_allclose(average_intransigence(m, [0.8, 0.8]), 0.0, atol=1e-15)

    def test_three_task_hand_value(self):
        m = AccuracyMatrix([[0.7], [0.5, 0.6], [0.3, 0.3, 0.7]])
        assert_allclose(average_intransigence(m, [0.8, 0.6, 0.9]), 0.1)

    def test_length_mismatch(self):
        m = AccuracyMatrix([[0.9], [0.4, 0.7]])
        with pytest.raises(InvalidInputError):
            average_intransigence(m, [0.9])


class TestRanges:
    def test_all_metrics_in_documented_ranges(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = int(rng.integers(2, 7))
            m = random_matrix(rng, t)
            ref = list(rng.random(t))
            assert 0.0 <= average_accuracy(m) <= 1.0
            assert -1.0 <= average_forgetting(m) <= 1.0
            assert -1.0 <= average_intransigence(m, ref) <= 1.0


class TestConfidenceInterval:
    def test_identical_values(self):
        mean, half = confidence_interval([0.4, 0.4, 0.4])
        assert_allclose(mean, 0.4, rtol=1e-15)
        assert abs(half) < 1e-12

    def test_two_point_hand_value(self):
        mean, half = confidence_interval([0.0, 1.0])
        assert_allclose(mean, 0.5)
        # s = sqrt(0.5), t quantile 12.706 at one degree of freedom
        assert_allclose(half, 12.706 * math.sqrt(0.5) / math.sqrt(2), rtol=1e-12)
        assert_allclose(half, 6.353, atol=5e-4)

    def test_shrinks_like_inverse_sqrt_n(self):
        # alternating 0/1 values keep the sample std near 0.5 while n grows;
        # half * sqrt(n) then equals quantile * s exactly
        for n, quantile in ((4, 3.182), (16, 2.131), (64, 1.959964)):
            values = [0.0, 1.0] * (n // 2)
            _, half = confidence_interval(values)
            s = 0.5 * math.sqrt(n / (n - 1))
            assert_allclose(half * math.sqrt(n), quantile * s, rtol=1e-9)

    def test_large_n_uses_normal_quantile(self):
        values = [0.0, 1.0] * 32
        _, half = confidence_interval(values)
        s = np.std(values, ddof=1)
        assert_allclose(half, 1.959964 * s / math.sqrt(64), rtol=1e-9)

    def test_needs_two(self):
        with pytest.raises(UndefinedMetricError):
            confidence_interval([0.5])


def linear_head_state(weights, biases):
    return NetworkState(weights=[np.asarray(weights, dtype=float)],
                        biases=[np.asarray(biases, dtype=float)])


def exact_p_logits(p, target, num_classes=4):
    """Logits whose softmax_stable probability at `target` is exactly p.

    Solves for the target logit, then steps it one ulp at a time; a small
    shift of another logit moves the rounding when no step lands on p.
    """
    for k in range(200):
        z = np.zeros(num_classes)
        z[(target + 1) % num_classes] = 0.01 * k
        rest = np.exp(np.delete(z, target)).sum()
        a = math.log(p * rest / (1.0 - p))
        for j in range(-64, 65):
            z[target] = a + j * np.spacing(a)
            if softmax_stable(z[None])[0, target] == p:
                return z
    raise AssertionError(f"no logits found for p = {p}")


class TestBiasDiagnostics:
    def test_zero_network_all_hsi(self):
        state = linear_head_state(np.zeros((4, 3)), np.zeros(4))
        rec = bias_diagnostics(state, np.ones((3, 3)), np.array([2, 3, 3]), {0, 1}, {2, 3})
        assert rec.mean_weight_old == 0.0 and rec.mean_weight_new == 0.0
        assert rec.mean_logit_old == 0.0 and rec.mean_logit_new == 0.0
        # p_t = 1/4 for every new-class sample, squarely in the hard interval
        assert (rec.hsi, rec.asi, rec.esi) == (3, 0, 0)

    def test_hand_set_head(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
        b = np.array([1.0, -1.0, 0.0, 2.0])
        state = linear_head_state(w, b)
        x = np.array([1.0, 1.0])
        rec = bias_diagnostics(state, x[None], np.array([2]), {0, 1}, {2, 3})
        # old rows pool (1,2,1) and (3,4,-1); new rows (0,0,0) and (1,1,2)
        assert_allclose(rec.mean_weight_old, (1 + 2 + 1 + 3 + 4 - 1) / 6)
        assert_allclose(rec.mean_weight_new, (0 + 0 + 0 + 1 + 1 + 2) / 6)
        # logits for x: [4, 6, 0, 4]
        assert_allclose(rec.mean_logit_old, 5.0)
        assert_allclose(rec.mean_logit_new, 2.0)

    def test_counts_cover_new_class_samples_only(self):
        state = linear_head_state(np.eye(4), np.zeros(4))
        features = np.array([
            np.eye(4)[0] * 10,  # old class
            np.eye(4)[3] * 10,  # easy new
            np.zeros(4),  # hard new
        ])
        rec = bias_diagnostics(state, features, np.array([0, 3, 2]), {0, 1}, {2, 3})
        assert (rec.hsi, rec.asi, rec.esi) == (1, 0, 1)

    def test_interval_counts_match_per_row_scan(self):
        # identity head: each sample's features are its logits, so rows can
        # sit exactly on the 0.3 and 0.6 boundaries (both ambiguous)
        rng = np.random.default_rng(5)
        state = linear_head_state(np.eye(4), np.zeros(4))
        rows = list(rng.normal(0.0, 2.0, size=(300, 4)))
        labels = [int(v) for v in rng.integers(0, 4, size=300)]
        for p in (0.3, 0.6):
            for t in (2, 3):
                rows.append(exact_p_logits(p, t))
                labels.append(t)
        rec = bias_diagnostics(state, np.array(rows), np.array(labels), {0, 1}, {2, 3})
        expected = {"hsi": 0, "asi": 0, "esi": 0}
        for z, lab in zip(rows, labels):
            if lab in (2, 3):
                p_t = softmax_stable(z[None])[0, lab]
                for bucket, count in difficulty_counts([p_t]).items():
                    expected[bucket] += count
        assert {key: getattr(rec, key) for key in expected} == expected
        assert min(expected.values()) > 4

    def test_no_new_class_rows_counts_nothing(self):
        state = linear_head_state(np.eye(4), np.zeros(4))
        rec = bias_diagnostics(state, np.ones((1, 4)), np.array([0]), {0, 1}, {2, 3})
        assert (rec.hsi, rec.asi, rec.esi) == (0, 0, 0)

    def test_validation(self):
        state = linear_head_state(np.zeros((4, 2)), np.zeros(4))
        x, y = np.zeros((1, 2)), np.array([0])
        with pytest.raises(InvalidInputError):
            bias_diagnostics(state, x, y, set(), {1})
        with pytest.raises(InvalidInputError):
            bias_diagnostics(state, x, y, {0, 1}, {1, 2})
        with pytest.raises(InvalidInputError):
            bias_diagnostics(state, x[:0], y[:0], {0}, {1})
        with pytest.raises(InvalidInputError):
            bias_diagnostics(state, x, y, {0}, {9})


class TestBiasDiagnosticsByIndex:
    """Rows passed as indices give the record of the gathered rows."""

    POOL = 4000

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(1, 3 * SCORE_CHUNK_ROWS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=1, seed=0)
    @example(count=SCORE_CHUNK_ROWS, seed=1)
    @example(count=SCORE_CHUNK_ROWS + 3, seed=2)
    @example(count=3 * SCORE_CHUNK_ROWS, seed=3)
    def test_matches_gathered_call(self, count, seed):
        rng = np.random.default_rng(seed)
        state = init_network(NetworkSpec((6, 11, 6), seed=seed % 89))
        features = rng.normal(0.0, 3.0, size=(self.POOL, 6))
        labels = rng.integers(0, 6, size=self.POOL)
        rows = rng.permutation(self.POOL)[:count]
        old, new = {0, 1, 2}, {3, 4, 5}
        got = bias_diagnostics(state, features, labels, old, new, rows)
        expected = bias_diagnostics(state, features[rows], labels[rows], old, new)
        assert (got.hsi, got.asi, got.esi) == (expected.hsi, expected.asi, expected.esi)
        for name in ("mean_weight_old", "mean_weight_new", "mean_logit_old", "mean_logit_new"):
            assert_allclose(getattr(got, name), getattr(expected, name), rtol=0, atol=1e-12)

    def test_allocates_a_chunk_not_a_gather(self):
        rng = np.random.default_rng(0)
        features = rng.random((10_000, 784))
        labels = rng.integers(0, 10, size=10_000)
        state = init_network(NetworkSpec((784, 64, 10), seed=0))
        rows = rng.permutation(10_000)
        rec, peak = traced_peak(
            bias_diagnostics, state, features, labels, set(range(5)), set(range(5, 10)), rows
        )
        assert rec.hsi + rec.asi + rec.esi == np.isin(labels, range(5, 10)).sum()
        # a gather of every row would be features.nbytes, 62.7 MB
        assert peak < 16e6 < features.nbytes / 3

    def test_rejects_empty_rows(self):
        state = linear_head_state(np.eye(4), np.zeros(4))
        with pytest.raises(InvalidInputError):
            bias_diagnostics(state, np.ones((3, 4)), np.zeros(3, dtype=int), {0}, {1},
                             np.array([], dtype=int))
