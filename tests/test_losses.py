import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from afslab.errors import InvalidConfigError, InvalidInputError
from afslab.losses import (
    ASI,
    CLS_KINDS,
    ESI,
    HSI,
    P_FLOOR,
    REG_KINDS,
    LossConfig,
    difficulty_counts,
    distill,
    make_objective,
    rfl_weight,
    softmax_stable,
    teacher_table,
    virtual_teacher,
    weighted_ce,
)
from helpers import central_difference, two_class_logits


class TestShapeContract:
    """Logits are [n, C] rows; a 1-d vector is rejected, naming that shape."""

    def test_softmax_rejects_a_vector(self):
        with pytest.raises(InvalidInputError, match=r"\[n, C\]"):
            softmax_stable(np.zeros(3))

    def test_weighted_ce_rejects_a_vector(self):
        with pytest.raises(InvalidInputError, match=r"\[n, C\]"):
            weighted_ce(np.zeros(3), [0], "ce")


class TestSoftmax:
    def test_worked_example(self):
        assert_allclose(
            softmax_stable(np.array([[math.log(2.0), 0.0]]))[0], [2 / 3, 1 / 3], atol=1e-12
        )

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.uniform(-8, 8, size=rng.integers(2, 12))[None]
            p = softmax_stable(z)
            assert_allclose(p.sum(), 1.0, atol=1e-12)
            assert_allclose(p, softmax_stable(z + 123.4), atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        p = softmax_stable(np.array([[1000.0, 0.0, -1000.0]]))[0]
        assert np.all(np.isfinite(p))
        assert p[0] > 0.999

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax_stable(np.array([[np.nan, 0.0]]))
        with pytest.raises(InvalidInputError):
            softmax_stable(np.array([[np.inf, 0.0]]))
        with pytest.raises(InvalidInputError):
            softmax_stable(np.empty((1, 0)))


class TestDifficultyIntervals:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (0.0, HSI),
            (0.29999, HSI),
            (0.3, ASI),
            (0.45, ASI),
            (0.6, ASI),
            (0.60001, ESI),
            (1.0, ESI),
        ],
        # the ids name the intervals as the paper does: HSI, ASI, ESI
        ids=lambda value: value.upper() if isinstance(value, str) else None,
    )
    def test_boundaries(self, p, expected):
        assert difficulty_counts([p]) == {HSI: 0, ASI: 0, ESI: 0, expected: 1}

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            difficulty_counts([-0.01])
        with pytest.raises(InvalidInputError):
            difficulty_counts([1.01])

    def test_counts_match_per_value_classification(self):
        rng = np.random.default_rng(2)
        p = np.concatenate([rng.random(500), [0.0, 0.3, 0.3, 0.6, 0.6, 1.0]])
        expected = {HSI: 0, ASI: 0, ESI: 0}
        for value in p:
            for bucket, count in difficulty_counts([value]).items():
                expected[bucket] += count
        assert difficulty_counts(p) == expected
        assert min(expected.values()) > 100

    def test_counts_of_nothing_are_zero(self):
        assert difficulty_counts(np.empty(0)) == {HSI: 0, ASI: 0, ESI: 0}

    def test_counts_reject_out_of_range(self):
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(InvalidInputError):
                difficulty_counts(np.array([0.5, bad]))


class TestRflWeight:
    def test_worked_examples(self):
        assert_allclose(rfl_weight(0.6, 1.0, 0.3, 0.5), 0.835270211411272, atol=1e-12)
        assert rfl_weight(0.3, 0.25, 0.3, 0.5) == 0.25

    def test_peaks_at_mu(self):
        grid = np.linspace(0.01, 1.0, 100)
        weights = [rfl_weight(p, 0.25, 0.3, 0.5) for p in grid]
        assert max(weights) == pytest.approx(rfl_weight(0.3, 0.25, 0.3, 0.5), abs=1e-3)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidConfigError):
            rfl_weight(0.5, 0.25, 0.3, 0.0)


class TestCrossEntropy:
    def test_worked_example(self):
        out = weighted_ce(np.array([[0.0, 0.0]]), [0], "ce")
        assert_allclose(out.value[0], math.log(2.0), atol=1e-12)
        assert_allclose(out.grad_logits[0], [-0.5, 0.5], atol=1e-12)
        assert out.p_target[0] == pytest.approx(0.5)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.uniform(-8, 8, size=rng.integers(2, 12))
            t = int(rng.integers(0, z.size))
            assert abs(weighted_ce(z[None], [t], "ce").grad_logits.sum()) < 1e-12

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = rng.uniform(-8, 8, size=rng.integers(2, 10))
            t = int(rng.integers(0, z.size))
            numeric = central_difference(
                lambda x: weighted_ce(x[None], [t], "ce").value[0], z
            )
            assert_allclose(weighted_ce(z[None], [t], "ce").grad_logits[0], numeric, atol=1e-6)

    def test_rejects_bad_target(self):
        with pytest.raises(InvalidInputError):
            weighted_ce(np.array([[0.0, 0.0]]), [2], "ce")
        with pytest.raises(InvalidInputError):
            weighted_ce(np.array([[0.0, 0.0]]), [-1], "ce")


class TestFocal:
    def test_gamma_zero_is_scaled_ce(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.uniform(-6, 6, size=5)
            t = int(rng.integers(0, 5))
            fl = weighted_ce(z[None], [t], "fl", alpha=0.25, gamma=0.0)
            ce = weighted_ce(z[None], [t], "ce")
            assert_allclose(fl.value, 0.25 * ce.value, atol=1e-12)
            assert_allclose(fl.grad_logits, 0.25 * ce.grad_logits, atol=1e-12)

    def test_target_gradient_formula(self):
        # alpha * Q^gamma * (gamma * p_t * log p_t + p_t - 1) on the target logit
        rng = np.random.default_rng(6)
        for _ in range(30):
            z = rng.uniform(-6, 6, size=6)
            t = int(rng.integers(0, 6))
            out = weighted_ce(z[None], [t], "fl", alpha=0.7, gamma=3.0)
            p_t = float(out.p_target[0])
            q = 1 - p_t
            expected = 0.7 * q**3 * (3 * p_t * math.log(p_t) + p_t - 1)
            assert_allclose(out.grad_logits[0, t], expected, atol=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_finite_difference(self, gamma):
        rng = np.random.default_rng(8)
        for _ in range(15):
            z = rng.uniform(-8, 8, size=rng.integers(2, 10))
            t = int(rng.integers(0, z.size))
            numeric = central_difference(
                lambda x: weighted_ce(x[None], [t], "fl", alpha=0.25, gamma=gamma).value[0], z
            )
            analytic = weighted_ce(z[None], [t], "fl", alpha=0.25, gamma=gamma).grad_logits[0]
            assert_allclose(analytic, numeric, atol=1e-6)

    def test_down_weights_ce_at_default_alpha(self):
        # with the default alpha=0.25 the focal gradient never exceeds the
        # unweighted cross-entropy gradient anywhere on the probability grid
        for p in np.arange(0.05, 1.0, 0.05):
            z = two_class_logits(p)
            fl = abs(weighted_ce(z[None], [0], "fl", alpha=0.25, gamma=2.0).grad_logits[0, 0])
            ce = abs(weighted_ce(z[None], [0], "ce").grad_logits[0, 0])
            assert fl < ce

    def test_promotes_hard_samples_relative_to_rfl(self):
        # at equal alpha the plain focal gradient is larger than the revised
        # one on hard samples; the revision is what damps them
        z = two_class_logits(0.1)
        fl = abs(weighted_ce(z[None], [0], "fl", alpha=1.0, gamma=2.0).grad_logits[0, 0])
        rfl = abs(
            weighted_ce(z[None], [0], "rfl", alpha=1.0, mu=0.3, sigma=0.5).grad_logits[0, 0]
        )
        assert fl > rfl

    def test_crosses_ce_near_030(self):
        # at alpha=1 the focal gradient exceeds CE's below p_t ~= 0.2976 and
        # drops under it above; pin the crossing bracket
        for p, above in [(0.25, True), (0.29, True), (0.31, False), (0.35, False)]:
            z = two_class_logits(p)
            fl = abs(weighted_ce(z[None], [0], "fl", alpha=1.0, gamma=2.0).grad_logits[0, 0])
            ce = abs(weighted_ce(z[None], [0], "ce").grad_logits[0, 0])
            assert (fl > ce) == above


class TestRevisedFocal:
    def test_worked_value(self):
        z = two_class_logits(0.3)
        out = weighted_ce(z[None], [0], "rfl", alpha=0.25, mu=0.3, sigma=0.5)
        assert_allclose(out.value[0], 0.30099320108148403, atol=1e-9)

    def test_gradient_at_peak_reduces_to_weighted_ce(self):
        # at p_t = mu the Gaussian weight is alpha and its derivative vanishes
        z = two_class_logits(0.3)
        out = weighted_ce(z[None], [0], "rfl", alpha=0.25, mu=0.3, sigma=0.5)
        assert_allclose(out.grad_logits[0, 0], -0.25 * 0.7, atol=1e-9)

    @pytest.mark.parametrize("mu,sigma", [(0.3, 0.5), (0.0, 0.2), (0.7, 1.5)])
    def test_finite_difference(self, mu, sigma):
        rng = np.random.default_rng(9)
        for _ in range(15):
            z = rng.uniform(-8, 8, size=rng.integers(2, 10))
            t = int(rng.integers(0, z.size))
            def rfl(x):
                return weighted_ce(x[None], [t], "rfl", alpha=0.25, mu=mu, sigma=sigma)

            numeric = central_difference(lambda x: rfl(x).value[0], z)
            analytic = rfl(z).grad_logits[0]
            assert_allclose(analytic, numeric, atol=1e-6)

    def test_gradient_ordering_against_ce(self):
        # suppressed on hard and easy samples, equal at the anchor,
        # amplified on ambiguous ones
        cases = [(0.2, "lt"), (0.3, "eq"), (0.45, "gt"), (0.9, "lt")]
        for p, relation in cases:
            z = two_class_logits(p)
            rfl = weighted_ce(z[None], [0], "rfl", alpha=1.0, mu=0.3, sigma=0.5)
            r = abs(rfl.grad_logits[0, 0])
            c = abs(weighted_ce(z[None], [0], "ce").grad_logits[0, 0])
            if relation == "lt":
                assert r < c
            elif relation == "gt":
                assert r > c
            else:
                assert abs(r - c) < 1e-9

    def test_values_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            z = rng.uniform(-8, 8, size=6)
            t = int(rng.integers(0, 6))
            assert weighted_ce(z[None], [t], "rfl").value[0] >= 0.0
            assert weighted_ce(z[None], [t], "fl").value[0] >= 0.0
            assert weighted_ce(z[None], [t], "ce").value[0] >= 0.0


class TestVirtualTeacher:
    def test_worked_distribution(self):
        v = virtual_teacher(3, 10, 0.01)
        assert_allclose(v.sum(), 1.0, atol=1e-12)
        assert v[3] == 0.99
        assert_allclose(v[0], 0.01 / 9, atol=1e-15)
        q = softmax_stable(v[None] / 20.0)[0]
        assert_allclose(q[3], 0.10454, atol=1e-5)
        assert_allclose(q[0], 0.09950, atol=1e-5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidConfigError):
            virtual_teacher(0, 10, 0.0)
        with pytest.raises(InvalidConfigError):
            virtual_teacher(0, 10, 1.0)

    def test_teacher_entropy_grows_with_temperature(self):
        def entropy(dist):
            return -float(np.sum(dist * np.log(dist)))

        v = virtual_teacher(2, 8, 0.05)
        temps = [1.0, 2.0, 5.0, 20.0, 100.0]
        entropies = [entropy(softmax_stable(v[None] / t)) for t in temps]
        assert all(a < b for a, b in zip(entropies, entropies[1:]))


class TestVkd:
    def test_gradient_is_temperature_scaled_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            z = rng.uniform(-8, 8, size=10)
            t = int(rng.integers(0, 10))
            out = distill(z[None], [t], teacher_table(10, 0.01, 20.0), 20.0)
            q = softmax_stable(virtual_teacher(t, 10, 0.01)[None] / 20.0)
            p = softmax_stable(z[None] / 20.0)
            assert_allclose(out.grad_logits, 20.0 * (p - q), atol=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(13)
        for temperature in (1.0, 5.0, 20.0):
            for _ in range(10):
                z = rng.uniform(-8, 8, size=rng.integers(2, 10))
                t = int(rng.integers(0, z.size))
                teacher = teacher_table(z.size, 0.01, temperature)
                numeric = central_difference(
                    lambda x: distill(x[None], [t], teacher, temperature).value[0], z
                )
                analytic = distill(z[None], [t], teacher, temperature).grad_logits[0]
                assert_allclose(analytic, numeric, atol=1e-6)

    def test_minimized_when_student_matches_teacher(self):
        rng = np.random.default_rng(14)
        t, C, T, eps = 2, 6, 4.0, 0.05
        v = virtual_teacher(t, C, eps)
        teacher = teacher_table(C, eps, T)
        base = distill(v[None], [t], teacher, T).value[0]
        assert base > 0.0  # the teacher's own entropy keeps it positive
        for _ in range(50):
            z = v + rng.normal(0, 0.5, size=C)
            assert distill(z[None], [t], teacher, T).value[0] >= base - 1e-9

    def test_value_non_negative(self):
        rng = np.random.default_rng(15)
        teacher = teacher_table(7, 0.01, 20.0)
        for _ in range(40):
            z = rng.uniform(-8, 8, size=7)
            assert distill(z[None], [int(rng.integers(0, 7))], teacher, 20.0).value[0] >= 0.0

    def test_high_temperature_linearization(self):
        # for zero-mean logits the unscaled gradient approaches
        # (z_i - v_i) / (C * T^2) once T is large, v shifted to zero mean
        C = 10
        target = 4  # a -1 logit, so z - v stays well away from zero everywhere
        z = np.array([1.0 if i % 2 else -1.0 for i in range(C)])
        v = virtual_teacher(target, C, 0.01)
        v_centered = v - v.mean()
        for T in (50.0, 100.0, 200.0):
            teacher = teacher_table(C, 0.01, T)
            exact = distill(z[None], [target], teacher, T).grad_logits[0] / T**2
            approx = (z - v_centered) / (C * T**2)
            rel = np.abs(exact - approx) / np.abs(approx)
            assert rel.max() < 0.05

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidConfigError):
            distill(np.zeros((1, 4)), [0], teacher_table(4, 0.01, 0.0), 0.0)


class TestLsr:
    def test_is_exactly_unit_temperature_vkd(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            z = rng.uniform(-8, 8, size=rng.integers(2, 12))
            t = int(rng.integers(0, z.size))
            cfg = LossConfig(epsilon=0.01)
            lsr = make_objective("ce", "lsr", cfg, z.size)
            vkd = make_objective("ce", "vkd", replace(cfg, temperature=1.0), z.size)
            a = distill(z[None], [t], lsr.teacher, lsr.temperature)
            b = distill(z[None], [t], vkd.teacher, vkd.temperature)
            assert a.value[0] == b.value[0]
            assert np.array_equal(a.grad_logits, b.grad_logits)

    def test_finite_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = rng.uniform(-8, 8, size=6)
            t = int(rng.integers(0, 6))
            teacher = teacher_table(6, 0.05, 1.0)
            numeric = central_difference(
                lambda x: distill(x[None], [t], teacher, 1.0).value[0], z
            )
            analytic = distill(z[None], [t], teacher, 1.0).grad_logits[0]
            assert_allclose(analytic, numeric, atol=1e-6)

    def test_small_epsilon_approaches_peaked_teacher(self):
        # shrinking epsilon drives the teacher toward softmax of a one-hot,
        # the most confident distribution this loss can target
        z = np.array([2.0, -1.0, 0.5, 0.0])
        values = [
            distill(z[None], [0], teacher_table(4, eps, 1.0), 1.0).value[0]
            for eps in (0.3, 0.1, 0.01, 1e-6)
        ]
        limit_teacher = softmax_stable(np.eye(4)[:1])[0]
        p = softmax_stable(z[None])[0]
        limit = -float(np.sum(limit_teacher * np.log(p)))
        assert abs(values[-1] - limit) < 1e-4
        assert abs(values[0] - limit) > abs(values[-1] - limit)


class TestAfsCombined:
    def test_additivity(self):
        rng = np.random.default_rng(18)
        cfg = LossConfig()
        afs = make_objective("rfl", "vkd", cfg, 8)
        teacher = teacher_table(8, cfg.epsilon, cfg.temperature)
        for _ in range(30):
            z = rng.uniform(-8, 8, size=8)
            t = int(rng.integers(0, 8))
            combined = afs.rows(z[None], [t])
            cls = weighted_ce(z[None], [t], "rfl", alpha=cfg.alpha, mu=cfg.mu, sigma=cfg.sigma)
            kd = distill(z[None], [t], teacher, cfg.temperature)
            assert_allclose(combined.value, cls.value + cfg.beta * kd.value, atol=1e-12)
            assert_allclose(
                combined.grad_logits,
                cls.grad_logits + cfg.beta * kd.grad_logits,
                atol=1e-12,
            )

    def test_beta_zero_reduces_to_rfl(self):
        cfg = LossConfig(beta=0.0)
        z = np.array([1.0, -2.0, 0.3, 0.0, 2.2])
        combined = make_objective("rfl", "vkd", cfg, 5).rows(z[None], [4])
        cls = weighted_ce(z[None], [4], "rfl", alpha=cfg.alpha, mu=cfg.mu, sigma=cfg.sigma)
        assert combined.value[0] == cls.value[0]
        assert np.array_equal(combined.grad_logits, cls.grad_logits)

    def test_finite_difference(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            size = int(rng.integers(2, 10))
            z = rng.uniform(-8, 8, size=size)
            t = int(rng.integers(0, size))
            afs = make_objective("rfl", "vkd", LossConfig(), size).rows
            numeric = central_difference(lambda x: afs(x[None], [t]).value[0], z)
            assert_allclose(afs(z[None], [t]).grad_logits[0], numeric, atol=1e-6)

    def test_rejects_mismatched_width(self):
        with pytest.raises(InvalidInputError):
            objective = make_objective("rfl", "vkd", LossConfig(), 10)
            objective.rows(np.zeros((1, 4)), [0])


@st.composite
def objective_cases(draw):
    """[n, C] logits, labels, a valid LossConfig and C, with C in 2-12."""
    num_classes = draw(st.integers(2, 12))
    n = draw(st.integers(1, 4))
    logits = draw(hnp.arrays(np.float64, (n, num_classes), elements=st.floats(-6.0, 6.0)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, num_classes - 1)))
    cfg = LossConfig(
        alpha=draw(st.floats(0.05, 2.0)),
        gamma=draw(st.floats(0.0, 5.0)),
        mu=draw(st.floats(0.0, 1.0)),
        sigma=draw(st.floats(0.1, 2.0)),
        beta=draw(st.floats(0.0, 1.0)),
        temperature=draw(st.floats(0.5, 30.0)),
        epsilon=draw(st.floats(0.001, 0.5)),
    )
    return logits, labels, cfg, num_classes


class TestObjectiveGradientProperty:
    """`Objective.rows` gradients against central differences of the summed row values."""

    @pytest.mark.parametrize("reg_kind", REG_KINDS)
    @pytest.mark.parametrize("cls_kind", CLS_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(case=objective_cases())
    def test_gradients_match_finite_differences(self, cls_kind, reg_kind, case):
        z, y, cfg, num_classes = case
        objective = make_objective(cls_kind, reg_kind, cfg, num_classes)

        def total(flat):
            return float(objective.rows(flat.reshape(z.shape), y).value.sum())

        numeric = central_difference(total, z.reshape(-1)).reshape(z.shape)
        analytic = objective.rows(z, y).grad_logits
        assert np.max(np.abs(analytic - numeric)) <= 1e-6


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.alpha, cfg.gamma, cfg.mu, cfg.sigma) == (0.25, 2.0, 0.3, 0.5)
        assert (cfg.beta, cfg.temperature, cfg.epsilon) == (0.1, 20.0, 0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"mu": -0.1},
            {"alpha": 0.0},
            {"gamma": -1.0},
            {"mu": 1.5},
            {"beta": -0.1},
            {"temperature": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            LossConfig(**kwargs)


def test_extreme_logits_stay_finite():
    z = np.array([[-800.0, 800.0]])
    for out in (
        weighted_ce(z, [0], "ce"),
        weighted_ce(z, [0], "fl"),
        weighted_ce(z, [0], "rfl"),
        distill(z, [0], teacher_table(2, 0.01, 1.0), 1.0),
        distill(z, [0], teacher_table(2, 0.01, 20.0), 20.0),
    ):
        assert math.isfinite(out.value[0])
        assert np.all(np.isfinite(out.grad_logits))


class TestBatchedKernels:
    """The [n, C] kernels row by row against one-row batches."""

    def rows(self, n=40, num_classes=6, seed=22):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-8, 8, size=(n, num_classes))
        return z, rng.integers(0, num_classes, size=n)

    @pytest.mark.parametrize("reg_kind", REG_KINDS)
    @pytest.mark.parametrize("cls_kind", CLS_KINDS)
    def test_objective_rows_match_single_calls(self, cls_kind, reg_kind):
        # each row of a batch equals the same row scored as a one-row batch
        z, y = self.rows()
        objective = make_objective(cls_kind, reg_kind, LossConfig(), 6)
        batched = objective.rows(z, y)
        for i in range(len(z)):
            single = objective.rows(z[i : i + 1], y[i : i + 1])
            assert batched.value[i] == single.value[0]
            assert batched.p_target[i] == single.p_target[0]
            assert_array_equal(batched.grad_logits[i], single.grad_logits[0])

    def test_ce_keeps_p_minus_onehot_below_floor(self):
        # p_t = e^-60 is below P_FLOOR: the value is clamped, the gradient
        # is not; a w = 1 weighted form would scale it by p_t / P_FLOOR
        z = np.array([0.0, 60.0, 0.0])
        out = weighted_ce(z[None], [0], "ce")
        assert out.p_target[0] < P_FLOOR
        assert out.value[0] == -math.log(P_FLOOR)
        assert_array_equal(out.grad_logits[0], softmax_stable(z[None])[0] - np.eye(3)[0])
        assert_allclose(out.grad_logits[0], [-1.0, 1.0, 0.0], atol=1e-12)
        batched = weighted_ce(np.stack([np.zeros(3), z]), [2, 0], "ce")
        assert_array_equal(batched.grad_logits[1], out.grad_logits[0])

    def test_focal_gamma_zero_is_scaled_ce_in_a_batch(self):
        z, y = self.rows(seed=23)
        fl = weighted_ce(z, y, "fl", alpha=0.25, gamma=0.0)
        ce = weighted_ce(z, y, "ce")
        assert_allclose(fl.value, 0.25 * ce.value, rtol=1e-15)
        assert_allclose(fl.grad_logits, 0.25 * ce.grad_logits, rtol=1e-14, atol=1e-17)
        for i in range(len(z)):
            single = weighted_ce(z[i : i + 1], y[i : i + 1], "fl", alpha=0.25, gamma=0.0)
            assert_array_equal(fl.grad_logits[i], single.grad_logits[0])

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_focal_certain_target_row(self, gamma):
        # p_t rounds to exactly 1, so q = 0; for gamma < 1 the q^(gamma-1)
        # term is infinite and its limit contribution is 0
        certain = np.array([800.0, -800.0, 0.0])
        z = np.stack([np.array([0.5, -0.2, 0.1]), certain])
        with np.errstate(divide="raise", invalid="raise"):
            out = weighted_ce(z, [1, 0], "fl", alpha=0.25, gamma=gamma)
        assert out.p_target[1] == 1.0
        assert np.all(np.isfinite(out.grad_logits))
        assert out.value[1] == 0.0
        assert_allclose(out.grad_logits[1], 0.0, atol=0.0)
        for i, t in enumerate([1, 0]):
            single = weighted_ce(z[i : i + 1], [t], "fl", alpha=0.25, gamma=gamma)
            assert_array_equal(out.grad_logits[i], single.grad_logits[0])

    @pytest.mark.parametrize("kernel", ["weighted_ce", "distill", "objective"])
    def test_one_bad_row_or_label_rejects_the_batch(self, kernel):
        calls = {
            "weighted_ce": lambda z, y: weighted_ce(z, y, "rfl"),
            "distill": lambda z, y: distill(z, y, teacher_table(6, 0.01, 20.0), 20.0),
            "objective": make_objective("rfl", "vkd", LossConfig(), 6).rows,
        }
        call = calls[kernel]
        z, y = self.rows(n=8)
        call(z, y)
        for bad in (np.nan, np.inf, -np.inf):
            broken = z.copy()
            broken[5, 2] = bad
            with pytest.raises(InvalidInputError, match="row 5"):
                call(broken, y)
        for labels in (
            np.where(np.arange(8) == 3, 6, y),  # out of range
            np.where(np.arange(8) == 3, -1, y),  # negative
            y.astype(np.float64),  # not integers
            y[:-1],  # one label short
        ):
            with pytest.raises(InvalidInputError):
                call(z, labels)

    def test_teacher_table_rows_are_softened_virtual_teachers(self):
        table = teacher_table(7, 0.05, 3.0)
        for c in range(7):
            expected = softmax_stable(virtual_teacher(c, 7, 0.05)[None] / 3.0)[0]
            assert_allclose(table[c], expected, rtol=1e-15)

    def test_distill_rejects_mismatched_table(self):
        z, y = self.rows(n=3)
        with pytest.raises(InvalidInputError):
            distill(z, y, teacher_table(5, 0.01, 20.0), 20.0)
