import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from afslab.errors import InvalidConfigError, InvalidInputError
from afslab.losses import CLS_KINDS, REG_KINDS, LossConfig, distill, teacher_table, weighted_ce
from afslab.memory import MemoryBuffer, class_histogram, reservoir_update
from afslab.model import NetworkSpec, NetworkState, Workspace, init_network
from afslab.stream import (
    Dataset,
    gen_synthetic,
    split_tasks,
    task_streams,
    task_test_sets,
)
from afslab.trainer import (
    AFS,
    ER,
    Recipe,
    TrainConfig,
    evaluate,
    make_objective,
    review_pass,
    run_stream,
    sgd_on_batch,
    train_offline,
    train_reference,
)
from helpers import (
    allocating_step,
    fork_helpers,
    interleaved_run_stream,
    max_param_diff,
    per_sample_step,
    traced_peak,
)


def one_task_stream(features, labels, batch_size):
    """A dataset of the given rows and one task streaming them in order."""
    dataset = Dataset(features=features, labels=labels, num_classes=int(labels.max()) + 1)
    order = np.arange(len(labels))
    return dataset, [[order[s : s + batch_size] for s in range(0, len(order), batch_size)]]


def small_benchmark(seed=0, num_classes=4, dim=8, per_class=40, spread=0.6, num_tasks=2):
    train, test = gen_synthetic(num_classes, dim, per_class, spread, seed)
    split = split_tasks(train, num_tasks)
    streams = task_streams(train, split, batch_size=10, seed=seed + 1)
    tests = task_test_sets(test, split)
    return train, streams, tests


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(rv_lr=-0.1)
        with pytest.raises(InvalidConfigError):
            TrainConfig(stream_batch=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(rv_every=0)

    @pytest.mark.parametrize(
        "key,value,least",
        [("stream_batch", 0, 1), ("rv_batch", 0, 1), ("retrieve_batch", -1, 0)],
    )
    def test_batch_size_error_names_the_field(self, key, value, least):
        with pytest.raises(InvalidConfigError) as info:
            TrainConfig(**{key: value})
        assert str(info.value) == f"{key} must be at least {least}, got {value}"


class TestMakeObjective:
    def test_unknown_kinds(self):
        with pytest.raises(InvalidConfigError):
            make_objective("hinge", "none", LossConfig())
        with pytest.raises(InvalidConfigError):
            make_objective("ce", "dropout", LossConfig())

    def test_combined_is_weighted_sum(self):
        cfg = LossConfig(beta=0.3, epsilon=0.05, num_classes=3)
        obj = make_objective("ce", "lsr", cfg)
        z = np.array([[0.2, -1.0, 0.7]])
        got = obj.rows(z, [2])
        base = weighted_ce(z, [2], "ce")
        reg = distill(z, [2], teacher_table(3, 0.05, 1.0), 1.0)
        assert_allclose(got.value, base.value + 0.3 * reg.value, rtol=1e-12)
        assert_allclose(
            got.grad_logits, base.grad_logits + 0.3 * reg.grad_logits, rtol=1e-12
        )

    def test_plain_kind_passes_through(self):
        cfg = LossConfig(num_classes=3)
        obj = make_objective("rfl", "none", cfg)
        z = np.array([[0.2, -1.0, 0.7]])
        assert_allclose(obj.rows(z, [0]).value, weighted_ce(z, [0], "rfl").value, rtol=1e-15)


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        state = NetworkState(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        # all-zero logits tie, argmax picks class 0 everywhere
        assert evaluate(state, (X, y)) == 0.5

    def test_permutation_invariant(self):
        state = init_network(NetworkSpec((3, 4, 2), seed=0))
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        perm = rng.permutation(20)
        assert evaluate(state, (X, y)) == evaluate(state, (X[perm], y[perm]))

    def test_empty_rejected(self):
        state = init_network(NetworkSpec((3, 2), seed=0))
        with pytest.raises(InvalidInputError):
            evaluate(state, (np.zeros((0, 3)), np.zeros(0, dtype=int)))


class TestHandSteppedTrace:
    """Drive the full loop on a 2-2 linear net and replicate it by hand.

    With distillation weight zero, review rate zero and no augmentation the
    objective is the revised focal term alone. Retrieval asks for more
    samples than memory holds, so the replay batch is the whole buffer and
    the update is independent of retrieval order up to summation roundoff.
    """

    lr = 0.2

    def hand_step(self, state, features, labels, cfg):
        W, b = state.weights[0].copy(), state.biases[0].copy()
        dW, db = np.zeros_like(W), np.zeros_like(b)
        for x, label in zip(features, labels):
            g = weighted_ce(
                (W @ x + b)[None], [label], "rfl",
                alpha=cfg.alpha, mu=cfg.mu, sigma=cfg.sigma,
            ).grad_logits[0]
            dW += np.outer(g, x)
            db += g
        n = len(features)
        return NetworkState(
            weights=[W - self.lr * dW / n], biases=[b - self.lr * db / n]
        )

    def test_two_batch_trace_matches(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.8, -0.5], [-0.3, 1.2]])
        labels = np.array([0, 1, 0, 1])
        dataset, streams = one_task_stream(features, labels, batch_size=2)
        X_test = np.array([[2.0, -1.0], [-1.0, 2.0]])
        y_test = np.array([0, 1])

        loss = LossConfig(beta=0.0, num_classes=2)
        config = TrainConfig(
            stream_batch=2, retrieve_batch=100, lr=self.lr, rv_lr=0.0,
            loss=loss, augment_kind="none", seed=9,
        )
        start = init_network(NetworkSpec((2, 2), seed=5))
        memory = MemoryBuffer(capacity=10)
        record = run_stream(start, memory, dataset, streams, [(X_test, y_test)], config, AFS)

        # batch 1 trains alone; batch 2 trains with the full buffer replayed
        expected = self.hand_step(start, features[:2], labels[:2], loss)
        order = [2, 3, 0, 1]
        expected = self.hand_step(expected, features[order], labels[order], loss)

        assert record.steps == 2
        assert record.review_steps == 0
        assert_allclose(
            record.final_state.weights[0], expected.weights[0], rtol=1e-12
        )
        assert_allclose(
            record.final_state.biases[0], expected.biases[0], rtol=1e-12
        )
        got_row = record.accuracy_matrix.rows[0]
        assert got_row == [evaluate(expected, (X_test, y_test))]
        # capacity exceeded the stream, so everything was retained
        assert len(memory) == 4 and memory.tot == 4


class TestReviewPass:
    def build_memory(self, n, dim=3, num_classes=2, seed=0):
        rng = np.random.default_rng(seed)
        buf = MemoryBuffer(capacity=n)
        labels = np.arange(n) % num_classes
        # n rows into n slots: the fill phase, which draws nothing
        reservoir_update(buf, rng.normal(size=(n, dim)), labels, np.arange(n), rng)
        return buf

    def test_zero_rate_and_empty_buffer_are_identity(self):
        state = init_network(NetworkSpec((3, 2), seed=1))
        rng = np.random.default_rng(0)
        buf = self.build_memory(5)
        assert review_pass(state, buf, 0.0, 10, LossConfig(num_classes=2), rng) is state
        empty = MemoryBuffer(capacity=4)
        assert review_pass(state, empty, 0.01, 10, LossConfig(num_classes=2), rng) is state

    def test_changes_model_but_not_memory(self):
        state = init_network(NetworkSpec((3, 2), seed=1))
        buf = self.build_memory(8)
        before = (buf.features.copy(), buf.labels.copy(), buf.uids.copy())
        before_hist = class_histogram(buf)
        out = review_pass(
            state, buf, 0.05, 4, LossConfig(num_classes=2), np.random.default_rng(2)
        )
        assert not np.array_equal(out.weights[0], state.weights[0])
        for now, then in zip((buf.features, buf.labels, buf.uids), before):
            assert_array_equal(now, then)
        assert class_histogram(buf) == before_hist
        assert buf.tot == 8

    def test_epoch_step_count_via_run(self):
        # one task, 20 samples, capacity 20: the boundary review sees all 20
        # slots and rv_batch 10 makes exactly 2 review steps
        rng = np.random.default_rng(3)
        dataset, streams = one_task_stream(
            rng.normal(size=(20, 3)), np.arange(20) % 2, batch_size=5
        )
        X = rng.normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        config = TrainConfig(
            stream_batch=5, retrieve_batch=10, lr=0.1, rv_lr=0.01, rv_batch=10,
            loss=LossConfig(num_classes=2), seed=0,
        )
        record = run_stream(
            init_network(NetworkSpec((3, 2), seed=0)),
            MemoryBuffer(capacity=20), dataset, streams, [(X, y)], config, AFS,
        )
        assert record.steps == 4
        assert record.review_steps == 2


class TestEquivalences:
    def test_er_equals_stripped_ablation_bitwise(self):
        train, streams, tests = small_benchmark(seed=2)
        config = TrainConfig(
            loss=LossConfig(num_classes=4), augment_kind="none", seed=7,
            retrieve_batch=20,
        )
        spec = NetworkSpec((8, 6, 4), seed=3)
        a = run_stream(
            init_network(spec), MemoryBuffer(capacity=30), train, streams, tests,
            config, ER,
        )
        b = run_stream(
            init_network(spec), MemoryBuffer(capacity=30), train, streams, tests,
            config, Recipe("ce", "none", review=False),
        )
        assert a.accuracy_matrix.rows == b.accuracy_matrix.rows
        for wa, wb in zip(a.final_state.weights, b.final_state.weights):
            assert_array_equal(wa, wb)

    def test_determinism_per_seed(self):
        train, streams, tests = small_benchmark(seed=4)
        config = TrainConfig(
            loss=LossConfig(num_classes=4), augment_kind="vector",
            jitter_sigma=0.05, seed=11, retrieve_batch=20,
        )
        spec = NetworkSpec((8, 6, 4), seed=1)
        a = run_stream(
            init_network(spec), MemoryBuffer(capacity=30), train, streams, tests,
            config, AFS,
        )
        b = run_stream(
            init_network(spec), MemoryBuffer(capacity=30), train, streams, tests,
            config, AFS,
        )
        assert a.accuracy_matrix.rows == b.accuracy_matrix.rows
        for wa, wb in zip(a.final_state.weights, b.final_state.weights):
            assert_array_equal(wa, wb)
        assert a.steps == b.steps and a.review_steps == b.review_steps


class TestRunShape:
    def test_steps_count_and_matrix_shape(self):
        train, streams, tests = small_benchmark(seed=5)
        config = TrainConfig(loss=LossConfig(num_classes=4), seed=0)
        record = run_stream(
            init_network(NetworkSpec((8, 6, 4), seed=0)),
            MemoryBuffer(capacity=25), train, streams, tests, config, AFS,
        )
        assert record.steps == sum(len(st) for st in streams)
        assert record.accuracy_matrix.num_tasks == len(streams)
        assert record.wall_time > 0

    def test_diagnostics_start_at_second_task(self):
        train, streams, tests = small_benchmark(seed=6, num_tasks=2, per_class=30)
        config = TrainConfig(loss=LossConfig(num_classes=4), seed=0)
        record = run_stream(
            init_network(NetworkSpec((8, 6, 4), seed=0)),
            MemoryBuffer(capacity=25), train, streams, tests, config, AFS,
        )
        assert set(record.diagnostics) == {2}
        rec = record.diagnostics[2]
        task2_samples = sum(len(b) for b in streams[1])
        assert sum(rec.interval_counts.values()) == task2_samples

    def test_rv_every_reviews_mid_task(self):
        rng = np.random.default_rng(8)
        dataset, streams = one_task_stream(
            rng.normal(size=(20, 3)), np.arange(20) % 2, batch_size=5
        )
        X, y = rng.normal(size=(4, 3)), np.array([0, 1, 0, 1])
        config = TrainConfig(
            stream_batch=5, retrieve_batch=10, lr=0.1, rv_lr=0.01, rv_batch=10,
            rv_every=2, loss=LossConfig(num_classes=2), seed=0,
        )
        record = run_stream(
            init_network(NetworkSpec((3, 2), seed=0)),
            MemoryBuffer(capacity=20), dataset, streams, [(X, y)], config, AFS,
        )
        # reviews after steps 2 and 4; buffer holds 10 then 20 samples
        assert record.steps == 4
        assert record.review_steps == 1 + 2

    def test_needs_one_test_set_per_task(self):
        train, streams, tests = small_benchmark(seed=5)
        config = TrainConfig(loss=LossConfig(num_classes=4), seed=0)
        with pytest.raises(InvalidInputError):
            run_stream(
                init_network(NetworkSpec((8, 6, 4), seed=0)),
                MemoryBuffer(capacity=25), train, streams, tests[:1], config, AFS,
            )


class TestReference:
    def test_lengths_and_range(self):
        train, streams, tests = small_benchmark(seed=12)
        config = TrainConfig(loss=LossConfig(num_classes=4), seed=0)
        ref = train_reference(
            init_network(NetworkSpec((8, 6, 4), seed=2)), train, streams, tests, config
        )
        assert len(ref) == 2
        assert all(0.0 <= a <= 1.0 for a in ref)

    def test_deterministic(self):
        train, streams, tests = small_benchmark(seed=12)
        config = TrainConfig(loss=LossConfig(num_classes=4), seed=0)
        spec = NetworkSpec((8, 6, 4), seed=2)
        a = train_reference(init_network(spec), train, streams, tests, config)
        b = train_reference(init_network(spec), train, streams, tests, config)
        assert a == b


class TestOfflineBound:
    def test_single_pass_er_trails_offline_training(self):
        train, streams, tests = small_benchmark(
            seed=13, num_classes=4, dim=8, per_class=40, spread=0.6
        )
        config = TrainConfig(
            loss=LossConfig(num_classes=4), seed=1, retrieve_batch=20
        )
        spec = NetworkSpec((8, 16, 4), seed=0)
        er = run_stream(
            init_network(spec), MemoryBuffer(capacity=20), train, streams, tests,
            config, ER,
        )
        offline = train_offline(init_network(spec), train, config, epochs=5, seed=2)
        offline_acc = float(np.mean([evaluate(offline, ts) for ts in tests]))
        er_acc = float(np.mean(er.accuracy_matrix.rows[-1]))
        assert er_acc < offline_acc

    def test_offline_rejects_bad_epochs(self):
        train, _, _ = small_benchmark(seed=13)
        config = TrainConfig(loss=LossConfig(num_classes=4))
        with pytest.raises(InvalidConfigError):
            train_offline(
                init_network(NetworkSpec((8, 4), seed=0)), train, config,
                epochs=0, seed=0,
            )


def test_sgd_on_batch_rejects_empty():
    state = init_network(NetworkSpec((3, 2), seed=0))
    with pytest.raises(InvalidInputError):
        sgd_on_batch(
            state, np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
            make_objective("ce", "none", LossConfig()), 0.1,
        )


class TestBatchedStepMatchesPerSample:
    """sgd_on_batch against the per-sample loop it replaced (helpers.per_sample_step).

    The batched step sums the same per-row gradients in a different order,
    so parameters may differ by float roundoff only: 1e-12 is far above the
    ~1e-16 drift and far below any real change to a gradient.
    """

    TOL = 1e-12
    C, D = 5, 6

    def draw(self, rng, n):
        """(features [n, D], labels), each row's features then its label drawn in turn."""
        rows = [(rng.normal(0.0, 2.0, size=self.D), int(rng.integers(self.C))) for _ in range(n)]
        return np.array([x for x, _ in rows]), np.array([label for _, label in rows])

    @pytest.mark.parametrize("hidden", [(), (16,), (16, 12)], ids=["d0", "d1", "d2"])
    @pytest.mark.parametrize("reg_kind", REG_KINDS)
    @pytest.mark.parametrize("cls_kind", CLS_KINDS)
    def test_every_arm_and_depth(self, cls_kind, reg_kind, hidden):
        rng = np.random.default_rng(31)
        cfg = LossConfig(num_classes=self.C, beta=0.5, temperature=4.0, alpha=1.0)
        objective = make_objective(cls_kind, reg_kind, cfg)
        batched = reference = init_network(NetworkSpec((self.D, *hidden, self.C), seed=5))
        for _ in range(4):
            x, y = self.draw(rng, 37)
            batched = sgd_on_batch(batched, x, y, objective, 0.3)
            reference = per_sample_step(reference, x, y, objective, 0.3)
        assert max_param_diff(batched, init_network(
            NetworkSpec((self.D, *hidden, self.C), seed=5))) > 1e-3  # it trained
        assert max_param_diff(batched, reference) <= self.TOL

    def test_single_row_batch(self):
        rng = np.random.default_rng(32)
        objective = make_objective("rfl", "vkd", LossConfig(num_classes=self.C))
        batched = reference = init_network(NetworkSpec((self.D, 8, self.C), seed=6))
        for _ in range(3):
            x, y = self.draw(rng, 1)
            batched = sgd_on_batch(batched, x, y, objective, 0.5)
            reference = per_sample_step(reference, x, y, objective, 0.5)
        assert max_param_diff(batched, reference) <= self.TOL

    def test_review_pass_chunk(self):
        # rv_batch covers the whole buffer, so the pass is one chunk in the
        # order of the pass's own permutation draw
        rng = np.random.default_rng(33)
        memory = MemoryBuffer(capacity=12)
        x, y = self.draw(rng, 12)
        reservoir_update(memory, x, y, np.arange(12), rng)  # fill phase: no draws
        cfg = LossConfig(num_classes=self.C)
        state = init_network(NetworkSpec((self.D, 8, self.C), seed=7))
        got = review_pass(state, memory, 0.2, 12, cfg, np.random.default_rng(4))
        order = np.random.default_rng(4).permutation(12)
        expected = per_sample_step(
            state, x[order], y[order], make_objective("rfl", "none", cfg), 0.2,
        )
        assert max_param_diff(got, expected) <= self.TOL


def assert_states_equal(a, b):
    assert len(a.weights) == len(b.weights) and len(a.biases) == len(b.biases)
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert_array_equal(x, y)


class TestWorkspaceStepMatchesAllocating:
    """The in-place workspace step against the allocating step it replaced.

    Both take the same arithmetic in the same order, so parameters must be
    bit-identical after every step, also when one workspace serves batches
    that grow and shrink.
    """

    C, D = 5, 6
    SIZES = (3, 17, 5, 40, 1, 23, 40, 2)

    @pytest.mark.parametrize("hidden", [(), (16,), (16, 12)], ids=["d0", "d1", "d2"])
    @pytest.mark.parametrize("reg_kind", REG_KINDS)
    @pytest.mark.parametrize("cls_kind", CLS_KINDS)
    def test_every_arm_and_depth(self, cls_kind, reg_kind, hidden):
        rng = np.random.default_rng(41)
        cfg = LossConfig(num_classes=self.C, beta=0.5, temperature=4.0, alpha=1.0)
        objective = make_objective(cls_kind, reg_kind, cfg)
        spec = NetworkSpec((self.D, *hidden, self.C), seed=9)
        stepped, reference = init_network(spec), init_network(spec)
        workspace = Workspace()
        for n in self.SIZES:
            x = rng.normal(0.0, 2.0, size=(n, self.D))
            y = rng.integers(0, self.C, size=n)
            copied = sgd_on_batch(stepped, x, y, objective, 0.3)
            assert sgd_on_batch(stepped, x, y, objective, 0.3, workspace) is stepped
            reference = allocating_step(reference, x, y, objective, 0.3)
            assert_states_equal(stepped, reference)
            assert_states_equal(copied, reference)
        assert workspace.rows == max(self.SIZES)
        assert max_param_diff(stepped, init_network(spec)) > 1e-3  # it trained


class TestLoopsLeaveCallerStateUnchanged:
    """Each loop steps its own copy; the state passed in stays bit-identical."""

    def setup_method(self):
        self.train, self.streams, self.tests = small_benchmark(seed=3)
        self.state = init_network(NetworkSpec((8, 12, 4), seed=2))
        self.before = self.state.copy()
        self.config = TrainConfig(loss=LossConfig(num_classes=4), augment_kind="vector")

    def test_run_stream(self):
        record = run_stream(
            self.state, MemoryBuffer(capacity=30), self.train, self.streams,
            self.tests, self.config, AFS,
        )
        assert record.review_steps > 0
        assert max_param_diff(record.final_state, self.before) > 1e-3
        assert_states_equal(self.state, self.before)

    def test_review_pass(self):
        memory = MemoryBuffer(capacity=25)
        rows = np.arange(25)
        reservoir_update(memory, self.train.features[rows], self.train.labels[rows], rows,
                         np.random.default_rng(0))
        got = review_pass(self.state, memory, 0.1, 10, LossConfig(num_classes=4),
                          np.random.default_rng(1))
        assert max_param_diff(got, self.before) > 1e-4
        assert_states_equal(self.state, self.before)

    def test_train_reference(self):
        train_reference(self.state, self.train, self.streams, self.tests, self.config)
        assert_states_equal(self.state, self.before)

    def test_train_offline(self):
        got = train_offline(self.state, self.train, self.config, epochs=1, seed=0)
        assert max_param_diff(got, self.before) > 1e-3
        assert_states_equal(self.state, self.before)


def test_run_stream_diagnostics_read_seen_rows_by_index(monkeypatch):
    # 4,000 seen rows of 784 floats: a gather of them before the task-2
    # diagnostics would be 25 MB; chunked scoring by index needs one chunk.
    # One CPU keeps the scoring in this process, where tracemalloc sees it.
    fork_helpers(monkeypatch, False)
    train, streams, tests = small_benchmark(dim=784, per_class=1000)
    state = init_network(NetworkSpec((784, 8, 4), seed=0))
    config = TrainConfig(retrieve_batch=10, loss=LossConfig(num_classes=4))
    record, peak = traced_peak(
        run_stream, state, MemoryBuffer(capacity=20), train, streams, tests, config, ER
    )
    assert sum(record.diagnostics[2].interval_counts.values()) == 2000
    assert peak < train.features.nbytes / 2


def assert_memories_equal(a, b):
    assert (a.tot, len(a)) == (b.tot, len(b))
    assert_array_equal(a.labels, b.labels)
    assert_array_equal(a.uids, b.uids)
    if len(a):
        assert_array_equal(a.features[: len(a)], b.features[: len(b)])


class TestScheduleMatchesInterleavedLoop:
    """`run_stream` against the one interleaved loop it was split from.

    The schedule makes the same draws in the same order and the trainer
    reads the same rows, so the record, the final state and the caller's
    buffer must be identical, whether the helpers are forked or not.
    """

    RECIPES = (AFS, ER, Recipe("fl", "lsr", review=True), Recipe("ce", "vkd", review=False))

    @pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(("none", "vector", "image")),
        recipe=st.sampled_from(RECIPES),
        rv_every=st.sampled_from((None, 2)),
        rv_lr=st.sampled_from((0.0, 0.05)),
        retrieve_batch=st.sampled_from((0, 3, 7)),
        capacity=st.integers(1, 80),
        stream_batch=st.integers(2, 5),
        num_tasks=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_record_state_and_memory(
        self, forked, kind, recipe, rv_every, rv_lr, retrieve_batch, capacity,
        stream_batch, num_tasks, seed,
    ):
        # 2 classes per task x 6 rows: 24 or 36 stream rows, below and
        # above which the capacity range reaches
        train, test = gen_synthetic(2 * num_tasks, 9, 6, 0.5, seed, test_per_class=3)
        split = split_tasks(train, num_tasks)
        streams = task_streams(train, split, stream_batch, seed + 1)
        tests = task_test_sets(test, split)
        config = TrainConfig(
            stream_batch=stream_batch, retrieve_batch=retrieve_batch, lr=0.2,
            rv_lr=rv_lr, rv_batch=4, rv_every=rv_every,
            loss=LossConfig(num_classes=2 * num_tasks),
            augment_kind=kind, jitter_sigma=0.3, seed=seed,
        )
        state = init_network(NetworkSpec((9, 7, 2 * num_tasks), seed=seed))
        ref_memory, memory = MemoryBuffer(capacity), MemoryBuffer(capacity)
        expected = interleaved_run_stream(
            state, ref_memory, train, streams, tests, config, recipe
        )
        with pytest.MonkeyPatch.context() as patch:
            fork_helpers(patch, forked)
            got = run_stream(state, memory, train, streams, tests, config, recipe)
        assert got.accuracy_matrix.rows == expected.accuracy_matrix.rows
        assert got.diagnostics == expected.diagnostics
        assert (got.steps, got.review_steps) == (expected.steps, expected.review_steps)
        assert_states_equal(got.final_state, expected.final_state)
        assert_memories_equal(memory, ref_memory)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestPrefilledMemory:
    """Replay reads memory rows from the dataset by uid, so rows held on entry
    must be the dataset rows their uids name."""

    def setup_method(self):
        self.train, self.streams, self.tests = small_benchmark(seed=9)
        self.state = init_network(NetworkSpec((8, 6, 4), seed=4))
        self.config = TrainConfig(
            loss=LossConfig(num_classes=4), augment_kind="vector", seed=5, retrieve_batch=6,
        )

    def prefilled(self, features=None):
        rows = np.arange(0, 60, 3)
        memory = MemoryBuffer(capacity=15)
        x = self.train.features[rows] if features is None else features
        reservoir_update(memory, x, self.train.labels[rows], rows, np.random.default_rng(2))
        return memory

    @pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
    def test_dataset_rows_train_like_the_interleaved_loop(self, forked, monkeypatch):
        ref_memory, memory = self.prefilled(), self.prefilled()
        expected = interleaved_run_stream(
            self.state, ref_memory, self.train, self.streams, self.tests, self.config, AFS
        )
        fork_helpers(monkeypatch, forked)
        got = run_stream(
            self.state, memory, self.train, self.streams, self.tests, self.config, AFS
        )
        assert got.accuracy_matrix.rows == expected.accuracy_matrix.rows
        assert_states_equal(got.final_state, expected.final_state)
        assert_memories_equal(memory, ref_memory)

    def test_rows_that_are_not_the_dataset_rows_are_rejected(self):
        memory = self.prefilled(features=np.zeros((20, 8)))
        with pytest.raises(InvalidInputError, match="dataset rows named by their uids"):
            run_stream(
                self.state, memory, self.train, self.streams, self.tests, self.config, AFS
            )
