import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from afslab.errors import InvalidConfigError, InvalidInputError
from afslab.losses import (
    CLS_KINDS,
    P_FLOOR,
    REG_KINDS,
    LossConfig,
    distill,
    teacher_table,
    weighted_ce,
)
from afslab import trainer
from afslab.memory import MemoryBuffer, reservoir_update
from afslab.model import NetworkSpec, NetworkState, Workspace, init_network
from afslab.runner import ExperimentConfig, jobs_for, run_jobs
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
    replay_schedule,
    run_stream,
    sgd_on_batch,
)
from helpers import (
    allocating_step,
    interleaved_run_stream,
    max_param_diff,
    offline_pass,
    per_sample_step,
    reference_forward,
    reference_pass,
    review_pass,
    traced_peak,
    train_offline,
    train_reference,
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
        with pytest.raises(InvalidConfigError, match="jitter_sigma must be non-negative"):
            TrainConfig(jitter_sigma=-1.0)
        TrainConfig(jitter_sigma=0.0)
        with pytest.raises(InvalidConfigError, match="unknown augmentation kind 'blur'"):
            TrainConfig(augment="blur")

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
            make_objective("hinge", "none", LossConfig(), 10)
        with pytest.raises(InvalidConfigError):
            make_objective("ce", "dropout", LossConfig(), 10)

    def test_combined_is_weighted_sum(self):
        cfg = LossConfig(beta=0.3, epsilon=0.05)
        obj = make_objective("ce", "lsr", cfg, 3)
        z = np.array([[0.2, -1.0, 0.7]])
        got = obj.rows(z, [2])
        base = weighted_ce(z, [2], "ce")
        reg = distill(z, [2], teacher_table(3, 0.05, 1.0), 1.0)
        assert_allclose(got.value, base.value + 0.3 * reg.value, rtol=1e-12)
        assert_allclose(
            got.grad_logits, base.grad_logits + 0.3 * reg.grad_logits, rtol=1e-12
        )

    def test_plain_kind_passes_through(self):
        obj = make_objective("rfl", "none", LossConfig(), 3)
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

        config = TrainConfig(
            memory=10, stream_batch=2, retrieve_batch=100, lr=self.lr, rv_lr=0.0,
            beta=0.0, augment="none",
        )
        start = init_network(NetworkSpec((2, 2), seed=5))
        record = run_stream(start, dataset, streams, [(X_test, y_test)], config, AFS, 9)

        # batch 1 trains alone; batch 2 trains with the full buffer replayed
        expected = self.hand_step(start, features[:2], labels[:2], config)
        order = [2, 3, 0, 1]
        expected = self.hand_step(expected, features[order], labels[order], config)

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
        # capacity exceeded the stream, so the schedule's buffer retained everything
        memory = MemoryBuffer(config.memory)
        list(replay_schedule(memory, dataset, streams, config, AFS, 9))
        assert len(memory) == 4 and memory.tot == 4


class TestReviewPass:
    def build_memory(self, n, dim=3, num_classes=2, seed=0):
        """A dataset of n rows and a buffer holding all of them."""
        rng = np.random.default_rng(seed)
        labels = np.arange(n) % num_classes
        dataset = Dataset(rng.normal(size=(n, dim)), labels, num_classes)
        buf = MemoryBuffer(capacity=n)
        # n rows into n slots: the fill phase, which draws nothing
        reservoir_update(buf, np.arange(n), rng)
        return dataset, buf

    def test_zero_rate_and_empty_buffer_are_identity(self):
        state = init_network(NetworkSpec((3, 2), seed=1))
        rng = np.random.default_rng(0)
        dataset, buf = self.build_memory(5)
        assert review_pass(state, buf, dataset, TrainConfig(rv_lr=0.0), rng) is state
        empty = MemoryBuffer(capacity=4)
        assert review_pass(state, empty, dataset, TrainConfig(rv_lr=0.01), rng) is state

    def test_changes_model_but_not_memory(self):
        state = init_network(NetworkSpec((3, 2), seed=1))
        dataset, buf = self.build_memory(8)
        before = buf.uids.copy()
        out = review_pass(
            state, buf, dataset, TrainConfig(rv_lr=0.05, rv_batch=4), np.random.default_rng(2)
        )
        assert not np.array_equal(out.weights[0], state.weights[0])
        assert_array_equal(buf.uids, before)
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
            memory=20, stream_batch=5, retrieve_batch=10, lr=0.1, rv_lr=0.01, rv_batch=10,
            augment="none",
        )
        record = run_stream(
            init_network(NetworkSpec((3, 2), seed=0)), dataset, streams, [(X, y)], config, AFS, 0,
        )
        assert record.steps == 4
        assert record.review_steps == 2


class TestEquivalences:
    def test_er_equals_stripped_ablation_bitwise(self):
        train, streams, tests = small_benchmark(seed=2)
        config = TrainConfig(memory=30, augment="none", retrieve_batch=20)
        spec = NetworkSpec((8, 6, 4), seed=3)
        a = run_stream(init_network(spec), train, streams, tests, config, ER, 7)
        b = run_stream(
            init_network(spec), train, streams, tests,
            config, Recipe("ce", "none", review=False), 7,
        )
        assert a.accuracy_matrix.rows == b.accuracy_matrix.rows
        for wa, wb in zip(a.final_state.weights, b.final_state.weights):
            assert_array_equal(wa, wb)

    def test_determinism_per_seed(self):
        train, streams, tests = small_benchmark(seed=4)
        config = TrainConfig(memory=30, augment="vector", jitter_sigma=0.05, retrieve_batch=20)
        spec = NetworkSpec((8, 6, 4), seed=1)
        a = run_stream(init_network(spec), train, streams, tests, config, AFS, 11)
        b = run_stream(init_network(spec), train, streams, tests, config, AFS, 11)
        assert a.accuracy_matrix.rows == b.accuracy_matrix.rows
        for wa, wb in zip(a.final_state.weights, b.final_state.weights):
            assert_array_equal(wa, wb)
        assert a.steps == b.steps and a.review_steps == b.review_steps


class TestRunShape:
    def test_steps_count_and_matrix_shape(self):
        train, streams, tests = small_benchmark(seed=5)
        config = TrainConfig(memory=25, augment="none")
        record = run_stream(
            init_network(NetworkSpec((8, 6, 4), seed=0)), train, streams, tests, config, AFS, 0,
        )
        assert record.steps == sum(len(st) for st in streams)
        assert record.accuracy_matrix.num_tasks == len(streams)

    @pytest.mark.parametrize("method", ["afs", "reference", "offline"])
    def test_every_pass_is_timed(self, method):
        config = ExperimentConfig(
            method=method, memory=20, num_tasks=2, hidden=(8,), synth_classes=4,
            synth_dim=6, synth_per_class=20, synth_test_per_class=10, offline_epochs=1,
        )
        results = run_jobs(jobs_for(config))
        assert len(results) == (2 if method == "afs" else 1)
        assert all(result["wall_time"] > 0 for result in results.values())

    def test_every_pass_returns_the_same_keys(self):
        config = ExperimentConfig(
            memory=20, num_tasks=2, hidden=(8,), synth_classes=4, synth_dim=6,
            synth_per_class=20, synth_test_per_class=10, offline_epochs=1,
        )
        offline = replace(config, method="offline")
        results = run_jobs(jobs_for(config) + jobs_for(offline))
        assert [job.part for job in results] == ["method", "reference", "method"]
        keys = {"matrix", "wall_time", "steps", "review_steps", "diagnostics"}
        assert all(set(result) == keys for result in results.values())

    def test_review_steps_through_the_runs_one_workspace(self, monkeypatch):
        built = []

        class CountingWorkspace(Workspace):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(trainer, "Workspace", CountingWorkspace)
        train, streams, tests = small_benchmark(seed=5)
        config = TrainConfig(memory=25, augment="none")
        record = run_stream(
            init_network(NetworkSpec((8, 6, 4), seed=0)), train, streams, tests, config, AFS, 0,
        )
        assert record.review_steps == 2 * math.ceil(25 / config.rv_batch)
        assert len(built) == 1

    def test_empty_leading_tasks_take_no_step(self):
        # the offline pass's shape: every row streamed in the last of three tasks
        train, streams, tests = small_benchmark(seed=5, num_classes=6, num_tasks=3)
        state = init_network(NetworkSpec((8, 6, 6), seed=0))
        config = TrainConfig(memory=25, augment="none")
        last = [batch for stream in streams for batch in stream]
        record = run_stream(state, train, [[], [], last], tests, config, ER, 0)
        assert (record.steps, record.review_steps) == (len(last), 0)
        rows = record.accuracy_matrix.rows
        assert rows[:2] == [[evaluate(state, ts) for ts in tests[:k]] for k in (1, 2)]
        assert rows[-1] == [evaluate(record.final_state, ts) for ts in tests]
        assert max_param_diff(record.final_state, state) > 1e-3

    def test_diagnostics_start_at_second_task(self):
        train, streams, tests = small_benchmark(seed=6, num_tasks=2, per_class=30)
        config = TrainConfig(memory=25, augment="none")
        record = run_stream(
            init_network(NetworkSpec((8, 6, 4), seed=0)), train, streams, tests, config, AFS, 0,
        )
        assert set(record.diagnostics) == {2}
        rec = record.diagnostics[2]
        task2_samples = sum(len(b) for b in streams[1])
        assert rec.hsi + rec.asi + rec.esi == task2_samples

    def test_needs_one_test_set_per_task(self):
        train, streams, tests = small_benchmark(seed=5)
        config = TrainConfig(memory=25, augment="none")
        with pytest.raises(InvalidInputError):
            run_stream(
                init_network(NetworkSpec((8, 6, 4), seed=0)),
                train, streams, tests[:1], config, AFS, 0,
            )


class TestReference:
    def test_lengths_and_range(self):
        train, streams, tests = small_benchmark(seed=12)
        config = TrainConfig(augment="none")
        ref = reference_pass(
            init_network(NetworkSpec((8, 6, 4), seed=2)), train, streams, tests, config
        )
        assert len(ref) == 2
        assert all(0.0 <= a <= 1.0 for a in ref)

    def test_deterministic(self):
        train, streams, tests = small_benchmark(seed=12)
        config = TrainConfig(augment="none")
        spec = NetworkSpec((8, 6, 4), seed=2)
        a = reference_pass(init_network(spec), train, streams, tests, config)
        b = reference_pass(init_network(spec), train, streams, tests, config)
        assert a == b


class TestOfflineBound:
    def test_single_pass_er_trails_offline_training(self):
        train, streams, tests = small_benchmark(
            seed=13, num_classes=4, dim=8, per_class=40, spread=0.6
        )
        config = TrainConfig(memory=20, augment="none", retrieve_batch=20, offline_epochs=5)
        spec = NetworkSpec((8, 16, 4), seed=0)
        er = run_stream(init_network(spec), train, streams, tests, config, ER, 1)
        offline = offline_pass(init_network(spec), train, tests, config, seed=2)
        offline_acc = float(np.mean([evaluate(offline, ts) for ts in tests]))
        er_acc = float(np.mean(er.accuracy_matrix.rows[-1]))
        assert er_acc < offline_acc

    def test_offline_rejects_bad_epochs(self):
        # the epoch count is a config field, so it is checked before any loop runs
        with pytest.raises(InvalidConfigError, match="offline_epochs must be positive, got 0"):
            TrainConfig(offline_epochs=0)


class TestBaselinePassesMatchTheLoopsTheyReplaced:
    """The reference and offline passes, run by `run_stream`, against the
    loops in `helpers` that ran them before, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        per_class=st.integers(3, 12),
        stream_batch=st.integers(2, 7),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(per_class=5, stream_batch=3, epochs=2, seed=0)  # 20 rows: each epoch ends short
    def test_passes_match(self, per_class, stream_batch, epochs, seed):
        train, test = gen_synthetic(4, 5, per_class, 0.8, seed, test_per_class=5)
        split = split_tasks(train, 2)
        streams = task_streams(train, split, stream_batch, seed + 1)
        tests = task_test_sets(test, split)
        config = TrainConfig(stream_batch=stream_batch, offline_epochs=epochs, lr=0.3)
        state = init_network(NetworkSpec((5, 6, 4), seed=seed))
        assert reference_pass(state, train, streams, tests, config) == train_reference(
            state, train, streams, tests, config
        )
        got = offline_pass(state, train, tests, config, seed)
        want = train_offline(state, train, config, seed)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert_array_equal(a, b)

    @pytest.mark.parametrize("method", ["reference", "offline"])
    def test_jobs_keep_the_seeds_of_the_replaced_loops(self, method):
        # `_run_job` seeds the model from keys[0], the task streams from
        # keys[1] and the offline shuffles from keys[3]
        config = ExperimentConfig(
            method=method, seed=3, num_tasks=2, hidden=(8,), synth_classes=4, synth_dim=6,
            synth_per_class=23, synth_test_per_class=100, offline_epochs=2,
        )
        (result,) = run_jobs(jobs_for(config)).values()
        train, test = gen_synthetic(4, 6, 23, config.synth_spread, 3, test_per_class=100)
        split = split_tasks(train, 2)
        tests = task_test_sets(test, split)
        keys = np.random.SeedSequence(3).spawn(4)
        state = init_network(NetworkSpec((6, 8, 4), seed=int(keys[0].generate_state(1)[0])))
        if method == "reference":
            streams = task_streams(train, split, config.stream_batch, keys[1])
            diagonal = [row[-1] for row in result["matrix"]]
            assert diagonal == train_reference(state, train, streams, tests, config)
        else:
            trained = train_offline(state, train, config, keys[3])
            assert result["matrix"][-1] == [evaluate(trained, ts) for ts in tests]


def test_sgd_on_batch_rejects_empty():
    state = init_network(NetworkSpec((3, 2), seed=0))
    with pytest.raises(InvalidInputError):
        sgd_on_batch(
            state, np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
            make_objective("ce", "none", LossConfig(), 2), 0.1, Workspace(),
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
        cfg = LossConfig(beta=0.5, temperature=4.0, alpha=1.0)
        objective = make_objective(cls_kind, reg_kind, cfg, self.C)
        reference = init_network(NetworkSpec((self.D, *hidden, self.C), seed=5))
        batched, workspace = reference.copy(), Workspace()
        for _ in range(4):
            x, y = self.draw(rng, 37)
            sgd_on_batch(batched, x, y, objective, 0.3, workspace)
            reference = per_sample_step(reference, x, y, objective, 0.3)
        assert max_param_diff(batched, init_network(
            NetworkSpec((self.D, *hidden, self.C), seed=5))) > 1e-3  # it trained
        assert max_param_diff(batched, reference) <= self.TOL

    def test_single_row_batch(self):
        rng = np.random.default_rng(32)
        objective = make_objective("rfl", "vkd", LossConfig(), self.C)
        reference = init_network(NetworkSpec((self.D, 8, self.C), seed=6))
        batched, workspace = reference.copy(), Workspace()
        for _ in range(3):
            x, y = self.draw(rng, 1)
            sgd_on_batch(batched, x, y, objective, 0.5, workspace)
            reference = per_sample_step(reference, x, y, objective, 0.5)
        assert max_param_diff(batched, reference) <= self.TOL

    def test_review_pass_chunk(self):
        # rv_batch covers the whole buffer, so the pass is one chunk in the
        # order of the pass's own permutation draw
        rng = np.random.default_rng(33)
        memory = MemoryBuffer(capacity=12)
        x, y = self.draw(rng, 12)
        reservoir_update(memory, np.arange(12), rng)  # fill phase: no draws
        cfg = TrainConfig(rv_lr=0.2, rv_batch=12)
        state = init_network(NetworkSpec((self.D, 8, self.C), seed=7))
        dataset = Dataset(x, y, self.C)
        got = review_pass(state, memory, dataset, cfg, np.random.default_rng(4))
        order = np.random.default_rng(4).permutation(12)
        expected = per_sample_step(
            state, x[order], y[order], make_objective("rfl", "none", cfg, self.C), 0.2,
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
        cfg = LossConfig(beta=0.5, temperature=4.0, alpha=1.0)
        objective = make_objective(cls_kind, reg_kind, cfg, self.C)
        spec = NetworkSpec((self.D, *hidden, self.C), seed=9)
        stepped, reference = init_network(spec), init_network(spec)
        workspace = Workspace()
        for n in self.SIZES:
            x = rng.normal(0.0, 2.0, size=(n, self.D))
            y = rng.integers(0, self.C, size=n)
            copied = stepped.copy()  # stepped through a fresh workspace of its own
            sgd_on_batch(copied, x, y, objective, 0.3, Workspace())
            sgd_on_batch(stepped, x, y, objective, 0.3, workspace)
            reference = allocating_step(reference, x, y, objective, 0.3)
            assert_states_equal(stepped, reference)
            assert_states_equal(copied, reference)
        assert workspace.rows == max(self.SIZES)
        assert max_param_diff(stepped, init_network(spec)) > 1e-3  # it trained


class TestStepBitIdentity:
    """`sgd_on_batch` against the reference formulation, byte for byte.

    The reference (`helpers.allocating_step`) keeps a pre-activation array
    apart from each ReLU and calls `weighted_ce` and `distill` apart,
    summing beta times the second into a new array; the step writes each
    ReLU over its pre-activation and folds both terms into one objective
    pass. Some rows are scaled up and labelled with their least likely
    class, so their p_t lies below P_FLOOR.
    """

    C, D = 5, 6

    @pytest.mark.parametrize("reg_kind", REG_KINDS)
    @pytest.mark.parametrize("cls_kind", CLS_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        hidden=st.sampled_from([(), (13,), (13, 9)]),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        far_rows=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_steps_are_byte_identical(self, cls_kind, reg_kind, hidden, sizes, far_rows, seed):
        rng = np.random.default_rng(seed)
        cfg = LossConfig(beta=0.5, temperature=4.0, alpha=1.0)
        objective = make_objective(cls_kind, reg_kind, cfg, self.C)
        stepped = init_network(NetworkSpec((self.D, *hidden, self.C), seed=seed % 89))
        reference, workspace = stepped.copy(), Workspace()
        for n in sizes:
            x = rng.normal(0.0, 1.0, size=(n, self.D))
            y = rng.integers(0, self.C, size=n)
            far = slice(0, min(far_rows, n))
            x[far] *= 100.0
            y[far] = np.argmin(reference_forward(reference, x[far])[1][-1], axis=1)
            sgd_on_batch(stepped, x, y, objective, 0.05, workspace)
            reference = allocating_step(reference, x, y, objective, 0.05)
            for got, expected in zip(stepped.weights + stepped.biases,
                                     reference.weights + reference.biases):
                assert got.tobytes() == expected.tobytes()

    def test_rows_below_the_floor_are_covered(self):
        state = init_network(NetworkSpec((self.D, 13, self.C), seed=0))
        x = 100.0 * np.random.default_rng(0).normal(size=(40, self.D))
        logits = reference_forward(state, x)[1][-1]
        p_t = weighted_ce(logits, np.argmin(logits, axis=1)).p_target
        assert np.count_nonzero(p_t < P_FLOOR) > len(p_t) / 2


class TestLoopsLeaveCallerStateUnchanged:
    """Each loop steps its own copy; the state passed in stays bit-identical."""

    def setup_method(self):
        self.train, self.streams, self.tests = small_benchmark(seed=3)
        self.state = init_network(NetworkSpec((8, 12, 4), seed=2))
        self.before = self.state.copy()
        self.config = TrainConfig(
            memory=30, augment="vector", jitter_sigma=0.1, offline_epochs=1
        )

    def test_run_stream(self):
        record = run_stream(
            self.state, self.train, self.streams, self.tests, self.config, AFS, 0
        )
        assert record.review_steps > 0
        assert max_param_diff(record.final_state, self.before) > 1e-3
        assert_states_equal(self.state, self.before)

    def test_review_pass(self):
        memory = MemoryBuffer(capacity=25)
        rows = np.arange(25)
        reservoir_update(memory, rows, np.random.default_rng(0))
        got = review_pass(self.state, memory, self.train, TrainConfig(rv_lr=0.1, rv_batch=10),
                          np.random.default_rng(1))
        assert max_param_diff(got, self.before) > 1e-4
        assert_states_equal(self.state, self.before)

    def test_train_reference(self):
        reference_pass(self.state, self.train, self.streams, self.tests, self.config)
        assert_states_equal(self.state, self.before)

    def test_train_offline(self):
        got = offline_pass(self.state, self.train, self.tests, self.config, seed=0)
        assert max_param_diff(got, self.before) > 1e-3
        assert_states_equal(self.state, self.before)


def test_run_stream_diagnostics_read_seen_rows_by_index():
    # 4,000 seen rows of 784 floats: a gather of them before the task-2
    # diagnostics would be 25 MB; chunked scoring by index needs one chunk.
    # Helpers that are not forked score in this process, where tracemalloc
    # sees it.
    train, streams, tests = small_benchmark(dim=784, per_class=1000)
    state = init_network(NetworkSpec((784, 8, 4), seed=0))
    config = TrainConfig(memory=20, retrieve_batch=10, augment="none")
    record, peak = traced_peak(run_stream, state, train, streams, tests, config, ER, 0)
    rec = record.diagnostics[2]
    assert rec.hsi + rec.asi + rec.esi == 2000
    assert peak < train.features.nbytes / 2


def assert_memories_equal(a, b):
    assert (a.tot, len(a)) == (b.tot, len(b))
    assert_array_equal(a.uids, b.uids)


class TestReplaySchedule:
    @pytest.mark.parametrize("recipe", [AFS, ER], ids=["afs", "er"])
    def test_one_review_order_after_each_task(self, recipe):
        train, streams, _ = small_benchmark(seed=3, num_tasks=2)
        config = TrainConfig(augment="none")
        memory = MemoryBuffer(capacity=25)
        items = list(replay_schedule(memory, train, streams, config, recipe, 0))
        reviews = []
        for stream in streams:
            steps, items = items[: len(stream)], items[len(stream):]
            assert all(isinstance(step, tuple) and len(step) == 2 for step in steps)
            reviews.append(items.pop(0))
        assert items == []
        for order in reviews:
            assert isinstance(order, np.ndarray) and order.dtype == np.int64
        if recipe.review:  # a permutation of the buffer's uids at each task's end
            assert [len(order) for order in reviews] == [25, 25]
            assert sorted(reviews[-1].tolist()) == sorted(memory.uids.tolist())
        else:
            assert [len(order) for order in reviews] == [0, 0]


class TestScheduleMatchesInterleavedLoop:
    """`run_stream` against the one interleaved loop it was split from.

    The schedule makes the same draws in the same order and the trainer
    reads the same rows, so the record and the final state must be
    identical, whether the helpers are forked or not, and the schedule run
    to its end must leave the buffer the interleaved loop leaves.
    """

    RECIPES = (AFS, ER, Recipe("fl", "lsr", review=True), Recipe("ce", "vkd", review=False))

    @pytest.mark.parametrize(
        "helper_cpus", [None, frozenset(os.sched_getaffinity(0))], ids=["in_process", "forked"]
    )
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(("none", "vector", "image")),
        recipe=st.sampled_from(RECIPES),
        rv_lr=st.sampled_from((0.0, 0.05)),
        retrieve_batch=st.sampled_from((0, 3, 7)),
        capacity=st.integers(1, 80),
        stream_batch=st.integers(2, 5),
        num_tasks=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_record_state_and_memory(
        self, helper_cpus, kind, recipe, rv_lr, retrieve_batch, capacity,
        stream_batch, num_tasks, seed,
    ):
        # 2 classes per task x 6 rows: 24 or 36 stream rows, below and
        # above which the capacity range reaches
        train, test = gen_synthetic(2 * num_tasks, 9, 6, 0.5, seed, test_per_class=3)
        split = split_tasks(train, num_tasks)
        streams = task_streams(train, split, stream_batch, seed + 1)
        tests = task_test_sets(test, split)
        config = TrainConfig(
            memory=capacity, stream_batch=stream_batch, retrieve_batch=retrieve_batch,
            lr=0.2, rv_lr=rv_lr, rv_batch=4, augment=kind, jitter_sigma=0.3,
        )
        state = init_network(NetworkSpec((9, 7, 2 * num_tasks), seed=seed))
        ref_memory = MemoryBuffer(capacity)
        expected = interleaved_run_stream(
            state, ref_memory, train, streams, tests, config, recipe, seed
        )
        got = run_stream(state, train, streams, tests, config, recipe, seed, helper_cpus)
        assert got.accuracy_matrix.rows == expected.accuracy_matrix.rows
        assert got.diagnostics == expected.diagnostics
        assert (got.steps, got.review_steps) == (expected.steps, expected.review_steps)
        assert_states_equal(got.final_state, expected.final_state)
        memory = MemoryBuffer(capacity)
        list(replay_schedule(memory, train, streams, config, recipe, seed))  # to its end
        assert_memories_equal(memory, ref_memory)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

