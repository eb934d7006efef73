import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from afslab.errors import InvalidConfigError, InvalidInputError
from afslab.losses import LossConfig, distill, make_objective, teacher_table, weighted_ce
from afslab.model import (
    SCORE_CHUNK_ROWS,
    Gradients,
    NetworkSpec,
    NetworkState,
    Workspace,
    backward,
    forward,
    init_network,
    score_rows,
    sgd_step,
)
from helpers import central_difference, reference_forward, traced_peak


def zero_gradients(state):
    return Gradients(
        weights=[np.zeros_like(w) for w in state.weights],
        biases=[np.zeros_like(b) for b in state.biases],
    )


def tiny_state():
    """Hand-set 2-3-2 network for exact forward checks."""
    return NetworkState(
        weights=[
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]),
            np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        ],
        biases=[np.array([0.0, -0.5, 0.0]), np.array([0.1, 0.0])],
    )


class TestInit:
    def test_deterministic(self):
        spec = NetworkSpec((4, 8, 3), seed=42)
        a, b = init_network(spec), init_network(spec)
        for wa, wb in zip(a.weights, b.weights):
            assert_array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a = init_network(NetworkSpec((4, 8, 3), seed=1))
        b = init_network(NetworkSpec((4, 8, 3), seed=2))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_fan_in_bounds_and_zero_biases(self):
        state = init_network(NetworkSpec((9, 16, 4), seed=0))
        for w in state.weights:
            fan_in = w.shape[1]
            assert np.abs(w).max() <= np.sqrt(3.0 / fan_in)
            assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in) + 1e-12
        for b in state.biases:
            assert_array_equal(b, np.zeros_like(b))

    def test_shapes(self):
        state = init_network(NetworkSpec((5, 7, 3), seed=0))
        assert state.weights[0].shape == (7, 5)
        assert state.weights[1].shape == (3, 7)
        assert state.layer_widths == (5, 7, 3)

    def test_rejects_bad_spec(self):
        with pytest.raises(InvalidConfigError):
            NetworkSpec((4,))
        with pytest.raises(InvalidConfigError):
            NetworkSpec((4, 0, 2))


class TestForward:
    def test_hand_computed(self):
        state = tiny_state()
        trace = forward(state, np.array([[2.0, 1.0]]))
        # pre-relu hidden: [2, 0.5, 1]; all positive so relu passes them
        assert_allclose(trace.act[0][0], [2.0, 0.5, 1.0])
        assert_allclose(trace.logits[0], [2.6, 2.0])

    def test_relu_masks_negatives(self):
        state = tiny_state()
        trace = forward(state, np.array([[-1.0, 0.2]]))
        # hidden pre: [-1, -0.3, -1.2] -> activations all zero
        assert_allclose(trace.act[0][0], [0.0, 0.0, 0.0])
        assert_allclose(trace.logits[0], [0.1, 0.0])

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidInputError):
            forward(tiny_state(), np.zeros((1, 3)))

    def test_rejects_a_vector(self):
        state = tiny_state()
        with pytest.raises(InvalidInputError, match=r"\[n, 2\]"):
            forward(state, np.zeros(2))
        with pytest.raises(InvalidInputError, match=r"\[n, 2\]"):
            forward(state, np.zeros(2), Workspace())

    def test_batch_matches_single(self):
        state = init_network(NetworkSpec((6, 9, 4), seed=3))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(11, 6))
        batched = forward(state, X)
        assert batched.logits.shape == (11, 4)
        for i in range(len(X)):
            single = forward(state, X[i : i + 1])
            assert_allclose(batched.logits[i], single.logits[0], atol=1e-12)
            assert_allclose(
                batched.act[0][i], single.act[0][0], atol=1e-12
            )


class TestScoreRows:
    """Chunked, by-index scoring against one forward over the gathered rows."""

    POOL = 4000  # rows of the feature matrix the subsets index into

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(0, 3 * SCORE_CHUNK_ROWS),
        hidden=st.sampled_from([(), (13,), (13, 9)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=0, hidden=(13,), seed=0)
    @example(count=1, hidden=(13,), seed=1)
    @example(count=SCORE_CHUNK_ROWS, hidden=(13,), seed=2)
    @example(count=SCORE_CHUNK_ROWS + 1, hidden=(13, 9), seed=3)
    @example(count=2 * SCORE_CHUNK_ROWS + 7, hidden=(), seed=4)
    @example(count=3 * SCORE_CHUNK_ROWS, hidden=(13,), seed=5)
    def test_matches_gathered_forward(self, count, hidden, seed):
        rng = np.random.default_rng(seed)
        state = init_network(NetworkSpec((7, *hidden, 5), seed=seed % 97))
        features = rng.normal(0.0, 2.0, size=(self.POOL, 7))
        rows = rng.integers(0, self.POOL, size=count)
        got = score_rows(state, features, rows)
        assert got.shape == (count, 5)
        expected = forward(state, features[rows]).logits
        assert_allclose(got, expected, rtol=0, atol=1e-12)
        every = score_rows(state, features[:count])
        assert_allclose(every, forward(state, features[:count]).logits, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(1, 2 * SCORE_CHUNK_ROWS + 7),
        hidden=st.sampled_from([(), (13,), (13, 9)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_logits_are_byte_equal_to_the_reference_forward(self, count, hidden, seed):
        # one ReLU buffer per layer against separate pre-activation and
        # activation arrays, chunk by chunk: BLAS may sum a larger batch in
        # another order, which the test above allows for
        rng = np.random.default_rng(seed)
        state = init_network(NetworkSpec((7, *hidden, 5), seed=seed % 97))
        features = rng.normal(0.0, 2.0, size=(self.POOL, 7))
        rows = rng.integers(0, self.POOL, size=count)
        got = score_rows(state, features, rows)
        for start in range(0, count, SCORE_CHUNK_ROWS):
            chunk = rows[start : start + SCORE_CHUNK_ROWS]
            expected = reference_forward(state, features[chunk])[1][-1]
            assert got[start : start + len(chunk)].tobytes() == expected.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(count=st.integers(623, 1646), seed=st.integers(0, 2**32 - 1))
    def test_chunked_logits_agree_with_one_forward_at_the_pinned_widths(self, count, seed):
        # at the default BLAS thread count one forward over every row may
        # sum in another order than the chunks: the docstring's tolerance
        rng = np.random.default_rng(seed)
        state = init_network(NetworkSpec((32, 512, 10), seed=seed % 97))
        features = rng.normal(0.0, 1.2, size=(self.POOL, 32))
        rows = rng.integers(0, self.POOL, size=count)
        expected = forward(state, features[rows]).logits
        got = score_rows(state, features, rows)
        assert np.abs(got - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())

    def test_rejects_bad_rows_and_features(self):
        state = tiny_state()
        features = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            score_rows(state, features, np.array([True, False, True, False]))
        with pytest.raises(InvalidInputError):
            score_rows(state, features, np.zeros((2, 2), dtype=int))
        with pytest.raises(InvalidInputError):
            score_rows(state, np.zeros(2))
        with pytest.raises(InvalidInputError):
            score_rows(state, np.zeros((4, 3)), np.array([0, 1]))
        for outside in ([0, 4], [-1, 2]):
            with pytest.raises(InvalidInputError):
                score_rows(state, features, np.array(outside))

    def test_allocates_a_chunk_not_a_gather(self):
        rng = np.random.default_rng(0)
        features = rng.random((10_000, 784))
        rows = rng.permutation(10_000)
        state = init_network(NetworkSpec((784, 64, 10), seed=0))
        logits, peak = traced_peak(score_rows, state, features, rows)
        assert logits.shape == (10_000, 10)
        # a gather of every row would be features.nbytes, 62.7 MB
        assert peak < 16e6 < features.nbytes / 3

    def test_forward_only_workspace_holds_no_backward_buffers(self):
        state = init_network(NetworkSpec((6, 9, 4), seed=3))
        workspace = Workspace()
        trace = forward(state, np.ones((12, 6)), workspace)
        assert trace is workspace
        assert workspace.rows == 12 and workspace.delta == [] and workspace.mask == []
        backward(state, trace, np.ones((12, 4)))
        assert workspace.backward_rows == 12
        assert [d.shape for d in workspace.delta] == [(12, 9)]


class TestBackward:
    @pytest.mark.parametrize(
        "widths", [(4, 3), (4, 8, 3), (5, 7, 7, 4)]
    )
    def test_finite_difference_all_losses(self, widths):
        rng = np.random.default_rng(21)
        state = init_network(NetworkSpec(widths, seed=7))
        C = widths[-1]
        lsr, vkd = teacher_table(C, 0.01, 1.0), teacher_table(C, 0.01, 20.0)
        losses = {
            "ce": lambda z, t: weighted_ce(z, t, "ce"),
            "focal": lambda z, t: weighted_ce(z, t, "fl"),
            "rfl": lambda z, t: weighted_ce(z, t, "rfl"),
            "lsr": lambda z, t: distill(z, t, lsr, 1.0),
            "vkd": lambda z, t: distill(z, t, vkd, 20.0),
            "afs": make_objective("rfl", "vkd", LossConfig(), C).rows,
        }
        x = rng.normal(size=widths[0])[None]
        target = [int(rng.integers(0, widths[-1]))]
        for name, loss in losses.items():
            trace = forward(state, x)
            grads = backward(state, trace, loss(trace.logits, target).grad_logits)
            for layer in range(len(state.weights)):
                for arrays, got in (
                    (state.weights, grads.weights),
                    (state.biases, grads.biases),
                ):
                    flat = arrays[layer].reshape(-1)
                    numeric = np.zeros_like(flat)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + 1e-6
                        up = loss(forward(state, x).logits, target).value[0]
                        flat[i] = orig - 1e-6
                        down = loss(forward(state, x).logits, target).value[0]
                        flat[i] = orig
                        numeric[i] = (up - down) / 2e-6
                    # atol absorbs cancellation noise in the difference
                    # quotient when the loss value itself is large (vkd)
                    assert_allclose(
                        got[layer].reshape(-1), numeric,
                        rtol=1e-5, atol=1e-6,
                        err_msg=f"{name} layer {layer}",
                    )

    @pytest.mark.parametrize("widths", [(4, 3), (4, 8, 3), (5, 7, 7, 4)])
    def test_batch_gradients_are_row_sums(self, widths):
        rng = np.random.default_rng(22)
        state = init_network(NetworkSpec(widths, seed=8))
        X = rng.normal(size=(9, widths[0]))
        G = rng.normal(size=(9, widths[-1]))
        got = backward(state, forward(state, X), G)
        rows = [backward(state, forward(state, X[i : i + 1]), G[i : i + 1]) for i in range(9)]
        for layer in range(len(state.weights)):
            assert_allclose(
                got.weights[layer], sum(r.weights[layer] for r in rows), atol=1e-12
            )
            assert_allclose(
                got.biases[layer], sum(r.biases[layer] for r in rows), atol=1e-12
            )

    def test_rejects_mismatched_grad(self):
        state = tiny_state()
        trace = forward(state, np.array([[1.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            backward(state, trace, np.zeros((1, 3)))
        batch = forward(state, np.ones((4, 2)))
        with pytest.raises(InvalidInputError):
            backward(state, batch, np.zeros((3, 2)))

    def test_rejects_stale_trace(self):
        state = tiny_state()
        trace = forward(state, np.array([[1.0, 1.0]]))
        other = init_network(NetworkSpec((2, 5, 2), seed=0))
        with pytest.raises(InvalidInputError, match=r"stale trace: recorded for widths "
                           r"\(2, 3, 2\), network has \(2, 5, 2\)"):
            backward(other, trace, np.zeros((1, 2)))
        # rejected before any buffer is refitted to the other widths
        assert trace.layer_widths == (2, 3, 2) and trace.delta == []

    def test_returns_the_traces_own_gradients(self):
        state = init_network(NetworkSpec((3, 4, 2), seed=5))
        trace = forward(state, np.ones((2, 3)))
        grads = backward(state, trace, np.ones((2, 2)))
        assert grads is trace.grads
        assert backward(state, trace, np.zeros((2, 2))) is grads
        assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)


class TestSgdStep:
    def test_exact_update_in_place(self):
        state = tiny_state()
        grads = zero_gradients(state)
        grads.weights[0][0, 0] = 2.0
        grads.biases[1][1] = -1.0
        arrays = state.weights + state.biases
        assert sgd_step(state, grads, 0.1) is None
        assert_allclose(state.weights[0][0, 0], 1.0 - 0.2)
        assert_allclose(state.biases[1][1], 0.1)
        assert all(a is b for a, b in zip(state.weights + state.biases, arrays))

    def test_rejects_bad_lr(self):
        state = tiny_state()
        with pytest.raises(InvalidConfigError):
            sgd_step(state, zero_gradients(state), 0.0)

    def test_rejects_shape_mismatch(self):
        state = tiny_state()
        bad = zero_gradients(init_network(NetworkSpec((2, 4, 2), seed=0)))
        with pytest.raises(InvalidInputError):
            sgd_step(state, bad, 0.1)

    def rejected_untouched(self, grads):
        state = tiny_state()
        with pytest.raises(InvalidInputError):
            sgd_step(state, grads, 0.1)
        for got, want in zip(state.weights + state.biases,
                             tiny_state().weights + tiny_state().biases):
            assert_array_equal(got, want)

    def test_rejects_missing_layer(self):
        grads = zero_gradients(tiny_state())
        self.rejected_untouched(Gradients(weights=grads.weights[:1], biases=grads.biases[:1]))

    def test_rejects_weight_shape(self):
        grads = zero_gradients(tiny_state())
        grads.weights[1] = np.ones((2, 2))
        self.rejected_untouched(grads)

    def test_rejects_broadcastable_bias_shape(self):
        # a (1,) bias gradient would broadcast silently in an in-place update
        grads = zero_gradients(tiny_state())
        grads.biases[0] = np.ones(1)
        self.rejected_untouched(grads)


class TestPredict:
    """The predicted class is the argmax of `score_rows`' logits."""

    def test_argmax(self):
        state = tiny_state()
        assert np.argmax(score_rows(state, np.array([[2.0, 1.0]]))[0]) == 0

    def test_tie_goes_to_lowest_index(self):
        state = NetworkState(
            weights=[np.zeros((3, 2))], biases=[np.zeros(3)]
        )
        assert np.argmax(score_rows(state, np.array([[1.0, -1.0]]))[0]) == 0


def test_gradients_via_logit_vector_oracle():
    # independent check that backward composes the chain rule correctly:
    # feed an arbitrary fixed logit gradient and compare against finite
    # differences of the scalar g . logits(x)
    state = init_network(NetworkSpec((3, 5, 4), seed=99))
    x = np.array([[0.4, -1.2, 2.0]])
    g = np.array([[0.3, -0.7, 1.1, 0.2]])

    def scalar(weights_flat):
        probe = NetworkState(
            weights=[w.copy() for w in state.weights],
            biases=[b.copy() for b in state.biases],
        )
        probe.weights[0] = weights_flat.reshape(state.weights[0].shape)
        return float(np.sum(g * forward(probe, x).logits))

    trace = forward(state, x)
    grads = backward(state, trace, g)
    numeric = central_difference(scalar, state.weights[0].reshape(-1))
    assert_allclose(grads.weights[0].reshape(-1), numeric, atol=1e-6)
