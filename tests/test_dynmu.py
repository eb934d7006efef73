"""Dynamic mu, the revised focal bump's anchor: `losses.record_scores` and
`compute_mu`, checked against the per-score loop of `helpers.reference_bins`
and `helpers.reference_mu`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afslab.errors import InvalidConfigError, InvalidInputError
from afslab.losses import (
    BIN_WIDTH,
    NUM_BINS,
    ScoreHistogram,
    compute_mu,
    record_scores,
)
from helpers import reference_bins, reference_mu


def bin_of(score):
    """The one bin `record_scores` counts a single score in."""
    (k,) = np.flatnonzero(record_scores(ScoreHistogram(1), 0, [score]).bins[0])
    return int(k)


class TestBinIndex:
    def test_zero_lands_in_first_bin(self):
        assert bin_of(0.0) == 0

    def test_one_folds_into_last_bin(self):
        assert bin_of(1.0) == 24

    def test_edges_are_half_open(self):
        assert bin_of(0.04) == 1
        assert bin_of(0.04 - 1e-12) == 0
        assert bin_of(0.96) == 24

    def test_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(InvalidInputError):
                bin_of(bad)


class TestHistogram:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            ScoreHistogram(0)
        with pytest.raises(InvalidConfigError):
            ScoreHistogram(3, b=0.0)
        with pytest.raises(InvalidConfigError):
            ScoreHistogram(3, b=1.0)

    def test_counts_match_bins(self):
        hist = ScoreHistogram(2)
        record_scores(hist, 0, [0.1, 0.5, 0.99])
        record_scores(hist, 1, [0.0])
        assert hist.bins[0].sum() == 3
        assert hist.bins[1, 0] == 1

    def test_rejects_bad_class_and_score(self):
        hist = ScoreHistogram(2)
        with pytest.raises(InvalidInputError):
            record_scores(hist, 5, [0.5])
        with pytest.raises(InvalidInputError):
            record_scores(hist, 0, [1.5])

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_rejected_batch_leaves_bins_unchanged(self, bad):
        hist = record_scores(ScoreHistogram(2), 0, [0.2])
        before = hist.bins.copy()
        with pytest.raises(InvalidInputError, match=rf"got {bad} \(index 1\)"):
            record_scores(hist, 0, [0.5, bad, 0.7, 2.0])
        np.testing.assert_array_equal(hist.bins, before)


# scores on and just below every bin edge k * 0.04, plus anywhere in [0, 1]
EDGES = sorted(
    {min(k * BIN_WIDTH, 1.0) for k in range(NUM_BINS + 1)}
    | {float(np.nextafter(k * BIN_WIDTH, 0.0)) for k in range(1, NUM_BINS + 1)}
)
scores = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGES)), max_size=40)
coverage = st.one_of(
    st.floats(1e-3, 0.999), st.sampled_from([1e-9, 1e-3, 0.5, 0.999, 1.0 - 1e-9])
)


class TestMatchesPerScoreLoop:
    @settings(max_examples=100, deadline=None)
    @given(per_class=st.lists(scores, min_size=1, max_size=4), b=coverage)
    def test_bins_and_mu_match_the_reference(self, per_class, b):
        hist = ScoreHistogram(len(per_class), b=b)
        for cls, class_scores in enumerate(per_class):
            record_scores(hist, cls, class_scores)
        for cls, class_scores in enumerate(per_class):
            expected = reference_bins(class_scores)
            assert hist.bins[cls].tolist() == expected.tolist()
            assert compute_mu(hist, cls) == reference_mu(expected, b)

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(0, 50), min_size=NUM_BINS, max_size=NUM_BINS),
           b=coverage)
    def test_mu_of_any_counts_matches_the_reference(self, counts, b):
        hist = ScoreHistogram(1, b=b)
        hist.bins[0] = counts
        assert compute_mu(hist, 0) == reference_mu(np.array(counts), b)


class TestComputeMu:
    def test_all_scores_in_first_bin(self):
        hist = ScoreHistogram(1, b=0.25)
        record_scores(hist, 0, [0.01] * 8)
        assert compute_mu(hist, 0) == (0.0, False)

    def test_spread_over_eight_bins(self):
        # one score per bin 0..7 with threshold 8 * 0.25 = 2: the prefix
        # {0, 1} is the first to reach it
        hist = ScoreHistogram(1, b=0.25)
        record_scores(hist, 0, [i * BIN_WIDTH + 0.01 for i in range(8)])
        value = compute_mu(hist, 0)
        assert value.mu == pytest.approx(0.04)
        assert not value.degenerate

    def test_everything_in_top_bin(self):
        hist = ScoreHistogram(1, b=0.25)
        record_scores(hist, 0, [1.0, 0.97, 0.999])
        assert compute_mu(hist, 0).mu == pytest.approx(0.96)

    def test_no_scores_is_degenerate(self):
        hist = ScoreHistogram(2, b=0.25)
        record_scores(hist, 0, [0.5])
        value = compute_mu(hist, 1)
        assert value.degenerate and value.mu == 0.0

    def test_values_sit_on_the_grid(self):
        rng = np.random.default_rng(0)
        grid = {round(i * BIN_WIDTH, 10) for i in range(NUM_BINS)}
        for _ in range(200):
            hist = ScoreHistogram(1, b=float(rng.uniform(0.05, 0.95)))
            record_scores(hist, 0, rng.random(int(rng.integers(1, 40))))
            assert round(compute_mu(hist, 0).mu, 10) in grid

    def test_right_shift_never_decreases_mu(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            hist = ScoreHistogram(1, b=float(rng.uniform(0.05, 0.95)))
            counts = rng.integers(0, 5, size=NUM_BINS)
            if counts.sum() == 0:
                counts[0] = 1
            hist.bins[0] = counts
            before = compute_mu(hist, 0).mu

            shifted = np.zeros_like(counts)
            shifted[1:] = counts[:-1]
            shifted[-1] += counts[-1]  # top bin absorbs what falls off
            hist.bins[0] = shifted
            assert compute_mu(hist, 0).mu >= before - 1e-12

    def test_tiny_b_picks_first_occupied_bin(self):
        hist = ScoreHistogram(1, b=1e-9)
        record_scores(hist, 0, [0.45, 0.9, 0.91])
        assert compute_mu(hist, 0).mu == pytest.approx(bin_of(0.45) * BIN_WIDTH)
