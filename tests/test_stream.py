import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal, assert_equal

from afslab import stream
from afslab.errors import FormatError, InvalidConfigError, InvalidInputError
from afslab.model import NetworkSpec, init_network
from afslab.stream import (
    Dataset,
    batches,
    draw_augment,
    gen_synthetic,
    load_idx,
    split_tasks,
    task_streams,
    task_test_sets,
    write_idx,
)
from afslab.trainer import TrainConfig, evaluate
from helpers import (
    augment,
    augment_image_rows,
    flip_horizontal,
    image_draws_per_row,
    offline_pass,
    pad_crop,
)


def toy_dataset(n_per_class=6, num_classes=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_per_class * num_classes, dim))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    return Dataset(features=feats, labels=labels, num_classes=num_classes)


class TestDataset:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(4, dtype=int), num_classes=2)
        with pytest.raises(InvalidInputError):
            Dataset(
                features=np.zeros((2, 2)),
                labels=np.array([0, 5]),
                num_classes=2,
            )


class TestSplit:
    def test_contiguous_equal_groups(self):
        ds = toy_dataset(num_classes=10)
        split = split_tasks(ds, 5)
        assert split.num_tasks == 5
        assert split.tasks == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))

    def test_indivisible_rejected(self):
        with pytest.raises(InvalidConfigError):
            split_tasks(toy_dataset(num_classes=10), 3)


class TestBatches:
    def test_every_sample_once(self):
        ds = toy_dataset(n_per_class=7, num_classes=4)
        got = batches(ds, (1, 2), batch_size=4, seed=5)
        uids = np.concatenate(got).tolist()
        expected = [i for i in range(len(ds)) if ds.labels[i] in (1, 2)]
        assert sorted(uids) == expected
        assert len(set(uids)) == len(uids)

    def test_last_batch_short(self):
        ds = toy_dataset(n_per_class=7, num_classes=4)
        got = batches(ds, (0,), batch_size=3, seed=1)
        assert [len(b) for b in got] == [3, 3, 1]
        assert all(b.dtype == np.int64 for b in got)

    def test_deterministic_and_seed_sensitive(self):
        ds = toy_dataset()
        a = batches(ds, (0, 1), batch_size=4, seed=3)
        b = batches(ds, (0, 1), batch_size=4, seed=3)
        c = batches(ds, (0, 1), batch_size=4, seed=4)
        assert np.concatenate(a).tolist() == np.concatenate(b).tolist()
        assert np.concatenate(a).tolist() != np.concatenate(c).tolist()

    def test_task_streams_cover_everything(self):
        ds = toy_dataset(n_per_class=5, num_classes=4)
        split = split_tasks(ds, 2)
        streams = task_streams(ds, split, batch_size=4, seed=11)
        assert set(ds.labels[np.concatenate(streams[0])].tolist()) == {0, 1}
        assert set(ds.labels[np.concatenate(streams[1])].tolist()) == {2, 3}
        uids = sorted(np.concatenate([b for st in streams for b in st]).tolist())
        assert uids == list(range(len(ds)))

    def test_task_test_sets(self):
        ds = toy_dataset(n_per_class=5, num_classes=4)
        split = split_tasks(ds, 2)
        sets = task_test_sets(ds, split)
        assert len(sets) == 2
        X, y = sets[1]
        assert set(np.unique(y)) == {2, 3}
        assert len(X) == 10


class TestIdx:
    def build_pair(self, tmp_path, images, labels):
        n, side = images.shape[0], images.shape[1]
        img_path = tmp_path / "imgs"
        lab_path = tmp_path / "labs"
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, side, side))
            fh.write(images.astype(np.uint8).tobytes())
        with open(lab_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, n))
            fh.write(labels.astype(np.uint8).tobytes())
        return str(img_path), str(lab_path)

    def test_load_scales_and_shapes(self, tmp_path):
        images = np.arange(2 * 2 * 2, dtype=np.uint8).reshape(2, 2, 2) * 30
        labels = np.array([1, 0])
        img, lab = self.build_pair(tmp_path, images, labels)
        ds = load_idx(img, lab)
        assert ds.features.shape == (2, 4)
        assert_allclose(ds.features[0], images[0].reshape(-1) / 255.0)
        assert_array_equal(ds.labels, labels)
        assert ds.num_classes == 2

    def test_bad_image_magic(self, tmp_path):
        img = tmp_path / "i"
        img.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 1, 1) + b"\x00")
        lab = tmp_path / "l"
        lab.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
        with pytest.raises(FormatError, match="magic"):
            load_idx(str(img), str(lab))

    def test_truncated_payload_names_offset(self, tmp_path):
        img = tmp_path / "i"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        lab = tmp_path / "l"
        lab.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
        with pytest.raises(FormatError, match="offset 16"):
            load_idx(str(img), str(lab))

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, _ = self.build_pair(tmp_path, images, np.zeros(3))
        lab = tmp_path / "short"
        lab.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
        with pytest.raises(FormatError, match="does not match"):
            load_idx(img, str(lab))

    def test_write_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        feats = rng.integers(0, 256, size=(5, 9)).astype(np.float64) / 255.0
        ds = Dataset(
            features=feats,
            labels=np.array([0, 1, 2, 1, 0]),
            num_classes=3,
        )
        img, lab = str(tmp_path / "i"), str(tmp_path / "l")
        write_idx(ds, img, lab)
        back = load_idx(img, lab)
        assert_allclose(back.features, ds.features)
        assert_array_equal(back.labels, ds.labels)

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(0, 50),
        side=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 28]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(count=0, side=28, seed=0)
    def test_write_load_round_trip_is_bit_exact(self, count, side, seed):
        # byte-valued features b / 255 and one-byte labels survive a write
        # and a load bit for bit
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(count, side * side))
        labels = rng.integers(0, 256, size=count)
        ds = Dataset(features=pixels / 255.0, labels=labels, num_classes=256)
        with tempfile.TemporaryDirectory() as work:
            img, lab = os.path.join(work, "i"), os.path.join(work, "l")
            write_idx(ds, img, lab)
            back = load_idx(img, lab)
        assert back.features.shape == (count, side * side)
        assert back.features.dtype == np.float64
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.dtype == np.int64
        assert_array_equal(back.labels, labels)
        assert back.num_classes == (int(labels.max()) + 1 if count else 1)

    def test_write_rejects_non_square(self, tmp_path):
        ds = Dataset(
            features=np.zeros((2, 5)), labels=np.array([0, 0]), num_classes=1
        )
        with pytest.raises(InvalidConfigError):
            write_idx(ds, str(tmp_path / "i"), str(tmp_path / "l"))

    def test_write_rejects_labels_past_one_byte(self, tmp_path):
        ds = Dataset(
            features=np.zeros((4, 4)),
            labels=np.array([0, 255, 300, 256]),
            num_classes=301,
        )
        img, lab = tmp_path / "i", tmp_path / "l"
        with pytest.raises(InvalidInputError, match="label 300 at row 2"):
            write_idx(ds, str(img), str(lab))
        assert not img.exists() and not lab.exists()


class TestSynthetic:
    def test_counts_and_split_tags(self):
        train, test = gen_synthetic(4, 8, per_class=10, spread=0.3, seed=0)
        assert len(train) == 40
        assert len(test) == 8
        train2, test2 = gen_synthetic(
            4, 8, per_class=10, spread=0.3, seed=0, test_per_class=7
        )
        assert len(test2) == 28

    def test_deterministic(self):
        a, _ = gen_synthetic(3, 5, per_class=4, spread=0.2, seed=12)
        b, _ = gen_synthetic(3, 5, per_class=4, spread=0.2, seed=12)
        assert_array_equal(a.features, b.features)
        c, _ = gen_synthetic(3, 5, per_class=4, spread=0.2, seed=13)
        assert not np.array_equal(a.features, c.features)

    def test_zero_spread_collapses_to_unit_means(self):
        train, test = gen_synthetic(5, 7, per_class=3, spread=0.0, seed=2)
        norms = np.linalg.norm(train.features, axis=1)
        assert_allclose(norms, 1.0, atol=1e-12)
        for c in range(5):
            rows = train.features[train.labels == c]
            assert_allclose(rows - rows[0], 0.0, atol=1e-15)
            trow = test.features[test.labels == c][0]
            assert_allclose(trow, rows[0])

    def test_train_test_disjoint_draws(self):
        train, test = gen_synthetic(2, 4, per_class=5, spread=0.5, seed=3)
        assert not np.array_equal(train.features[:1], test.features[:1])

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidConfigError):
            gen_synthetic(0, 4, 5, 0.1, 0)
        with pytest.raises(InvalidConfigError):
            gen_synthetic(2, 4, 5, -0.1, 0)

    def test_linear_model_separates_easy_blobs(self):
        # tight blobs around distinct unit means are trivially separable:
        # a short offline run must reach near-perfect test accuracy
        train, test = gen_synthetic(4, 16, per_class=50, spread=0.1, seed=7)
        state = init_network(NetworkSpec((16, 4), seed=0))
        cfg = TrainConfig(stream_batch=10, lr=0.5, offline_epochs=5)
        state = offline_pass(state, train, [(test.features, test.labels)], cfg, seed=1)
        acc = evaluate(state, (test.features, test.labels))
        assert acc >= 0.99, acc


class TestAugment:
    def test_flip_is_involution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=9)
        assert_array_equal(flip_horizontal(flip_horizontal(x, 3), 3), x)

    def test_flip_hand_case(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert_array_equal(flip_horizontal(x, 2), [2.0, 1.0, 4.0, 3.0])

    def test_pad_crop_preserves_shape_and_mass_bound(self):
        rng = np.random.default_rng(1)
        x = np.abs(rng.normal(size=16))
        out = pad_crop(x, 4, rng)
        assert out.shape == (16,)
        assert out.sum() <= x.sum() + 1e-12

    def test_none_returns_same_objects(self):
        x = np.ones((1, 4))
        out = augment(x, "none", np.random.default_rng(0))
        assert out is x

    def test_vector_jitter_sigma_zero_is_identity(self):
        x = np.ones((1, 4))
        out = augment(x, "vector", np.random.default_rng(0), jitter_sigma=0.0)
        assert_array_equal(out, x)
        assert out is not x

    def test_vector_jitter_is_one_draw_per_sample_in_order(self):
        # the batch draws all its noise at once; a Generator fills a
        # (k, dim) draw in the same order as k draws of (dim,)
        data = np.random.default_rng(3)
        batch = data.normal(size=(100, 32))
        rng = np.random.default_rng(11)
        out = augment(batch, "vector", rng, jitter_sigma=1.2)
        ref = np.random.default_rng(11)
        assert out.shape == batch.shape
        for x, o in zip(batch, out):
            assert_array_equal(o, x + ref.normal(0.0, 1.2, size=32))
        assert rng.random() == ref.random()  # both generators end in step

    def test_vector_jitter_leaves_original_untouched(self):
        x = np.ones((1, 4))
        out = augment(x, "vector", np.random.default_rng(0), jitter_sigma=0.5)
        assert_array_equal(x, np.ones((1, 4)))
        assert not np.array_equal(out, x)

    def test_image_on_non_square_rejected(self):
        with pytest.raises(InvalidConfigError):
            augment(np.ones((1, 5)), "image", np.random.default_rng(0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigError):
            augment(np.ones((1, 4)), "mixup", np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(0, 30),
        side=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 28]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(k=0, side=28, seed=0)
    def test_image_draws_flip_then_crop_per_row(self, k, side, seed):
        # each row draws its flip coin, then its two crop offsets, in row
        # order; the batched gather must match the per-row loop byte for byte
        batch = np.random.default_rng(seed).random((k, side * side))
        before = batch.copy()
        rng = np.random.default_rng(seed + 1)
        out = augment(batch, "image", rng)
        ref = np.random.default_rng(seed + 1)
        expected = augment_image_rows(batch, ref)
        assert out.shape == (k, side * side)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()  # both generators end in step
        assert_array_equal(batch, before)

    def test_image_output_stays_square_sized(self):
        rng = np.random.default_rng(3)
        out = augment(rng.random((1, 16)), "image", rng)
        assert out.shape == (1, 16)


class TestImageDraws:
    """`draw_augment("image")` against the per-row loop of draws it replaces."""

    @staticmethod
    def generators(seed, buffered, bit_generator=np.random.PCG64):
        """Two generators in one state; `buffered` leaves a 32-bit half in it."""
        rng = np.random.Generator(bit_generator(seed))
        rng.choice(50, size=1 if buffered else 2)  # one 32-bit draw per pick
        ref = np.random.Generator(bit_generator(seed))
        ref.bit_generator.state = rng.bit_generator.state
        return rng, ref

    def assert_loop_draws(self, rng, ref, k):
        flips, offsets = draw_augment("image", (k, 16), rng)
        expected_flips, expected_offsets = image_draws_per_row(ref, k)
        assert flips.dtype == expected_flips.dtype and offsets.dtype == expected_offsets.dtype
        assert_array_equal(flips, expected_flips)
        assert_array_equal(offsets, expected_offsets)
        assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 40), seed=st.integers(0, 2**64 - 1), buffered=st.booleans())
    @example(k=1, seed=0, buffered=True)
    @example(k=40, seed=1, buffered=False)
    def test_one_raw_draw_matches_the_per_row_loop(self, k, seed, buffered):
        rng, ref = self.generators(seed, buffered)
        assert rng.bit_generator.state["has_uint32"] == buffered
        self.assert_loop_draws(rng, ref, k)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 40), seed=st.integers(0, 2**64 - 1), buffered=st.booleans())
    def test_a_rejected_offset_falls_back_to_the_loop(self, k, seed, buffered):
        rng, ref = self.generators(seed, buffered)
        before = rng.bit_generator.state
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stream, "_CROP_REJECT", 2**32)  # every offset would be redrawn
            assert stream._image_draws(rng.bit_generator, k) is None
            assert rng.bit_generator.state == before
            self.assert_loop_draws(rng, ref, k)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_other_bit_generators_take_the_loop(self, buffered):
        rng, ref = self.generators(5, buffered, np.random.MT19937)
        self.assert_loop_draws(rng, ref, 12)
