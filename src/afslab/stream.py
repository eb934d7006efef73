"""Task streams: datasets, class-incremental splits, IDX files, augmentation.

A stream presents each training sample exactly once, grouped into small
batches per task; a batch is an int64 array of row indices into the
`Dataset`, and a row's index is its stable id. Features are float vectors in
[0, 1] for image data and unconstrained floats for synthetic Gaussian data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidConfigError, InvalidInputError

IMAGE_MAGIC = 0x00000803  # unsigned bytes, 3 dimensions
LABEL_MAGIC = 0x00000801  # unsigned bytes, 1 dimension
AUGMENT_KINDS = ("none", "vector", "image")
IMAGE_PAD = 4  # zero border of the "image" crop, so offsets run 0..8


@dataclass
class Dataset:
    """Feature matrix plus integer labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise InvalidInputError("features and labels must align")
        if self.num_classes < 1:
            raise InvalidConfigError("num_classes must be positive")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise InvalidInputError("labels out of range for num_classes")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TaskSplit:
    """Disjoint, ordered class sets, one per task."""

    tasks: tuple[tuple[int, ...], ...]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)


def split_tasks(dataset: Dataset, num_tasks: int) -> TaskSplit:
    """Partition class ids into contiguous equal-sized groups."""
    if num_tasks < 1:
        raise InvalidConfigError(f"num_tasks must be positive, got {num_tasks}")
    if dataset.num_classes % num_tasks != 0:
        raise InvalidConfigError(
            f"{dataset.num_classes} classes do not divide into {num_tasks} tasks"
        )
    per = dataset.num_classes // num_tasks
    tasks = tuple(
        tuple(range(i * per, (i + 1) * per)) for i in range(num_tasks)
    )
    return TaskSplit(tasks=tasks)


def batches(
    dataset: Dataset,
    task_classes: tuple[int, ...],
    batch_size: int,
    seed,
) -> list[np.ndarray]:
    """Shuffle one task's row indices and chunk them into stream batches.

    Every matching row appears in exactly one batch; the final batch may be
    short. The shuffle is fully determined by the seed.
    """
    if batch_size < 1:
        raise InvalidConfigError(f"batch_size must be positive, got {batch_size}")
    rng = np.random.default_rng(seed)
    wanted = np.isin(dataset.labels, np.asarray(task_classes))
    indices = np.flatnonzero(wanted)
    indices = indices[rng.permutation(len(indices))]
    return [
        indices[start : start + batch_size]
        for start in range(0, len(indices), batch_size)
    ]


def task_streams(
    dataset: Dataset, split: TaskSplit, batch_size: int, seed
) -> list[list[np.ndarray]]:
    """Build the per-task batch streams with independent child seeds."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(split.num_tasks)
    return [
        batches(dataset, split.tasks[i], batch_size, children[i])
        for i in range(split.num_tasks)
    ]


def offline_stream(dataset: Dataset, batch_size: int, epochs: int, seed) -> list[np.ndarray]:
    """One task of `epochs` shuffles of every row, the offline pass's stream.

    Each shuffle is cut into batches on its own, so every epoch may end in a
    short batch and no batch spans two epochs.
    """
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        stream += [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    return stream


def task_test_sets(
    dataset: Dataset, split: TaskSplit
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-task (features, labels) pairs drawn from a test dataset."""
    out = []
    for classes in split.tasks:
        mask = np.isin(dataset.labels, np.asarray(classes))
        out.append((dataset.features[mask], dataset.labels[mask]))
    return out


def _read_exact(data: bytes, offset: int, count: int, what: str) -> bytes:
    if offset + count > len(data):
        raise FormatError(
            f"truncated file: needed {count} bytes for {what} at offset {offset}, "
            f"file has {len(data)}"
        )
    return data[offset : offset + count]


def _read_u32(data: bytes, offset: int, what: str) -> int:
    return struct.unpack(">I", _read_exact(data, offset, 4, what))[0]


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read IDX file {path}: {exc.strerror}") from exc


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Images use big-endian magic 0x00000803 followed by count, rows, cols and
    a u8 payload; labels use magic 0x00000801 followed by count and one byte
    per label. Pixels are scaled to [0, 1]. Malformed input raises a
    FormatError naming the byte offset, and an unreadable file one naming
    its path.
    """
    img, lab = _read_file(images_path), _read_file(labels_path)

    magic = _read_u32(img, 0, "image magic")
    if magic != IMAGE_MAGIC:
        raise FormatError(
            f"bad image magic 0x{magic:08x} at offset 0 in {images_path}"
        )
    count = _read_u32(img, 4, "image count")
    rows = _read_u32(img, 8, "row count")
    cols = _read_u32(img, 12, "column count")
    payload = _read_exact(img, 16, count * rows * cols, "image payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    pixels /= 255.0  # in place: no second float copy of the payload
    features = pixels.reshape(count, rows * cols)

    magic = _read_u32(lab, 0, "label magic")
    if magic != LABEL_MAGIC:
        raise FormatError(
            f"bad label magic 0x{magic:08x} at offset 0 in {labels_path}"
        )
    lab_count = _read_u32(lab, 4, "label count")
    if lab_count != count:
        raise FormatError(
            f"label count {lab_count} at offset 4 does not match image count {count}"
        )
    labels = np.frombuffer(
        _read_exact(lab, 8, lab_count, "label payload"), dtype=np.uint8
    ).astype(np.int64)

    num_classes = int(labels.max()) + 1 if len(labels) else 1
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def write_idx(dataset: Dataset, images_path: str, labels_path: str) -> None:
    """Write a dataset as an IDX pair; features are byte-quantized square images.

    The label file holds one unsigned byte per label, so a label outside
    [0, 255] raises InvalidInputError naming its row.
    """
    n, dim = dataset.features.shape
    side = math.isqrt(dim)
    if side * side != dim:
        raise InvalidConfigError(f"feature length {dim} is not a square image")
    bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels > 255))
    if len(bad):
        row = int(bad[0])
        raise InvalidInputError(
            f"label {int(dataset.labels[row])} at row {row} does not fit in one "
            "unsigned byte of an IDX label file"
        )
    pixels = np.clip(np.rint(dataset.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, side, side))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def gen_synthetic(
    num_classes: int,
    dim: int,
    per_class: int,
    spread: float,
    seed,
    test_per_class: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian blobs: one unit-norm mean per class, isotropic noise.

    Returns disjoint train and test datasets drawn around the same means.
    test_per_class defaults to per_class // 5.
    """
    if num_classes < 1 or dim < 1 or per_class < 1:
        raise InvalidConfigError("num_classes, dim and per_class must be positive")
    if spread < 0:
        raise InvalidConfigError(f"spread must be non-negative, got {spread}")
    if test_per_class is None:
        test_per_class = max(per_class // 5, 1)
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    def draw(count: int) -> Dataset:
        feats = np.concatenate(
            [means[c] + spread * rng.normal(size=(count, dim)) for c in range(num_classes)]
        )
        labels = np.repeat(np.arange(num_classes), count)
        return Dataset(features=feats, labels=labels, num_classes=num_classes)

    return draw(per_class), draw(test_per_class)


def check_augment(kind: str, dim: int) -> None:
    """Raise InvalidConfigError unless `kind` can augment rows of `dim` features."""
    if kind not in AUGMENT_KINDS:
        raise InvalidConfigError(f"unknown augmentation kind {kind!r}")
    if kind == "image" and math.isqrt(dim) ** 2 != dim:
        raise InvalidConfigError(f"image augmentation needs square features, got {dim}")


def draw_augment(
    kind: str,
    shape: tuple[int, int],
    rng: np.random.Generator,
    jitter_sigma: float = 0.1,
):
    """Every random number `augment` needs for rows of the given [k, dim] shape.

    "none" draws nothing and returns None. "vector" returns the [k, dim]
    jitter in one draw; a Generator fills it in the same order as one draw
    per row. "image" draws, row by row, a flip coin (`rng.random() < 0.5`)
    and then two crop offsets (`rng.integers(0, 9, size=2)` for dy, dx), and
    returns the [k] flips and the [k, 2] offsets. On a PCG64 generator
    `_image_draws` makes all of them from one raw draw; elsewhere, and on
    the rare draw it cannot reproduce, the per-row loop below runs.
    """
    k, dim = shape
    check_augment(kind, dim)
    if kind == "none":
        return None
    if kind == "vector":
        return rng.normal(0.0, jitter_sigma, size=shape)
    if k and type(rng.bit_generator) is np.random.PCG64:
        draws = _image_draws(rng.bit_generator, k)
        if draws is not None:
            return draws
    flips = np.empty(k, dtype=bool)
    offsets = np.empty((k, 2), dtype=np.int64)
    for i in range(k):
        # the draw order per row (flip coin, then crop offsets) fixes seeded runs
        flips[i] = rng.random() < 0.5
        offsets[i] = rng.integers(0, 2 * IMAGE_PAD + 1, size=2)
    return flips, offsets


# A crop offset is Lemire's bounded draw from one 32-bit word w: offset
# (9 w) >> 32, redrawn when the low 32 bits of 9 w fall below this.
_CROP_REJECT = (2**32 - 1 - 2 * IMAGE_PAD) % (2 * IMAGE_PAD + 1)


def _image_draws(bit_generator: np.random.PCG64, k: int):
    """The k rows' flips and offsets of the per-row loop, from 2k raw words.

    Per row, `random()` takes one 64-bit word w (`(w >> 11) * 2**-53`), and
    `integers(0, 9, size=2)` two 32-bit words: PCG64 hands out a 64-bit
    word low half first and keeps the high half for the next 32-bit draw,
    which a half left over from an earlier draw (`has_uint32`) serves
    first. The generator ends as the loop leaves it. Returns None, with the
    generator as it was, when some offset would have been redrawn.
    """
    saved = bit_generator.state
    words = bit_generator.random_raw(2 * k)
    flips = words[0::2] < 2**63  # (w >> 11) * 2**-53 < 0.5
    halves = np.empty(2 * k + 1, dtype="<u4")  # the left-over half, then each word's two
    halves[0] = saved["uinteger"]
    halves[1:] = words[1::2].astype("<u8").view("<u4")
    start = 1 - saved["has_uint32"]
    scaled = halves[start : start + 2 * k].astype(np.uint64) * (2 * IMAGE_PAD + 1)
    if (scaled & 0xFFFFFFFF).min() < _CROP_REJECT:
        bit_generator.state = saved
        return None
    state = bit_generator.state
    state["uinteger"] = int(halves[-1])  # the loop's last high half, served or not
    bit_generator.state = state
    offsets = (scaled >> 32).astype(np.int64).reshape(k, 2)
    return flips, offsets


def apply_augment(features: np.ndarray, kind: str, draws) -> np.ndarray:
    """The [k, dim] rows transformed with the draws of `draw_augment`.

    "image" cuts all k crops out of one zero-padded [k, side+8, side+8]
    buffer with a single gather; a flipped row reads its columns mirrored,
    so no flipped copy is made.
    """
    if kind == "none":
        return features
    if kind == "vector":
        return features + draws
    flips, offsets = draws
    k, dim = features.shape
    side, pad = math.isqrt(dim), IMAGE_PAD
    width = side + 2 * pad
    padded = np.zeros((k, width, width), dtype=features.dtype)
    padded[:, pad : pad + side, pad : pad + side] = features.reshape(k, side, side)
    span = np.arange(side)
    # flat buffer offset of the first pixel of every crop row: [k, side]
    rows = (np.arange(k)[:, None] * width + offsets[:, :1] + span) * width
    cols = offsets[:, 1:] + span  # [k, side]
    cols = np.where(flips[:, None], width - 1 - cols, cols)
    return padded.reshape(-1)[rows[:, :, None] + cols[:, None, :]].reshape(k, dim)
