from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afslab.errors import InvalidConfigError, InvalidInputError
from afslab.memory import MemoryBuffer, random_retrieve, reservoir_update
from helpers import ListReservoir


def held_uids(buf):
    return buf.uids[: len(buf)].tolist()


def test_capacity_validated():
    with pytest.raises(InvalidConfigError):
        MemoryBuffer(capacity=0)


def test_fill_phase_keeps_everything_in_order():
    buf = MemoryBuffer(capacity=5)
    rng = np.random.default_rng(0)
    reservoir_update(buf, np.arange(3), rng)
    assert held_uids(buf) == [0, 1, 2]
    assert buf.tot == 3
    reservoir_update(buf, np.arange(3, 5), rng)
    assert held_uids(buf) == [0, 1, 2, 3, 4]
    assert len(buf) == 5


def test_overflow_never_exceeds_capacity():
    buf = MemoryBuffer(capacity=4)
    rng = np.random.default_rng(1)
    reservoir_update(buf, np.arange(50), rng)
    assert len(buf) == 4
    assert buf.tot == 50


def test_uniform_inclusion_small_case():
    # capacity 2, stream of 4: every sample should be retained with
    # probability 2/4 in the long run
    trials = 20000
    hits = np.zeros(4)
    for t in range(trials):
        buf = MemoryBuffer(capacity=2)
        rng = np.random.default_rng(t)
        reservoir_update(buf, np.arange(4), rng)
        hits[held_uids(buf)] += 1
    rates = hits / trials
    assert np.all(np.abs(rates - 0.5) < 0.02), rates


def test_retrieve_without_replacement():
    buf = MemoryBuffer(capacity=10)
    rng = np.random.default_rng(3)
    reservoir_update(buf, np.arange(10), rng)
    for _ in range(20):
        got = random_retrieve(buf, 6, rng)
        uids = buf.uids[got].tolist()
        assert len(set(uids)) == len(uids) == 6


def test_retrieve_caps_at_buffer_size_and_leaves_buffer_alone():
    buf = MemoryBuffer(capacity=8)
    rng = np.random.default_rng(4)
    reservoir_update(buf, np.arange(3), rng)
    before = buf.uids.copy()
    got = random_retrieve(buf, 100, rng)
    assert sorted(buf.uids[got].tolist()) == [0, 1, 2]
    assert np.array_equal(buf.uids, before)
    assert buf.tot == 3


def test_retrieve_empty_and_zero():
    buf = MemoryBuffer(capacity=4)
    rng = np.random.default_rng(5)
    assert len(random_retrieve(buf, 10, rng)) == 0
    reservoir_update(buf, np.arange(2), rng)
    assert len(random_retrieve(buf, 0, rng)) == 0
    with pytest.raises(InvalidInputError):
        random_retrieve(buf, -1, rng)


def test_retrieval_is_uniform():
    buf = MemoryBuffer(capacity=5)
    rng = np.random.default_rng(6)
    reservoir_update(buf, np.arange(5), rng)
    counts = Counter()
    trials = 20000
    for _ in range(trials):
        counts.update(buf.uids[random_retrieve(buf, 2, rng)].tolist())
    for uid in range(5):
        assert abs(counts[uid] / trials - 0.4) < 0.02


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 20),
    batch_sizes=st.lists(st.integers(1, 15), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_list_reservoir(capacity, batch_sizes, seed):
    # the array buffer against the per-offer list loop it replaced: same
    # draws, so the same slots in the same order, for any batching
    lengths = np.cumsum(batch_sizes)
    lengths = lengths[lengths <= 200]
    uids = np.random.default_rng(seed).permutation(1000)[: int(lengths[-1])]
    buf, ref = MemoryBuffer(capacity), ListReservoir(capacity)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for start, stop in zip(np.concatenate([[0], lengths[:-1]]), lengths):
        rows = slice(start, stop)
        reservoir_update(buf, uids[rows], rng)
        ref.update(uids[rows], ref_rng)
        assert buf.tot == ref.tot
        assert len(buf) == min(buf.tot, capacity) == len(ref.slots)
        assert buf.uids[: len(buf)].tolist() == ref.slots
    assert rng.random() == ref_rng.random()  # both generators end in step
