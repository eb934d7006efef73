"""Bounded episodic memory with reservoir insertion and uniform retrieval.

The buffer is one array with one entry per slot: a stored row's dataset
index (its uid). It keeps no copy of the row or its label; readers take
both from the dataset by uid. Reservoir sampling keeps each stream row in
the buffer with probability capacity / rows_seen, without knowing the
stream length in advance. Only stream rows count toward `tot`; retrieval
never mutates the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError


@dataclass
class MemoryBuffer:
    capacity: int
    tot: int = 0  # stream rows offered so far
    uids: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise InvalidConfigError(f"capacity must be >= 1, got {self.capacity}")
        self.uids = np.full(self.capacity, -1, dtype=np.int64)

    def __len__(self) -> int:
        return min(self.tot, self.capacity)


def reservoir_update(
    buffer: MemoryBuffer, uids: np.ndarray, rng: np.random.Generator
) -> None:
    """Offer k stream rows, as their uids, to the buffer, in order.

    While the buffer has room a row goes to the next free slot; afterwards
    the row offered as number tot (0-based) replaces slot j drawn uniformly
    from [0, tot], kept only if j lands inside the buffer. Each offer past
    the fill point takes one draw, in offer order, and when two offers of
    the batch land on the same slot the later one wins.
    """
    tot, capacity = buffer.tot, buffer.capacity
    free = min(len(uids), max(capacity - tot, 0))
    buffer.uids[tot : tot + free] = uids[:free]
    if free < len(uids):
        # one draw per remaining offer, all in one call: offer tot + i draws from [0, tot + i]
        slots = rng.integers(0, np.arange(tot + free, tot + len(uids)) + 1)
        for slot, uid in zip(slots.tolist(), uids[free:].tolist()):
            if slot < capacity:
                buffer.uids[slot] = uid  # in offer order, so a later offer wins its slot
    buffer.tot += len(uids)


def random_retrieve(
    buffer: MemoryBuffer, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Slot indices of min(size, len) stored rows, uniform without replacement.

    An empty buffer yields an empty index array, which lets training
    bootstrap before any memory exists.
    """
    if size < 0:
        raise InvalidInputError(f"size must be non-negative, got {size}")
    n = len(buffer)
    if n == 0 or size == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(n, size=min(size, n), replace=False)
