"""Circular (ring) array with O(1) append — the paper's UPDATEARRAY(X, y).

OnlineSTL maintains fixed-size sliding windows (A, K_p, D). UPDATEARRAY
"replaces the oldest element with y" (notation item 9). We keep a write
cursor so append is O(1); ``view_last(w)`` materializes the most recent
``w`` elements in time order for the trend-filter dot products.
"""
from __future__ import annotations

import numpy as np


class CircularArray:
    """Fixed-capacity ring buffer of float64 with oldest-overwrite append."""

    def __init__(self, capacity: int, init: np.ndarray | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf = np.zeros(capacity, dtype=np.float64)
        self._head = 0  # index of the oldest element / next write slot
        self._filled = 0
        if init is not None:
            init = np.asarray(init, dtype=np.float64)
            if init.size != capacity:
                raise ValueError(
                    f"init length {init.size} != capacity {capacity}"
                )
            self._buf[:] = init
            self._filled = capacity

    def __len__(self) -> int:
        return self._filled

    @property
    def full(self) -> bool:
        return self._filled == self.capacity

    def append(self, y: float) -> None:
        """UPDATEARRAY: overwrite the oldest element with ``y``."""
        self._buf[self._head] = y
        self._head = (self._head + 1) % self.capacity
        if self._filled < self.capacity:
            self._filled += 1

    def view_last(self, w: int) -> np.ndarray:
        """The most recent ``w`` elements, oldest→newest (a copy).

        Requires ``w <= len(self)``; OnlineSTL only calls this after the
        buffer holds at least one full window.
        """
        if w > self._filled:
            raise ValueError(f"requested last {w} of {self._filled} elements")
        # Newest element sits just before the head cursor.
        end = self._head if self.full else self._filled
        start = end - w
        if start >= 0:
            return self._buf[start:end].copy()
        return np.concatenate([self._buf[start % self.capacity :], self._buf[:end]])
