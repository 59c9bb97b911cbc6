"""Serialization of per-key OnlineSTL state for Spark's state store.

The streaming operator keeps one ``KeyState`` per series: either a warm-up
buffer (until 4m points have arrived) or a live :class:`OnlineSTL` model.
State crosses the Python-worker boundary as a single ``BinaryType`` blob —
the model is plain numpy arrays + ints, which pickle round-trips exactly.
It holds only Algorithm 1's arrays (A, K_p, E_S, E_T, D): the tri-cube
kernels are rebuilt per process by :func:`repro.core.kernels.kernel`.
An explicit versioned envelope guards against silently deserializing a
stale layout after a code change (the usual failure mode of pickled state
in long-running streaming jobs).
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.core.online_stl import OnlineSTL

# 2: kernels are process constants and no longer pickled; K_p holds 3p.
_VERSION = 2


@dataclass
class KeyState:
    """Streaming state for one series key."""

    periods: list[int]
    gamma: float
    buffer_ts: list[int] = field(default_factory=list)
    buffer_vals: list[float] = field(default_factory=list)
    model: OnlineSTL | None = None


def encode(state: KeyState) -> bytes:
    """Serialize a KeyState to a versioned binary blob."""
    return pickle.dumps((_VERSION, state), protocol=pickle.HIGHEST_PROTOCOL)


def decode(blob: bytes) -> KeyState:
    """Deserialize; raises on version mismatch rather than guessing."""
    version, state = pickle.loads(blob)
    if version != _VERSION:
        raise ValueError(f"state version {version} != expected {_VERSION}")
    if not isinstance(state, KeyState):
        raise TypeError(f"decoded {type(state).__name__}, expected KeyState")
    return state
