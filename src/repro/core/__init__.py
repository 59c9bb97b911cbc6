"""OnlineSTL core: kernels, filters, circular buffers, and the algorithm."""
from repro.core.circular import CircularArray
from repro.core.kernels import kernel, kernel_vector, tricube
from repro.core.online_stl import (
    DecompPoint,
    Decomposition,
    OnlineSTL,
    decompose_series,
)

__all__ = [
    "CircularArray",
    "kernel",
    "kernel_vector",
    "tricube",
    "DecompPoint",
    "Decomposition",
    "OnlineSTL",
    "decompose_series",
]
