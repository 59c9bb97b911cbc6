"""Tri-cube kernel weights for OnlineSTL's trend filter (paper §4.1.1).

The paper pre-stores, for a window ``lam``, the kernel vector
``k_lam = {w_k}_{k=1..lam}`` with ``w_k = W(|lam - k| / lam)`` where ``W`` is
the tri-cube kernel ``W(u) = (1 - u^3)^3`` on ``[0, 1)``. Index ``k = lam``
is the newest point (weight 1); older points decay tri-cubically. The
non-symmetric trend filter is then a single dot product with the last
``lam`` points, normalized by the kernel's L1 mass. :func:`kernel` is that
pre-store: one read-only vector per window, shared by the whole process.
"""
from __future__ import annotations

import functools

import numpy as np


def tricube(u: np.ndarray | float) -> np.ndarray | float:
    """Tri-cube kernel W(u) = (1 - u^3)^3 for 0 <= u < 1, else 0.

    The paper's eq. (1) prints ``(1 - (u^3)^3`` with unbalanced parentheses;
    the tri-cube kernel of Cleveland's loess, which STL and the paper build
    on, is ``(1 - |u|^3)^3``.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.where((u >= 0) & (u < 1), (1.0 - u**3) ** 3, 0.0)
    return out if out.shape else float(out)


def kernel_vector(lam: int) -> np.ndarray:
    """Pre-stored kernel ``k_lam`` of length ``lam``; last entry weights X_t.

    ``k_lam[k-1] = W(|lam - k| / lam)`` for k = 1..lam, as in §4.1.1.
    """
    if lam < 1:
        raise ValueError(f"window must be >= 1, got {lam}")
    k = np.arange(1, lam + 1, dtype=np.float64)
    return np.asarray(tricube(np.abs(lam - k) / lam))


@functools.lru_cache(maxsize=None)
def kernel(lam: int) -> tuple[np.ndarray, float]:
    """``(k_lam, ||k_lam||_1)``, built once per process and window.

    ``k_lam`` is "constant throughout the entirety of the algorithm"
    (§4.1.1), so every OnlineSTL instance shares one read-only copy and
    none of them stores it in its state.
    """
    k = kernel_vector(lam)
    k.flags.writeable = False
    return k, float(np.abs(k).sum())
