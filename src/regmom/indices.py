"""Multi-index bookkeeping for Hermite moment sets.

A moment set of order M in D velocity dimensions holds one coefficient per
multi-index alpha in N^D with |alpha| <= M.  The Maxwell iteration stores them
densely as f[..., alpha_1, ..., alpha_D] with trailing shape (M+1,)^D and zeros
where |alpha| > M, so every shift alpha + delta is an array slice (``shifted``).
The moment solver stores the reduced AxisymmetricLayout, g[a, k, cell].
``enumerate_indices`` lists the set in graded lexicographic order: all indices
of order n precede those of order n+1, and within one order they are sorted.
"""
from __future__ import annotations

from itertools import product

import numpy as np

MAX_DIM = 3


def enumerate_indices(order: int, dim: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= order, graded-lex sorted."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    out: list[tuple[int, ...]] = []
    for n in range(order + 1):
        grade = [a for a in product(range(n, -1, -1), repeat=dim) if sum(a) == n]
        grade.sort()
        out.extend(grade)
    return out


def shifted(f: np.ndarray, delta: tuple[int, ...]) -> np.ndarray:
    """out[..., alpha] = f[..., alpha + delta] over the last len(delta) axes.

    Reads 0 wherever alpha + delta leaves the array, which models both a
    negative index component and truncation: dense coefficient arrays keep
    zeros above their order.
    """
    out = np.zeros_like(f)
    dst, src = [], []
    for n, d in zip(f.shape[-len(delta):], delta):
        width = max(n - abs(d), 0)
        lo = max(-d, 0)
        dst.append(slice(lo, lo + width))
        src.append(slice(lo + d, lo + d + width))
    out[(Ellipsis,) + tuple(dst)] = f[(Ellipsis,) + tuple(src)]
    return out


class AxisymmetricLayout:
    """Coefficients g[a, k, cell] of a distribution axisymmetric about the x_1 axis.

    With zero transverse velocity the full-layout coefficients are
    f_(a,2i,2j) = C(i+j, i) g_(a,i+j) for D = 3, f_(a,2k) = g_(a,k) for D = 2
    and f_a = g_(a,0) for D = 1; every one with an odd transverse index is 0.
    g leads with ``shape`` (order+1, order//2+1), or (order+1, 1) for D = 1,
    is zero where the grade a + 2k exceeds the order, and keeps the cell (or
    any other batch) axes last and contiguous, so every shift in a or k is an
    array slice that runs along all cells at once.  (top_a, top_k) are the
    entries of grade ``order``; ``ladder`` is a + 1 for a < order.
    """

    def __init__(self, order: int, dim: int):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
        self.order, self.dim = order, dim
        self.shape = (order + 1, order // 2 + 1 if dim > 1 else 1)
        a, k = np.indices(self.shape)
        self.grades = a + 2 * k
        self.mask = (self.grades <= order).astype(float)
        self.top_k = np.arange(self.shape[1])
        self.top_a = order - 2 * self.top_k
        self.ladder = np.arange(1.0, order + 1)

    def zero_corner(self, g: np.ndarray) -> np.ndarray:
        """Zero the corner a + 2k > order of g (M+1, K, ...) in place."""
        for k in range(1, self.shape[1]):
            g[self.top_a[k] + 1:, k] = 0.0
        return g


def lead(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """v with unit axes appended, to broadcast over the trailing batch axes of g."""
    return v.reshape(v.shape + (1,) * (g.ndim - v.ndim))


def pad_zero(coeffs: np.ndarray) -> np.ndarray:
    """Append a zero column along the last axis."""
    shape = coeffs.shape[:-1] + (1,)
    return np.concatenate([coeffs, np.zeros(shape, dtype=coeffs.dtype)], axis=-1)
