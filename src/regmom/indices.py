"""Graded multi-index bookkeeping for Hermite moment sets.

A moment set of order M in D velocity dimensions holds one coefficient per
multi-index alpha in N^D with |alpha| <= M.  Indices are stored in graded
lexicographic order: all indices of order n precede those of order n+1, and
within one order they are sorted lexicographically as tuples, so every order
is contiguous.  The full layout serves the Maxwell iteration and the tests;
the moment solver stores the reduced AxisymmetricLayout.
"""
from __future__ import annotations

import math
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


def shift(alpha: tuple[int, ...], axis: int, delta: int) -> tuple[int, ...] | None:
    """alpha +- delta*e_axis, or None when a component would turn negative.

    None models the convention that a Hermite coefficient with any negative
    index component is identically zero.  ``axis`` is 1-based.
    """
    if not 1 <= axis <= len(alpha):
        raise ValueError(f"axis {axis} out of range for {alpha}")
    comp = alpha[axis - 1] + delta
    if comp < 0:
        return None
    return alpha[: axis - 1] + (comp,) + alpha[axis:]


class MomentLayout:
    """Bijective ordinal numbering of {alpha : |alpha| <= order} in N^dim.

    Immutable after construction; shift tables are cached and may be shared
    across threads.
    """

    def __init__(self, order: int, dim: int):
        self.order = order
        self.dim = dim
        self.indices = enumerate_indices(order, dim)
        self.size = len(self.indices)
        self._ordinal = {a: k for k, a in enumerate(self.indices)}
        self.orders = np.array([sum(a) for a in self.indices], dtype=np.intp)
        self.components = np.array(self.indices, dtype=np.intp).reshape(self.size, dim)
        self._tables: dict[tuple[int, ...], np.ndarray] = {}

    def __repr__(self) -> str:
        return f"MomentLayout(order={self.order}, dim={self.dim}, size={self.size})"

    def __len__(self) -> int:
        return self.size

    def ordinal(self, alpha: tuple[int, ...]) -> int:
        """Position of alpha in the graded-lex ordering; |alpha| > order is rejected."""
        try:
            return self._ordinal[tuple(alpha)]
        except KeyError:
            raise ValueError(f"{tuple(alpha)} is not in the moment set "
                             f"(order {self.order}, dim {self.dim})") from None

    def unrank(self, k: int) -> tuple[int, ...]:
        return self.indices[k]

    def contains(self, alpha: tuple[int, ...]) -> bool:
        return tuple(alpha) in self._ordinal

    def grade(self, n: int) -> slice:
        """Slice of ordinals with |alpha| == n (contiguous by construction)."""
        lo = count(n - 1, self.dim) if n > 0 else 0
        return slice(lo, count(n, self.dim))

    def shift_table(self, delta: tuple[int, ...]) -> np.ndarray:
        """Gather table for alpha -> alpha + delta.

        Entry k holds the ordinal of ``unrank(k) + delta`` or ``size`` when the
        shifted index leaves the set (negative component or order > M).  The
        table has ``size + 1`` entries with table[size] == size, so composed
        lookups propagate the sentinel.  Gathers should use coefficient arrays
        padded with one zero column at position ``size``.
        """
        delta = tuple(delta)
        tab = self._tables.get(delta)
        if tab is None:
            tab = np.full(self.size + 1, self.size, dtype=np.intp)
            for k, a in enumerate(self.indices):
                b = tuple(x + y for x, y in zip(a, delta))
                if all(c >= 0 for c in b):
                    tab[k] = self._ordinal.get(b, self.size)
            tab.setflags(write=False)
            self._tables[delta] = tab
        return tab

    def unit(self, axis: int) -> tuple[int, ...]:
        """e_axis as a tuple (axis is 1-based)."""
        return tuple(1 if d == axis - 1 else 0 for d in range(self.dim))


class AxisymmetricLayout:
    """Coefficients g[a, k] of a distribution axisymmetric about the x_1 axis.

    With zero transverse velocity the full-layout coefficients are
    f_(a,2i,2j) = C(i+j, i) g_(a,i+j) for D = 3, f_(a,2k) = g_(a,k) for D = 2
    and f_a = g_(a,0) for D = 1; every one with an odd transverse index is 0.
    g is dense with ``shape`` (order+1, order//2+1), or (order+1, 1) for D = 1,
    and zero where the grade a + 2k exceeds the order, so every shift in a or
    k is an array slice.  (top_a, top_k) are the entries of grade ``order``.
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


def count(order: int, dim: int) -> int:
    """Number of multi-indices with |alpha| <= order: binomial(order+dim, dim)."""
    if order < 0:
        return 0
    return math.comb(order + dim, dim)


def pad_zero(coeffs: np.ndarray) -> np.ndarray:
    """Append a zero column so that sentinel gathers read exact zeros."""
    shape = coeffs.shape[:-1] + (1,)
    return np.concatenate([coeffs, np.zeros(shape, dtype=coeffs.dtype)], axis=-1)
