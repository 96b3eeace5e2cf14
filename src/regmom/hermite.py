"""Probabilists' Hermite polynomials and Gauss quadrature for the unit Gaussian.

He_n is defined against the weight exp(-x^2/2):

    He_0(x) = 1,  He_1(x) = x,  He_{n+1}(x) = x He_n(x) - n He_{n-1}(x),

with He_n := 0 for n < 0.  The scaled basis function used by the moment
expansion is, per velocity dimension,

    (2 pi)^{-1/2} theta^{-(a+1)/2} He_a(v) exp(-v^2/2),

taken as a product over dimensions.  Evaluation is by the three-term
recursion, which is stable for the moderate degrees (<= ~20) needed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e


def he_eval(n: int, x):
    """He_n(x) by recursion; returns 0 for n < 0. Accepts scalars or arrays."""
    if n < 0:
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    prev = np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    if n == 0:
        return prev
    cur = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def he_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """He_0..He_nmax at the points x, shape (nmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def he_derivative(n: int, x):
    """He_n'(x) = n He_{n-1}(x)."""
    if n <= 0:
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    return n * he_eval(n - 1, x)


@lru_cache(maxsize=None)
def hermite_roots(n: int) -> np.ndarray:
    """Roots of He_n, ascending."""
    x, _ = hermite_e.hermegauss(n)
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for integrals against exp(-x^2/2)/sqrt(2 pi) on R.

    With n nodes the rule is exact for polynomials up to degree 2n - 1.
    Weights are normalized: integrate(1) == 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, n: int = 40) -> "QuadratureRule":
        x, w = hermite_e.hermegauss(n)
        return cls(nodes=x, weights=w / math.sqrt(2.0 * math.pi))

    def integrate(self, values: np.ndarray) -> float:
        """Sum of values(nodes) * weights along the last axis."""
        return np.asarray(values) @ self.weights
