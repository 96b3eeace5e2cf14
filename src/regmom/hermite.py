"""Roots of the probabilists' Hermite polynomials.

He_n is orthogonal against the weight exp(-x^2/2):

    He_0(x) = 1,  He_1(x) = x,  He_{n+1}(x) = x He_n(x) - n He_{n-1}(x).

The largest root of He_{M+1} bounds the characteristic speeds of the order-M
moment system in units of sqrt(theta).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e


@lru_cache(maxsize=None)
def hermite_roots(n: int) -> np.ndarray:
    """Roots of He_n, ascending."""
    x, _ = hermite_e.hermegauss(n)
    x.setflags(write=False)
    return x
