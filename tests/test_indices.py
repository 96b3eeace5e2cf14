import math
from itertools import product

import numpy as np
import pytest

from regmom.indices import enumerate_indices, pad_zero, shifted

from oracles import MomentLayout, count


def brute_force(order, dim):
    return sorted((a for a in product(range(order + 1), repeat=dim)
                   if sum(a) <= order), key=lambda a: (sum(a), a))


def test_enumerate_r20():
    assert len(enumerate_indices(3, 3)) == 20


def test_enumerate_trivial():
    assert enumerate_indices(0, 1) == [(0,)]


def test_enumerate_m2_d2():
    idx = enumerate_indices(2, 2)
    assert len(idx) == 6
    assert idx == brute_force(2, 2)


@pytest.mark.parametrize("order,dim", [(0, 1), (3, 1), (5, 2), (4, 3), (7, 3)])
def test_enumerate_matches_brute_force(order, dim):
    assert enumerate_indices(order, dim) == brute_force(order, dim)
    assert count(order, dim) == len(brute_force(order, dim))


def test_graded_order_is_monotone():
    lay = MomentLayout(6, 3)
    orders = [sum(a) for a in lay.indices]
    assert orders == sorted(orders)
    assert lay.grade(0) == slice(0, 1)
    for n in range(7):
        sl = lay.grade(n)
        assert all(sum(lay.unrank(k)) == n for k in range(sl.start, sl.stop))


def test_dim_rejected():
    with pytest.raises(ValueError):
        enumerate_indices(3, 4)
    with pytest.raises(ValueError):
        enumerate_indices(3, 0)


def test_shift_examples():
    f = np.random.default_rng(1).normal(size=(2, 5, 5, 5))
    assert np.all(shifted(f, (-1, 0, 0))[:, 1, 0, 0] == f[:, 0, 0, 0])
    assert np.all(shifted(f, (-1, 0, 0))[:, 0, 1, 0] == 0.0)   # negative component
    assert np.all(shifted(f, (0, 0, 2))[:, 2, 0, 1] == f[:, 2, 0, 3])
    assert np.all(shifted(f, (0, 0, 2))[:, 2, 0, 3] == 0.0)    # leaves the array


def test_shift_round_trip():
    f = np.random.default_rng(2).normal(size=(5, 5, 5))
    for axis in (1, 2, 3):
        for delta in (1, 2, -1, -2):
            step = tuple(delta * (d == axis - 1) for d in range(3))
            back = shifted(shifted(f, step), tuple(-c for c in step))
            for alpha in enumerate_indices(4, 3):
                there = alpha[axis - 1] - delta
                assert back[alpha] == (f[alpha] if 0 <= there < 5 else 0.0)


@pytest.mark.parametrize("order,dim", [(15, 1), (15, 2), (15, 3)])
def test_ordinal_unrank_round_trip(order, dim):
    lay = MomentLayout(order, dim)
    assert lay.size == math.comb(order + dim, dim)
    for k, alpha in enumerate(lay.indices):
        assert lay.ordinal(alpha) == k
        assert lay.unrank(k) == alpha
    assert lay.ordinal(lay.unrank(lay.size - 1)) == lay.size - 1
    assert lay.ordinal((0,) * dim) == 0


def test_ordinal_rejects_out_of_set():
    lay = MomentLayout(3, 2)
    with pytest.raises(ValueError):
        lay.ordinal((4, 0))


def test_slice_shift_matches_scalar_shift():
    shape = (6, 6, 6)
    f = np.random.default_rng(5).normal(size=(3,) + shape)
    for delta in [(-1, 0, 0), (0, -2, 0), (1, 0, 0), (-1, 0, -1), (2, 0, -2),
                  (-6, 0, 0), (0, 7, 0)]:
        out = shifted(f, delta)
        for alpha in np.ndindex(shape):
            b = tuple(x + y for x, y in zip(alpha, delta))
            if all(0 <= c < n for c, n in zip(b, shape)):
                assert np.all(out[(slice(None),) + alpha] == f[(slice(None),) + b])
            else:
                assert np.all(out[(slice(None),) + alpha] == 0.0)


def test_pad_zero_gathers_give_exact_zero():
    lay = MomentLayout(3, 2)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(4, lay.size))
    # ordinal of alpha - e_1, or the padded zero column where that leaves the set
    tab = [lay.ordinal((a - 1, b)) if a > 0 else lay.size for a, b in lay.indices]
    gathered = pad_zero(coeffs)[:, tab]
    for k, alpha in enumerate(lay.indices):
        if alpha[0] == 0:
            assert np.all(gathered[:, k] == 0.0)
        else:
            assert np.all(gathered[:, k] == coeffs[:, lay.ordinal((alpha[0] - 1, alpha[1]))])
