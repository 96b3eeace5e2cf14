"""Local Hermite expansion states: frames, coefficients, moments, projections.

A local state is a frame (rho, u, theta) plus Hermite coefficients f_alpha.
The distribution it represents is

    f(xi) = sum_alpha f_alpha H_{theta,alpha}((xi - u)/sqrt(theta)).

The moment solver's frames have zero transverse velocity, so a frame here is
(rho, u_1, theta), each an array shaped like the batch axes, and the
functions take the coefficients g[a, k, ...] of an AxisymmetricLayout, batch
axes (cells, faces, interface sides) last.  Low-order coefficients are
pinned by the frame: g_00 = rho, g_10 = 0 and g_20 + (D-1) g_01 =
sum_d f_{2e_d} = 0 whenever (u_1, theta) match the conserved moments.
Nothing here checks positivity: ``solver.step`` tests rho > 0 and theta > 0
once, after ``macro_from_conserved``.

``project_coeffs`` computes only the live entries a + 2k <= M and returns a
zero corner for any input; it writes into caller-owned ``out`` and ``work``
buffers, which is how a solver step avoids allocating coefficient-sized
arrays.
"""
from __future__ import annotations

import numpy as np

from .indices import AxisymmetricLayout
from .indices import pad_zero  # noqa: F401  (bench/workloads.py --trace 1 wraps this name)


def conserved_from_coeffs(layout: AxisymmetricLayout, g: np.ndarray, u1, theta):
    """(rho, m_1, E) of the axisymmetric expansion in frame (u_1, theta).

    Exact linear functionals of the coefficients:
        rho = g_00
        m_1 = u_1 g_00 + g_10
        E   = (u_1^2 g_00 + 2 u_1 g_10 + D theta g_00 + 2 (g_20 + (D-1) g_01)) / 2
    The transverse momenta are 0.  Vectorized: g (M+1, K, ...), u1 and theta (...).
    """
    g00, g10 = g[0, 0], g[1, 0]
    energy = 0.5 * (u1 * u1 * g00 + 2.0 * u1 * g10
                    + layout.dim * theta * g00 + 2.0 * _trace(layout, g))
    return g00, u1 * g00 + g10, energy


def macro_from_conserved(rho, m1, energy, dim: int):
    """The frame (u_1, theta) of (rho, m_1, E), elementwise and unchecked:
    the caller tests rho > 0 and theta > 0 (NaN fails both)."""
    internal = energy - 0.5 * (m1 * m1) / rho
    return m1 / rho, 2.0 * internal / (dim * rho)


def project_coeffs(layout: AxisymmetricLayout, g: np.ndarray, du1, dtheta,
                   out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Re-expand coefficients g (M+1, K, ...) in the frame shifted by (du1, dtheta).

    Holding the distribution fixed while the frame moves gives df/ds = A f
    with A = -du1 S_a - (dtheta/2)(S_a^2 + S_k), S_a and S_k the unit shifts
    in a and k.  The parts commute, so exp(A) is the series sum_m h_m S_a^m of
    exp(-du1 z - dtheta z^2 / 2), with (m+1) h_{m+1} = -du1 h_m - dtheta h_{m-1},
    then sum_l (-dtheta/2)^l / l! S_k^l.  Both raise the grade, so they stop at
    the layout order; velocity moments of order <= M are preserved exactly.

    Only the live triangle a + 2k <= M is computed, one (a, k) entry at a
    time: each entry's batch values are one contiguous run, which numpy
    passes through its unbuffered loop (a strided slice across entries goes
    through the buffered iterator, at several times the cost per value).
    Entry (a, k) sums its a-series terms in the order m = 1, 2, ..., and the
    k-series runs in place from the highest k down, so each entry still reads
    its lower neighbours' a-series values.  The live entries depend on g's
    live entries alone, and the corner a + 2k > M is zero for any g.
    ``out`` (C-contiguous, must not alias g) and ``work`` are arrays shaped
    like g, allocated when omitted; ``work`` holds the series coefficients.
    """
    order, n_k = layout.order, layout.shape[1]
    batch = g.shape[2:]
    neg_du1 = np.negative(du1, out=np.empty(batch)).reshape(-1)
    dth = np.empty(batch)
    dth[...] = dtheta
    dtheta = dth.reshape(-1)
    out = np.empty(g.shape) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("project_coeffs needs a C-contiguous out")
    np.copyto(out, g)
    src = g.reshape(order + 1, n_k, -1)
    dst = out.reshape(src.shape)
    rows = (np.empty(g.shape) if work is None else work).reshape(-1, src.shape[-1])
    h, prod = rows[:order], rows[order]      # h[m-1] holds h_m; prod one product
    h[:1] = neg_du1
    for m in range(1, order):
        np.multiply(neg_du1, h[m - 1], out=h[m])
        if m == 1:                           # h_0 = 1
            np.subtract(h[m], dtheta, out=h[m])
        else:
            np.subtract(h[m], np.multiply(dtheta, h[m - 2], out=prod), out=h[m])
        h[m] /= m + 1
    for a in range(1, order + 1):
        for k in range(min(n_k, (order - a) // 2 + 1)):
            acc = dst[a, k]
            for m in range(1, a + 1):
                acc += np.multiply(h[m - 1], src[a - m, k], out=prod)
    if n_k > 1:
        c = rows[:n_k - 1]                   # c[l-1] holds (-dtheta/2)^l / l!
        np.multiply(-0.5, dtheta, out=c[0])
        for l in range(2, n_k):
            np.multiply(c[l - 2], c[0], out=c[l - 1])
            c[l - 1] /= l
        for a in range(order - 1):
            for k in range((order - a) // 2, 0, -1):
                acc = dst[a, k]
                for l in range(1, k + 1):
                    acc += np.multiply(c[l - 1], dst[a, k - l], out=prod)
    return layout.zero_corner(out)


def _trace(layout: AxisymmetricLayout, g: np.ndarray) -> np.ndarray:
    """sum_d f_{2e_d} = g_20 + (D-1) g_01."""
    if layout.dim == 1:
        return g[2, 0]
    return g[2, 0] + (layout.dim - 1) * g[0, 1]


def sigma11_q1(layout: AxisymmetricLayout, g: np.ndarray):
    """(sigma_11, q_1) per row: 2 g_20 and 3 g_30 + (D-1) g_11."""
    q1 = 3.0 * g[3, 0]
    if layout.dim > 1:
        q1 = q1 + (layout.dim - 1) * g[1, 1]
    return 2.0 * g[2, 0], q1


def enforce_constraints(layout: AxisymmetricLayout, g: np.ndarray, rho) -> np.ndarray:
    """Pin g_00 = rho, g_10 = 0 and remove the trace g_20 + (D-1) g_01, in place.

    After a projection into the conserved-matched frame these hold up to
    roundoff; pinning them exactly prevents drift over many steps.  Each
    f_{2e_d} loses trace/D, so g_20 and g_01 do.
    """
    g[0, 0] = rho
    g[1, 0] = 0.0
    part = _trace(layout, g) / layout.dim
    g[2, 0] -= part
    if layout.dim > 1:
        g[0, 1] -= part
    return g
