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

A ``Projection`` re-expands coefficients in a shifted frame.  It computes
only the live entries a + 2k <= M, returns a zero corner for any input, and
works in caller-owned buffers over which it builds all its views once: a
solver state owns two, so that a step neither allocates coefficient-sized
arrays nor rebuilds views.  ``project_coeffs`` builds one and calls it.
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


class Projection:
    """The re-expansion of ``project_coeffs``, over fixed caller-owned buffers.

    Holding the distribution fixed while the frame moves by (du1, dtheta)
    gives df/ds = A f with A = -du1 S_a - (dtheta/2)(S_a^2 + S_k), S_a and S_k
    the unit shifts in a and k.  The parts commute, so exp(A) is the series
    sum_m h_m S_a^m of exp(-du1 z - dtheta z^2 / 2), with
    (m+1) h_{m+1} = -du1 h_m - dtheta h_{m-1}, then
    sum_l (-dtheta/2)^l / l! S_k^l.  Both raise the grade, so they stop at the
    layout order; velocity moments of order <= M are preserved exactly.

    Only the live triangle a + 2k <= M is computed, one (a, k) entry at a
    time: each entry's batch values are one contiguous run of a C-contiguous
    buffer, which numpy passes through its unbuffered loop (a strided slice
    across entries goes through the buffered iterator, at several times the
    cost per value).  Entry (a, k) sums its a-series terms in the order
    m = 1, 2, ..., and the k-series runs in place from the highest k down, so
    each entry still reads its lower neighbours' a-series values.  The live
    entries depend on g's live entries alone, and the corner a + 2k > M is
    zero for any g.

    g, out and work are arrays of one shape (M+1, K, ...), batch axes last;
    out must not alias g, and work holds the series coefficients.  Every view
    the series read and write (the series rows, each term's accumulator,
    coefficient and source, the corner) is built here, once; a call refills
    them from whatever g holds then and returns out.
    """

    def __init__(self, layout: AxisymmetricLayout, g: np.ndarray, out: np.ndarray,
                 work: np.ndarray):
        if not g.shape == out.shape == work.shape:
            raise ValueError(f"g, out and work must share one shape, got "
                             f"{g.shape}, {out.shape} and {work.shape}")
        order, n_k = layout.order, layout.shape[1]
        self.g, self.out = g, out
        rows = [work[r // n_k, r % n_k, ...] for r in range(order + 1)]
        self.h, self.prod = rows[:order], rows[order]    # h[m-1] holds h_m
        self.c = rows[:n_k - 1]                          # c[l-1]: (-dtheta/2)^l / l!
        self.dtheta = np.empty(g.shape[2:])
        src, dst = ([[x[a, k, ...] for k in range(n_k)] for a in range(order + 1)]
                    for x in (g, out))
        self.a_terms = [(dst[a][k], self.h[m - 1], src[a - m][k])
                        for a in range(1, order + 1)
                        for k in range(min(n_k, (order - a) // 2 + 1))
                        for m in range(1, a + 1)]
        self.k_terms = [(dst[a][k], self.c[l - 1], dst[a][k - l])
                        for a in range(order - 1 if n_k > 1 else 0)
                        for k in range((order - a) // 2, 0, -1)
                        for l in range(1, k + 1)]
        self.corner = [out[layout.top_a[k] + 1:, k] for k in range(1, n_k)]

    def __call__(self, du1, dtheta) -> np.ndarray:
        """out = g re-expanded in the frame shifted by (du1, dtheta), each
        shaped like (or broadcast to) the batch axes."""
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.true_divide
        h, prod, c, dth = self.h, self.prod, self.c, self.dtheta
        neg_du1 = np.negative(du1, h[0])                 # h_1 = -du1
        dth[...] = dtheta
        np.copyto(self.out, self.g)
        for m in range(1, len(h)):
            mul(neg_du1, h[m - 1], h[m])
            if m == 1:                                   # h_0 = 1
                sub(h[m], dth, h[m])
            else:
                sub(h[m], mul(dth, h[m - 2], prod), h[m])
            div(h[m], m + 1, h[m])
        for acc, hm, src in self.a_terms:
            add(acc, mul(hm, src, prod), acc)
        if c:
            mul(-0.5, dth, c[0])
            for l in range(2, len(c) + 1):
                mul(c[l - 2], c[0], c[l - 1])
                div(c[l - 1], l, c[l - 1])
            for acc, cl, src in self.k_terms:
                add(acc, mul(cl, src, prod), acc)
        for corner in self.corner:
            corner.fill(0.0)
        return self.out


def project_coeffs(layout: AxisymmetricLayout, g: np.ndarray, du1, dtheta,
                   out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Re-expand coefficients g (M+1, K, ...) in the frame shifted by (du1,
    dtheta): one ``Projection`` over g, ``out`` (must not alias g) and
    ``work``, arrays shaped like g that are allocated when omitted."""
    out = np.empty(g.shape) if out is None else out
    work = np.empty(g.shape) if work is None else work
    return Projection(layout, g, out, work)(du1, dtheta)


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
