"""Local Hermite expansion states: frames, coefficients, moments, projections.

A local state is a frame (rho, u, theta) plus Hermite coefficients f_alpha.
The distribution it represents is

    f(xi) = sum_alpha f_alpha H_{theta,alpha}((xi - u)/sqrt(theta)).

The moment solver's frames have zero transverse velocity, so the functions
here take the coefficients g[a, k, ...] of an AxisymmetricLayout, batch axes
(cells, faces, interface sides) last.  Low-order coefficients are pinned by
the frame: g_00 = rho, g_10 = 0 and g_20 + (D-1) g_01 = sum_d f_{2e_d} = 0
whenever (u, theta) match the conserved moments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indices import AxisymmetricLayout, lead
from .indices import pad_zero  # noqa: F401  (bench/workloads.py --trace 1 wraps this name)


class UnphysicalStateError(ValueError):
    """Conserved variables with no positive-(rho, theta) macro state."""


@dataclass
class MacroState:
    """Frame parameters of the expansion: density, velocity, temperature."""

    rho: float
    u: np.ndarray
    theta: float

    def __post_init__(self):
        self.u = np.atleast_1d(np.asarray(self.u, dtype=float))
        if not (self.rho > 0.0 and self.theta > 0.0):      # NaN fails the test
            raise UnphysicalStateError(
                f"need rho > 0 and theta > 0, got rho={self.rho}, theta={self.theta}")

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def pressure(self) -> float:
        return self.rho * self.theta


def conserved_from_coeffs(layout: AxisymmetricLayout, g: np.ndarray,
                          u: np.ndarray, theta: np.ndarray):
    """(rho, momentum, energy) of the axisymmetric expansion in frame (u, theta).

    Exact linear functionals of the coefficients:
        rho = g_00
        m   = u g_00 + g_10 e_1
        E   = (|u|^2 g_00 + 2 u_1 g_10 + D theta g_00 + 2 (g_20 + (D-1) g_01)) / 2
    Vectorized: g (M+1, K, ...), u (..., D), theta (...).
    """
    g00, g10 = g[0, 0], g[1, 0]
    mom = u * g00[..., None]
    mom[..., 0] += g10
    energy = 0.5 * ((u * u).sum(axis=-1) * g00 + 2.0 * u[..., 0] * g10
                    + layout.dim * theta * g00 + 2.0 * _trace(layout, g))
    return g00, mom, energy


def macro_from_conserved(rho, mom, energy, dim: int | None = None):
    """Invert (rho, momentum, energy) to (u, theta); raises when unphysical.

    Scalar inputs return a MacroState; array inputs return (u, theta) arrays.
    """
    mom = np.asarray(mom, dtype=float)
    arrays = mom.ndim > 1 or np.ndim(rho) > 0
    rho = np.asarray(rho, dtype=float)
    energy = np.asarray(energy, dtype=float)
    D = mom.shape[-1] if dim is None else dim
    if np.any(~(rho > 0.0)):      # NaN fails the test
        raise UnphysicalStateError("non-positive density")
    u = mom / rho[..., None]
    internal = energy - 0.5 * (mom * mom).sum(axis=-1) / rho
    if np.any(~(internal > 0.0)):
        raise UnphysicalStateError("non-positive internal energy")
    theta = 2.0 * internal / (D * rho)
    if arrays:
        return u, theta
    return MacroState(rho=float(rho), u=u, theta=float(theta))


def project_coeffs(layout: AxisymmetricLayout, g: np.ndarray, du1, dtheta) -> np.ndarray:
    """Re-expand coefficients g (M+1, K, ...) in the frame shifted by (du1, dtheta).

    Holding the distribution fixed while the frame moves gives df/ds = A f
    with A = -du1 S_a - (dtheta/2)(S_a^2 + S_k), S_a and S_k the unit shifts
    in a and k.  The parts commute, so exp(A) is the series sum_m h_m S_a^m of
    exp(-du1 z - dtheta z^2 / 2), with (m+1) h_{m+1} = -du1 h_m - dtheta h_{m-1},
    then sum_l (-dtheta/2)^l / l! S_k^l.  Both raise the grade, so they stop at
    the layout order; velocity moments of order <= M are preserved exactly.
    """
    neg_du1 = -np.asarray(du1, dtype=float)
    dtheta = np.asarray(dtheta, dtype=float)
    out = g.copy()
    h_prev, h = 1.0, neg_du1
    for m in range(1, layout.order + 1):
        out[m:] += h * g[:-m]
        if m < layout.order:
            h_prev, h = h, (neg_du1 * h - dtheta * h_prev) / (m + 1)
    acc = out.copy()
    c, half = 1.0, -0.5 * dtheta
    for l in range(1, layout.shape[1]):
        c = c * half / l
        acc[:, l:] += c * out[:, :-l]
    acc *= lead(layout.mask, acc)
    return acc


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


def constraint_residual(layout: AxisymmetricLayout, g: np.ndarray, rho, theta):
    """Largest violation of g_00 = rho, g_10 = 0, g_20 + (D-1) g_01 = 0.

    Scaled by rho theta^{|alpha|/2} per constraint order, so 1e-8 is a
    reasonable acceptance threshold for states produced by the solver.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    res = np.abs(g[0, 0] - rho) / rho
    res = np.maximum(res, np.abs(g[1, 0]) / (rho * np.sqrt(theta)))
    return np.maximum(res, np.abs(_trace(layout, g)) / (rho * theta))


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
