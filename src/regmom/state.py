"""Local Hermite expansion states: frames, coefficients, moments, projections.

A local state is a frame (rho, u, theta) plus a coefficient vector f_alpha
over a MomentLayout.  The distribution it represents is

    f(xi) = sum_alpha f_alpha H_{theta,alpha}((xi - u)/sqrt(theta)).

Low-order coefficients are pinned by the frame:  f_0 = rho, f_{e_i} = 0 and
sum_d f_{2 e_d} = 0 whenever (u, theta) match the conserved moments of f.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hermite import he_table
from .indices import MomentLayout, pad_zero


class UnphysicalStateError(ValueError):
    """Conserved variables with no positive-(rho, theta) macro state."""


class ProjectionConditionWarning(UserWarning):
    """Frame projection into a much colder frame; truncation error grows."""


PROJECTION_THETA_RATIO = 0.2


@dataclass
class MacroState:
    """Frame parameters of the expansion: density, velocity, temperature."""

    rho: float
    u: np.ndarray
    theta: float

    def __post_init__(self):
        self.u = np.atleast_1d(np.asarray(self.u, dtype=float))
        if self.rho <= 0.0 or self.theta <= 0.0:
            raise UnphysicalStateError(
                f"need rho > 0 and theta > 0, got rho={self.rho}, theta={self.theta}")

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def pressure(self) -> float:
        return self.rho * self.theta


@dataclass
class StressHeat:
    """Pressure tensor split p_ij = p delta_ij + sigma_ij, plus heat flux."""

    p: float
    sigma: np.ndarray
    q: np.ndarray

    @property
    def pressure_tensor(self) -> np.ndarray:
        return self.p * np.eye(self.sigma.shape[0]) + self.sigma


def maxwellian_coeffs(macro: MacroState, layout: MomentLayout) -> np.ndarray:
    """Expansion of the local Maxwellian in its own frame: f_0 = rho, rest 0."""
    coeffs = np.zeros(layout.size)
    coeffs[0] = macro.rho
    return coeffs


def conserved_from_coeffs(layout: MomentLayout, coeffs: np.ndarray,
                          u: np.ndarray, theta: np.ndarray):
    """(rho, momentum, energy) of the expansion in frame (u, theta).

    Exact linear functionals of the coefficients:
        rho = f_0
        m_d = u_d f_0 + f_{e_d}
        E   = (|u|^2 f_0 + 2 sum_d u_d f_{e_d} + D theta f_0 + 2 sum_d f_{2e_d}) / 2
    Vectorized: coeffs (..., K), u (..., D), theta (...).
    """
    D = layout.dim
    f0 = coeffs[..., 0]
    fe = np.stack([coeffs[..., layout.ordinal(layout.unit(d + 1))] for d in range(D)],
                  axis=-1)
    f2e = sum(coeffs[..., layout.ordinal(tuple(2 if j == d else 0 for j in range(D)))]
              for d in range(D))
    rho = f0
    mom = u * f0[..., None] + fe
    energy = 0.5 * ((u * u).sum(axis=-1) * f0 + 2.0 * (u * fe).sum(axis=-1)
                    + D * theta * f0 + 2.0 * f2e)
    return rho, mom, energy


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


def stress_heat(layout: MomentLayout, coeffs: np.ndarray, macro: MacroState) -> StressHeat:
    """Stress tensor and heat flux read off the coefficients.

    sigma_ij = f_{e_i+e_j} (i != j),  sigma_jj = 2 f_{2e_j},
    q_k = 2 f_{3e_k} + sum_d f_{2e_d + e_k}.
    Coefficients outside the layout count as zero (truncation).
    """
    D = layout.dim

    def get(alpha):
        return coeffs[..., layout.ordinal(alpha)] if layout.contains(alpha) else 0.0

    sigma = np.zeros(coeffs.shape[:-1] + (D, D))
    for i in range(D):
        for j in range(D):
            a = tuple((i == d) + (j == d) for d in range(D))
            sigma[..., i, j] = (2.0 if i == j else 1.0) * get(a)
    q = np.zeros(coeffs.shape[:-1] + (D,))
    for k in range(D):
        val = 2.0 * get(tuple(3 * (k == d) for d in range(D)))
        for d in range(D):
            val = val + get(tuple(2 * (d == j) + (k == j) for j in range(D)))
        q[..., k] = val
    return StressHeat(p=macro.rho * macro.theta, sigma=sigma, q=q)


def sigma_q1(layout: MomentLayout, coeffs: np.ndarray):
    """(sigma_d1 for d = 1..D as (..., D), q_1) per row: the x_1 column of
    ``stress_heat`` without the full tensor.  Needs order >= 3."""
    D = layout.dim
    sig = np.empty(coeffs.shape[:-1] + (D,))
    for d in range(D):
        a = tuple((j == d) + (j == 0) for j in range(D))
        sig[..., d] = (2.0 if d == 0 else 1.0) * coeffs[..., layout.ordinal(a)]
    q = 2.0 * coeffs[..., layout.ordinal(tuple(3 if d == 0 else 0 for d in range(D)))]
    for d in range(D):
        a = tuple(2 * (j == d) + (j == 0) for j in range(D))
        q = q + coeffs[..., layout.ordinal(a)]
    return sig, q


def reconstruct(layout: MomentLayout, coeffs: np.ndarray, macro: MacroState, xi) -> float:
    """Pointwise value of the expansion at velocity xi."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    v = (xi - macro.u) / math.sqrt(macro.theta)
    tab = he_table(layout.order, v)  # (order+1, D)
    gauss = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    D = layout.dim
    total = 0.0
    for k, alpha in enumerate(layout.indices):
        term = coeffs[k]
        for d in range(D):
            term *= (macro.theta ** (-(alpha[d] + 1) / 2.0) * tab[alpha[d], d] * gauss[d])
        total += term
    return float(total)


def _frame_generator(layout: MomentLayout, g: np.ndarray, du: np.ndarray,
                     dtheta: np.ndarray) -> np.ndarray:
    """One application of the frame-change generator A to coefficients g.

    (A g)_alpha = - sum_d du_d g_{alpha-e_d} - (dtheta/2) sum_d g_{alpha-2e_d}.
    du (..., D), dtheta (...); g (..., K).  A raises the grade, so it is
    nilpotent on the truncated set.
    """
    D = layout.dim
    ge = pad_zero(g)
    out = np.zeros_like(g)
    for d in range(D):
        e = tuple(-1 if j == d else 0 for j in range(D))
        out -= du[..., d, None] * ge[..., layout.shift_table(e)[:-1]]
        e2 = tuple(-2 if j == d else 0 for j in range(D))
        out -= 0.5 * dtheta[..., None] * ge[..., layout.shift_table(e2)[:-1]]
    return out


def project_coeffs(layout: MomentLayout, coeffs: np.ndarray, du: np.ndarray,
                   dtheta: np.ndarray, method: str = "exact",
                   steps: int = 20) -> np.ndarray:
    """Re-expand coefficients in the frame shifted by (du, dtheta).

    Holding the represented distribution fixed while the frame moves along a
    straight path (u + s du, theta + s dtheta) makes the coefficients obey the
    linear ODE  df/ds = A f  with the constant generator A of
    ``_frame_generator``.  Velocity-space moments of order <= M of the
    truncated expansion are preserved exactly.

    method "exact" sums the nilpotent series exp(A) = sum_{k<=M} A^k / k!,
    which is the closed-form solution; "rk4" integrates the same ODE with
    ``steps`` classical Runge-Kutta steps (the two agree to roundoff for
    M <= 4 and to O(steps^-4) otherwise).
    """
    du = np.asarray(du, dtype=float)
    dtheta = np.asarray(dtheta, dtype=float)
    if method == "exact":
        acc = coeffs.copy()
        g = coeffs
        for k in range(1, layout.order + 1):
            g = _frame_generator(layout, g, du, dtheta) / k
            acc += g
        return acc
    if method == "rk4":
        h = 1.0 / steps
        y = coeffs.copy()
        for _ in range(steps):
            k1 = _frame_generator(layout, y, du, dtheta)
            k2 = _frame_generator(layout, y + 0.5 * h * k1, du, dtheta)
            k3 = _frame_generator(layout, y + 0.5 * h * k2, du, dtheta)
            k4 = _frame_generator(layout, y + h * k3, du, dtheta)
            y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y
    raise ValueError(f"unknown projection method {method!r}")


def project_frame(layout: MomentLayout, coeffs: np.ndarray, src: MacroState,
                  dst: MacroState, method: str = "exact", steps: int = 20) -> np.ndarray:
    """Coefficients of the same truncated distribution in the frame of dst.

    Target-frame coefficients above the layout order are discarded.  A target
    temperature below PROJECTION_THETA_RATIO times the source temperature is
    allowed but flagged, since the re-expansion of a narrow Gaussian in a much
    wider basis loses accuracy beyond the matched moments.
    """
    if dst.theta <= 0.0:
        raise UnphysicalStateError(f"target theta must be positive, got {dst.theta}")
    if dst.theta / src.theta < PROJECTION_THETA_RATIO:
        warnings.warn(
            f"projection into a much colder frame (theta ratio "
            f"{dst.theta / src.theta:.3g})", ProjectionConditionWarning, stacklevel=2)
    du = dst.u - src.u
    dtheta = np.asarray(dst.theta - src.theta, dtype=float)
    return project_coeffs(layout, coeffs, du, dtheta, method=method, steps=steps)


def constraint_residual(layout: MomentLayout, coeffs: np.ndarray, rho, theta):
    """Largest violation of f_0 = rho, f_{e_i} = 0, sum_d f_{2e_d} = 0.

    Scaled by rho theta^{|alpha|/2} per constraint order, so 1e-8 is a
    reasonable acceptance threshold for states produced by the solver.
    """
    D = layout.dim
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    res = np.abs(coeffs[..., 0] - rho) / rho
    for d in range(D):
        res = np.maximum(res, np.abs(coeffs[..., layout.ordinal(layout.unit(d + 1))])
                         / (rho * np.sqrt(theta)))
    tr = sum(coeffs[..., layout.ordinal(tuple(2 * (j == d) for j in range(D)))]
             for d in range(D))
    res = np.maximum(res, np.abs(tr) / (rho * theta))
    return res


def enforce_constraints(layout: MomentLayout, coeffs: np.ndarray, rho) -> np.ndarray:
    """Pin f_0 = rho, f_{e_i} = 0 and remove the trace of f_{2e_d}, in place.

    After a projection into the conserved-matched frame these hold up to
    roundoff; pinning them exactly prevents drift over many steps.
    """
    D = layout.dim
    coeffs[..., 0] = rho
    for d in range(D):
        coeffs[..., layout.ordinal(layout.unit(d + 1))] = 0.0
    k2 = [layout.ordinal(tuple(2 * (j == d) for j in range(D))) for d in range(D)]
    trace = sum(coeffs[..., k] for k in k2) / D
    for k in k2:
        coeffs[..., k] -= trace
    return coeffs
