"""Relaxation-order analysis of the moment hierarchy on steady 1D fields.

Starting from a local equilibrium, the moment equations are applied as a
fixed-point sweep: every coefficient with |alpha| >= 2 is replaced by -tau
times the transport terms evaluated on the previous sweep, while density,
velocity and temperature stay fixed.  On steady manufactured fields the time
derivatives of the coefficients vanish, and du/dt, dtheta/dt follow from the
conservation laws with the current sweep's pressure tensor and heat flux.
A sweep is the dense array f[x, a_1, ..., a_D] of f_alpha at grid point x,
trailing shape (M+1,)^D and zero where |alpha| > M, so every shift
alpha +- m e_d is an array slice; its order M is f.shape[1] - 1.

Each sweep reveals one more power of tau: the order-of-magnitude law says
f_alpha = O(tau^ceil(|alpha|/3)) once enough sweeps have run, with support
growing three orders per sweep (f_alpha == 0 exactly for |alpha| >= 1 + 3n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .indices import enumerate_indices, shifted


def fd4(values: np.ndarray, dx: float) -> np.ndarray:
    """4th-order central difference along axis 0 of a periodic grid field."""
    f1 = np.roll(values, -1, axis=0)
    fm1 = np.roll(values, 1, axis=0)
    f2 = np.roll(values, -2, axis=0)
    fm2 = np.roll(values, 2, axis=0)
    return (8.0 * (f1 - fm1) - (f2 - fm2)) / (12.0 * dx)


@dataclass
class ManufacturedField:
    """Steady analytic (rho, u, theta) on a periodic interval, with derivatives."""

    dim: int
    rho: Callable[[np.ndarray], np.ndarray]
    rho_x: Callable[[np.ndarray], np.ndarray]
    u: Sequence[Callable[[np.ndarray], np.ndarray]]
    u_x: Sequence[Callable[[np.ndarray], np.ndarray]]
    theta: Callable[[np.ndarray], np.ndarray]
    theta_x: Callable[[np.ndarray], np.ndarray]
    period: float = 2.0 * math.pi

    def sample(self, n: int) -> "FieldSample":
        x = np.arange(n) * (self.period / n)
        u = np.stack([np.broadcast_to(f(x), x.shape) for f in self.u], axis=1)
        ux = np.stack([np.broadcast_to(f(x), x.shape) for f in self.u_x], axis=1)
        sample = FieldSample(
            x=x, dx=self.period / n, dim=self.dim,
            rho=np.asarray(self.rho(x), dtype=float),
            rho_x=np.broadcast_to(np.asarray(self.rho_x(x), dtype=float), x.shape),
            u=u.astype(float), u_x=ux.astype(float),
            theta=np.asarray(self.theta(x), dtype=float),
            theta_x=np.broadcast_to(np.asarray(self.theta_x(x), dtype=float), x.shape),
        )
        if np.any(~(sample.rho > 0.0)) or np.any(~(sample.theta > 0.0)):  # NaN fails
            raise ValueError("manufactured field must keep rho > 0 and theta > 0")
        return sample


@dataclass
class FieldSample:
    x: np.ndarray
    dx: float
    dim: int
    rho: np.ndarray
    rho_x: np.ndarray
    u: np.ndarray      # (n, D)
    u_x: np.ndarray    # (n, D)
    theta: np.ndarray
    theta_x: np.ndarray


def grades(f: np.ndarray) -> np.ndarray:
    """|alpha| per entry of a sweep f[x, a_1, ..., a_D]."""
    return sum(np.indices(f.shape[1:]))


def maxwellian_iteration_state(sample: FieldSample, max_order: int = 10) -> np.ndarray:
    """The local equilibrium f_0 = rho as a sweep of order ``max_order``."""
    if max_order < 3:
        raise ValueError(f"the iteration needs max_order >= 3 (stress and heat "
                         f"flux), got {max_order}")
    f = np.zeros((sample.x.size,) + (max_order + 1,) * sample.dim)
    f[(slice(None),) + (0,) * sample.dim] = sample.rho
    return f


def _sigma_q1(f: np.ndarray, dim: int):
    """(sigma_d1 for d = 1..D as (n, D), q_1) of dense coefficients f (n, ...):
    sigma_d1 = (1 + delta_d1) f_{e_1+e_d} and q_1 = 2 f_{3e_1} + sum_d f_{2e_d+e_1}."""
    def at(alpha):
        return f[(slice(None),) + alpha]

    sig = np.empty((f.shape[0], dim))
    for d in range(dim):
        e1_ed = tuple((j == d) + (j == 0) for j in range(dim))
        sig[:, d] = (2.0 if d == 0 else 1.0) * at(e1_ed)
    q = 2.0 * at(tuple(3 * (j == 0) for j in range(dim)))
    for d in range(dim):
        q = q + at(tuple(2 * (j == d) + (j == 0) for j in range(dim)))
    return sig, q


def time_derivative_fields(f: np.ndarray, sample: FieldSample, fx: np.ndarray):
    """du/dt and dtheta/dt from the conservation laws on the sweep f.

    The material derivatives are closed with the sweep's own pressure tensor
    and heat flux (spatial variation along x_1 only); ``fx`` is the
    x-derivative of ``f``.  Freezing these fields makes the sweep map linear
    in the coefficients.
    """
    D = sample.dim
    rho, theta = sample.rho, sample.theta
    u1 = sample.u[:, 0]
    sig, _ = _sigma_q1(f, D)
    sig_x, q1_x = _sigma_q1(fx, D)
    p_x = sample.rho_x * theta + rho * sample.theta_x
    dudt = np.empty_like(sample.u)
    for i in range(D):
        dudt[:, i] = -u1 * sample.u_x[:, i] - ((i == 0) * p_x + sig_x[:, i]) / rho
    p_i1 = sig.copy()
    p_i1[:, 0] += rho * theta
    dthdt = -u1 * sample.theta_x - (2.0 / (D * rho)) * (
        q1_x + (p_i1 * sample.u_x).sum(axis=1))
    return dudt, dthdt


def iterate_once(f: np.ndarray, sample: FieldSample, tau: float) -> np.ndarray:
    """One sweep of the fixed-point map f_alpha <- -tau G_alpha(previous),
    with (du/dt, dtheta/dt) from ``time_derivative_fields`` of f."""
    D = sample.dim
    fx = fd4(f, sample.dx)

    def col(v):
        return v.reshape((-1,) + (1,) * D)

    theta, u1 = col(sample.theta), col(sample.u[:, 0])
    a1p1 = np.arange(1.0, f.shape[1] + 1.0).reshape((-1,) + (1,) * (D - 1))
    dudt, dthdt = time_derivative_fields(f, sample, fx)

    def at(arr, d=0, m=0, m1=0):
        """arr at alpha + m e_d + m1 e_1."""
        return shifted(arr, tuple(m * (j == d) + m1 * (j == 0) for j in range(D)))

    G = theta * at(fx, m1=-1)
    G += u1 * fx
    G += a1p1 * at(fx, m1=1)
    G += 0.5 * col(dthdt) * sum(at(f, d, -2) for d in range(D))
    for d in range(D):
        G += col(dudt[:, d]) * at(f, d, -1)
        G += col(sample.u_x[:, d]) * (theta * at(f, d, -1, -1) + u1 * at(f, d, -1)
                                      + a1p1 * at(f, d, -1, 1))
        G += 0.5 * col(sample.theta_x) * (theta * at(f, d, -2, -1) + u1 * at(f, d, -2)
                                          + a1p1 * at(f, d, -2, 1))

    new = -tau * G
    g = grades(f)
    new *= g <= f.shape[1] - 1
    # f_0 and f_{e_j} never appear on the left of the iteration.
    new[:, g < 2] = f[:, g < 2]
    return new


def run_iteration(sample: FieldSample, tau: float, sweeps: int,
                  max_order: int = 10) -> np.ndarray:
    f = maxwellian_iteration_state(sample, max_order)
    for _ in range(sweeps):
        f = iterate_once(f, sample, tau)
    return f


def predicted_exponent(alpha: tuple[int, ...]) -> int | None:
    """Leading power of tau carried by f_alpha, None for conserved indices.

    ceil(|alpha|/3) for |alpha| >= 4; for orders 2 and 3 the sweep-one closed
    forms give power 1, except the fully mixed third-order index e_i+e_j+e_k
    (distinct axes), which only appears at power 2.
    """
    order = sum(alpha)
    if order < 2:
        return None
    if order == 3 and max(alpha) == 1:
        return 2
    if order <= 3:
        return 1
    return math.ceil(order / 3)


@dataclass
class MagnitudeRow:
    alpha: tuple[int, ...]
    order: int
    predicted: int
    measured: float
    degenerate: bool


def magnitude_table(field: ManufacturedField, taus: Sequence[float],
                    sweeps: int = 3, max_order: int = 10, grid_n: int = 64,
                    report_order: int | None = None) -> list[MagnitudeRow]:
    """Least-squares tau-exponents of every moment against the predicted law.

    The moment norm is max |f_alpha| over the grid after ``sweeps`` sweeps.
    Moments that vanish identically on the field (exact zeros; cancellations
    or symmetries) are flagged degenerate and carry measured = nan.  A slope
    needs two distinct tau values, each positive and finite, and at least one
    sweep, and ``report_order`` lies in [2, max_order]; anything else raises
    ValueError, as does a tau so large that its sweeps overflow.
    """
    top = max_order if report_order is None else report_order
    if not 2 <= top <= max_order:
        raise ValueError(f"the report order must lie in [2, {max_order}], got {top}")
    taus = np.asarray(sorted(taus), dtype=float)
    if not np.all((taus > 0.0) & (taus < math.inf)):     # NaN fails the test
        raise ValueError(f"every tau must be positive and finite, got {taus.tolist()}")
    if np.unique(taus).size < 2:
        raise ValueError(f"an exponent fit needs at least two distinct tau values, "
                         f"got {taus.tolist()}")
    if sweeps < 1:
        raise ValueError(f"need at least one sweep, got {sweeps}")
    sample = field.sample(grid_n)
    norms = []
    for tau in taus:
        with np.errstate(over="ignore", invalid="ignore"):
            f = run_iteration(sample, float(tau), sweeps, max_order)
        if not np.isfinite(f).all():
            raise ValueError(f"the sweeps at tau = {tau:g} are not finite")
        norms.append(np.abs(f).max(axis=0))
    norms = np.array(norms)  # (ntau, M+1, ..., M+1)
    rows = []
    for alpha in enumerate_indices(max_order, field.dim):
        pred = predicted_exponent(alpha)
        if pred is None or sum(alpha) > top:
            continue
        col = norms[(slice(None),) + alpha]
        if np.all(col == 0.0):
            rows.append(MagnitudeRow(alpha, sum(alpha), pred, math.nan, True))
            continue
        slope = np.polyfit(np.log(taus), np.log(col), 1)[0]
        rows.append(MagnitudeRow(alpha, sum(alpha), pred, float(slope), False))
    return rows


def _sin(a, w, p):
    return lambda x: a * np.sin(w * x + p)


def _dsin(a, w, p):
    return lambda x: a * w * np.cos(w * x + p)


def field_preset(name: str) -> ManufacturedField:
    """Named manufactured fields for studies and the CLI."""
    if name == "generic-3d":
        return ManufacturedField(
            dim=3,
            rho=lambda x: 1.0 + 0.2 * np.sin(x) + 0.05 * np.cos(2 * x),
            rho_x=lambda x: 0.2 * np.cos(x) - 0.1 * np.sin(2 * x),
            u=(_sin(0.2, 1, 0.3), _sin(0.15, 1, 1.1), _sin(0.1, 2, 2.4)),
            u_x=(_dsin(0.2, 1, 0.3), _dsin(0.15, 1, 1.1), _dsin(0.1, 2, 2.4)),
            theta=lambda x: 1.0 + 0.15 * np.cos(x + 0.7) + 0.05 * np.sin(2 * x + 0.1),
            theta_x=lambda x: -0.15 * np.sin(x + 0.7) + 0.1 * np.cos(2 * x + 0.1),
        )
    if name == "gentle-1d":
        return ManufacturedField(
            dim=1,
            rho=lambda x: 1.0 + 0.1 * np.sin(x),
            rho_x=lambda x: 0.1 * np.cos(x),
            u=(_sin(0.1, 1, 0.5),),
            u_x=(_dsin(0.1, 1, 0.5),),
            theta=lambda x: 1.0 + 0.1 * np.cos(x),
            theta_x=lambda x: -0.1 * np.sin(x),
        )
    if name == "isothermal-3d":
        zero = lambda x: np.zeros_like(x)
        return ManufacturedField(
            dim=3,
            rho=lambda x: 1.0 + 0.2 * np.sin(x),
            rho_x=lambda x: 0.2 * np.cos(x),
            u=(_sin(0.2, 1, 0.0), _sin(0.1, 1, 0.9), zero),
            u_x=(_dsin(0.2, 1, 0.0), _dsin(0.1, 1, 0.9), zero),
            theta=lambda x: np.ones_like(x),
            theta_x=zero,
        )
    raise ValueError(f"unknown field preset {name!r}")


FIELD_PRESETS = ("generic-3d", "gentle-1d", "isothermal-3d")
