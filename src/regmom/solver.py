"""1-D finite-volume integrator for the regularized moment system.

One time step is a Lie splitting of three substeps:

  (a) hyperbolic transport.  In a frame with fixed (u, theta) the moment
      system is conservative with per-coefficient flux

          F_(a,k) = theta g_(a-1,k) + u_1 g_(a,k) + (a+1) g_(a+1,k),

      the coefficient ladder of multiplication by xi_1 on the axisymmetric
      coefficients g[a, k, cell] (indices.AxisymmetricLayout; the cell axis
      is last, so every ladder shift runs along all cells at once).  At each
      interface both neighbor states are re-expanded in the shared
      arithmetic-mean frame, a local Lax-Friedrichs flux is formed with
      wavespeed bound |u_1| + c_{M+1} sqrt(theta) (c_{M+1} the largest Hermite
      root), and the flux vector is re-expanded into each neighbor's frame
      for the update.  The left and right sides of all interfaces go through
      one projection and one flux call, and both back-projections through one.
      Re-expansion preserves the conserved moments, so mass, momentum and
      energy telescope exactly across interfaces.  After the update the cell
      frame is moved to match the new conserved moments.

  (b) top-order regularization.  The closure value for the order-(M+1)
      coefficients enters only through (a+1) d g_(a+1,k) / dx on the top
      retained grade a + 2k = M; with the linear closure this is a diffusion
      with coefficient (a+1) tau theta per coefficient.  Stiffness picks how
      the diffusive core is integrated: explicitly when its stable step
      dx^2 / (2 max (M+1) tau theta) is at least the advective dx / max
      wavespeed, otherwise by backward Euler, with the tridiagonal systems
      of all top entries stacked block-diagonally and solved in one banded
      call.  The extra terms of the nonlinear closure are never stiff and
      are always explicit.

  (c) BGK relaxation, exact in the local frame: every coefficient of grade
      a + 2k >= 2 decays by exp(-dt/tau) in total; conserved moments are untouched.
      The decay is applied as two half-steps bracketing the transport
      (a symmetrized placement): a trailing full decay biases the stress and
      heat flux low by dt/(2 tau) relative, which buries the O(tau^2)
      transport-limit deviation the acceptance checks measure, while the
      bracketed form leaves only an O((dt/tau)^2) bias.

The time step is dt = CFL * dx / max wavespeed in either case.
Breakdown (non-positive or NaN density or temperature after recovery)
raises, with the offending cell and time; no limiter masks it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import hermite_roots
from .indices import AxisymmetricLayout, lead
from .indices import pad_zero  # noqa: F401  (bench/workloads.py --trace 1 wraps this name)
from .closure import TopOrderClosure
from .scenarios import Scenario, check_mesh, integrate
from .state import (conserved_from_coeffs, enforce_constraints, macro_from_conserved,
                    project_coeffs, sigma11_q1)


class SolverBreakdown(RuntimeError):
    """Unphysical cell state; carries the cell index and time of failure."""

    def __init__(self, message: str, cell: int, time: float):
        super().__init__(f"{message} (cell {cell}, t = {time:.6g})")
        self.cell = cell
        self.time = time


@dataclass
class SolverConfig:
    """Numerical parameters of a run; the physics is the Scenario's."""

    order: int
    n_cells: int
    cfl: float = 0.95
    closure: str = "linear"        # or "nonlinear"
    t_stop: float | None = None
    steady_tol: float | None = None
    t_max: float = 400.0

    def __post_init__(self):
        if self.order < 3:
            raise ValueError(f"moment order must be >= 3, got {self.order}")
        check_mesh(self.n_cells, self.cfl)
        if self.closure not in ("linear", "nonlinear"):
            raise ValueError(f"unknown closure {self.closure!r}")

    @classmethod
    def from_scenario(cls, scenario: Scenario, order: int, n_cells: int | None = None,
                      **overrides) -> "SolverConfig":
        kw = dict(order=order,
                  n_cells=scenario.default_cells if n_cells is None else n_cells,
                  t_stop=scenario.t_stop, steady_tol=scenario.steady_tol,
                  t_max=scenario.t_max)
        kw.update(overrides)
        return cls(**kw)


@dataclass
class SimState:
    """Per-cell frames and coefficients on a uniform mesh, plus diagnostics."""

    scenario: Scenario   # physics, domain and far fields of the run
    layout: AxisymmetricLayout
    top: TopOrderClosure     # closure offsets of the layout's top grade
    x: np.ndarray
    dx: float
    rho: np.ndarray      # (n,)
    u: np.ndarray        # (n, D)
    theta: np.ndarray    # (n,)
    coeffs: np.ndarray   # (M+1, K, n), local-frame axisymmetric coefficients g
    t: float = 0.0
    steps: int = 0
    last_dt: float = 0.0
    dt_min: float = math.inf
    dt_max: float = 0.0
    max_speed: float = 0.0
    residual: float = math.inf
    converged: bool = False
    boundary_account: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def conserved_totals(self) -> np.ndarray:
        """(mass, momentum_1..D, energy) integrated over the domain."""
        D = self.u.shape[1]
        tot = np.empty(D + 2)
        tot[0] = self.rho.sum() * self.dx
        tot[1:1 + D] = (self.rho[:, None] * self.u).sum(axis=0) * self.dx
        tot[-1] = (0.5 * self.rho * (self.u ** 2).sum(axis=1)
                   + 0.5 * D * self.rho * self.theta).sum() * self.dx
        return tot


def make_state(scenario: Scenario, cfg: SolverConfig) -> SimState:
    """Equilibrium initial state: cell-centered macro fields, Maxwellian coefficients."""
    layout = AxisymmetricLayout(cfg.order, scenario.dim)
    n = cfg.n_cells
    dx = (scenario.x_hi - scenario.x_lo) / n
    x = scenario.x_lo + (np.arange(n) + 0.5) * dx
    rho = np.asarray(scenario.rho0(x), dtype=float)
    u = np.asarray(scenario.u0(x), dtype=float).reshape(n, scenario.dim)
    theta = np.asarray(scenario.theta0(x), dtype=float)
    ghost_u = [np.asarray(gh[1])[1:] for gh in scenario.far_fields or ()]
    if np.any(u[:, 1:]) or any(np.any(v) for v in ghost_u):
        raise ValueError("the axisymmetric layout needs zero transverse velocity "
                         "in the initial field and in the ghost states")
    coeffs = np.zeros(layout.shape + (n,))
    coeffs[0, 0] = rho
    state = SimState(scenario=scenario, layout=layout, top=TopOrderClosure(layout),
                     x=x, dx=dx, rho=rho, u=u, theta=theta, coeffs=coeffs)
    state.boundary_account = np.zeros(scenario.dim + 2)
    return state


def flux_coefficients(layout: AxisymmetricLayout, g: np.ndarray, u1, theta) -> np.ndarray:
    """Coefficient flux in a fixed frame (u1, theta).

    Multiplication by xi_1 maps g to
    theta g_(a-1,k) + u_1 g_(a,k) + (a+1) g_(a+1,k); the grade-(M+1)
    coefficients count as zero (Grad truncation).
    """
    F = np.asarray(u1, dtype=float) * g
    F[1:] += np.asarray(theta, dtype=float) * g[:-1]
    F[:-1] += lead(np.arange(1.0, layout.order + 1), g) * g[1:]
    F *= lead(layout.mask, g)
    return F


def _extend(scenario: Scenario, rho, u, theta, coeffs):
    """State arrays with one ghost cell on each side (coeffs: cells last)."""
    if scenario.boundary == "periodic":
        ring = np.arange(-1, rho.size + 1) % rho.size
        return rho[ring], u[ring], theta[ring], coeffs[..., ring]
    gl, gr = scenario.far_fields
    co_g = np.zeros(coeffs.shape[:-1] + (2,))
    co_g[0, 0] = gl[0], gr[0]
    rho_e = np.concatenate([[gl[0]], rho, [gr[0]]])
    u_e = np.concatenate([np.asarray(gl[1], dtype=float)[None, :], u,
                          np.asarray(gr[1], dtype=float)[None, :]], axis=0)
    th_e = np.concatenate([[gl[2]], theta, [gr[2]]])
    co_e = np.concatenate([co_g[..., :1], coeffs, co_g[..., 1:]], axis=-1)
    return rho_e, u_e, th_e, co_e


def _sides(x):
    """x[..., :-1] and x[..., 1:], the two sides of each face, on a new axis -2."""
    out = np.empty(x.shape[:-1] + (2, x.shape[-1] - 1))
    out[..., 0, :], out[..., 1, :] = x[..., :-1], x[..., 1:]
    return out


def _solve_banded_tridiag(lower, diag, upper, rhs):
    """Solve independent tridiagonal systems with one banded solve.

    lower, diag, upper are (..., n): one system per leading index, with
    lower[..., 0] and upper[..., -1] unused.  rhs is (..., n) or (..., n, m).
    The systems are stacked block-diagonally with zero coupling between blocks.
    """
    from scipy.linalg import solve_banded
    ab = np.zeros((3,) + diag.shape)
    ab[0, ..., 1:] = upper[..., :-1]
    ab[1] = diag
    ab[2, ..., :-1] = lower[..., 1:]
    b = rhs.reshape((diag.size,) + rhs.shape[diag.ndim:])
    return solve_banded((1, 1), ab.reshape(3, -1), b).reshape(rhs.shape)


def _solve_cyclic_tridiag(lower, diag, upper, corner_tr, corner_bl, rhs):
    """Sherman-Morrison reduction of cyclic tridiagonal systems, batched as in
    _solve_banded_tridiag with one corner pair (corner_tr, corner_bl) per system;
    the correction vector rides along as one more right-hand-side column."""
    gamma = -diag[..., 0]
    d = diag.copy()
    d[..., 0] -= gamma
    d[..., -1] -= corner_tr * corner_bl / gamma
    uvec = np.zeros(diag.shape + (1,))
    uvec[..., 0, 0], uvec[..., -1, 0] = gamma, corner_bl
    both = np.concatenate([rhs.reshape(diag.shape + (-1,)), uvec], axis=-1)
    sol = _solve_banded_tridiag(lower, d, upper, both)
    y, z = sol[..., :-1], sol[..., -1:]                 # (..., n, m), (..., n, 1)
    ratio = (corner_tr / gamma)[..., None]
    vy = y[..., 0, :] + ratio * y[..., -1, :]
    vz = z[..., 0, :] + ratio * z[..., -1, :]
    return (y - z * (vy / (1.0 + vz))[..., None, :]).reshape(rhs.shape)


def _regularize(state: SimState, cfg: SolverConfig, dt: float, explicit: bool,
                tau, coeffs) -> None:
    """Substep (b): apply the top-order closure as a flux on the grade a + 2k = M
    of ``coeffs``, in the state's frames."""
    sc, layout, top, dx = state.scenario, state.layout, state.top, state.dx
    top_a, top_k = layout.top_a, layout.top_k
    rho_e, u_e, th_e, co_e = _extend(sc, state.rho, state.u, state.theta, coeffs)
    co_top = co_e[top_a, top_k]
    dfdx = (co_top[:, 1:] - co_top[:, :-1]) / dx            # (n_top, n+1) face gradients
    rho_f = 0.5 * (rho_e[:-1] + rho_e[1:])
    th_f = 0.5 * (th_e[:-1] + th_e[1:])
    tau_f = sc.tau_model.tau(sc.kn, rho_f, th_f)

    c_lin = top.linear(th_f, tau_f, dfdx)                   # (n_top, n+1)
    if cfg.closure == "nonlinear":
        p_e = rho_e * th_e
        p_x = (p_e[1:] - p_e[:-1]) / dx
        co_f = 0.5 * (co_e[..., :-1] + co_e[..., 1:])
        sig_cells, q1_cells = sigma11_q1(layout, co_e)
        sig_f = 0.5 * (sig_cells[:-1] + sig_cells[1:])
        q1_f = 0.5 * (q1_cells[:-1] + q1_cells[1:])
        c_full = top.nonlinear(rho_f, th_f, tau_f, p_x, co_f, dfdx, sig_f, q1_f)
    else:
        c_full = c_lin

    rate = dt / dx * top.transport_factor[:, None]
    if explicit:
        coeffs[top_a, top_k] -= rate * (c_full[:, 1:] - c_full[:, :-1])
        return

    # Backward Euler on the diffusive core; the nonlinear remainder (if any)
    # is non-stiff and goes in explicitly first.
    if cfg.closure == "nonlinear":
        rest = c_full - c_lin
        coeffs[top_a, top_k] -= rate * (rest[:, 1:] - rest[:, :-1])
    kappa_f = tau_f * th_f                                   # (n+1,)
    g = (dt * (top_a + 1) / dx**2)[:, None]                  # one system per top entry
    lower = -g * kappa_f[:-1]
    upper = -g * kappa_f[1:]
    diag = 1.0 + g * (kappa_f[:-1] + kappa_f[1:])
    rhs = coeffs[top_a, top_k]
    if sc.boundary == "periodic":
        # ghost faces coincide: corner couplings close each ring
        sol = _solve_cyclic_tridiag(lower, diag, upper, lower[:, 0], upper[:, -1], rhs)
    else:
        # far-field ghosts hold equilibrium: Dirichlet zero on the top grade
        sol = _solve_banded_tridiag(lower, diag, upper, rhs)
    coeffs[top_a, top_k] = sol


def step(state: SimState, cfg: SolverConfig, dt_limit: float | None = None) -> float:
    """Advance the state by one time step in place; returns dt taken."""
    sc, lay = state.scenario, state.layout
    D = lay.dim
    dx = state.dx

    c_top = hermite_roots(cfg.order + 1)[-1]
    lam = np.abs(state.u[:, 0]) + c_top * np.sqrt(state.theta)
    tau = np.asarray(sc.tau_model.tau(sc.kn, state.rho, state.theta), dtype=float)
    dt_adv = dx / lam.max()
    kappa_max = (cfg.order + 1) * float((tau * state.theta).max())
    # diffusion is integrated explicitly exactly when it is not stiff
    explicit = 0.5 * dx**2 / kappa_max >= dt_adv
    dt = cfg.cfl * dt_adv
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    state.max_speed = float(lam.max())

    # --- (c) leading half of the relaxation --------------------------------
    relaxed = lead((lay.grades >= 2) & (lay.grades <= lay.order), state.coeffs)
    state.coeffs *= np.where(relaxed, np.exp(-0.5 * dt / tau), 1.0)

    # --- (a) hyperbolic transport in shared interface frames -------------
    rho_e, u_e, th_e, co_e = _extend(sc, state.rho, state.u, state.theta, state.coeffs)
    u_f = 0.5 * (u_e[:-1] + u_e[1:])            # (n+1, D)
    th_f = 0.5 * (th_e[:-1] + th_e[1:])
    g_lr = project_coeffs(lay, _sides(co_e), u_f[:, 0] - _sides(u_e[:, 0]),
                          th_f - _sides(th_e))
    f_lr = flux_coefficients(lay, g_lr, u_f[:, 0], th_f)
    # substep (a) transports with the frozen interface-frame flux, a linear
    # system whose extreme characteristic speed is exactly this bound
    lam_f = np.abs(u_f[:, 0]) + c_top * np.sqrt(th_f)
    phi = (0.5 * (f_lr[:, :, 0] + f_lr[:, :, 1])
           - 0.5 * lam_f * (g_lr[:, :, 1] - g_lr[:, :, 0]))

    # conserved fluxes through the domain boundaries, for the books
    bm, bp, be = conserved_from_coeffs(lay, phi[..., [0, -1]], u_f[[0, -1]], th_f[[0, -1]])
    bflux = np.concatenate([bm[:, None], bp, be[:, None]], axis=1)  # (2, D+2)
    state.boundary_account += dt * (bflux[0] - bflux[1])

    # the faces of each cell are its left (side 0) and right (side 1) neighbours
    phi_lr = project_coeffs(lay, _sides(phi), state.u[:, 0] - _sides(u_f[:, 0]),
                            state.theta - _sides(th_f))
    state.coeffs -= dt / dx * (phi_lr[:, :, 1] - phi_lr[:, :, 0])

    # --- conserved recovery and frame move --------------------------------
    rho_new, mom, energy = conserved_from_coeffs(lay, state.coeffs, state.u,
                                                 state.theta)
    internal = energy - 0.5 * (mom * mom).sum(axis=1) / rho_new
    bad = ~(rho_new > 0.0) | ~(internal > 0.0)     # NaN counts as bad
    if bad.any():
        cell = int(np.argmax(bad))
        raise SolverBreakdown("non-positive or NaN density or temperature after "
                              "transport", cell, state.t)
    u_new, th_new = macro_from_conserved(rho_new, mom, energy, dim=D)
    state.coeffs = project_coeffs(lay, state.coeffs, u_new[:, 0] - state.u[:, 0],
                                  th_new - state.theta)
    enforce_constraints(lay, state.coeffs, rho_new)
    state.rho, state.u, state.theta = rho_new, u_new, th_new

    # --- (b) top-order regularization -------------------------------------
    tau = np.asarray(sc.tau_model.tau(sc.kn, state.rho, state.theta), dtype=float)
    _regularize(state, cfg, dt, explicit, tau, state.coeffs)

    # --- (c) trailing half of the relaxation --------------------------------
    state.coeffs *= np.where(relaxed, np.exp(-0.5 * dt / tau), 1.0)

    state.t += dt
    state.steps += 1
    state.last_dt = dt
    state.dt_min = min(state.dt_min, dt)
    state.dt_max = max(state.dt_max, dt)
    return dt


def run(state: SimState, cfg: SolverConfig) -> SimState:
    """Integrate to t_stop, or to a steady density profile (``integrate``)."""
    return integrate(state, cfg, lambda limit: step(state, cfg, dt_limit=limit),
                     lambda: state.rho)
