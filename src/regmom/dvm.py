"""Discrete-velocity BGK reference solver on a 1-D mesh.

Velocity space is a uniform symmetric grid; for D > 1 velocity dimensions the
D - 1 transverse directions xi_t are integrated out into the reduced pair

    g(v) = int f dxi_t,      h(v) = int |xi_t|^2 f dxi_t,

both of which satisfy the same transport-relaxation equation with reduced
Maxwellians (h_M = (D - 1) theta g_M).  For D = 1, g is the full
distribution and h is absent.

The scheme is first-order upwind transport plus pointwise exact-exponential
relaxation toward a discrete Maxwellian.  The nodal Maxwellian is corrected
by a quadratic factor a + b v + c v^2 chosen so its discrete mass, momentum
and energy match the cell's exactly, which makes the relaxation substep
conservative to roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenarios import Scenario, check_mesh, integrate
from .state import UnphysicalStateError


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform velocities on [-v_max, v_max]."""

    v: np.ndarray
    dv: float
    v_max: float
    powers: np.ndarray    # (n_v, 5): v^0 .. v^4, for moment sums as one GEMM

    @classmethod
    def make(cls, n_v: int, v_max: float) -> "VelocityGrid":
        v = np.linspace(-v_max, v_max, n_v)
        powers = np.stack([v**k for k in range(5)], axis=1)
        return cls(v=v, dv=v[1] - v[0], v_max=v_max, powers=powers)


@dataclass
class DVMConfig:
    """Numerical parameters of a reference run; the physics is the Scenario's."""

    n_cells: int
    n_v: int
    v_max: float
    cfl: float = 0.95
    t_stop: float | None = None
    steady_tol: float | None = None
    t_max: float = 400.0

    def __post_init__(self):
        check_mesh(self.n_cells, self.cfl)
        if self.n_v < 2:
            raise ValueError(f"need at least two velocity nodes, got {self.n_v}")
        if not self.v_max > 0.0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")

    @classmethod
    def from_scenario(cls, scenario: Scenario, n_cells: int | None = None, n_v: int = 200,
                      v_max: float | None = None, **overrides) -> "DVMConfig":
        kw = dict(n_cells=scenario.default_cells if n_cells is None else n_cells,
                  n_v=n_v, v_max=suggested_v_max(scenario) if v_max is None else v_max,
                  t_stop=scenario.t_stop, steady_tol=scenario.steady_tol,
                  t_max=scenario.t_max)
        kw.update(overrides)
        return cls(**kw)


def suggested_v_max(scenario: Scenario) -> float:
    """Covers 5 thermal widths beyond the largest far-field speed."""
    if scenario.far_fields is None:
        return 10.0
    out = 0.0
    for rho, u, theta in scenario.far_fields:
        out = max(out, abs(np.asarray(u).reshape(-1)[0]) + 5.0 * math.sqrt(theta))
    return float(math.ceil(out))


@dataclass
class DVMState:
    scenario: Scenario       # physics, domain and far fields of the run
    x: np.ndarray
    dx: float
    g: np.ndarray            # (n, n_v)
    h: np.ndarray | None     # transverse energy density, dim > 1 only
    t: float = 0.0
    steps: int = 0
    residual: float = math.inf
    converged: bool = False

    @property
    def dim(self) -> int:
        return self.scenario.dim


def discrete_maxwellian(grid: VelocityGrid, rho, u1, theta, dim: int,
                        out_g: np.ndarray | None = None,
                        out_h: np.ndarray | None = None):
    """Reduced nodal Maxwellians corrected to the exact discrete moments.

    Solves a 3x3 system per cell for the quadratic factor; raises when the
    requested moments are unphysical.  ``out_g``/``out_h`` let the step loop
    reuse buffers (fresh multi-MB temporaries every step are page-fault
    bound on small machines).
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(~(rho > 0.0)) or np.any(~(theta > 0.0)):     # NaN fails the test
        raise UnphysicalStateError("discrete Maxwellian needs rho > 0, theta > 0")
    v = grid.v
    gm = np.subtract(v, u1[:, None], out=out_g)
    gm *= gm
    gm *= (-0.5 / theta)[:, None]
    np.exp(gm, out=gm)
    gm *= (rho / np.sqrt(2.0 * math.pi * theta))[:, None]
    smat = gm @ grid.powers * grid.dv          # (n, 5) power sums
    s = [smat[:, k] for k in range(5)]
    energy = 0.5 * rho * u1**2 + 0.5 * dim * rho * theta
    mat = np.empty(rho.shape + (3, 3))
    mat[..., 0, 0], mat[..., 0, 1], mat[..., 0, 2] = s[0], s[1], s[2]
    mat[..., 1, 0], mat[..., 1, 1], mat[..., 1, 2] = s[1], s[2], s[3]
    for j in range(3):
        # the energy row picks up the transverse part through h_M = (D-1) theta g_M
        mat[..., 2, j] = 0.5 * (s[j + 2] + (dim - 1) * theta * s[j])
    rhs = np.stack([rho, rho * u1, energy], axis=-1)
    abc = np.linalg.solve(mat, rhs[..., None])[..., 0]
    gm *= abc @ grid.powers[:, :3].T
    if dim == 1:
        return gm, None
    h = np.multiply((dim - 1) * theta[:, None], gm, out=out_h)
    return gm, h


def _conserved(state: DVMState, grid: VelocityGrid):
    """(rho, u1, theta) by quadrature; the per-step fast path."""
    smat = state.g @ grid.powers[:, :3] * grid.dv
    rho = smat[:, 0]
    u1 = smat[:, 1] / rho
    energy = 0.5 * smat[:, 2]
    if state.h is not None:
        energy = energy + 0.5 * state.h.sum(axis=1) * grid.dv
    theta = (2.0 * energy - rho * u1**2) / (state.dim * rho)
    return rho, u1, theta


def dvm_moments(state: DVMState, grid: VelocityGrid) -> dict[str, np.ndarray]:
    """Macroscopic fields by quadrature: rho, u1, theta, sigma11, q1."""
    v, dv = grid.v, grid.dv
    g = state.g
    rho, u1, theta = _conserved(state, grid)
    c = v[None, :] - u1[:, None]
    sigma11 = (g * c**2).sum(axis=1) * dv - rho * theta
    q1 = 0.5 * (g * c**3).sum(axis=1) * dv
    if state.h is not None:
        q1 = q1 + 0.5 * (state.h * c).sum(axis=1) * dv
    return {"x": state.x, "rho": rho, "u1": u1, "theta": theta,
            "sigma11": sigma11, "q1": q1}


def make_dvm_state(scenario: Scenario, cfg: DVMConfig, grid: VelocityGrid) -> DVMState:
    n = cfg.n_cells
    dx = (scenario.x_hi - scenario.x_lo) / n
    x = scenario.x_lo + (np.arange(n) + 0.5) * dx
    rho = np.asarray(scenario.rho0(x), dtype=float)
    u1 = np.asarray(scenario.u0(x), dtype=float).reshape(n, scenario.dim)[:, 0]
    theta = np.asarray(scenario.theta0(x), dtype=float)
    g, h = discrete_maxwellian(grid, rho, u1, theta, scenario.dim)
    return DVMState(scenario=scenario, x=x, dx=dx, g=g, h=h)


def _ghosts(scenario: Scenario, grid: VelocityGrid):
    """Discrete Maxwellians of the two far-field states."""
    return tuple(discrete_maxwellian(grid, rho, np.asarray(u).reshape(-1)[0], theta,
                                     scenario.dim)
                 for rho, u, theta in scenario.far_fields)


class _Scratch:
    """Reusable step buffers, keyed to the (n, n_v) shape."""

    def __init__(self, n: int, n_v: int, dim: int):
        self.ext = np.empty((n + 2, n_v))
        self.flux = np.empty((n + 1, n_v))
        self.gm = np.empty((n, n_v))
        self.hm = np.empty((n, n_v)) if dim > 1 else None


def _transport(arr, ghost_l, ghost_r, v, dt_dx, periodic: bool, scratch: _Scratch):
    ext, flux = scratch.ext, scratch.flux
    ext[1:-1] = arr
    if periodic:
        ext[0] = arr[-1]
        ext[-1] = arr[0]
    else:
        ext[0] = ghost_l
        ext[-1] = ghost_r
    # v is sorted, so the upwind split is two contiguous column blocks
    k = int(np.searchsorted(v, 0.0, side="right"))
    np.multiply(v[:k], ext[1:, :k], out=flux[:, :k])
    np.multiply(v[k:], ext[:-1, k:], out=flux[:, k:])
    upd = np.subtract(flux[1:], flux[:-1], out=ext[:-2])
    upd *= dt_dx
    arr -= upd
    return arr


def dvm_step(state: DVMState, cfg: DVMConfig, grid: VelocityGrid,
             ghosts=None, dt_limit: float | None = None,
             scratch: _Scratch | None = None) -> float:
    """One upwind transport + relaxation step; returns dt."""
    dt = cfg.cfl * state.dx / grid.v_max
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    sc = state.scenario
    periodic = sc.boundary == "periodic"
    if not periodic and ghosts is None:
        raise ValueError("far-field boundary needs ghost distributions")
    if scratch is None:
        scratch = _Scratch(state.g.shape[0], state.g.shape[1], state.dim)
    (g_l, h_l), (g_r, h_r) = ghosts if ghosts is not None else ((None, None),) * 2
    v = grid.v
    state.g = _transport(state.g, g_l, g_r, v, dt / state.dx, periodic, scratch)
    if state.h is not None:
        state.h = _transport(state.h, h_l, h_r, v, dt / state.dx, periodic, scratch)

    if math.isfinite(sc.kn):
        rho, u1, theta = _conserved(state, grid)
        bad = ~(rho > 0.0) | ~(theta > 0.0)     # NaN counts as bad
        if bad.any():
            raise UnphysicalStateError(
                f"non-positive or NaN density or temperature after transport "
                f"(cell {int(np.argmax(bad))}, t = {state.t:.6g})")
        tau = np.asarray(sc.tau_model.tau(sc.kn, rho, theta))
        gm, hm = discrete_maxwellian(grid, rho, u1, theta, state.dim,
                                     out_g=scratch.gm, out_h=scratch.hm)
        decay = np.exp(-dt / tau)[:, None]
        for arr, maxw in ((state.g, gm), (state.h, hm)) if state.h is not None \
                else ((state.g, gm),):
            arr -= maxw
            arr *= decay
            arr += maxw

    state.t += dt
    state.steps += 1
    return dt


def dvm_run(scenario: Scenario, cfg: DVMConfig) -> tuple[DVMState, VelocityGrid]:
    """Integrate a scenario to t_stop or to a steady density profile."""
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(scenario, cfg, grid)
    ghosts = None if scenario.boundary == "periodic" else _ghosts(scenario, grid)
    scratch = _Scratch(cfg.n_cells, cfg.n_v, scenario.dim)
    integrate(state, cfg, lambda limit: dvm_step(state, cfg, grid, ghosts=ghosts,
                                                 dt_limit=limit, scratch=scratch),
              lambda: state.g.sum(axis=1) * grid.dv)
    return state, grid
