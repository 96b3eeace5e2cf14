"""Discrete-velocity BGK reference solver on a 1-D mesh.

Velocity space is a uniform symmetric grid; for D > 1 velocity dimensions the
D - 1 transverse directions xi_t are integrated out into the reduced pair

    g(v) = int f dxi_t,      h(v) = int |xi_t|^2 f dxi_t,

both of which satisfy the same transport-relaxation equation with reduced
Maxwellians (h_M = (D - 1) theta g_M).  For D = 1, g is the full
distribution and h is absent.

The scheme is first-order upwind transport plus pointwise exact-exponential
relaxation toward a discrete Maxwellian.  Transport takes the difference
across each face once, scales it by v dt/dx and subtracts from each cell the
difference on its upwind side.  The nodal Maxwellian is corrected by a
quadratic factor a + b v + c v^2 chosen so its discrete mass, momentum and
energy match the cell's exactly, which makes the relaxation substep
conservative to roundoff.  Relaxation with e = exp(-dt/tau) is

    g <- e g + (1 - e) g_M,      h <- e h + (D - 1) theta (1 - e) g_M,

with the weight 1 - e folded into the cell's (a, b, c).
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
    residual: float | None = None   # measured only by a steady search
    converged: bool = False

    @property
    def dim(self) -> int:
        return self.scenario.dim


# Relative tolerance on the moments a corrected Maxwellian must reproduce.
MOMENT_RTOL = 1e-10


def discrete_maxwellian(grid: VelocityGrid, rho, u1, theta, dim: int = 1,
                        weight=1.0, out: np.ndarray | None = None,
                        work: np.ndarray | None = None):
    """Reduced nodal Maxwellians corrected to the exact discrete moments.

    Returns ``(g_M, h_M)`` with h_M = (D - 1) theta g_M, or ``(g_M, None)``
    for ``dim`` 1; g_M itself does not depend on D.  Per cell:

    * the exponent -(v - u1)^2 / (2 theta) is one (n, 3) x (3, n_v) product
      of [-u1^2 / (2 theta), u1 / theta, -1 / (2 theta)] with [1, v, v^2],
      exponentiated in place to G(v);
    * the factor a + b v + c v^2 makes sum G (a + b v + c v^2) v^k dv equal
      rho, rho u1 and rho (u1^2 + theta) for k = 0, 1, 2 (twice the energy
      row less (D - 1) theta times the mass row).  The matrix is the Hankel
      matrix of the power sums of G.  It is solved in closed form in the
      cell's frame w = v - u1, where it stays well conditioned.

    The result is scaled by ``weight`` (a scalar or one value per cell).  It
    is written to ``out``; ``work`` holds G.  Both are (n, n_v) buffers,
    allocated when omitted.

    Raises UnphysicalStateError when rho or theta is not positive, and names
    the first cell whose factor misses any of the three moments by more than
    MOMENT_RTOL relative to rho (u1^2 + theta)^(k/2): the velocity grid is
    then too coarse or too narrow for that cell's temperature and speed.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(~(rho > 0.0)) or np.any(~(theta > 0.0)):     # NaN fails the test
        raise UnphysicalStateError("discrete Maxwellian needs rho > 0, theta > 0")
    quad = np.ascontiguousarray(grid.powers[:, :3].T)     # rows 1, v, v^2
    inv = 1.0 / theta
    expo = np.stack([-0.5 * u1 * u1 * inv, u1 * inv, -0.5 * inv], axis=1)
    gauss = np.matmul(expo, quad, out=work)
    np.exp(gauss, out=gauss)
    s = (gauss @ grid.powers).T                 # power sums s_0 .. s_4 of G
    # About v = 0 the Hankel matrix is ill-conditioned once |u1| >> sqrt(theta)
    # (at Mach 9 the moments then miss by far more than MOMENT_RTOL).  Solve
    # for alpha + beta w + gamma w^2 instead: the power sums m_k of w follow
    # from s by a Taylor shift, and the right-hand side is (1, 0, theta) rho / dv.
    m = s.copy()
    for i in range(4):
        m[i + 1:] -= u1 * m[i:-1]
    m0, m1, m2, m3, m4 = m
    c00 = m2 * m4 - m3 * m3                     # cofactors of the Hankel matrix of m
    c01 = m2 * m3 - m1 * m4
    c02 = m1 * m3 - m2 * m2
    c12 = m1 * m2 - m0 * m3
    c22 = m0 * m2 - m1 * m1
    det = m0 * c00 + m1 * c01 + m2 * c02
    alpha = (c00 + theta * c02) / det
    beta = (c01 + theta * c12) / det
    gamma = (c02 + theta * c22) / det
    # back to a + b v + c v^2, checked against the power sums about v = 0
    a = alpha - u1 * (beta - u1 * gamma)
    b = beta - 2.0 * u1 * gamma
    r2 = u1 * u1 + theta
    ok = ((det > 0.0)
          & (np.abs(s[0] * a + s[1] * b + s[2] * gamma - 1.0) <= MOMENT_RTOL)
          & (np.abs(s[1] * a + s[2] * b + s[3] * gamma - u1) <= MOMENT_RTOL * np.sqrt(r2))
          & (np.abs(s[2] * a + s[3] * b + s[4] * gamma - r2) <= MOMENT_RTOL * r2))
    if not ok.all():
        k = int(np.argmin(ok))
        raise UnphysicalStateError(
            f"discrete Maxwellian misses the moments of cell {k} (rho = {rho[k]:.6g}, "
            f"u1 = {u1[k]:.6g}, theta = {theta[k]:.6g}): the velocity grid is too "
            f"coarse or too narrow")
    scale = rho * weight / grid.dv
    gm = np.matmul(np.stack([a * scale, b * scale, gamma * scale], axis=1), quad, out=out)
    gm *= gauss
    if dim == 1:
        return gm, None
    return gm, (dim - 1) * theta[:, None] * gm


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

    def __init__(self, n: int, n_v: int):
        # face differences, then G of the Maxwellian
        self.diff = np.empty((n + 1, n_v))
        self.gm = np.empty((n, n_v))


def _transport(arr, ghost_l, ghost_r, nu_v, left, diff):
    """Upwind transport in place: arr -= (v dt/dx) times the upwind difference.

    ``ghost_l``/``ghost_r`` are the far-field rows, or None for a periodic
    mesh; ``left`` marks the nodes with v <= 0, whose upwind side is the
    right face.
    """
    np.subtract(arr[1:], arr[:-1], out=diff[1:-1])
    if ghost_l is None:
        np.subtract(arr[:1], arr[-1:], out=diff[:1])
        diff[-1] = diff[0]
    else:
        np.subtract(arr[:1], ghost_l, out=diff[:1])
        np.subtract(ghost_r, arr[-1:], out=diff[-1:])
    diff *= nu_v
    # masked whole-array passes: numpy buffers a column-block slice instead
    np.subtract(arr, diff[1:], out=arr, where=left)
    np.subtract(arr, diff[:-1], out=arr, where=~left)


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
        scratch = _Scratch(*state.g.shape)
    (g_l, h_l), (g_r, h_r) = ((None, None),) * 2 if periodic else ghosts
    v = grid.v
    nu_v = v * (dt / state.dx)
    left = v <= 0.0
    _transport(state.g, g_l, g_r, nu_v, left, scratch.diff)
    if state.h is not None:
        _transport(state.h, h_l, h_r, nu_v, left, scratch.diff)

    if math.isfinite(sc.kn):
        rho, u1, theta = _conserved(state, grid)
        bad = ~(rho > 0.0) | ~(theta > 0.0)     # NaN counts as bad
        if bad.any():
            raise UnphysicalStateError(
                f"non-positive or NaN density or temperature after transport "
                f"(cell {int(np.argmax(bad))}, t = {state.t:.6g})")
        tau = np.asarray(sc.tau_model.tau(sc.kn, rho, theta))
        decay = np.exp(-dt / tau)
        try:
            gm, _ = discrete_maxwellian(grid, rho, u1, theta, weight=1.0 - decay,
                                        out=scratch.gm, work=scratch.diff[:-1])
        except UnphysicalStateError as exc:
            raise UnphysicalStateError(f"{exc}, at t = {state.t:.6g}") from exc
        state.g *= decay[:, None]
        state.g += gm
        if state.h is not None:
            # h <- e h + (D - 1) theta gm, as three in-place passes
            h_m = ((state.dim - 1) * theta)[:, None]
            state.h *= decay[:, None] / h_m
            state.h += gm
            state.h *= h_m

    state.t += dt
    state.steps += 1
    return dt


def dvm_run(scenario: Scenario, cfg: DVMConfig) -> tuple[DVMState, VelocityGrid]:
    """Integrate a scenario to t_stop or to a steady density profile."""
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(scenario, cfg, grid)
    ghosts = None if scenario.boundary == "periodic" else _ghosts(scenario, grid)
    scratch = _Scratch(cfg.n_cells, cfg.n_v)
    integrate(state, cfg, lambda limit: dvm_step(state, cfg, grid, ghosts=ghosts,
                                                 dt_limit=limit, scratch=scratch),
              lambda: state.g.sum(axis=1) * grid.dv)
    return state, grid
