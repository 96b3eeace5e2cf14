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

A far-field state carries the discrete Maxwellians of its two far fields as
ghost rows, made by ``make_dvm_state``; a periodic one has none.  A step
splits the cells into contiguous blocks, one per CPU the process may use,
with no block smaller than MIN_BLOCK_CELL_NODES cell·nodes.  Transport and
relaxation act on each cell alone except for the face difference at a block
edge, so each block reads a copy of the pre-step row on either side of it (a
ghost row at a mesh end, the other end's row on a periodic mesh) and runs on
its own thread.  The output does not depend on the number of blocks, and so
not on the CPU count: every per-row product rounds the same way for any
block of two or more rows.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .scenarios import (Scenario, SolverBreakdown, check_mesh, check_positive,
                        check_stop, far_field_frames, integrate, sample)


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
        check_stop(self.t_stop, self.steady_tol, self.t_max)
        if self.n_v < 3:    # the three-moment correction is singular on fewer
            raise ValueError(f"need at least three velocity nodes, got {self.n_v}")
        if not 0.0 < self.v_max < math.inf:     # NaN fails the test
            raise ValueError(f"v_max must be positive and finite, got {self.v_max}")

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
    far = far_field_frames(scenario)
    if far is None:
        return 10.0
    return float(math.ceil(max(abs(u1) + 5.0 * math.sqrt(theta) for _, u1, theta in far)))


@dataclass
class DVMState:
    scenario: Scenario       # physics, domain and far fields of the run
    x: np.ndarray
    dx: float
    g: np.ndarray            # (n, n_v)
    h: np.ndarray | None     # transverse energy density, dim > 1 only
    # far field only: g (and h) rows left and right of the mesh, (1 or 2, 2, n_v)
    ghosts: np.ndarray | None = None
    t: float = 0.0
    steps: int = 0
    residual: float | None = None   # measured only by a steady search
    converged: bool = False
    blocks: int = 1                 # cell blocks of the last step

    def __post_init__(self):
        if (self.ghosts is None) != (self.scenario.far_fields is None):
            raise ValueError("a far-field state needs ghost rows; a periodic one has none")

    @property
    def dim(self) -> int:
        return self.scenario.dim


# Relative tolerance on the moments a corrected Maxwellian must reproduce.
MOMENT_RTOL = 1e-10


def discrete_maxwellian(grid: VelocityGrid, rho, u1, theta, weight=1.0,
                        out: np.ndarray | None = None, work: np.ndarray | None = None):
    """Reduced nodal Maxwellians g_M corrected to the exact discrete moments.

    Returns ``(g_M, miss)``; g_M does not depend on D, and the callers form
    h_M = (D - 1) theta g_M from it.  ``miss`` is the first row whose factor
    misses any of the three moments by more than MOMENT_RTOL relative to
    rho (u1^2 + theta)^(k/2), or None: the velocity grid is too coarse or too
    narrow for that row.  rho and theta must be positive.  Per cell:

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
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
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
    with np.errstate(divide="ignore", invalid="ignore"):   # det = 0 fails ok below
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
    miss = None if ok.all() else int(np.argmin(ok))
    scale = rho * weight / grid.dv
    gm = np.matmul(np.stack([a * scale, b * scale, gamma * scale], axis=1), quad, out=out)
    gm *= gauss
    return gm, miss


def _conserved(g, h, dim: int, grid: VelocityGrid):
    """(rho, u1, theta) of each row of g (and h) by quadrature.

    The first three of the five power sums: a product with only three
    columns rounds differently depending on how many rows it gets.
    """
    smat = (g @ grid.powers)[:, :3] * grid.dv
    rho = smat[:, 0]
    u1 = smat[:, 1] / rho
    energy = 0.5 * smat[:, 2]
    if h is not None:
        energy = energy + 0.5 * h.sum(axis=1) * grid.dv
    theta = (2.0 * energy - rho * u1**2) / (dim * rho)
    return rho, u1, theta


def dvm_moments(state: DVMState, grid: VelocityGrid) -> dict[str, np.ndarray]:
    """Macroscopic fields by quadrature: rho, u1, theta, sigma11, q1."""
    v, dv = grid.v, grid.dv
    g = state.g
    rho, u1, theta = _conserved(g, state.h, state.dim, grid)
    c = v[None, :] - u1[:, None]
    sigma11 = (g * c**2).sum(axis=1) * dv - rho * theta
    q1 = 0.5 * (g * c**3).sum(axis=1) * dv
    if state.h is not None:
        q1 = q1 + 0.5 * (state.h * c).sum(axis=1) * dv
    return {"x": state.x, "rho": rho, "u1": u1, "theta": theta,
            "sigma11": sigma11, "q1": q1}


def make_dvm_state(scenario: Scenario, cfg: DVMConfig, grid: VelocityGrid) -> DVMState:
    """Discrete Maxwellians of the initial field, and of the far fields as ghost
    rows; raises ValueError when the velocity grid cannot represent one of them."""
    x, dx, rho, u1, theta = sample(scenario, cfg.n_cells)

    def maxwellian(where, rho, u1, theta):
        g, miss = discrete_maxwellian(grid, rho, u1, theta)
        if miss is not None:
            raise ValueError(f"{cfg.n_v} velocity nodes on [-{cfg.v_max:g}, {cfg.v_max:g}] "
                             f"cannot represent {where}; widen --vmax or add nodes with --nv")
        dim = scenario.dim
        return g, None if dim == 1 else (dim - 1) * np.reshape(theta, (-1, 1)) * g

    g, h = maxwellian("the initial field", rho, u1, theta)
    far = far_field_frames(scenario)
    ghosts = None
    if far is not None:
        # one call per side: a product rounds differently with another row count
        left, right = (maxwellian(f"the {side} far field", *frame)
                       for side, frame in zip(("left", "right"), far))
        ghosts = np.array([(gl[0], gr[0]) for gl, gr in zip(left, right) if gl is not None])
    return DVMState(scenario=scenario, x=x, dx=dx, g=g, h=h, ghosts=ghosts)


# Fewest cell·nodes in a block.  On 2 vCPUs (Xeon, numpy 2.4 with OpenBLAS
# 0.3.31), a Kn = 0.02 shock-tube step on 200 nodes took about 7 % longer in
# two blocks of 32 k cell·nodes than in one block, about 9 % less time in two
# of 40 k, and about a third less in two of 100 k.
MIN_BLOCK_CELL_NODES = 40_000


class _Scratch:
    """Reusable step buffers of the cell block [start, stop)."""

    def __init__(self, start: int, stop: int, n_v: int):
        self.start, self.stop = start, stop
        rows = stop - start
        # face differences, then G of the Maxwellian
        self.diff = np.empty((rows + 1, n_v))
        self.gm = np.empty((rows, n_v))
        # the pre-step rows left and right of the block: g, g, h, h
        self.halo = np.empty((4, n_v))


def _blocks(n: int, n_v: int, count: int | None = None) -> list[_Scratch]:
    """The step's contiguous cell blocks, each with its own buffers.

    ``count`` blocks, by default one per usable CPU but none smaller than
    MIN_BLOCK_CELL_NODES, and none of a single row: BLAS takes a one-row
    product down another path, which rounds differently.
    """
    if count is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        count = max(1, min(cpus, n * n_v // MIN_BLOCK_CELL_NODES, n // 2))
    edges = [n * k // count for k in range(count + 1)]
    return [_Scratch(a, b, n_v) for a, b in zip(edges[:-1], edges[1:])]


def _transport(arr, ghost_l, ghost_r, nu_v, left, diff):
    """Upwind transport in place: arr -= (v dt/dx) times the upwind difference.

    ``ghost_l``/``ghost_r`` are the rows beside ``arr``; ``left`` marks the
    nodes with v <= 0, whose upwind side is the right face.
    """
    np.subtract(arr[1:], arr[:-1], out=diff[1:-1])
    np.subtract(arr[:1], ghost_l, out=diff[:1])
    np.subtract(ghost_r, arr[-1:], out=diff[-1:])
    diff *= nu_v
    # masked whole-array passes: numpy buffers a column-block slice instead
    np.subtract(arr, diff[1:], out=arr, where=left)
    np.subtract(arr, diff[:-1], out=arr, where=~left)


def _advance(state: DVMState, blk: _Scratch, grid: VelocityGrid, dt: float, nu_v, left):
    """Transport and relax the cells of one block, whose halo rows are set.

    Returns None, or (rank, SolverBreakdown) of the block's lowest bad cell:
    rank 0 for a non-positive rho or theta, 1 for an unresolvable Maxwellian.
    """
    rows = slice(blk.start, blk.stop)
    g = state.g[rows]
    h = None if state.h is None else state.h[rows]
    _transport(g, blk.halo[0], blk.halo[1], nu_v, left, blk.diff)
    if h is not None:
        _transport(h, blk.halo[2], blk.halo[3], nu_v, left, blk.diff)
    sc = state.scenario
    if not math.isfinite(sc.kn):
        return None
    rho, u1, theta = _conserved(g, h, state.dim, grid)
    try:
        check_positive(rho, theta, state.t, blk.start)
    except SolverBreakdown as exc:
        return 0, exc
    tau = np.asarray(sc.tau_model.tau(sc.kn, rho, theta))
    with np.errstate(divide="ignore", over="ignore"):   # tau = 0 or subnormal: exp(-inf) = 0
        decay = np.exp(-dt / tau)
    gm, miss = discrete_maxwellian(grid, rho, u1, theta, weight=1.0 - decay,
                                   out=blk.gm, work=blk.diff[:-1])
    if miss is not None:
        return 1, SolverBreakdown(
            f"{grid.v.size} velocity nodes on [-{grid.v_max:g}, {grid.v_max:g}] cannot "
            f"represent a Maxwellian of rho = {rho[miss]:.6g}, u1 = {u1[miss]:.6g}, "
            f"theta = {theta[miss]:.6g}", blk.start + miss, state.t)
    g *= decay[:, None]
    g += gm
    if h is not None:
        # h <- e h + (D - 1) theta gm, as three in-place passes
        h_m = ((state.dim - 1) * theta)[:, None]
        h *= decay[:, None] / h_m
        h += gm
        h *= h_m
    return None


def dvm_step(state: DVMState, cfg: DVMConfig, grid: VelocityGrid,
             dt_limit: float | None = None,
             scratch: list[_Scratch] | None = None, pool=None) -> float:
    """One upwind transport + relaxation step; returns dt.

    Past the mesh ends lie the state's ghost rows, or on a periodic state
    the other end's rows.  The cells go in the blocks of ``scratch`` (by
    default ``_blocks`` of the mesh).  The calling thread runs the first
    block and ``pool``, an executor, the others; without a pool the calling
    thread runs them all.  A breakdown names the lowest bad cell of the mesh.
    """
    dt = cfg.cfl * state.dx / grid.v_max
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    if scratch is None:
        scratch = _blocks(*state.g.shape)
    n = state.g.shape[0]
    for j, arr in enumerate((state.g,) if state.h is None else (state.g, state.h)):
        ends = (arr[-1], arr[0]) if state.ghosts is None else state.ghosts[j]
        for blk in scratch:
            blk.halo[2 * j] = arr[blk.start - 1] if blk.start > 0 else ends[0]
            blk.halo[2 * j + 1] = arr[blk.stop] if blk.stop < n else ends[1]
    args = (grid, dt, grid.v * (dt / state.dx), grid.v <= 0.0)
    if pool is None:
        failures = [_advance(state, blk, *args) for blk in scratch]
    else:
        futures = [pool.submit(_advance, state, blk, *args) for blk in scratch[1:]]
        try:
            first = _advance(state, scratch[0], *args)
        finally:    # no block may still write to the state once the step ends
            rest = [f.result() for f in futures]
        failures = [first, *rest]
    failed = [f for f in failures if f is not None]
    if failed:
        raise min(failed, key=lambda f: (f[0], f[1].cell))[1]
    state.blocks = len(scratch)
    state.t += dt
    state.steps += 1
    return dt


def dvm_run(scenario: Scenario, cfg: DVMConfig) -> tuple[DVMState, VelocityGrid]:
    """Integrate a scenario to t_stop or to a steady density profile."""
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(scenario, cfg, grid)
    scratch = _blocks(cfg.n_cells, cfg.n_v)
    pool = None
    if len(scratch) > 1:
        # imported here: `import regmom` need not pay for it
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(len(scratch) - 1, thread_name_prefix="regmom-dvm")
    try:
        integrate(state, cfg, lambda limit: dvm_step(state, cfg, grid, dt_limit=limit,
                                                     scratch=scratch, pool=pool),
                  lambda: state.g.sum(axis=1) * grid.dv)
    finally:
        if pool is not None:
            pool.shutdown()
    return state, grid
