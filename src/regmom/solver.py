"""1-D finite-volume integrator for the regularized moment system.

Each cell's frame is (rho, u_1, theta): every scenario the solver accepts has
zero transverse velocity, so the frame arithmetic carries u_1 alone, one
value per cell or face.  One time step is a Lie splitting of three substeps:

  (a) hyperbolic transport.  In a frame with fixed (u_1, theta) the moment
      system is conservative with per-coefficient flux

          F_(a,k) = theta g_(a-1,k) + u_1 g_(a,k) + (a+1) g_(a+1,k),

      the coefficient ladder of multiplication by xi_1 on the axisymmetric
      coefficients g[a, k, cell] (indices.AxisymmetricLayout; the cell axis
      is last, so every ladder shift runs along all cells at once).  At each
      interface both neighbor states are re-expanded in the shared
      arithmetic-mean frame (one projection call for all faces) and a local
      Lax-Friedrichs flux is formed there, F of the side mean less the
      dissipation, with wavespeed bound |u_1| + c_{M+1} sqrt(theta) (c_{M+1}
      the largest Hermite root).  Re-expansion preserves the moments of
      order <= M, so the new (rho, m_1, E) of a cell follow from its own and
      its two face fluxes' conserved moments, each read in its own frame, and
      mass, momentum and energy telescope exactly across interfaces.  That
      gives the cell's new frame before any coefficient moves: the cell and
      both of its face fluxes are re-expanded in it by a second projection
      call and the cell is updated there.  Projections compose on the
      truncated space (both series only raise the grade), so this equals
      updating in the old frame and moving the frame after.

  (b) top-order regularization.  The closure value for the order-(M+1)
      coefficients enters only through (a+1) d g_(a+1,k) / dx on the top
      retained grade a + 2k = M; with the linear closure this is a diffusion
      with coefficient (a+1) tau theta per coefficient.  The diffusive core
      is integrated by backward Euler on every step, with the tridiagonal
      systems of all top entries stacked block-diagonally and solved by one
      LAPACK gtsv call.  gtsv is loaded from scipy's _flapack extension alone
      (_gtsv): importing scipy.linalg for it would cost the first step about
      0.2 s and the process about 25 MB.  The rest of the nonlinear closure
      (TopOrderClosure.nonlinear) is never stiff and is always explicit.

  (c) BGK relaxation, exact in the local frame: every coefficient of grade
      a + 2k >= 2 decays by exp(-dt/tau) in total; conserved moments are untouched.
      The decay is applied as two half-steps bracketing the transport
      (a symmetrized placement): a trailing full decay biases the stress and
      heat flux low by dt/(2 tau) relative, which buries the O(tau^2)
      transport-limit deviation the acceptance checks measure, while the
      bracketed form leaves only an O((dt/tau)^2) bias.  Each half reads tau
      from the fields it starts from.

The time step is dt = CFL * dx / max wavespeed.  A step makes two projection
calls, one flux call and one tridiagonal solve, and allocates no
coefficient-sized array: the buffers, and the two projections with every
view they read and write, live on the state (_Scratch), which ``make_state``
builds with it.
The step tests positivity once, after the conserved recovery of (a): a
non-positive or NaN density or temperature raises SolverBreakdown with the
offending cell and time; no limiter masks it.  A non-finite top-grade
coefficient after (b) raises SolverBreakdown too: it leaves (rho, u_1,
theta) finite, and the projection carries a non-finite coefficient of any
grade up to the top grade.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import hermite_e

from .indices import AxisymmetricLayout, lead
from .indices import pad_zero  # noqa: F401  (bench/workloads.py --trace 1 wraps this name)
from .closure import TopOrderClosure
from .scenarios import (RunConfig, Scenario, SolverBreakdown, check_positive,
                        far_field_frames, integrate, sample)
from .state import (Projection, conserved_from_coeffs, enforce_constraints,
                    macro_from_conserved, sigma11_q1)
from .state import project_coeffs  # noqa: F401  (bench/workloads.py --trace 1 wraps this name)


@dataclass(kw_only=True)
class SolverConfig(RunConfig):
    """Numerical parameters of a run; the physics is the Scenario's."""

    order: int
    closure: str = "linear"        # or "nonlinear"

    def __post_init__(self):
        if self.order < 3:
            raise ValueError(f"moment order must be >= 3, got {self.order}")
        super().__post_init__()
        if self.closure not in ("linear", "nonlinear"):
            raise ValueError(f"unknown closure {self.closure!r}")


def hermite_roots(n: int) -> np.ndarray:
    """Roots of the probabilists' Hermite polynomial He_n, ascending: the
    largest root of He_{M+1} bounds the characteristic speeds of the order-M
    system in units of sqrt(theta)."""
    return hermite_e.hermegauss(n)[0]


class _Scratch:
    """What a step needs beyond the state's fields, built with the state: the
    closure offsets of the top grade, c_{M+1} and every coefficient-sized
    array of a step, so that no step allocates one.

    The mesh edges live in one ghost-extended buffer: the coefficients
    (M+1, K, n+2) and their frames (rho, u_1, theta) (3, n+2), with one
    ghost cell on each side.  The far-field ghosts are written once, here;
    ``extend`` copies the cells in and, on a periodic mesh, wraps the ring.
    The transport reads each face's two sides from shifted windows of it and
    the regularization its face values.

    Three buffers are the input, output and work of both projections, each
    a state.Projection built here over them with all its views: first the
    two sides of each face (``project_sides``), then each cell with its left
    and right face flux (``project_rows``).  Between the calls the input
    buffer holds the projected sides side-first and the work buffer the
    LLF's side mean and jump; after the second call the input buffer holds
    its output row-first, and the work buffer is free for the
    regularization's face averages.  So every large
    ufunc runs on contiguous arrays: numpy (2.4) passes a strided operand
    through its buffered iterator, with up to 192 KB of buffers per call and
    several times the cost per value.  Beside these: the face flux and the
    frames of the second call.
    """

    def __init__(self, scenario: Scenario, layout: AxisymmetricLayout, n: int):
        self.top = TopOrderClosure(layout)
        self.c_top = float(hermite_roots(layout.order + 1)[-1])
        sides_shape, rows_shape = layout.shape + (2, n + 1), layout.shape + (3, n)
        size = max(math.prod(sides_shape), math.prod(rows_shape))
        inp, out, work = np.empty((3, size))

        def view(buf, *shape):
            return buf[:math.prod(shape)].reshape(shape)
        self.sides, self.g_lr, self.sides_work = (view(b, *sides_shape) for b in (inp, out, work))
        self.sides_first = view(inp, 2, *layout.shape, n + 1)
        self.mean_jump = view(work, 2, *layout.shape, n + 1)
        self.rows, self.new, self.rows_work = (view(b, *rows_shape) for b in (inp, out, work))
        self.rows_first = view(inp, 3, *layout.shape, n)
        self.project_sides = Projection(layout, self.sides, self.g_lr, self.sides_work)
        self.project_rows = Projection(layout, self.rows, self.new, self.rows_work)
        self.phi = np.empty(layout.shape + (n + 1,))
        self.frames = np.empty((2, 3, n))       # (u_1, theta) of the rows
        self.coeffs_e = np.zeros(layout.shape + (n + 2,))
        self.frames_e = np.empty((3, n + 2))
        # each face's left (0) and right (1) side, as views of those two:
        # the coefficients (M+1, K, 2, n+1) and (u_1, theta) (2, 2, n+1)
        self.side_windows = sliding_window_view(self.coeffs_e, n + 1, axis=-1)
        self.frame_windows = sliding_window_view(self.frames_e[1:], n + 1, axis=-1)
        self.coeffs_f = view(work, *self.coeffs_e.shape)   # face averages
        far = far_field_frames(scenario)
        self.periodic = far is None
        if far is not None:
            self.frames_e[:, 0], self.frames_e[:, -1] = far
            self.coeffs_e[0, 0, 0], self.coeffs_e[0, 0, -1] = far[0][0], far[1][0]

    def extend(self, g: np.ndarray, rho: np.ndarray, u1: np.ndarray, theta: np.ndarray):
        """The cells g (M+1, K, n) and their frames with one ghost cell on
        each side: the coefficients (M+1, K, n+2) and (rho, u_1, theta) (3, n+2)."""
        co_e, fr = self.coeffs_e, self.frames_e
        co_e[..., 1:-1] = g
        fr[0, 1:-1], fr[1, 1:-1], fr[2, 1:-1] = rho, u1, theta
        if self.periodic:
            co_e[..., 0], co_e[..., -1] = g[..., -1], g[..., 0]
            fr[:, 0], fr[:, -1] = fr[:, -2], fr[:, 1]
        return co_e, fr


@dataclass
class SimState:
    """Per-cell frames and coefficients on a uniform mesh, plus diagnostics."""

    scenario: Scenario   # physics, domain and far fields of the run
    layout: AxisymmetricLayout
    x: np.ndarray
    dx: float
    rho: np.ndarray      # (n,)
    u: np.ndarray        # (n, D): u_1, then transverse columns that stay 0
    theta: np.ndarray    # (n,)
    coeffs: np.ndarray   # (M+1, K, n), local-frame axisymmetric coefficients g
    t: float = 0.0
    steps: int = 0
    last_dt: float = 0.0
    dt_min: float = math.inf
    dt_max: float = 0.0
    max_speed: float = 0.0
    residual: float | None = None   # measured only by a steady search
    converged: bool = False
    # (mass, momenta, energy) that entered through the domain ends: D+2 totals
    boundary_account: np.ndarray = field(init=False)
    scratch: _Scratch = field(init=False, repr=False)

    def __post_init__(self):
        self.boundary_account = np.zeros(self.scenario.dim + 2)
        self.scratch = _Scratch(self.scenario, self.layout, self.rho.size)


def make_state(scenario: Scenario, cfg: SolverConfig) -> SimState:
    """Equilibrium initial state: cell-centered macro fields, Maxwellian coefficients."""
    if not math.isfinite(scenario.kn):
        raise ValueError("the moment solver's top-order diffusion needs a finite Kn, "
                         f"got {scenario.kn}")
    layout = AxisymmetricLayout(cfg.order, scenario.dim)
    x, dx, rho, u1, theta = sample(scenario, cfg.n_cells)
    u = np.zeros((cfg.n_cells, scenario.dim))
    u[:, 0] = u1
    coeffs = np.zeros(layout.shape + (cfg.n_cells,))
    coeffs[0, 0] = rho
    return SimState(scenario=scenario, layout=layout, x=x, dx=dx, rho=rho, u=u,
                    theta=theta, coeffs=coeffs)


def flux_coefficients(layout: AxisymmetricLayout, g: np.ndarray, u1, theta,
                      out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Coefficient flux in a fixed frame (u1, theta).

    Multiplication by xi_1 maps g to
    theta g_(a-1,k) + u_1 g_(a,k) + (a+1) g_(a+1,k); the grade-(M+1)
    coefficients count as zero (Grad truncation).  ``out`` (must not alias
    g) and ``work`` are arrays shaped like g, allocated when omitted.
    """
    F = np.multiply(np.asarray(u1, dtype=float), g, out=out)
    w = (np.empty(g.shape) if work is None else work)[:-1]
    np.multiply(np.asarray(theta, dtype=float), g[:-1], out=w)
    F[1:] += w
    np.multiply(lead(layout.ladder, g), g[1:], out=w)
    F[:-1] += w
    return layout.zero_corner(F)


@functools.cache
def _gtsv():
    """LAPACK's dgtsv from scipy's ``_flapack`` extension, loaded on its own.

    Importing ``scipy.linalg`` runs the package's ``__init__``, which pulls in
    numpy.testing, numpy.f2py, unittest and more: about 0.2 s and 25 MB of
    resident memory, against a few ms and 3 MB for the extension alone.  The
    module is loaded under its package name, so a later ``import scipy.linalg``
    reuses this very extension module (CPython caches single-phase extension
    modules).  Without the file, the public import gives the same routine.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].dgtsv
    spec = importlib.util.find_spec("scipy")        # locates scipy, does not import it
    for base in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                return module.dgtsv
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _solve_banded_tridiag(lower, diag, upper, rhs):
    """Solve independent tridiagonal systems with one LAPACK gtsv call.

    lower, diag, upper are (..., n): one system per leading index, with
    lower[..., 0] and upper[..., -1] unused.  rhs is (..., n) or (..., n, m).
    The systems are stacked block-diagonally with zero coupling between blocks.
    Raises LinAlgError on a zero pivot.  gtsv comes from _gtsv(), loaded at the
    first call without importing scipy.linalg.
    """
    dl = lower.copy()
    dl[..., 0] = 0.0
    du = upper.copy()
    du[..., -1] = 0.0
    b = rhs.reshape((diag.size,) + rhs.shape[diag.ndim:])
    dgtsv = _gtsv()
    x, info = dgtsv(dl.reshape(-1)[1:], diag.reshape(-1), du.reshape(-1)[:-1], b,
                    overwrite_dl=True, overwrite_du=True)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal system (gtsv info {info})")
    return x.reshape(rhs.shape)


def _solve_cyclic_tridiag(lower, diag, upper, corner_tr, corner_bl, rhs):
    """Sherman-Morrison reduction of cyclic tridiagonal systems, batched as in
    _solve_banded_tridiag with one corner pair (corner_tr, corner_bl) per system;
    the correction vector rides along as one more right-hand-side column."""
    gamma = -diag[..., 0]
    d = diag.copy()
    d[..., 0] -= gamma
    d[..., -1] -= corner_tr * corner_bl / gamma
    rhs_cols = rhs.reshape(diag.shape + (-1,))
    both = np.zeros(rhs_cols.shape[:-1] + (rhs_cols.shape[-1] + 1,))
    both[..., :-1] = rhs_cols
    both[..., 0, -1], both[..., -1, -1] = gamma, corner_bl
    sol = _solve_banded_tridiag(lower, d, upper, both)
    y, z = sol[..., :-1], sol[..., -1:]                 # (..., n, m), (..., n, 1)
    ratio = (corner_tr / gamma)[..., None]
    vy = y[..., 0, :] + ratio * y[..., -1, :]
    vz = z[..., 0, :] + ratio * z[..., -1, :]
    return (y - z * (vy / (1.0 + vz))[..., None, :]).reshape(rhs.shape)


def _regularize(state: SimState, cfg: SolverConfig, dt: float, coeffs) -> None:
    """Substep (b): apply the top-order closure as a flux on the grade a + 2k = M
    of ``coeffs``, in the state's frames: backward Euler on the linear closure's
    diffusion, after the nonlinear closure's other terms as an explicit flux."""
    sc, layout, scr, dx = state.scenario, state.layout, state.scratch, state.dx
    top, top_a, top_k = scr.top, layout.top_a, layout.top_k
    co_e, fr = scr.extend(coeffs, state.rho, state.u[:, 0], state.theta)
    rho_f, th_f = 0.5 * (fr[::2, :-1] + fr[::2, 1:])         # rows rho and theta
    tau_f = sc.tau_model.tau(sc.kn, rho_f, th_f)
    if cfg.closure == "nonlinear":
        # face averages of all entries as one contiguous run: the sum of each
        # value and the next, read where both belong to one entry
        flat, pairs = co_e.reshape(-1), scr.coeffs_f.reshape(-1)[:-1]
        np.add(flat[:-1], flat[1:], out=pairs)
        pairs *= 0.5
        g_f = scr.coeffs_f[..., :-1]                        # (M+1, K, n+1)
        p_e = fr[0] * fr[2]
        p_x = (p_e[1:] - p_e[:-1]) / dx
        rest = top.nonlinear(rho_f, th_f, tau_f, p_x, g_f, *sigma11_q1(layout, g_f))
        rate = dt / dx * top.transport_factor[:, None]
        coeffs[top_a, top_k] -= rate * (rest[:, 1:] - rest[:, :-1])

    kappa_f = tau_f * th_f                                   # (n+1,)
    g = (dt * top.transport_factor / dx**2)[:, None]         # one system per top entry
    lower = -g * kappa_f[:-1]
    upper = -g * kappa_f[1:]
    diag = 1.0 + g * (kappa_f[:-1] + kappa_f[1:])
    rhs = coeffs[top_a, top_k]
    if scr.periodic:
        # ghost faces coincide: corner couplings close each ring
        sol = _solve_cyclic_tridiag(lower, diag, upper, lower[:, 0], upper[:, -1], rhs)
    else:
        # far-field ghosts hold equilibrium: Dirichlet zero on the top grade
        sol = _solve_banded_tridiag(lower, diag, upper, rhs)
    coeffs[top_a, top_k] = sol


def _face_fluxes(lay: AxisymmetricLayout, scr: _Scratch):
    """The LLF flux phi (M+1, K, n+1) of every face in the face's frame, the
    arithmetic mean of its sides' frames, and those frames (2, n+1): u_1 and
    theta.  The sides are windows of the scratch's ghost-extended cells,
    which ``extend`` has filled; both sides of all faces go through one
    call of the scratch's side projection."""
    sides, side_frames = scr.sides, scr.frame_windows
    np.copyto(sides, scr.side_windows)
    face_frames = 0.5 * (side_frames[:, 0] + side_frames[:, 1])
    u_f, th_f = face_frames
    shift = face_frames[:, None] - side_frames
    g_lr = scr.project_sides(shift[0], shift[1])
    # the flux is linear in g: F of the side mean, less the LLF dissipation,
    # whose wavespeed bound is the extreme characteristic speed of the frozen
    # interface-frame system; the sides are copied side-first so that the
    # mean and jump come from contiguous arrays
    lam_f = np.abs(u_f) + scr.c_top * np.sqrt(th_f)
    g_l, g_r = scr.sides_first
    np.copyto(scr.sides_first, g_lr.transpose(2, 0, 1, 3))
    mean, jump = scr.mean_jump
    np.add(g_l, g_r, out=mean)
    mean *= 0.5
    phi = flux_coefficients(lay, mean, u_f, th_f, out=scr.phi, work=jump)
    np.subtract(g_r, g_l, out=jump)
    jump *= 0.5 * lam_f
    phi -= jump
    return phi, face_frames


def _relax(g: np.ndarray, dt: float, tau: np.ndarray) -> None:
    """Relax over ``dt``: scale every coefficient of grade a + 2k >= 2 by
    exp(-dt/tau) per cell (0 at a zero or subnormal tau, the equilibrium
    limit), in contiguous blocks: the rows a >= 2 whole, then k >= 1 of rows
    0 and 1."""
    with np.errstate(divide="ignore", over="ignore"):
        decay = np.exp(-dt / tau)
    g[2:] *= decay
    g[0, 1:] *= decay
    g[1, 1:] *= decay


def step(state: SimState, cfg: SolverConfig, dt_limit: float | None = None) -> float:
    """Advance the state by one time step in place; returns dt taken."""
    sc, lay, g, dx = state.scenario, state.layout, state.coeffs, state.dx
    u1, theta, scr = state.u[:, 0], state.theta, state.scratch
    tau = np.asarray(sc.tau_model.tau(sc.kn, state.rho, theta), dtype=float)

    lam = np.abs(u1) + scr.c_top * np.sqrt(theta)
    state.max_speed = float(lam.max())
    dt = cfg.cfl * (dx / state.max_speed)
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    rate = dt / dx

    # --- (c) leading half of the relaxation: every grade a + 2k >= 2 ------
    _relax(g, 0.5 * dt, tau)

    # --- (a) hyperbolic transport in shared interface frames -------------
    scr.extend(g, state.rho, u1, theta)
    phi, face_frames = _face_fluxes(lay, scr)

    # --- conserved recovery and frame move: the step's positivity test ----
    # each cell with its left and right face fluxes, and their frames; the
    # rows take the buffer of the first projection's (now dead) inputs
    rows, frames = scr.rows, scr.frames
    rows[:, :, 0] = g
    rows[:, :, 1] = phi[..., :-1]
    rows[:, :, 2] = phi[..., 1:]
    frames[0, 0], frames[1, 0] = u1, theta
    frames[:, 1] = face_frames[:, :-1]
    frames[:, 2] = face_frames[:, 1:]
    # (rho, m_1, E) of each row in its own frame: moments of order <= M do
    # not depend on the frame, so the cell's new ones follow from these
    cons = np.stack(conserved_from_coeffs(lay, rows, frames[0], frames[1]))   # (3, 3, n)
    # the domain-boundary fluxes go into the books; transverse momenta are 0
    state.boundary_account[[0, 1, -1]] += dt * (cons[:, 1, 0] - cons[:, 2, -1])
    rho_new, m1, energy = cons[:, 0] - rate * (cons[:, 2] - cons[:, 1])
    u1_new, th_new = macro_from_conserved(rho_new, m1, energy, lay.dim)
    check_positive(rho_new, th_new, state.t)

    # all three rows re-expanded in the new frame by one call, and the cell
    # updated there
    new = scr.project_rows(u1_new - frames[0], th_new - frames[1])
    cell, left, right = scr.rows_first
    np.copyto(scr.rows_first, new.transpose(2, 0, 1, 3))
    div = np.subtract(right, left, out=right)
    div *= rate
    np.subtract(cell, div, out=g)
    enforce_constraints(lay, g, rho_new)
    state.rho, state.theta = rho_new, th_new
    state.u[:, 0] = u1_new

    # --- (b) top-order regularization -------------------------------------
    tau = np.asarray(sc.tau_model.tau(sc.kn, rho_new, th_new), dtype=float)
    _regularize(state, cfg, dt, g)
    top = g[lay.top_a, lay.top_k]
    if not np.isfinite(top).all():
        raise SolverBreakdown("non-finite top-order coefficient after regularization",
                              int(np.argmin(np.isfinite(top).all(axis=0))), state.t)

    # --- (c) trailing half of the relaxation --------------------------------
    _relax(g, 0.5 * dt, tau)

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
