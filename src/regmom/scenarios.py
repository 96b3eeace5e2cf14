"""Benchmark problem setups and relaxation-time models.

Two built-in Riemann problems for a monatomic gas (D = 3 velocity
dimensions):

  * shock-tube: density/pressure jump 7:1 at rest, resolved to t = 0.3
    with tau = Kn / rho;
  * shock-structure: upstream/downstream Rankine-Hugoniot states of a steady
    shock at Mach M0 (gamma = 5/3), variable-hard-sphere relaxation time, run
    to a steady profile.

A scenario speaks (rho, u_1, theta), and its far fields close the mesh ends;
a scenario without them is periodic.  Both solvers read a scenario onto their
mesh through ``sample`` and take its far fields from ``far_field_frames``,
which reject a gas neither solver represents.  For both, ``integrate`` applies
a scenario's stop rule and ``check_positive`` tests a step's state; either
step raises SolverBreakdown.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAMMA_MONATOMIC = 5.0 / 3.0


@dataclass(frozen=True)
class TauModel:
    """Relaxation time as a function of the local state.

    kind "kn-over-rho": tau = Kn / rho.
    kind "vhs": tau = sqrt(pi/2) * 15 Kn / ((5-2w)(7-2w)) * theta^(w-1) / rho.
    """

    kind: str = "kn-over-rho"
    omega: float = 0.72

    def __post_init__(self):
        if self.kind not in ("kn-over-rho", "vhs"):
            raise ValueError(f"unknown tau model {self.kind!r}")
        if self.kind == "vhs":      # the VHS prefactor, computed once
            w = self.omega
            if not 0.5 <= w <= 1.0:
                raise ValueError(f"the VHS exponent omega must lie in [0.5, 1], got {w}")
            object.__setattr__(self, "_vhs", math.sqrt(math.pi / 2.0) * 15.0
                               / ((5.0 - 2.0 * w) * (7.0 - 2.0 * w)))

    def tau(self, kn: float, rho, theta):
        if self.kind == "kn-over-rho":
            return kn / np.asarray(rho, dtype=float)
        return (self._vhs * kn * np.asarray(theta, dtype=float) ** (self.omega - 1.0)
                / np.asarray(rho))


@dataclass
class Scenario:
    """Initial fields, domain, far fields, stop rule and physical parameters of a run."""

    name: str
    dim: int
    kn: float
    tau_model: TauModel
    x_lo: float
    x_hi: float
    rho0: Callable[[np.ndarray], np.ndarray]
    u0: Callable[[np.ndarray], np.ndarray]      # u_1; the transverse velocity is 0
    theta0: Callable[[np.ndarray], np.ndarray]
    t_stop: float | None = None
    steady_tol: float | None = None             # L1 density residual per unit time
    t_max: float = 400.0
    default_cells: int = 200
    far_fields: tuple | None = None     # ((rho, u vec, theta) x 2); None: periodic

    def __post_init__(self):
        if not self.kn >= 0.0:      # NaN fails the test; Kn = 0 and inf pass
            raise ValueError(f"Kn must be >= 0, got {self.kn}")


def _check_field(rho, theta, where: str) -> None:
    """ValueError unless rho, theta > 0: the only gas either solver represents."""
    if not (np.min(rho) > 0.0 and np.min(theta) > 0.0):     # NaN fails both
        raise ValueError(f"both solvers need rho > 0 and theta > 0; {where} has not")


def far_field_frames(scenario: Scenario):
    """The far fields as ((rho, u_1, theta) left, (rho, u_1, theta) right), or
    None on a periodic mesh.  ValueError for a transverse velocity or as ``_check_field``."""
    if scenario.far_fields is None:
        return None
    out = []
    for side, (rho, u, theta) in zip(("left", "right"), scenario.far_fields):
        u = np.asarray(u, dtype=float).reshape(-1)
        if np.any(u[1:]):
            raise ValueError("both solvers need zero transverse velocity; "
                             f"the {side} far field has some")
        _check_field(rho, theta, f"the {side} far field")
        out.append((float(rho), float(u[0]), float(theta)))
    return tuple(out)


def sample(scenario: Scenario, n_cells: int):
    """The scenario on a uniform mesh of ``n_cells`` cells: cell centres x,
    width dx and the initial rho, u_1 and theta, each (n,).

    Raises ValueError for an initial field without one value per cell, and for
    an initial field or a far field as ``far_field_frames`` does.
    """
    dx = (scenario.x_hi - scenario.x_lo) / n_cells
    x = scenario.x_lo + (np.arange(n_cells) + 0.5) * dx
    rho, u1, theta = (np.asarray(f(x), dtype=float)
                      for f in (scenario.rho0, scenario.u0, scenario.theta0))
    if not rho.shape == u1.shape == theta.shape == x.shape:
        raise ValueError(f"rho0, u0 and theta0 must each give one value per cell {x.shape}")
    _check_field(rho, theta, "the initial field")
    far_field_frames(scenario)
    return x, dx, rho, u1, theta


class SolverBreakdown(RuntimeError):
    """A state a step cannot continue from, at its lowest bad cell and start time."""

    def __init__(self, message: str, cell: int, time: float):
        super().__init__(f"{message} (cell {cell}, t = {time:.6g})")
        self.cell = cell
        self.time = time


def check_positive(rho, theta, time: float, first_cell: int = 0) -> None:
    """Both steps' test after transport: SolverBreakdown at the first cell, counted
    from ``first_cell``, whose rho or theta is not positive (NaN included)."""
    if not (rho.min() > 0.0 and theta.min() > 0.0):     # NaN fails both
        bad = ~(rho > 0.0) | ~(theta > 0.0)
        raise SolverBreakdown("non-positive or NaN density or temperature after "
                              "transport", first_cell + int(np.argmax(bad)), time)


def check_mesh(n_cells: int, cfl: float) -> None:
    """The checks both solvers' configs make on their mesh and CFL number."""
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"CFL must lie in (0, 1], got {cfl}")


STEADY_INTERVAL = 1.0    # time between the density checkpoints of a steady search


def integrate(state, cfg, advance: Callable[[float], float],
              density: Callable[[], np.ndarray]):
    """Advance ``state`` to ``cfg.t_stop``, or until its density is steady.

    ``advance(dt_limit)`` takes one step of at most ``dt_limit``; ``density()``
    returns the cell densities.  With ``cfg.steady_tol`` set, the run stops once
    ``state.residual``, their L1 change per unit time between checkpoints
    STEADY_INTERVAL apart, falls below it; a search without t_stop that reaches
    t_max sets ``state.converged`` False.
    """
    eps = 1e-12
    steady = cfg.steady_tol is not None
    t_end = cfg.t_stop if cfg.t_stop is not None else cfg.t_max
    state.converged = not steady or cfg.t_stop is not None
    check_t = state.t + STEADY_INTERVAL
    prev_rho = density().copy()
    prev_t = state.t
    while state.t < t_end - eps:
        limit = t_end - state.t
        if steady:
            limit = min(limit, check_t - state.t)
        advance(limit)
        if steady and state.t >= check_t - eps:
            rho = density()
            span = state.t - prev_t
            state.residual = float(np.abs(rho - prev_rho).sum() * state.dx / span)
            if state.residual < cfg.steady_tol:
                state.converged = True
                break
            prev_rho = rho.copy()
            prev_t = state.t
            check_t = state.t + STEADY_INTERVAL
    return state


def _riemann(left, right, dim: int, **fields) -> Scenario:
    """A scenario that jumps at x = 0 from ``left`` to ``right``, each
    (rho, u_1, theta), with those two states as its far fields."""
    def jump(j):
        return lambda x: np.where(np.asarray(x) < 0.0, left[j], right[j])

    # velocity vectors of length dim; their transverse zeros are never -0.0
    far = tuple((rho, np.concatenate(([u1], np.zeros(dim - 1))), theta)
                for rho, u1, theta in (left, right))
    return Scenario(dim=dim, rho0=jump(0), u0=jump(1), theta0=jump(2),
                    far_fields=far, **fields)


def shock_tube(kn: float = 0.02, dim: int = 3) -> Scenario:
    """Density 7 -> 1, pressure 7 -> 1 (theta = 1 both sides), gas at rest."""
    return _riemann((7.0, 0.0, 1.0), (1.0, 0.0, 1.0), dim, name="shock-tube", kn=kn,
                    tau_model=TauModel("kn-over-rho"), x_lo=-1.0, x_hi=1.5,
                    t_stop=0.3, default_cells=200)


def rankine_hugoniot_states(mach: float):
    """Upstream/downstream equilibrium states of a steady gamma=5/3 shock.

    Returns ((rho, u1, p) left, (rho, u1, p) right); both carry the same mass,
    momentum and energy fluxes, so the shock is stationary.
    """
    if not 1.0 < mach < math.inf:      # NaN fails the test
        raise ValueError(f"shock Mach number must be finite and exceed 1, got {mach}")
    s = math.sqrt(GAMMA_MONATOMIC)
    left = (1.0, s * mach, 1.0)
    right = (4.0 * mach**2 / (mach**2 + 3.0),
             s * (mach**2 + 3.0) / (4.0 * mach),
             (5.0 * mach**2 - 1.0) / 4.0)
    return left, right


def shock_structure(mach: float, kn: float = 1.0, omega: float = 0.72,
                    dim: int = 3) -> Scenario:
    """Steady shock profile problem at Mach ``mach``; VHS relaxation time."""
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = rankine_hugoniot_states(mach)
    return _riemann((rho_l, u_l, p_l / rho_l), (rho_r, u_r, p_r / rho_r), dim,
                    name="shock-structure", kn=kn, tau_model=TauModel("vhs", omega=omega),
                    x_lo=-30.0, x_hi=30.0, steady_tol=1e-6, default_cells=600)


BUILTIN_SCENARIOS = ("shock-tube", "shock-structure")


def make_scenario(name: str, kn: float | None = None, mach: float | None = None,
                  omega: float = 0.72, dim: int = 3) -> Scenario:
    """A built-in scenario; without ``kn`` it takes the builtin's default Kn."""
    given = {} if kn is None else {"kn": kn}
    if name == "shock-tube":
        return shock_tube(dim=dim, **given)
    if name == "shock-structure":
        if mach is None:
            raise ValueError("shock-structure needs a Mach number")
        return shock_structure(mach, omega=omega, dim=dim, **given)
    raise ValueError(f"unknown scenario {name!r}; built-ins: {BUILTIN_SCENARIOS}")
