"""Independent quadrature oracles used across the test suite.

Velocity-space integrals of a truncated Hermite expansion are computed with
tensor Gauss quadrature against the unit Gaussian: writing xi = u + sqrt(theta) v,

    int g(xi) f(xi) dxi
        = sum_alpha f_alpha theta^{-|alpha|/2}
          E_{v ~ N(0,I)} [ prod_d He_{alpha_d}(v_d) * g(u + sqrt(theta) v) ],

which the rule evaluates exactly whenever g is a polynomial of moderate
degree.  These oracles never call the projection or closure code paths they
are used to check.

The reference formulas below (stress and heat flux, pointwise closures) work
on the full graded-lex ``MomentLayout``, a storage scheme the library itself
no longer uses, so they share no indexing code with what they check.

The file opens with reference code that only the tests call: the scalar
frame ``MacroState``, the solver's constraint residual, Hermite evaluation
and Gauss quadrature, the iteration's first-order-law check and the
shock-profile normalization.  It closes with the smooth periodic scenario
that the solver tests, ACCEPT-4 and ACCEPT-8 share, the domain totals of a
moment state (``conserved_totals``), and with the two steps
the library reorders: the DVM step in flux form and the moment step with
three projection calls, with the ghost cells it builds by concatenation
(``_extend``).
"""
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial import hermite_e

from regmom.dvm import _conserved
from regmom.indices import AxisymmetricLayout, enumerate_indices, lead
from regmom.iteration import ManufacturedField, _sigma_q1, run_iteration
from regmom.scenarios import Scenario, TauModel, far_field_frames
from regmom.solver import SolverBreakdown, _regularize, flux_coefficients, hermite_roots
from regmom.state import _trace, conserved_from_coeffs, macro_from_conserved, project_coeffs
from regmom.state import enforce_constraints as pin_constraints


@dataclass
class MacroState:
    """Frame parameters of the expansion: density, velocity, temperature."""

    rho: float
    u: np.ndarray
    theta: float

    def __post_init__(self):
        self.u = np.atleast_1d(np.asarray(self.u, dtype=float))
        if not (self.rho > 0.0 and self.theta > 0.0):      # NaN fails the test
            raise ValueError(
                f"need rho > 0 and theta > 0, got rho={self.rho}, theta={self.theta}")

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def pressure(self) -> float:
        return self.rho * self.theta


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


def he_eval(n: int, x):
    """He_n(x) by recursion; returns 0 for n < 0. Accepts scalars or arrays."""
    if n < 0:
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    prev = np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    if n == 0:
        return prev
    cur = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def he_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """He_0..He_nmax at the points x, shape (nmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def he_derivative(n: int, x):
    """He_n'(x) = n He_{n-1}(x)."""
    if n <= 0:
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    return n * he_eval(n - 1, x)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for integrals against exp(-x^2/2)/sqrt(2 pi) on R.

    With n nodes the rule is exact for polynomials up to degree 2n - 1.
    Weights are normalized: integrate(1) == 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, n: int = 40) -> "QuadratureRule":
        x, w = hermite_e.hermegauss(n)
        return cls(nodes=x, weights=w / math.sqrt(2.0 * math.pi))

    def integrate(self, values: np.ndarray) -> float:
        """Sum of values(nodes) * weights along the last axis."""
        return np.asarray(values) @ self.weights


@dataclass
class NSFReport:
    sigma_dev: float   # max relative deviation of sigma_{i1} from the limit law
    q_dev: float       # same for q_1
    scale: float


def nsf_check(field: ManufacturedField, tau: float, sweeps: int = 2,
              max_order: int = 6, grid_n: int = 64) -> NSFReport:
    """Compare sweep-``sweeps`` stress/heat flux with the first-order laws.

    After one sweep the match is exact; further sweeps add O(tau^2), so the
    deviation must shrink by ~4 under tau halving.
    """
    sample = field.sample(grid_n)
    f = run_iteration(sample, tau, sweeps, max_order)
    D = field.dim
    sig, q1 = _sigma_q1(f, D)
    mu = tau * sample.rho * sample.theta
    sig_ref = np.empty_like(sig)
    for i in range(D):
        dev = 0.5 * ((i == 0) * sample.u_x[:, i] + sample.u_x[:, i])
        if i == 0:
            dev -= sample.u_x[:, 0] / D
        sig_ref[:, i] = -2.0 * mu * dev
    q_ref = -0.5 * (D + 2) * mu * sample.theta_x
    # tau-free scale, so the deviation keeps both of its tau powers
    scale = float((sample.rho * sample.theta).max())
    return NSFReport(
        sigma_dev=float(np.abs(sig - sig_ref).max() / scale),
        q_dev=float(np.abs(q1 - q_ref).max() / scale),
        scale=scale,
    )


def normalize_density(rho: np.ndarray, rho_left: float, rho_right: float) -> np.ndarray:
    """Affine map sending the far-field densities to 0 and 1."""
    if rho_left == rho_right:
        raise ValueError("far-field densities must differ")
    return (np.asarray(rho, dtype=float) - rho_left) / (rho_right - rho_left)


class MomentLayout:
    """Bijective ordinal numbering of {alpha : |alpha| <= order} in N^dim.

    Immutable after construction.
    """

    def __init__(self, order: int, dim: int):
        self.order = order
        self.dim = dim
        self.indices = enumerate_indices(order, dim)
        self.size = len(self.indices)
        self._ordinal = {a: k for k, a in enumerate(self.indices)}
        self.orders = np.array([sum(a) for a in self.indices], dtype=np.intp)
        self.components = np.array(self.indices, dtype=np.intp).reshape(self.size, dim)

    def __repr__(self) -> str:
        return f"MomentLayout(order={self.order}, dim={self.dim}, size={self.size})"

    def __len__(self) -> int:
        return self.size

    def ordinal(self, alpha: tuple[int, ...]) -> int:
        """Position of alpha in the graded-lex ordering; |alpha| > order is rejected."""
        try:
            return self._ordinal[tuple(alpha)]
        except KeyError:
            raise ValueError(f"{tuple(alpha)} is not in the moment set "
                             f"(order {self.order}, dim {self.dim})") from None

    def unrank(self, k: int) -> tuple[int, ...]:
        return self.indices[k]

    def contains(self, alpha: tuple[int, ...]) -> bool:
        return tuple(alpha) in self._ordinal

    def grade(self, n: int) -> slice:
        """Slice of ordinals with |alpha| == n (contiguous by construction)."""
        lo = count(n - 1, self.dim) if n > 0 else 0
        return slice(lo, count(n, self.dim))


def count(order: int, dim: int) -> int:
    """Number of multi-indices with |alpha| <= order: binomial(order+dim, dim)."""
    if order < 0:
        return 0
    return math.comb(order + dim, dim)


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


@dataclass
class GradientData:
    """x-derivatives of the local state (1D space).

    u_x[d] is du_d/dx; coeffs_x holds df_alpha/dx for every retained alpha in
    layout order.
    """

    rho_x: float
    u_x: np.ndarray
    theta_x: float
    coeffs_x: np.ndarray


def _get(layout: MomentLayout, values: np.ndarray, alpha) -> float:
    if any(c < 0 for c in alpha):
        return 0.0
    if not layout.contains(alpha):
        return 0.0
    return float(values[layout.ordinal(tuple(alpha))])


def closure_nonlinear(layout: MomentLayout, alpha, macro: MacroState,
                      coeffs: np.ndarray, grads: GradientData, tau: float) -> float:
    """Nonlinear closure value for one index alpha with |alpha| = M + 1."""
    alpha = tuple(alpha)
    D = layout.dim
    rho, theta = macro.rho, macro.theta
    sh = stress_heat(layout, coeffs, macro)
    p_x = grads.rho_x * theta + rho * grads.theta_x

    am1 = tuple(a - (d == 0) for d, a in enumerate(alpha))  # alpha - e_1
    val = tau * (p_x / rho * _get(layout, coeffs, am1)
                 - theta * _get(layout, grads.coeffs_x, am1))
    a1p1 = alpha[0] + 1
    for d in range(D):
        amd1 = tuple(a - (j == d) - (j == 0) for j, a in enumerate(alpha))
        am2d1 = tuple(a - 2 * (j == d) - (j == 0) for j, a in enumerate(alpha))
        am2dp1 = tuple(a - 2 * (j == d) + (j == 0) for j, a in enumerate(alpha))
        val += (0.5 * sh.sigma[d, 0] * _get(layout, coeffs, amd1)
                + sh.q[0] * (theta * _get(layout, coeffs, am2d1)
                             + a1p1 * _get(layout, coeffs, am2dp1))
                / ((D + 2) * theta)) / rho
    return val


def closure_linear(layout: MomentLayout, alpha, theta: float, tau: float,
                   coeffs_x: np.ndarray) -> float:
    """Linearized closure value: -tau theta d f_{alpha-e_1} / dx."""
    am1 = tuple(a - (d == 0) for d, a in enumerate(tuple(alpha)))
    return -tau * theta * _get(layout, coeffs_x, am1)


def _tensor_nodes(dim, n_nodes):
    x, w = hermite_e.hermegauss(n_nodes)
    w = w / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    v = np.stack([g.ravel() for g in grids], axis=-1)
    wt = reduce(np.multiply.outer, [w] * dim).ravel()
    return v, wt


def quad_moment(layout, coeffs, macro, g, n_nodes=40):
    """int g(xi) f(xi) dxi for the expansion (coeffs, macro); g maps (N, D) -> (N,)."""
    D = layout.dim
    v, wt = _tensor_nodes(D, n_nodes)
    xi = np.asarray(macro.u) + math.sqrt(macro.theta) * v
    gv = np.asarray(g(xi), dtype=float) * wt
    tabs = [he_table(layout.order, v[:, d]) for d in range(D)]
    total = 0.0
    for k, alpha in enumerate(layout.indices):
        prod = gv
        for d in range(D):
            prod = prod * tabs[d][alpha[d]]
        total += coeffs[k] * macro.theta ** (-sum(alpha) / 2.0) * prod.sum()
    return total


def raw_moment(layout, coeffs, macro, powers, n_nodes=40):
    """int prod_d xi_d^{p_d} f dxi."""
    powers = tuple(powers)

    def g(xi):
        out = np.ones(xi.shape[0])
        for d, p in enumerate(powers):
            out = out * xi[:, d] ** p
        return out

    return quad_moment(layout, coeffs, macro, g, n_nodes)


def central_moment(layout, coeffs, macro, powers, n_nodes=40):
    """int prod_d (xi_d - u_d)^{p_d} f dxi."""
    powers = tuple(powers)
    u = np.asarray(macro.u)

    def g(xi):
        out = np.ones(xi.shape[0])
        for d, p in enumerate(powers):
            out = out * (xi[:, d] - u[d]) ** p
        return out

    return quad_moment(layout, coeffs, macro, g, n_nodes)


def quad_stress_heat(layout, coeffs, macro, n_nodes=40):
    """(p_ij, sigma_ij, q_k) straight from their defining integrals."""
    D = layout.dim
    p_tensor = np.empty((D, D))
    for i in range(D):
        for j in range(D):
            powers = [0] * D
            powers[i] += 1
            powers[j] += 1
            p_tensor[i, j] = central_moment(layout, coeffs, macro, powers, n_nodes)
    q = np.zeros(D)
    for k in range(D):
        for j in range(D):
            powers = [0] * D
            powers[j] += 2
            powers[k] += 1
            q[k] += 0.5 * central_moment(layout, coeffs, macro, powers, n_nodes)
    sigma = p_tensor - macro.rho * macro.theta * np.eye(D)
    return p_tensor, sigma, q


def coeff_by_projection(layout, coeffs, macro, beta, n_nodes=40):
    """Recover one coefficient through the orthogonality relation.

    f_beta = theta^{|beta|/2} / beta! * int f(xi) prod_d He_{beta_d}(v_d) dxi.
    """
    beta = tuple(beta)
    u = np.asarray(macro.u)
    rt = math.sqrt(macro.theta)

    def g(xi):
        out = np.ones(xi.shape[0])
        for d, b in enumerate(beta):
            out = out * np.asarray(
                he_table(max(b, 0), (xi[:, d] - u[d]) / rt)[b])
        return out

    fact = np.prod([math.factorial(b) for b in beta])
    return (macro.theta ** (sum(beta) / 2.0) / fact
            * quad_moment(layout, coeffs, macro, g, n_nodes))


def enforce_constraints(layout, coeffs, rho):
    """Full-layout constraint pinning, in place: f_0 = rho, f_{e_i} = 0, and the
    trace of f_{2e_d} removed in equal parts."""
    coeffs[..., 0] = rho
    coeffs[..., layout.grade(1)] = 0.0
    k2 = [layout.ordinal(tuple(2 * (j == d) for j in range(layout.dim)))
          for d in range(layout.dim)]
    coeffs[..., k2] -= coeffs[..., k2].sum(axis=-1, keepdims=True) / layout.dim
    return coeffs


def expand_full(axi, g):
    """Full-layout coefficients (..., K) of axisymmetric coefficients g (..., M+1, K'):
    f_(a,2i,2j) = C(i+j, i) g_(a,i+j), f_(a,2k) = g_(a,k), f_a = g_(a,0), and 0 at
    every odd transverse index."""
    layout = MomentLayout(axi.order, axi.dim)
    f = np.zeros(g.shape[:-2] + (layout.size,))
    for n, (a, *rest) in enumerate(layout.indices):
        if not any(c % 2 for c in rest):
            half = [c // 2 for c in rest]
            f[..., n] = math.comb(sum(half), half[0] if half else 0) * g[..., a, sum(half)]
    return layout, f


# ---------------------------------------------------------------------------
# The smooth periodic scenario of the solver tests, ACCEPT-4 and ACCEPT-8,
# and the totals that the conservation checks compare.


def periodic_scenario(dim=3, amp=0.2):
    """Smooth periodic manufactured initial state on [0, 2 pi)."""

    def rho0(x):
        return 1.0 + amp * np.sin(x)

    def u0(x):
        return 0.1 * np.sin(x + 0.4)

    def theta0(x):
        return 1.0 + 0.1 * np.cos(x + 0.9)

    return Scenario(name="periodic", dim=dim, kn=0.05,
                    tau_model=TauModel("kn-over-rho"), x_lo=0.0,
                    x_hi=2.0 * math.pi, rho0=rho0, u0=u0, theta0=theta0,
                    t_stop=0.2, default_cells=64)


def conserved_totals(state) -> np.ndarray:
    """(mass, momentum_1..D, energy) of a moment state, integrated over the domain."""
    D = state.u.shape[1]
    tot = np.empty(D + 2)
    tot[0] = state.rho.sum() * state.dx
    tot[1:1 + D] = (state.rho[:, None] * state.u).sum(axis=0) * state.dx
    tot[-1] = (0.5 * state.rho * (state.u ** 2).sum(axis=1)
               + 0.5 * D * state.rho * state.theta).sum() * state.dx
    return tot


# ---------------------------------------------------------------------------
# The DVM step in flux form: face fluxes v f of a ghost-extended copy, and the
# corrected Maxwellian by a batched LU solve of the full 3x3 moment system.
# The library's step reorders this arithmetic; tests compare the two.


def flux_form_maxwellian(grid, rho, u1, theta, dim: int,
                         out_g: np.ndarray | None = None,
                         out_h: np.ndarray | None = None):
    """Reduced nodal Maxwellians corrected to the exact discrete moments.

    Solves a 3x3 system per cell for the quadratic factor; rho and theta
    must be positive.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
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


def flux_form_ghosts(scenario, grid):
    """Flux-form discrete Maxwellians of the two far-field states."""
    return tuple(flux_form_maxwellian(grid, *frame, scenario.dim)
                 for frame in far_field_frames(scenario))


class FluxFormScratch:
    """Reusable step buffers, keyed to the (n, n_v) shape."""

    def __init__(self, n: int, n_v: int, dim: int):
        self.ext = np.empty((n + 2, n_v))
        self.flux = np.empty((n + 1, n_v))
        self.gm = np.empty((n, n_v))
        self.hm = np.empty((n, n_v)) if dim > 1 else None


def _flux_transport(arr, ghost_l, ghost_r, v, dt_dx, periodic: bool,
                    scratch: FluxFormScratch):
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


def flux_form_step(state, cfg, grid, ghosts=None, dt_limit: float | None = None,
                   scratch: FluxFormScratch | None = None) -> float:
    """One upwind transport + relaxation step; returns dt."""
    dt = cfg.cfl * state.dx / grid.v_max
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    sc = state.scenario
    periodic = sc.far_fields is None
    if not periodic and ghosts is None:
        raise ValueError("far-field boundary needs ghost distributions")
    if scratch is None:
        scratch = FluxFormScratch(state.g.shape[0], state.g.shape[1], state.dim)
    (g_l, h_l), (g_r, h_r) = ghosts if ghosts is not None else ((None, None),) * 2
    v = grid.v
    state.g = _flux_transport(state.g, g_l, g_r, v, dt / state.dx, periodic, scratch)
    if state.h is not None:
        state.h = _flux_transport(state.h, h_l, h_r, v, dt / state.dx, periodic, scratch)

    if math.isfinite(sc.kn):
        rho, u1, theta = _conserved(state.g, state.h, state.dim, grid)
        bad = ~(rho > 0.0) | ~(theta > 0.0)     # NaN counts as bad
        if bad.any():
            raise SolverBreakdown("non-positive or NaN density or temperature after "
                                  "transport", int(np.argmax(bad)), state.t)
        tau = np.asarray(sc.tau_model.tau(sc.kn, rho, theta))
        gm, hm = flux_form_maxwellian(grid, rho, u1, theta, state.dim,
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


# ---------------------------------------------------------------------------
# The moment step with three projection calls: both sides of each interface
# into the interface frame, the LLF flux back into each cell's frame, and the
# updated cell into its new frame.  The library's step takes the new frame
# from the face fluxes and makes the last two projections in one call.


def _sides(x):
    """x[..., :-1] and x[..., 1:], the two sides of each face, on a new axis -2."""
    out = np.empty(x.shape[:-1] + (2, x.shape[-1] - 1))
    out[..., 0, :], out[..., 1, :] = x[..., :-1], x[..., 1:]
    return out


def _extend(scenario: Scenario, rho, u1, theta, coeffs):
    """State arrays with one ghost cell on each side (coeffs: cells last, or
    None, which comes back as None)."""
    if scenario.far_fields is None:
        ring = np.arange(-1, rho.size + 1) % rho.size
        return rho[ring], u1[ring], theta[ring], None if coeffs is None else coeffs[..., ring]
    (rl, ul, tl), (rr, ur, tr) = scenario.far_fields
    rho_e = np.concatenate([[rl], rho, [rr]])
    u_e = np.concatenate([[ul[0]], u1, [ur[0]]])
    th_e = np.concatenate([[tl], theta, [tr]])
    if coeffs is None:
        return rho_e, u_e, th_e, None
    co_g = np.zeros(coeffs.shape[:-1] + (2,))
    co_g[0, 0] = rl, rr
    co_e = np.concatenate([co_g[..., :1], coeffs, co_g[..., 1:]], axis=-1)
    return rho_e, u_e, th_e, co_e


def three_projection_step(state, cfg) -> float:
    """Advance the state by one time step in place; returns dt taken."""
    sc, lay = state.scenario, state.layout
    dx = state.dx
    u1 = state.u[:, 0]

    c_top = hermite_roots(cfg.order + 1)[-1]
    lam = np.abs(u1) + c_top * np.sqrt(state.theta)
    tau = np.asarray(sc.tau_model.tau(sc.kn, state.rho, state.theta), dtype=float)
    dt = cfg.cfl * (dx / lam.max())
    state.max_speed = float(lam.max())

    # --- (c) leading half of the relaxation --------------------------------
    relaxed = lead((lay.grades >= 2) & (lay.grades <= lay.order), state.coeffs)
    state.coeffs *= np.where(relaxed, np.exp(-0.5 * dt / tau), 1.0)

    # --- (a) hyperbolic transport in shared interface frames -------------
    rho_e, u_e, th_e, co_e = _extend(sc, state.rho, u1, state.theta, state.coeffs)
    u_f = 0.5 * (u_e[:-1] + u_e[1:])
    th_f = 0.5 * (th_e[:-1] + th_e[1:])
    g_lr = project_coeffs(lay, _sides(co_e), u_f - _sides(u_e), th_f - _sides(th_e))
    f_lr = flux_coefficients(lay, g_lr, u_f, th_f)
    # substep (a) transports with the frozen interface-frame flux, a linear
    # system whose extreme characteristic speed is exactly this bound
    lam_f = np.abs(u_f) + c_top * np.sqrt(th_f)
    phi = (0.5 * (f_lr[:, :, 0] + f_lr[:, :, 1])
           - 0.5 * lam_f * (g_lr[:, :, 1] - g_lr[:, :, 0]))

    # (mass, momentum_1, energy) fluxes through the domain boundaries, for the
    # books; the transverse momentum fluxes are 0
    ends = [0, -1]
    bflux = np.stack(conserved_from_coeffs(lay, phi[..., ends], u_f[ends], th_f[ends]))
    state.boundary_account[[0, 1, -1]] += dt * (bflux[:, 0] - bflux[:, 1])

    # the faces of each cell are its left (side 0) and right (side 1) neighbours
    phi_lr = project_coeffs(lay, _sides(phi), u1 - _sides(u_f), state.theta - _sides(th_f))
    state.coeffs -= dt / dx * (phi_lr[:, :, 1] - phi_lr[:, :, 0])

    # --- conserved recovery and frame move: the step's positivity test ----
    rho_new, m1, energy = conserved_from_coeffs(lay, state.coeffs, u1, state.theta)
    u1_new, th_new = macro_from_conserved(rho_new, m1, energy, lay.dim)
    bad = ~(rho_new > 0.0) | ~(th_new > 0.0)     # NaN counts as bad
    if bad.any():
        raise SolverBreakdown("non-positive or NaN density or temperature after "
                              "transport", int(np.argmax(bad)), state.t)
    state.coeffs = project_coeffs(lay, state.coeffs, u1_new - u1, th_new - state.theta)
    pin_constraints(lay, state.coeffs, rho_new)
    state.rho, state.theta = rho_new, th_new
    state.u = np.zeros_like(state.u)
    state.u[:, 0] = u1_new

    # --- (b) top-order regularization -------------------------------------
    tau = np.asarray(sc.tau_model.tau(sc.kn, state.rho, state.theta), dtype=float)
    _regularize(state, cfg, dt, state.coeffs)

    # --- (c) trailing half of the relaxation --------------------------------
    state.coeffs *= np.where(relaxed, np.exp(-0.5 * dt / tau), 1.0)

    state.t += dt
    state.steps += 1
    state.last_dt = dt
    state.dt_min = min(state.dt_min, dt)
    state.dt_max = max(state.dt_max, dt)
    return dt
