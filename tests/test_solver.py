import importlib.machinery
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from regmom import solver as solver_module
from regmom.dvm import DVMConfig, VelocityGrid, make_dvm_state
from regmom.indices import AxisymmetricLayout
from regmom.output import read_csv, snapshot_columns
from regmom.scenarios import TauModel, shock_structure, shock_tube
from regmom.solver import (SimState, SolverBreakdown, SolverConfig,
                           flux_coefficients, make_state, run, step, _regularize,
                           _solve_banded_tridiag, _solve_cyclic_tridiag)
from regmom.state import enforce_constraints

from oracles import (MacroState, _extend, conserved_totals, constraint_residual,
                     expand_full, periodic_scenario, raw_moment, three_projection_step)

DATA = Path(__file__).resolve().parent / "data"


def test_config_validation():
    SolverConfig(order=3, n_cells=1, cfl=1.0)
    for bad in (dict(order=2), dict(n_cells=0), dict(cfl=0.0), dict(cfl=1.5),
                dict(cfl=math.nan), dict(closure="cubic")):
        with pytest.raises(ValueError):
            SolverConfig(**{"order": 3, "n_cells": 8, **bad})


def test_flux_equilibrium_at_rest():
    # F_00 = 0 and F_10 = rho theta (momentum flux is the pressure)
    lay = AxisymmetricLayout(3, 3)
    g = np.zeros(lay.shape)
    g[0, 0] = 2.0
    F = flux_coefficients(lay, g, 0.0, 1.3)
    assert F[0, 0] == 0.0
    assert F[1, 0] == pytest.approx(2.0 * 1.3, rel=1e-14)


def test_flux_uniform_state_is_stationary():
    lay = AxisymmetricLayout(3, 3)
    g = np.zeros(lay.shape)
    g[0, 0] = 2.0
    F = flux_coefficients(lay, g, 0.3, 1.3)
    # identical neighboring states => zero flux divergence; here simply check
    # the flux is finite and reproducible
    assert np.all(np.isfinite(F))
    F2 = flux_coefficients(lay, g, 0.3, 1.3)
    assert np.array_equal(F, F2)


@pytest.mark.parametrize("seed", [0, 1])
def test_flux_conserved_components_match_quadrature(seed):
    # mass/momentum_1/energy fluxes = int xi_1 {1, xi_1, |xi|^2/2} f dxi
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3):
        lay = AxisymmetricLayout(4, dim)
        u = np.zeros(dim)
        u[0] = rng.normal() * 0.3
        mac = MacroState(rho=1.0 + rng.random(), u=u, theta=0.8 + 0.4 * rng.random())
        g = rng.normal(size=lay.shape) * 0.05 * lay.mask
        enforce_constraints(lay, g, mac.rho)
        F = flux_coefficients(lay, g, mac.u[0], mac.theta)
        assert np.all(F[lay.mask == 0.0] == 0.0)
        full, f = expand_full(lay, g)
        e1 = tuple(int(j == 0) for j in range(dim))
        assert F[0, 0] == pytest.approx(raw_moment(full, f, mac, e1), abs=1e-10)
        mom_flux = mac.u[0] * F[0, 0] + F[1, 0]
        assert mom_flux == pytest.approx(raw_moment(full, f, mac, (2,) + e1[1:]), abs=1e-10)
        trace = F[2, 0] + (dim - 1) * (F[0, 1] if dim > 1 else 0.0)
        e_flux = 0.5 * (mac.u[0] ** 2 * F[0, 0] + 2.0 * mac.u[0] * F[1, 0]
                        + dim * mac.theta * F[0, 0] + 2.0 * trace)
        ref = 0.5 * sum(raw_moment(full, f, mac,
                                   tuple((j == 0) + 2 * (j == d) for j in range(dim)))
                        for d in range(dim))
        assert e_flux == pytest.approx(ref, abs=1e-10)


def test_global_equilibrium_is_invariant():
    sc = periodic_scenario()
    sc.rho0 = lambda x: np.full_like(np.asarray(x, float), 1.7)
    sc.u0 = lambda x: np.full_like(np.asarray(x, float), 0.2)
    sc.theta0 = lambda x: np.full_like(np.asarray(x, float), 1.1)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=32)
    state = make_state(sc, cfg)
    before = state.coeffs.copy()
    for _ in range(10):
        step(state, cfg)
    assert np.abs(state.coeffs - before).max() < 1e-13
    assert np.abs(state.rho - 1.7).max() < 1e-13


def test_periodic_conservation_per_step():
    sc = periodic_scenario()
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=48)
    state = make_state(sc, cfg)
    tot0 = conserved_totals(state)
    scale = np.abs(tot0) + np.abs(tot0).max()
    for _ in range(60):
        prev = conserved_totals(state)
        step(state, cfg)
        drift = np.abs(conserved_totals(state) - prev) / scale
        assert drift.max() < 1e-12
    total_drift = np.abs(conserved_totals(state) - tot0) / scale
    assert total_drift.max() < 1e-12


def test_farfield_conservation_matches_boundary_fluxes():
    sc = shock_tube(kn=0.02)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=100)
    state = make_state(sc, cfg)
    tot0 = conserved_totals(state)
    run(state, cfg)
    change = conserved_totals(state) - tot0
    scale = max(1.0, np.abs(tot0).max())
    assert np.abs(change - state.boundary_account).max() < 1e-10 * scale


def test_solver_states_satisfy_constraints():
    sc = shock_tube(kn=0.02)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=64)
    state = make_state(sc, cfg)
    for _ in range(40):
        step(state, cfg)
        res = constraint_residual(state.layout, state.coeffs, state.rho,
                                  state.theta)
        assert float(np.max(res)) < 1e-8


def test_grid_convergence_first_order():
    # smooth periodic data shows the scheme's clean asymptotic order; the
    # shock tube converges too but sits below first order near its corners
    # at practical resolutions (the acceptance suite bounds that error
    # against the kinetic reference instead)
    profiles = {}
    for cells in (32, 64, 128):
        sc = periodic_scenario()
        sc.t_stop = 0.4
        cfg = SolverConfig.from_scenario(sc, order=3, n_cells=cells)
        state = make_state(sc, cfg)
        run(state, cfg)
        profiles[cells] = state.rho

    def restrict(rho):
        return rho.reshape(-1, 2).mean(axis=1)

    e_coarse = np.abs(profiles[32] - restrict(profiles[64])).sum() / 32
    e_fine = np.abs(profiles[64] - restrict(profiles[128])).sum() / 64
    order = math.log2(e_coarse / e_fine)
    assert order >= 0.8


def test_shock_tube_self_error_decreases_under_refinement():
    sc = shock_tube(kn=0.02)
    profiles = {}
    for cells in (100, 200, 400):
        cfg = SolverConfig.from_scenario(sc, order=3, n_cells=cells)
        state = make_state(sc, cfg)
        run(state, cfg)
        profiles[cells] = state.rho

    def restrict(rho):
        return rho.reshape(-1, 2).mean(axis=1)

    e_coarse = np.abs(profiles[100] - restrict(profiles[200])).sum() * 2.5 / 100
    e_fine = np.abs(profiles[200] - restrict(profiles[400])).sum() * 2.5 / 200
    assert e_fine < e_coarse


def test_breakdown_reports_cell_and_time():
    sc = shock_tube(kn=0.02)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=32)
    state = make_state(sc, cfg)
    # sabotage one cell with a huge opposing heat-flux coefficient so the
    # transport update drives the internal energy negative
    state.coeffs[3, 0, 10] = 1e4
    with pytest.raises(SolverBreakdown) as err:
        for _ in range(50):
            step(state, cfg)
    assert err.value.cell >= 0
    assert err.value.time >= 0.0


@pytest.mark.parametrize("seed", ["kinetic-above-total", "negative-density"])
def test_unphysical_recovery_raises_breakdown_at_seeded_cell(seed):
    # the step's one positivity test follows the conserved recovery; a step
    # too short to move anything leaves the seeded cell the only bad one
    sc = shock_tube(kn=0.02)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=32)
    state = make_state(sc, cfg)
    cell = 20
    if seed == "kinetic-above-total":
        # m_1 = g_10 with u_1 = 0: m_1^2 / 2 rho exceeds E = 3 rho theta / 2
        state.coeffs[1, 0, cell] = 10.0 * state.rho[cell]
    else:
        state.coeffs[0, 0, cell] = -state.rho[cell]
    with pytest.raises(SolverBreakdown) as err:
        step(state, cfg, dt_limit=1e-9)
    assert err.value.cell == cell
    assert err.value.time == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_transverse_velocity_and_books_stay_zero(dim):
    sc = shock_tube(kn=0.05, dim=dim)
    cfg = SolverConfig.from_scenario(sc, order=4, n_cells=40)
    state = make_state(sc, cfg)
    for _ in range(20):
        step(state, cfg)
    assert state.u.shape == (40, dim)
    assert np.all(state.u[:, 1:] == 0.0)
    assert np.all(state.boundary_account[2:-1] == 0.0)
    assert np.any(state.u[:, 0] != 0.0)


# The ids "explicit" and "implicit" name the regime of the top-order diffusion:
# forward Euler would be stable at the advective step at the lower Kn only.
@pytest.mark.parametrize("kn", [0.02, 0.5], ids=["explicit", "implicit"])
def test_nan_cell_raises_breakdown(kn):
    # NaN fails every positivity test, so it must not come back as a result;
    # the recovery raises before the regularization runs
    sc = shock_tube(kn=kn)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=32)
    state = make_state(sc, cfg)
    state.coeffs[0, 0, 10] = np.nan
    with pytest.raises(SolverBreakdown) as err:
        step(state, cfg)
    assert err.value.cell in (9, 10, 11)
    assert err.value.time == 0.0


@pytest.mark.parametrize("kn", [0.02, 0.5], ids=["explicit", "implicit"])
def test_nonfinite_top_coefficient_raises_breakdown(kn):
    # a NaN on the top grade leaves (rho, u_1, theta) finite, so only the
    # test after the regularization can see it; it must not come back as a
    # result, nor as a usage error from the banded solve, which couples every
    # cell of the system
    sc = shock_tube(kn=kn)
    cfg = SolverConfig.from_scenario(sc, order=5, n_cells=32)
    state = make_state(sc, cfg)
    state.coeffs[5, 0, 10] = np.nan
    with pytest.raises(SolverBreakdown, match="non-finite top-order") as err:
        step(state, cfg)
    assert np.isfinite(state.rho).all() and np.isfinite(state.theta).all()
    assert err.value.cell in range(32)
    assert err.value.time == 0.0


ORACLE_CASES = [(boundary, closure, regime)
                for boundary in ("farfield-D1", "farfield-D2", "farfield-D3", "periodic")
                for closure in ("linear", "nonlinear")
                for regime in ("explicit", "implicit")]


@pytest.mark.parametrize("boundary, closure, regime", ORACLE_CASES,
                         ids=["-".join(c) for c in ORACLE_CASES])
def test_step_matches_three_projection_oracle(boundary, closure, regime):
    # the step takes the new frame from the face fluxes and projects each
    # cell and both of its face fluxes into it in one call; in exact
    # arithmetic that is the three-projection step, so 100 steps agree to
    # roundoff
    kn = {"explicit": 0.01, "implicit": 0.5}[regime]
    if boundary == "periodic":
        sc = periodic_scenario(dim=3)
        sc.kn = kn
    else:
        sc = shock_tube(kn=kn, dim=int(boundary[-1]))
    cfg = SolverConfig.from_scenario(sc, order=5, n_cells=40, closure=closure, t_stop=None)
    got, ref = make_state(sc, cfg), make_state(sc, cfg)
    for _ in range(100):
        step(got, cfg)
        three_projection_step(ref, cfg)
    assert got.steps == ref.steps == 100
    for name in ("coeffs", "rho", "theta", "u", "boundary_account"):
        a, b = getattr(got, name), getattr(ref, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name
    assert got.t == pytest.approx(ref.t, rel=1e-12)


@pytest.mark.parametrize("scenario", ["tube-nonlinear", "structure-linear", "periodic",
                                      "tube-nonstiff"])
def test_step_makes_two_projections_and_one_flux_call(scenario, monkeypatch):
    # counted at the regmom.solver names, which the benchmark's tracer wraps;
    # the periodic ring's cyclic solve is one banded solve too, and a step
    # whose diffusion is not stiff solves like any other
    sc, closure, cells = {"tube-nonlinear": (shock_tube(kn=0.5), "nonlinear", 24),
                          "structure-linear": (shock_structure(3.0), "linear", 24),
                          "periodic": (periodic_scenario(), "linear", 24),
                          "tube-nonstiff": (shock_tube(kn=0.01), "linear", 40)}[scenario]
    cfg = SolverConfig.from_scenario(sc, order=4, n_cells=cells, closure=closure)
    state = make_state(sc, cfg)
    calls = {"project_coeffs": 0, "flux_coefficients": 0, "_solve_banded_tridiag": 0}
    for name in calls:
        inner = getattr(solver_module, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, counted)
    for n in (1, 2):
        step(state, cfg)
        assert calls == {"project_coeffs": 2 * n, "flux_coefficients": n,
                         "_solve_banded_tridiag": n}


def test_warm_step_allocates_no_coefficient_sized_array():
    # every coefficient-sized array of a step lives on the state's scratch:
    # once warm, a step of the M = 9 nonlinear tube peaks below two of them
    sc = shock_tube(kn=0.5)
    cfg = SolverConfig.from_scenario(sc, order=9, n_cells=200, closure="nonlinear")
    state = make_state(sc, cfg)
    for _ in range(3):
        step(state, cfg)
    tracemalloc.start()
    try:
        step(state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * state.coeffs.nbytes


@pytest.mark.parametrize("boundary", ["farfield", "periodic"])
def test_scratch_ghost_cells_match_extend(boundary):
    # the step's ghost-extended buffers, refilled twice a step, hold what
    # the concatenating _extend builds: the far fields (written
    # once) or the periodic ring around the cells
    sc = shock_tube(kn=0.5) if boundary == "farfield" else periodic_scenario()
    cfg = SolverConfig.from_scenario(sc, order=5, n_cells=30, closure="nonlinear")
    state = make_state(sc, cfg)
    for _ in range(3):
        step(state, cfg)
    co_e, fr = state.scratch.extend(state.coeffs, state.rho, state.u[:, 0], state.theta)
    rho_e, u_e, th_e, co_ref = _extend(sc, state.rho, state.u[:, 0], state.theta, state.coeffs)
    assert np.array_equal(fr, np.stack([rho_e, u_e, th_e]))
    assert np.array_equal(co_e, co_ref)


def test_step_reuses_trailing_tau_until_the_state_changes(monkeypatch):
    # the trailing relaxation's tau is the next step's leading one; a state
    # whose (rho, theta) arrays were replaced since gets its tau computed again
    sc = shock_tube(kn=0.5)
    cfg = SolverConfig.from_scenario(sc, order=4, n_cells=24)
    state = make_state(sc, cfg)
    calls = []
    inner = TauModel.tau

    def counted(self, kn, rho, theta):
        calls.append(rho.size)
        return inner(self, kn, rho, theta)

    monkeypatch.setattr(TauModel, "tau", counted)
    step(state, cfg)
    assert calls == [24, 24, 25]      # leading cells, trailing cells, regularization faces
    calls.clear()
    step(state, cfg)
    assert calls == [24, 25]
    calls.clear()
    state.rho = state.rho.copy()
    step(state, cfg)
    assert calls == [24, 24, 25]


def test_steady_state_stop_on_uniform_state():
    sc = periodic_scenario()
    sc.rho0 = lambda x: np.full_like(np.asarray(x, float), 1.0)
    sc.u0 = lambda x: np.zeros_like(np.asarray(x, float))
    sc.theta0 = lambda x: np.ones_like(np.asarray(x, float))
    sc.t_stop = None
    sc.steady_tol = 1e-8
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=16, t_max=50.0)
    state = make_state(sc, cfg)
    run(state, cfg)
    assert state.t < 10.0  # stopped by the residual, far before t_max
    assert state.residual < 1e-8
    assert state.converged


def test_steady_search_reaching_t_max_is_not_converged():
    sc = shock_structure(3.0)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=60, t_max=3.0)
    state = make_state(sc, cfg)
    run(state, cfg)
    assert state.t == pytest.approx(3.0)
    assert state.residual > cfg.steady_tol
    assert not state.converged


def test_grad_closure_breaks_down_where_the_regularization_does_not(monkeypatch):
    # the unregularized moment method (Grad's closure, f_(M+1) = 0) loses the
    # Mach 9 shock structure at M = 5, and the regularization carries it;
    # ACCEPT-7's robustness clauses at M = 3 pass with either closure
    sc = shock_structure(9.0)
    cfg = SolverConfig.from_scenario(sc, order=5, n_cells=600, t_stop=2.0)
    state = make_state(sc, cfg)
    run(state, cfg)
    assert state.t == pytest.approx(2.0, abs=1e-12)
    assert np.isfinite(state.coeffs).all()
    assert (state.rho > 0.0).all() and (state.theta > 0.0).all()
    monkeypatch.setattr("regmom.solver._regularize", lambda state, cfg, dt, coeffs: None)
    grad = make_state(sc, cfg)
    with pytest.raises(SolverBreakdown):
        run(grad, cfg)


@pytest.mark.parametrize("closure", ["linear", "nonlinear"])
def test_step_at_kn_zero_relaxes_to_equilibrium(closure):
    # tau = 0 is the equilibrium limit: the trailing relaxation factor is
    # exp(-inf) = 0, so every coefficient of grade >= 2 ends the step at 0
    sc = shock_tube(kn=0.0)
    cfg = SolverConfig.from_scenario(sc, order=5, n_cells=16, closure=closure)
    state = make_state(sc, cfg)
    for _ in range(2):
        step(state, cfg)
    assert np.isfinite(state.coeffs).all()
    assert (state.coeffs[state.layout.grades >= 2] == 0.0).all()


def test_explicit_and_implicit_diffusion_agree_when_nonstiff():
    # backward Euler on the top-order diffusion and a forward-Euler difference
    # of the same closure flux, applied to one state whose diffusion is not
    # stiff, differ at second order in dt
    sc = periodic_scenario()
    sc.kn = 0.01
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=64)
    state = make_state(sc, cfg)
    for _ in range(5):
        step(state, cfg)
    top, dx, dt = (state.layout.top_a, state.layout.top_k), state.dx, state.last_dt
    rho_e, _, th_e, co_e = _extend(sc, state.rho, state.u[:, 0], state.theta, state.coeffs)
    th_f = 0.5 * (th_e[:-1] + th_e[1:])
    tau_f = sc.tau_model.tau(sc.kn, 0.5 * (rho_e[:-1] + rho_e[1:]), th_f)
    flux = state.top.linear(th_f, tau_f, np.diff(co_e[top], axis=-1) / dx)
    div = state.top.transport_factor[:, None] * np.diff(flux, axis=-1) / dx
    change = dt * np.abs(div).max()
    assert change > 1e-3 * np.abs(state.coeffs[top]).max()
    gaps = []
    for h in (dt, 0.5 * dt):
        implicit = state.coeffs.copy()
        _regularize(state, cfg, h, implicit)
        gaps.append(np.abs(implicit[top] - (state.coeffs[top] - h * div)).max())
    assert gaps[0] < 0.05 * change         # 0.013 today
    # halving dt divides a second-order gap by 4 (3.52 today, with the
    # third-order term), a first-order one by 2
    assert 3.0 < gaps[0] / gaps[1] < 4.5


def test_cyclic_tridiag_solver():
    rng = np.random.default_rng(12)
    n = 24
    lower = -0.3 - 0.1 * rng.random(n)
    upper = -0.2 - 0.1 * rng.random(n)
    diag = 1.0 + np.abs(lower) + np.abs(upper) + rng.random(n)
    tr, bl = lower[0], upper[-1]   # wrap couplings of the periodic Laplacian
    A = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    A[0, -1] = tr
    A[-1, 0] = bl
    rhs = rng.normal(size=(n, 3))
    got = _solve_cyclic_tridiag(lower, diag, upper, tr, bl, rhs)
    assert np.abs(A @ got - rhs).max() < 1e-11


@pytest.mark.parametrize("boundary", ["farfield", "periodic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_top_solve_matches_per_entry_solves(boundary, dim):
    # the implicit substep stacks one tridiagonal system per top entry into a
    # single block-diagonal banded solve; it must give what separate solves give
    if boundary == "farfield":
        sc = shock_tube(kn=0.05, dim=dim)
    else:
        sc = periodic_scenario(dim)
    cfg = SolverConfig.from_scenario(sc, order=5, n_cells=40)
    state = make_state(sc, cfg)
    for _ in range(3):
        step(state, cfg)
    lay, dx, dt = state.layout, state.dx, 4.0 * state.last_dt
    assert lay.top_a.size == (1 if dim == 1 else 3)
    rho_e, _, th_e, _ = _extend(sc, state.rho, state.u[:, 0], state.theta, state.coeffs)
    th_f = 0.5 * (th_e[:-1] + th_e[1:])
    kappa_f = sc.tau_model.tau(sc.kn, 0.5 * (rho_e[:-1] + rho_e[1:]), th_f) * th_f
    ref = state.coeffs.copy()
    for a, k in zip(lay.top_a, lay.top_k):
        g = dt * (a + 1) / dx**2
        lower, upper = -g * kappa_f[:-1], -g * kappa_f[1:]
        diag = 1.0 + g * (kappa_f[:-1] + kappa_f[1:])
        if boundary == "periodic":
            ref[a, k] = _solve_cyclic_tridiag(lower, diag, upper, lower[0], upper[-1], ref[a, k])
        else:
            ref[a, k] = _solve_banded_tridiag(lower, diag, upper, ref[a, k])
    top = (lay.top_a, lay.top_k)
    scale = np.abs(ref[top]).max()
    assert np.abs(ref[top] - state.coeffs[top]).max() > 1e-3 * scale   # the solve acts
    got = state.coeffs.copy()
    _regularize(state, cfg, dt, got)
    assert np.abs(got[top] - ref[top]).max() <= 1e-13 * scale
    off = lay.grades != lay.order
    assert np.array_equal(got[off], state.coeffs[off])


_FRESH_IMPLICIT_STEPS = """
import json, math, sys
import numpy as np
import regmom.cli
from regmom import scenarios, solver

calls = {"banded": 0, "cyclic": 0}
for name, key in (("_solve_banded_tridiag", "banded"), ("_solve_cyclic_tridiag", "cyclic")):
    def counted(*args, _inner=getattr(solver, name), _key=key):
        calls[_key] += 1
        return _inner(*args)
    setattr(solver, name, counted)

ring = scenarios.Scenario(
    name="periodic", dim=3, kn=0.5, tau_model=scenarios.TauModel("kn-over-rho"),
    x_lo=0.0, x_hi=2.0 * math.pi, rho0=lambda x: 1.0 + 0.2 * np.sin(x),
    u0=lambda x: np.zeros_like(np.asarray(x, float)),
    theta0=lambda x: 1.0 + 0.1 * np.cos(x), t_stop=0.2,
    default_cells=64)
first = None
for sc, order, closure in ((scenarios.shock_tube(kn=0.5), 9, "nonlinear"),
                           (ring, 4, "linear")):
    cfg = solver.SolverConfig.from_scenario(sc, order=order, closure=closure)
    state = solver.make_state(sc, cfg)
    for _ in range(3):
        solver.step(state, cfg)
    first = first or solver._gtsv()
print(json.dumps({
    "loaded": sorted(m for m in ("scipy.linalg", "numpy.testing", "numpy.f2py")
                     if m in sys.modules),
    "calls": calls, "one_gtsv": solver._gtsv() is first}))
"""


def test_implicit_solves_never_import_scipy_linalg():
    # a fresh interpreter: the tube's banded and the ring's cyclic solves load
    # gtsv without the scipy.linalg package and its numpy.testing imports
    src = Path(solver_module.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPLICIT_STEPS],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert result["calls"] == {"banded": 6, "cyclic": 3}    # every step implicit
    assert result["one_gtsv"]


def test_gtsv_is_one_routine_on_every_load_path(monkeypatch):
    import scipy.linalg.lapack

    rng = np.random.default_rng(15)
    n = 17
    systems = []
    for lead, rhs_shape in (((), (n,)), ((2,), (2, n)), ((3,), (3, n, 4))):
        lower = -rng.random(lead + (n,))
        upper = -rng.random(lead + (n,))
        diag = 2.5 + rng.random(lead + (n,))
        systems.append((lower, diag, upper, rng.normal(size=rhs_shape)))

    def solves():
        out = [_solve_banded_tridiag(*system) for system in systems]
        lower, diag, upper, rhs = systems[-1]
        out.append(_solve_cyclic_tridiag(lower, diag, upper, lower[:, 0], upper[:, -1], rhs))
        return out

    gtsv = solver_module._gtsv
    try:
        gtsv.cache_clear()              # the loaded extension, from sys.modules
        assert gtsv() is scipy.linalg.lapack.dgtsv
        ref = solves()
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        gtsv.cache_clear()              # the extension file
        assert gtsv() is scipy.linalg.lapack.dgtsv
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        gtsv.cache_clear()              # no file found: the public import
        assert gtsv() is scipy.linalg.lapack.dgtsv
        assert all(np.array_equal(a, b) for a, b in zip(solves(), ref, strict=True))
    finally:
        gtsv.cache_clear()


def test_nsf_consistency_of_solver_stress():
    # smooth periodic run at low Kn: the state's sigma_11 tracks the
    # first-order law with deviation shrinking ~4x under Kn halving.
    # Resolution scales as Kn^{3/2} so splitting (dt/tau)^2 and scheme
    # dissipation stay below the O(tau^2) signal being measured.
    from regmom.state import sigma11_q1

    devs = []
    for kn in (2e-2, 1e-2, 5e-3):
        sc = periodic_scenario()
        sc.kn = kn
        sc.t_stop = 0.25
        cells = int(round(64 * (0.02 / kn) ** 1.5))
        cfg = SolverConfig.from_scenario(sc, order=3, n_cells=cells)
        state = make_state(sc, cfg)
        run(state, cfg)
        sig = sigma11_q1(state.layout, state.coeffs)[0]
        tau = sc.tau_model.tau(kn, state.rho, state.theta)
        dudx = np.gradient(state.u[:, 0], state.dx)
        sig_ref = -(4.0 / 3.0) * tau * state.rho * state.theta * dudx
        scale = (state.rho * state.theta).max()
        devs.append(np.abs(sig - sig_ref).max() / scale)
    assert devs[0] / devs[1] > 3.0
    assert devs[1] / devs[2] > 3.0


@pytest.mark.parametrize("solver", ["moment", "dvm"])
@pytest.mark.parametrize("where", ["far-field"])
def test_make_state_rejects_transverse_velocity(where, solver):
    # neither solver represents a transverse velocity; the DVM once dropped it.
    # An initial field gives u_1 alone, so only a far field can carry one.
    sc = shock_tube()
    sc.far_fields = (sc.far_fields[0], (1.0, np.array([0.0, 0.0, 0.3]), 1.0))
    if solver == "dvm":     # the default v_max reads the far fields
        with pytest.raises(ValueError, match="transverse"):
            DVMConfig.from_scenario(sc)
    if solver == "moment":
        cfg = SolverConfig.from_scenario(sc, order=3, n_cells=8)
        with pytest.raises(ValueError, match="transverse"):
            make_state(sc, cfg)
    else:
        cfg = DVMConfig.from_scenario(sc, n_cells=8, n_v=40, v_max=10.0)
        with pytest.raises(ValueError, match="transverse"):
            make_dvm_state(sc, cfg, VelocityGrid.make(cfg.n_v, cfg.v_max))


@pytest.mark.parametrize("solver", ["moment", "dvm"])
@pytest.mark.parametrize("where", ["initial-rho", "initial-theta", "far-rho", "far-theta"])
def test_make_state_rejects_non_positive_density_or_temperature(where, solver):
    # a setting error for both solvers, checked once at setup: not a
    # breakdown at t = 0
    sc = shock_tube()
    if where == "initial-rho":
        sc.rho0 = lambda x: np.where(np.asarray(x) < 0.0, 7.0, -1.0)
    elif where == "initial-theta":
        sc.theta0 = lambda x: np.where(np.asarray(x) < 0.0, 1.0, np.nan)
    elif where == "far-rho":
        sc.far_fields = ((0.0, np.zeros(3), 1.0), sc.far_fields[1])
    else:
        sc.far_fields = (sc.far_fields[0], (1.0, np.zeros(3), math.nan))
    if solver == "moment":
        with pytest.raises(ValueError, match="rho > 0 and theta > 0"):
            make_state(sc, SolverConfig.from_scenario(sc, order=3, n_cells=8))
    else:
        cfg = DVMConfig.from_scenario(sc, n_cells=8, n_v=40, v_max=10.0)
        with pytest.raises(ValueError, match="rho > 0 and theta > 0"):
            make_dvm_state(sc, cfg, VelocityGrid.make(cfg.n_v, cfg.v_max))


def test_make_state_rejects_infinite_kn():
    # the top-order diffusion needs a finite tau; only the DVM has a free flight
    sc = shock_tube(kn=math.inf)
    with pytest.raises(ValueError, match="finite Kn"):
        make_state(sc, SolverConfig.from_scenario(sc, order=3, n_cells=8))


@pytest.mark.parametrize("dim,steps", [(1, 23), (2, 22), (3, 22)])
def test_shock_tube_matches_full_layout_golden(dim, steps):
    """Outputs of the full multi-index solver this layout replaced, made by

        regmom run --scenario shock-tube --kn 0.5 --M 6 --closure nonlinear \
            --cells 40 --D <dim>

    (final.csv, stored as tests/data/full_layout_tube_m6_D<dim>.csv).
    """
    sc = shock_tube(kn=0.5, dim=dim)
    cfg = SolverConfig.from_scenario(sc, order=6, n_cells=40, closure="nonlinear")
    state = make_state(sc, cfg)
    run(state, cfg)
    assert state.steps == steps and state.t == pytest.approx(0.3, abs=1e-15)
    ref = read_csv(DATA / f"full_layout_tube_m6_D{dim}.csv")
    got = snapshot_columns(state)
    assert list(got) == list(ref)
    for name, col in ref.items():
        scale = np.abs(col).max()
        tol = 1e-12 * scale if scale > 0 else 1e-14
        assert np.abs(got[name] - col).max() <= tol, name


def test_shock_structure_matches_golden():
    """Output of the cell-first layout g[cell, a, k] that the cell-last one
    replaced, for the linear closure, VHS and implicit diffusion (stiff on every
    step): Mach 3, M = 3, 60 cells, t_stop = 2, written by
    ``write_snapshot(..., dump_coeffs=True)`` (tests/data/structure_mach3_m3.csv).
    """
    sc = shock_structure(3.0)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=60, closure="linear",
                                     t_stop=2.0)
    assert sc.tau_model.kind == "vhs"
    state = make_state(sc, cfg)
    run(state, cfg)
    assert state.steps == 14 and state.t == pytest.approx(2.0, abs=1e-15)
    ref = read_csv(DATA / "structure_mach3_m3.csv")
    got = snapshot_columns(state, dump_coeffs=True)
    assert list(got) == list(ref)
    for name, col in ref.items():
        scale = np.abs(col).max()
        tol = 1e-12 * scale if scale > 0 else 1e-14
        assert np.abs(got[name] - col).max() <= tol, name
