import math
from dataclasses import replace

import numpy as np
import pytest

from regmom.dvm import (DVMConfig, DVMState, VelocityGrid, _conserved, _ghosts,
                        discrete_maxwellian, dvm_moments, dvm_run, dvm_step,
                        make_dvm_state, suggested_v_max)
from regmom.hermite import he_table
from regmom.scenarios import shock_structure, shock_tube
from regmom.state import MacroState, UnphysicalStateError

from oracles import MomentLayout, enforce_constraints, stress_heat


def total_mass(state: DVMState, grid: VelocityGrid) -> float:
    return float(state.g.sum() * grid.dv * state.dx)


def periodic(dim=3, kn=0.1):
    """The physics of a state made by hand: a periodic shock-tube gas."""
    return replace(shock_tube(kn=kn, dim=dim), boundary="periodic", far_fields=None)


def test_config_validation():
    DVMConfig(n_cells=1, n_v=2, v_max=1.0, cfl=1.0)
    for bad in (dict(n_cells=0), dict(cfl=0.0), dict(cfl=1.5), dict(n_v=1),
                dict(v_max=0.0), dict(v_max=-3.0)):
        with pytest.raises(ValueError):
            DVMConfig(**{"n_cells": 8, "n_v": 10, "v_max": 5.0, **bad})


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_corrected_maxwellian_moments_exact(dim):
    grid = VelocityGrid.make(120, 10.0)
    rho = np.array([7.0, 1.0, 2.5])
    u1 = np.array([0.0, 0.4, -0.6])
    theta = np.array([1.0, 1.3, 0.7])
    g, h = discrete_maxwellian(grid, rho, u1, theta, dim)
    state = DVMState(scenario=periodic(dim), x=np.zeros(3), dx=1.0, g=g, h=h)
    mom = dvm_moments(state, grid)
    assert np.abs(mom["rho"] - rho).max() < 1e-12 * rho.max()
    assert np.abs(mom["u1"] - u1).max() < 1e-12
    assert np.abs(mom["theta"] - theta).max() < 1e-12
    # the longitudinal variance is theta: an equilibrium carries no stress
    assert np.abs(mom["sigma11"]).max() < 1e-12 * rho.max()
    assert np.abs(mom["q1"]).max() < 1e-8


def test_discrete_maxwellian_stress_heat_vanish():
    grid = VelocityGrid.make(160, 12.0)
    g, h = discrete_maxwellian(grid, np.array([2.0]), np.array([0.3]),
                               np.array([1.4]), 3)
    state = DVMState(scenario=periodic(3), x=np.zeros(1), dx=1.0, g=g, h=h)
    mom = dvm_moments(state, grid)
    assert abs(mom["sigma11"][0]) < 1e-8
    assert abs(mom["q1"][0]) < 1e-8


def test_discrete_maxwellian_rejects_unphysical():
    grid = VelocityGrid.make(40, 8.0)
    with pytest.raises(UnphysicalStateError):
        discrete_maxwellian(grid, np.array([-1.0]), np.array([0.0]),
                            np.array([1.0]), 3)


def test_shock_tube_init_recovers_left_state():
    sc = shock_tube()
    cfg = DVMConfig.from_scenario(sc, n_cells=64, n_v=200, v_max=12.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    mom = dvm_moments(state, grid)
    left = mom["x"] < 0
    assert np.abs(mom["rho"][left] - 7.0).max() < 1e-10
    assert np.abs(mom["theta"][left] - 1.0).max() < 1e-10


def test_equilibrium_state_is_invariant():
    sc = shock_tube()
    sc.rho0 = lambda x: np.full_like(np.asarray(x, float), 2.0)
    sc.theta0 = lambda x: np.full_like(np.asarray(x, float), 1.2)
    sc.far_fields = ((2.0, np.zeros(3), 1.2), (2.0, np.zeros(3), 1.2))
    cfg = DVMConfig.from_scenario(sc, n_cells=32, n_v=80, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    ghosts = _ghosts(sc, grid)
    g0 = state.g.copy()
    for _ in range(10):
        dvm_step(state, cfg, grid, ghosts=ghosts)
    assert np.abs(state.g - g0).max() < 1e-13 * g0.max()


def test_nan_cell_raises_unphysical():
    sc = shock_tube()
    cfg = DVMConfig.from_scenario(sc, n_cells=32, n_v=40, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    state.g[10] = np.nan
    with pytest.raises(UnphysicalStateError):
        dvm_step(state, cfg, grid, ghosts=_ghosts(sc, grid))


def test_breakdown_names_first_bad_cell_and_time():
    sc = shock_tube()
    cfg = DVMConfig.from_scenario(sc, n_cells=32, n_v=40, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    ghosts = _ghosts(sc, grid)
    dvm_step(state, cfg, grid, ghosts=ghosts)
    t = state.t
    state.g[12] = np.nan            # upwind transport spreads it to cells 11 and 13
    with pytest.raises(UnphysicalStateError, match=f"cell 11, t = {t:.6g}"):
        dvm_step(state, cfg, grid, ghosts=ghosts)


def test_steady_search_stops_on_uniform_state():
    sc = shock_tube()
    sc.rho0 = lambda x: np.full_like(np.asarray(x, float), 2.0)
    sc.theta0 = lambda x: np.full_like(np.asarray(x, float), 1.2)
    sc.far_fields = ((2.0, np.zeros(3), 1.2), (2.0, np.zeros(3), 1.2))
    sc.t_stop, sc.steady_tol = None, 1e-8
    cfg = DVMConfig.from_scenario(sc, n_cells=32, n_v=80, v_max=10.0, t_max=50.0)
    state, _ = dvm_run(sc, cfg)
    assert state.t < 2.0  # stopped by the residual at an early checkpoint
    assert state.residual < 1e-8
    assert state.converged


def test_steady_search_reaching_t_max_is_not_converged():
    sc = shock_structure(3.0)
    cfg = DVMConfig.from_scenario(sc, n_cells=60, n_v=60, t_max=2.0)
    state, _ = dvm_run(sc, cfg)
    assert state.t == pytest.approx(2.0)
    assert state.residual > cfg.steady_tol
    assert not state.converged


def test_free_transport_translates_bump():
    # collisionless advection: each velocity column's centroid moves at v
    n, nv = 200, 16
    x = np.linspace(0.0, 1.0, n, endpoint=False) + 0.5 / n
    grid = VelocityGrid.make(nv, 2.0)
    bump = np.exp(-0.5 * ((x - 0.3) / 0.04) ** 2)
    g = np.tile(bump[:, None], (1, nv))
    state = DVMState(scenario=periodic(1, kn=math.inf), x=x, dx=1.0 / n, g=g, h=None)
    cfg = DVMConfig(n_cells=n, n_v=nv, v_max=2.0)
    t_end = 0.21
    while state.t < t_end - 1e-12:
        dvm_step(state, cfg, grid, dt_limit=t_end - state.t)

    def centroid(col):
        w = state.g[:, col]
        return (x * w).sum() / w.sum()

    for col in (2, nv // 2, nv - 3):
        expect = 0.3 + grid.v[col] * t_end
        if 0.05 < expect < 0.95:  # avoid periodic wrap in the centroid
            assert abs(centroid(col) - expect) <= state.dx


def test_periodic_mass_conserved_per_step():
    n, nv = 64, 40
    grid = VelocityGrid.make(nv, 10.0)
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    rho = 1.0 + 0.3 * np.sin(2 * math.pi * x)
    g, h = discrete_maxwellian(grid, rho, 0.2 * np.ones(n), np.ones(n), 3)
    state = DVMState(scenario=periodic(3), x=x, dx=1.0 / n, g=g, h=h)
    cfg = DVMConfig(n_cells=n, n_v=nv, v_max=10.0)
    m0 = total_mass(state, grid)
    for _ in range(25):
        prev = total_mass(state, grid)
        dvm_step(state, cfg, grid)
        assert abs(total_mass(state, grid) - prev) < 1e-13 * abs(prev)
    assert abs(total_mass(state, grid) - m0) < 1e-12 * abs(m0)


def test_relaxation_conserves_all_three_moments():
    n, nv = 16, 100
    grid = VelocityGrid.make(nv, 10.0)
    rng = np.random.default_rng(3)
    rho = 1.0 + rng.random(n)
    u1 = 0.3 * rng.normal(size=n)
    th = 0.8 + 0.4 * rng.random(n)
    g, h = discrete_maxwellian(grid, rho, u1, th, 3)
    # perturb away from equilibrium, then check relaxation toward the
    # corrected Maxwellian leaves the conserved moments untouched
    g = g * (1.0 + 0.05 * np.sin(grid.v)[None, :])
    h = h * (1.0 - 0.03 * np.cos(grid.v)[None, :])
    state = DVMState(scenario=periodic(3), x=np.zeros(n), dx=1.0, g=g, h=h)
    before = np.stack(_conserved(state, grid))
    # zero transport: single cell row repeated periodically is not uniform,
    # so run the relaxation directly
    rho2, u2, th2 = _conserved(state, grid)
    gm, hm = discrete_maxwellian(grid, rho2, u2, th2, 3)
    decay = 0.3
    state.g = gm + (state.g - gm) * decay
    state.h = hm + (state.h - hm) * decay
    after = np.stack(_conserved(state, grid))
    assert np.abs(after - before).max() < 1e-12 * np.abs(before).max()


def test_dvm_moments_match_hermite_expansion():
    # cross-module oracle: reduce a Hermite expansion state onto the velocity
    # grid and compare the DVM's quadrature moments with the coefficient
    # formulas for stress and heat flux
    lay = MomentLayout(4, 3)
    rng = np.random.default_rng(9)
    mac = MacroState(rho=1.7, u=[0.25, 0.0, 0.0], theta=1.1)
    coeffs = rng.normal(size=lay.size) * 0.04
    enforce_constraints(lay, coeffs, mac.rho)
    # transverse moments must vanish for the reduced pair to capture the state
    for k, alpha in enumerate(lay.indices):
        if alpha[1] % 2 or alpha[2] % 2:
            coeffs[k] = 0.0
    grid = VelocityGrid.make(400, 14.0)
    v1 = (grid.v - mac.u[0]) / math.sqrt(mac.theta)
    tab = he_table(lay.order, v1)
    weight = np.exp(-0.5 * v1**2) / math.sqrt(2 * math.pi)
    g = np.zeros_like(grid.v)
    h = np.zeros_like(grid.v)
    for k, alpha in enumerate(lay.indices):
        base = coeffs[k] * mac.theta ** (-(alpha[0] + 1) / 2.0) * tab[alpha[0]] * weight
        if alpha[1] == 0 and alpha[2] == 0:
            g += base
            h += 2.0 * mac.theta * base
        elif (alpha[1], alpha[2]) in ((2, 0), (0, 2)):
            h += 2.0 * base  # int xi_t^2 (transverse degree-2 factor) = 2
    state = DVMState(scenario=periodic(3), x=np.zeros(1), dx=1.0, g=g[None, :],
                     h=h[None, :])
    mom = dvm_moments(state, grid)
    sh = stress_heat(lay, coeffs, mac)
    assert mom["rho"][0] == pytest.approx(mac.rho, rel=1e-10)
    assert mom["u1"][0] == pytest.approx(mac.u[0], abs=1e-10)
    assert mom["theta"][0] == pytest.approx(mac.theta, rel=1e-10)
    assert mom["sigma11"][0] == pytest.approx(sh.sigma[0, 0], abs=1e-8)
    assert mom["q1"][0] == pytest.approx(sh.q[0], abs=1e-8)


def test_suggested_v_max_covers_far_fields():
    sc = shock_tube()
    assert suggested_v_max(sc) >= 5.0
    from regmom.scenarios import shock_structure
    sc9 = shock_structure(9.0)
    (rho_l, u_l, th_l), (rho_r, u_r, th_r) = sc9.far_fields
    need = max(abs(u_l[0]) + 5 * math.sqrt(th_l), abs(u_r[0]) + 5 * math.sqrt(th_r))
    assert suggested_v_max(sc9) >= need - 1.0


def test_refinement_consistency_reduced_scale():
    # halving dx and doubling n_v moves the shock-tube profile by < 1% L1
    sc = shock_tube(kn=0.02)
    base_cfg = DVMConfig.from_scenario(sc, n_cells=300, n_v=60, v_max=12.0)
    fine_cfg = DVMConfig.from_scenario(sc, n_cells=600, n_v=120, v_max=12.0)
    base, grid_b = dvm_run(sc, base_cfg)
    fine, grid_f = dvm_run(sc, fine_cfg)
    rho_b = dvm_moments(base, grid_b)["rho"]
    rho_f = dvm_moments(fine, grid_f)["rho"].reshape(300, 2).mean(axis=1)
    assert np.abs(rho_b - rho_f).sum() / np.abs(rho_f).sum() < 0.01
