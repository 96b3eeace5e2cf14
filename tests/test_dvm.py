import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import regmom.dvm
from regmom.dvm import (MIN_BLOCK_CELL_NODES, DVMConfig, DVMState, VelocityGrid, _blocks,
                        discrete_maxwellian, dvm_moments, dvm_run, dvm_step, make_dvm_state,
                        suggested_v_max)
from regmom.scenarios import SolverBreakdown, shock_structure, shock_tube

from oracles import (MacroState, MomentLayout, enforce_constraints, flux_form_ghosts,
                     flux_form_step, he_table, stress_heat)


def totals(state: DVMState, grid: VelocityGrid) -> np.ndarray:
    """Mass, momentum and energy of the whole mesh by quadrature."""
    v = grid.v
    energy = 0.5 * (state.g @ v**2).sum()
    if state.h is not None:
        energy += 0.5 * state.h.sum()
    return np.array([state.g.sum(), (state.g @ v).sum(), energy]) * grid.dv * state.dx


def maxwellians(grid, rho, u1, theta, dim):
    """(g_M, h_M, miss) of ``discrete_maxwellian``'s g_M, with the transverse
    h_M = (D - 1) theta g_M of a gas of ``dim`` velocity dimensions (None for 1)."""
    g, miss = discrete_maxwellian(grid, rho, u1, theta)
    return g, None if dim == 1 else (dim - 1) * np.reshape(theta, (-1, 1)) * g, miss


def periodic(dim=3, kn=0.1):
    """The physics of a state made by hand: a periodic shock-tube gas."""
    return replace(shock_tube(kn=kn, dim=dim), far_fields=None)


def test_config_validation():
    DVMConfig(n_cells=1, n_v=3, v_max=1.0, cfl=1.0)
    for bad in (dict(n_cells=0), dict(cfl=0.0), dict(cfl=1.5), dict(n_v=1), dict(n_v=2),
                dict(v_max=0.0), dict(v_max=-3.0)):
        with pytest.raises(ValueError):
            DVMConfig(**{"n_cells": 8, "n_v": 10, "v_max": 5.0, **bad})


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_corrected_maxwellian_moments_exact(dim):
    grid = VelocityGrid.make(120, 10.0)
    rho = np.array([7.0, 1.0, 2.5])
    u1 = np.array([0.0, 0.4, -0.6])
    theta = np.array([1.0, 1.3, 0.7])
    g, h, miss = maxwellians(grid, rho, u1, theta, dim)
    assert miss is None
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
    g, h, _ = maxwellians(grid, np.array([2.0]), np.array([0.3]), np.array([1.4]), 3)
    state = DVMState(scenario=periodic(3), x=np.zeros(1), dx=1.0, g=g, h=h)
    mom = dvm_moments(state, grid)
    assert abs(mom["sigma11"][0]) < 1e-8
    assert abs(mom["q1"][0]) < 1e-8


@pytest.mark.parametrize("theta", [1e-4, 1e-6])
def test_discrete_maxwellian_rejects_under_resolved(theta):
    # 200 nodes on [-12, 12] are 0.12 apart: a gas this cold sits on one
    # node, and no quadratic factor restores its moments
    grid = VelocityGrid.make(200, 12.0)
    assert discrete_maxwellian(grid, [1.0, 1.0], [0.0, 0.05], [1.0, theta])[1] == 1


def test_step_names_cell_and_time_of_an_unresolvable_maxwellian():
    # all mass on one node but a trace on the next: theta is positive but far
    # below the node spacing squared, so the relaxation target cannot be built
    n, nv = 8, 40
    grid = VelocityGrid.make(nv, 10.0)
    g = np.zeros((n, nv))
    g[:, 20], g[:, 21] = (1.0 - 1e-6) / grid.dv, 1e-6 / grid.dv
    state = DVMState(scenario=periodic(1), x=np.zeros(n), dx=1.0 / n, g=g, h=None, t=0.25)
    with pytest.raises(SolverBreakdown, match="cannot represent") as err:
        dvm_step(state, DVMConfig(n_cells=n, n_v=nv, v_max=10.0), grid)
    assert (err.value.cell, err.value.time) == (0, 0.25)


@pytest.mark.parametrize("where", ["initial field", "right far field"])
def test_make_dvm_state_rejects_a_grid_that_cannot_represent_the_setup(where):
    # a setting error, not a breakdown: no step has run
    sc = shock_tube()
    if where == "right far field":
        sc.far_fields = (sc.far_fields[0], (1.0, np.zeros(3), 1e-6))
    else:
        sc.theta0 = lambda x: np.full(np.asarray(x).size, 1e-6)
    cfg = DVMConfig.from_scenario(sc, n_cells=8, n_v=40, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    with pytest.raises(ValueError, match=f"{where}.*--vmax.*--nv"):
        make_dvm_state(sc, cfg, grid)


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
    g0 = state.g.copy()
    for _ in range(10):
        dvm_step(state, cfg, grid)
    assert np.abs(state.g - g0).max() < 1e-13 * g0.max()


def test_nan_cell_raises_unphysical():
    sc = shock_tube()
    cfg = DVMConfig.from_scenario(sc, n_cells=32, n_v=40, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    state.g[10] = np.nan
    with pytest.raises(SolverBreakdown):
        dvm_step(state, cfg, grid)


def test_breakdown_names_first_bad_cell_and_time():
    sc = shock_tube()
    cfg = DVMConfig.from_scenario(sc, n_cells=32, n_v=40, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    dvm_step(state, cfg, grid)
    t = state.t
    state.g[12] = np.nan            # upwind transport spreads it to cells 11 and 13
    with pytest.raises(SolverBreakdown) as err:
        dvm_step(state, cfg, grid)
    assert (err.value.cell, err.value.time) == (11, t)


def test_state_carries_ghost_rows_exactly_when_far_field():
    # a state made by hand without ghost rows cannot run as periodic
    sc = shock_tube(dim=2)
    cfg = DVMConfig.from_scenario(sc, n_cells=8, n_v=40, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    for j, (rho, u, theta) in enumerate(sc.far_fields):
        g, h, _ = maxwellians(grid, rho, u[0], theta, sc.dim)
        assert np.array_equal(state.ghosts[:, j], np.stack([g[0], h[0]]))
    with pytest.raises(ValueError, match="ghost rows"):
        replace(state, ghosts=None)
    with pytest.raises(ValueError, match="ghost rows"):
        replace(state, scenario=replace(sc, far_fields=None))


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
    g, h, _ = maxwellians(grid, rho, 0.2 * np.ones(n), np.ones(n), 3)
    state = DVMState(scenario=periodic(3), x=x, dx=1.0 / n, g=g, h=h)
    cfg = DVMConfig(n_cells=n, n_v=nv, v_max=10.0)
    m0 = totals(state, grid)[0]
    for _ in range(25):
        prev = totals(state, grid)[0]
        dvm_step(state, cfg, grid)
        assert abs(totals(state, grid)[0] - prev) < 1e-13 * abs(prev)
    assert abs(totals(state, grid)[0] - m0) < 1e-12 * abs(m0)


def test_relaxation_conserves_all_three_moments():
    # a periodic gas off equilibrium, stepped through the library's transport
    # and relaxation: each step keeps the mesh's mass, momentum and energy to
    # roundoff, for every velocity dimension
    n, nv = 64, 60
    grid = VelocityGrid.make(nv, 10.0)
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    rho = 1.0 + 0.3 * np.sin(2 * math.pi * x)
    u1 = 0.3 + 0.2 * np.cos(2 * math.pi * x)
    theta = 1.0 + 0.2 * np.sin(4 * math.pi * x)
    cfg = DVMConfig(n_cells=n, n_v=nv, v_max=10.0)
    for dim in (1, 2, 3):
        g, h, _ = maxwellians(grid, rho, u1, theta, dim)
        g *= 1.0 + 0.05 * np.sin(grid.v)
        if h is not None:
            h *= 1.0 - 0.03 * np.cos(grid.v)
        state = DVMState(scenario=periodic(dim), x=x, dx=1.0 / n, g=g, h=h)
        first = totals(state, grid)
        assert np.all(np.abs(first) > 0.1)
        for _ in range(25):
            prev = totals(state, grid)
            dvm_step(state, cfg, grid)
            assert np.all(np.abs(totals(state, grid) - prev) <= 1e-13 * np.abs(prev)), dim
        assert np.all(np.abs(totals(state, grid) - first) <= 1e-12 * np.abs(first)), dim


def test_step_at_kn_zero_lands_on_the_discrete_maxwellian():
    # tau = 0 is the equilibrium limit: the relaxation factor is exp(-inf) = 0,
    # so after one step g and h are the discrete Maxwellians of their own moments
    sc = shock_tube(kn=0.0)
    cfg = DVMConfig.from_scenario(sc, n_cells=16, n_v=40)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    dvm_step(state, cfg, grid)
    mom = dvm_moments(state, grid)
    g_m, h_m, miss = maxwellians(grid, mom["rho"], mom["u1"], mom["theta"], sc.dim)
    assert miss is None
    assert np.abs(state.g - g_m).max() <= 1e-13 * np.abs(g_m).max()
    assert np.abs(state.h - h_m).max() <= 1e-13 * np.abs(h_m).max()


CASES = {"farfield-D1": ("farfield", 1, 0.02), "farfield-D2": ("farfield", 2, 0.02),
         "farfield-D3": ("farfield", 3, 0.02), "periodic-D3": ("periodic", 3, 0.02),
         "farfield-D3-free": ("farfield", 3, math.inf)}


@pytest.mark.parametrize("case", CASES)
def test_step_matches_flux_form_oracle(case):
    boundary, dim, kn = CASES[case]
    sc = shock_tube(kn=kn, dim=dim)
    if boundary == "periodic":
        sc = replace(sc, far_fields=None)
    cfg = DVMConfig.from_scenario(sc, n_cells=64, n_v=48, v_max=10.0)
    grid = VelocityGrid.make(cfg.n_v, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    ref = replace(state, g=state.g.copy(), h=None if state.h is None else state.h.copy())
    farfield = boundary == "farfield"
    ref_ghosts = flux_form_ghosts(sc, grid) if farfield else None
    for _ in range(100):
        dvm_step(state, cfg, grid)
        flux_form_step(ref, cfg, grid, ghosts=ref_ghosts)
    assert state.t == ref.t
    bound = 1e-12 * ref.g.max()
    assert np.abs(state.g - ref.g).max() <= bound
    if dim > 1:
        assert np.abs(state.h - ref.h).max() <= bound


BLOCK_CASES = {"farfield-D1": ("farfield", 1, 45, 40), "farfield-D2": ("farfield", 2, 64, 48),
               "farfield-D3": ("farfield", 3, 97, 60), "periodic-D3": ("periodic", 3, 50, 44)}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_output_does_not_depend_on_block_count(case):
    # each block reads its neighbours' pre-step rows as halo rows, so any
    # split, run on any number of threads, gives the one-block result bit for bit
    boundary, dim, n, nv = BLOCK_CASES[case]
    sc = shock_tube(kn=0.02, dim=dim)
    if boundary == "periodic":
        sc = replace(sc, far_fields=None)
    cfg = DVMConfig.from_scenario(sc, n_cells=n, n_v=nv, v_max=10.0)
    grid = VelocityGrid.make(nv, cfg.v_max)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # more thread switches, more chances of a race
    try:
        with ThreadPoolExecutor(3) as pool:
            for count in (1, 2, 3, 4):
                state = make_dvm_state(sc, cfg, grid)
                state.blocks = _blocks(n, nv, count)
                assert len(state.blocks) == count
                for _ in range(50):
                    dvm_step(state, cfg, grid, pool=pool if count > 1 else None)
                runs.append(state)
    finally:
        sys.setswitchinterval(interval)
    one = runs[0]
    for state in runs[1:]:
        assert state.t == one.t
        assert np.array_equal(state.g, one.g)
        if dim > 1:
            assert np.array_equal(state.h, one.h)
    # the moments' sums over the nodes, formed block by block in the blocks'
    # buffers, round as the whole-array expressions do
    mom = dvm_moments(one, grid)
    c = grid.v - mom["u1"][:, None]
    sigma11 = (one.g * c**2).sum(axis=1) * grid.dv - mom["rho"] * mom["theta"]
    q1 = 0.5 * (one.g * c**3).sum(axis=1) * grid.dv
    if dim > 1:
        q1 = q1 + 0.5 * (one.h * c).sum(axis=1) * grid.dv
    for state in runs:
        mom = dvm_moments(state, grid)
        assert np.array_equal(mom["sigma11"], sigma11) and np.array_equal(mom["q1"], q1)


def test_default_blocks_cover_the_mesh_with_no_block_below_the_floor():
    for n, nv in ((8, 40), (1000, 200), (329, 200), (7, 10**5)):
        blocks = _blocks(n, nv)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n
        if len(blocks) > 1:
            assert min((b.stop - b.start) * nv for b in blocks) >= MIN_BLOCK_CELL_NODES
            assert min(b.stop - b.start for b in blocks) >= 2


def cold_and_nan(n=32, nv=40, cold=None, nan=()):
    """A periodic gas at rest; ``cold`` rows sit on one node, with a trace on
    the next, and the v > 0 nodes of the ``nan`` rows are NaN, which upwind
    transport carries to the right neighbour only."""
    grid = VelocityGrid.make(nv, 10.0)
    g, _ = discrete_maxwellian(grid, np.ones(n), np.zeros(n), np.ones(n))
    if cold is not None:
        g[cold] = 0.0
        g[cold, 20], g[cold, 21] = (1.0 - 1e-6) / grid.dv, 1e-6 / grid.dv
    for k in nan:
        g[k, grid.v > 0.0] = np.nan
    state = DVMState(scenario=periodic(1), x=np.zeros(n), dx=1.0 / n, g=g, h=None, t=0.5)
    return state, DVMConfig(n_cells=n, n_v=nv, v_max=10.0), grid


@pytest.mark.parametrize("corrupt, where", [
    (dict(nan=(20,)), "cell 20, t = 0.5"),
    (dict(nan=(5, 20)), "cell 5, t = 0.5"),
    (dict(nan=(27, 20)), "cell 20, t = 0.5"),
    # a non-positive state anywhere outranks an unresolvable Maxwellian
    (dict(cold=slice(2, 12), nan=(20,)), "cell 20, t = 0.5"),
    (dict(cold=slice(18, 28)), "cell 19, t = 0.5"),
])
def test_breakdown_across_blocks_names_the_lowest_bad_cell(corrupt, where):
    messages = set()
    with ThreadPoolExecutor(1) as pool:
        for count in (1, 2, 3, 4):
            state, cfg, grid = cold_and_nan(**corrupt)
            state.blocks = _blocks(32, 40, count)
            with pytest.raises(SolverBreakdown) as err:
                dvm_step(state, cfg, grid, pool=pool)
            assert f"cell {err.value.cell}, t = {err.value.time:g}" == where
            messages.add(str(err.value))
    assert len(messages) == 1       # the same breakdown for any block count


def tube_run_counting_threads(monkeypatch, poison_at=None):
    """A tube large enough for one block per CPU; records the thread count
    seen inside each step, and puts NaN in the last cell before step
    ``poison_at``."""
    sc = shock_tube(kn=0.02)
    nv = 200
    n = 2 * MIN_BLOCK_CELL_NODES // nv + 20
    cfg = DVMConfig.from_scenario(sc, n_cells=n, n_v=nv, v_max=12.0, t_stop=0.003)
    step, seen = regmom.dvm.dvm_step, []

    def counted(state, *args, **kwargs):
        if state.steps == poison_at:
            state.g[-1] = np.nan
        dt = step(state, *args, **kwargs)
        seen.append(threading.active_count())
        return dt

    monkeypatch.setattr(regmom.dvm, "dvm_step", counted)
    return sc, cfg, seen


def test_dvm_run_stops_its_worker_threads(monkeypatch):
    before = threading.active_count()
    sc, cfg, seen = tube_run_counting_threads(monkeypatch)
    state, _ = dvm_run(sc, cfg)
    assert threading.active_count() == before
    assert len(state.blocks) == len(_blocks(cfg.n_cells, cfg.n_v))
    if len(state.blocks) > 1:
        assert max(seen) == before + len(state.blocks) - 1

    sc, cfg, seen = tube_run_counting_threads(monkeypatch, poison_at=3)
    with pytest.raises(SolverBreakdown) as err:
        dvm_run(sc, cfg)
    assert err.value.cell == cfg.n_cells - 2
    assert len(seen) == 3
    assert threading.active_count() == before


def test_blocks_are_built_once_per_run_and_never_in_a_step(monkeypatch):
    # the state owns its blocks: dvm_run makes them once, with its state,
    # and every step reuses them
    built = []
    inner = regmom.dvm._blocks

    def counted(*args, **kwargs):
        built.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(regmom.dvm, "_blocks", counted)
    sc = shock_tube(kn=0.02)
    cfg = DVMConfig.from_scenario(sc, n_cells=40, n_v=30, v_max=10.0, t_stop=0.05)
    state, grid = dvm_run(sc, cfg)
    assert state.steps > 1 and built == [(40, 30)]
    built.clear()
    state = make_dvm_state(sc, cfg, grid)
    assert len(built) == 1
    for _ in range(3):
        dvm_step(state, cfg, grid)
    assert len(built) == 1


def test_step_allocates_no_cell_by_node_array():
    sc = shock_tube(kn=0.02)
    n, nv = 200, 100
    cfg = DVMConfig.from_scenario(sc, n_cells=n, n_v=nv, v_max=12.0)
    grid = VelocityGrid.make(nv, cfg.v_max)
    state = make_dvm_state(sc, cfg, grid)
    dvm_step(state, cfg, grid)
    peaks = []
    # the moments of the state are formed in the blocks' buffers too
    for call in (lambda: dvm_step(state, cfg, grid), lambda: dvm_moments(state, grid)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < n * nv * 8, peaks


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
