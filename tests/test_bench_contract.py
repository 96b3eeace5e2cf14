"""The benchmark's tracer wraps library names by attribute lookup.

``bench/workloads.py --trace 1`` replaces names such as ``solver.pad_zero``
or ``dvm.discrete_maxwellian`` with recording wrappers.  A name that is
deleted or renamed in the library breaks that run, so this test installs
every wrapper once, then restores them, without running a workload.  The
files under ``bench/`` are only imported, never changed.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name, None) for name in ("workloads", "tracing", "riemann")}
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        for name, mod in saved.items():
            sys.modules.pop(name, None)
            if mod is not None:
                sys.modules[name] = mod


def test_trace_wrappers_install_and_restore(bench_modules):
    workloads, tracing = bench_modules
    from regmom import closure, dvm, scenarios, solver, state

    owners = [(solver, "step"), (solver, "project_coeffs"), (solver, "pad_zero"),
              (state, "pad_zero"), (solver, "hermite_roots"),
              (closure.TopOrderClosure, "linear"), (dvm, "dvm_step"),
              (dvm, "discrete_maxwellian"), (scenarios.TauModel, "tau")]
    before = {(id(o), a): getattr(o, a) for o, a in owners}
    hooks_before = list(sys.meta_path)
    tr = tracing.Tracer()
    workloads._trace_moment(tr)
    workloads._trace_dvm(tr)
    assert all(getattr(o, a) is not before[(id(o), a)] for o, a in owners)
    tr.close()
    assert all(getattr(o, a) is before[(id(o), a)] for o, a in owners)
    assert sys.meta_path == hooks_before


TUBE_CHECKS = {"rho_theta_finite_positive", "budget_rel", "l1_rho_vs_dvm_ref"}
STRUCTURE_CHECKS = {"converged_residual", "normalized_rho_finite", "overshoot",
                    "monotone_max_decrease", "budget_rel", "mass_flux_max_dev"}
DVM_CHECKS = {"mass_rel", "energy_rel", "momentum_rel", "l1_rho_vs_exact_euler"}


def _assert_checks(checks: dict, names: set) -> None:
    assert set(checks) == names
    for c in checks.values():
        assert isinstance(c["value"], float) and np.isfinite(c["value"])
        assert isinstance(c["ok"], bool)


def test_workload_checks_read_library_states(bench_modules):
    # the checks read SimState.u as (n, D), boundary_account as D+2 entries,
    # the far fields as (rho, u vector, theta) and DVMState.g/.h: small
    # states made by the library go through each of them
    workloads, _ = bench_modules
    from regmom import dvm, scenarios, solver

    sc = scenarios.make_scenario("shock-tube", kn=0.5)
    cfg = solver.SolverConfig.from_scenario(sc, order=3, n_cells=40)
    state = solver.make_state(sc, cfg)
    tot0 = workloads._moment_totals(state.rho, state.u, state.theta, state.dx)
    assert tot0.shape == state.boundary_account.shape == (sc.dim + 2,)
    solver.run(state, cfg)
    _assert_checks(workloads._checks_tube(state, tot0), TUBE_CHECKS)

    sc = scenarios.make_scenario("shock-structure", mach=9.0)
    cfg = solver.SolverConfig.from_scenario(sc, order=3, n_cells=30, t_max=1.5)
    state = solver.make_state(sc, cfg)
    tot0 = workloads._moment_totals(state.rho, state.u, state.theta, state.dx)
    solver.run(state, cfg)
    _assert_checks(workloads._checks_structure(state, cfg, sc, tot0), STRUCTURE_CHECKS)

    sc = scenarios.make_scenario("shock-tube", kn=0.02)
    cfg = dvm.DVMConfig.from_scenario(sc, n_cells=40, n_v=24)
    grid = dvm.VelocityGrid.make(cfg.n_v, cfg.v_max)
    tot0 = workloads._dvm_totals(dvm.make_dvm_state(sc, cfg, grid), grid)
    assert len(tot0) == 3 and all(isinstance(v, float) for v in tot0)
    state, grid = dvm.dvm_run(sc, cfg)
    _assert_checks(workloads._checks_dvm(state, grid, sc, tot0), DVM_CHECKS)
