"""One workload solved once, in the process that runs this file.

    python3 bench/workloads.py <workload> <spawn_ns> <trace 0|1> <out_dir>

``spawn_ns`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` counts interpreter start, imports, scenario,
config, initial state and (for the DVM) grid and ghosts, up to the first
step.  ``solve_s`` runs from the first step to the return of ``solver.run``
or ``dvm.dvm_run``.  The run then writes its CSV as ``regmom run`` and
``regmom make-ref`` do, checks its outputs against computations made
outside the solvers, and prints one JSON line.

The inputs are fixed: no workload draws random numbers.
"""
from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# regmom.cli is imported for its import cost: `regmom run` pays it too
from regmom import cli, dvm, output, scenarios, solver  # noqa: E402,F401

import riemann  # noqa: E402
from tracing import Tracer  # noqa: E402

REF_KN05 = HERE / "ref" / "dvm_shock-tube_kn0.5_nx2000_nv200.csv"

# Check bounds, with today's value on the reference machine (bench/README.md).
BUDGET_REL = 1e-10          # conservation budget, relative to the largest total
TUBE_L1_REF = 0.02          # L1(rho) vs DVM reference, Kn = 0.5; today 0.0161
OVERSHOOT = 0.02            # normalized-density overshoot of the shock profile
MONOTONE_TOL = 1e-6         # largest allowed decrease of the normalized density
MASS_FLUX_DEV = 0.10        # max |rho u - rho0 u0| / rho0 u0 over the mesh; today 0.070
DVM_TOTALS_REL = 1e-9       # DVM mass, energy and momentum budget
DVM_L1_EXACT = 0.035        # L1(rho) vs exact Euler solution, Kn = 0.02; today 0.0277

WORKLOADS = {
    "tube-kn0.5-m9": dict(kind="moment", scenario="shock-tube", kn=0.5, mach=None,
                          order=9, cells=200, closure="nonlinear"),
    "structure-mach9-r20": dict(kind="moment", scenario="shock-structure", kn=None,
                                mach=9.0, order=3, cells=300, closure="linear"),
    "dvm-tube-kn0.02": dict(kind="dvm", scenario="shock-tube", kn=0.02, mach=None,
                            cells=1000, nv=200, vmax=12.0),
}


def _first_call(owner, attr: str, stamp: list) -> None:
    """Record the clock at the first call of ``owner.attr``, then step aside."""
    inner = getattr(owner, attr)

    def first(*args, **kwargs):
        stamp.append(time.monotonic_ns())
        setattr(owner, attr, inner)
        return inner(*args, **kwargs)

    setattr(owner, attr, first)


def _moment_totals(rho, u, theta, dx):
    """(mass, momentum_1..3, energy) of a moment state, summed here."""
    D = u.shape[1]
    mom = (rho[:, None] * u).sum(axis=0) * dx
    energy = (0.5 * rho * (u * u).sum(axis=1) + 0.5 * D * rho * theta).sum() * dx
    return np.concatenate([[rho.sum() * dx], mom, [energy]])


def _check(checks: dict, name: str, value: float, bound: float, ok: bool | None = None):
    ok = bool(value <= bound) if ok is None else bool(ok)
    checks[name] = {"value": float(value), "bound": float(bound), "ok": ok}


def _checks_tube(state, tot0) -> dict:
    checks: dict = {}
    finite = np.isfinite(state.rho).all() and np.isfinite(state.theta).all()
    positive = finite and (state.rho > 0).all() and (state.theta > 0).all()
    _check(checks, "rho_theta_finite_positive", float(not positive), 0.0)
    budget = _moment_totals(state.rho, state.u, state.theta, state.dx) - tot0 \
        - state.boundary_account
    _check(checks, "budget_rel", np.abs(budget).max() / np.abs(tot0).max(), BUDGET_REL)
    # the 2000 reference cells nest 10 to a solver cell: compare cell means
    with open(REF_KN05, encoding="ascii") as fh:
        names = fh.readline().strip().split(",")
    ref = np.loadtxt(REF_KN05, delimiter=",", skiprows=1)
    x_ref = ref[:, names.index("x")].reshape(state.rho.size, -1).mean(axis=1)
    if np.abs(x_ref - state.x).max() > 1e-9 * state.dx:
        raise ValueError(f"{REF_KN05.name} does not nest in the {state.rho.size}-cell mesh")
    rho_ref = ref[:, names.index("rho")].reshape(state.rho.size, -1).mean(axis=1)
    _check(checks, "l1_rho_vs_dvm_ref",
           np.abs(state.rho - rho_ref).sum() / np.abs(rho_ref).sum(), TUBE_L1_REF)
    return checks


def _checks_structure(state, cfg, scenario, tot0) -> dict:
    checks: dict = {}
    converged = state.residual < cfg.steady_tol and state.t < cfg.t_max
    _check(checks, "converged_residual", state.residual, cfg.steady_tol, converged)
    rho_l, rho_r = scenario.far_fields[0][0], scenario.far_fields[1][0]
    norm = (state.rho - rho_l) / (rho_r - rho_l)
    finite = bool(np.isfinite(norm).all())
    _check(checks, "normalized_rho_finite", float(not finite), 0.0)
    _check(checks, "overshoot", max(norm.max() - 1.0, -norm.min()) if finite else math.inf,
           OVERSHOOT)
    _check(checks, "monotone_max_decrease",
           max(0.0, -np.diff(norm).min()) if finite else math.inf, MONOTONE_TOL)
    budget = _moment_totals(state.rho, state.u, state.theta, state.dx) - tot0 \
        - state.boundary_account
    _check(checks, "budget_rel", np.abs(budget).max() / np.abs(tot0).max(), BUDGET_REL)
    flux = state.rho * state.u[:, 0]
    m0 = scenario.far_fields[0][0] * scenario.far_fields[0][1][0]
    _check(checks, "mass_flux_max_dev", np.abs(flux - m0).max() / m0, MASS_FLUX_DEV)
    return checks


def _checks_dvm(state, grid, scenario, tot0) -> dict:
    checks: dict = {}
    mass, mom, energy = _dvm_totals(state, grid)
    (rl, ul, tl), (rr, ur, tr) = scenario.far_fields
    p_l, p_r = rl * tl, rr * tr
    _check(checks, "mass_rel", abs(mass - tot0[0]) / abs(tot0[0]), DVM_TOTALS_REL)
    _check(checks, "energy_rel", abs(energy - tot0[2]) / abs(tot0[2]), DVM_TOTALS_REL)
    expect = tot0[1] + (p_l - p_r) * state.t
    _check(checks, "momentum_rel", abs(mom - expect) / abs(expect), DVM_TOTALS_REL)
    rho = state.g.sum(axis=1) * grid.dv
    exact = riemann.density(state.x, state.t,
                            (rl, float(np.asarray(ul).reshape(-1)[0]), p_l),
                            (rr, float(np.asarray(ur).reshape(-1)[0]), p_r))
    _check(checks, "l1_rho_vs_exact_euler", np.abs(rho - exact).sum() / np.abs(exact).sum(),
           DVM_L1_EXACT)
    return checks


def _dvm_totals(state, grid):
    """(mass, momentum, energy) of the reduced distributions, summed here."""
    v, w = grid.v, grid.dv * state.dx
    mass = state.g.sum() * w
    mom = (state.g * v).sum() * w
    transverse = state.h.sum() if state.h is not None else 0.0
    energy = 0.5 * ((state.g * v * v).sum() + transverse) * w
    return float(mass), float(mom), float(energy)


def _size_of(k: int):
    """Work count: the number of values in positional argument k."""
    return lambda args, kwargs, result: args[k].size


def _result_size(args, kwargs, result):
    return np.size(result)


def _columns_size(args, kwargs, result):
    columns = args[1]
    return len(columns) * len(next(iter(columns.values())))


def _trace_moment(tr: Tracer) -> None:
    """Wrap each layer call of the moment solver where its caller finds it."""
    from regmom import closure, state
    tr.wrap(solver, "step", "solver.step", lambda a, kw, r: a[0].coeffs.size)
    tr.wrap(solver, "project_coeffs", "state.project_coeffs", _size_of(1))
    tr.wrap(solver, "flux_coefficients", "solver.flux_coefficients", _size_of(1))
    for fn in ("conserved_from_coeffs", "macro_from_conserved", "enforce_constraints"):
        tr.wrap(solver, fn, "state.recovery")
    tr.wrap(closure.TopOrderClosure, "linear", "closure.top", _result_size)
    tr.wrap(closure.TopOrderClosure, "nonlinear", "closure.top", _result_size)
    tr.wrap_after_import("scipy.linalg", "solve_banded", "solver.tridiag", _size_of(2))
    tr.wrap(solver, "pad_zero", "indices.pad_zero", _size_of(0))
    tr.wrap(state, "pad_zero", "indices.pad_zero", _size_of(0))
    tr.wrap(solver, "hermite_roots", "hermite.hermite_roots")
    tr.wrap(scenarios.TauModel, "tau", "scenarios.tau", _result_size)


def _trace_dvm(tr: Tracer) -> None:
    tr.wrap(dvm, "dvm_step", "dvm.step", lambda a, kw, r: a[0].g.size)
    tr.wrap(dvm, "discrete_maxwellian", "dvm.discrete_maxwellian",
            lambda a, kw, r: r[0].size)
    tr.wrap(scenarios.TauModel, "tau", "scenarios.tau", _result_size)


def _layer_metrics(summary: dict, run_ns: int, K: int | None) -> dict:
    """Per-layer figures from the span summary; 0 where a layer did not run."""
    def get(name):
        return summary.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "work": 0, "first_ns": 0})

    def per(name, field="ns", denom=None):
        s = get(name)
        d = s["work"] if denom is None else denom
        return s[field] / d if d else 0.0

    step, dstep = get("solver.step"), get("dvm.step")
    cell_steps = step["work"] // K if K else 0    # a step's work is n * K
    return {
        "solver.step.count": step["calls"],
        "state.project_coeffs.calls": get("state.project_coeffs")["calls"],
        "state.project_coeffs.ns_per_row_coeff": per("state.project_coeffs"),
        "solver.flux_coefficients.ns_per_row_coeff": per("solver.flux_coefficients"),
        "state.recovery.ns_per_cell": per("state.recovery", denom=cell_steps),
        "closure.top.ns_per_face_coeff": per("closure.top"),
        "solver.tridiag.calls": get("solver.tridiag")["calls"],
        "solver.tridiag.ns_per_cell_col": per("solver.tridiag"),
        "solver.step.self_ns_per_cell_coeff": per("solver.step", "self_ns"),
        "solver.run.self_s": (run_ns - step["ns"]) / 1e9 if step["calls"] else 0.0,
        "solver.step.first_s": step["first_ns"] / 1e9,
        "indices.pad_zero.calls": get("indices.pad_zero")["calls"],
        "indices.pad_zero.ns_per_value": per("indices.pad_zero"),
        "hermite.hermite_roots.calls": get("hermite.hermite_roots")["calls"],
        "scenarios.tau.ns_per_cell": per("scenarios.tau"),
        "dvm.step.count": dstep["calls"],
        "dvm.step.ns_per_cell_node": per("dvm.step"),
        "dvm.discrete_maxwellian.ns_per_cell_node": per("dvm.discrete_maxwellian"),
        "dvm.step.self_ns_per_cell_node": per("dvm.step", "self_ns"),
        "output.write.ns_per_value": per("output.write"),
    }


def run(name: str, spawn_ns: int, trace: bool, out_dir: Path) -> dict:
    """Set up, solve, write and check one workload; the record run.py reads."""
    w = WORKLOADS[name]
    tr = Tracer() if trace else None
    stamp: list[int] = []
    scenario = scenarios.make_scenario(w["scenario"], kn=w["kn"], mach=w["mach"])
    if w["kind"] == "moment":
        cfg = solver.SolverConfig.from_scenario(scenario, order=w["order"],
                                                n_cells=w["cells"], closure=w["closure"])
        state = solver.make_state(scenario, cfg)
        tot0 = _moment_totals(state.rho, state.u, state.theta, state.dx)
        if tr:
            _trace_moment(tr)
        _first_call(solver, "step", stamp)
    else:
        cfg = dvm.DVMConfig.from_scenario(scenario, n_cells=w["cells"], n_v=w["nv"],
                                          v_max=w["vmax"])
        grid = dvm.VelocityGrid.make(cfg.n_v, cfg.v_max)
        tot0 = _dvm_totals(dvm.make_dvm_state(scenario, cfg, grid), grid)
        if tr:
            _trace_dvm(tr)
        _first_call(dvm, "dvm_step", stamp)

    ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.monotonic_ns()
    if w["kind"] == "moment":
        solver.run(state, cfg)
    else:
        state, grid = dvm.dvm_run(scenario, cfg)
    t1 = time.monotonic_ns()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if tr:
        tr.wrap(output, "write_columns", "output.write", _columns_size)
    if w["kind"] == "moment":
        output.write_snapshot(out_dir / "final.csv", state)
    else:
        output.write_columns(out_dir / "ref.csv", dvm.dvm_moments(state, grid))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if w["kind"] == "dvm":
        checks = _checks_dvm(state, grid, scenario, tot0)
    elif w["scenario"] == "shock-tube":
        checks = _checks_tube(state, tot0)
    else:
        checks = _checks_structure(state, cfg, scenario, tot0)
    rec = {
        "workload": name, "traced": trace,
        "setup_s": (stamp[0] - spawn_ns) / 1e9,
        "solve_s": (t1 - stamp[0]) / 1e9,
        "steps": state.steps, "t": state.t,
        "peak_rss_mb": rss_kb / 1024.0,
        "proc.minflt": ru1.ru_minflt - ru0.ru_minflt,
        "proc.utime_s": ru1.ru_utime - ru0.ru_utime,
        "proc.stime_s": ru1.ru_stime - ru0.ru_stime,
        "checks": checks,
        "correct": all(c["ok"] for c in checks.values()),
    }
    if tr:
        tr.close()
        K = state.coeffs.shape[1] if w["kind"] == "moment" else None
        rec["layers"] = _layer_metrics(tr.summary(), t1 - t0, K)
        tr.write(out_dir / "spans.csv")
    return rec


def main(argv: list[str]) -> int:
    name, spawn_ns, trace, out_dir = argv
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec = run(name, int(spawn_ns), trace == "1", out)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
