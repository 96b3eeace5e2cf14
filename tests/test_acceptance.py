"""Acceptance suite: one test per shipped criterion, each printing PASS/FAIL.

Heavy kinetic references are generated once per session and shared.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized for a small workstation (about 15 minutes).
"""
import math
import time

import numpy as np
import pytest

from regmom.dvm import DVMConfig, dvm_moments, dvm_run
from regmom.hermite import QuadratureRule, he_derivative, he_eval, he_table
from regmom.iteration import (field_preset, magnitude_table, nsf_check,
                              run_iteration)
from regmom.output import compare_profiles, write_snapshot
from regmom.scenarios import normalize_density, shock_structure, shock_tube
from regmom.solver import SolverConfig, make_state, run
from regmom.state import sigma11_q1
from regmom.iteration import fd4


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPT-{criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared references


@pytest.fixture(scope="session")
def tube_ref_kn002():
    sc = shock_tube(kn=0.02)
    cfg = DVMConfig.from_scenario(sc, n_cells=2000, n_v=200, v_max=12.0)
    state, grid = dvm_run(sc, cfg)
    return dvm_moments(state, grid)


@pytest.fixture(scope="session")
def tube_ref_kn05():
    sc = shock_tube(kn=0.5)
    cfg = DVMConfig.from_scenario(sc, n_cells=2000, n_v=200, v_max=12.0)
    state, grid = dvm_run(sc, cfg)
    return dvm_moments(state, grid)


@pytest.fixture(scope="session")
def structure_ref_m205():
    sc = shock_structure(2.05)
    cfg = DVMConfig.from_scenario(sc, n_cells=800, n_v=150)
    state, grid = dvm_run(sc, cfg)
    # the steady search may stop at t_max: keep how it ended for the report
    return dict(dvm_moments(state, grid), converged=state.converged,
                residual=state.residual, steady_tol=cfg.steady_tol)


# ---------------------------------------------------------------------------
# 1. Hermite identities


def test_criterion_1_hermite_identities():
    t0 = time.perf_counter()
    rule = QuadratureRule.gauss(40)
    tab = he_table(13, rule.nodes)
    ortho_ok = True
    for m in range(13):
        for n in range(13):
            val = rule.integrate(tab[m] * tab[n])
            expect = math.factorial(m) if m == n else 0.0
            ortho_ok &= abs(val - expect) <= 1e-10 * max(1.0, math.factorial(m))
    xs = np.linspace(-4.0, 4.0, 41)
    rec_ok = True
    der_ok = True
    for n in range(1, 12):
        scale = max(1.0, np.abs(he_eval(n + 1, xs)).max())
        rec = he_eval(n + 1, xs) - (xs * he_eval(n, xs) - n * he_eval(n - 1, xs))
        rec_ok &= np.abs(rec).max() <= 1e-12 * scale
        der = he_derivative(n, xs) - n * he_eval(n - 1, xs)
        der_ok &= np.abs(der).max() <= 1e-12 * scale
    wall = time.perf_counter() - t0
    report("1 hermite-identities", ortho_ok and rec_ok and der_ok,
           f"orthogonality={ortho_ok}, recursion={rec_ok}, derivative={der_ok}, "
           f"{wall:.2f}s")
    assert wall < 1.0


# ---------------------------------------------------------------------------
# 2. First-iteration closed forms


def test_criterion_2_first_iteration_closed_forms():
    t0 = time.perf_counter()
    field = field_preset("generic-3d")
    sample = field.sample(64)
    tau = 0.01
    state = run_iteration(sample, tau, 1, max_order=6)
    D = 3
    rho, th = sample.rho, sample.theta
    divu = sample.u_x[:, 0]
    scale = float((tau * rho * th).max())
    worst = 0.0

    def update(alpha, ref):
        nonlocal worst
        got = state.coeffs[(slice(None),) + alpha]
        worst = max(worst, float(np.abs(got - ref).max()) / scale)

    for j in range(D):
        update(tuple(2 * (d == j) for d in range(D)),
               -tau * rho * th * ((j == 0) * sample.u_x[:, 0] - divu / D))
    for i in range(D):
        for j in range(i + 1, D):
            update(tuple((d == i) + (d == j) for d in range(D)),
                   -tau * rho * th * ((j == 0) * sample.u_x[:, i]
                                      + (i == 0) * sample.u_x[:, j]))
    for i in range(D):
        for j in range(D):
            update(tuple(2 * (d == i) + (d == j) for d in range(D)),
                   -0.5 * tau * rho * th * sample.theta_x * (j == 0))
    mixed_zero = bool(np.all(state.coeffs[:, 1, 1, 1] == 0.0))
    high_zero = bool(np.all(state.coeffs[:, state.grades >= 4] == 0.0))
    wall = time.perf_counter() - t0
    report("2 first-iteration", worst <= 1e-8 and mixed_zero and high_zero,
           f"max rel err {worst:.2e}, mixed-triple zero={mixed_zero}, "
           f"order>=4 zero={high_zero}, {wall:.2f}s")
    assert wall < 5.0


# ---------------------------------------------------------------------------
# 3. Magnitude law


def test_criterion_3_magnitude_law():
    t0 = time.perf_counter()
    field = field_preset("generic-3d")
    taus = [2e-2 * 0.5 ** k for k in range(5)]
    rows = magnitude_table(field, taus, sweeps=3, max_order=10, grid_n=64,
                           report_order=8)
    # the law bounds every moment's magnitude: no measured exponent may fall
    # below the prediction; on 1D-space fields some couplings vanish, so a
    # subset attains the bound sharply -- require that at every order, and on
    # the patterns the sweep-one forms pin explicitly
    lower_ok = all(r.measured >= r.predicted - 0.15
                   for r in rows if not r.degenerate)
    sharp_orders = {n: 0 for n in range(2, 9)}
    for r in rows:
        if not r.degenerate and abs(r.measured - r.predicted) <= 0.15:
            sharp_orders[r.order] += 1
    sharp_ok = all(count >= 1 for count in sharp_orders.values())
    by_alpha = {r.alpha: r for r in rows}
    pinned = [(2, 0, 0), (1, 1, 0), (3, 0, 0), (1, 2, 0), (4, 0, 0)]
    pinned_ok = all(abs(by_alpha[a].measured - by_alpha[a].predicted) <= 0.15
                    for a in pinned)
    # support: f_alpha^(n) == 0 exactly for |alpha| >= 1 + 3n
    sample = field.sample(64)
    support_ok = True
    for n in (1, 2, 3):
        st = run_iteration(sample, 0.01, n, max_order=10)
        support_ok &= bool(np.all(st.coeffs[:, st.grades >= 1 + 3 * n] == 0.0))
    wall = time.perf_counter() - t0
    report("3 magnitude-law", lower_ok and sharp_ok and pinned_ok and support_ok,
           f"bound={lower_ok}, sharp per order={dict(sharp_orders)}, "
           f"pinned={pinned_ok}, support-zero={support_ok}, {wall:.1f}s")
    assert wall < 30.0


# ---------------------------------------------------------------------------
# 4. NSF limit of the solver


def _nsf_periodic_scenario(kn):
    from regmom.scenarios import Scenario, TauModel

    def rho0(x):
        return 1.0 + 0.2 * np.sin(x)

    def u0(x):
        u = np.zeros((np.asarray(x).size, 3))
        u[:, 0] = 0.1 * np.sin(x + 0.4)
        return u

    def theta0(x):
        return 1.0 + 0.1 * np.cos(x + 0.9)

    return Scenario(name="nsf", dim=3, kn=kn, tau_model=TauModel("kn-over-rho"),
                    x_lo=0.0, x_hi=2.0 * math.pi, rho0=rho0, u0=u0,
                    theta0=theta0, boundary="periodic", t_stop=0.25,
                    default_cells=192)


def test_criterion_4_nsf_limit():
    t0 = time.perf_counter()
    devs = []
    for kn in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        # resolution follows Kn^{3/2} so splitting and scheme dissipation stay
        # below the O(tau^2) deviation being measured; CFL 0.5 keeps the
        # symmetrized-relaxation bias small
        cells = int(round(192 * (1e-2 / kn) ** 1.5))
        sc = _nsf_periodic_scenario(kn)
        cfg = SolverConfig.from_scenario(sc, order=3, n_cells=cells, cfl=0.5)
        state = make_state(sc, cfg)
        run(state, cfg)
        sig, q1 = sigma11_q1(state.layout, state.coeffs)
        tau = sc.tau_model.tau(kn, state.rho, state.theta)
        mu = tau * state.rho * state.theta
        sig_ref = -(4.0 / 3.0) * mu * fd4(state.u[:, 0], state.dx)
        q_ref = -2.5 * mu * fd4(state.theta, state.dx)
        scale = float((state.rho * state.theta).max())
        devs.append((math.sqrt(float(((sig - sig_ref) ** 2).mean())) / scale,
                     math.sqrt(float(((q1 - q_ref) ** 2).mean())) / scale))
    ratios = [(devs[k][0] / devs[k + 1][0], devs[k][1] / devs[k + 1][1])
              for k in range(3)]
    ok = all(r[0] >= 3.5 and r[1] >= 3.5 for r in ratios)
    wall = time.perf_counter() - t0
    report("4 nsf-limit", ok,
           "ratios " + ", ".join(f"(sigma {a:.2f}, q {b:.2f})" for a, b in ratios)
           + f", {wall:.0f}s")
    assert wall < 120.0


# ---------------------------------------------------------------------------
# 5. Shock tube at Kn = 0.02 against the kinetic reference


def test_criterion_5_shock_tube_kn002(tube_ref_kn002):
    t0 = time.perf_counter()
    sc = shock_tube(kn=0.02)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=200)
    state = make_state(sc, cfg)
    run(state, cfg)
    rep = compare_profiles(state.x, state.rho, tube_ref_kn002["x"],
                           tube_ref_kn002["rho"], column="rho")
    wall = time.perf_counter() - t0
    report("5 shock-tube-kn0.02", rep.l1_rel <= 0.02,
           f"L1rel = {rep.l1_rel:.5f} <= 0.02, solver {wall:.1f}s "
           "(reference generated once per session)")


# ---------------------------------------------------------------------------
# 6. Shock tube at Kn = 0.5: convergence in M and closure agreement


def test_criterion_6_shock_tube_kn05_m_sweep(tube_ref_kn05):
    t0 = time.perf_counter()
    sc = shock_tube(kn=0.5)
    errors = {}
    linear_rho = {}
    nonlinear_rho = {}
    for order in (4, 6, 9, 12):
        cfg = SolverConfig.from_scenario(sc, order=order, n_cells=400)
        state = make_state(sc, cfg)
        run(state, cfg)
        rep = compare_profiles(state.x, state.rho, tube_ref_kn05["x"],
                               tube_ref_kn05["rho"], column="rho")
        errors[order] = rep.l1_rel
        linear_rho[order] = state.rho.copy()
    for order in (4, 9):
        cfg = SolverConfig.from_scenario(sc, order=order, n_cells=400,
                                         closure="nonlinear")
        state = make_state(sc, cfg)
        run(state, cfg)
        nonlinear_rho[order] = state.rho.copy()
    seq = [errors[m] for m in (4, 6, 9, 12)]
    violations = [(seq[k + 1] - seq[k]) / seq[k]
                  for k in range(3) if seq[k + 1] >= seq[k]]
    monotone_ok = len(violations) <= 1 and all(v < 0.10 for v in violations)
    gaps = {m: np.abs(linear_rho[m] - nonlinear_rho[m]).sum() * 2.5 / 400
            for m in (4, 9)}
    gap_ok = gaps[9] < gaps[4]
    wall = time.perf_counter() - t0
    report("6 shock-tube-kn0.5", monotone_ok and gap_ok,
           f"L1(M)={ {m: round(errors[m], 5) for m in (4, 6, 9, 12)} }, "
           f"closure gaps M4={gaps[4]:.2e} M9={gaps[9]:.2e}, {wall:.0f}s")
    assert wall < 1200.0


# ---------------------------------------------------------------------------
# 7. Shock structure robustness far beyond the continuous-shock limit


def test_criterion_7_shock_structure(structure_ref_m205):
    t0 = time.perf_counter()
    details = []
    ok = True
    for mach in (2.05, 3.8, 6.5, 9.0):
        sc = shock_structure(mach)
        cfg = SolverConfig.from_scenario(sc, order=3)
        state = make_state(sc, cfg)
        run(state, cfg)
        rho_l, rho_r = sc.far_fields[0][0], sc.far_fields[1][0]
        norm = normalize_density(state.rho, rho_l, rho_r)
        finite = bool(np.isfinite(state.rho).all())
        overshoot = float(max(norm.max() - 1.0, -norm.min()))
        monotone = bool(np.all(np.diff(norm) > -1e-6))
        steady = state.residual <= 2e-6
        ok &= finite and overshoot <= 0.02 and monotone and steady
        details.append(f"M0={mach}: overshoot={overshoot:.3f} "
                       f"monotone={monotone} steady={steady}")
        if mach == 2.05:
            rep = compare_profiles(state.x, state.rho, structure_ref_m205["x"],
                                   structure_ref_m205["rho"], column="rho",
                                   normalize=True, align_center=True)
            ok &= rep.linf <= 0.05
            details.append(
                f"M0=2.05 vs DVM: Linf={rep.linf:.4f} <= 0.05 (DVM reference "
                f"converged={structure_ref_m205['converged']}, residual "
                f"{structure_ref_m205['residual']:.2g} vs tol "
                f"{structure_ref_m205['steady_tol']:g})")
    wall = time.perf_counter() - t0
    report("7 shock-structure", ok, "; ".join(details) + f", {wall:.0f}s")
    assert wall < 1800.0


# ---------------------------------------------------------------------------
# 8. Conservation


def test_criterion_8_conservation():
    # periodic manufactured run: machine-level drift per step
    sc = _nsf_periodic_scenario(0.05)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=64)
    state = make_state(sc, cfg)
    from regmom.solver import step
    tot0 = state.conserved_totals()
    scale = np.abs(tot0).max()
    worst = 0.0
    for _ in range(120):
        prev = state.conserved_totals()
        step(state, cfg)
        worst = max(worst, float(np.abs(state.conserved_totals() - prev).max()) / scale)
    periodic_ok = worst <= 1e-12
    # shock run: totals change only by the boundary fluxes
    sc2 = shock_tube(kn=0.02)
    cfg2 = SolverConfig.from_scenario(sc2, order=3, n_cells=200)
    st2 = make_state(sc2, cfg2)
    tot = st2.conserved_totals()
    run(st2, cfg2)
    defect = np.abs(st2.conserved_totals() - tot - st2.boundary_account).max()
    boundary_ok = defect <= 1e-10 * max(1.0, np.abs(tot).max())
    report("8 conservation", periodic_ok and boundary_ok,
           f"periodic per-step drift {worst:.1e} <= 1e-12, "
           f"far-field budget defect {defect:.1e} <= 1e-10")


# ---------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(tmp_path):
    from regmom.cli import main

    args = ["run", "--scenario", "shock-tube", "--kn", "0.05", "--M", "4",
            "--cells", "48", "--dump-coeffs"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out / "final.csv").read_bytes())
    report("9 determinism", outs[0] == outs[1],
           f"{len(outs[0])} bytes, byte-identical={outs[0] == outs[1]}")
