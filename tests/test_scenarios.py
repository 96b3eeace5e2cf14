import math
from dataclasses import replace

import numpy as np
import pytest

from regmom.scenarios import (GAMMA_MONATOMIC, TauModel, far_field_frames, make_scenario,
                              rankine_hugoniot_states, sample, shock_structure,
                              shock_tube)

from oracles import normalize_density


def euler_fluxes(rho, u, p):
    """(mass, momentum, energy) fluxes of a gamma = 5/3 equilibrium stream."""
    e = 0.5 * rho * u**2 + p / (GAMMA_MONATOMIC - 1.0)
    return np.array([rho * u, rho * u**2 + p, u * (e + p)])


def test_shock_tube_states():
    sc = shock_tube()
    x = np.array([-0.5, 0.5])
    rho = sc.rho0(x)
    theta = sc.theta0(x)
    assert rho[0] == 7.0 and rho[1] == 1.0
    # p = rho theta is 7 and 1, so theta = 1 on both sides
    assert theta[0] == 1.0 and theta[1] == 1.0
    assert np.all(sc.u0(x) == 0.0)
    assert sc.t_stop == 0.3
    assert (sc.x_lo, sc.x_hi) == (-1.0, 1.5)


def test_shock_tube_initial_mass():
    sc = shock_tube()
    n = 5000
    dx = (sc.x_hi - sc.x_lo) / n
    x = sc.x_lo + (np.arange(n) + 0.5) * dx
    mass = sc.rho0(x).sum() * dx
    assert mass == pytest.approx(7.0 * 1.0 + 1.0 * 1.5, rel=1e-12)


def test_rankine_hugoniot_mach2():
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = rankine_hugoniot_states(2.0)
    assert rho_r == pytest.approx(16.0 / 7.0, rel=1e-14)
    assert p_r == pytest.approx(19.0 / 4.0, rel=1e-14)
    assert rho_l * u_l == pytest.approx(rho_r * u_r, rel=1e-14)


def test_rankine_hugoniot_degenerates_at_mach_one():
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = rankine_hugoniot_states(1.0 + 1e-12)
    assert rho_r == pytest.approx(rho_l, abs=1e-10)
    assert p_r == pytest.approx(p_l, abs=1e-10)
    assert u_r == pytest.approx(u_l, abs=1e-10)


@pytest.mark.parametrize("mach", [1.55, 2.05, 3.8, 9.0])
def test_rankine_hugoniot_euler_fluxes_match(mach):
    left, right = rankine_hugoniot_states(mach)
    fl = euler_fluxes(*left)
    fr = euler_fluxes(*right)
    assert np.abs(fl - fr).max() < 1e-12 * np.abs(fl).max()


def test_shock_structure_rejects_subsonic():
    with pytest.raises(ValueError):
        shock_structure(0.9)
    with pytest.raises(ValueError):
        shock_structure(1.0)


@pytest.mark.parametrize("mach", [math.nan, math.inf])
def test_rankine_hugoniot_rejects_nan_and_infinite_mach(mach):
    with pytest.raises(ValueError, match="Mach"):
        rankine_hugoniot_states(mach)


@pytest.mark.parametrize("kn", [math.nan, -0.5])
def test_scenario_rejects_nan_or_negative_kn(kn):
    with pytest.raises(ValueError, match="Kn"):
        shock_tube(kn=kn)
    with pytest.raises(ValueError, match="Kn"):
        shock_structure(2.0, kn=kn)


def test_scenario_accepts_kn_zero_and_infinite():
    assert shock_tube(kn=0.0).kn == 0.0
    assert shock_tube(kn=math.inf).kn == math.inf    # the DVM's free flight


@pytest.mark.parametrize("omega", [0.49, 1.01, 3.5, math.nan])
def test_tau_model_vhs_rejects_omega_outside_its_range(omega):
    # omega = 3.5 zeroes the denominator of the VHS prefactor
    with pytest.raises(ValueError, match="omega"):
        TauModel("vhs", omega=omega)
    TauModel("kn-over-rho", omega=omega)    # which does not read omega


def test_shock_structure_scenario_fields():
    sc = shock_structure(2.05)
    assert sc.kn == 1.0
    assert sc.tau_model.kind == "vhs"
    assert sc.default_cells == 600  # dx = 0.1 on [-30, 30]
    x = np.array([-1.0, 1.0])
    rho = sc.rho0(x)
    th = sc.theta0(x)
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = rankine_hugoniot_states(2.05)
    assert rho[0] == pytest.approx(rho_l) and rho[1] == pytest.approx(rho_r)
    assert th[0] == pytest.approx(p_l / rho_l) and th[1] == pytest.approx(p_r / rho_r)


def test_tau_kn_over_rho():
    model = TauModel("kn-over-rho")
    assert model.tau(0.02, 7.0, 1.0) == pytest.approx(0.02 / 7.0, rel=1e-14)
    assert model.tau(0.02, 7.0, 1.0) == pytest.approx(0.002857, abs=1e-6)


def test_tau_vhs_reference_value():
    model = TauModel("vhs", omega=0.72)
    # sqrt(pi/2) * 15 / (3.56 * 5.56) at Kn = rho = theta = 1
    assert model.tau(1.0, 1.0, 1.0) == pytest.approx(0.9498, abs=1e-4)


def test_tau_vhs_theta_power_inactive_at_unit_theta():
    a = TauModel("vhs", omega=0.72).tau(1.0, 1.3, 1.0)
    b = TauModel("vhs", omega=0.5).tau(1.0, 1.3, 1.0)
    # theta^(omega-1) = 1, so omega only enters the collision prefactor
    ratio = (math.sqrt(math.pi / 2) * 15 / (3.56 * 5.56)) / \
        (math.sqrt(math.pi / 2) * 15 / (4.0 * 6.0))
    assert a / b == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("omega", [0.5, 0.72, 1.0])
def test_tau_is_the_written_formula_bit_for_bit(omega):
    rng = np.random.default_rng(5)
    rho, theta, kn = 0.5 + rng.random(40), 0.2 + 3.0 * rng.random(40), 0.37
    c = math.sqrt(math.pi / 2.0) * 15.0 / ((5.0 - 2.0 * omega) * (7.0 - 2.0 * omega))
    vhs = TauModel("vhs", omega=omega).tau(kn, rho, theta)
    assert vhs.tobytes() == (c * kn * theta ** (omega - 1.0) / rho).tobytes()
    plain = TauModel("kn-over-rho", omega=omega).tau(kn, rho, theta)
    assert plain.tobytes() == (kn / rho).tobytes()


def test_tau_model_rejects_unknown():
    with pytest.raises(ValueError):
        TauModel("bogus")


def test_normalize_density():
    (rho_l, _, _), (rho_r, _, _) = rankine_hugoniot_states(2.0)
    prof = np.array([rho_l, 0.5 * (rho_l + rho_r), rho_r])
    out = normalize_density(prof, rho_l, rho_r)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.5, rel=1e-14)
    assert out[2] == 1.0
    with pytest.raises(ValueError):
        normalize_density(prof, 1.0, 1.0)


@pytest.mark.parametrize("make", [shock_tube, lambda dim: shock_structure(2.0, dim=dim)],
                         ids=["shock-tube", "shock-structure"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_builtin_far_fields_are_the_initial_states(make, dim):
    # a builtin states its two (rho, u_1, theta) once: the initial field jumps
    # between its far fields, whose velocity vectors have D entries, the
    # transverse ones +0.0
    sc = make(dim=dim)
    x = np.array([sc.x_lo, sc.x_hi])
    for j, (rho, u, theta) in enumerate(sc.far_fields):
        assert (sc.rho0(x)[j], sc.u0(x)[j], sc.theta0(x)[j]) == (rho, u[0], theta)
        assert u.shape == (dim,) and not np.signbit(u[1:]).any() and not u[1:].any()
    assert far_field_frames(sc) == tuple((r, u[0], t) for r, u, t in sc.far_fields)
    assert far_field_frames(replace(sc, far_fields=None)) is None     # periodic


def test_sample_gives_u1_and_rejects_a_field_without_one_value_per_cell():
    sc = shock_structure(2.0)
    x, dx, rho, u1, theta = sample(sc, 10)
    assert rho.shape == u1.shape == theta.shape == x.shape == (10,)
    assert u1[0] == sc.far_fields[0][1][0] and u1[-1] == sc.far_fields[1][1][0]
    # u0 gives u_1 alone: a velocity vector per cell is not a field
    sc.u0 = lambda x: np.zeros((np.asarray(x).size, sc.dim))
    with pytest.raises(ValueError, match="one value per cell"):
        sample(sc, 10)


def test_make_scenario_names():
    assert make_scenario("shock-tube").name == "shock-tube"
    assert make_scenario("shock-structure", mach=2.0).name == "shock-structure"
    # without a Kn, each builtin's own default
    assert make_scenario("shock-tube").kn == shock_tube().kn
    assert make_scenario("shock-structure", mach=2.0).kn == shock_structure(2.0).kn
    assert make_scenario("shock-tube", kn=0.3).kn == 0.3
    with pytest.raises(ValueError):
        make_scenario("shock-structure")  # needs a Mach number
    with pytest.raises(ValueError):
        make_scenario("nope")


def test_scenario_initial_states_are_equilibrium():
    # Maxwellian initialization means zero stress and heat flux everywhere
    from regmom.solver import SolverConfig, make_state
    from regmom.state import sigma11_q1

    sc = shock_tube()
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=16)
    state = make_state(sc, cfg)
    sig, q1 = sigma11_q1(state.layout, state.coeffs)
    assert np.all(sig == 0.0) and np.all(q1 == 0.0)
    assert np.all(state.coeffs[0, 0] == state.rho)
