import math

import numpy as np
import pytest

from regmom.indices import MomentLayout
from regmom.state import (MacroState, ProjectionConditionWarning, UnphysicalStateError,
                          conserved_from_coeffs, enforce_constraints,
                          macro_from_conserved, maxwellian_coeffs, project_coeffs,
                          project_frame, reconstruct, sigma_q1, stress_heat)

from oracles import (coeff_by_projection, maxwellian_value, quad_stress_heat,
                     raw_moment)


def random_state(order, dim, seed, scale=0.05):
    """A mildly perturbed equilibrium satisfying the coefficient constraints."""
    rng = np.random.default_rng(seed)
    lay = MomentLayout(order, dim)
    mac = MacroState(rho=1.0 + rng.random(), u=rng.normal(size=dim) * 0.3,
                     theta=0.8 + rng.random())
    coeffs = rng.normal(size=lay.size) * scale
    enforce_constraints(lay, coeffs, mac.rho)
    return lay, mac, coeffs


def test_maxwellian_coeffs_examples():
    lay = MomentLayout(3, 3)
    mac = MacroState(rho=7.0, u=np.zeros(3), theta=1.0)
    c = maxwellian_coeffs(mac, lay)
    assert c[0] == 7.0 and np.all(c[1:] == 0.0)
    mac2 = MacroState(rho=1.0, u=[0.4, -0.2, 0.1], theta=2.0)
    c2 = maxwellian_coeffs(mac2, lay)
    assert c2[0] == 1.0 and np.all(c2[1:] == 0.0)


def test_reconstruct_maxwellian_matches_closed_form():
    lay = MomentLayout(5, 2)
    mac = MacroState(rho=1.7, u=[0.3, -0.5], theta=1.4)
    coeffs = maxwellian_coeffs(mac, lay)
    rng = np.random.default_rng(1)
    # peak value rho (2 pi theta)^{-D/2} at xi = u, plus random samples
    assert reconstruct(lay, coeffs, mac, mac.u) == pytest.approx(
        mac.rho / (2 * math.pi * mac.theta), rel=1e-12)
    for _ in range(5):
        xi = mac.u + rng.normal(size=2) * 1.5
        assert reconstruct(lay, coeffs, mac, xi) == pytest.approx(
            maxwellian_value(mac, xi), abs=1e-12)


def test_reconstruct_zero_coefficients():
    lay = MomentLayout(3, 1)
    mac = MacroState(rho=1.0, u=[0.0], theta=1.0)
    assert reconstruct(lay, np.zeros(lay.size), mac, [0.7]) == 0.0


@pytest.mark.parametrize("order,dim", [(3, 1), (4, 2), (5, 3)])
def test_projection_recovers_coefficients(order, dim):
    # quadrature projection of the reconstructed function returns the inputs
    lay, mac, coeffs = random_state(order, dim, seed=order * 7 + dim)
    for k in range(lay.size):
        got = coeff_by_projection(lay, coeffs, mac, lay.unrank(k))
        assert got == pytest.approx(coeffs[k], abs=1e-10 * max(1.0, mac.rho))


def test_stress_heat_equilibrium():
    lay = MomentLayout(3, 3)
    mac = MacroState(rho=2.0, u=[0.1, 0.0, -0.2], theta=1.5)
    sh = stress_heat(lay, maxwellian_coeffs(mac, lay), mac)
    assert np.all(sh.sigma == 0.0)
    assert np.all(sh.q == 0.0)
    assert np.allclose(sh.pressure_tensor, mac.rho * mac.theta * np.eye(3))


def test_stress_heat_d1_constraint_forces_zero_stress():
    lay = MomentLayout(3, 1)
    mac = MacroState(rho=1.0, u=[0.0], theta=1.0)
    coeffs = np.zeros(lay.size)
    coeffs[0] = 1.0
    enforce_constraints(lay, coeffs, 1.0)  # sum_d f_{2e_d} = 0 with D=1 pins f_2
    sh = stress_heat(lay, coeffs, mac)
    assert sh.sigma[0, 0] == 0.0


def test_stress_heat_formula_example():
    lay = MomentLayout(3, 3)
    mac = MacroState(rho=1.0, u=np.zeros(3), theta=1.0)
    coeffs = np.zeros(lay.size)
    a, b, c = 0.03, -0.02, 0.05
    coeffs[0] = 1.0
    coeffs[lay.ordinal((3, 0, 0))] = a
    coeffs[lay.ordinal((1, 2, 0))] = b
    coeffs[lay.ordinal((1, 0, 2))] = c
    sh = stress_heat(lay, coeffs, mac)
    # q_1 = 2 f_{3e_1} + (f_{3e_1} + f_{e_1+2e_2} + f_{e_1+2e_3})
    assert sh.q[0] == pytest.approx(3 * a + b + c, rel=1e-14)


@pytest.mark.parametrize("order,dim,seed", [(3, 1, 0), (4, 2, 1), (5, 3, 2), (5, 3, 3)])
def test_stress_heat_matches_quadrature(order, dim, seed):
    lay, mac, coeffs = random_state(order, dim, seed)
    sh = stress_heat(lay, coeffs, mac)
    p_q, sigma_q, q_q = quad_stress_heat(lay, coeffs, mac)
    scale = mac.rho * mac.theta
    assert np.abs(sh.sigma - sigma_q).max() < 1e-8 * scale
    assert np.abs(sh.q - q_q).max() < 1e-8 * scale * math.sqrt(mac.theta)
    assert np.abs(sh.pressure_tensor - p_q).max() < 1e-8 * scale
    assert np.trace(sh.sigma) == pytest.approx(0.0, abs=1e-12 * scale)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sigma_q1_matches_stress_heat(dim):
    lay, mac, coeffs = random_state(4, dim, seed=9)
    sh = stress_heat(lay, coeffs, mac)
    sig, q1 = sigma_q1(lay, coeffs)
    assert sig.shape == (dim,)
    for d in range(dim):
        assert sig[d] == pytest.approx(sh.sigma[d, 0])
    assert q1 == pytest.approx(sh.q[0])


def test_macro_from_conserved_examples():
    for dim in (1, 2, 3):
        mac = macro_from_conserved(1.0, np.zeros(dim), dim / 2.0, dim=dim)
        assert mac.theta == pytest.approx(1.0) and np.all(mac.u == 0.0)
        mac7 = macro_from_conserved(7.0, np.zeros(dim), dim / 2.0 * 7.0, dim=dim)
        assert mac7.theta == pytest.approx(1.0)


def test_macro_conserved_round_trip():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        rho = 1.0 + rng.random()
        u = rng.normal(size=dim)
        theta = 0.5 + rng.random()
        m = rho * u
        energy = 0.5 * rho * (u @ u) + 0.5 * dim * rho * theta
        mac = macro_from_conserved(rho, m, energy, dim=dim)
        assert mac.rho == pytest.approx(rho)
        assert np.allclose(mac.u, u)
        assert mac.theta == pytest.approx(theta)


def test_macro_from_conserved_rejects_unphysical():
    with pytest.raises(UnphysicalStateError):
        macro_from_conserved(1.0, [2.0], 1.0, dim=1)  # kinetic energy exceeds total
    with pytest.raises(UnphysicalStateError):
        macro_from_conserved(-1.0, [0.0], 1.0, dim=1)


def test_project_frame_identity():
    lay, mac, coeffs = random_state(4, 3, seed=5)
    out = project_frame(lay, coeffs, mac, mac)
    assert np.allclose(out, coeffs, atol=0.0)


def test_project_frame_shifted_maxwellian_closed_form():
    # pure velocity shift of a Maxwellian: f_n = rho (-delta)^n / n!
    lay = MomentLayout(6, 1)
    mac = MacroState(rho=2.0, u=[0.0], theta=1.0)
    delta = 0.37
    out = project_frame(lay, maxwellian_coeffs(mac, lay), mac,
                        MacroState(rho=2.0, u=[delta], theta=1.0))
    expect = np.array([2.0 * (-delta) ** n / math.factorial(n) for n in range(7)])
    assert np.abs(out - expect).max() < 1e-14


def test_project_frame_preserves_raw_moments():
    # Maxwellian re-expanded at a different temperature keeps moments <= M
    lay = MomentLayout(5, 1)
    mac = MacroState(rho=1.3, u=[0.0], theta=1.0)
    dst = MacroState(rho=1.3, u=[0.0], theta=1.45)
    src_coeffs = maxwellian_coeffs(mac, lay)
    out = project_frame(lay, src_coeffs, mac, dst)
    for k in range(lay.order + 1):
        a = raw_moment(lay, src_coeffs, mac, (k,))
        b = raw_moment(lay, out, dst, (k,))
        assert b == pytest.approx(a, abs=1e-9 * max(1.0, abs(a)))


@pytest.mark.parametrize("dim", [1, 3])
def test_project_frame_general_state_preserves_raw_moments(dim):
    lay, mac, coeffs = random_state(4, dim, seed=20 + dim)
    dst = MacroState(rho=mac.rho, u=np.asarray(mac.u) + 0.3, theta=mac.theta * 1.3)
    out = project_frame(lay, coeffs, mac, dst)
    for k, alpha in enumerate(lay.indices):
        a = raw_moment(lay, coeffs, mac, alpha)
        b = raw_moment(lay, out, dst, alpha)
        assert b == pytest.approx(a, abs=1e-9 * max(1.0, abs(a)))


def test_project_then_conserved_frame_restores_constraints():
    lay, mac, coeffs = random_state(5, 3, seed=11)
    dst = MacroState(rho=mac.rho, u=np.asarray(mac.u) - 0.25, theta=mac.theta * 0.8)
    moved = project_frame(lay, coeffs, mac, dst)
    rho, mom, energy = conserved_from_coeffs(lay, moved, dst.u, np.asarray(dst.theta))
    back = macro_from_conserved(float(rho), mom, float(energy))
    fixed = project_frame(lay, moved, dst, back)
    scale = mac.rho * max(1.0, mac.theta)
    for d in range(3):
        assert abs(fixed[lay.ordinal(lay.unit(d + 1))]) < 1e-10 * scale
    tr = sum(fixed[lay.ordinal(tuple(2 * (j == d) for j in range(3)))] for d in range(3))
    assert abs(tr) < 1e-10 * scale
    assert fixed[0] == pytest.approx(float(rho), rel=1e-13)


def test_project_frame_rk4_agrees_with_exact():
    lay, mac, coeffs = random_state(4, 3, seed=13)
    dst = MacroState(rho=mac.rho, u=np.asarray(mac.u) + 0.4, theta=mac.theta * 1.5)
    exact = project_frame(lay, coeffs, mac, dst, method="exact")
    rk4 = project_frame(lay, coeffs, mac, dst, method="rk4", steps=20)
    # the generator is nilpotent of degree <= 5 here, so RK4 is exact too
    assert np.abs(exact - rk4).max() < 1e-13
    lay6, mac6, coeffs6 = random_state(6, 1, seed=14)
    dst6 = MacroState(rho=mac6.rho, u=np.asarray(mac6.u) + 0.4, theta=mac6.theta * 1.5)
    exact6 = project_frame(lay6, coeffs6, mac6, dst6, method="exact")
    rk46 = project_frame(lay6, coeffs6, mac6, dst6, method="rk4", steps=20)
    assert np.abs(exact6 - rk46).max() < 1e-8


def test_project_frame_rejects_and_warns():
    lay, mac, coeffs = random_state(3, 1, seed=15)
    # MacroState construction already rejects theta <= 0; mutate to reach the
    # projection's own guard
    bad = MacroState(rho=1.0, u=[0.0], theta=1.0)
    bad.theta = -0.5
    with pytest.raises(UnphysicalStateError):
        project_frame(lay, coeffs, mac, bad)
    cold = MacroState(rho=1.0, u=[0.0], theta=mac.theta * 0.1)
    with pytest.warns(ProjectionConditionWarning):
        project_frame(lay, coeffs, mac, cold)


def test_project_coeffs_is_linear():
    lay = MomentLayout(4, 2)
    rng = np.random.default_rng(17)
    a = rng.normal(size=lay.size)
    b = rng.normal(size=lay.size)
    du = np.array([0.3, -0.2])
    dth = np.asarray(0.4)
    lhs = project_coeffs(lay, 2.0 * a + 3.0 * b, du, dth)
    rhs = 2.0 * project_coeffs(lay, a, du, dth) + 3.0 * project_coeffs(lay, b, du, dth)
    assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(lhs).max())
