import math

import numpy as np
import pytest

from regmom.indices import AxisymmetricLayout, lead
from regmom.iteration import _sigma_q1
from regmom.state import (Projection, conserved_from_coeffs, enforce_constraints,
                          macro_from_conserved, project_coeffs, sigma11_q1)

import oracles
from oracles import (MacroState, MomentLayout, coeff_by_projection, constraint_residual,
                     expand_full, maxwellian_coeffs, quad_stress_heat, raw_moment,
                     stress_heat)


def random_state(order, dim, seed, scale=0.05):
    """A mildly perturbed equilibrium satisfying the coefficient constraints."""
    rng = np.random.default_rng(seed)
    lay = MomentLayout(order, dim)
    mac = MacroState(rho=1.0 + rng.random(), u=rng.normal(size=dim) * 0.3,
                     theta=0.8 + rng.random())
    coeffs = rng.normal(size=lay.size) * scale
    oracles.enforce_constraints(lay, coeffs, mac.rho)
    return lay, mac, coeffs


def random_axisymmetric(order, dim, seed, scale=0.05):
    """random_state for the solver's layout: zero transverse velocity."""
    rng = np.random.default_rng(seed)
    lay = AxisymmetricLayout(order, dim)
    u = np.zeros(dim)
    u[0] = rng.normal() * 0.3
    mac = MacroState(rho=1.0 + rng.random(), u=u, theta=0.8 + rng.random())
    g = rng.normal(size=lay.shape) * scale * lay.mask
    enforce_constraints(lay, g, mac.rho)
    return lay, mac, g


def test_maxwellian_coeffs_examples():
    lay = MomentLayout(3, 3)
    mac = MacroState(rho=7.0, u=np.zeros(3), theta=1.0)
    c = maxwellian_coeffs(mac, lay)
    assert c[0] == 7.0 and np.all(c[1:] == 0.0)
    mac2 = MacroState(rho=1.0, u=[0.4, -0.2, 0.1], theta=2.0)
    c2 = maxwellian_coeffs(mac2, lay)
    assert c2[0] == 1.0 and np.all(c2[1:] == 0.0)


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
    oracles.enforce_constraints(lay, coeffs, 1.0)  # sum_d f_{2e_d} = 0 with D=1 pins f_2
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
    dense = np.zeros((1,) + (lay.order + 1,) * dim)
    for k, alpha in enumerate(lay.indices):
        dense[(0,) + alpha] = coeffs[k]
    sig, q1 = _sigma_q1(dense, dim)
    assert sig.shape == (1, dim)
    for d in range(dim):
        assert sig[0, d] == pytest.approx(sh.sigma[d, 0])
    assert q1[0] == pytest.approx(sh.q[0])


def test_macro_from_conserved_examples():
    for dim in (1, 2, 3):
        u1, theta = macro_from_conserved(1.0, 0.0, dim / 2.0, dim)
        assert theta == pytest.approx(1.0) and u1 == 0.0
        _, theta7 = macro_from_conserved(7.0, 0.0, dim / 2.0 * 7.0, dim)
        assert theta7 == pytest.approx(1.0)


def test_macro_conserved_round_trip():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        rho = 1.0 + rng.random(5)
        u1 = rng.normal(size=5)
        theta = 0.5 + rng.random(5)
        energy = 0.5 * rho * u1 * u1 + 0.5 * dim * rho * theta
        got_u1, got_theta = macro_from_conserved(rho, rho * u1, energy, dim)
        assert np.allclose(got_u1, u1)
        assert np.allclose(got_theta, theta)


def test_macro_state_rejects_nan():
    with pytest.raises(ValueError):
        MacroState(rho=math.nan, u=[0.0], theta=1.0)
    with pytest.raises(ValueError):
        MacroState(rho=1.0, u=[0.0], theta=math.nan)


def test_axisymmetric_layout_shape_and_top_grade():
    lay = AxisymmetricLayout(9, 3)
    assert lay.shape == (10, 5)
    assert int(lay.mask.sum()) == 30          # independent coefficients at M = 9
    assert np.all(lay.grades[lay.top_a, lay.top_k] == 9)
    assert AxisymmetricLayout(9, 1).shape == (10, 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sigma11_q1_matches_stress_heat(dim):
    lay, mac, g = random_axisymmetric(4, dim, seed=9)
    full, f = expand_full(lay, g)
    sh = stress_heat(full, f, mac)
    sig11, q1 = sigma11_q1(lay, g)
    assert sig11 == pytest.approx(sh.sigma[0, 0], rel=1e-14, abs=1e-16)
    assert q1 == pytest.approx(sh.q[0], rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_conserved_from_coeffs_matches_quadrature(dim):
    lay, mac, g = random_axisymmetric(4, dim, seed=30 + dim)
    g[0, 0] *= 1.1                      # off the matched frame: f_0, f_{e_1},
    g[1, 0] = 0.07                      # and the trace all contribute
    g[2, 0] += 0.03
    full, f = expand_full(lay, g)
    rho, m1, energy = conserved_from_coeffs(lay, g, mac.u[0], mac.theta)
    assert rho == pytest.approx(raw_moment(full, f, mac, (0,) * dim), rel=1e-12)
    for d in range(dim):
        powers = tuple(int(j == d) for j in range(dim))
        # the transverse momenta of the axisymmetric expansion are 0
        assert (m1 if d == 0 else 0.0) == pytest.approx(raw_moment(full, f, mac, powers),
                                                        abs=1e-12)
    e_ref = 0.5 * sum(raw_moment(full, f, mac, tuple(2 * (j == d) for j in range(dim)))
                      for d in range(dim))
    assert energy == pytest.approx(e_ref, rel=1e-12)


def test_project_frame_identity():
    for dim in (1, 2, 3):
        lay, mac, g = random_axisymmetric(5, dim, seed=5)
        assert np.array_equal(project_coeffs(lay, g, 0.0, 0.0), g)


def test_project_frame_shifted_maxwellian_closed_form():
    # pure velocity shift of a Maxwellian: g_(n,0) = rho (-delta)^n / n!
    delta = 0.37
    for dim in (1, 2, 3):
        lay = AxisymmetricLayout(6, dim)
        g = np.zeros(lay.shape)
        g[0, 0] = 2.0
        out = project_coeffs(lay, g, delta, 0.0)
        expect = np.zeros(lay.shape)
        expect[:, 0] = [2.0 * (-delta) ** n / math.factorial(n) for n in range(7)]
        assert np.abs(out - expect).max() < 1e-14


def test_project_frame_preserves_raw_moments():
    # Maxwellian re-expanded at a different temperature keeps moments <= M
    lay = AxisymmetricLayout(5, 1)
    mac = MacroState(rho=1.3, u=[0.0], theta=1.0)
    dst = MacroState(rho=1.3, u=[0.0], theta=1.45)
    g = np.zeros(lay.shape)
    g[0, 0] = mac.rho
    full, f_src = expand_full(lay, g)
    _, f_dst = expand_full(lay, project_coeffs(lay, g, 0.0, dst.theta - mac.theta))
    for k in range(lay.order + 1):
        a = raw_moment(full, f_src, mac, (k,))
        b = raw_moment(full, f_dst, dst, (k,))
        assert b == pytest.approx(a, abs=1e-9 * max(1.0, abs(a)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_project_frame_general_state_preserves_raw_moments(dim):
    # a general axisymmetric state moved in u_1 and theta keeps every raw
    # moment of order <= M, transverse ones included
    lay, mac, g = random_axisymmetric(4, dim, seed=20 + dim)
    du1, dth = 0.3, mac.theta * 0.3
    dst = MacroState(rho=mac.rho, u=mac.u + du1 * np.eye(dim)[0], theta=mac.theta + dth)
    out = project_coeffs(lay, g, du1, dth)
    assert np.all(out[lay.mask == 0.0] == 0.0)
    full, f_src = expand_full(lay, g)
    _, f_dst = expand_full(lay, out)
    for alpha in full.indices:
        a = raw_moment(full, f_src, mac, alpha)
        b = raw_moment(full, f_dst, dst, alpha)
        assert b == pytest.approx(a, abs=1e-9 * max(1.0, abs(a)))


def test_project_coeffs_is_linear():
    lay = AxisymmetricLayout(6, 3)
    rng = np.random.default_rng(17)
    a = np.moveaxis(rng.normal(size=(3,) + lay.shape) * lay.mask, 0, -1)
    b = np.moveaxis(rng.normal(size=(3,) + lay.shape) * lay.mask, 0, -1)
    du1 = np.array([0.3, -0.2, 0.1])
    dth = np.array([0.4, -0.1, 0.2])
    lhs = project_coeffs(lay, 2.0 * a + 3.0 * b, du1, dth)
    rhs = 2.0 * project_coeffs(lay, a, du1, dth) + 3.0 * project_coeffs(lay, b, du1, dth)
    assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(lhs).max())


def full_rectangle_projection(lay, g, du1, dtheta):
    """The projection series over the whole (M+1, K) rectangle, then the
    mask: the same terms in the same order for each live entry."""
    neg_du1 = -np.asarray(du1, dtype=float)
    dtheta = np.asarray(dtheta, dtype=float)
    out = g.copy()
    h_prev, h = 1.0, neg_du1
    for m in range(1, lay.order + 1):
        out[m:] += h * g[:-m]
        if m < lay.order:
            h_prev, h = h, (neg_du1 * h - dtheta * h_prev) / (m + 1)
    acc = out.copy()
    c, half = 1.0, -0.5 * dtheta
    for l in range(1, lay.shape[1]):
        c = c * half / l
        acc[:, l:] += c * out[:, :-l]
    return acc * lead(lay.mask, acc)


@pytest.mark.parametrize("order", range(3, 10))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projection_contract(order, dim):
    # the live triangle alone is projected, bit for bit as the full series
    # does it, into the caller's buffers or fresh ones; the corner comes back
    # zero whatever g holds there, and g is left as it was
    lay = AxisymmetricLayout(order, dim)
    rng = np.random.default_rng(100 * order + dim)
    n = 7
    for batch in ((), (n,), (2, n + 1)):
        live = np.broadcast_to(lead(lay.mask, np.zeros(lay.shape + batch)) > 0.0,
                               lay.shape + batch)
        g = rng.normal(size=lay.shape + batch) * lead(lay.mask, live)
        du1, dth = 0.4 * rng.normal(size=batch), 0.3 * rng.normal(size=batch)
        before = g.copy()
        fresh = project_coeffs(lay, g, du1, dth)
        out, work = np.full(g.shape, np.nan), np.full(g.shape, np.nan)
        buffered = project_coeffs(lay, g, du1, dth, out=out, work=work)
        assert buffered is out
        assert buffered.tobytes() == fresh.tobytes()
        assert g.tobytes() == before.tobytes()
        ref = full_rectangle_projection(lay, g, du1, dth)
        assert buffered[live].tobytes() == ref[live].tobytes()
        assert np.all(buffered[~live] == 0.0)
        noisy = g + rng.normal(size=g.shape) * (~live)
        assert np.all(noisy[~live] != 0.0)
        got = project_coeffs(lay, noisy, du1, dth, out=out, work=work)
        assert got[live].tobytes() == ref[live].tobytes()
        assert np.all(got[~live] == 0.0)


@pytest.mark.parametrize("order", range(3, 10))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projection_built_once_serves_every_call(order, dim):
    # a Projection's views are built over its buffers once: refilling g and
    # calling again with new shifts gives a fresh project_coeffs, byte for
    # byte, whatever the buffers held from the call before
    lay = AxisymmetricLayout(order, dim)
    rng = np.random.default_rng(10 * order + dim)
    shape = lay.shape + (2, 5)
    g, out, work = np.empty(shape), np.full(shape, np.nan), np.full(shape, np.nan)
    project = Projection(lay, g, out, work)
    for _ in range(3):
        g[...] = rng.normal(size=shape)
        du1, dth = 0.4 * rng.normal(size=shape[2:]), 0.3 * rng.normal(size=shape[2:])
        assert project(du1, dth) is out
        assert out.tobytes() == project_coeffs(lay, g, du1, dth).tobytes()


def test_project_then_conserved_frame_restores_constraints():
    for dim in (1, 2, 3):
        lay, mac, g = random_axisymmetric(5, dim, seed=11)
        du1, dth = -0.25, -0.2 * mac.theta
        dst = MacroState(rho=mac.rho, u=mac.u + du1 * np.eye(dim)[0], theta=mac.theta + dth)
        moved = project_coeffs(lay, g, du1, dth)
        rho, m1, energy = conserved_from_coeffs(lay, moved, dst.u[0], dst.theta)
        u1, theta = macro_from_conserved(rho, m1, energy, dim)
        fixed = project_coeffs(lay, moved, u1 - dst.u[0], theta - dst.theta)
        assert float(constraint_residual(lay, fixed, rho, theta)) < 1e-10
        assert fixed[0, 0] == pytest.approx(float(rho), rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enforce_constraints_matches_full_layout(dim):
    lay = AxisymmetricLayout(4, dim)
    g = np.random.default_rng(3).normal(size=lay.shape) * lay.mask
    full, f = expand_full(lay, g)
    oracles.enforce_constraints(full, f, 1.3)
    enforce_constraints(lay, g, 1.3)
    assert np.allclose(expand_full(lay, g)[1], f, rtol=0.0, atol=1e-15)
