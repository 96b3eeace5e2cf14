import math

import numpy as np
import pytest

from regmom.closure import TopOrderClosure
from regmom import state
from regmom.indices import AxisymmetricLayout
from regmom.iteration import ManufacturedField, _sigma_q1, run_iteration

from oracles import (GradientData, MacroState, MomentLayout, closure_linear, closure_nonlinear,
                     enforce_constraints, expand_full, stress_heat)


def top_indices(order, dim):
    from regmom.indices import enumerate_indices
    return [a for a in enumerate_indices(order + 1, dim) if sum(a) == order + 1]


def naive_nonlinear(layout, alpha, macro, coeffs, grads, tau):
    """Straight transcription of the closure expression, written independently
    of the ordinal-layout reference in oracles (loops and dict lookups)."""
    D = layout.dim
    table = {a: coeffs[k] for k, a in enumerate(layout.indices)}
    table_x = {a: grads.coeffs_x[k] for k, a in enumerate(layout.indices)}

    def get(tab, a):
        return tab.get(tuple(a), 0.0) if all(c >= 0 for c in a) else 0.0

    sh = stress_heat(layout, coeffs, macro)
    rho, theta = macro.rho, macro.theta
    p_x = grads.rho_x * theta + rho * grads.theta_x
    j = 0  # single spatial axis
    am_ej = list(alpha)
    am_ej[j] -= 1
    total = tau * (p_x / rho * get(table, am_ej) - theta * get(table_x, am_ej))
    for d in range(D):
        a1 = list(alpha)
        a1[d] -= 1
        a1[j] -= 1
        a2 = list(alpha)
        a2[d] -= 2
        a2[j] -= 1
        a3 = list(alpha)
        a3[d] -= 2
        a3[j] += 1
        total += (0.5 * sh.sigma[d, j] * get(table, a1)
                  + sh.q[j] / ((D + 2) * theta)
                  * (theta * get(table, a2) + (alpha[j] + 1) * get(table, a3))) / rho
    return total


def manufactured_point(order, dim, seed):
    rng = np.random.default_rng(seed)
    lay = MomentLayout(order, dim)
    mac = MacroState(rho=1.0 + rng.random(), u=rng.normal(size=dim) * 0.4,
                     theta=0.7 + rng.random())
    coeffs = rng.normal(size=lay.size) * 0.1
    enforce_constraints(lay, coeffs, mac.rho)
    grads = GradientData(rho_x=rng.normal() * 0.5, u_x=rng.normal(size=dim) * 0.5,
                         theta_x=rng.normal() * 0.5,
                         coeffs_x=rng.normal(size=lay.size) * 0.2)
    return lay, mac, coeffs, grads


def test_closure_linear_example():
    # 1D: tau = 0.1, theta = 2, df_{alpha-e_1}/dx = 3  ->  -0.6
    lay = MomentLayout(3, 1)
    coeffs_x = np.zeros(lay.size)
    coeffs_x[lay.ordinal((3,))] = 3.0
    assert closure_linear(lay, (4,), theta=2.0, tau=0.1, coeffs_x=coeffs_x) == \
        pytest.approx(-0.6, rel=1e-14)


def test_closure_linear_zero_gradients():
    lay = MomentLayout(3, 2)
    assert closure_linear(lay, (3, 1), 1.4, 0.2, np.zeros(lay.size)) == 0.0


def test_closure_linear_superposition():
    lay, mac, coeffs, grads = manufactured_point(4, 3, seed=2)
    rng = np.random.default_rng(5)
    gx1 = rng.normal(size=lay.size)
    gx2 = rng.normal(size=lay.size)
    for alpha in top_indices(4, 3)[::7]:
        a = closure_linear(lay, alpha, mac.theta, 0.3, gx1)
        b = closure_linear(lay, alpha, mac.theta, 0.3, gx2)
        ab = closure_linear(lay, alpha, mac.theta, 0.3, 2.0 * gx1 - 1.5 * gx2)
        assert ab == pytest.approx(2.0 * a - 1.5 * b, rel=1e-13, abs=1e-15)


def test_closure_nonlinear_equilibrium_vanishes():
    lay = MomentLayout(3, 3)
    mac = MacroState(rho=1.5, u=np.zeros(3), theta=1.2)
    coeffs = np.zeros(lay.size)
    coeffs[0] = mac.rho
    grads = GradientData(0.0, np.zeros(3), 0.0, np.zeros(lay.size))
    for alpha in top_indices(3, 3):
        assert closure_nonlinear(lay, alpha, mac, coeffs, grads, 0.2) == 0.0


@pytest.mark.parametrize("order,dim,seed", [(3, 1, 1), (3, 3, 2), (4, 3, 3), (5, 2, 4)])
def test_closure_nonlinear_matches_naive_transcription(order, dim, seed):
    lay, mac, coeffs, grads = manufactured_point(order, dim, seed)
    for alpha in top_indices(order, dim):
        got = closure_nonlinear(lay, alpha, mac, coeffs, grads, 0.17)
        ref = naive_nonlinear(lay, alpha, mac, coeffs, grads, 0.17)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_closure_nonlinear_reduces_to_linear():
    # with sigma = q = 0 and dp/dx = 0 only the -tau theta df/dx term survives
    lay = MomentLayout(3, 3)
    rng = np.random.default_rng(7)
    mac = MacroState(rho=1.3, u=np.zeros(3), theta=1.1)
    coeffs = np.zeros(lay.size)
    coeffs[0] = mac.rho
    grads = GradientData(rho_x=0.2, u_x=np.zeros(3),
                         theta_x=-0.2 * mac.theta / mac.rho,  # dp/dx = 0
                         coeffs_x=rng.normal(size=lay.size))
    for alpha in top_indices(3, 3):
        nl = closure_nonlinear(lay, alpha, mac, coeffs, grads, 0.25)
        lin = closure_linear(lay, alpha, mac.theta, 0.25, grads.coeffs_x)
        assert nl == pytest.approx(lin, rel=1e-13, abs=1e-16)


def test_closure_linearization_consistency():
    # near-equilibrium scaling: nonlinear - linear = O(eps^2)
    order, dim = 3, 3
    lay = MomentLayout(order, dim)
    rng = np.random.default_rng(11)
    rho0, theta0 = 1.2, 0.9
    rhat, that = 0.7, -0.4
    uhat = rng.normal(size=dim)
    fhat = rng.normal(size=lay.size)
    fhat_x = rng.normal(size=lay.size)
    rx_hat, ux_hat, tx_hat = 0.5, rng.normal(size=dim), -0.3
    tau0 = 0.6
    alphas = top_indices(order, dim)
    diffs = []
    epss = [0.04, 0.02, 0.01, 0.005]
    for eps in epss:
        mac = MacroState(rho=rho0 * (1 + eps * rhat),
                         u=math.sqrt(theta0) * eps * uhat,
                         theta=theta0 * (1 + eps * that))
        scale = rho0 * theta0 ** (lay.orders / 2.0) * eps
        coeffs = scale * fhat
        coeffs[0] = mac.rho
        enforce_constraints(lay, coeffs, mac.rho)
        coeffs_x = scale * fhat_x
        grads = GradientData(rho_x=rho0 * eps * rx_hat,
                             u_x=math.sqrt(theta0) * eps * ux_hat,
                             theta_x=theta0 * eps * tx_hat, coeffs_x=coeffs_x)
        tau = tau0 * eps
        worst = 0.0
        for alpha in alphas:
            nl = closure_nonlinear(lay, alpha, mac, coeffs, grads, tau)
            lin = closure_linear(lay, alpha, mac.theta, tau, coeffs_x)
            worst = max(worst, abs(nl - lin))
        diffs.append(worst)
    orders = [math.log2(diffs[k] / diffs[k + 1]) for k in range(len(diffs) - 1)]
    assert min(orders) >= 1.9


# The first-order (NSF/Fourier) limits of the moment system, as one sweep of
# the Maxwell iteration from the local equilibrium produces them.

def zero(x):
    return np.zeros_like(x)


def first_sweep_stress_heat(u, u_x, theta, theta_x, tau, rho=1.3):
    """One sweep on a D = 3 field with constant rho and the given x-profiles;
    returns (sample, coefficients, sigma_d1, q_1)."""
    field = ManufacturedField(
        dim=3, rho=lambda x: np.full_like(x, rho), rho_x=zero,
        u=u, u_x=u_x, theta=theta, theta_x=theta_x)
    sample = field.sample(32)
    state = run_iteration(sample, tau, 1, max_order=4)
    sig, q1 = _sigma_q1(state.coeffs, 3)
    return sample, state.coeffs, sig, q1


def test_nsf_limits_uniform_theta_gives_zero_heat_flux():
    _, _, _, q = first_sweep_stress_heat(
        u=(lambda x: 0.2 + 0.5 * np.sin(x), zero, zero),
        u_x=(lambda x: 0.5 * np.cos(x), zero, zero),
        theta=lambda x: np.ones_like(x), theta_x=zero, tau=0.3)
    assert np.all(q == 0.0)


def test_nsf_limits_unidirectional_shear():
    # D=3, u = (u1(x), 0, 0): sigma_11 = -(4/3) tau rho theta du1/dx
    sample, f, sigma, _ = first_sweep_stress_heat(
        u=(lambda x: 0.7 * np.sin(x), zero, zero),
        u_x=(lambda x: 0.7 * np.cos(x), zero, zero),
        theta=lambda x: np.full_like(x, 1.1), theta_x=zero, tau=0.3)
    du = sample.u_x[:, 0]
    mu = 0.3 * sample.rho * sample.theta
    sigma22, sigma33 = 2.0 * f[:, 0, 2, 0], 2.0 * f[:, 0, 0, 2]
    scale = mu.max() * 0.7
    assert np.abs(sigma[:, 0] + (4.0 / 3.0) * mu * du).max() <= 1e-14 * scale
    assert np.abs(sigma22 - (2.0 / 3.0) * mu * du).max() <= 1e-14 * scale
    assert np.abs(sigma[:, 0] + sigma22 + sigma33).max() <= 1e-15 * scale


def test_nsf_limits_prandtl_number_is_one():
    # Pr = (viscosity * c_p) / conductivity with c_p = (D+2)/2 per unit mass
    D = 3
    sample, _, sigma, q = first_sweep_stress_heat(
        u=(zero, lambda x: 0.4 * np.sin(x), zero),
        u_x=(zero, lambda x: 0.4 * np.cos(x), zero),
        theta=lambda x: 0.8 + 0.1 * np.sin(x), theta_x=lambda x: 0.1 * np.cos(x),
        tau=0.21)
    du, dth = sample.u_x[:, 1], sample.theta_x
    ok = np.abs(np.cos(sample.x)) > 0.1
    viscosity = -sigma[ok, 1] / du[ok]  # sigma_12 = -mu du2/dx1
    conductivity = -q[ok] / dth[ok]
    prandtl = viscosity * ((D + 2) / 2.0) / conductivity
    assert np.abs(prandtl - 1.0).max() < 1e-13


def test_top_order_closure_matches_pointwise():
    # the vectorized face evaluation on g agrees with the pointwise API on the
    # full-layout expansion at every top index, odd transverse ones included:
    # this checks the collapsed sums over d
    for order, dim in ((4, 1), (5, 2), (4, 3), (5, 3)):
        rng = np.random.default_rng(21 + order + dim)
        lay = AxisymmetricLayout(order, dim)
        u = np.zeros(dim)
        u[0] = 0.3
        mac = MacroState(rho=1.0 + rng.random(), u=u, theta=0.7 + rng.random())
        g = state.enforce_constraints(lay, rng.normal(size=lay.shape) * 0.1 * lay.mask, mac.rho)
        g_x = rng.normal(size=lay.shape) * 0.2 * lay.mask
        full, f = expand_full(lay, g)
        f_x = expand_full(lay, g_x)[1]
        grads = GradientData(rho_x=rng.normal() * 0.5, u_x=np.zeros(dim),
                             theta_x=rng.normal() * 0.5, coeffs_x=f_x)
        top = TopOrderClosure(lay)
        sh = stress_heat(full, f, mac)
        p_x = grads.rho_x * mac.theta + mac.rho * grads.theta_x
        g_x_top = g_x[lay.top_a, lay.top_k][:, None]
        # the nonlinear closure is the sum of its two owners
        lin = top.linear(np.array([mac.theta]), np.array([0.17]), g_x_top)
        vals = lin + top.nonlinear(np.array([mac.rho]), np.array([mac.theta]),
                                   np.array([0.17]), np.array([p_x]), g[..., None],
                                   np.array([sh.sigma[0, 0]]), np.array([sh.q[0]]))
        on_top = np.zeros((2,) + lay.shape)
        on_top[:, lay.top_a, lay.top_k] = vals[:, 0], lin[:, 0]
        _, (vals_full, lin_full) = expand_full(lay, on_top)
        for n in np.flatnonzero(full.orders == order):
            alpha = full.unrank(n)
            beta = (alpha[0] + 1,) + alpha[1:]
            ref = closure_nonlinear(full, beta, mac, f, grads, 0.17)
            assert vals_full[n] == pytest.approx(ref, rel=1e-12, abs=1e-15)
            ref = closure_linear(full, beta, mac.theta, 0.17, grads.coeffs_x)
            assert lin_full[n] == pytest.approx(ref, rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("order", range(3, 10))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closure_neighbour_reads_match_masked_reads(order, dim):
    # the index arrays made once per layout read what a mask built at every
    # call reads: g_(a+da, k+dk) at each top entry, 0 where an index is negative
    lay = AxisymmetricLayout(order, dim)
    top = TopOrderClosure(lay)
    g = np.random.default_rng(order + 10 * dim).normal(size=lay.shape + (6,)) * lay.mask[..., None]
    for da, dk in ((-1, 0), (-2, 0), (0, -1), (2, -1)):
        a, k = lay.top_a + da, lay.top_k + dk
        ok = (a >= 0) & (k >= 0)
        expect = np.zeros((a.size, 6))
        expect[ok] = g[a[ok], k[ok]]
        assert top._at(g, da, dk).tobytes() == expect.tobytes()
