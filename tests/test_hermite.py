import math

import numpy as np
import pytest

from regmom.hermite import hermite_roots
from regmom.scenarios import shock_tube
from regmom.solver import SolverConfig, make_state, step

from oracles import QuadratureRule, he_derivative, he_eval, he_table


def test_he_base_cases():
    xs = np.linspace(-3, 3, 11)
    assert np.all(he_eval(0, xs) == 1.0)
    assert np.allclose(he_eval(1, xs), xs)
    assert he_eval(-1, 1.7) == 0.0


def test_he3_value():
    # He_3(x) = x^3 - 3x
    assert he_eval(3, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_odd_degrees_vanish_at_zero():
    for n in (1, 3, 5, 7, 9, 11):
        assert he_eval(n, 0.0) == 0.0


def test_recursion_pointwise():
    xs = np.linspace(-4, 4, 41)
    tab = he_table(13, xs)
    for n in range(1, 12):
        resid = tab[n + 1] - (xs * tab[n] - n * tab[n - 1])
        assert np.abs(resid).max() < 1e-12 * max(1.0, np.abs(tab[n + 1]).max())


def test_derivative_identity():
    assert he_derivative(1, 0.33) == pytest.approx(1.0)
    # 4 He_3(1.5) = 4 (3.375 - 4.5) = -4.5
    assert he_derivative(4, 1.5) == pytest.approx(-4.5, abs=1e-13)


def test_derivative_matches_finite_difference():
    xs = np.linspace(-2.5, 2.5, 17)
    h = 1e-5
    for n in range(11):
        fd = (he_eval(n, xs + h) - he_eval(n, xs - h)) / (2 * h)
        scale = max(1.0, np.abs(he_derivative(n, xs)).max())
        assert np.abs(he_derivative(n, xs) - fd).max() / scale < 1e-7


def test_weighted_derivative_identity():
    # [He_n e^{-x^2/2}]' = -He_{n+1} e^{-x^2/2}
    xs = np.linspace(-4, 4, 81)
    w = np.exp(-0.5 * xs**2)
    for n in range(11):
        lhs = (he_derivative(n, xs) - xs * he_eval(n, xs)) * w
        rhs = -he_eval(n + 1, xs) * w
        assert np.abs(lhs - rhs).max() < 1e-11 * max(1.0, np.abs(rhs).max())


def test_orthogonality_by_quadrature():
    rule = QuadratureRule.gauss(40)
    tab = he_table(12, rule.nodes)
    for m in range(13):
        for n in range(13):
            val = rule.integrate(tab[m] * tab[n])
            expect = math.factorial(m) if m == n else 0.0
            assert abs(val - expect) <= 1e-10 * max(1.0, math.factorial(m))


def test_quadrature_normalization():
    rule = QuadratureRule.gauss(20)
    assert rule.integrate(np.ones_like(rule.nodes)) == pytest.approx(1.0, abs=1e-14)
    # second moment of the unit Gaussian
    assert rule.integrate(rule.nodes**2) == pytest.approx(1.0, abs=1e-13)


def test_hermite_roots_interlace_and_speed():
    r4 = hermite_roots(4)
    assert r4[-1] == pytest.approx(2.3344142183389773, abs=1e-12)
    # the moment solver bounds its wavespeeds at order M by |u1| + c sqrt(theta),
    # c the largest root of He_{M+1}; the step is dt = cfl dx / bound
    sc = shock_tube(kn=0.5)
    sc.u0 = lambda x: np.full_like(np.asarray(x, float), -1.0)
    sc.theta0 = lambda x: np.full_like(np.asarray(x, float), 4.0)
    cfg = SolverConfig.from_scenario(sc, order=3, n_cells=20)
    state = make_state(sc, cfg)
    assert step(state, cfg) == pytest.approx(cfg.cfl * state.dx / (1.0 + 2 * r4[-1]))
