import math
from pathlib import Path

import numpy as np
import pytest

from regmom.iteration import (field_preset, iterate_once,
                              magnitude_table, maxwellian_iteration_state,
                              predicted_exponent, run_iteration, fd4)

from oracles import nsf_check

TAU = 0.01
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def generic_field():
    return field_preset("generic-3d")


@pytest.fixture(scope="module")
def generic_sample(generic_field):
    return generic_field.sample(64)


def test_fd4_differentiates_smooth_periodic_field():
    n = 64
    x = np.arange(n) * (2 * math.pi / n)
    err = np.abs(fd4(np.sin(x), 2 * math.pi / n) - np.cos(x)).max()
    assert err < 1e-5  # ~h^4/30
    # order check: doubling the grid shrinks the error ~16x
    x2 = np.arange(2 * n) * (2 * math.pi / (2 * n))
    err2 = np.abs(fd4(np.sin(x2), 2 * math.pi / (2 * n)) - np.cos(x2)).max()
    assert err / err2 == pytest.approx(16.0, rel=0.2)


def first_sweep_closed_forms(sample, tau):
    """The sweep-one coefficients written straight from their closed forms.

    With sigma = q = 0 the conservation laws give
    dtheta/dt = -u . grad theta - (2 theta / D) div u, so the second-order
    line collapses to -tau rho theta (du_j/dx_j - div u / D).
    """
    D = sample.dim
    rho, th = sample.rho, sample.theta
    divu = sample.u_x[:, 0]  # fields vary along x_1 only
    out = {}
    for j in range(D):
        a = tuple(2 * (d == j) for d in range(D))
        out[a] = -tau * rho * th * ((j == 0) * sample.u_x[:, 0] - divu / D)
    for i in range(D):
        for j in range(i + 1, D):
            a = tuple((d == i) + (d == j) for d in range(D))
            out[a] = -tau * rho * th * ((j == 0) * sample.u_x[:, i]
                                        + (i == 0) * sample.u_x[:, j])
    for i in range(D):
        for j in range(D):
            a = tuple(2 * (d == i) + (d == j) for d in range(D))
            out[a] = -0.5 * tau * rho * th * sample.theta_x * (j == 0)
    return out


def test_first_sweep_matches_closed_forms(generic_sample):
    state = run_iteration(generic_sample, TAU, 1, max_order=6)
    expected = first_sweep_closed_forms(generic_sample, TAU)
    scale = (TAU * generic_sample.rho * generic_sample.theta).max()
    for alpha, ref in expected.items():
        got = state.coeffs[(slice(None),) + alpha]
        assert np.abs(got - ref).max() <= 1e-8 * scale, alpha
    # fully mixed third-order index and everything above order 3 vanish
    assert np.all(state.coeffs[:, 1, 1, 1] == 0.0)
    assert np.all(state.coeffs[:, state.grades >= 4] == 0.0)


def test_conserved_coefficients_never_change(generic_sample):
    state = maxwellian_iteration_state(generic_sample, max_order=6)
    for _ in range(3):
        state = iterate_once(state, generic_sample, TAU)
        assert np.array_equal(state.coeffs[:, 0, 0, 0], generic_sample.rho)
        for d in range(3):
            unit = tuple(int(j == d) for j in range(3))
            assert np.all(state.coeffs[(slice(None),) + unit] == 0.0)


def test_compatibility_trace_preserved(generic_sample):
    # sum_d f_{2e_d} stays (near) zero through sweeps: the second-order trace
    # equation reduces to the energy conservation law
    state = run_iteration(generic_sample, TAU, 3, max_order=9)
    tr = sum(state.coeffs[(slice(None),) + tuple(2 * (j == d) for j in range(3))]
             for d in range(3))
    mag = np.abs(state.coeffs[:, state.grades == 2]).max()
    assert np.abs(tr).max() < 1e-12 * mag


def test_sweep_is_linear_in_previous_coefficients(generic_sample):
    # with the material-derivative fields frozen, the sweep map is linear
    from regmom.iteration import fd4, time_derivative_fields

    rng = np.random.default_rng(8)
    base = maxwellian_iteration_state(generic_sample, max_order=6)
    materials = time_derivative_fields(base, generic_sample,
                                       fd4(base.coeffs, generic_sample.dx))
    pert_a = rng.normal(size=base.coeffs.shape) * 0.02
    pert_b = rng.normal(size=base.coeffs.shape) * 0.02
    # conserved entries stay locked, and the dense array stays zero above M
    lock = (base.grades < 2) | (base.grades > base.order)
    pert_a[:, lock] = 0.0
    pert_b[:, lock] = 0.0

    def advance(pert):
        st = maxwellian_iteration_state(generic_sample, max_order=6)
        st.coeffs = st.coeffs + pert
        return iterate_once(st, generic_sample, TAU, materials=materials).coeffs

    f0 = advance(0.0 * pert_a)
    fa = advance(pert_a)
    fb = advance(pert_b)
    fab = advance(2.0 * pert_a - 0.5 * pert_b)
    lhs = fab - f0
    rhs = 2.0 * (fa - f0) - 0.5 * (fb - f0)
    assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())


def test_support_grows_three_orders_per_sweep(generic_sample):
    for n in (1, 2, 3):
        state = run_iteration(generic_sample, TAU, n, max_order=10)
        beyond = state.grades >= 1 + 3 * n
        assert np.all(state.coeffs[:, beyond] == 0.0)


def test_leading_order_stops_changing(generic_sample):
    # once a moment's leading tau-power appears, further sweeps only add
    # higher powers: compare sweeps n and n+1 under tau halving
    for alpha in [(2, 0, 0), (3, 0, 0), (1, 2, 0)]:
        k = (slice(None),) + alpha
        diffs = []
        for tau in (4e-3, 2e-3):
            a = run_iteration(generic_sample, tau, 2, max_order=6).coeffs[k]
            b = run_iteration(generic_sample, tau, 3, max_order=6).coeffs[k]
            base = np.abs(a).max()
            diffs.append(np.abs(a - b).max() / base)
        # the inter-sweep difference is relatively O(tau): halves with tau
        assert diffs[1] < 0.65 * diffs[0]


def magnitude_exponent(alpha, field, taus, sweeps=None, max_order=10, grid_n=64):
    """(measured exponent, degenerate flag) for a single index."""
    alpha = tuple(alpha)
    if sweeps is None:
        sweeps = max(1, math.ceil(sum(alpha) / 3))
    rows = magnitude_table(field, taus, sweeps=sweeps, max_order=max_order,
                           grid_n=grid_n)
    for row in rows:
        if row.alpha == alpha:
            return row.measured, row.degenerate
    raise ValueError(f"{alpha} has no relaxation-order prediction")


def test_predicted_exponents():
    assert predicted_exponent((0, 0, 0)) is None
    assert predicted_exponent((1, 0, 0)) is None
    assert predicted_exponent((2, 0, 0)) == 1
    assert predicted_exponent((3, 0, 0)) == 1
    assert predicted_exponent((1, 1, 1)) == 2
    assert predicted_exponent((4, 0, 0)) == 2
    assert predicted_exponent((7,)) == 3
    assert predicted_exponent((4, 2, 2)) == 3


def test_magnitude_exponents_low_orders(generic_field):
    taus = [2e-2 * 0.5 ** k for k in range(5)]
    # x-coupled members of orders 2 and 3 relax at first order in tau
    for alpha in [(2, 0, 0), (1, 1, 0), (3, 0, 0), (1, 2, 0)]:
        measured, degenerate = magnitude_exponent(alpha, generic_field, taus)
        assert not degenerate
        assert measured == pytest.approx(1.0, abs=0.15)


def test_magnitude_exponent_order_four(generic_field):
    taus = [2e-2 * 0.5 ** k for k in range(5)]
    measured, degenerate = magnitude_exponent((4, 0, 0), generic_field, taus)
    assert not degenerate
    assert measured == pytest.approx(2.0, abs=0.15)


def test_magnitude_law_is_lower_bound_on_exponent(generic_field):
    taus = [2e-2 * 0.5 ** k for k in range(5)]
    rows = magnitude_table(generic_field, taus, sweeps=3, max_order=10,
                           report_order=8)
    for row in rows:
        if not row.degenerate:
            assert row.measured >= row.predicted - 0.15, row


def test_magnitude_order_seven_zero_at_two_sweeps(generic_field):
    sample = generic_field.sample(64)
    state = run_iteration(sample, TAU, 2, max_order=8)
    assert np.all(state.coeffs[:, state.grades >= 7] == 0.0)


def test_nsf_first_sweep_exact(generic_field):
    report = nsf_check(generic_field, 5e-2, sweeps=1)
    assert report.sigma_dev < 1e-13
    assert report.q_dev < 1e-13


def test_nsf_fourier_exact_for_pure_conduction():
    from regmom.iteration import ManufacturedField
    zero = lambda x: np.zeros_like(x)
    field = ManufacturedField(
        dim=3, rho=lambda x: np.full_like(x, 1.3), rho_x=zero,
        u=(zero, zero, zero), u_x=(zero, zero, zero),
        theta=lambda x: 1.0 + 0.1 * np.sin(x),
        theta_x=lambda x: 0.1 * np.cos(x))
    report = nsf_check(field, 0.05, sweeps=1)
    assert report.q_dev < 1e-13


def test_nsf_deviation_is_second_order_in_tau(generic_field):
    devs = [nsf_check(generic_field, tau, sweeps=2).q_dev
            for tau in (2e-2, 1e-2, 5e-3)]
    assert devs[0] / devs[1] == pytest.approx(4.0, abs=0.3)
    assert devs[1] / devs[2] == pytest.approx(4.0, abs=0.3)


def test_degenerate_moment_is_flagged(generic_field):
    # e_2 + e_3 has no first-order source when fields vary along x only; at
    # higher sweeps it appears at higher order but (0,1,5) stays identically 0
    taus = [1e-2, 5e-3]
    rows = magnitude_table(generic_field, taus, sweeps=3, max_order=10,
                           report_order=8)
    by_alpha = {r.alpha: r for r in rows}
    assert by_alpha[(0, 1, 5)].degenerate
    assert math.isnan(by_alpha[(0, 1, 5)].measured)


@pytest.mark.parametrize("preset", ["generic-3d", "gentle-1d"])
def test_magnitude_csv_matches_ordinal_layout_golden(preset, tmp_path):
    """Output of the ordinal-layout iteration the dense array replaced, made by

        regmom magnitude --preset <preset>

    with default flags (stored as tests/data/magnitude_<preset>.csv).
    """
    from regmom.cli import main

    out = tmp_path / "mag.csv"
    assert main(["magnitude", "--preset", preset, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"magnitude_{preset}.csv").read_bytes()


def test_magnitude_table_needs_two_distinct_taus(generic_field):
    for taus in ([1e-2], [1e-2, 1e-2]):
        with pytest.raises(ValueError, match="two distinct tau"):
            magnitude_table(generic_field, taus, sweeps=1, max_order=4)


def test_iteration_needs_order_three(generic_sample):
    with pytest.raises(ValueError, match="max_order >= 3"):
        maxwellian_iteration_state(generic_sample, max_order=2)


def test_manufactured_field_rejects_nan_density():
    from regmom.iteration import ManufacturedField
    zero = lambda x: np.zeros_like(x)
    field = ManufacturedField(
        dim=1, rho=lambda x: np.where(x > 3.0, np.nan, 1.0), rho_x=zero,
        u=(zero,), u_x=(zero,), theta=lambda x: np.ones_like(x), theta_x=zero)
    with pytest.raises(ValueError, match="rho > 0"):
        field.sample(16)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dense_layout_keeps_zeros_above_order(dim):
    from regmom.iteration import ManufacturedField
    field = ManufacturedField(
        dim=dim, rho=lambda x: 1.0 + 0.1 * np.sin(x), rho_x=lambda x: 0.1 * np.cos(x),
        u=tuple(lambda x, d=d: 0.1 * np.sin(x + d) for d in range(dim)),
        u_x=tuple(lambda x, d=d: 0.1 * np.cos(x + d) for d in range(dim)),
        theta=lambda x: 1.0 + 0.1 * np.cos(x), theta_x=lambda x: -0.1 * np.sin(x))
    state = run_iteration(field.sample(32), TAU, 3, max_order=5)
    assert state.coeffs.shape == (32,) + (6,) * dim
    assert np.all(state.coeffs[:, state.grades > 5] == 0.0)
    assert np.any(state.coeffs[:, state.grades == 5] != 0.0)
