"""Independent quadrature oracles used across the test suite.

Velocity-space integrals of a truncated Hermite expansion are computed with
tensor Gauss quadrature against the unit Gaussian: writing xi = u + sqrt(theta) v,

    int g(xi) f(xi) dxi
        = sum_alpha f_alpha theta^{-|alpha|/2}
          E_{v ~ N(0,I)} [ prod_d He_{alpha_d}(v_d) * g(u + sqrt(theta) v) ],

which the rule evaluates exactly whenever g is a polynomial of moderate
degree.  These oracles never call the projection or closure code paths they
are used to check.
"""
import math
from functools import reduce

import numpy as np
from numpy.polynomial import hermite_e

from regmom.hermite import he_table
from regmom.indices import MomentLayout


def _tensor_nodes(dim, n_nodes):
    x, w = hermite_e.hermegauss(n_nodes)
    w = w / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    v = np.stack([g.ravel() for g in grids], axis=-1)
    wt = reduce(np.multiply.outer, [w] * dim).ravel()
    return v, wt


def quad_moment(layout, coeffs, macro, g, n_nodes=40):
    """int g(xi) f(xi) dxi for the expansion (coeffs, macro); g maps (N, D) -> (N,)."""
    D = layout.dim
    v, wt = _tensor_nodes(D, n_nodes)
    xi = np.asarray(macro.u) + math.sqrt(macro.theta) * v
    gv = np.asarray(g(xi), dtype=float) * wt
    tabs = [he_table(layout.order, v[:, d]) for d in range(D)]
    total = 0.0
    for k, alpha in enumerate(layout.indices):
        prod = gv
        for d in range(D):
            prod = prod * tabs[d][alpha[d]]
        total += coeffs[k] * macro.theta ** (-sum(alpha) / 2.0) * prod.sum()
    return total


def raw_moment(layout, coeffs, macro, powers, n_nodes=40):
    """int prod_d xi_d^{p_d} f dxi."""
    powers = tuple(powers)

    def g(xi):
        out = np.ones(xi.shape[0])
        for d, p in enumerate(powers):
            out = out * xi[:, d] ** p
        return out

    return quad_moment(layout, coeffs, macro, g, n_nodes)


def central_moment(layout, coeffs, macro, powers, n_nodes=40):
    """int prod_d (xi_d - u_d)^{p_d} f dxi."""
    powers = tuple(powers)
    u = np.asarray(macro.u)

    def g(xi):
        out = np.ones(xi.shape[0])
        for d, p in enumerate(powers):
            out = out * (xi[:, d] - u[d]) ** p
        return out

    return quad_moment(layout, coeffs, macro, g, n_nodes)


def quad_stress_heat(layout, coeffs, macro, n_nodes=40):
    """(p_ij, sigma_ij, q_k) straight from their defining integrals."""
    D = layout.dim
    p_tensor = np.empty((D, D))
    for i in range(D):
        for j in range(D):
            powers = [0] * D
            powers[i] += 1
            powers[j] += 1
            p_tensor[i, j] = central_moment(layout, coeffs, macro, powers, n_nodes)
    q = np.zeros(D)
    for k in range(D):
        for j in range(D):
            powers = [0] * D
            powers[j] += 2
            powers[k] += 1
            q[k] += 0.5 * central_moment(layout, coeffs, macro, powers, n_nodes)
    sigma = p_tensor - macro.rho * macro.theta * np.eye(D)
    return p_tensor, sigma, q


def coeff_by_projection(layout, coeffs, macro, beta, n_nodes=40):
    """Recover one coefficient through the orthogonality relation.

    f_beta = theta^{|beta|/2} / beta! * int f(xi) prod_d He_{beta_d}(v_d) dxi.
    """
    beta = tuple(beta)
    u = np.asarray(macro.u)
    rt = math.sqrt(macro.theta)

    def g(xi):
        out = np.ones(xi.shape[0])
        for d, b in enumerate(beta):
            out = out * np.asarray(
                he_table(max(b, 0), (xi[:, d] - u[d]) / rt)[b])
        return out

    fact = np.prod([math.factorial(b) for b in beta])
    return (macro.theta ** (sum(beta) / 2.0) / fact
            * quad_moment(layout, coeffs, macro, g, n_nodes))


def maxwellian_value(macro, xi):
    """Closed-form local Maxwellian at one velocity point."""
    xi = np.asarray(xi, dtype=float)
    D = xi.shape[-1]
    diff = xi - np.asarray(macro.u)
    return (macro.rho / (2.0 * math.pi * macro.theta) ** (D / 2.0)
            * math.exp(-0.5 * float(diff @ diff) / macro.theta))


def enforce_constraints(layout, coeffs, rho):
    """Full-layout constraint pinning, in place: f_0 = rho, f_{e_i} = 0, and the
    trace of f_{2e_d} removed in equal parts."""
    coeffs[..., 0] = rho
    coeffs[..., layout.grade(1)] = 0.0
    k2 = [layout.ordinal(tuple(2 * (j == d) for j in range(layout.dim)))
          for d in range(layout.dim)]
    coeffs[..., k2] -= coeffs[..., k2].sum(axis=-1, keepdims=True) / layout.dim
    return coeffs


def expand_full(axi, g):
    """Full-layout coefficients (..., K) of axisymmetric coefficients g (..., M+1, K'):
    f_(a,2i,2j) = C(i+j, i) g_(a,i+j), f_(a,2k) = g_(a,k), f_a = g_(a,0), and 0 at
    every odd transverse index."""
    layout = MomentLayout(axi.order, axi.dim)
    f = np.zeros(g.shape[:-2] + (layout.size,))
    for n, (a, *rest) in enumerate(layout.indices):
        if not any(c % 2 for c in rest):
            half = [c // 2 for c in rest]
            f[..., n] = math.comb(sum(half), half[0] if half else 0) * g[..., a, sum(half)]
    return layout, f
