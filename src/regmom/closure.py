"""Closures for the top-order moment coefficients.

The truncated moment system retains f_alpha for |alpha| <= M; its transport
term needs f_beta at |beta| = M + 1.  Two closures are provided:

  * nonlinear: the gradient-and-flux expression obtained by keeping only the
    leading-magnitude terms of the once-iterated moment equation,

        f_beta = tau [ (1/rho) sum_j dp/dx_j f_{beta-e_j}
                       - sum_j theta d f_{beta-e_j}/dx_j ]
                 + (1/rho) sum_j sum_d [ sigma_dj f_{beta-e_d-e_j} / 2
                 + q_j (theta f_{beta-2e_d-e_j}
                        + (beta_j+1) f_{beta-2e_d+e_j}) / ((D+2) theta) ],

  * linear: its linearization about a velocity-free equilibrium,

        f_beta = - tau theta sum_j d f_{beta-e_j} / dx_j.

Each term has one owner: TopOrderClosure.linear is the linear closure, which
the solver integrates implicitly as a diffusion, and TopOrderClosure.nonlinear
the rest of the nonlinear one (its p_x, sigma and q terms), added explicitly.
Coefficients with a negative index component are zero; spatial gradients are
supplied by the caller, which keeps both pointwise.  Space is
one-dimensional (j = 1).  TopOrderClosure reads the solver's axisymmetric
g[a, k, face], faces last.

The stress subscript in the nonlinear expression is sigma_dj: the pair (d, j)
runs over the double sum, which is the only reading under which the
trace-free part of the velocity gradient recombines into the stress.
"""
from __future__ import annotations

import numpy as np

from .indices import AxisymmetricLayout, lead


class TopOrderClosure:
    """Vectorized closure on axisymmetric coefficients g[a, k, ...], one value per
    (top entry (a, k) = (M - 2k, k), cell/face): batch axes trail, as in g.

    The closed index is beta = alpha + e_1 (indices with beta_1 = 0 never enter
    the 1D transport term).  Without transverse velocity sigma_d1 = 0 for d > 1,
    and the transverse q-terms of D = 3 collapse by C(k-1, i-1) + C(k-1, i) =
    C(k, i) into one read of g_(a,k-1) and g_(a+2,k-1), as for D = 2.
    """

    def __init__(self, layout: AxisymmetricLayout):
        self.layout = layout
        self.a, self.k = layout.top_a, layout.top_k
        self.transport_factor = (self.a + 1).astype(float)  # (alpha_1+1) in the flux
        self.beta1_plus1 = (self.a + 2).astype(float)       # (beta_1+1) in the closure
        # for each neighbour (da, dk) that nonlinear() reads: the top entries
        # that have it (no negative index) and its (a, k) index arrays
        self._reads = {}
        for da, dk in ((-1, 0), (-2, 0), (0, -1), (2, -1)):
            a, k = self.a + da, self.k + dk
            ok = (a >= 0) & (k >= 0)
            self._reads[da, dk] = (None if ok.all() else np.flatnonzero(ok), a[ok], k[ok])

    def _at(self, g, da: int, dk: int):
        """g_(a+da, k+dk) at each top entry; 0 where an index is negative."""
        rows, a, k = self._reads[da, dk]
        if rows is None:
            return g[a, k]
        out = np.zeros((self.a.size,) + g.shape[2:])
        out[rows] = g[a, k]
        return out

    def linear(self, theta, tau, dfdx):
        """-tau theta dg/dx at each top entry; dfdx (n_top, ...) holds dg/dx there."""
        return -(tau * theta) * dfdx

    def nonlinear(self, rho, theta, tau, p_x, g, sigma11, q1):
        """The nonlinear closure less ``linear``: its p_x, sigma_11 and q_1
        terms, with sigma11 and q1 the local moments."""
        D = self.layout.dim
        g_top = g[self.a, self.k]
        beta1_plus1 = lead(self.beta1_plus1, g_top)
        val = tau * (p_x / rho * g_top)
        qfac = q1 / ((D + 2) * theta * rho)
        val += 0.5 * sigma11 * self._at(g, -1, 0) / rho
        val += qfac * (theta * self._at(g, -2, 0) + beta1_plus1 * g_top)
        if D > 1:
            val += qfac * (theta * self._at(g, 0, -1) + beta1_plus1 * self._at(g, 2, -1))
        return val
