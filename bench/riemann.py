"""Exact solution of the Riemann problem for the 1-D Euler equations.

Used as an oracle that shares no code with regmom: the discrete-velocity
shock tube at small Kn must approach it.  Follows the two-rarefaction /
two-shock pressure function of Toro, "Riemann Solvers and Numerical Methods
for Fluid Dynamics", ch. 4, solved for the star pressure by Newton's method.
"""
from __future__ import annotations

import math

import numpy as np


def _wave(p, rho_k, p_k, c_k, gamma):
    """Pressure function f_K(p) and its derivative for one side."""
    if p > p_k:  # shock
        a = 2.0 / ((gamma + 1.0) * rho_k)
        b = (gamma - 1.0) / (gamma + 1.0) * p_k
        s = math.sqrt(a / (p + b))
        return (p - p_k) * s, s * (1.0 - 0.5 * (p - p_k) / (p + b))
    e = (gamma - 1.0) / (2.0 * gamma)  # rarefaction
    f = 2.0 * c_k / (gamma - 1.0) * ((p / p_k) ** e - 1.0)
    return f, (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * c_k)


def star_state(left, right, gamma):
    """(p*, u*) between the two nonlinear waves; left/right are (rho, u, p)."""
    (rl, ul, pl), (rr, ur, pr) = left, right
    cl, cr = math.sqrt(gamma * pl / rl), math.sqrt(gamma * pr / rr)
    p = max(1e-12, 0.5 * (pl + pr))
    for _ in range(100):
        fl, dl = _wave(p, rl, pl, cl, gamma)
        fr, dr = _wave(p, rr, pr, cr, gamma)
        step = (fl + fr + ur - ul) / (dl + dr)
        p_new = max(1e-12, p - step)
        if abs(p_new - p) <= 1e-15 * (p_new + p):
            p = p_new
            break
        p = p_new
    fl, _ = _wave(p, rl, pl, cl, gamma)
    fr, _ = _wave(p, rr, pr, cr, gamma)
    return p, 0.5 * (ul + ur) + 0.5 * (fr - fl)


def density(x, t, left, right, gamma=5.0 / 3.0, x0=0.0):
    """Exact density at points x and time t > 0 for a jump at x0."""
    (rl, ul, pl), (rr, ur, pr) = left, right
    ps, us = star_state(left, right, gamma)
    g1 = (gamma - 1.0) / (gamma + 1.0)
    out = np.empty(np.shape(x))
    for i, xi in enumerate(np.asarray(x, dtype=float)):
        s = (xi - x0) / t
        if s <= us:
            rho, u, p = rl, ul, pl
            c = math.sqrt(gamma * p / rho)
            if ps > p:  # left shock
                r_star = rho * (ps / p + g1) / (g1 * ps / p + 1.0)
                speed = u - c * math.sqrt((gamma + 1.0) / (2.0 * gamma) * ps / p
                                          + (gamma - 1.0) / (2.0 * gamma))
                out[i] = rho if s < speed else r_star
            else:  # left rarefaction
                r_star = rho * (ps / p) ** (1.0 / gamma)
                c_star = c * (ps / p) ** ((gamma - 1.0) / (2.0 * gamma))
                if s <= u - c:
                    out[i] = rho
                elif s >= us - c_star:
                    out[i] = r_star
                else:
                    out[i] = rho * (2.0 / (gamma + 1.0) + g1 / c * (u - s)) \
                        ** (2.0 / (gamma - 1.0))
        else:
            rho, u, p = rr, ur, pr
            c = math.sqrt(gamma * p / rho)
            if ps > p:  # right shock
                r_star = rho * (ps / p + g1) / (g1 * ps / p + 1.0)
                speed = u + c * math.sqrt((gamma + 1.0) / (2.0 * gamma) * ps / p
                                          + (gamma - 1.0) / (2.0 * gamma))
                out[i] = rho if s > speed else r_star
            else:  # right rarefaction
                r_star = rho * (ps / p) ** (1.0 / gamma)
                c_star = c * (ps / p) ** ((gamma - 1.0) / (2.0 * gamma))
                if s >= u + c:
                    out[i] = rho
                elif s <= us + c_star:
                    out[i] = r_star
                else:
                    out[i] = rho * (2.0 / (gamma + 1.0) - g1 / c * (u - s)) \
                        ** (2.0 / (gamma - 1.0))
    return out
