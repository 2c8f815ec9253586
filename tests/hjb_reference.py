"""Reference solve of the extended HJB system of models 2 and 3 by the
method of lines: an oracle that starts from the control problem, not from
the integral equations the solvers derive from it.

For J = E[X_T] - (gamma/2) Var[X_T], the equilibrium value V and the mean
g(t, x) = E_{t,x}[X_T] under the equilibrium control solve (Bjork and
Murgoci, 2010; Bjork, Khapko and Murgoci, Finance Stoch. 21, 2017)

    sup_u { A^u V - (gamma/2) |sigma_u|^2 g_x^2 } = 0,    A^u* g = 0,
    V(T, x) = g(T, x) = x,

where A^u h = h_t + mu_u h_x + (1/2) |sigma_u|^2 h_xx, with mu_u = alpha_2 x
+ dalpha u1 and sigma_u = sigma_2 x + ds u1 for u1 dollars in stock 1 and
x - u1 in stock 2 (dalpha = alpha_1 - alpha_2, ds = sigma_1 - sigma_2).
The variance-only objective, -(gamma/2) Var[X_T], gives the same system
with V(T, x) = 0.  With Q = V_xx - gamma g_x^2 the bracket is V_t + mu_u
V_x + (1/2) |sigma_u|^2 Q, so where Q < 0 the sup is attained at

    u1* = -(dalpha V_x / Q + (sigma_2 . ds) x) / |ds|^2.

Wealth is discretised on a uniform lattice by centred differences, with a
ghost node past each end placed so that the third difference vanishes
there: the stencil is exact on quadratics.  Time runs backward from T by
classic RK4.  Explicit RK4 needs markets where V and g do not grow too
fast over the horizon.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class HJBSolution(NamedTuple):
    """V, g and u1* at t = 0 on the wealth lattice x."""

    x: np.ndarray
    value: np.ndarray
    mean: np.ndarray
    u1: np.ndarray


def centred_differences(h: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """h_x and h_xx at every lattice node, with the ghost nodes h[-1] =
    3 h[0] - 3 h[1] + h[2] and h[n] = 3 h[n-1] - 3 h[n-2] + h[n-3]."""
    below = 3.0 * h[0] - 3.0 * h[1] + h[2]
    above = 3.0 * h[-1] - 3.0 * h[-2] + h[-3]
    padded = np.concatenate(([below], h, [above]))
    return (padded[2:] - padded[:-2]) / (2.0 * dx), (padded[2:] - 2.0 * h + padded[:-2]) / dx**2


def solve_hjb(alpha, sigma, gamma: float, T: float, x: np.ndarray, n_steps: int,
              mean_variance: bool = True) -> HJBSolution:
    """The extended HJB system of two stocks on any number of factors, from
    V(T, x) = x (mean_variance) or 0 (variance only) and g(T, x) = x, by
    n_steps RK4 steps backward over [0, T] on the uniform lattice x."""
    alpha, sigma = np.asarray(alpha, dtype=float), np.asarray(sigma, dtype=float)
    s2, ds = sigma[1], sigma[0] - sigma[1]
    a2, dalpha = alpha[1], alpha[0] - alpha[1]
    s2_sq, csig, denom = s2 @ s2, s2 @ ds, ds @ ds
    dx = x[1] - x[0]

    def sup_and_rates(V, g):
        """u1* and the rates of (V, g) in time to go s = T - t, minus their
        time derivatives."""
        V_x, V_xx = centred_differences(V, dx)
        g_x, g_xx = centred_differences(g, dx)
        Q = V_xx - gamma * g_x**2
        if not np.all(Q < 0):
            raise ValueError("V_xx - gamma g_x^2 must be negative for an interior sup")
        u1 = -(dalpha * V_x / Q + csig * x) / denom
        drift = a2 * x + dalpha * u1
        variance = s2_sq * x * x + 2.0 * csig * x * u1 + denom * u1 * u1
        return u1, np.array([drift * V_x + 0.5 * variance * Q, drift * g_x + 0.5 * variance * g_xx])

    def backward_rate(state):
        return sup_and_rates(*state)[1]

    h = T / n_steps
    state = np.array([x if mean_variance else np.zeros_like(x), x], dtype=float)
    for _ in range(n_steps):
        k1 = backward_rate(state)
        k2 = backward_rate(state + 0.5 * h * k1)
        k3 = backward_rate(state + 0.5 * h * k2)
        k4 = backward_rate(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    V, g = state
    return HJBSolution(x, V, g, sup_and_rates(V, g)[0])
