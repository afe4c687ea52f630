'''Laplacian flow on invariant families.

For a closed definite 3-form phi the flow is d phi/dt = Delta_phi phi
= -d * d * phi.  On the product model the flow line through
phi(alpha, beta, lambda) stays inside the family: mu(t) solves
d mu/dt = 2 (lambda lambdabar)^{2/3} / (3 alpha^2 mu^7), with closed form
mu(t) = (16 (lambda lambdabar)^{2/3} t / (3 alpha^2) + 1)^{1/8}.
A fixed-step RK4 integrator provides the numeric cross-check.
'''
from __future__ import annotations

import csv
from fractions import Fraction

from .catalog import _lam_sq, nakamura_model, phi_abl_mu
from .forms import KForm
from .g2core import is_g2_type, hodge_star
from .liecdga import InvariantModel, d_invariant
from .rings import nth_root_fraction


def laplacian(phi: KForm, model: InvariantModel) -> KForm:
    """Delta_phi phi = -d * d * phi (Hodge star of phi's own metric)."""
    data = is_g2_type(phi)
    star_phi = hodge_star(data, phi)            # 4-form
    d_star = d_invariant(model.eqs, star_phi)   # 5-form
    star_d_star = hodge_star(data, d_star)      # 2-form
    return -d_invariant(model.eqs, star_d_star)


def _l_two_thirds(lam) -> float:
    """(lambda lambdabar)^{2/3}, exact when the modulus squared is a cube."""
    L = _lam_sq(lam)
    if isinstance(L, Fraction):
        root = nth_root_fraction(L ** 2, 3)
        if root is not None:
            return root
    return float(L) ** (2.0 / 3.0)


def _rate_constants(alpha, lam) -> tuple:
    """(2 L23, 16 L23, 3 alpha^2) with L23 = (lambda lambdabar)^{2/3}: the
    constants of the flow ODE and of its closed form."""
    L23 = float(_l_two_thirds(lam))
    return 2.0 * L23, 16.0 * L23, 3.0 * float(alpha) ** 2


def _mu_dot(two_l23, three_a2, mu: float) -> float:
    return two_l23 / (three_a2 * mu ** 7)


def _mu_closed(sixteen_l23, three_a2, t: float) -> float:
    return (sixteen_l23 * t / three_a2 + 1.0) ** 0.125


def flow_closed_form(alpha, lam, t) -> float:
    """mu(t) along the flow line through phi(alpha, beta, lambda)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    _, sixteen_l23, three_a2 = _rate_constants(alpha, lam)
    return _mu_closed(sixteen_l23, three_a2, float(t))


def mu_dot(alpha, lam, mu: float) -> float:
    two_l23, _, three_a2 = _rate_constants(alpha, lam)
    return _mu_dot(two_l23, three_a2, float(mu))


def flow_integrate(alpha, beta, lam, t_end: float, steps: int) -> list:
    """Classical RK4 on the scalar flow ODE; returns trajectory rows
    (t, mu_numeric, mu_closed, abs_err).  L^{2/3} is found once for the
    whole trajectory."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if steps <= 0:
        raise ValueError("steps must be positive")
    two_l23, sixteen_l23, three_a2 = _rate_constants(alpha, lam)
    h = float(t_end) / steps
    mu, t = 1.0, 0.0
    rows = [(0.0, 1.0, 1.0, 0.0)]
    for _ in range(steps):
        k1 = _mu_dot(two_l23, three_a2, mu)
        k2 = _mu_dot(two_l23, three_a2, mu + 0.5 * h * k1)
        k3 = _mu_dot(two_l23, three_a2, mu + 0.5 * h * k2)
        k4 = _mu_dot(two_l23, three_a2, mu + h * k3)
        mu = mu + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        closed = _mu_closed(sixteen_l23, three_a2, t)
        rows.append((t, mu, closed, abs(mu - closed)))
    return rows


def check_flow_consistency(alpha, beta, lam, mu: float,
                           model: InvariantModel | None = None) -> float:
    """Relative gap between laplacian(phi(...; mu)) and the flow tangent
    6 mu^5 mu_dot alpha g^1 ^ omega; should vanish on flow lines."""
    m = model or nakamura_model()
    lap = laplacian(phi_abl_mu(alpha, beta, lam, mu, m).in_ring("float"), m)
    coeff = 6.0 * float(mu) ** 5 * mu_dot(alpha, lam, mu) * float(alpha)
    target = coeff * m.named_forms["g1"].wedge(m.named_forms["omega"]).in_ring("float")
    diff = lap - target
    scale = max(abs(float(c)) for c in target.coeffs.values())
    gap = max((abs(float(c)) for c in diff.coeffs.values()), default=0.0)
    return gap / scale


def trajectory_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "mu_numeric", "mu_closed", "abs_err"])
        for r in rows:
            w.writerow([f"{x:.17g}" for x in r])
