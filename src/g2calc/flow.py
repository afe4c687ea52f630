'''Laplacian flow on invariant families.

For a closed definite 3-form phi the flow is d phi/dt = Delta_phi phi
= -d * d * phi.  On the product model the flow line through
phi(alpha, beta, lambda) stays inside the family: mu(t) solves
d mu/dt = 2 (lambda lambdabar)^{2/3} / (3 alpha^2 mu^7), with closed form
mu(t) = (16 (lambda lambdabar)^{2/3} t / (3 alpha^2) + 1)^{1/8}.  Neither
depends on beta, so the integrator takes (alpha, lambda) only.
A fixed-step RK4 integrator provides the numeric cross-check.
'''
from __future__ import annotations

import csv
from fractions import Fraction

from .catalog import _lam_sq, nakamura_model, phi_abl_mu
from .forms import KForm
from .g2core import hodge_star, is_g2_type, star_parts
from .liecdga import InvariantModel, d_invariant
from .rings import _exact_real, nth_root_fraction


def _laplacian_over_r(phi: KForm, model: InvariantModel):
    """(data, Z) with Delta_phi phi = r Z and Z rational, for a rational phi:
    *phi = r Y (star_parts, p = 1 on a 3-form), and the star of the 5-form
    dY carries no power of r, so Delta phi = -r d*dY."""
    data = is_g2_type(phi)
    y, _ = star_parts(data, phi)                                   # 4-form
    star_dy = hodge_star(data, d_invariant(model.eqs, y))          # 2-form
    return data, -d_invariant(model.eqs, star_dy)


def laplacian(phi: KForm, model: InvariantModel) -> KForm:
    """Delta_phi phi = -d * d * phi (Hodge star of phi's own metric) for a
    rational phi: r Z, rational; sqrt_det raises where r is irrational, and
    `_laplacian_over_r` is the exact route there."""
    data, z = _laplacian_over_r(phi, model)
    return 6 * data.sqrt_det * z


def _l_two_thirds(lam) -> float:
    """(lambda lambdabar)^{2/3}, exact when the modulus squared is a cube."""
    L = _lam_sq(lam)
    root = nth_root_fraction(L ** 2, 3)
    return float(L) ** (2.0 / 3.0) if root is None else root


def _rate_constants(alpha, lam) -> tuple:
    """(2 L23, 16 L23, 3 alpha^2) with L23 = (lambda lambdabar)^{2/3}: the
    constants of the flow ODE and of its closed form."""
    L23 = float(_l_two_thirds(lam))
    return 2.0 * L23, 16.0 * L23, 3.0 * float(alpha) ** 2


def _mu_dot(two_l23, three_a2, mu: float) -> float:
    return two_l23 / (three_a2 * mu ** 7)


def _mu_closed(sixteen_l23, three_a2, t: float) -> float:
    return (sixteen_l23 * t / three_a2 + 1.0) ** 0.125


def flow_integrate(alpha, lam, t_end: float, steps: int):
    """Classical RK4 on the scalar flow ODE: an iterator over the
    trajectory rows (t, mu_numeric, mu_closed, abs_err), steps + 1 of them,
    each made as it is asked for, so memory does not grow with `steps`.
    t_end and steps are checked here, before any row; L^{2/3} is found once
    for the whole trajectory."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if steps <= 0:
        raise ValueError("steps must be positive")
    return _rk4_rows(*_rate_constants(alpha, lam), float(t_end) / steps, steps)


def _rk4_rows(two_l23, sixteen_l23, three_a2, h: float, steps: int):
    mu, t = 1.0, 0.0
    yield 0.0, 1.0, 1.0, 0.0
    for _ in range(steps):
        k1 = _mu_dot(two_l23, three_a2, mu)
        k2 = _mu_dot(two_l23, three_a2, mu + 0.5 * h * k1)
        k3 = _mu_dot(two_l23, three_a2, mu + 0.5 * h * k2)
        k4 = _mu_dot(two_l23, three_a2, mu + h * k3)
        mu = mu + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        closed = _mu_closed(sixteen_l23, three_a2, t)
        yield t, mu, closed, abs(mu - closed)


def check_flow_consistency(alpha, beta, lam, mu) -> Fraction:
    """Relative gap between laplacian(phi(...; mu)) and the flow tangent
    6 mu^5 mu_dot alpha g^1 ^ omega = c L^(2/3) g^1 ^ omega, c = 4 / (alpha
    mu^2), on the product model; it vanishes on flow lines.  Exact: the parameters are read as
    rationals (a float by its binary value, as phi_abl_mu and _lam_sq read
    them), Delta phi = r Z with Z and r^3 rational, and the gap compares
    cubes, max_I |r^3 Z_I^3 - t_I^3| / max_I |t_I^3| with t^3 = c^3 L^2 on
    g^1 ^ omega, as a Fraction."""
    m = nakamura_model()
    alpha, mu = _exact_real(alpha, "alpha"), _exact_real(mu, "mu")
    data, z = _laplacian_over_r(phi_abl_mu(alpha, beta, lam, mu, m), m)
    t3 = Fraction(4, alpha * mu ** 2) ** 3 * _lam_sq(lam) ** 2
    target = m.named_forms["g1"].wedge(m.named_forms["omega"])
    cubes = {idx: data.vol_cubed * 216 * c ** 3 for idx, c in z.coeffs.items()}
    for idx, c in target.coeffs.items():
        cubes[idx] = cubes.get(idx, 0) - c ** 3 * t3
    scale = max(abs(c) for c in target.coeffs.values()) ** 3 * t3
    return max(abs(x) for x in cubes.values()) / scale


def trajectory_to_csv(rows, path) -> tuple:
    """Write trajectory rows (an iterable such as flow_integrate's) to a CSV
    file at 17 significant digits, one row as it arrives, and return
    (rows written, largest abs_err)."""
    n, err = 0, 0.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "mu_numeric", "mu_closed", "abs_err"])
        for r in rows:
            w.writerow([f"{x:.17g}" for x in r])
            n += 1
            err = max(err, r[3])
    return n, err
