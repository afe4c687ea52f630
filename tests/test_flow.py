"""Laplacian flow on the invariant families: exact tangents and the
closed-form flow line."""
import csv
import math
from fractions import Fraction

import pytest

from g2calc import flow
from g2calc.catalog import ffkm_model, nakamura_model, phi_abl_mu
from g2calc.flow import check_flow_consistency, flow_integrate, laplacian, trajectory_to_csv
from g2calc.forms import KForm
from g2calc.liecdga import InvariantModel, StructureEqs
from g2calc.g2core import standard_phi
from g2calc.rings import nth_root_fraction
from oracles import csv_writer_bytes, flow_closed_form, mu_dot

DIM = 7


def th(*idx):
    return KForm.basis(DIM, idx)


# --------------------------------------------------------------------------
# Laplacian oracles
# --------------------------------------------------------------------------

def test_laplacian_at_unit_parameters_exact():
    m = nakamura_model()
    lap = laplacian(phi_abl_mu(1, 1, 1, 1, m), m)
    assert lap == 4 * m.named_forms["g1"].wedge(m.named_forms["omega"])


def test_laplacian_family_coefficient():
    # Delta phi(alpha, beta, lambda; mu) = 4 L^{2/3}/(alpha mu^2) g^1 ^ omega
    gap = check_flow_consistency(2, 1, (1, 1), 2.0)
    assert gap < 1e-10


def test_laplacian_nilmanifold_exact():
    m = ffkm_model()
    lap = laplacian(m.named_forms["phi"], m)
    assert lap == (2 * th(1, 2, 3) + 2 * th(1, 4, 5)
                   - th(1, 3, 6) + th(1, 2, 7))


def test_laplacian_refuses_an_irrational_r_and_the_exact_route_stays():
    # at (2, 1, 1 + i; 2) r^3 = 216 vol^3 is no rational cube: r Z is
    # refused, and Z with r^3 is exact, Delta phi = 4 L^(2/3) / (alpha mu^2)
    # g^1 ^ omega cubed
    m = nakamura_model()
    phi = phi_abl_mu(2, 1, (1, 1), 2, m)
    with pytest.raises(ArithmeticError, match="irrational"):
        laplacian(phi, m)
    data, z = flow._laplacian_over_r(phi, m)
    assert not data.exact
    target = m.named_forms["g1"].wedge(m.named_forms["omega"])
    assert z.coeffs.keys() == target.coeffs.keys()
    for idx, c in z.coeffs.items():
        assert 216 * data.vol_cubed * c ** 3 == Fraction(4, 2 * 2 ** 2) ** 3 * 2 ** 2 \
            * target.coeffs[idx] ** 3


def test_flat_torus_is_harmonic():
    eqs = StructureEqs(DIM, [None] * DIM, [f"t{i}" for i in range(1, DIM + 1)])
    m = InvariantModel(eqs, {}, label="flat torus")
    assert laplacian(standard_phi(), m).is_zero()


# --------------------------------------------------------------------------
# the scalar flow line
# --------------------------------------------------------------------------

def test_closed_form_initial_condition_and_monotonicity():
    assert flow_closed_form(1, 1, 0.0) == 1.0
    vals = [flow_closed_form(1, 1, t) for t in (0.0, 0.5, 1.0, 2.0)]
    assert vals == sorted(vals)


def test_closed_form_solves_the_ode():
    # d mu/dt = 2 L^{2/3} / (3 alpha^2 mu^7), finite-difference check
    alpha, lam = 2.0, (1, 1)
    for t in (0.1, 1.0, 5.0):
        h = 1e-6
        fd = (flow_closed_form(alpha, lam, t + h)
              - flow_closed_form(alpha, lam, t - h)) / (2 * h)
        mu = flow_closed_form(alpha, lam, t)
        assert fd == pytest.approx(mu_dot(alpha, lam, mu), rel=1e-7)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        flow_closed_form(1, 1, -0.1)
    with pytest.raises(ValueError):
        flow_integrate(1, 1, -1.0, 10)
    with pytest.raises(ValueError):
        flow_integrate(1, 1, 1.0, 0)


def test_trajectory_matches_closed_form():
    # flow.closed_form_trajectory runs the unit point; this is another one
    rows = list(flow_integrate(2, (1, 2), 1.0, 10000))
    assert len(rows) == 10001
    assert max(r[3] for r in rows) < 1e-10


def test_rk4_is_fourth_order():
    e1 = list(flow_integrate(1, (2, 1), 1.0, 40))[-1][3]
    e2 = list(flow_integrate(1, (2, 1), 1.0, 80))[-1][3]
    assert 12.0 < e1 / e2 < 22.0


def test_exact_two_thirds_power_for_cube_modulus():
    # |lambda|^2 = 8 is a perfect cube, so L^{2/3} = 4 exactly and the unit-
    # parameter tangent coefficient is rational
    assert mu_dot(1, (2, 2), 1.0) == pytest.approx(2.0 * 4.0 / 3.0, rel=1e-15)


def test_trajectory_csv_roundtrip(tmp_path):
    rows = list(flow_integrate(1, 1, 0.5, 100))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(rows, path)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["t", "mu_numeric", "mu_closed", "abs_err"]
    assert len(got) == len(rows) + 1
    # 17 significant digits round-trip the floats exactly
    assert float(got[-1][1]) == rows[-1][1]


def test_trajectory_csv_has_the_bytes_of_csv_writer(tmp_path):
    # a computed trajectory, and rows of signed zero, the least subnormal,
    # a huge value and ordinary ones
    path = tmp_path / "traj.csv"
    header = ["t", "mu_numeric", "mu_closed", "abs_err"]
    odd = [(0.0, -0.0, 5e-324, 1e300), (0.5, 1.0 / 3.0, -2.5, 5e-324),
           (1e-7, 1e300, -0.0, 0.0)]
    for rows in (list(flow_integrate(1, (2, 1), 0.5, 100)), odd):
        assert trajectory_to_csv(iter(rows), path) == (
            len(rows), max(r[3] for r in rows))
        assert path.read_bytes() == csv_writer_bytes(header, rows)


def _rk4_calling_mu_dot(alpha, lam, t_end, steps):
    """The RK4 loop with mu_dot and flow_closed_form called at every step."""
    h = float(t_end) / steps
    mu, t = 1.0, 0.0
    rows = [(0.0, 1.0, 1.0, 0.0)]
    for _ in range(steps):
        k1 = mu_dot(alpha, lam, mu)
        k2 = mu_dot(alpha, lam, mu + 0.5 * h * k1)
        k3 = mu_dot(alpha, lam, mu + 0.5 * h * k2)
        k4 = mu_dot(alpha, lam, mu + h * k3)
        mu = mu + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        closed = flow_closed_form(alpha, lam, t)
        rows.append((t, mu, closed, abs(mu - closed)))
    return rows


@pytest.mark.parametrize("alpha, lam", [(1, (1, 1)), (3, 8), (0.5, (2, -1.5))],
                         ids=["no-cube-root", "exact-root", "float"])
def test_trajectory_equals_the_per_step_reference(alpha, lam, monkeypatch):
    # lambda = (1, 1): L^2 = 4 has no rational cube root, so the search
    # misses; lambda = 8: L^2 = 16^3 and the root is exact; a float lambda
    # is read by its binary value, (2, -3/2) with L^2 = (25/4)^2, and misses.
    # Each way the root is searched for once per trajectory.
    roots = []

    def counting_root(q, k):
        roots.append(q)
        return nth_root_fraction(q, k)

    monkeypatch.setattr(flow, "nth_root_fraction", counting_root)
    rows = list(flow_integrate(alpha, lam, 2.0, 300))
    assert len(roots) == 1
    assert rows == _rk4_calling_mu_dot(alpha, lam, 2.0, 300)
