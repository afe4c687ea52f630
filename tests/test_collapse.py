"""Collapse premises: rescaled metric convergence, lower bounds, fiber
diameter decay, and the limit length structure."""
import inspect
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2calc import collapse, g2core
from g2calc.catalog import ResolutionForms, phi_abl_mu, surgery_profile
from g2calc.g2core import NotStableError, bilinear_from_3form, is_g2_type
from g2calc.collapse import (MetricSample, base_pullback,
                             fiber_diameter_probe, ffkm_region_metrics,
                             interior_limit_metric, largest_lambda,
                             lc_vs_norm_holds, limit_quasi_finsler,
                             lower_bound_global, measure_metric_comparison,
                             nakamura_metric, premise_check, region_gap_decay,
                             report_to_json, rescaled_decay_exponents,
                             resolution_equality_probe, w_limit_metric,
                             w_outer_closed_form)

UPS = math.sqrt(0.5)


# --------------------------------------------------------------------------
# product model
# --------------------------------------------------------------------------

def test_nakamura_metric_unit_parameters():
    s = nakamura_metric(1, 1, 1, 1)
    assert np.array_equal(s.matrix, np.eye(7))


def test_nakamura_metric_closed_form_cross_checked():
    # the constructor itself raises unless the closed form's cubes are
    # those of the 3-form's B-map, exactly, and its float entries match
    # the cubes to 1e-10; exercise a spread
    for mu in (1, 2, 8, 32):
        nakamura_metric(2, 1, (1, 1), mu)
        nakamura_metric(3, 2, (1, -2), mu)


@pytest.mark.parametrize("alpha, beta", [(2, 1), (0.7, 1.5), (Fraction(5, 3), 0.25)])
def test_nakamura_closed_form_is_the_b_map_of_the_form(alpha, beta):
    # B(phi) = r g is diagonal, and the returned entries, times mu^8 and
    # cubed, are B_ii^3 / r^3 with r^3 = 216 vol^3, at integer, rational
    # and float parameters (read by their binary values) up to mu = 1e8
    for lam, mu in product([(1, 1), (0.3, -2), (2, 0)], [1.5, 7, 1e8]):
        s = nakamura_metric(alpha, beta, lam, mu)
        phi = phi_abl_mu(Fraction(alpha), Fraction(beta), lam, Fraction(mu))
        B, r3 = bilinear_from_3form(phi), 216 * is_g2_type(phi).vol_cubed
        assert np.count_nonzero(s.matrix - np.diag(np.diag(s.matrix))) == 0
        assert all(B[i][j] == 0 for i in range(7) for j in range(7) if i != j)
        for i in range(7):
            assert float(s.matrix[i, i]) * float(mu) ** 8 == pytest.approx(
                float(B[i][i]) / float(r3) ** (1 / 3), rel=1e-12)


def _mutant(old, new):
    """nakamura_metric with `old` replaced by `new` in its source, run in
    the module's namespace."""
    src = inspect.getsource(collapse.nakamura_metric)
    assert src.count(old) == 1
    namespace = dict(vars(collapse))
    exec(src.replace(old, new), namespace)
    return namespace["nakamura_metric"]


@pytest.mark.parametrize("old, new, off_by_mu", [
    # an exact cube one factor of mu off, one factor of L off, and a float
    # entry one factor of mu off
    ("beta ** 6 * L / mu ** 12", "beta ** 6 * L / mu ** 11", True),
    ("mu ** 24 * alpha ** 6 / L ** 2", "mu ** 24 * alpha ** 6 / L", False),
    ("b ** 2 * L13 / m ** 4", "b ** 2 * L13 / m ** 3", True),
], ids=["exact-mu", "exact-L", "float-mu"])
@pytest.mark.parametrize("mu", [2, 1.5, 3])
def test_a_closed_form_one_factor_off_is_refused(old, new, off_by_mu, mu):
    mutant = _mutant(old, new)
    if off_by_mu:
        # at mu = 1 the factor is 1, and the mutant passes
        mutant(2, 1, (1, 1), 1)
    with pytest.raises(AssertionError, match="disagrees"):
        mutant(2, 1, (1, 1), mu)


def test_rescaled_limit_is_the_circle_metric():
    s = nakamura_metric(2, 1, (1, 1), 16)
    # alpha^2 / L^{2/3} with alpha = 2 and L = |1 + i|^2 = 2
    assert s.limit[0, 0] == pytest.approx(4.0 / 2 ** (2 / 3), rel=1e-14)
    assert np.count_nonzero(s.limit) == 1
    assert s.gap() < 1e-3


def test_tail_decay_exponents():
    out = rescaled_decay_exponents(2, 1, (1, 1), 8, 16)
    assert out["omega_block"] == pytest.approx(-6.0, abs=0.06)
    assert out["transverse_block"] == pytest.approx(-12.0, abs=0.12)


def test_lambda_is_one_along_the_family():
    # collapse.product_lambda_one runs the base point (2, 1, 1 + i)
    base = nakamura_metric(3, 2, (2, -1), 2).limit
    samples = [nakamura_metric(3, 2, (2, -1), mu) for mu in (1, 2, 4, 8, 16, 32)]
    rep = premise_check(samples, base)
    assert rep["pass"]
    for lam in rep["lambdas"].values():
        assert lam == pytest.approx(1.0, abs=1e-6)
    gaps = [rep["sup_gaps"][mu] for mu in rep["mus"]]
    assert gaps == sorted(gaps, reverse=True)


def _synthetic(mu, factor):
    g = 1e-3 * np.eye(7)
    g[0, 0] = factor
    return MetricSample("syn", (), mu, g)


def test_premise_check_accepts_shrinking_defect():
    base = np.zeros((7, 7))
    base[0, 0] = 1.0
    samples = [_synthetic(mu, 1.0 - 1.0 / mu) for mu in (2, 4, 8, 16)]
    assert premise_check(samples, base)["pass"]


@pytest.mark.parametrize("mus", [(), (2,), (2, 2.0)])
def test_premise_check_needs_two_distinct_mu(mus):
    # one mu has nothing to contract against; it once passed vacuously
    base = np.zeros((7, 7))
    base[0, 0] = 1.0
    with pytest.raises(ValueError, match="two distinct mu"):
        premise_check([_synthetic(mu, 0.5) for mu in mus], base)


def test_premise_check_rejects_stalled_defect():
    base = np.zeros((7, 7))
    base[0, 0] = 1.0
    samples = [_synthetic(mu, 0.5) for mu in (2, 4, 8, 16)]
    assert not premise_check(samples, base)["pass"]


def test_largest_lambda_closed_form_value():
    assert largest_lambda([0.25 * np.eye(7)], np.eye(7)) == 0.5


def _psd_base(rng, rank):
    B = rng.normal(size=(7, rank))
    return B @ B.T


@pytest.mark.parametrize("rank", [1, 3])
def test_largest_lambda_is_the_psd_edge(rank):
    # g - La^2 base is PSD at every sample, and La^2 (1 + 1e-9) is past the edge
    rng = np.random.default_rng(rank)
    for _ in range(10):
        mats = []
        for _ in range(3):
            A = rng.normal(size=(7, 7))
            mats.append(A @ A.T + np.eye(7))
        base = _psd_base(rng, rank)
        la2 = largest_lambda(mats, base) ** 2
        scale = max(np.linalg.norm(m, 2) for m in mats)
        assert min(collapse._min_eig(m - la2 * base) for m in mats) >= -1e-12 * scale
        assert min(collapse._min_eig(m - la2 * (1 + 1e-9) * base) for m in mats) < 0.0


def test_largest_lambda_is_zero_on_a_sample_that_is_not_definite():
    base = _psd_base(np.random.default_rng(0), 3)
    for bad in (np.diag([1.0] * 6 + [0.0]), np.diag([1.0] * 6 + [-1e-3])):
        assert largest_lambda([np.eye(7), bad], base) == 0.0


# --------------------------------------------------------------------------
# resolved nilmanifold regions
# --------------------------------------------------------------------------

def test_interior_metric_and_limit():
    s = ffkm_region_metrics("interior", (), 8)
    assert np.allclose(s.matrix, np.diag([1.0] * 3 + [8.0 ** -6] * 4))
    assert np.array_equal(s.limit, interior_limit_metric())
    # the metric comes from the exact data of mu^-6 phi_check_mu, so the gap
    # |g^mu - g^infty| is mu^-6 rounded once (1.0000000000000002 at mu = 1
    # on a float metric)
    mus = (1, 2, 1.5, 1.7, 3, 6, 16)
    gaps = region_gap_decay("interior", (), mus)["gaps"]
    assert gaps == [float(Fraction(mu) ** -6) for mu in mus]


def test_an_interior_metric_a_part_in_1e12_off_is_refused(monkeypatch):
    # theta^123 scaled by the rational cube (1 + 10^-12)^3: r stays rational
    # and the metric moves by about 2e-12, inside an op-norm tolerance of
    # 1e-10 but not equal to the display.  (A factor 1 + 10^-12, not a
    # cube, would make r irrational, and the metric would refuse to read.)
    real = collapse.phi_check_mu
    lam = (1 + Fraction(1, 10 ** 12)) ** 3

    def off(mu):
        phi = real(mu)
        return phi + (lam - 1) * phi.coeffs[(1, 2, 3)] * g2core.KForm.basis(7, (1, 2, 3))
    monkeypatch.setattr(collapse, "phi_check_mu", off)
    assert is_g2_type(off(2)).exact
    for mu in (1, 1.5, 2, 100):
        with pytest.raises(AssertionError, match="interior metric disagrees"):
            ffkm_region_metrics("interior", (), mu)


def test_annulus_closed_form_cross_checked():
    # ffkm_region_metrics raises internally if the displayed closed form
    # disagrees with the metric of the actual form beyond 1e-10
    for y1 in (-0.5, 0.0, 0.3):
        for mu in (2, 8):
            s = ffkm_region_metrics("w_outer", {"y1": y1}, mu)
            assert np.allclose(s.matrix, w_outer_closed_form(y1, mu))
            assert np.array_equal(s.limit, w_limit_metric(y1))


def test_unknown_region_rejected():
    with pytest.raises(ValueError):
        ffkm_region_metrics("nowhere", (), 2)


@pytest.mark.parametrize("region,point,mus", [
    ("interior", (), (2, 4, 8)),
    ("w_outer", {"y1": 0.3}, (2, 4, 8)),
    ("chart", {"y1": 0.02, "y2": 0.01, "y4": 0.3, "y5": 0.015,
               "y6": 0.01, "y7": 0.2}, (4, 8, 16)),
])
def test_region_gaps_decay(region, point, mus):
    out = region_gap_decay(region, point, mus)
    assert out["gaps"] == sorted(out["gaps"], reverse=True)
    assert out["rate"] <= collapse.RATE_BOUND


# --------------------------------------------------------------------------
# global lower bound
# --------------------------------------------------------------------------

def test_lower_bound_psd_at_region_samples():
    mc = measure_metric_comparison(random.Random(0))
    samples = [ffkm_region_metrics("interior", (), 8),
               ffkm_region_metrics("w_outer", {"y1": 0.3}, 8),
               ffkm_region_metrics("chart", {"y1": 0.02, "y4": 0.3,
                                             "y7": 0.2}, 8),
               ffkm_region_metrics("chart", {"y1": 0.02, "y2": 0.01, "y4": 0.3,
                                             "y5": 0.015, "y6": 0.01, "y7": 0.2}, 8)]
    rep = lower_bound_global(8, samples, Delta0=mc["Delta0"])
    assert rep["min_eig_margin"] >= -1e-10
    assert rep["prefactor"] == (1 - mc["Delta0"] / 8 ** 3) * UPS ** (4 / 3)


def test_lower_bound_raises_on_violation():
    flat = MetricSample("syn", (), 8, 1e-6 * np.eye(7))
    with pytest.raises(AssertionError):
        lower_bound_global(8, [flat], Delta0=1.0)


def test_resolution_equality_at_the_marked_radius():
    out = resolution_equality_probe(8)
    assert out["pass"]
    assert out["min_nu"] == pytest.approx(surgery_profile().upsilon, abs=1e-9)
    assert out["equality_gap"] < 1e-12


# --------------------------------------------------------------------------
# limit length structure
# --------------------------------------------------------------------------

def test_limit_lengths():
    assert limit_quasi_finsler("generic", [0, 0, 1]) == pytest.approx(1.0)
    got = limit_quasi_finsler("singular", [0, 0, 1], y1_samples=(0.0, 0.4))
    assert got == pytest.approx(UPS ** (2 / 3), rel=1e-12)


def test_singular_stratum_rejects_transverse_directions():
    with pytest.raises(ValueError):
        limit_quasi_finsler("singular", [1, 0, 0])
    with pytest.raises(ValueError):
        limit_quasi_finsler("generic", [0, 0, 0])


def test_lift_norm_reads_the_base_block_and_refuses_a_fiber_entry():
    G = w_limit_metric(0.4)
    u = np.array([0.3, -1.0, 2.0])
    assert collapse._lift_norm(G, u) == math.sqrt(u @ G[:3, :3] @ u)
    G[3, 3] = 1e-3
    with pytest.raises(ValueError, match="fiber"):
        collapse._lift_norm(G, u)
    G[3, 3], G[0, 5], G[5, 0] = 0.0, 1e-3, 1e-3
    with pytest.raises(ValueError, match="fiber"):
        collapse._lift_norm(G, u)


@given(st.floats(-4, 4).filter(lambda s: abs(s) > 1e-3))
def test_limit_length_is_homogeneous(s):
    base = limit_quasi_finsler("generic", [0.3, -1.0, 2.0])
    scaled = limit_quasi_finsler("generic", [0.3 * s, -1.0 * s, 2.0 * s])
    assert scaled == pytest.approx(abs(s) * base, rel=1e-9)


# --------------------------------------------------------------------------
# comparison constants
# --------------------------------------------------------------------------

def test_metric_comparison_constants_reproducible():
    a = measure_metric_comparison(random.Random(0))
    b = measure_metric_comparison(random.Random(0))
    assert a == b
    assert a != measure_metric_comparison(random.Random(1))
    assert a["n"] == collapse.COMPARISON_POINTS == 200
    assert 0.0 < a["Delta0"] < 10.0
    assert a["delta1"] > 0.0


def _metric_batch_failing_after_one_call(error):
    """metric_batch for the linearisation at scale delta, then `error` on
    every delta_1 probe."""
    real, calls = g2core.metric_batch, []

    def fake(rows):
        calls.append(len(rows))
        if len(calls) == 1:
            return real(rows)
        raise error
    return fake


def test_metric_comparison_probe_reads_only_instability_as_not_definite(monkeypatch):
    # a probe radius whose forms are not definite is skipped; any other
    # error is a fault, and it must not read as "not definite"
    monkeypatch.setattr(collapse, "metric_batch",
                        _metric_batch_failing_after_one_call(NotStableError("det B <= 0")))
    assert measure_metric_comparison(random.Random(0))["delta1"] == 0.0
    monkeypatch.setattr(collapse, "metric_batch",
                        _metric_batch_failing_after_one_call(TypeError("bad rows")))
    with pytest.raises(TypeError, match="bad rows"):
        measure_metric_comparison(random.Random(0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_symmetric_form_bounded_by_its_norm(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(7, 7))
    h = A + A.T
    B = rng.normal(size=(7, 7))
    g = B @ B.T + 0.05 * np.eye(7)
    assert lc_vs_norm_holds(h, g)


def test_lc_vs_norm_requires_definite_g():
    with pytest.raises(ValueError):
        lc_vs_norm_holds(np.eye(7), np.zeros((7, 7)))


# --------------------------------------------------------------------------
# fiber diameters
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def probe():
    return fiber_diameter_probe()


def test_fiber_diameter_exponent(probe):
    assert probe["exponent"] <= collapse.RATE_BOUND
    assert probe["exponent_ok"]


def test_fiber_diameter_monotone_and_uniform(probe):
    assert probe["monotone_in_k"]
    assert probe["mu_uniform"]
    for spread in probe["constant_spread"].values():
        assert spread <= 2.0


def test_fiber_diameter_table_keeps_the_per_point_values(probe):
    # the table of the per-point path loop that the batched probe replaced
    assert probe["table"] == {
        (2, 8.0): 0.019603443866020386, (4, 8.0): 0.0024504285390984735,
        (2, 16.0): 0.019603443866020386, (4, 16.0): 0.0024504285390984735,
        (8, 16.0): 0.00030630356359014933, (2, 32.0): 0.019603443866020386,
        (4, 32.0): 0.0024504285390984735, (8, 32.0): 0.00030630356359014933}


def test_path_length_does_not_depend_on_its_batch():
    rf = ResolutionForms(16)
    axes = np.eye(7)[[0, 1, 4]]
    paths = []
    # the probe's boundary sphere at (mu, k) = (16, 4), and a sphere inside
    # the cutoff's ramp and the interpolated fiber form
    for R in (0.5 * 0.1 * (16 / 4) ** 3, 0.03):
        paths += [collapse._arc(R * axes[i], axes[(i + 1) % 3], 16)
                  for i in range(3)]
    paths.append([R * axes[0] + t * np.array([0, 0, 0, 0.5, 0, 0, 0])
                  for t in np.linspace(0.0, 1.0, 5)])
    together = collapse._path_lengths(rf, paths)
    assert [collapse._path_lengths(rf, [p])[0] for p in paths] == together


def test_exports(tmp_path, probe):
    json_path = tmp_path / "report.json"
    report_to_json({"exponent": probe["exponent"],
                    "base": base_pullback()}, json_path)
    import json as _json
    data = _json.loads(json_path.read_text())
    assert data["exponent"] == probe["exponent"]
    assert data["base"][2][2] == 1.0
