"""The two 7-manifold models: closed families, class map, gluing identities."""
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from g2calc import catalog, cli, collapse, ehmetric
from g2calc.catalog import (ResolutionForms, ch_map, ffkm_model,
                            glued_form_at, master_identity_check,
                            measure_quadlem_constant, nakamura_model,
                            phi_abl, phi_abl_mu, phi_check_mu,
                            primitive_ledger, pullback_invariant_form,
                            resolution_boundary_identity)
from g2calc.forms import KForm
from g2calc.g2core import TRIPLES, is_g2_type, metric_batch, phi_to_vector
from g2calc.liecdga import InvariantModel, d_invariant
from g2calc.rings import FLT, RAT
import oracles
from oracles import eval_at, float_metric

Q = Fraction


def _row_form(row) -> KForm:
    """A float 3-form from its coefficient row in TRIPLES order."""
    return KForm(7, 3, FLT, dict(zip(TRIPLES, map(float, row))))


# --------------------------------------------------------------------------
# product model
# --------------------------------------------------------------------------

def test_product_family_closed_and_definite():
    m = nakamura_model()
    for a, b, lam in ((1, 1, 1), (2, 3, (1, 2)), (Q(1, 2), 5, (Q(-1, 3), Q(2, 7)))):
        phi = phi_abl(a, b, lam, m)
        assert d_invariant(m.eqs, phi).is_zero()
        is_g2_type(phi)  # raises if indefinite


def test_mu_family_closed_with_exact_primitive():
    m = nakamura_model()
    rho, _ = m.witnesses["two_g1_wedge_omega"]
    for mu in (1, 2, 5):
        phi_mu = phi_abl_mu(3, 1, 1, mu, m)
        assert d_invariant(m.eqs, phi_mu).is_zero()
        prim = (Q(mu) ** 6 - 1) * Q(1, 2) * 3 * rho
        assert d_invariant(m.eqs, prim) == phi_mu - phi_abl(3, 1, 1, m)


def test_mu_family_volume_is_mu_fourth():
    v1 = is_g2_type(phi_abl(1, 1, 1)).sqrt_det
    for mu in (2, 3):
        assert is_g2_type(phi_abl_mu(1, 1, 1, mu)).sqrt_det == Q(mu) ** 4 * v1


def test_mu_below_one_rejected():
    with pytest.raises(ValueError):
        phi_abl_mu(1, 1, 1, Q(1, 2))
    with pytest.raises(ValueError):
        phi_abl(0, 1, 1)


@pytest.mark.parametrize("build, name, bad", [
    (lambda x: phi_abl_mu(1, 1, 1, x), "mu", float("nan")),
    (lambda x: phi_abl_mu(x, 1, 1, 2), "alpha", float("nan")),
    (lambda x: phi_abl(1, x, 1), "beta", float("inf")),
    (lambda x: phi_abl(1, 1, (1, x)), "Im lambda", float("nan")),
    (lambda x: phi_check_mu(x), "mu", -float("inf")),
], ids=["mu_nan", "alpha_nan", "beta_inf", "im_lambda_nan", "check_mu_minus_inf"])
def test_non_finite_parameters_are_refused_by_name(build, name, bad):
    # nan < 1 is False, so a NaN mu used to build a form of NaN coefficients
    with pytest.raises(ValueError, match=re.escape(f"{name} {bad!r}")):
        build(bad)


def test_float_parameters_give_the_rational_family():
    # a float is read by its binary value: 2.0 is 2 and 1.5 is 3/2
    assert phi_check_mu(2.0) == phi_check_mu(2)
    assert phi_check_mu(2.0).ring == RAT
    got = phi_abl_mu(2.0, 1, (1.0, 1), 1.5)
    assert got == phi_abl_mu(2, 1, (1, 1), Q(3, 2))
    assert got.ring == RAT
    assert phi_abl(np.float32(0.5), 1, 1 + 2j) == phi_abl(Q(1, 2), 1, (1, 2))


def _same_form(got, want):
    assert got == want
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert list(got._ints()[0].items()) == list(want._ints()[0].items())


# real, imaginary and complex lambda, given as a number, a pair or a complex
FAMILY_LAMBDAS = [1, -3, 2.5, (0, 2), (0, -0.75), 3j, (Q(1, 2), Q(-3, 4)), 1 + 2j,
                  (0.1, 2.5), (-2, 0)]


def _model_with_fractional_forms():
    """The product model with its named 1- and 2-forms rescaled by
    fractions, so that its basis 3-forms have denominators other than 1."""
    m = nakamura_model()
    scales = {"g1": Q(1, 2), "g3": Q(-3, 5), "omega": Q(2, 3), "Omega_re": Q(5, 7),
              "Omega_im": 3}
    named = {k: scales.get(k, 1) * f for k, f in m.named_forms.items()}
    return InvariantModel(m.eqs, named, label="rescaled")


@pytest.mark.parametrize("mu", [1, Q(3, 2), 1.5], ids=["mu_1", "mu_3_2", "mu_float_1_5"])
@pytest.mark.parametrize("make_model", [nakamura_model, _model_with_fractional_forms],
                         ids=["nakamura", "fractional_forms"])
def test_the_families_equal_the_wedge_built_reference_in_value_and_key_order(mu, make_model):
    # the cached basis forms summed with the parameters' products against
    # the four to six wedges of the model's named forms
    m = make_model()
    if m is not nakamura_model():
        assert any(d != 1 for _, d in catalog._phi_basis(m))
    for alpha in (1, -2, 2.5, Q(1, 3), 0.1):
        for beta in (1, Q(-2, 7), 3.25):
            for lam in FAMILY_LAMBDAS:
                want = oracles.phi_abl_mu(alpha, beta, lam, mu, m)
                _same_form(phi_abl_mu(alpha, beta, lam, mu, m), want)
                if mu == 1:
                    _same_form(phi_abl(alpha, beta, lam, m), oracles.phi_abl(alpha, beta, lam, m))
    _same_form(phi_abl_mu(2, 3, 1 + 1j, mu), oracles.phi_abl_mu(2, 3, 1 + 1j, mu))


def test_the_nilmanifold_family_equals_the_sum_reference_in_value_and_key_order():
    for mu in (1, Q(3, 2), 1.5, 2):
        _same_form(phi_check_mu(mu), oracles.phi_check_mu(mu))
    # the family has mu >= 1: mu = 0 would drop the theta^123 term, and
    # mu = -1 would repeat mu = 1
    for mu in (0, -1, 0.3):
        with pytest.raises(ValueError, match="mu must be >= 1"):
            phi_check_mu(mu)


def test_the_family_errors_keep_their_order():
    # several bad inputs: the first one checked names itself, as before
    cases = [(("x", 0, 0, 0), "alpha"), ((1, "x", 0, 0), "mu must be"),
             ((1, "x", 0, 1), "beta"), ((0, 0, "x", 1), "alpha, beta must be"),
             ((1, 1, (0, "x"), 1), "Im lambda"), ((1, 1, 0, 1), "lambda must be")]
    for args, message in cases:
        for build in (phi_abl_mu, oracles.phi_abl_mu):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(*args)


def test_the_class_map_equals_the_wedge_built_reference():
    # Fractions for a rational form; a float form is refused
    m = nakamura_model()
    for lam in FAMILY_LAMBDAS:
        for xi in (phi_abl(2, Q(1, 3), lam, m), phi_abl_mu(0.5, 3, lam, 2, m)):
            got, want = ch_map(xi, m), oracles.ch_map(xi, m)
            assert got == want
            assert all(type(x) is Fraction for x in got)
        with pytest.raises(TypeError, match="over float"):
            ch_map(phi_abl(1, 1, lam).in_ring(FLT), m)


def test_class_map_values_and_injectivity():
    # catalog.class_map_grid runs another rational grid
    m = nakamura_model()
    seen = {}
    for a in (Q(2, 3), 4, Q(5, 2), 7):
        for b in (Q(1, 2), 3, Q(7, 4), 6):
            for lam in ((3, 0), (0, -2), (Q(1, 3), Q(5, 2)), (-1, 4)):
                re, im = Q(lam[0]), Q(lam[1])
                got = ch_map(phi_abl(a, b, lam), m)
                assert got == (Q(a) * b, re, im, b * re, b * im)
                assert got not in seen, f"collision with {seen[got]}"
                seen[got] = (a, b, lam)


def test_class_map_invariant_under_mu():
    # phi^mu differs from phi by an exact form, so the class map agrees
    m = nakamura_model()
    assert ch_map(phi_abl_mu(2, 3, (1, 1), 4), m) == ch_map(phi_abl(2, 3, (1, 1)), m)


# --------------------------------------------------------------------------
# nilmanifold model
# --------------------------------------------------------------------------

def test_the_nilmanifold_model_is_built_once():
    assert ffkm_model() is ffkm_model()


def test_nilmanifold_family_closed():
    m = ffkm_model()
    for mu in (1, 2, 3):
        assert d_invariant(m.eqs, phi_check_mu(mu)).is_zero()


def test_nilmanifold_volume_is_mu_squared():
    v1 = is_g2_type(phi_check_mu(1)).sqrt_det
    for mu in (2, 3):
        assert is_g2_type(phi_check_mu(mu)).sqrt_det == Q(mu) ** 2 * v1


def test_primitive_ledger_all_pass():
    for mu in (1, 2, 3):
        rows = primitive_ledger(mu)
        assert rows, "ledger must not be empty"
        bad = [r for r in rows if r["status"] != "pass"]
        assert not bad, bad


class _LeakyCutoff:
    """The default cutoff's zero band, but a value that never reaches 0."""
    inner = catalog.DEFAULT_CUTOFF
    a, h = inner.a, inner.h

    def __call__(self, s):
        return np.maximum(self.inner(s), 1e-9)

    def deriv(self, s):
        return self.inner.deriv(s)


def test_interface_w_row_needs_the_cutoff_to_vanish(monkeypatch):
    def row(mu):
        return next(r for r in primitive_ledger(mu) if r["region"] == "interface W")
    assert "zero band" in row(2)["check"]
    monkeypatch.setattr(catalog, "DEFAULT_CUTOFF", _LeakyCutoff())
    assert row(2)["status"] == "fail"
    assert row(1)["status"] == "pass"       # mu = 1: c6 = 0 kills the term


class _FlatCutoff(_LeakyCutoff):
    """A cutoff that never leaves 0, so it has no ramp either."""

    def __call__(self, s):
        return np.zeros_like(s)

    def deriv(self, s):
        return np.zeros_like(s)


def test_interface_w_row_needs_the_control_point_not_to_vanish(monkeypatch):
    # the fifth probe point sits in the ramp: with c6 != 0 the term must not
    # vanish there, or the zero-band test proves nothing
    def row(mu):
        return next(r for r in primitive_ledger(mu) if r["region"] == "interface W")
    monkeypatch.setattr(catalog, "DEFAULT_CUTOFF", _FlatCutoff())
    assert row(2)["status"] == "fail"
    assert row(1)["status"] == "pass"


def test_master_gluing_identity_exact():
    # phi^mu - xi^mu = y1 dy^{147} + d(alpha), symbolic in (y, mu)
    assert master_identity_check()


def test_boundary_rescaling_identity_exact():
    assert resolution_boundary_identity()


def test_pullback_of_invariant_forms_is_closed():
    m = ffkm_model()
    phi = m.named_forms["phi"]
    pulled = pullback_invariant_form(phi)
    assert pulled.d_chart().is_zero()


# --------------------------------------------------------------------------
# glued forms on charts
# --------------------------------------------------------------------------

def test_glued_form_definite_and_gap_small():
    rng = np.random.default_rng(0)
    for mu in (1, 2, 8):
        out = glued_form_at(rng.uniform(-0.05, 0.05, size=(8, 7)), mu)
        assert out["phi"].shape == (8, 35) and out["metric"].shape == (8, 7, 7)
        assert out["sqrt_det"].shape == out["gap"].shape == (8,)
        assert (out["gap"] < 1.0).all()


def test_glued_form_outside_chart_rejected():
    pts = np.zeros((3, 7))
    pts[1, 0] = 10.0
    with pytest.raises(ValueError, match="outside the chart ball"):
        glued_form_at(pts, 2)


def test_glued_form_outer_region_is_invariant():
    # once the cutoff saturates (r/eps >= 0.99 within tolerance of 1) the
    # glued form is xi^mu + y1 dy^{147} + d(alpha), the chart expression of
    # the invariant form phi_check_mu
    point = [0.099, 0.0, 0.0, 0.3, 0.0, 0.0, 0.1]
    out = glued_form_at([point], 2)
    assert out["f"][0] == pytest.approx(1.0)
    assert out["fprime"][0] == 0.0
    invariant = pullback_invariant_form(phi_check_mu(2))
    want = phi_to_vector(eval_at(invariant, dict(zip(catalog.YVARS, point))))
    assert out["phi"][0] == pytest.approx(want, rel=1e-14, abs=1e-15)


def _cutoff_at(s, cutoff=None):
    """(f(s), f'(s)) by one-element calls, since the cutoff takes arrays
    only; the default is the module's DEFAULT_CUTOFF at call time."""
    cutoff = cutoff or catalog.DEFAULT_CUTOFF
    s = np.array([s])
    return cutoff(s)[0], cutoff.deriv(s)[0]


def test_default_cutoff_certifies_its_defining_properties():
    # f = 0 on [0, 1/2], f = 1 on [1, oo) and sup|f'| < 3, on a grid of
    # 10000 points over [0, 3/2] and at points beyond it
    s = np.linspace(0.0, 1.5, 10000)
    vals, ders = catalog.DEFAULT_CUTOFF(s), catalog.DEFAULT_CUTOFF.deriv(s)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(vals[s <= 0.5] == 0) and np.all(vals[s >= 1.0] == 1)
    assert float(np.max(np.abs(ders))) < 3.0
    assert catalog.DEFAULT_CUTOFF(np.array([0.0, 0.25, 0.5])).tolist() == [0.0] * 3
    top = np.array([1.0, 2.0, 10.0])
    assert catalog.DEFAULT_CUTOFF(top).tolist() == [1.0] * 3
    assert catalog.DEFAULT_CUTOFF.deriv(top).tolist() == [0.0] * 3


class _Ramp(catalog.CutoffFn):
    """The cutoff on another ramp [a, b] and half-width h."""

    def __init__(self, a, b, h=catalog.CutoffFn.h):
        self.a, self.b, self.h = a, b, h


_REF_X, _REF_W = np.polynomial.legendre.leggauss(64)


def _composite_gl(fn, lo, hi, panels=4):
    """64-node Gauss-Legendre on each of `panels` equal pieces of [lo, hi]."""
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(half * (fn(mid[:, None] + half[:, None] * _REF_X) @ _REF_W)))


def _cutoff_reference(cf, s):
    """(f, f') from the defining convolution f = k * ramp of the normalised
    kernel k(u) ~ exp(-1/(1-(u/h)^2)) with the linear ramp on [a, b], split
    at the ramp's kinks."""
    a, b, h = cf.a, cf.b, cf.h

    def k(u):
        with np.errstate(divide="ignore"):   # a node rounded onto +-h
            return np.exp(-1.0 / (1.0 - (u / h) ** 2))

    def ramp(x):
        return np.clip((x - a) / (b - a), 0.0, 1.0)

    mass = _composite_gl(k, -h, h)
    fprime = _composite_gl(k, max(-h, s - b), min(h, s - a)) / mass / (b - a)
    cuts = sorted({-h, h} | {c for c in (s - b, s - a) if -h < c < h})
    f = sum(_composite_gl(lambda u: k(u) * ramp(s - u), lo, hi)
            for lo, hi in zip(cuts, cuts[1:])) / mass
    return f, fprime


@pytest.mark.parametrize("cutoff, tol", [
    (catalog.DEFAULT_CUTOFF, 1e-13),
    (_Ramp(0.6, 0.9), 1e-13),
    # shoulders overlap (b - a < 2h): no flat part, looser quadrature
    (_Ramp(0.6, 0.62, 0.05), 1e-11),
])
def test_cutoff_matches_a_high_order_reference_across_the_ramp(cutoff, tol):
    for s in np.linspace(cutoff.a - cutoff.h, cutoff.b + cutoff.h, 61)[1:-1]:
        f, fprime = _cutoff_reference(cutoff, s)
        got, gotprime = _cutoff_at(s, cutoff)
        assert abs(got - f) <= tol
        assert abs(gotprime - fprime) <= tol


def _fd_exterior_derivative(field, y0, h):
    """Central-difference d of a 2-form field y -> {(j, k): coefficient}:
    (dF)_{ijk} = d_i F_jk - d_j F_ik + d_k F_ij."""
    grads = {}
    for axis in range(1, 8):
        yp, ym = y0.copy(), y0.copy()
        yp[axis - 1] += h
        ym[axis - 1] -= h
        fp, fm = field(yp), field(ym)
        grads[axis] = {key: (fp.get(key, 0.0) - fm.get(key, 0.0)) / (2 * h)
                       for key in set(fp) | set(fm)}
    out = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            for k in range(j + 1, 8):
                out[(i, j, k)] = (grads[i].get((j, k), 0.0) - grads[j].get((i, k), 0.0)
                                  + grads[k].get((i, j), 0.0))
    return out


def _assert_matches_fd(form, field, y0, h=1e-6, rel=1e-7):
    want = _fd_exterior_derivative(field, y0, h)
    scale = max(abs(v) for v in want.values())
    assert scale > 0
    for idx, v in want.items():
        assert abs(float(form.coeffs.get(idx, 0.0)) - v) <= rel * scale, idx


# points whose transverse radius r puts r/eps (glued form) and 2r/eps
# (sigma) inside the cutoff's ramp
_RAMP_POINTS = [np.array([0.04, 0.03, 0.2, -0.1, 0.035, -0.025, 0.3]),
                np.array([-0.05, 0.02, -0.1, 0.4, -0.03, 0.045, 0.1]),
                np.array([0.02, -0.06, 0.3, 0.2, 0.01, 0.03, -0.2])]


@pytest.mark.parametrize("y0", _RAMP_POINTS)
def test_glued_form_chain_rule_matches_finite_differences(y0):
    # phi^mu - xi^mu - y1 dy^147 = d[f(r/eps) alpha]
    eps, mu = catalog.DEFAULT_EPSILON, 2
    alpha = catalog.alpha_a()

    def field(y):
        pt = dict(zip(catalog.YVARS, y))
        f = _cutoff_at(math.sqrt(y[0] ** 2 + y[1] ** 2 + y[4] ** 2 + y[5] ** 2) / eps)[0]
        return {idx: f * c for idx, c in eval_at(alpha, pt).coeffs.items()}

    out = glued_form_at([y0], mu)
    assert 0.0 < out["fprime"][0]
    xi = (ffkm_model().named_forms["phi"].in_ring(FLT)
          + (mu ** 6 - 1.0) * KForm.basis(7, (1, 2, 3)).in_ring(FLT))
    corr = _row_form(out["phi"][0]) - xi - KForm(7, 3, FLT, {(1, 4, 7): float(y0[0])})
    _assert_matches_fd(corr, field, y0)


@pytest.mark.parametrize("y0", _RAMP_POINTS)
def test_sigma_chain_rule_matches_finite_differences(y0):
    # sigma = d[f(2r/eps) (y1)^2/2 dy^47]
    eps = catalog.DEFAULT_EPSILON
    y0 = 0.6 * y0

    def field(y):
        r = math.sqrt(y[0] ** 2 + y[1] ** 2 + y[4] ** 2 + y[5] ** 2)
        return {(4, 7): _cutoff_at(2.0 * r / eps)[0] * 0.5 * y[0] ** 2}

    r = math.sqrt(y0[0] ** 2 + y0[1] ** 2 + y0[4] ** 2 + y0[5] ** 2)
    assert 0.0 < _cutoff_at(2.0 * r / eps)[1]
    _assert_matches_fd(_row_form(_sigma_rows(ResolutionForms(4), [y0])[0]),
                       field, y0)


def test_xi_metric_diagonal():
    # the gap norms weigh dy^{1,2,3} by mu^-4 and dy^{4..7} by mu^2: the
    # metric of xi^mu, computed exactly, is diagonal, and the float weights
    # are its diagonal rounded once, also at a float mu (read by its binary
    # value)
    flat = ffkm_model().named_forms["phi"]
    for mu in (1, 2, Q(3, 2), Q(1.7)):
        xi = flat + (Q(mu) ** 6 - 1) * KForm.basis(7, (1, 2, 3))
        g = is_g2_type(xi)
        diag = [g.metric[i][i] for i in range(7)]
        assert g.exact
        assert g.metric == [[diag[i] if i == j else 0 for j in range(7)]
                            for i in range(7)], mu
        weights = catalog._xi_mu_weights(mu)
        assert all(type(w) is float for w in weights)
        assert all(abs(Fraction(w) - d) <= d / 2 ** 52 for w, d in zip(weights, diag)), mu
        assert weights == [float(d) for d in diag] == catalog._xi_mu_weights(float(mu))
        assert diag == [Q(mu) ** 4] * 3 + [Q(mu) ** -2] * 4, mu


def test_quadlem_constant_stable_under_refinement():
    rng = random.Random(1)
    c1 = measure_quadlem_constant(rng, n=150)["C"]
    c2 = measure_quadlem_constant(rng, n=300)["C"]
    assert abs(c1 - c2) <= 0.2 * max(c1, c2)


def test_quadlem_constant_keeps_the_per_point_values():
    # pinned values at the two draws of the verify check at seed 0; squares
    # are x * x and each norm sums its terms in sorted key order
    rng = random.Random(0)
    out = measure_quadlem_constant(rng, n=200)
    assert (out["C_alpha"], out["C_dalpha"]) == (0.6402254714995542, 1.6861025610023832)
    out = measure_quadlem_constant(rng)
    assert (out["grid"], out["C_alpha"], out["C_dalpha"]) == (
        400, 0.6492678949699279, 1.6822359604985184)


def _spread_points(n, seed):
    """Chart points at several scales, some with zero coordinates."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, 7)) * rng.choice([1e-3, 0.05, 1.0, 30.0],
                                                          size=(n, 1))
    pts[::7, 1] = 0.0
    return pts


def test_poly_eval_columns_matches_eval_at_each_row():
    # Poly.eval on point columns: each entry is the float of the one-point
    # call at its row, and of the one-row columns; powers are x * x * ...
    alpha, dalpha = catalog._alpha_and_d()
    pts = _spread_points(500, 2)
    cols = catalog._columns(pts)
    y1 = catalog._y("y1")
    for c in [y1 ** 4, *alpha.coeffs.values(), *dalpha.coeffs.values()]:
        batch = c.eval(cols)
        want = [c.eval(dict(zip(catalog.YVARS, p))) for p in pts.tolist()]
        assert batch.tolist() == want, c
        for i in (0, 7, 499):
            assert c.eval(catalog._columns(pts[i:i + 1])).tolist() == [want[i]]
    x = cols["y1"]
    assert (y1 ** 4).eval(cols).tolist() == (x * x * x * x).tolist()


def test_norm_in_diag_on_columns_matches_each_point_and_mu():
    alpha = catalog._alpha_and_d()[0]
    pts = _spread_points(200, 3)
    mus = (1, 2, 4, 8, 16)
    cols = {n: c[:, None] for n, c in catalog._columns(pts).items()}
    weights = np.array([catalog._xi_mu_weights(mu) for mu in mus]).T
    batch = catalog._norm_in_diag(catalog._eval_columns(alpha, cols), weights)
    assert batch.shape == (len(pts), len(mus))
    for i, p in enumerate(pts.tolist()):
        coeffs = eval_at(alpha, dict(zip(catalog.YVARS, p))).coeffs
        row = {idx: np.array([c]) for idx, c in coeffs.items()}
        for j, mu in enumerate(mus):
            got = catalog._norm_in_diag(row, catalog._xi_mu_weights(mu))
            assert got.tolist() == [batch[i, j]]


def _d_cutoff_by_wedges(point, scale, a, da):
    """d[f(r/scale) a] = f da + (f'/scale) dr ^ a assembled from forms."""
    r = math.sqrt(sum(point[n] * point[n] for _, n in catalog._TRANSVERSE))
    f, fd = _cutoff_at(r / scale)
    out = f * eval_at(da, point)
    if fd != 0.0 and r > 0:
        dr = KForm(7, 1, FLT, {(i,): point[n] / r for i, n in catalog._TRANSVERSE})
        out = out + (fd / scale) * dr.wedge(eval_at(a, point))
    return out


def test_glued_form_rows_match_one_row_calls_and_a_form_assembly():
    # every column of a batch call holds, row by row, the bits of the
    # one-row call; a row is xi^mu + y1 dy^{147} + d[f(r/eps) alpha]
    # assembled from forms at the point, up to the order of its sums, and
    # its metric is N / (d r) of the row's exact values, with the oracle's
    # own float cube root r, to the last few bits
    eps, mu = catalog.DEFAULT_EPSILON, 2
    alpha, dalpha = catalog._alpha_and_d()
    xi = (ffkm_model().named_forms["phi"].in_ring(FLT)
          + (mu ** 6 - 1.0) * KForm.basis(7, (1, 2, 3)).in_ring(FLT))
    weights = catalog._xi_mu_weights(mu)
    pts = np.array(_RAMP_POINTS + [0.6 * p for p in _RAMP_POINTS]
                   + [[0.03, 0.0, 0.1, 0.2, 0.0, 0.0, 0.3], np.zeros(7)])
    out = glued_form_at(pts, mu)
    assert (out["fprime"] != 0).sum() >= len(_RAMP_POINTS)
    for i, p in enumerate(pts.tolist()):
        one = glued_form_at(pts[i:i + 1], mu)
        assert one.keys() == out.keys()
        for key, col in out.items():
            assert one[key].tolist() == [col[i].tolist()], key
        point = dict(zip(catalog.YVARS, p))
        gap = (KForm(7, 3, FLT, {(1, 4, 7): point["y1"]})
               + _d_cutoff_by_wedges(point, eps, alpha, dalpha))
        assert out["phi"][i] == pytest.approx(phi_to_vector(xi + gap), rel=1e-15, abs=1e-16)
        want = catalog._norm_in_diag(dict(zip(catalog.TRIPLES, phi_to_vector(gap)[:, None])),
                                     weights)[0]
        assert out["gap"][i] == pytest.approx(want, rel=1e-14)
        data = is_g2_type(KForm(7, 3, RAT, dict(zip(TRIPLES, map(Q, out["phi"][i].tolist())))))
        g, sqrt_det = float_metric(data)
        assert out["metric"][i] == pytest.approx(g, rel=1e-14, abs=1e-15)
        assert out["sqrt_det"][i] == pytest.approx(sqrt_det, rel=1e-14)


def test_cutoff_chain_rule_rows_match_the_point_form():
    # a one-row call equals the same row inside a batch, for the 2-form
    # alpha and for the ledger's 1-form Q; and the row agrees with a wedge
    # assembly at the point up to the order of its sums
    eps = 0.1
    alpha, dalpha = catalog._alpha_and_d()
    y1, y2 = catalog._y("y1"), catalog._y("y2")
    Qf = KForm(7, 1, catalog.YRING, {(5,): y2, (3,): Q(1, 2) * y1 * y2})
    # the cutoff's ramp, its zero band, a ramp point on coordinate
    # hyperplanes, and the singular circle itself
    pts = np.array(_RAMP_POINTS + [0.6 * p for p in _RAMP_POINTS]
                   + [[0.06, 0.0, 0.1, 0.2, 0.0, 0.0, 0.3],
                      [0.0, 0.0, 0.1, 0.2, 0.0, 0.0, 0.3]])
    for a in (alpha, Qf):
        da = a.d_chart()
        rows, r, f, fd = catalog._d_cutoff_rows(catalog._columns(pts), eps, a, da)
        assert rows.shape == (len(pts), math.comb(7, a.degree + 1))
        assert (fd != 0).sum() >= len(_RAMP_POINTS)
        for i, p in enumerate(pts.tolist()):
            one = catalog._d_cutoff_rows(catalog._columns(pts[i:i + 1]), eps, a, da)
            assert [v.tolist() for v in one] == [[v[i].tolist()] for v in (rows, r, f, fd)]
            got = {idx: v for idx, v in zip(combinations(range(1, 8), a.degree + 1),
                                            rows[i].tolist()) if v}
            want = _d_cutoff_by_wedges(dict(zip(catalog.YVARS, p)), eps, a, da)
            assert got.keys() == want.coeffs.keys()
            for idx, v in want.coeffs.items():
                assert abs(got[idx] - v) <= 4e-16 * max(1.0, abs(v)), idx


# --------------------------------------------------------------------------
# resolution surgery forms
# --------------------------------------------------------------------------

def test_the_surgery_data_are_built_once_with_the_bits_they_held_at_import():
    p = catalog.surgery_profile()
    assert catalog.surgery_profile() is p
    assert (p.upsilon.hex(), p.r_frak.hex()) == ("0x1.6a09e667f3bcdp-1", "0x1.c56fc4e5a9a9ap-6")

    def terms(row):
        return {t: v for t, v in zip(TRIPLES, row.tolist()) if v}

    assert terms(catalog._flat_xi_row()) == dict(catalog._FFKM_TERMS)
    rest, omega = catalog._zeta_tables()
    assert catalog._zeta_tables()[0] is rest
    assert terms(rest) == {(1, 4, 5): 1.0, (1, 6, 7): 1.0, (2, 4, 6): -1.0,
                           (2, 5, 7): 1.0, (3, 4, 7): 1.0}
    assert omega == ((0, 1.0, 0, 1), (6, -1.0, 0, 2), (7, -1.0, 0, 3),
                     (16, -1.0, 1, 2), (17, -1.0, 1, 3), (28, 1.0, 2, 3))


def test_the_surgery_profile_has_t_r_at_half_the_chart_radius(monkeypatch):
    p = catalog.surgery_profile()
    assert (p.R, p.c) == (4.0, 1.0)
    assert p.t * p.R == catalog.DEFAULT_EPSILON / 2
    assert p.upsilon == math.sqrt(0.5)
    # the collapse lower bound and the singular limit length read upsilon
    # from this profile
    sample = [collapse.MetricSample("syn", (), 8, np.eye(7))]
    before = collapse.lower_bound_global(8, sample, Delta0=1.0)["prefactor"]
    monkeypatch.setattr(p, "upsilon", 0.5)
    after = collapse.lower_bound_global(8, sample, Delta0=1.0)["prefactor"]
    assert after == (1.0 - 1.0 / 8 ** 3) * 0.5 ** (4 / 3) != before
    assert collapse.limit_quasi_finsler("singular", [0, 0, 1]) == pytest.approx(
        0.5 ** (2 / 3), rel=1e-15)


def _sigma_rows(rf, points):
    """The (n, 35) coefficient rows of sigma at an (n, 7) point array."""
    return rf._sigma_rows(catalog._columns(points))


def test_resolution_margins_certified():
    for seed in (0, 5):
        out = ResolutionForms(8).margins(random.Random(seed))
        assert out["n"] == catalog.MARGIN_POINTS == 80
        assert out["g2_certified"]
        assert out["inner_bound_ok"]
        assert out["outer_gap"] <= 0.05 + 1e-12
        # the inner gap is C/mu^3 for the largest inner |sigma|_zeta = C
        assert out["inner_gap"] == 8.0 ** -3 * out["inner_C"] > 0.0


def test_resolution_margins_fail_for_a_large_sigma(monkeypatch):
    # sigma scaled by 10^3 puts C/mu^3 past eps/2 on the inner region: the
    # inner bound, and so the verify check, must fail
    rows = ResolutionForms._sigma_rows
    monkeypatch.setattr(ResolutionForms, "_sigma_rows",
                        lambda self, cols: 1e3 * rows(self, cols))
    out = ResolutionForms(8).margins(random.Random(0))
    assert out["inner_C"] / 8.0 ** 3 > out["outer_bound"] == 0.05
    assert not out["inner_bound_ok"]
    assert cli._check_resolution_margins(random.Random(0))[0] is False


def test_sigma_vanishes_at_exceptional_locus():
    rf = ResolutionForms(4)
    assert not _sigma_rows(rf, np.zeros((1, 7))).any()


def test_sigma_saturates_outside():
    rf = ResolutionForms(4)
    row = _sigma_rows(rf, [[0.2, 0, 0, 0, 0, 0, 0]])[0]
    assert row[catalog.TRIPLE_POS[(1, 4, 7)]] == pytest.approx(0.2)


def test_zeta_mu_definite_across_regions():
    rf = ResolutionForms(8)
    pts = np.zeros((4, 7))
    pts[:, 0] = (0.02, 0.05, 0.2, 1.0)
    metric_batch(rf.zeta_mu_rows(pts))  # raises if a row is indefinite


def _zeta_mu_by_wedges(rf, point):
    """zeta + mu^-3 sigma assembled from forms: the fiber form from the
    one-row omega_at, and sigma = f y1 dy^147 + (f'/s) dr ^ (y1^2/2) dy^47
    with f = f(r/s), s = eps/2."""
    pt = {n: float(point.get(n, 0.0)) for n in catalog.YVARS}
    axes = (1, 2, 5, 6)
    fib = [pt[f"y{a}"] for a in axes]
    M = ehmetric.omega_at([fib], profile=catalog.surgery_profile())[0]
    om = KForm(7, 2, FLT, {(axes[i], axes[j]): M[i][j]
                           for i in range(4) for j in range(i + 1, 4)})
    th = lambda *idx: KForm.basis(7, idx).in_ring(FLT)
    zeta = (th(3, 4, 7) + th(3).wedge(om)
            - th(4).wedge(KForm(7, 2, FLT, {(1, 5): 1.0, (2, 6): -1.0}))
            + th(7).wedge(KForm(7, 2, FLT, {(1, 6): 1.0, (2, 5): 1.0})))
    s = 0.5 * catalog.DEFAULT_EPSILON
    r = math.sqrt(sum(v * v for v in fib))
    f, fd = _cutoff_at(r / s)
    sigma = f * KForm(7, 3, FLT, {(1, 4, 7): pt["y1"]})
    if fd != 0.0:
        dr = KForm(7, 1, FLT, {(a,): v / r for a, v in zip(axes, fib)})
        sigma = sigma + (fd / s) * dr.wedge(KForm(7, 2, FLT, {(4, 7): 0.5 * (pt["y1"] * pt["y1"])}))
    return zeta + rf.mu ** -3 * sigma, f, fd


def _points_at_radii(radii, seed):
    """Chart points whose transverse radius (y1, y2, y5, y6) is each r."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(len(radii), 7))
    fiber = [0, 1, 4, 5]
    pts[:, fiber] *= (np.asarray(radii) / np.linalg.norm(pts[:, fiber], axis=1))[:, None]
    return pts


# eps = 0.1 and the profile's t R = eps/2: the EH core is r < eps/4, the
# cutoff of sigma ramps over 0.51 < 2r/eps < 0.99 and both are flat past eps/2
_ZETA_REGIONS = {"flat": (0.05, 0.3), "ramp": (0.0256, 0.0494),
                 "core": (0.001, 0.0249)}


@pytest.mark.parametrize("region", list(_ZETA_REGIONS))
def test_zeta_mu_rows_match_a_form_assembly(region):
    lo, hi = _ZETA_REGIONS[region]
    rf = ResolutionForms(4)
    pts = _points_at_radii(np.linspace(lo, hi, 40), seed=len(region))
    rows = rf.zeta_mu_rows(pts)
    assert rows.shape == (40, 35)
    fds = []
    for row, p in zip(rows, pts.tolist()):
        point = dict(zip(catalog.YVARS, p))
        want, f, fd = _zeta_mu_by_wedges(rf, point)
        assert row.tolist() == phi_to_vector(want).tolist()
        assert rf.zeta_mu_rows([p])[0].tolist() == row.tolist()
        fds.append(fd)
    if region == "ramp":
        assert all(fd != 0.0 for fd in fds)
    if region == "core":
        assert not any(rows[:, catalog.TRIPLE_POS[(1, 4, 7)]])
