"""Interpolated Kaehler profile on the resolved C^2/Z2: construction
invariants, positivity/volume certificates, and closedness."""
import json
import math
import random

import numpy as np
import pytest

from g2calc import ehmetric
from g2calc.catalog import DEFAULT_CUTOFF
from g2calc.ehmetric import (ConstructionFailed, EHProfile, Infeasible,
                             _gl, _plateau,
                             _plateau_integral, _profile_slopes, _psi,
                             build_profile,
                             certificate_to_json, closedness_residual,
                             default_t_for_epsilon, eh_aprime, fd_d,
                             feasibility_threshold, measure_dlam_constant,
                             _directions, normals, omega_at,
                             positivity_and_volume_certificate,
                             positivity_budget, ricci_residual)
from g2calc.forms import KForm, chart_vars, poly_ring
from g2calc.rings import Poly
from oracles import eval_at


@pytest.fixture(scope="module")
def profile():
    return build_profile(1.0, 4.0, 1.0)


def _one(f, x):
    """f, which takes arrays only, at the single value x: a one-element
    call, entry 0 of each output."""
    out = f(np.array([x], dtype=float))
    return tuple(v[0] for v in out) if isinstance(out, tuple) else out[0]


# --------------------------------------------------------------------------
# feasibility and failure modes
# --------------------------------------------------------------------------

def test_feasibility_threshold_formula():
    assert feasibility_threshold(1.0) == pytest.approx((32 / 15) ** 0.25)
    with pytest.raises(ValueError):
        feasibility_threshold(0.0)
    with pytest.raises(ValueError):
        feasibility_threshold(2.0)


def test_infeasible_radius_rejected():
    with pytest.raises(Infeasible):
        build_profile(1.0, 0.95 * feasibility_threshold(1.0), 1.0)


def test_construction_fails_when_bump_hits_the_boundary():
    # just above the feasibility threshold the required mass pushes the
    # bump's right edge onto the outer boundary of the interpolation zone
    with pytest.raises(ConstructionFailed):
        build_profile(1.0, 1.21, 1.0)


def test_invalid_t_rejected():
    with pytest.raises(ValueError):
        build_profile(0.0, 4.0, 1.0)


# --------------------------------------------------------------------------
# profile invariants
# --------------------------------------------------------------------------

def test_mass_identity_exact(profile):
    # integral of k over [0, q] equals -t^4, via the analytic moment
    t = profile.t
    assert abs(_one(profile.h, profile.q) + t ** 4) < 1e-10 * t ** 4


def _profiles_built(monkeypatch):
    """A list that gains one entry per EHProfile built from here on."""
    built = []
    post_init = EHProfile.__post_init__

    def counting(self):
        built.append(self.p_hi)
        post_init(self)

    monkeypatch.setattr(EHProfile, "__post_init__", counting)
    return built


def _four_step_p_hi(t, R, c):
    """p_hi after the mass correction's three nudges with no early stop: the
    profile that the loop's fourth and last step builds."""
    shape = build_profile(t, R, c)
    moment = 1.0 / (c * R ** 4)
    p_hi = math.sqrt(shape.p_lo ** 2 + 2.0 * moment)
    for _ in range(3):
        trial = EHProfile(t=shape.t, R=shape.R, c=shape.c, q=shape.q,
                          p_lo=shape.p_lo, p_hi=p_hi, rho=shape.rho)
        p_hi += (moment - trial._moment([1.0])[0]) / p_hi
    return p_hi


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_mass_correction_builds_one_profile_at_the_cli_defaults(t, monkeypatch):
    # the closed-form p_hi is already as near the target as a double gets
    want = _four_step_p_hi(t, 4.0, 1.0)
    built = _profiles_built(monkeypatch)
    p = build_profile(t, 4.0, 1.0)
    assert built == [p.p_hi] == [want]


@pytest.mark.parametrize("t, R, c, cycle", [
    # the closed form misses by 1.8e-13 of the moment: one nudge, and then
    # the moment is within half a step of p_hi
    (0.1, 10.0, 1.5, False),
    # two p_hi one ulp apart that nudge to each other: the second nudge
    # returns to the first profile's p_hi
    (0.1, 1.05 * feasibility_threshold(1e-8), 1e-8, True),
    (1.0, 1.05 * feasibility_threshold(0.5), 0.5, True),
], ids=["nudged", "cycle_c1e-8", "cycle_c0.5"])
def test_mass_correction_stops_only_when_a_nudge_leaves_p_hi(t, R, c, cycle,
                                                             monkeypatch):
    # the loop stops when a nudge leaves p_hi as it is or returns to a p_hi
    # already built (the test's id, kept stable, names only the first stop),
    # with the p_hi of a loop that makes all three nudges
    want = _four_step_p_hi(t, R, c)
    moment = 1.0 / (c * R ** 4)
    built = _profiles_built(monkeypatch)
    p = build_profile(t, R, c)
    assert p.p_hi == want
    assert built == [math.sqrt(p.p_lo ** 2 + 2.0 * moment), p.p_hi]
    gap = moment - p._moment([1.0])[0]
    if cycle:
        assert p.p_hi + gap / p.p_hi == built[0]
        assert abs(p.p_hi - built[0]) == math.ulp(p.p_hi)
    else:
        # within half the moment step of one ulp of p_hi: the tolerance
        assert abs(gap) <= 0.5 * p.p_hi * math.ulp(p.p_hi)
        assert p.p_hi + gap / p.p_hi == p.p_hi


def _adaptive_simpson(f, a, b, tol, fa=None, fb=None, fm=None, depth=30):
    """Adaptive Simpson quadrature of f on [a, b], with Richardson's
    correction: the reference the mollifier's Gauss-Legendre rule is held
    against."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    m = 0.5 * (a + b)
    fm = f(m) if fm is None else fm
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, tol / 2.0, fa, fm, flm, depth - 1)
            + _adaptive_simpson(f, m, b, tol / 2.0, fm, fb, frm, depth - 1))


def test_mass_identity_independent_quadrature(profile):
    # re-integrate k with adaptive Simpson, splitting at the mollifier
    # shoulders (a blind integrator can miss the narrow bump entirely)
    q, rho = profile.q, profile.rho
    cuts = sorted({0.0, (profile.p_lo - rho) * q, (profile.p_lo + rho) * q,
                   (profile.p_hi - rho) * q, (profile.p_hi + rho) * q, q})
    total = sum(_adaptive_simpson(lambda lam: _one(profile.k, lam), a, b, 1e-15)
                for a, b in zip(cuts, cuts[1:]))
    assert abs(total + profile.t ** 4) < 1e-10 * profile.t ** 4


def test_equality_attained_at_the_marked_radius(profile):
    lam = profile.r_frak ** 2
    assert _one(profile.k, lam) == -profile.c * lam


def test_pinching_bound_holds_everywhere(profile):
    lams = np.linspace(1e-6, 1.05 * profile.q, 4000)
    slack = profile.k(lams) + profile.c * lams
    assert slack.min() >= -1e-14


def test_support_of_the_modification(profile):
    q = profile.q
    lams = np.array([0.0, q / 8, q / 4, 0.995 * q, q, 2 * q])
    assert profile.k(lams).tolist() == [0.0] * len(lams)
    # and it is genuinely nonzero somewhere in between
    assert _one(profile.k, profile.r_frak ** 2) < 0.0


def test_scale_equivariance_is_exact():
    p1 = build_profile(1.0, 4.0, 1.0)
    s = 3.0
    p2 = build_profile(s, 4.0, 1.0)
    lams = np.linspace(0.05, 1.2 * p1.q, 50)
    assert p2.k(s * s * lams) == pytest.approx(s * s * p1.k(lams), abs=1e-13)
    assert p2.h(s * s * lams) == pytest.approx(s ** 4 * p1.h(lams),
                                               rel=1e-12, abs=1e-13)


def _plateau_integral_unmemoised(u, p, lo, hi, w):
    """The shoulders and flat part of _plateau_integral, each shoulder
    integrated by _gl afresh on every call, and the flat part's square as
    the product x * x."""
    if u <= lo - w:
        return 0.0
    mid = 0.5 * (lo + hi)
    flat_lo, flat_hi = min(lo + w, mid), max(hi - w, mid)
    f = lambda v: v ** p * _plateau(v, lo, hi, w)
    total = _gl(f, lo - w, [min(u, flat_lo)])[0]
    if u > flat_lo:
        top = min(u, flat_hi)
        total += (top * top - flat_lo * flat_lo) / 2 if p else top - flat_lo
    if u > flat_hi:
        total += _gl(f, flat_hi, [min(u, hi + w)])[0]
    return total


def test_shoulder_memo_is_exact(monkeypatch):
    # the profile's plateau, the default cutoff's ramp, and that ramp with
    # each of lo, hi and w moved alone; u before, inside and past each
    # shoulder, and on the flat part
    memo = {}
    monkeypatch.setattr(ehmetric, "_SHOULDER_MEMO", memo)
    prof = build_profile(1.0, 4.0, 1.0)
    a, b, h = DEFAULT_CUTOFF.a, DEFAULT_CUTOFF.b, DEFAULT_CUTOFF.h
    shapes = [(prof.p_lo, prof.p_hi, prof.rho), (a, b, h),
              (a + 0.05, b, h), (a, b - 0.05, h), (a, b, h / 2)]
    cases = []
    for lo, hi, w in shapes:
        us = (lo - 2 * w, lo - w / 2, lo, lo + w / 2, lo + w,
              0.5 * (lo + hi), hi - w, hi - w / 2, hi, hi + w / 2, hi + w,
              hi + 2 * w, 1.0)
        cases += [(u, p, lo, hi, w) for p in (0, 1) for u in us]
    want = [_plateau_integral_unmemoised(*case) for case in cases]

    def one(u, *params):
        return _plateau_integral(np.array([u]), *params)[0]

    for case, value in zip(cases, want):      # every value from a cold memo
        memo.clear()
        assert one(*case) == value, case
    for case in cases:                        # fill it
        one(*case)
    assert len(memo) == len(shapes) * 2 * 2   # shapes x p x side
    for case, value in zip(cases, want):      # every value from the filled memo
        assert one(*case) == value, case
    batches = {}                              # one array of u per parameter set
    for (u, *params), value in zip(cases, want):
        batches.setdefault(tuple(params), []).append((u, value))
    for params, pairs in batches.items():
        us, values = zip(*pairs)
        assert _plateau_integral(np.array(us), *params).tolist() == list(values)


def test_profiles_with_one_shape_share_their_shoulders(monkeypatch):
    # the shape parameters depend on (c, R) only, not on t
    memo = {}
    monkeypatch.setattr(ehmetric, "_SHOULDER_MEMO", memo)
    small = build_profile(0.1, 4, 1)
    filled = dict(memo)
    assert filled
    large = build_profile(1.0, 4, 1)
    assert (small.p_lo, small.p_hi, small.rho) == (large.p_lo, large.p_hi,
                                                   large.rho)
    assert memo == filled


def _pure_eh_asecond(t, lams):
    """a'' = -t^4 / lam^3 / a' of the pure Eguchi-Hanson potential."""
    return -(t ** 4 / lams ** 3) / eh_aprime(t, lams)


def test_slope_matches_pure_eh_in_the_core(profile):
    # below q/4 the modification vanishes (k == h == 0): alpha' and alpha''
    # are the pure Eguchi-Hanson slopes, bit for bit, as the certificate
    # and omega_at read them
    for p in (profile, build_profile(0.1, 4.0, 1.0), build_profile(3.0, 10.0, 1.5)):
        lams = p.q * np.array([1e-3, 0.01, 0.1, 0.2, 0.25])
        k, h, ap, app = p.slopes(lams)
        assert not k.any() and not h.any()
        assert ap.tolist() == eh_aprime(p.t, lams).tolist()
        assert app.tolist() == _pure_eh_asecond(p.t, lams).tolist()
        assert _profile_slopes(p, lams)[2].tolist() == app.tolist()


def test_slope_is_flat_outside(profile):
    # at lam >= q the interpolation has absorbed the full -t^4, so
    # alpha'^2 = 1 + (t^4 + h)/lam^2 = 1 exactly
    assert profile.slopes(np.array([1.0, 2.0]) * profile.q)[2].tolist() == [1.0, 1.0]


def test_ricci_flat_closed_form():
    # eh.ricci_flat_profile runs t = 1; these are a small and a large core
    for t in (0.1, 3.0):
        assert ricci_residual(t, np.linspace(0.5, 40.0, 25)) < 1e-8


def test_gauss_legendre_constant_is_leggauss_96():
    # the rule is held as literals so that no import runs leggauss; it must
    # stay leggauss(96) bit for bit
    nodes, weights = ehmetric._gl_rule()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(96)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)


def test_the_rule_and_the_kernel_mass_are_built_once_with_their_old_bits():
    # the whole rule mirrors the positive literals, and the kernel's mass
    # has the bits it had as a module constant
    nodes, weights = ehmetric._gl_rule()
    assert ehmetric._gl_rule()[0] is nodes
    pos_nodes, pos_weights = list(ehmetric._GL_POS_NODES), list(ehmetric._GL_POS_WEIGHTS)
    assert nodes.tolist() == [-x for x in reversed(pos_nodes)] + pos_nodes
    assert weights.tolist() == pos_weights[::-1] + pos_weights
    assert float(ehmetric._bump_mass()).hex() == "0x1.c6a650a045c7cp-2"


# --------------------------------------------------------------------------
# batched evaluation: a value does not depend on its batch
# --------------------------------------------------------------------------

def test_psi_is_batch_independent():
    # both shoulders of the kernel, the endpoints +-1, and points outside
    x = np.concatenate([np.linspace(-1.25, 1.25, 400),
                        [-1.0, 1.0, np.nextafter(-1.0, 0.0),
                         np.nextafter(1.0, 0.0), -3.0, 3.0]])
    batch = _psi(x)
    assert [_one(_psi, v) for v in x.tolist()] == batch.tolist()


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_profile_functions_are_batch_independent(t):
    p = build_profile(t, 4.0, 1.0)
    # the core, the flat part, and a dense cover of both plateau shoulders
    lams = p.q * np.concatenate([
        np.linspace(0.05, 1.2, 200),
        np.linspace(p.p_lo - 2 * p.rho, p.p_hi + 2 * p.rho, 200)])
    k, h, ap, app = p.slopes(lams)
    assert p.k(lams).tolist() == k.tolist()
    assert p.h(lams).tolist() == h.tolist()
    for i, lam in enumerate(lams.tolist()):
        assert _one(p.k, lam) == k[i]
        assert _one(p.h, lam) == h[i]
        assert _one(p.slopes, lam) == (k[i], h[i], ap[i], app[i])
    assert (k < 0).sum() > 100 and (h < 0).sum() > 100


# --------------------------------------------------------------------------
# the 2-form field omega
# --------------------------------------------------------------------------

def test_omega_flat_outside_and_eh_inside(profile):
    t, q = profile.t, profile.q
    r_out = math.sqrt(1.5 * q)
    M = omega_at([(r_out, 0.0, 0.0, 0.0)], profile=profile)[0]
    assert np.array_equal(M,
                          np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, -1, 0]], float))
    r_in = math.sqrt(q / 8)
    M_in = omega_at([(r_in, 0.0, 0.0, 0.0)], profile=profile)[0]
    lam = np.array([r_in * r_in])
    M_eh = np.zeros((4, 4))
    for (i, j), m in ehmetric._upper(r_in, 0.0, 0.0, 0.0, eh_aprime(t, lam)[0],
                                     _pure_eh_asecond(t, lam)[0]).items():
        M_eh[i, j], M_eh[j, i] = m, -m
    assert np.array_equal(M_in, M_eh)


@pytest.mark.parametrize("field", ["profile"])
def test_omega_at_on_a_point_array_matches_per_point_calls(profile, field):
    kw = {field: profile}
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(2000, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # radii across the EH core, the interpolation annulus and the flat part
    r = np.sqrt(profile.q * rng.uniform(0.05, 1.5, size=2000))
    pts = dirs * r[:, None]
    batch = omega_at(pts, **kw)
    assert batch.shape == (2000, 4, 4)
    assert [omega_at([p], **kw)[0].tolist() for p in pts.tolist()] == batch.tolist()
    # a point is a one-row array, never a bare 4-vector
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        omega_at(pts[7], **kw)
    with pytest.raises(ValueError, match="origin"):
        omega_at(np.vstack([pts[:2], np.zeros((1, 4))]), **kw)


def test_directions_are_seeded_unit_rows():
    for n in (1, 7, 20):
        dirs = _directions(n, random.Random(3))
        assert dirs.shape == (n, 4)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-15
        assert dirs.tolist() == _directions(n, random.Random(3)).tolist()
        assert dirs.tolist() != _directions(n, random.Random(4)).tolist()


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_certificate_minima_do_not_depend_on_the_seed(t):
    # by U(2) invariance the margin and the ratio depend on r alone, so the
    # directions are a witness: another draw moves the minima at roundoff
    p = build_profile(t, 4.0, 1.0)
    reps = [positivity_and_volume_certificate(p, random.Random(seed), n_r=400, n_ang=20)
            for seed in (0, 1, 7)]
    for key in ("min_margin", "min_ratio"):
        values = [rep[key] for rep in reps]
        assert max(values) - min(values) <= 1e-12, key


def test_positivity_and_volume_certificate(profile):
    floor = 2.0 * profile.upsilon ** 2
    for n_r in (300, 400):
        rep = positivity_and_volume_certificate(profile, random.Random(0), n_r=n_r,
                                                n_ang=12)
        assert rep["volume_ok"] and rep["volume_floor"] == floor
        assert 0.0 < rep["min_margin"] < 1.0
        assert rep["min_ratio"] >= floor - 1e-9
        # the floor is attained (the pinching equality is realised on the grid)
        assert abs(rep["min_ratio"] - floor) < 1e-6


def _reference_certificate(profile, n_r, n_ang, delta=0.05, seed=0):
    """The per-point certificate loop: omega_at at every (radius,
    direction) pair, with the full 4x4 matrices."""
    def pfaffian4(M):
        return M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]

    def two_form_norm(M):
        return math.sqrt(sum(M[i][j] ** 2 for i in range(4)
                             for j in range(i + 1, 4)))

    J0 = ((0.0, 1.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),
          (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, -1.0, 0.0))
    t, R = profile.t, profile.R
    radii = np.linspace(0.5 * t * R * (1.0 - delta), t * R * (1.0 + delta), n_r)
    dirs = _directions(n_ang, random.Random(seed))
    min_margin = math.inf
    min_ratio = math.inf
    worst_r = None
    max_formula_gap = 0.0
    for r in radii:
        lam = r * r
        ratio_formula = 2.0 + _one(profile.k, lam) / lam
        for d in dirs:
            M = omega_at([r * d], profile=profile)[0]
            D = [[J0[i][j] - M[i][j] for j in range(4)] for i in range(4)]
            margin = 1.0 - two_form_norm(D)
            ratio = 2.0 * pfaffian4(M)
            max_formula_gap = max(max_formula_gap, abs(ratio - ratio_formula))
            if margin < min_margin:
                min_margin, worst_r = margin, float(r)
            min_ratio = min(min_ratio, ratio)
    return {"min_margin": min_margin, "min_ratio": min_ratio,
            "upsilon_measured": math.sqrt(max(min_ratio, 0.0) / 2.0),
            "worst_r": worst_r, "pfaffian_vs_formula": max_formula_gap}


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_certificate_matches_the_per_point_loop(t, seed):
    p = build_profile(t, 4.0, 1.0)
    for n_ang in (1, 8, 20):
        rep = positivity_and_volume_certificate(p, random.Random(seed), n_r=41,
                                                n_ang=n_ang)
        ref = _reference_certificate(p, n_r=41, n_ang=n_ang, seed=seed)
        for key in ("min_margin", "min_ratio", "upsilon_measured"):
            assert abs(rep[key] - ref[key]) <= 1e-12, key
        assert rep["worst_r"] == ref["worst_r"]
        assert rep["pfaffian_vs_formula"] <= 1e-12


def test_certificate_evaluates_the_profile_once_per_radius(monkeypatch):
    p = build_profile(1.0, 4.0, 1.0)
    batches = []
    h = p.h
    monkeypatch.setattr(p, "h", lambda lam: batches.append(lam) or h(lam))
    positivity_and_volume_certificate(p, random.Random(0), n_r=30, n_ang=20)
    # one call for the whole grid, and only the radii with r^2 < q need h
    assert len(batches) == 1
    calls = batches[0].tolist()
    assert 0 < len(calls) < 30
    assert len(set(calls)) == len(calls)
    assert all(lam < p.q for lam in calls)


def _per_radius_certificate(p, n_r, n_ang, delta=0.05, seed=0):
    """The certificate's minima from a loop over the radii, with one
    one-element _profile_slopes call per radius."""
    dirs = _directions(n_ang, random.Random(seed))
    radii = np.linspace(0.5 * p.t * p.R * (1.0 - delta),
                        p.t * p.R * (1.0 + delta), n_r)
    min_margin = min_ratio = math.inf
    worst_r = None
    for r in radii.tolist():
        lam = r * r
        _, ap, app = _one(lambda lams: _profile_slopes(p, lams), lam)
        up = ehmetric._upper(*dirs.T, ap, app * lam)
        margin = 1.0 - ehmetric._two_form_norm(
            ehmetric._J0[i][j] - m for (i, j), m in up.items())
        if margin.min() < min_margin:
            min_margin, worst_r = float(margin.min()), r
        min_ratio = min(min_ratio, float((2.0 * ehmetric._pfaffian4(up)).min()))
    return {"min_margin": min_margin, "min_ratio": min_ratio, "worst_r": worst_r}


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_certificate_matches_the_per_radius_scalar_profile(t):
    # exact equality: the batched profile has the one-element calls' bits
    p = build_profile(t, 4.0, 1.0)
    rep = positivity_and_volume_certificate(p, random.Random(0), n_r=400, n_ang=20)
    ref = _per_radius_certificate(p, n_r=400, n_ang=20)
    for key in ("min_margin", "min_ratio", "worst_r"):
        assert rep[key] == ref[key], key


def test_certificate_failure_names_the_radius(monkeypatch):
    p = build_profile(1.0, 4.0, 1.0)
    slopes = p.slopes

    def steep(lam):
        # triple the slope: |om_hat - om_check| >= 2 sqrt(2) > 1
        k, h, ap, app = slopes(lam)
        return k, h, 3.0 * ap, app

    monkeypatch.setattr(p, "slopes", steep)
    with pytest.raises(ConstructionFailed,
                       match=r"violated at r = ") as info:
        positivity_and_volume_certificate(p, random.Random(0), n_r=40, n_ang=4)
    r = float(str(info.value).rsplit("r = ", 1)[1])
    radii = np.linspace(0.5 * p.t * p.R * (1.0 - 0.05),
                        p.t * p.R * (1.0 + 0.05), 40)
    assert r in radii.tolist()
    assert r * r < p.q
    with pytest.raises(ValueError):
        positivity_and_volume_certificate(p, random.Random(0), n_r=0)


def test_upsilon_stable_across_t():
    vals = []
    for t in (0.01, 0.1, 1.0):
        p = build_profile(t, 4.0, 1.0)
        rep = positivity_and_volume_certificate(p, random.Random(0), n_r=100, n_ang=8)
        vals.append(rep["upsilon_measured"])
    assert (max(vals) - min(vals)) / max(vals) < 0.01


def test_closedness_residual(profile):
    for seed in (0, 1, 14):
        out = closedness_residual(profile, random.Random(seed))
        assert out["residual"] < 1e-6
        assert out["points"] == 3 + ehmetric.CLOSEDNESS_DRAWS
        # the worst point is one of the pinned shoulders, where k is steepest
        assert out["u"] in (profile.p_lo, profile.p_hi)


def test_closedness_residual_pins_the_shoulders_and_a_point_off_the_bump(profile,
                                                                        monkeypatch):
    # the points, by u = lam/q: p_lo and p_hi, 1/4 (below the support
    # [p_lo - rho, p_hi + rho]), then the drawn ones in [0.55, 0.95]^2
    us = []
    fd = ehmetric.fd_d

    def record(field, y0, h, triples):
        us.append(float(np.dot(y0, y0)) / profile.q)
        return fd(field, y0, h, triples)
    monkeypatch.setattr(ehmetric, "fd_d", record)
    closedness_residual(profile, random.Random(0))
    # two step sizes per point
    assert us[::2] == us[1::2]
    pinned, drawn = us[::2][:3], us[::2][3:]
    assert pinned == pytest.approx([profile.p_lo, profile.p_hi, 0.25], rel=1e-12)
    assert 0.25 < profile.p_lo - profile.rho
    assert len(drawn) == ehmetric.CLOSEDNESS_DRAWS
    assert all(0.55 ** 2 <= u <= 0.95 ** 2 for u in drawn)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closedness_residual_fails_a_k_that_is_not_h_prime(seed, monkeypatch):
    # a mutant whose k is 1 % off h' inside the bump: om_check is no longer
    # d of a potential there, and the pinned shoulder points see it at
    # every seed; the verify check fails on it
    from g2calc import cli
    k = EHProfile.k
    monkeypatch.setattr(EHProfile, "k", lambda self, lams: 1.01 * k(self, lams))
    out = closedness_residual(build_profile(1.0, 4.0, 1.0), random.Random(seed))
    assert out["residual"] > 1e-4
    ok, detail = cli._check_eh_closedness(random.Random(seed))
    assert not ok and "largest at u = lam/q" in detail


def test_normals_are_box_muller_pairs_of_uniforms():
    rng, ref = random.Random(5), random.Random(5)
    z = normals(rng, (3, 2))
    u = [ref.random() for _ in range(6)]
    radius = [math.sqrt(-2.0 * math.log(1.0 - x)) for x in u[:3]]
    want = ([r * math.cos(2.0 * math.pi * a) for r, a in zip(radius, u[3:])]
            + [r * math.sin(2.0 * math.pi * a) for r, a in zip(radius, u[3:])])
    assert z.shape == (3, 2)
    assert z.ravel().tolist() == pytest.approx(want, rel=1e-14, abs=1e-15)
    # the generator state after them is that of the six uniforms
    assert rng.random() == ref.random()
    # an odd count drops the last sine; a large batch is standard normal
    assert normals(random.Random(5), (5,)).tolist() == pytest.approx(want[:5], rel=1e-14)
    big = normals(random.Random(0), (200000,))
    assert abs(big.mean()) < 0.01 and abs(big.std() - 1.0) < 0.01


def test_fd_d_matches_the_exact_d_of_a_polynomial_form():
    ys = chart_vars("y", 7)
    y = {n: Poly.var(ys, n) for n in ys}
    eta = KForm(7, 2, poly_ring(ys), {
        (1, 2): y["y3"] * y["y4"] * y["y4"], (1, 4): y["y2"] * y["y7"],
        (2, 5): y["y1"] ** 3 - y["y5"] * y["y6"], (3, 6): y["y1"] * y["y2"] * y["y3"]})
    y0 = np.array([0.3, -0.7, 0.5, 1.1, -0.2, 0.9, 0.4])
    want = eval_at(eta.d_chart(), dict(zip(ys, y0))).coeffs
    triples = ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 6), (2, 5, 6), (4, 5, 7))
    calls = []

    def field(points):
        calls.append(points.tolist())
        return {idx: c.eval(dict(zip(ys, points.T))) for idx, c in eta.coeffs.items()}

    got = fd_d(field, y0, 1e-5, triples)
    assert sum(1 for tri in triples if tri in want) >= 4
    for tri, v in zip(triples, got):
        assert abs(v - want.get(tri, 0.0)) <= 1e-8, tri
    # one call, each shifted point once: y0 +- h e_a for the 7 axes the
    # triples use
    assert len(calls) == 1
    assert len(calls[0]) == 2 * 7 == len(set(map(tuple, calls[0])))


def test_dlam_constant_matches_the_per_point_loop():
    assert (ehmetric.DLAM_RADII, ehmetric.DLAM_DIRECTIONS) == (20, 10)
    for seed in (0, 9):
        best = 0.0
        for r in np.linspace(0.1, 2.0, ehmetric.DLAM_RADII):
            for d in _directions(ehmetric.DLAM_DIRECTIONS, random.Random(seed)):
                up = ehmetric._upper(*(r * d), 0.0, 1.0)
                best = max(best, 4.0 * ehmetric._two_form_norm(up.values())
                           / (4.0 * r * r))
        assert measure_dlam_constant(random.Random(seed)) == best


def test_measured_quadratic_constant_and_budget():
    assert measure_dlam_constant(random.Random(0)) == pytest.approx(1.0, abs=1e-12)
    # at C = c = 1: 4 sqrt(2)/16 + 16/256 + 1/2
    assert positivity_budget(4.0) == pytest.approx(0.9160533905932737)
    assert positivity_budget(4.0) < 1.0


def test_default_t_matches_the_gluing_radius():
    # t is chosen so the interpolation zone ends exactly at r = eps/2
    t = default_t_for_epsilon(0.1, 4.0)
    p = build_profile(t, 4.0, 1.0)
    assert math.sqrt(p.q) == pytest.approx(0.05, rel=1e-15)


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def test_profile_csv_export(tmp_path, profile):
    # the grid is evaluated in one batch; each row is the one-element call
    path = tmp_path / "profile.csv"
    small = build_profile(0.1, 4.0, 1.0)
    for p, n in ((profile, 50), (profile, 400), (small, 400)):
        p.export_csv(path, n=n)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,k,h,aprime"
        assert len(lines) == n + 1
        for line in lines[1:]:
            lam = float(line.split(",")[0])
            assert line == ",".join(f"{v:.17g}" for v in (
                lam, _one(p.k, lam), _one(p.h, lam), _one(p.slopes, lam)[2]))


def test_certificate_json_export(tmp_path, profile):
    rep = positivity_and_volume_certificate(profile, random.Random(0), n_r=60, n_ang=6)
    path = tmp_path / "cert.json"
    certificate_to_json(rep, path)
    data = json.loads(path.read_text())
    assert set(data) == {"t", "R", "c", "upsilon", "r_frak",
                         "min_margin", "min_ratio"}
