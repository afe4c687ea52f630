'''Premise checks for the Gromov-Hausdorff collapse of the two families.

The collapse theorems consume four kinds of sampled inequalities, which this
module certifies pointwise (the GH conclusion itself is a black-box theorem
and is never recomputed):

  * uniform convergence g^mu -> pi^* g of the rescaled metric families,
  * two-sided bounds g^mu >= La_mu^2 pi^* g with La_mu -> 1,
  * intrinsic fiber diameter decay in the shrinking surgery regions,
  * the global lower bound g^mu >= (1 - C De_0 / mu^3) ups^{4/3} f*g_E.

Each is read off a closed form: La_mu from one largest eigenvalue per
sample, limit lengths from the base block of g^infty.

Region conventions for the resolved nilmanifold family: "interior" is the
bulk where the form is left-invariant (theta-coframe); "chart" is a lattice
chart around a singular circle where the glued form phi^mu = xi^mu +
y1 dy^{147} + d[f alpha] lives (y-coordinates); "w_outer" is the surgery
annulus carrying mu^{-6}{...six fiber terms... + y1 dy^{147}} (y-coordinates).
'''
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np
from .catalog import (DEFAULT_EPSILON, ResolutionForms, _FFKM_TERMS,
                      _lam_sq, _point_row, glued_form_at, nakamura_model, phi_abl_mu,
                      phi_check_mu, surgery_profile)
from .ehmetric import normals
from .g2core import (DIM, TRIPLE_POS, TRIPLES, NotStableError, bilinear_from_3form,
                     is_g2_type, metric_batch, phi_to_vector, standard_phi)
from .rings import _exact_real


#: the decay exponent (mu^-3 or k^-3, slack 0.3) sup-gaps and fiber diameters must reach
RATE_BOUND = -2.7

#: the largest mu of an ffkm rate fit: the chart gap, of order mu^-6, is
#: 1.0e-12 at mu = 100; past 200 float rounding takes it over, and the rate
#: fitted on (2, mu) drifts from -6 to -4.72 at 1000 and -2.28 at 1e6
FFKM_MU_MAX = 100.0

#: the constant C of the global lower bound (1 - C De_0 / mu^3) ups^{4/3} f*g_E
LOWER_BOUND_C = 1.0


@dataclass
class MetricSample:
    """One evaluated metric: a symmetric 7x7 matrix at a tagged point."""
    region: str
    point: tuple
    mu: float
    matrix: np.ndarray
    limit: np.ndarray | None = None   # matching closed-form g^infty, if any

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (DIM, DIM):
            raise ValueError("metric samples are 7x7")
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-12):
            raise ValueError("metric sample must be symmetric")

    def gap(self) -> float:
        """Operator-norm distance to the closed-form limit."""
        if self.limit is None:
            raise ValueError("sample has no attached limit metric")
        return _op_norm(self.matrix - self.limit)


def _op_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=float), ord=2))


def _min_eig(m) -> float:
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[0])


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    xbar, ybar = sum(lx) / n, sum(ly) / n
    return (sum((x - xbar) * (y - ybar) for x, y in zip(lx, ly))
            / sum((x - xbar) ** 2 for x in lx))


# ----- product model: closed-form metric family ------------------------------

def nakamura_metric(alpha, beta, lam, mu) -> MetricSample:
    """Rescaled metric of phi(alpha, beta, lambda; mu) on the product model,
    in the invariant coframe (g^1, g^2, g^3, theta^4..theta^7), with its
    large-mu limit, the circle, attached.  The closed form diag(c_i) is
    checked on the form, exactly (parameters read as rationals): B = r g is
    diagonal with B_ii^3 = c_i^3 r^3, r^3 = 216 vol^3, and the float c_i
    match their cubes to 1e-10.  Then it is rescaled: mu^{-12} on the form
    is mu^{-8} on the metric."""
    alpha, beta, mu = (_exact_real(x, name) for x, name in
                       ((alpha, "alpha"), (beta, "beta"), (mu, "mu")))
    L = Fraction(_lam_sq(lam))     # so that every cube is a Fraction
    cubes = [mu ** 24 * alpha ** 6 / L ** 2, beta ** 6 * L / mu ** 12, L / mu ** 12] \
        + [mu ** 6 * L] * 4
    phi = phi_abl_mu(alpha, beta, lam, mu, nakamura_model())
    r3 = 216 * is_g2_type(phi).vol_cubed
    B = bilinear_from_3form(phi)
    if any(B[i][j] for i in range(DIM) for j in range(DIM) if i != j) \
            or any(B[i][i] ** 3 != c * r3 for i, c in enumerate(cubes)):
        raise AssertionError("closed-form metric disagrees with the B-map of the form")
    a, b, m, Lf = float(alpha), float(beta), float(mu), float(L)
    L13, L23 = Lf ** (1.0 / 3.0), Lf ** (2.0 / 3.0)
    diag = [m ** 8 * a ** 2 / L23, b ** 2 * L13 / m ** 4, L13 / m ** 4] \
        + [m ** 2 * L13] * 4
    worst = max(abs(Fraction(x) ** 3 / c - 1) for x, c in zip(diag, cubes))
    if worst > 1e-10:
        raise AssertionError(f"float metric disagrees with its exact cubes "
                             f"(relative gap {float(worst)})")
    limit = np.zeros((DIM, DIM))
    limit[0, 0] = a ** 2 / L23
    return MetricSample("product", (), m, np.diag(diag) / m ** 8, limit=limit)


def rescaled_decay_exponents(alpha, beta, lam, mu1: float, mu2: float) -> dict:
    """Measured decay rates of the two tail blocks of the rescaled metric:
    the fiber sympletic block (expected mu^-6) and the (g^2, g^3) block
    (expected mu^-12)."""
    mus = (mu1, mu2)
    g = [nakamura_metric(alpha, beta, lam, mu).matrix for mu in mus]
    return {"omega_block": _loglog_slope(mus, [m[3, 3] for m in g]),
            "transverse_block": _loglog_slope(mus, [m[1, 1] for m in g])}


# ----- convergence premises ---------------------------------------------------

def largest_lambda(mats, base) -> float:
    """Largest La with g - La^2 * base PSD at every sample g.  For g = L L^T
    positive definite, g - t * base is PSD iff t * lambda_max(L^-1 base L^-T)
    <= 1, so La^2 is the least 1 / lambda_max over the samples; a sample
    that is not positive definite gives La = 0."""
    top = 0.0
    for m in mats:
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(np.asarray(m, float)))
        except np.linalg.LinAlgError:
            return 0.0
        top = max(top, float(np.linalg.eigvalsh(Linv @ base @ Linv.T)[-1]))
    if top <= 0.0:
        raise ValueError("the base has no positive direction")
    return math.sqrt(1.0 / top)


def premise_check(samples, base) -> dict:
    """Certify the convergence premises on a mu-grid of samples: the largest
    La_mu with g^mu >= La_mu^2 * base everywhere, and sup|g^mu - base|.
    Verdict passes iff 1 - La_mu contracts along the grid (geometric factor
    0.9 per step, with additive slack 1e-9) and the sup-gap never grows.
    Raises ValueError for samples at fewer than two distinct mu."""
    base = np.asarray(base, float)
    by_mu: dict = {}
    for s in samples:
        by_mu.setdefault(float(s.mu), []).append(s.matrix)
    mus = sorted(by_mu)
    if len(mus) < 2:
        raise ValueError(f"contraction needs samples at two distinct mu, got {mus}")
    lambdas = {mu: largest_lambda(by_mu[mu], base) for mu in mus}
    gaps = {mu: max(_op_norm(m - base) for m in by_mu[mu]) for mu in mus}
    ok = True
    for prev, nxt in zip(mus, mus[1:]):
        if (1.0 - lambdas[nxt]) > 0.9 * (1.0 - lambdas[prev]) + 1e-9:
            ok = False
        if gaps[nxt] > gaps[prev] + 1e-12:
            ok = False
    return {"mus": mus, "lambdas": lambdas, "sup_gaps": gaps, "pass": ok}


# ----- resolved nilmanifold: region metrics -----------------------------------

def _w_outer_row(y1: float, mu: float) -> np.ndarray:
    """upphi^mu on the surgery annulus (outside the resolution core),
    dy^{123} + mu^{-6}{dy^{145} + ... + dy^{356} + y1 dy^{147}}, as its
    coefficient row in TRIPLES order."""
    c = float(mu) ** -6
    row = np.zeros(len(TRIPLES))
    for idx, s in _FFKM_TERMS:
        row[TRIPLE_POS[idx]] = c * s
    row[TRIPLE_POS[(1, 2, 3)]] = 1.0
    row[TRIPLE_POS[(1, 4, 7)]] = c * float(y1)
    return row


def w_outer_closed_form(y1: float, mu: float) -> np.ndarray:
    """The displayed closed form of g^mu on the annulus."""
    y1, m6 = float(y1), float(mu) ** -6
    fac = (1.0 - y1 ** 2 / 4.0) ** (-1.0 / 3.0)
    g = np.zeros((DIM, DIM))
    for i in range(3):
        g[i, i] = 1.0
    g[0, 2] = g[2, 0] = 0.5 * y1
    for i in range(3, 7):
        g[i, i] = m6
    g[3, 5] = g[5, 3] = 0.5 * y1 * m6
    g[4, 6] = g[6, 4] = 0.5 * y1 * m6
    return fac * g


def w_limit_metric(y1: float) -> np.ndarray:
    """g^infty on the annulus: the base block of the closed form."""
    g = w_outer_closed_form(y1, 1.0)
    g[3:] = g[:, 3:] = 0.0
    return g


def interior_limit_metric() -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


#: positions in TRIPLES of the triples with exactly two fiber indices (4..7)
_FIBER_PAIR_POS = [i for i, t in enumerate(TRIPLES) if sum(j >= 4 for j in t) == 2]


def _chart_limit_metric(phi_row: np.ndarray) -> np.ndarray:
    """Large-mu limit of g^mu on a gluing chart, from the (35,) coefficient
    row of phi^mu in TRIPLES order.  In the adapted coframe
    (dy^1, dy^2, dy^3, mu^{-3} dy^4, ..., mu^{-3} dy^7) the form phi^mu
    becomes a mu-independent perturbation of the standard 3-form plus
    O(mu^{-3}) terms; the limit metric is the base block of the metric of
    that perturbation, extended by zero on the fiber."""
    hat = np.zeros(len(TRIPLES))
    hat[_FIBER_PAIR_POS] = phi_row[_FIBER_PAIR_POS]
    hat[TRIPLE_POS[(1, 2, 3)]] = 1.0
    g = metric_batch(hat[None])[0][0]
    g[3:] = g[:, 3:] = 0.0
    return g


def ffkm_region_metrics(region: str, point, mu) -> MetricSample:
    """Evaluate g^mu from the actual forms of the resolved family, attach the
    matching closed-form limit metric g^infty, and cross-check any displayed
    closed form for g^mu itself: the interior metric, a Fraction matrix,
    exactly; the float annulus metric within 1e-10 max(1, |g|) in the
    operator norm."""
    m = float(mu)
    if region == "interior":
        # mu^-6 phi_check_mu has the metric g^mu / mu^4 = diag(1, 1, 1,
        # mu^-6 x 4), exactly
        fiber = Fraction(m) ** -6
        g = is_g2_type(fiber * phi_check_mu(m)).metric
        if g != [[x if i == j else 0 for j in range(DIM)]
                 for i, x in enumerate([1] * 3 + [fiber] * 4)]:
            raise AssertionError("interior metric disagrees with its display")
        return MetricSample(region, tuple(point or ()), m, np.array(g, dtype=float),
                            limit=interior_limit_metric())
    if region == "w_outer":
        pt = dict(point)
        y1 = float(pt.get("y1", 0.0))
        g = metric_batch(_w_outer_row(y1, m)[None])[0][0]
        closed = w_outer_closed_form(y1, m)
        if _op_norm(g - closed) > 1e-10 * max(1.0, _op_norm(closed)):
            raise AssertionError("annulus metric disagrees with its display")
        return MetricSample(region, tuple(sorted(pt.items())), m, g,
                            limit=w_limit_metric(y1))
    if region == "chart":
        pt = dict(point)
        res = glued_form_at(_point_row(pt), m)
        g = res["metric"][0] / m ** 4
        return MetricSample(region, tuple(sorted(pt.items())), m, g,
                            limit=_chart_limit_metric(res["phi"][0]))
    raise ValueError(f"unknown region {region!r}")


def region_gap_decay(region: str, point, mus) -> dict:
    """sup|g^mu - g^infty| over the mu grid and the fitted decay exponent."""
    gaps = [ffkm_region_metrics(region, point, mu).gap() for mu in mus]
    slope = _loglog_slope([float(mu) for mu in mus], [max(gp, 1e-300) for gp in gaps])
    return {"mus": list(mus), "gaps": gaps, "rate": slope}


# ----- global lower bound ------------------------------------------------------

def base_pullback() -> np.ndarray:
    """f*g_E: the pullback of the unit Euclidean metric on the base circle
    (the third coordinate in every region's coframe)."""
    g = np.zeros((DIM, DIM))
    g[2, 2] = 1.0
    return g


def lower_bound_global(mu, samples, Delta0: float) -> dict:
    """Check g^mu >= (1 - C De_0 / mu^3) ups^{4/3} f*g_E at every sample (C =
    LOWER_BOUND_C, ups of the surgery profile); a violation raises."""
    m = float(mu)
    pref = (1.0 - LOWER_BOUND_C * Delta0 / m ** 3) * surgery_profile().upsilon ** (4.0 / 3.0)
    target = pref * base_pullback()
    worst, at = min(((_min_eig(s.matrix - target), s) for s in samples),
                    key=lambda pair: pair[0])
    worst_sample = (at.region, at.point)
    if worst < -1e-10:
        raise AssertionError(f"lower bound fails at {worst_sample} "
                             f"(margin {worst})")
    return {"mu": m, "prefactor": pref, "min_eig_margin": worst,
            "worst_sample": worst_sample}


def resolution_equality_probe(mu) -> dict:
    """On the resolution region of catalog's surgery the bound's tight
    direction is dy^3 at the equality radius of the fiber volume estimate:
    the coefficient nu(r) with g_zeta >= nu^{4/3} (dy^3)^{x2} attains its
    minimum ups there.  Samples 60 radii around it, and r_eq itself."""
    rf = ResolutionForms(mu)
    profile = surgery_profile()
    ups, r_eq = profile.upsilon, profile.r_frak
    radii = np.append(np.linspace(0.55 * r_eq, 1.45 * r_eq, 60), r_eq)
    lams = radii * radii
    min_nu = float(np.sqrt(1.0 + profile.k(lams) / (2.0 * lams)).min())
    pts = np.zeros((len(radii), DIM))
    pts[:, 0] = radii
    g, _ = metric_batch(rf.zeta_rows(pts))
    bound_margin = float(np.linalg.eigvalsh(
        g - ups ** (4.0 / 3.0) * base_pullback())[:, 0].min())
    g_eq = g[-1]    # the last radius is r_eq
    return {"upsilon": ups, "min_nu": min_nu,
            "equality_gap": abs(g_eq[2, 2] - ups ** (4.0 / 3.0)),
            "bound_margin": bound_margin,
            "pass": (bound_margin >= -1e-10
                     and abs(min_nu - ups) <= 1e-9)}


# ----- limit quasi-Finsler structure -------------------------------------------

def _lift_norm(G: np.ndarray, u) -> float:
    """min |u'|_G over lifts u' with the base projection (first three
    coordinates) equal to u.  A limit metric vanishes on the fiber, so every
    lift costs sqrt(u^T G_bb u) with G_bb the base block; a G with a nonzero
    fiber entry is refused, not assumed away."""
    G = np.asarray(G, float)
    if G[3:].any() or G[:, 3:].any():
        raise ValueError("a limit metric with a nonzero fiber entry")
    return math.sqrt(max(u @ G[:3, :3] @ u, 0.0))


def limit_quasi_finsler(base_tag: str, direction, y1_samples=(0.0,)) -> float:
    """Length assigned to a base tangent direction by the limit structure:
    the min over fiber strata of the g^infty-norm of the cheapest lift; the
    singular stratum is ups^{4/3} (dy^3)^2, ups of the surgery profile."""
    u = np.asarray(direction, float)
    if not u.any():
        raise ValueError("direction must be nonzero")
    if base_tag == "generic":
        strata = [interior_limit_metric()]
    elif base_tag == "singular":
        if u[0] != 0.0 or u[1] != 0.0:
            raise ValueError("singular strata are tangent to the circle "
                             "direction only")
        sing = np.zeros((DIM, DIM))
        sing[2, 2] = surgery_profile().upsilon ** (4.0 / 3.0)
        strata = [w_limit_metric(y1) for y1 in y1_samples] + [sing]
    else:
        raise ValueError(f"unknown base stratum {base_tag!r}")
    return min(_lift_norm(G, u) for G in strata)


# ----- measured comparison constants -------------------------------------------

#: measure_metric_comparison's number of directions
COMPARISON_POINTS = 200


def measure_metric_comparison(rng) -> dict:
    """Measured constants (delta_1, De_0) of the pointwise comparison
    |g_phi - g_phi0| <= De_0 |phi - phi0| near the standard form: De_0 from
    the linearization at scale delta = 1e-4, delta_1 as the largest tested
    radius at which every sampled perturbation still yields a definite form,
    over COMPARISON_POINTS unit directions drawn from rng."""
    delta = 1e-4
    dirs = normals(rng, (COMPARISON_POINTS, 35))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    v0 = phi_to_vector(standard_phi())
    gs, _ = metric_batch(v0[None, :] + delta * dirs)
    eye = np.eye(DIM)
    Delta0 = float(np.linalg.norm(gs - eye, axis=(1, 2)).max()) / delta
    delta1 = 0.0
    for d1 in (0.5, 0.25, 0.125, 0.0625):
        try:
            metric_batch(v0[None, :] + d1 * dirs)
            delta1 = d1
            break
        except NotStableError:
            continue
    return {"Delta0": Delta0, "delta1": delta1, "n": COMPARISON_POINTS,
            "delta": delta}


def lc_vs_norm_holds(h, g) -> bool:
    """h <= ||h||_g * g for a symmetric form h and an inner product g, to a
    relative eigenvalue slack of 1e-10."""
    h = np.asarray(h, float)
    g = np.asarray(g, float)
    w, V = np.linalg.eigh(g)
    if w.min() <= 0:
        raise ValueError("g must be positive definite")
    S = V @ np.diag(w ** -0.5) @ V.T
    M = S @ h @ S
    norm = float(np.linalg.norm(M))
    return _min_eig(norm * np.eye(len(M)) - M) >= -1e-10 * max(norm, 1.0)


# ----- fiber diameter decay -----------------------------------------------------

def _path_lengths(rf: ResolutionForms, paths) -> list:
    """Lengths in the zeta^mu metric of polygonal paths, each an (m, 7)
    array of chart points: every segment's metric at its midpoint, all
    segments of all paths in one metric_batch call, and each path's
    segment lengths sqrt(v^T g v) summed in path order."""
    paths = [np.asarray(p, dtype=float) for p in paths]
    mids = np.concatenate([0.5 * (p[:-1] + p[1:]) for p in paths])
    steps = np.concatenate([p[1:] - p[:-1] for p in paths])
    g, _ = metric_batch(rf.zeta_mu_rows(mids))
    quad = (steps[:, None, :] @ g @ steps[:, :, None])[:, 0, 0]
    seg = np.sqrt(np.maximum(quad, 0.0)).tolist()
    ends = np.cumsum([len(p) - 1 for p in paths]).tolist()
    return [sum(seg[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _arc(p1, d2, n_seg):
    """Half great-circle from p1 to -p1 through the direction d2."""
    r = np.linalg.norm(p1)
    d1 = p1 / r
    pts = []
    for th in np.linspace(0.0, math.pi, n_seg + 1):
        pts.append(r * (math.cos(th) * d1 + math.sin(th) * d2))
    return pts


def fiber_diameter_probe() -> dict:
    """Path-length estimates of the intrinsic fiber diameters in the
    shrinking regions of catalog's resolution surgery.  Working in
    resolution coordinates, the fiber over a circle point inside the k-th
    region is the product of the resolved ball of radius eps/2 (mu/k)^3
    (eps = DEFAULT_EPSILON) with a 2-torus, carrying the resolved 3-form;
    coordinate-frame diameters are rescaled by mu^{-3}.
    The segment midpoints of a (mu, k) cell's paths go through
    ResolutionForms.zeta_mu_rows and one metric_batch call.  Fits the decay
    exponent in k at the largest mu, over k = 2, 4, 8 and mu = 8, 16, 32,
    with 16 segments per half great-circle."""
    ks, mus, n_seg = (2, 4, 8), (8, 16, 32), 16
    table = {}
    for mu in mus:
        rf = ResolutionForms(mu)
        for k in ks:
            # at mu close to k the rescaled torus factor (size ~ mu^-3, not
            # k^-3) would dominate the estimate, so keep mu >= 2k
            if mu < 2 * k:
                continue
            R = 0.5 * DEFAULT_EPSILON * (float(mu) / k) ** 3
            # antipodal pairs on the boundary sphere of the resolved ball,
            # joined by half great-circles (paths avoid the exceptional set)
            axes = [np.array([1.0, 0, 0, 0, 0, 0, 0]),
                    np.array([0, 1.0, 0, 0, 0, 0, 0]),
                    np.array([0, 0, 0, 0, 1.0, 0, 0])]
            paths = [_arc(R * d1, axes[(i + 1) % len(axes)], n_seg)
                     for i, d1 in enumerate(axes)]
            # torus direction: half-period displacement along y^4
            start = R * axes[0]
            stop = start + np.array([0, 0, 0, 0.5, 0, 0, 0])
            paths.append([start + t * (stop - start)
                          for t in np.linspace(0.0, 1.0, 5)])
            best = max([0.0] + _path_lengths(rf, paths))
            table[(k, float(mu))] = best / float(mu) ** 3
    mu_top = float(max(mus))
    ks_fit = [k for k in ks if (k, mu_top) in table]
    slope = _loglog_slope(ks_fit, [table[(k, mu_top)] for k in ks_fit])
    monotone = all(table[(k1, float(mu))] >= table[(k2, float(mu))] - 1e-12
                   for mu in mus
                   for k1, k2 in zip(ks, ks[1:])
                   if (k1, float(mu)) in table and (k2, float(mu)) in table)
    const_spread = {}
    for k in ks:
        vals = [table[(k, float(mu))] * k ** 3 for mu in mus
                if (k, float(mu)) in table]
        if len(vals) > 1:
            const_spread[k] = max(vals) / min(vals)
    return {"table": table, "exponent": slope,
            "exponent_ok": slope <= RATE_BOUND,
            "monotone_in_k": monotone,
            "constant_spread": const_spread,
            "mu_uniform": all(v <= 2.0 for v in const_spread.values())}


# ----- exports ------------------------------------------------------------------

def report_to_json(report: dict, path) -> None:
    """Indented JSON; numpy arrays and scalars go through their tolist()."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=lambda o: o.tolist())
