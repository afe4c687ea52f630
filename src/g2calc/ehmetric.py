'''Eguchi-Hanson interpolation on C^2/{+-1} minus the origin.

The Kaehler ansatz om = a'(lam) om_hat + (1/4) a''(lam) d(lam) ^ d^c(lam),
lam = r^2, is Ricci-flat exactly when d/dlam [lam^2 a'^2] = 2 lam; integrating
gives the Eguchi-Hanson potential slope a'_t = sqrt(1 + t^4/lam^2).

To glue this into a compactly supported modification of the flat form, the
slope is deformed to

    al'_t(lam) = sqrt(1 + t^4/lam^2 + h_t(lam)/lam^2),

where h_t(lam) = int_0^lam k_t and the bump k_t satisfies, with q = t^2 R^2:
k_t == 0 on [0, q/4] and near q; int_0^q k_t = -t^4; k_t(lam) >= -c lam with
equality attained at some radius fr_t in (tR/2, tR).  Then the interpolated
form om_check_t agrees with the Eguchi-Hanson form for r <= tR/2, with the
flat form om_hat for r >= tR, and its volume ratio om_check^2 / vol_0 =
2 + k_t(r^2)/r^2 never drops below 2 ups^2, ups = sqrt(1 - c/2).

Construction of k_t: a mollified plateau, k_t(lam) = -c lam B(lam/q) with
B = chi_[p_lo, p_hi] * psi_rho (indicator convolved with a C-infinity bump).
Mollification preserves the first moment, so int_0^q k_t =
-c q^2 (p_hi^2 - p_lo^2)/2 exactly and p_hi is solved in closed form; B == 1
on the plateau [p_lo + rho, p_hi - rho], which pins the equality radius.  All
shape parameters depend only on (c, R), giving exact scale equivariance
k_{s t}(s^2 lam) = s^2 k_t(lam).

Every sampled quantity here has one implementation, and it takes arrays
only: the profile functions and slopes take a 1-d array of lam, the
mollifier's integral an array of upper limits, and omega_at an (n, 4) array
of points; a single lam or point is a one-element call.  The certificate and
the CSV export evaluate the profile once per grid.  Squares are products
x·x, as in `rings`, and every Gauss-Legendre sum goes through `_gl`, row by
row, never by a BLAS product, so a lam gets the same bits alone or in any
batch: a lam's CSV row does not depend on the grid size.
'''
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cache

from ._numpy import np


class Infeasible(ValueError):
    """R below the feasibility threshold R0(c) = (32/(15c))^{1/4}."""


class ConstructionFailed(RuntimeError):
    """The smoothed bump could not satisfy all profile requirements."""


def feasibility_threshold(c: float) -> float:
    """R0(c): the mass budget 15 c R^4 / 32 > 1 needs R > R0(c)."""
    if not 0.0 < c < 2.0:
        raise ValueError("c must lie in (0, 2)")
    return (32.0 / (15.0 * c)) ** 0.25


# ----- mollifier kernel ------------------------------------------------------

#: the 48 positive nodes of the 96-point Gauss-Legendre rule on [-1, 1],
#: ascending, and their weights, as round-trip literals of
#: np.polynomial.legendre.leggauss(96)[k][48:].  leggauss makes the rule
#: exactly symmetric, so the mirror images give all 96 nodes and weights of
#: leggauss(96) bit for bit (a test pins them), and no import pays for
#: numpy.polynomial or its eigensolve.
_GL_POS_NODES = (
    0.016276744849602967, 0.04881298513604974, 0.08129749546442555, 0.11369585011066592,
    0.14597371465489695, 0.17809688236761861, 0.2100313104605672, 0.24174315616384,
    0.27319881259104917, 0.30436494435449635, 0.3352085228926254, 0.3656968614723136,
    0.3957976498289086, 0.42547898840730053, 0.454709422167743, 0.48345797392059636,
    0.5116941771546677, 0.5393881083243575, 0.5665104185613972, 0.593032364777572,
    0.6189258401254686, 0.6441634037849671, 0.6687183100439161, 0.6925645366421715,
    0.7156768123489676, 0.7380306437444001, 0.7596023411766475, 0.7803690438674332,
    0.8003087441391408, 0.8194003107379316, 0.8376235112281871, 0.8549590334346014,
    0.8713885059092965, 0.8868945174024204, 0.9014606353158523, 0.9150714231208981,
    0.9277124567223087, 0.9393703397527552, 0.9500327177844377, 0.9596882914487426,
    0.9683268284632642, 0.9759391745851365, 0.9825172635630147, 0.9880541263296237,
    0.9925439003237626, 0.9959818429872093, 0.9983643758631817, 0.9996895038832307,
)
_GL_POS_WEIGHTS = (
    0.03255061449236328, 0.03251611871386895, 0.0324471637140644, 0.03234382256857602,
    0.03220620479403032, 0.032034456231992796, 0.03182875889441112, 0.03158933077072725,
    0.03131642559686141, 0.03101033258631393, 0.030671376123669266, 0.03029991542082777,
    0.029896344136328506, 0.029461089958168016, 0.02899461415055532, 0.028497411065085413,
    0.02797000761684837, 0.027412962726029232, 0.02682686672559185, 0.026212340735672593,
    0.025570036005349364, 0.024900633222483814, 0.02420484179236482, 0.023483399085926292,
    0.022737069658329466, 0.02196664443874457, 0.021172939892191354, 0.020356797154333365,
    0.019519081140145382, 0.01866067962741174, 0.017782502316045286, 0.016885479864245195,
    0.015970562902562345, 0.015038721026994927, 0.014090941772314894, 0.013128229566961646,
    0.012151604671088057, 0.01116210209983861, 0.010160770535008306, 0.009148671230783011,
    0.0081268769256983, 0.007096470791153821, 0.006058545504235195, 0.005014202742928604,
    0.003964554338444405, 0.0029107318179352943, 0.0018539607889441585, 0.0007967920655518723,
)


@cache
def _gl_rule():
    """All 96 nodes and weights, as arrays, built on the first quadrature."""
    return (np.concatenate((-np.array(_GL_POS_NODES[::-1]), _GL_POS_NODES)),
            np.concatenate((_GL_POS_WEIGHTS[::-1], _GL_POS_WEIGHTS)))


def _bump(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def _gl(f, a: float, b) -> np.ndarray:
    """Gauss-Legendre integrals of a smooth vectorized integrand over
    [a, b_i], one per entry of the 1-d array b of upper limits; the kernel
    is flat to all orders at its endpoints, so 96 nodes reach roundoff.
    Each row is one elementwise product and row sum, not a BLAS product,
    whose rounding depends on how many rows are batched."""
    b = np.asarray(b, dtype=float)
    nodes, weights = _gl_rule()
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    vals = f(mid[:, None] + half[:, None] * nodes)
    return half * (vals * weights).sum(axis=1)


@cache
def _bump_mass() -> float:
    """The kernel's integral over [-1, 1], the kernel CDF's normaliser."""
    return _gl(_bump, -1.0, [1.0])[0]


def _psi(x):
    """Kernel CDF on [-1, 1], on an array: an x gets the same bits alone or
    in any batch."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo, hi = x <= -1.0, x >= 1.0
    out[lo], out[hi] = 0.0, 1.0
    mid = ~(lo | hi)
    if mid.any():
        out[mid] = _gl(_bump, -1.0, x[mid]) / _bump_mass()
    return out


def _plateau(u, lo, hi, w):
    """B(u) = psi((u - lo)/w) - psi((u - hi)/w): the indicator of [lo, hi]
    mollified by the kernel of half-width w; 0 <= B <= 1, and B == 1 on
    [lo + w, hi - w]."""
    u = np.asarray(u, dtype=float)
    return _psi((u - lo) / w) - _psi((u - hi) / w)


#: _plateau_integral's complete shoulders, (p, lo, hi, w, side) -> integral,
#: filled on first use of a parameter set
_SHOULDER_MEMO = {}


def _plateau_integral(u, p: int, lo: float, hi: float, w: float):
    """int_{-oo}^u v^p B(v) dv for p in {0, 1}, entry by entry on an array
    u: Gauss-Legendre over the two mollifier shoulders, the flat part in
    closed form.  When the shoulders overlap (hi - lo < 2w) there is no flat
    part and they meet at the midpoint.  A shoulder that u has passed is
    integrated once per (p, lo, hi, w) and memoised; a partial one, with u
    inside it, is integrated by one call per u.  Each such call holds the
    kernel CDF's (96, 96) node grid; one call for all n of a shoulder's
    points would hold (96 n, 96) arrays, which already at the n <= 4 of
    an `eh` run raise the peak RSS of `eh` and of `verify`."""
    u = np.asarray(u, dtype=float)
    total = np.zeros(u.shape)
    mid = 0.5 * (lo + hi)
    flat_lo, flat_hi = min(lo + w, mid), max(hi - w, mid)
    def f(v):
        return v ** p * _plateau(v, lo, hi, w)
    def add_shoulder(side, a, b):
        past, part = u >= b, (u > a) & (u < b)
        if past.any():
            key = (p, lo, hi, w, side)
            if key not in _SHOULDER_MEMO:
                _SHOULDER_MEMO[key] = _gl(f, a, [b])[0]
            total[past] += _SHOULDER_MEMO[key]
        total[part] += [_gl(f, a, [x])[0] for x in u[part].tolist()]
    add_shoulder("lo", lo - w, flat_lo)
    flat = u > flat_lo
    # x ** (p + 1) as x * x ** p: the product x·x at p = 1
    top = np.minimum(u[flat], flat_hi)
    total[flat] += (top * top ** p - flat_lo * flat_lo ** p) / (p + 1)
    add_shoulder("hi", flat_hi, hi + w)
    return total


@dataclass
class EHProfile:
    """Interpolation profile data; all lengths in lam = r^2 units.  The
    profile functions k, h and slopes take a 1-d array of lam only; a single
    lam is a one-element call, with the bits of its entry in any batch."""
    t: float
    R: float
    c: float
    q: float                     # t^2 R^2, outer edge of the bump's domain
    p_lo: float                  # plateau parameters, in units of q
    p_hi: float
    rho: float                   # mollifier half-width, in units of q
    upsilon: float = field(init=False)
    r_frak: float = field(init=False)

    def __post_init__(self):
        self.upsilon = math.sqrt(1.0 - self.c / 2.0)
        # equality radius: plateau midpoint
        self.r_frak = math.sqrt(0.5 * (self.p_lo + self.p_hi) * self.q)

    def k(self, lams):
        """k_t(lam) = -c lam B(lam/q), B the mollified plateau; 0 at lam <= 0."""
        return np.where(lams > 0, -self.c * lams * _plateau(
            lams / self.q, self.p_lo, self.p_hi, self.rho), 0.0)

    def _moment(self, u):
        """int_0^u v B(v) dv, entry by entry on an array u."""
        return _plateau_integral(u, 1, self.p_lo, self.p_hi, self.rho)

    def h(self, lams):
        """h_t(lam) = int_0^lam k_t, in [-t^4, 0]: past the memoised complete
        shoulders a closed form in lam, whose square is the product x·x, and
        one quadrature for each lam inside a shoulder."""
        return np.where(lams > 0, -self.c * self.q ** 2 * self._moment(
            lams / self.q), 0.0)

    def slopes(self, lams):
        """(k, h, al', al'') at lam, from one evaluation of k and of h."""
        if (lams <= 0).any():
            raise ValueError("lam must be positive")
        k, h = self.k(lams), self.h(lams)
        val = 1.0 + (self.t ** 4 + h) / lams ** 2
        if (val <= 0).any():
            bad = int(np.argmax(val <= 0))
            raise ConstructionFailed(f"al'^2 = {float(val[bad])} <= 0 "
                                     f"at lam = {float(lams[bad])}")
        ap = np.sqrt(val)
        app = 0.5 * (k / lams ** 2 - 2.0 * (self.t ** 4 + h) / lams ** 3) / ap
        return k, h, ap, app

    def export_csv(self, path, n: int) -> None:
        """One row (lam, k, h, al') per lam of an n-point grid; a lam's row
        is the same whatever n."""
        lams = np.linspace(self.q / 8.0, self.q * 1.05, n)
        k, h, ap, _ = self.slopes(lams)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "k", "h", "aprime"])
            w.writerows([f"{v:.17g}" for v in row] for row in
                        zip(lams.tolist(), k.tolist(), h.tolist(), ap.tolist()))


def build_profile(t: float, R: float, c: float = 1.0) -> EHProfile:
    """Construct the smoothed bump k_t for parameters (t, R, c).

    The plateau's upper edge p_hi is solved in closed form and then nudged,
    in at most four profiles, until the bump's first moment as evaluated
    hits its target.  The tolerance is what a double p_hi can attain: one
    ulp of p_hi moves the moment by p_hi ulp(p_hi), so the loop stops when
    a nudge returns to a p_hi already built: one below half an ulp (at R = 4,
    c = 1, the first profile), or two neighbours one ulp apart that each call
    for just over half an ulp toward the other.  The last profile built is
    returned, and its relative gap above 1e-12 raises ConstructionFailed."""
    if t <= 0:
        raise ValueError("t must be positive")
    R0 = feasibility_threshold(c)
    if R <= R0:
        raise Infeasible(f"R = {R} <= R0(c) = {R0}")
    q = t ** 2 * R ** 2
    # needed first moment of B, in q-units: int u B(u) du = t^4 / (c q^2)
    moment = 1.0 / (c * R ** 4)
    p_lo = 0.3
    p_hi_sq = p_lo ** 2 + 2.0 * moment
    p_hi = math.sqrt(p_hi_sq)
    if p_hi >= 0.97:
        raise ConstructionFailed(
            f"bump upper edge {p_hi} leaves no room below q "
            f"(R = {R} too close to the threshold {R0})")
    rho = min(1.0 / 40.0, 0.25 * (p_hi - p_lo), 0.5 * (1.0 - p_hi))
    if rho <= 0:
        raise ConstructionFailed("degenerate plateau")
    # exact mass correction: mollification preserves the first moment
    # analytically, but the evaluated (tabulated) bump carries quadrature
    # error; nudge p_hi so the moment of the function as evaluated hits the
    # target (d moment / d p_hi = p_hi, the kernel mean at the right edge),
    # until the nudge leaves p_hi as it is or returns to one already built
    built = set()
    for _ in range(4):
        profile = EHProfile(t=float(t), R=float(R), c=float(c), q=q,
                            p_lo=p_lo, p_hi=p_hi, rho=rho)
        built.add(p_hi)
        gap = moment - profile._moment([1.0])[0]
        p_hi += gap / p_hi
        if p_hi in built:
            break
    # the last gap is the returned profile's: a p_hi nudged after it is unused
    if abs(gap) > 1e-12 * moment:
        raise ConstructionFailed("mass correction did not converge")
    return profile


def default_t_for_epsilon(epsilon: float, R: float) -> float:
    """Default linkage t = epsilon / (2R): the interpolation annulus
    (tR/2, tR) then sits inside (epsilon/4, epsilon/2)."""
    if epsilon <= 0 or R <= 0:
        raise ValueError("epsilon and R must be positive")
    return epsilon / (2.0 * R)


# ----- pointwise matrix evaluation -------------------------------------------

_J0 = ((0.0, 1.0, 0.0, 0.0),
       (-1.0, 0.0, 0.0, 0.0),
       (0.0, 0.0, 0.0, 1.0),
       (0.0, 0.0, -1.0, 0.0))


def eh_aprime(t: float, lams):
    """Pure Eguchi-Hanson slope sqrt(1 + t^4/lam^2) on a 1-d array of lam."""
    if (lams <= 0).any():
        raise ValueError("lam must be positive")
    return np.sqrt(1.0 + float(t) ** 4 / lams ** 2)


_UPPER = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def _upper(x1, y1, x2, y2, ap, app) -> dict:
    """Entries (i, j), i < j, of ap om_hat + (1/4) app dlam ^ d^c lam at
    (x1, y1, x2, y2); floats, or numpy arrays that broadcast together."""
    u = (2.0 * x1, 2.0 * y1, 2.0 * x2, 2.0 * y2)       # d(lam)
    v = (-2.0 * y1, 2.0 * x1, -2.0 * y2, 2.0 * x2)     # d^c(lam)
    return {(i, j): ap * _J0[i][j] + 0.25 * app * (u[i] * v[j] - v[i] * u[j])
            for i, j in _UPPER}


def _profile_slopes(profile: EHProfile, lams) -> tuple:
    """(k, al', al'') of om_check_t on a 1-d array of lam: from
    profile.slopes below q, which in the core lam <= q/4 (k == h == 0) is
    pure Eguchi-Hanson bit for bit, and exactly flat for lam >= q (k == 0,
    h == -t^4), where slopes would leave an al'' of roundoff."""
    k, ap, app = np.zeros(lams.shape), np.ones(lams.shape), np.zeros(lams.shape)
    inside = lams < profile.q
    if inside.any():
        k[inside], _, ap[inside], app[inside] = profile.slopes(lams[inside])
    return k, ap, app


def omega_at(points, profile: EHProfile):
    """Evaluate om_check_t of the profile on C^2/{+-1} minus the origin, on
    the rows (x1, y1, x2, y2) of an (n, 4) array: an (n, 4, 4) array, column
    by column, so slice i has the bits of the one-row call at point i."""
    rows = np.asarray(points, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) array of points, got shape {rows.shape}")
    out = np.zeros((len(rows), 4, 4))
    x1, y1, x2, y2 = rows.T
    lam = ((x1 * x1 + y1 * y1) + x2 * x2) + y2 * y2
    if (lam <= 0).any():
        raise ValueError("the origin is excluded")
    _, ap, app = _profile_slopes(profile, lam)
    for (i, j), m in _upper(x1, y1, x2, y2, ap, app).items():
        out[:, i, j], out[:, j, i] = m, -m
    return out


def _pfaffian4(up):
    return up[0, 1] * up[2, 3] - up[0, 2] * up[1, 3] + up[0, 3] * up[1, 2]


def _two_form_norm(entries):
    """|eta|_{om_hat} of the 2-form with these upper entries (i < j, in
    _UPPER order), with the normalization |om_hat| = sqrt(2)."""
    return np.sqrt(sum(e ** 2 for e in entries))


def _directions(n_ang: int, rng):
    """n_ang >= 1 unit vectors of R^4, the rows of an (n_ang, 4) array:
    standard normals drawn by rng.gauss from the stdlib generator rng,
    normalised.  The directions are a witness of U(2) invariance, so
    another draw moves a certificate only at roundoff."""
    dirs = np.array([[rng.gauss(0.0, 1.0) for _ in range(4)]
                     for _ in range(n_ang)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


# ----- seeded draws ------------------------------------------------------------
# Every sampled quantity of the package draws from a stdlib random.Random
# seeded by the command's --seed, so no command imports numpy's generators.
# Its draws are scalar calls; arrays of them are filled in bulk here.

def uniforms(rng, lo: float, hi: float, shape: tuple) -> np.ndarray:
    """An array of the given shape of uniforms lo + (hi - lo) u on [lo, hi],
    u = rng.random() in row-major order, as rng.uniform(lo, hi) draws one."""
    u = np.array([rng.random() for _ in range(math.prod(shape))])
    return lo + (hi - lo) * u.reshape(shape)


def normals(rng, shape: tuple) -> np.ndarray:
    """An array of the given shape of standard normals, by the Box-Muller
    transform of pairs of uniforms u = rng.random() (one array transform
    for the batch, where rng.gauss costs a Python call per normal): the
    first half of the draws give the radii sqrt(-2 log(1 - u)), the second
    half the angles 2 pi u, and the cosines fill the array before the
    sines."""
    n = math.prod(shape)
    m = (n + 1) // 2
    u = np.array([rng.random() for _ in range(2 * m)])
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:m])), 2.0 * math.pi * u[m:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)


# ----- certification ---------------------------------------------------------

def ricci_residual(t: float, lams) -> float:
    """Largest finite-difference residual of d/dlam[lam^2 a'^2] - 2 lam = 0
    over an array of lam, evaluated once on the whole array."""
    lams = np.asarray(lams, dtype=float)

    def f(x):
        ap = eh_aprime(t, x)
        return x * x * (ap * ap)

    # central differences are exact for the quadratic lam^2 a'^2, so a
    # generous step only suppresses rounding in the difference quotient
    dl = 1e-4 * lams
    deriv = (f(lams + dl) - f(lams - dl)) / (2.0 * dl)
    return float(np.abs(deriv - 2.0 * lams).max(initial=0.0))


def positivity_and_volume_certificate(profile: EHProfile, rng, n_r: int,
                                      n_ang: int = 20) -> dict:
    """Grid certificate over r in [tR/2 (1-delta), tR (1+delta)], delta = 0.05:
    positivity margin |om_hat - om_check|_{om_hat} < 1, volume ratio
    om_check^2 / vol_0 >= 2 ups^2, and the closed-form ratio cross-check.
    A margin that is not positive raises ConstructionFailed.

    om_check = a'(lam) om_hat + (1/4) a''(lam) dlam ^ d^c lam is U(2)-
    invariant: U(2) fixes om_hat, the flat metric and lam = r^2, hence
    dlam ^ d^c lam, and it is transitive on each sphere |x| = r.  So the
    margin and the ratio depend on r alone, and the profile (k, a', a'') is
    evaluated once, on the whole grid of radii.  The n_ang directions are
    kept as a witness of that invariance; their spread at one radius is
    roundoff.  They are _directions(n_ang, rng), so by the same invariance
    the margin and the ratio at any two draws agree to roundoff."""
    if n_r < 1 or n_ang < 1:
        raise ValueError("the grid needs at least one radius and one direction")
    t, R, delta = profile.t, profile.R, 0.05
    radii = np.linspace(0.5 * t * R * (1.0 - delta), t * R * (1.0 + delta), n_r)
    dirs = _directions(n_ang, rng)
    lams = radii * radii
    k, ap, app = (col[:, None] for col in _profile_slopes(profile, lams))
    ratio_formula = 2.0 + k / lams[:, None]
    # dlam ^ d^c lam at r d is r^2 times its value at the unit vector d, so
    # om_check is one (n_r, n_ang) array per upper entry, broadcast from
    # (n_r, 1) profile columns and (n_ang,) direction rows
    up = _upper(*dirs.T, ap, app * lams[:, None])
    margin = 1.0 - _two_form_norm(          # 1 - |om_hat - om_check|
        _J0[i][j] - m for (i, j), m in up.items())
    ratio = 2.0 * _pfaffian4(up)
    worst = int(np.argmin(margin))        # first minimum in (r, direction) order
    min_margin = float(margin.flat[worst])
    worst_r = float(radii[worst // n_ang])
    min_ratio = float(ratio.min())
    max_formula_gap = float(np.abs(ratio - ratio_formula).max())
    floor = 2.0 * profile.upsilon ** 2
    report = {"t": t, "R": R, "c": profile.c, "upsilon": profile.upsilon,
              "upsilon_measured": math.sqrt(max(min_ratio, 0.0) / 2.0),
              "r_frak": profile.r_frak, "min_margin": min_margin,
              "min_ratio": min_ratio, "volume_floor": floor,
              "pfaffian_vs_formula": max_formula_gap,
              "volume_ok": min_ratio >= floor - 1e-9,
              "worst_r": worst_r}
    if not min_margin > 0.0:
        raise ConstructionFailed(
            f"positivity margin {min_margin} violated at r = {worst_r}")
    return report


def certificate_to_json(report: dict, path) -> None:
    keep = {k: report[k] for k in
            ("t", "R", "c", "upsilon", "r_frak", "min_margin", "min_ratio")}
    with open(path, "w") as fh:
        json.dump(keep, fh, indent=2)


def fd_d(field, y0, h: float, triples) -> list:
    """Central-difference d of a 2-form field at the point y0: for each
    triple (i, j, k) of 1-based axes, i < j < k, the value
    (d eta)_ijk = d_i eta_jk - d_j eta_ik + d_k eta_ij.  field(ys) takes an
    (m, dim) array of points and returns the coefficients of eta there as
    length-m columns keyed by index pairs (i, j), i < j, absent pairs being
    zero; it is called once, on the points y0 + h e_a and then y0 - h e_a
    for each axis a that the triples use, in increasing order."""
    axes = sorted({a for tri in triples for a in tri})
    y0 = np.asarray(y0, dtype=float)
    steps = np.zeros((len(axes), len(y0)))
    steps[np.arange(len(axes)), np.array(axes) - 1] = h
    cols = field(np.concatenate([y0 + steps, y0 - steps]))
    row = {a: n for n, a in enumerate(axes)}

    def quotient(a, pair):
        if pair not in cols:
            return 0.0
        col = cols[pair]
        return (float(col[row[a]]) - float(col[len(axes) + row[a]])) / (2.0 * h)

    return [quotient(i, (j, k)) - quotient(j, (i, k)) + quotient(k, (i, j))
            for i, j, k in triples]


#: closedness_residual's drawn points, besides its three pinned ones
CLOSEDNESS_DRAWS = 6


def closedness_residual(profile: EHProfile, rng) -> dict:
    """Finite-difference d(om_check), which vanishes as om_check is d of a
    potential, at points in directions drawn from rng: CLOSEDNESS_DRAWS at
    radii drawn uniformly in [0.55, 0.95] tR, and three pinned by u = lam/q:
    the middle of each of the bump's shoulders, u = p_lo and u = p_hi, where
    k is steepest, and u = 1/4, below the bump's support (pure
    Eguchi-Hanson).  Each component is the Richardson extrapolation
    (4 D(h/2) - D(h))/3 of two central differences, h = 3e-6 tR: it cancels
    their h^2 d^3(om)/6 term, which alone, where the step crosses a
    shoulder, exceeds 1e-6.  Returns the largest |d om_check| (residual),
    the u of its point and the number of points."""
    tR = profile.t * profile.R
    hstep = 3e-6 * tR
    triples = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    us = [profile.p_lo, profile.p_hi, 0.25]
    us += (uniforms(rng, 0.55, 0.95, (CLOSEDNESS_DRAWS,)) ** 2).tolist()
    dirs = normals(rng, (len(us), 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def field(ps):
        M = omega_at(ps, profile=profile)
        return {(i + 1, j + 1): M[:, i, j] for i, j in _UPPER}

    def residual(u, d):
        pt = d * (math.sqrt(u) * tR)
        fine = fd_d(field, pt, 0.5 * hstep, triples)
        coarse = fd_d(field, pt, hstep, triples)
        return max(abs(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))

    worst, worst_u = max((residual(u, d), u) for u, d in zip(us, dirs))
    return {"residual": worst, "u": worst_u, "points": len(us)}


#: measure_dlam_constant's grid: its radii and its directions
DLAM_RADII, DLAM_DIRECTIONS = 20, 10


def measure_dlam_constant(rng) -> float:
    """Smallest C with |d(r^2) ^ d^c(r^2)|_{om_hat} <= 4 C r^2 on DLAM_RADII
    radii in DLAM_DIRECTIONS directions drawn from rng (the ratio is
    scale-invariant, so radii are a formality): the check of
    positivity_budget's C = 1."""
    r = np.linspace(0.1, 2.0, DLAM_RADII)[:, None]
    # one (radii, directions) array per entry of (1/4) dlam ^ dclam, scaled by 4
    up = _upper(*(r * _directions(DLAM_DIRECTIONS, rng).T[:, None, :]), 0.0, 1.0)
    return float((4.0 * _two_form_norm(up.values()) / (4.0 * r * r)).max())


def positivity_budget(R: float) -> float:
    """Left side of the proof's sufficient condition 4 sqrt(2)/R^2 + 16 C/R^4
    + C c/2 < 1 with c = 1/C, at C = 1: dlam and d^c lam are orthogonal of
    length 2r, so |dlam ^ d^c lam|_{om_hat} = 4 lam (measure_dlam_constant)."""
    return 4.0 * math.sqrt(2.0) / R ** 2 + 16.0 / R ** 4 + 0.5
