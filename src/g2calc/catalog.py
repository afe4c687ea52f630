'''The two explicit 7-manifold constructions used throughout the package.

* A mapping-torus product ``N = X x S^1`` of a complex solvmanifold X,
  carrying an invariant SU(2)-type fiber structure (omega, rho, Omega) and a
  four-parameter family of closed definite 3-forms phi(alpha, beta, lambda)
  together with a cohomology-class detector ch.  The family is linear in
  six fixed basis 3-forms (g^123, g^1 ^ omega and g^2, g^3 wedged with
  Re Omega and Im Omega), which are wedged once per model, on first use;
  phi(alpha, beta, lambda; mu) is their sum with the parameters' products
  as coefficients, over one common denominator.  ch's five pairing 4-forms
  and its unit are made once per model in the same way.

* A 2-step nilmanifold M with a non-free involution, its orbifold quotient,
  chart coordinates around the singular locus, a cutoff-glued family of
  definite 3-forms with unbounded volume in a fixed class, the surgery data
  for resolving the singular locus by Eguchi-Hanson interpolation, and the
  region-by-region primitive ledger certifying exactness of phi^mu - phi.
  Its invariant family phi-check^mu is the same kind of sum, of the flat
  form and theta^123.

All polynomial identities here are verified in exact rational arithmetic;
the smooth cutoff enters numerically only.  Each sampled quantity (the
cutoff, the chain rule d[f(r/s) a], the surgery forms, the gap norms) has
one implementation, and it takes arrays only: the cutoff an array of s, the
others point columns; a single s or point is a one-element call.  Squares
are products x·x, as in `rings`, so a point gets the same bits alone or in
any batch.
'''
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations

from ._numpy import np
from .ehmetric import (_UPPER, _plateau, _plateau_integral, build_profile,
                       default_t_for_epsilon, fd_d, omega_at, uniforms)
from .forms import _MASKS, KForm, PolynomialMap, _add_term, chart_vars, merge_sign, poly_ring
from .g2core import (TRIPLE_POS, TRIPLES, is_g2_type, metric_batch, norm_batch,
                     phi_to_vector)
from .liecdga import InvariantModel, StructureEqs, check_d_squared, d_invariant
from .rings import RAT, Poly, _exact_real

Q = Fraction

# ===========================================================================
# smooth cutoff
# ===========================================================================

class CutoffFn:
    """Smooth transition profile on [0, oo).

    A linear ramp on [a, b] = [0.55, 0.95] mollified by the compactly
    supported bump exp(-1/(1-z^2)) of half-width h = 0.04: the result
    vanishes on [0, 0.51], equals 1 on [0.99, oo) and has derivative
    bounded by 1/(b - a) = 2.5 < 3.  The derivative is the mollified plateau
    of `ehmetric` (the same kernel as the Eguchi-Hanson bump k_t) on [a, b],
    divided by the ramp length, and the value is its integral, by the same
    96-node Gauss-Legendre rule.  Against a 30-digit quadrature of the
    defining convolution over the ramp, the values are within 4e-16 and the
    derivatives within 6e-15.  (A ramp shorter than 2h, where the
    mollifier's shoulders overlap, is only within about 1e-11.)  The lower
    shoulder's complete integral is computed once per (a, b, h) and
    memoised; a value inside a shoulder integrates that part on every call.
    The value and the derivative take a 1-d array of s only (a single s
    is a one-element call), so an entry does not depend on its batch; like
    every sampled quantity here they square by the product x·x, never by a
    float power.
    """

    #: the ramp [a, b] and the mollifier's half-width: 1/2 < a - h, b + h <= 1
    a, b, h = 0.55, 0.95, 0.04

    def __call__(self, s):
        # exactly 0 below the ramp, where no shoulder has begun
        total = _plateau_integral(s, 0, self.a, self.b, self.h) / (self.b - self.a)
        return np.where(s >= self.b + self.h, 1.0, np.clip(total, 0.0, 1.0))

    def deriv(self, s):
        outside = (s <= self.a - self.h) | (s >= self.b + self.h)
        return np.where(outside, 0.0, _plateau(s, self.a, self.b, self.h) / (self.b - self.a))

    @property
    def deriv_bound(self) -> float:
        return 1.0 / (self.b - self.a)

    def certify(self, n: int = 10000) -> dict:
        """Grid check of the defining properties; raises on violation."""
        s = np.linspace(0.0, 1.5, n)
        vals, ders = self(s), self.deriv(s)
        if not np.all((vals >= 0) & (vals <= 1)):
            raise AssertionError("cutoff leaves [0,1]")
        if not np.all(vals[s <= 0.5] == 0) or not np.all(vals[s >= 1.0] == 1):
            raise AssertionError("cutoff endpoints wrong")
        sup = float(np.max(np.abs(ders)))
        if sup > 3.0:
            raise AssertionError(f"sup|f'| = {sup} > 3")
        return {"grid": n, "sup_deriv": sup, "bound": 3.0}


DEFAULT_CUTOFF = CutoffFn()
DEFAULT_EPSILON = 0.1
MU_SWEEP = (1, 2, 4, 8, 16)


@cache
def surgery_profile():
    """The Eguchi-Hanson profile that the resolution surgery glues into each
    chart: R = 4, c = 1 and t = eps / (2R), so that tR = eps / 2.  Built on
    first use."""
    return build_profile(default_t_for_epsilon(DEFAULT_EPSILON, 4.0), 4.0)


# ===========================================================================
# product model N = X x S^1
# ===========================================================================
#
# Real coframe order: (g1, g2, g3, e3, e4, e5, e6) on axes 1..7, where
# Theta^1 = g1 + i g2 spans the base directions of X, g3 is the circle
# form, Theta^2 = e3 + i e4 and Theta^3 = e5 + i e6 span the fiber torus.
# Complex structure equations d Theta^1 = 0, d Theta^2 = Theta^1 ^ Theta^2,
# d Theta^3 = -Theta^1 ^ Theta^3 unfold into the real equations below.

#: mapping-torus gluing constants of the solvmanifold X
ELL = math.log((3.0 + math.sqrt(5.0)) / 2.0)
M_CONST = (math.sqrt(5.0) - 1.0) / 2.0

#: coordinate volume of a fundamental domain: Re w1 in [0, ell],
#: Im w1 in [0, 2pi], a 4-torus of volume (2pi)^2 (m^2+1)^2 in the fiber
#: lattice, and an S^1 factor of length 2pi; the distinguished volume form
#: g^{123} ^ (Re Omega)^2 is twice the coordinate volume form.
DOMAIN_VOLUME_N = 2.0 * ELL * (2.0 * math.pi) ** 4 * (M_CONST ** 2 + 1.0) ** 2


def _kf(*terms):
    """A rational form from (coefficient, index) terms of one degree."""
    return KForm.from_terms(7, len(terms[0][1]), [(idx, c) for c, idx in terms])


@cache
def nakamura_model() -> InvariantModel:
    """The product model, built once and shared: callers must not change it."""
    d_gen = [
        None, None, None,
        _kf((1, (1, 4)), (-1, (2, 5))),
        _kf((1, (1, 5)), (1, (2, 4))),
        _kf((-1, (1, 6)), (1, (2, 7))),
        _kf((-1, (1, 7)), (-1, (2, 6))),
    ]
    eqs = StructureEqs(7, d_gen, ("g1", "g2", "g3", "e3", "e4", "e5", "e6"))
    check_d_squared(eqs)
    omega = _kf((1, (4, 5)), (1, (6, 7)))
    rho = _kf((1, (4, 5)), (-1, (6, 7)))
    om_re = _kf((1, (4, 6)), (-1, (5, 7)))
    om_im = _kf((1, (4, 7)), (1, (5, 6)))
    named = {"omega": omega, "rho": rho, "Omega_re": om_re, "Omega_im": om_im,
             "g1": KForm.basis(7, (1,)), "g2": KForm.basis(7, (2,)),
             "g3": KForm.basis(7, (3,))}
    two_g1_omega = KForm.from_terms(7, 3, [((1, 4, 5), Q(2)), ((1, 6, 7), Q(2))])
    witnesses = {"two_g1_wedge_omega": (rho, two_g1_omega)}
    return InvariantModel(eqs, named, witnesses=witnesses,
                          domain_volume=DOMAIN_VOLUME_N, label="product-Nx S1")


def _lam_parts(lam):
    """lambda (re, (re, im) or complex) as exact (re, im), a float by its
    binary value."""
    if isinstance(lam, tuple):
        re, im = lam
    elif isinstance(lam, complex):
        re, im = lam.real, lam.imag
    else:
        re, im = lam, 0
    return _exact_real(re, "Re lambda"), _exact_real(im, "Im lambda")


def _lam_sq(lam):
    """|lambda|^2, exact."""
    re, im = _lam_parts(lam)
    return re ** 2 + im ** 2


def _combination(terms) -> KForm:
    """sum_k c_k F_k for exact scalars c_k and rational 3-forms F_k, given
    as their (numerators, D_k), over one common denominator.  Keys come in
    order of first appearance and a sum that cancels drops its key, as
    adding the forms c_k F_k one by one does; a zero c_k adds nothing."""
    terms = list(terms)
    den = math.lcm(*(c.denominator * d for c, (_, d) in terms))
    out = {}
    for c, (num, d) in terms:
        f = c.numerator * (den // (c.denominator * d))
        for idx, n in num.items():
            _add_term(out, idx, f * n)
    return KForm._trusted(7, 3, RAT, out, den)


@cache
def _phi_basis(model: InvariantModel) -> tuple:
    """The basis 3-forms of phi(alpha, beta, lambda; mu) on `model`, as
    (numerators, denominator): g^123, g^1 ^ omega, g^2 ^ Re Omega,
    g^2 ^ Im Omega, g^3 ^ Im Omega and g^3 ^ Re Omega.  Made once per model,
    on first use."""
    nf = model.named_forms
    g1, g2, g3 = nf["g1"], nf["g2"], nf["g3"]
    re_om, im_om = nf["Omega_re"], nf["Omega_im"]
    return tuple(f._ints() for f in (g1.wedge(g2).wedge(g3), g1.wedge(nf["omega"]),
                                     g2.wedge(re_om), g2.wedge(im_om),
                                     g3.wedge(im_om), g3.wedge(re_om)))


def phi_abl(alpha, beta, lam, model: InvariantModel | None = None) -> KForm:
    """phi(alpha, beta, lambda) = alpha beta g^{123} + alpha g^1 ^ omega
    - beta g^2 ^ Re(lambda Omega) + g^3 ^ Im(lambda Omega), a rational form
    for every finite parameter: a float is read by its binary value."""
    return phi_abl_mu(alpha, beta, lam, 1, model)


def phi_abl_mu(alpha, beta, lam, mu, model: InvariantModel | None = None) -> KForm:
    """Same family with the fiber symplectic term inflated by mu^6; lies in
    the class of phi(alpha, beta, lambda) with primitive (mu^6-1)/2 alpha rho.
    The basis forms of `_phi_basis` with the coefficients alpha beta,
    alpha mu^6, -beta Re lambda, beta Im lambda, Re lambda and Im lambda."""
    alpha, mu = _exact_real(alpha, "alpha"), _exact_real(mu, "mu")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    beta = _exact_real(beta, "beta")
    if alpha == 0 or beta == 0:
        raise ValueError("alpha, beta must be nonzero")
    re, im = _lam_parts(lam)
    if re == 0 and im == 0:
        raise ValueError("lambda must be nonzero")
    coeffs = (alpha * beta, alpha * mu ** 6, -beta * re, beta * im, re, im)
    return _combination(zip(coeffs, _phi_basis(model or nakamura_model())))


@cache
def _ch_data(model: InvariantModel) -> tuple:
    """(pairings, unit) of the class detector on `model`, made once per
    model: the five pairing 4-forms, ordered so that
    ch(phi(alpha, beta, lambda)) = (alpha beta, Re l, Im l, beta Re l,
    beta Im l), and top(g^{123} ^ (Re Omega)^2)."""
    nf = model.named_forms
    g1, g2, g3 = nf["g1"], nf["g2"], nf["g3"]
    re_om, im_om = nf["Omega_re"], nf["Omega_im"]
    g12, g13 = g1.wedge(g2), g1.wedge(g3)
    pairings = (re_om.wedge(re_om), g12.wedge(im_om), g12.wedge(re_om),
                g13.wedge(re_om), -1 * g13.wedge(im_om))
    return pairings, g12.wedge(g3).wedge(pairings[0]).top_coefficient()


def ch_map(xi: KForm, model: InvariantModel) -> tuple:
    """Five wedge pairings of an invariant 3-form against the reference
    4-forms of the model, normalised so the distinguished volume
    g^{123}^(Re Omega)^2 integrates to 1 (i.e. values are in units of the
    fundamental-domain constant A).  Fractions, for a rational xi; a float
    or polynomial xi raises TypeError."""
    pairings, unit = _ch_data(model)
    xi._ints()      # refuses a float or polynomial form
    return tuple(xi.wedge(eta).top_coefficient() / unit for eta in pairings)


# ===========================================================================
# nilmanifold / orbifold model
# ===========================================================================

#: the seven terms of the flat FFKM 3-form theta^{123} + ... + theta^{356}
_FFKM_TERMS = (((1, 2, 3), 1), ((1, 4, 5), 1), ((1, 6, 7), 1), ((2, 4, 6), -1),
               ((2, 5, 7), 1), ((3, 4, 7), 1), ((3, 5, 6), 1))
#: the flat FFKM 3-form, the invariant form "phi" of ffkm_model()
_FFKM_PHI = KForm.from_terms(7, 3, _FFKM_TERMS)
#: theta^{123} as (numerators, denominator)
_THETA123 = ({(1, 2, 3): 1}, 1)


@cache
def ffkm_model() -> InvariantModel:
    """The nilmanifold model, built once and shared: callers must not
    change it."""
    d_gen = [
        None, None, None,
        _kf((1, (1, 2))),
        _kf((1, (1, 3))),
        _kf((1, (1, 4))),
        _kf((1, (1, 5))),
    ]
    eqs = StructureEqs(7, d_gen, tuple(f"t{i}" for i in range(1, 8)))
    check_d_squared(eqs)
    named = {"phi": _FFKM_PHI}
    invo = {"t1": Q(-1), "t2": Q(-1), "t3": Q(1), "t4": Q(1),
            "t5": Q(-1), "t6": Q(-1), "t7": Q(1)}
    witnesses = {
        "theta123": (KForm.basis(7, (2, 5)), _kf((1, (1, 2, 3)))),
        "laplacian_phi": (
            KForm.from_terms(7, 2, [((2, 5), Q(2)), ((4, 7), Q(1)), ((5, 6), Q(-1))]),
            _kf((2, (1, 2, 3)), (2, (1, 4, 5)), (-1, (1, 3, 6)), (1, (1, 2, 7)))),
    }
    return InvariantModel(eqs, named, invo, witnesses, label="nilmanifold")


def phi_check_mu(mu) -> KForm:
    """Invariant family mu^6 theta^{123} + (remaining six terms of phi), a
    rational form for every finite mu >= 1: a float is read by its binary
    value."""
    mu = _exact_real(mu, "mu")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    return _combination(((1, _FFKM_PHI._ints()), (mu ** 6 - 1, _THETA123)))


# ----- charts around the singular locus ------------------------------------

XVARS = chart_vars("x", 7)
YVARS = chart_vars("y", 7)
YRING = poly_ring(YVARS)

# symbolic scale variable used for exact identities in mu (u = mu^6 or
# v = mu^3 depending on context)
YUVARS = YVARS + ("u",)
YURING = poly_ring(YUVARS)


def _y(name, vars=YVARS):
    return Poly.var(vars, name)


#: the transverse chart axes (y1, y2, y5, y6) of the singular circle
_TRANSVERSE = ((1, "y1"), (2, "y2"), (5, "y5"), (6, "y6"))


def _transverse_r(cols: dict) -> np.ndarray:
    """Distance sqrt(y1^2 + y2^2 + y5^2 + y6^2) to the singular circle, entry
    by entry on point columns (names -> arrays)."""
    return np.sqrt(sum(cols[n] * cols[n] for _, n in _TRANSVERSE))


def _columns(points) -> dict:
    """An (n, 7) array of chart points as the columns y1..y7."""
    points = np.asarray(points, dtype=float)
    return {n: points[:, i] for i, n in enumerate(YVARS)}


def _transverse_points(radii) -> np.ndarray:
    """Chart points on one fixed ray, off the coordinate hyperplanes, at
    these transverse distances from the singular circle, as an (n, 7) array."""
    ray = np.array([[0.6, -0.3, 0.4, 0.2, 0.5, 0.7, -0.1]])
    points = np.repeat(ray, len(radii), axis=0)
    scale = np.asarray(radii, dtype=float) / _transverse_r(_columns(ray))
    for axis, _ in _TRANSVERSE:
        points[:, axis - 1] *= scale
    return points


def _row_keys(degree: int) -> list:
    """The column order of _d_cutoff_rows for forms of this degree."""
    return list(combinations(range(1, 8), degree))


def _d_cutoff_rows(cols: dict, scale: float, a: KForm, da: KForm):
    """d[f(r/scale) a] = f da + (f'/scale) dr ^ a, for a polynomial k-form a
    with da = a.d_chart() and f = DEFAULT_CUTOFF, on point columns (names ->
    arrays of shape (n,)): the (n, C(7, k+1)) coefficient rows in the order
    of _row_keys(k + 1), with the columns r, f and f'.  Every operation is
    entry by entry, so a point gets the same bits alone or in any batch."""
    r = _transverse_r(cols)
    f, fd = DEFAULT_CUTOFF(r / scale), DEFAULT_CUTOFF.deriv(r / scale)
    pos = {idx: i for i, idx in enumerate(_row_keys(a.degree + 1))}
    rows = np.zeros((len(r), len(pos)))
    for idx, c in da.coeffs.items():
        rows[:, pos[idx]] = c.eval(cols) * f
    on = (fd != 0.0) & (r > 0)
    if np.any(on):
        av = {_MASKS[idx]: c.eval(cols) for idx, c in a.coeffs.items()}
        wedge = {}
        for i, n in _TRANSVERSE:
            dr = np.divide(cols[n], r, out=np.zeros(len(r)), where=on)
            for m, c in av.items():
                merged, sign = merge_sign(1 << (i - 1), m)
                if sign:
                    term = dr * c if sign == 1 else -(dr * c)
                    wedge[merged] = wedge[merged] + term if merged in wedge else term
        step = np.where(on, fd / scale, 0.0)
        for idx, c in wedge.items():
            rows[:, pos[idx]] += c * step
    return rows, r, f, fd


def chart_map(base_chart: int, extra_vars) -> PolynomialMap:
    """The embedding T^3 x B^4 -> M in lattice coordinates x^i(y)."""
    src = YVARS + tuple(extra_vars)
    y = {n: Poly.var(src, n) for n in YVARS}
    half = Q(1, 2)
    if base_chart == 0:
        comps = {
            "x1": y["y1"], "x2": y["y2"], "x3": y["y3"], "x4": y["y4"],
            "x5": y["y5"] + y["y1"] * y["y3"],
            "x6": y["y6"],
            "x7": y["y7"] - half * y["y1"] * y["y1"] * y["y3"],
        }
    elif base_chart == 1:
        comps = {
            "x1": y["y1"] + 1, "x2": y["y2"], "x3": y["y3"], "x4": y["y4"],
            "x5": y["y5"] + y["y1"] * y["y3"],
            "x6": y["y6"] - y["y4"],
            "x7": (y["y7"] - y["y5"] - y["y1"] * y["y3"]
                   - half * y["y1"] * y["y1"] * y["y3"]),
        }
    else:
        raise ValueError("base chart must be 0 or 1")
    for extra in extra_vars:
        comps[extra] = Poly.var(src, extra)   # spectator parameters
    return PolynomialMap(src, XVARS + tuple(extra_vars), comps)


def invariant_coframe_x(extra_vars) -> list:
    """theta^1..theta^7 as polynomial 1-forms in the lattice coordinates."""
    xv = XVARS + tuple(extra_vars)
    ring = poly_ring(xv)
    x = {n: Poly.var(xv, n) for n in XVARS}

    def one(axis, coeff=None):
        return KForm(7, 1, ring, {(axis,): coeff if coeff is not None
                                  else Poly.const(xv, 1)})

    return [
        one(1), one(2), one(3),
        one(4) + one(1, -x["x2"]),
        one(5) + one(1, -x["x3"]),
        one(6) + one(4, x["x1"]),
        one(7) + one(5, x["x1"]),
    ]


def chart_theta_pullbacks(extra_vars) -> tuple:
    """Pull the invariant coframe back through both base charts; they agree,
    and the common value is returned (7 polynomial 1-forms in y)."""
    thetas = invariant_coframe_x(extra_vars)
    p0 = chart_map(0, extra_vars)
    p1 = chart_map(1, extra_vars)
    pulled0 = tuple(p0.pullback(t) for t in thetas)
    pulled1 = tuple(p1.pullback(t) for t in thetas)
    if pulled0 != pulled1:
        raise AssertionError("the two base charts disagree on the coframe pullback")
    return pulled0


def pullback_invariant_form(form: KForm, extra_vars=()) -> KForm:
    """Express a constant-coefficient invariant form in chart coordinates."""
    coframe = chart_theta_pullbacks(extra_vars)
    ring = poly_ring(YVARS + tuple(extra_vars))
    out = KForm.zero(7, form.degree, ring)
    for idx, c in form.coeffs.items():
        piece = KForm(7, 0, ring, {(): Poly.const(ring[1], Q(c))})
        for axis in idx:
            piece = piece.wedge(coframe[axis - 1])
        out = out + piece
    return out


def _dy(idx):
    return KForm(7, len(idx), YRING, {tuple(idx): Poly.const(YVARS, 1)})


def _flat_xi(ring, c123=None) -> KForm:
    """The flat FFKM 3-form over a polynomial ring; c123, when given,
    replaces the coefficient 1 of dy^{123}."""
    coeffs = {idx: Poly.const(ring[1], c) for idx, c in _FFKM_TERMS}
    if c123 is not None:
        coeffs[(1, 2, 3)] = c123
    return KForm(7, 3, ring, coeffs)


def xi_mu_chart():
    """xi^mu = u dy^{123} + the six remaining flat terms, with u = mu^6 a
    polynomial variable."""
    return _flat_xi(YURING, Poly.var(YUVARS, "u"))


def _xi_mu_weights(mu) -> list:
    """The diagonal of xi^mu's metric (mu^4 on dy^{1,2,3}, mu^-2 on
    dy^{4..7}), in floats, read off the exact metric of phi_check_mu(mu):
    xi^mu has the same coefficients in the chart coframe."""
    g = is_g2_type(phi_check_mu(mu)).metric
    return [float(g[i][i]) for i in range(7)]


def alpha_a():
    """The chart 2-form alpha with phi^mu - xi^mu = y1 dy^{147} + d(alpha),
    built as alpha = dy1^beta + dy3^gamma."""
    y1, y2, y5, y6 = (_y(n) for n in ("y1", "y2", "y5", "y6"))
    half = Q(1, 2)
    beta = (_dy((6,)).scale(y1 * y5 + half * y2 * y2)
            + _dy((4,)).scale(y1 * y1 * y5 + half * y1 * y2 * y2)
            + _dy((3,)).scale(Q(-1, 2) * y1 * y1 * y6))
    gamma = (_dy((4,)).scale(Q(-1, 2) * y1 * y1 + Q(-1, 8) * y1 ** 4)
             + _dy((7,)).scale(y1 * y2)
             + _dy((5,)).scale(half * y1 * y1 * y2))
    return _dy((1,)).wedge(beta) + _dy((3,)).wedge(gamma)


def master_identity_check() -> bool:
    """phi^mu - xi^mu = y1 dy^{147} + d(alpha) exactly, with mu^6 symbolic."""
    phi_mu = _phi_check_mu_chart_symbolic()
    xi = xi_mu_chart()
    alpha = alpha_a()
    lift = PolynomialMap(YUVARS, YVARS, {n: _y(n, YUVARS) for n in YVARS})  # y -> (y, u)
    rhs = lift.pullback(_dy((1, 4, 7)).scale(_y("y1"))) + lift.pullback(alpha).d_chart()
    return (phi_mu - xi) == rhs


def _phi_check_mu_chart_symbolic() -> KForm:
    """Chart expression of mu^6 theta^{123} + (six terms), u = mu^6."""
    base = pullback_invariant_form(ffkm_model().named_forms["phi"], extra_vars=("u",))
    u = Poly.var(YUVARS, "u")
    extra = KForm(7, 3, YURING, {(1, 2, 3): u - 1})
    return base + extra


# ----- glued family on the charts -------------------------------------------

@cache
def _alpha_and_d():
    alpha = alpha_a()
    return alpha, alpha.d_chart()


def _eval_columns(form: KForm, cols: dict) -> dict:
    """A polynomial form's coefficients at point columns, keyed as the form."""
    return {idx: c.eval(cols) for idx, c in form.coeffs.items()}


@cache
def _flat_xi_row():
    """The coefficient row of xi^1, the flat FFKM form, in TRIPLES order."""
    return phi_to_vector(_FFKM_PHI)


def glued_form_at(points, mu: float) -> dict:
    """phi^mu = xi^mu + y1 dy^{147} + d[f(r/eps) alpha] at an (n, 7) array of
    points of the chart ball r < eps = DEFAULT_EPSILON, as columns: "phi",
    the (n, 35) coefficient rows in TRIPLES order; "metric" and "sqrt_det" from one
    metric_batch call, which raises NotStableError at the first indefinite
    row; "gap", |phi^mu - xi^mu| in the xi^mu norm; and r, f and f'.  A
    row does not depend on the other points."""
    cols = _columns(points)
    alpha, dalpha = _alpha_and_d()
    corr, r, fval, fder = _d_cutoff_rows(cols, DEFAULT_EPSILON, alpha, dalpha)
    if not np.all(r < DEFAULT_EPSILON):
        raise ValueError(f"point outside the chart ball of radius {DEFAULT_EPSILON}")
    # phi^mu = (xi^mu + y1 dy^{147}) + d[f alpha], summed in this order
    y1, p147 = cols["y1"], TRIPLE_POS[(1, 4, 7)]
    phi = np.repeat(_flat_xi_row()[None], len(r), axis=0)
    phi[:, TRIPLE_POS[(1, 2, 3)]] += float(mu) ** 6 - 1.0
    phi[:, p147] += y1
    phi += corr
    corr[:, p147] += y1                     # now phi^mu - xi^mu
    gap = _norm_in_diag(dict(zip(TRIPLES, corr.T)), _xi_mu_weights(mu))
    g, sqrt_det = metric_batch(phi)
    return {"phi": phi, "metric": g, "sqrt_det": sqrt_det, "gap": gap,
            "r": r, "f": fval, "fprime": fder}


def _norm_in_diag(coeffs: dict, weights) -> np.ndarray:
    """Norms of a form, given by its coefficient columns, in the diagonal
    metric with these 7 weights; weights of shape (7, m) give m norms in the
    last axis.  Each entry has the bits of one point and one weight set, the
    sum running over the coefficients in sorted key order."""
    ginv = 1.0 / np.asarray(weights, dtype=float)
    total = 0.0
    for idx in sorted(coeffs):
        w = coeffs[idx] * coeffs[idx]
        for axis in idx:
            w = w * ginv[axis - 1]
        total = total + w
    return np.sqrt(total)


def measure_quadlem_constant(rng, n: int = 400) -> dict:
    """Grid estimate of the constant C with |alpha| <= C r^2 / mu and
    |d alpha| <= C r in the xi^mu norm, over n points of the chart ball of
    radius DEFAULT_EPSILON drawn from rng, for mu in MU_SWEEP.  The points
    are evaluated as columns, all mus at once."""
    epsilon, mus = DEFAULT_EPSILON, MU_SWEEP
    alpha, dalpha = _alpha_and_d()
    cols = _columns(uniforms(rng, -1.0, 1.0, (n, 7)))
    # scale the transverse coordinates into the chart ball
    lam = uniforms(rng, 0.05, 0.999, (n,)) * (epsilon / _transverse_r(cols))
    for _, name in _TRANSVERSE:
        cols[name] = cols[name] * lam
    r = _transverse_r(cols)
    keep = r >= 1e-8
    cols = {name: c[keep, None] for name, c in cols.items()}
    r = r[keep, None]
    weights = np.array([_xi_mu_weights(mu) for mu in mus]).T
    ratio_a = (_norm_in_diag(_eval_columns(alpha, cols), weights)
               * np.array(mus) / (r * r))
    ratio_da = _norm_in_diag(_eval_columns(dalpha, cols), weights) / r
    best_a = float(ratio_a.max(initial=0.0))
    best_da = float(ratio_da.max(initial=0.0))
    return {"C_alpha": best_a, "C_dalpha": best_da,
            "C": max(best_a, best_da), "grid": n, "mus": tuple(mus),
            "epsilon": epsilon}


# ----- resolution surgery data ----------------------------------------------

@cache
def _zeta_tables():
    """zeta = dy^{347} + dy^3 ^ omega - dy^4 ^ Re Omega + dy^7 ^ Im Omega as
    the coefficient row of its terms without omega, and (column, sign, i, j)
    for each entry omega_ij of the fiber form on the axes (y1, y2, y5, y6)."""
    re_om = KForm(7, 2, RAT, {(1, 5): 1, (2, 6): -1})
    im_om = KForm(7, 2, RAT, {(1, 6): 1, (2, 5): 1})
    rest = (KForm.basis(7, (3, 4, 7)) - KForm.basis(7, (4,)).wedge(re_om)
            + KForm.basis(7, (7,)).wedge(im_om))
    axes = [a for a, _ in _TRANSVERSE]
    omega = []
    for i, j in _UPPER:
        merged, sign = merge_sign(_MASKS[(3,)], _MASKS[(axes[i], axes[j])])
        omega.append((TRIPLE_POS[merged], float(sign), i, j))
    return phi_to_vector(rest), tuple(omega)


def _point_row(point: dict) -> list:
    """One chart point (names -> numbers, absent ones 0) as a 1 x 7 array."""
    return [[float(point.get(n, 0.0)) for n in YVARS]]


#: ResolutionForms.margins' number of points
MARGIN_POINTS = 80


class ResolutionForms:
    """The surgery 3-forms sigma, zeta, zeta^mu, by one row kernel, at chart
    radius eps = DEFAULT_EPSILON.

    sigma = d[f(2r/eps) (y1)^2/2 dy^{47}]; it vanishes near the exceptional
    locus and equals y1 dy^{147} once f == 1.  zeta replaces the flat fiber
    form by the Kaehler form omega_t of `surgery_profile`; zeta^mu =
    zeta + mu^-3 sigma.
    zeta_mu_rows writes the (n, 35) coefficient rows of zeta^mu at an (n, 7)
    array of chart points (zeta_rows those of zeta): omega_t from omega_at
    and sigma from the chain rule _d_cutoff_rows, both on point columns; a
    point is a one-row call.  Squares (r, lam, (y1)^2) are products x·x, so
    a point has the same bits alone or in a batch.
    """

    #: the potential (y1)^2/2 dy^{47} of sigma and its d
    _SIGMA_A = KForm(7, 2, YRING, {(4, 7): Q(1, 2) * _y("y1") * _y("y1")})
    _SIGMA_DA = _SIGMA_A.d_chart()

    def __init__(self, mu: float):
        self.mu = float(mu)

    def _sigma_rows(self, cols: dict) -> np.ndarray:
        return _d_cutoff_rows(cols, 0.5 * DEFAULT_EPSILON, self._SIGMA_A,
                              self._SIGMA_DA)[0]

    def _zeta_rows(self, cols: dict) -> np.ndarray:
        fiber = np.stack([cols[n] for _, n in _TRANSVERSE], axis=1)
        om = omega_at(fiber, profile=surgery_profile())
        rest, omega = _zeta_tables()
        rows = np.tile(rest, (len(fiber), 1))
        for col, sign, i, j in omega:
            rows[:, col] = sign * om[:, i, j]
        return rows

    def zeta_rows(self, points) -> np.ndarray:
        """The (n, 35) coefficient rows of zeta at an (n, 7) point array."""
        return self._zeta_rows(_columns(points))

    def zeta_mu_rows(self, points) -> np.ndarray:
        """The (n, 35) coefficient rows of zeta^mu at an (n, 7) array of
        chart points (y1..y7); row i does not depend on the other points."""
        cols = _columns(points)
        return self._zeta_rows(cols) + self.mu ** -3 * self._sigma_rows(cols)

    def margins(self, rng) -> dict:
        """|zeta^mu - zeta|_zeta = mu^-3 |sigma|_zeta, on the outer region
        {r >= eps/2} and on the inner region; both gaps must stay below eps/2,
        the inner one being C/mu^3 for the largest inner |sigma|_zeta = C
        (reported), over MARGIN_POINTS points drawn from rng, each in the
        inner region or the outer one with probability 1/2.  Every
        |sigma|_zeta comes from one metric_batch call over the zeta rows and
        one norm_batch over the sigma rows."""
        points = uniforms(rng, -1.0, 1.0, (MARGIN_POINTS, 7))
        targets = []
        for _ in range(MARGIN_POINTS):
            target = (rng.uniform(0.02, 0.499) if rng.random() < 0.5
                      else rng.uniform(0.5, 0.999 * self.mu ** 3 / 2 + 0.5))
            targets.append(min(target, 4.0) * DEFAULT_EPSILON)
        targets = np.array(targets)
        stretch = targets / np.maximum(_transverse_r(_columns(points)), 1e-12)
        for axis, _ in _TRANSVERSE:
            points[:, axis - 1] *= stretch
        cols = _columns(points)
        sizes = norm_batch(metric_batch(self._zeta_rows(cols))[0], self._sigma_rows(cols))
        outer = targets >= 0.5 * DEFAULT_EPSILON
        inner_C = float(sizes[~outer].max(initial=0.0))
        outer_gap = float(self.mu ** -3 * sizes[outer].max(initial=0.0))
        inner_gap = self.mu ** -3 * inner_C
        bound = 0.5 * DEFAULT_EPSILON
        return {"outer_gap": outer_gap, "outer_bound": bound,
                "inner_gap": inner_gap, "inner_C": inner_C,
                "inner_bound_ok": inner_gap <= bound + 1e-12,
                "mu": self.mu, "epsilon": DEFAULT_EPSILON, "n": MARGIN_POINTS,
                "g2_certified": outer_gap <= bound + 1e-12}


def resolution_boundary_identity() -> bool:
    """Exact check that on the outer region (f == 1, omega_t flat) the
    homothety-rescaled mu^-3 (H^mu)^* zeta^mu equals
    mu^6 dy^{123} + (flat terms) + y1 dy^{147}.

    With v = mu^3 symbolic this is the polynomial identity
    v (H)^* xi + (H)^* (y1 dy^{147}) = v^2 [v^2 dy^{123} + rest + y1 dy^{147}].
    """
    vvars = YVARS + ("v",)
    vring = poly_ring(vvars)
    v = Poly.var(vvars, "v")
    H = PolynomialMap(vvars, vvars, {
        **{n: (Poly.var(vvars, n) * v if n in ("y1", "y2", "y3")
               else Poly.var(vvars, n)) for n in YVARS},
        "v": v,
    })

    xi = _flat_xi(vring)
    bump = KForm(7, 3, vring, {(1, 4, 7): Poly.var(vvars, "y1")})
    lhs = H.pullback(xi).scale(v) + H.pullback(bump)
    rhs = (KForm(7, 3, vring, {(1, 2, 3): v * v - 1}) + xi + bump).scale(v * v)
    return lhs == rhs


# ----- primitive ledger -------------------------------------------------------

def primitive_ledger(mu) -> list:
    """Region-by-region exactness certificates for phi^mu - phi, with the
    cutoff at radius DEFAULT_EPSILON.

    Every polynomial identity is checked exactly (mu as an exact rational).
    The identities involving the cutoff are checked by evaluating d(f Q)
    through the cutoff's chain rule at chart points in its zero band near
    the inner interface, with f frozen at 1 near the outer interface, and
    by a finite-difference closedness probe where f varies.
    """
    mu = Q(mu)
    if mu < 1:
        raise ValueError("mu must be >= 1")
    c6 = mu ** 6 - 1
    model = ffkm_model()
    report = []

    def entry(region, name, ok):
        report.append({"region": region, "check": name, "status": "pass" if ok else "fail"})

    # (a) outside all chart regions: phi^mu - phi = (mu^6-1) theta^{123}
    #     with invariant primitive (mu^6-1) theta^{25}
    prim = c6 * KForm.basis(7, (2, 5))
    target = c6 * KForm.basis(7, (1, 2, 3))
    ok = d_invariant(model.eqs, prim) == target
    entry("outer", "d((mu^6-1) theta^25) = (mu^6-1) theta^123", ok)

    # chart expression of the same primitive near the chart boundary
    prim_chart = pullback_invariant_form(c6 * KForm.basis(7, (2, 5)))
    bc2 = (KForm(7, 2, YRING, {(2, 5): Poly.const(YVARS, c6)})
           + KForm(7, 2, YRING, {(2, 3): Poly.var(YVARS, "y1") * c6}))
    entry("outer", "chart form of the outer primitive matches the boundary "
          "display", prim_chart == bc2)

    # (b) middle region U \ W: the three-term primitive
    y1, y2 = _y("y1"), _y("y2")
    half = Q(1, 2)
    P1 = (KForm(7, 2, YRING, {(2, 3): y1 * (c6 / 2)})
          - KForm(7, 2, YRING, {(1, 3): y2 * (c6 / 2)}))
    ok = P1.d_chart() == KForm(7, 3, YRING, {(1, 2, 3): Poly.const(YVARS, c6)})
    entry("middle", "rotation primitive differentiates to (mu^6-1) dy^123", ok)

    Qf = (KForm(7, 1, YRING, {(5,): y2})
          + KForm(7, 1, YRING, {(3,): half * y1 * y2}))
    # d(f * Q) contributes d(d(...)) = 0; probe d^2 = 0 through the cutoff
    # numerically at sample radii
    ok_fd = _closedness_probe_fQ(Qf)
    entry("middle", "cutoff-dressed term stays closed after d (finite "
          "differences, tol 1e-6)", ok_fd)

    # near the inner interface, where r/eps lies in the cutoff's zero band,
    # the cutoff-dressed term d(f(r/eps) c6 Q) must vanish so that only the
    # resolution-side terms of the primitive remain; at the control point in
    # the ramp the same evaluation must not vanish unless c6 = 0
    eps = DEFAULT_EPSILON
    cQ, cdQ = c6 * Qf, c6 * Qf.d_chart()
    band = DEFAULT_CUTOFF.a - DEFAULT_CUTOFF.h
    # four points in the zero band, then the control point
    radii = np.array([0.05, 0.25, 0.5 * band, band, 0.75]) * eps
    rows = _d_cutoff_rows(_columns(_transverse_points(radii)), eps, cQ, cdQ)[0]
    zero = ~rows.any(axis=1)
    entry("interface W", "d(f c6 Q) vanishes where r/eps is in the cutoff's "
          f"zero band [0, {band:g}]",
          bool(zero[:4].all() and zero[4] == (c6 == 0)))

    # near the outer interface f == 1: primitive reduces to the outer value
    outer_val = P1 + cdQ
    entry("interface U", "f=1 limit matches the outer primitive",
          outer_val == bc2)

    # mu = 1 degeneracy: all (mu^6-1) factors die
    if mu == 1:
        entry("all", "mu=1: scale-dependent terms vanish",
              c6 == 0 and P1.is_zero())
    return report


def _closedness_probe_fQ(Qf: KForm) -> bool:
    """Finite-difference check that d[d(f(r/eps) Q)] = 0, to 1e-6, at sample
    points of the chart ball, eps = DEFAULT_EPSILON.

    d(fQ) is evaluated via the chain rule; a second numerical d of the
    resulting 2-form field must vanish.
    """
    epsilon, dQ = DEFAULT_EPSILON, Qf.d_chart()

    def two_form_field(ys):
        rows = _d_cutoff_rows(_columns(ys), epsilon, Qf, dQ)[0]
        return dict(zip(_row_keys(Qf.degree + 1), rows.T))

    samples = [np.array([0.7, 0.1, 0.3, 0.2, 0.05, -0.1, 0.4]) * epsilon,
               np.array([0.5, -0.4, 0.1, 0.3, 0.3, 0.2, -0.2]) * epsilon,
               np.array([-0.6, 0.3, -0.5, 0.1, 0.2, -0.3, 0.1]) * epsilon]
    triples = ((1, 2, 5), (1, 4, 7), (2, 5, 6), (1, 2, 3))
    return all(abs(v) <= 1e-6 for y0 in samples
               for v in fd_d(two_form_field, y0, 1e-5 * epsilon, triples))
