"""Independent references that the tests hold the package's kernels against:
the sign of the permutation that sorts a multi-index, by counting
inversions; the interior product and one-point evaluation of a form; the
chart derivative and the pullback of polynomial forms with one Poly per
index, the way the package computed them before its forms held packed
integers; a matrix inverse
by Fraction Gauss-Jordan elimination; the float metric (at any r), inverse
metric, exact inner product and Fraction-constant star of G2Data; the closed form and
right-hand side of the scalar flow line; the closed families and class
detector built by wedges of the model's named forms; the mollified
plateau's integral by the nested Gauss-Legendre rule; the bytes that
csv.writer writes for rows of floats; and the frame scales
of the volume law by a walk over the exponent matrix E = 6 M^-1, with M^-1
from the Fraction inverse.  No code in src/g2calc calls them."""
import csv
import io
import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Mapping

import numpy as np

from g2calc import g2core
from g2calc.catalog import _FFKM_PHI, _lam_parts, nakamura_model
from g2calc.ehmetric import _gl, _plateau
from g2calc.flow import _mu_closed, _mu_dot, _rate_constants
from g2calc.forms import KForm, poly_ring
from g2calc.rings import (FLT, RAT, MixedRingError, Poly, _exact_real, _ratio_root, coerce_to,
                          ring_of)
from g2calc.scaling import INCIDENCE, ScalingExponents, _float_root, _validated


def sort_sign(seq) -> tuple:
    """(sorted seq, sign of the permutation that sorts it) by counting
    inversions, or (None, 0) when an axis repeats: theta^seq equals sign
    theta^sorted."""
    seq = tuple(seq)
    if len(set(seq)) < len(seq):
        return None, 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return tuple(sorted(seq)), (-1) ** inversions


def contract(form: KForm, vector) -> KForm:
    """Interior product of `form` with a vector given as components over
    axes 1..dim (sequence, or mapping axis->component)."""
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")
    if isinstance(vector, Mapping):
        comp = {int(k): v for k, v in vector.items()}
    else:
        comp = {i + 1: v for i, v in enumerate(vector)}
    out = {}
    ring = form.ring
    for idx, c in form.coeffs.items():
        for pos, axis in enumerate(idx):
            v = comp.get(axis, 0)
            if isinstance(v, (int, Fraction)) and v == 0:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = coerce_to(ring, v) * c if ring_of(v) in (RAT, ring) else None
            if term is None:
                raise MixedRingError("vector components live in a different ring")
            if pos % 2 == 1:
                term = -term
            if rest in out:
                out[rest] = out[rest] + term
            else:
                out[rest] = term
    return KForm._trusted(form.dim, form.degree - 1, ring, out)


def eval_at(form: KForm, point: Mapping[str, float]) -> KForm:
    """`form` with its polynomial coefficients evaluated at a chart point,
    as a float form."""
    if not (isinstance(form.ring, tuple) and form.ring[0] == "poly"):
        return form.in_ring(FLT)
    return KForm._trusted(form.dim, form.degree, FLT,
                          {i: c.eval(point) for i, c in form.coeffs.items()})


def poly_partials(p: Poly, n: int) -> dict:
    """{i: d p / d vars[i]} for each i < n whose variable appears in p, in
    ascending i, from one pass over the terms."""
    outs = {}
    for e, c in p.terms.items():
        for i, k in enumerate(e[:n]):
            if k:
                outs.setdefault(i, {})[e[:i] + (k - 1,) + e[i + 1:]] = c * k
    return {i: Poly(p.vars, outs[i]) for i in sorted(outs)}


def poly_compose(p: Poly, monomial) -> Poly:
    """p∘F for a nonzero p, given monomial(e), the product of F's components
    to the powers e; the terms are summed in key order."""
    return reduce(add, (monomial(e) * c for e, c in p.terms.items()))


def _add_poly_term(acc: dict, idx, c) -> None:
    """acc[idx] += c; an index whose sum cancels leaves acc."""
    if idx in acc:
        total = acc[idx] + c
        if total:
            acc[idx] = total
        else:
            del acc[idx]
    elif c:
        acc[idx] = c


def poly_sum(a: dict, b: dict) -> dict:
    """The sum of two {index: Poly} dicts, b's terms added to a's one by one."""
    out = dict(a)
    for i, c in b.items():
        _add_poly_term(out, i, c)
    return out


def poly_wedge(a: dict, b: dict) -> dict:
    """The wedge of two {index: Poly} dicts: an index keeps its place when its
    sum cancels, and the zeros are dropped at the end."""
    out = {}
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            merged, sign = sort_sign(i1 + i2)
            if sign:
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                out[merged] = out[merged] + c if merged in out else c
    return {i: c for i, c in out.items() if c}


def d_chart(form: KForm) -> KForm:
    """The chart derivative of a polynomial form, one Poly per index: each
    coefficient's partials in ascending axis, added to their index as Polys
    (an index whose sum cancels keeps its place until the end)."""
    terms = {}
    if form.degree < form.dim:
        for idx, c in form.coeffs.items():
            for i, dc in poly_partials(c, form.dim).items():
                merged, sign = sort_sign((i + 1,) + idx)
                if sign:
                    val = dc if sign == 1 else -dc
                    terms[merged] = terms[merged] + val if merged in terms else val
    return KForm(form.dim, min(form.degree + 1, form.dim), form.ring,
                 {i: c for i, c in terms.items() if c})


def pullback(F, form: KForm) -> KForm:
    """F^*(form) for a PolynomialMap F, one Poly per index: the sum over I of
    (c_I∘F) F^*(dy^I), where F^*(dy^I) wedges the Jacobian rows of I's axes
    onto 1 and an index whose sum cancels leaves the result."""
    src, dim = F.source_vars, form.dim
    if form.ring == RAT:
        form = KForm(dim, form.degree, poly_ring(F.target_vars),
                     {i: Poly.const(F.target_vars, c) for i, c in form.coeffs.items()})

    def monomial(e):
        return math.prod((F.components[v] ** k for v, k in zip(F.target_vars, e) if k),
                         start=Poly.const(src, 1))

    out = {}
    for idx, c in form.coeffs.items():
        cf = poly_compose(c, monomial)
        dy = {(): Poly.const(src, 1)}
        for axis in idx:
            p = F.components[F.target_vars[axis - 1]]
            dy = poly_wedge(dy, {(i + 1,): dp for i, dp in poly_partials(p, dim).items()})
        for i, m in dy.items():
            _add_poly_term(out, i, cf * m)
    return KForm(dim, form.degree, poly_ring(src), out)


def fraction_inverse(M) -> list:
    """Reference inverse: Gauss-Jordan elimination on Fractions."""
    n = len(M)
    A = [[Fraction(x) for x in M[r]] + [Fraction(int(c == r)) for c in range(n)]
         for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


#: M^-1 of the volume law's incidence matrix, entries in (1/6) Z
INCIDENCE_INV = fraction_inverse(INCIDENCE)


def float_r(data) -> float:
    """r = 6 vol of the data of a rational 3-form as a float: the cube root
    of 216 vol^3, taken here rather than in g2core, which takes none."""
    return float(216 * data.vol_cubed) ** (1.0 / 3.0)


def r_value(data):
    """r of the data: a Fraction where it is rational, else float_r."""
    return 6 * data.sqrt_det if data.exact else float_r(data)


def float_metric(data):
    """(g, sqrt(det g)) of the data of a rational 3-form at any r, as floats:
    g = N / (d r) and r / 6 with r = float_r(data), a reference for
    metric_batch."""
    N, d = data._ints
    r = float_r(data)
    return np.array([[Fraction(x, d) / r for x in row] for row in N]), r / 6


def metric_inv(data) -> list:
    """g^-1 = r B^-1 = r d N^-1 of the data of a rational 3-form, as Fractions
    where r is rational and floats otherwise."""
    N, d = data._ints
    r = r_value(data)
    return [[x * d * r for x in row] for row in fraction_inverse(N)]


def inner_product(data, a: KForm, b: KForm):
    """<a, b>_g of rational forms by a ^ *b = <a, b> vol with vol = r / 6:
    r^(k mod 3) times a Fraction.  For *b = r^p Y it is 6 r^(p-1) top(a ^ Y),
    and r^-1 = r^2 / r^3."""
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    x, p = Fraction(0), (a.degree + 1) % 3
    if not (a.is_zero() or b.is_zero()):
        y, p = g2core.star_parts(data, b)
        x = 6 * a.wedge(y).top_coefficient()
    if p == 1:
        return x
    r = r_value(data)
    return r * x if p == 2 else r ** 2 * x / data._r3


def star_parts_fraction(data, a: KForm):
    """g2core.star_parts with its constant 6 / (d^(7-k) (r^3)^(3-q)) as a
    Fraction and a row for every complement of a's degree."""
    k = a.degree
    na, da = a._ints()
    sums = g2core._jacobi_sums(data, na, k)
    q, p = divmod(k + 1, 3)
    c = Fraction(6, data._ints[1] ** (g2core.DIM - k)) / data._r3 ** (3 - q)
    num = {comp: sign * c.numerator * sums.get(mask, 0)
           for comp, (mask, sign) in zip(g2core._COMPLEMENTS[k], g2core._STAR_ROWS[k])}
    return KForm._trusted(g2core.DIM, g2core.DIM - k, RAT, num, c.denominator * da), p


def flow_closed_form(alpha, lam, t) -> float:
    """mu(t) along the flow line through phi(alpha, beta, lambda)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    _, sixteen_l23, three_a2 = _rate_constants(alpha, lam)
    return _mu_closed(sixteen_l23, three_a2, float(t))


def mu_dot(alpha, lam, mu: float) -> float:
    """The flow ODE's right-hand side, 2 L^(2/3) / (3 alpha^2 mu^7)."""
    two_l23, _, three_a2 = _rate_constants(alpha, lam)
    return _mu_dot(two_l23, three_a2, float(mu))


def phi_abl(alpha, beta, lam, model=None) -> KForm:
    """phi(alpha, beta, lambda) as four wedges of the model's named forms:
    alpha beta g^123 + alpha g^1 ^ omega - beta g^2 ^ Re(lambda Omega)
    + g^3 ^ Im(lambda Omega)."""
    alpha, beta = _exact_real(alpha, "alpha"), _exact_real(beta, "beta")
    if alpha == 0 or beta == 0:
        raise ValueError("alpha, beta must be nonzero")
    re, im = _lam_parts(lam)
    if re == 0 and im == 0:
        raise ValueError("lambda must be nonzero")
    nf = (model or nakamura_model()).named_forms
    re_l_om = re * nf["Omega_re"] - im * nf["Omega_im"]
    im_l_om = re * nf["Omega_im"] + im * nf["Omega_re"]
    g1, g2, g3 = nf["g1"], nf["g2"], nf["g3"]
    return ((alpha * beta) * g1.wedge(g2).wedge(g3)
            + alpha * g1.wedge(nf["omega"])
            - beta * g2.wedge(re_l_om)
            + g3.wedge(im_l_om))


def phi_abl_mu(alpha, beta, lam, mu, model=None) -> KForm:
    """phi(alpha, beta, lambda) plus alpha (mu^6 - 1) g^1 ^ omega."""
    alpha, mu = _exact_real(alpha, "alpha"), _exact_real(mu, "mu")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    nf = (model or nakamura_model()).named_forms
    return (phi_abl(alpha, beta, lam, model)
            + (alpha * (mu ** 6 - 1)) * nf["g1"].wedge(nf["omega"]))


def phi_check_mu(mu) -> KForm:
    """The flat FFKM form plus (mu^6 - 1) theta^123."""
    return _FFKM_PHI + (_exact_real(mu, "mu") ** 6 - 1) * KForm.basis(7, (1, 2, 3))


def ch_map(xi: KForm, model=None) -> tuple:
    """The five class pairings of xi, each 4-form and the unit wedged anew."""
    nf = (model or nakamura_model()).named_forms
    g1, g2, g3 = nf["g1"], nf["g2"], nf["g3"]
    re_om, im_om = nf["Omega_re"], nf["Omega_im"]
    pairings = (re_om.wedge(re_om), g1.wedge(g2).wedge(im_om), g1.wedge(g2).wedge(re_om),
                g1.wedge(g3).wedge(re_om), -1 * g1.wedge(g3).wedge(im_om))
    unit = g1.wedge(g2).wedge(g3).wedge(pairings[0]).top_coefficient()
    return tuple(Fraction(xi.wedge(eta).top_coefficient()) / Fraction(unit) for eta in pairings)


def solve_scaling(lambdas) -> ScalingExponents:
    """mu_i = (prod_t lambda_t^E[i][t])^(1/6) by a walk over each row of the
    integer matrix E = 6 M^-1: n_t^e up and d_t^e down for e > 0, the other
    way round for e < 0, reduced by one gcd."""
    lambdas, pairs = _validated(lambdas)
    mus = []
    for row in INCIDENCE_INV:
        num = den = 1
        for (n, d), x in zip(pairs, row):
            e = int(6 * x)
            if e > 0:
                num *= n ** e
                den *= d ** e
            elif e < 0:
                num *= d ** -e
                den *= n ** -e
        g = math.gcd(num, den)
        num, den = num // g, den // g
        mus.append(_ratio_root(num, den, 6)
                   or _float_root(num, den, 6, lambdas))
    if all(type(m) is Fraction for m in mus):
        return ScalingExponents(tuple(Fraction(n, d) for n, d in pairs), tuple(mus), True)
    return ScalingExponents(lambdas, tuple(float(m) for m in mus), False)


def plateau_integral_nested(u, p, lo, hi, w, chunk=64) -> np.ndarray:
    """int_{-oo}^u v^p B(v) dv on an array u by the nested rule: the part
    of each mollifier shoulder below u as one 96-node Gauss-Legendre rule
    of v^p B(v), where B at each node is the kernel CDF by another 96-node
    rule (96 x 96 exponentials per u), and the flat part in closed form.
    The points go through the rule `chunk` at a time, which bounds its
    (96 chunk, 96) node grid."""
    u = np.asarray(u, dtype=float)
    mid = 0.5 * (lo + hi)
    flat_lo, flat_hi = min(lo + w, mid), max(hi - w, mid)

    def shoulder(a, b):
        x = np.clip(u, a, b)
        out = np.zeros(u.shape)
        inside = np.flatnonzero(x > a)
        for start in range(0, len(inside), chunk):
            rows = inside[start:start + chunk]
            out[rows] = _gl(lambda v: v ** p * _plateau(v, lo, hi, w), a, x[rows])
        return out

    top = np.clip(u, flat_lo, flat_hi)
    flat = (top * top ** p - flat_lo * flat_lo ** p) / (p + 1)
    return shoulder(lo - w, flat_lo) + flat + shoulder(flat_hi, hi + w)


def csv_writer_bytes(header, rows) -> bytes:
    """The bytes csv.writer writes for a header and rows of floats, each
    float as its f"{v:.17g}" string."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([f"{v:.17g}" for v in row] for row in rows)
    return buf.getvalue().encode()
