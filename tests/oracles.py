"""Independent references that the tests hold the package's kernels against:
the interior product and one-point evaluation of a form, the inverse metric
and exact inner product of G2Data, and the closed form and right-hand side
of the scalar flow line.  No code in src/g2calc calls them."""
from fractions import Fraction
from typing import Mapping

from g2calc import g2core
from g2calc.flow import _mu_closed, _mu_dot, _rate_constants
from g2calc.forms import KForm
from g2calc.rings import FLT, RAT, MixedRingError, coerce_to, ring_of


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


def metric_inv(data) -> list:
    """g^-1 = r B^-1 = r d N^-1 of the data of a rational 3-form, as Fractions
    where r is rational and floats otherwise."""
    N, d = data._ints
    R, p = g2core._inverse_integer(N)
    return [[Fraction(d * x, p) * data._r for x in row] for row in R]


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
    return data.r_power(p - 1) * x if p else data.r_power(2) * x / data._r3


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
