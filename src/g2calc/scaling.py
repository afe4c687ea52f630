'''Anisotropic scaling of the standard definite 3-form.

Writing phi_0 = phi_1 + ... + phi_7 for its seven basis terms, the family
phi_(lambda) = sum_i lambda_i phi_i stays definite for positive lambda and
its frame can be re-scaled to bring it back to standard shape: putting
theta^i -> mu_i theta^i requires solving a 7x7 linear system in the logs of
the mu_i, one equation per basis term.  The induced volume obeys

    vol_(lambda) = (prod_i lambda_i)^{1/3} vol.

In cubed form the law is the polynomial identity vol_(lambda)^3 =
prod_i lambda_i.  scaled_volume_factor checks it against is_g2_type's
exact vol^3 with zero tolerance at every rational lambda, whether or not
the volume itself is rational.

Each entry point checks lambda by one function (seven finite, positive
numbers; no bools) and carries a rational lambda_t = n_t / d_t as the
integer pair (n_t, d_t): phi_(lambda) has numerators over lcm(d_t), prod
lambda is (prod n_t, prod d_t), and mu_i = prod_t lambda_t^{E[i][t] / 6},
with E = 6 M^-1 an integer matrix (checked at import), comes from one
integer numerator and denominator of mu_i^6 (n_t^e up and d_t^e down for
e > 0, the other way round for e < 0) reduced by one gcd.  Every root is an
integer root of a reduced pair, or a float where it is irrational; the
solve is exact when every mu_i^6 is a sixth power.
'''
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .forms import KForm
from .g2core import DIM, STANDARD_PHI_TERMS, is_g2_type, inverse_exact
from .rings import FLT, RAT, _ratio_root

#: incidence matrix M of the log-linear system: row t, column i is 1 when
#: axis i appears in the triple of the standard form's term t, so that
#: M log(mu) = log(lambda)
INCIDENCE = [[1 if i in t else 0 for i in range(1, DIM + 1)] for _, t in STANDARD_PHI_TERMS]

INCIDENCE_INV = inverse_exact(INCIDENCE)   # entries in (1/6)Z

if any((6 * x).denominator != 1 for row in INCIDENCE_INV for x in row):
    raise AssertionError("incidence inverse should be sixth-integral")
#: E = 6 M^-1, the integer exponents of mu_i^6 = prod_t lambda_t^E[i][t]
_SIXTH_EXPONENTS = tuple(tuple(int(6 * x) for x in row) for row in INCIDENCE_INV)


class InvalidScaleError(ValueError):
    """A scaling coefficient is not a finite number, or is a bool."""


class NonPositiveScaleError(InvalidScaleError):
    """Scaling coefficients must all be positive."""


def _validated(lambdas):
    """(lambdas as a tuple, their (numerator, denominator) pairs or None for
    the float path); raises on a bool, NaN, inf or lambda <= 0."""
    lambdas = tuple(lambdas)
    if len(lambdas) != DIM:
        raise ValueError("need seven scaling coefficients")
    for l in lambdas:
        if isinstance(l, bool) or not (isinstance(l, (int, Fraction)) or math.isfinite(l)):
            raise InvalidScaleError(f"scaling coefficient {l!r} is not a finite number")
    rational = all(isinstance(l, (int, Fraction)) for l in lambdas)
    if not rational and all(isinstance(l, (int, Fraction, Integral)) for l in lambdas):
        # numpy's integers are rational too, as Python ints: their own powers wrap
        lambdas, rational = tuple(l if isinstance(l, (int, Fraction)) else int(l)
                                  for l in lambdas), True
    if not all((l.numerator if rational else l) > 0 for l in lambdas):
        raise NonPositiveScaleError(f"non-positive scaling coefficients in {lambdas}")
    return lambdas, [(l.numerator, l.denominator) for l in lambdas] if rational else None


@dataclass
class ScalingExponents:
    """Frame scales mu with (mu_i theta^i)-pullback matching phi_(lambda)."""
    lambdas: tuple
    mus: tuple
    exact: bool

    def volume_factor(self):
        """(prod lambda)^{1/3} = prod mu."""
        return math.prod(self.mus)


def solve_scaling(lambdas) -> ScalingExponents:
    """Solve mu_a mu_b mu_c = lambda_t over the seven triples {abc}."""
    lambdas, pairs = _validated(lambdas)
    if pairs is None:
        logs = [math.log(float(l)) for l in lambdas]
        mus = tuple(math.exp(sum(float(INCIDENCE_INV[i][t]) * logs[t] for t in range(DIM)))
                    for i in range(DIM))
        return ScalingExponents(lambdas, mus, False)
    mus = []
    for row in _SIXTH_EXPONENTS:
        num = den = 1
        for (n, d), e in zip(pairs, row):
            if e > 0:
                num *= n ** e
                den *= d ** e
            elif e < 0:
                num *= d ** -e
                den *= n ** -e
        g = math.gcd(num, den)
        num, den = num // g, den // g
        mus.append(_ratio_root(num, den, 6) or (num / den) ** (1.0 / 6.0))
    if all(type(m) is Fraction for m in mus):
        return ScalingExponents(tuple(Fraction(l) for l in lambdas), tuple(mus), True)
    return ScalingExponents(lambdas, tuple(float(m) for m in mus), False)


def _rational_form(pairs) -> KForm:
    """phi_(lambda) for the pairs (n_t, d_t), as numerators over lcm(d_t)."""
    D = math.lcm(*(d for _, d in pairs))
    return KForm._trusted(DIM, 3, RAT, {idx: c.numerator * n * (D // d) for (n, d), (c, idx)
                                        in zip(pairs, STANDARD_PHI_TERMS)}, D)


def scaled_form(lambdas) -> KForm:
    """phi_(lambda) = sum_i lambda_i phi_i."""
    lambdas, pairs = _validated(lambdas)
    return _rational_form(pairs) if pairs else KForm(DIM, 3, FLT, {
        idx: float(l) * float(c) for l, (c, idx) in zip(lambdas, STANDARD_PHI_TERMS)})


def scaled_volume_factor(lambdas):
    """Volume of phi_(lambda) relative to the standard volume by the closed
    law, checked against the volume of the induced metric; raises on
    disagreement.  For rational lambda the check is exact at every tuple,
    vol^3 = prod lambda; the law itself is a Fraction when prod lambda is
    a rational cube and a float otherwise."""
    lambdas, pairs = _validated(lambdas)
    if pairs is None:
        law = float(math.prod(lambdas)) ** (1.0 / 3.0)
        vol = float(is_g2_type(scaled_form(lambdas)).sqrt_det)
        if abs(law - vol) > 1e-10 * max(1.0, law):
            raise AssertionError(f"volume law {law} != induced volume {vol}")
        return law
    vol3 = is_g2_type(_rational_form(pairs)).vol_cubed
    num, den = math.prod(n for n, _ in pairs), math.prod(d for _, d in pairs)
    if vol3.numerator * den != num * vol3.denominator:
        raise AssertionError(f"volume law: induced vol^3 = {vol3} "
                             f"!= prod lambda = {Fraction(num, den)}")
    # vol^3 is prod lambda in lowest terms
    num, den = vol3.numerator, vol3.denominator
    return _ratio_root(num, den, 3) or (num / den) ** (1.0 / 3.0)


def hitchin_scaling_law(lambdas) -> dict:
    """Bundle (mu, volume factor, definiteness certificate) for one lambda."""
    expo = solve_scaling(lambdas)
    vol = scaled_volume_factor(lambdas)
    pm = expo.volume_factor()
    ok = (pm == vol) if expo.exact and isinstance(vol, Fraction) \
        else abs(float(pm) - float(vol)) <= 1e-10 * max(1.0, abs(float(vol)))
    if not ok:
        raise AssertionError("prod(mu) disagrees with the volume factor")
    return {"lambdas": expo.lambdas, "mus": expo.mus, "exact": expo.exact,
            "volume_factor": vol}
