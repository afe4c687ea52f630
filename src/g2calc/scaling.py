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

Inverting that system gives mu_i = prod_t lambda_t^{E[i][t] / 6}, with
E = 6 M^-1 an integer matrix (checked at import).  For rational lambda_t
= n_t / d_t, mu_i^6 is built as one integer numerator and one denominator
(n_t^e goes up and d_t^e down for e > 0, the other way round for e < 0)
and reduced once, so no Fraction is made before that reduction.  mu_i is
its exact sixth root when there is one; the solve is exact whenever every
mu_i^6 is a sixth power, and otherwise the mu_i degrade to floats.
'''
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .forms import KForm
from .g2core import DIM, STANDARD_PHI_TERMS, is_g2_type, inverse_exact
from .rings import FLT, RAT, nth_root_fraction

#: index triples of the seven terms of the standard form, in order
SCALING_TRIPLES = tuple(idx for _, idx in STANDARD_PHI_TERMS)

#: incidence matrix M of the log-linear system: row t, column i is 1 when
#: axis i appears in triple t, so that M log(mu) = log(lambda)
INCIDENCE = [[1 if i in t else 0 for i in range(1, DIM + 1)] for t in SCALING_TRIPLES]

INCIDENCE_INV = inverse_exact(INCIDENCE)   # entries in (1/6)Z

if any((6 * x).denominator != 1 for row in INCIDENCE_INV for x in row):
    raise AssertionError("incidence inverse should be sixth-integral")
#: E = 6 M^-1, the integer exponents of mu_i^6 = prod_t lambda_t^E[i][t]
_SIXTH_EXPONENTS = tuple(tuple(int(6 * x) for x in row) for row in INCIDENCE_INV)


class NonPositiveScaleError(ValueError):
    """Scaling coefficients must all be positive."""


@dataclass
class ScalingExponents:
    """Frame scales mu with (mu_i theta^i)-pullback matching phi_(lambda)."""
    lambdas: tuple
    mus: tuple
    exact: bool

    def volume_factor(self):
        """(prod lambda)^{1/3} = prod mu."""
        prod = 1
        for m in self.mus:
            prod = prod * m
        return prod


def solve_scaling(lambdas) -> ScalingExponents:
    """Solve mu_a mu_b mu_c = lambda_t over the seven triples {abc}."""
    lambdas = tuple(lambdas)
    if len(lambdas) != DIM:
        raise ValueError("need seven scaling coefficients")
    exact_in = all(isinstance(l, (int, Fraction)) for l in lambdas)
    if any((l <= 0) for l in lambdas):
        raise NonPositiveScaleError(f"non-positive scaling coefficients in {lambdas}")
    mus = []
    exact = exact_in
    if exact_in:
        for row in _SIXTH_EXPONENTS:
            num = den = 1
            for l, e in zip(lambdas, row):
                if e > 0:
                    num *= l.numerator ** e
                    den *= l.denominator ** e
                elif e < 0:
                    num *= l.denominator ** -e
                    den *= l.numerator ** -e
            radicand = Fraction(num, den)
            root = nth_root_fraction(radicand, 6)
            if root is None:
                mus.append(float(radicand) ** (1.0 / 6.0))
                exact = False
            else:
                mus.append(root)
    else:
        logs = [math.log(float(l)) for l in lambdas]
        for i in range(DIM):
            mus.append(math.exp(sum(float(INCIDENCE_INV[i][t]) * logs[t]
                                    for t in range(DIM))))
        exact = False
    if exact:
        return ScalingExponents(tuple(Fraction(l) for l in lambdas), tuple(mus), True)
    return ScalingExponents(tuple(lambdas), tuple(float(m) for m in mus), False)


def scaled_form(lambdas) -> KForm:
    """phi_(lambda) = sum_i lambda_i phi_i."""
    lambdas = tuple(lambdas)
    if len(lambdas) != DIM:
        raise ValueError("need seven scaling coefficients")
    exact = all(isinstance(l, (int, Fraction)) for l in lambdas)
    scalar = Fraction if exact else float
    return KForm(DIM, 3, RAT if exact else FLT,
                 {idx: scalar(l) * scalar(c) for l, (c, idx) in zip(lambdas, STANDARD_PHI_TERMS)})


def scaled_volume_factor(lambdas):
    """Volume of phi_(lambda) relative to the standard volume by the closed
    law, checked against the volume of the induced metric; raises on
    disagreement.  For rational lambda the check is exact at every tuple,
    vol^3 = prod lambda; the law itself is a Fraction when prod lambda is
    a rational cube and a float otherwise."""
    lambdas = tuple(lambdas)
    if any(l <= 0 for l in lambdas):
        raise NonPositiveScaleError(f"non-positive scaling coefficients in {lambdas}")
    prod = 1
    for l in lambdas:
        prod = prod * l
    data = is_g2_type(scaled_form(lambdas))
    if all(isinstance(l, (int, Fraction)) for l in lambdas):
        if data.vol_cubed != prod:
            raise AssertionError(f"volume law: induced vol^3 = {data.vol_cubed} "
                                 f"!= prod lambda = {prod}")
        return nth_root_fraction(prod, 3) or float(prod) ** (1.0 / 3.0)
    law = float(prod) ** (1.0 / 3.0)
    if abs(law - float(data.sqrt_det)) > 1e-10 * max(1.0, law):
        raise AssertionError(f"volume law {law} != induced volume {float(data.sqrt_det)}")
    return law


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
