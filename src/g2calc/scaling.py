'''Anisotropic scaling of the standard definite 3-form.

Writing phi_0 = phi_1 + ... + phi_7 for its seven basis terms, the family
phi_(lambda) = sum_i lambda_i phi_i stays definite for positive lambda and
its frame can be re-scaled to bring it back to standard shape: putting
theta^i -> mu_i theta^i requires solving a 7x7 linear system in the logs of
the mu_i, one equation per basis term.  The induced volume obeys

    vol_(lambda) = (prod_i lambda_i)^{1/3} vol.

In cubed form the law is the polynomial identity vol_(lambda)^3 =
prod_i lambda_i.  scaled_volume_factor checks it against is_g2_type's
exact vol^3 with zero tolerance at every lambda, whether or not the volume
itself is rational.

Each entry point checks lambda by one function (seven finite, positive
reals; no bools) and reads it exactly, a float by its binary value (8.0 is
8, 0.1 is 3602879701896397 / 2^55), so one path serves every lambda.  A
rational lambda_t = n_t / d_t is carried as the integer pair (n_t, d_t):
phi_(lambda) has numerators over lcm(d_t), and prod lambda is P = (prod n_t,
prod d_t).  The frame scales solve M log(mu) = log(lambda); row i of
E = 6 M^-1 is 2 on the three triples through axis i and -1 elsewhere
(built so, and checked by M E = 6 I in integers at import), so mu_i^6 =
L_i^3 / P with L_i the product of the three lambda_t through axis i.
mu_i^6 is one integer numerator and denominator reduced by one gcd.  Every
root is an integer root of a reduced pair, or a float where it is
irrational (`_float_root`); the solve is exact when every mu_i^6 is
a sixth power.
'''
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .forms import KForm
from .g2core import DIM, STANDARD_PHI_TERMS, is_g2_type
from .rings import RAT, _exact_real, _ratio_root

#: incidence matrix M of the log-linear system: row t, column i is 1 when
#: axis i appears in the triple of the standard form's term t, so that
#: M log(mu) = log(lambda)
INCIDENCE = [[1 if i in t else 0 for i in range(1, DIM + 1)] for _, t in STANDARD_PHI_TERMS]

#: per axis i, the positions t of the three terms whose triples hold i and
#: of the four that do not
_TERMS_BY_AXIS = tuple(
    tuple(tuple(t for t, (_, triple) in enumerate(STANDARD_PHI_TERMS) if (i in triple) == on)
          for on in (True, False))
    for i in range(1, DIM + 1))
# E = 6 M^-1 is 2 on the triples through i and -1 elsewhere, so mu_i^6 =
# L_i^3 / P; every column sums to 3 * 2 - 4 = 2, so prod mu^6 = (prod
# lambda)^2 = vol^6: the frame scales give the volume law by construction.
# M E = 6 I is checked in integers: entry (t, u) is the sum of E[i][u] over
# the three axes i of triple t, 3 * 2 on the diagonal and 2 - 1 - 1 = 0 off
# it, as two triples of the standard form share exactly one axis
_E = [[2 if t in through else -1 for t in range(DIM)] for through, _ in _TERMS_BY_AXIS]
if [[sum(m * e for m, e in zip(row, col)) for col in zip(*_E)] for row in INCIDENCE] != [
        [6 * (t == u) for u in range(DIM)] for t in range(DIM)]:
    raise AssertionError("M E should be 6 I, with E 2 on the triples through each axis "
                         "and -1 elsewhere")


class InvalidScaleError(ValueError):
    """A scaling coefficient is not a finite real or is a bool, or a root
    of the law lies outside the float range."""


class NonPositiveScaleError(InvalidScaleError):
    """Scaling coefficients must all be positive."""


def _float_root(num: int, den: int, k: int, name) -> float:
    """(num / den)^(1/k), num and den > 0, as a normal float: the root of the
    rounded ratio where that is normal, else 2^e times the root of the normal
    num / (den 2^(ke)); raises InvalidScaleError, naming `name`, past the
    float range."""
    try:
        if (q := num / den) >= sys.float_info.min:
            return q ** (1.0 / k)
    except OverflowError:
        pass
    # num / den = m 2^(ke) with m in (1/2, 2^k): the root is in (2^(e-1), 2^(e+1))
    e = (num.bit_length() - den.bit_length()) // k
    m = num / (den << k * e) if e >= 0 else (num << -k * e) / den
    try:
        if (root := math.ldexp(m ** (1.0 / k), e)) >= sys.float_info.min:
            return root
    except OverflowError:
        pass
    raise InvalidScaleError(f"{name}: an irrational (1/{k})-th power lies outside the float range")


def _validated(lambdas):
    """(lambdas as given, as a tuple; their exact (numerator, denominator)
    pairs); raises on a bool, NaN, inf, a non-real or lambda <= 0."""
    lambdas = tuple(lambdas)
    if len(lambdas) != DIM:
        raise ValueError("need seven scaling coefficients")
    exact = [_exact_real(l, "scaling coefficient", InvalidScaleError) for l in lambdas]
    if not all(l.numerator > 0 for l in exact):
        raise NonPositiveScaleError(f"non-positive scaling coefficients in {lambdas}")
    return lambdas, [(l.numerator, l.denominator) for l in exact]


@dataclass
class ScalingExponents:
    """Frame scales mu with (mu_i theta^i)-pullback matching phi_(lambda)."""
    lambdas: tuple
    mus: tuple
    exact: bool


def _solve(lambdas, pairs) -> ScalingExponents:
    """Solve mu_a mu_b mu_c = lambda_t over the seven triples {abc}."""
    ns, ds = [n for n, _ in pairs], [d for _, d in pairs]
    mus = []
    for (a, b, c), (w, x, y, z) in _TERMS_BY_AXIS:
        # mu_i^6 = L_i^3 / P = L_i^2 / (P / L_i), the last over the four
        # terms off axis i
        num = (ns[a] * ns[b] * ns[c]) ** 2 * ds[w] * ds[x] * ds[y] * ds[z]
        den = (ds[a] * ds[b] * ds[c]) ** 2 * ns[w] * ns[x] * ns[y] * ns[z]
        g = math.gcd(num, den)
        num, den = num // g, den // g
        mus.append(_ratio_root(num, den, 6)
                   or _float_root(num, den, 6, lambdas))
    if all(type(m) is Fraction for m in mus):
        return ScalingExponents(tuple(Fraction(n, d) for n, d in pairs), tuple(mus), True)
    return ScalingExponents(lambdas, tuple(float(m) for m in mus), False)


def _rational_form(pairs) -> KForm:
    """phi_(lambda) for the pairs (n_t, d_t), as numerators over lcm(d_t)."""
    D = math.lcm(*(d for _, d in pairs))
    return KForm._trusted(DIM, 3, RAT, {idx: c.numerator * n * (D // d) for (n, d), (c, idx)
                                        in zip(pairs, STANDARD_PHI_TERMS)}, D)


def scaled_volume_factor(lambdas):
    """Volume of phi_(lambda) relative to the standard volume by the closed
    law, checked against the volume of the induced metric; raises on
    disagreement.  The check is exact at every tuple, vol^3 = prod lambda;
    the law itself is a Fraction when prod lambda is a rational cube and a
    float otherwise."""
    return _volume_factor(*_validated(lambdas))


def _volume_factor(lambdas, pairs):
    vol3 = is_g2_type(_rational_form(pairs)).vol_cubed
    num, den = math.prod(n for n, _ in pairs), math.prod(d for _, d in pairs)
    if vol3.numerator * den != num * vol3.denominator:
        raise AssertionError(f"volume law: induced vol^3 = {vol3} "
                             f"!= prod lambda = {Fraction(num, den)}")
    # vol^3 is prod lambda in lowest terms
    num, den = vol3.numerator, vol3.denominator
    return _ratio_root(num, den, 3) or _float_root(num, den, 3, lambdas)


def hitchin_scaling_law(lambdas) -> dict:
    """Bundle (mu, volume factor, definiteness certificate) for one lambda;
    "lambdas" is exact (Fractions) when the mus are, else as given.  The
    volume factor is prod mu by construction (M E = 6 I, checked at import)."""
    lambdas, pairs = _validated(lambdas)
    expo = _solve(lambdas, pairs)
    vol = _volume_factor(lambdas, pairs)
    return {"lambdas": expo.lambdas, "mus": expo.mus, "exact": expo.exact,
            "volume_factor": vol}
