'''Command-line driver: identity suites and artifact sweeps.

`g2calc verify` runs every identity suite and exits 0 only if all exact
identities hold and all numeric certificates are within tolerance; `scan`,
`flow`, `eh`, `collapse` emit the per-module CSV/JSON artifacts.  Exit
codes: 0 pass, 1 failure (first failing check is named), 2 usage error.
'''
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import deque
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations

from . import catalog, collapse, ehmetric, flow, forms, g2core, scaling
from ._numpy import np
from .forms import _INDEX, _MASKS, KForm, PolynomialMap, _label, merge_sign, poly_ring
from .g2core import (SU2FiberData, bilinear_from_3form, hodge_star, is_g2_type,
                     standard_phi, star_parts, su2_assemble)
from .liecdga import (InvariantModel, JacobiError, LeibnizError, PrimitiveMismatch,
                      StructureEqs, check_d_squared, check_leibniz, d_invariant,
                      load_model, model_from_dict, model_to_dict, verify_primitive)
from .rings import RAT, Poly, _pack

DIM = 7


class UsageError(ValueError):
    """A command-line value outside its domain: main prints it on one
    stderr line and returns 2, before any output file is written."""


#: the largest magnitude of a scale value (--mu, --alpha, --lambda, --t-end,
#: --t, --R), and the inverse of the smallest for --alpha, --t and --c,
#: which divide.  The commands raise these values to powers up to the 18th
#: (B of phi^mu has entries of order mu^18; eh forms t^4 and (t R)^6, with
#: an automatic R of order c^(-1/4); one RK4 step of flow takes mu^7 at mu
#: of order t-end / alpha^2): in [1e-8, 1e8] every such float stays in
#: range, and at 1e100 or 1e-100 some leave it
SCALE = 1e8


def _value(flag: str, text, ok=lambda x: x > 0, need: str = "positive") -> float:
    """The command-line value `text` of `flag` as a finite float x with
    ok(x); a non-number, NaN or an infinity is refused whatever ok says."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise UsageError(f"{flag} must be a finite number, got {text!r}")
    if not ok(x):
        raise UsageError(f"{flag} must be {need}, got {text!r}")
    return x


# ===========================================================================
# verify suites
# ===========================================================================
# Each check is a function fn(rng) -> (ok, detail), registered in CHECKS under
# a stable id whose prefix before the first dot names its suite; rng is a
# random.Random seeded with --seed, and every sampled check draws from it.

def _rand_invariant_form(rng, k) -> KForm:
    """A k-form on R^7 with integer coefficients in [-4, 4], drawn in one
    call, one per index in index order."""
    idxs = list(combinations(range(1, DIM + 1), k))
    cs = rng.choices(range(-4, 5), k=len(idxs))
    return KForm._trusted(DIM, k, RAT, dict(zip(idxs, cs)), 1)


def _sum_over_terms(f, x) -> KForm:
    """The sum of c f(theta^I) over the terms c theta^I of x, from f(0):
    f(x) itself when f is additive and homogeneous."""
    return sum((c * f(KForm.basis(DIM, idx)) for idx, c in x.coeffs.items()),
               f(KForm.zero(DIM, x.degree)))


def _basis(m: int) -> KForm:
    return KForm.basis(DIM, _INDEX[m])


def _labels(*masks) -> str:
    return ", ".join(_label(_INDEX[m]) for m in masks)


# The wedge and d read integer tables: forms._SIGN, read as an attribute of
# forms because it is the table merge_sign reads, and the rows of d.  The
# algebra checks prove their identity on every basis pair or triple of the
# tables, and sample only what ties the code to them: products of random
# basis monomials against merge_sign, and additivity and homogeneity on
# dense random forms.
MONOMIAL_DRAWS = 30
DENSE_DRAWS = 2


def _check_graded_commutativity(rng):
    sign = forms._SIGN
    odd = [m.bit_count() & 1 for m in range(1 << DIM)]
    for b, row in enumerate(sign):
        for a, s in enumerate(row):
            if a & b:
                ok = s == 0
            else:       # s t = +-1 makes both signs +-1
                ok = s * sign[a][b] == (-1 if odd[a] & odd[b] else 1)
            if not ok:
                return False, f"sign table: the sign of {_labels(a, b)} is {s}"
    for _ in range(MONOMIAL_DRAWS):
        a, b = rng.randrange(1 << DIM), rng.randrange(1 << DIM)
        idx, s = merge_sign(a, b)
        if _basis(a).wedge(_basis(b)).coeffs != ({idx: s} if s else {}):
            return False, f"the wedge of {_labels(a, b)} differs from merge_sign"
    for _ in range(DENSE_DRAWS):
        k, l = rng.randrange(1, 4), rng.randrange(1, 4)
        a, b = _rand_invariant_form(rng, k), _rand_invariant_form(rng, l)
        if a.wedge(b) != _sum_over_terms(lambda t: t.wedge(b), a):
            return False, f"a ^ b is not additive and homogeneous in a at degrees ({k},{l})"
    return True, (f"proved on all {len(sign) ** 2} ordered basis pairs of the sign table; "
                  f"wedge equals merge_sign on {MONOMIAL_DRAWS} random basis pairs and is "
                  f"linear in its left factor on {DENSE_DRAWS} random dense pairs, exact")


def _check_wedge_associativity(rng):
    sign, top = forms._SIGN, (1 << DIM) - 1
    subsets = [[s for s in range(m + 1) if s & m == s] for m in range(top + 1)]
    triples = 0
    for a in range(top + 1):
        for b in subsets[top ^ a]:
            sab, ab = sign[b][a], a | b
            for c in subsets[top ^ ab]:
                triples += 1
                if sab * sign[c][ab] != sign[c][b] * sign[b | c][a]:
                    return False, f"sign table: not associative on {_labels(a, b, c)}"
    for _ in range(MONOMIAL_DRAWS):
        a, b, c = (rng.randrange(1 << DIM) for _ in range(3))
        _, s = merge_sign(a, b)
        abc, t = merge_sign(a | b, c)
        if _basis(a).wedge(_basis(b)).wedge(_basis(c)).coeffs != ({abc: s * t} if s * t else {}):
            return False, f"the wedge of {_labels(a, b, c)} differs from merge_sign"
    for _ in range(DENSE_DRAWS):
        k, l = rng.randrange(1, 4), rng.randrange(1, 4)
        a, b = _rand_invariant_form(rng, k), _rand_invariant_form(rng, l)
        if a.wedge(b) != _sum_over_terms(a.wedge, b):
            return False, f"a ^ b is not additive and homogeneous in b at degrees ({k},{l})"
    return True, (f"proved on all {triples} disjoint basis triples of the sign table; "
                  f"wedge equals merge_sign on {MONOMIAL_DRAWS} random basis triples and is "
                  f"linear in its right factor on {DENSE_DRAWS} random dense pairs, exact")


def _rand_poly_form(rng, k, vars) -> KForm:
    """Each index kept with probability 1/2, with the coefficient c x_u x_w:
    c an integer in [-3, 3], u and w two variable picks (with replacement),
    each factor kept with probability 0.6.  The keep flags, coefficients,
    picks and factor flags are drawn as one list each, the picks and the
    factor flags two per index.  The form is built as packed integers, with
    no Poly."""
    idxs = list(combinations(range(1, DIM + 1), k))
    n = len(idxs)
    keep = [rng.random() >= 0.5 for _ in range(n)]
    cs = rng.choices(range(-3, 4), k=n)
    picks = rng.choices(range(len(vars)), k=2 * n)
    factors = [rng.random() < 0.6 for _ in range(2 * n)]
    coeffs = {}
    for i, idx in enumerate(idxs):
        if keep[i] and cs[i]:
            e = [0] * len(vars)
            for j in (2 * i, 2 * i + 1):
                e[picks[j]] += factors[j]
            coeffs[_MASKS[idx]] = {_pack(e): cs[i]}
    return KForm._packed(DIM, k, poly_ring(vars), coeffs, 1)


def _check_d_chart_squared(rng):
    vars = tuple(f"y{i}" for i in range(1, 8))
    for _ in range(60):
        a = _rand_poly_form(rng, rng.randrange(0, 3), vars)
        if not a.d_chart().d_chart().is_zero():
            return False, "d(d a) != 0"
    return True, "sampled: 60 random polynomial forms (no finite basis), exact"


def _check_pullback_commutes_d(rng):
    vars = tuple(f"y{i}" for i in range(1, 8))
    # fixed quadratic self-map of the chart
    comps = {}
    for i, v in enumerate(vars):
        p = Poly.var(vars, v)
        w = vars[(i + 2) % 7]
        p = p + Poly.var(vars, w) * Poly.var(vars, w) * Fraction(1, 3)
        comps[v] = p
    F = PolynomialMap(vars, vars, comps)
    for _ in range(40):
        a = _rand_poly_form(rng, rng.randrange(1, 3), vars)
        if F.pullback(a.d_chart()) != F.pullback(a).d_chart():
            return False, "F^* d != d F^*"
    return True, "sampled: 40 random polynomial forms (no finite basis), exact"


def _check_leibniz(rng):
    for label, model_fn in (("product model", catalog.nakamura_model),
                            ("nilmanifold model", catalog.ffkm_model)):
        eqs = model_fn().eqs
        try:
            pairs = check_leibniz(eqs)
        except LeibnizError as e:
            return False, f"{label}: {e}"
        for _ in range(DENSE_DRAWS):
            a = _rand_invariant_form(rng, rng.randrange(1, 4))
            if d_invariant(eqs, a) != _sum_over_terms(partial(d_invariant, eqs), a):
                return False, (f"{label}: d is not additive and homogeneous on a "
                               f"{a.degree}-form")
    return True, (f"proved on all {pairs} basis pairs of each built-in model's d table; "
                  f"d is linear on {DENSE_DRAWS} random dense forms per model, exact")


def _check_d_squared(model_fn, label, rng, on_all_forms=False):
    """d^2 = 0 on the generators; `on_all_forms` adds the Leibniz rule on
    every basis pair of the d table, which makes it d^2 = 0 on all forms."""
    try:
        eqs = model_fn().eqs
        check_d_squared(eqs)
        if not on_all_forms:
            return True, f"{label}: d^2 = 0 on all generators, exact"
        pairs = check_leibniz(eqs)
    except (JacobiError, LeibnizError) as e:
        return False, f"{label}: {e}"
    return True, (f"{label}: d^2 = 0 on all forms (on the generators, and the "
                  f"Leibniz rule on all {pairs} basis pairs), exact")


def _check_model_roundtrip(rng):
    m = catalog.nakamura_model()
    m2 = model_from_dict(model_to_dict(m))
    same = (m2.eqs.d_gen == m.eqs.d_gen
            and m2.eqs.generators == m.eqs.generators
            and set(m2.named_forms) == set(m.named_forms)
            and all(m2.named_forms[k] == m.named_forms[k] for k in m.named_forms))
    return same, "JSON round-trip preserves structure equations and named forms"


def _diag(*entries):
    """The 7x7 diagonal matrix with these entries, as nested lists."""
    return [[x if i == j else 0 for j in range(DIM)] for i, x in enumerate(entries)]


def _check_standard_metric(rng):
    # the metric and volume are Fractions, or raise where r is irrational
    data = is_g2_type(standard_phi())
    ok = data.metric == _diag(*[1] * DIM) and data.sqrt_det == 1
    return ok, "g_phi0 = id, vol = 1, exact"


# The exact sampled checks draw their inputs uniformly from a grid of S
# values per coordinate.  By Schwartz and Zippel, a nonzero polynomial of
# total degree D vanishes at such a point with probability at most D/S, or
# (D/S)/acceptance when the draws that are not definite are thrown away:
# that is the false-pass bound of one sample.  Each identity is cleared of
# r by r^9 = 36 det B, with B cubic in phi:
#   **a = a: *a = 6 r^(k-8) M_{7-k}(a), M_j(a) linear in a over the j x j
#     minors of B (degree 3j in phi), so **a = M_k(M_{7-k}(a)) / det B,
#     and det B a = M_k(M_{7-k}(a)) has D = 21 + 1 = 22 in (delta, a).
#   phi ^ *phi = 7 vol: *phi = 6 r^-5 M_4(phi), and Q = top(phi ^ M_4(phi))
#     has degree 14, so 36 Q = 7 r^6, or cubed (36 Q)^3 = 343 (36 det B)^2:
#     D = 42 in delta.
#   the SU(2) family (phi linear in nu): B = 6 diag(nu^2, 1, 1, nu, nu, nu,
#     nu) has D = 3; vol^3 = nu^2 reads 36 det B = 216^3 nu^6, D = 21; and
#     *phi = r Y cubes as above to (6 M_4(phi))^3 = (36 det B)^2 Y^3, where
#     Y has denominators nu, so nu^3 times it has D = 3 + 42 = 45.
#: the grid 10^-6 Z of every exact sample; delta and the test forms lie in
#: [-1/5, 1/5] (S = 400001 values), nu in [1/5, 5] (S = 4800001)
GRID, BOX = 10 ** 6, 2 * 10 ** 5
#: definite samples per star check
STAR_SAMPLES = 8


def _grid_form(rng, idxs) -> KForm:
    """A form on the multi-indices idxs, its coefficients drawn uniformly
    from the grid in [-1/5, 1/5] in one call."""
    nums = rng.choices(range(-BOX, BOX + 1), k=len(idxs))
    return KForm._trusted(DIM, len(idxs[0]), RAT, dict(zip(idxs, nums)), GRID)


def _definite_samples(rng):
    """(phi, is_g2_type(phi), draws so far) for the first STAR_SAMPLES
    definite forms phi = phi_0 + delta among at most 100 draws, delta on the
    grid; lazy, so a caller's own draws from rng come between the forms'
    draws."""
    phi0, found = standard_phi(), 0
    for draws in range(1, 101):
        phi = phi0 + _grid_form(rng, g2core.TRIPLES)
        try:
            data = is_g2_type(phi)
        except g2core.NotStableError:
            continue
        yield phi, data, draws
        found += 1
        if found == STAR_SAMPLES:
            return


def _sampled_detail(what, found, draws, degree):
    """(ok, detail) of an exact star check after its samples: the sample
    count, the grid and the false-pass bound."""
    if found < STAR_SAMPLES:
        return False, f"only {found} of {draws} draws of phi_0 + delta are definite"
    S = 2 * BOX + 1
    return True, (f"{what}, exact at {found} definite phi = phi_0 + delta "
                  f"({draws} draws), all inputs on the grid 10^-6 Z in "
                  f"[-1/5, 1/5]; false-pass bound per sample (D/S)/acceptance "
                  f"= ({degree}/{S})/({found}/{draws}) = "
                  f"{degree / S * draws / found:.1e}")


def _check_star_star(rng):
    found = draws = 0
    for _, data, draws in _definite_samples(rng):
        found += 1
        r3 = 216 * data.vol_cubed
        for k in (2, 3):
            a = _grid_form(rng, list(combinations(range(1, DIM + 1), k))[:10])
            y, p = star_parts(data, a)
            back, q = star_parts(data, y)
            # **a = r^(p+q) back, and p + q is 0 or 3
            if r3 ** ((p + q) // 3) * back != a:
                return False, f"**a != a at k = {k}, sample {found}"
    return _sampled_detail("**a = a at k = 2, 3 on 10-term a", found, draws, 22)


def _check_seven_vol(rng):
    found = draws = 0
    for phi, data, draws in _definite_samples(rng):
        found += 1
        y, _ = star_parts(data, phi)
        # *phi = r Y and 7 vol = 7 r / 6
        top = phi.wedge(y).top_coefficient()
        if top != Fraction(7, 6):
            return False, f"top(phi ^ Y) = {top} != 7/6 at sample {found}"
    return _sampled_detail("phi ^ *phi = 7 vol as *phi = r Y, top(phi ^ Y) = 7/6",
                           found, draws, 42)


def _theta(*axes) -> KForm:
    """The rational basis form theta^axes in dimension DIM."""
    return KForm.basis(DIM, axes)


def _su2_family(nu):
    om = nu * (_theta(4, 5) + _theta(6, 7))
    re = _theta(4, 6) - _theta(5, 7)
    im = _theta(4, 7) + _theta(5, 6)
    fiber = SU2FiberData(om, re, im)
    phi = su2_assemble(_theta(1), _theta(2), _theta(3), fiber)
    return phi, fiber, om, re, im


def _check_su2_nu8(rng):
    nu = Fraction(8)
    phi, fiber, om, re, im = _su2_family(nu)
    if fiber.nu_sq != nu ** 2:
        return False, f"normalisation constant nu^2 = {fiber.nu_sq} != 64"
    data = is_g2_type(phi)
    if data.metric != _diag(16, Fraction(1, 4), Fraction(1, 4), 2, 2, 2, 2):
        return False, "metric disagrees with the displayed diagonal"
    if data.sqrt_det != Fraction(4):   # nu^{2/3} = 4
        return False, f"volume {data.sqrt_det} != nu^(2/3)"
    star_expected = (Fraction(4) * _theta(4, 5, 6, 7)
                     + Fraction(1, 16) * _theta(2, 3).wedge(om)
                     + Fraction(4) * _theta(1, 3).wedge(re)
                     + Fraction(4) * _theta(1, 2).wedge(im))
    if hodge_star(data, phi) != star_expected:
        return False, "*phi disagrees with the displayed closed form"
    return True, "metric, volume and *phi match the closed forms exactly at nu = 8"


def _check_su2_random_nu(rng):
    for n in rng.choices(range(BOX, 25 * BOX + 1), k=20):
        nu = Fraction(n, GRID)
        phi, fiber, om, re, im = _su2_family(nu)
        if fiber.nu_sq != nu ** 2:
            return False, f"normalisation constant nu^2 = {fiber.nu_sq} != {nu ** 2}"
        data = is_g2_type(phi)
        # vol = nu^(2/3) and g = diag(nu^(4/3), nu^(-2/3) x 2, nu^(1/3) x 4),
        # so g vol = B / 6 = diag(nu^2, 1, 1, nu, nu, nu, nu)
        if data.vol_cubed != nu ** 2:
            return False, f"vol^3 = {data.vol_cubed} != nu^2 at nu = {nu}"
        if bilinear_from_3form(phi) != _diag(*(6 * x for x in (nu ** 2, 1, 1, nu, nu, nu, nu))):
            return False, f"metric disagrees with the displayed diagonal at nu = {nu}"
        # nu^(2/3) = r / 6 and nu^(-4/3) = r / (6 nu^2), so *phi = r Y
        want = Fraction(1, 6) * (_theta(4, 5, 6, 7) + (1 / nu ** 2) * _theta(2, 3).wedge(om)
                                 + _theta(1, 3).wedge(re) + _theta(1, 2).wedge(im))
        if star_parts(data, phi) != (want, 1):
            return False, f"*phi disagrees with the displayed closed form at nu = {nu}"
    S = 24 * BOX + 1
    return True, (f"metric, volume and *phi match the closed forms exactly at 20 "
                  f"random nu on the grid 10^-6 Z in [1/5, 5]; false-pass bound "
                  f"per sample D/S = 45/{S} = {45 / S:.1e}")


def _rand_cube_lambdas(rng):
    """Seven random positive rationals whose product is a perfect cube: six
    (a/b)^3, a and b in 1..8, and a cube c^3, c in 1..4."""
    ab = rng.choices(range(1, 9), k=12)
    return ([Fraction(a, b) ** 3 for a, b in zip(ab[::2], ab[1::2])]
            + [Fraction(rng.randrange(1, 5)) ** 3])


def _check_volume_law(rng):
    for _ in range(50):
        lams = _rand_cube_lambdas(rng)
        # scaled_volume_factor itself raises if the closed law and the
        # induced-metric volume disagree in exact arithmetic
        vol = scaling.scaled_volume_factor(lams)
        if not isinstance(vol, Fraction):
            return False, f"inexact volume at {lams}"
    return True, "50 random rational tuples with perfect-cube product, exact"


def _check_hitchin_exponent(size, rng):
    # phi(la) = phi0 + la * (sum of |I| standard terms): volume ratio
    # (1 + la)^{|I|/3}; scaled_volume_factor checks vol^3 = (1 + la)^|I|
    # exactly at every rational la, and the ratio itself is exact whenever
    # 1 + la is a rational cube
    rho = Fraction(3, 2)
    lam = rho ** 3 - 1
    lams = [1 + lam if i < size else Fraction(1) for i in range(DIM)]
    vol = scaling.scaled_volume_factor(lams)
    if vol != rho ** size:
        return False, f"exact ratio {vol} != (1+la)^({size}/3)"
    for _ in range(10):
        la = Fraction(rng.uniform(0.1, 9.0)).limit_denominator(1000)
        scaling.scaled_volume_factor([1 + la if i < size else Fraction(1)
                                      for i in range(DIM)])
    return True, (f"exact at cube 1+la; vol^3 = (1+la)^{size} exact at 10 "
                  f"random rational la")


def _check_mu4_hitchin(rng):
    # vol(phi^mu) = mu^4 vol(phi), cubed: the generic point has an
    # irrational volume, but vol^3 and its ratio mu^12 are exact
    for (a, b, lam), mus in (((1, 1, 1), (2, 3)), ((2, 3, (1, 2)), (2, 5))):
        v1 = is_g2_type(catalog.phi_abl(a, b, lam)).vol_cubed
        for mu in mus:
            vm = is_g2_type(catalog.phi_abl_mu(a, b, lam, mu)).vol_cubed
            if vm != Fraction(mu) ** 12 * v1:
                return False, (f"vol^3 ratio at ({a}, {b}, {lam}), mu={mu} is "
                               f"{vm / v1}, not mu^12")
    return True, ("vol^3(phi^mu) = mu^12 vol^3(phi), exact at (1,1,1) for "
                  "mu = 2, 3 and at (2,3,(1,2)) for mu = 2, 5")


def _check_mu2_volume(rng):
    v1 = is_g2_type(catalog.phi_check_mu(1)).sqrt_det
    for mu in (2, 3):
        vm = is_g2_type(catalog.phi_check_mu(mu)).sqrt_det
        if vm != Fraction(mu) ** 2 * v1:
            return False, f"volume ratio at mu={mu} is {vm / v1}, not mu^2"
    return True, "vol(phi-check^mu) = mu^2 vol(phi-check), exact at mu = 2, 3"


def _check_closed_families(rng):
    nak = catalog.nakamura_model()
    for a, b in ((1, 1), (2, 3)):
        for lam in ((1, 0), (2, 5), (Fraction(1, 3), Fraction(-2, 7))):
            for mu in (1, 2):
                phi = catalog.phi_abl_mu(a, b, lam, mu, nak)
                if not d_invariant(nak.eqs, phi).is_zero():
                    return False, f"d phi != 0 at ({a},{b},{lam};{mu})"
    ffkm = catalog.ffkm_model()
    for mu in (1, 2, 3):
        if not d_invariant(ffkm.eqs, catalog.phi_check_mu(mu)).is_zero():
            return False, f"d phi-check^{mu} != 0"
    return True, "both families closed, exact on a rational parameter grid"


def _check_exactness_witness(rng):
    m = catalog.nakamura_model()
    rho, target = m.witnesses["two_g1_wedge_omega"]
    # and the class primitive of phi^mu - phi
    mu = Fraction(2)
    prim = (mu ** 6 - 1) * Fraction(1, 2) * Fraction(3) * rho  # alpha = 3
    diff = catalog.phi_abl_mu(3, 1, 1, mu, m) - catalog.phi_abl(3, 1, 1, m)
    for name, primitive, want in (("rho", rho, target), ("mu-family", prim, diff)):
        try:
            verify_primitive(m.eqs, primitive, want)
        except PrimitiveMismatch as e:
            return False, f"{name} primitive: {e}"
    return True, "d(rho) = 2 g^1^omega and the mu-family primitive, exact"


def _check_primitive_ledger(rng):
    for mu in (1, 2):
        rows = catalog.primitive_ledger(mu)
        bad = [r for r in rows if r["status"] != "pass"]
        if bad:
            return False, f"mu={mu}: {bad[0]['check']}"
    return True, "all region primitives verify at mu = 1, 2"


def _check_master_identity(rng):
    return catalog.master_identity_check(), \
        "phi^mu - xi^mu = y1 dy^147 + d(alpha), exact polynomial identity"


def _check_boundary_identity(rng):
    return catalog.resolution_boundary_identity(), \
        "homothety-rescaled boundary match, exact in (y, mu^3)"


def _check_ch_map(rng):
    model = catalog.nakamura_model()
    seen = {}
    for a in (1, 2, 3, Fraction(1, 2)):
        for b in (1, 2, Fraction(1, 3), 5):
            for lam in ((1, 0), (2, 1), (0, 1), (Fraction(1, 2), Fraction(-3, 4))):
                re, im = Fraction(lam[0]), Fraction(lam[1])
                got = catalog.ch_map(catalog.phi_abl(a, b, lam, model), model)
                want = (Fraction(a) * b, re, im, b * re, b * im)
                if got != want:
                    return False, f"ch at ({a},{b},{lam}): {got} != {want}"
                if want in seen and seen[want] != (a, b, lam):
                    return False, f"collision between {(a, b, lam)} and {seen[want]}"
                seen[want] = (a, b, lam)
    return True, "4x4x4 rational grid, exact values and pairwise injective"


def _check_quadlem_constant(rng):
    # two independent draws of different sizes
    out = catalog.measure_quadlem_constant(rng, n=200)
    out2 = catalog.measure_quadlem_constant(rng)
    c1, c2 = out["C"], out2["C"]
    stable = abs(c1 - c2) <= 0.2 * max(c1, c2)
    return stable, f"C = {c1:.4f} (n=200) vs {c2:.4f} (n=400)"


def _check_glued_definite(rng):
    lowest = math.inf
    for mu in (1, 2, 8):
        # 70 uniforms, filling the 10 points row by row
        pts = ehmetric.uniforms(rng, -0.05, 0.05, (10, 7))
        try:
            out = catalog.glued_form_at(pts, mu)
        except g2core.NotStableError as e:
            where = ", ".join(f"y{i}={v:.4g}" for i, v in enumerate(pts[e.row], 1))
            return False, f"not definite at mu={mu}, ({where}): {e}"
        lowest = min(lowest, float(np.linalg.eigvalsh(out["metric"])[:, 0].min()))
    return True, (f"glued form definite at 10 random chart points per mu in "
                  f"{{1,2,8}}; smallest metric eigenvalue {lowest:.4g}")


def _check_resolution_margins(rng):
    out = catalog.ResolutionForms(8).margins(rng)
    return out["g2_certified"] and out["inner_bound_ok"], \
        (f"outer gap {out['outer_gap']:.3e} and inner gap C/mu^3 = "
         f"{out['inner_gap']:.3e} <= eps/2, C = {out['inner_C']:.3f}")


def _check_flow_unit(rng):
    m = catalog.nakamura_model()
    lap = flow.laplacian(catalog.phi_abl_mu(1, 1, 1, 1, m), m)
    want = 4 * m.named_forms["g1"].wedge(m.named_forms["omega"])
    return lap == want, "Delta phi(1,1,1) = 4 g^1 ^ omega, exact"


def _check_flow_family(rng):
    gap = flow.check_flow_consistency(2, 1, (1, 1), 2)
    return type(gap) is Fraction and gap == 0, \
        (f"Delta phi(2, 1, 1+i; 2) = r Z against 4 L^(2/3)/(alpha mu^2) g^1^omega: "
         f"relative gap of the cubes {gap}, exact")


def _check_flow_ffkm(rng):
    m = catalog.ffkm_model()
    lap = flow.laplacian(m.named_forms["phi"], m)
    want = 2 * _theta(1, 2, 3) + 2 * _theta(1, 4, 5) - _theta(1, 3, 6) + _theta(1, 2, 7)
    return lap == want, "Delta phi-check matches its four-term display, exact"


def _check_flow_torus(rng):
    eqs = StructureEqs(DIM, [None] * DIM, tuple(f"t{i}" for i in range(1, 8)))
    m = InvariantModel(eqs, {}, label="flat torus")
    lap = flow.laplacian(standard_phi(), m)
    return lap.is_zero(), "flat-torus Laplacian vanishes, exact"


def _check_flow_trajectory(rng):
    err = max(r[3] for r in flow.flow_integrate(1, (1, 1), 1.0, 10000))
    return err < 1e-10, f"max |mu_RK4 - mu_closed| = {err:.3e} at 10^4 steps"


def _check_flow_order(rng):
    e1, e2 = (deque(flow.flow_integrate(1, (2, 1), 1.0, steps), maxlen=1)[0][3]
              for steps in (40, 80))
    ratio = e1 / e2
    return 12.0 < ratio < 20.0, f"halving-step error ratio {ratio:.2f} (expect ~16)"


def _check_eh_ricci(rng):
    res = ehmetric.ricci_residual(1.0, np.linspace(0.5, 40.0, 25))
    return res < 1e-8, f"max |d/dlam[lam^2 a'^2] - 2 lam| = {res:.3e}"


def _check_eh_mass(rng):
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        p = ehmetric.build_profile(t, 4.0, 1.0)
        worst = max(worst, abs(p.h(np.array([p.q]))[0] + t ** 4) / t ** 4)
    return bool(worst < 1e-10), f"relative defect of integral(k) = -t^4: {worst:.3e}"


def _check_eh_certificate(rng):
    # the certificate raises ConstructionFailed unless the margin is
    # positive, which fails this check; a returned report is positive
    prof = ehmetric.build_profile(1.0, 4.0, 1.0)
    rep = ehmetric.positivity_and_volume_certificate(prof, rng, n_r=300, n_ang=12)
    floor = rep["volume_floor"]
    ok = rep["volume_ok"] and abs(rep["min_ratio"] - floor) < 1e-6
    return ok, (f"margin {rep['min_margin']:.4f} > 0 (the certificate raises "
                f"otherwise), volume ratio "
                f"{rep['min_ratio']:.12f} vs floor {floor:.12f}")


def _check_eh_upsilon(rng):
    vals = []
    for t in (0.01, 0.1, 1.0):
        p = ehmetric.build_profile(t, 4.0, 1.0)
        rep = ehmetric.positivity_and_volume_certificate(p, rng, n_r=120, n_ang=8)
        vals.append(rep["upsilon_measured"])
    spread = (max(vals) - min(vals)) / max(vals)
    return spread < 0.01, f"upsilon spread across t = 0.01/0.1/1: {spread:.2e}"


def _check_eh_equivariance(rng):
    p1 = ehmetric.build_profile(1.0, 4.0, 1.0)
    s = 3.0
    p2 = ehmetric.build_profile(s, 4.0, 1.0)
    lams = np.linspace(0.1, 1.2 * p1.q, 40)
    worst = float(np.abs(p2.k(s * s * lams) - s * s * p1.k(lams)).max())
    return worst < 1e-12, f"max |k_st(s^2 lam) - s^2 k_t(lam)| = {worst:.3e}"


def _check_eh_closedness(rng):
    out = ehmetric.closedness_residual(ehmetric.build_profile(1.0, 4.0, 1.0), rng)
    return out["residual"] < 1e-6, (
        f"Richardson finite-difference |d omega| <= {out['residual']:.3e} at "
        f"{out['points']} points, largest at u = lam/q = {out['u']:.6f} (pinned: "
        f"the shoulders u = p_lo, p_hi and u = 1/4)")


def _check_eh_budget(rng):
    c_meas = ehmetric.measure_dlam_constant(rng)
    budget = ehmetric.positivity_budget(4.0)
    return budget < 1.0 and abs(c_meas - 1.0) < 1e-12, \
        f"measured |dlam ^ dclam|/4r^2 constant {c_meas}, budget {budget:.4f} < 1"


def _check_eh_infeasible(rng):
    try:
        ehmetric.build_profile(1.0, 0.9 * ehmetric.feasibility_threshold(1.0), 1.0)
    except ehmetric.Infeasible:
        return True, "radii below the feasibility threshold are rejected"
    return False, "no Infeasible raised below the threshold"


#: the rescaled product-family point (alpha, beta, lambda) of the premise checks
NAKAMURA_POINT = (2, 1, (1, 1))

#: a point of the FFKM gluing chart off every coordinate plane
FFKM_CHART_POINT = {"y1": 0.02, "y2": 0.01, "y4": 0.3, "y5": 0.015, "y6": 0.01,
                    "y7": 0.2}


def _nakamura_premises(mus):
    """Convergence premises of the rescaled product family at NAKAMURA_POINT
    over `mus`, against its limit as read off at mu = 2."""
    base = collapse.nakamura_metric(*NAKAMURA_POINT, 2).limit
    samples = [collapse.nakamura_metric(*NAKAMURA_POINT, mu) for mu in mus]
    return collapse.premise_check(samples, base)


def _check_collapse_lambda(rng):
    rep = _nakamura_premises((1, 2, 4, 8, 16, 32))
    worst = max(abs(v - 1.0) for v in rep["lambdas"].values())
    return rep["pass"] and worst < 1e-6, \
        f"Lambda_mu = 1 within {worst:.2e} on mu in 1..32, gaps nonincreasing"


def _check_collapse_product_rates(rng):
    out = collapse.rescaled_decay_exponents(*NAKAMURA_POINT, 8, 16)
    ok = abs(out["omega_block"] + 6) < 0.06 and abs(out["transverse_block"] + 12) < 0.12
    return ok, f"measured block rates {out}"


def _check_collapse_region_rates(rng):
    chart = collapse.region_gap_decay("chart", FFKM_CHART_POINT, (4, 8, 16))["rate"]
    wreg = collapse.region_gap_decay("w_outer", {"y1": 0.3}, (2, 4, 8))["rate"]
    ok = chart <= collapse.RATE_BOUND and wreg <= collapse.RATE_BOUND
    return ok, (f"sup-gap rates: chart {chart:.3f}, annulus {wreg:.3f} "
                f"(need <= {collapse.RATE_BOUND})")


@lru_cache(maxsize=1)
def _comparison_from(state) -> tuple:
    """collapse.measure_metric_comparison on a generator in `state`, and the
    state its draws leave the generator in."""
    rng = random.Random()
    rng.setstate(state)
    return collapse.measure_metric_comparison(rng), rng.getstate()


def _metric_comparison(rng) -> dict:
    """collapse.measure_metric_comparison(rng), measured once per verify
    pass: both collapse checks that read it start from a fresh
    random.Random(seed), so the second finds the first's start state in the
    one-entry cache (build_suites empties it).  Either way rng ends where
    the draws leave it."""
    mc, end = _comparison_from(rng.getstate())
    rng.setstate(end)
    return mc


def _check_collapse_lower_bound(rng):
    mc = _metric_comparison(rng)
    mu = 8
    samples = [collapse.ffkm_region_metrics("interior", (), mu),
               collapse.ffkm_region_metrics("w_outer", {"y1": 0.3}, mu),
               collapse.ffkm_region_metrics("chart", {"y1": 0.02, "y4": 0.3,
                                                      "y7": 0.2}, mu)]
    # the lower bound raises unless it holds, which fails this check
    rep = collapse.lower_bound_global(mu, samples, Delta0=mc["Delta0"])
    res = collapse.resolution_equality_probe(mu)
    return res["pass"], \
        (f"PSD margin {rep['min_eig_margin']:.3e}; resolution equality gap "
         f"{res['equality_gap']:.3e} at the tight radius")


def _check_collapse_fiber_diameter(rng):
    out = collapse.fiber_diameter_probe()
    ok = out["exponent_ok"] and out["monotone_in_k"] and out["mu_uniform"]
    return ok, f"decay exponent {out['exponent']:.4f} (need <= {collapse.RATE_BOUND})"


def _check_collapse_finsler(rng):
    ups = catalog.surgery_profile().upsilon
    generic = collapse.limit_quasi_finsler("generic", [0, 0, 1])
    sing = collapse.limit_quasi_finsler("singular", [0, 0, 1], y1_samples=(0.0, 0.4))
    ok = abs(generic - 1.0) < 1e-12 and abs(sing - ups ** (2 / 3)) < 1e-12
    return ok, f"lengths: generic {generic}, singular {sing} = ups^(2/3)"


def _check_collapse_comparison(rng):
    mc = _metric_comparison(rng)
    ok = 0.0 < mc["Delta0"] < 10.0 and mc["delta1"] > 0
    for A, B in ehmetric.normals(rng, (30, 2, DIM, DIM)):
        h = A + A.T
        g = B @ B.T + 0.1 * np.eye(DIM)
        ok = ok and collapse.lc_vs_norm_holds(h, g)
    return ok, (f"Delta0 = {mc['Delta0']:.4f}, delta1 = {mc['delta1']}; "
                "h <= |h|_g g on 30 random pairs")


#: every verify check, in report order: (check id, fn(rng) -> (ok, detail))
CHECKS = [
    ("forms.graded_commutativity", _check_graded_commutativity),
    ("forms.wedge_associativity", _check_wedge_associativity),
    ("forms.chart_d_squared", _check_d_chart_squared),
    ("forms.pullback_commutes_with_d", _check_pullback_commutes_d),
    ("liecdga.check_d_squared.product_model",
     partial(_check_d_squared, catalog.nakamura_model, "product model")),
    ("liecdga.check_d_squared.nilmanifold_model",
     partial(_check_d_squared, catalog.ffkm_model, "nilmanifold model")),
    ("liecdga.leibniz", _check_leibniz),
    ("liecdga.model_json_roundtrip", _check_model_roundtrip),
    ("g2core.standard_metric_identity", _check_standard_metric),
    ("g2core.star_star_identity", _check_star_star),
    ("g2core.phi_wedge_star_phi_7vol", _check_seven_vol),
    ("g2core.su2_closed_forms_nu8", _check_su2_nu8),
    ("g2core.su2_closed_forms_random_nu", _check_su2_random_nu),
    ("scaling.volume_law_exact", _check_volume_law),
    ("scaling.hitchin_exponent_two_thirds", partial(_check_hitchin_exponent, 2)),
    ("scaling.hitchin_exponent_four_thirds", partial(_check_hitchin_exponent, 4)),
    ("scaling.hitchin_mu_fourth", _check_mu4_hitchin),
    ("scaling.volume_mu_squared", _check_mu2_volume),
    ("catalog.families_closed", _check_closed_families),
    ("catalog.exactness_witnesses", _check_exactness_witness),
    ("catalog.class_map_grid", _check_ch_map),
    ("catalog.master_gluing_identity", _check_master_identity),
    ("catalog.boundary_rescaling_identity", _check_boundary_identity),
    ("catalog.primitive_ledger", _check_primitive_ledger),
    ("catalog.gap_constant_stability", _check_quadlem_constant),
    ("catalog.glued_form_definite", _check_glued_definite),
    ("catalog.resolution_margins", _check_resolution_margins),
    ("flow.laplacian_unit_point", _check_flow_unit),
    ("flow.laplacian_family_point", _check_flow_family),
    ("flow.laplacian_nilmanifold", _check_flow_ffkm),
    ("flow.flat_torus_harmonic", _check_flow_torus),
    ("flow.closed_form_trajectory", _check_flow_trajectory),
    ("flow.rk4_convergence_order", _check_flow_order),
    ("eh.ricci_flat_profile", _check_eh_ricci),
    ("eh.interpolation_mass", _check_eh_mass),
    ("eh.positivity_and_volume", _check_eh_certificate),
    ("eh.volume_floor_stability", _check_eh_upsilon),
    ("eh.scale_equivariance", _check_eh_equivariance),
    ("eh.closedness_residual", _check_eh_closedness),
    ("eh.feasibility_budget", _check_eh_budget),
    ("eh.infeasible_guard", _check_eh_infeasible),
    ("collapse.product_lambda_one", _check_collapse_lambda),
    ("collapse.product_decay_rates", _check_collapse_product_rates),
    ("collapse.region_gap_rates", _check_collapse_region_rates),
    ("collapse.global_lower_bound", _check_collapse_lower_bound),
    ("collapse.fiber_diameter_decay", _check_collapse_fiber_diameter),
    ("collapse.limit_length_structure", _check_collapse_finsler),
    ("collapse.metric_comparison_constants", _check_collapse_comparison),
]


def build_suites(seed: int) -> dict:
    """Suite -> [(check id, zero-argument callable returning (ok, detail))],
    each check bound to its own fresh random.Random(seed)."""
    _comparison_from.cache_clear()          # shared within a pass, not across
    suites = {}
    for cid, fn in CHECKS:
        suites.setdefault(cid.split(".", 1)[0], []).append(
            (cid, partial(fn, random.Random(seed))))
    return suites


def cmd_verify(args) -> int:
    suites = build_suites(args.seed)
    if args.suite:
        if args.suite not in suites:
            raise UsageError(f"unknown suite {args.suite!r}; choose from "
                             f"{sorted(suites)}")
        suites = {args.suite: suites[args.suite]}
    checks = [c for entries in suites.values() for c in entries]
    if args.model:
        checks.insert(0, ("liecdga.check_d_squared.custom_model",
                          partial(_check_d_squared, partial(load_model, args.model),
                                  "supplied model", None, on_all_forms=True)))

    rows = []
    for cid, fn in checks:
        try:
            ok, detail = fn()
        except Exception as e:  # a raised invariant is a failure, not a crash
            ok, detail = False, f"{type(e).__name__}: {e}"
        rows.append({"id": cid, "status": "pass" if ok else "fail", "detail": detail})
    width = max(len(r["id"]) for r in rows)
    for r in rows:
        print(f"{r['id']:<{width}}  {r['status']:4}  {r['detail']}")
    failures = [r for r in rows if r["status"] == "fail"]
    print(f"\n{len(rows) - len(failures)}/{len(rows)} checks passed")
    if failures:
        print(f"first failure: {failures[0]['id']}: {failures[0]['detail']}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"checks": rows, "seed": args.seed,
                       "passed": len(rows) - len(failures),
                       "failed": len(failures)}, fh, indent=2)
    return 1 if failures else 0


# ===========================================================================
# artifact sweeps
# ===========================================================================

def cmd_scan(args) -> int:
    """Volume-scaling sweep over random rational frame scalings."""
    import csv as _csv
    _value("--grid", args.grid)
    rng = random.Random(args.seed)
    rows = []
    for _ in range(args.grid):
        lams = _rand_cube_lambdas(rng)
        out = scaling.hitchin_scaling_law(lams)
        rows.append([str(l) for l in out["lambdas"]]
                    + [str(out["volume_factor"]), str(out["exact"])])
    path = args.out or "scan.csv"
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow([f"lambda{i}" for i in range(1, 8)]
                   + ["volume_factor", "exact"])
        w.writerows(rows)
    print(f"wrote {len(rows)} scaling samples to {path}")
    return 0


def _parse_lambda(s):
    """'re' or 're,im' as a float or a pair of floats."""
    parts = [_value("--lambda", x, lambda x: abs(x) <= SCALE, f"at most {SCALE:g} in size")
             for x in s.split(",", 1)]
    if not any(parts):
        raise UsageError(f"--lambda must be nonzero, got {s!r}")
    return tuple(parts) if len(parts) == 2 else parts[0]


def cmd_flow(args) -> int:
    _value("--tol", args.tol)
    _value("--t-end", args.t_end, lambda x: 0 < x <= SCALE, f"in (0, {SCALE:g}]")
    _value("--steps", args.steps)
    _value("--alpha", args.alpha, lambda a: 1 / SCALE <= abs(a) <= SCALE,
           f"nonzero, between {1 / SCALE:g} and {SCALE:g} in size")
    rows = flow.flow_integrate(args.alpha, _parse_lambda(args.lam), args.t_end,
                               args.steps)
    path = args.out or "flow_trajectory.csv"
    n, err = flow.trajectory_to_csv(rows, path)
    print(f"wrote {n} trajectory rows to {path}; "
          f"max |mu_numeric - mu_closed| = {err:.3e}")
    return 0 if err < args.tol else 1


def cmd_eh(args) -> int:
    _value("--grid", args.grid)
    _value("--t", args.t, lambda x: 1 / SCALE <= x <= SCALE, f"in [{1 / SCALE:g}, {SCALE:g}]")
    c = 1.0
    if args.c != "auto":
        c = _value("--c", args.c, lambda x: 1 / SCALE <= x < 2, f"in [{1 / SCALE:g}, 2)")
    if args.R == "auto":
        R = max(4.0, 1.05 * ehmetric.feasibility_threshold(c))
    else:
        R = _value("--R", args.R, lambda x: 0 < x <= SCALE, f"in (0, {SCALE:g}]")
    try:
        profile = ehmetric.build_profile(args.t, R, c)
    except (ehmetric.Infeasible, ehmetric.ConstructionFailed) as e:
        print(f"profile construction failed: {e}", file=sys.stderr)
        return 1
    try:
        rep = ehmetric.positivity_and_volume_certificate(
            profile, random.Random(args.seed), n_r=args.grid, n_ang=20)
    except ehmetric.ConstructionFailed as e:
        print(f"certificate failed: {e}", file=sys.stderr)
        return 1
    prefix = args.out or "eh"
    profile.export_csv(f"{prefix}_profile.csv", n=args.grid)
    ehmetric.certificate_to_json(rep, f"{prefix}_certificate.json")
    print(f"wrote {prefix}_profile.csv and {prefix}_certificate.json; "
          f"margin {rep['min_margin']:.4f}, ratio {rep['min_ratio']:.6f}")
    return 0 if rep["volume_ok"] else 1


def cmd_collapse(args) -> int:
    mus = [_value("--mu", m, lambda x: 1 <= x <= SCALE, f"in [1, {SCALE:g}]")
           for m in args.mu.split(",")]
    if len(set(mus)) < 2:
        raise UsageError("--mu needs two distinct values to compare")
    if args.model == "nakamura":
        rep = _nakamura_premises(mus)
        rep["model"] = "nakamura"
    else:   # ffkm; argparse admits no other model
        if max(mus) > collapse.FFKM_MU_MAX:
            raise UsageError(f"--mu must be at most {collapse.FFKM_MU_MAX:g} for "
                             f"--model ffkm, got {args.mu!r}")
        rep = {"model": "ffkm",
               "chart": collapse.region_gap_decay("chart", FFKM_CHART_POINT, mus),
               "interior": collapse.region_gap_decay("interior", (), mus)}
        rep["pass"] = all(rep[r]["rate"] <= collapse.RATE_BOUND
                          for r in ("chart", "interior"))
    path = args.out or "collapse_report.json"
    collapse.report_to_json(rep, path)
    print(f"wrote {path}; pass = {rep['pass']}")
    return 0 if rep["pass"] else 1


# ===========================================================================
# argument parsing
# ===========================================================================

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state on it, so later calls of main reuse it."""
    p = argparse.ArgumentParser(
        prog="g2calc",
        description="verification suites for closed definite 3-form families")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suites")
    v.add_argument("--suite", help="run a single suite (e.g. flow)")
    v.add_argument("--model", help="model JSON whose structure equations are "
                                   "checked first")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", help="write the report as JSON")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scan", help="volume-scaling sweep")
    s.add_argument("--grid", type=int, default=50)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_scan)

    f = sub.add_parser("flow", help="integrate the flow line and export CSV")
    f.add_argument("--alpha", type=float, default=1.0)
    f.add_argument("--lambda", dest="lam", default="1", help="'re' or 're,im'")
    f.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    f.add_argument("--steps", type=int, default=10000)
    f.add_argument("--tol", type=float, default=1e-10)
    f.add_argument("--out")
    f.set_defaults(fn=cmd_flow)

    e = sub.add_parser("eh", help="build an interpolation profile and certify it")
    e.add_argument("--t", type=float, default=0.1)
    e.add_argument("--R", default="auto")
    e.add_argument("--c", default="auto")
    e.add_argument("--grid", type=int, default=400)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", help="output path prefix")
    e.set_defaults(fn=cmd_eh)

    c = sub.add_parser("collapse", help="convergence-premise report")
    c.add_argument("--model", default="nakamura", choices=("nakamura", "ffkm"))
    c.add_argument("--mu", default="1,2,4,8,16")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_collapse)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # random.Random seeds with the absolute value, so -s would repeat
        # the draws of s: a seed is non-negative in every command
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.fn(args)
    except UsageError as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
