"""Property tests for the exterior-algebra layer."""
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2calc import forms as forms_module
from g2calc import g2core
from g2calc import rings as rings_module
from g2calc.catalog import ch_map, chart_map, ffkm_model, nakamura_model
from g2calc.forms import (_INDEX, _MASKS, _SIGN, KForm, PolynomialMap, chart_vars, merge_sign,
                          poly_ring)
from g2calc.liecdga import d_invariant, verify_primitive
from g2calc.rings import FLT, RAT, MixedRingError, Poly
from oracles import contract, eval_at, sort_sign

DIM = 7
YVARS = chart_vars("y", DIM)
YRING = poly_ring(YVARS)


def rational_form(draw, k, dim=DIM):
    coeffs = {}
    for idx in combinations(range(1, dim + 1), k):
        c = draw(st.integers(-5, 5))
        if c:
            coeffs[idx] = Fraction(c)
    return KForm(dim, k, RAT, coeffs)


@st.composite
def forms(draw, degrees=(1, 2, 3)):
    k = draw(st.sampled_from(degrees))
    return rational_form(draw, k)


@st.composite
def poly_forms(draw, degrees=(0, 1, 2)):
    k = draw(st.sampled_from(degrees))
    coeffs = {}
    for idx in combinations(range(1, DIM + 1), k):
        if not draw(st.booleans()):
            continue
        p = Poly.const(YVARS, Fraction(draw(st.integers(-3, 3))))
        for _ in range(draw(st.integers(0, 2))):
            p = p * Poly.var(YVARS, draw(st.sampled_from(YVARS)))
        coeffs[idx] = p
    return KForm(DIM, k, YRING, coeffs)


@given(forms(), forms())
def test_wedge_graded_commutativity(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert a.wedge(b) == sign * b.wedge(a)


@given(forms(degrees=(1, 2)), forms(degrees=(1, 2)), forms(degrees=(1, 2)))
def test_wedge_associativity(a, b, c):
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(forms(), forms(), forms())
def test_wedge_bilinearity(a, b, c):
    if b.degree != c.degree:
        c = KForm.zero(DIM, b.degree, RAT)
    assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
    assert a.wedge(3 * b) == 3 * a.wedge(b)


@settings(max_examples=60)
@given(poly_forms())
def test_chart_d_squared_zero(a):
    assert a.d_chart().d_chart().is_zero()


@settings(max_examples=60)
@given(poly_forms(degrees=(0, 1)), poly_forms(degrees=(0, 1)))
def test_chart_leibniz(a, b):
    lhs = a.wedge(b).d_chart()
    rhs = a.d_chart().wedge(b) + (-1) ** a.degree * a.wedge(b.d_chart())
    assert lhs == rhs


def _quadratic_map():
    comps = {}
    for i, v in enumerate(YVARS):
        p = Poly.var(YVARS, v)
        w = YVARS[(i + 3) % DIM]
        comps[v] = p + Fraction(1, 2) * Poly.var(YVARS, w) * Poly.var(YVARS, w)
    return PolynomialMap(YVARS, YVARS, comps)


@settings(max_examples=40)
@given(poly_forms(degrees=(1, 2)))
def test_pullback_commutes_with_d(a):
    F = _quadratic_map()
    assert F.pullback(a.d_chart()) == F.pullback(a).d_chart()


@settings(max_examples=40)
@given(poly_forms(degrees=(1,)), poly_forms(degrees=(1, 2)))
def test_pullback_is_a_ring_map(a, b):
    F = _quadratic_map()
    assert F.pullback(a.wedge(b)) == F.pullback(a).wedge(F.pullback(b))


def _reference_compose(p, F):
    """p∘F one Fraction term at a time: each coefficient times the powers of
    the components, summed in key order."""
    out = Poly(F.source_vars, {})
    for e, c in p.terms.items():
        term = Poly.const(F.source_vars, c)
        for v, k in zip(p.vars, e):
            if k:
                term = term * F.components[v] ** k
        out = out + term
    return out


def _reference_pullback(F, form):
    """F^*(form) by wedging the pulled-back differentials, one axis at a
    time, onto each substituted coefficient."""
    if form.ring == RAT:
        form = form.in_ring(poly_ring(F.target_vars))
    src = poly_ring(F.source_vars)
    dcomp = [KForm(form.dim, 1, src, {(j + 1,): _reference_poly_diff(F.components[v], sv)
                                      for j, sv in enumerate(F.source_vars[:form.dim])})
             for v in F.target_vars]
    out = KForm.zero(form.dim, form.degree, src)
    for idx, c in form.coeffs.items():
        piece = KForm(form.dim, 0, src, {(): _reference_compose(c, F)})
        for axis in idx:
            piece = piece.wedge(dcomp[axis - 1])
        out = out + piece
    return out


def _random_poly_form(rng, k, vars, dim=DIM):
    return KForm(dim, k, poly_ring(vars), {idx: _random_poly(rng, vars)
                                           for idx in combinations(range(1, dim + 1), k)
                                           if rng.random() < 0.5})


def _assert_pullbacks_match(pairs):
    """Each (map, form) in turn: the memoised pullback equals the sequential
    wedge, with the same key order."""
    for F, a in pairs:
        got, want = F.pullback(a), _reference_pullback(F, a)
        assert got == want and list(got.coeffs) == list(want.coeffs)
        assert_canonical(got)


def test_memoised_pullback_matches_the_sequential_wedge_on_alternating_maps():
    rng = random.Random(29)
    y = {v: Poly.var(YVARS, v) for v in YVARS}
    # not injective (y1 and y2 both go to y1), with non-dyadic coefficients
    G = PolynomialMap(YVARS, YVARS, {
        "y1": y["y1"] + y["y2"] * y["y3"] * Fraction(2, 5), "y2": y["y1"],
        "y3": y["y3"] ** 2 - Fraction(1, 3), "y4": y["y4"] * y["y5"] + y["y7"],
        "y5": y["y5"], "y6": y["y6"] - y["y1"] * Fraction(3, 7), "y7": y["y7"] * 2})
    maps = (_quadratic_map(), G)
    pairs = []
    for n in range(60):
        k = rng.randint(0, 3)
        a = _rational_form(rng, k) if n % 4 == 3 else _random_poly_form(rng, k, YVARS)
        pairs.append((maps[n % 2], a))
    assert any(a.ring == RAT and a.degree == 3 for _, a in pairs)
    _assert_pullbacks_match(pairs)


def test_memoised_pullback_with_spectator_source_variables():
    # the resolution's chart maps: eight source variables, forms of dim 7
    maps = [chart_map(0, extra_vars=("u",)), chart_map(1, extra_vars=("u",))]
    assert all(len(F.source_vars) == 8 for F in maps)
    rng = random.Random(31)
    pairs = [(maps[n % 2], _random_poly_form(rng, rng.randint(0, 3), maps[0].target_vars))
             for n in range(24)]
    _assert_pullbacks_match(pairs)


def test_memoised_pullback_keeps_forms_of_different_dimension_apart():
    s = chart_vars("s", 3)
    x = {v: Poly.var(s, v) for v in s}
    F = PolynomialMap(s, chart_vars("t", 3), {
        "t1": x["s1"] + x["s2"] * x["s3"], "t2": x["s2"] - x["s1"] ** 2 * Fraction(1, 2),
        "t3": x["s3"] + x["s1"] * x["s2"]})
    rng = random.Random(37)
    pairs = []
    for n in range(24):
        dim = 2 + n % 2
        pairs.append((F, _random_poly_form(rng, rng.randint(0, dim), F.target_vars, dim)))
    _assert_pullbacks_match(pairs)
    for wrong in (KForm.basis(3, (1,)).in_ring(FLT), _random_poly_form(rng, 1, s, 3)):
        with pytest.raises(MixedRingError):
            F.pullback(wrong)


def test_wedge_antisymmetry_of_one_forms():
    a = KForm.basis(DIM, (1,))
    assert a.wedge(a).is_zero()


def test_basis_ordering_sign():
    # theta^2 ^ theta^1 = -theta^{12}
    a = KForm.basis(DIM, (2,)).wedge(KForm.basis(DIM, (1,)))
    assert a == -1 * KForm.basis(DIM, (1, 2))


def test_top_coefficient():
    vol = KForm.basis(DIM, tuple(range(1, 8)))
    assert vol.top_coefficient() == 1
    assert (Fraction(3, 2) * vol).top_coefficient() == Fraction(3, 2)


def test_mixed_ring_rejected():
    # forms combine in one ring: float/polynomial mixing is an error
    a = KForm.basis(DIM, (1, 2)).in_ring(FLT)
    b = KForm(DIM, 1, YRING, {(3,): Poly.var(YVARS, "y1")})
    with pytest.raises(MixedRingError):
        a.wedge(b)
    with pytest.raises(MixedRingError):
        b + KForm.basis(DIM, (3,)).in_ring(FLT)


def test_rational_upgrades_into_float():
    # only through in_ring: a wedge does not convert its operands
    a = KForm.basis(DIM, (1, 2))
    b = KForm.basis(DIM, (3,)).in_ring(FLT)
    assert a.in_ring(FLT).wedge(b).ring == FLT


def test_sum_wedge_and_scale_refuse_a_rational_polynomial_mix():
    rat = KForm.basis(DIM, (1,))
    poly = KForm(DIM, 1, YRING, {(2,): Poly.var(YVARS, "y1")})
    for a, b in ((rat, poly), (poly, rat)):
        with pytest.raises(MixedRingError):
            a + b
        with pytest.raises(MixedRingError):
            a.wedge(b)
    for s in (Poly.var(YVARS, "y2"), 0.5):
        with pytest.raises(MixedRingError):
            rat.scale(s)
    # an int or Fraction scalar is taken into the form's ring, and in_ring
    # takes a rational form into it
    assert Fraction(1, 2) * poly == KForm(DIM, 1, YRING, {(2,): Poly.var(YVARS, "y1") * Fraction(1, 2)})
    assert (poly + rat.in_ring(YRING)).ring == YRING


def test_in_ring_roundtrip():
    a = KForm.from_terms(DIM, 2, [((1, 2), Fraction(1, 3)), ((4, 5), -2)])
    af = a.in_ring(FLT)
    assert af.ring == FLT
    assert math.isclose(float(af.coeffs[(1, 2)]), 1 / 3)


def test_contract_then_wedge_degrees():
    a = KForm.basis(DIM, (1, 2, 3))
    v = [1, 0, 0, 0, 0, 0, 0]
    ia = contract(a, v)
    assert ia.degree == 2
    assert ia == KForm.basis(DIM, (2, 3))


def test_eval_at_substitutes_polynomials():
    y1 = Poly.var(YVARS, "y1")
    a = KForm(DIM, 1, YRING, {(2,): y1 * y1})
    out = eval_at(a, {"y1": 3.0})
    assert float(out.coeffs[(2,)]) == 9.0


# --------------------------------------------------------------------------
# the kernel: the mask sign table and the trusted build path
# --------------------------------------------------------------------------

ALL_INDICES = [idx for k in range(DIM + 1) for idx in combinations(range(1, DIM + 1), k)]


def test_index_and_masks_are_inverse():
    assert len(ALL_INDICES) == len(_INDEX) == len(_MASKS) == 128
    assert sorted(_MASKS.values()) == list(range(128))
    for idx in ALL_INDICES:
        assert _INDEX[_MASKS[idx]] == idx
        assert _MASKS[idx] == sum(1 << (i - 1) for i in idx)


def test_sign_table_matches_the_oracle_on_every_mask_pair():
    for a in ALL_INDICES:
        for b in ALL_INDICES:
            ma, mb = _MASKS[a], _MASKS[b]
            assert _SIGN[mb][ma] == sort_sign(a + b)[1], (a, b)
            assert (_SIGN[mb][ma] == 0) == bool(ma & mb), (a, b)


def test_merge_sign_matches_brute_force_on_every_pair():
    for a in ALL_INDICES:
        for b in ALL_INDICES:
            assert merge_sign(_MASKS[a], _MASKS[b]) == sort_sign(a + b), (a, b)


def test_from_terms_matches_the_oracle_on_every_ordering():
    # every tuple of axes of length <= 4: every permutation of every
    # multi-index of degree <= 4, and every tuple that repeats an axis
    c = Fraction(-3, 5)
    for k in range(5):
        for seq in product(range(1, DIM + 1), repeat=k):
            got = KForm.from_terms(DIM, k, [(seq, c)])
            merged, sign = sort_sign(seq)
            if sign:
                assert got == KForm(DIM, k, RAT, {merged: sign * c}), seq
            else:
                assert got.is_zero() and got.degree == k, seq


_COEFF_TYPE = {RAT: Fraction, FLT: float}


def assert_canonical(form):
    """`form` equals its rebuild through the validating constructor, with the
    same key order, and every coefficient is a nonzero element of its ring."""
    rebuilt = KForm(form.dim, form.degree, form.ring, form.coeffs)
    assert rebuilt == form
    assert list(rebuilt.coeffs) == list(form.coeffs)
    kind = _COEFF_TYPE.get(form.ring, Poly)
    for c in form.coeffs.values():
        assert type(c) is kind and c
        if kind is Poly:
            assert ("poly", c.vars) == form.ring


def random_form(rng, k, ring):
    coeffs = {}
    for idx in combinations(range(1, DIM + 1), k):
        if rng.random() < 0.4:
            continue
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if ring == FLT:
            c = float(c) * 0.7
        elif ring == YRING:
            c = Poly.const(YVARS, c) * Poly.var(YVARS, rng.choice(YVARS)) + rng.randint(-1, 1)
        coeffs[idx] = c
    return KForm(DIM, k, ring, coeffs)


@pytest.mark.parametrize("ring", [RAT, FLT, YRING], ids=["rat", "flt", "poly"])
def test_kernel_outputs_equal_their_validated_rebuild(ring):
    rng = random.Random(11)
    F = _quadratic_map()
    eqs = [nakamura_model().eqs, ffkm_model().eqs]
    for _ in range(40):
        a = random_form(rng, rng.randint(0, 3), ring)
        b = random_form(rng, rng.randint(0, 3), ring)
        v = [rng.randint(-2, 2) for _ in range(DIM)]
        e = rng.choice(eqs)
        outs = [a.wedge(b), a + a.scale(Fraction(1, 3)), -a, 2 * a,
                rng.randint(1, 3) * KForm.basis(DIM, (1, 2)).in_ring(ring)]
        if a.degree:
            outs.append(contract(a, v))
        if ring == RAT:     # d is exact: it refuses the other rings
            outs += [d_invariant(e, a), a.in_ring(FLT)]
        if ring == YRING:
            outs += [a.d_chart(), F.pullback(a), eval_at(a, {y: 0.5 for y in YVARS})]
        for out in outs:
            assert_canonical(out)


@pytest.mark.parametrize("ring", [RAT, FLT, YRING], ids=["rat", "flt", "poly"])
def test_cancelled_coefficients_leave_zero_forms(ring):
    e = {i: KForm.basis(DIM, (i,)).in_ring(ring) for i in (1, 2, 3)}
    a = e[1] + e[2]
    assert a.wedge(a).is_zero()                       # e12 + e21 cancel
    assert (a.wedge(e[3]) - a.wedge(e[3])).is_zero()
    assert contract(e[1].wedge(e[2]) + e[1].wedge(e[3]), [0, 1, -1]).is_zero()
    if ring == YRING:
        x1 = Poly.var(YVARS, "y1")
        p = KForm(DIM, 1, YRING, {(2,): x1 * x1})
        assert p.d_chart().d_chart().is_zero()
        F = PolynomialMap(YVARS, YVARS, {v: x1 if v in ("y1", "y2") else Poly.var(YVARS, v)
                                         for v in YVARS})
        assert F.pullback(e[1].wedge(e[2])).is_zero()   # dy1 ^ dy2 -> dx1 ^ dx1


# --------------------------------------------------------------------------
# the integer wedge kernel and the trusted Poly ring, against term-by-term
# Fraction references
# --------------------------------------------------------------------------

def _reference_wedge(a, b):
    """Wedge multiplying and adding one Fraction (or float, or Poly) per
    index pair; every ring takes this loop."""
    ring = a._match(b)
    deg = a.degree + b.degree
    if deg > a.dim:
        return KForm.zero(a.dim, min(deg, a.dim), ring)
    out = {}
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            merged, sign = sort_sign(i1 + i2)
            if sign == 0:
                continue
            c = c1 * c2 if sign == 1 else -(c1 * c2)
            out[merged] = out[merged] + c if merged in out else c
    return KForm._trusted(a.dim, deg, ring, out)


def _rat(dim, *terms):
    return KForm.from_terms(dim, len(terms[0][0]), terms)


Fr = Fraction
WEDGE_CASES = {
    # denominators 4, 6, 10, 9: lcm 180 < product 2160
    "lcm_below_product": (_rat(DIM, ((1,), Fr(1, 4)), ((2,), Fr(-5, 6)), ((4,), Fr(7, 10))),
                          _rat(DIM, ((2, 3), Fr(2, 9)), ((1, 5), Fr(3, 4)), ((4, 6), Fr(-1, 6)))),
    # e12 appears first and then cancels; e13 and e23 survive
    "first_key_cancels": (_rat(DIM, ((1,), Fr(1, 2)), ((2,), Fr(1, 3))),
                          _rat(DIM, ((2,), Fr(1, 3)), ((1,), Fr(1, 2)), ((3,), Fr(5, 6)))),
    # e123 cancels at its second term and comes back at its third, so it
    # keeps the first place only if cancelled sums stay in the dict
    "cancelled_key_reappears": (_rat(DIM, ((1, 2), Fr(1, 2)), ((1, 3), Fr(1, 2)), ((2, 3), Fr(1, 3))),
                                _rat(DIM, ((3,), 1), ((2,), 1), ((4,), 1), ((1,), 1))),
    "all_cancel": (_rat(DIM, ((1,), Fr(2, 3)), ((5,), Fr(-1, 6))),
                   _rat(DIM, ((1,), Fr(2, 3)), ((5,), Fr(-1, 6)))),
    "empty_left": (KForm.zero(DIM, 2), _rat(DIM, ((1, 3), Fr(1, 2)))),
    "empty_right": (_rat(DIM, ((1, 3), Fr(1, 2))), KForm.zero(DIM, 1)),
    "unit_denominators": (_rat(DIM, ((1, 2), 3), ((3, 4), -2)), _rat(DIM, ((5,), 4), ((6,), 1))),
    "deg_above_dim": (_rat(DIM, ((1, 2, 3, 4), Fr(1, 2))), _rat(DIM, ((4, 5, 6, 7), Fr(1, 3)))),
    "dim_4_top": (_rat(4, ((1, 3), Fr(1, 2)), ((2, 4), Fr(1, 5))),
                  _rat(4, ((2, 4), Fr(1, 3)), ((1, 3), Fr(-1, 7)))),
    # a rational operand taken into the other operand's ring by in_ring
    "rat_into_float": (_rat(DIM, ((1,), Fr(1, 3)), ((2,), Fr(-2, 7))).in_ring(FLT),
                       KForm(DIM, 2, FLT, {(3, 4): 0.25, (1, 5): -1.5})),
    "float_from_rat": (KForm(DIM, 1, FLT, {(6,): 0.1}),
                       _rat(DIM, ((1, 2), Fr(1, 3))).in_ring(FLT)),
    "rat_into_poly": (_rat(DIM, ((1,), Fr(1, 6)), ((7,), Fr(3, 4))).in_ring(YRING),
                      KForm(DIM, 1, YRING, {(2,): Poly.var(YVARS, "y1") * Fr(1, 2),
                                            (7,): Poly.const(YVARS, 5)})),
}


@pytest.mark.parametrize("case", sorted(WEDGE_CASES))
def test_wedge_matches_the_fraction_loop(case, monkeypatch):
    calls = []

    def counting_merge_sign(x, y):
        calls.append(1)
        return merge_sign(x, y)

    monkeypatch.setattr(forms_module, "merge_sign", counting_merge_sign)
    a, b = WEDGE_CASES[case]
    got = a.wedge(b)
    want = _reference_wedge(a, b)
    # the kernel skips a pair that repeats an axis by its masks, so it calls
    # merge_sign once per disjoint pair and for no other; the reference
    # takes its signs from the oracle and makes no call
    assert len(calls) == sum(1 for i1 in a.coeffs for i2 in b.coeffs if not set(i1) & set(i2))
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)
    assert_canonical(got)


def test_cancelled_key_keeps_its_first_place():
    got = KForm.wedge(*WEDGE_CASES["cancelled_key_reappears"])
    assert list(got.coeffs) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert got.coeffs[(1, 2, 3)] == Fraction(1, 3)


@pytest.mark.parametrize("ring", [RAT, FLT, YRING], ids=["rat", "flt", "poly"])
def test_random_wedges_match_the_fraction_loop(ring):
    rng = random.Random(23)
    for _ in range(60):
        a = random_form(rng, rng.randint(0, 4), rng.choice((RAT, ring))).in_ring(ring)
        b = random_form(rng, rng.randint(0, 4), ring)
        got, want = a.wedge(b), _reference_wedge(a, b)
        assert got == want
        assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("dim, k", [(7, 3), (7, 4), (7, 2), (7, 1), (7, 0), (7, 7), (5, 2), (4, 3)])
def test_top_degree_float_wedge_is_bit_identical_to_the_pair_scan(dim, k):
    # the mask test leaves each left term its one partner on the complement,
    # so the kernel adds the same products in the same left-term order as
    # the scan over every pair
    rng = random.Random(31 + 10 * dim + k)
    for density in (1.0, 0.6):
        a, b = ({idx: rng.uniform(-3, 3) / 7 for idx in combinations(range(1, dim + 1), deg)
                 if rng.random() < density} for deg in (k, dim - k))
        a, b = KForm(dim, k, FLT, a), KForm(dim, dim - k, FLT, b)
        got, want = a.wedge(b), _reference_wedge(a, b)
        assert [(i, c.hex()) for i, c in got.coeffs.items()] == \
            [(i, c.hex()) for i, c in want.coeffs.items()]
        assert list(got.coeffs) == ([tuple(range(1, dim + 1))] if got.coeffs else [])


@st.composite
def sparse_forms(draw, dim, k, ring):
    """A k-form on `dim` axes in `ring`, each index kept or dropped: rational
    coefficients, non-dyadic floats, or one-term polynomials in YVARS."""
    coeffs = {}
    for idx in combinations(range(1, dim + 1), k):
        if not draw(st.booleans()):
            continue
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if ring == FLT:
            c = float(c) * 0.7
        elif ring == YRING:
            c = Poly(YVARS, {tuple(draw(st.lists(st.integers(0, 2), min_size=DIM,
                                                 max_size=DIM))): c})
        coeffs[idx] = c
    return KForm(dim, k, ring, coeffs)


@pytest.mark.parametrize("ring", [RAT, FLT, YRING], ids=["rat", "flt", "poly"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_wedge_equals_the_reference_loop_in_value_and_key_order(ring, data):
    dim = data.draw(st.integers(1, DIM))
    k = data.draw(st.integers(0, dim))
    l = data.draw(st.integers(0, dim - k))
    a = data.draw(sparse_forms(dim, k, data.draw(st.sampled_from((RAT, ring))))).in_ring(ring)
    b = data.draw(sparse_forms(dim, l, ring))
    got, want = a.wedge(b), _reference_wedge(a, b)
    assert got == want
    assert list(got.coeffs.items()) == list(want.coeffs.items())


@pytest.mark.parametrize("scalar, ring", [
    (3, RAT), (Fraction(-2, 3), RAT), (0.5, FLT), (np.float64(0.5), FLT),
    (Poly.var(YVARS, "y2"), YRING)], ids=["int", "fraction", "float", "np_float64", "poly"])
def test_ring_of_tags_each_scalar_type(scalar, ring):
    assert rings_module.ring_of(scalar) == ring


@pytest.mark.parametrize("bad", [True, False, "1/2"], ids=["true", "false", "str"])
def test_ring_of_refuses_bools_and_strings(bad):
    with pytest.raises(TypeError):
        rings_module.ring_of(bad)


def _reference_poly_add(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return Poly(p.vars, terms)


def _reference_poly_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Poly(p.vars, out)


def _reference_poly_diff(p, name):
    i = p.vars.index(name)
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = out.get(tuple(de), Fraction(0)) + c * e[i]
    return Poly(p.vars, out)


def _random_poly(rng, vars):
    p = Poly(vars, {})
    for _ in range(rng.randint(0, 4)):
        term = Poly.const(vars, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3)):
            term = term * Poly.var(vars, rng.choice(vars))
        p = p + term
    return p


def test_poly_ring_matches_the_fraction_loops():
    vars = ("x", "y", "z")
    x, y = Poly.var(vars, "x"), Poly.var(vars, "y")
    half = Fraction(1, 2)
    fixed = [(x * half + y, x * half - y),       # the xy terms cancel
             (x + y * half, -(x + y * half)),    # the sum cancels to zero
             (Poly(vars, {}), x * Fraction(2, 3)),   # an empty factor
             (Poly.const(vars, Fraction(3, 4)), Poly.const(vars, Fraction(-3, 4)))]
    rng = random.Random(5)
    pairs = fixed + [(_random_poly(rng, vars), _random_poly(rng, vars)) for _ in range(80)]
    for p, q in pairs:
        outs = [(p + q, _reference_poly_add(p, q)), (p * q, _reference_poly_mul(p, q)),
                (-p, Poly(vars, {e: -c for e, c in p.terms.items()}))]
        partials = p.partials(len(vars))
        assert list(partials) == [i for i, v in enumerate(vars) if _reference_poly_diff(p, v)]
        outs += [(partials.get(i, Poly(vars, {})), _reference_poly_diff(p, v))
                 for i, v in enumerate(vars)]
        for got, want in outs:
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert all(type(c) is Fraction and c for c in got.terms.values())
    assert (fixed[1][0] + fixed[1][1]).terms == {}
    assert (fixed[0][0] * fixed[0][1]).terms == {(2, 0, 0): Fraction(1, 4),
                                                 (0, 2, 0): Fraction(-1)}


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/2"])
def test_poly_rejects_float_and_bool_coefficients(bad):
    with pytest.raises(MixedRingError):
        Poly.const(YVARS, bad)
    with pytest.raises(MixedRingError):
        Poly(YVARS, {(0,) * DIM: bad})


def test_poly_arithmetic_rejects_bool_operands():
    y1 = Poly.var(YVARS, "y1")
    with pytest.raises(MixedRingError):
        y1 + True
    with pytest.raises(MixedRingError):
        y1 * True
    with pytest.raises(MixedRingError):
        y1 - True
    with pytest.raises(MixedRingError):
        True - y1
    assert y1 != True  # noqa: E712 -- compares unequal rather than as 1
    assert Poly.const(YVARS, 1) == 1


# --------------------------------------------------------------------------
# the integer polynomial ring
# --------------------------------------------------------------------------

def test_poly_is_unhashable():
    # a constant Poly equals its int or Fraction, so hashing it apart from
    # them broke the eq/hash contract; like KForm, it is unhashable
    with pytest.raises(TypeError):
        hash(Poly.const(YVARS, 3))
    with pytest.raises(TypeError):
        {Poly.var(YVARS, "y1"): 1}


def test_poly_terms_is_a_read_only_fraction_view_built_once(monkeypatch):
    vars = ("x", "y", "z")
    x, y = Poly.var(vars, "x"), Poly.var(vars, "y")
    p = (x * Fraction(1, 3) + y * 2 - 1) * (x - Fraction(5, 7))
    want = list(_reference_poly_mul(
        Poly(vars, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): 2, (0, 0, 0): -1}),
        Poly(vars, {(1, 0, 0): 1, (0, 0, 0): Fraction(-5, 7)})).terms.items())
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(rings_module, "Fraction", counting_fraction)
    first = p.terms
    assert len(made) == len(first) == 5
    assert list(first.items()) == want
    assert all(type(c) is Fraction for c in first.values())
    assert p.terms == first and len(made) == 5              # kept, not rebuilt
    with pytest.raises(TypeError):
        first[(0, 0, 1)] = Fraction(1)


def test_poly_arithmetic_builds_no_fractions(monkeypatch):
    vars = ("x", "y")
    x, y = Poly.var(vars, "x"), Poly.var(vars, "y")
    third = Fraction(1, 3)
    p = x * third + y * Fraction(-2, 7) + 1
    made = []
    monkeypatch.setattr(Fraction, "__new__", lambda *args, **kw: made.append(args))
    outs = [p + x, p - p, -p, p * p, p * third, 3 * p, p ** 3, 1 - p,
            p.partials(2)[0], p.partials(2)[1]]
    same = [p == p * 1, p * p == p ** 2, (p - p) == 0, p != x]
    monkeypatch.undo()
    assert made == []
    assert same == [True, True, True, True]
    assert outs[3] == _reference_poly_mul(p, p)
    assert outs[8] == Poly.const(vars, third) and outs[9] == Poly.const(vars, Fraction(-2, 7))


def test_equal_polys_built_different_ways_compare_equal():
    vars = ("x", "y")
    x, y = Poly.var(vars, "x"), Poly.var(vars, "y")
    half = Fraction(1, 2)
    pairs = [(x * half + x * half, x),
             ((x + y) * (x - y), x ** 2 - y ** 2),
             ((x * 3) * Fraction(1, 3), x),
             (x * Fraction(2, 6), Poly(vars, {(1, 0): Fraction(1, 3)})),
             (x - x + 4, Poly.const(vars, Fraction(8, 2))),
             (Poly(vars, {(1, 0): 0, (0, 1): half}) * 2, y)]
    for p, q in pairs:
        assert p == q and q == p
        assert (p._num, p._den) == (q._num, q._den)
    assert x - x == 0 and not (x - x)
    assert Poly.const(vars, Fraction(6, 2)) == 3 and (x * half) * 2 != y


def _reference_eval(p, point):
    """Poly.eval as the loop over Fraction coefficients: float(c) times each
    power x·x·..., summed in key order."""
    total = 0.0
    for e, c in p.terms.items():
        val = float(c)
        for v, k in zip(p.vars, e):
            if k:
                power = point[v]
                for _ in range(k - 1):
                    power = power * point[v]
                val = val * power
        total = total + val
    return total


def test_eval_with_non_dyadic_coefficients_keeps_the_bits_of_the_fraction_loop():
    vars = ("x", "y", "z")
    x, y, z = (Poly.var(vars, v) for v in vars)
    polys = [x * Fraction(1, 3) + y * y * Fraction(2, 7) - z ** 3 * Fraction(5, 11),
             (x * Fraction(1, 3) - Fraction(2, 7)) ** 3 * (y + Fraction(1, 9)),
             Poly.const(vars, Fraction(10, 3)) + x * y * z * Fraction(22, 7)]
    rng = np.random.default_rng(3)
    cols = {v: rng.uniform(-2.0, 2.0, size=50) for v in vars}
    for p in polys:
        assert p._den > 1                             # a common denominator
        batch = p.eval(cols)
        want = _reference_eval(p, cols)
        assert batch.tobytes() == want.tobytes()
        for j in range(50):
            point = {v: float(cols[v][j]) for v in vars}
            got = p.eval(point)
            assert type(got) is float and got == _reference_eval(p, point) == batch[j]


def test_eval_tells_a_scalar_from_an_array_without_numpy():
    # a real scalar, numpy's float64 too, is read by float(x) and gives a
    # Python float; an array is used as it is, and each entry gets the bits
    # of its own scalar value
    vars = ("x", "y")
    x, y = (Poly.var(vars, v) for v in vars)
    p = x ** 3 * Fraction(1, 3) + x * y * Fraction(2, 7) - y
    xs = [0.1, 1.7, -2.3, Fraction(5, 3)]
    want = [p.eval({"x": v, "y": 0.5}) for v in xs]
    assert [type(w) for w in want] == [float] * len(xs)
    assert want == [_reference_eval(p, {"x": float(v), "y": 0.5}) for v in xs]
    for v, w in zip(xs, want):
        got = p.eval({"x": np.float64(v), "y": np.float64(0.5)})
        assert type(got) is float and got.hex() == w.hex()
    batch = p.eval({"x": np.array([float(v) for v in xs]), "y": np.full(len(xs), 0.5)})
    assert type(batch) is np.ndarray and batch.shape == (len(xs),)
    assert [b.hex() for b in batch.tolist()] == [w.hex() for w in want]


# --------------------------------------------------------------------------
# rational forms held as integer numerators over one denominator
# --------------------------------------------------------------------------

def _reduced_pair(coeffs):
    """(numerators, D) of a Fraction dict, by hand: D the lcm of the
    denominators (1 for an empty dict)."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {i: int(c * den) for i, c in coeffs.items()}, den


def _reference_add(a, b):
    """a + b one Fraction at a time; a sum that cancels leaves the dict, so a
    key that comes back goes to the end."""
    out = dict(a.coeffs)
    for i, c in b.coeffs.items():
        if i not in out:
            out[i] = c
        elif out[i] + c:
            out[i] += c
        else:
            del out[i]
    return out


def assert_rational_form(got, want):
    """`got` is the rational form whose Fraction coefficients are the dict
    `want`: the same reduced pair as a form built from `want`, and the same
    Fractions in the same key order."""
    num, den = got._ints()
    assert (num, den) == _reduced_pair(want)
    assert list(num) == list(want)
    assert den > 0 and math.gcd(den, *num.values()) == 1
    for built in (KForm(got.dim, got.degree, RAT, want),
                  KForm._trusted(got.dim, got.degree, RAT, want)):
        assert built._ints() == (num, den)
        assert built == got and got == built
    assert got.coeffs == want and list(got.coeffs) == list(want)
    assert all(type(c) is Fraction and c for c in got.coeffs.values())
    assert got.is_zero() == (not want)


def _rational_form(rng, k):
    coeffs = {idx: Fraction(rng.randint(-6, 6), rng.randint(1, 8))
              for idx in combinations(range(1, DIM + 1), k) if rng.random() < 0.5}
    return KForm(DIM, k, RAT, coeffs)


SCALARS = (0, 1, -1, 2, Fraction(-3, 4), Fraction(5, 9))


def test_every_rational_operation_gives_the_reduced_pair_of_the_fraction_loop():
    rng = random.Random(41)
    eqs = ffkm_model().eqs
    n_cancel = 0
    for _ in range(120):
        k = rng.randint(0, 4)
        a, b = _rational_form(rng, k), _rational_form(rng, rng.randint(0, 3))
        # c cancels a on some keys; a - a cancels everywhere
        c = KForm(DIM, k, RAT, {i: -v if rng.random() < 0.5 else v / 3
                                for i, v in a.coeffs.items()})
        s = rng.choice(SCALARS)
        cases = [(a, dict(a.coeffs)),
                 (a.wedge(b), _reference_wedge(a, b).coeffs),
                 (a + c, _reference_add(a, c)),
                 (a - a, {}),
                 (-a, {i: -v for i, v in a.coeffs.items()}),
                 (a.scale(s), {i: v * s for i, v in a.coeffs.items() if s}),
                 (s * a.wedge(b), {i: v * s for i, v in _reference_wedge(a, b).coeffs.items()
                                   if s})]
        d = d_invariant(eqs, a)
        cases.append((d, KForm(DIM, d.degree, RAT, d.coeffs).coeffs))
        for got, want in cases:
            assert_rational_form(got, want)
        n_cancel += (a + c).is_zero() or len(_reference_add(a, c)) < len(a.coeffs)
    assert n_cancel > 20


def test_rational_operations_build_no_fractions(monkeypatch):
    eqs = nakamura_model().eqs
    # built from integers, so neither side holds Fractions yet
    a = KForm._trusted(DIM, 2, RAT, {(1, 2): 3, (2, 5): -4, (3, 4): 6}, 8)
    b = KForm._trusted(DIM, 1, RAT, {(1,): 5, (6,): -1}, 3)
    s = Fraction(-3, 4)
    made = []
    monkeypatch.setattr(Fraction, "__new__", lambda *args, **kw: made.append(args))
    outs = [a.wedge(b), a + a.scale(s), -a, a - a, 2 * a, d_invariant(eqs, a)]
    same = [a == a.scale(1), outs[0] == b.wedge(a), outs[3].is_zero()]
    monkeypatch.undo()
    assert made == []
    assert same == [True, True, True]
    for form in [a, b] + outs:
        assert form._coeffs is None
    assert a.coeffs == {(1, 2): Fraction(3, 8), (2, 5): Fraction(-1, 2), (3, 4): Fraction(3, 4)}
    assert a._ints() == ({(1, 2): 3, (2, 5): -4, (3, 4): 6}, 8)
    assert_rational_form(outs[1], {i: v / 4 for i, v in a.coeffs.items()})


def test_coeffs_are_built_once_and_kept(monkeypatch):
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(forms_module, "Fraction", counting_fraction)
    a = KForm._trusted(DIM, 1, RAT, {(3,): 2, (1,): -6, (2,): 0}, 4)
    assert a._ints() == ({(3,): 1, (1,): -3}, 2)       # reduced, zero dropped
    first = a.coeffs
    assert made == [(1, 2), (-3, 2)]
    assert list(first.items()) == [((3,), Fraction(1, 2)), ((1,), Fraction(-3, 2))]
    assert a.coeffs == first and made == [(1, 2), (-3, 2)]
    with pytest.raises(TypeError):
        first[(2,)] = Fraction(1)               # the view is read-only
    # a form built from Fractions keeps them, and makes its pair once
    f = KForm(DIM, 1, RAT, first)
    num, _ = f._ints()
    assert f._ints()[0] is num
    assert f.coeffs == first and len(made) == 2


def test_equality_agrees_with_the_fraction_dicts():
    rng = random.Random(2)
    half = Fraction(1, 2)

    def small_form():
        # few terms and few values, so that equal pairs come up often
        return KForm(DIM, 1, RAT, {(i,): rng.choice((half, -half, 1))
                                   for i in (1, 2) if rng.random() < 0.7})

    def rebuilds(f):
        # the same form from Fractions and by integer operations
        return [f, f.scale(Fraction(2, 3)).scale(Fraction(3, 2)), f + KForm.zero(DIM, 1), -(-f)]

    verdicts = set()
    for _ in range(200):
        f, g = small_form(), small_form()
        for x in rebuilds(f):
            for y in rebuilds(g):
                same = x.coeffs == y.coeffs
                assert (x == y) == same and (y == x) == same
                verdicts.add(same)
    assert verdicts == {True, False}


# --------------------------------------------------------------------------
# the exact layer takes rational forms only, refused in one place
# --------------------------------------------------------------------------

def _exact_entry_points() -> dict:
    """Each exact operation of the package as call(convert), which runs it
    on fixed rational forms with `convert` applied to the form it reads."""
    phi = g2core.standard_phi()
    data = g2core.is_g2_type(phi)
    ffkm = ffkm_model()
    rho, target = ffkm.witnesses["theta123"]
    th = lambda *idx: KForm.basis(DIM, idx)
    fiber = (th(4, 5) + th(6, 7), th(4, 6) - th(5, 7), th(4, 7) + th(5, 6))
    return {
        "is_g2_type": lambda f: g2core.is_g2_type(f(phi)),
        "bilinear_from_3form": lambda f: g2core.bilinear_from_3form(f(phi)),
        "star_parts": lambda f: g2core.star_parts(data, f(phi)),
        "hodge_star": lambda f: g2core.hodge_star(data, f(phi)),
        "d_invariant": lambda f: d_invariant(ffkm.eqs, f(rho)),
        "ch_map": lambda f: ch_map(f(phi), nakamura_model()),
        "SU2FiberData": lambda f: g2core.SU2FiberData(*map(f, fiber)),
        "verify_primitive": lambda f: verify_primitive(ffkm.eqs, f(rho), target),
        "verify_primitive.target": lambda f: verify_primitive(ffkm.eqs, rho, f(target)),
        "involution_pullback": lambda f: ffkm.involution_pullback(f(phi)),
    }


@pytest.mark.parametrize("ring", [FLT, YRING], ids=["flt", "poly"])
@pytest.mark.parametrize("entry", [
    "is_g2_type", "bilinear_from_3form", "star_parts", "hodge_star", "d_invariant", "ch_map",
    "SU2FiberData", "verify_primitive", "verify_primitive.target", "involution_pullback"])
def test_every_exact_entry_point_refuses_a_float_or_polynomial_form(entry, ring):
    # KForm._ints refuses the form, naming its ring, wherever it is read
    call = _exact_entry_points()[entry]
    call(lambda form: form)
    with pytest.raises(TypeError, match="exact operations take rational forms, got one over "
                                        + ("float" if ring == FLT else "polynomials in")):
        call(lambda form: form.in_ring(ring))
