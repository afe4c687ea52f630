"""Invariant differential, Jacobi guard, and model (de)serialization."""
import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2calc import forms
from g2calc.catalog import ffkm_model, nakamura_model
from g2calc.forms import KForm, _add_term
from g2calc.liecdga import (InvariantModel, JacobiError, LeibnizError, StructureEqs,
                            check_d_squared, check_leibniz, d_invariant, load_model,
                            model_from_dict, model_to_dict, verify_primitive)
from g2calc.rings import FLT, RAT, Poly
from oracles import sort_sign

DIM = 7


def _eqs(dim, d_gen):
    """Structure equations on generators named t1..t<dim>."""
    return StructureEqs(dim, d_gen, [f"t{i}" for i in range(1, dim + 1)])


def kf2(*terms):
    return KForm.from_terms(DIM, 2, [(idx, Fraction(c)) for c, idx in terms])


def test_d_squared_holds_on_both_models():
    check_d_squared(nakamura_model().eqs)
    check_d_squared(ffkm_model().eqs)


def test_jacobi_failure_detected():
    # corrupt the nilmanifold equations: d theta^4 = theta^{12} + theta^{34}
    # together with d theta^3 = theta^{12} makes d^2 theta^4 != 0
    d_gen = [None, None, kf2((1, (1, 2))),
             kf2((1, (1, 2)), (1, (3, 4))), None, None, None]
    eqs = _eqs(DIM, d_gen)
    with pytest.raises(JacobiError) as err:
        check_d_squared(eqs)
    assert "Jacobi" in str(err.value)


def _rebuilt(model):
    """The model's structure equations, with a table of d rows of their own."""
    eqs = model().eqs
    return StructureEqs(eqs.dim, eqs.d_gen, eqs.generators)


@pytest.mark.parametrize("model", [nakamura_model, ffkm_model])
def test_the_leibniz_rule_holds_on_every_basis_pair_of_both_models(model):
    assert check_leibniz(_rebuilt(model)) == 127 ** 2


def test_the_leibniz_proof_covers_the_masks_below_the_dimension():
    # the Heisenberg algebra, d t3 = t12: 7 nonempty masks, 49 pairs
    assert check_leibniz(_eqs(3, [None, None, KForm.basis(3, (1, 2))])) == 49


@pytest.mark.parametrize("model", [nakamura_model, ffkm_model])
@pytest.mark.parametrize("idx", [(4,), (4, 5), (2, 5, 6), (3, 4, 5, 6, 7)])
def test_the_leibniz_proof_fails_on_one_integer_off_in_a_table_row(model, idx):
    eqs = _rebuilt(model)
    (merged, k), *rest = eqs._row(idx)
    eqs._table[idx] = ((merged, k + 1), *rest)
    with pytest.raises(LeibnizError, match="in the table rows of d"):
        check_leibniz(eqs)


def test_the_leibniz_proof_needs_the_pairs_that_share_an_axis(monkeypatch):
    # theta^123 ^ theta^456 negated in both orders of the sign table: on the
    # nilmanifold model the first pair that breaks the rule shares axis 4
    table = [list(row) for row in forms._SIGN]
    table[0b111000][0b111] *= -1
    table[0b111][0b111000] *= -1
    monkeypatch.setattr(forms, "_SIGN", tuple(table))
    with pytest.raises(LeibnizError, match=r"^d\(e34 \^ e456\) != d\(e34\) \^ e456 \+ "):
        check_leibniz(_rebuilt(ffkm_model))


def test_d_invariant_on_generators_matches_structure_eqs():
    eqs = ffkm_model().eqs
    for i in range(1, DIM + 1):
        d_theta = d_invariant(eqs, KForm.basis(DIM, (i,)))
        assert d_theta == eqs.d_gen[i - 1]


def test_d_invariant_leibniz():
    eqs = ffkm_model().eqs
    a = kf2((1, (1, 4)), (-2, (2, 5)))
    b = KForm.basis(DIM, (3,)) + 2 * KForm.basis(DIM, (6,))
    lhs = d_invariant(eqs, a.wedge(b))
    rhs = d_invariant(eqs, a).wedge(b) + a.wedge(d_invariant(eqs, b))
    assert lhs == rhs


def test_d_invariant_refuses_a_form_of_another_dimension():
    # a 4-dim form under 5-dim equations used to give a 5-dim form, and a
    # 7-dim one an IndexError
    eqs = _eqs(5, [None, None, None, KForm.basis(5, (1, 2)), KForm.basis(5, (1, 3))])
    for dim in (4, 7):
        for form in (KForm.basis(dim, (1, 2)), KForm.basis(dim, (4,)).in_ring(FLT),
                     KForm.zero(dim, dim)):
            with pytest.raises(ValueError, match=f"dimension {dim} for structure "
                                                 "equations in dimension 5"):
                d_invariant(eqs, form)
    assert d_invariant(eqs, KForm.basis(5, (4,))) == KForm.basis(5, (1, 2))


def test_equations_with_the_same_indices_do_not_share_table_rows():
    # the same pairs with other constants: each fills its own table, in
    # either order of first use
    def eqs(c):
        return _eqs(DIM, [None, None, None, kf2((c, (1, 2))),
                          kf2((2 * c, (1, 3)), (1, (2, 4))), None, None])
    form = KForm.from_terms(DIM, 2, [((4, 6), 1), ((5, 7), Fraction(1, 3)), ((4, 5), 2)])
    for first, second in ((1, Fraction(-3, 5)), (Fraction(-3, 5), 1), (1, 1)):
        a, b = eqs(first), eqs(second)
        got = [d_invariant(a, form), d_invariant(b, form)]
        assert got == [_d_invariant_fraction_loop(a, form), _d_invariant_fraction_loop(b, form)]
        assert (got[0] == got[1]) == (first == second)
        assert a._table is not b._table


def test_the_generator_equations_are_a_tuple():
    eqs = nakamura_model().eqs
    assert type(eqs.d_gen) is tuple
    with pytest.raises(TypeError):
        eqs.d_gen[3] = KForm.zero(DIM, 2)


def test_verify_primitive_accepts_and_rejects():
    m = nakamura_model()
    rho, target = m.witnesses["two_g1_wedge_omega"]
    verify_primitive(m.eqs, rho, target)
    with pytest.raises(Exception):
        verify_primitive(m.eqs, rho, 3 * target)


def test_model_dict_roundtrip():
    m = nakamura_model()
    m2 = model_from_dict(model_to_dict(m))
    assert m2.eqs.generators == m.eqs.generators
    assert m2.eqs.d_gen == m.eqs.d_gen
    assert set(m2.named_forms) == set(m.named_forms)
    for k in m.named_forms:
        assert m2.named_forms[k] == m.named_forms[k]
    assert m2.witnesses.keys() == m.witnesses.keys()


def test_model_file_roundtrip(tmp_path):
    m = ffkm_model()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(m)))
    # the on-disk format is plain JSON with "p/q" rationals
    raw = json.loads(path.read_text())
    assert raw["dim"] == DIM
    m2 = load_model(path)
    assert m2.eqs.d_gen == m.eqs.d_gen


def test_rational_coefficients_survive_serialization(tmp_path):
    eqs = _eqs(DIM, [None, None, None,
                     kf2((Fraction(2, 3), (1, 2))),
                     None, None, None])
    m = InvariantModel(eqs, {}, label="third")
    path = tmp_path / "third.json"
    path.write_text(json.dumps(model_to_dict(m)))
    m2 = load_model(path)
    assert m2.eqs.d_gen[3].coeffs[(1, 2)] == Fraction(2, 3)


def _two_dim_model(d=None, involution=None, generators=("a", "b")):
    data = {"dim": 2, "generators": list(generators), "d": d or {}}
    if involution is not None:
        data["involution"] = involution
    return data


BAD_MODELS = {
    "bool_coefficient": (_two_dim_model(d={"a": [[True, [1, 2]]]}), "True"),
    "bool_index": (_two_dim_model(d={"a": [["1", [True, 2]]]}), "multi-index"),
    "unknown_d_generator": (_two_dim_model(d={"zz": [["1", [1, 2]]]}), "zz"),
    "unknown_involution_generator": (_two_dim_model(involution={"a": "-1", "zz": "1"}), "zz"),
    "bool_involution": (_two_dim_model(involution={"a": True}), "True"),
    "zero_denominator": (_two_dim_model(d={"a": [["1/0", [1, 2]]]}),
                         re.escape("term ['1/0', [1, 2]]: rational '1/0' has a zero denominator")),
    "zero_denominator_involution": (_two_dim_model(involution={"a": "1/0", "b": "1"}),
                                    "'1/0' has a zero denominator"),
    "repeated_generator": (_two_dim_model(generators=("a", "a")), "repeat"),
    "involution_not_a_sign": (_two_dim_model(involution={"a": "3", "b": "0"}),
                              "1 or -1"),
    "involution_omits_generator": (_two_dim_model(involution={"a": "-1"}),
                                   r"omits generators \['b'\]"),
    # KForm.from_terms would drop these terms as zero
    "repeated_axis": (_two_dim_model(d={"a": [["1", [1, 2]], ["5", [1, 1]]]}),
                      r"\['5', \[1, 1\]\] repeats an axis"),
    "repeated_axis_named_form": (dict(_two_dim_model(), named_forms={"w": [["1", [2, 2]]]}),
                                 "repeats an axis"),
    "repeated_axis_witness": (dict(_two_dim_model(), witnesses={"w": {
        "primitive": [["1", [1]]], "target": [["1", [2, 2]]]}}), "repeats an axis"),
    # an axis that is not an int is refused before the term's sign is taken
    "string_axis": (_two_dim_model(d={"a": [["1", ["x", 1]]]}),
                    re.escape("multi-index entries must be ints: ('x', 1)")),
    "string_axis_named_form": (dict(_two_dim_model(), named_forms={"w": [["1", ["x", 1]]]}),
                               re.escape("multi-index entries must be ints: ('x', 1)")),
    "list_axis": (_two_dim_model(d={"a": [["1", [[1], 2]]]}),
                  re.escape("multi-index entries must be ints: ([1], 2)")),
    # axis 8 lies past the sign table's 7 axes: the dimension is refused first
    "dim_above_7": ({"dim": 8, "generators": list("abcdefgh"), "d": {"a": [["1", [8, 2]]]}},
                    re.escape("need 0 <= degree <= dim <= 7")),
    **{f"domain_volume_{v}": (dict(_two_dim_model(), domain_volume=v),
                              re.escape(f"'domain_volume' must be a positive finite number, "
                                        f"got {v!r}"))
       for v in ("-3", "0", "nan", "inf", True)},
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_model_from_dict_rejects_malformed_input(case):
    data, problem = BAD_MODELS[case]
    with pytest.raises(ValueError, match=problem):
        model_from_dict(data)


def test_a_positive_domain_volume_loads_and_survives_the_round_trip():
    assert model_from_dict(dict(_two_dim_model(), domain_volume="2.0")).domain_volume == 2.0
    m = nakamura_model()
    assert m.domain_volume > 0
    assert model_from_dict(model_to_dict(m)).domain_volume == m.domain_volume


def test_a_zero_denominator_in_a_model_file_is_refused_by_name(tmp_path):
    # Fraction("1/0") raises ZeroDivisionError; a model file gets a ValueError
    data = model_to_dict(nakamura_model())
    gen = next(iter(data["d"]))
    data["d"][gen][0][0] = "1/0"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"term {data['d'][gen][0]!r}")):
        load_model(path)


@pytest.mark.parametrize("model", [nakamura_model, ffkm_model])
def test_d_squared_vanishes_on_random_forms(model):
    # d^2 = 0 on the generators extends to every form only through a
    # correct derivation rule; test the extension itself
    eqs = model().eqs
    rng = random.Random(110)
    for _ in range(100):
        k = rng.randint(1, 3)
        coeffs = {}
        for idx in combinations(range(1, DIM + 1), k):
            c = rng.randint(-4, 4)
            if c:
                coeffs[idx] = Fraction(c)
        a = KForm(DIM, k, RAT, coeffs)
        assert d_invariant(eqs, d_invariant(eqs, a)).is_zero()


def test_structure_eqs_reject_wrong_degree():
    with pytest.raises(ValueError):
        _eqs(DIM, [KForm.basis(DIM, (1, 2, 3))] + [None] * 6)


def test_structure_eqs_reject_float_constants():
    with pytest.raises(ValueError, match="rational"):
        _eqs(DIM, [KForm.basis(DIM, (1, 2)).in_ring(FLT)] + [None] * 6)


def _d_invariant_term_by_term(eqs, form):
    """d of a rational form as one form per term, added up one at a time
    through the validating constructor, with signs from the inversion-count
    oracle."""
    dim = eqs.dim
    if form.degree >= dim:
        return KForm.zero(dim, dim)
    out = KForm.zero(dim, form.degree + 1)
    for idx, c in form.coeffs.items():
        for pos, axis in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            for pair, c2 in eqs.d_gen[axis - 1].coeffs.items():
                merged, sign = sort_sign(pair + rest)
                if sign == 0:
                    continue
                total = c * c2
                if (sign == 1) != (pos % 2 == 0):
                    total = -total
                out = out + KForm(dim, form.degree + 1, RAT, {merged: total})
    return out


@pytest.mark.parametrize("model", [nakamura_model, ffkm_model])
@pytest.mark.parametrize("ring", [RAT, FLT])
def test_d_invariant_matches_term_by_term_sum(model, ring):
    eqs = model().eqs
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(0, DIM)
        coeffs = {idx: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for idx in combinations(range(1, DIM + 1), k) if rng.random() < 0.5}
        form = KForm(DIM, k, RAT, coeffs).in_ring(ring)
        if ring == FLT:     # d is exact: a float form is refused
            with pytest.raises(TypeError, match="over float"):
                d_invariant(eqs, form)
            continue
        got, want = d_invariant(eqs, form), _d_invariant_term_by_term(eqs, form)
        assert got == want
        # same coefficients bit for bit, in the same order
        assert list(got.coeffs.items()) == list(want.coeffs.items())


def _d_invariant_fraction_loop(eqs, form):
    """d_invariant of a rational form as one Fraction product per term,
    summed through _add_term."""
    dim = eqs.dim
    if form.degree >= dim:
        return KForm.zero(dim, dim)
    out = {}
    for idx, c in form.coeffs.items():
        for pos, axis in enumerate(idx):
            dg = eqs.d_gen[axis - 1]
            if dg.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1:]
            for pair, c2 in dg.coeffs.items():
                merged, sign = sort_sign(pair + rest)
                if sign == 0:
                    continue
                total = c * c2
                if (sign == 1) != (pos % 2 == 0):
                    total = -total
                _add_term(out, merged, total)
    return KForm._trusted(dim, form.degree + 1, RAT, out)


def _two_thirds_eqs():
    # the model of test_rational_coefficients_survive_serialization, with a
    # second fractional constant so that the table's denominator is an lcm
    return _eqs(DIM, [None, None, None, kf2((Fraction(2, 3), (1, 2))),
                      kf2((Fraction(-5, 4), (1, 3)), (Fraction(1, 6), (2, 4))),
                      None, None])


def assert_same_d(eqs, form):
    got, want = d_invariant(eqs, form), _d_invariant_fraction_loop(eqs, form)
    assert got == want
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert all(type(c) is type(w) for c, w in zip(got.coeffs.values(), want.coeffs.values()))


@pytest.mark.parametrize("make_eqs", [lambda: nakamura_model().eqs, lambda: ffkm_model().eqs,
                                      _two_thirds_eqs], ids=["nakamura", "ffkm", "two_thirds"])
def test_integer_d_invariant_matches_the_fraction_loop_on_every_basis_form(make_eqs):
    eqs = make_eqs()
    n = 0
    for k in range(DIM):
        for idx in combinations(range(1, DIM + 1), k):
            assert_same_d(eqs, Fraction(3, 7) * KForm.basis(DIM, idx))
            n += 1
    assert n == 2 ** DIM - 1


@pytest.mark.parametrize("make_eqs", [lambda: nakamura_model().eqs, lambda: ffkm_model().eqs,
                                      _two_thirds_eqs], ids=["nakamura", "ffkm", "two_thirds"])
def test_integer_d_invariant_matches_the_fraction_loop_on_random_forms(make_eqs):
    eqs = make_eqs()
    rng = random.Random(17)
    for _ in range(80):
        k = rng.randint(0, DIM)
        coeffs = {idx: Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                  for idx in combinations(range(1, DIM + 1), k) if rng.random() < 0.6}
        form = KForm(DIM, k, RAT, coeffs)
        # built from Fractions and from integers (a wedge); in floats it is
        # refused
        assert_same_d(eqs, form)
        assert_same_d(eqs, form.wedge(Fraction(1, 5) * KForm.basis(DIM, (rng.randint(1, DIM),))))
        with pytest.raises(TypeError, match="over float"):
            d_invariant(eqs, form.in_ring(FLT))


YVARS = tuple(f"y{i}" for i in range(1, DIM + 1))
YRING = ("poly", YVARS)


@st.composite
def sparse_forms(draw, dim, k, ring=RAT):
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
def test_d_invariant_equals_the_reference_loop_in_value_and_key_order(ring, data):
    # random structure equations on 2..7 axes (d^2 = 0 is not needed for d
    # to be the derivation extension); a 2-form needs at least two axes
    dim = data.draw(st.integers(2, DIM))
    eqs = _eqs(dim, [data.draw(sparse_forms(dim, 2)) for _ in range(dim)])
    form = data.draw(sparse_forms(dim, data.draw(st.integers(0, dim)), ring))
    if ring == RAT:
        assert_same_d(eqs, form)
    else:               # d is exact: a float or polynomial form is refused
        with pytest.raises(TypeError, match="over float|over polynomials"):
            d_invariant(eqs, form)
