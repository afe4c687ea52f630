"""Induced metric, Hodge star, and the SU(2)-fiber assembly lemma."""
import hashlib
import inspect
import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from g2calc import g2core, rings, scaling
from g2calc.catalog import nakamura_model, phi_abl_mu, xi_mu_chart
from g2calc.forms import KForm
from g2calc.g2core import (STANDARD_PHI_TERMS, DegenerateFiberError, G2Data,
                           NotStableError, OrientationMismatchError,
                           SU2FiberData, bilinear_from_3form, hodge_star,
                           is_g2_type, metric_batch, norm_batch, phi_to_vector, standard_phi,
                           su2_assemble)
from g2calc.rings import FLT, RAT, nth_root_fraction
from oracles import (contract, float_r, fraction_inverse, inner_product, metric_inv,
                     star_parts_fraction)

DIM = 7
#: the refusal of G2Data at an irrational r names the exact routes
_IRRATIONAL_R = r"irrational \(vol\^3 = .*\): read vol_cubed, star_parts, or metric_batch"


def th(*idx, ring=RAT):
    return KForm.basis(DIM, idx).in_ring(ring)


# --------------------------------------------------------------------------
# the standard form
# --------------------------------------------------------------------------

def test_standard_form_gives_euclidean_metric():
    data = is_g2_type(standard_phi())
    assert data.metric == [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    assert data.sqrt_det == 1


def test_negative_orientation_rejected():
    # B(-phi_0) = -6 I is negative definite
    with pytest.raises(OrientationMismatchError):
        is_g2_type(-1 * standard_phi())


def test_degenerate_form_rejected():
    # a decomposable 3-form is nowhere definite
    with pytest.raises(NotStableError):
        is_g2_type(th(1, 2, 3))


# --------------------------------------------------------------------------
# Hodge star identities on random definite forms
# --------------------------------------------------------------------------

def _rational_definite(rng, count):
    """`count` definite forms phi_0 + delta, delta dense with coefficients in
    (1/60) [-12, 12]: their volumes are irrational but for a few."""
    out = []
    while len(out) < count:
        phi = standard_phi() + KForm(DIM, 3, RAT, {
            idx: Fraction(int(rng.integers(-12, 13)), 60)
            for idx in combinations(range(1, DIM + 1), 3)})
        try:
            out.append((phi, is_g2_type(phi)))
        except NotStableError:
            pass
    return out


def _dense_rational(rng, k):
    return KForm(DIM, k, RAT, {idx: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                               for idx in combinations(range(1, DIM + 1), k)})


def test_star_star_is_identity():
    # exact at irrational volume: *a = r^p Y and **a = r^(p+q) Y' with p + q
    # a multiple of 3 and r^3 = 216 vol^3 rational; where r is rational the
    # star itself is exact.  Frames give exact data.
    rng = np.random.default_rng(0)
    samples = _rational_definite(rng, 4)
    samples += [(phi, is_g2_type(phi)) for phi in map(_frame_phi, _random_frames(rng, 2))]
    assert {data.exact for _, data in samples} == {True, False}
    for _, data in samples:
        r3 = 216 * data.vol_cubed
        for k in range(DIM + 1):
            a = _dense_rational(rng, k)
            y, p = g2core.star_parts(data, a)
            back, q = g2core.star_parts(data, y)
            assert (p, q) == ((k + 1) % 3, (DIM - k + 1) % 3)
            assert r3 ** ((p + q) // 3) * back == a
            if data.exact:
                assert hodge_star(data, hodge_star(data, a)) == a


def test_phi_wedge_star_phi_is_seven_vol():
    # *phi = r Y, so phi ^ *phi = 7 vol = 7 r / 6 reads top(phi ^ Y) = 7/6
    rng = np.random.default_rng(1)
    samples = _rational_definite(rng, 6)
    samples += [(phi, is_g2_type(phi)) for phi in map(_frame_phi, _random_frames(rng, 2))]
    for phi, data in samples:
        y, p = g2core.star_parts(data, phi)
        assert p == 1 and phi.wedge(y).top_coefficient() == Fraction(7, 6)
        if data.exact:
            assert phi.wedge(hodge_star(data, phi)).top_coefficient() == 7 * data.sqrt_det


def test_the_star_of_a_rational_form_carries_its_power_of_r():
    # at irrational r, *a = r^p Y is refused where p > 0, naming the exact
    # routes, and is the exact Y for k = 2 and 5, where p = 0; <a, b> is
    # r^(k mod 3) times a rational number in the same way
    rng = np.random.default_rng(2)
    (phi, data), = _rational_definite(rng, 1)
    assert not data.exact
    r = float_r(data)
    for k in range(DIM + 1):
        a, b = _dense_rational(rng, k), _dense_rational(rng, k)
        y, p = g2core.star_parts(data, a)
        assert p == (k + 1) % 3 and y.ring == RAT
        if p == 0:
            star = hodge_star(data, a)
            assert star == y and star.ring == RAT
        else:
            with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
                hodge_star(data, a)
        ip = inner_product(data, a, b)
        assert (type(ip) is Fraction) == (k % 3 == 0)
        # a ^ *b = <a, b> vol with vol = r / 6
        top = a.wedge(g2core.star_parts(data, b)[0]).top_coefficient()
        r_top = r ** ((k + 1) % 3) * float(top)
        assert math.isclose(float(ip) * r / 6, r_top, rel_tol=1e-12, abs_tol=1e-12)


def test_data_at_an_irrational_r_is_exact_or_refuses():
    # phi_0 with its first term doubled: B = 6 diag(2, 2, 2, 1, 1, 1, 1),
    # vol^3 = 2 and r = 6 * 2^(1/3).  exact and vol_cubed read; everything
    # that needs r itself refuses, and the star of a 2- or 5-form needs none
    phi = standard_phi() + th(1, 2, 3)
    data = is_g2_type(phi)
    assert data.exact is False
    assert type(data.vol_cubed) is Fraction and data.vol_cubed == 2
    assert (216 * data.vol_cubed) ** 3 == 36 * _fraction_det(bilinear_from_3form(phi))
    for read in (lambda: data.sqrt_det, lambda: data.metric):
        with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
            read()
    for k in range(DIM + 1):
        a = th(*range(1, k + 1))
        if k in (2, 5):
            assert hodge_star(data, a) == g2core.star_parts(data, a)[0]
        else:
            with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
                hodge_star(data, a)


def test_the_hodge_star_refuses_float_forms_and_float_data():
    # there is no float data to give it, as is_g2_type refuses a float
    # form; the star refuses one too, in every degree
    data = is_g2_type(standard_phi())
    for k in range(DIM + 1):
        a = th(*range(1, k + 1)).in_ring(FLT)
        with pytest.raises(TypeError):
            hodge_star(data, a)
        with pytest.raises(TypeError):
            g2core.star_parts(data, a)


def test_the_hodge_star_refuses_a_form_off_the_seven_dim_frame():
    # it used to read a 6-dim 2-form's indices on the 7-dim frame and give
    # e34567 in dimension 7
    data = is_g2_type(standard_phi())
    for dim, idx in ((6, (1, 2)), (3, (1,)), (5, (1, 2, 3, 4, 5))):
        a = KForm.basis(dim, idx)
        for star in (hodge_star, g2core.star_parts):
            with pytest.raises(ValueError, match=f"in dimension 7, got dimension {dim}"):
                star(data, a)
            # a float form is refused by its ring first, as before
            with pytest.raises(TypeError):
                star(data, a.in_ring(FLT))


def test_star_parts_equals_the_fraction_constant_build_in_value_and_key_order():
    # the constant 6 / (d^(7-k) (r^3)^(3-q)) as integers, and complements
    # with an empty sum skipped, against the Fraction constant over every
    # complement
    rng = np.random.default_rng(8)
    datas = [data for _, data in _rational_definite(rng, 3)] + [is_g2_type(standard_phi())]
    for data in datas:
        for k in range(DIM + 1):
            for a in (_dense_rational(rng, k), th(*range(1, k + 1)),
                      Fraction(-5, 12) * KForm.basis(DIM, tuple(range(DIM - k + 1, DIM + 1)))):
                got, p = g2core.star_parts(data, a)
                want, p_want = star_parts_fraction(data, a)
                assert (got, p) == (want, p_want)
                assert list(got.coeffs.items()) == list(want.coeffs.items())
                assert got._ints() == want._ints()


def test_the_star_of_the_zero_form_is_zero_at_every_degree():
    # the kernel pushes 7 - k columns, with k passed in: a form with no
    # terms still has a degree, and its star is the zero form of 7 - k
    rng = np.random.default_rng(10)
    datas = ([data for _, data in _rational_definite(rng, 1)]
             + [is_g2_type(Fraction(27, 8) * standard_phi())])
    assert all(datas[1]._ints[0][i][j] == 0 for i in range(DIM) for j in range(DIM) if i != j)
    for data, k in product(datas, range(DIM + 1)):
        y, p = g2core.star_parts(data, KForm.zero(DIM, k))
        assert y.is_zero() and y.degree == DIM - k and p == (k + 1) % 3


class _CountedInt(int):
    """An entry of N that counts the products it takes part in."""
    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


@pytest.mark.parametrize("k, bound", [(2, 3000), (3, 3000), (4, 1500)])
def test_the_star_kernel_takes_few_products_with_entries_of_n(k, bound):
    # a dense k-form on a dense N: pushing the columns of every J' at once
    # takes 2 982, 2 695 and 1 400 products with an entry of N at k = 2, 3
    # and 4 (the count follows the support, not the values); a wedge of
    # columns per column mask takes 5 628, 7 448 and 4 340
    rng = np.random.default_rng(11)
    (_, data), = _rational_definite(rng, 1)
    N, d = data._ints
    assert all(x for row in N for x in row)
    a = KForm(DIM, k, RAT, {I: Fraction(int(rng.integers(1, 10)) * int(rng.choice([-1, 1])),
                                        int(rng.integers(1, 8)))
                            for I in combinations(range(1, DIM + 1), k)})
    nums = a._ints()[0]
    counted = G2Data([[_CountedInt(x) for x in row] for row in N], d, data._r3)
    _CountedInt.products = 0
    assert g2core._jacobi_sums(counted, nums, k) == g2core._jacobi_sums(data, nums, k)
    assert 0 < _CountedInt.products <= bound


def test_is_g2_type_takes_rational_forms_only():
    # a float form raises, however definite, and the message names the float
    # path; so does a polynomial form, and the exact B-map refuses both
    for form in (standard_phi().in_ring(FLT), KForm(DIM, 3, FLT, {(1, 2, 3): 0.5}),
                 xi_mu_chart()):
        with pytest.raises(TypeError, match="metric_batch"):
            is_g2_type(form)
        with pytest.raises(TypeError, match="metric_batch"):
            bilinear_from_3form(form)


def test_star_exact_on_standard_form():
    data = is_g2_type(standard_phi())
    star = hodge_star(data, standard_phi())
    # *phi0 is the standard 4-form; check two representative coefficients
    assert star.coeffs[(4, 5, 6, 7)] == 1
    assert star.degree == 4
    assert standard_phi().wedge(star).top_coefficient() == 7


def test_norm_of_unit_basis_form():
    g, _ = metric_batch(phi_to_vector(standard_phi()))
    assert norm_batch(g, phi_to_vector(th(1, 2, 3))) == pytest.approx([1.0], rel=1e-15)
    assert norm_batch(g, np.zeros(len(_TRIPLES))).tolist() == [0.0]


def test_the_float_tables_are_built_once_with_the_bits_they_held_at_import():
    # they are built on the first float batch or norm, no longer at import;
    # the digests are of their bytes as module constants
    a, k = g2core._float_tables()
    sign = g2core._tensor_sign()
    assert g2core._float_tables()[0] is a and g2core._tensor_sign() is sign
    assert [(t.dtype.name, t.shape, hashlib.sha256(t.tobytes()).hexdigest()[:16])
            for t in (a, k, sign)] == [("float64", (35, 147), "449cc9f0ae459a9f"),
                                       ("float64", (35, 441), "30a091e77353edb0"),
                                       ("int64", (343,), "a4e8137233e69328")]


def test_metric_batch_matches_single_evaluation():
    # a row's metric, volume and norms do not depend on the batch it came
    # in, to the last bit: alone, in slices, in reverse order, and across
    # the blocks that bilinear_batch splits a batch into
    rng = np.random.default_rng(2)
    v0 = phi_to_vector(standard_phi())
    vs = v0[None, :] + 0.05 * rng.normal(size=(205, v0.size))
    sigmas = rng.normal(size=vs.shape) * rng.uniform(0.0, 3.0, size=(len(vs), 1))
    assert len(vs) > 2 * g2core._ROWS_PER_BLOCK
    gs, vols = metric_batch(vs)
    norms = norm_batch(gs, sigmas)
    for i, (row, sigma) in enumerate(zip(vs, sigmas)):
        g, vol = metric_batch(row)
        assert np.array_equal(g[0], gs[i]) and vol[0] == vols[i]
        assert norm_batch(g, sigma)[0] == norms[i]
    for part in (slice(3, 10), slice(100, 205), slice(None, None, -1)):
        g, vol = metric_batch(vs[part])
        assert np.array_equal(g, gs[part]) and np.array_equal(vol, vols[part])
        assert np.array_equal(norm_batch(g, sigmas[part]), norms[part])


# --------------------------------------------------------------------------
# the table-driven kernels against per-entry references
# --------------------------------------------------------------------------

def _wedge_bilinear(phi):
    """Reference B: (i_{e_i} phi) ^ (i_{e_j} phi) ^ phi, one wedge per entry."""
    contr = [contract(phi, {i: 1}) for i in range(1, DIM + 1)]
    return [[contr[i].wedge(contr[j]).wedge(phi).top_coefficient()
             for j in range(DIM)] for i in range(DIM)]


def _random_rational_3form(rng, density):
    coeffs = {}
    for idx in combinations(range(1, DIM + 1), 3):
        if rng.random() < density:
            coeffs[idx] = Fraction(int(rng.integers(-12, 13)),
                                   int(rng.integers(1, 10)))
    return KForm(DIM, 3, RAT, coeffs)


def _support_size_forms(rng, size):
    """Three rational forms on `size` triples: random signed coefficients on
    a random support; phi_0 on its support (a part of it below seven
    triples) plus small random terms on the rest; and the negative of that
    one, definite for the opposite orientation where the second is
    definite."""
    def coefficient(scale):
        return Fraction(int(rng.choice([-1, 1])) * int(rng.integers(1, 13)),
                        int(rng.integers(1, 10)) * scale)

    standard = [idx for _, idx in STANDARD_PHI_TERMS]
    others = [idx for idx in combinations(range(1, DIM + 1), 3) if idx not in standard]
    rest = [others[i] for i in rng.permutation(len(others))]
    at_random = [g2core.TRIPLES[i] for i in rng.choice(35, size, replace=False)]
    near = {idx: c for c, idx in STANDARD_PHI_TERMS[:size]}
    near.update({idx: coefficient(40) for idx in rest[:max(size - DIM, 0)]})
    phi = KForm(DIM, 3, RAT, near)
    return [KForm(DIM, 3, RAT, {idx: coefficient(1) for idx in at_random}), phi, -1 * phi]


def test_cubic_table_b_matches_the_wedge_reference_at_every_support_size():
    # the table walks only the pairs of phi's support and the entries whose
    # third triple is in it too; every support size from the zero form to a
    # dense one, on definite, indefinite and opposite-orientation forms
    rng = np.random.default_rng(36)
    outcomes = {}
    for size in range(len(g2core.TRIPLES) + 1):
        for phi in _support_size_forms(rng, size):
            assert len(phi.coeffs) == size
            N, d = g2core._bilinear_numerators(phi)
            assert [[Fraction(x, d) for x in row] for row in N] == _wedge_bilinear(phi)
            try:
                is_g2_type(phi)
                kind = "definite"
            except OrientationMismatchError:
                kind = "opposite"
            except NotStableError:
                kind = "not stable"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert min(outcomes.get(k, 0) for k in ("definite", "opposite", "not stable")) >= 10


def test_the_cubic_table_has_one_entry_per_monomial_of_n():
    table = g2core._cubic_table()
    entries = [(a, b, c, pos, coef) for a, row in enumerate(table)
               for b, group in enumerate(row) for c, pos, coef in group]
    assert len(entries) == 735
    assert len({e[:4] for e in entries}) == 735
    assert all(a < b < c and coef in (-6, -3, 3, 6) for a, b, c, _, coef in entries)
    # on the standard form's support only N_ii = +-6 x_a x_b x_c remain
    support = {g2core.TRIPLE_POS[idx] for _, idx in STANDARD_PHI_TERMS}
    on_support = [e for e in entries if set(e[:3]) <= support]
    diagonal = {g2core._UPPER_POS[i][i] for i in range(DIM)}
    assert len(on_support) == DIM and {e[3] for e in on_support} == diagonal
    assert {abs(e[4]) for e in on_support} == {6}
    assert g2core._bilinear_numerators(standard_phi()) == (
        [[6 * (i == j) for j in range(DIM)] for i in range(DIM)], 1)


@pytest.mark.parametrize("density", [0.25, 1.0])
def test_bilinear_table_matches_wedge_reference_exactly(density):
    rng = np.random.default_rng(3)
    for _ in range(6):
        phi = _random_rational_3form(rng, density)
        B = bilinear_from_3form(phi)
        assert B == _wedge_bilinear(phi)
        assert all(type(x) is Fraction for row in B for x in row)


def test_float_and_integer_b_agree_to_a_few_ulps():
    # one table pair, evaluated in both rings: float products on the float
    # coefficients, integer sums on the numerators (8 ulps of max|B|; 2.8
    # was the worst seen over 2000 such forms)
    rng = np.random.default_rng(8)
    for density in (0.25, 0.5, 1.0):
        for _ in range(20):
            phi = _random_rational_3form(rng, density)
            exact = np.array(bilinear_from_3form(phi), dtype=float)
            B = g2core.bilinear_batch(phi_to_vector(phi))[0]
            assert np.abs(B - exact).max() <= 8 * np.finfo(float).eps * np.abs(exact).max()


def test_irrational_volume_keeps_vol_cubed_exact_and_refuses_the_metric():
    # the product of the scalings is not a cube, so vol is irrational; its
    # cube is still rational, (216 vol^3)^3 = 36 det B.  The exact metric
    # and volume are refused; metric_batch gives them in floats
    for lams in ((2, 1, 1, 1, 1, 1, 1), (Fraction(3, 2), 5, 1, 7, 1, 1, Fraction(1, 4))):
        phi = KForm(DIM, 3, RAT, {idx: c * l for (c, idx), l
                                  in zip(STANDARD_PHI_TERMS, lams)})
        ref = _wedge_bilinear(phi)
        assert bilinear_from_3form(phi) == ref
        detB = _leibniz_det(ref)
        data = is_g2_type(phi)
        assert type(data.vol_cubed) is Fraction
        assert (216 * data.vol_cubed) ** 3 == 36 * detB
        assert not data.exact
        for read in (lambda: data.metric, lambda: data.sqrt_det):
            with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
                read()
        want = np.array(ref, dtype=float) / (36.0 * float(detB)) ** (1.0 / 9.0)
        g, sqrt_det = metric_batch(phi_to_vector(phi))
        assert np.allclose(g[0], want, rtol=1e-14, atol=0)
        assert np.allclose(metric_inv(data), np.linalg.inv(want), rtol=1e-14, atol=0)
        assert math.isclose(sqrt_det[0], float(np.sqrt(np.linalg.det(want))),
                            rel_tol=1e-14)


_TRIPLES = list(combinations(range(1, DIM + 1), 3))


@st.composite
def _rational_3forms(draw):
    """+-phi_0 with up to two of its terms flipped (or no base form), plus
    a sparse rational perturbation: every signature of B, and degenerate
    forms, turn up."""
    coeffs = {}
    if draw(st.integers(0, 3)):
        sign, flips = draw(st.sampled_from((-1, 1))), draw(st.sets(st.integers(0, 6),
                                                                    max_size=2))
        coeffs = {idx: (-sign if t in flips else sign) * c
                  for t, (c, idx) in enumerate(STANDARD_PHI_TERMS)}
    for idx, c in draw(st.dictionaries(
            st.sampled_from(_TRIPLES),
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6)), max_size=8)).items():
        coeffs[idx] = coeffs.get(idx, 0) + c
    return KForm(DIM, 3, RAT, coeffs)


@settings(max_examples=120, deadline=None)
@given(_rational_3forms())
def test_rational_forms_give_an_exact_vol_cubed_or_the_predicted_error(phi):
    # is_g2_type never meets an irrational cube root: it returns data with
    # (216 vol^3)^3 = 36 det B, or raises what the eigenvalues of B predict
    B = bilinear_from_3form(phi)
    detB = _fraction_det(B)
    eig = np.linalg.eigvalsh(np.array(B, dtype=float))
    if detB == 0:
        want = NotStableError
    else:
        # a sign that the float eigenvalues cannot resolve predicts nothing
        assume(np.abs(eig).min() > 1e-9 * np.abs(eig).max())
        want = (None if eig[0] > 0 else OrientationMismatchError
                if eig[-1] < 0 else NotStableError)
    if want is not None:
        with pytest.raises(want):
            is_g2_type(phi)
        return
    data = is_g2_type(phi)
    assert type(data.vol_cubed) is Fraction
    assert (216 * data.vol_cubed) ** 3 == 36 * detB
    assert data.exact == (nth_root_fraction(data.vol_cubed, 3) is not None)


def test_bilinear_table_matches_wedge_reference_on_floats():
    rng = np.random.default_rng(4)
    for density in (0.25, 1.0):
        for _ in range(6):
            phi = KForm(DIM, 3, FLT, {
                idx: float(rng.normal())
                for idx in combinations(range(1, DIM + 1), 3)
                if rng.random() < density})
            B = g2core.bilinear_batch(phi_to_vector(phi))[0]
            ref = np.array(_wedge_bilinear(phi))
            assert np.abs(B - ref).max() <= 1e-14 * np.abs(ref).max()


def _frame_phi(A):
    """The standard form pulled back along the coframe theta'^i = sum_j
    A[i][j] theta^j.  For a rational A with det A > 0 its metric is A^T A,
    its volume det A, and 36 det B = (6 det A)^9, so it is exact."""
    frame = [KForm(DIM, 1, RAT, {(j + 1,): A[i][j] for j in range(DIM)})
             for i in range(DIM)]
    phi = KForm.zero(DIM, 3)
    for c, (a, b, d) in STANDARD_PHI_TERMS:
        phi = phi + c * frame[a - 1].wedge(frame[b - 1]).wedge(frame[d - 1])
    return phi


def _exact_skewed_data():
    """(phi, exact G2Data) with a non-diagonal metric: the standard form
    pulled back along a unimodular rational frame change."""
    rng = np.random.default_rng(5)
    A = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
          if c > r else Fraction(int(r == c)) for c in range(DIM)]
         for r in range(DIM)]  # unit upper triangular, det 1
    phi = _frame_phi(A)
    data = is_g2_type(phi)
    assert data.exact
    assert any(metric_inv(data)[r][c] != 0 for r in range(DIM) for c in range(DIM)
               if r != c)
    return phi, data


def _leibniz_det(M):
    n = len(M)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(perm[x] > perm[y] for x in range(n) for y in range(x + 1, n))
        term = Fraction(-1 if inv % 2 else 1)
        for r, c in enumerate(perm):
            term *= M[r][c]
        total += term
    return total


def _minor(ginv, I, J, ring):
    M = [[ginv[a - 1][b - 1] for b in J] for a in I]
    if ring == RAT:
        return _leibniz_det(M)
    return float(np.linalg.det(np.array(M, dtype=float).reshape(len(I), len(J))))


@pytest.mark.parametrize("ring", [RAT, FLT])
def test_hodge_star_and_inner_product_match_per_pair_minors(ring):
    phi, data = _exact_skewed_data()
    ginv = metric_inv(data)
    rng = np.random.default_rng(6)
    for k in range(DIM + 1):
        subsets = list(combinations(range(1, DIM + 1), k))
        a, b = (KForm(DIM, k, ring, {I: Fraction(int(rng.integers(-5, 6)), 2)
                                     for I in subsets if rng.random() < 0.6})
                for _ in range(2))
        if ring == FLT:
            # float forms have no star; a float 3-form row takes its norm
            # from norm_batch on the float metric
            with pytest.raises(TypeError):
                hodge_star(data, a)
            if k == 3:
                aa_want = sum(ca * cb * _minor(ginv, I, J, ring)
                              for I, ca in a.coeffs.items() for J, cb in a.coeffs.items())
                g, _ = metric_batch(phi_to_vector(phi))
                assert math.isclose(norm_batch(g, phi_to_vector(a))[0] ** 2, aa_want,
                                    rel_tol=1e-12)
            continue
        star = hodge_star(data, a)
        want = {}
        for I in subsets:
            comp = tuple(x for x in range(1, DIM + 1) if x not in I)
            sign = th(*I).wedge(th(*comp)).top_coefficient()
            s = sum(c * _minor(ginv, I, J, ring)
                    for J, c in a.coeffs.items())
            want[comp] = s * data.sqrt_det * sign
        ip_want = sum(ca * cb * _minor(ginv, I, J, ring)
                      for I, ca in a.coeffs.items() for J, cb in b.coeffs.items())
        ip = inner_product(data, a, b)
        assert star.ring == ring and star.degree == DIM - k
        assert star == KForm(DIM, DIM - k, RAT, want)
        assert ip == ip_want and type(ip) is Fraction


def test_float_inner_product_matches_the_exact_one():
    # the exact <a, a> of a rational 3-form is a Fraction even where vol is
    # irrational, an independent reference for the float norms of
    # norm_batch, on the metrics of metric_batch (cond(g) about 3).  On the
    # skewed form cond(g) is about 9e3, and the float metric is itself off
    # by 3e-14, so its norms (9e-15 seen) run on the rounded exact metric.
    rng = np.random.default_rng(9)
    skewed = _exact_skewed_data()
    for phi, data in [skewed] + _rational_definite(rng, 3):
        sigmas = [KForm(DIM, 3, RAT, {I: Fraction(int(rng.integers(-5, 6)), 2)
                                      for I in _TRIPLES if rng.random() < 0.7})
                  for _ in range(6)]
        if phi is skewed[0]:
            g = np.repeat(np.array(data.metric, dtype=float)[None], len(sigmas), axis=0)
        else:
            g, _ = metric_batch(np.repeat(phi_to_vector(phi)[None], len(sigmas), axis=0))
        got = norm_batch(g, [phi_to_vector(a) for a in sigmas])
        for x, a in zip(got, sigmas):
            ip = inner_product(data, a, a)
            assert type(ip) is Fraction
            assert abs(x - float(ip) ** 0.5) <= 1e-13 * float(ip) ** 0.5


@pytest.mark.parametrize("ring", [RAT, FLT])
def test_instability_and_orientation_errors_follow_the_signature_of_b(ring):
    # the 128 sign patterns of the standard terms cover every outcome: B
    # positive definite (definite), negative definite (opposite orientation)
    # or indefinite (not definite).  The float path is metric_batch on the
    # coefficient row, and both failures are a NotStableError there
    def g2(phi):
        return is_g2_type(phi) if ring == RAT else metric_batch(phi_to_vector(phi))

    seen = set()
    for signs in product((1, -1), repeat=7):
        phi = KForm(DIM, 3, RAT, {idx: s * c for s, (c, idx)
                                  in zip(signs, STANDARD_PHI_TERMS)})
        eig = np.linalg.eigvalsh(np.array(_wedge_bilinear(phi), dtype=float))
        want = (None if eig[0] > 0 else OrientationMismatchError
                if eig[-1] < 0 else NotStableError)
        seen.add(want)
        if want is None:
            g2(phi)
        else:
            with pytest.raises(want if ring == RAT else NotStableError):
                g2(phi)
    assert seen == {None, OrientationMismatchError, NotStableError}
    with pytest.raises(NotStableError):
        g2(th(1, 2, 3))


# --------------------------------------------------------------------------
# the fraction-free integer kernel against Fraction references
# --------------------------------------------------------------------------

def _fraction_det(M):
    """Reference determinant: Gaussian elimination on Fractions."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
    return det


def _matmul(X, Y):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def _random_rational_matrix(rng, n):
    return [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
             for _ in range(n)] for _ in range(n)]


def _det_cases(n):
    """Random rational matrices, plus (n >= 2) a zero leading pivot that
    forces a row swap, a singular matrix and a row-swapped copy whose
    determinant has the opposite sign."""
    rng = np.random.default_rng(20 + n)
    cases = [_random_rational_matrix(rng, n) for _ in range(2 if n == 7 else 4)]
    if n >= 2:
        Z = _random_rational_matrix(rng, n)
        Z[0][0] = Fraction(0)
        S = _random_rational_matrix(rng, n)
        S[-1] = [3 * x - y for x, y in zip(S[0], S[1])] if n > 2 else [2 * x for x in S[0]]
        P = [row[:] for row in cases[0]]
        P[0], P[1] = P[1], P[0]
        cases += [Z, S, P]
    return cases


def det_exact(M):
    """Exact determinant of a square matrix of rationals (floats read by
    their binary values), as a Fraction: the production Bareiss elimination
    on its integer numerators over one denominator."""
    n = len(M)
    flat, D = rings._over_common_denominator(Fraction(x) for row in M for x in row)
    return Fraction(g2core._bareiss([flat[n * r:n * (r + 1)] for r in range(n)])[0], D ** n)


@pytest.mark.parametrize("n", range(1, DIM + 1))
def test_det_exact_matches_leibniz(n):
    dets = []
    for M in _det_cases(n):
        d = det_exact(M)
        assert type(d) is Fraction
        assert d == _leibniz_det(M) == _fraction_det(M)
        dets.append(d)
    if n >= 2:
        assert dets[-2] == 0 and dets[-1] == -dets[0] != 0
    # ints and floats are read exactly
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[0.5, 0.25], [0, 3]]) == Fraction(3, 2)
    assert det_exact([]) == 1


def test_elimination_reports_the_leading_minors():
    # Sylvester's test in is_g2_type reads these: every leading principal
    # minor, up to and including the first zero one (which forces a swap)
    rng = np.random.default_rng(30)
    swaps = 0
    for n in range(1, DIM + 1):
        for zero_at in [None] + list(range(n)):
            A = [[int(rng.integers(-9, 10)) for _ in range(n)] for _ in range(n)]
            if zero_at is not None:
                # make the leading (zero_at+1)-minor vanish
                A[zero_at][:zero_at + 1] = [0] * (zero_at + 1) if zero_at == 0 else \
                    [sum(A[r][c] for r in range(zero_at)) for c in range(zero_at + 1)]
            want = [_fraction_det([row[:k] for row in A[:k]]) for k in range(1, n + 1)]
            if 0 in want[:-1]:
                want = want[:want.index(0) + 1]
                swaps += 1
            det, leading = g2core._bareiss([row[:] for row in A])
            assert det == _fraction_det(A)
            assert leading == want
    assert swaps >= 20


def _structured_cases(n, rng):
    """Integer matrices whose pivot columns hold zeros below the pivot, so
    that rows sit out steps of the elimination and are read later:
    diagonal (each pivot row is stale), a row permutation of a diagonal and
    the same with one coupling entry (a stale row is swapped in), sparse (a
    third of the entries nonzero), block diagonal (rows of the second block
    are eliminated against a stale pivot row), lower triangular and a row
    permutation of it (a stale row is eliminated at a later step), and
    singular ones (a zero row; a repeated row; a row of the second block
    twice one of the first)."""
    def entry():
        return int(rng.integers(1, 20)) * int(rng.choice([-1, 1]))

    diag = [[int(rng.integers(1, 50)) * (1 if rng.random() < 0.7 else -1) if r == c else 0
             for c in range(n)] for r in range(n)]
    perm = [diag[i] for i in rng.permutation(n)]
    coupled = [row[:] for row in perm]
    coupled[-1][0] = coupled[-1][0] or entry()
    sparse = [[int(rng.integers(-9, 10)) if rng.random() < 0.35 else 0 for _ in range(n)]
              for _ in range(n)]
    cut = int(rng.integers(1, n)) if n > 1 else 1
    block = [[entry() if (r < cut) == (c < cut) else 0 for c in range(n)] for r in range(n)]
    lower = [[entry() if c == r or (c < r and rng.random() < 0.5) else 0 for c in range(n)]
             for r in range(n)]
    cases = [diag, perm, coupled, sparse, block, lower, [lower[i] for i in rng.permutation(n)]]
    if n >= 2:
        zero_row = [row[:] for row in sparse]
        zero_row[int(rng.integers(n))] = [0] * n
        repeated = [row[:] for row in diag]
        repeated[-1] = [x + y for x, y in zip(repeated[0], repeated[-1])]
        repeated[0] = repeated[-1][:]
        multiple = [row[:] for row in block]
        multiple[-1] = [2 * x for x in block[cut - 1]]
        cases += [zero_row, repeated, multiple]
    return cases


@pytest.mark.parametrize("n", range(1, DIM + 1))
def test_bareiss_on_structured_matrices_matches_leibniz(n):
    # a row whose pivot-column entry is zero is only rescaled, and that
    # rescaling waits until the row is read; the leading minors, up to the
    # first zero one, and det must match Leibniz
    rng = np.random.default_rng(90 + n)
    for _ in range(3 if n < DIM else 2):
        for A in _structured_cases(n, rng):
            minors = [_leibniz_det([row[:k] for row in A[:k]]) for k in range(1, n + 1)]
            want = minors[:minors.index(0) + 1] if 0 in minors[:-1] else minors
            det, leading = g2core._bareiss([row[:] for row in A])
            assert det == minors[-1]
            assert leading == want


def test_bareiss_matches_the_fraction_reference_on_random_sparse_matrices():
    rng = np.random.default_rng(55)
    swaps = 0
    for _ in range(600):
        n = int(rng.integers(1, DIM + 2))
        density = rng.choice([0.15, 0.3, 0.5, 0.8])
        A = [[int(rng.integers(-9, 10)) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        for r in range(n):      # mostly nonsingular: a nonzero diagonal
            A[r][r] = A[r][r] or int(rng.integers(1, 9))
        if rng.random() < 0.3:
            A = [A[i] for i in rng.permutation(n)]
        minors = [_fraction_det([row[:k] for row in A[:k]]) for k in range(1, n + 1)]
        want = minors[:minors.index(0) + 1] if 0 in minors[:-1] else minors
        det, leading = g2core._bareiss([row[:] for row in A])
        assert det == minors[-1] and leading == want
        swaps += 0 in minors[:-1]
    assert swaps >= 50


def _reference_exact_g2(phi):
    """The Fraction-elimination exact branch of is_g2_type: (metric,
    metric_inv, sqrt_det) from the wedge-built B."""
    B = _wedge_bilinear(phi)
    root = nth_root_fraction(36 * _fraction_det(B), 9)
    g = [[x / root for x in row] for row in B]
    assert all(_fraction_det([row[:k] for row in g[:k]]) > 0 for k in range(1, DIM + 1))
    return g, fraction_inverse(g), nth_root_fraction(_fraction_det(g), 2)


def _random_frames(rng, count):
    """Dense rational frames with det A > 0 and small entries."""
    frames = []
    while len(frames) < count:
        A = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
              for _ in range(DIM)] for _ in range(DIM)]
        if _fraction_det(A) > 0:
            frames.append(A)
    return frames


def test_is_g2_type_exact_matches_the_fraction_reference():
    rng = np.random.default_rng(50)
    scaled = KForm(DIM, 3, RAT, {idx: c * l for (c, idx), l in zip(
        STANDARD_PHI_TERMS, (8, Fraction(1, 27), 1, 64, Fraction(8, 125), 1, 27))})
    phis = [standard_phi(), scaled, _su2_family_phi(Fraction(8))]
    frames = _random_frames(rng, 3)
    phis += [_frame_phi(A) for A in frames]
    for i, phi in enumerate(phis):
        data = is_g2_type(phi)
        g, ginv, sq = _reference_exact_g2(phi)
        assert data.exact
        assert data.metric == g and metric_inv(data) == ginv and data.sqrt_det == sq
        assert all(type(x) is Fraction for M in (data.metric, metric_inv(data))
                   for row in M for x in row)
        assert type(data.sqrt_det) is Fraction
        if i >= 3:  # g = A^T A and vol = det A on a pulled-back frame
            A = frames[i - 3]
            assert data.metric == _matmul([list(c) for c in zip(*A)], A)
            assert data.sqrt_det == _fraction_det(A)


def _dense_definite_forms(rng):
    """Rational 3-forms with every coefficient nonzero, paired with the sign
    s for which s phi is definite for the frame's orientation: the standard
    form pulled back along dense frames of either orientation, scaled by
    rationals whose numerators and denominators share primes with the
    frames' (so 36 det N and d^7 have common factors), and +-phi_0 plus a
    dense rational perturbation."""
    out = []
    scales = (Fraction(1), Fraction(2, 3), Fraction(4, 9), Fraction(6, 5), Fraction(1, 12), 8)
    frames = _random_frames(rng, 6)
    frames += [[A[1], A[0]] + A[2:] for A in _random_frames(rng, 6)]   # det A < 0
    for i, A in enumerate(frames):
        phi = scales[i % len(scales)] * _frame_phi(A)
        if len(phi.coeffs) == 35:
            out.append((phi, 1 if _fraction_det(A) > 0 else -1))
    for sign in (1, -1):
        for _ in range(4):
            base = sign * standard_phi()
            noise = KForm(DIM, 3, RAT, {idx: Fraction(int(rng.integers(-3, 4)) or 1,
                                                      int(rng.integers(30, 60)))
                                        for idx in combinations(range(1, DIM + 1), 3)})
            phi = base + noise
            if len(phi.coeffs) == 35:
                out.append((phi, sign))
    return out


def test_vol_cubed_matches_the_ninth_root_reference_on_dense_forms():
    # r^3 = (36 det N)^(1/3) / D^7 with no Fraction radicand, against the
    # cube root of the reduced Fraction 36 det B from the wedge-built B
    rng = np.random.default_rng(60)
    seen, unreduced = set(), 0
    for phi, sign in _dense_definite_forms(rng):
        if sign < 0:
            with pytest.raises(OrientationMismatchError):
                is_g2_type(phi)
            phi = -phi
        data = is_g2_type(phi)
        detB = _fraction_det(_wedge_bilinear(phi))
        want = nth_root_fraction(36 * detB, 3) / 216
        assert type(data.vol_cubed) is Fraction and data.vol_cubed == want
        N, d = g2core._bilinear_numerators(phi)
        unreduced += math.gcd(36 * g2core._bareiss([row[:] for row in N])[0], d ** DIM) > 1
        assert data.exact == (nth_root_fraction(want, 3) is not None)
        seen.add((sign, data.exact))
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}
    assert unreduced >= 10


def test_rational_g2data_takes_its_root_on_first_read(monkeypatch):
    # building the data keeps r^3; the first read of sqrt_det, exact or the
    # metric takes the one cube root, and later reads reuse it
    calls = []

    def counting_root(q, k):
        calls.append((q, k))
        return nth_root_fraction(q, k)

    monkeypatch.setattr(g2core, "nth_root_fraction", counting_root)
    cube = scaling._rational_form(scaling._validated([8, 1, Fraction(1, 27), 64, 1, 1, 27])[1])
    noncube = scaling._rational_form(scaling._validated([2, 1, Fraction(1, 3), 5, 1, 1, 7])[1])
    for phi, exact in ((cube, True), (noncube, False), (standard_phi(), True)):
        for attr in ("sqrt_det", "exact", "metric"):
            data = is_g2_type(phi)
            assert type(data.vol_cubed) is Fraction
            assert calls == []
            if exact or attr == "exact":
                getattr(data, attr)
            else:
                with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
                    getattr(data, attr)
            assert calls == [(216 * data.vol_cubed, 3)]
            assert data.exact is exact
            if exact:
                data.sqrt_det, data.metric, metric_inv(data)
            assert len(calls) == 1
            calls.clear()


def test_int_nth_root_is_exact_beyond_double_precision():
    # a root above 2^53 that a float seed misses, an input past the double
    # range, and their non-power neighbours
    m = 3 * 10 ** 17 + 1
    for n, k, root in ((m ** 9, 9, m), (10 ** 400, 2, 10 ** 200),
                       (-(m ** 9), 9, -m), (2 ** 3000, 3, 2 ** 1000)):
        assert rings._int_nth_root(n, k) == root
        assert rings._int_nth_root(n + 1, k) is None
        assert rings._int_nth_root(n - 1, k) is None
    # either side of the 2^40 root size where the float estimate stops
    # being conclusive
    rng = np.random.default_rng(7)
    for bits in range(36, 46):
        for root in (2 ** bits - 1, 2 ** bits, int(rng.integers(2 ** (bits - 1), 2 ** bits))):
            for k in (2, 3, 9):
                assert rings._int_nth_root(root ** k, k) == root
                assert rings._int_nth_root(root ** k + 1, k) is None
                assert rings._int_nth_root(root ** k - 1, k) is None
    assert nth_root_fraction(Fraction(m ** 9, 10 ** 400 * 7 ** 9), 9) is None
    assert nth_root_fraction(Fraction(m ** 9, 10 ** 900), 9) == Fraction(m, 10 ** 100)


def test_a_frame_with_negative_determinant_is_the_opposite_orientation():
    # theta'^1 = -theta^1 reverses the orientation; so does a row swap of a
    # random frame with det A > 0
    flip = [[Fraction(-1 if i == j == 0 else int(i == j)) for j in range(DIM)]
            for i in range(DIM)]
    frames = [flip] + [[A[1], A[0]] + A[2:]
                       for A in _random_frames(np.random.default_rng(70), 2)]
    for A in frames:
        assert _fraction_det(A) < 0
        with pytest.raises(OrientationMismatchError):
            is_g2_type(_frame_phi(A))


def test_is_g2_type_stays_exact_on_a_frame_with_large_entries():
    # A = m I: g = m^2 I and vol = m^7, with 36 det B = (6 m^7)^9 far past
    # the double range
    m = 3 * 10 ** 17 + 1
    A = [[Fraction(m if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    data = is_g2_type(_frame_phi(A))
    assert data.exact
    assert data.metric == [[m * m if i == j else 0 for j in range(DIM)]
                           for i in range(DIM)]
    assert data.sqrt_det == m ** 7


@pytest.mark.parametrize("e", [200, -200])
def test_an_irrational_volume_past_the_float_range_of_r_cubed(e):
    # 2^e phi_0 has g = 2^(2e/3) I and vol = 2^(7e/3), both irrational, and
    # r^3 = 216 * 2^(7e) outside the float range: reading the data once
    # raised OverflowError at e = 200, and gave sqrt_det 0.0 and then a
    # ZeroDivisionError at e = -200.  Now vol^3 is exact, and the metric,
    # the volume and the star of a 3-form are refused with one error
    phi = Fraction(2) ** e * standard_phi()
    data = is_g2_type(phi)
    assert data.exact is False
    assert data.vol_cubed == Fraction(2) ** (7 * e)
    for read in (lambda: data.sqrt_det, lambda: data.metric, lambda: hodge_star(data, phi)):
        with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
            read()


def test_indefinite_b_with_a_rational_ninth_root_is_not_stable():
    # B = diag(+-6) with an even number of minus signs: det B = 6^7 > 0 and
    # 36 det B = 6^9, but B is indefinite, so only Sylvester's test rejects it
    seen = 0
    for signs in product((1, -1), repeat=7):
        phi = KForm(DIM, 3, RAT, {idx: s * c for s, (c, idx)
                                  in zip(signs, STANDARD_PHI_TERMS)})
        B = _wedge_bilinear(phi)
        detB = _fraction_det(B)
        eig = np.linalg.eigvalsh(np.array(B, dtype=float))
        if detB > 0 and eig[0] < 0 < eig[-1]:
            assert nth_root_fraction(36 * detB, 9) is not None
            with pytest.raises(NotStableError,
                               match="normalised metric not positive definite"):
                is_g2_type(phi)
            seen += 1
    assert seen > 0


def _per_pair_minors(ginv):
    """det(g^-1[I, J]) by one elimination per (I, J) pair, memoised so that
    the star and the inner product of one metric share them: Bareiss on
    the integer numerators G of g^-1 = G / D, tested against Leibniz above."""
    n = len(ginv)
    flat, D = rings._over_common_denominator(x for row in ginv for x in row)
    G = [flat[n * r:n * (r + 1)] for r in range(n)]
    memo = {}

    def minor(I, J):
        if (I, J) not in memo:
            det = g2core._bareiss([[G[x - 1][y - 1] for y in J] for x in I])[0]
            memo[I, J] = Fraction(det, D ** len(I))
        return memo[I, J]
    return minor


def _per_pair_hodge_star(data, a, minor):
    """Reference exact Hodge star: (*a)_{I'} = sign(I, I') sqrt(det g)
    sum_J a_J det(g^-1[I, J]), with the minors above."""
    out = {}
    for I in combinations(range(1, DIM + 1), a.degree):
        comp = tuple(x for x in range(1, DIM + 1) if x not in I)
        sign = th(*I).wedge(th(*comp)).top_coefficient()
        s = sum((c * m for J, c in a.coeffs.items() if (m := minor(I, J))), Fraction(0))
        out[comp] = s * data.sqrt_det * sign
    return KForm(DIM, DIM - a.degree, RAT, out)


def _exact_star_cases():
    """Twenty exact 3-forms: ten dense rational frames, and ten diagonal
    metrics -- points of the phi(alpha, beta, lambda; mu) grid, multiples
    of the standard form by cubes, and diagonal frames."""
    rng = np.random.default_rng(60)
    m = nakamura_model()
    diags = [[[Fraction(x) if r == c else Fraction(0) for c in range(DIM)]
              for r, x in enumerate(entries)]
             for entries in ((2, Fraction(1, 3), 1, 5, Fraction(3, 2), 1, 4),
                             (1, 1, 7, 1, Fraction(2, 9), 1, 1),
                             (Fraction(5, 4), 3, 2, Fraction(1, 2), 6, Fraction(7, 3), 1),
                             (-1, -2, 1, 1, 1, 1, Fraction(1, 5)))]
    return ([_frame_phi(A) for A in _random_frames(rng, 10)]
            + [phi_abl_mu(a, b, lam, mu, m) for a, b, lam, mu in
               ((1, 2, (1, 0), 2), (2, Fraction(1, 3), (8, 0), Fraction(3, 2)),
                (Fraction(1, 2), 2, (0, 1), 3), (3, 1, (0, 8), 2))]
            + [Fraction(27, 8) * standard_phi(), Fraction(1, 64) * standard_phi()]
            + [_frame_phi(A) for A in diags])


def test_exact_star_and_inner_product_match_per_pair_eliminations():
    # every degree, with sparse and with dense forms: values, numerators and
    # the key order of the star, which follows the complements I'
    rng = np.random.default_rng(61)
    nonzero = [x for x in range(-5, 6) if x]
    for phi in _exact_star_cases():
        data = is_g2_type(phi)
        assert data.exact and data.sqrt_det != 1
        minor = _per_pair_minors(metric_inv(data))
        for k, density in product(range(DIM + 1), (0.4, 1.0)):
            subsets = list(combinations(range(1, DIM + 1), k))
            a, b = (KForm(DIM, k, RAT, {I: Fraction(int(rng.choice(nonzero)),
                                                    int(rng.integers(1, 4)))
                                        for I in subsets if rng.random() < density})
                    for _ in range(2))
            star, want = hodge_star(data, a), _per_pair_hodge_star(data, a, minor)
            assert star == want and list(star.coeffs) == list(want.coeffs)
            ip = inner_product(data, a, b)
            assert type(ip) is Fraction
            assert ip == sum((ca * cb * m for I, ca in a.coeffs.items()
                              for J, cb in b.coeffs.items() if (m := minor(I, J))),
                             Fraction(0))


# --------------------------------------------------------------------------
# SU(2) fiber assembly: closed forms for metric, volume, *phi'
# --------------------------------------------------------------------------

def _su2_family_phi(nu):
    return su2_assemble(th(1), th(2), th(3), _fiber(nu))


def _fiber(nu):
    om = nu * (th(4, 5) + th(6, 7))
    re = th(4, 6) - th(5, 7)
    im = th(4, 7) + th(5, 6)
    return SU2FiberData(om, re, im)


def test_g2data_exactness_is_read_off_its_integers():
    # the one constructor takes the integers of B = N / d and r^3, and has
    # no way to mark data exact: exactness is whether r^3 is a cube
    data = is_g2_type(_frame_phi(_random_frames(np.random.default_rng(3), 1)[0]))
    assert data.exact
    assert list(inspect.signature(G2Data).parameters) == ["N", "d", "r3"]
    N, d = data._ints
    assert G2Data(N, d, data.vol_cubed * 216).exact is True
    copy = G2Data(N, d, data.vol_cubed * 432)
    assert copy.exact is False


def test_su2_normalisation_constant():
    # nu^2 is kept exact, whether or not it is a rational square
    assert _fiber(Fraction(8)).nu_sq == 64
    assert _fiber(Fraction(9, 4)).nu_sq == Fraction(81, 16)
    om = th(4, 5) + th(6, 7)
    fiber = SU2FiberData(om, th(4, 6) - th(5, 7), 2 * (th(4, 7) + th(5, 6)))
    assert type(fiber.nu_sq) is Fraction and fiber.nu_sq == Fraction(2, 5)


def test_su2_closed_forms_exact_at_nu_8():
    nu = Fraction(8)
    fiber = _fiber(nu)
    phi = su2_assemble(th(1), th(2), th(3), fiber)
    data = is_g2_type(phi)
    # metric: nu^{4/3} on g^1, nu^{-2/3} on g^2, g^3, nu^{1/3} on the fiber
    assert data.metric == [[x if i == j else 0 for j in range(DIM)] for i, x
                           in enumerate((16, Fraction(1, 4), Fraction(1, 4), 2, 2, 2, 2))]
    # volume: nu^{2/3}
    assert data.sqrt_det == Fraction(4)
    # *phi': nu^{2/3}/4 Om^conj(Om) + nu^{-4/3} g^{23}^om
    #        + nu^{2/3} g^{13}^Re(Om) + nu^{2/3} g^{12}^Im(Om)
    want = (Fraction(4) * th(4, 5, 6, 7)
            + Fraction(1, 16) * th(2, 3).wedge(fiber.omega)
            + Fraction(4) * th(1, 3).wedge(fiber.omega_re)
            + Fraction(4) * th(1, 2).wedge(fiber.omega_im))
    assert hodge_star(data, phi) == want


@pytest.mark.parametrize("seed", [0, 1])
def test_su2_closed_forms_random_nu(seed):
    # exact at rational nu, where vol = nu^(2/3) is mostly irrational:
    # vol^3 = nu^2, g vol = B / 6 = diag(nu^2, 1, 1, nu, nu, nu, nu), and
    # with nu^(2/3) = r / 6 and nu^(-4/3) = r / (6 nu^2), *phi' = r Y
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(10):
        nu = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 10)))
        fiber = _fiber(nu)
        phi = su2_assemble(th(1), th(2), th(3), fiber)
        data = is_g2_type(phi)
        seen.add(data.exact)
        assert data.vol_cubed == nu ** 2
        assert bilinear_from_3form(phi) == [[6 * x if i == j else 0 for j in range(DIM)]
                                            for i, x in enumerate((nu ** 2, 1, 1, nu, nu, nu, nu))]
        want = Fraction(1, 6) * (th(4, 5, 6, 7) + (1 / nu ** 2) * th(2, 3).wedge(fiber.omega)
                                 + th(1, 3).wedge(fiber.omega_re)
                                 + th(1, 2).wedge(fiber.omega_im))
        assert g2core.star_parts(data, phi) == (want, 1)
        expect = np.diag([float(nu) ** (4 / 3)] + [float(nu) ** (-2 / 3)] * 2
                         + [float(nu) ** (1 / 3)] * 4)
        if data.exact:
            assert np.allclose(np.array(data.metric, dtype=float), expect, rtol=1e-14, atol=0)
        else:
            with pytest.raises(ArithmeticError, match=_IRRATIONAL_R):
                data.metric
        assert np.allclose(metric_batch(phi_to_vector(phi))[0][0], expect,
                           rtol=1e-14, atol=0)
    assert False in seen


def test_su2_degenerate_fiber_rejected():
    om = th(4, 5)  # omega^2 misses the theta^{67} factor entirely
    re = th(4, 6) - th(5, 7)
    im = th(4, 7) + th(5, 6)
    with pytest.raises(DegenerateFiberError):
        SU2FiberData(om, re, im)
    # omega^2 with terms off the fiber is not proportional to Omega^conj(Omega)
    # either, though it matches on the fiber's own term
    with pytest.raises(DegenerateFiberError, match="not proportional"):
        SU2FiberData(th(4, 5) + th(6, 7) + th(1, 2), re, im)
