"""Frame-scaling solve and the exact volume-scaling law."""
import importlib.util
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2calc import g2core, scaling
from g2calc.forms import KForm
from g2calc.g2core import STANDARD_PHI_TERMS, is_g2_type
from g2calc.rings import RAT, nth_root_fraction
import oracles
from g2calc.scaling import (InvalidScaleError, NonPositiveScaleError, _rational_form,
                            _solve, _validated, hitchin_scaling_law, scaled_volume_factor)

TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
           (3, 4, 7), (3, 5, 6))


def test_unit_scaling_is_identity():
    out = hitchin_scaling_law([1] * 7)
    assert out["mus"] == (Fraction(1),) * 7
    assert out["exact"]


def test_solved_mus_reproduce_lambdas():
    lams = [Fraction(2), Fraction(3), Fraction(1, 2), 1, 1, Fraction(5), 4]
    out = hitchin_scaling_law(lams)
    mus = out["mus"]
    for t, (a, b, c) in enumerate(TRIPLES):
        prod = mus[a - 1] * mus[b - 1] * mus[c - 1]
        if out["exact"]:
            assert prod == Fraction(lams[t])
        else:
            assert float(prod) == pytest.approx(float(lams[t]), rel=1e-12)


_LAMBDA = st.one_of(st.integers(1, 60),
                    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_LAMBDA, min_size=7, max_size=7), st.booleans())
def test_solve_scaling_matches_the_fraction_power_reference(lams, sixth):
    # mu_i = (prod_t lambda_t^(6 Minv[i][t]))^(1/6) in Fraction powers; with
    # lambda_t sixth powers every radicand is one and the solve is exact
    if sixth:
        lams = [l ** 6 for l in lams]
    radicands = []
    for row in oracles.INCIDENCE_INV:
        r = Fraction(1)
        for l, x in zip(lams, row):
            r *= Fraction(l) ** int(6 * x)
        radicands.append(r)
    roots = [nth_root_fraction(r, 6) for r in radicands]
    out = hitchin_scaling_law(lams)
    assert out["exact"] == all(r is not None for r in roots)
    if sixth:
        assert out["exact"]
    if out["exact"]:
        assert out["mus"] == tuple(roots)
        assert all(type(m) is Fraction for m in out["mus"])
        assert out["lambdas"] == tuple(Fraction(l) for l in lams)
    else:
        assert out["mus"] == tuple(float(r) ** (1.0 / 6.0) if q is None else float(q)
                                   for r, q in zip(radicands, roots))
        assert all(type(m) is float for m in out["mus"])


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_closed_form_mus_equal_the_exponent_walk_bit_for_bit(seed, monkeypatch):
    # the benchmark's scaling tuples: cubes of ratios of 1..8 and of 1..64,
    # sixth powers, and tuples whose product is not a cube; each also as
    # floats, whose binary values are the same rationals
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tuples = workloads.exact_inputs(seed)["tuples"]
    assert sorted({kind for kind, _ in tuples}) == ["cube", "noncube"]
    n_exact = 0
    for _, lams in tuples:
        for given_lams in (lams, [float(l) for l in lams]):
            got, want = hitchin_scaling_law(given_lams), oracles.solve_scaling(given_lams)
            assert repr((got["lambdas"], got["mus"], got["exact"])) == repr(
                (want.lambdas, want.mus, want.exact))
            assert [type(m) for m in got["mus"]] == [type(m) for m in want.mus]
            n_exact += got["exact"]
    # at least the rational sixth powers (a quarter of the tuples) solve
    # exactly, so both paths of the root are compared
    assert len(tuples) // 4 <= n_exact < 2 * len(tuples)


def test_nonpositive_scale_rejected():
    with pytest.raises(NonPositiveScaleError):
        hitchin_scaling_law([1, 1, 1, -2, 1, 1, 1])
    with pytest.raises(NonPositiveScaleError):
        scaled_volume_factor([0, 1, 1, 1, 1, 1, 1])


@st.composite
def cube_lambdas(draw):
    """Seven positive rationals whose product is a perfect cube."""
    lams = [Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 8))) ** 3
            for _ in range(6)]
    lams.append(Fraction(draw(st.integers(1, 4))) ** 3)
    return lams


@settings(max_examples=50, deadline=None)
@given(cube_lambdas())
def test_volume_law_exact_for_cube_products(lams):
    # vol_(lambda) = (prod lambda)^{1/3} vol_0, in exact arithmetic;
    # scaled_volume_factor internally cross-checks the law against the
    # metric volume of the scaled form and raises on any mismatch
    vol = scaled_volume_factor(lams)
    prod = Fraction(1)
    for l in lams:
        prod *= l
    assert isinstance(vol, Fraction)
    assert vol ** 3 == prod


def test_volume_law_numeric_for_general_lambdas():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lams = [float(rng.uniform(0.3, 4.0)) for _ in range(7)]
        vol = float(scaled_volume_factor(lams))
        prod = float(np.prod(lams))
        assert vol == pytest.approx(prod ** (1 / 3), rel=1e-10)


def _scaled_form(lams) -> KForm:
    """phi_(lambda) = sum_i lambda_i phi_i, by the integer build."""
    return _rational_form(_validated(lams)[1])


def test_scaled_form_definite_and_closed_class():
    lams = [Fraction(8), 1, 1, Fraction(27), 1, 1, Fraction(1, 8)]
    phi = _scaled_form(lams)
    data = is_g2_type(phi)
    assert data.sqrt_det == scaled_volume_factor(lams)


@pytest.mark.parametrize("size,expo", [(2, Fraction(2, 3)), (4, Fraction(4, 3))])
def test_partial_scaling_exponents(size, expo):
    # phi + la * (sum of `size` standard terms) has volume (1+la)^{size/3};
    # exact whenever 1 + la is a rational cube
    rho = Fraction(5, 3)
    lams = [rho ** 3 if i < size else Fraction(1) for i in range(7)]
    assert scaled_volume_factor(lams) == rho ** size
    rng = np.random.default_rng(1)
    for _ in range(10):
        la = float(rng.uniform(0.1, 9.0))
        vals = [1 + la if i < size else 1.0 for i in range(7)]
        got = float(scaled_volume_factor(vals))
        assert got == pytest.approx((1 + la) ** float(expo), rel=1e-12)


def test_hitchin_scaling_law_bundle():
    out = hitchin_scaling_law([Fraction(8)] * 7)
    # the law gives (prod lambda)^{1/3} = 8^{7/3}; check via the cube
    assert out["volume_factor"] ** 3 == Fraction(8) ** 7
    assert out["exact"]


# --------------------------------------------------------------------------
# the integer path against Fraction references
# --------------------------------------------------------------------------

def _fraction_law(lams):
    """Reference for hitchin_scaling_law in Fraction arithmetic: (volume
    factor, mus, exact), with mu_i^6 = prod_t lambda_t^(6 Minv[i][t]) and
    the volume factor (prod lambda)^(1/3), each a Fraction root or a float."""
    lams = [Fraction(l) for l in lams]
    prod = Fraction(1)
    for l in lams:
        prod *= l
    vol = nth_root_fraction(prod, 3)
    if vol is None:
        vol = float(prod) ** (1.0 / 3.0)
    radicands = []
    for row in oracles.INCIDENCE_INV:
        r = Fraction(1)
        for l, x in zip(lams, row):
            r *= l ** int(6 * x)
        radicands.append(r)
    roots = [nth_root_fraction(r, 6) for r in radicands]
    if all(q is not None for q in roots):
        return vol, tuple(roots), True
    return vol, tuple(float(r) ** (1.0 / 6.0) if q is None else float(q)
                      for r, q in zip(radicands, roots)), False


_RATIO = st.builds(Fraction, st.integers(1, 64), st.integers(1, 64))


@st.composite
def _lambda_tuples(draw):
    """Seven lambdas of one kind: rational cubes, sixth powers, any
    rationals (mostly a non-cube product), Python ints, or ints mixed with
    Fractions (some of them whole)."""
    kind = draw(st.sampled_from(("cube", "sixth", "noncube", "integer", "mixed")))
    if kind == "cube":
        return [draw(_RATIO) ** 3 for _ in range(7)]
    if kind == "sixth":
        return [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) ** 6
                for _ in range(7)]
    if kind == "noncube":
        return [draw(_RATIO) for _ in range(7)]
    if kind == "integer":
        return [draw(st.integers(1, 10 ** 6)) for _ in range(7)]
    return [draw(st.one_of(st.integers(1, 300), _RATIO, st.integers(1, 9).map(Fraction)))
            for _ in range(7)]


@settings(max_examples=200, deadline=None)
@given(_lambda_tuples())
def test_scaled_form_matches_the_fraction_build(lams):
    got = _scaled_form(lams)
    want = KForm(7, 3, RAT, {idx: Fraction(l) * c for l, (c, idx) in zip(lams, STANDARD_PHI_TERMS)})
    assert got == want
    assert got._ints() == want._ints()
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert all(type(c) is Fraction for c in got.coeffs.values())


@settings(max_examples=200, deadline=None)
@given(_lambda_tuples())
# mu_3^6 = 6^6, mu_4^6 = (2/9)^6 and mu_7^6 = 3^-6 are sixth powers only
# in lowest terms; other mus are irrational, so these three are the floats
# of exact roots (6.0, not the float sixth root 5.999999999999999)
@example([Fraction(27, 8), Fraction(512, 729), Fraction(8, 27), Fraction(27, 64),
          Fraction(9, 4), Fraction(4, 9), Fraction(64)])
def test_volume_law_matches_the_fraction_reference(lams):
    vol, mus, exact = _fraction_law(lams)
    got = scaled_volume_factor(lams)
    assert type(got) is type(vol) and got == vol
    out = hitchin_scaling_law(lams)
    assert type(out["volume_factor"]) is type(vol) and out["volume_factor"] == vol
    assert out["exact"] is exact
    assert out["mus"] == mus
    assert [type(m) for m in out["mus"]] == [type(m) for m in mus]
    assert out["lambdas"] == (tuple(Fraction(l) for l in lams) if exact else tuple(lams))
    if exact:
        # the frame scales carry the volume: prod mu = vol
        assert math.prod(out["mus"]) == out["volume_factor"]


def test_the_volume_law_takes_no_nth_root_fraction(monkeypatch):
    # G2Data keeps r^3 and the law reads vol^3 only: no Fraction root at all
    calls = []

    def counting_root(q, k):
        calls.append((q, k))
        return nth_root_fraction(q, k)

    monkeypatch.setattr(g2core, "nth_root_fraction", counting_root)
    for lams in ([Fraction(8)] * 7, [Fraction(2, 3)] * 7, [64, 1, 1, Fraction(1, 729), 8, 27, 1]):
        hitchin_scaling_law(lams)
    assert calls == []


def _refuse_linear_algebra(monkeypatch):
    def no_linear_algebra(phi):
        raise AssertionError("is_g2_type reached")
    monkeypatch.setattr(scaling, "is_g2_type", no_linear_algebra)


@pytest.mark.parametrize("lams", [[True] * 7, [1, 1, 1, False, 1, 1, 1],
                                  [Fraction(1, 2)] * 6 + [True]],
                         ids=["all_true", "one_false", "true_among_fractions"])
def test_bools_are_refused_by_name(lams, monkeypatch):
    # bool is an int subclass, and [True] * 7 once gave an exact volume of 1
    _refuse_linear_algebra(monkeypatch)
    bad = next(l for l in lams if isinstance(l, bool))
    for fn in (scaled_volume_factor, hitchin_scaling_law):
        with pytest.raises(InvalidScaleError, match=re.escape(repr(bad))):
            fn(lams)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                         ids=["nan", "inf", "minus_inf", "numpy_nan"])
def test_non_finite_floats_are_refused_by_name(bad, monkeypatch):
    # a NaN passes `l <= 0`; it used to die in numpy's eigenvalue solver
    _refuse_linear_algebra(monkeypatch)
    lams = [1.5, 2.0, 1, Fraction(1, 3), bad, 1.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (scaled_volume_factor, hitchin_scaling_law):
            with pytest.raises(InvalidScaleError, match=re.escape(repr(bad))) as err:
                fn(lams)
            assert isinstance(err.value, ValueError)
            assert not isinstance(err.value, NonPositiveScaleError)


def test_the_law_validates_lambda_once(monkeypatch):
    # scaled_volume_factor validates; the law shares its body and the
    # frame-scale solve, and validates its tuple once
    calls = []
    validated = scaling._validated
    monkeypatch.setattr(scaling, "_validated", lambda l: calls.append(l) or validated(l))
    lams = [Fraction(3, 2), 2, 0.5, 1, 8, Fraction(1, 3), 4.0]
    out = hitchin_scaling_law(lams)
    assert len(calls) == 1
    assert out["volume_factor"] == scaled_volume_factor(lams)
    assert len(calls) == 2


@pytest.mark.parametrize("make", [np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
def test_numpy_integers_are_exact_integers(make):
    # a numpy integer used to take the float path: 8^7 gave a volume factor
    # of 127.99999999999997, where the exact law gives 2^7
    out = hitchin_scaling_law([make(8)] * 7)
    assert out == hitchin_scaling_law([8] * 7)
    assert type(out["volume_factor"]) is Fraction and out["volume_factor"] == 128
    assert out["exact"] and all(type(l) is Fraction for l in out["lambdas"])
    # numpy's fixed-width powers would wrap; the law runs on Python ints
    big = hitchin_scaling_law([np.int64(2 ** 60)] + [1] * 6)
    assert big["volume_factor"] == 2 ** 20 and big["exact"]


@pytest.mark.parametrize("bad", [1 + 0j, "2"], ids=["complex", "string"])
def test_non_reals_are_refused_by_name(bad, monkeypatch):
    # a complex or a string used to reach math.isfinite, which raised a
    # bare TypeError
    _refuse_linear_algebra(monkeypatch)
    for fn in (scaled_volume_factor, hitchin_scaling_law):
        with pytest.raises(InvalidScaleError, match=re.escape(repr(bad))):
            fn([bad] + [1] * 6)


def test_float_lambdas_give_the_exact_law():
    # a float is read by its binary value, so 8.0 is 8: the float path used
    # to give a volume factor of 127.99999999999997 and exact False
    out = hitchin_scaling_law([8.0] * 7)
    assert type(out["volume_factor"]) is Fraction and out["volume_factor"] == 128
    assert out["exact"] and out == hitchin_scaling_law([8] * 7)


_FLOAT = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FLOAT, min_size=7, max_size=7),
       st.sampled_from((float, np.float64, np.float32)))
@example([8.0, 0.125, 1.0, 27.0, 0.5, 2.0, 1.5], float)
def test_floats_take_the_exact_path_by_their_binary_value(lams, make):
    lams = [make(l) for l in lams]
    got = hitchin_scaling_law(lams)
    want = hitchin_scaling_law([Fraction(float(l)) for l in lams])
    assert got["volume_factor"] == want["volume_factor"]
    assert type(got["volume_factor"]) is type(want["volume_factor"])
    assert got["mus"] == want["mus"]
    assert [type(m) for m in got["mus"]] == [type(m) for m in want["mus"]]
    assert got["exact"] is want["exact"]
    assert scaled_volume_factor(lams) == want["volume_factor"]


def test_inexact_laws_return_the_callers_lambdas():
    out = hitchin_scaling_law([0.1] * 7)
    assert not out["exact"]
    assert out["lambdas"] == (0.1,) * 7 and all(type(l) is float for l in out["lambdas"])
    assert out["volume_factor"] == pytest.approx(0.1 ** (7 / 3), rel=1e-14, abs=0)


@pytest.mark.parametrize("lam", [1e-200, 1e200], ids=["tiny", "huge"])
def test_roots_outside_the_float_ratio_range_come_from_the_logs(lam):
    # mu_i = lambda^(1/3), while lambda^2 / lambda^4 leaves the float range:
    # the float ratio of the integers once gave mus of 0.0 at 1e-200 and an
    # OverflowError at 1e200
    # the law refuses the tuple below, so the solve is read directly
    out = _solve(*_validated([lam] * 7))
    assert not out.exact
    assert out.mus == pytest.approx([math.exp(math.log(lam) / 3)] * 7, rel=1e-13, abs=0)
    # the volume factor lambda^(7/3) is itself outside the float range
    refused = re.escape(repr(lam)) + r".*\(1/3\)-th power lies outside the float range"
    for fn in (scaled_volume_factor, hitchin_scaling_law):
        with pytest.raises(InvalidScaleError, match=refused):
            fn([lam] * 7)


@pytest.mark.parametrize("lams, vol", [
    ([1e-100] * 7, math.exp(math.log(1e-100) * 7 / 3)),
    ([1e300, 1e300, 1, 1, 1, 1, 2.0], math.exp((2 * math.log(1e300) + math.log(2)) / 3)),
    ([10 ** 400, 1, 1, 1, 1, 1, 2], math.exp((400 * math.log(10) + math.log(2)) / 3)),
], ids=["tiny_tuple", "two_huge", "huge_int"])
def test_extreme_lambdas_with_a_float_volume(lams, vol):
    # prod mu leaves the float range in mid-product for the last two, so
    # the law is checked here in logs
    out = hitchin_scaling_law(lams)
    assert not out["exact"] and out["volume_factor"] == pytest.approx(vol, rel=1e-12, abs=0)
    assert math.fsum(map(math.log, out["mus"])) == pytest.approx(math.log(vol), rel=1e-13, abs=0)


def test_an_exact_volume_past_the_float_range():
    # prod lambda = 2^3081 is a cube, but mu_1^6 = 2^879 is not a sixth
    # power: the float mus multiply past the float range
    out = hitchin_scaling_law([2 ** 440] * 6 + [2 ** 441])
    assert not out["exact"]
    assert type(out["volume_factor"]) is Fraction and out["volume_factor"] == 2 ** 1027
