'''Exterior algebra on a framed manifold of dimension <= 7.

A :class:`KForm` is a finite sum ``sum_I c_I theta^I`` where I runs over
strictly increasing multi-indices from the axis set {1..dim} and the
coefficients c_I live in one of the rings of :mod:`g2calc.rings`
(rationals, floats, or polynomials in named chart coordinates).

Operations: wedge, chart exterior derivative (polynomial ring only) and
pullback along a polynomial map.

A rational form is held as integer numerators over one denominator, the
lcm of its coefficients' denominators, which makes the pair reduced and
canonical.  Its wedge, sum, negation, scaling and equality run on these
integers and build no Fraction; Fractions are made only when `coeffs` is
read.  Every exact operation of the package (the B-map, metric and star of
`g2core`, `liecdga.d_invariant`, `catalog.ch_map`) reads its forms through
`KForm._ints`, which refuses a float or polynomial form with a TypeError:
exact operations take rational forms, and that is decided here only.

Forms combine in one ring: a sum or wedge of forms over two rings, and a
form scaled by a float or polynomial scalar of another ring, raise
`MixedRingError`.  An int or Fraction scalar is taken into the form's ring,
and `in_ring` is the one conversion of a form into another ring.

Every multi-index has a 7-bit mask (bit i-1 for axis i): `_INDEX[m]` is
the multi-index of mask m, `_MASKS` its inverse, and `_SIGN[b][a]`, the one
sign table of the package, the sign of theta^A ^ theta^B once sorted (0
where the masks meet).  The index-pair loops of `wedge`, `d_chart` and the
table rows of `liecdga.StructureEqs` test two masks for a shared bit before
they call `merge_sign`, so a pair that repeats an axis costs one integer AND.
'''
from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .rings import (FLT, RAT, MixedRingError, Poly, _over_common_denominator,
                    _reduced, coerce_to, ring_of, ring_zero, scalar_is_zero)

MultiIndex = tuple  # strictly increasing tuple of axis labels (1-based ints)


def _check_axes(idx: tuple, dim) -> None:
    if any(type(i) is not int for i in idx):
        raise ValueError(f"multi-index entries must be ints: {idx}")
    if any(i < 1 or i > dim for i in idx):
        raise ValueError(f"multi-index {idx} out of range 1..{dim}")


def check_multi_index(idx, dim) -> MultiIndex:
    idx = tuple(idx)
    _check_axes(idx, dim)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index {idx} must be strictly increasing")
    return idx


#: the multi-index of each 7-bit mask and the mask of each multi-index: two
#: multi-indices share an axis exactly when their masks share a bit
_INDEX = tuple(tuple(i + 1 for i in range(7) if m >> i & 1) for m in range(1 << 7))
_MASKS = {idx: m for m, idx in enumerate(_INDEX)}


def _sign_table():
    """_SIGN[b][a]: the sign of theta^A ^ theta^B once sorted, 0 where the
    masks meet.  With j the lowest axis of B and B' the rest, theta^A ^
    theta^B = (-1)^popcount(a >> j) theta^(A+j) ^ theta^B'."""
    table = [[1] * (1 << 7)]
    for b in range(1, 1 << 7):
        bit = b & -b
        rest = table[b ^ bit]
        table.append([0 if a & bit else (-1) ** (a // bit).bit_count() * rest[a | bit]
                      for a in range(1 << 7)])
    return tuple(table)


_SIGN = _sign_table()


def merge_sign(ma: int, mb: int):
    """theta^A ^ theta^B for the multi-indices of the masks ma, mb, as
    (merged index, sign); (None, 0) where they share an axis."""
    s = _SIGN[mb][ma]
    return (_INDEX[ma | mb], s) if s else (None, 0)


def _label(idx) -> str:
    """e123 for the multi-index (1, 2, 3), and 1 for ()."""
    return "e" + "".join(map(str, idx)) if idx else "1"


def _add_term(acc: dict, idx, c) -> None:
    """acc[idx] += c; a sum that cancels leaves acc, so the key order is the
    one that adding the terms as forms one by one would give."""
    if idx in acc:
        total = acc[idx] + c
        if total:
            acc[idx] = total
        else:
            del acc[idx]
    elif c:
        acc[idx] = c


class KForm:
    """Sparse k-form with coefficients in a single scalar ring.

    A rational form keeps integer numerators over one denominator D > 0,
    reduced and in the key order of its coefficients.  Built from Fractions
    it is put over D on its first integer operation; built from integers it
    makes its Fractions on the first read of the read-only `coeffs`."""

    __slots__ = ("dim", "degree", "ring", "_coeffs", "_num", "_den")

    def __init__(self, dim: int, degree: int, ring, coeffs: Mapping[MultiIndex, object]):
        if not (0 <= degree <= dim <= 7):
            raise ValueError("need 0 <= degree <= dim <= 7")
        self.dim = dim
        self.degree = degree
        self.ring = ring
        clean = {}
        for idx, c in coeffs.items():
            idx = check_multi_index(idx, dim)
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for a {degree}-form")
            c = coerce_to(ring, c)
            if not scalar_is_zero(c):
                clean[idx] = c
        self._coeffs = clean
        self._num = None

    @classmethod
    def _trusted(cls, dim, degree, ring, coeffs, den=None) -> "KForm":
        """Build a form whose indices are already sorted, in range and of
        length `degree`, and whose coefficients already lie in `ring`; only
        the zero coefficients are dropped.  With `den`, `coeffs` holds the
        integer numerators of a rational form over den > 0, and the pair is
        reduced here."""
        form = object.__new__(cls)
        form.dim = dim
        form.degree = degree
        form.ring = ring
        if den is None:
            form._coeffs = {i: c for i, c in coeffs.items() if c}
            form._num = None
        else:
            form._coeffs = None
            form._num, form._den = _reduced(coeffs, den)
        return form

    @property
    def coeffs(self):
        """Read-only view, index -> coefficient."""
        c = self._coeffs
        if c is None:
            den = self._den
            c = self._coeffs = {i: Fraction(n, den) for i, n in self._num.items()}
        return MappingProxyType(c)

    def _ints(self):
        """(numerators, D) of a rational form, made on first use and kept.
        Every exact operation reads its forms here, so this is where a float
        or polynomial form is refused, with a TypeError naming its ring."""
        if self._num is None:
            if self.ring != RAT:
                ring = self.ring if self.ring == FLT else f"polynomials in {self.ring[1]}"
                raise TypeError(f"exact operations take rational forms, got one over "
                                f"{ring}: evaluate a polynomial form at a point, and "
                                "send float 3-form rows to g2core.metric_batch")
            nums, self._den = _over_common_denominator(self._coeffs.values())
            self._num = dict(zip(self._coeffs, nums))
        return self._num, self._den

    # ----- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, dim, degree, ring=RAT):
        return cls(dim, degree, ring, {})

    @classmethod
    def basis(cls, dim, idx):
        """The rational form theta^idx; `in_ring` takes it to another ring."""
        idx = tuple(idx)
        return cls(dim, len(idx), RAT, {idx: 1})

    @classmethod
    def from_terms(cls, dim, degree, terms):
        """The rational form sum c theta^idx over (idx, c) in terms; idx may
        be unsorted, and a term that repeats an axis is zero.  Each axis is
        checked, then wedged on through _SIGN."""
        cls.zero(dim, degree)   # a dim or degree out of range fails before _SIGN is read
        coeffs = {}
        for idx, c in terms:
            _check_axes(tuple(idx), dim)
            m, sign = 0, 1
            for bit in (1 << (i - 1) for i in idx):
                m, sign = m | bit, sign * _SIGN[bit][m]
            if sign:
                coeffs[_INDEX[m]] = coeffs.get(_INDEX[m], 0) + sign * coerce_to(RAT, c)
        return cls(dim, degree, RAT, coeffs)

    # ----- ring handling ----------------------------------------------------
    def _match(self, other: "KForm"):
        if self.dim != other.dim:
            raise ValueError("forms live on spaces of different dimension")
        if self.ring != other.ring:
            raise MixedRingError(f"cannot combine rings {self.ring} and {other.ring}; "
                                 "convert a form with in_ring")
        return self.ring

    def in_ring(self, ring) -> "KForm":
        """This form with its coefficients taken into `ring`: the one
        conversion between rings, from the rationals into any ring."""
        if ring == self.ring:
            return self
        return KForm._trusted(self.dim, self.degree, ring,
                              {i: coerce_to(ring, c) for i, c in self.coeffs.items()})

    # ----- vector space ops ---------------------------------------------
    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        ring = self._match(other)
        den = None
        if ring == RAT:
            (na, da), (nb, db) = self._ints(), other._ints()
            den = math.lcm(da, db)
            coeffs = {i: n * (den // da) for i, n in na.items()}
            b = {i: n * (den // db) for i, n in nb.items()}
        else:
            coeffs, b = dict(self.coeffs), other.coeffs
        for i, c in b.items():
            _add_term(coeffs, i, c)
        return KForm._trusted(self.dim, self.degree, ring, coeffs, den)

    def __neg__(self):
        if self.ring == RAT:
            return self.scale(-1)
        return KForm._trusted(self.dim, self.degree, self.ring,
                              {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "KForm":
        """s times this form; an int or Fraction s is taken into the form's
        ring, and any other s must lie in it."""
        tag, ring = ring_of(s), self.ring
        if tag != ring:
            if tag != RAT:
                raise MixedRingError(f"cannot scale {ring} form by {tag} scalar")
            s = coerce_to(ring, s)
        if ring == RAT:
            num, den = self._ints()
            return KForm._trusted(self.dim, self.degree, RAT,
                                  {i: n * s.numerator for i, n in num.items()},
                                  den * s.denominator)
        return KForm._trusted(self.dim, self.degree, ring,
                              {i: c * s for i, c in self.coeffs.items()})

    def __rmul__(self, s):
        return self.scale(s)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if (self.dim, self.degree, self.ring) != (other.dim, other.degree, other.ring):
            return False
        if self.ring == RAT:
            return self._ints() == other._ints()
        return self._coeffs == other._coeffs

    def is_zero(self) -> bool:
        return not (self._coeffs if self._num is None else self._num)

    # ----- multiplicative structure ----------------------------------------
    def wedge(self, other: "KForm") -> "KForm":
        ring = self._match(other)
        deg = self.degree + other.degree
        if deg > self.dim:
            return KForm.zero(self.dim, min(deg, self.dim), ring)
        # keys in order of first appearance: a sum that cancels keeps its
        # place until the zeros are dropped at the end.  A pair whose masks
        # share a bit repeats an axis and is skipped before merge_sign
        den = None
        if ring == RAT:
            (a, da), (b, db) = self._ints(), other._ints()
            den = da * db
        else:
            a, b = self.coeffs, other.coeffs
        right = [(_MASKS[i2], c2) for i2, c2 in b.items()]
        out = {}
        for i1, c1 in a.items():
            m1 = _MASKS[i1]
            for m2, c2 in right:
                if m1 & m2:
                    continue
                merged, sign = merge_sign(m1, m2)
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                if merged in out:
                    out[merged] = out[merged] + c
                else:
                    out[merged] = c
        return KForm._trusted(self.dim, deg, ring, out, den)

    # ----- calculus in a chart ------------------------------------------
    def d_chart(self) -> "KForm":
        """Exterior derivative for polynomial coefficients.

        Axis i is coordinate ``vars[i-1]``; a coefficient is differentiated once.
        """
        if not (isinstance(self.ring, tuple) and self.ring[0] == "poly"):
            raise TypeError("d_chart needs polynomial coefficients")
        if self.degree + 1 > self.dim:
            return KForm.zero(self.dim, self.dim, self.ring)
        terms = {}
        for idx, c in self.coeffs.items():
            m = _MASKS[idx]
            for i, dc in c.partials(self.dim).items():
                if m >> i & 1:      # d(x_i) ^ theta^idx repeats axis i + 1
                    continue
                merged, sign = merge_sign(1 << i, m)
                val = dc if sign == 1 else -dc
                terms[merged] = terms[merged] + val if merged in terms else val
        return KForm._trusted(self.dim, self.degree + 1, self.ring, terms)

    # ----- misc ----------------------------------------------------------
    def top_coefficient(self):
        """Coefficient of theta^{1..dim}; zero scalar if absent."""
        full = tuple(range(1, self.dim + 1))
        if self.degree != self.dim:
            raise ValueError("not a top-degree form")
        return self.coeffs.get(full, ring_zero(self.ring))

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            bits.append(f"({c})*{_label(idx)}")
        return " + ".join(bits)

    __repr__ = __str__


class PolynomialMap:
    """Polynomial map between chart coordinate systems.

    ``outputs[i]`` is the i-th target coordinate expressed as a Poly in the
    source coordinates; target axis i corresponds to target_vars[i-1].
    F*(dy^I), per form dimension and I, and its monomials are memoised.
    """

    def __init__(self, source_vars, target_vars, components: Mapping[str, Poly]):
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.components = {v: components[v] for v in self.target_vars}
        for v, p in self.components.items():
            if p.vars != self.source_vars:
                raise MixedRingError(f"component {v} not a polynomial in the source chart")
        self._dy, self._monomials = {}, {}

    def _pulled_basis(self, dim: int, idx: MultiIndex) -> KForm:
        """F*(dy^idx) on a source chart of dimension `dim`: the Jacobian rows
        of idx's axes (in the first `dim` source variables) wedged onto 1."""
        form = self._dy.get((dim, idx))
        if form is None:
            ring = ("poly", self.source_vars)
            if idx:
                p = self.components[self.target_vars[idx[-1] - 1]]
                row = {(i + 1,): dp for i, dp in p.partials(dim).items()}
                form = self._pulled_basis(dim, idx[:-1]).wedge(KForm._trusted(dim, 1, ring, row))
            else:
                form = KForm._trusted(dim, 0, ring, {(): Poly.const(self.source_vars, 1)})
            self._dy[dim, idx] = form
        return form

    def _monomial(self, e) -> Poly:
        """The product of the components to the powers e, memoised."""
        m = self._monomials.get(e)
        if m is None:
            m = self._monomials[e] = math.prod(
                (self.components[v] ** k for v, k in zip(self.target_vars, e) if k),
                start=Poly.const(self.source_vars, 1))
        return m

    def pullback(self, form: KForm) -> KForm:
        """Pull a polynomial form on the target chart back to the source
        chart, as the sum over I of (c_I∘F) F*(dy^I)."""
        target = ("poly", self.target_vars)
        if form.ring not in (RAT, target):
            raise MixedRingError("form is not written in the target chart")
        form = form.in_ring(target)
        out = {}
        for idx, c in form.coeffs.items():
            cf = c.compose(self._monomial)
            for i, m in self._pulled_basis(form.dim, idx).coeffs.items():
                _add_term(out, i, cf * m)
        return KForm._trusted(form.dim, form.degree, ("poly", self.source_vars), out)


def poly_ring(vars) -> tuple:
    return ("poly", tuple(vars))


def chart_vars(prefix: str, dim: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(1, dim + 1))
