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

A polynomial form is integers too: one numerator per (index mask, packed
monomial), ``{mask: {monomial: n}}``, over one reduced denominator, with
each monomial's exponents packed into one int (`rings._pack`, an exponent
at most 32767), so a monomial product is one integer add.  Its `d_chart`,
`wedge`, sum, scaling, equality and `PolynomialMap.pullback` run on these
integers and build no Poly; a Poly per index is made only when `coeffs` is
read.  Every operation keeps the term order that adding Poly terms one by
one gives, so a coefficient evaluates to the same floats.  An exponent past
the limit raises ValueError where it would be made: at construction, in
`wedge`, `scale` by a polynomial or `pullback`.

Forms combine in one ring: a sum or wedge of forms over two rings, and a
form scaled by a float or polynomial scalar of another ring, raise
`MixedRingError`.  An int or Fraction scalar is taken into the form's ring,
and `in_ring` is the one conversion of a form into another ring.

Every multi-index has a 7-bit mask (bit i-1 for axis i): `_INDEX[m]` is
the multi-index of mask m, `_MASKS` its inverse, and `_SIGN[b][a]`, the one
sign table of the package, the sign of theta^A ^ theta^B once sorted (0
where the masks meet).  The index-pair loops of `wedge` and the table rows
of `liecdga.StructureEqs` test two masks for a shared bit before they call
`merge_sign`, so a pair that repeats an axis costs one integer AND;
`d_chart` skips the axes of an index and reads the sign off `_SIGN`.
'''
from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .rings import (FLT, RAT, MixedRingError, Poly, _add_into, _guard,
                    _over_common_denominator, _partials, _power, _reduced, _times, _unpack,
                    coerce_to, ring_of, ring_zero, scalar_is_zero)

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


def _packed_form(coeffs: Mapping) -> tuple:
    """({mask: {packed monomial: numerator}}, D) of nonzero Polys keyed by
    multi-index, over D the lcm of their denominators, which makes the pair
    reduced; an exponent past the limit raises ValueError."""
    den = math.lcm(*(c._den for c in coeffs.values()))
    return {_MASKS[i]: c._packed(den // c._den) for i, c in coeffs.items()}, den


def _wedge_packed(a: dict, b: dict, guard: int) -> dict:
    """a ^ b for packed polynomial forms with the term order of the wedge of
    Polys: an index keeps its first place when its sum cancels (its empty
    coefficient is left for the caller to drop), and each product of two
    coefficients is added to it as a Poly is."""
    right = list(b.items())
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in right:
            if m1 & m2:
                continue
            _, sign = merge_sign(m1, m2)
            _add_into(out.setdefault(m1 | m2, {}), _times(c1, c2, guard, sign))
    return out


class KForm:
    """Sparse k-form with coefficients in a single scalar ring.

    A rational form keeps integer numerators over one denominator D > 0,
    reduced and in the key order of its coefficients.  Built from Fractions
    it is put over D on its first integer operation; built from integers it
    makes its Fractions on the first read of the read-only `coeffs`.  A
    polynomial form always holds `_poly`, {mask: {packed monomial:
    numerator}} over its reduced D, and makes its Polys on the first read
    of `coeffs`."""

    __slots__ = ("dim", "degree", "ring", "_coeffs", "_num", "_poly", "_den")

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
        self._num = self._poly = None
        if isinstance(ring, tuple):
            self._poly, self._den = _packed_form(clean)

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
        form._poly = None
        if den is None:
            form._coeffs = {i: c for i, c in coeffs.items() if c}
            form._num = None
            if isinstance(ring, tuple):
                form._poly, form._den = _packed_form(form._coeffs)
        else:
            form._coeffs = None
            form._num, form._den = _reduced(coeffs, den)
        return form

    @classmethod
    def _packed(cls, dim, degree, ring, poly, den) -> "KForm":
        """Build a form over the polynomial `ring` from {mask: {packed
        monomial: numerator}} over den > 0, with no zero numerator and masks
        of `degree` bits in range; the empty coefficients are dropped and
        the pair is reduced here (`poly` may be kept, so the caller must
        leave it alone)."""
        if not all(poly.values()):
            poly = {m: c for m, c in poly.items() if c}
        if den != 1:
            g = den
            for c in poly.values():
                g = math.gcd(g, *c.values())
                if g == 1:
                    break
            if g != 1:
                poly = {m: {e: n // g for e, n in c.items()} for m, c in poly.items()}
                den //= g
        form = object.__new__(cls)
        form.dim = dim
        form.degree = degree
        form.ring = ring
        form._coeffs = form._num = None
        form._poly, form._den = poly, den
        return form

    @property
    def coeffs(self):
        """Read-only view, index -> coefficient."""
        c = self._coeffs
        if c is None:
            den = self._den
            if self._poly is None:
                c = {i: Fraction(n, den) for i, n in self._num.items()}
            else:
                vars = self.ring[1]
                c = {_INDEX[m]: Poly._from_ints(vars, {_unpack(e, len(vars)): n
                                                       for e, n in p.items()}, den)
                     for m, p in self._poly.items()}
            self._coeffs = c
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
        if self.ring == RAT and isinstance(ring, tuple):
            num, den = self._ints()
            return KForm._packed(self.dim, self.degree, ring,
                                 {_MASKS[i]: {0: n} for i, n in num.items()}, den)
        return KForm._trusted(self.dim, self.degree, ring,
                              {i: coerce_to(ring, c) for i, c in self.coeffs.items()})

    # ----- vector space ops ---------------------------------------------
    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        ring = self._match(other)
        if self._poly is not None:
            # b's indices are distinct, so a coefficient that cancels (left
            # empty, dropped by _packed) never comes back
            (a, da), (b, db) = (self._poly, self._den), (other._poly, other._den)
            den = math.lcm(da, db)
            fa = den // da
            out = {m: {e: n * fa for e, n in c.items()} for m, c in a.items()}
            for m, c in b.items():
                _add_into(out.setdefault(m, {}), c, den // db)
            return KForm._packed(self.dim, self.degree, ring, out, den)
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
        if self.ring == RAT or self._poly is not None:
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
        if tag != ring and tag != RAT:
            raise MixedRingError(f"cannot scale {ring} form by {tag} scalar")
        if ring == RAT:
            num, den = self._ints()
            return KForm._trusted(self.dim, self.degree, RAT,
                                  {i: n * s.numerator for i, n in num.items()},
                                  den * s.denominator)
        poly = self._poly
        if poly is None:
            s = coerce_to(ring, s)
            return KForm._trusted(self.dim, self.degree, ring,
                                  {i: c * s for i, c in self.coeffs.items()})
        if tag == RAT:
            n = s.numerator
            out = {m: {e: x * n for e, x in c.items()} for m, c in poly.items()} if n else {}
            return KForm._packed(self.dim, self.degree, ring, out, self._den * s.denominator)
        sp, guard = s._packed(), _guard(len(ring[1]))
        return KForm._packed(self.dim, self.degree, ring,
                             {m: _times(c, sp, guard) for m, c in poly.items()},
                             self._den * s._den)

    def __rmul__(self, s):
        return self.scale(s)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if (self.dim, self.degree, self.ring) != (other.dim, other.degree, other.ring):
            return False
        if self.ring == RAT:
            return self._ints() == other._ints()
        if self._poly is not None:
            return self._den == other._den and self._poly == other._poly
        return self._coeffs == other._coeffs

    def is_zero(self) -> bool:
        if self._poly is not None:
            return not self._poly
        return not (self._coeffs if self._num is None else self._num)

    # ----- multiplicative structure ----------------------------------------
    def wedge(self, other: "KForm") -> "KForm":
        ring = self._match(other)
        deg = self.degree + other.degree
        if deg > self.dim:
            return KForm.zero(self.dim, min(deg, self.dim), ring)
        if self._poly is not None:
            return KForm._packed(self.dim, deg, ring,
                                 _wedge_packed(self._poly, other._poly, _guard(len(ring[1]))),
                                 self._den * other._den)
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

        Axis i is coordinate ``vars[i-1]``; a coefficient is differentiated
        once per free axis, in ascending order, and each partial is added to
        its index as a Poly is (an index whose sum cancels keeps its place).
        """
        if self._poly is None:
            raise TypeError("d_chart needs polynomial coefficients")
        if self.degree + 1 > self.dim:
            return KForm.zero(self.dim, self.dim, self.ring)
        out = {}
        for m, c in self._poly.items():
            # d(x_i) ^ theta^idx repeats axis i + 1 where m has bit i
            for i, dc in _partials(c, self.dim, m):
                _add_into(out.setdefault(m | 1 << i, {}), dc, _SIGN[m][1 << i])
        return KForm._packed(self.dim, self.degree + 1, self.ring, out, self._den)

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
    source coordinates; target axis i corresponds to target_vars[i-1].  The
    components are held packed over one common denominator Δ, so F*(dy^I)
    is over Δ^|I| and a product of components to the powers e over Δ^|e|;
    both are memoised, F*(dy^I) per form dimension and mask of I.
    """

    def __init__(self, source_vars, target_vars, components: Mapping[str, Poly]):
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.components = {v: components[v] for v in self.target_vars}
        for v, p in self.components.items():
            if p.vars != self.source_vars:
                raise MixedRingError(f"component {v} not a polynomial in the source chart")
        self._delta = math.lcm(*(p._den for p in self.components.values()))
        self._comps = [p._packed(self._delta // p._den) for p in self.components.values()]
        self._guard = _guard(len(self.source_vars))
        self._dy, self._monomials = {}, {}

    def _pulled_basis(self, dim: int, m: int) -> dict:
        """F*(dy^I), for the mask m of I, on a source chart of dimension
        `dim`, packed over Δ^|I|: the Jacobian rows of I's axes (in the first
        `dim` source variables) wedged onto 1."""
        form = self._dy.get((dim, m))
        if form is None:
            if m:
                top = m.bit_length() - 1        # I's last axis, top + 1
                comp = self._comps[top]
                row = {1 << i: dp for i, dp in _partials(comp, dim)}
                form = _wedge_packed(self._pulled_basis(dim, m ^ 1 << top), row, self._guard)
                form = {i: c for i, c in form.items() if c}
            else:
                form = {0: {0: 1}}
            self._dy[dim, m] = form
        return form

    def _monomial(self, e: int) -> tuple:
        """(the product of the components to the powers of the packed target
        monomial e, over Δ^|e|, and |e|), memoised."""
        m = self._monomials.get(e)
        if m is None:
            prod, deg = {0: 1}, 0
            for comp, k in zip(self._comps, _unpack(e, len(self._comps))):
                if k:
                    prod = _times(prod, _power(comp, k, self._guard), self._guard)
                    deg += k
            m = self._monomials[e] = (prod, deg)
        return m

    def pullback(self, form: KForm) -> KForm:
        """Pull a polynomial form on the target chart back to the source
        chart, as the sum over I of (c_I∘F) F*(dy^I), c_I∘F summed in c_I's
        term order.  Every term is put over D Δ^(top + k): D the form's
        denominator, top the largest total degree of its monomials and k
        its degree."""
        target = ("poly", self.target_vars)
        if form.ring not in (RAT, target):
            raise MixedRingError("form is not written in the target chart")
        form = form.in_ring(target)
        terms = [(m, [(n, *self._monomial(e)) for e, n in c.items()])
                 for m, c in form._poly.items()]
        top = max((deg for _, c in terms for _, _, deg in c), default=0)
        delta, guard = self._delta, self._guard
        out = {}
        for m, c in terms:
            cf = {}
            for n, mono, deg in c:
                _add_into(cf, mono, n * delta ** (top - deg))
            if not cf:
                continue
            for i, b in self._pulled_basis(form.dim, m).items():
                acc = out.get(i)
                if acc is None:
                    out[i] = _times(cf, b, guard)
                else:               # a coefficient that cancels leaves out
                    _add_into(acc, _times(cf, b, guard))
                    if not acc:
                        del out[i]
        return KForm._packed(form.dim, form.degree, ("poly", self.source_vars), out,
                             form._den * delta ** (top + form.degree))


def poly_ring(vars) -> tuple:
    return ("poly", tuple(vars))


def chart_vars(prefix: str, dim: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(1, dim + 1))
