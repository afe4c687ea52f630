'''Scalar coefficient rings for the form calculus.

Three rings are supported:

* exact rationals (``fractions.Fraction``),
* floats,
* multivariate polynomials with rational coefficients over a fixed,
  named coordinate tuple (class :class:`Poly`), held as integer
  numerators over one reduced denominator, like a rational `forms.KForm`.

A polynomial form of `forms` holds no Poly: its monomials are packed ints,
exponent i of the ring's variables in bits 16i..16i+14 (`_pack`), so a
monomial product is one integer add.  An exponent is at most _EXP_MAX =
32767; the top bit of each field is a guard, which a product sets where an
exponent passes the limit (`_times` raises ValueError there), so an
exponent never carries into the next variable.  `_times` and `_power`
multiply packed polynomials with Poly's term order, and `_add_into` adds
them as Poly addition does.

Mixing scalars from different rings inside one form is a hard error, raised
by the form layer (see :mod:`g2calc.forms`).  Helpers here also give
exact n-th roots of rationals, or None where the root is irrational; each
caller decides what an irrational root means for it.  Every entry to the
exact layer reads a finite real by one helper, a float by its binary value.

A polynomial evaluates at one point or, entry by entry, at every row of a
set of point columns, by one method (:meth:`Poly.eval`).  It raises powers
by repeated multiplication, x·x·..., which rounds the same for a float and
for a numpy array, so a row gets the same bits alone or in any batch; the
sampled quantities built on it (`catalog`, `ehmetric`) follow the same
x·x policy.
'''
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from numbers import Integral, Real
from operator import add, or_
from types import MappingProxyType
from typing import Mapping

RAT = "rational"
FLT = "float"


class MixedRingError(TypeError):
    """Raised when scalars from different coefficient rings are combined."""


def _int_nth_root(n: int, k: int):
    # exact integer k-th root, or None
    if n < 0:
        if k % 2 == 0:
            return None
        r = _int_nth_root(-n, k)
        return None if r is None else -r
    if n in (0, 1):
        return n
    bits = n.bit_length()
    if bits < 1000:
        x = round(n ** (1.0 / k))
        if x ** k == n:
            return x
        # a root below 2^40 is within 1/4 of its float estimate, so a
        # miss there is final
        if bits <= 40 * k:
            return None
    else:   # past the double range: a power of two above the root
        x = 1 << -(-bits // k)
    # integer Newton: one step from any x > 0 lands on or above the floor
    # of the root (AM-GM), and from there the steps decrease to it
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x ** k == n else None
        x = y


def _over_common_denominator(values):
    """(numerators, D) with value = numerator / D for each of the ints or
    Fractions in `values`; D is the lcm of their denominators (1 if none)."""
    nums, dens = [], []
    for v in values:
        nums.append(v.numerator)
        dens.append(v.denominator)
    D = math.lcm(*dens)
    if D != 1:
        nums = [n * (D // d) for n, d in zip(nums, dens)]
    return nums, D


def _reduced(num: dict, den: int):
    """(numerators, D) of num[k] / den over the lowest D > 0, zeros dropped;
    may return `num` itself, which the caller must then leave alone."""
    if 0 in num.values():
        num = {k: n for k, n in num.items() if n}
    g = math.gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        num = {k: n // g for k, n in num.items()}
        den //= g
    return num, den


def _rational(c):
    """`c`, which must be an int or a Fraction; floats and bools are refused,
    since a float's binary value is not the rational it was written as."""
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise MixedRingError(f"polynomial coefficients must be ints or Fractions, got {c!r}")


def _exact_real(x, name, error=ValueError):
    """`x`, a finite real (int, Fraction, float or numpy scalar), as an int
    or a Fraction, a float by its binary value (0.1 is 3602879701896397 /
    2^55); a bool, NaN, +-inf or a non-real raises `error`, naming `x`."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if not isinstance(x, bool) and isinstance(x, Real) and math.isfinite(x):
        return int(x) if isinstance(x, Integral) else Fraction(*x.as_integer_ratio())
    raise error(f"{name} {x!r} is not a finite real number")


def _ratio_root(num: int, den: int, k: int):
    """Exact k-th root of num / den, for coprime num and den > 0, as a
    Fraction, or None when irrational."""
    rn = _int_nth_root(num, k)
    rd = None if rn is None else _int_nth_root(den, k)
    return None if rd is None else Fraction(rn, rd)


def nth_root_fraction(q: Fraction, k: int):
    """Exact k-th root of a Fraction, or None when irrational."""
    q = Fraction(q)
    return _ratio_root(q.numerator, q.denominator, k)


class Poly:
    '''Multivariate polynomial with rational coefficients.

    Integer numerators over one reduced denominator D > 0, keyed by exponent
    tuples aligned with ``self.vars``, zeros pruned, so equality is syntactic.
    Arithmetic builds no Fraction; `terms` is a read-only Fraction view made
    on first read.  __str__ orders terms graded lexicographically.
    '''

    __slots__ = ("vars", "_num", "_den", "_terms")

    def __init__(self, vars: tuple, terms: Mapping[tuple, Fraction]):
        self.vars = tuple(vars)
        clean = {}
        for expo, c in terms.items():
            c = _rational(c)
            if c != 0:
                if len(expo) != len(self.vars):
                    raise ValueError("exponent tuple does not match variables")
                clean[tuple(expo)] = c
        nums, self._den = _over_common_denominator(clean.values())
        self._num, self._terms = dict(zip(clean, nums)), None

    @classmethod
    def _from_ints(cls, vars: tuple, num: dict, den: int) -> "Poly":
        """The polynomial over the tuple `vars` with numerators `num`, keyed
        by exponent tuples of the right length, over den > 0 (see _reduced)."""
        p = object.__new__(cls)
        p.vars, p._terms = vars, None
        p._num, p._den = _reduced(num, den)
        return p

    def _scaled(self, n: int, d: int) -> "Poly":
        """self times n/d, for integers n and d > 0."""
        return Poly._from_ints(self.vars, {e: c * n for e, c in self._num.items()}, self._den * d)

    def _packed(self, f: int = 1) -> dict:
        """{packed monomial: f * numerator} of self (see _pack)."""
        return {_pack(e): n * f for e, n in self._num.items()}

    @property
    def terms(self):
        """Read-only view, exponent tuple -> Fraction coefficient."""
        t = self._terms
        if t is None:
            t = self._terms = {e: Fraction(n, self._den) for e, n in self._num.items()}
        return MappingProxyType(t)

    # ----- constructors -------------------------------------------------
    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        c = _rational(c)
        return cls._from_ints(vars, {(0,) * len(vars): c.numerator}, c.denominator)

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls._from_ints(vars, {expo: 1}, 1)

    # ----- ring structure ------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise MixedRingError(
                    f"polynomials over different coordinates: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da, b, db = self._num, self._den, other._num, other._den
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        out = {e: n * fa for e, n in a.items()}
        for e, n in b.items():
            out[e] = out[e] + n * fb if e in out else n * fb
        return Poly._from_ints(self.vars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1, 1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self._num.items():
            for e2, c2 in other._num.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return Poly._from_ints(self.vars, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = Poly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, bool) or not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = other if isinstance(other, Poly) else Poly.const(self.vars, other)
        return (self.vars, self._den, self._num) == (other.vars, other._den, other._num)

    def __bool__(self):
        return bool(self._num)

    # ----- evaluation -----------------------------------------------------
    def eval(self, point: Mapping):
        """Value at a point (names -> numbers), or entry by entry at point
        columns (names -> float arrays of one shape); a real number is read
        by float(x), anything else is a column.  A coefficient is n / D,
        rounded as float(Fraction) is; a power is the product x·x·..., the
        same for a float and an array, so an entry is its row's own float."""
        total, powers, den = 0.0, {}, self._den
        for e, n in self._num.items():
            val = n / den
            for v, k in zip(self.vars, e):
                if k:
                    if (v, k) not in powers:
                        x = point[v]
                        x = float(x) if isinstance(x, Real) else x
                        powers[v, k] = x
                        for _ in range(k - 1):
                            powers[v, k] = powers[v, k] * x
                    val = val * powers[v, k]
            total = total + val
        return total

    def _key(self, e):
        return (sum(e), tuple(-x for x in e))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=self._key):
            c = self.terms[e]
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    __repr__ = __str__


#: bits of one variable's field in a packed monomial; the top one is the guard
_FIELD = 16
_EXP_MAX = (1 << (_FIELD - 1)) - 1


def _pack(expo) -> int:
    """The exponents `expo` as one packed monomial, exponent i in field i;
    an exponent outside 0.._EXP_MAX raises ValueError."""
    e = 0
    for i, k in enumerate(expo):
        if not 0 <= k <= _EXP_MAX:
            raise ValueError(f"exponent {k} does not fit its field: the limit is {_EXP_MAX}")
        e |= k << _FIELD * i
    return e


def _unpack(e: int, n: int) -> tuple:
    """The n exponents of the packed monomial e."""
    return tuple(e >> s & _EXP_MAX for s in range(0, _FIELD * n, _FIELD))


@cache
def _guard(n: int) -> int:
    """The guard bits of n fields."""
    return sum(1 << _FIELD * i + _FIELD - 1 for i in range(n))


def _times(a: dict, b: dict, guard: int, sign: int = 1) -> dict:
    """sign * a * b for packed polynomials (monomial -> integer numerator),
    with Poly's term order: first appearance, zeros dropped at the end.  A
    product that sets a bit of `guard` (the guard bits of the ring's
    fields) raises ValueError."""
    if len(b) == 1:         # one term on either side: the keys are distinct
        [(e2, n2)] = b.items()
        n2 *= sign
        out = {e1 + e2: n1 * n2 for e1, n1 in a.items()}
    elif len(a) == 1:
        [(e1, n1)] = a.items()
        n1 *= sign
        out = {e1 + e2: n1 * n2 for e2, n2 in b.items()}
    else:
        out = {}
        for e1, n1 in a.items():
            n1 *= sign
            for e2, n2 in b.items():
                e = e1 + e2
                if e in out:
                    out[e] += n1 * n2
                else:
                    out[e] = n1 * n2
        if 0 in out.values():
            out = {e: n for e, n in out.items() if n}
    if reduce(or_, out, 0) & guard:
        raise ValueError(f"a product passes the exponent limit {_EXP_MAX}")
    return out


def _power(p: dict, k: int, guard: int) -> dict:
    """p ** k for a packed polynomial, by the squarings of Poly.__pow__."""
    result = {0: 1}
    while k:
        if k & 1:
            result = _times(result, p, guard)
        k >>= 1
        if k:
            p = _times(p, p, guard)
    return result


def _partials(c: dict, n: int, skip: int = 0) -> list:
    """[(i, d c / d x_i)] for a packed polynomial c, x_i the variable of
    field i, for each i < n whose variable appears in c and whose bit in
    `skip` is clear, in ascending i, from one pass over the terms; each in
    c's term order."""
    outs = {}
    for e, c_e in c.items():
        f, i = e, 0
        while f and i < n:
            k = f & _EXP_MAX
            if k and not skip >> i & 1:
                d = outs.get(i)
                if d is None:
                    d = outs[i] = {}
                d[e - (1 << _FIELD * i)] = c_e * k
            f >>= _FIELD
            i += 1
    return sorted(outs.items())


def _add_into(acc: dict, terms: dict, f: int = 1) -> None:
    """acc += f * terms, for packed polynomials, as Poly addition does: a
    monomial whose sum cancels leaves acc, and goes to the end if it comes
    back."""
    for e, n in terms.items():
        if e in acc:
            total = acc[e] + n * f
            if total:
                acc[e] = total
            else:
                del acc[e]
        else:
            acc[e] = n * f


def ring_of(s) -> object:
    """Ring tag of one scalar: RAT, FLT or ('poly', vars).  Floats (numpy's
    too) and Polys are tested first: a non-Fraction reaching the Fraction
    test falls into the slow `numbers.Rational` ABC check."""
    if isinstance(s, float):
        return FLT
    if isinstance(s, Poly):
        return ("poly", s.vars)
    if isinstance(s, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(s, (int, Fraction)):
        return RAT
    raise TypeError(f"unsupported scalar {s!r}")


def ring_zero(ring):
    if ring == RAT:
        return Fraction(0)
    if ring == FLT:
        return 0.0
    return Poly.const(ring[1], 0)


def coerce_to(ring, s):
    """Coerce integers/Fractions into `ring`; anything else must already match."""
    tag = ring_of(s)
    if tag == ring:
        if ring == RAT and not isinstance(s, Fraction):
            return Fraction(s)
        return s
    if tag == RAT:
        if ring == FLT:
            return float(s)
        if isinstance(ring, tuple):
            return Poly.const(ring[1], Fraction(s))
    raise MixedRingError(f"cannot place scalar of ring {tag} into ring {ring}")


def scalar_is_zero(s) -> bool:
    if isinstance(s, Poly):
        return not s
    return s == 0
