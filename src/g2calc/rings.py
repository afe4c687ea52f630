'''Scalar coefficient rings for the form calculus.

Three rings are supported:

* exact rationals (``fractions.Fraction``),
* floats,
* multivariate polynomials with rational coefficients over a fixed,
  named coordinate tuple (class :class:`Poly`).

Mixing scalars from different rings inside one form is a hard error, raised
by the form layer (see :mod:`g2calc.forms`).  Helpers here also give
exact n-th roots of rationals, or None where the root is irrational; each
caller decides what an irrational root means for it.

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
from operator import add
from typing import Mapping

import numpy as np

Q = Fraction

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


def _rational(c) -> Fraction:
    """An int or Fraction as a Fraction; floats and bools are refused, since
    a float's binary value is not the rational it was written as."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise MixedRingError(f"polynomial coefficients must be ints or Fractions, got {c!r}")


def nth_root_fraction(q: Fraction, k: int):
    """Exact k-th root of a Fraction, or None when irrational."""
    q = Fraction(q)
    num = _int_nth_root(q.numerator, k)
    if num is None:
        return None
    den = _int_nth_root(q.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


class Poly:
    '''Multivariate polynomial with Fraction coefficients.

    Monomials are stored in a dict keyed by exponent tuples aligned with
    ``self.vars``; zero coefficients are pruned so equality is syntactic.
    The canonical term order used by __str__ is graded lexicographic.
    '''

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: Mapping[tuple, Fraction] | None = None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for expo, c in terms.items():
                c = _rational(c)
                if c != 0:
                    if len(expo) != len(self.vars):
                        raise ValueError("exponent tuple does not match variables")
                    clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, vars: tuple, terms: dict) -> "Poly":
        """Build a polynomial over the tuple `vars` from exponent tuples of
        the right length and Fraction coefficients; only the zero
        coefficients are dropped."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # ----- constructors -------------------------------------------------
    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {expo: Fraction(1)})

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return Poly._trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

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
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return Poly._trusted(self.vars, out)

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
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ----- calculus -------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return Poly._trusted(self.vars, out)

    def subs(self, assignment: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials (all over one common variable tuple) for
        every variable of self."""
        new_vars = None
        for v in self.vars:
            p = assignment[v]
            if new_vars is None:
                new_vars = p.vars
            elif p.vars != new_vars:
                raise MixedRingError("substitution images live over different coordinates")
        out = Poly.const(new_vars, 0)
        for e, c in self.terms.items():
            term = Poly.const(new_vars, c)
            for v, k in zip(self.vars, e):
                if k:
                    term = term * assignment[v] ** k
            out = out + term
        return out

    def eval(self, point: Mapping):
        """Value at a point (names -> numbers), or entry by entry at point
        columns (names -> float arrays of one shape).  Each power is a
        repeated product x·x·..., the same for a float and for an array,
        so an entry is the float that its row gives on its own."""
        total, powers = 0.0, {}
        for e, c in self.terms.items():
            val = float(c)
            for v, k in zip(self.vars, e):
                if k:
                    if (v, k) not in powers:
                        x = point[v]
                        x = x if isinstance(x, np.ndarray) else float(x)
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


def ring_of(s) -> object:
    """Ring tag of one scalar: RAT, FLT or ('poly', vars)."""
    if isinstance(s, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(s, (int, Fraction)):
        return RAT
    if isinstance(s, float):
        return FLT
    if isinstance(s, Poly):
        return ("poly", s.vars)
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
        return not s.terms
    return s == 0
