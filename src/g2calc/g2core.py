'''Pointwise linear algebra of definite 3-forms in dimension 7.

The central map sends a 3-form phi to the bilinear form
``B(u, v) = (i_u phi) ^ (i_v phi) ^ phi`` (values are 7-form coefficients).
A 3-form is of definite type exactly when B normalises to a positive
definite metric; the normalisation is fixed by ``g_phi vol_phi = B/6``.
With vol = s theta^{1..7} and r = 6 s, g = B / r and 36 det B = r^9; vol^3
is a polynomial in phi (vol is homogeneous of degree 7/3), so
r^3 = 216 vol^3 is rational for every rational phi.

B has one definition for every caller, the factorisation B = A K A^T.
A (7 x 21) holds the 2-forms i_{e_i} phi and K (21 x 21) the pairing
top(alpha ^ beta ^ phi) = alpha^T K beta; both are linear in phi, given by
one pair of small sign tables (105 and 210 entries).  For float rows B is
one product with each table and B = (A K) A^T matrix by matrix, in blocks
of rows.  For a rational form the product is expanded once, on first use,
into a cubic table: each entry of B is a sum of products x_a x_b x_c of
three distinct coefficients, each weighted +-3 or +-6, 735 in all.  The
integer numerators of B are summed over the monomials whose three triples
lie in the form's support, so the cost follows the support: the seven
terms of a scaled standard form meet seven monomials, one per diagonal
entry.  The Hodge star of a rational form is one integer kernel built on
Jacobi's identity, det(g^-1[I, J]) = +-det(g[J', I']) / det g for the
complements I', J'.  With B = N / d and 36 det B = r^9, it reads
sum_J (-1)^(sum J) a_J det N[I', J'] for all I' at once: the columns of
every J' are pushed through N lowest first, over nonzero entries only, and
terms at the same rows with the same columns left merge; N is never
inverted.  The coefficient is r^(k+1) times a rational number and r^3 is
rational, so *a = r^p Y with p = (k+1) mod 3 and Y rational (`star_parts`).

Exact linear algebra (determinants and Sylvester's test) runs
fraction-free on integer numerators over one common denominator, by one
elimination; nothing here inverts a matrix exactly.  The elimination
(Bareiss) defers the rescaling of a row whose pivot-column entry is zero
until the row is read, so a diagonal N costs one product per pivot.  For
a rational form over D, B = N / d with d = D^3, and
r^3 = (36 det N)^{1/3} / D^7 has an integer root: r^3 D^7 is rational
(vol^3 is a polynomial in phi) and its cube 36 det N is an integer.
G2Data holds N, d and r^3, and tries the rational root r = (r^3)^{1/3}
on the first read of ``exact``, ``sqrt_det`` or the metric: g = N / (d r)
and sqrt(det g) = r / 6 are Fractions where r is rational (exact data),
and raise ArithmeticError where it is not: no irrational root is taken.
G2Data keeps no float copy; a float metric comes from `metric_batch`.

`is_g2_type`, the B-map, the star and SU2FiberData take rational forms
only: they read a form's integers, and `forms.KForm._ints` refuses a float
or polynomial form with a TypeError.  Float 3-forms are coefficient rows:
`metric_batch` gives their metrics, B / (36 det B)^{1/9} with Sylvester's
test by eigenvalues, and `norm_batch` the norms of 3-form rows in those
metrics.
'''
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product

from ._numpy import np
from .forms import _INDEX, _MASKS, _SIGN, KForm, merge_sign
from .rings import RAT, _int_nth_root, nth_root_fraction

DIM = 7
TRIPLES = list(combinations(range(1, 8), 3))
TRIPLE_POS = {t: i for i, t in enumerate(TRIPLES)}

#: the reference definite 3-form; its metric is the identity
STANDARD_PHI_TERMS = (
    (Fraction(1), (1, 2, 3)), (Fraction(1), (1, 4, 5)), (Fraction(1), (1, 6, 7)),
    (Fraction(1), (2, 4, 6)), (Fraction(-1), (2, 5, 7)),
    (Fraction(-1), (3, 4, 7)), (Fraction(-1), (3, 5, 6)),
)


def standard_phi() -> KForm:
    return KForm(DIM, 3, RAT, {idx: c for c, idx in STANDARD_PHI_TERMS})


class NotStableError(ValueError):
    """The 3-form is not of definite type.  Raised for a batch of rows,
    `row` is the index of the first row that fails."""
    row = None


def _row_error(message: str, row: int) -> NotStableError:
    err = NotStableError(f"{message} at sample {row}")
    err.row = row
    return err


class OrientationMismatchError(ValueError):
    """Definite type, but for the opposite orientation of the frame."""


class DegenerateFiberError(ValueError):
    """Fiber data does not determine a positive normalisation constant."""


# --------------------------------------------------------------------------
# B(u, v) = (i_u phi)^(i_v phi)^phi
# --------------------------------------------------------------------------

PAIRS = list(combinations(range(1, DIM + 1), 2))
PAIR_POS = {p: i for i, p in enumerate(PAIRS)}


def _build_factor_tables():
    """The two sign tables of B = A K A^T, as (row, column, sign) entries
    grouped by the triple (a position in TRIPLES) whose coefficient they
    carry.  A (7 x 21) holds the 2-forms i_{e_i} phi: theta^{abc}
    contracts to +-theta^{bc}, so each triple gives three entries.  K
    (21 x 21) is the pairing top(alpha ^ beta ^ phi) = alpha^T K beta of
    2-forms: disjoint pairs p, q carry the triple complementary to both, with
    the sign of theta^p ^ theta^q ^ theta^t.  K is symmetric, since 2-forms
    commute, so B is symmetric by construction."""
    a_entries = [[] for _ in TRIPLES]
    k_entries = [[] for _ in TRIPLES]
    for t, triple in enumerate(TRIPLES):
        for pos, i in enumerate(triple):
            rest = triple[:pos] + triple[pos + 1:]
            a_entries[t].append((i - 1, PAIR_POS[rest], (-1) ** pos))
    masks = [_MASKS[pair] for pair in PAIRS]
    for p, mp in enumerate(masks):
        for q, mq in enumerate(masks):
            merged, s1 = merge_sign(mp, mq)
            if s1:
                rest = (1 << DIM) - 1 ^ mp ^ mq
                k_entries[TRIPLE_POS[_INDEX[rest]]].append((p, q, s1 * _SIGN[rest][mp | mq]))
    return a_entries, k_entries


_A_ENTRIES, _K_ENTRIES = _build_factor_tables()


def _dense_table(entries, rows):
    """The same table as a (35, rows * 21) float matrix: a coefficient row
    times it is the factor, flattened row-major.  Every factor entry comes
    from one triple, so the product is exact."""
    T = np.zeros((len(TRIPLES), rows * len(PAIRS)))
    for t, group in enumerate(entries):
        for r, c, s in group:
            T[t, len(PAIRS) * r + c] = s
    return T


@cache
def _float_tables():
    """The A and K tables as float matrices, built on the first float batch."""
    return _dense_table(_A_ENTRIES, DIM), _dense_table(_K_ENTRIES, len(PAIRS))


#: rows per block of bilinear_batch: a block's A, K, A K and B (784 floats a
#: row) stay near 128 KiB whatever the batch size
_ROWS_PER_BLOCK = 2 ** 14 // (2 * DIM * len(PAIRS) + len(PAIRS) ** 2 + DIM * DIM)


def bilinear_from_3form(phi: KForm):
    """7x7 matrix of top-form coefficients of (i_u phi)^(i_v phi)^phi.

    Returns a list of lists of Fractions for a rational form; float
    coefficient rows go to `bilinear_batch`.  B = A K A^T is symmetric
    because K is.
    """
    if phi.degree != 3 or phi.dim != DIM:
        raise ValueError("expected a 3-form in dimension 7")
    num, den = _bilinear_numerators(phi)
    return [[Fraction(x, den) for x in row] for row in num]


#: _UPPER_POS[i][j]: the position of the entry (min(i, j), max(i, j)) of a
#: symmetric 7x7 matrix in its upper triangle, listed row by row
_UPPER_PAIRS = [(i, j) for i in range(DIM) for j in range(i, DIM)]
_UPPER_POS = [[_UPPER_PAIRS.index((min(i, j), max(i, j))) for j in range(DIM)]
              for i in range(DIM)]


@cache
def _cubic_table():
    """N = A K A^T expanded into cubic monomials of the coefficients, from
    the two sign tables: table[a][b] lists (c, position, coefficient) for
    each monomial x_a x_b x_c with a < b < c (triple positions) and its
    nonzero coefficient in the upper-triangle entry at `position` of N.
    Equal monomials are summed and zero sums dropped: 735 entries over
    the full support, and the seven N_ii = +-6 x_a x_b x_c of the standard
    form's support.  No monomial repeats a triple (A's and K's triples of
    one product are distinct), which the strict order a < b < c checks."""
    a_rows, a_cols, k_rows = [[] for _ in range(DIM)], [[] for _ in PAIRS], [[] for _ in PAIRS]
    for t, group in enumerate(_A_ENTRIES):
        for i, p, s in group:
            a_rows[i].append((p, t, s))
            a_cols[p].append((i, t, s))
    for t, group in enumerate(_K_ENTRIES):
        for p, q, s in group:
            k_rows[p].append((q, t, s))
    sums = {}
    for i in range(DIM):
        for p, ta, sa in a_rows[i]:
            for q, tk, sk in k_rows[p]:
                for j, tb, sb in a_cols[q]:
                    if j >= i:
                        key = (*sorted((ta, tk, tb)), _UPPER_POS[i][j])
                        sums[key] = sums.get(key, 0) + sa * sk * sb
    table = [[[] for _ in TRIPLES] for _ in TRIPLES]
    for (a, b, c, pos), coef in sorted(sums.items()):
        if coef:
            if not a < b < c:
                raise AssertionError("a monomial of N repeats a triple")
            table[a][b].append((c, pos, coef))
    return [[tuple(entries) for entries in row] for row in table]


def _bilinear_numerators(phi: KForm):
    """(N, d) with B = N / d for a rational form: N a 7x7 integer matrix
    (nested lists) and d the cube of phi's common denominator.  N is summed
    from the cubic table, walking only the pairs a < b of phi's sorted
    support and only the entries whose c is in the support too, so the
    cost follows the support: a term-wise scaled standard form meets 7
    monomials, a dense form 735."""
    nums, den = phi._ints()
    xs = [None] * len(TRIPLES)     # the numerator at each triple position
    for idx, x in nums.items():
        xs[TRIPLE_POS[idx]] = x
    support = sorted(map(TRIPLE_POS.__getitem__, nums))
    table = _cubic_table()
    upper = [0] * len(_UPPER_PAIRS)
    for n, a in enumerate(support, 1):
        row, xa = table[a], xs[a]
        for b in support[n:]:
            entries = row[b]
            if entries:
                xab = xa * xs[b]
                for c, pos, coef in entries:
                    xc = xs[c]
                    if xc is not None:
                        upper[pos] += coef * xab * xc
    return [[upper[pos] for pos in row] for row in _UPPER_POS], den ** 3


def phi_to_vector(phi: KForm) -> np.ndarray:
    v = np.zeros(len(TRIPLES))
    for idx, c in phi.coeffs.items():
        v[TRIPLE_POS[idx]] = float(c)
    return v


def bilinear_batch(phis: np.ndarray) -> np.ndarray:
    """B matrices for a batch of 3-forms given as (n, 35) coefficient rows:
    per block of rows, A and K by one product with each table, then
    B = (A K) A^T matrix by matrix, so a row's B does not depend on its
    batch."""
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    B = np.empty((len(phis), DIM, DIM))
    a_table, k_table = _float_tables()
    for lo in range(0, len(phis), _ROWS_PER_BLOCK):
        rows = phis[lo:lo + _ROWS_PER_BLOCK]
        A = (rows @ a_table).reshape(-1, DIM, len(PAIRS))
        K = (rows @ k_table).reshape(-1, len(PAIRS), len(PAIRS))
        B[lo:lo + _ROWS_PER_BLOCK] = A @ K @ A.transpose(0, 2, 1)
    return B


def metric_batch(phis: np.ndarray):
    """(g, sqrt_det_g) arrays for a batch of coefficient rows:
    g = B / (36 det B)^{1/9}, then Sylvester's test by eigenvalues.  The
    ninth root is a Python float power per row, so a row's g does not
    depend on the batch it came in.

    Raises NotStableError, whose `row` is the index of the first row that
    fails definiteness: det B <= 0, or g not positive definite.
    """
    B = bilinear_batch(phis)
    detB = np.linalg.det(B)
    if np.any(detB <= 0):
        bad = int(np.argmax(detB <= 0))
        raise _row_error(f"det B = {detB[bad]:.3e} <= 0", bad)
    roots = np.array([(36.0 * float(d)) ** (1.0 / 9.0) for d in detB])
    g = B / roots[:, None, None]
    low = np.linalg.eigvalsh(g)[:, 0]
    if np.any(low <= 0):
        bad = int(np.argmax(low <= 0))
        raise _row_error(f"normalised metric has eigenvalue {low[bad]:.3e} <= 0", bad)
    return g, np.sqrt(np.linalg.det(g))


# --------------------------------------------------------------------------
# exact linear algebra: integer numerators over a common denominator
# --------------------------------------------------------------------------

def _bareiss(A):
    """Fraction-free (Bareiss) elimination of the square integer matrix A, in
    place.  Returns (det A, leading): the leading principal minors of A in
    order, up to the first zero one, after which rows are swapped and no
    further leading minor is known.

    Step k with pivot p_k would rescale every row whose entry in the
    pivot column is zero by p_k / p_(k-1).  The factors telescope, so such
    a row is left as it is: it keeps p_s, the pivot of the step that last
    eliminated it (1 before any), and at step k its value is p_(k-1) / p_s
    times what it holds.  A zero stays zero under the factor, so a stale
    row still shows whether it must be eliminated.  The whole factor is
    applied in one pass when the row is read: to its pivot entry at its own
    step (after a swap too), to its tail once a row below is eliminated
    against it, and, folded into the step's division, (p_k y - x z) / p_s,
    when it is eliminated.  A diagonal A costs one product per pivot; a
    dense A, whose every row is eliminated at every step, takes the classic
    path.  The entries left in A are therefore partly stale."""
    n = len(A)
    sign, prev, leading = 1, 1, []
    last = [1] * n     # last[i]: p_s of row i
    for k in range(n):
        rowk = A[k]
        if rowk[k] == 0:
            if 0 not in leading:
                leading.append(0)
            piv = next((r for r in range(k + 1, n) if A[r][k]), None)
            if piv is None:
                return 0, leading
            A[k], A[piv] = A[piv], rowk
            last[k], last[piv] = last[piv], last[k]
            rowk = A[k]
            sign = -sign
        s = last[k]
        p = rowk[k] if s == prev else prev * rowk[k] // s
        if 0 not in leading:
            leading.append(p)
        tail = None
        for i in range(k + 1, n):
            rowi = A[i]
            x = rowi[k]
            if x:
                if tail is None:
                    tail = rowk[k + 1:] if s == prev else [prev * z // s for z in rowk[k + 1:]]
                si, last[i] = last[i], p
                rowi[k + 1:] = [(p * y - x * z) // si for y, z in zip(rowi[k + 1:], tail)]
        prev = p
    return sign * prev, leading


# --------------------------------------------------------------------------
# G2Data
# --------------------------------------------------------------------------

class G2Data:
    """Metric package of a definite rational 3-form on a framed 7-dim space,
    built from integers (see the module docstring): B = N / d with
    (36 det B)^{1/3} = r3 > 0.

    ``vol_cubed`` = r3 / 216 is a Fraction, and ``exact`` (which never
    raises) says whether r = 6 sqrt(det g) is rational.  ``metric`` (7x7
    nested lists of Fractions) and ``sqrt_det`` (vol = sqrt_det
    theta^{1..7}) raise ArithmeticError where it is not.
    """

    def __init__(self, N, d: int, r3: Fraction):
        self._r3, self.vol_cubed = r3, r3 / 216
        self._ints = (N, d)

    _r = cached_property(lambda self: nth_root_fraction(self._r3, 3))
    exact = cached_property(lambda self: self._r is not None)

    def _rational_r(self) -> Fraction:
        if self._r is None:
            raise ArithmeticError(f"r = 6 vol is irrational (vol^3 = {self.vol_cubed}): read "
                                  f"vol_cubed, star_parts, or metric_batch for floats")
        return self._r

    sqrt_det = cached_property(lambda self: self._rational_r() / 6)

    @cached_property
    def metric(self) -> list:
        # g = B / r
        N, d = self._ints
        r = self._rational_r()
        return [[Fraction(x, d) / r for x in row] for row in N]


def is_g2_type(phi: KForm) -> G2Data:
    """Normalise B(phi) into a metric, exactly, for a rational 3-form; raise
    NotStableError / OrientationMismatchError when phi is not definite for
    the given frame, and TypeError for a float or polynomial form.

    vol^3 is a Fraction; the metric and volume are Fractions where vol^3
    is a rational cube, and raise ArithmeticError where it is not.
    """
    if phi.degree != 3 or phi.dim != DIM:
        raise ValueError("expected a 3-form in dimension 7")
    # B = N / d; one elimination of N gives det B and the leading minors
    # m_k of N for Sylvester's test (the list stops at a zero one)
    N, d = _bilinear_numerators(phi)
    detN, leading = _bareiss([row[:] for row in N])
    if detN == 0:
        raise NotStableError("det B = 0")
    if detN < 0:
        # -N is definite iff (-1)^k m_k > 0 for all seven k
        if all((-1) ** k * m > 0 for k, m in enumerate(leading, 1)):
            raise OrientationMismatchError(
                "3-form is definite for the opposite orientation of this frame")
        raise NotStableError("det B < 0 and no orientation flip helps")
    if min(leading) <= 0:
        raise NotStableError("normalised metric not positive definite")
    # d = D^3, so r^3 = (36 det N)^{1/3} / D^7, and the root is an integer
    r3 = Fraction(_int_nth_root(36 * detN, 3), phi._ints()[1] ** DIM)
    return G2Data(N, d, r3)


# --------------------------------------------------------------------------
# Hodge star and norms
# --------------------------------------------------------------------------

#: per degree k: the k-subsets I of {1..7} in combinations order
_SUBSETS = [list(combinations(range(1, DIM + 1), k)) for k in range(DIM + 1)]
#: for the exact kernel: per multi-index J, the mask of J' and (-1)^(sum J)
_COMPLEMENT_MASKS = {J: ((1 << DIM) - 1 ^ m, (-1) ** sum(J)) for J, m in _MASKS.items()}
#: per k and I of _SUBSETS[k]: its complement I', and I''s mask and
#: sign(I, I') (-1)^(sum I)
_COMPLEMENTS = [[_INDEX[_COMPLEMENT_MASKS[I][0]] for I in subs] for subs in _SUBSETS]
_STAR_ROWS = [[(c, _SIGN[c][c ^ (1 << DIM) - 1] * parity)
               for c, parity in map(_COMPLEMENT_MASKS.get, subs)] for subs in _SUBSETS]


def _jacobi_sums(data: G2Data, nums: dict, k: int) -> dict:
    """{mask of I': sum_J (-1)^(sum J) n_J det N[I', J']} for the integer
    numerators n_J of a rational k-form.  With Jacobi's identity and det N =
    r^9 d^7 / 36, det(g^-1[I, J]) = 36 (-1)^(sum I + sum J) det N[I', J'] /
    (d^(7-k) r^(9-k)), so these sums carry the star.  The columns of every
    J' are pushed through N together, lowest first, 7 - k times: a state is
    one int, the columns still to push in bits 0-6 over the rows reached in
    bits 7-13, and equal states merge.  Only nonzero entries of N are
    visited, so a diagonal N costs one product per state and column."""
    N = data._ints[0]
    columns = [[(1 << i, 1 << DIM + i, _SIGN[1 << i], row[c]) for i, row in enumerate(N) if row[c]]
               for c in range(DIM)]
    state = {}
    for J, n in nums.items():
        rest, parity = _COMPLEMENT_MASKS[J]
        state[rest] = parity * n
    for _ in range(DIM - k):
        pushed = {}
        for key, y in state.items():
            rows, low = key >> DIM, key & -key
            key ^= low
            for bit, row_bit, above, x in columns[low.bit_length() - 1]:
                if not rows & bit:
                    to = key | row_bit
                    # the sign is +-1: a branch, not a product of big integers
                    if above[rows] > 0:
                        pushed[to] = pushed.get(to, 0) + x * y
                    else:
                        pushed[to] = pushed.get(to, 0) - x * y
        state = pushed
    return {key >> DIM: y for key, y in state.items()}


#: the antisymmetric tensor of a 3-form row, entry (a, b, c) in row-major
#: order: the row's entry at the position of the sorted triple, times the
#: sign of the sort (0, at position 0, where two axes agree); and the
#: entries of the sorted triples, in TRIPLES order
_AXES3 = list(product(range(1, DIM + 1), repeat=3))
_TENSOR_POS = [TRIPLE_POS.get(tuple(sorted(t)), 0) for t in _AXES3]
_SORTED_POS = [_AXES3.index(t) for t in TRIPLES]


@cache
def _tensor_sign():
    """The signs of the sorts, as an array, built on the first norm."""
    return np.array([np.sign((b - a) * (c - a) * (c - b)) for a, b, c in _AXES3])


def norm_batch(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|a_i| in the metric g_i, for (n, 7, 7) metrics g (as `metric_batch`
    gives them) and (n, 35) coefficient rows of 3-forms a_i in TRIPLES
    order: |a|^2 = sum over sorted abc of a_abc a^abc, each index of a's
    antisymmetric tensor raised by g^-1 in turn.  The contractions are
    np.einsum loops, not BLAS products, and the last sum runs along each
    row, so a row gets the same bits alone or in any batch."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    ginv = np.linalg.inv(g)
    up = (rows[:, _TENSOR_POS] * _tensor_sign()).reshape(-1, DIM, DIM, DIM)
    up = np.einsum("nia,nabc->nibc", ginv, up)
    up = np.einsum("njb,nibc->nijc", ginv, up)
    up = np.einsum("nkc,nijc->nijk", ginv, up)
    return np.sqrt((rows * up.reshape(len(rows), -1)[:, _SORTED_POS]).sum(axis=1))


def star_parts(data: G2Data, a: KForm):
    """(Y, p) with *a = r^p Y for a rational k-form a on the 7-dim frame
    and the data of a rational 3-form: Y a rational (7-k)-form,
    p = (k+1) mod 3.  By sqrt(det g) = r / 6 and Jacobi's identity,
    (*a)_{I'} = sign(I, I') (-1)^(sum I) 6 r^(k+1) / (d^(7-k) r^9)
    sum_J (-1)^(sum J) a_J det N[I', J'].  With r^(k+1) = r^p (r^3)^q and
    r^3 = n / m in lowest terms, the constant is the integer ratio
    6 m^(3-q) / (d^(7-k) n^(3-q)).  The sums come from `_jacobi_sums` at
    a's degree, which sets the number of columns pushed, so the zero k-form
    has the zero (7-k)-form as its Y.  Complements whose sum has no term are
    skipped; Y keeps the complements' order.  Raises TypeError for a float
    or polynomial form and then ValueError for a form in another dimension."""
    na, da = a._ints()
    if a.dim != DIM:
        raise ValueError(f"the Hodge star takes a form in dimension {DIM}, "
                         f"got dimension {a.dim}")
    k = a.degree
    sums = _jacobi_sums(data, na, k)
    q, p = divmod(k + 1, 3)
    r3 = data._r3
    c = 6 * r3.denominator ** (3 - q)
    num = {comp: sign * c * sums[mask]
           for comp, (mask, sign) in zip(_COMPLEMENTS[k], _STAR_ROWS[k]) if mask in sums}
    den = data._ints[1] ** (DIM - k) * r3.numerator ** (3 - q) * da
    return KForm._trusted(DIM, DIM - k, RAT, num, den), p


def hodge_star(data: G2Data, a: KForm) -> KForm:
    """Hodge star for the metric of `data`, defined by a ^ *b = <a,b> vol:
    the rational form r^p Y for (Y, p) = star_parts(data, a), with r read
    through sqrt_det where p > 0 (k != 2, 5), so it raises ArithmeticError
    at an irrational r; it refuses what star_parts refuses."""
    y, p = star_parts(data, a)
    return (6 * data.sqrt_det) ** p * y if p else y


# --------------------------------------------------------------------------
# SU(2)-structure assembly on a 4-dim fiber inside the 7-dim frame
# --------------------------------------------------------------------------

@dataclass
class SU2FiberData:
    """Rational fiber data (omega, Omega), with the normalisation nu fixed by
    2 omega^2 = nu^2 Omega ^ conj(Omega); nu_sq = nu^2 is a Fraction."""
    omega: KForm
    omega_re: KForm      # Re Omega
    omega_im: KForm      # Im Omega
    nu_sq: Fraction = field(init=False)

    def __post_init__(self):
        conj_wedge = self.omega_re.wedge(self.omega_re) + self.omega_im.wedge(self.omega_im)
        two_om2 = self.omega.wedge(self.omega) + self.omega.wedge(self.omega)
        (conj, dc), (top, dt) = conj_wedge._ints(), two_om2._ints()
        ratios = {Fraction(top.get(idx, 0) * dc, c * dt) for idx, c in conj.items()}
        if len(ratios) != 1 or top.keys() != conj.keys():
            raise DegenerateFiberError("2 omega^2 not proportional to Omega^conj(Omega)")
        self.nu_sq, = ratios
        if self.nu_sq <= 0:
            raise DegenerateFiberError("normalisation nu^2 must be positive")


def su2_assemble(g1: KForm, g2: KForm, g3: KForm, fiber: SU2FiberData) -> KForm:
    """phi = g1^g2^g3 + g1^omega - g2^Re(Omega) + g3^Im(Omega)."""
    return (g1.wedge(g2).wedge(g3)
            + g1.wedge(fiber.omega)
            - g2.wedge(fiber.omega_re)
            + g3.wedge(fiber.omega_im))
