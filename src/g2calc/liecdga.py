'''Invariant differential on a framed Lie-group quotient.

Structure equations prescribe d of each coframe generator as a constant
2-form; d extends to all invariant forms as a degree-one derivation.  d is
linear with constant coefficients, so StructureEqs keeps it as a table:
the row of a multi-index I lists d(theta^I) as (merged index, signed
integer constant over the lcm of the equations' denominators), in the
order of the derivation's sum, and is filled on the first use of I.
`d_invariant` is one integer loop over a rational form's terms and their
rows; a float or polynomial form is refused (by `forms.KForm._ints`), as
by every exact operation.  `check_leibniz` proves on every pair of basis
monomials that the table rows make d a derivation; with `check_d_squared`
on the generators that proves d^2 = 0 on all forms.  This module also
handles the JSON model-file format used by the built-in catalogue and by
the command line tool.
'''
from __future__ import annotations

import json
import math
from fractions import Fraction

from . import forms
from .forms import _INDEX, _MASKS, KForm, _add_term, _label, merge_sign
from .rings import RAT


class JacobiError(ValueError):
    """Structure equations fail d^2 = 0."""


class LeibnizError(ValueError):
    """The table rows of d break the Leibniz rule."""


class PrimitiveMismatch(ValueError):
    """A claimed primitive does not differentiate to its target."""


class StructureEqs:
    """d(theta^i) for each generator, as constant-coefficient 2-forms, and
    d(theta^I) for each multi-index I, as a table row made on first use."""

    def __init__(self, dim: int, d_gen, generators):
        self.dim = dim
        self.generators = tuple(generators)
        if len(self.generators) != dim:
            raise ValueError("need one generator name per axis")
        checked = []
        for i in range(dim):
            f = d_gen[i]
            if f is None:
                f = KForm.zero(dim, 2, RAT)
            if f.degree != 2 or f.dim != dim or f.ring != RAT:
                raise ValueError("structure equations must be rational 2-forms")
            checked.append(f)
        # a tuple, so that the table built from it cannot go stale
        self.d_gen = tuple(checked)
        # d(theta^i) as (mask of pair, n) rows over self._den
        ints = [f._ints() for f in self.d_gen]
        self._den = math.lcm(*(d for _, d in ints))
        self._gen_rows = tuple(
            tuple((_MASKS[pair], n * (self._den // d)) for pair, n in num.items())
            for num, d in ints)
        # multi-index -> row of d
        self._table = {}

    def _row(self, idx) -> tuple:
        """d(theta^idx) as (merged index, k) pairs, k / _den the signed
        constant: sum_k (-1)^(k-1) theta^(i_1..) ^ d(theta^(i_k)) ^ ..,
        term by term in that order.  A pair of d(theta^(i_k)) whose mask
        meets that of the rest of idx repeats an axis and is skipped before
        merge_sign.  Kept in the table."""
        m = _MASKS[idx]
        row = []
        for pos, axis in enumerate(idx):
            m_rest = m ^ (1 << (axis - 1))
            for m_pair, n in self._gen_rows[axis - 1]:
                if m_pair & m_rest:
                    continue
                merged, sign = merge_sign(m_pair, m_rest)
                row.append((merged, n if (sign == 1) == (pos % 2 == 0) else -n))
        row = self._table[idx] = tuple(row)
        return row


def d_invariant(eqs: StructureEqs, form: KForm) -> KForm:
    """Derivation extension of the structure equations.

    d(theta^I) = sum_k (-1)^{k-1} theta^{i_1..} ^ d(theta^{i_k}) ^ ..theta^{i_m},
    collected with constant coefficients: each term of the rational form
    meets the table row of its index, integer numerators times the row's
    integers, over the product of the denominators.  Raises ValueError when
    the form's dimension is not that of the equations, and TypeError for a
    float or polynomial form.
    """
    dim = eqs.dim
    if form.dim != dim:
        raise ValueError(f"d_invariant got a form in dimension {form.dim} for "
                         f"structure equations in dimension {dim}")
    terms, den = form._ints()
    if form.degree >= dim:
        return KForm.zero(dim, dim)
    table, out = eqs._table, {}
    for idx, c in terms.items():
        row = table.get(idx)
        if row is None:
            row = eqs._row(idx)
        for merged, k in row:
            _add_term(out, merged, c * k)
    return KForm._trusted(dim, form.degree + 1, RAT, out, den * eqs._den)


def check_d_squared(eqs: StructureEqs) -> None:
    """Raise JacobiError unless d^2 vanishes on every generator."""
    for i in range(eqs.dim):
        theta = KForm.basis(eqs.dim, (i + 1,))
        dd = d_invariant(eqs, d_invariant(eqs, theta))
        if not dd.is_zero():
            raise JacobiError(
                f"d^2({eqs.generators[i]}) = {dd} != 0; structure constants "
                "do not satisfy the Jacobi identity")


def check_leibniz(eqs: StructureEqs) -> int:
    """Raise LeibnizError unless the table rows of d satisfy
    d(theta^A ^ theta^B) = d(theta^A) ^ theta^B + (-1)^|A| theta^A ^ d(theta^B)
    on every ordered pair of nonempty masks below 1 << dim, pairs that
    share an axis included; return the number of pairs, (2^dim - 1)^2.

    The rows are those d_invariant reads, by mask, and the signs those of
    forms._SIGN, the table merge_sign reads; a product of two masks that
    meet is zero, as in every kernel.  d and the wedge are linear, so the
    rule then holds for all forms, and with d^2 = 0 on the generators so
    does d^2 = 0: d^2 is then a derivation that vanishes on the generators,
    and in an associative algebra (forms.wedge_associativity proves the
    table is one) every basis monomial is a product of generators."""
    sign, n = forms._SIGN, 1 << eqs.dim
    rows = [[(_MASKS[idx], k) for idx, k in eqs._table.get(_INDEX[m]) or eqs._row(_INDEX[m])]
            for m in range(n)]
    for a in range(1, n):
        odd = a.bit_count() & 1
        for b in range(1, n):
            diff = {}       # d(A ^ B) - dA ^ B - (-1)^|A| A ^ dB, by mask
            if not a & b:
                s = sign[b][a]
                for m, k in rows[a | b]:
                    diff[m] = diff.get(m, 0) + s * k
            for m, k in rows[a]:
                if not m & b:
                    diff[m | b] = diff.get(m | b, 0) - sign[b][m] * k
            for m, k in rows[b]:
                if not a & m:
                    t = sign[m][a] * k
                    diff[a | m] = diff.get(a | m, 0) + (t if odd else -t)
            if any(diff.values()):
                A, B = _label(_INDEX[a]), _label(_INDEX[b])
                raise LeibnizError(
                    f"d({A} ^ {B}) != d({A}) ^ {B} {'-' if odd else '+'} {A} ^ d({B}) "
                    "in the table rows of d")
    return (n - 1) ** 2


def verify_primitive(eqs: StructureEqs, primitive: KForm, target: KForm) -> None:
    """Check d(primitive) == target in exact arithmetic, else raise
    PrimitiveMismatch naming both forms; a float or polynomial form raises
    TypeError."""
    got = d_invariant(eqs, primitive)
    target._ints()      # refuses a float or polynomial target
    if got != target:
        raise PrimitiveMismatch(f"d(primitive) = {got}, expected {target}")


# --------------------------------------------------------------------------
# JSON model files
#
# {"dim": 7,
#  "generators": ["t1", ...],
#  "d": {"t4": [["1", [1,2]]], ...},          # omitted generators are closed
#  "named_forms": {"phi": [["1",[1,2,3]], ...]},   # optional, any degree
#  "involution": {"t1": "-1", ...},           # optional diagonal pullback:
#                                             # 1 or -1 for every generator
#  "witnesses": {"name": {"primitive": [...], "target": [...]}},  # optional
#  "domain_volume": "2.0"}                    # optional, positive and finite
# --------------------------------------------------------------------------

def _frac(s) -> Fraction:
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"rational {s!r} has a zero denominator") from None
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ValueError(f"rationals must be strings or ints, got {s!r}")


def _form_from_json(dim, entries) -> KForm:
    terms = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
            raise ValueError(f"term {entry!r} is not a [coefficient, index list] pair")
        c, idx = entry
        try:
            terms.append((tuple(idx), _frac(c)))
        except ValueError as e:
            raise ValueError(f"term {entry!r}: {e}") from None
        if any(idx.count(i) > 1 for i in idx):    # no hashing: an axis may be a list
            raise ValueError(f"term {entry!r} repeats an axis in its multi-index")
    deg = len(terms[0][0]) if terms else 0
    return KForm.from_terms(dim, deg, terms)


def _form_to_json(form: KForm):
    return [[str(c), list(idx)] for idx, c in sorted(form.coeffs.items())]


class InvariantModel:
    """Structure equations and named forms, plus optional involution / witnesses."""

    def __init__(self, eqs: StructureEqs, named_forms, involution=None,
                 witnesses=None, domain_volume=None, *, label):
        self.eqs = eqs
        self.named_forms = dict(named_forms)
        self.involution = dict(involution or {})   # generator -> Fraction(+-1)
        self.witnesses = dict(witnesses or {})     # name -> (primitive, target)
        self.domain_volume = domain_volume
        self.label = label

    def involution_pullback(self, form: KForm) -> KForm:
        """The pullback of a rational form along the diagonal involution:
        each term times the signs of its axes."""
        if not self.involution:
            raise ValueError("model carries no involution")
        num, den = form._ints()
        signs = [int(self.involution[g]) for g in self.eqs.generators]
        return KForm._trusted(form.dim, form.degree, RAT, {
            idx: n * math.prod(signs[axis - 1] for axis in idx) for idx, n in num.items()}, den)


def load_model(path) -> InvariantModel:
    with open(path) as fh:
        data = json.load(fh)
    return model_from_dict(data)


def _required(data, key, where="the model"):
    """data[key]; a missing key raises ValueError naming it."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{where} has no {key!r} entry") from None


def model_from_dict(data) -> InvariantModel:
    if not isinstance(data, dict):
        raise ValueError(f"the model is a {type(data).__name__}, not a JSON object")
    dim = int(_required(data, "dim"))
    gens = _required(data, "generators")
    if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
        raise ValueError(f"'generators' must be a list of names, got {gens!r}")
    dmap = data.get("d", {})
    if len(set(gens)) != len(gens):
        raise ValueError(f"generator names repeat: {gens}")
    for key in ("d", "involution"):
        unknown = sorted(set(data.get(key, {})) - set(gens))
        if unknown:
            raise ValueError(f"{key!r} names generators {unknown} that are not "
                             f"in 'generators' {gens}")
    d_gen = []
    for g in gens:
        if g in dmap:
            d_gen.append(_form_from_json(dim, dmap[g]))
        else:
            d_gen.append(KForm.zero(dim, 2, RAT))
    eqs = StructureEqs(dim, d_gen, gens)
    check_d_squared(eqs)
    named = {k: _form_from_json(dim, v) for k, v in data.get("named_forms", {}).items()}
    invo = {k: _frac(v) for k, v in data.get("involution", {}).items()}
    if "involution" in data:
        bad = [f"{k}={v}" for k, v in invo.items() if abs(v) != 1]
        if bad:
            raise ValueError(f"involution values must be 1 or -1, got {bad}")
        missing = [g for g in gens if g not in invo]
        if missing:
            raise ValueError(f"involution omits generators {missing}; it must "
                             "give a sign for every generator")
    wits = {}
    for name, w in data.get("witnesses", {}).items():
        where = f"witness {name!r}"
        wits[name] = (_form_from_json(dim, _required(w, "primitive", where)),
                      _form_from_json(dim, _required(w, "target", where)))
    vol = _domain_volume(data["domain_volume"]) if "domain_volume" in data else None
    return InvariantModel(eqs, named, invo, wits, vol, label=data.get("label", ""))


def _domain_volume(s) -> float:
    """The "domain_volume" entry as a positive finite float."""
    try:
        vol = math.nan if isinstance(s, bool) else float(s)
    except (TypeError, ValueError):
        vol = math.nan
    if not (math.isfinite(vol) and vol > 0):     # NaN fails both
        raise ValueError(f"'domain_volume' must be a positive finite number, got {s!r}")
    return vol


def model_to_dict(model: InvariantModel) -> dict:
    eqs = model.eqs
    data = {"dim": eqs.dim, "generators": list(eqs.generators), "d": {}}
    for g, f in zip(eqs.generators, eqs.d_gen):
        if not f.is_zero():
            data["d"][g] = _form_to_json(f)
    if model.named_forms:
        data["named_forms"] = {k: _form_to_json(v) for k, v in model.named_forms.items()}
    if model.involution:
        data["involution"] = {k: str(v) for k, v in model.involution.items()}
    if model.witnesses:
        data["witnesses"] = {k: {"primitive": _form_to_json(p), "target": _form_to_json(t)}
                             for k, (p, t) in model.witnesses.items()}
    if model.domain_volume is not None:
        data["domain_volume"] = repr(model.domain_volume)
    if model.label:
        data["label"] = model.label
    return data
