"""Sparse multivariate Laurent polynomials over exact coefficient fields.

A field is tagged by ``"Q"`` or by the prime ``p`` (an int), and the tag is
the only field object.  Coefficients are ``fractions.Fraction`` over Q and
plain ints in ``range(p)`` over F_p, combined with native ``+ - *``; the
field layer is :func:`coeff_of` (coercion of outside input), :func:`inverse`
and the in-place :func:`_axpy`, which reduces mod p only over F_p.  Exponent
vectors are integer tuples of fixed length and may have negative entries.
Everything is exact; no floats.  Mixed-field polynomial arithmetic is
rejected rather than coerced.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldMismatchError, UsageError

QQ = "Q"

_FIELD_RE = re.compile(r"F(?:p:)?([0-9]+)")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def parse_field(tag):
    """Parse a field tag: ``"Q"``, ``"Fp:<p>"`` or ``"F<p>"``."""
    if tag == QQ:
        return QQ
    if isinstance(tag, int):
        if not _is_prime(tag):
            raise UsageError(f"field modulus {tag} is not prime")
        return tag
    s = str(tag).strip()
    if s == "Q":
        return QQ
    m = _FIELD_RE.fullmatch(s)
    if not m:
        raise UsageError(f"unrecognized field tag {tag!r} (expected Q or Fp:<prime>)")
    return parse_field(int(m.group(1)))


def field_name(field) -> str:
    return "Q" if field == QQ else f"Fp:{field}"


def coeff_of(field, value):
    """Coerce an int or Fraction into the field (a Fraction, or an int mod p)."""
    if isinstance(value, (int, Fraction)):
        if field == QQ:
            return Fraction(value)
        if isinstance(value, int):
            return value % field
        return value.numerator * inverse(field, value.denominator % field) % field
    raise UsageError(f"unsupported coefficient {value!r}")


def inverse(field, c):
    """Multiplicative inverse of a nonzero coefficient (a Fraction over Q)."""
    if not c:
        raise ZeroDivisionError(f"zero has no inverse in {field_name(field)}")
    return 1 / Fraction(c) if field == QQ else pow(c, -1, field)


def _axpy(terms: dict, c, row: dict, field):
    """``terms += c * row`` in place, dropping zero sums; reduced mod p over F_p."""
    p = 0 if field == QQ else field
    for k, v in row.items():
        s = c * v
        old = terms.get(k)
        if old is not None:  # a new key skips adding 0, a Fraction op over Q
            s = old + s
        if p:
            s %= p
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)


class LaurentPoly:
    """Finite map from exponent vectors (length ``n``) to nonzero coefficients."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field=QQ, terms=None):
        self.n = n
        self.field = parse_field(field)
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise UsageError(f"exponent vector {exps} has length != {n}")
                c = coeff_of(self.field, c)
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, n, field, terms):
        """Wrap ``terms`` without copying or coercion: the keys must be length-n
        tuples and the values nonzero coefficients of the parsed ``field``."""
        poly = object.__new__(cls)
        poly.n, poly.field, poly.terms = n, field, terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, field=QQ):
        return cls(n, field)

    @classmethod
    def constant(cls, n, value, field=QQ):
        return cls(n, field, {(0,) * n: value})

    @classmethod
    def monomial(cls, n, exps, coeff=1, field=QQ):
        return cls(n, field, {tuple(exps): coeff})

    @classmethod
    def variable(cls, n, i, field=QQ):
        e = [0] * n
        e[i] = 1
        return cls(n, field, {tuple(e): 1})

    # -- basics ------------------------------------------------------------

    def _compat(self, other: "LaurentPoly"):
        if self.n != other.n:
            raise UsageError(f"ambient mismatch: {self.n} vs {other.n} variables")
        if self.field != other.field:
            raise FieldMismatchError(
                f"field mismatch: {field_name(self.field)} vs {field_name(other.field)}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.n, coeff_of(self.field, 0))

    def support(self):
        """The set of exponent vectors carrying a nonzero coefficient."""
        return set(self.terms)

    def is_polynomial(self) -> bool:
        """True iff no support vector has a negative coordinate."""
        return all(min(exps, default=0) >= 0 for exps in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), coeff_of(self.field, 0))

    def sorted_terms(self):
        """Terms in lexicographic exponent order (the canonical order)."""
        return [(e, self.terms[e]) for e in sorted(self.terms)]

    # -- arithmetic --------------------------------------------------------

    def _plus(self, c, other):
        """``self + c * other`` for a polynomial or scalar ``other``."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.n, other, self.field)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        _axpy(out, c, other.terms, self.field)
        return LaurentPoly._trusted(self.n, self.field, out)

    def __add__(self, other):
        return self._plus(1, other)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        return self._plus(-1, other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c):
        out = {}
        _axpy(out, c, self.terms, self.field)
        return LaurentPoly._trusted(self.n, self.field, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(coeff_of(self.field, other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        out = {}
        for e1, c1 in self.terms.items():
            shifted = {
                tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in other.terms.items()
            }
            _axpy(out, c1, shifted, self.field)
        return LaurentPoly._trusted(self.n, self.field, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise UsageError("polynomial power must be a nonnegative integer")
        result = LaurentPoly.constant(self.n, 1, self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.n, other, self.field)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------

    def substitute(self, images):
        """Image under the monomial homomorphism sending variable i to images[i].

        Every image must be a single-term Laurent monomial; all images live in
        a common ambient ring, which becomes the ambient of the result.
        """
        if len(images) != self.n:
            raise UsageError(f"need {self.n} images, got {len(images)}")
        vecs = []
        coefs = []
        m = None
        for idx, img in enumerate(images):
            if not isinstance(img, LaurentPoly) or not img.is_monomial():
                raise UsageError(f"image {idx} is not a Laurent monomial")
            if img.field != self.field:
                raise FieldMismatchError(
                    f"image {idx} lives in {field_name(img.field)}, "
                    f"polynomial in {field_name(self.field)}"
                )
            if m is None:
                m = img.n
            elif img.n != m:
                raise UsageError("images live in different ambient rings")
            ((vec, coef),) = img.terms.items()
            vecs.append(vec)
            coefs.append(coef)
        if m is None:
            raise UsageError("substitute needs at least one image")
        invs = [inverse(self.field, ci) for ci in coefs]
        out = {}
        for e, c in self.terms.items():
            vec = [0] * m
            factor = 1
            for ei, v, ci, inv in zip(e, vecs, coefs, invs):
                if ei:
                    for j in range(m):
                        vec[j] += ei * v[j]
                    factor = factor * (ci ** ei if ei > 0 else inv ** -ei)
            _axpy(out, factor, {tuple(vec): c}, self.field)
        return LaurentPoly._trusted(m, self.field, out)

    def partial_derivative(self, i: int) -> "LaurentPoly":
        """Term-wise derivative in variable ``i`` (exact in the field)."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                _axpy(out, e[i], {tuple(ne): c}, self.field)
        return LaurentPoly._trusted(self.n, self.field, out)

    def weighted_degree_of(self, exps, weights) -> int:
        return sum(e * w for e, w in zip(exps, weights))

    def grade_by(self, weights):
        """Split into weighted-homogeneous parts; parts sum back to self."""
        if len(weights) != self.n:
            raise UsageError(f"need {self.n} weights, got {len(weights)}")
        parts = {}
        for e, c in self.terms.items():
            d = sum(x * w for x, w in zip(e, weights))
            parts.setdefault(d, {})[e] = c
        return {d: LaurentPoly._trusted(self.n, self.field, t) for d, t in sorted(parts.items())}

    def is_homogeneous(self, weights):
        return len(self.grade_by(weights)) <= 1

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: lex-sorted terms ``coef * X1^e1 ... Xn^en``."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = " ".join(f"X{i + 1}^{x}" for i, x in enumerate(e))
            parts.append(f"{c} * {mono}")
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, field=QQ, n=None):
        """Inverse of :meth:`to_text`; bit-exact round trip."""
        field = parse_field(field)
        text = text.strip()
        if text == "0":
            if n is None:
                raise UsageError("cannot infer variable count from the zero polynomial")
            return cls.zero(n, field)
        terms = {}
        for part in text.split(" + "):
            coef_s, _, mono_s = part.partition(" * ")
            exps = []
            for atom in mono_s.split():
                m = re.fullmatch(r"X([0-9]+)\^(-?[0-9]+)", atom)
                if not m:
                    raise UsageError(f"bad monomial atom {atom!r}")
                idx, e = int(m.group(1)), int(m.group(2))
                if idx != len(exps) + 1:
                    raise UsageError(f"variables out of order near {atom!r}")
                exps.append(e)
            if n is None:
                n = len(exps)
            if len(exps) != n:
                raise UsageError(f"term has {len(exps)} variables, expected {n}")
            _axpy(terms, coeff_of(field, Fraction(coef_s)), {tuple(exps): 1}, field)
        return cls._trusted(n, field, terms)

    def __repr__(self):
        return f"LaurentPoly({self.n}, {field_name(self.field)}, {self.to_text()!r})"

    def __str__(self):
        return self.to_text()

