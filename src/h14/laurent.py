"""Sparse multivariate Laurent polynomials over exact coefficient fields.

A field is tagged by ``"Q"`` or by the prime ``p`` (an int), and the tag is
the only field object.  Coefficients over F_p are plain ints in
``range(p)``.  Over Q a coefficient is an exact ``int`` when it is integral
and a ``fractions.Fraction`` with denominator > 1 otherwise; never a bool,
never a float.  Most coefficients the package meets are integers, and
native ``int`` arithmetic skips the gcd of every ``Fraction`` operation; the
two forms print, compare and hash alike (``str(3) == str(Fraction(3))``).
Coefficients are combined with native ``+ - *``; the field layer is
:func:`coeff_of` (coercion of outside input), :func:`inverse` and the
in-place :func:`_axpy`, which reduces mod p over F_p and turns an integral
``Fraction`` into its numerator over Q.  These three keep the invariant.
Exponent vectors are integer tuples of fixed length and may have negative
entries.  Everything is exact; no floats.  Mixed-field polynomial arithmetic
is rejected rather than coerced.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, lru_cache

from .errors import UsageError, check_int, is_int

QQ = "Q"

_FIELD_RE = re.compile(r"F(?:p:)?([0-9]+)")


# Miller-Rabin with the first 13 prime bases is exact below _MR_LIMIT, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test for ``p < _MR_LIMIT``; cached, because
    every public ``LaurentPoly`` construction re-parses its field."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def parse_field(tag):
    """Parse a field tag: ``"Q"``, ``"Fp:<p>"`` or ``"F<p>"``."""
    if tag == QQ:
        return QQ
    if is_int(tag):
        if tag >= _MR_LIMIT:
            raise UsageError(f"field modulus {tag} is too large (must be below {_MR_LIMIT})")
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
    """Coerce an int (or bool) or Fraction into the field: over Q an int when
    integral and a Fraction otherwise, over F_p an int mod p."""
    if isinstance(value, int):
        return int(value) if field == QQ else value % field
    if isinstance(value, Fraction):
        if field == QQ:
            return value.numerator if value.denominator == 1 else value
        return value.numerator * inverse(field, value.denominator % field) % field
    raise UsageError(f"unsupported coefficient {value!r}")


def inverse(field, c):
    """Multiplicative inverse of a nonzero coefficient, in the field's form."""
    if not c:
        raise ZeroDivisionError(f"zero has no inverse in {field_name(field)}")
    if field != QQ:
        return pow(c, -1, field)
    q = 1 / Fraction(c)
    return q.numerator if q.denominator == 1 else q


def _axpy(terms: dict, c, row: dict, field):
    """``terms += c * row`` in place, dropping zero sums; reduced mod p over
    F_p, and an integral Fraction sum stored as its numerator over Q."""
    p = 0 if field == QQ else field
    for k, v in row.items():
        s = c * v
        old = terms.get(k)
        if old is not None:  # a new key skips adding 0, a Fraction op over Q
            s = old + s
        if p:
            s %= p
        elif type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)


@cache
def _term_template(n):
    """The text form of one term in n variables, ``"%s * X1^%s ... Xn^%s"``:
    ``%s`` prints every value as ``str`` does."""
    return "%s * " + " ".join(f"X{i + 1}^%s" for i in range(n))


class LaurentPoly:
    """Finite map from exponent vectors (length ``n``) to nonzero coefficients."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field=QQ, terms=None):
        check_int(n, "number of variables")
        self.n = n
        self.field = parse_field(field)
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise UsageError(f"exponent vector {exps} has length != {n}")
                for e in exps:
                    if not is_int(e):
                        raise UsageError(f"exponent vector {exps} has a non-integer entry {e!r}")
                c = coeff_of(self.field, c)
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, n, field, terms):
        """Wrap ``terms`` without copying or coercion: the keys must be length-n
        tuples and the values nonzero coefficients of the parsed ``field``, in
        the field layer's form (no integral Fraction over Q)."""
        poly = object.__new__(cls)
        poly.n, poly.field, poly.terms = n, field, terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, field=QQ):
        return cls(n, field)

    @classmethod
    def constant(cls, n, value, field=QQ):
        poly = cls(n, field)  # checks n before the exponent vector is built
        if c := coeff_of(poly.field, value):
            poly.terms[(0,) * n] = c
        return poly

    @classmethod
    def monomial(cls, n, exps, coeff=1, field=QQ):
        return cls(n, field, {tuple(exps): coeff})

    @classmethod
    def variable(cls, n, i, field=QQ):
        poly = cls(n, field)
        check_int(i, "variable index", high=n - 1)
        poly.terms[tuple(int(j == i) for j in range(n))] = 1
        return poly

    # -- basics ------------------------------------------------------------

    def _compat(self, other: "LaurentPoly"):
        if self.n != other.n:
            raise UsageError(f"ambient mismatch: {self.n} vs {other.n} variables")
        if self.field != other.field:
            raise UsageError(f"field mismatch: {field_name(self.field)} vs {field_name(other.field)}")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def support(self):
        """The set of exponent vectors carrying a nonzero coefficient."""
        return set(self.terms)

    def is_polynomial(self) -> bool:
        """True iff no support vector has a negative coordinate."""
        return all(min(exps, default=0) >= 0 for exps in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

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
        check_int(k, "polynomial power")
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
                raise UsageError(
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

    def grade_by(self, weights):
        """Split into weighted-homogeneous parts; parts sum back to self."""
        if len(weights) != self.n:
            raise UsageError(f"need {self.n} weights, got {len(weights)}")
        parts = {}
        for e, c in self.terms.items():
            d = sum(x * w for x, w in zip(e, weights))
            parts.setdefault(d, {})[e] = c
        return {d: LaurentPoly._trusted(self.n, self.field, t) for d, t in sorted(parts.items())}

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: lex-sorted terms ``coef * X1^e1 ... Xn^en``."""
        if not self.terms:
            return "0"
        template, terms = _term_template(self.n), self.terms
        return " + ".join([template % (terms[e], *e) for e in sorted(terms)])

    def __repr__(self):
        return f"LaurentPoly({self.n}, {field_name(self.field)}, {self.to_text()!r})"

    def __str__(self):
        return self.to_text()

