"""Exact scalar arithmetic: Q(zeta_m) and Laurent polynomials in a generic q.

All coefficient work in the package funnels through the two value types
here:

* :class:`Cyclotomic` -- an element of the m-th cyclotomic field (m odd,
  >= 3), stored canonically in the power basis 1, zeta, ..., zeta^(phi(m)-1)
  modulo the m-th cyclotomic polynomial.  Two elements are equal iff their
  coordinate vectors are equal, so equality is decidable and exact.
* :class:`QLaurent` -- a Laurent polynomial in a generic symbol q with
  rational coefficients, used for identity checks that hold at every q.

Rationals are stdlib :class:`fractions.Fraction` (always reduced, positive
denominator, arbitrary precision).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients listed from degree 0 upward)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return _poly_trim(out)


def _poly_divexact_int(num, den):
    """Exact division of integer polynomials; raises if not exact."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % lead:
            raise ArithmeticError("polynomial division not exact")
        q[k] = c // lead
        if q[k]:
            for j, dv in enumerate(den):
                num[k + j] -= q[k] * dv
    if any(num):
        raise ArithmeticError("polynomial division not exact")
    return q


def _divisors(m):
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def euler_phi(m: int) -> int:
    result, rem, p = 1, m, 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if rem > 1:
        result *= rem - 1
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """m-th cyclotomic polynomial as integer coefficients, degree 0 first.

    Computed by exact division of x^m - 1 by the product of the
    cyclotomic polynomials of the proper divisors of m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in _divisors(m):
        if d < m:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_divexact_int(num, den))


# ---------------------------------------------------------------------------
# Q[x] helpers with Fraction coefficients, for inversion mod Phi_m
# ---------------------------------------------------------------------------

def _qpoly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _qpoly_divmod(a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        q[k] = c
        if c:
            for j, bv in enumerate(b):
                a[k + j] -= c * bv
    return _qpoly_trim(q), _qpoly_trim(a)


def _qpoly_xgcd(a, b):
    """(g, u) with u*a = g mod b, g the monic-free gcd (a constant here)."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = _qpoly_divmod(r0, r1)
        r0, r1 = r1, r
        nu = list(u0)
        for i, qc in enumerate(q):
            if qc:
                while len(nu) < i + len(u1):
                    nu.append(Fraction(0))
                for j, uc in enumerate(u1):
                    if uc:
                        nu[i + j] -= qc * uc
        u0, u1 = u1, _qpoly_trim(nu)
    return r0, u0


# ---------------------------------------------------------------------------
# coefficient-vector arithmetic in Q(zeta_m)
# ---------------------------------------------------------------------------
#
# An element is carried as ``(nums, den)``: ``nums`` holds phi(m) integers
# (power-basis coordinates modulo the m-th cyclotomic polynomial) and
# ``den`` is a positive common denominator.  The pair is normalized: the
# gcd of all numerators and the denominator is 1, and the zero vector has
# den == 1.  ``red`` is the field's reduction table: ``red[t]`` gives the
# integer coordinates of zeta^(d+t) for t = 0 .. d-2 (Phi_m is monic over Z).

def vec_normalize(nums, den):
    """Reduce (nums, den) to canonical form: den > 0, content coprime to den."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            return tuple(nums), den
    if g == 0:
        # all numerators zero and den == 0 cannot happen (den > 0 invariant)
        return tuple(nums), 1
    if g > 1:
        nums = [v // g for v in nums]
        den //= g
    if den == 1 and not any(nums):
        return tuple(nums), 1
    return tuple(nums), den


def vec_add(anums, aden, bnums, bden):
    if aden == bden:
        return vec_normalize([a + b for a, b in zip(anums, bnums)], aden)
    return vec_normalize(
        [a * bden + b * aden for a, b in zip(anums, bnums)], aden * bden)


def vec_sub(anums, aden, bnums, bden):
    if aden == bden:
        return vec_normalize([a - b for a, b in zip(anums, bnums)], aden)
    return vec_normalize(
        [a * bden - b * aden for a, b in zip(anums, bnums)], aden * bden)


def vec_mul(anums, aden, bnums, bden, red):
    """Product in the power basis: convolve, then fold degrees >= d via red."""
    d = len(anums)
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(anums):
        if a:
            for j, b in enumerate(bnums):
                if b:
                    conv[i + j] += a * b
    res = conv[:d]
    for t in range(d - 1):
        c = conv[d + t]
        if c:
            row = red[t]
            for j in range(d):
                rv = row[j]
                if rv:
                    res[j] += c * rv
    return vec_normalize(res, aden * bden)


def _power(base, e: int, one):
    """base^e for e >= 0 by binary powering: start at the lowest set bit
    and square no further than the top bit, so e = 3 costs 2 products."""
    if e == 0:
        return one
    while not e & 1:
        base = base * base
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = base * base
        if e & 1:
            result = result * base
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# the cyclotomic field and its elements
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[int, "CyclotomicField"] = {}


class CyclotomicField:
    """Q(zeta_m) for odd m >= 3, with precomputed reduction data.

    Instances are interned per m, so field identity checks are cheap.
    """

    __slots__ = ("m", "degree", "modulus", "reduction", "_zeta_cache")

    def __new__(cls, m: int):
        if m in _FIELD_CACHE:
            return _FIELD_CACHE[m]
        if m < 3 or m % 2 == 0:
            raise ValueError("m must be odd >= 3")
        self = object.__new__(cls)
        self.m = m
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        self.degree = d
        self.modulus = phi
        # reduction[t] = coordinates of zeta^(d+t), t = 0 .. d-2
        rows = []
        rep = [-c for c in phi[:d]]
        rows.append(tuple(rep))
        for _ in range(d - 2):
            top = rep[d - 1]
            rep = [0] + rep[:d - 1]
            if top:
                for j in range(d):
                    rep[j] += top * rows[0][j]
            rows.append(tuple(rep))
        self.reduction = tuple(rows)
        self._zeta_cache = {}
        _FIELD_CACHE[m] = self
        return self

    def __repr__(self):
        return f"CyclotomicField({self.m})"

    def element(self, nums, den=1) -> "Cyclotomic":
        nums = list(nums) + [0] * (self.degree - len(nums))
        if len(nums) != self.degree:
            raise ValueError(
                f"coefficient vector longer than phi({self.m}) = {self.degree}")
        return Cyclotomic(self, *vec_normalize(nums, den))

    def from_fractions(self, fracs) -> "Cyclotomic":
        fracs = list(fracs)
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        return self.element(nums, den)

    def scalar(self, value) -> "Cyclotomic":
        f = Fraction(value)
        return self.element([f.numerator], f.denominator)

    def zero(self) -> "Cyclotomic":
        return self.scalar(0)

    def one(self) -> "Cyclotomic":
        return self.scalar(1)

    def zeta_pow(self, e: int) -> "Cyclotomic":
        """zeta^e reduced into the power basis (e arbitrary integer)."""
        e %= self.m
        if e not in self._zeta_cache:
            if e < self.degree:
                nums = [0] * self.degree
                nums[e] = 1
                self._zeta_cache[e] = self.element(nums)
            else:
                prev = self.zeta_pow(e - 1)
                zeta = self.zeta_pow(1)
                self._zeta_cache[e] = prev * zeta
        return self._zeta_cache[e]


class Cyclotomic:
    """Element of Q(zeta_m) in canonical power-basis coordinates."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den):
        self.field = field
        self.nums = nums
        self.den = den

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.field is not self.field:
                raise ValueError("operands live in different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.field, *vec_add(
            self.nums, self.den, other.nums, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.field, *vec_sub(
            self.nums, self.den, other.nums, other.den))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-v for v in self.nums), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.field, *vec_mul(
            self.nums, self.den, other.nums, other.den, self.field.reduction))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm
        of the representing polynomial against the cyclotomic modulus."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        p = [Fraction(n, self.den) for n in self.nums]
        modulus = [Fraction(c) for c in self.field.modulus]
        g, u = _qpoly_xgcd(_qpoly_trim(p), modulus)
        if len(g) != 1:
            raise ArithmeticError("modulus not coprime; corrupted field data")
        ginv = 1 / g[0]
        u = [c * ginv for c in u]
        _, rem = _qpoly_divmod(u, modulus)
        rem += [Fraction(0)] * (self.field.degree - len(rem))
        return self.field.from_fractions(rem)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, self.field.one())

    # -- equality / hashing / display ---------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.field.m, self.nums, self.den))

    def to_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, f in enumerate(self.to_fractions()):
            if not f:
                continue
            mag = str(abs(f))
            if e == 0:
                body = mag
            else:
                zpow = "z" if e == 1 else f"z^{e}"
                body = zpow if mag == "1" else f"{mag}*{zpow}"
            parts.append(("- " if f < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def root_of_unity(m: int, k: int) -> Cyclotomic:
    """zeta_m^k for gcd(k, m) = 1; the primitive root the instance runs at.

    m must be odd and >= 3: the module constructions divide by 1 - q^(-2),
    which vanishes exactly when m divides 2.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be odd >= 3")
    if gcd(k, m) != 1:
        raise ValueError("q not primitive")
    return CyclotomicField(m).zeta_pow(k)


# ---------------------------------------------------------------------------
# Laurent polynomials in a generic q
# ---------------------------------------------------------------------------

class QLaurent:
    """Laurent polynomial in q over Q, canonical (no zero coefficients)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[e] = c
        self.terms = clean

    @staticmethod
    def q_pow(e: int) -> "QLaurent":
        return QLaurent({e: 1})

    @staticmethod
    def const(value) -> "QLaurent":
        return QLaurent({0: Fraction(value)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, QLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return QLaurent.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return QLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return QLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            if len(self.terms) != 1:
                raise ValueError("only monomials are invertible in QLaurent")
            (exp, c), = self.terms.items()
            return QLaurent({exp * e: Fraction(1) / c ** (-e)})
        return _power(self, e, QLaurent.const(1))

    def exact_div(self, other: "QLaurent"):
        """Quotient if ``other`` divides ``self`` exactly, else None."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_zero():
            return QLaurent()
        lo_s, lo_o = min(self.terms), min(other.terms)
        a = self._dense(lo_s)
        b = other._dense(lo_o)
        q, r = _qpoly_divmod(a, b)
        if r:
            return None
        return QLaurent({i + lo_s - lo_o: c for i, c in enumerate(q) if c})

    def _dense(self, lo):
        hi = max(self.terms)
        out = [Fraction(0)] * (hi - lo + 1)
        for e, c in self.terms.items():
            out[e - lo] = c
        return out

    def substitute(self, m: int, k: int) -> Cyclotomic:
        """Evaluate at q = zeta_m^k."""
        field = CyclotomicField(m)
        if gcd(k, m) != 1:
            raise ValueError("q not primitive")
        out = field.zero()
        for e, c in self.terms.items():
            out = out + field.zeta_pow(k * e) * c
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = str(abs(c))
            if e == 0:
                body = mag
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == "1" else f"{mag}*{qp}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# text encoding (config files, reports, CLI element syntax)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[xy]\d+|q|\^|\*|/|\+|\-|\(|\))")


def tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ValueError(f"bad token at {text[pos:pos + 10]!r}")
        out.append(match.group(1))
        pos = match.end()
    return out


# Bound on |e| * _power_size(base) for a power written in a literal, so
# that "2^99999999999" or "(1+q)^100000" is refused instead of computed.
# (1+q)^128 and 2^128 are the largest powers of 1+q and of 2 it allows.
# Because the bound scales with the base, a nested power such as
# "((1+q)^64)^64" is refused too.
MAX_LITERAL_POWER = 256

# Work budget of one literal: the summed _product_size of its products
# plus the _power_size of every power and sum it forms, so that a chain
# "(1+q)^128*(1+q)^128*..." or a sum "(1+q)^128+(1+q)^128+..." is
# refused instead of computed.  (1+q)^128*(1+q)^128 (two powers of size
# 129 * 125 and a product of size 257 * 250) is the largest product of
# two such powers it allows; a third factor or a fifth term is refused.
MAX_LITERAL_WORK = 131072


def _shape(p: QLaurent) -> tuple[int, int]:
    """(degree width, largest coefficient bit length); (0, 0) for 0 and q^a."""
    if not p.terms or (len(p.terms) == 1 and 1 in p.terms.values()):
        return 0, 0
    width = max(p.terms) - min(p.terms) + 1
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in p.terms.values())
    return width, bits


def _power_size(p: QLaurent) -> int:
    """Degree width times the largest coefficient bit length; 0 for q^a.

    base^e has at most e times the width in terms and about e times the
    bits per coefficient, so e * size bounds the work of the power.  A
    pure power of q stays one term with coefficient 1 at any exponent.
    """
    width, bits = _shape(p)
    return width * bits


def _product_size(a: QLaurent, b: QLaurent) -> int:
    """Width times bits that bound a * b; 0 when either factor is 0 or a
    pure power of q, since the product is then a shift."""
    (wa, ba), (wb, bb) = _shape(a), _shape(b)
    if not (wa and wb):
        return 0
    return (wa + wb - 1) * (ba + bb)


class _ScalarParser:
    """Recursive-descent parser for q-Laurent scalar expressions.

    Grammar: sums/differences of products of factors; a factor is an
    integer, a rational a/b, q, any of those with ^exponent, or a
    parenthesized expression.  A power of anything but a pure power of q
    is bounded by MAX_LITERAL_POWER, and the products, powers and sums of
    the whole literal together by MAX_LITERAL_WORK.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def charge(self, what: str, size: int):
        self.work += size
        if self.work > MAX_LITERAL_WORK:
            raise ValueError(f"{what} too large: the literal's summed work "
                             f"exceeds {MAX_LITERAL_WORK}")

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.peek()!r}")
        return value

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.term() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            value = value + self.term() * sign
            self.charge("sums", _power_size(value))
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            factor = self.factor()
            self.charge("products", _product_size(value, factor))
            value = value * factor
        return value

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if abs(e) * _power_size(base) > MAX_LITERAL_POWER:
                raise ValueError(
                    f"exponent {e} too large for its base: |exponent| times "
                    f"base size exceeds {MAX_LITERAL_POWER}")
            base = base ** e
            self.charge("powers", _power_size(base))
        return base

    def exponent(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected integer exponent, got {tok!r}")
        return sign * int(tok)

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok == "q":
            return QLaurent.q_pow(1)
        if tok == "-":
            return -self.factor()
        if tok is not None and tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if den is None or not den.isdigit():
                    raise ValueError("malformed rational literal")
                return QLaurent.const(Fraction(num, int(den)))
            return QLaurent.const(num)
        raise ValueError(f"unexpected token {tok!r}")


def parse_qlaurent(text: str) -> QLaurent:
    return _ScalarParser(tokenize(text)).parse()


def parse_cyclotomic(value, m: int, k: int) -> Cyclotomic:
    """Decode a config-file scalar.

    Accepts either an array of rational strings (coordinates in the zeta
    basis, e.g. ["1", "-2/3"]) or a string holding a q-expression such as
    "q^2" or "(1-q^-2)", evaluated at q = zeta_m^k.
    """
    field = CyclotomicField(m)
    if isinstance(value, (list, tuple)):
        fracs = [Fraction(s) for s in value]
        if len(fracs) > field.degree:
            raise ValueError(
                f"coefficient vector longer than phi({m}) = {field.degree}")
        return field.from_fractions(
            fracs + [Fraction(0)] * (field.degree - len(fracs)))
    if isinstance(value, str):
        return parse_qlaurent(value).substitute(m, k)
    if isinstance(value, int):
        return field.scalar(value)
    raise ValueError(f"cannot parse cyclotomic literal {value!r}")


def encode_cyclotomic(c: Cyclotomic) -> list[str]:
    """Canonical wire form: rational strings for all phi(m) coordinates."""
    return [str(f) for f in c.to_fractions()]
