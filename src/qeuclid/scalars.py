"""Exact scalar arithmetic: Q(zeta_m) and Laurent polynomials in a generic q.

All coefficient work in the package funnels through the two value types
here:

* :class:`Cyclotomic` -- an element of the m-th cyclotomic field (m odd,
  >= 3), stored canonically in the power basis 1, zeta, ..., zeta^(phi(m)-1)
  modulo the m-th cyclotomic polynomial.  Two elements are equal iff their
  coordinate vectors are equal, so equality is decidable and exact.
* :class:`QLaurent` -- a Laurent polynomial in a generic symbol q with
  rational coefficients, used for identity checks that hold at every q.
  Integral coefficients are kept as int, the others as Fraction.

Rationals are stdlib :class:`fractions.Fraction` (always reduced, positive
denominator, arbitrary precision).
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, mul, sub


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

    Computed by exact division of x^m - 1 by its cofactor.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    return tuple(_poly_divexact_int(num, list(cyclotomic_cofactor(m))))


@lru_cache(maxsize=None)
def cyclotomic_cofactor(m: int) -> tuple[int, ...]:
    """(x^m - 1) / Phi_m, the product of the cyclotomic polynomials of
    the proper divisors of m, as integer coefficients, degree 0 first."""
    cofactor = [1]
    for d in _divisors(m)[:-1]:
        cofactor = _poly_mul_int(cofactor, list(cyclotomic_polynomial(d)))
    return tuple(cofactor)


# ---------------------------------------------------------------------------
# coefficient-vector arithmetic in Q(zeta_m)
# ---------------------------------------------------------------------------
#
# An element is carried as ``(nums, den)``: ``nums`` holds phi(m) integers
# (power-basis coordinates modulo the m-th cyclotomic polynomial) and
# ``den`` is a positive common denominator.  The pair is normalized: the
# gcd of all numerators and the denominator is 1, and the zero vector has
# den == 1.  ``wrap`` is the field's sparse wrap table: ``wrap[k - phi]``
# holds the nonzero (column, coefficient) pairs of zeta^k for
# phi <= k < m (Phi_m is monic over Z, so they are integers).  Degrees
# >= m fold for free, since zeta^m = 1.

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
    return tuple(v // g for v in nums), den // g     # 0 becomes (0, ...) / 1


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


def _fold(res, high, wrap):
    """Add high[t] * zeta^(phi + t) into res through the wrap table."""
    for t, c in enumerate(high):
        if c:
            for col, coef in wrap[t]:
                res[col] += c * coef
    return res


def _int_mul(anums, bnums, wrap):
    """Integer coordinates of a product: convolve the nonzero entries,
    fold degrees >= m mod x^m - 1, then fold the rest through ``wrap``."""
    d = len(anums)
    m = d + len(wrap)
    bnz = [(j, b) for j, b in enumerate(bnums) if b]
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(anums):
        if a:
            for j, b in bnz:
                conv[i + j] += a * b
    for k in range(m, 2 * d - 1):
        conv[k - m] += conv[k]
    return _fold(conv[:d], conv[d:m], wrap)


def vec_mul(anums, aden, bnums, bden, wrap):
    """Product in the power basis, normalized."""
    return vec_normalize(_int_mul(anums, bnums, wrap), aden * bden)


def _conjugate(nums, j, wrap):
    """sigma_j(zeta) = zeta^j on integer coordinates: lift, send x^i to
    x^(ij mod m), fold back through ``wrap``; costs no more than a
    rotation."""
    d = len(nums)
    m = d + len(wrap)
    lifted = [0] * m
    for i, c in enumerate(nums):
        if c:
            lifted[i * j % m] += c
    return _fold(lifted[:d], lifted[d:], wrap)


def vec_rotate(nums, e, wrap):
    """zeta^e times the element with coordinates nums (0 <= e < m): lift
    into Z[x]/(x^m - 1), rotate by e, fold back through ``wrap``.  A unit
    of Z[zeta] keeps the content, so the denominator carries over and the
    result is already canonical."""
    d = len(nums)
    lifted = list(nums) + [0] * len(wrap)
    cut = len(lifted) - e
    rotated = lifted[cut:] + lifted[:cut]
    return tuple(_fold(rotated[:d], rotated[d:], wrap))


def vec_orbit_key(nums, cofactor, m):
    """(R, s): the key of the orbit {zeta^e v} of a nonzero element v
    with integer coordinates nums, and the place of v in it.

    K = lift(nums) * (x^m - 1) / Phi_m (``cofactor`` holds its nonzero
    (degree, coefficient) pairs) has degree below m, is zero only for
    v = 0, and K of zeta * v is K rotated one place, since both are
    x * lift(nums) * cofactor mod x^m - 1.  For odd m the m values
    zeta^e v are distinct, hence so are the m rotations of K: the least
    one, R, keys the orbit, and K is R rotated by s places.  The least
    rotation starts at a least entry of K, so only those are compared."""
    d = len(nums)
    key = [0] * m
    for j, c in cofactor:
        part = nums if c in (1, -1) else map(mul, nums, repeat(abs(c)))
        key[j:j + d] = map(add if c > 0 else sub, key[j:j + d], part)
    low, twice = min(key), key + key
    s = min((i for i, v in enumerate(key) if v == low),
            key=lambda i: twice[i:i + m])
    return tuple(twice[s:s + m]), s


def vec_orbit_hash(nums, points, modulus, m):
    """A hash of the orbit {zeta^e v} of the element v with integer
    coordinates nums, cheaper than its key.  ``points`` holds g^i for
    i < phi(m) and ``modulus`` is Phi_m(g) for an integer g >= 2:
    zeta -> g is a ring map Z[zeta] -> Z/Phi_m(g) that sends zeta^e v to
    g^e v(g), and g^m = 1 there, since Phi_m(g) divides g^m - 1.  So
    v(g)^m is one value on the whole orbit."""
    return pow(sum(map(mul, nums, points)), m, modulus)


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
    """Q(zeta_m) for odd m >= 3, with its wrap table and the nonzero
    terms of the cofactor (x^m - 1) / Phi_m; powers of zeta are formed
    when first asked for.

    Instances are interned per m, so field identity checks are cheap.
    """

    __slots__ = ("m", "degree", "wrap", "cofactor", "_zeta_powers", "_wrap_exps")

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
        # rows[t] = coordinates of zeta^(d + t), t = 0 .. m-d-1: zeta^d =
        # -(phi[:d]), and each next one is the previous one times zeta
        rows = []
        top = rep = tuple(-c for c in phi[:d])
        for _ in range(d, m):
            rows.append(rep)
            c = rep[d - 1]
            rep = (0,) + rep[:d - 1]
            if c:
                rep = tuple(map(add, rep, map(mul, top, repeat(c))))
        self.wrap = tuple(tuple(zip(compress(count(), row), filter(None, row)))
                          for row in rows)
        self.cofactor = tuple((j, c) for j, c in enumerate(cyclotomic_cofactor(m))
                              if c)
        self._zeta_powers = {}
        self._wrap_exps = {row: d + t for t, row in enumerate(rows)}
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

    def scalar(self, value) -> "Cyclotomic":
        f = Fraction(value)
        return self.element([f.numerator], f.denominator)

    def zero(self) -> "Cyclotomic":
        return self.scalar(0)

    def one(self) -> "Cyclotomic":
        return self.scalar(1)

    def zeta_pow(self, e: int) -> "Cyclotomic":
        """zeta^e reduced into the power basis (e arbitrary integer): a
        unit vector below phi(m), a wrap row from there on."""
        e %= self.m
        power = self._zeta_powers.get(e)
        if power is None:
            d = self.degree
            nums = [0] * d
            if e < d:
                nums[e] = 1
            else:
                for col, coef in self.wrap[e - d]:
                    nums[col] = coef
            power = self._zeta_powers[e] = Cyclotomic(self, tuple(nums), 1)
        return power

    def inv_one_minus(self, e: int) -> "Cyclotomic":
        """1 / (1 - zeta^e) for zeta^e != 1, with no product: since
        x = zeta^e has x^m = 1 and 1 + x + ... + x^(m-1) = 0,
        (1 - x) * sum over j < m of j x^j = -m."""
        m, d = self.m, self.degree
        e %= m
        if not e:
            raise ZeroDivisionError("1 - zeta^0 is zero")
        lifted = [0] * m
        for j in range(1, m):
            lifted[e * j % m] -= j
        return Cyclotomic(self, *vec_normalize(
            _fold(lifted[:d], lifted[d:], self.wrap), m))

    def zeta_exponent(self, c: "Cyclotomic"):
        """e with c == zeta^e, or None when c is no power of zeta."""
        if c.den != 1:
            return None
        nums = c.nums
        if nums.count(0) == self.degree - 1 and 1 in nums:
            return nums.index(1)
        return self._wrap_exps.get(nums)


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
        field = self.field
        e = field.zeta_exponent(other)
        if e is not None:
            return Cyclotomic(field, vec_rotate(self.nums, e, field.wrap), self.den)
        e = field.zeta_exponent(self)
        if e is not None:
            return Cyclotomic(field, vec_rotate(other.nums, e, field.wrap), other.den)
        return Cyclotomic(field, *vec_mul(
            self.nums, self.den, other.nums, other.den, field.wrap))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse by the norm.  With A the integer
        numerators, 1 / (A / den) = den * P / N(A), where P is the
        product of the conjugates sigma_j(A) over j in (Z/m)^*, j != 1,
        and N(A) = A * P is a nonzero rational integer.  Everything
        stays in integers until that one division."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        field = self.field
        m, wrap = field.m, field.wrap
        prod = [1] + [0] * (field.degree - 1)
        for j in range(2, m):
            if gcd(j, m) == 1:
                prod = _int_mul(prod, _conjugate(self.nums, j, wrap), wrap)
        norm = _int_mul(self.nums, prod, wrap)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError("norm is not a nonzero rational; "
                                  "corrupted field data")
        return Cyclotomic(field, *vec_normalize(
            [v * self.den for v in prod], norm[0]))

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
        """Equal coordinates; elements of two fields are never equal."""
        if isinstance(other, Cyclotomic) and other.field is not self.field:
            return False
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        """A rational element hashes as the Fraction it equals."""
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field.m, self.nums, self.den))

    def to_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self):
        return _terms_text(enumerate(self.to_fractions()), "z")


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

def _rational(c):
    """An int or (reduced) Fraction as an int when it is integral; int
    and Fraction of equal value compare and hash equal, so the choice
    never shows."""
    return c.numerator if type(c) is not int and c.denominator == 1 else c


class QLaurent:
    """Laurent polynomial in q over Q, canonical (no zero coefficients).

    Every rewrite-rule coefficient lies in Z[q, q^-1], so coefficients
    are ints unless a true rational enters (a literal such as "1/5" or
    a negative power)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _rational(c)
                if c:
                    clean[e] = c
        self.terms = clean

    @staticmethod
    def q_pow(e: int) -> "QLaurent":
        return QLaurent({e: 1})

    @staticmethod
    def const(value) -> "QLaurent":
        return QLaurent({0: value})

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
            out[e] = out.get(e, 0) + c
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
                out[e] = out.get(e, 0) + c1 * c2
        return QLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return QLaurent(_raise(self.terms, e))

    def substitute(self, m: int, k: int) -> Cyclotomic:
        """Evaluate at q = zeta_m^k: each coefficient, over one common
        denominator, is added at exponent k e mod m of a list of m
        integers, which folds once through the field's wrap table."""
        field = CyclotomicField(m)
        if gcd(k, m) != 1:
            raise ValueError("q not primitive")
        terms, d = self.terms, field.degree
        den = lcm(*(c.denominator for c in terms.values()))
        lifted = [0] * m
        for e, c in terms.items():
            lifted[k * e % m] += c.numerator * (den // c.denominator)
        return Cyclotomic(field, *vec_normalize(
            _fold(lifted[:d], lifted[d:], field.wrap), den))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        """A constant hashes as the rational it equals."""
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return _terms_text(sorted(self.terms.items()), "q")


def _terms_text(terms, symbol: str) -> str:
    """(exponent, rational) pairs as "c0 + c1*z - z^2 ...", zeros left
    out; "0" when all are zero."""
    parts = []
    for e, c in terms:
        if not c:
            continue
        mag = str(abs(c))
        if e == 0:
            body = mag
        else:
            power = symbol if e == 1 else f"{symbol}^{e}"
            body = power if mag == "1" else f"{mag}*{power}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "+ 0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# text encoding (config files, reports, CLI element syntax)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[xy]\d+|q|\^|\*|/|\+|\-|\(|\))")


def tokenize(text: str):
    """The tokens of text, each after optional white space, in one scan;
    when they do not make up the whole text, the first bad one is named."""
    out = _TOKEN_RE.findall(text)
    if "".join(out) == "".join(text.split()) and not text[-1:].isspace():
        return out
    pos = 0
    while match := _TOKEN_RE.match(text, pos):
        pos = match.end()
    raise ValueError(f"bad token at {text[pos:pos + 10]!r}")


# Bound on |e| * _power_size(base) for a power written in a literal, so
# that "2^99999999999" or "(1+q)^100000" is refused instead of computed.
# (1+q)^128 and 2^128 are the largest powers of 1+q and of 2 it allows.
# Because the bound scales with the base, a nested power such as
# "((1+q)^64)^64" is refused too.
MAX_LITERAL_POWER = 256

# Work budget of one literal: the summed sizes of its products (width
# times summed bit lengths) plus the _power_size of every power and sum
# it forms, so that a chain "(1+q)^128*(1+q)^128*..." or a sum
# "(1+q)^128+(1+q)^128+..." is refused instead of computed.
# (1+q)^128*(1+q)^128 (two powers of size 129 * 125 and a product of
# size 257 * 250) is the largest product of two such powers it allows;
# a third factor or a fifth term is refused.
MAX_LITERAL_WORK = 131072

# Bound on the nesting of parentheses and unary minus signs in a
# literal: each level costs the parser at most four Python frames, so
# this depth stays inside the interpreter's default recursion limit.
MAX_LITERAL_DEPTH = 200


def _shape(terms) -> tuple[int, int]:
    """(degree width, largest coefficient bit length) of a dict of
    nonzero terms; (0, 0) for 0 and q^a."""
    if not terms or (len(terms) == 1 and 1 in terms.values()):
        return 0, 0
    width = max(terms) - min(terms) + 1
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in terms.values())
    return width, bits


def _power_size(terms) -> int:
    """Degree width times the largest coefficient bit length; 0 for q^a.

    base^e has at most e times the width in terms and about e times the
    bits per coefficient, so e * size bounds the work of the power.  A
    pure power of q stays one term with coefficient 1 at any exponent.
    """
    return mul(*_shape(terms))


def _times(a, b) -> dict:
    """The nonzero terms of the product of two dicts of terms; a
    monomial factor shifts and scales the other one."""
    if len(a) == 1:
        a, b = b, a
    if len(b) != 1:
        return (QLaurent(a) * QLaurent(b)).terms
    (s, k), = b.items()
    return {e + s: k if c == 1 else c if k == 1 else c * k for e, c in a.items()}


def _raise(terms, e: int) -> dict:
    """The terms of a dict of terms to the power e: a monomial c q^a in
    one step, to c^e q^(a e), anything else by binary powering (e >= 0)."""
    if len(terms) == 1:
        (a, c), = terms.items()
        return {a * e: c ** e if e >= 0 else Fraction(1) / c ** -e}
    if e < 0:
        raise ValueError("only monomials are invertible in QLaurent")
    return _power(QLaurent(terms), e, QLaurent.const(1)).terms


_SIGNS = ("+", "-")


class _ScalarParser:
    """Recursive-descent parser for q-Laurent scalar expressions.

    Grammar: sums/differences of products of factors; a factor is an
    integer, a rational a/b, q, any of those with ^exponent, or a
    parenthesized expression.  A power of anything but a pure power of q
    is bounded by MAX_LITERAL_POWER, the products, powers and sums of
    the whole literal together by MAX_LITERAL_WORK, and the nesting of
    parentheses and unary minus signs by MAX_LITERAL_DEPTH.

    Values are read as dicts of nonzero terms, exponent -> coefficient,
    and become one QLaurent at the end; a sum accumulates in place.  The
    token list ends in None, and reading that None always raises.
    """

    def __init__(self, tokens):
        self.tokens = [*tokens, None]
        self.pos = 0
        self.work = 0
        self.depth = 0

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def charge(self, what: str, size: int):
        self.work += size
        if self.work > MAX_LITERAL_WORK:
            raise ValueError(f"{what} too large: the literal's summed work "
                             f"exceeds {MAX_LITERAL_WORK}")

    def parse(self) -> QLaurent:
        terms = self.expr()
        if self.tokens[self.pos] is not None:
            raise ValueError(f"trailing input {self.tokens[self.pos]!r}")
        return QLaurent(terms)

    def expr(self) -> dict:
        tokens, terms, first = self.tokens, {}, True
        while first or tokens[self.pos] in _SIGNS:
            negate = False
            while tokens[self.pos] in _SIGNS:
                negate ^= self.take() == "-"
            for e, c in self.term().items():
                c = terms.pop(e, 0) + (-c if negate else c)
                if c:
                    terms[e] = c
            if not first:
                self.charge("sums", _power_size(terms))
            first = False
        return terms

    def term(self) -> dict:
        value = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            factor = self.factor()
            # width times bits that bound the product; 0 for a shift
            (wa, ba), (wb, bb) = _shape(value), _shape(factor)
            self.charge("products", (wa + wb - 1) * (ba + bb) if wa and wb else 0)
            value = _times(value, factor)
        return value

    def factor(self) -> dict:
        base = self.atom()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            e = self.exponent()
            if abs(e) * _power_size(base) > MAX_LITERAL_POWER:
                raise ValueError(
                    f"exponent {e} too large for its base: |exponent| times "
                    f"base size exceeds {MAX_LITERAL_POWER}")
            base = _raise(base, e)
            self.charge("powers", _power_size(base))
        return base

    def exponent(self) -> int:
        negate = self.tokens[self.pos] == "-"
        self.pos += negate
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected integer exponent, got {tok!r}")
        return -int(tok) if negate else int(tok)

    def atom(self) -> dict:
        tok = self.take()
        if tok == "q":
            return {1: 1}
        if tok is not None and tok.isdigit():
            c = int(tok)
            if self.tokens[self.pos] == "/":
                self.pos += 1
                den = self.take()
                if den is None or not den.isdigit():
                    raise ValueError("malformed rational literal")
                if not int(den):
                    raise ValueError(f'zero denominator in "{tok}/{den}"')
                c = Fraction(c, int(den))
            return {0: c} if c else {}
        if tok not in ("(", "-"):
            raise ValueError(f"unexpected token {tok!r}")
        self.depth += 1
        if self.depth > MAX_LITERAL_DEPTH:
            raise ValueError(f"literal nested deeper than "
                             f"{MAX_LITERAL_DEPTH} parentheses and signs")
        if tok == "-":
            value = {e: -c for e, c in self.factor().items()}
        else:
            value = self.expr()
            if (got := self.take()) != ")":
                raise ValueError(f"expected ')', got {got!r}")
        self.depth -= 1
        return value


def parse_qlaurent(text: str) -> QLaurent:
    return _ScalarParser(tokenize(text)).parse()


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _coordinate(value) -> tuple[int, int]:
    """One zeta-basis coordinate as (numerator, positive denominator),
    not necessarily reduced: an int (not a bool) or a rational string
    such as "-2/3" or "5"; floats, exponents and anything else are
    refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        num, _, den = value.partition("/")
        den = int(den) if den else 1
        if not den:
            raise ValueError(f'zero denominator in "{value}"')
        return int(num), den
    raise ValueError(f"coordinate {value!r} is not an integer or a "
                     f"rational string such as \"-2/3\"")


def parse_cyclotomic(value, m: int, k: int) -> Cyclotomic:
    """Decode a config-file scalar.

    Accepts an array of coordinates in the zeta basis (ints or rational
    strings, e.g. ["1", "-2/3"]), an int, or a string holding a
    q-expression such as "q^2" or "(1-q^-2)", evaluated at q = zeta_m^k.
    Coordinates are read as integer numerators over one common
    denominator.
    """
    field = CyclotomicField(m)
    if isinstance(value, (list, tuple)):
        if len(value) > field.degree:
            raise ValueError(
                f"coefficient vector longer than phi({m}) = {field.degree}")
        coords = [_coordinate(s) for s in value]
        den = lcm(*(d for _, d in coords))
        return field.element([v * (den // d) for v, d in coords], den)
    if isinstance(value, str):
        return parse_qlaurent(value).substitute(m, k)
    if isinstance(value, int) and not isinstance(value, bool):
        return field.element([value])
    raise ValueError(f"cannot parse cyclotomic literal {value!r}")


@contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on int-to-str digits (where it has one) for
    the duration of the block; the limit stays on for parsing."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def encode_cyclotomic(c: Cyclotomic) -> list[str]:
    """Canonical wire form: rational strings for all phi(m) coordinates.

    Each coordinate v / den is written in lowest terms, as str(Fraction)
    would.  Computed values such as alpha_1^m can have more digits than
    Python converts by default, so they are written with the limit lifted.
    """
    den, out = c.den, []
    with _unlimited_int_digits():
        for v in c.nums:
            g = gcd(v, den)
            out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out
