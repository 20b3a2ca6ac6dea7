"""Monomial exact matrices over a cyclotomic field, their coefficient
table, plus null-space dimension.

Every module generator acts by scale-and-shift on the basis, so its
matrix has at most one nonzero entry per row: row r is the coefficient
with code codes[r] times the unit row vector of column cols[r], or zero
when cols[r] is None.  Products are compositions of these maps, one
product of codes per row.

A code is the integer b*m + e and means zeta^e * bases[b] in the
:class:`ScalarTable` that the matrices of one module share.  Each base
stands for its whole orbit {zeta^e v}, so two codes are equal exactly
when their values are, and every comparison of coefficients is a
comparison of integers.  Products of codes add exponents mod m and look
the product of the two bases up in a memo, and a sum of two codes is
memoized on the code pair, so a module whose coefficients are few bases
times powers of q needs few scalar products and sums however many rows
it has.
"""

from __future__ import annotations

from .scalars import (Cyclotomic, cyclotomic_polynomial, vec_orbit_hash,
                      vec_orbit_key, vec_rotate)


class ScalarTable:
    """The nonzero coefficients of one module's matrices, hash-consed.

    ``bases`` holds one value of each orbit {zeta^e v} met, the value it
    was first met as; base 0 is 1, so code e (0 <= e < m) means zeta^e.
    A value is looked up on its canonical (nums, den).  A value not seen
    before is placed by its orbit hash (``vec_orbit_hash``, at points
    the table forms, so a field no table uses never holds them) and den:
    in an empty bucket it starts a new orbit, else the orbit keys
    (``vec_orbit_key``) of the value and of the bucket's bases decide
    which orbit holds it and at which exponent.  So equal codes mean
    equal values and unequal codes unequal ones.  Products of bases (on
    unordered pairs), sums (on unordered pairs of codes), powers of
    bases and materialized values are memoized here, and the table only
    grows, so matrices that share it stay valid.
    """

    __slots__ = ("field", "m", "bases", "_points", "_modulus", "_codes", "_orbits",
                 "_keys", "_values", "_products", "_sums", "_powers")

    def __init__(self, field):
        self.field = field
        self.m = field.m
        # vec_orbit_hash at g = 2^t, with t chosen so that Phi_m(g) has
        # about 64 bits or more
        d = field.degree
        t = -(-64 // d)
        self._points = tuple(1 << (t * i) for i in range(d))
        self._modulus = sum(c << (t * i)
                            for i, c in enumerate(cyclotomic_polynomial(self.m)))
        self.bases = []
        self._codes = {}
        self._orbits = {}
        self._keys = {}
        self._values = {}
        self._products = {}
        self._sums = {}
        self._powers = {}
        self.intern(field.one())

    def intern(self, value: Cyclotomic) -> int:
        """The code of a nonzero value: zeta^e times the base of its
        orbit, which the value becomes when the orbit is new."""
        key = (value.nums, value.den)
        code = self._codes.get(key)
        if code is None:
            orbit = vec_orbit_hash(value.nums, self._points, self._modulus, self.m)
            bucket = self._orbits.setdefault((orbit, value.den), [])
            code = self._place(value, bucket)
            if code is None:
                code = len(self.bases) * self.m
                self.bases.append(value)
                bucket.append(code)
            self._codes[key] = code
            self._values.setdefault(code, value)
        return code

    def _place(self, value, bucket):
        """zeta^e times the code of the base in ``bucket`` whose orbit
        holds value, or None; orbit keys are formed here only, once per
        base."""
        if not bucket:
            return None
        m, cofactor = self.m, self.field.cofactor
        rotation, s = vec_orbit_key(value.nums, cofactor, m)
        for start in bucket:
            known = self._keys.get(start)
            if known is None:
                known = self._keys[start] = vec_orbit_key(
                    self.bases[start // m].nums, cofactor, m)
            if known[0] == rotation:
                return start + (s - known[1]) % m
        return None

    def value(self, code: int) -> Cyclotomic:
        """The value of a code: the value first interned under it, else
        its base rotated once, memoized."""
        value = self._values.get(code)
        if value is None:
            b, e = divmod(code, self.m)
            base = self.bases[b]
            value = Cyclotomic(self.field, vec_rotate(base.nums, e, self.field.wrap),
                               base.den)
            self._values[code] = value
        return value

    def shift(self, code: int, j: int) -> int:
        """The code of zeta^j times the value of code."""
        return code - code % self.m + (code + j) % self.m

    def mul(self, a: int, b: int) -> int:
        """The code of a product: exponents add, bases multiply once."""
        m = self.m
        ea, eb = a % m, b % m
        ka, kb = a - ea, b - eb
        key = (ka, kb) if ka <= kb else (kb, ka)
        p = self._products.get(key)
        if p is None:
            p = self._products[key] = self.intern(
                self.bases[ka // m] * self.bases[kb // m])
        return p - p % m + (p + ea + eb) % m

    def add(self, a: int, b: int):
        """The code of a sum, or None when it is zero; memoized on the
        unordered code pair."""
        key = (a, b) if a <= b else (b, a)
        if key not in self._sums:
            total = self.value(a) + self.value(b)
            self._sums[key] = None if total.is_zero() else self.intern(total)
        return self._sums[key]

    def power(self, code: int, k: int) -> int:
        """The code of value^k for k >= 1: (zeta^e B)^k = zeta^(ek) B^k,
        with B^k formed once per base and k."""
        e = code % self.m
        key = (code - e, k)
        p = self._powers.get(key)
        if p is None:
            p = self._powers[key] = self.intern(self.bases[key[0] // self.m] ** k)
        return self.shift(p, e * k)


class CycMatrix:
    """d x d matrix over the field of a ScalarTable, at most one entry per
    row: row r is the value of codes[r] at column cols[r], or zero when
    cols[r] is None."""

    __slots__ = ("table", "dim", "cols", "codes")

    def __init__(self, table: ScalarTable, dim, cols=None, codes=None):
        self.table = table
        self.dim = dim
        self.cols = cols if cols is not None else [None] * dim
        self.codes = codes if codes is not None else [None] * dim

    @property
    def field(self):
        return self.table.field

    def set(self, r, c, value):
        """Make row r the single entry value at column c (zero clears it)."""
        if value.is_zero():
            self.cols[r] = self.codes[r] = None
        else:
            self.cols[r], self.codes[r] = c, self.table.intern(value)

    def get(self, r, c):
        if self.cols[r] == c:
            return self.table.value(self.codes[r])
        return self.field.zero()

    def entries(self):
        value = self.table.value
        for r, c in enumerate(self.cols):
            if c is not None:
                yield r, c, value(self.codes[r])

    def copy(self) -> "CycMatrix":
        return CycMatrix(self.table, self.dim, list(self.cols), list(self.codes))

    def __matmul__(self, other):
        """Composition, one product of codes per row: row r follows
        cols[r] into the other map.  Stored coefficients are nonzero, so
        a product of two is nonzero too.  Rows repeat few code pairs, so
        each pair's product is looked up once per composition."""
        if self.table is not other.table or self.dim != other.dim:
            raise ValueError("matrix shape or scalar table mismatch")
        mul = self.table.mul
        ocols, ocodes = other.cols, other.codes
        out = CycMatrix(self.table, self.dim)
        cols, codes = out.cols, out.codes
        pairs = {}
        for r, (t, a) in enumerate(zip(self.cols, self.codes)):
            if t is not None and ocols[t] is not None:
                key = (a, ocodes[t])
                c = pairs.get(key)
                if c is None:
                    c = pairs[key] = mul(*key)
                cols[r], codes[r] = ocols[t], c
        return out

    def __pow__(self, e: int) -> "CycMatrix":
        """e-fold composition.  The checks never form powers: the central
        ones are read off the cycles of the map (verify.central_power)."""
        if e < 0:
            raise ValueError("negative matrix powers not supported")
        result = CycMatrix(self.table, self.dim, list(range(self.dim)),
                           [0] * self.dim)
        for _ in range(e):
            result = result @ self
        return result

    def __repr__(self):
        nnz = sum(c is not None for c in self.cols)
        return f"CycMatrix({self.dim}x{self.dim}, {nnz} nonzero)"


def nullspace_dimension(equations, ncols: int) -> int:
    """Dimension of the solution space of a homogeneous exact linear system.

    ``equations`` is an iterable of sparse rows (dict col -> scalar) over
    one cyclotomic field.  Plain Gaussian elimination with exact field
    arithmetic.  No check calls it: it is the reference solver of the
    tests' commutant oracle.
    """
    pivots: dict[int, dict] = {}
    for eq in equations:
        row = dict(eq)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                lead_inv = row[col].inv()
                pivots[col] = {c: lead_inv * v for c, v in row.items()}
                break
            factor = row[col]
            for c, v in piv.items():
                cur = row.get(c)
                cur = -factor * v if cur is None else cur - factor * v
                if cur.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = cur
    return ncols - len(pivots)
