"""Monomial exact matrices over a cyclotomic field, plus null-space dimension.

Every module generator acts by scale-and-shift on the basis, so its
matrix has at most one nonzero entry per row: row r is coeffs[r] times
the unit row vector of column cols[r], or zero when cols[r] is None.
Products are compositions of these maps, one scalar product per row.
"""

from __future__ import annotations


def compose_row(a: "CycMatrix", b: "CycMatrix", r: int):
    """Row r of the product a b as (column, coefficient), or (None, None).

    Stored coefficients are nonzero, so a product of two is nonzero too.
    """
    t = a.cols[r]
    if t is None:
        return None, None
    c = b.cols[t]
    if c is None:
        return None, None
    return c, a.coeffs[r] * b.coeffs[t]


class CycMatrix:
    """d x d matrix over a fixed CyclotomicField, at most one entry per row:
    row r is coeffs[r] at column cols[r], or zero when cols[r] is None."""

    __slots__ = ("field", "dim", "cols", "coeffs")

    def __init__(self, field, dim, cols=None, coeffs=None):
        self.field = field
        self.dim = dim
        self.cols = cols if cols is not None else [None] * dim
        self.coeffs = coeffs if coeffs is not None else [None] * dim

    def set(self, r, c, value):
        """Make row r the single entry value at column c (zero clears it)."""
        if value.is_zero():
            self.cols[r] = self.coeffs[r] = None
        else:
            self.cols[r], self.coeffs[r] = c, value

    def get(self, r, c):
        if self.cols[r] == c:
            return self.coeffs[r]
        return self.field.zero()

    def entries(self):
        for r, c in enumerate(self.cols):
            if c is not None:
                yield r, c, self.coeffs[r]

    def copy(self) -> "CycMatrix":
        return CycMatrix(self.field, self.dim, list(self.cols), list(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return (self.field is other.field and self.dim == other.dim
                and self.cols == other.cols and self.coeffs == other.coeffs)

    def __matmul__(self, other):
        """Composition, one scalar product per row."""
        if self.field is not other.field or self.dim != other.dim:
            raise ValueError("matrix shape or field mismatch")
        out = CycMatrix(self.field, self.dim)
        for r in range(self.dim):
            out.cols[r], out.coeffs[r] = compose_row(self, other, r)
        return out

    def __pow__(self, e: int) -> "CycMatrix":
        """e-fold composition.  The checks never form powers: the central
        ones are read off the cycles of the map (verify.central_power)."""
        if e < 0:
            raise ValueError("negative matrix powers not supported")
        result = CycMatrix(self.field, self.dim, list(range(self.dim)),
                           [self.field.one()] * self.dim)
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
