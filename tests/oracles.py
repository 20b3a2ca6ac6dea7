"""Slow, obviously correct oracles for the fast checks in qeuclid.verify.

``DictMatrix`` is a general sparse matrix (a dict of rows, each a dict
col -> nonzero scalar) with sums, scaling, products and powers by
repeated squaring.  The ``oracle_*`` functions decide the relation,
omega and central-power checks the direct way: form every product and
residual matrix and test it for zero or for a scalar.
``full_commutant_dimension`` solves for all d^2 entries of a commuting
matrix by Gaussian elimination.
"""

from __future__ import annotations

from qeuclid.linalg import CycMatrix, nullspace_dimension
from qeuclid.rewriter import all_gens, gen_name, xgen, ygen
from qeuclid.verify import expected_central_values


class DictMatrix:
    """Sparse d x d matrix over a fixed CyclotomicField."""

    __slots__ = ("field", "dim", "rows")

    def __init__(self, field, dim, rows=None):
        self.field = field
        self.dim = dim
        self.rows = rows if rows is not None else {}

    @classmethod
    def of(cls, mat: CycMatrix) -> "DictMatrix":
        return cls(mat.field, mat.dim, {r: {c: v} for r, c, v in mat.entries()})

    @classmethod
    def identity(cls, field, dim):
        one = field.one()
        return cls(field, dim, {i: {i: one} for i in range(dim)})

    @classmethod
    def zero(cls, field, dim):
        return cls(field, dim, {})

    def set(self, r, c, value):
        if value.is_zero():
            row = self.rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del self.rows[r]
        else:
            self.rows.setdefault(r, {})[c] = value

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, self.field.zero())

    def entries(self):
        for r, row in self.rows.items():
            for c, v in row.items():
                yield r, c, v

    def is_zero(self) -> bool:
        return not self.rows

    def copy(self) -> "DictMatrix":
        return DictMatrix(self.field, self.dim,
                          {r: dict(row) for r, row in self.rows.items()})

    def __eq__(self, other):
        if not isinstance(other, DictMatrix):
            return NotImplemented
        return (self.field is other.field and self.dim == other.dim
                and self.rows == other.rows)

    def __add__(self, other):
        out = self.copy()
        for r, c, v in other.entries():
            out.set(r, c, out.get(r, c) + v)
        return out

    def __sub__(self, other):
        out = self.copy()
        for r, c, v in other.entries():
            out.set(r, c, out.get(r, c) - v)
        return out

    def scale(self, scalar) -> "DictMatrix":
        if scalar.is_zero():
            return DictMatrix.zero(self.field, self.dim)
        return DictMatrix(self.field, self.dim,
                          {r: {c: scalar * v for c, v in row.items()}
                           for r, row in self.rows.items()})

    def __matmul__(self, other):
        out = DictMatrix(self.field, self.dim)
        for r, row in self.rows.items():
            acc: dict = {}
            for t, v in row.items():
                for c, w in other.rows.get(t, {}).items():
                    cur = acc.get(c)
                    cur = v * w if cur is None else cur + v * w
                    if cur.is_zero():
                        acc.pop(c, None)
                    else:
                        acc[c] = cur
            if acc:
                out.rows[r] = acc
        return out

    def __pow__(self, e: int) -> "DictMatrix":
        result = DictMatrix.identity(self.field, self.dim)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def is_diagonal(self) -> bool:
        return all(set(row) <= {r} for r, row in self.rows.items())

    def diagonal(self):
        return [self.get(i, i) for i in range(self.dim)]

    def as_scalar(self):
        """The scalar c with self == c * I, or None (zero matrix gives 0)."""
        if self.is_zero():
            return self.field.zero()
        if not self.is_diagonal() or len(self.rows) != self.dim:
            return None
        diag = self.diagonal()
        if any(v != diag[0] for v in diag[1:]):
            return None
        return diag[0]


def dict_mats(gm) -> dict:
    return {name: DictMatrix.of(mat) for name, mat in gm.mats.items()}


def permuted(mat: CycMatrix, perm) -> CycMatrix:
    """Conjugate by the basis relabeling i -> perm[i]."""
    out = CycMatrix(mat.field, mat.dim)
    for r, c, v in mat.entries():
        out.set(perm[r], perm[c], v)
    return out


def omega_matrix(gm, i: int) -> DictMatrix:
    """omega_i = sum_(l<=i) (1-q^-2) y_l x_l, summed as full matrices."""
    mats = dict_mats(gm)
    total = DictMatrix.zero(gm.params.domain.field, gm.dim)
    for l in range(1, i + 1):
        prod = mats[gen_name(ygen(l))] @ mats[gen_name(xgen(l))]
        total = total + prod.scale(gm.params.domain.correction)
    return total


def oracle_relations(gm) -> list[str]:
    """Names of the relations whose residual matrix is not zero."""
    dom, n = gm.params.domain, gm.params.n
    mats = dict_mats(gm)
    x = {i: mats[gen_name(xgen(i))] for i in range(1, n + 1)}
    y = {i: mats[gen_name(ygen(i))] for i in range(1, n + 1)}
    residuals = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            residuals.append((f"y{i}*y{j} = q^-1*y{j}*y{i}",
                              y[i] @ y[j] - (y[j] @ y[i]).scale(dom.q_pow(-1))))
            residuals.append((f"x{i}*x{j} = q*x{j}*x{i}",
                              x[i] @ x[j] - (x[j] @ x[i]).scale(dom.q_pow(1))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                residuals.append((f"x{i}*y{j} = q^-1*y{j}*x{i}",
                                  x[i] @ y[j] - (y[j] @ x[i]).scale(dom.q_pow(-1))))
    for i in range(1, n + 1):
        res = x[i] @ y[i] - y[i] @ x[i]
        for l in range(1, i):
            res = res - (y[l] @ x[l]).scale(dom.correction)
        residuals.append(
            (f"x{i}*y{i} = y{i}*x{i} + sum_(l<{i})(1-q^-2)*y_l*x_l", res))
    return [name for name, res in residuals if not res.is_zero()]


def oracle_omega(gm) -> list[tuple]:
    """(i, diagonal, seed eigenvalue, seed matches lambda_i, no zero on
    the diagonal) for each omega_i."""
    params = gm.params
    out = []
    for i in range(1, params.n + 1):
        om = omega_matrix(gm, i)
        diagonal = om.is_diagonal()
        seed = om.get(0, 0)
        out.append((i, diagonal, seed, seed == params.lam_i(i),
                    diagonal and all(not v.is_zero() for v in om.diagonal())))
    return out


def oracle_central(gm) -> list[tuple]:
    """(generator, M^m as a scalar or None, expected value) per generator."""
    expected = expected_central_values(gm.params)
    mats = dict_mats(gm)
    out = []
    for code in all_gens(gm.params.n):
        name = gen_name(code)
        out.append((name, (mats[name] ** gm.params.m).as_scalar(), expected[name]))
    return out


def full_commutant_dimension(gm):
    """Gaussian elimination on all d^2 entries of X, one equation
    (XM - MX)_rs = 0 per generator M and entry (r, s)."""
    d = gm.dim
    zero = gm.params.domain.field.zero()

    def equations():
        for mat in gm.mats.values():
            column = {}
            for r, c, v in mat.entries():
                column.setdefault(c, []).append((r, v))
            for r in range(d):
                for s in range(d):
                    eq = {}
                    for t, v in column.get(s, ()):      # X_rt M_ts
                        eq[r * d + t] = eq.get(r * d + t, zero) + v
                    t = mat.cols[r]                     # M_rt X_ts
                    if t is not None:
                        eq[t * d + s] = eq.get(t * d + s, zero) - mat.coeffs[r]
                    eq = {k: v for k, v in eq.items() if not v.is_zero()}
                    if eq:
                        yield eq

    return nullspace_dimension(equations(), d * d)
