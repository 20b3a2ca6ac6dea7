"""Slow, obviously correct oracles for the fast checks in qeuclid.verify.

``DictMatrix`` is a general sparse matrix (a dict of rows, each a dict
col -> nonzero scalar) with sums, scaling, products and powers by
repeated squaring.  The ``oracle_*`` functions decide the relation,
omega and central-power checks the direct way: form every product and
residual matrix and test it for zero or for a scalar.
``full_commutant_dimension`` solves for all d^2 entries of a commuting
matrix by Gaussian elimination, and ``euclid_inverse`` inverts a field
element by the extended Euclidean algorithm over Fraction.
``basis_indices`` and ``basis_rank`` spell out the row order that
``build_module`` computes with strides.  ``brute_force_image``
enumerates the image of the PI-degree matrix, ``oracle_kappa`` forms a
lowering generator's kappa table one dense product an entry, and
``oracle_smith_normal_form``, ``oracle_hermite_columns`` and
``oracle_kernel_basis`` are the elimination on whole rows and columns,
the reference for the elimination on sparse rows and the Hermite form
built modulo m in ``pidegree``.  ``oracle_tokenize``,
``oracle_parse_qlaurent``, ``oracle_substitute``,
``oracle_parse_cyclotomic`` and ``oracle_encode`` read and write config
scalars one regex match a token, by whole QLaurent products and binary
powers and by Fraction coordinates, the reference for the integer path
in ``scalars``.  ``parse_element`` reads plain-text
algebra elements such as "(1-q^-2)*y1*x1" for the rewriter tests, with
``power`` for its powers and ``from_qlaurent`` for its coefficients.
``stepwise_normal_form`` straightens a word one rule application at a
time, the reference for the insertion pass of
``rewriter.straighten_word``.  ``NCPoly`` is a polynomial with sums,
scaling, ``straighten`` and ``multiply``; ``omega`` and ``rewrite_rules``
build the normal elements and the rule table from it, and
``oracle_remark_identities``, ``oracle_local_confluence`` and
``oracle_central_powers`` are the identity suites by whole products, the
reference for the residuals that ``rewriter`` accumulates in place.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

from qeuclid.linalg import CycMatrix, ScalarTable, nullspace_dimension
from qeuclid.rewriter import (
    GENERIC_Q,
    CheckReport,
    GenericQDomain,
    _add_term,
    _rewrite_pair,
    all_gens,
    gen_index,
    gen_name,
    is_x,
    root_domain,
    straighten_word,
    xgen,
    ygen,
)
from qeuclid.scalars import (
    MAX_LITERAL_DEPTH,
    MAX_LITERAL_POWER,
    MAX_LITERAL_WORK,
    _RATIONAL_RE,
    _TOKEN_RE,
    Cyclotomic,
    CyclotomicField,
    QLaurent,
    _power,
    _unlimited_int_digits,
    cyclotomic_polynomial,
)
from qeuclid.verify import expected_central_values

BRUTE_FORCE_LIMIT = 10 ** 6


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


def basis_indices(params):
    """Enumerate (a_2, ..., a_n) in row order: a_2 varies fastest, row 0
    is the seed."""
    m, n = params.m, params.n
    out = []
    for r in range(m ** (n - 1)):
        a, rem = [], r
        for _ in range(n - 1):
            a.append(rem % m)
            rem //= m
        out.append(tuple(a))
    return out


def basis_rank(a: tuple, m: int) -> int:
    r = 0
    for v in reversed(a):
        r = r * m + v
    return r


def dict_mats(gm) -> dict:
    return {name: DictMatrix.of(mat) for name, mat in gm.mats.items()}


def monomial(table: ScalarTable, cols, values) -> CycMatrix:
    """The CycMatrix whose row r holds values[r] at column cols[r], or
    zero where cols[r] is None."""
    mat = CycMatrix(table, len(cols))
    for r, (c, v) in enumerate(zip(cols, values)):
        if c is not None:
            mat.set(r, c, v)
    return mat


def permuted(mat: CycMatrix, perm) -> CycMatrix:
    """Conjugate by the basis relabeling i -> perm[i]."""
    out = CycMatrix(mat.table, mat.dim)
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
    expected = expected_central_values(gm)
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
            column, row = {}, {}
            for r, c, v in mat.entries():
                column.setdefault(c, []).append((r, v))
                row[r] = v
            for r in range(d):
                for s in range(d):
                    eq = {}
                    for t, v in column.get(s, ()):      # X_rt M_ts
                        eq[r * d + t] = eq.get(r * d + t, zero) + v
                    t = mat.cols[r]                     # M_rt X_ts
                    if t is not None:
                        eq[t * d + s] = eq.get(t * d + s, zero) - row[r]
                    eq = {k: v for k, v in eq.items() if not v.is_zero()}
                    if eq:
                        yield eq

    return nullspace_dimension(equations(), d * d)


def brute_force_image(H, m: int) -> int:
    """Independent oracle: enumerate all of (Z/mZ)^s and collect H*a mod m."""
    s = len(H)
    if m ** s > BRUTE_FORCE_LIMIT:
        raise ValueError("instance too large for oracle")
    seen = set()
    for a in product(range(m), repeat=s):
        seen.add(tuple(sum(H[i][j] * a[j] for j in range(s)) % m
                       for i in range(s)))
    return len(seen)


# ---------------------------------------------------------------------------
# Smith normal form and kernel lattice, whole rows and columns at a time
# ---------------------------------------------------------------------------

def oracle_smith_normal_form(M):
    """(diag, U, V) with U*M*V diagonal and the divisibility chain
    d_1 | d_2 | ...: classic pivot-and-reduce elimination with unimodular
    row/column operations over Z, every operation on whole rows and
    columns (the reference for ``pidegree.smith_normal_form``).  Its
    coefficients can blow up on dense input (some 6 x 6 matrices with
    entries in [-9, 9] do not finish), so the tests draw random matrices
    from ``test_pidegree._random_matrix``.
    """
    A = [list(row) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        A[dst] = [a + factor * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + factor * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, factor):
        for row in A:
            row[dst] += factor * row[src]
        for row in V:
            row[dst] += factor * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def pivot_search(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    k = 0
    while k < min(rows, cols):
        found = pivot_search(k)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(k, pi)
        swap_cols(k, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if A[i][k]:
                    quot = A[i][k] // A[k][k]
                    add_row(i, k, -quot)
                    if A[i][k]:
                        swap_rows(i, k)
                        dirty = True
            for j in range(k + 1, cols):
                if A[k][j]:
                    quot = A[k][j] // A[k][k]
                    add_col(j, k, -quot)
                    if A[k][j]:
                        swap_cols(j, k)
                        dirty = True
        if A[k][k] < 0:
            negate_row(k)
        # enforce the divisibility chain: fold any non-multiple into the pivot
        restart = False
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if A[i][j] % A[k][k]:
                    add_col(k, j, 1)
                    restart = True
                    break
            if restart:
                break
        if not restart:
            k += 1
    diag = tuple(A[i][i] for i in range(min(rows, cols)))
    return diag, U, V


def oracle_hermite_columns(B):
    """Column Hermite form of a nonsingular integer matrix (columns = basis).

    Pivots positive on the diagonal, every off-pivot entry reduced modulo
    the pivot in its row, so all entries are nonnegative.
    """
    k = len(B)
    A = [list(row) for row in B]

    def col_op(j, src, factor):
        for row in A:
            row[j] += factor * row[src]

    for i in range(k):
        while True:
            nz = [j for j in range(i, k) if A[i][j]]
            if not nz:
                raise ArithmeticError("kernel basis matrix is singular")
            jmin = min(nz, key=lambda j: abs(A[i][j]))
            if jmin != i:
                for row in A:
                    row[i], row[jmin] = row[jmin], row[i]
            if all(A[i][j] % A[i][i] == 0 for j in range(i + 1, k)):
                for j in range(i + 1, k):
                    if A[i][j]:
                        col_op(j, i, -A[i][j] // A[i][i])
                break
            for j in range(i + 1, k):
                if A[i][j]:
                    col_op(j, i, -(A[i][j] // A[i][i]))
        if A[i][i] < 0:
            for row in A:
                row[i] = -row[i]
        for j in range(i):
            r = A[i][j] % A[i][i]
            col_op(j, i, (r - A[i][j]) // A[i][i])
    return A


def oracle_kernel_basis(H, m: int, snf=None) -> list[tuple[int, ...]]:
    """Basis of {a : H a = 0 mod m}: the columns of V scaled by
    m/gcd(d_i, m), in column Hermite form, each checked against every row
    of H (the reference for ``pidegree.kernel_basis``).  ``snf`` is
    ``oracle_smith_normal_form(H)`` when already at hand."""
    diag, _, V = snf or oracle_smith_normal_form(H)
    s = len(H)
    diag = list(diag) + [0] * (s - len(diag))
    basis_matrix = [[V[r][c] * (m // gcd(diag[c], m)) for c in range(s)]
                    for r in range(s)]
    reduced = oracle_hermite_columns(basis_matrix)
    out = []
    for c in range(s):
        vec = tuple(reduced[r][c] for r in range(s))
        assert not any(sum(map(mul, row, vec)) % m for row in H)
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# straightening one rule at a time
# ---------------------------------------------------------------------------

_STEPWISE_CACHE: dict[object, dict] = {}


def _first_descent(word: tuple[int, ...]) -> int:
    for idx in range(len(word) - 1):
        if word[idx] > word[idx + 1]:
            return idx
    return -1


def stepwise_normal_form(word: tuple[int, ...], dom) -> dict:
    """Normal form of a word as a map word -> scalar, by one rule
    application at the first descent per step (memoized apart from the
    rewriter's own memo)."""
    cache = _STEPWISE_CACHE.setdefault(dom, {})
    hit = cache.get(word)
    if hit is not None:
        return hit
    idx = _first_descent(word)
    if idx < 0:
        result = {word: dom.one}
    else:
        head, tail = word[:idx], word[idx + 2:]
        result = {}
        for coeff, repl in _rewrite_pair(word[idx], word[idx + 1], dom):
            for w, c in stepwise_normal_form(head + repl + tail, dom).items():
                acc = result.get(w)
                acc = coeff * c if acc is None else acc + coeff * c
                if acc.is_zero():
                    result.pop(w, None)
                else:
                    result[w] = acc
    cache[word] = result
    return result


# ---------------------------------------------------------------------------
# polynomials and the identity suites by whole products
# ---------------------------------------------------------------------------

class NCPoly:
    """Noncommutative polynomial: map from words to nonzero scalars."""

    __slots__ = ("domain", "terms")

    def __init__(self, domain, terms=None):
        self.domain = domain
        self.terms = terms or {}

    @classmethod
    def one(cls, domain):
        return cls(domain, {(): domain.one})

    @classmethod
    def gen(cls, domain, code: int):
        return cls(domain, {(code,): domain.one})

    @classmethod
    def word(cls, domain, codes, coeff=None):
        return cls(domain, {tuple(codes): coeff if coeff is not None else domain.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_normal(self) -> bool:
        return all(list(w) == sorted(w) for w in self.terms)

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.domain is other.domain
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.domain), frozenset(self.terms.items())))

    def _check(self, other):
        if self.domain is not other.domain:
            raise ValueError("mixed coefficient domains")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return NCPoly(self.domain, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPoly(self.domain, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar):
        if scalar.is_zero():
            return NCPoly(self.domain)
        return NCPoly(self.domain, {w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            mono = "*".join(gen_name(c) for c in w) or "1"
            bits.append(f"({self.terms[w]})*{mono}")
        return " + ".join(bits)


def straighten(p: NCPoly) -> NCPoly:
    """Unique normal form; equal algebra elements have equal normal forms."""
    out: dict = {}
    for w, c in p.terms.items():
        for nw, nc in straighten_word(w, p.domain).items():
            _add_term(out, nw, c * nc)
    return NCPoly(p.domain, out)


def multiply(p: NCPoly, r: NCPoly) -> NCPoly:
    """Straightened product."""
    p._check(r)
    out: dict = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in r.terms.items():
            c12 = c1 * c2
            for nw, nc in straighten_word(w1 + w2, p.domain).items():
                _add_term(out, nw, c12 * nc)
    return NCPoly(p.domain, out)


def omega(i: int, n: int, dom=GENERIC_Q) -> NCPoly:
    """The normal element sum_{l<=i} (1-q^-2) y_l x_l."""
    if not 1 <= i <= n:
        raise ValueError(f"omega index {i} out of range 1..{n}")
    return NCPoly(dom, {(ygen(l), xgen(l)): dom.correction for l in range(1, i + 1)})


def rewrite_rules(n: int, dom=GENERIC_Q) -> list[tuple[tuple[int, int], NCPoly]]:
    """The full rule table: every length-2 descent with its straightened
    right-hand side (one q-swap family per mixed pair, plus the additive
    x_i y_i rule)."""
    rules = []
    for u in sorted(all_gens(n), reverse=True):
        for v in sorted(all_gens(n)):
            if u > v:
                rhs = NCPoly(dom)
                for coeff, repl in _rewrite_pair(u, v, dom):
                    rhs = rhs + NCPoly.word(dom, repl, coeff)
                rules.append(((u, v), rhs))
    return rules


def oracle_residual_item(report, name, residual):
    report.add(name, residual.is_zero(),
               "" if residual.is_zero() else f"residual {residual!r}")


def oracle_remark_identities(n: int, dom=GENERIC_Q) -> CheckReport:
    """All quasicommutation identities of the normal elements omega_i:
    omega_i x_j = q^2 x_j omega_i and omega_i y_j = q^-2 y_j omega_i for
    i < j, plain commutation for j <= i, and omega_i omega_j = omega_j
    omega_i -- each by straightening the difference to zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    report = CheckReport(f"omega quasicommutation identities (n={n}, {dom.name})")
    omegas = {i: omega(i, n, dom) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xj = NCPoly.gen(dom, xgen(j))
            yj = NCPoly.gen(dom, ygen(j))
            if i < j:
                res = multiply(omegas[i], xj) - multiply(xj, omegas[i]).scale(dom.q_pow(2))
                oracle_residual_item(report, f"omega{i}*x{j} = q^2*x{j}*omega{i}", res)
                res = multiply(omegas[i], yj) - multiply(yj, omegas[i]).scale(dom.q_pow(-2))
                oracle_residual_item(report, f"omega{i}*y{j} = q^-2*y{j}*omega{i}", res)
            else:
                res = multiply(omegas[i], xj) - multiply(xj, omegas[i])
                oracle_residual_item(report, f"omega{i}*x{j} = x{j}*omega{i}", res)
                res = multiply(omegas[i], yj) - multiply(yj, omegas[i])
                oracle_residual_item(report, f"omega{i}*y{j} = y{j}*omega{i}", res)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            res = multiply(omegas[i], omegas[j]) - multiply(omegas[j], omegas[i])
            oracle_residual_item(report, f"omega{i}*omega{j} = omega{j}*omega{i}", res)
    return report


def oracle_central_powers(n: int, m: int, k: int) -> CheckReport:
    """x_i^m and y_i^m commute with every generator at q = zeta_m^k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dom = root_domain(m, k)
    report = CheckReport(f"centrality of m-th powers (n={n}, m={m}, k={k})")
    for i in range(1, n + 1):
        px = NCPoly.word(dom, (xgen(i),) * m)
        py = NCPoly.word(dom, (ygen(i),) * m)
        for g in all_gens(n):
            gp = NCPoly.gen(dom, g)
            rx = multiply(px, gp) - multiply(gp, px)
            ry = multiply(py, gp) - multiply(gp, py)
            ok = rx.is_zero() and ry.is_zero()
            report.add(f"[x{i}^{m}, {gen_name(g)}] = [y{i}^{m}, {gen_name(g)}] = 0",
                       ok, "" if ok else "nonzero commutator")
    return report


def oracle_local_confluence(n: int, dom=GENERIC_Q) -> CheckReport:
    """Resolve every length-3 overlap ambiguity both ways.

    Overlap words are g_a g_b g_c with both adjacent pairs rewritable,
    i.e. strictly decreasing in the canonical order.  Both one-step
    reducts are straightened fully and compared; by the diamond lemma
    agreement on all overlaps makes the normal form unique.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    report = CheckReport(f"local confluence on length-3 overlaps (n={n})")
    codes = sorted(all_gens(n))
    for ia, a in enumerate(codes):
        for ib, b in enumerate(codes[:ia]):
            for c in codes[:ib]:
                left = NCPoly(dom)
                for coeff, repl in _rewrite_pair(a, b, dom):
                    left = left + NCPoly.word(dom, repl + (c,), coeff)
                right = NCPoly(dom)
                for coeff, repl in _rewrite_pair(b, c, dom):
                    right = right + NCPoly.word(dom, (a,) + repl, coeff)
                res = straighten(left) - straighten(right)
                word = "*".join(gen_name(g) for g in (a, b, c))
                report.add(f"overlap {word}", res.is_zero(),
                           "" if res.is_zero() else f"residual {res!r}")
    return report


def oracle_kappa(code: int, params) -> tuple:
    """The kappa table of a lowering generator i >= 2 by one dense
    product per entry: lambda_(i-1) (1 - q^2u) / (q^2 - 1) for x_i in I,
    (lambda_i - q^-2u lambda_(i-1)) / (1 - q^-2) for y_i outside I (the
    entry at u = 0 times 1 / alpha_i); None for a zero entry."""
    dom, i = params.domain, gen_index(code)
    one, lam = dom.one, params.lam_i
    if is_x(code):
        kappa = [lam(i - 1) * (one - dom.q_pow(2 * u)) * params._inv_q2_minus_1
                 for u in range(params.m)]
    else:
        kappa = [(lam(i) - dom.q_pow(-2 * u) * lam(i - 1)) * params.inv_correction
                 for u in range(params.m)]
        kappa[0] = kappa[0] * params.alpha_inv_i(i)
    return tuple(None if v.is_zero() else v for v in kappa)


# ---------------------------------------------------------------------------
# config scalars by Fraction and products, the reference for the integer path
# ---------------------------------------------------------------------------

def from_fractions(field, fracs) -> Cyclotomic:
    """The element with coordinates fracs, over their least common
    denominator."""
    fracs = list(fracs)
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return field.element([int(f * den) for f in fracs], den)


def oracle_power(p: QLaurent, e: int) -> QLaurent:
    """p^e by binary powering, monomials too; e < 0 for monomials only."""
    if e < 0:
        if len(p.terms) != 1:
            raise ValueError("only monomials are invertible in QLaurent")
        (exp, c), = p.terms.items()
        return QLaurent({exp * e: Fraction(1) / c ** (-e)})
    return _power(p, e, QLaurent.const(1))


def oracle_substitute(p: QLaurent, m: int, k: int) -> Cyclotomic:
    """p at q = zeta_m^k, one product by a power of zeta and one sum a
    term."""
    field = CyclotomicField(m)
    if gcd(k, m) != 1:
        raise ValueError("q not primitive")
    out = field.zero()
    for e, c in p.terms.items():
        out = out + field.zeta_pow(k * e) * c
    return out


def _oracle_shape(p: QLaurent) -> tuple[int, int]:
    if not p.terms or (len(p.terms) == 1 and 1 in p.terms.values()):
        return 0, 0
    width = max(p.terms) - min(p.terms) + 1
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in p.terms.values())
    return width, bits


def _oracle_power_size(p: QLaurent) -> int:
    width, bits = _oracle_shape(p)
    return width * bits


def _oracle_product_size(a: QLaurent, b: QLaurent) -> int:
    (wa, ba), (wb, bb) = _oracle_shape(a), _oracle_shape(b)
    if not (wa and wb):
        return 0
    return (wa + wb - 1) * (ba + bb)


class OracleScalarParser:
    """The scalar grammar of ``scalars._ScalarParser`` with the same
    bounds, messages and charges, building every value by whole QLaurent
    sums, products and binary powers."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.work = 0
        self.depth = 0

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
            self.charge("sums", _oracle_power_size(value))
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            factor = self.factor()
            self.charge("products", _oracle_product_size(value, factor))
            value = value * factor
        return value

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if abs(e) * _oracle_power_size(base) > MAX_LITERAL_POWER:
                raise ValueError(
                    f"exponent {e} too large for its base: |exponent| times "
                    f"base size exceeds {MAX_LITERAL_POWER}")
            base = oracle_power(base, e)
            self.charge("powers", _oracle_power_size(base))
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
        if tok in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_LITERAL_DEPTH:
                raise ValueError(f"literal nested deeper than "
                                 f"{MAX_LITERAL_DEPTH} parentheses and signs")
            value = self.expr() if tok == "(" else -self.factor()
            if tok == "(":
                self.expect(")")
            self.depth -= 1
            return value
        if tok == "q":
            return QLaurent.q_pow(1)
        if tok is not None and tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if den is None or not den.isdigit():
                    raise ValueError("malformed rational literal")
                if not int(den):
                    raise ValueError(f'zero denominator in "{tok}/{den}"')
                return QLaurent.const(Fraction(num, int(den)))
            return QLaurent.const(num)
        raise ValueError(f"unexpected token {tok!r}")


def oracle_tokenize(text: str) -> list[str]:
    """The tokens of text one match at a time."""
    pos, out = 0, []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ValueError(f"bad token at {text[pos:pos + 10]!r}")
        out.append(match.group(1))
        pos = match.end()
    return out


def oracle_parse_qlaurent(text: str) -> tuple[QLaurent, int]:
    """The literal's value and the work the parser charged for it."""
    parser = OracleScalarParser(oracle_tokenize(text))
    return parser.parse(), parser.work


def _oracle_coordinate(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        den = value.partition("/")[2]
        if den and not int(den):
            raise ValueError(f'zero denominator in "{value}"')
        return Fraction(value)
    raise ValueError(f"coordinate {value!r} is not an integer or a "
                     f"rational string such as \"-2/3\"")


def oracle_parse_cyclotomic(value, m: int, k: int) -> Cyclotomic:
    """``scalars.parse_cyclotomic`` by a Fraction per coordinate and a
    product per q-literal term."""
    field = CyclotomicField(m)
    if isinstance(value, (list, tuple)):
        if len(value) > field.degree:
            raise ValueError(
                f"coefficient vector longer than phi({m}) = {field.degree}")
        fracs = [_oracle_coordinate(s) for s in value]
        return from_fractions(field, fracs + [Fraction(0)] * (field.degree - len(fracs)))
    if isinstance(value, str):
        return oracle_substitute(oracle_parse_qlaurent(value)[0], m, k)
    if isinstance(value, int) and not isinstance(value, bool):
        return field.scalar(value)
    raise ValueError(f"cannot parse cyclotomic literal {value!r}")


def oracle_encode(c: Cyclotomic) -> list[str]:
    """``scalars.encode_cyclotomic`` as a str(Fraction) per coordinate."""
    with _unlimited_int_digits():
        return [str(f) for f in c.to_fractions()]


# ---------------------------------------------------------------------------
# plain-text element syntax, e.g. "(1-q^-2)*y1*x1"
# ---------------------------------------------------------------------------

def power(p: NCPoly, e: int) -> NCPoly:
    result = NCPoly.one(p.domain)
    for _ in range(e):
        result = multiply(result, p)
    return result


def from_qlaurent(ql, dom):
    """A Laurent polynomial in q as a coefficient of dom: itself over
    generic q, its value at q = zeta_m^k at a root of unity."""
    return ql if isinstance(dom, GenericQDomain) else oracle_substitute(ql, dom.m, dom.k)


class _ElementParser(OracleScalarParser):
    """Extends the scalar grammar with generator letters x<i>, y<i>."""

    def __init__(self, tokens, domain, n):
        super().__init__(tokens)
        self.domain = domain
        self.n = n

    def _wrap(self, scalar_or_poly):
        if isinstance(scalar_or_poly, NCPoly):
            return scalar_or_poly
        coeff = from_qlaurent(scalar_or_poly, self.domain)
        if coeff.is_zero():
            return NCPoly(self.domain)
        return NCPoly(self.domain, {(): coeff})

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self._wrap(self.term())
        if sign < 0:
            value = -value
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            rhs = self._wrap(self.term())
            value = value + (-rhs if sign < 0 else rhs)
        return value

    def term(self):
        value = self._wrap(self.factor())
        while self.peek() == "*":
            self.take()
            value = multiply(value, self._wrap(self.factor()))
        return value

    def factor(self):
        tok = self.peek()
        if tok and tok[0] in "xy" and len(tok) > 1:
            self.take()
            i = int(tok[1:])
            if not 1 <= i <= self.n:
                raise ValueError(f"generator {tok} out of range for n={self.n}")
            code = xgen(i) if tok[0] == "x" else ygen(i)
            poly = NCPoly.gen(self.domain, code)
            if self.peek() == "^":
                self.take()
                e = self.exponent()
                if e < 0:
                    raise ValueError("negative powers of generators not supported")
                poly = power(poly, e)
            return poly
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if isinstance(base, NCPoly):
                if e < 0:
                    raise ValueError("negative powers of elements not supported")
                return power(base, e)
            return base ** e
        return base

    def atom(self):
        if self.peek() == "(":
            self.take()
            value = self.expr()
            self.expect(")")
            return value
        return super().atom()


def parse_element(text: str, n: int, dom=GENERIC_Q) -> NCPoly:
    """Parse the plain-text element syntax into a straightened NCPoly."""
    poly = _ElementParser(oracle_tokenize(text), dom, n).parse()
    return straighten(poly)


def _qpoly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def qpoly_divmod(a, b):
    """(quotient, remainder) of polynomials over Q, Fraction coefficients
    listed from degree 0 upward."""
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
    """(g, u) with u*a = g mod b, g the gcd (a constant for coprime input)."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = qpoly_divmod(r0, r1)
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


def euclid_inverse(a: Cyclotomic) -> Cyclotomic:
    """a^-1 by the extended Euclidean algorithm of the representing
    polynomial against the cyclotomic modulus, over Fraction: the
    reference for the norm inverse (its coefficients swell, so keep the
    inputs small)."""
    p = _qpoly_trim([Fraction(n, a.den) for n in a.nums])
    if not p:
        raise ZeroDivisionError("division by zero")
    modulus = [Fraction(c) for c in cyclotomic_polynomial(a.field.m)]
    g, u = _qpoly_xgcd(p, modulus)
    assert len(g) == 1, "modulus not coprime"
    u = [c / g[0] for c in u]
    _, rem = qpoly_divmod(u, modulus)
    rem += [Fraction(0)] * (a.field.degree - len(rem))
    return from_fractions(a.field, rem)
