"""PI-degree of the quantum Euclidean 2n-space via its quasipolynomial shadow.

Dropping the additive corrections from the defining relations leaves a
q^h-commutation pattern recorded in a skew-symmetric integer matrix H
(generator order x_1..x_n, y_1..y_n).  Viewing H as a homomorphism
Z^(2n) -> (Z/mZ)^(2n), the PI-degree is the square root of the image
cardinality; the kernel lattice indexes the central monomials.  The
image cardinality comes from the Smith normal form.
"""

from __future__ import annotations

from math import gcd, isqrt

from .rewriter import all_gens, q_exponent


# ---------------------------------------------------------------------------
# the defining matrix
# ---------------------------------------------------------------------------

def build_H(n: int) -> list[list[int]]:
    """Skew-symmetric exponent matrix of the q-commutation pattern.

    H[a][b] = rewriter.q_exponent(a, b) over the generators in the order
    x_1..x_n, y_1..y_n: a b = q^H[a][b] b a, with H[x_i][y_i] = 0 since
    the x_i y_i relation has leading coefficient 1 (its additive
    correction is dropped here).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = all_gens(n)
    return [[q_exponent(a, b) for b in gens] for a in gens]


# ---------------------------------------------------------------------------
# Smith normal form (exact integer arithmetic)
# ---------------------------------------------------------------------------

class SnfResult:
    __slots__ = ("diag", "U", "V")

    def __init__(self, diag: tuple[int, ...], U, V):
        self.diag, self.U, self.V = diag, U, V


def _mat_identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(M) -> SnfResult:
    """U*M*V diagonal with the divisibility chain d_1 | d_2 | ...

    Pivot-and-reduce elimination with unimodular row/column operations,
    all over Z.  V is kept transposed, so a column operation is one list
    operation on a row of it; and once column k is zero below the pivot,
    a column operation changes only row k of the working matrix.
    """
    A = [list(row) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = _mat_identity(rows)
    Vt = _mat_identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        Vt[i], Vt[j] = Vt[j], Vt[i]

    def add_row(dst, src, factor):
        A[dst] = [a + factor * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + factor * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, factor):      # V's half; the caller updates A
        Vt[dst] = [a + factor * b for a, b in zip(Vt[dst], Vt[src])]

    def pivot_search(k):
        best = None
        for i in range(k, rows):
            row = A[i]
            for j in range(k, cols):
                v = abs(row[j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        return best
        return best

    k = 0
    while k < min(rows, cols):
        found = pivot_search(k)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(k, pi)
        swap_cols(k, pj)
        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(k + 1, rows):
                    if A[i][k]:
                        add_row(i, k, -(A[i][k] // A[k][k]))
                        if A[i][k]:
                            swap_rows(i, k)
                            dirty = True
            # column k is zero below the pivot: clear row k on row k alone
            row, pivot = A[k], A[k][k]
            for j in range(k + 1, cols):
                if row[j]:
                    quot = row[j] // pivot
                    row[j] -= quot * pivot
                    add_col(j, k, -quot)
                    if row[j]:
                        swap_cols(j, k)
                        break
            else:
                break
        if A[k][k] < 0:
            A[k][k] = -A[k][k]
            U[k] = [-a for a in U[k]]
        # enforce the divisibility chain: fold any non-multiple into the pivot
        pivot = A[k][k]
        fold = None if pivot == 1 else next(
            (j for i in range(k + 1, rows) for j in range(k + 1, cols)
             if A[i][j] % pivot), None)
        if fold is None:
            k += 1
        else:
            for i in range(k + 1, rows):
                A[i][k] += A[i][fold]
            add_col(k, fold, 1)
    diag = tuple(A[i][i] for i in range(min(rows, cols)))
    return SnfResult(diag, U, [list(col) for col in zip(*Vt)])


# ---------------------------------------------------------------------------
# image and kernel mod m
# ---------------------------------------------------------------------------

def image_cardinality(H, m: int) -> int:
    """|image of H : Z^s -> (Z/mZ)^s| = prod of m/gcd(d_i, m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _image_size(smith_normal_form(H).diag, m)


def _image_size(diag, m: int) -> int:
    h = 1
    for d in diag:
        h *= m // gcd(d, m)
    return h


def _hermite_columns(columns):
    """Column Hermite form of a nonsingular integer matrix, given and
    returned as its list of columns (the basis vectors).

    Lower triangular, pivots positive on the diagonal, every off-pivot
    entry reduced modulo the pivot in its row, so all entries are
    nonnegative.  A column operation is one list operation.
    """
    C = [list(col) for col in columns]
    k = len(C)

    def col_op(j, src, factor):
        C[j] = [a + factor * b for a, b in zip(C[j], C[src])]

    for i in range(k):
        while True:
            nz = [j for j in range(i, k) if C[j][i]]
            if not nz:
                raise ArithmeticError("kernel basis matrix is singular")
            jmin = min(nz, key=lambda j: abs(C[j][i]))
            C[i], C[jmin] = C[jmin], C[i]
            pivot = C[i][i]
            divides = all(C[j][i] % pivot == 0 for j in range(i + 1, k))
            for j in range(i + 1, k):
                if C[j][i]:
                    col_op(j, i, -(C[j][i] // pivot))
            if divides:
                break
        if C[i][i] < 0:
            C[i] = [-a for a in C[i]]
        for j in range(i):
            quot = C[j][i] // C[i][i]
            if quot:
                col_op(j, i, -quot)
    return C


def kernel_basis(H, m: int) -> list[tuple[int, ...]]:
    """Basis of the lattice K = {a : H a = 0 mod m}, nonnegative entries.

    From U H V = D: the columns of V scaled by m/gcd(d_i, m) span K; the
    column Hermite form then gives the canonical nonnegative basis (a
    plain mod-m reduction can annihilate the scaled columns, so the
    Hermite reduction is used instead).  Every vector is verified to lie
    in K before returning.
    """
    return _kernel_from_snf(H, m, smith_normal_form(H))


def _kernel_from_snf(H, m: int, snf: SnfResult) -> list[tuple[int, ...]]:
    diag = list(snf.diag) + [0] * (len(H) - len(snf.diag))
    columns = [[v * (m // gcd(d, m)) for v in col]
               for col, d in zip(zip(*snf.V), diag)]
    out = []
    for col in _hermite_columns(columns):
        support = [(r, v) for r, v in enumerate(col) if v]
        if any(sum(row[r] * v for r, v in support) % m for row in H):
            raise ArithmeticError("kernel basis vector fails membership check")
        out.append(tuple(col))
    return out


# ---------------------------------------------------------------------------
# the degree report
# ---------------------------------------------------------------------------

class DegreeReport:
    __slots__ = ("m", "n", "h", "degree", "expected", "kernel", "divisors")

    def __init__(self, m, n, h, degree, kernel: list[tuple[int, ...]],
                 divisors: tuple[int, ...]):
        self.m = m
        self.n = n
        self.h = h
        self.degree = degree
        self.expected = m ** (n - 1)
        self.kernel = kernel
        self.divisors = divisors

    @property
    def matches_expected(self) -> bool:
        return self.degree == self.expected

    def to_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "image_cardinality": self.h,
            "degree": self.degree,
            "expected": self.expected,
            "matches_expected": self.matches_expected,
            "elementary_divisors": list(self.divisors),
            "kernel_basis": [list(v) for v in self.kernel],
        }


def pi_degree(n: int, m: int) -> DegreeReport:
    """Degree = sqrt(image cardinality), compared against m^(n-1).

    m = 1 is admitted only here, as the degenerate sanity check.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m != 1 and (m < 3 or m % 2 == 0):
        raise ValueError("m must be odd >= 3 (or 1 for the degenerate check)")
    H = build_H(n)
    snf = smith_normal_form(H)
    h = _image_size(snf.diag, m)
    degree = isqrt(h)
    if degree * degree != h:
        raise ArithmeticError(
            f"image cardinality {h} is not a perfect square; "
            "skew-symmetry violated internally")
    return DegreeReport(m, n, h, degree, _kernel_from_snf(H, m, snf), snf.diag)
