"""PI-degree of the quantum Euclidean 2n-space via its quasipolynomial shadow.

Dropping the additive corrections from the defining relations leaves a
q^h-commutation pattern recorded in a skew-symmetric integer matrix H
(generator order x_1..x_n, y_1..y_n).  Viewing H as a homomorphism
Z^(2n) -> (Z/mZ)^(2n), the PI-degree is the square root of the image
cardinality; the kernel lattice indexes the central monomials.  The
image cardinality comes from the Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt


# ---------------------------------------------------------------------------
# the defining matrix
# ---------------------------------------------------------------------------

def build_H(n: int) -> list[list[int]]:
    """Skew-symmetric exponent matrix of the q-commutation pattern.

    Order (x_1..x_n, y_1..y_n): H[xi][xj] = +1 for i<j, H[yi][yj] = -1
    for i<j, H[xi][yj] = -1 for i != j, and H[xi][yi] = 0 since the
    x_i y_i relation has leading coefficient 1 (its additive correction
    is dropped here).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = 2 * n
    H = [[0] * size for _ in range(size)]

    def x(i):
        return i - 1

    def y(i):
        return n + i - 1

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            H[x(i)][x(j)] = 1
            H[x(j)][x(i)] = -1
            H[y(i)][y(j)] = -1
            H[y(j)][y(i)] = 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                H[x(i)][y(j)] = -1
                H[y(j)][x(i)] = 1
    return H


# ---------------------------------------------------------------------------
# Smith normal form (exact integer arithmetic)
# ---------------------------------------------------------------------------

@dataclass
class SnfResult:
    diag: tuple[int, ...]
    U: list[list[int]]
    V: list[list[int]]


def _mat_identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _mat_mul(A, B):
    cols = len(B[0])
    inner = len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(len(A))]


def smith_normal_form(M) -> SnfResult:
    """U*M*V diagonal with the divisibility chain d_1 | d_2 | ...

    Classic pivot-and-reduce elimination with unimodular row/column
    operations, all over Z.
    """
    A = [list(row) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = _mat_identity(rows)
    V = _mat_identity(cols)

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
    return SnfResult(diag, U, V)


# ---------------------------------------------------------------------------
# image and kernel mod m
# ---------------------------------------------------------------------------

def image_cardinality(H, m: int) -> int:
    """|image of H : Z^s -> (Z/mZ)^s| = prod of m/gcd(d_i, m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    snf = smith_normal_form(H)
    h = 1
    for d in snf.diag:
        h *= m // gcd(d, m)
    return h


def _hermite_columns(B):
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


def kernel_basis(H, m: int) -> list[tuple[int, ...]]:
    """Basis of the lattice K = {a : H a = 0 mod m}, nonnegative entries.

    From U H V = D: the columns of V scaled by m/gcd(d_i, m) span K; the
    column Hermite form then gives the canonical nonnegative basis (a
    plain mod-m reduction can annihilate the scaled columns, so the
    Hermite reduction is used instead).  Every vector is verified to lie
    in K before returning.
    """
    s = len(H)
    snf = smith_normal_form(H)
    diag = list(snf.diag) + [0] * (s - len(snf.diag))
    basis_matrix = [[snf.V[r][c] * (m // gcd(diag[c], m)) for c in range(s)]
                    for r in range(s)]
    reduced = _hermite_columns(basis_matrix)
    out = []
    for c in range(s):
        vec = tuple(reduced[r][c] for r in range(s))
        residues = [sum(H[i][j] * vec[j] for j in range(s)) % m for i in range(s)]
        if any(residues):
            raise ArithmeticError("kernel basis vector fails membership check")
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# the degree report
# ---------------------------------------------------------------------------

@dataclass
class DegreeReport:
    m: int
    n: int
    h: int
    degree: int
    expected: int
    kernel: list[tuple[int, ...]]
    divisors: tuple[int, ...]

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
    h = 1
    for d in snf.diag:
        h *= m // gcd(d, m)
    degree = isqrt(h)
    if degree * degree != h:
        raise ArithmeticError(
            f"image cardinality {h} is not a perfect square; "
            "skew-symmetry violated internally")
    return DegreeReport(
        m=m, n=n, h=h, degree=degree, expected=m ** (n - 1),
        kernel=kernel_basis(H, m), divisors=snf.diag)
