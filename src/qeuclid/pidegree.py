"""PI-degree of the quantum Euclidean 2n-space via its quasipolynomial shadow.

Dropping the additive corrections from the defining relations leaves a
q^h-commutation pattern recorded in a skew-symmetric integer matrix H
(generator order x_1..x_n, y_1..y_n).  Viewing H as a homomorphism
Z^(2n) -> (Z/mZ)^(2n), the PI-degree is the square root of the image
cardinality; the kernel lattice indexes the central monomials.  Both are
read off G = P D H D^T P^T (D differences consecutive generators inside
each block, P interleaves x_i and y_i), which has at most 5 nonzeros a
row in a constant band: its Smith form, then the kernel's Hermite form
built modulo m.  O(n^2) in all, the size of the kernel basis.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod
from operator import itemgetter, sub

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


def _differences(rows: list) -> list:
    """D in the interleaved order: row a minus row a - 2, rows 0, 1 kept."""
    return rows[:2] + [tuple(map(sub, a, b)) for a, b in zip(rows[2:], rows)]


# ---------------------------------------------------------------------------
# Smith normal form (exact integer arithmetic), image and kernel mod m
# ---------------------------------------------------------------------------

def _replay(ops, size: int, start: int) -> list[int]:
    """e_start taken back through a log of operations (dst, src, f), "line
    dst += f * line src": a row of U, or a column of V, in O(len(ops))."""
    vec = [0] * size
    vec[start] = 1
    for dst, src, f in reversed(ops):
        if vec[dst]:
            vec[src] += f * vec[dst]
    return vec


class SnfResult:
    """U*M*V = diag, U and V kept as logs of elementary operations and
    the row and column of M at each diagonal place."""
    __slots__ = ("diag", "_rows", "_cols", "_row_ops", "_col_ops")

    def __init__(self, diag: tuple[int, ...], rows, cols, row_ops, col_ops):
        self.diag, self._rows, self._cols = diag, rows, cols
        self._row_ops, self._col_ops = row_ops, col_ops

    def column(self, k: int) -> list[int]:
        return _replay(self._col_ops, len(self._cols), self._cols[k])

    @property
    def U(self):
        return [_replay(self._row_ops, len(self._rows), r) for r in self._rows]

    @property
    def V(self):
        return [list(row) for row in zip(*map(self.column, range(len(self._cols))))]


def smith_normal_form(M) -> SnfResult:
    """U*M*V diagonal with the chain d_1 | d_2 | ... for an integer matrix
    M (a list of rows): one elimination on sparse rows (a dict per row, a
    set of rows per column), its unimodular operations logged.  The pivot
    is an entry +-g, g the last pivot, in the first row holding one (a row
    without one waits until it changes), in its sparsest column.  Every
    entry left is a multiple of g, so only a pivot past g is checked to
    divide the rest (a column it does not divide is folded in).  On G the
    unit pivots cost O(1) a row; the 4s then clear a dense n - 1 block."""
    A = [dict(filter(itemgetter(1), enumerate(row))) for row in M]
    nrows, ncols = len(A), len(M[0]) if A else 0
    where = [set(compress(range(nrows), col)) for col in zip(*M)]
    row_ops, col_ops, pivots, done = [], [], [], [False] * nrows
    live = set(range(nrows))        # the rows changed since they were scanned

    def add_row(dst, src, f):
        row = A[dst]
        for j, v in A[src].items():
            if new := row.get(j, 0) + f * v:
                row[j] = new
                where[j].add(dst)
            else:
                del row[j]
                where[j].discard(dst)
        row_ops.append((dst, src, f))
        live.add(dst)

    g = 1
    while True:
        r = None
        while live:
            i = min(live)
            c = min((j for j, v in A[i].items() if v == g or v == -g),
                    key=lambda j: (len(where[j]), j), default=None)
            if c is not None:
                r = i
                break
            live.discard(i)
        if r is None:   # no entry +-g: the least entry, every row scanned again
            found = min(((abs(v), i, j) for i in range(nrows) if not done[i]
                         for j, v in A[i].items()), default=None)
            if found is None:
                break
            _, r, c = found
            live = {i for i in range(nrows) if not done[i]}
        while True:     # Euclid on row r and column c, moving the pivot down
            p = A[r][c]
            for i in [i for i in where[c] if i != r]:
                if A[i][c] // p:
                    add_row(i, r, -(A[i][c] // p))
                if c in A[i]:
                    r = i
                    break
            else:
                row = A[r]
                for j in [j for j in row if j != c]:
                    col_ops.append((j, c, -(row[j] // p)))   # column c is clear
                    row[j] %= p                               # but for row r
                    if row[j]:
                        c = j
                        break
                    del row[j]
                    where[j].discard(r)
                else:
                    if p < 0:
                        add_row(r, r, -2)       # row r = -row r
                        p = -p
                    fold = None if p == g else next(
                        (j for i in range(nrows) if not done[i] and i != r
                         for j, v in A[i].items() if v % p), None)
                    if fold is None:
                        break
                    for i in where[fold]:      # column c += column fold
                        A[i][c] = A[i][fold]
                    where[c] |= where[fold]
                    col_ops.append((c, fold, 1))
        g = p
        pivots.append((r, c))
        done[r] = True
        live.discard(r)
    rows, cols = [r for r, _ in pivots], [c for _, c in pivots]
    diag = tuple(A[r][c] for r, c in pivots)
    return SnfResult(diag + (0,) * (min(nrows, ncols) - len(diag)),
                     rows + sorted(set(range(nrows)).difference(rows)),
                     cols + sorted(set(range(ncols)).difference(cols)),
                     row_ops, col_ops)


def image_cardinality(H, m: int) -> int:
    """|image of H : Z^s -> (Z/mZ)^s| = prod of m/gcd(d_i, m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return prod(m // gcd(d, m) for d in smith_normal_form(H).diag)


def _combine(x: int, u: dict, y: int, w: dict, m: int) -> dict:
    """x u + y w modulo m, on sparse columns."""
    return {r: v for r in u.keys() | w.keys()
            if (v := (x * u.get(r, 0) + y * w.get(r, 0)) % m)}


def kernel_basis(H, m: int) -> list[tuple[int, ...]]:
    """Basis of the lattice K = {a : H a = 0 mod m}, nonnegative entries."""
    return _kernel_from_snf(H, m, smith_normal_form(H))


def _kernel_from_snf(H, m: int, snf: SnfResult, lift=list) -> list[tuple[int, ...]]:
    """K = {a : H a = 0 mod m} in column Hermite form (lower triangular,
    each off-pivot entry reduced modulo the pivot in its row), each vector
    checked against H.  ``snf`` is the Smith form of H, or of L^T H L with
    ``lift(v)`` = L v.  K holds m Z^s and is spanned by the columns of
    (L) V scaled by m/gcd(d_i, m), so the form starts from m I and takes
    in each column not scaled by m by extended-gcd column steps, every
    entry below a pivot kept modulo m (Domich-Kannan-Trotter 1987)."""
    s = len(H)
    C = [{i: m} for i in range(s)]      # pivots divide m: C holds m Z^s
    for k, d in enumerate(snf.diag + (0,) * (s - len(snf.diag))):
        if (scale := m // gcd(d, m)) == m:
            continue
        v = {r: x * scale % m for r, x in enumerate(lift(snf.column(k))) if x * scale % m}
        while v:
            i = min(v)
            a, b = C[i][i], v[i]
            if b % a:       # x a + y b = g = gcd(a, b) < a
                g = gcd(a, b)
                y = pow(b // g, -1, a // g)
                C[i], v = (_combine((g - y * b) // a, C[i], y, v, m),
                           _combine(a // g, v, -(b // g), C[i], m))
            else:
                v = _combine(1, v, -(b // a), C[i], m)
    for r in range(s):
        if C[r][r] < m:
            for j in range(r):
                if C[j].get(r, 0) >= C[r][r]:
                    C[j] = _combine(1, C[j], -(C[j][r] // C[r][r]), C[r], m)
    columns_of_H, out = list(zip(*H)), []
    for col in C:
        image, vec = [0] * s, [0] * s
        for r, v in col.items():
            image = [a + v * b for a, b in zip(image, columns_of_H[r])]
            vec[r] = v
        if any(a % m for a in image):
            raise ArithmeticError("kernel basis vector fails membership check")
        out.append(tuple(vec))
    return out


# ---------------------------------------------------------------------------
# the degree report
# ---------------------------------------------------------------------------

class DegreeReport:
    __slots__ = ("m", "n", "h", "degree", "expected", "kernel", "divisors")

    def __init__(self, m, n, h, degree, kernel, divisors):
        self.m, self.n, self.h, self.degree = m, n, h, degree
        self.expected = m ** (n - 1)
        self.kernel, self.divisors = kernel, divisors

    @property
    def matches_expected(self) -> bool:
        return self.degree == self.expected

    def to_dict(self):
        return {"m": self.m, "n": self.n, "image_cardinality": self.h,
                "degree": self.degree, "expected": self.expected,
                "matches_expected": self.matches_expected,
                "elementary_divisors": list(self.divisors),
                "kernel_basis": [list(v) for v in self.kernel]}


def pi_degree(n: int, m: int) -> DegreeReport:
    """Degree = sqrt(image cardinality), compared against m^(n-1); m = 1
    is admitted only here, as the degenerate sanity check."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m != 1 and (m < 3 or m % 2 == 0):
        raise ValueError("m must be odd >= 3 (or 1 for the degenerate check)")
    H = build_H(n)
    pick = itemgetter(*(t for i in range(n) for t in (i, n + i)))      # P
    back = itemgetter(*range(0, 2 * n, 2), *range(1, 2 * n, 2))       # P^T
    G = _differences(list(zip(*_differences([pick(c) for c in pick(list(zip(*H)))]))))
    snf = smith_normal_form(G)
    h = prod(m // gcd(d, m) for d in snf.diag)
    degree = isqrt(h)
    if degree * degree != h:
        raise ArithmeticError(f"image cardinality {h} is not a perfect square; "
                              "skew-symmetry violated internally")
    kernel = _kernel_from_snf(         # ker H = D^T P^T ker G
        H, m, snf, lambda v: list(back(list(map(sub, v, v[2:] + [0, 0])))))
    return DegreeReport(m, n, h, degree, kernel, snf.diag)
