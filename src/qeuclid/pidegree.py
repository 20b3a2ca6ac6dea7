"""PI-degree of the quantum Euclidean 2n-space via its quasipolynomial shadow.

Dropping the additive corrections from the defining relations leaves a
q^h-commutation pattern recorded in a skew-symmetric integer matrix H
(generator order x_1..x_n, y_1..y_n).  Viewing H as a homomorphism
Z^(2n) -> (Z/mZ)^(2n), the PI-degree is the square root of the image
cardinality h, which depends only on H modulo m; the kernel lattice
indexes the central monomials.  Both are read off G = P D H D^T P^T (D
differences consecutive generators inside each block, P interleaves x_i
and y_i, both unimodular), which has at most 5 nonzeros a row in a
constant band: one forward elimination of G modulo m on unit pivots
gives h = m^rank, and back-substitution from G's free columns gives the
kernel as m Z^(2n) plus one vector a free column, each lifted by
D^T P^T and checked against H itself.  O(n^2) in all, the size of H.
"""

from __future__ import annotations

from math import gcd, isqrt
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
# elimination modulo m: image and kernel
# ---------------------------------------------------------------------------

def smith_normal_form(M, m: int) -> tuple[tuple[int, ...], dict[int, dict[int, int]]]:
    """(diag, echelon): the Smith form of M over Z/m, diag(1^r, 0^(s-r)),
    found by one forward elimination of M's rows (a dict each) modulo m,
    and its echelon, each pivot column mapped to its pivot row scaled to 1
    there.  Column by column, the pivot is a unit entry, from the row with
    the fewest entries first; it clears the column from the other rows.
    Unit pivots are invertible row steps over Z/m, so the image of M has
    m^r elements.  A column whose remaining entries hold no unit raises
    ArithmeticError: the premise is checked, with no fallback."""
    A = [{j: v % m for j, v in enumerate(row) if v % m} for row in M]
    ncols = len(M[0]) if M else 0
    where = [set() for _ in range(ncols)]       # the rows left with an entry there
    for i, row in enumerate(A):
        for j in row:
            where[j].add(i)
    echelon = {}
    for c in range(ncols):
        if not where[c]:
            continue
        units = [(len(A[i]), i) for i in where[c] if gcd(A[i][c], m) == 1]
        if not units:
            raise ArithmeticError(f"column {c} holds no unit pivot modulo {m}")
        _, r = min(units)
        inv = pow(A[r][c], -1, m)
        pivot = {j: v * inv % m for j, v in A[r].items()}
        for j in pivot:
            where[j].discard(r)
        for i in where[c].copy():
            row, f = A[i], A[i][c]
            for j, v in pivot.items():
                if new := (row.get(j, 0) - f * v) % m:
                    row[j] = new
                    where[j].add(i)
                else:
                    row.pop(j, None)
                    where[j].discard(i)
        echelon[c] = pivot
    rank = len(echelon)
    return (1,) * rank + (0,) * (min(len(A), ncols) - rank), echelon


def kernel_basis(echelon: dict[int, dict[int, int]], size: int, m: int) -> list[list[int]]:
    """{a in Z^size : M a = 0 mod m} is m Z^size plus the span of one
    vector a free column of M's echelon: 1 there, 0 at the other free
    columns, the pivot columns by back-substitution, entries in [0, m).
    None at m = 1, where m Z^size is everything."""
    if m == 1:
        return []
    out = []
    for f in range(size):
        if f in echelon:
            continue
        x = {f: 1}
        for c, row in reversed(echelon.items()):
            x[c] = -sum(v * x.get(j, 0) for j, v in row.items() if j != c) % m
        out.append([x.get(j, 0) for j in range(size)])
    return out


# ---------------------------------------------------------------------------
# the degree report
# ---------------------------------------------------------------------------

class DegreeReport:
    __slots__ = ("m", "n", "h", "degree", "expected", "kernel", "rank")

    def __init__(self, m, n, h, degree, kernel, rank):
        self.m, self.n, self.h, self.degree = m, n, h, degree
        self.expected = m ** (n - 1)
        self.kernel, self.rank = kernel, rank

    @property
    def matches_expected(self) -> bool:
        return self.degree == self.expected

    def to_dict(self):
        return {"m": self.m, "n": self.n, "image_cardinality": self.h,
                "degree": self.degree, "expected": self.expected,
                "matches_expected": self.matches_expected, "rank": self.rank,
                "kernel_basis": {"modulus_lattice": self.m,
                                 "vectors": [list(v) for v in self.kernel]}}


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
    diag, echelon = smith_normal_form(G, m)
    rank = sum(diag)
    h = m ** rank
    degree = isqrt(h)
    if degree * degree != h:
        raise ArithmeticError(f"image cardinality {h} is not a perfect square; "
                              "skew-symmetry violated internally")
    kernel = []
    for v in kernel_basis(echelon, 2 * n, m):       # ker H = D^T P^T ker G
        vec = [x % m for x in back(list(map(sub, v, v[2:] + [0, 0])))]
        support = [(j, x) for j, x in enumerate(vec) if x]
        if any(sum(row[j] * x for j, x in support) % m for row in H):
            raise ArithmeticError("kernel basis vector fails membership check")
        kernel.append(vec)
    return DegreeReport(m, n, h, degree, kernel, rank)
