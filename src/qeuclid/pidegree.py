"""PI-degree of the quantum Euclidean 2n-space via its quasipolynomial shadow.

Dropping the additive corrections from the defining relations leaves a
q^h-commutation pattern recorded in a skew-symmetric integer matrix H,
H[a][b] = rewriter.q_exponent(a, b) (a b = q^H[a][b] b a, 0 for the
additive pair x_i, y_i).  Viewing H as a homomorphism Z^(2n) ->
(Z/mZ)^(2n), the PI-degree is the square root of the image cardinality
h, which depends only on H modulo m; the kernel lattice indexes the
central monomials.  H itself is never formed.  With the generators in
the order x_1, y_1, x_2, y_2, ... (P) and D taking row a minus row a - 2
(rows 0 and 1 kept), both unimodular, the rows of DH = D P H P^T are
read straight off q_exponent: rows 0 and 1 are x_1's and y_1's rows of
H, and row a >= 2 is nonzero only on the four columns of the indices of
a and a - 2.  That band is exact because q_exponent reads only whether
the indices are equal, the order of the codes and is_x: generators a
and a - 2 have the same kind and consecutive indices, so they agree
against every generator whose index is below both or above both.
G = DH D^T has at most 5 nonzeros a row in a constant band: one forward
elimination of G modulo m on unit pivots gives h = m^rank, and
back-substitution from G's free columns gives the kernel as m Z^(2n)
plus one vector a free column, each lifted by D^T and checked against
the rows of DH (so against H, D being unimodular) before P^T puts it
back in the order x_1..x_n, y_1..y_n.  O(n) steps in all.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import sub

from .rewriter import q_exponent, xgen, ygen


# ---------------------------------------------------------------------------
# elimination modulo m: image and kernel
# ---------------------------------------------------------------------------

def smith_normal_form(rows, ncols: int,
                      m: int) -> tuple[tuple[int, ...], dict[int, dict[int, int]]]:
    """(diag, echelon): the Smith form over Z/m, diag(1^r, 0^(s-r)), of
    the matrix with these sparse rows (a dict column -> value each) and
    ncols columns, found by one forward elimination modulo m, and its
    echelon, each pivot column mapped to its pivot row scaled to 1 there.
    Column by column, the pivot is a unit entry, from the row with the
    fewest entries first; it clears the column from the other rows.  Unit
    pivots are invertible row steps over Z/m, so the image has m^r
    elements.  A column whose remaining entries hold no unit raises
    ArithmeticError: the premise is checked, with no fallback."""
    A = [{j: v % m for j, v in row.items() if v % m} for row in rows]
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
    s = 2 * n
    gens = [g(i) for i in range(1, n + 1) for g in (xgen, ygen)]       # P
    DH = [{b: q_exponent(g, c) for b, c in enumerate(gens)} for g in gens[:2]]
    DH += [{b: q_exponent(gens[a], gens[b]) - q_exponent(gens[a - 2], gens[b])
            for b in range(a - a % 2 - 2, a - a % 2 + 2)} for a in range(2, s)]
    G = [{b: row.get(b, 0) - row.get(b - 2, 0) for b in range(min(row), min(max(row) + 3, s))}
         for row in DH]
    diag, echelon = smith_normal_form(G, s, m)
    rank = sum(diag)
    h = m ** rank
    degree = isqrt(h)
    if degree * degree != h:
        raise ArithmeticError(f"image cardinality {h} is not a perfect square; "
                              "skew-symmetry violated internally")
    kernel = []
    for w in kernel_basis(echelon, s, m):       # ker H = P^T D^T ker G
        u = list(map(sub, w, w[2:] + [0, 0]))
        if any(sum(v * u[b] for b, v in row.items()) % m for row in DH):
            raise ArithmeticError("kernel basis vector fails membership check")
        kernel.append([x % m for x in u[0::2] + u[1::2]])
    return DegreeReport(m, n, h, degree, kernel, rank)
