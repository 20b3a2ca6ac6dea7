"""PI-degree pipeline: defining matrix, SNF, image/kernel, degree."""

import random
from itertools import combinations, product
from math import gcd

import pytest

from oracles import (
    brute_force_image,
    oracle_hermite_columns,
    oracle_kernel_basis,
    oracle_smith_normal_form,
)
from qeuclid import pidegree
from qeuclid.pidegree import (
    DegreeReport,
    build_H,
    image_cardinality,
    kernel_basis,
    pi_degree,
    smith_normal_form,
)


def _det(matrix):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    k = len(a)
    sign, prev = 1, 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def _determinantal_divisors(matrix):
    """gcd of all k x k minors, for each k; an SNF-independent oracle."""
    rows = len(matrix)
    out = []
    for k in range(1, rows + 1):
        g = 0
        for rset in combinations(range(rows), k):
            for cset in combinations(range(len(matrix[0])), k):
                minor = [[matrix[r][c] for c in cset] for r in rset]
                g = gcd(g, _det(minor))
        out.append(g)
    return out


def _mat_mul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


class TestBuildH:
    def test_n1_zero_matrix(self):
        assert build_H(1) == [[0, 0], [0, 0]]

    def test_n2_rows_from_relation_families(self):
        assert build_H(2) == [
            [0, 1, 0, -1],
            [-1, 0, -1, 0],
            [0, 1, 0, -1],
            [1, 0, 1, 0],
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_skew_symmetric_with_zero_diagonal(self, n):
        H = build_H(n)
        size = 2 * n
        for i in range(size):
            assert H[i][i] == 0
            for j in range(size):
                assert H[i][j] == -H[j][i]
                assert H[i][j] in (-1, 0, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_entries_match_relations(self, n):
        H = build_H(n)
        x = lambda i: i - 1
        y = lambda i: n + i - 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i < j:
                    assert H[x(i)][x(j)] == 1      # x_i x_j = q x_j x_i
                    assert H[y(i)][y(j)] == -1     # y_i y_j = q^-1 y_j y_i
                if i != j:
                    assert H[x(i)][y(j)] == -1     # x_i y_j = q^-1 y_j x_i
            assert H[x(i)][y(i)] == 0              # additive relation dropped

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_H(0)


class TestSmithNormalForm:
    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diag == (0, 0)
        assert snf.U == [[1, 0], [0, 1]] and snf.V == [[1, 0], [0, 1]]

    def test_identity(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.diag == (1, 1)

    def test_H2_divisors_match_minor_gcd_oracle(self):
        H = build_H(2)
        snf = smith_normal_form(H)
        assert snf.diag == (1, 1, 0, 0)
        dd = _determinantal_divisors(H)
        # d_k = D_k / D_(k-1) until the rank is exhausted
        prev = 1
        for k, d in enumerate(snf.diag):
            if dd[k] == 0:
                assert d == 0
            else:
                assert d == dd[k] // prev
                prev = dd[k]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_umv_is_diagonal_and_unimodular(self, n):
        H = build_H(n)
        snf = smith_normal_form(H)
        D = _mat_mul(_mat_mul(snf.U, H), snf.V)
        size = 2 * n
        for i in range(size):
            for j in range(size):
                expected = snf.diag[i] if i == j else 0
                assert D[i][j] == expected
        assert abs(_det(snf.U)) == 1
        assert abs(_det(snf.V)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_divisibility_chain_and_rank(self, n):
        diag = smith_normal_form(build_H(n)).diag
        nonzero = [d for d in diag if d]
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # rank over Q is 2n - 2: exactly two zero divisors
        assert len(nonzero) == 2 * n - 2

    def test_random_matrices_roundtrip(self, rng):
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(M)
            D = _mat_mul(_mat_mul(snf.U, M), snf.V)
            for i in range(rows):
                for j in range(cols):
                    if i == j and i < len(snf.diag):
                        assert D[i][j] == snf.diag[i] >= 0
                    else:
                        assert D[i][j] == 0
            nonzero = [d for d in snf.diag if d]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            if rows == cols:
                assert abs(_det(snf.U)) == 1 and abs(_det(snf.V)) == 1


def _random_matrix(rng):
    """(M, kind): up to 6 x 6 with entries in [-9, 9], dense (kind 0),
    with zero rows (1), every entry a multiple of 2 or 3 so the first
    pivot is no unit (2), or diagonal, where a pair outside the
    divisibility chain makes the elimination restart (3)."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.randrange(4)
    if kind == 3:
        return [[rng.randint(-9, 9) if i == j else 0 for j in range(cols)]
                for i in range(rows)], kind
    factor = rng.choice((2, 3)) if kind == 2 else 1
    M = [[factor * rng.randint(-9 // factor, 9 // factor) for _ in range(cols)]
         for _ in range(rows)]
    if kind == 1:
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            M[i] = [0] * cols
    return M, kind


class TestEliminationAgainstOracle:
    """The sparse elimination and the Hermite form modulo m against the
    whole-row-and-column oracle: equal elementary divisors and equal
    Hermite kernel bases (both are unique, whatever U and V each
    elimination reaches), on H directly and through G in ``pi_degree``."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_H_divisors_and_kernels(self, n):
        H = build_H(n)
        snf = smith_normal_form(H)
        oracle = oracle_smith_normal_form(H)
        assert snf.diag == oracle[0]
        for m in (1, 3, 5, 9, 15, 21, 99, 101):
            kernel = oracle_kernel_basis(H, m, oracle)
            assert pidegree._kernel_from_snf(H, m, snf) == kernel
            rep = pi_degree(n, m)
            assert rep.divisors == oracle[0] and rep.kernel == kernel

    def test_random_matrices(self):
        rng = random.Random(23)
        shapes, kinds, restarts = set(), [0] * 4, 0
        for _ in range(600):
            M, kind = _random_matrix(rng)
            snf = smith_normal_form(M)
            oracle = oracle_smith_normal_form(M)
            assert snf.diag == oracle[0], M
            if len(M) == len(M[0]):
                for m in (3, 5, 9):
                    assert (pidegree._kernel_from_snf(M, m, snf)
                            == oracle_kernel_basis(M, m, oracle)), M
            shapes.add((len(M), len(M[0])))
            kinds[kind] += 1
            if kind == 3:
                entries = sorted(abs(M[i][i]) for i in range(len(snf.diag)))
                chain = [d for d in entries if d] + [0] * entries.count(0)
                restarts += snf.diag != tuple(chain)
        assert len(shapes) == 36 and min(kinds) >= 100 and restarts >= 20


def _recorded_G(monkeypatch, n):
    """The matrix that ``pi_degree(n, 3)`` hands to the Smith form."""
    seen = []

    def recording(M):
        seen.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(pidegree, "smith_normal_form", recording)
    pi_degree(n, 3)
    return [list(row) for row in seen[0]]


class TestBandedG:
    """pi_degree works on G = P D H D^T P^T, read off build_H."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_G_is_the_congruence_of_H(self, monkeypatch, n):
        s = 2 * n
        order = [t for i in range(n) for t in (i, n + i)]
        P = [[int(c == order[r]) for c in range(s)] for r in range(s)]
        D = [[int(r == c) - int(c + 1 == r and r % n != 0) for c in range(s)]
             for r in range(s)]        # row a = e_a - e_(a-1) inside a block
        PD = _mat_mul(P, D)
        PDt = [list(col) for col in zip(*PD)]
        assert abs(_det(PD)) == 1
        assert _recorded_G(monkeypatch, n) == _mat_mul(_mat_mul(PD, build_H(n)), PDt)

    def test_G_has_five_nonzeros_a_row_in_a_constant_band(self, monkeypatch):
        for n in range(1, 65):
            G = _recorded_G(monkeypatch, n)
            monkeypatch.undo()
            assert max(sum(1 for v in row if v) for row in G) <= 5
            assert all(abs(i - j) <= 3 for i, row in enumerate(G)
                       for j, v in enumerate(row) if v), n

    @staticmethod
    def _other_patterns(n):
        s = 2 * n
        sign = [[(j > i) - (j < i) for j in range(s)] for i in range(s)]
        H = build_H(n)
        corrected = [[H[i][j] or (j - i == n) - (i - j == n) for j in range(s)]
                     for i in range(s)]       # x_i y_i = q y_i x_i as well
        doubled = [[2 * v for v in row] for row in H]
        return {"quantum affine space": sign, "no additive pair": corrected,
                "doubled": doubled}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_G_is_read_off_build_H(self, monkeypatch, n):
        for name, H in self._other_patterns(n).items():
            monkeypatch.setattr(pidegree, "build_H", lambda k, H=H: H)
            oracle = oracle_smith_normal_form(H)
            for m in (1, 3, 9, 15):
                rep = pi_degree(n, m)
                assert rep.divisors == oracle[0], name
                assert rep.kernel == oracle_kernel_basis(H, m, oracle), name


class TestHermiteModM:
    """The Hermite form built modulo m from m I against the Hermite form
    of the whole scaled basis (``oracle_hermite_columns``)."""

    def test_random_lattices(self):
        rng = random.Random(29)
        tried = 0
        for _ in range(400):
            M, _ = _random_matrix(rng)
            s = len(M)
            if s != len(M[0]):
                continue
            snf = smith_normal_form(M)
            zero = [[0] * s for _ in range(s)]    # every vector is a member
            for m in (3, 9, 15, 45):
                scale = [m // gcd(d, m) for d in snf.diag]
                basis = [[snf.V[r][c] * scale[c] for c in range(s)] for r in range(s)]
                oracle = oracle_hermite_columns(basis)
                expected = [tuple(oracle[r][c] for r in range(s)) for c in range(s)]
                assert pidegree._kernel_from_snf(zero, m, snf) == expected, (M, m)
            tried += 1
        assert tried >= 50


class TestImageCardinality:
    def test_trivial_image(self):
        assert image_cardinality(build_H(1), 3) == 1
        assert brute_force_image(build_H(1), 3) == 1

    @pytest.mark.parametrize("m,expected", [(3, 9), (5, 25)])
    def test_n2_against_enumeration(self, m, expected):
        H = build_H(2)
        assert image_cardinality(H, m) == expected
        assert brute_force_image(H, m) == expected

    @pytest.mark.parametrize("n,m", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)])
    def test_oracle_equivalence(self, n, m):
        H = build_H(n)
        assert image_cardinality(H, m) == brute_force_image(H, m)

    def test_oracle_guard(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_image(build_H(4), 9)

    def test_random_skew_matrices_against_oracle(self, rng):
        for _ in range(10):
            s = rng.choice([2, 4])
            M = [[0] * s for _ in range(s)]
            for i in range(s):
                for j in range(i + 1, s):
                    M[i][j] = rng.randint(-2, 2)
                    M[j][i] = -M[i][j]
            for m in (3, 5):
                assert image_cardinality(M, m) == brute_force_image(M, m)


class TestKernelBasis:
    def test_n1_full_lattice(self):
        assert kernel_basis(build_H(1), 3) == [(1, 0), (0, 1)]

    def test_n2_membership_and_index(self):
        H = build_H(2)
        m = 3
        basis = kernel_basis(H, m)
        for vec in basis:
            assert all(v >= 0 for v in vec)
            assert all(sum(H[i][j] * vec[j] for j in range(4)) % m == 0
                       for i in range(4))
        # index of K in Z^4 = product of the Hermite pivots = h = 9
        pivots = 1
        for i, vec in enumerate(basis):
            pivots *= vec[i]
        assert pivots == image_cardinality(H, m) == 9

    def test_m_e1_always_in_kernel(self):
        for n, m in ((2, 3), (3, 5)):
            H = build_H(n)
            vec = (m,) + (0,) * (2 * n - 1)
            assert all(sum(H[i][j] * vec[j] for j in range(2 * n)) % m == 0
                       for i in range(2 * n))

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (2, 5), (3, 3)])
    def test_kernel_image_duality(self, n, m):
        # |K intersect [0,m)^2n| * h = m^(2n)
        H = build_H(n)
        h = image_cardinality(H, m)
        if m ** (2 * n) <= 10 ** 6:
            count = 0
            for a in product(range(m), repeat=2 * n):
                if all(sum(H[i][j] * a[j] for j in range(2 * n)) % m == 0
                       for i in range(2 * n)):
                    count += 1
            assert count * h == m ** (2 * n)


class TestPiDegree:
    def test_degenerate_n1(self):
        assert pi_degree(1, 3).degree == 1

    def test_n2_m3(self):
        rep = pi_degree(2, 3)
        assert rep.degree == 3 == rep.expected

    def test_n3_m5(self):
        rep = pi_degree(3, 5)
        assert rep.degree == 25 == rep.expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_matches_m_power_formula(self, n, m):
        rep = pi_degree(n, m)
        assert rep.degree ** 2 == rep.h
        assert rep.degree == m ** (n - 1)

    def test_m1_degenerate(self):
        assert pi_degree(2, 1).degree == 1

    def test_even_m_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            pi_degree(2, 4)

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 5), (4, 1), (5, 9)])
    def test_one_smith_form_per_call(self, n, m, monkeypatch):
        calls = []

        def counting(M):
            calls.append(M)
            return smith_normal_form(M)

        monkeypatch.setattr(pidegree, "smith_normal_form", counting)
        rep = pi_degree(n, m)
        assert len(calls) == 1
        assert rep.kernel == kernel_basis(build_H(n), m)
        assert rep.h == image_cardinality(build_H(n), m)

    def test_report_shape(self):
        rep = pi_degree(2, 3)
        assert isinstance(rep, DegreeReport)
        d = rep.to_dict()
        assert d["degree"] == 3 and d["matches_expected"] is True
        assert len(d["kernel_basis"]) == 4
