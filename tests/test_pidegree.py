"""PI-degree pipeline: defining matrix, elimination modulo m, image, kernel, degree."""

import random
from itertools import combinations, product
from math import gcd, isqrt, prod
from operator import mul

import pytest

from oracles import (
    brute_force_image,
    build_H,
    oracle_kernel_basis,
    oracle_smith_normal_form,
)
from qeuclid import pidegree
from qeuclid.pidegree import (
    DegreeReport,
    kernel_basis,
    pi_degree,
    smith_normal_form,
)
from qeuclid.rewriter import all_gens, gen_index, is_x, q_exponent


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


def _sparse(M):
    """(rows, ncols): a dense matrix as the sparse rows and column count
    that ``smith_normal_form`` takes."""
    return [dict(enumerate(row)) for row in M], len(M[0]) if M else 0


def _rank(M, m):
    return sum(smith_normal_form(*_sparse(M), m)[0])


def _in_kernel(M, m, vec):
    return not any(sum(map(mul, row, vec)) % m for row in M)


def _same_lattice(H, m, vectors, hermite):
    """m Z^s + span(vectors) equals the lattice {a : H a = 0 mod m} whose
    triangular Hermite basis is ``hermite``: the vectors lie in it, a
    k x k minor of theirs is a unit mod m, so they span m^k classes and
    their lattice has index m^(s - k), and that is the basis's determinant."""
    s, k = len(H), len(vectors)
    assert all(_in_kernel(H, m, v) and all(0 <= x < m for x in v) for v in vectors)
    assert k == 0 or any(gcd(_det([[v[i] for i in idx] for v in vectors]), m) == 1
                         for idx in combinations(range(s), k))
    return m ** (s - k) == prod(hermite[c][c] for c in range(s))


class TestSmithNormalForm:
    """The Smith form over Z/m: diag(1^r, 0^(s - r)) and the echelon."""

    def test_zero_matrix(self):
        assert smith_normal_form(*_sparse([[0, 0], [0, 0]]), 3) == ((0, 0), {})
        assert smith_normal_form(*_sparse([[3, 0], [0, -6]]), 3) == ((0, 0), {})

    def test_identity(self):
        assert smith_normal_form(*_sparse([[1, 0], [0, 1]]), 3) == ((1, 1), {0: {0: 1}, 1: {1: 1}})

    def test_H2_divisors_match_minor_gcd_oracle(self):
        H = build_H(2)
        dd = _determinantal_divisors(H)
        assert dd == [1, 1, 0, 0]
        for m in (3, 5, 9, 15):
            # d_k = D_k / D_(k-1): a unit mod m becomes 1, a multiple of m 0
            diag, _ = smith_normal_form(*_sparse(H), m)
            assert diag == (1, 1, 0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_echelon_reduces_every_row(self, n):
        # the pivot rows are the rows of M up to invertible steps over
        # Z/m: each has 1 at its column and nothing at an earlier pivot,
        # and every row of M reduces to 0 by them
        H = build_H(n)
        for m in (3, 5, 9):
            diag, echelon = smith_normal_form(*_sparse(H), m)
            assert len(echelon) == sum(diag)
            for c, row in echelon.items():
                assert row[c] == 1 and all(0 < v < m for v in row.values())
                assert not set(row).intersection(d for d in echelon if d < c)
            for source in H:
                left = [v % m for v in source]
                for c, row in echelon.items():
                    f = left[c]
                    for j, v in row.items():
                        left[j] = (left[j] - f * v) % m
                assert not any(left), (n, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_divisibility_chain_and_rank(self, n):
        for m in (3, 9, 15):
            diag = smith_normal_form(*_sparse(build_H(n)), m)[0]
            rank = sum(diag)
            assert diag == (1,) * rank + (0,) * (2 * n - rank)
            # rank 2n - 2: exactly two zero divisors, as over Q
            assert rank == max(2 * n - 2, 0)

    def test_random_matrices_roundtrip(self, rng):
        # over a prime m every nonzero entry is a unit: the elimination
        # never refuses, and rank + kernel dimension = columns
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            for m in (3, 5):
                diag, echelon = smith_normal_form(*_sparse(M), m)
                vectors = kernel_basis(echelon, cols, m)
                assert len(vectors) == cols - sum(diag)
                assert all(_in_kernel(M, m, v) for v in vectors)
                assert m ** sum(diag) == brute_force_image(M, m), (M, m)

    def test_non_unit_pivot_raises(self):
        # the image of diag(3, 1) mod 9 has 27 elements, no power of 9
        assert brute_force_image([[3, 0], [0, 1]], 9) == 27
        with pytest.raises(ArithmeticError, match="no unit pivot"):
            smith_normal_form(*_sparse([[3, 0], [0, 1]]), 9)


def _random_matrix(rng):
    """(M, kind): up to 6 x 6 with entries in [-9, 9], dense (kind 0),
    with zero rows (1), every entry a multiple of 2 or 3, so that no
    entry is a unit modulo 9 or 15 when it is 3 (2), or diagonal (3)."""
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
    """The elimination modulo m against the integer Smith and Hermite
    forms on whole rows and columns: the same image cardinality and
    degree, rank 2n - 2, and the same kernel lattice."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_H_divisors_and_kernels(self, n):
        H = build_H(n)
        oracle = oracle_smith_normal_form(H)
        for m in (1, 3, 5, 9, 15, 21, 99, 101):
            rep = pi_degree(n, m)
            h = prod(m // gcd(d, m) for d in oracle[0])
            assert rep.h == h and rep.degree == isqrt(h) == m ** (n - 1)
            if n >= 2 and m > 1:
                assert rep.rank == 2 * n - 2
            assert _same_lattice(H, m, rep.kernel, oracle_kernel_basis(H, m, oracle))

    def test_random_matrices(self):
        # each draw is refused or right: m^rank is the image's size
        rng = random.Random(23)
        shapes, kinds, outcomes = set(), [0] * 4, {}
        for _ in range(600):
            M, kind = _random_matrix(rng)
            oracle = oracle_smith_normal_form(M)[0]
            for m in (3, 9, 15):
                try:
                    rank = _rank(M, m)
                except ArithmeticError:
                    outcomes[m, "refused"] = outcomes.get((m, "refused"), 0) + 1
                    continue
                image = (brute_force_image(M, m) if m ** len(M[0]) <= 10 ** 4
                         else prod(m // gcd(d, m) for d in oracle))
                assert m ** rank == image, (M, m)
                outcomes[m, "right"] = outcomes.get((m, "right"), 0) + 1
            shapes.add((len(M), len(M[0])))
            kinds[kind] += 1
        assert len(shapes) == 36 and min(kinds) >= 100
        assert outcomes[3, "right"] == 600 and (3, "refused") not in outcomes
        assert min(outcomes[m, verdict] for m in (9, 15)
                   for verdict in ("refused", "right")) >= 50


def _recorded_G(monkeypatch, n):
    """The matrix that ``pi_degree(n, 3)`` hands to the elimination, its
    sparse rows turned back into lists."""
    seen = []

    def recording(rows, ncols, m):
        seen.append((rows, ncols))
        return smith_normal_form(rows, ncols, m)

    monkeypatch.setattr(pidegree, "smith_normal_form", recording)
    pi_degree(n, 3)
    rows, ncols = seen[0]
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


class TestBandedG:
    """pi_degree works on G = P D H D^T P^T, read off q_exponent's band."""

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
    def _other_patterns():
        """Three other exponent patterns on generator codes, each reading
        only the kinds and the order of the indices, as q_exponent does."""
        def affine(a, b):         # q-commuting in the order x_1..x_n, y_1..y_n
            ka, kb = (not is_x(a), gen_index(a)), (not is_x(b), gen_index(b))
            return (kb > ka) - (kb < ka)

        def corrected(a, b):      # x_i y_i = q y_i x_i as well
            return q_exponent(a, b) or (gen_index(a) == gen_index(b)) * (is_x(a) - is_x(b))

        return {"quantum affine space": affine, "no additive pair": corrected,
                "doubled": lambda a, b: 2 * q_exponent(a, b)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_G_is_read_off_q_exponent(self, monkeypatch, n):
        gens = all_gens(n)
        for name, pattern in self._other_patterns().items():
            monkeypatch.setattr(pidegree, "q_exponent", pattern)
            H = [[pattern(a, b) for b in gens] for a in gens]
            oracle = oracle_smith_normal_form(H)
            for m in (1, 3, 9, 15):
                rep = pi_degree(n, m)
                assert rep.h == prod(m // gcd(d, m) for d in oracle[0]), name
                assert _same_lattice(H, m, rep.kernel,
                                     oracle_kernel_basis(H, m, oracle)), name

    def test_q_exponent_work_is_linear(self, monkeypatch):
        # rows 0 and 1 in full, then 8 exponents a band row: 20 n - 16
        calls = []

        def counting(a, b):
            calls.append(1)
            return q_exponent(a, b)

        monkeypatch.setattr(pidegree, "q_exponent", counting)
        n = 200
        assert pi_degree(n, 3).matches_expected
        assert len(calls) <= 24 * n


class TestImageCardinality:
    def test_trivial_image(self):
        assert pi_degree(1, 3).h == 1
        assert brute_force_image(build_H(1), 3) == 1

    @pytest.mark.parametrize("m,expected", [(3, 9), (5, 25)])
    def test_n2_against_enumeration(self, m, expected):
        assert pi_degree(2, m).h == expected
        assert brute_force_image(build_H(2), m) == expected

    @pytest.mark.parametrize("n,m", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)])
    def test_oracle_equivalence(self, n, m):
        assert pi_degree(n, m).h == brute_force_image(build_H(n), m)

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
                assert m ** _rank(M, m) == brute_force_image(M, m)


class TestKernelBasis:
    def test_n1_full_lattice(self):
        _, echelon = smith_normal_form(*_sparse(build_H(1)), 3)
        assert kernel_basis(echelon, 2, 3) == [[1, 0], [0, 1]]
        assert pi_degree(1, 3).kernel == [[1, 0], [0, 1]]
        assert pi_degree(1, 1).kernel == []

    def test_n2_membership_and_index(self):
        H = build_H(2)
        m = 3
        rep = pi_degree(2, m)
        assert len(rep.kernel) == 2
        for vec in rep.kernel:
            assert all(0 <= v < m for v in vec)
            assert _in_kernel(H, m, vec)
        # the kernel holds m^2 classes mod m: m^4 / h of them
        classes = {tuple((a * u + b * w) % m for u, w in zip(*rep.kernel))
                   for a in range(m) for b in range(m)}
        assert len(classes) == m ** 4 // rep.h == 9

    def test_m_e1_always_in_kernel(self):
        for n, m in ((2, 3), (3, 5)):
            H = build_H(n)
            vec = (m,) + (0,) * (2 * n - 1)
            assert all(sum(H[i][j] * vec[j] for j in range(2 * n)) % m == 0
                       for i in range(2 * n))

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (2, 5), (3, 3)])
    def test_kernel_image_duality(self, n, m):
        # |K intersect [0,m)^2n| * h = m^(2n), and the vectors span K mod m
        H = build_H(n)
        rep = pi_degree(n, m)
        if m ** (2 * n) <= 10 ** 6:
            count = 0
            for a in product(range(m), repeat=2 * n):
                if _in_kernel(H, m, a):
                    count += 1
            assert count * rep.h == m ** (2 * n)
            assert count == m ** len(rep.kernel)

    def test_tampered_vector_fails_membership(self, monkeypatch):
        # a unit step at any coordinate of any vector leaves the kernel:
        # every column of G is +-1 somewhere, the two dense rows included
        for n, m in product((2, 3, 6, 40), (3, 5, 9)):
            for t, k in product(range(len(pi_degree(n, m).kernel)), range(2 * n)):
                def shifted(echelon, size, m, t=t, k=k):
                    vectors = kernel_basis(echelon, size, m)
                    vectors[t][k] += 1
                    return vectors

                monkeypatch.setattr(pidegree, "kernel_basis", shifted)
                with pytest.raises(ArithmeticError, match="membership"):
                    pi_degree(n, m)
                monkeypatch.undo()


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

        def counting(name, step):
            def wrapped(*args):
                calls.append(name)
                return step(*args)
            return wrapped

        monkeypatch.setattr(pidegree, "smith_normal_form",
                            counting("smith", smith_normal_form))
        monkeypatch.setattr(pidegree, "kernel_basis", counting("kernel", kernel_basis))
        rep = pi_degree(n, m)
        assert calls == ["smith", "kernel"]
        assert rep.h == m ** rep.rank

    def test_report_shape(self):
        rep = pi_degree(2, 3)
        assert isinstance(rep, DegreeReport)
        d = rep.to_dict()
        assert d["degree"] == 3 and d["matches_expected"] is True
        assert d["rank"] == 2 and d["image_cardinality"] == 9
        assert d["kernel_basis"] == {"modulus_lattice": 3,
                                     "vectors": [list(v) for v in rep.kernel]}
        assert len(d["kernel_basis"]["vectors"]) == 2
        assert pi_degree(2, 1).to_dict()["kernel_basis"] == {
            "modulus_lattice": 1, "vectors": []}
