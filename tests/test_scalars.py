"""Exact arithmetic in Q(zeta_m) and in generic-q Laurent polynomials."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid import scalars
from qeuclid.scalars import (
    MAX_LITERAL_WORK,
    CyclotomicField,
    QLaurent,
    _qpoly_divmod,
    cyclotomic_polynomial,
    encode_cyclotomic,
    euler_phi,
    parse_cyclotomic,
    parse_qlaurent,
    root_of_unity,
    vec_normalize,
)


class TestCyclotomicPolynomial:
    def test_base_case(self):
        assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1

    def test_m3(self):
        assert cyclotomic_polynomial(3) == (1, 1, 1)  # x^2 + x + 1

    def test_m15_degree_and_known_coefficients(self):
        phi15 = cyclotomic_polynomial(15)
        assert len(phi15) - 1 == euler_phi(15) == 8
        assert phi15 == (1, -1, 0, 1, -1, 1, 0, -1, 1)

    def test_m15_roots_numerically_at_200_bits(self):
        # independent numeric oracle: every primitive 15th root annihilates
        # the exact-division result at 200-bit precision
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        phi15 = cyclotomic_polynomial(15)
        for k in range(1, 15):
            if gcd(k, 15) != 1:
                continue
            z = mpmath.expjpi(mpmath.mpf(2 * k) / 15)
            value = sum(c * z ** e for e, c in enumerate(phi15))
            assert abs(value) < mpmath.mpf(2) ** -150

    def test_product_over_divisors_recovers_x_m_minus_1(self):
        # Phi_d over all d | m multiply back to x^m - 1
        for m in (6, 9, 15):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    q = list(cyclotomic_polynomial(d))
                    out = [0] * (len(prod) + len(q) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(q):
                            out[i + j] += a * b
                    prod = out
            expected = [0] * (m + 1)
            expected[0], expected[m] = -1, 1
            assert prod == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestRootOfUnity:
    def test_basis_element(self):
        z = root_of_unity(3, 1)
        assert z.to_fractions() == (Fraction(0), Fraction(1))

    def test_exponent_reduced_mod_m(self):
        assert root_of_unity(3, 4) == root_of_unity(3, 1)

    def test_reduction_mod_phi3(self):
        # zeta^2 = -1 - zeta
        z2 = root_of_unity(3, 2)
        assert z2.to_fractions() == (Fraction(-1), Fraction(-1))

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="q not primitive"):
            root_of_unity(9, 3)

    def test_even_or_small_m_rejected(self):
        for m in (4, 2, 1):
            with pytest.raises(ValueError, match="m must be odd"):
                root_of_unity(m, 1)

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 15])
    def test_defining_properties(self, m):
        field = CyclotomicField(m)
        phi = cyclotomic_polynomial(m)
        for k in range(1, m):
            if gcd(k, m) != 1:
                continue
            z = root_of_unity(m, k)
            assert z ** m == field.one()
            value = field.zero()
            for e, c in enumerate(phi):
                value = value + z ** e * c
            assert value.is_zero()

    @pytest.mark.parametrize("m", [3, 5, 9])
    def test_power_sum_vanishes(self, m):
        field = CyclotomicField(m)
        total = field.zero()
        for j in range(m):
            total = total + field.zeta_pow(j)
        assert total.is_zero()


class TestFieldArithmetic:
    def test_phi3_relation(self):
        z = root_of_unity(3, 1)
        assert (1 + z + z * z).is_zero()

    def test_root_inverse(self):
        z = root_of_unity(3, 1)
        assert z.inv() == root_of_unity(3, 2)
        assert CyclotomicField(3).one().inv() == CyclotomicField(3).one()
        for m, k in ((5, 2), (9, 4)):
            z = root_of_unity(m, 1)
            assert (z ** k).inv() == z ** (m - k)

    def test_inv_of_one_minus_q_inverse_squared(self):
        for m, k in ((3, 1), (5, 1), (5, 2)):
            q = root_of_unity(m, k)
            c = 1 - q ** -2
            assert c * c.inv() == CyclotomicField(m).one()

    def test_inv_generic_element(self):
        field = CyclotomicField(3)
        e = field.scalar(2) + field.zeta_pow(1)
        assert e.inv() * e == field.one()

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicField(3).zero().inv()
        with pytest.raises(ZeroDivisionError):
            CyclotomicField(3).zero() ** -1

    def test_negative_power_routes_through_inverse(self):
        field = CyclotomicField(5)
        e = field.scalar(3) + field.zeta_pow(2)
        assert e ** -2 == (e.inv()) ** 2
        assert e ** -2 * e ** 2 == field.one()

    def test_mixed_field_operands_rejected(self):
        with pytest.raises(ValueError):
            root_of_unity(3, 1) + root_of_unity(5, 1)

    def test_canonical_zero(self):
        field = CyclotomicField(5)
        e = field.element([2, -3, 0, 1], 7)
        s = e + (-e)
        assert s.nums == (0, 0, 0, 0) and s.den == 1


class TestNormalizeInvariants:
    def test_normalized_form(self):
        rng = random.Random(5)
        for _ in range(200):
            nums = [rng.randint(-50, 50) for _ in range(4)]
            den = rng.randint(1, 40)
            if rng.random() < 0.3:
                den = -den
            out_nums, out_den = vec_normalize(list(nums), den)
            assert out_den > 0
            if any(out_nums):
                content = out_den
                for v in out_nums:
                    content = gcd(content, v)
                assert content == 1
            else:
                assert out_den == 1
            assert [Fraction(v, out_den) for v in out_nums] == \
                [Fraction(v, den) for v in nums]

    def test_zero_vector(self):
        assert vec_normalize([0, 0], 7) == ((0, 0), 1)


class TestMulOracle:
    """Cyclotomic multiplication against the Fraction polynomial product
    reduced mod Phi_m by long division."""

    @pytest.mark.parametrize("m", [3, 5, 9, 15, 21])
    def test_mul_matches_polynomial_product_mod_phi(self, m):
        field = CyclotomicField(m)
        d = field.degree
        modulus = [Fraction(c) for c in field.modulus]
        rng = random.Random(m)
        for trial in range(40):
            bound = 10 ** 6 if trial % 4 == 0 else 30
            a, b = (field.element([rng.randint(-bound, bound) for _ in range(d)],
                                  rng.randint(1, 25))
                    for _ in range(2))
            fa, fb = a.to_fractions(), b.to_fractions()
            product = [Fraction(0)] * (2 * d - 1)
            for i, x in enumerate(fa):
                for j, y in enumerate(fb):
                    product[i + j] += x * y
            _, rem = _qpoly_divmod(product, modulus)
            rem += [Fraction(0)] * (d - len(rem))
            assert (a * b).to_fractions() == tuple(rem)


class TestPower:
    """Binary powering starts at the lowest set bit and squares no further
    than the top bit."""

    @pytest.mark.parametrize("e,products", [(1, 0), (2, 1), (3, 2), (9, 4), (21, 6)])
    def test_product_count(self, monkeypatch, e, products):
        calls = []

        def counting(*args):
            calls.append(1)
            return vec_mul(*args)

        vec_mul = scalars.vec_mul
        base = CyclotomicField(9).element([1, 2, 0, -1, 0, 3], 5)
        monkeypatch.setattr(scalars, "vec_mul", counting)
        base ** e
        assert len(calls) == products

    @pytest.mark.parametrize("m", [3, 9, 21])
    def test_matches_repeated_multiplication(self, m):
        rng = random.Random(m)
        field = CyclotomicField(m)
        for _ in range(3):
            a = field.element([rng.randint(-5, 5) for _ in range(field.degree)],
                              rng.randint(1, 6))
            if a.is_zero():
                continue
            for e in (0, 1, 2, 3, 9, 21, -3):
                expected = field.one()
                for _ in range(abs(e)):
                    expected = expected * a
                if e < 0:
                    expected = expected.inv()
                assert a ** e == expected, (m, e)

    def test_qlaurent_matches_repeated_multiplication(self):
        p = QLaurent({-1: 2, 0: Fraction(1, 3), 2: -1})
        for e in (0, 1, 2, 3, 9, 21):
            expected = QLaurent.const(1)
            for _ in range(e):
                expected = expected * p
            assert p ** e == expected, e


class TestLiteralProductBudget:
    def test_largest_allowed_product(self):
        two = parse_qlaurent("(1+q)^128*(1+q)^128")
        assert two == parse_qlaurent("(1+q)^128") ** 2

    @pytest.mark.parametrize("factors", [3, 20])
    def test_chain_refused(self, factors):
        with pytest.raises(ValueError, match=f"exceeds {MAX_LITERAL_WORK}"):
            parse_qlaurent("*".join(["(1+q)^128"] * factors))

    def test_sums_and_powers_are_charged(self):
        assert parse_qlaurent("+".join(["(1+q)^128"] * 4)) == \
            parse_qlaurent("(1+q)^128") * 4
        with pytest.raises(ValueError, match=f"sums too large.*{MAX_LITERAL_WORK}"):
            parse_qlaurent("+".join(["(1+q)^128"] * 5))
        # a zero sum costs nothing, its powers still do
        with pytest.raises(ValueError, match="powers too large"):
            parse_qlaurent("+".join(["(1+q)^128-(1+q)^128"] * 4))

    def test_refused_inside_parentheses(self):
        with pytest.raises(ValueError, match="products too large"):
            parse_qlaurent("1+((1+q)^128*(1+q)^128)*(1+q)^128")

    def test_shifts_and_small_products_are_free(self):
        assert parse_qlaurent("*".join(["q"] * 500)) == QLaurent.q_pow(500)
        assert parse_qlaurent("q^-2*(1/5-1/5*q^2+1/5*q^3)") == QLaurent(
            {-2: Fraction(1, 5), 0: Fraction(-1, 5), 1: Fraction(1, 5)})


def _elements(m):
    field = CyclotomicField(m)
    d = field.degree
    return st.builds(
        lambda nums, den: field.element(nums, den),
        st.lists(st.integers(-9, 9), min_size=d, max_size=d),
        st.integers(1, 12),
    )


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(_elements(5), _elements(5), _elements(5))
    def test_ring_axioms_exact(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(_elements(9))
    def test_additive_inverse_canonical(self, a):
        assert (a + (-a)).nums == (0,) * CyclotomicField(9).degree

    def test_inv_two_sided_on_100_random_nonzero(self, rng):
        field = CyclotomicField(7)
        one = field.one()
        count = 0
        while count < 100:
            e = field.element([rng.randint(-9, 9) for _ in range(field.degree)],
                              rng.randint(1, 9))
            if e.is_zero():
                continue
            assert e * e.inv() == one
            assert e.inv() * e == one
            count += 1


class TestQLaurent:
    def test_q_minus_q_is_zero(self):
        q = QLaurent.q_pow(1)
        assert (q - q).is_zero()

    def test_qm_minus_one_vanishes_at_root(self):
        for m, k in ((3, 1), (5, 2), (9, 2)):
            p = QLaurent.q_pow(m) - 1
            assert p.substitute(m, k).is_zero()

    def test_substitution_round_trip_with_inverse(self):
        # (1 - q^-2) substituted at m=5, then inverted and multiplied back
        p = parse_qlaurent("1-q^-2")
        c = p.substitute(5, 1)
        assert c * c.inv() == CyclotomicField(5).one()

    def test_exact_div(self):
        a = parse_qlaurent("q^2-1")
        b = parse_qlaurent("q-1")
        assert a.exact_div(b) == parse_qlaurent("q+1")
        assert parse_qlaurent("q^2+1").exact_div(b) is None

    def test_monomial_inverse(self):
        p = QLaurent({3: Fraction(2)})
        assert p ** -1 == QLaurent({-3: Fraction(1, 2)})
        with pytest.raises(ValueError):
            (QLaurent.q_pow(1) + 1) ** -1

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(-4, 4),
                           st.fractions(min_value=-5, max_value=5),
                           max_size=4),
           st.dictionaries(st.integers(-4, 4),
                           st.fractions(min_value=-5, max_value=5),
                           max_size=4))
    def test_substitution_is_ring_homomorphism(self, ta, tb):
        a, b = QLaurent(ta), QLaurent(tb)
        sub = lambda p: p.substitute(7, 3)
        assert sub(a + b) == sub(a) + sub(b)
        assert sub(a * b) == sub(a) * sub(b)


class TestTextEncoding:
    def test_spec_example_vector(self):
        c = parse_cyclotomic(["1", "-2/3"], 3, 1)
        field = CyclotomicField(3)
        assert c == field.one() - field.zeta_pow(1) * Fraction(2, 3)
        assert encode_cyclotomic(c) == ["1", "-2/3"]

    def test_q_power_shorthand(self):
        assert parse_cyclotomic("q^2", 3, 1) == root_of_unity(3, 2)
        assert parse_cyclotomic("q^-2", 5, 2) == root_of_unity(5, 2) ** -2
        assert parse_cyclotomic("q", 5, 3) == root_of_unity(5, 3)

    def test_scalar_strings(self):
        assert parse_cyclotomic("1", 3, 1) == CyclotomicField(3).one()
        assert parse_cyclotomic("-2/3", 3, 1) == CyclotomicField(3).scalar(Fraction(-2, 3))
        assert parse_cyclotomic("(1-q^-2)", 3, 1) == 1 - root_of_unity(3, 1) ** -2

    def test_round_trip_random(self, rng):
        field = CyclotomicField(9)
        for _ in range(25):
            e = field.element([rng.randint(-9, 9) for _ in range(field.degree)],
                              rng.randint(1, 9))
            assert parse_cyclotomic(encode_cyclotomic(e), 9, 1) == e

    def test_vector_too_long_rejected(self):
        with pytest.raises(ValueError, match="longer than phi"):
            parse_cyclotomic(["1", "1", "1"], 3, 1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_cyclotomic("q^", 3, 1)
        with pytest.raises(ValueError):
            parse_cyclotomic("spam", 3, 1)
