"""Exact arithmetic in Q(zeta_m) and in generic-q Laurent polynomials."""

import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    euclid_inverse,
    oracle_encode,
    oracle_parse_cyclotomic,
    oracle_parse_qlaurent,
    oracle_substitute,
    oracle_tokenize,
    qpoly_divmod,
)
from qeuclid import rewriter, scalars
from qeuclid.scalars import (
    MAX_LITERAL_DEPTH,
    MAX_LITERAL_WORK,
    CyclotomicField,
    QLaurent,
    cyclotomic_cofactor,
    cyclotomic_polynomial,
    encode_cyclotomic,
    euler_phi,
    parse_cyclotomic,
    parse_qlaurent,
    root_of_unity,
    tokenize,
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

    @pytest.mark.parametrize("m", [3, 15, 21, 45])
    def test_cofactor_times_phi_is_x_m_minus_1(self, m):
        expected = [-1] + [0] * (m - 1) + [1]
        assert scalars._poly_mul_int(list(cyclotomic_cofactor(m)),
                                     list(cyclotomic_polynomial(m))) == expected


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

    @pytest.mark.parametrize("m", [3, 9, 15, 105])
    def test_zeta_exponent_inverts_zeta_pow(self, m):
        field = CyclotomicField(m)
        for e in range(m):
            z = field.zeta_pow(e)
            assert field.zeta_exponent(z) == e
            for other in (z * 2, z * Fraction(1, 2), -z, z + field.one()):
                assert field.zeta_exponent(other) is None

    def test_large_field_forms_powers_on_demand(self):
        field = CyclotomicField(4001)
        assert len(field.wrap) == 1 and not field._zeta_powers
        assert field.zeta_pow(-1).nums == (-1,) * 4000
        assert field.zeta_exponent(field.zeta_pow(4000)) == 4000
        assert list(field._zeta_powers) == [4000]

    def test_root_domain_builds_no_orbit_hash_points(self, monkeypatch):
        # the points of linalg.ScalarTable's orbit hash take about phi^2 / 16
        # bytes, 25 MB at m = 20011 (a prime); identities never interns a
        # value, so the field it builds holds none of them
        monkeypatch.setattr(scalars, "_FIELD_CACHE", {})
        monkeypatch.setattr(rewriter, "_ROOT_DOMAINS", {})
        tracemalloc.start()
        try:
            field = rewriter.root_domain(20011, 1).field
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.degree == 20010
        assert peak < 8 * 2 ** 20
        assert not [name for name in CyclotomicField.__slots__ if "orbit" in name]

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

    def test_mixed_field_elements_are_unequal(self):
        three, five = CyclotomicField(3), CyclotomicField(5)
        assert three.one() != five.one()
        assert not three.zeta_pow(1) == five.zeta_pow(1)

    def test_hash_agrees_with_equality(self):
        field = CyclotomicField(7)
        for value in (0, 3, -2, Fraction(5, 3)):
            assert field.scalar(value) == value
            assert len({field.scalar(value), value}) == 1
            assert len({QLaurent.const(value), value}) == 1
        assert len({field.zeta_pow(1), field.element([0, 1])}) == 1

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
        modulus = [Fraction(c) for c in cyclotomic_polynomial(m)]
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
            assert (a * b).to_fractions() == _reduced(product, modulus, d)

    @pytest.mark.parametrize("m", [3, 5, 9, 15, 21, 105])
    def test_rotation_matches_oracle_and_general_path(self, m):
        # a power of zeta on either side takes the rotation path; it must
        # equal x^e * a(x) mod Phi_m and the general product bit for bit
        field = CyclotomicField(m)
        d = field.degree
        modulus = [Fraction(c) for c in cyclotomic_polynomial(m)]
        rng = random.Random(m)
        operands = [field.zero()] + [
            field.element([rng.randint(-10 ** 4, 10 ** 4) for _ in range(d)],
                          rng.randint(1, 60))
            for _ in range(2)]
        for e in range(m):
            z = field.zeta_pow(e)
            for a in operands:
                expected = _reduced([Fraction(0)] * e + list(a.to_fractions()),
                                    modulus, d)
                general = scalars.vec_mul(a.nums, a.den, z.nums, z.den, field.wrap)
                for product in (z * a, a * z):
                    assert product.to_fractions() == expected, (m, e)
                    assert (product.nums, product.den) == general, (m, e)

    @pytest.mark.parametrize("m", [9, 105])
    def test_scaled_powers_take_the_general_path(self, monkeypatch, m):
        field = CyclotomicField(m)
        d = field.degree
        modulus = [Fraction(c) for c in cyclotomic_polynomial(m)]
        rng = random.Random(m)
        a = field.element([rng.randint(-99, 99) for _ in range(d)], 7)
        calls = _count_calls(monkeypatch)
        for e in (0, 1, d, m - 1):
            for scale in (-1, Fraction(1, 2)):
                z = field.zeta_pow(e) * scale
                expected = _reduced(
                    [Fraction(0)] * e + [c * scale for c in a.to_fractions()],
                    modulus, d)
                assert (z * a).to_fractions() == expected
                assert (a * z).to_fractions() == expected
        assert len(calls) == 16

    def test_zeta_pow_matches_repeated_multiplication(self):
        # the chain runs through the general product, not the lookup
        field = CyclotomicField(105)
        zeta = field.zeta_pow(1)
        nums, den = field.one().nums, 1
        for e in range(2 * field.m + 1):
            assert (field.zeta_pow(e).nums, field.zeta_pow(e).den) == (nums, den), e
            assert field.zeta_pow(-e) * field.zeta_pow(e) == field.one()
            nums, den = scalars.vec_mul(nums, den, zeta.nums, zeta.den, field.wrap)


def _reduced(poly, modulus, d):
    """poly mod the cyclotomic modulus, padded to d coordinates."""
    _, rem = qpoly_divmod(poly, modulus)
    return tuple(rem + [Fraction(0)] * (d - len(rem)))


def _count_calls(monkeypatch, name="vec_mul"):
    """Route scalars.<name> through a counter; returns the call list."""
    calls = []
    original = getattr(scalars, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scalars, name, counting)
    return calls


class TestRotationGuard:
    """Products by a power of zeta never reach the general product."""

    def test_powers_of_zeta_at_m61(self, monkeypatch):
        field = CyclotomicField(61)
        rng = random.Random(61)
        a = field.element([rng.randint(-3, 3) for _ in range(field.degree)], 4)
        calls = _count_calls(monkeypatch)
        for e in range(field.m):
            z = field.zeta_pow(e)
            assert z * a == a * z
        assert calls == []

    def test_central_powers_run_no_general_product(self, monkeypatch):
        # a fresh normal-form memo, so the rewriter really straightens; the
        # suite compares the two normal forms of each commutator and the
        # crossing sums are differences of powers of zeta, so nothing is
        # multiplied at all, not even by a power of zeta
        monkeypatch.setattr(rewriter, "_NF_CACHE", {})
        rotations = _count_calls(monkeypatch, "vec_rotate")
        calls = _count_calls(monkeypatch)
        assert rewriter.verify_central_powers(2, 31, 1).ok
        assert calls == [] and rotations == []
        # and keeps none of its 8 n^2 words of length m + 1 in the memo
        assert rewriter._NF_CACHE[rewriter.root_domain(31, 1)] == {}


class TestPower:
    """Binary powering starts at the lowest set bit and squares no further
    than the top bit."""

    @pytest.mark.parametrize("e,products", [(1, 0), (2, 1), (3, 2), (9, 4), (21, 6)])
    def test_product_count(self, monkeypatch, e, products):
        base = CyclotomicField(9).element([1, 2, 0, -1, 0, 3], 5)
        calls = _count_calls(monkeypatch)
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


class TestNormInverse:
    """Cyclotomic.inv (product of the Galois conjugates over the norm)
    against the extended Euclidean algorithm over Fraction."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 5, 7, 9, 15, 21, 25]).flatmap(_elements))
    def test_matches_euclid(self, a):
        if a.is_zero():
            return
        inv = a.inv()
        assert inv == euclid_inverse(a)
        assert a * inv == a.field.one()

    def test_large_literal_inverts_quickly(self):
        # Euclid's Fraction coefficients swell on these (minutes at m = 61)
        for m in (61, 105):
            a = parse_cyclotomic("(1+q)^128*(1+q)^128", m, 1)
            start = time.perf_counter()
            inv = a.inv()
            assert time.perf_counter() - start < 20
            assert a * inv == a.field.one()

    def test_conjugates_are_field_automorphisms(self):
        field = CyclotomicField(15)
        a, b = field.element([1, -2, 0, 3], 2), field.element([0, 1, 1, -1, 5])
        for j in (2, 4, 7, 8, 11, 13, 14):
            def sigma(c):
                return field.element(scalars._conjugate(c.nums, j, field.wrap), c.den)
            assert sigma(a * b) == sigma(a) * sigma(b)
            assert sigma(a + b) == sigma(a) + sigma(b)


class TestInvOneMinus:
    """The closed form 1 / (1 - zeta^e) = -(1/m) sum_(j<m) j zeta^(ej)
    against the norm inverse."""

    @pytest.mark.parametrize("m", [3, 5, 9, 15, 21, 105])
    def test_matches_norm_inverse(self, m):
        field = CyclotomicField(m)
        one = field.one()
        for k in [k for k in range(1, m) if gcd(k, m) == 1][:8]:
            q2 = field.zeta_pow(2 * k)
            qm2 = field.zeta_pow(-2 * k)
            inv = field.inv_one_minus(-2 * k)
            assert inv == (one - qm2).inv()
            assert qm2 * inv == (q2 - one).inv()

    def test_every_nontrivial_power(self):
        # non-primitive powers too: x = zeta^5 at m = 15 has order 3
        field = CyclotomicField(15)
        for e in range(1, 15):
            assert field.inv_one_minus(e) * (field.one() - field.zeta_pow(e)) \
                == field.one()
        with pytest.raises(ZeroDivisionError):
            field.inv_one_minus(15)


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


class TestQLaurentIntegerCoefficients:
    """Integral coefficients are ints, true rationals Fractions; results
    pinned from the all-Fraction representation."""

    def test_int_and_equal_fraction_agree(self):
        for c in (2, -7, 0):
            a, b = QLaurent({1: c, -2: 3}), QLaurent({1: Fraction(c), -2: Fraction(6, 2)})
            assert a == b and hash(a) == hash(b)
            assert all(type(v) is int for v in b.terms.values())
        assert QLaurent.const(Fraction(4, 2)) == 2
        assert hash(QLaurent.const(Fraction(4, 2))) == hash(QLaurent.const(2))

    def test_rule_coefficients_stay_integral(self):
        p = parse_qlaurent("(1-q^-2)^3") * QLaurent.q_pow(5) + 1
        assert all(type(c) is int for c in p.terms.values())

    def test_rational_literal_holds_a_fraction(self):
        p = parse_qlaurent("1/5*q")
        assert p.terms == {1: Fraction(1, 5)} and type(p.terms[1]) is Fraction
        half = parse_qlaurent("1/2") + parse_qlaurent("1/2")
        assert type(half.terms[0]) is int

    @pytest.mark.parametrize("text,expected", [
        ("0", "0"),
        ("-q^-3", "-q^-3"),
        ("2/2*q", "q"),
        ("3*q^-2 - 2 + 1/5*q", "3*q^-2 - 2 + 1/5*q"),
        ("(1-q^-2)^3", "-q^-6 + 3*q^-4 - 3*q^-2 + 1"),
        ("(2*q-1/3)*(q^2+3/4)", "-1/4 + 3/2*q - 1/3*q^2 + 2*q^3"),
        ("6/4 - 7/3*q^5", "3/2 - 7/3*q^5"),
    ])
    def test_repr_unchanged(self, text, expected):
        assert repr(parse_qlaurent(text)) == expected

    @pytest.mark.parametrize("text,e,expected", [
        ("2*q^3", -1, "1/2*q^-3"),
        ("-q", -2, "q^-2"),
        ("1/3*q^-2", -3, "27*q^6"),
        ("4", -1, "1/4"),
    ])
    def test_negative_power_unchanged(self, text, e, expected):
        assert repr(parse_qlaurent(text) ** e) == expected

    @pytest.mark.parametrize("text,m,k,expected", [
        ("3*q^-2 - 2 + 1/5*q", 5, 2, "-2 + 3*z + 1/5*z^2"),
        ("3*q^-2 - 2 + 1/5*q", 9, 1, "-2 - 14/5*z - 3*z^4"),
        ("(1-q^-2)^3", 9, 1, "1 + 3*z - z^3 + 3*z^4 + 3*z^5"),
        ("(2*q-1/3)*(q^2+3/4)", 7, 3,
         "1/12 + 1/3*z + 7/3*z^2 + 11/6*z^3 + 1/3*z^4 + 1/3*z^5"),
    ])
    def test_substitute_unchanged(self, text, m, k, expected):
        assert repr(parse_qlaurent(text).substitute(m, k)) == expected


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

    def test_int_digit_limit_lifted_only_while_encoding(self):
        # a computed value longer than Python's default int-to-str limit
        # is written in full, and the limit still refuses such text
        limit = sys.get_int_max_str_digits()
        big = CyclotomicField(3).scalar(10 ** 5000 + 1)
        assert encode_cyclotomic(big) == ["1" + "0" * 4999 + "1", "0"]
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError, match="limit"):
            parse_cyclotomic(["1" + "0" * 4999 + "1"], 3, 1)

    def test_vector_too_long_rejected(self):
        with pytest.raises(ValueError, match="longer than phi"):
            parse_cyclotomic(["1", "1", "1"], 3, 1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_cyclotomic("q^", 3, 1)
        with pytest.raises(ValueError):
            parse_cyclotomic("spam", 3, 1)


# ---------------------------------------------------------------------------
# config ingestion in integers against the Fraction-and-products oracle
# ---------------------------------------------------------------------------

_INGEST_MODULI = (3, 5, 9, 15, 21, 105)


def _outcome(fn, *args):
    """("ok", value) or (exception type name, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:            # the two paths must fail alike
        return type(exc).__name__, str(exc)


def _parse_with_work(text):
    parser = scalars._ScalarParser(tokenize(text))
    return parser.parse(), parser.work


_ATOMS = st.one_of(
    st.integers(0, 40).map(str),
    st.builds("{}/{}".format, st.integers(0, 30), st.integers(0, 9)),
    st.just("q"),
)


def _extend(inner):
    return st.one_of(
        st.builds("{}^{}".format, inner, st.integers(-9, 9)),
        st.builds("{}{}{}".format, inner,
                  st.sampled_from(["+", "-", "*", " + ", "*-", "--", "-+"]), inner),
        inner.map("({})".format),
        inner.map("-{}".format),
    )


# well-formed literals, sums of q-powers as in config files, literals at
# the power, work and depth bounds, and token soup for the parse errors
_LITERALS = st.one_of(
    st.recursive(_ATOMS, _extend, max_leaves=12),
    st.lists(st.tuples(st.sampled_from(["+", "-"]), st.integers(1, 9),
                       st.integers(1, 13), st.integers(-30, 30)),
             min_size=1, max_size=24).map(
        lambda ts: "".join(f"{s}{a}/{b}*q^{e}" for s, a, b, e in ts)),
    st.builds("({}+q)^{}".format, st.integers(1, 3), st.integers(-2, 300)),
    st.builds("{}^{}".format, st.sampled_from(["2", "3/2", "-q", "1/7*q^2"]),
              st.integers(-300, 300)),
    st.builds(lambda term, count, sign: sign.join([term] * count),
              st.sampled_from(["(1+q)^128", "(1+q)^64*(1+q)^64", "(2-q)^100"]),
              st.integers(1, 6), st.sampled_from(["+", "-", "*"])),
    st.builds(lambda d, body: "(" * d + body + ")" * d,
              st.integers(MAX_LITERAL_DEPTH - 2, MAX_LITERAL_DEPTH + 2),
              st.sampled_from(["1", "q-1"])),
    st.builds(lambda d: "-" * d + "q", st.integers(MAX_LITERAL_DEPTH - 2,
                                                    MAX_LITERAL_DEPTH + 2)),
    st.text(alphabet="0123456789q^*/+-() x", max_size=16),
)


class TestIngestOracle:
    """The integer path of config ingestion (tokenize, _ScalarParser,
    QLaurent.substitute, parse_cyclotomic, encode_cyclotomic) against
    the Fraction-and-products oracle in tests/oracles.py: the same
    values, the same work charged, the same refusals."""

    @settings(max_examples=400, deadline=None)
    @given(_LITERALS)
    @example("(1+q)^257")                               # power bound
    @example("(1+q)^128*(1+q)^128*(1+q)^128")           # work bound
    @example("+".join(["(1+q)^128"] * 5))               # work bound, sums
    @example("(" * (MAX_LITERAL_DEPTH + 1) + "1" + ")" * (MAX_LITERAL_DEPTH + 1))
    @example("3/0*q")                                   # zero denominator
    @example("(1+q)^-1")                                # not a monomial
    @example("1 ")                                      # trailing blank
    @example("q^" + "9" * 5000)                         # int digit limit
    def test_literal_value_work_and_refusal(self, text):
        new, old = _outcome(_parse_with_work, text), _outcome(oracle_parse_qlaurent, text)
        assert new[0] == old[0]
        if new[0] != "ok":
            assert new[1] == old[1]
            return
        (value, work), (expected, expected_work) = new[1], old[1]
        assert work == expected_work
        assert value == expected and repr(value) == repr(expected)
        assert {e: type(c) for e, c in value.terms.items()} == \
            {e: type(c) for e, c in expected.terms.items()}

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789qxy^*/+-() \t\n.!", max_size=24))
    def test_tokens_and_bad_token(self, text):
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_INGEST_MODULI).flatmap(lambda m: st.tuples(
               st.just(m), st.sampled_from([k for k in range(-m, 2 * m)
                                            if gcd(k, m) == 1]))),
           _LITERALS)
    def test_substituted_literal(self, mk, text):
        m, k = mk
        assert _outcome(parse_cyclotomic, text, m, k) == \
            _outcome(oracle_parse_cyclotomic, text, m, k)
        parsed = _outcome(parse_qlaurent, text)
        if parsed[0] == "ok":
            value = parsed[1].substitute(m, k)
            expected = oracle_substitute(parsed[1], m, k)
            assert (value.nums, value.den) == (expected.nums, expected.den)

    def test_substitute_refuses_like_the_oracle(self):
        p = parse_qlaurent("1/3*q^2-q^-5")
        for m, k in [(9, 3), (15, 10), (4, 1), (1, 1)]:
            assert _outcome(p.substitute, m, k) == _outcome(oracle_substitute, p, m, k)

    _COORDINATES = st.one_of(
        st.integers(-10 ** 40, 10 ** 40),
        st.builds("{}{}/{}".format, st.sampled_from(["", "-", "00"]),
                  st.integers(0, 10 ** 12), st.integers(0, 60)),
        st.builds("{}{}".format, st.sampled_from(["", "-", "0"]),
                  st.integers(0, 10 ** 30)),
        st.sampled_from(["1.5", "1e3", "", " 1", "--1", "1/", "/2", "0x10",
                         "1/2/3", "\u0663", "1" * 4400, "1/" + "7" * 4400,
                         True, False, None, 1.5, [1]]),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_INGEST_MODULI).flatmap(lambda m: st.tuples(
               st.just(m), st.lists(TestIngestOracle._COORDINATES,
                                    max_size=euler_phi(m) + 1))))
    @example((3, ["1/0"]))                              # zero denominator
    @example((5, ["2/4", "-6/8", 3, "0/7"]))
    def test_coordinates(self, m_coords):
        m, coords = m_coords
        assert _outcome(parse_cyclotomic, coords, m, 1) == \
            _outcome(oracle_parse_cyclotomic, coords, m, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_INGEST_MODULI).flatmap(lambda m: st.builds(
               CyclotomicField(m).element,
               st.lists(st.one_of(st.integers(-10 ** 20, 10 ** 20),
                                  st.integers(-99, 99).map(
                                      lambda v: v * 10 ** 4400 + 1)),
                        min_size=euler_phi(m), max_size=euler_phi(m)),
               st.one_of(st.integers(1, 10 ** 6), st.just(2 * 10 ** 4500)))))
    def test_encode_equals_str_of_fractions(self, c):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert encode_cyclotomic(c) == oracle_encode(c)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
