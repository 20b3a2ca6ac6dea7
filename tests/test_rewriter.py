"""Straightening engine: normal forms, identity suites, confluence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_element
from qeuclid.rewriter import (
    GENERIC_Q,
    NCPoly,
    all_gens,
    check_covariant,
    check_local_confluence,
    gen_name,
    multiply,
    omega,
    power,
    root_domain,
    straighten,
    verify_central_powers,
    verify_remark_identities,
    xgen,
    ygen,
)

D = GENERIC_Q


def word(*codes):
    return NCPoly.word(D, codes)


class TestStraighten:
    def test_x1_y1_has_empty_correction(self):
        assert straighten(word(xgen(1), ygen(1))) == word(ygen(1), xgen(1))

    def test_x2_y2_produces_correction(self):
        expected = (word(ygen(2), xgen(2))
                    + NCPoly.word(D, (ygen(1), xgen(1)), D.correction))
        assert straighten(word(xgen(2), ygen(2))) == expected

    def test_x2_x1_q_swap(self):
        assert straighten(word(xgen(2), xgen(1))) == NCPoly.word(
            D, (xgen(1), xgen(2)), D.q_pow(-1))

    def test_y_swap_direction(self):
        # y_1 y_2 = q^-1 y_2 y_1 means the reversed word picks up q
        assert straighten(word(ygen(2), ygen(1))) == NCPoly.word(
            D, (ygen(1), ygen(2)), D.q_pow(1))

    def test_normal_words_untouched(self):
        w = word(ygen(1), xgen(1), ygen(2), xgen(2), xgen(2))
        assert straighten(w) == w


class TestMultiply:
    def test_one_is_identity(self):
        p = straighten(word(xgen(2), ygen(2), xgen(1)))
        assert multiply(NCPoly.one(D), p) == p
        assert multiply(p, NCPoly.one(D)) == p

    def test_already_normal_product(self):
        assert multiply(NCPoly.gen(D, ygen(1)), NCPoly.gen(D, xgen(1))) == word(
            ygen(1), xgen(1))

    def test_omegas_commute(self):
        w1, w2 = omega(1, 2), omega(2, 2)
        assert (multiply(w1, w2) - multiply(w2, w1)).is_zero()

    def test_mixed_domain_rejected(self):
        with pytest.raises(ValueError):
            multiply(NCPoly.one(D), NCPoly.one(root_domain(3, 1)))


class TestOmega:
    def test_single_summand(self):
        assert omega(1, 3) == NCPoly.word(D, (ygen(1), xgen(1)), D.correction)

    def test_telescoping(self):
        assert omega(2, 2) - omega(1, 2) == NCPoly.word(
            D, (ygen(2), xgen(2)), D.correction)

    def test_fourth_relation_family(self):
        residual = straighten(word(xgen(2), ygen(2)) - word(ygen(2), xgen(2)))
        assert residual == omega(1, 2)

    def test_index_range(self):
        with pytest.raises(ValueError):
            omega(3, 2)


class TestCovariance:
    def test_omega1_vs_x2(self):
        assert check_covariant(omega(1, 2), 2)["x2"] == D.q_pow(2)

    def test_omega1_vs_x1(self):
        assert check_covariant(omega(1, 2), 2)["x1"] == D.one

    def test_generator_covariance(self):
        assert check_covariant(NCPoly.gen(D, xgen(1)), 2)["y2"] == D.q_pow(-1)

    def test_all_omegas_covariant(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                result = check_covariant(omega(i, n), n)
                assert all(c is not None for c in result.values())

    def test_non_covariant_element(self):
        p = NCPoly.gen(D, xgen(1)) + NCPoly.gen(D, ygen(2))
        result = check_covariant(p, 2)
        assert result["x2"] is None

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError, match="zero element"):
            check_covariant(NCPoly(D), 2)


class TestRemarkIdentities:
    def test_n1_trivial(self):
        report = verify_remark_identities(1)
        assert report.ok and len(report.items) == 2

    def test_n2_nine_identities(self):
        report = verify_remark_identities(2)
        assert report.ok
        assert len(report.items) == 9

    def test_n3_twenty_one_identities(self):
        report = verify_remark_identities(3)
        assert report.ok
        assert len(report.items) == 21

    def test_also_holds_at_root_of_unity(self):
        report = verify_remark_identities(2, root_domain(5, 2))
        assert report.ok


class TestCentralPowers:
    def test_n1_commutative(self):
        assert verify_central_powers(1, 3, 1).ok

    def test_n2_m3_eight_entries(self):
        report = verify_central_powers(2, 3, 1)
        assert report.ok
        assert len(report.items) == 8

    def test_n2_m5(self):
        assert verify_central_powers(2, 5, 1).ok

    def test_non_central_lower_powers(self):
        # x_2^j for 0 < j < m is not central: the suite must be a real test
        dom = root_domain(3, 1)
        p = NCPoly.word(dom, (xgen(2),) * 2)
        g = NCPoly.gen(dom, ygen(2))
        assert not (multiply(p, g) - multiply(g, p)).is_zero()


class TestConfluence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_overlaps_resolve(self, n):
        report = check_local_confluence(n)
        assert report.ok
        # overlap words = strictly decreasing triples of 2n generators
        gens = 2 * n
        expected = gens * (gens - 1) * (gens - 2) // 6
        assert len(report.items) == expected

    def test_named_overlaps_present(self):
        report = check_local_confluence(2)
        names = {item.name for item in report.items}
        assert "overlap x2*x1*y1" in names
        assert "overlap x2*y2*y1" in names


def _random_word(rng, n, max_len=12):
    codes = all_gens(n)
    return tuple(rng.choice(codes) for _ in range(rng.randint(0, max_len)))


class TestEngineProperties:
    def test_idempotence_on_random_words(self):
        rng = random.Random(11)
        for _ in range(40):
            p = straighten(NCPoly.word(D, _random_word(rng, 3)))
            assert straighten(p) == p
            assert p.is_normal()

    def test_product_associativity(self):
        rng = random.Random(13)
        for _ in range(15):
            a = NCPoly.word(D, _random_word(rng, 2, 4))
            b = NCPoly.word(D, _random_word(rng, 2, 4))
            c = NCPoly.word(D, _random_word(rng, 2, 4))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_letterwise_multiplication_consistency(self):
        # straightening a concatenation equals multiplying straightened parts
        rng = random.Random(17)
        for _ in range(25):
            w1, w2 = _random_word(rng, 3, 6), _random_word(rng, 3, 6)
            whole = straighten(NCPoly.word(D, w1 + w2))
            parts = multiply(straighten(NCPoly.word(D, w1)),
                             straighten(NCPoly.word(D, w2)))
            assert whole == parts

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=12))
    def test_termination_up_to_length_12(self, codes):
        # n = 3: codes 0..5; every straighten call must come back normal
        p = straighten(NCPoly.word(D, tuple(codes)))
        assert p.is_normal()

    def test_termination_measure_drops_at_every_rule(self):
        # the measure (index multiset sorted descending, inversion count)
        # must strictly decrease lexicographically on every rule output
        from qeuclid.rewriter import _rewrite_pair, gen_index, rewrite_rules

        def measure(w):
            indices = tuple(sorted((gen_index(c) for c in w), reverse=True))
            inversions = sum(1 for i in range(len(w))
                             for j in range(i + 1, len(w)) if w[i] > w[j])
            return indices, inversions

        for (u, v), _ in rewrite_rules(3):
            before = measure((u, v))
            for _, replacement in _rewrite_pair(u, v, D):
                assert measure(replacement) < before


class TestRuleTable:
    def test_rule_count_and_shape(self):
        from qeuclid.rewriter import rewrite_rules
        rules = rewrite_rules(2)
        # one rule per descent pair: C(4, 2) = 6 for n = 2
        assert len(rules) == 6
        for (u, v), rhs in rules:
            assert u > v
            assert rhs.is_normal()
            assert straighten(word(u, v)) == rhs

    def test_additive_rule_carries_correction(self):
        from qeuclid.rewriter import rewrite_rules
        rules = dict(rewrite_rules(3))
        rhs = rules[(xgen(3), ygen(3))]
        assert rhs == (word(ygen(3), xgen(3))
                       + NCPoly.word(D, (ygen(1), xgen(1)), D.correction)
                       + NCPoly.word(D, (ygen(2), xgen(2)), D.correction))
        # pure q-swap rules stay monomial
        assert len(rules[(xgen(2), xgen(1))].terms) == 1


class TestElementSyntax:
    def test_spec_example(self):
        assert parse_element("(1-q^-2)*y1*x1", 2) == omega(1, 2)

    def test_relation_as_text(self):
        residual = parse_element("x2*y2 - y2*x2 - (1-q^-2)*y1*x1", 2)
        assert residual.is_zero()

    def test_powers(self):
        assert parse_element("x1^3", 2) == power(NCPoly.gen(D, xgen(1)), 3)

    def test_scalar_coefficient(self):
        from fractions import Fraction
        p = parse_element("2/3*q^-1*y2", 2)
        ((w, c),) = p.terms.items()
        assert w == (ygen(2),)
        assert c == D.q_pow(-1) * D.scalar(Fraction(2, 3))

    def test_root_domain_parsing(self):
        dom = root_domain(3, 1)
        p = parse_element("(1-q^-2)*y1*x1", 2, dom)
        assert p == omega(1, 2, dom)

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_element("x3", 2)

    def test_gen_names(self):
        assert [gen_name(g) for g in all_gens(2)] == ["x1", "x2", "y1", "y2"]
