"""Straightening engine: normal forms, identity suites, confluence."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    NCPoly,
    multiply,
    omega,
    oracle_central_powers,
    oracle_local_confluence,
    oracle_remark_identities,
    parse_element,
    power,
    rewrite_rules,
    stepwise_normal_form,
    straighten,
)
from qeuclid import rewriter, scalars
from qeuclid.rewriter import (
    GENERIC_Q,
    GenericQDomain,
    all_gens,
    check_local_confluence,
    gen_index,
    gen_name,
    is_x,
    q_exponent,
    root_domain,
    straighten_word,
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
        def measure(w):
            indices = tuple(sorted((gen_index(c) for c in w), reverse=True))
            inversions = sum(1 for i in range(len(w))
                             for j in range(i + 1, len(w)) if w[i] > w[j])
            return indices, inversions

        for (u, v), _ in rewrite_rules(3):
            before = measure((u, v))
            for _, replacement in rewriter._rewrite_pair(u, v, D):
                assert measure(replacement) < before


# generic q and q = zeta_m^k for m in {3, 5, 9, 61}, one with k != 1
ORACLE_DOMAINS = [None, (3, 1), (5, 1), (9, 1), (61, 1), (9, 2)]


def _domain(spec):
    return GENERIC_Q if spec is None else root_domain(*spec)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty normal-form memo, so straighten_word really computes."""
    monkeypatch.setattr(rewriter, "_NF_CACHE", {})


def _run_heavy_word(rng, n):
    """1-5 runs, each 1-3 copies of one letter."""
    codes = all_gens(n)
    w = ()
    for _ in range(rng.randint(1, 5)):
        w += (rng.choice(codes),) * rng.randint(1, 3)
    return w


@pytest.mark.usefixtures("fresh_memo")
class TestClosedFormAgainstStepwise:
    """straighten_word sorts a word in one insertion pass over its runs;
    the oracle applies one rule per step.  Both must give the same map."""

    @pytest.mark.parametrize("spec", ORACLE_DOMAINS)
    def test_random_words(self, spec):
        dom = _domain(spec)
        rng = random.Random(31)
        for _ in range(60):
            w = _random_word(rng, rng.randint(1, 4), 10)
            assert straighten_word(w, dom) == stepwise_normal_form(w, dom), w

    @pytest.mark.parametrize("spec", [None, (5, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overlap_words(self, n, spec):
        dom = _domain(spec)
        codes = sorted(all_gens(n))
        for ia, a in enumerate(codes):
            for ib, b in enumerate(codes[:ia]):
                for c in codes[:ib]:
                    w = (a, b, c)
                    assert straighten_word(w, dom) == stepwise_normal_form(w, dom), w

    @pytest.mark.parametrize("spec", [None, (5, 2), (61, 1)])
    def test_run_heavy_words(self, spec):
        # each correction word of a y_i run crossing x_i^k must be the
        # arrangement at its crossing, taken at the exponent reached there
        dom = _domain(spec)
        rng = random.Random(37)
        for _ in range(400):
            w = _run_heavy_word(rng, rng.randint(1, 4))
            assert straighten_word(w, dom) == stepwise_normal_form(w, dom), w

    def test_central_power_words(self):
        n, m = 3, 7
        dom = root_domain(m, 1)
        for i in range(1, n + 1):
            for power_word in ((xgen(i),) * m, (ygen(i),) * m):
                for g in all_gens(n):
                    for w in (power_word + (g,), (g,) + power_word):
                        assert straighten_word(w, dom) == stepwise_normal_form(w, dom), w


# (domain, largest k and c): generic q, and q = zeta_m^k with k, c up to m + 1
CROSSING_DOMAINS = [(None, 6), ((3, 1), 4), ((5, 1), 6), ((9, 1), 10), ((9, 2), 10)]


@pytest.mark.usefixtures("fresh_memo")
class TestCrossingsAgainstStepwise:
    """A y_i run crossing x_i^k straightens each correction word once, as
    a geometric sum over its crossings; at q = zeta_m^k the sum vanishes
    when k or c is a multiple of m.  The oracle applies one rule per step."""

    @pytest.mark.parametrize("spec, top", CROSSING_DOMAINS)
    @pytest.mark.parametrize("before, after", [
        ((), ()),
        ((ygen(3), xgen(1)), (xgen(3), ygen(1))),
    ])
    def test_x_run_then_y_run(self, spec, top, before, after):
        dom = _domain(spec)
        x, y = xgen(2), ygen(2)
        for k in range(1, top + 1):
            for c in range(1, top + 1):
                w = before + (x,) * k + (y,) * c + after
                assert straighten_word(w, dom) == stepwise_normal_form(w, dom), (k, c)

    @pytest.mark.parametrize("spec", [None, (3, 1), (5, 2)])
    def test_two_correction_indices(self, spec):
        # y_3 crossing x_3 corrects by y_1 x_1 and by y_2 x_2
        dom = _domain(spec)
        for k in range(1, 5):
            for c in range(1, 5):
                w = (ygen(4),) + (xgen(3),) * k + (ygen(3),) * c + (xgen(2),)
                assert straighten_word(w, dom) == stepwise_normal_form(w, dom), (k, c)


def test_central_powers_work_bound(monkeypatch, fresh_memo):
    """At (n, m) = (3, 61) the suite makes exactly 8 n^2 straighten_word
    calls (one rule per step took 13,608), one per word x_i^m g, g x_i^m,
    y_i^m g, g y_i^m: in x_i^m y_i and x_i y_i^m the geometric sum over
    the m crossings vanishes, so no correction word is straightened.  It
    forms no general scalar product: every product has a power of q as a
    factor, and each geometric sum is a difference of two powers of q."""
    calls, products = [], []
    original_word, original_mul = rewriter.straighten_word, scalars.vec_mul

    def counting_word(word, dom, keep=True):
        calls.append(word)
        return original_word(word, dom, keep)

    def counting_mul(*args):
        products.append(1)
        return original_mul(*args)

    monkeypatch.setattr(rewriter, "straighten_word", counting_word)
    monkeypatch.setattr(scalars, "vec_mul", counting_mul)
    n, m = 3, 61
    assert verify_central_powers(n, m, 1).ok
    assert len(calls) == 8 * n * n
    assert products == []


@pytest.fixture
def straightened(monkeypatch):
    """The residuals that reach _accumulate, one per straightened overlap."""
    residuals = {}
    original = rewriter._accumulate

    def counting(residual, coeff, word, dom):
        residuals[id(residual)] = residual      # kept alive: ids stay distinct
        return original(residual, coeff, word, dom)

    monkeypatch.setattr(rewriter, "_accumulate", counting)
    return residuals


def test_local_confluence_work_bound(fresh_memo, straightened):
    """On the genuine rules every overlap is decided on its rules: the
    q-swap overlaps and the 2n(n-1) with a pair x_i, y_i (264 of the
    2,024 at n = 12) alike, so none reaches _accumulate."""
    report = check_local_confluence(12)
    assert report.ok and len(report.items) == 2024
    assert straightened == {}


def test_remark_identities_work_bound(monkeypatch, fresh_memo):
    """By bilinearity each omega_i g residual grows by two words per i and
    is summed again once, at i = j, and [omega_i, omega_j] grows by two
    words per pair: 7 n^2 - 3 n words, 8 n^2 - 4 n straighten_word calls
    with the recursive ones (1,104 at n = 12), where multiplying out every
    omega_i g and omega_i omega_j made 9,365."""
    calls = []
    original = rewriter.straighten_word

    def counting_word(word, dom):
        calls.append(word)
        return original(word, dom)

    monkeypatch.setattr(rewriter, "straighten_word", counting_word)
    n = 12
    assert verify_remark_identities(n).ok
    assert len(calls) <= 8 * n * n


class WrongCorrection(GenericQDomain):
    """Generic q with 1 - q^-4 where the x_i y_i rule has 1 - q^-2."""

    name = "generic-q, wrong correction"

    def __init__(self):
        super().__init__()
        self.correction = self.one - scalars.QLaurent.q_pow(-4)


def _x_past_y_flipped(original):
    """q_exponent with x_i y_j = q y_j x_i (j < i) in place of q^-1."""
    def tampered(a, b):
        if is_x(a) and not is_x(b) and gen_index(a) > gen_index(b):
            return -original(a, b)
        return original(a, b)
    return tampered


@pytest.mark.usefixtures("fresh_memo")
class TestSuitesAgainstOracle:
    """The suites accumulate each residual in place, and the remark suite
    by bilinearity; the oracles multiply out whole products.  Names, ok
    flags and residual texts must agree, passing or failing."""

    @pytest.mark.parametrize("spec, top", [(None, 6), ((5, 2), 6), ((9, 1), 6)])
    def test_remark_identities(self, spec, top):
        dom = _domain(spec)
        for n in range(1, top + 1):
            assert (verify_remark_identities(n, dom).to_dict()
                    == oracle_remark_identities(n, dom).to_dict()), n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_local_confluence(self, n):
        assert check_local_confluence(n).to_dict() == oracle_local_confluence(n).to_dict()

    @pytest.mark.parametrize("spec", [(5, 2), (9, 1)])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_local_confluence_at_roots(self, n, spec):
        dom = _domain(spec)
        assert (check_local_confluence(n, dom).to_dict()
                == oracle_local_confluence(n, dom).to_dict())

    @pytest.mark.parametrize("m", [3, 5, 9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_central_powers(self, n, m):
        assert (verify_central_powers(n, m, 1).to_dict()
                == oracle_central_powers(n, m, 1).to_dict())

    def test_wrong_correction(self):
        # the one-step reducts read the domain's correction and the
        # straightener does not, so confluence fails; each omega_i only
        # scales by (1 - q^-4) / (1 - q^-2), and the remark identities,
        # homogeneous in the omegas, still hold
        dom = WrongCorrection()
        report = check_local_confluence(3, dom)
        assert not report.ok
        assert report.to_dict() == oracle_local_confluence(3, dom).to_dict()
        report = verify_remark_identities(3, dom)
        assert report.ok
        assert report.to_dict() == oracle_remark_identities(3, dom).to_dict()

    def test_wrong_q_swap_fails_remark_identities(self, monkeypatch):
        monkeypatch.setattr(rewriter, "q_exponent", _x_past_y_flipped(q_exponent))
        for n in (2, 3, 4):
            report = verify_remark_identities(n)
            assert not report.ok
            assert all(item.detail.startswith("residual ") for item in report.failures())
            assert report.to_dict() == oracle_remark_identities(n).to_dict()

    def test_wrong_q_swap_fails_confluence(self, monkeypatch, straightened):
        # x_i y_j = q y_j x_i breaks the sign pattern that decides the
        # x_i y_i overlaps, for x_j at pair 1 (j > 1) and for y_j at pair
        # j + 1: the overlaps of those x_j with every pair and of each y_j
        # with the pairs above it are straightened, and those with an x fail
        monkeypatch.setattr(rewriter, "q_exponent", _x_past_y_flipped(q_exponent))
        for n in (2, 3, 4, 5):
            straightened.clear()
            report = check_local_confluence(n)
            assert len(report.failures()) == (n - 1) ** 2
            assert all(item.detail.startswith("residual ") for item in report.failures())
            assert report.to_dict() == oracle_local_confluence(n).to_dict()
            assert len(straightened) == (n - 1) ** 2 + n * (n - 1) // 2

    def test_two_term_q_swap_fails_its_overlaps(self, monkeypatch, straightened):
        # x_3 x_1 -> q^-1 x_1 x_3 + y_1 x_1: the premise fails on that pair
        # only, so exactly the overlaps holding x3*x1 are straightened, and
        # they fail
        original = rewriter._rewrite_pair
        pair = (xgen(3), xgen(1))

        def two_terms(u, v, dom):
            rule = original(u, v, dom)
            return rule + [(dom.one, (ygen(1), xgen(1)))] if (u, v) == pair else rule

        monkeypatch.setattr(rewriter, "_rewrite_pair", two_terms)
        monkeypatch.setattr(oracles, "_rewrite_pair", two_terms)
        for n in (3, 4, 5):
            straightened.clear()
            report = check_local_confluence(n)
            failing = {item.name.split()[1] for item in report.failures()}
            assert failing == {"x3*x1*y1"} | {f"{g}{j}*x3*x1" for g in "xy"
                                              for j in range(4, n + 1)}
            assert len(straightened) == len(failing)
            assert report.to_dict() == oracle_local_confluence(n).to_dict()

    def test_q_swap_rule_scaled_by_q_fails_its_overlaps(self, monkeypatch):
        # x_3 x_1 -> q^-1 x_1 x_3 made q^0: the premise fails on that pair,
        # so the q-swap overlaps x4*x3*x1 and y4*x3*x1 are straightened
        # and fail, as x3*x1*y1 does; a shortcut that skipped its premise
        # would pass them
        original = rewriter._rewrite_pair
        pair = (xgen(3), xgen(1))

        def scaled(u, v, dom):
            rule = original(u, v, dom)
            return [(dom.q_pow(1) * c, w) for c, w in rule] if (u, v) == pair else rule

        monkeypatch.setattr(rewriter, "_rewrite_pair", scaled)
        monkeypatch.setattr(oracles, "_rewrite_pair", scaled)
        for n, failing in ((3, {"x3*x1*y1"}), (4, {"x3*x1*y1", "y4*x3*x1", "x4*x3*x1"})):
            report = check_local_confluence(n)
            assert {item.name.split()[1] for item in report.failures()} == failing
            assert all(item.detail.startswith("residual ") for item in report.failures())
            assert report.to_dict() == oracle_local_confluence(n).to_dict()

    def test_dropped_correction_words_fail_confluence(self, monkeypatch):
        original = rewriter._rewrite_pair

        def dropped(u, v, dom):
            return original(u, v, dom)[:1]

        monkeypatch.setattr(rewriter, "_rewrite_pair", dropped)
        monkeypatch.setattr(oracles, "_rewrite_pair", dropped)
        for n in (2, 3, 4):
            report = check_local_confluence(n)
            assert not report.ok
            assert all(item.detail.startswith("residual ") for item in report.failures())
            assert report.to_dict() == oracle_local_confluence(n).to_dict()


def test_deep_word_straightens_without_deep_recursion(fresh_memo):
    """y_2 crosses L copies of x_2 in x_2^L y_2; crossing s adds
    (1-q^-2) q^(-2s) y_1 x_1 x_2^(L-1), and the sum telescopes.  The
    recursion depth must not grow with L."""
    L = 2 * sys.getrecursionlimit()
    x2, y2 = xgen(2), ygen(2)
    assert straighten_word((x2,) * L + (y2,), D) == {
        (y2,) + (x2,) * L: scalars.QLaurent.const(1),
        (ygen(1), xgen(1)) + (x2,) * (L - 1):
            scalars.QLaurent.const(1) - scalars.QLaurent.q_pow(-2 * L),
    }


@pytest.mark.parametrize("n", [0, -3])
def test_suites_reject_n_below_one(n):
    for run in (lambda: verify_remark_identities(n),
                lambda: check_local_confluence(n),
                lambda: verify_central_powers(n, 5, 1)):
        with pytest.raises(ValueError, match="n must be >= 1"):
            run()


class TestRuleTable:
    def test_rule_count_and_shape(self):
        rules = rewrite_rules(2)
        # one rule per descent pair: C(4, 2) = 6 for n = 2
        assert len(rules) == 6
        for (u, v), rhs in rules:
            assert u > v
            assert rhs.is_normal()
            assert straighten(word(u, v)) == rhs

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_swaps_match_the_defining_relations(self, n):
        # every descent u v (u after v) of two letters with different
        # indices, with the exponent read off the relations by hand
        for i in range(2, n + 1):
            for j in range(1, i):
                for u, v, e in [(xgen(i), xgen(j), -1),   # x_j x_i = q x_i x_j
                                (ygen(i), ygen(j), 1),    # y_j y_i = q^-1 y_i y_j
                                (xgen(i), ygen(j), -1),   # x_i y_j = q^-1 y_j x_i
                                (ygen(i), xgen(j), 1)]:   # x_j y_i = q^-1 y_i x_j
                    assert straighten(word(u, v)) == NCPoly.word(D, (v, u), D.q_pow(e))
                    assert (q_exponent(u, v), q_exponent(v, u)) == (e, -e)
        for i in range(1, n + 1):
            assert q_exponent(xgen(i), ygen(i)) == q_exponent(ygen(i), xgen(i)) == 0
            assert q_exponent(xgen(i), xgen(i)) == q_exponent(ygen(i), ygen(i)) == 0

    def test_additive_rule_carries_correction(self):
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
