"""Verification suite: relations, omega, centrals, commutant, separation."""

import json
import os
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DictMatrix,
    NCPoly,
    full_commutant_dimension,
    monomial,
    multiply,
    omega,
    oracle_central,
    oracle_omega,
    oracle_relations,
    permuted,
    straighten,
)
from qeuclid import repmod, scalars, verify
from qeuclid.cli import main, parse_config
from qeuclid.linalg import CycMatrix, ScalarTable, nullspace_dimension
from qeuclid.repmod import (
    GeneratorMatrices,
    GeneratorRule,
    GuardError,
    ModuleParams,
    ParamError,
    build_module,
    random_module_params,
)
from qeuclid.rewriter import all_gens, gen_name, root_domain, xgen, ygen
from qeuclid.verify import (
    OmegaRows,
    central_power,
    check_central_scalars,
    check_dimension_bound,
    check_eigen_separation,
    check_omega_action,
    check_relations,
    commutant_dimension,
    direct_sum,
    omega_rows,
    run_verification,
    tampered_copy,
)

CASES = ["I", "II", "III"]
SHAPES = [(2, 3), (2, 5), (3, 3)]


def build(case, n, m, k=1, seed=0):
    params = random_module_params(case, n, m, k, seed=seed)
    return params, build_module(params)


def without_provenance(gm):
    """The same matrices as a module no rules are known for: verify walks
    their rows."""
    return GeneratorMatrices(gm.params, gm.mats)


class TestRelations:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 3)])
    def test_correct_instances_have_no_failures(self, case, n, m):
        _, gm = build(case, n, m, seed=31)
        assert check_relations(gm) == []

    def test_i1_relation_trivially_diagonal(self):
        _, gm = build("I", 2, 3, seed=1)
        x1, y1 = gm.mat("x1"), gm.mat("y1")
        xy, yx = x1 @ y1, y1 @ x1
        assert (xy.cols, xy.codes) == (yx.cols, yx.codes)

    def test_tampered_instance_fails(self):
        _, gm = build("I", 2, 3, seed=1)
        bad = tampered_copy(gm, "x2", 0, 1)
        assert check_relations(bad) != []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_generator_pair_checked_once(self, n):
        # d = 2 stubs: x1 swaps the two rows, every other generator is
        # diagonal, and all entries are distinct primes, so no q-power
        # relates them and every relation fails, x1 y1 = y1 x1 included
        params = random_module_params("I", n, 3, 1, seed=n)
        field = params.domain.field
        table = ScalarTable(field)
        primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                       47, 53, 59, 61, 67, 71])
        mats = {}
        for code in all_gens(n):
            coeffs = [field.scalar(next(primes)) for _ in range(2)]
            cols = [1, 0] if code == xgen(1) else [0, 1]
            mats[gen_name(code)] = monomial(table, cols, coeffs)
        stub = GeneratorMatrices(params, mats)
        failures = check_relations(stub)
        pairs = Counter(frozenset(name.split(" = ")[0].split("*"))
                        for name in failures)
        expected = {frozenset((gen_name(a), gen_name(b)))
                    for a in all_gens(n) for b in all_gens(n) if a != b}
        assert len(expected) == n * (2 * n - 1)
        assert set(pairs) == expected and set(pairs.values()) == {1}
        assert failures == oracle_relations(stub)

    def test_dimension_mismatch_rejected(self):
        params, gm = build("I", 2, 3, seed=1)
        mats = {name: mat.copy() for name, mat in gm.mats.items()}
        mats["x1"] = CycMatrix(gm.table, gm.dim + 1)
        with pytest.raises(ParamError, match="mismatched dimensions"):
            GeneratorMatrices(params, mats)


class TestOmegaAction:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_diagonal_with_seed_lambda(self, case):
        params, gm = build(case, 3, 3, seed=32)
        for check in check_omega_action(gm):
            assert check.diagonal
            assert check.seed_matches_lambda
            assert check.seed_eigenvalue == params.lam_i(check.index)
            assert check.all_entries_nonzero

    def test_omega_walk_keeps_one_level_of_rows(self):
        # the omegas are summed in one live level of d rows, not stored
        # as n + 1 levels of d rows each
        params = random_module_params("I", 8, 3, 1, seed=3)
        params.max_dim = 3 ** 7
        gm = without_provenance(build_module(params))
        tracemalloc.start()
        try:
            assert omega_rows(gm).path == "dense"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestCentralScalars:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_all_match(self, case):
        params, gm = build(case, 2, 5, seed=33)
        checks = check_central_scalars(gm)
        assert all(c.ok for c in checks)
        by_gen = {c.generator: c for c in checks}
        assert by_gen["x1"].value == params.alpha1 ** params.m
        for i in params.I_set:
            assert by_gen[f"x{i}"].value.is_zero()

    def test_case3_reports_zero_for_nilpotent(self):
        params, gm = build("III", 2, 3, seed=34)
        j = sorted(params.I_set & params.J_set)[0]
        by_gen = {c.generator: c for c in check_central_scalars(gm)}
        assert by_gen[f"y{j}"].value.is_zero() and by_gen[f"y{j}"].ok

    def test_tampered_central_detected(self):
        # tampering a diagonal generator survives relations with itself but
        # not the combined relation/central sweep
        _, gm = build("I", 2, 3, seed=35)
        bad = tampered_copy(gm, "x1", 0, 0)
        assert (check_relations(bad) != []
                or any(not c.ok for c in check_central_scalars(bad)))


class TestCentralPowersAtLargeM:
    def test_scalar_products_stay_linear_in_m(self, tmp_path, monkeypatch):
        # x_1, y_1 are one base times powers of q and each y_2 cycle
        # multiplies m distinct bases once: the products and powers of the
        # check stay within 2m general scalar products at m = 101 (raising
        # every cycle product to m / length took over 1,000)
        m = 101
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": m, "k": 1, "n": 2, "alpha1": "1",
                                   "alpha": ["1"], "beta": ["0"],
                                   "lambda": ["1", "2"]}))
        calls, inside = [], []
        vec_mul, check = scalars.vec_mul, verify.check_central_scalars

        def counting_mul(*args):
            if inside:
                calls.append(1)
            return vec_mul(*args)

        def counting_check(*args):
            inside.append(1)
            try:
                return check(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(scalars, "vec_mul", counting_mul)
        monkeypatch.setattr(verify, "check_central_scalars", counting_check)
        assert main(["verify", "--config", str(cfg)]) == 0
        assert 0 < len(calls) <= 2 * m


class TestCodedCoefficients:
    """Matrix entries are codes zeta^e * base in one table per module."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5, 9, 15, 21, 25, 45]).flatmap(
        lambda m: st.tuples(st.just(m),
                            st.lists(st.lists(st.integers(-3, 3), min_size=m,
                                              max_size=m), min_size=1, max_size=6),
                            st.integers(1, 4), st.integers(0, m - 1))))
    def test_equal_codes_are_equal_values(self, draw):
        # the table's one invariant, on composite m too, where the orbit
        # key's cofactor (x^m - 1) / Phi_m is not x - 1: a rotated value
        # gets the shifted code, and codes agree exactly when values do
        m, rows, den, e = draw
        field = root_domain(m, 1).field
        zeta_e = field.zeta_pow(e)
        table = ScalarTable(field)
        values = [field.one()]
        for row in rows:
            # a lift of degree < m, folded into the power basis
            v = sum((field.zeta_pow(j) * c for j, c in enumerate(row) if c),
                    field.zero()) * Fraction(1, den)
            if v.is_zero():
                continue
            code = table.intern(v)
            assert table.intern(zeta_e * v) == table.shift(code, e)
            assert table.value(code) == v
            assert table.value(table.shift(code, e + 1)) == zeta_e * v * field.zeta_pow(1)
            values += [v, zeta_e * v, -v]
        codes = [table.intern(v) for v in values]
        for a, ca in zip(values, codes):
            for b, cb in zip(values, codes):
                assert (ca == cb) == (a == b)

    def test_orbit_keys_alone_give_the_same_codes(self, monkeypatch):
        # one orbit hash for every value: each new value is then placed by
        # the orbit keys of all bases met so far, with the same codes
        params, gm = build("II", 3, 5, seed=3)
        bases = list(gm.table.bases)
        report = run_verification(gm).to_dict()
        monkeypatch.setattr("qeuclid.linalg.vec_orbit_hash", lambda *args: 0)
        again = build_module(params)
        assert again.table.bases == bases
        for name, mat in gm.mats.items():
            assert again.mats[name].codes == mat.codes, name
        assert run_verification(again).to_dict() == report

    @pytest.mark.parametrize("case", CASES)
    def test_wrong_value_under_a_new_base_fails(self, case):
        # one x2 entry times (1+q), a value no genuine row holds, interned
        # as a base of its own, so the relations that use it compare the
        # codes of unequal base pairs
        params, gm = build(case, 3, 5, seed=3)
        table = gm.table
        mats = {g: mat.copy() for g, mat in gm.mats.items()}
        mat = mats["x2"]
        r = next(r for r, c in enumerate(mat.codes) if c is not None)
        bases = len(table.bases)
        wrong = (params.domain.one + params.domain.q) * table.value(mat.codes[r])
        mat.codes[r] = table.intern(wrong)
        assert mat.codes[r] // params.m == bases
        edited = GeneratorMatrices(params, mats)
        failures = check_relations(edited)
        assert failures and failures == oracle_relations(edited)

    @pytest.mark.parametrize("case,n,m", [(case, 3, 3) for case in CASES]
                             + [("II", 4, 9)])
    def test_relations_work_on_genuine_modules(self, case, n, m, monkeypatch):
        # the q-commutations are exponent arithmetic on equal base pairs,
        # and the omega sums repeat few code pairs
        params = random_module_params(case, n, m, 1, seed=3)
        params.max_dim = m ** (n - 1)
        gm = without_provenance(build_module(params))
        calls = Counter()

        def counting(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        monkeypatch.setattr(scalars.Cyclotomic, "__add__",
                            counting("add", scalars.Cyclotomic.__add__))
        omegas = omega_rows(gm)
        assert omegas.path == "dense"
        monkeypatch.setattr(ScalarTable, "mul", counting("mul", ScalarTable.mul))
        assert check_relations(gm, omegas) == []
        assert calls["mul"] == 0
        assert calls["add"] <= 2 * n * m ** 2

    @pytest.mark.parametrize("case", CASES)
    def test_every_single_entry_tampered_copy_fails_relations(self, case):
        _, gm = build(case, 3, 3, seed=52)
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                assert check_relations(tampered_copy(gm, name, r, c)), \
                    f"{name}[{r},{c}]"

    def test_products_are_memoized_on_base_pairs(self):
        field = root_domain(7, 1).field
        table = ScalarTable(field)
        a, b = table.intern(field.element([1, 2])), table.intern(field.element([3, 0, 1]))
        ab = table.mul(a, b)
        shifted = table.mul(table.shift(b, 3), table.shift(a, 5))
        assert shifted == table.shift(ab, 8) and len(table._products) == 1
        assert table.value(shifted) == table.value(a) * table.value(b) * field.zeta_pow(8)
        assert table.value(table.power(table.shift(a, 2), 7)) == table.value(a) ** 7

    def test_sums_are_memoized_on_code_pairs(self):
        field = root_domain(7, 1).field
        table = ScalarTable(field)
        a, b = table.intern(field.element([1, 2])), table.intern(field.element([3, 0, 1]))
        ab = table.add(a, b)
        assert table.add(b, a) == ab and len(table._sums) == 1
        assert table.value(ab) == table.value(a) + table.value(b)
        minus_a = table.intern(-table.value(a))
        assert table.add(a, minus_a) is None and table.add(minus_a, a) is None
        assert len(table._sums) == 2

    def test_powers_of_zeta_share_base_one(self):
        field = root_domain(9, 2).field
        table = ScalarTable(field)
        assert [table.intern(field.zeta_pow(e)) for e in range(9)] == list(range(9))
        assert table.bases == [field.one()]


def conjugated(gm, rng):
    """D M D^-1 for every generator M, D diagonal with random units."""
    field = gm.params.domain.field
    scales = [field.scalar(rng.choice([1, -2, 3])) * field.zeta_pow(rng.randrange(9))
              for _ in range(gm.dim)]
    mats = {}
    for name, mat in gm.mats.items():
        out = CycMatrix(gm.table, gm.dim)
        for r, c, v in mat.entries():
            out.set(r, c, v * scales[r] / scales[c])
        mats[name] = out
    return GeneratorMatrices(gm.params, mats)


def block_sum(a, b):
    """The block-diagonal sum of two modules of one shape."""
    d = a.dim
    table = ScalarTable(a.params.domain.field)
    mats = {}
    for name, mat in a.mats.items():
        out = mats[name] = CycMatrix(table, 2 * d)
        for offset, part in ((0, mat), (d, b.mats[name])):
            for r, c, v in part.entries():
                out.set(r + offset, c + offset, v)
    return GeneratorMatrices(a.params, mats)


def with_alpha_doubled(params, i):
    """params with alpha_i (alpha1 for i = 1) doubled and the forced
    beta_j re-derived: a module not isomorphic to the original."""
    alpha1, alpha = params.alpha1, list(params.alpha)
    if i == 1:
        alpha1 = alpha1 * 2
    else:
        alpha[i - 2] = alpha[i - 2] * 2
    args = (params.m, params.k, params.n, alpha1, alpha)
    draft = ModuleParams(*args, params.beta, params.lam)
    beta = [draft.beta_i(j) if j in draft.I_set else draft.derived_beta(j)
            for j in range(2, params.n + 1)]
    return ModuleParams(*args, beta, params.lam)


@st.composite
def generator_stubs(draw, injective=True):
    """A d <= 9 stub of an n = 2 module: x2 and y2 diagonal over a small
    spectrum, so key classes of every size occur; x1 and y1 partial maps
    (injective unless asked otherwise) with coefficients whose ratios
    give gains of 1 and other gains."""
    params, _ = STUB_BASE
    field = params.domain.field
    units = [field.one(), -field.one(), field.scalar(2), params.domain.q]
    table = ScalarTable(field)
    d = draw(st.integers(1, 9))
    mats = {}
    for name in ("x2", "y2"):
        diag = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=d, max_size=d))
        mats[name] = monomial(table, [i if v else None for i, v in enumerate(diag)],
                              [field.scalar(v) if v else None for v in diag])
    for name in ("x1", "y1"):
        if injective:
            cols = draw(st.permutations(range(d)))
        else:
            cols = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
        keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        coeffs = draw(st.lists(st.sampled_from(units), min_size=d, max_size=d))
        mats[name] = monomial(table, [c if k else None for c, k in zip(cols, keep)],
                              [v if k else None for v, k in zip(coeffs, keep)])
    return GeneratorMatrices(params, mats)


STUB_BASE = build("I", 2, 3, seed=65)


class TestCommutant:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 3)])
    def test_verified_instances_have_scalar_commutant(self, case, n, m):
        _, gm = build(case, n, m, seed=36)
        assert commutant_dimension(gm) == 1

    def test_direct_sum_is_caught(self):
        _, gm = build("I", 2, 3, seed=37)
        assert commutant_dimension(direct_sum(gm)) == 4

    def test_guard(self):
        params, gm = build("I", 3, 3, seed=38)   # dim 9
        total = direct_sum(gm)
        # the sum of dimension 18 keeps 2 x 2 = 4 unknowns per key: 36 > 4 * 8,
        # a cap below the rows formed
        params.max_dim = 8
        with pytest.raises(GuardError, match="commutant guard"):
            commutant_dimension(total)

    def test_identity_only_solution_is_exact(self):
        # sanity-check the eliminator itself on a tiny handmade system
        field = root_domain(3, 1).field
        one = field.one()
        # x0 - x1 = 0 and x1 - x2 = 0 over 3 unknowns: nullity 1
        eqs = [{0: one, 1: -one}, {1: one, 2: -one}]
        assert nullspace_dimension(eqs, 3) == 1

    def test_one_dimensional_stub(self):
        # a 1x1 "module" (every generator a scalar) must report a
        # 1-dimensional commutant
        params, _ = build("I", 2, 3, seed=50)
        field = params.domain.field
        table = ScalarTable(field)
        mats = {}
        for name, value in (("x1", field.scalar(2)), ("y1", params.domain.q),
                            ("x2", field.scalar(3)), ("y2", field.one())):
            mat = CycMatrix(table, 1)
            mat.set(0, 0, value)
            mats[name] = mat
        stub = GeneratorMatrices(params, mats)
        assert commutant_dimension(stub) == 1

    def test_spectral_path_needs_no_guard(self):
        # a module at the build guard and its direct sum stay within the
        # commutant's bound of 4 * max_dim equal-key pairs
        params, gm = build("I", 3, 3, seed=38)
        params.max_dim = gm.dim
        assert commutant_dimension(gm) == 1
        assert commutant_dimension(direct_sum(gm)) == 4

    def test_simple_spectrum_materializes_no_value(self, monkeypatch):
        # on a simple spectrum every gain is c_r / c_r, read off equal codes
        _, gm = build("I", 6, 3, seed=3)                  # dim 243
        gm = without_provenance(gm)
        omegas = omega_rows(gm)
        assert gm.dim == 243 and len(set(omegas.keys)) == gm.dim
        values = []
        original = ScalarTable.value

        def counting(table, code):
            values.append(code)
            return original(table, code)

        monkeypatch.setattr(ScalarTable, "value", counting)
        assert commutant_dimension(gm, omegas) == 1
        assert values == []


class TestCommutantOracle:
    """The gain-graph solver against the d^2-unknown solve."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES + [(2, 7)])
    def test_genuine_instances(self, case, n, m):
        _, gm = build(case, n, m, seed=51)
        assert commutant_dimension(gm) == full_commutant_dimension(gm) == 1

    def test_spectral_path_counts_components(self):
        # x2 y2 = diag(1, 2, 3) is a simple spectrum; x1 joins rows 0 and 1
        params, _ = build("I", 2, 3, seed=54)
        field = params.domain.field
        table = ScalarTable(field)
        mats = {name: CycMatrix(table, 3) for name in ("x1", "y1", "x2", "y2")}
        for i in range(3):
            mats["x2"].set(i, i, field.scalar(i + 1))
            mats["y2"].set(i, i, field.one())
        mats["x1"].set(0, 1, field.one())
        stub = GeneratorMatrices(params, mats)
        assert commutant_dimension(stub) == full_commutant_dimension(stub) == 2
        mats["y1"].set(2, 1, params.domain.q)
        assert commutant_dimension(stub) == full_commutant_dimension(stub) == 1

    def test_zero_forcing(self):
        # one key class {0, 1}; x1 = E_00 forces X_01 = X_10 = 0: a zero
        # row 1 and a column 1 that no row reaches
        params, _ = build("I", 2, 3, seed=54)
        field = params.domain.field
        table = ScalarTable(field)
        mats = {name: CycMatrix(table, 2) for name in ("x1", "y1", "x2", "y2")}
        for i in range(2):
            mats["x2"].set(i, i, field.one())
            mats["y2"].set(i, i, field.one())
        mats["x1"].set(0, 0, field.one())
        stub = GeneratorMatrices(params, mats)
        assert commutant_dimension(stub) == full_commutant_dimension(stub) == 2

    @pytest.mark.parametrize("case", CASES)
    def test_every_single_entry_tampered_copy(self, case):
        _, gm = build(case, 3, 3, seed=52)
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                bad = tampered_copy(gm, name, r, c)
                assert commutant_dimension(bad) == full_commutant_dimension(bad), \
                    f"{name}[{r},{c}]"

    @pytest.mark.parametrize("case", CASES)
    def test_direct_sum_of_every_tampered_copy(self, case):
        _, gm = build(case, 2, 5, seed=52)
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                doubled = direct_sum(tampered_copy(gm, name, r, c))
                assert (commutant_dimension(doubled)
                        == full_commutant_dimension(doubled)), f"{name}[{r},{c}]"

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_direct_sums(self, case, n, m):
        _, gm = build(case, n, m, seed=51)
        doubled = direct_sum(gm)
        assert commutant_dimension(doubled) == full_commutant_dimension(doubled) == 4

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_conjugated_direct_sums(self, case, n, m):
        # D (M + M) D^-1 for a random diagonal D: gains other than 1
        _, gm = build(case, n, m, seed=62)
        conj = conjugated(direct_sum(gm), random.Random(63))
        assert commutant_dimension(conj) == full_commutant_dimension(conj) == 4

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_non_isomorphic_sums(self, case, n, m):
        # doubling alpha_1 breaks a self-loop, doubling alpha_i (i >= 2,
        # outside I) the gain of an x_i cycle; Hom between the two is 0
        params, gm = build(case, n, m, seed=64)
        for i in [1] + [i for i in range(2, n + 1) if i not in params.I_set]:
            pair = block_sum(gm, build_module(with_alpha_doubled(params, i)))
            assert commutant_dimension(pair) == full_commutant_dimension(pair) == 2, i

    @pytest.mark.parametrize("case", CASES)
    def test_undecided_inputs_fail_separation(self, case):
        # a moved entry can make x_r y_r non-diagonal, merge key classes
        # and map two rows of one class into one column
        _, gm = build(case, 3, 3, seed=58)
        undecided = 0
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                for edited in (edited_copy(gm, name, r, (c + 1) % gm.dim),
                               edited_copy(gm, name, r)):
                    try:
                        dim = commutant_dimension(edited)
                    except GuardError as exc:
                        assert "commutant undecided" in str(exc)
                        assert not all(s.ok for s in check_eigen_separation(edited))
                        undecided += 1
                    else:
                        assert dim == full_commutant_dimension(edited), (name, r)
        assert undecided

    @settings(max_examples=200, deadline=None)
    @given(generator_stubs())
    def test_random_partial_injections(self, stub):
        assert commutant_dimension(stub) == full_commutant_dimension(stub)

    @settings(max_examples=100, deadline=None)
    @given(generator_stubs(injective=False))
    def test_random_partial_maps_agree_or_are_undecided(self, stub):
        try:
            dim = commutant_dimension(stub)
        except GuardError as exc:
            assert "commutant undecided" in str(exc)
        else:
            assert dim == full_commutant_dimension(stub)

    def test_d729_commutant_is_decided(self):
        params = random_module_params("I", 4, 9, 1, seed=53)
        params.max_dim = 729
        gm = build_module(params)
        report = run_verification(gm)
        assert report.dimension == 729
        assert report.commutant_dim == 1 and report.commutant_skipped == ""
        assert report.ok
        doubled = run_verification(direct_sum(gm))
        assert doubled.commutant_dim == 4 and doubled.commutant_skipped == ""


@st.composite
def component_stubs(draw):
    """(stub, blocks): a d <= 9 stub of an n = 2 module with a simple
    joint spectrum, x2 = diag of 0..d-1 in drawn order (one zero row)
    and y2 = 1, whose x1 and y1 map rows only within the blocks of a
    drawn partition.  Each block is joined along a spanning tree whose
    edges are split between x1 and y1; every other row of x1 and y1
    maps within its block or is zero, so the blocks are the connected
    components."""
    params, _ = STUB_BASE
    field = params.domain.field
    units = [field.one(), -field.one(), field.scalar(2), params.domain.q]
    table = ScalarTable(field)
    d = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    blocks = {}
    for r in draw(st.permutations(range(d))):
        blocks.setdefault(labels[r], []).append(r)
    x1, y1 = [None] * d, [None] * d
    for rows in blocks.values():
        for i, r in enumerate(rows):
            tree, other = (x1, y1) if draw(st.booleans()) else (y1, x1)
            if i:
                tree[r] = rows[draw(st.integers(0, i - 1))]
            other[r] = draw(st.sampled_from(rows + [None]))
    diag = draw(st.permutations(range(d)))

    def coeffs(cols):
        return [draw(st.sampled_from(units)) if c is not None else None
                for c in cols]

    mats = {
        "x1": monomial(table, x1, coeffs(x1)),
        "y1": monomial(table, y1, coeffs(y1)),
        "x2": monomial(table, [i if v else None for i, v in enumerate(diag)],
                       [field.scalar(v) if v else None for v in diag]),
        "y2": monomial(table, list(range(d)), [field.one()] * d),
    }
    return GeneratorMatrices(params, mats), len(blocks)


def simple_spectrum(omegas) -> bool:
    """Pairwise distinct eigenvalue keys, which the rules path takes as a
    premise of its walk."""
    return omegas.path == "rules" or len(set(omegas.keys)) == len(omegas.keys)


class _NoForest:
    def __init__(self, *args):
        raise AssertionError("the gain forest ran on a simple spectrum")


class TestCommutantComponents:
    """The connected-components path on a simple joint spectrum, the gain
    forest off it, both against the d^2-unknown solve."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_genuine_and_tampered_take_components(self, case, n, m, monkeypatch):
        _, gm = build(case, n, m, seed=71)
        monkeypatch.setattr(verify, "_GainForest", _NoForest)
        modules = [gm] + [tampered_copy(gm, name, r, c)
                          for name in sorted(gm.mats)
                          for r, c, _ in list(gm.mats[name].entries())[:2]]
        for module in modules:
            omegas = omega_rows(module)
            assert simple_spectrum(omegas)
            assert (commutant_dimension(module, omegas)
                    == full_commutant_dimension(module))
        assert commutant_dimension(gm) == 1

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_direct_sums_take_the_forest(self, case, n, m, monkeypatch):
        _, gm = build(case, n, m, seed=72)
        doubled = direct_sum(gm)
        built = []

        class Recording(verify._GainForest):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(verify, "_GainForest", Recording)
        omegas = omega_rows(doubled)
        assert not simple_spectrum(omegas)
        assert (commutant_dimension(doubled, omegas)
                == full_commutant_dimension(doubled) == 4)
        assert built == [1]

    @settings(max_examples=150, deadline=None)
    @given(component_stubs())
    def test_counts_components(self, drawn):
        stub, blocks = drawn
        omegas = omega_rows(stub)
        assert simple_spectrum(omegas)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_GainForest", _NoForest)
            assert commutant_dimension(stub, omegas) == blocks
        assert full_commutant_dimension(stub) == blocks

    def test_forest_sees_only_off_diagonal_unknowns(self, monkeypatch):
        # a direct sum of d rows keys each row with its copy: the d
        # diagonal unknowns pair up into components, and the forest holds
        # the 2d off-diagonal ones, X_(r, r+d) and X_(r+d, r)
        _, gm = build("II", 3, 3, seed=75)
        sizes = []

        class Recording(verify._GainForest):
            def __init__(self, size, value):
                sizes.append(size)
                super().__init__(size, value)

        monkeypatch.setattr(verify, "_GainForest", Recording)
        assert commutant_dimension(direct_sum(gm)) == 4
        assert sizes == [2 * gm.dim]

    def test_two_rows_of_one_class_into_one_column_is_undecided(self):
        # x2 y2 = 1 keys rows 0 and 1 alike, and x1 maps both into column 0
        params, _ = build("I", 2, 3, seed=54)
        field = params.domain.field
        table = ScalarTable(field)
        mats = {name: CycMatrix(table, 2) for name in ("x1", "y1", "x2", "y2")}
        for i in range(2):
            mats["x1"].set(i, 0, field.scalar(i + 1))
            mats["x2"].set(i, i, field.one())
            mats["y2"].set(i, i, field.one())
        stub = GeneratorMatrices(params, mats)
        with pytest.raises(GuardError, match="commutant undecided: x1 maps two "
                           "rows of one eigenvalue class into column 0"):
            commutant_dimension(stub)
        assert not all(s.ok for s in check_eigen_separation(stub))
        report = run_verification(stub)
        assert report.commutant_dim is None
        assert report.commutant_skipped.startswith("commutant undecided")

    def test_report_gives_the_dimension_or_the_reason(self):
        params, gm = build("I", 3, 3, seed=73)
        assert run_verification(gm).commutant_dim == 1
        doubled = run_verification(direct_sum(gm)).to_dict()
        assert {key: value for key, value in doubled.items()
                if key.startswith("commutant")} == {"commutant_dim": 4,
                                                     "commutant_skipped": ""}
        params.max_dim = 8          # 36 equal-key pairs of the sum > 4 * 8
        skipped = run_verification(direct_sum(gm))
        assert skipped.commutant_dim is None
        assert skipped.commutant_skipped.startswith("commutant guard")

    def test_d2187_is_one_component(self, monkeypatch):
        # past dimension 27: the certificate at I, n = 8, m = 3
        params = random_module_params("I", 8, 3, 1, seed=74)
        params.max_dim = 3 ** 7
        gm = build_module(params)
        omegas = omega_rows(gm)
        monkeypatch.setattr(verify, "_GainForest", _NoForest)
        assert gm.dim == 2187 and omegas.path == "rules"
        assert commutant_dimension(gm, omegas) == 1


def edited_copy(gm, name, row, col=None):
    """Copy with row `row` of `name` moved to column `col`, or deleted."""
    mats = {g: mat.copy() for g, mat in gm.mats.items()}
    mat = mats[name]
    value = (gm.table.value(mat.codes[row]) if col is not None
             else gm.params.domain.field.zero())
    mat.set(row, col, value)
    return GeneratorMatrices(gm.params, mats)


def assert_checks_agree(gm):
    """The row-wise checks, alone and sharing their sums in
    run_verification, against the full-matrix oracles."""
    report = run_verification(gm)
    assert check_relations(gm) == report.relation_failures == oracle_relations(gm)
    for omega in (check_omega_action(gm), report.omega):
        assert [(c.index, c.diagonal, c.seed_eigenvalue, c.seed_matches_lambda,
                 c.all_entries_nonzero) for c in omega] == oracle_omega(gm)
    for central in (check_central_scalars(gm), report.central):
        assert [(c.generator, c.value, c.expected)
                for c in central] == oracle_central(gm)
    assert ([(c.position, c.diagonal, c.separated) for c in check_eigen_separation(gm)]
            == [(c.position, c.diagonal, c.separated) for c in report.separation])
    try:
        assert commutant_dimension(gm) == report.commutant_dim
    except GuardError as exc:
        assert report.commutant_dim is None and str(exc) == report.commutant_skipped
    zero, m = gm.params.domain.zero, gm.params.m
    omegas = omega_rows(gm)
    assert omegas.path == report.path
    for r in range(2, gm.params.n + 1):
        op = DictMatrix.of(gm.mat(xgen(r))) @ DictMatrix.of(gm.mat(ygen(r)))
        diag = omegas.diagonals[r]
        if diag is not None:
            diag = [zero if c is None else gm.table.value(c) for c in diag]
        if omegas.path == "rules":
            # E(u) is the eigenvalue at e(u at position r - 2)
            assert op.is_diagonal() and diag == op.diagonal()[::m ** (r - 2)][:m]
        else:
            assert diag == (op.diagonal() if op.is_diagonal() else None)
    return report


class TestFastChecksOracle:
    """Relations, omega and central powers against the dict-of-dicts
    matrix products, powers and residuals."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES + [(2, 7), (4, 3)])
    def test_genuine_instances(self, case, n, m):
        _, gm = build(case, n, m, seed=55)
        assert assert_checks_agree(gm).ok

    @pytest.mark.parametrize("case", CASES)
    def test_every_single_entry_tampered_copy(self, case):
        _, gm = build(case, 3, 3, seed=56)
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                report = assert_checks_agree(tampered_copy(gm, name, r, c))
                assert not report.ok, f"{name}[{r},{c}]"

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3)])
    def test_direct_sums(self, case, n, m):
        _, gm = build(case, n, m, seed=57)
        assert_checks_agree(direct_sum(gm))

    @pytest.mark.parametrize("case", CASES)
    def test_every_moved_and_deleted_entry(self, case):
        # off-diagonal omega sums and non-permutation powers, which a
        # tampered coefficient never produces
        _, gm = build(case, 3, 3, seed=58)
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                assert not assert_checks_agree(
                    edited_copy(gm, name, r, (c + 1) % gm.dim)).ok
                assert not assert_checks_agree(edited_copy(gm, name, r)).ok

    def test_tail_into_cycle(self):
        params, gm = build("I", 2, 3, seed=59)
        q = params.domain.q
        for cols in ([1, 2, 1], [1, 2, None], [1, 1, 1], [0, 1, 1]):
            x2 = monomial(gm.table, cols, [q] * 3)
            edited = GeneratorMatrices(params, {**gm.mats, "x2": x2})
            assert not assert_checks_agree(edited).ok

    def test_central_power_on_random_maps(self):
        rng = random.Random(60)
        outcomes = set()
        for m in (3, 9):
            field = root_domain(m, 1).field
            units = [field.zeta_pow(e) for e in range(m)] + [field.scalar(-2)]
            table = ScalarTable(field)
            for _ in range(300):
                d = rng.randint(1, 9)
                if rng.random() < 0.5:
                    cols = list(range(d))
                    rng.shuffle(cols)
                else:
                    cols = [rng.choice([None] + list(range(d))) for _ in range(d)]
                mat = monomial(table, cols, [None if c is None else rng.choice(units)
                                             for c in cols])
                value = central_power(mat, m)
                assert value == (DictMatrix.of(mat) ** m).as_scalar(), (m, cols)
                outcomes.add("none" if value is None else
                             "zero" if value.is_zero() else "scalar")
        assert outcomes == {"none", "zero", "scalar"}

    @pytest.mark.parametrize("e", [0, 1, 2, 3, 5])
    def test_pow_is_composition(self, e):
        _, gm = build("II", 3, 3, seed=61)
        for name, mat in gm.mats.items():
            assert DictMatrix.of(mat ** e) == DictMatrix.of(mat) ** e, name


def with_rule(params, code, kappa=None, weight=None):
    """params whose rule for generator ``code`` has the given kappa or
    weight, so that build_module builds the module of those rules."""
    rules = dict(params.rules)
    rule = rules[code]
    rules[code] = GeneratorRule(rule.pos, kappa or rule.kappa,
                                weight or rule.weight, rule.step)
    params.__dict__["rules"] = rules         # the cached property's value
    return params


def without_path(report) -> dict:
    doc = report.to_dict()
    del doc["path"]
    return doc


def rule_commutations(gm) -> list[str]:
    """The q-commutation failures decided on the rules, whatever the
    omega walk would decide."""
    n = gm.params.n
    return check_relations(gm, OmegaRows(dict.fromkeys(range(1, n + 1), True),
                                         [], "rules", {}))


def oracle_report(gm, report):
    """The report's omega, central and commutant results against the
    full-matrix oracles (the commutant only while d^2 unknowns are few)."""
    assert report.relation_failures == oracle_relations(gm)
    assert [(c.index, c.diagonal, c.seed_eigenvalue, c.seed_matches_lambda,
             c.all_entries_nonzero) for c in report.omega] == oracle_omega(gm)
    assert [(c.generator, c.value, c.expected) for c in report.central] == oracle_central(gm)
    if gm.dim <= 9:
        assert report.commutant_dim == full_commutant_dimension(gm)


class TestRulePath:
    """Every check decided on the rules of a built module, against the
    dense row walk and the full-matrix oracles."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3)])
    def test_genuine_instances(self, case, n, m):
        for seed in (1, 2, 3):
            for k in sorted({1, 2, m - 1}):
                _, gm = build(case, n, m, k, seed)
                rules = run_verification(gm)
                assert rules.path == "rules" and "mats" not in vars(gm)
                walked = run_verification(without_provenance(gm))
                assert walked.path == "dense"
                assert rules.ok and without_path(rules) == without_path(walked)
                assert rules.relation_failures == []
                oracle_report(gm, rules)

    def test_split_ladder_falls_back_to_a_reducible_module(self):
        # x_2 and y_2 both zero on two rungs of the a_2 cycle: the cycle
        # falls apart into two paths, and x_2 y_2 is zero on both rungs, so
        # its eigenvalues repeat and the module takes the dense path
        for case in CASES:
            params = random_module_params(case, 2, 5, 1, seed=66)
            rx, ry = params.rules[xgen(2)], params.rules[ygen(2)]
            kx, ky = list(rx.kappa), list(ry.kappa)
            for u in (1, 3):
                kx[u] = ky[(u + rx.step) % 5] = None
            with_rule(params, xgen(2), kappa=tuple(kx))
            gm = build_module(with_rule(params, ygen(2), kappa=tuple(ky)))
            report = run_verification(gm)
            assert report.path == "dense" and not report.ok
            assert report.commutant_dim == full_commutant_dimension(gm) > 1
            # the product of per-coordinate cycle counts, off its premise
            assert verify._rule_components(gm) == verify._components(gm) > 1
            assert not report.sections["eigen_separation"]
            assert without_path(report) == without_path(
                run_verification(without_provenance(gm)))
            oracle_report(gm, report)

    @staticmethod
    def sums_until_fallback(gm, monkeypatch) -> int:
        """The code sums the rule walk adds before it gives up on gm."""
        sums, real = [], verify._sum
        monkeypatch.setattr(verify, "_sum", lambda *args: sums.append(args) or real(*args))
        assert verify._rule_omegas(gm) is None
        monkeypatch.undo()
        return len(sums)

    @pytest.mark.parametrize("case", CASES)
    def test_repeated_eigenvalue_falls_back(self, case, monkeypatch):
        # y_3's kappa edited so that x_3 y_3 has the eigenvalue of rung u on
        # rung v too: the spectrum premise fails before relation 3 is
        # compared, and separation fails alike on both paths
        params = random_module_params(case, 3, 3, 1, seed=67)
        rx, ry = params.rules[xgen(3)], params.rules[ygen(3)]
        kx, ky, s = rx.kappa, list(ry.kappa), rx.step
        # F(u) = kx[u] ky[u + s] q^(w_y s): match F(u) to F(v) on two
        # nonzero rungs
        u, v = next((u, v) for u in range(3) for v in range(3) if u != v
                    and None not in (kx[u], kx[v], ky[(v + s) % 3]))
        ky[(u + s) % 3] = kx[v] * ky[(v + s) % 3] / kx[u]
        gm = build_module(with_rule(params, ygen(3), kappa=tuple(ky)))
        dense = without_provenance(gm)
        diag = (DictMatrix.of(dense.mat(xgen(3))) @ DictMatrix.of(dense.mat(ygen(3)))).diagonal()
        assert diag[3 * u] == diag[3 * v] and not diag[3 * u].is_zero()
        assert self.sums_until_fallback(gm, monkeypatch) == 2 * 2 * 3   # relations 1, 2
        report = run_verification(gm)
        assert report.path == "dense"
        assert not report.sections["eigen_separation"]
        assert without_path(report) == without_path(run_verification(dense))
        oracle_report(gm, report)

    def test_rules_past_the_row_cap(self, monkeypatch):
        # d = 3^12 past the cap: the genuine module is certified on its
        # rules, and one whose premise fails is refused before any row
        params = random_module_params("I", 13, 3, 1, seed=73)
        report = run_verification(build_module(params))
        assert report.ok and report.path == "rules" and report.commutant_dim == 1
        weight = list(params.rules[xgen(3)].weight)
        weight[0] += 1
        gm = build_module(with_rule(params, xgen(3), weight=tuple(weight)))
        monkeypatch.setattr(repmod, "_lattice_forms", None)     # forms the rows
        with pytest.raises(GuardError, match=r"^dimension guard: m\^\(n-1\) = "
                           r"3\^12 rows exceed cap 512$"):
            run_verification(gm)

    @pytest.mark.parametrize("code", [xgen(3), ygen(3)])
    def test_weight_below_p_falls_back(self, code, monkeypatch):
        # x_3 y_3 also weighs a_2: its eigenvalues split the rows sharing a_3,
        # and the walk gives up before comparing relation 3
        params = random_module_params("I", 3, 3, 1, seed=72)
        weight = list(params.rules[code].weight)
        weight[0] += 1
        gm = build_module(with_rule(params, code, weight=tuple(weight)))
        assert self.sums_until_fallback(gm, monkeypatch) == 2 * 2 * 3
        report = run_verification(gm)
        assert report.path == "dense" and not report.sections["eigen_separation"]
        assert without_path(report) == without_path(
            run_verification(without_provenance(gm)))
        oracle_report(gm, report)

    def test_weight_at_p_folds_into_the_eigenvalue_codes(self):
        # lambda_1 / lambda_2 = q^2 / (1 + q^-2) makes F(u) q^(-2u) take one
        # value at u = 0, 1.  Moving q^(-2u) from x_2's weight into its kappa
        # builds the same matrices with that F and W_p = 2: E = F q^(2u) is
        # the genuine F, injective, so the module keeps the rules path
        base = random_module_params("I", 2, 5, 1, seed=71)
        dom = base.domain
        lam = (base.lam_i(2) * dom.q_pow(2) / (dom.one + dom.q_pow(-2)), base.lam_i(2))
        draft = ModuleParams(5, 1, 2, base.alpha1, base.alpha, base.beta, lam)
        params = ModuleParams(5, 1, 2, base.alpha1, base.alpha,
                              (draft.derived_beta(2),), lam)
        genuine = build_module(params)
        rule = params.rules[xgen(2)]
        weight = list(rule.weight)
        weight[rule.pos] += 2
        kappa = tuple(c * dom.q_pow(-2 * u) for u, c in enumerate(rule.kappa))
        gm = build_module(with_rule(params, xgen(2), kappa, tuple(weight)))
        for name, mat in gm.mats.items():
            assert list(mat.entries()) == list(genuine.mats[name].entries())
        (rx, kx), (ry, ky) = gm.provenance[xgen(2)], gm.provenance[ygen(2)]
        f = [verify._product(gm.table, kx[u], ky[(u + rx.step) % 5],
                             ry.weight[0] * rx.step) for u in range(5)]
        assert len(set(f)) == 4
        report = run_verification(gm)
        assert report.path == "rules" and report.ok
        assert without_path(report) == without_path(run_verification(genuine))

    @pytest.mark.parametrize("case", CASES)
    def test_non_constant_x1_kappa_falls_back(self, case):
        # -alpha_1 on the rows with a_2 = 1: x_1^m is no scalar, decided by
        # the dense central check, as the matrix powers say
        params = random_module_params(case, 2, 3, 1, seed=68)
        kappa = list(params.rules[xgen(1)].kappa)
        kappa[1] = -kappa[1]
        gm = build_module(with_rule(params, xgen(1), kappa=tuple(kappa)))
        report = run_verification(gm)
        assert report.path == "dense"
        assert [c.is_scalar for c in report.central if c.generator == "x1"] == [False]
        assert without_path(report) == without_path(
            run_verification(without_provenance(gm)))
        oracle_report(gm, report)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 5)])
    def test_nilpotent_y_is_decided_on_the_rules(self, n, m):
        # Case III: y_i^m = 0 for i in I and J, read off the zero in kappa
        params = random_module_params("III", n, m, 1, seed=69)
        gm = build_module(params)
        report = run_verification(gm)
        assert report.path == "rules" and report.ok and "mats" not in vars(gm)
        zero = {c.generator for c in report.central if c.value.is_zero()}
        assert {f"y{i}" for i in params.I_set & params.J_set} <= zero
        oracle_report(gm, report)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", [(2, 5), (3, 3)])
    def test_kappa_entry_times_q(self, case, n, m):
        # x_1 and y_1 then read their coordinate, so their q-commutations
        # with x_2 and y_2 are compared entry by entry
        for code in all_gens(n):
            for u in range(m):
                params = random_module_params(case, n, m, 1, seed=61)
                kappa = list(params.rules[code].kappa)
                if kappa[u] is None:
                    continue
                kappa[u] = kappa[u] * params.domain.q
                gm = build_module(with_rule(params, code, kappa=tuple(kappa)))
                truth = oracle_relations(gm)
                assert rule_commutations(gm) == [f for f in truth if "sum_" not in f]
                report = run_verification(gm)
                assert report.relation_failures == truth
                if any("sum_" in f for f in truth):
                    assert report.path == "dense"
                assert without_path(report) == without_path(
                    run_verification(without_provenance(gm)))

    @pytest.mark.parametrize("case", CASES)
    def test_weight_moved_into_kappa_keeps_the_verdict(self, case):
        # kappa[u] q^u with weight w_p - 1 builds the same matrices, and the
        # generator now reads its coordinate: x_1 and y_1 are compared with
        # x_2 and y_2 entry by entry, on relations that hold.  Their kappa
        # is then not constant, so the module takes the dense path; moved
        # into E(u) of x_r y_r, the weight keeps the rules path
        for code in all_gens(3):
            params = random_module_params(case, 3, 3, 1, seed=64)
            genuine = build_module(params)
            rule, q_pow = params.rules[code], params.domain.q_pow
            weight = list(rule.weight)
            weight[rule.pos] -= 1
            kappa = tuple(None if v is None else v * q_pow(u)
                          for u, v in enumerate(rule.kappa))
            gm = build_module(with_rule(params, code, kappa, tuple(weight)))
            for name, mat in gm.mats.items():
                assert list(mat.entries()) == list(genuine.mats[name].entries())
            report = run_verification(gm)
            assert report.path == ("dense" if rule.step == 0 else "rules")
            assert report.ok
            assert without_path(report) == without_path(run_verification(genuine))

    def test_zero_on_an_omega_diagonal(self):
        # weights 0 and y_1 = diag(0, 1, -1): the additive relations hold,
        # omega_1 has a zero on its diagonal, and the four q-commutations
        # of index 1 with index 2 fail.  y_1's kappa is not constant, so the
        # module takes the dense path; the q-commutations on the rules agree
        params = random_module_params("I", 2, 3, 1, seed=65)
        one, c = params.domain.one, params.domain.correction
        params.__dict__["rules"] = {
            xgen(1): GeneratorRule(0, (one,) * 3, (0,), 0),
            ygen(1): GeneratorRule(0, (None, one, -one), (0,), 0),
            xgen(2): GeneratorRule(0, (one,) * 3, (0,), 1),
            ygen(2): GeneratorRule(0, (one, one, one + c), (0,), -1)}
        gm = build_module(params)
        report = run_verification(gm)
        assert report.path == "dense"
        assert len(report.relation_failures) == 4
        assert rule_commutations(gm) == report.relation_failures
        assert report.relation_failures == oracle_relations(gm)
        assert [c.all_entries_nonzero for c in report.omega] == [False, True]
        assert [(c.index, c.diagonal, c.seed_eigenvalue, c.seed_matches_lambda,
                 c.all_entries_nonzero) for c in report.omega] == oracle_omega(gm)
        assert without_path(report) == without_path(
            run_verification(without_provenance(gm)))

    def test_weight_off_the_two_coordinates_falls_back(self, monkeypatch):
        # x_1 also weighs a_4: delta of relation 2 is nonzero off
        # p_1 = p_2 = 0, so the rule walk gives up before comparing codes
        params = random_module_params("I", 4, 3, 1, seed=62)
        weight = list(params.rules[xgen(1)].weight)
        weight[2] += 1
        gm = build_module(with_rule(params, xgen(1), weight=tuple(weight)))
        sums, real = [], verify._sum
        monkeypatch.setattr(verify, "_sum", lambda *args: sums.append(args) or real(*args))
        assert verify._rule_omegas(gm) is None
        assert len(sums) == 2 * 3           # relation 1 and omega_1 only
        monkeypatch.undo()
        report = run_verification(gm)
        assert report.path == "dense"
        assert report.relation_failures == oracle_relations(gm) != []
        assert without_path(report) == without_path(
            run_verification(without_provenance(gm)))

    @pytest.mark.parametrize("case", CASES)
    def test_tampered_copy_of_a_built_module_fails(self, case):
        _, gm = build(case, 3, 3, seed=63)
        for name in ("x1", "y2", "x3"):
            r, c, _ = next(gm.mats[name].entries())
            report = run_verification(tampered_copy(gm, name, r, c))
            assert report.path == "dense"
            assert report.relation_failures
            assert report.relation_failures == oracle_relations(tampered_copy(gm, name, r, c))

    def test_rule_less_copy_and_controls_keep_the_dense_path(self):
        config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "configs", "case1_n3_m5.json")
        gm = build_module(parse_config(config))
        bare = without_provenance(gm)
        assert gm.provenance is not None and bare.provenance is None
        built, walked = run_verification(gm).to_dict(), run_verification(bare).to_dict()
        assert (built.pop("path"), walked.pop("path")) == ("rules", "dense")
        assert built == walked and built["ok"]
        r, c, _ = next(gm.mats["y3"].entries())
        for transform in (direct_sum, lambda g: tampered_copy(g, "y3", r, c)):
            ours, theirs = transform(gm), transform(bare)
            assert ours.provenance is None
            report = run_verification(ours).to_dict()
            assert report["path"] == "dense"
            assert report == run_verification(theirs).to_dict()


class TestEigenSeparation:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_separation_holds(self, case):
        _, gm = build(case, 3, 3, seed=39)
        for check in check_eigen_separation(gm):
            assert check.diagonal and check.separated

    def test_theorem_eigenvalue_formula_case1(self):
        # nu(a) = q^(-2 sum_(j>r) a_j) (1-q^-2)^-1 (lambda_r - q^(-2a_r-2) lambda_(r-1))
        params, gm = build("I", 2, 3, seed=40)
        dom = params.domain
        op = gm.mat("x2") @ gm.mat("y2")
        for a2 in range(3):
            expected = (params.inv_correction
                        * (params.lam_i(2)
                           - dom.q_pow(-2 * a2 - 2) * params.lam_i(1)))
            assert op.get(a2, a2) == expected

    def test_distinct_diagonal_on_n2(self):
        _, gm = build("I", 2, 3, seed=41)
        op = gm.mat("x2") @ gm.mat("y2")
        diag = [op.get(i, i) for i in range(3)]
        assert len({check_value.to_fractions() for check_value in diag}) == 3

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 5)])
    def test_direct_sum_fails(self, case, n, m):
        # every eigenvalue key of a sum appears twice: rows i and i + d
        _, gm = build(case, n, m, seed=39)
        checks = check_eigen_separation(direct_sum(gm))
        assert all(c.diagonal for c in checks)
        assert not any(c.separated for c in checks)
        report = run_verification(direct_sum(gm))
        assert not report.sections["eigen_separation"]
        assert report.commutant_dim == 4

    def test_independent_of_basis_order(self):
        _, gm = build("II", 3, 3, seed=39)
        perm = list(range(gm.dim))
        random.Random(5).shuffle(perm)
        mats = {name: permuted(mat, perm) for name, mat in gm.mats.items()}
        conj = GeneratorMatrices(gm.params, mats)
        assert all(c.ok for c in check_eigen_separation(conj))


class TestDimensionBound:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 5), (2, 7)])
    def test_saturation(self, n, m):
        params = random_module_params("I", n, m, 1, seed=42)
        bound = check_dimension_bound(params)
        assert bound.within_bound and bound.saturated
        assert bound.dimension == m ** (n - 1) == bound.pi_degree


class TestFullReport:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_report_ok_and_json_ready(self, case):
        _, gm = build(case, 2, 3, seed=43)
        report = run_verification(gm)
        assert report.ok
        doc = report.to_dict()
        assert doc["ok"] is True
        assert doc["commutant_dim"] == 1
        assert doc["dimension_bound"]["saturated"] is True
        import json
        json.dumps(doc)  # must be serializable as-is

    def test_commutant_skip_keeps_other_sections(self):
        params, gm = build("I", 3, 3, seed=44)
        total = direct_sum(gm)
        # the direct sum's 36 equal-key pairs exceed 4 * 8
        params.max_dim = 8
        report = run_verification(total)
        assert report.commutant_dim is None
        assert "commutant guard" in report.commutant_skipped
        assert report.sections["commutant"]  # skipped, not failed
        # a sum is a representation; only its separation fails
        assert [name for name, ok in report.sections.items() if not ok] \
            == ["eigen_separation"]

    def test_failing_instance_reports_sections(self):
        _, gm = build("I", 2, 3, seed=45)
        bad = tampered_copy(gm, "y2", 0, 1) if not gm.mat("y2").get(0, 1).is_zero() \
            else tampered_copy(gm, "y2", 1, 0)
        report = run_verification(bad)
        assert not report.ok
        assert (not report.sections["relations"]
                or not report.sections["central_scalars"])


class TestOneWalk:
    """run_verification walks the omegas once: on a module with no rules
    it composes the 2n products x_i y_i and y_i x_i and no other, and on
    a built module it runs the rule walk once and forms no matrix."""

    @staticmethod
    def count_products(monkeypatch) -> list:
        calls, matmul = [], CycMatrix.__matmul__
        monkeypatch.setattr(CycMatrix, "__matmul__",
                            lambda a, b: calls.append(1) or matmul(a, b))
        return calls

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_row_walk_composes_2n_products(self, case, n, m, monkeypatch):
        _, gm = build(case, n, m, seed=81)
        controls = [direct_sum(gm), tampered_copy(gm, "x1", 0, 0)]
        calls = self.count_products(monkeypatch)
        for control in controls:
            calls.clear()
            assert run_verification(control).path == "dense"
            assert len(calls) == 2 * n

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_built_module_forms_no_matrix(self, case, n, m, monkeypatch):
        _, gm = build(case, n, m, seed=82)
        calls, walks = self.count_products(monkeypatch), []
        rule_omegas = verify._rule_omegas
        monkeypatch.setattr(verify, "_rule_omegas",
                            lambda module: walks.append(1) or rule_omegas(module))
        report = run_verification(gm)
        assert report.path == "rules" and report.ok
        assert calls == [] and walks == [1]
        assert "mats" not in gm.__dict__


class TestMutationSensitivity:
    def test_every_single_entry_perturbation_is_detected(self):
        _, gm = build("II", 2, 3, seed=46)
        for name in sorted(gm.mats):
            for r, c, _ in list(gm.mats[name].entries()):
                bad = tampered_copy(gm, name, r, c)
                failed = (check_relations(bad) != []
                          or any(not chk.ok for chk in check_central_scalars(bad)))
                assert failed, f"tampering {name}[{r},{c}] went unnoticed"


class TestBasisOrderIndependence:
    def test_conjugated_instance_reports_identically(self):
        params, gm = build("I", 2, 3, seed=47)
        rng = random.Random(7)
        perm = list(range(gm.dim))
        # keep the seed row fixed: the omega seed check reads row 0
        rest = perm[1:]
        rng.shuffle(rest)
        perm = [0] + rest
        mats = {name: permuted(mat, perm) for name, mat in gm.mats.items()}
        conj = GeneratorMatrices(params, mats)
        base, moved = run_verification(gm), run_verification(conj)
        assert base.sections == moved.sections
        assert base.commutant_dim == moved.commutant_dim
        assert [c.ok for c in base.central] == [c.ok for c in moved.central]
        assert base.ok and moved.ok


class TestSymbolicMatrixFaithfulness:
    """Identities proved by the straightener also hold in the matrices."""

    def _poly_matrix(self, poly, gm):
        total = DictMatrix.zero(gm.params.domain.field, gm.dim)
        for word, coeff in poly.terms.items():
            acc = DictMatrix.identity(gm.params.domain.field, gm.dim)
            for code in word:
                acc = acc @ DictMatrix.of(gm.mat(code))
            total = total + acc.scale(coeff)
        return total

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_symbolic_zero_maps_to_matrix_zero(self, case):
        params, gm = build(case, 2, 3, seed=48)
        dom = params.domain
        w1 = omega(1, 2, dom)
        x2 = NCPoly.gen(dom, xgen(2))
        y2 = NCPoly.gen(dom, ygen(2))
        identities = [
            multiply(w1, x2) - multiply(x2, w1).scale(dom.q_pow(2)),
            multiply(w1, y2) - multiply(y2, w1).scale(dom.q_pow(-2)),
            multiply(w1, omega(2, 2, dom)) - multiply(omega(2, 2, dom), w1),
            straighten(NCPoly.word(dom, (xgen(2), ygen(2)))
                       - NCPoly.word(dom, (ygen(2), xgen(2)))) - w1,
        ]
        for residual in identities:
            assert residual.is_zero()
            assert self._poly_matrix(residual, gm).is_zero()

    def test_matrix_evaluation_respects_products(self):
        params, gm = build("I", 2, 3, seed=49)
        dom = params.domain
        rng = random.Random(3)
        for _ in range(10):
            w1 = tuple(rng.choice(all_gens(2)) for _ in range(rng.randint(0, 3)))
            w2 = tuple(rng.choice(all_gens(2)) for _ in range(rng.randint(0, 3)))
            p1, p2 = NCPoly.word(dom, w1), NCPoly.word(dom, w2)
            lhs = self._poly_matrix(multiply(p1, p2), gm)
            rhs = self._poly_matrix(p1, gm) @ self._poly_matrix(p2, gm)
            assert lhs == rhs
