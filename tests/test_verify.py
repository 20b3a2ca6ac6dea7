"""Verification suite: relations, omega, centrals, commutant, separation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DictMatrix,
    full_commutant_dimension,
    oracle_central,
    oracle_omega,
    oracle_relations,
    permuted,
)
from qeuclid.linalg import CycMatrix, nullspace_dimension
from qeuclid.repmod import (
    GeneratorMatrices,
    GuardError,
    ModuleParams,
    build_module,
    random_module_params,
)
from qeuclid.rewriter import (
    NCPoly,
    all_gens,
    multiply,
    omega,
    root_domain,
    straighten,
    xgen,
    ygen,
)
from qeuclid.verify import (
    central_power,
    check_central_scalars,
    check_dimension_bound,
    check_eigen_separation,
    check_omega_action,
    check_relations,
    commutant_dimension,
    direct_sum,
    joint_spectrum,
    omega_rows,
    run_verification,
    tampered_copy,
)

CASES = ["I", "II", "III"]
SHAPES = [(2, 3), (2, 5), (3, 3)]


def build(case, n, m, k=1, seed=0):
    params = random_module_params(case, n, m, k, seed=seed)
    return params, build_module(params)


class TestRelations:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 3)])
    def test_correct_instances_have_no_failures(self, case, n, m):
        _, gm = build(case, n, m, seed=31)
        assert check_relations(gm) == []

    def test_i1_relation_trivially_diagonal(self):
        _, gm = build("I", 2, 3, seed=1)
        x1, y1 = gm.mat("x1"), gm.mat("y1")
        assert x1 @ y1 == y1 @ x1

    def test_tampered_instance_fails(self):
        _, gm = build("I", 2, 3, seed=1)
        bad = tampered_copy(gm, "x2", 0, 1)
        assert check_relations(bad) != []

    def test_dimension_mismatch_rejected(self):
        params, gm = build("I", 2, 3, seed=1)
        mats = {name: mat.copy() for name, mat in gm.mats.items()}
        mats["x1"] = CycMatrix(params.domain.field, gm.dim + 1)
        broken = GeneratorMatrices(params, gm.case, mats)
        with pytest.raises(ValueError, match="mismatched dimensions"):
            check_relations(broken)


class TestOmegaAction:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_diagonal_with_seed_lambda(self, case):
        params, gm = build(case, 3, 3, seed=32)
        for check in check_omega_action(gm):
            assert check.diagonal
            assert check.seed_matches_lambda
            assert check.seed_eigenvalue == params.lam_i(check.index)
            assert check.all_entries_nonzero


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


def conjugated(gm, rng):
    """D M D^-1 for every generator M, D diagonal with random units."""
    field = gm.params.domain.field
    scales = [field.scalar(rng.choice([1, -2, 3])) * field.zeta_pow(rng.randrange(9))
              for _ in range(gm.dim)]
    mats = {}
    for name, mat in gm.mats.items():
        out = CycMatrix(field, gm.dim)
        for r, c, v in mat.entries():
            out.set(r, c, v * scales[r] / scales[c])
        mats[name] = out
    conj = GeneratorMatrices(gm.params, gm.case, mats)
    conj.dim = gm.dim
    return conj


def block_sum(a, b):
    """The block-diagonal sum of two modules of one shape."""
    d = a.dim
    mats = {}
    for name, mat in a.mats.items():
        other = b.mats[name]
        cols = mat.cols + [c if c is None else c + d for c in other.cols]
        mats[name] = CycMatrix(mat.field, 2 * d, cols, mat.coeffs + other.coeffs)
    pair = GeneratorMatrices(a.params, a.case, mats)
    pair.dim = 2 * d
    return pair


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
    params, gm = STUB_BASE
    field = params.domain.field
    units = [field.one(), -field.one(), field.scalar(2), params.domain.q]
    d = draw(st.integers(1, 9))
    mats = {}
    for name in ("x2", "y2"):
        diag = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=d, max_size=d))
        mats[name] = CycMatrix(field, d, [i if v else None for i, v in enumerate(diag)],
                               [field.scalar(v) if v else None for v in diag])
    for name in ("x1", "y1"):
        if injective:
            cols = draw(st.permutations(range(d)))
        else:
            cols = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
        keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        coeffs = draw(st.lists(st.sampled_from(units), min_size=d, max_size=d))
        mats[name] = CycMatrix(field, d, [c if k else None for c, k in zip(cols, keep)],
                               [v if k else None for v, k in zip(coeffs, keep)])
    stub = GeneratorMatrices(params, gm.case, mats)
    stub.dim = d
    return stub


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
        # the sum of dimension 18 keeps 2 x 2 = 4 unknowns per key: 36 > 4 * 8
        params.max_dim = 8
        with pytest.raises(GuardError, match="commutant guard"):
            commutant_dimension(direct_sum(gm))

    def test_identity_only_solution_is_exact(self):
        # sanity-check the eliminator itself on a tiny handmade system
        field = root_domain(3, 1).field
        one = field.one()
        # x0 - x1 = 0 and x1 - x2 = 0 over 3 unknowns: nullity 1
        eqs = [{0: one, 1: -one}, {1: one, 2: -one}]
        assert nullspace_dimension(eqs, 3) == 1

    def test_one_dimensional_stub(self):
        # a 1x1 "module" (everything scalar, as in the commutative n=1
        # algebra) must report a 1-dimensional commutant
        params, gm = build("I", 2, 3, seed=50)
        field = params.domain.field
        mats = {}
        for name, value in (("x1", field.scalar(2)), ("y1", params.domain.q)):
            mat = CycMatrix(field, 1)
            mat.set(0, 0, value)
            mats[name] = mat
        stub = GeneratorMatrices(params, gm.case, mats)
        stub.dim = 1
        assert commutant_dimension(stub) == 1

    def test_spectral_path_needs_no_guard(self):
        # a module at the build guard and its direct sum stay within the
        # commutant's bound of 4 * max_dim equal-key pairs
        params, gm = build("I", 3, 3, seed=38)
        params.max_dim = gm.dim
        assert commutant_dimension(gm) == 1
        assert commutant_dimension(direct_sum(gm)) == 4


class TestCommutantOracle:
    """The gain-graph solver against the d^2-unknown solve."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n,m", SHAPES + [(2, 7)])
    def test_genuine_instances(self, case, n, m):
        _, gm = build(case, n, m, seed=51)
        assert commutant_dimension(gm) == full_commutant_dimension(gm) == 1

    def test_spectral_path_counts_components(self):
        # x2 y2 = diag(1, 2, 3) is a simple spectrum; x1 joins rows 0 and 1
        params, gm = build("I", 2, 3, seed=54)
        field = params.domain.field
        mats = {name: CycMatrix(field, 3) for name in ("x1", "y1", "x2", "y2")}
        for i in range(3):
            mats["x2"].set(i, i, field.scalar(i + 1))
            mats["y2"].set(i, i, field.one())
        mats["x1"].set(0, 1, field.one())
        stub = GeneratorMatrices(params, gm.case, mats)
        assert commutant_dimension(stub) == full_commutant_dimension(stub) == 2
        mats["y1"].set(2, 1, params.domain.q)
        assert commutant_dimension(stub) == full_commutant_dimension(stub) == 1

    def test_zero_forcing(self):
        # one key class {0, 1}; x1 = E_00 forces X_01 = X_10 = 0: a zero
        # row 1 and a column 1 that no row reaches
        params, gm = build("I", 2, 3, seed=54)
        field = params.domain.field
        mats = {name: CycMatrix(field, 2) for name in ("x1", "y1", "x2", "y2")}
        for i in range(2):
            mats["x2"].set(i, i, field.one())
            mats["y2"].set(i, i, field.one())
        mats["x1"].set(0, 0, field.one())
        stub = GeneratorMatrices(params, gm.case, mats)
        stub.dim = 2
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


def edited_copy(gm, name, row, col=None):
    """Copy with row `row` of `name` moved to column `col`, or deleted."""
    mats = {g: mat.copy() for g, mat in gm.mats.items()}
    mat = mats[name]
    value = mat.coeffs[row] if col is not None else gm.params.domain.field.zero()
    mat.set(row, col, value)
    return GeneratorMatrices(gm.params, gm.case, mats)


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
    for spectrum in (joint_spectrum(gm), joint_spectrum(gm, omega_rows(gm))):
        for r in range(2, gm.params.n + 1):
            op = DictMatrix.of(gm.mat(xgen(r))) @ DictMatrix.of(gm.mat(ygen(r)))
            assert spectrum.diagonals[r] == (op.diagonal() if op.is_diagonal()
                                             else None)
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
            x2 = CycMatrix(q.field, 3, cols, [None if c is None else q for c in cols])
            edited = GeneratorMatrices(params, gm.case, {**gm.mats, "x2": x2})
            assert not assert_checks_agree(edited).ok

    def test_central_power_on_random_maps(self):
        rng = random.Random(60)
        outcomes = set()
        for m in (3, 9):
            field = root_domain(m, 1).field
            units = [field.zeta_pow(e) for e in range(m)] + [field.scalar(-2)]
            for _ in range(300):
                d = rng.randint(1, 9)
                if rng.random() < 0.5:
                    cols = list(range(d))
                    rng.shuffle(cols)
                else:
                    cols = [rng.choice([None] + list(range(d))) for _ in range(d)]
                mat = CycMatrix(field, d, cols, [None if c is None else rng.choice(units)
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
        conj = GeneratorMatrices(gm.params, gm.case, mats)
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
        # the direct sum's 36 equal-key pairs exceed 4 * 8
        params.max_dim = 8
        report = run_verification(direct_sum(gm))
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
        conj = GeneratorMatrices(params, gm.case, mats)
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
