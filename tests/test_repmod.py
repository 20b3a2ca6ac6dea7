"""Module construction: case bookkeeping, action formulas, matrices."""

import itertools
import json
import random

import pytest

from oracles import DictMatrix, basis_indices, basis_rank, omega_matrix
from qeuclid.repmod import (
    GeneratorMatrices,
    DEFAULT_MAX_DIM,
    MAX_SCALAR_BITS,
    WORK_BUDGET,
    GuardError,
    ModuleParams,
    ParamError,
    act,
    build_module,
    check_work,
    coordinate_bits,
    dimension,
    random_module_params,
)
from qeuclid.rewriter import all_gens, gen_name, root_domain, xgen, ygen
from qeuclid.scalars import Cyclotomic, encode_cyclotomic, parse_cyclotomic
from qeuclid.verify import direct_sum, expected_central_values, run_verification


def make_params(m=3, k=1, n=2, alpha1=1, alpha=None, beta=None, lam=None,
                **kwargs):
    """Integer-coded parameters; None entries in alpha select Case II/III."""
    try:
        f = root_domain(m, k).field
    except ValueError:
        # invalid (m, k) must still reach ModuleParams, which rejects it
        f = root_domain(3, 1).field

    def enc(v):
        return f.scalar(v) if isinstance(v, int) else v

    alpha = [enc(v) for v in (alpha if alpha is not None else [1] * (n - 1))]
    beta = [enc(v) for v in (beta if beta is not None else [0] * (n - 1))]
    lam = [enc(v) for v in (lam if lam is not None else [1] * n)]
    return ModuleParams(m, k, n, enc(alpha1), alpha, beta, lam, **kwargs)


class TestParamsValidation:
    def test_torsion_parameters_rejected(self):
        with pytest.raises(ParamError, match="torsion parameters"):
            make_params(lam=[1, 0])

    def test_even_m_rejected(self):
        with pytest.raises(ParamError, match="odd"):
            make_params(m=4)

    def test_non_coprime_k_rejected(self):
        with pytest.raises(ParamError, match="q not primitive"):
            make_params(m=9, k=3)

    def test_alpha1_zero_rejected(self):
        with pytest.raises(ParamError, match="x_1 not invertible"):
            make_params(alpha1=0)

    def test_n1_rejected(self):
        with pytest.raises(ParamError, match="n must be >= 2"):
            make_params(n=1, alpha=[], beta=[], lam=[1])

    def test_lambda_chain_enforced_on_I(self):
        # alpha_2 = 0 puts 2 in I, so lambda_2 must be q^-2 lambda_1
        dom = root_domain(3, 1)
        with pytest.raises(ParamError, match="inconsistent lambda_2"):
            make_params(alpha=[0], beta=[1], lam=[1, 1])
        ok = make_params(alpha=[0], beta=[1], lam=[dom.field.one(), dom.q_pow(-2)])
        assert ok.case == "II"

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ParamError, match="alpha and beta"):
            make_params(n=3, alpha=[1], beta=[0, 0], lam=[1, 1, 1])


class TestClassifyCase:
    def test_case1(self):
        params = make_params(alpha=[1])
        assert params.case == "I" and params.I_set == frozenset()

    def test_case2(self):
        dom = root_domain(3, 1)
        params = make_params(alpha=[0], beta=[1],
                             lam=[dom.field.one(), dom.q_pow(-2)])
        assert params.case == "II"
        assert params.I_set == frozenset({2}) and not (params.I_set & params.J_set)

    def test_case3(self):
        dom = root_domain(3, 1)
        params = make_params(alpha=[0], beta=[0],
                             lam=[dom.field.one(), dom.q_pow(-2)])
        assert params.case == "III"
        assert params.I_set & params.J_set == frozenset({2})

    @pytest.mark.parametrize("alpha", itertools.product([0, 1], repeat=2))
    @pytest.mark.parametrize("beta", itertools.product([0, 1], repeat=2))
    def test_every_zero_pattern_at_n3(self, alpha, beta):
        # the paper's rule: Case I when every alpha_i is nonzero; Case III
        # when some alpha_i and beta_i vanish together; Case II otherwise
        dom = root_domain(3, 1)
        lam = [dom.field.one()]
        for a in alpha:
            lam.append(dom.q_pow(-2) * lam[-1] if a == 0 else dom.field.scalar(5))
        params = make_params(n=3, alpha=list(alpha), beta=list(beta), lam=lam)
        if all(alpha):
            expected = "I"
        elif any(a == 0 and b == 0 for a, b in zip(alpha, beta)):
            expected = "III"
        else:
            expected = "II"
        assert params.case == expected


class TestDimension:
    def test_values(self):
        assert dimension(make_params(m=3, n=2, alpha=[1], beta=[0], lam=[1, 1])) == 3
        assert dimension(make_params(m=3, n=4, alpha=[1, 1, 1], beta=[0, 0, 0],
                                     lam=[1, 1, 1, 1])) == 27

    def test_guard(self):
        # the cap bounds the rows formed: a built module holds its rules,
        # and its matrices are refused before their first row
        params = make_params(m=9, n=4, alpha=[1, 1, 1], beta=[0, 0, 0],
                             lam=[1, 1, 1, 1], max_dim=100)
        gm = build_module(params)
        assert gm.dim == 729
        with pytest.raises(GuardError, match=r"^dimension guard: m\^\(n-1\) = "
                           r"9\^3 rows exceed cap 100$"):
            gm.mats
        params.max_dim = 729
        assert gm.mat("x1").dim == 729


def dense_config(m, max_dim=DEFAULT_MAX_DIM):
    """n = 2 at a prime m: alpha_1 has m - 1 coordinates +-1/2, so that
    y1_coeff has coordinates of hundreds of bits."""
    rng = random.Random(0)
    return {"m": m, "k": 1, "n": 2, "max_dim": max_dim,
            "alpha1": [rng.choice(("1/2", "-1/2")) for _ in range(m - 1)],
            "alpha": ["1"], "beta": ["0"], "lambda": ["q", "-q^2"]}


class TestWorkGuard:
    def test_dense_alpha1_is_refused_before_its_inverse(self, monkeypatch):
        # at m = 211 the phi - 1 conjugate products of alpha_1's norm put
        # the module past the budget, whatever the row cap
        def must_not_run(self):
            raise AssertionError("alpha_1 was inverted past the work guard")
        monkeypatch.setattr(Cyclotomic, "inv", must_not_run)
        for max_dim in (1, DEFAULT_MAX_DIM, 10 ** 9):
            with pytest.raises(GuardError, match=r"^work guard: the module of "
                               r"n = 2, m = 211 is estimated at \d+ steps "
                               r"\(.*inversions \d+.*\), past 16777216$"):
                ModuleParams.from_config(dense_config(211, max_dim))

    def test_small_cap_keeps_default_budget(self):
        # the budget is one constant: m = 101 is admitted at any row cap
        params = ModuleParams.from_config(dense_config(101, max_dim=1))
        scalars = (params.alpha1, params.alpha, params.lam)
        inverses = (params.y1_coeff, params._alpha_inv)
        work = check_work("module", 2, 101, scalars, inverses)
        assert 0 < work <= WORK_BUDGET == 2 ** 24
        assert ModuleParams.from_config(dense_config(101, max_dim=10 ** 9)).lam == params.lam

    def test_each_stage_adds_what_it_learns(self):
        # (n, m) alone charges y1_coeff's power at the least; the parsed
        # scalars add the inversions and kappa tables; the inverses add
        # the size of y1_coeff and the alpha_i^-1
        params = ModuleParams.from_config(dense_config(61))
        scalars = (params.alpha1, params.alpha, params.lam)
        inverses = (params.y1_coeff, params._alpha_inv)
        stages = [check_work("module", 2, 61), check_work("module", 2, 61, scalars),
                  check_work("module", 2, 61, scalars, inverses)]
        assert stages == sorted(stages) and len(set(stages)) == 3


class TestActCaseI:
    def test_x1_diagonal_spec_instance(self):
        # alpha_1 = alpha_2 = lambda_1 = lambda_2 = 1, n=2, m=3
        params = make_params()
        gm = build_module(params)
        dom = params.domain
        assert DictMatrix.of(gm.mat("x1")).diagonal() == [dom.q_pow(0), dom.q_pow(-1),
                                           dom.q_pow(-2)]

    def test_seed_row_x1_eigenvalue(self):
        params = random_module_params("I", 3, 3, 1, seed=5)
        coeff, target = act((0, 0), xgen(1), params)
        assert coeff == params.alpha1 and target == (0, 0)

    def test_y1_coefficient_formula(self):
        params = random_module_params("I", 2, 5, 2, seed=9)
        dom = params.domain
        for a2 in range(5):
            coeff, target = act((a2,), ygen(1), params)
            expected = (params.alpha1.inv() * params.lam_i(1)
                        * params.inv_correction * dom.q_pow(-a2))
            assert coeff == expected and target == (a2,)

    def test_xi_raising_and_wrap(self):
        params = random_module_params("I", 3, 3, 1, seed=1)
        dom = params.domain
        coeff, target = act((1, 2), xgen(3), params)
        # raising a_3 = 2 wraps to 0 with the central value as factor
        assert target == (1, 0)
        assert coeff == dom.q_pow(1) * params.alpha_i(3)
        coeff, target = act((1, 1), xgen(3), params)
        assert target == (1, 2) and coeff == dom.q_pow(1)

    def test_yi_lower_wrap_carries_alpha_inverse(self):
        params = random_module_params("I", 2, 3, 1, seed=2)
        dom = params.domain
        coeff, target = act((0,), ygen(2), params)
        if coeff is not None:
            assert target == (2,)
            expected = (params.alpha_i(2).inv()
                        * (params.lam_i(2) - params.lam_i(1))
                        * params.inv_correction)
            assert coeff == expected


class TestBuildMatchesAct:
    """build_module reads the generator rules in code form; act reads
    them one row at a time.  Both must give every entry."""

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 21), (3, 5)])
    def test_entries_equal_act_row_by_row(self, case, n, m):
        params = random_module_params(case, n, m, 2 if m == 5 else 1, seed=m + n)
        gm = build_module(params)
        for code in all_gens(n):
            mat = gm.mat(code)
            for r, a in enumerate(basis_indices(params)):
                coeff, target = act(a, code, params)
                if coeff is None:
                    assert mat.cols[r] is None, (gen_name(code), a)
                else:
                    c = basis_rank(target, m)
                    assert mat.cols[r] == c and mat.get(r, c) == coeff, \
                        (gen_name(code), a)

    def test_kappa_is_computed_once_per_generator_and_coordinate(self, monkeypatch):
        params = random_module_params("II", 4, 3, 1, seed=7)
        calls = []
        mul = Cyclotomic.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Cyclotomic, "__mul__", counting)
        build_module(params)
        # a handful of products per kappa entry, none per row
        assert len(calls) <= 4 * 2 * params.n * params.m < dimension(params) * 2 * params.n


class TestAlphaInverses:
    """The alpha_i inverses are computed once per instance, not per row."""

    @staticmethod
    def _build_counting_inversions(monkeypatch, n, m):
        params = random_module_params("I", n, m, 1, seed=n)
        calls = []
        inv = Cyclotomic.inv

        def counting(self):
            calls.append(1)
            return inv(self)

        with monkeypatch.context() as patch:
            patch.setattr(Cyclotomic, "inv", counting)
            gm = build_module(params)
        return params, gm, len(calls)

    def test_build_inverts_nothing_per_row(self, monkeypatch):
        counts = [self._build_counting_inversions(monkeypatch, n, 3)[2]
                  for n in (3, 5)]
        assert counts == [0, 0]

    def test_cached_inverses_change_nothing(self, monkeypatch):
        params, gm, _ = self._build_counting_inversions(monkeypatch, 3, 5)
        monkeypatch.setattr(ModuleParams, "alpha_inv_i",
                            lambda self, i: self.alpha_i(i).inv())
        fresh = build_module(params)
        assert fresh.to_wire() == gm.to_wire()
        assert (run_verification(fresh).to_dict()
                == run_verification(gm).to_dict())
        for i in range(2, params.n + 1):
            assert params.derived_beta(i) == params.beta_i(i)

    @pytest.mark.parametrize("m,k", [(3, 1), (5, 2), (9, 4), (15, 7), (21, 1)])
    def test_units_need_no_norm_inverse(self, monkeypatch, m, k):
        # 1 - q^-2 and q^2 - 1 are inverted in closed form and by a rotation
        dom = root_domain(m, k)
        inverted = []
        inv = Cyclotomic.inv

        def recording(self):
            inverted.append(self)
            return inv(self)

        monkeypatch.setattr(Cyclotomic, "inv", recording)
        params = make_params(m=m, k=k, alpha1=2, alpha=[3])
        # only alpha1 and alpha_2 go through the norm inverse
        assert inverted == [dom.scalar(2), dom.scalar(3)]
        assert params.inv_correction * dom.correction == dom.one
        assert params._inv_q2_minus_1 * (dom.q_pow(2) - dom.one) == dom.one


class TestForcedPowers:
    """The forced beta_i (i outside I) read lambda_(i-1)^m, lambda_i^m and
    (1 - q^-2)^-m; each is raised once per instance, not once per i."""

    @pytest.mark.parametrize("case, n, m", [("I", 5, 7), ("II", 5, 7), ("III", 4, 5)])
    def test_expected_values_raise_each_power_once(self, monkeypatch, case, n, m):
        params = random_module_params(case, n, m, 1, seed=3)
        gm = build_module(params)
        raised = []
        power = Cyclotomic.__pow__

        def counting(self, e):
            raised.append(e)
            return power(self, e)

        monkeypatch.setattr(Cyclotomic, "__pow__", counting)
        expected = expected_central_values(gm)
        outside = [i for i in range(2, n + 1) if i not in params.I_set]
        lambdas = {j for i in outside for j in (i - 1, i)}
        # alpha_1^m and y1_coeff^m, then each lambda_j^m and the correction
        assert raised == [m] * (2 + len(lambdas) + 1)
        assert len(raised) < 2 + 3 * len(outside)
        monkeypatch.setattr(Cyclotomic, "__pow__", power)
        for i in outside:
            lam = params.lam_i(i) ** m - params.lam_i(i - 1) ** m
            assert expected[f"y{i}"] == (params.alpha_inv_i(i)
                                         * params.inv_correction ** m * lam)


class TestActCaseIIandIII:
    def test_x_on_I_kills_bottom_rung(self):
        params = random_module_params("II", 2, 3, 1, seed=4)
        i = sorted(params.I_set)[0]
        coeff, target = act((0,), xgen(i), params)
        assert coeff is None and target is None

    def test_y_on_I_raises(self):
        params = random_module_params("II", 2, 3, 1, seed=4)
        i = sorted(params.I_set)[0]
        coeff, target = act((0,), ygen(i), params)
        assert coeff == params.domain.one and target == (1,)

    def test_case3_y_nilpotent_matrix(self):
        params = random_module_params("III", 2, 3, 1, seed=4)
        gm = build_module(params)
        j = sorted(params.I_set & params.J_set)[0]
        My = DictMatrix.of(gm.mat(f"y{j}"))
        assert not (My ** (params.m - 1)).is_zero()
        assert (My ** params.m).is_zero()

    def test_case3_x_nilpotent_too(self):
        params = random_module_params("III", 3, 3, 1, seed=8)
        gm = build_module(params)
        for i in sorted(params.I_set):
            assert (DictMatrix.of(gm.mat(f"x{i}")) ** params.m).is_zero()


class TestMatrixShape:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 3)])
    def test_monomial_rows(self, case, n, m):
        params = random_module_params(case, n, m, 1, seed=6)
        gm = build_module(params)
        for code in all_gens(n):
            mat = DictMatrix.of(gm.mat(code))
            assert all(len(row) == 1 for row in mat.rows.values())
            # invertibly-acting generators: a permutation shape
            power = mat ** m
            scalar = power.as_scalar()
            assert scalar is not None
            if not scalar.is_zero():
                cols = [c for _, c, _ in mat.entries()]
                assert len(mat.rows) == gm.dim
                assert sorted(cols) == list(range(gm.dim))

    def test_central_powers_match_parameters(self):
        params = random_module_params("II", 3, 3, 1, seed=12)
        gm = build_module(params)
        m = params.m

        def power(name):
            return (DictMatrix.of(gm.mat(name)) ** m).as_scalar()

        assert power("x1") == params.alpha1 ** m
        for i in range(2, params.n + 1):
            actual = power(f"x{i}")
            assert actual == params.alpha_i(i)
            actual_y = power(f"y{i}")
            if i in params.I_set:
                assert actual_y == params.beta_i(i)
            else:
                assert actual_y == params.derived_beta(i)

    def test_omega_closed_form_case1(self):
        # on Case I the omega_i diagonal entry at row a is
        # lambda_i * q^(-2 * sum of a_j above i)
        params = random_module_params("I", 3, 3, 1, seed=3)
        gm = build_module(params)
        dom = params.domain
        for i in range(1, params.n + 1):
            om = omega_matrix(gm, i)
            assert om.is_diagonal()
            for row, a in enumerate(basis_indices(params)):
                tail = sum(a[j - 2] for j in range(i + 1, params.n + 1))
                assert om.get(row, row) == params.lam_i(i) * dom.q_pow(-2 * tail)


class TestBasisEnumeration:
    def test_rank_round_trip(self):
        params = make_params(m=5, n=3, alpha=[1, 1], beta=[0, 0], lam=[1, 1, 1])
        indices = basis_indices(params)
        assert len(indices) == 25
        assert indices[0] == (0, 0)
        for r, a in enumerate(indices):
            assert basis_rank(a, 5) == r


class TestWireFormat:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_entries_are_the_matrix_entries(self, case):
        params = random_module_params(case, 2, 3, 1, seed=21)
        gm = build_module(params)
        wire = json.loads(json.dumps(gm.to_wire(), sort_keys=True))
        assert wire["case"] == params.case == case
        assert wire["dimension"] == gm.dim
        for name, mat in gm.mats.items():
            entries = list(mat.entries())
            assert wire["generators"][name] == [[r, c, encode_cyclotomic(v)]
                                                for r, c, v in entries]
            for r, c, v in entries:
                assert parse_cyclotomic(encode_cyclotomic(v), 3, 1) == v

    def test_wire_fields(self):
        params = random_module_params("III", 2, 5, 2, seed=22)
        gm = build_module(params)
        wire = gm.to_wire()
        for key in ("m", "n", "k", "case", "dimension", "generators",
                    "alpha1", "alpha", "beta", "lambda"):
            assert key in wire
        assert set(wire["generators"]) == {gen_name(g) for g in all_gens(2)}

    def test_forced_beta_round_trips(self):
        # beta_2 outside I is forced, lambda^m-sized and never consumed, so
        # its 588 bits are not refused
        params = random_module_params("I", 2, 61, 1, seed=3)
        assert coordinate_bits(params.beta_i(2)) > MAX_SCALAR_BITS
        again = ModuleParams.from_config(params.to_wire())
        assert again.to_wire() == params.to_wire()

    def test_consumed_beta_keeps_the_bit_bound(self):
        # beta_2 in I is y_2^m: a 600-bit coordinate is still refused
        cfg = {"m": 3, "k": 1, "n": 2, "alpha1": "1", "alpha": ["0"],
               "beta": [[str(2 ** 599)]], "lambda": ["1", "q^-2"]}
        with pytest.raises(ParamError, match=r"^field 'beta\[0\]': 600-bit "
                           r"coordinates exceed the bound of 512 bits$"):
            ModuleParams.from_config(cfg)
        cfg["beta"] = [[str(2 ** 510)]]
        assert ModuleParams.from_config(cfg).case == "II"


class TestGeneratorSet:
    """GeneratorMatrices holds exactly the 2n generators, of one size."""

    def module(self):
        return build_module(random_module_params("II", 3, 3, 1, seed=25))

    def test_missing_generator_rejected(self):
        gm = self.module()
        mats = {name: mat for name, mat in gm.mats.items() if name != "x3"}
        with pytest.raises(ParamError, match="are not the 6 generators of n = 3"):
            GeneratorMatrices(gm.params, mats)

    def test_extra_generator_rejected(self):
        gm = self.module()
        mats = {**gm.mats, "x4": gm.mat("x3")}
        with pytest.raises(ParamError, match="are not the 6 generators of n = 3"):
            GeneratorMatrices(gm.params, mats)

    def test_matrices_of_two_tables_rejected(self):
        gm, other = self.module(), self.module()
        mats = {**gm.mats, "x3": other.mat("x3")}
        with pytest.raises(ParamError, match="do not share one scalar table"):
            GeneratorMatrices(gm.params, mats)

    def test_dimension_is_read_from_the_matrices(self):
        gm = self.module()
        assert gm.dim == dimension(gm.params) == 9
        assert direct_sum(gm).dim == 2 * gm.dim


class TestRandomDraws:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_case_pattern(self, case):
        for seed in range(5):
            params = random_module_params(case, 3, 3, 1, seed=seed)
            assert params.case == case

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            random_module_params("IV", 2, 3, 1)
