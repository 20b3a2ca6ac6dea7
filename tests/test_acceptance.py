"""Acceptance suite: one test per criterion, one printed line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as
they pass; every check is exact (integer or cyclotomic equality), with
the stated time budgets asserted.
"""

import functools
import json
import time

import pytest

from oracles import DictMatrix, brute_force_image, build_H
from qeuclid.pidegree import pi_degree
from qeuclid.repmod import (
    ModuleParams,
    ParamError,
    build_module,
    dimension,
    random_module_params,
)
from qeuclid.rewriter import (
    check_local_confluence,
    verify_central_powers,
    verify_remark_identities,
)
from qeuclid.verify import (
    check_central_scalars,
    check_eigen_separation,
    check_omega_action,
    check_relations,
    commutant_dimension,
    direct_sum,
    run_verification,
    tampered_copy,
)


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {description}")
                raise
            print(f"[criterion {num}] PASS  {description}")
        return run
    return wrap


@criterion(1, "PI-degree equals m^(n-1) for n in 1..4, m in {3,5,7,9}")
def test_criterion_1_pi_degree_reproduction():
    for n in (1, 2, 3, 4):
        for m in (3, 5, 7, 9):
            t0 = time.perf_counter()
            report = pi_degree(n, m)
            elapsed = time.perf_counter() - t0
            assert report.degree == m ** (n - 1), (n, m, report.degree)
            assert report.degree ** 2 == report.h
            assert elapsed < 1.0, f"(n={n}, m={m}) took {elapsed:.3f}s"


@criterion(2, "image cardinality modulo m equals brute-force enumeration")
def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    for n in (1, 2):
        for m in (3, 5):
            assert pi_degree(n, m).h == brute_force_image(build_H(n), m), (n, m)
    assert time.perf_counter() - t0 < 5.0


@criterion(3, "symbolic omega identities (n<=3) and central m-th powers")
def test_criterion_3_symbolic_identity_suite():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        report = verify_remark_identities(n)
        assert report.ok, report.failures()
    for n, m in ((2, 3), (2, 5), (3, 3)):
        report = verify_central_powers(n, m, 1)
        assert report.ok, report.failures()
    assert time.perf_counter() - t0 < 60.0


@criterion(4, "every length-3 overlap ambiguity resolves identically (n<=3)")
def test_criterion_4_confluence():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        report = check_local_confluence(n)
        assert report.ok, report.failures()
    assert time.perf_counter() - t0 < 30.0


@criterion(5, "Cases I/II/III build and fully verify on 5 random draws each")
def test_criterion_5_module_construction_and_verification():
    for case in ("I", "II", "III"):
        for n, m in ((2, 3), (2, 5), (3, 3)):
            for draw in range(5):
                t0 = time.perf_counter()
                params = random_module_params(case, n, m, 1,
                                              seed=1000 * draw + 10 * n + m)
                gm = build_module(params)
                assert dimension(params) == m ** (n - 1)
                assert check_relations(gm) == []
                for check in check_omega_action(gm):
                    assert check.diagonal
                    assert check.all_entries_nonzero
                    assert check.seed_eigenvalue == params.lam_i(check.index)
                assert all(c.ok for c in check_central_scalars(gm))
                assert all(c.ok for c in check_eigen_separation(gm))
                assert commutant_dimension(gm) == 1
                degree = pi_degree(n, m).degree
                assert gm.dim == degree  # saturation: maximal dimension
                elapsed = time.perf_counter() - t0
                assert elapsed < 30.0, f"{case}/{n}/{m} took {elapsed:.1f}s"


@criterion(6, "Case III nilpotency: y_j^(m-1) != 0 and y_j^m = 0 on I^J")
def test_criterion_6_case3_nilpotency():
    for n, m in ((2, 3), (2, 5), (3, 3)):
        for draw in range(3):
            params = random_module_params("III", n, m, 1, seed=500 + draw)
            gm = build_module(params)
            overlap = params.I_set & params.J_set
            assert overlap
            for j in sorted(overlap):
                My = DictMatrix.of(gm.mat(f"y{j}"))
                assert not (My ** (m - 1)).is_zero(), (n, m, j)
                assert (My ** m).is_zero(), (n, m, j)


@criterion(7, "negative controls fail exactly as specified")
def test_criterion_7_negative_controls(tmp_path):
    # (a) lambda_i = 0 rejected as torsion
    with pytest.raises(ParamError, match="torsion parameters"):
        ModuleParams.from_config({
            "m": 3, "k": 1, "n": 2, "alpha1": "1", "alpha": ["1"],
            "beta": ["0"], "lambda": ["1", "0"]})
    # the same through the CLI config path
    from qeuclid.cli import EXIT_CONFIG, main
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "m": 3, "k": 1, "n": 2, "alpha1": "1", "alpha": ["1"],
        "beta": ["0"], "lambda": ["0", "1"]}))
    assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG

    # (b) even m rejected
    with pytest.raises(ParamError, match="m must be odd"):
        ModuleParams.from_config({
            "m": 4, "k": 1, "n": 2, "alpha1": "1", "alpha": ["1"],
            "beta": ["0"], "lambda": ["1", "1"]})

    # (c) single-entry tampering breaks relations or central scalars
    params = random_module_params("I", 2, 3, 1, seed=77)
    gm = build_module(params)
    for name in sorted(gm.mats):
        for r, c, _ in list(gm.mats[name].entries()):
            tampered = tampered_copy(gm, name, r, c)
            assert (check_relations(tampered) != []
                    or any(not chk.ok
                           for chk in check_central_scalars(tampered))), \
                f"tampering {name}[{r},{c}] undetected"

    # (d) direct-sum doubling has commutant dimension 4 (2 x 2 matrices)
    assert commutant_dimension(direct_sum(gm)) == 4


def test_full_pipeline_summary():
    """End-to-end sanity: a verified report on one instance per case."""
    for case in ("I", "II", "III"):
        params = random_module_params(case, 2, 3, 1, seed=9)
        report = run_verification(build_module(params))
        assert report.ok and report.commutant_dim == 1
