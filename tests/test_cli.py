"""Command-line interface: exit codes, reports, determinism, round trips."""

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qeuclid
from qeuclid import cli, repmod, rewriter, scalars, verify
from qeuclid.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_VERIFY, main
from qeuclid.pidegree import pi_degree
from qeuclid.repmod import ModuleParams, build_module
from qeuclid.verify import run_verification


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "m": 3,
        "k": 1,
        "n": 2,
        "alpha1": "1",
        "alpha": ["1"],
        "beta": ["0"],
        "lambda": ["1", "2"],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPiDegreeCommand:
    def test_pass(self, capsys):
        assert main(["pi-degree", "--n", "2", "--m", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "degree sqrt(h)      : 3" in out and "PASS" in out

    def test_json_report(self, capsys):
        assert main(["pi-degree", "--n", "3", "--m", "5", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["degree"] == 25
        assert doc["report"]["expected"] == 25
        assert doc["tool"] == "qeuclid"

    def test_bad_m(self, capsys):
        assert main(["pi-degree", "--n", "2", "--m", "4"]) == EXIT_CONFIG

    def test_json_report_is_linear_in_n(self, capsys):
        # two kernel vectors of 2n entries: about 11 KB at n = 200, where
        # a dense 2n x 2n kernel basis wrote 1.77 MB
        assert main(["pi-degree", "--n", "200", "--m", "3", "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.encode()) < 64 * 1024
        report = json.loads(out)["report"]
        assert report["matches_expected"] is True and report["rank"] == 398
        assert len(report["kernel_basis"]["vectors"]) == 2

    def test_work_guard_on_large_n(self, capsys):
        # the first n refused; --n 803 runs 1.1-1.4 s in a fresh process
        assert main(["pi-degree", "--n", "804", "--m", "3"]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert ("work guard: pi-degree --n 804 --m 3 is estimated at 16806944 steps "
                "(elimination 16806816, report 128), past 16777216") in captured.err
        assert captured.out == ""

    def test_work_guard_bound_is_inclusive(self, monkeypatch, capsys):
        # 26 n^2 admits n <= 803
        assert repmod.check_work("pi-degree", 803) == 26 * 803 ** 2 <= repmod.WORK_BUDGET
        with pytest.raises(repmod.GuardError):
            repmod.check_work("pi-degree", 804)
        monkeypatch.setattr(repmod, "WORK_BUDGET", 26 * 3 ** 2)
        assert main(["pi-degree", "--n", "3", "--m", "5"]) == EXIT_OK
        assert main(["pi-degree", "--n", "4", "--m", "5"]) == EXIT_GUARD

    def test_h_past_the_int_to_str_limit_is_written_in_full(self, capsys):
        # h = m^2 has 801 digits, past the lowest limit Python allows
        m = 10**400 + 1
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(640)
        try:
            assert main(["pi-degree", "--n", "2", "--m", str(m)]) == EXIT_OK
            human = capsys.readouterr().out
            assert main(["pi-degree", "--n", "2", "--m", str(m), "--json"]) == EXIT_OK
            machine = capsys.readouterr().out
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert f"image cardinality h : {m * m}\n" in human
        assert json.loads(machine)["report"]["image_cardinality"] == m * m


class TestConfigValidation:
    def test_minimal_case1_valid(self, tmp_path):
        # all parameters "1" (the smallest well-formed Case I instance)
        cfg = write_config(tmp_path, **{"lambda": ["1", "1"]})
        assert main(["verify", "--config", cfg]) == EXIT_OK

    def test_torsion_lambda_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"lambda": ["1", "0"]})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "torsion parameters" in capsys.readouterr().err

    def test_even_m_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=4)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "m must be odd" in capsys.readouterr().err

    def test_non_coprime_k_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=9, k=3)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "q not primitive" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"m": 3, "k": 1, "n": 2}))
        assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
        assert "missing field 'alpha1'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
        assert "malformed JSON" in capsys.readouterr().err

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed JSON")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["m", "k", "n"])
    def test_boolean_integer_field_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, **{key: True})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert (capsys.readouterr().err
                == f"config error: field {key!r} must be an integer\n")

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_non_array_lambda_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"lambda": "11"})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "'lambda' must be an array" in capsys.readouterr().err


    @pytest.mark.parametrize("max_dim", ["x", 0, -9, 2.5, True, None])
    def test_bad_max_dim_rejected(self, tmp_path, capsys, max_dim):
        cfg = write_config(tmp_path, max_dim=max_dim)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "'max_dim' must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize("flag", ["0", "-5"])
    def test_bad_max_dim_flag_rejected(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path)
        assert main([command, "--config", cfg, "--max-dim", flag]) == EXIT_CONFIG
        assert "'max_dim' must be a positive integer" in capsys.readouterr().err

    def test_max_dim_flag_wins_over_config(self, tmp_path, capsys):
        # build forms every row, so the cap binds it
        cfg = write_config(tmp_path, max_dim=2)
        assert main(["build", "--config", cfg]) == EXIT_GUARD
        assert main(["build", "--config", cfg, "--max-dim", "3"]) == EXIT_OK
        capsys.readouterr()

    def test_dimension_guard_before_field_is_built(self, tmp_path, capsys):
        # y1_coeff^m alone is past the budget at m = 200003
        cfg = write_config(tmp_path, m=200003)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "work guard: the module of n = 2, m = 200003" in err
        assert err.count("\n") == 1
        assert 200003 not in scalars._FIELD_CACHE

    def test_dimension_guard_with_huge_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=10 ** 12)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert time.perf_counter() - t0 < 5.0
        assert "work guard: the module of n = 1000000000000" in capsys.readouterr().err

    def test_work_guard_on_dense_large_m(self, tmp_path, capsys, monkeypatch):
        # alpha_1 with 210 coordinates +-1/2 gives y1_coeff 738-bit
        # coordinates, whose 211th power did not finish in minutes; its norm
        # inverse is refused before it is formed
        def must_not_run(self):
            raise AssertionError("alpha_1 was inverted past the work guard")
        monkeypatch.setattr(scalars.Cyclotomic, "inv", must_not_run)
        rng = random.Random(0)
        alpha1 = [rng.choice(["1/2", "-1/2"]) for _ in range(210)]
        cfg = write_config(tmp_path, m=211, alpha1=alpha1,
                           **{"lambda": ["q", "-q^2"]})
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "work guard: the module of n = 2, m = 211" in err and "inversions" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("overrides,message", [
        # n = 1 leaves m unbounded by the dimension guard
        ({"m": 255255, "n": 1}, "n must be >= 2"),
        ({"alpha": ["(1+q)^128*(1+q)^128"] * 2000},
         "alpha and beta must have entries for i = 2..n"),
    ])
    def test_shape_checked_before_any_scalar(self, tmp_path, capsys, monkeypatch,
                                             overrides, message):
        monkeypatch.setattr(scalars, "_FIELD_CACHE", {})
        cfg = write_config(tmp_path, **overrides)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 1.0
        assert scalars._FIELD_CACHE == {}
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("literal", [
        "2^99999999999", "2^-99999999999", "(1+q)^100000", "((1+q)^64)^64"])
    def test_oversized_literal_power_rejected(self, tmp_path, capsys, literal):
        cfg = write_config(tmp_path, alpha1=literal)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "field 'alpha1': exponent" in err and err.count("\n") == 1

    def test_product_chain_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=21, alpha=["1"],
                           alpha1="*".join(["(1+q)^128"] * 20))
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert "field 'alpha1': products too large" in err and err.count("\n") == 1

    def test_sum_of_powers_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=21, alpha=["1"],
                           alpha1="+".join(["(1+q)^128"] * 200))
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert "field 'alpha1': sums too large" in err and err.count("\n") == 1

    @pytest.mark.parametrize("alpha1", [
        ["1e200000"], ["1e2000000"], ["0.5"], [" 1"], ["+1"], [0.1], [["1"]],
        [None], [{"a": 1}], [True], True, None, ["9" * 1000, "1"]])
    def test_malformed_coordinate_rejected(self, tmp_path, capsys, alpha1):
        cfg = write_config(tmp_path, alpha1=alpha1)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'alpha1': ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha1, literal", [
        (["1/0"], "1/0"), (["1", "-3/00"], "-3/00")], ids=["one", "second"])
    def test_zero_denominator_in_a_coordinate(self, tmp_path, capsys, alpha1, literal):
        cfg = write_config(tmp_path, alpha1=alpha1)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f'config error: field \'alpha1\': zero denominator in "{literal}"\n')

    @pytest.mark.parametrize("alpha1, literal", [
        ("1/0", "1/0"), ("q + 2*q^2 - 7/000*q", "7/000")], ids=["alone", "in-a-sum"])
    def test_zero_denominator_in_a_q_expression(self, tmp_path, capsys, alpha1, literal):
        cfg = write_config(tmp_path, alpha1=alpha1)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f'config error: field \'alpha1\': zero denominator in "{literal}"\n')

    @pytest.mark.parametrize("alpha1", [
        "(" * 300 + "1" + ")" * 300, "2*" + "-" * 3000 + "1"],
        ids=["parentheses", "minus-signs"])
    def test_deeply_nested_literal_rejected(self, tmp_path, capsys, alpha1):
        cfg = write_config(tmp_path, alpha1=alpha1)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'alpha1': literal nested")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha1", [
        "(" * 200 + "1" + ")" * 200, "2*" + "-" * 200 + "1",
        "(2*-" * 100 + "1" + ")" * 100],
        ids=["parentheses", "minus-signs", "mixed"])
    def test_nesting_at_the_bound_accepted(self, tmp_path, capsys, alpha1):
        cfg = write_config(tmp_path, alpha1=alpha1)
        assert main(["verify", "--config", cfg]) == EXIT_OK
        capsys.readouterr()

    def test_integer_coordinates_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha1=[1, "0"], beta=[[0, "-0/5"]])
        assert main(["verify", "--config", cfg]) == EXIT_OK
        capsys.readouterr()

    def test_huge_power_of_q_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha1="q^99999999999")
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_OK
        assert time.perf_counter() - t0 < 5.0
        capsys.readouterr()


class TestVerifyCommand:
    def test_all_cases_pass(self, tmp_path, capsys):
        for name, alpha, beta, lam in (
                ("c1", ["1"], ["0"], ["1", "2"]),
                ("c2", ["0"], ["1"], ["1", "q"]),
                ("c3", ["0"], ["0"], ["1", "q"])):
            cfg = write_config(tmp_path, name=f"{name}.json", alpha=alpha,
                               beta=beta, **{"lambda": lam})
            assert main(["verify", "--config", cfg]) == EXIT_OK
            out = capsys.readouterr().out
            assert "overall             : PASS" in out
            assert "commutant dim       : 1" in out

    def test_shipped_configs(self, capsys):
        for name in ("case1_n2_m3", "case2_n2_m3", "case3_n2_m3",
                     "case1_n3_m5"):
            assert main(["verify", "--config", f"configs/{name}.json"]) == EXIT_OK
            capsys.readouterr()

    def test_guard_exit_code(self, tmp_path, capsys):
        # verify decides a built module on its rules and forms no row, so
        # only build meets the row cap
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--max-dim", "2"]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "m.json"
        assert main(["build", "--config", cfg, "--max-dim", "2", "--out", str(out)]) \
            == EXIT_GUARD
        assert "dimension guard" in capsys.readouterr().err and not out.exists()

    def test_inconsistent_lambda_rejected(self, tmp_path, capsys):
        # alpha_2 = 0 forces lambda_2 = q^-2 lambda_1
        cfg = write_config(tmp_path, alpha=["0"], beta=["1"],
                           **{"lambda": ["1", "1"]})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "inconsistent lambda" in capsys.readouterr().err

    def test_failed_verification_exit_code(self, tmp_path, capsys, monkeypatch):
        # exit 3 is reserved for genuine check failures; force one by
        # flipping a section on an otherwise real report
        import qeuclid.cli as cli_mod

        def failing(gm):
            report = run_verification(gm)
            report.sections["relations"] = False
            return report

        monkeypatch.setattr(cli_mod, "run_verification", failing)
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg]) == EXIT_VERIFY
        assert "relations           : FAIL" in capsys.readouterr().out

    def test_json_determinism_excluding_timing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["verify", "--config", cfg, "--json"]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            doc.pop("timing")
            outputs.append(json.dumps(doc, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_json_and_human_agree(self, tmp_path, capsys):
        # the second config's alpha_1^61 has more digits than Python
        # converts to text by default; --json must still write it
        for cfg in (write_config(tmp_path),
                    write_config(tmp_path, name="m61.json", m=61,
                                 alpha1=str(10 ** 74 + 7))):
            assert main(["verify", "--config", cfg, "--json"]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            verification = doc["report"]["verification"]
            assert main(["verify", "--config", cfg]) == EXIT_OK
            human = capsys.readouterr().out
            assert f"dimension m^(n-1)   : {verification['dimension']}" in human
            assert f"commutant dim       : {verification['commutant_dim']}" in human
            assert verification["commutant_dim"] == 1
            assert "commutant dim       : 1   PASS\n" in human
            assert verification["path"] == "rules"
            assert "relations           : PASS  (rules path)\n" in human

    def test_pi_degree_computed_once(self, tmp_path, capsys, monkeypatch):
        import qeuclid.cli as cli_mod
        import qeuclid.verify as verify_mod

        calls = []

        def counted(n, m):
            calls.append((n, m))
            return pi_degree(n, m)

        monkeypatch.setattr(cli_mod, "pi_degree", counted)
        monkeypatch.setattr(verify_mod, "pi_degree", counted)
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert calls == [(2, 3)]
        assert doc["report"]["pi_degree"]["degree"] == 3


class TestBuildCommand:
    def test_build_writes_matrices_and_roundtrip_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "mats.json"
        assert main(["build", "--config", cfg, "--out", str(out_path)]) == EXIT_OK
        capsys.readouterr()
        wire = json.loads(out_path.read_text())
        assert wire["case"] == "I" and wire["dimension"] == 3
        assert main(["verify", "--config", cfg]) == EXIT_OK

    def test_build_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["build", "--config", cfg]) == EXIT_OK
        wire = json.loads(capsys.readouterr().out)
        assert set(wire["generators"]) == {"x1", "x2", "y1", "y2"}


class TestIdentitiesCommand:
    def test_generic_suite(self, capsys):
        assert main(["identities", "--n", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS (9/9)" in out
        assert "local confluence" in out

    def test_with_central_powers(self, capsys):
        assert main(["identities", "--n", "2", "--m", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS (8/8)" in out

    def test_json(self, capsys):
        assert main(["identities", "--n", "3", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        suites = doc["report"]["suites"]
        assert suites[0]["ok"] is True
        assert len(suites[0]["checks"]) == 21

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        assert main(["identities", "--n", "1", "--out", str(target)]) == EXIT_OK
        assert "PASS" in target.read_text()

    def test_central_powers_at_large_m(self, capsys):
        # x_i^m y_i crosses y_i past m copies of x_i: no RecursionError
        assert main(["identities", "--n", "2", "--m", "999"]) == EXIT_OK
        assert "PASS (8/8)" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_a_config_error(self, n, capsys):
        assert main(["identities", "--n", n, "--m", "5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "n must be >= 1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("n", ["0", "-40"])
    def test_n_below_one_is_refused_before_the_guard(self, n, monkeypatch, capsys):
        # at n = 0 the suites' terms were 0 and the field term factored m:
        # --m 10^40+1 ran for minutes
        def must_not_run(*args):
            raise AssertionError("m was factored")
        monkeypatch.setattr(repmod, "euler_phi", must_not_run)
        assert main(["identities", "--n", n, "--m", str(10 ** 40 + 1)]) == EXIT_CONFIG
        assert "config error: n must be >= 1" in capsys.readouterr().err

    def test_work_guard_on_large_n(self, capsys):
        # --n 60 did not finish in 20 s before the guard
        assert main(["identities", "--n", "60"]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert ("work guard: identities --n 60 is estimated at 22464000 steps "
                "(generic suites 22464000), past 16777216") in captured.err
        assert captured.out == ""

    def test_work_guard_bound_is_inclusive(self, monkeypatch, capsys):
        # 104 n^3 admits n <= 54 without --m
        repmod.check_work("identities", 54)
        with pytest.raises(repmod.GuardError):
            repmod.check_work("identities", 55)
        monkeypatch.setattr(repmod, "WORK_BUDGET", repmod.check_work("identities", 2, 3))
        assert main(["identities", "--n", "2", "--m", "3"]) == EXIT_OK
        assert main(["identities", "--n", "3", "--m", "3"]) == EXIT_GUARD

    def test_work_guard_on_large_m(self, monkeypatch, capsys):
        # each term of the estimate refuses one instance: the generic-q
        # suites (55, 3), the central suite (16, 20297), the wrap table of
        # Q(zeta_3003) and the vectors of phi coordinates at m = 699007
        def must_not_run(*args):
            raise AssertionError("a suite ran past the work guard")
        for name in ("verify_remark_identities", "check_local_confluence",
                     "verify_central_powers"):
            monkeypatch.setattr(cli, name, must_not_run)
        monkeypatch.setattr(scalars, "_FIELD_CACHE", {})
        for n, m in [("55", "3"), ("16", "20297"), ("2", "3003"), ("1", "699007"),
                     ("32", "2001"), ("2", "1000001")]:
            assert main(["identities", "--n", n, "--m", m]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert ("work guard: identities --n 16 --m 20297 is estimated at 16781600 "
                "steps (generic suites 425984, central suite 15624960, "
                "field 730656), past 16777216") in captured.err
        assert captured.out == ""
        # the guard reads phi(m), but Q(zeta_m) is never built
        assert scalars._FIELD_CACHE == {}

    def test_work_guard_on_m_is_inclusive(self, monkeypatch):
        # (2, 5): 104 * 2^3 + 3 * 2^2 * (5 + 48) + 9 * (5 - 4 + 3) * 4 = 1612
        monkeypatch.setattr(repmod, "WORK_BUDGET", 1612)
        assert main(["identities", "--n", "2", "--m", "5"]) == EXIT_OK
        monkeypatch.setattr(repmod, "WORK_BUDGET", 1611)
        assert main(["identities", "--n", "2", "--m", "5"]) == EXIT_GUARD

    @pytest.mark.parametrize("n, m", [(3, 61), (4, 31), (6, 9), (2, 5), (2, 999),
                                      (3, 5), (2, 3), (1, 3), (3, 999), (8, 413),
                                      (4, 1001), (2, 2001), (1, 99991)])
    def test_work_guard_admits_benchmark_ci_and_golden_instances(self, n, m):
        repmod.check_work("identities", n, m)

    @pytest.mark.parametrize("n", [2, 3, 24, 16, 128])
    def test_work_guard_admits_benchmark_ci_and_golden_degrees(self, n):
        repmod.check_work("pi-degree", n)

    @pytest.mark.parametrize("argv, message", [
        (["--m", "-10001"], "m must be odd >= 3"),
        (["--m", "4001", "--k", "4001"], "q not primitive"),
        (["--m", "30021", "--k", "3"], "q not primitive")])
    def test_bad_m_or_k_past_the_bound_is_a_config_error(self, argv, message, capsys,
                                                          monkeypatch):
        # k is checked before Q(zeta_m) is built: at m = 30021 the field
        # took 25 s.  An empty cache of its own, since other tests build
        # Q(zeta_4001)
        monkeypatch.setattr(scalars, "_FIELD_CACHE", {})
        assert main(["identities", "--n", "32", *argv]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert int(argv[1]) not in scalars._FIELD_CACHE

    @pytest.mark.parametrize("m", ["0", "-5", "4"])
    def test_m_not_odd_above_two_is_a_config_error(self, m, capsys):
        assert main(["identities", "--n", "2", "--m", m]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: m must be odd >= 3" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("argv, message", [
        (["--m", "4"], "m must be odd >= 3"),
        (["--m", "3", "--k", "3"], "q not primitive"),
    ])
    def test_bad_m_or_k_exits_before_any_suite(self, argv, message, monkeypatch,
                                               capsys):
        # the generic suite alone took about 1 s at n = 20
        def must_not_run(n):
            raise AssertionError("a suite ran before m and k were checked")
        monkeypatch.setattr(cli, "verify_remark_identities", must_not_run)
        monkeypatch.setattr(cli, "check_local_confluence", must_not_run)
        assert main(["identities", "--n", "20", *argv]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err


class TestLargeLiterals:
    @pytest.mark.parametrize("m", [61, 105])
    def test_readme_literal_as_alpha1_verifies(self, tmp_path, m):
        # the largest literal the parser accepts; ModuleParams inverts
        # alpha1, which did not finish in 100 s by extended Euclid
        cfg = write_config(tmp_path, m=m, alpha1="(1+q)^128*(1+q)^128")
        start = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_OK
        assert time.perf_counter() - start < 90


def _perfbench_configs():
    """The module configs of every perfbench verify instance, seeds 1-3."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [inst.config for name in workloads.WORKLOADS for seed in (1, 2, 3)
            for inst in workloads.instances(name, seed) if inst.config]


def _ci_configs():
    """The shipped configs and the ones the CI console step writes."""
    shipped = []
    for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as handle:
            shipped.append(json.load(handle))
    return shipped + [
        {"m": 3, "k": 1, "n": n, "alpha1": "2", "alpha": ["1"] * (n - 1),
         "beta": ["0"] * (n - 1), "lambda": [str(i) for i in range(1, n + 1)]}
        for n in (9, 41)]


class TestPiDegreeFuzz:
    """``pi-degree --n N --m M`` on untrusted argv ends with exit 0, 2, 3 or
    4 within a wall-time bound: N across the work guard's boundary (n <= 803
    is admitted at small m), M odd, even, 1, composite, huge or no integer."""

    NS = st.one_of(st.integers(-3, 40), st.integers(798, 808),
                   st.integers(809, 10 ** 40), st.sampled_from(["x", "", "3.0", "1e3"]))
    MS = st.one_of(st.sampled_from([1, 3, 5, 9, 15, 45, 105, 3003]), st.integers(-9, 9),
                   st.integers(1, 10 ** 6).map(lambda k: 2 * k),
                   st.integers(0, 4200).map(lambda k: 10 ** k + 1),
                   st.sampled_from(["q", "", "1/3", "9" * 4400]))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(NS, MS)
    def test_exit_code_within_a_time_bound(self, n, m):
        t0 = time.perf_counter()
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["pi-degree", "--n", str(n), "--m", str(m)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_GUARD)
        assert time.perf_counter() - t0 < 20.0


class TestVerifyConfigFuzz:
    """``verify --config FILE`` on untrusted config files ends with exit 0,
    2, 3 or 4 within a wall-time bound.  A small well-formed config takes
    up to two faults: a key missing, extra or of the wrong type; m or n
    across the guards; k not prime to m; a literal past the parser's
    depth, power or work bound, a coordinate array of the wrong length or
    with a zero denominator; an array one entry short or long; a bad
    max_dim."""

    JUNK = st.one_of(st.floats(), st.booleans(), st.none(),
                     st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                     st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2))
    GOOD = st.sampled_from(["1", "2", "q", "-q^2", "1/2", "2+q", "q^-2*(1+q)"])
    BAD = {
        "m": st.one_of(st.sampled_from([1, 0, -3, 105, 1155, 255255]),
                       st.integers(1, 10 ** 6).map(lambda k: 2 * k),
                       st.integers(1, 40).map(lambda k: 10 ** k + 1)),
        "n": st.one_of(st.integers(-1, 6), st.sampled_from([50, 10 ** 6, 10 ** 40])),
        "literal": st.one_of(
            st.sampled_from(["(" * 201 + "1" + ")" * 201, "-" * 201 + "1",
                             "(1+q)^257", "2^257", "2^99999999999",
                             "*".join(["(1+q)^128"] * 3), "+".join(["(1+q)^128"] * 5),
                             "9" * 4400, "", "q^", "1/0", "0"]),
            st.lists(st.sampled_from([0, 1, -1, "1/2", "-3/5", "1/0", "x"]),
                     min_size=1, max_size=20),
            JUNK),
        "max_dim": st.one_of(st.sampled_from([0, -1, 1, 9, 10 ** 40, 1.5, "9"]), JUNK),
    }
    KEYS = ("m", "k", "n", "alpha1", "alpha", "beta", "lambda")
    FAULTS = ("literal", "length", "k", "n", "max_dim", "drop", "junk", "extra", "m")

    @st.composite
    def configs(draw, good=GOOD, bad=BAD, junk=JUNK, keys=KEYS, faults=FAULTS):
        m, n = draw(st.sampled_from([3, 5, 7, 9, 15])), draw(st.integers(2, 4))
        cfg = {"m": m, "k": draw(st.sampled_from([1, 2, -1])), "n": n,
               "alpha1": draw(good),
               "alpha": draw(st.lists(good, min_size=n - 1, max_size=n - 1)),
               "beta": ["0"] * (n - 1),
               "lambda": draw(st.lists(good, min_size=n, max_size=n))}
        for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=2)):
            arrays = [key for key in ("alpha", "beta", "lambda")
                      if isinstance(cfg.get(key), list)]
            if fault in ("m", "n", "max_dim"):
                cfg[fault] = draw(bad[fault])
            elif fault == "k":                  # a multiple of a prime of m
                cfg["k"] = {5: 5, 7: 7}.get(m, 3) * draw(st.integers(-3, 3))
            elif fault == "length" and arrays:
                key = draw(st.sampled_from(arrays))
                cfg[key] = cfg[key][1:] if draw(st.booleans()) else cfg[key] + ["1"]
            elif fault == "literal":
                key, value = draw(st.sampled_from(["alpha1"] + arrays)), draw(bad["literal"])
                if key == "alpha1":
                    cfg[key] = value
                else:                           # replace an entry, or append one
                    place = draw(st.integers(0, len(cfg[key])))
                    cfg[key][place:place + 1] = [value]
            elif fault in ("drop", "junk"):
                key = draw(st.sampled_from(keys))
                if fault == "drop":
                    cfg.pop(key, None)
                else:
                    cfg[key] = draw(junk)
            elif fault == "extra":
                cfg[draw(st.text(max_size=4))] = draw(junk)
        return cfg

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(configs())
    def test_exit_code_within_a_time_bound(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        path.write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["verify", "--config", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_GUARD)
        assert time.perf_counter() - t0 < 20.0


class TestIdentitiesFuzz:
    """``identities --n N --m M --k K`` on untrusted argv ends with exit 0, 2,
    3 or 4 within a wall-time bound: N across the work guard's boundary
    (n <= 54 is admitted without --m), M absent, odd, even, 1, composite,
    huge or no integer, K prime to M or not."""

    NS = st.one_of(st.integers(-3, 12), st.integers(51, 58),
                   st.integers(48, 10 ** 40), st.sampled_from(["x", "", "3.0", "1e3"]))
    MS = st.one_of(st.none(), st.sampled_from([1, 3, 5, 9, 15, 45, 105, 3003]),
                   st.integers(-9, 9), st.integers(1, 10 ** 6).map(lambda k: 2 * k),
                   st.integers(0, 4200).map(lambda k: 10 ** k + 1),
                   st.sampled_from(["q", "", "1/3", "9" * 4400]))
    KS = st.one_of(st.none(), st.integers(-9, 9),
                   st.integers(1, 10 ** 6).map(lambda k: 3 * k), st.just("1.5"))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(NS, MS, KS)
    def test_exit_code_within_a_time_bound(self, n, m, k):
        argv = ["identities", "--n", str(n)]
        for flag, value in (("--m", m), ("--k", k)):
            if value is not None:
                argv += [flag, str(value)]
        t0 = time.perf_counter()
        try:
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                code = main(argv)
        finally:
            rewriter._NF_CACHE.clear()      # 14,526 words after --n 54
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_GUARD)
        assert time.perf_counter() - t0 < 20.0


class TestWorkGuard:
    """One budget over every command, in estimated steps
    (``repmod.check_work``)."""

    @pytest.mark.parametrize("source", [_perfbench_configs, _ci_configs])
    def test_admits_benchmark_ci_and_golden_modules(self, source):
        for cfg in source():
            ModuleParams.from_config(cfg)

    @pytest.mark.parametrize("dense", [
        False,      # alpha_1 = "1": y_2's cycle product of m growing operands ran 38 s
        True])      # 508 coordinates +-1/2: alpha_1's norm inverse alone ran 16 s
    def test_measured_holes_exit_4_at_once(self, tmp_path, capsys, monkeypatch,
                                           dense):
        def must_not_run(*args):
            raise AssertionError("work ran past the work guard")
        monkeypatch.setattr(scalars.Cyclotomic, "inv", must_not_run)
        monkeypatch.setattr(verify, "check_central_scalars", must_not_run)
        rng = random.Random(0)
        alpha1 = [rng.choice(["1/2", "-1/2"]) for _ in range(508)] if dense else "1"
        cfg = write_config(tmp_path, m=509, alpha1=alpha1)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert time.perf_counter() - t0 < 5.0
        assert "work guard: the module of n = 2, m = 509" in capsys.readouterr().err

    def test_an_n_of_1500_digits_is_refused(self, tmp_path, capsys):
        # 200 n^3 has 4503 digits, and 26 n^2 of a 2200-digit n about 4400, past
        # Python's default int-to-str limit
        n = "9" * 1500
        cfg = write_config(tmp_path, n=int(n))
        for argv in (["pi-degree", "--n", n, "--m", "3"], ["identities", "--n", n],
                     ["verify", "--config", cfg],
                     ["pi-degree", "--n", "9" * 2200, "--m", "3"]):
            assert main(argv) == EXIT_GUARD
            assert capsys.readouterr().err.startswith("guard exceeded: work guard: ")

    @staticmethod
    def _module(tmp_path, m, n=2, alpha1="1"):
        return ["verify", "--config", write_config(
            tmp_path, m=m, n=n, alpha1=alpha1, alpha=["1"] * (n - 1),
            beta=["0"] * (n - 1), **{"lambda": [str(i) for i in range(1, n + 1)]})]

    @staticmethod
    def _dense(bits):
        rng = random.Random(0)
        return [str(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1)))
                for _ in range(60)]

    # each term, on one instance that it alone puts past the budget; the
    # central powers are estimated once alpha_1 is inverted
    TERMS = {
        "generic suites": lambda tmp: ["identities", "--n", "55"],
        "central suite": lambda tmp: ["identities", "--n", "16", "--m", "20297"],
        "field": lambda tmp: ["identities", "--n", "2", "--m", "3003"],
        "elimination": lambda tmp: ["pi-degree", "--n", "804", "--m", "3"],
        "report": lambda tmp: ["pi-degree", "--n", "100", "--m", str(10 ** 1760 + 1)],
        "rule walk": lambda tmp: TestWorkGuard._module(tmp, 3, n=800),
        "inversions": lambda tmp: TestWorkGuard._module(
            tmp, 61, alpha1=TestWorkGuard._dense(512)),
        "central powers": lambda tmp: TestWorkGuard._module(
            tmp, 61, alpha1=TestWorkGuard._dense(32)),
        "kappa tables": lambda tmp: TestWorkGuard._module(tmp, 229),
    }

    @pytest.mark.parametrize("term", TERMS)
    def test_each_term_refuses_one_instance(self, tmp_path, capsys, monkeypatch, term):
        def must_not_run(*args):
            raise AssertionError("work ran past the work guard")
        for name in ("verify_remark_identities", "check_local_confluence",
                     "verify_central_powers", "pi_degree", "build_module",
                     "run_verification"):
            monkeypatch.setattr(cli, name, must_not_run)
        monkeypatch.setattr(scalars.Cyclotomic, "__pow__", must_not_run)
        if term != "central powers":
            monkeypatch.setattr(scalars.Cyclotomic, "inv", must_not_run)
        assert main(self.TERMS[term](tmp_path)) == EXIT_GUARD
        err = capsys.readouterr().err
        named, budget = re.search(r"steps \((.*)\), past (\d+)\n$", err).groups()
        terms = {key: int(value) for key, value in
                 (item.rsplit(" ", 1) for item in named.split(", "))}
        total = int(re.search(r"estimated at (\d+) steps", err).group(1))
        assert total == sum(terms.values()) > int(budget) >= total - terms[term]


class TestStageTimings:
    STAGES = {"parse", "build", "relations", "omega", "central", "separation",
              "bound", "commutant"}

    def test_verify_json_reports_every_stage(self, tmp_path):
        cfg = write_config(tmp_path, **{"lambda": ["1", "1"]})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--json", "--out", str(out)]) == EXIT_OK
        timing = json.loads(out.read_text())["timing"]
        assert set(timing["stages"]) == self.STAGES
        assert all(s >= 0 for s in timing["stages"].values())
        # the total covers build and checks, not parsing
        assert sum(timing["stages"].values()) - timing["stages"]["parse"] \
            <= timing["seconds"] + 1e-3

    def test_report_dict_has_no_timing(self, tmp_path):
        with open(write_config(tmp_path)) as handle:
            params = ModuleParams.from_config(json.load(handle))
        report = run_verification(build_module(params))
        assert set(report.seconds) == self.STAGES - {"parse", "build"}
        assert "seconds" not in report.to_dict()


class TestArgv:
    """The command line is read by a table, not argparse: usage errors
    exit 2 with one line on stderr, help and version exit 0, and main()
    returns its code instead of raising SystemExit."""

    CFG = "configs/case1_n2_m3.json"
    CASES = {
        "no-command": ([], EXIT_CONFIG),
        "unknown-command": (["degree", "--n", "2", "--m", "3"], EXIT_CONFIG),
        "unknown-flag": (["pi-degree", "--n", "2", "--m", "3", "--mm", "3"], EXIT_CONFIG),
        "abbreviated-flag": (["verify", "--conf", CFG], EXIT_CONFIG),
        "positional": (["pi-degree", "2", "3"], EXIT_CONFIG),
        "version-after-command": (["verify", "--config", CFG, "--version"], EXIT_CONFIG),
        "switch-with-value": (["pi-degree", "--n", "2", "--m", "3", "--json=yes"],
                              EXIT_CONFIG),
        "missing-value-at-end": (["verify", "--config"], EXIT_CONFIG),
        "missing-value-before-flag": (["pi-degree", "--n", "--m", "3"], EXIT_CONFIG),
        "missing-value-after-equals": (["pi-degree", "--n=", "--m", "3"], EXIT_CONFIG),
        "missing-required": (["pi-degree", "--n", "2"], EXIT_CONFIG),
        "missing-config": (["verify", "--json"], EXIT_CONFIG),
        "missing-n": (["identities", "--m", "3"], EXIT_CONFIG),
        "non-integer": (["pi-degree", "--n", "x", "--m", "3"], EXIT_CONFIG),
        "non-integer-equals": (["identities", "--n", "2", "--k=1.5"], EXIT_CONFIG),
        "non-integer-max-dim": (["verify", "--config", CFG, "--max-dim", "big"],
                                EXIT_CONFIG),
        "equals-form": (["pi-degree", "--n=2", "--m=3"], EXIT_OK),
        "repeated-last-wins": (["pi-degree", "--n", "2", "--m", "4", "--m", "3"], EXIT_OK),
        "repeated-last-is-bad": (["pi-degree", "--n", "2", "--m=3", "--m", "4"],
                                 EXIT_CONFIG),
        "negative-value": (["identities", "--n", "-3"], EXIT_CONFIG),
        "help": (["--help"], EXIT_OK),
        "short-help": (["-h"], EXIT_OK),
        "command-help": (["verify", "--help"], EXIT_OK),
        "version": (["--version"], EXIT_OK),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code(self, case, capsys):
        argv, code = self.CASES[case]
        try:
            assert main(argv) == code
        except SystemExit as exc:
            pytest.fail(f"main raised SystemExit({exc.code})")
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if case in ("help", "short-help", "command-help"):
            assert captured.out == cli.USAGE and captured.err == ""
        elif case == "version":
            assert captured.out == qeuclid.__version__ + "\n"
        elif code == EXIT_CONFIG and not case.startswith(("repeated", "negative")):
            assert captured.out == ""
            assert re.fullmatch(r"usage error: [^\n]+\n", captured.err)

    def test_values_reach_the_command(self, capsys):
        assert main(["pi-degree", "--m", "3", "--n=3", "--m=5"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("PI-degree report: n=3, m=5\n")

    def test_k_defaults_to_one(self, capsys):
        assert main(["identities", "--n", "1", "--m", "3", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["k"] == 1

    def test_usage_lists_every_flag(self):
        for name, (_, flags, _) in cli.COMMANDS.items():
            line = next(row for row in cli.USAGE.splitlines() if f" {name} " in row)
            assert sorted(re.findall(r"--[a-z-]+", line)) == sorted(flags)


class TestUnwritableOut:
    """An --out that cannot be written is a usage error on every command:
    exit 2 and one stderr line, with no traceback and nothing on stdout."""

    CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs", "case1_n2_m3.json")
    ARGV = {
        "pi-degree": ["pi-degree", "--n", "3", "--m", "5"],
        "identities": ["identities", "--n", "2", "--m", "3", "--json"],
        "build": ["build", "--config", CFG],
        "verify": ["verify", "--config", CFG, "--json"],
    }

    @pytest.mark.parametrize("command", ARGV)
    @pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
    def test_exits_2_with_one_line(self, command, target, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
        assert main([*self.ARGV[command], "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"usage error: cannot write {re.escape(str(out))}: [^\n]+\n",
                            captured.err)
        assert list(tmp_path.iterdir()) == []

    # the first work each command does
    WORK = {"pi-degree": "pi_degree", "identities": "verify_remark_identities",
            "build": "parse_config", "verify": "parse_config"}

    @pytest.mark.parametrize("command", ARGV)
    @pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
    def test_refused_before_any_work(self, command, target, tmp_path, monkeypatch,
                                     capsys):
        def work(*args):
            raise AssertionError(f"{command} ran with an unwritable --out")

        monkeypatch.setattr(cli, self.WORK[command], work)
        out = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
        assert main([*self.ARGV[command], "--out", str(out)]) == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_late_failure_is_still_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # a file that cannot be opened after the early check passed
        monkeypatch.setattr(cli, "_check_out", lambda path: None)
        out = tmp_path / "missing" / "x.json"
        assert main([*self.ARGV["pi-degree"], "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}: ")

    def test_early_failure_creates_no_file(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["verify", "--config", str(tmp_path / "none.json"),
                     "--out", str(out)]) == EXIT_CONFIG
        assert main(["pi-degree", "--n", "999", "--m", "3", "--out", str(out)]) == EXIT_GUARD
        assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_out_dataclasses_and_random():
    # each command is a fresh interpreter, so the import is paid per run;
    # -S keeps site-packages hooks from importing these on their own
    src = os.path.dirname(os.path.dirname(os.path.abspath(qeuclid.__file__)))
    heavy = "{'dataclasses', 'inspect', 'random', 'argparse', 'gettext', 'locale'}"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qeuclid.cli; "
            f"print(sorted({heavy} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_root_holds_only_the_version():
    public = [name for name, value in vars(qeuclid).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert public == []
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
        version = re.search(r'^version = "([^"]+)"$', handle.read(), re.M)
    assert qeuclid.__version__ == version.group(1)
