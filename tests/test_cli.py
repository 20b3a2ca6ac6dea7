"""Command-line interface: exit codes, reports, determinism, round trips."""

import json
import time

import pytest

from qeuclid import scalars
from qeuclid.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_VERIFY, main
from qeuclid.pidegree import pi_degree
from qeuclid.repmod import GeneratorMatrices
from qeuclid.verify import run_verification


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
        cfg = write_config(tmp_path, max_dim=2)
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert main(["verify", "--config", cfg, "--max-dim", "3"]) == EXIT_OK
        capsys.readouterr()

    def test_dimension_guard_before_field_is_built(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=200003)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "dimension guard" in err and err.count("\n") == 1
        assert 200003 not in scalars._FIELD_CACHE

    def test_dimension_guard_with_huge_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=10 ** 12)
        t0 = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_GUARD
        assert time.perf_counter() - t0 < 5.0
        assert "dimension guard" in capsys.readouterr().err

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
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--max-dim", "2"]) == EXIT_GUARD
        assert "dimension guard" in capsys.readouterr().err

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
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        verification = doc["report"]["verification"]
        assert main(["verify", "--config", cfg]) == EXIT_OK
        human = capsys.readouterr().out
        assert f"dimension m^(n-1)   : {verification['dimension']}" in human
        assert f"commutant dim       : {verification['commutant_dim']}" in human

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
        # importing the exported file reproduces the in-memory verdict
        gm = GeneratorMatrices.from_wire(wire)
        assert run_verification(gm).ok
        assert main(["verify", "--config", cfg]) == EXIT_OK

    def test_build_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["build", "--config", cfg]) == EXIT_OK
        wire = json.loads(capsys.readouterr().out)
        assert set(wire["generators"]) == {"x1", "x2", "y1", "y2"}

    def test_export_import_export_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["build", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        wire = json.loads(text)
        again = GeneratorMatrices.from_wire(wire).to_wire()
        assert json.dumps(again, sort_keys=True, indent=2) + "\n" == text


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
