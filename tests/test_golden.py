"""Golden reports: the program's machine output, pinned byte for byte.

``tests/golden/`` holds, for each shipped config, the ``verify --json``
envelope without its ``timing`` block and the wire file that
``build --out`` writes, plus ``run_verification(...).to_dict()`` of one
direct sum and one tampered copy.  Any change to the matrices, the
checks or their encoding shows up here as a text diff.  The symbolic
side is pinned the same way: ``identities --json`` and ``pi-degree
--json`` without timing, and the ``repr`` of ``straighten`` on every
n=3 overlap word and two power words, for generic q and q = zeta_5^2.

Regenerate after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from oracles import NCPoly, straighten
from qeuclid.cli import main
from qeuclid.repmod import build_module, random_module_params
from qeuclid.rewriter import GENERIC_Q, all_gens, gen_name, root_domain, xgen, ygen
from qeuclid.verify import direct_sum, run_verification, tampered_copy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
CONFIGS = sorted(name[:-5] for name in os.listdir(os.path.join(ROOT, "configs"))
                 if name.endswith(".json"))
SYMBOLIC = {
    "identities-n3_m5": ["identities", "--n", "3", "--m", "5"],
    "identities-n6_m9": ["identities", "--n", "6", "--m", "9"],
    "pi-degree-n24_m3": ["pi-degree", "--n", "24", "--m", "3"],
}


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _cli_output(command: str, config: str, workdir: str) -> str:
    """The file ``--out`` receives: for build the wire file (its
    envelope goes to stdout), for verify the report without timing."""
    out = os.path.join(workdir, f"{command}-{config}.json")
    argv = [command, "--config", os.path.join(ROOT, "configs", f"{config}.json"),
            "--json", "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with open(out, encoding="utf-8") as handle:
        if command == "build":
            return handle.read()
        doc = json.load(handle)
    del doc["timing"]
    return _dump(doc)


def _symbolic_output(name: str, workdir: str) -> str:
    out = os.path.join(workdir, f"{name}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(SYMBOLIC[name] + ["--json", "--out", out]) == 0
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    del doc["timing"]
    return _dump(doc)


def _straighten_words() -> list[tuple[int, ...]]:
    """Every n=3 overlap word (strictly decreasing triple) and x_2^5 y_2,
    y_3^5 x_1."""
    codes = sorted(all_gens(3))
    words = [(a, b, c) for a in codes for b in codes if b < a
             for c in codes if c < b]
    return words + [(xgen(2),) * 5 + (ygen(2),), (ygen(3),) * 5 + (xgen(1),)]


def _normal_forms() -> str:
    doc = {}
    for dom in (GENERIC_Q, root_domain(5, 2)):
        doc[dom.name] = {
            "*".join(gen_name(g) for g in w): repr(straighten(NCPoly.word(dom, w)))
            for w in _straighten_words()}
    return _dump(doc)


def _controls() -> dict:
    gm = build_module(random_module_params("II", 3, 3, 1, seed=1))
    doubled = run_verification(direct_sum(gm)).to_dict()
    gm = build_module(random_module_params("I", 3, 3, 1, seed=1))
    tampered = run_verification(tampered_copy(gm, "y2", 4, 3)).to_dict()
    return {"direct_sum": _dump(doubled), "tampered": _dump(tampered)}


def _all_outputs(workdir: str) -> dict:
    outputs = {}
    for config in CONFIGS:
        for command in ("verify", "build"):
            outputs[f"{command}-{config}"] = _cli_output(command, config, workdir)
    outputs.update(_controls())
    for name in SYMBOLIC:
        outputs[name] = _symbolic_output(name, workdir)
    outputs["straighten"] = _normal_forms()
    return outputs


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("command", ["verify", "build"])
def test_cli_output_matches_golden(tmp_path, command, config):
    assert _cli_output(command, config, str(tmp_path)) == _golden(
        f"{command}-{config}")


def test_reducible_controls_match_golden():
    for name, text in _controls().items():
        assert text == _golden(name), name


def test_verify_forms_no_matrix_and_controls_keep_their_reports():
    # verify decides a built module on its rules; the controls made from
    # the same module afterwards form its matrices and report as before
    built = {}
    for case in ("II", "I"):
        gm = built[case] = build_module(random_module_params(case, 3, 3, 1, seed=1))
        assert run_verification(gm).path == "rules"
        assert "mats" not in vars(gm)
    assert _dump(run_verification(direct_sum(built["II"])).to_dict()) == _golden("direct_sum")
    tampered = tampered_copy(built["I"], "y2", 4, 3)
    assert _dump(run_verification(tampered).to_dict()) == _golden("tampered")


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_symbolic_output_matches_golden(tmp_path, name):
    assert _symbolic_output(name, str(tmp_path)) == _golden(name)


def test_normal_forms_match_golden():
    assert _normal_forms() == _golden("straighten")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in _all_outputs(workdir).items():
            with open(os.path.join(GOLDEN, f"{name}.json"), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote tests/golden/{name}.json")
