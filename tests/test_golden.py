"""Golden reports: the program's machine output, pinned byte for byte.

``tests/golden/`` holds, for each shipped config, the ``verify --json``
envelope without its ``timing`` block and the wire file that
``build --out`` writes, plus ``run_verification(...).to_dict()`` of one
direct sum and one tampered copy.  Any change to the matrices, the
checks or their encoding shows up here as a text diff.

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

from qeuclid.cli import main
from qeuclid.repmod import build_module, random_module_params
from qeuclid.verify import direct_sum, run_verification, tampered_copy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
CONFIGS = sorted(name[:-5] for name in os.listdir(os.path.join(ROOT, "configs"))
                 if name.endswith(".json"))


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


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in _all_outputs(workdir).items():
            with open(os.path.join(GOLDEN, f"{name}.json"), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote tests/golden/{name}.json")
