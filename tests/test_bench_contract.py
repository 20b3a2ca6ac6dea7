"""The program surface that the benchmark in perfbench/ relies on.

perfbench/ traces the functions named in ``tracer.TARGETS`` and its
worker builds reducible controls through the public API.  These tests
read perfbench/ and change nothing in it, so a change to src/ that
breaks the benchmark fails here first.
"""

import importlib
import importlib.util
import json
import os

import pytest

from qeuclid.repmod import random_module_params

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    missing = []
    for key, modname, attr, _ in _load("tracer").TARGETS:
        owner = importlib.import_module(modname)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(key)
            continue
        assert callable(owner), key
    assert missing == []


@pytest.mark.parametrize("transform", ["direct_sum", "tamper"])
def test_worker_api_verdicts(tmp_path, transform):
    # the worker passes commutant_cap to run_verification and builds its
    # controls with verify.direct_sum and verify.tampered_copy
    params = random_module_params("II", 3, 3, 1, seed=4)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(params.to_wire()))
    job = {"config": str(config), "transform": transform,
           "commutant_cap": 1, "tamper": ["x1", 0, 0]}
    code, report = _load("worker")._api_verdict(job)
    assert code == 0 and not report["ok"]
    if transform == "direct_sum":
        assert report["commutant_dim"] == 4        # the cap is ignored
    else:
        assert report["relation_failures"]
