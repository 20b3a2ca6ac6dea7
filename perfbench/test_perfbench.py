"""Self-test of the benchmark, on tiny instances.

    python -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout.  It checks that every metric named
in BENCHMARK.json is printed with its unit, that the known-answer
oracle catches a wrong verdict, and that tracing leaves the program as
it found it.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_metric_with_its_unit():
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result = _smoke(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)


def test_oracle_fails_a_tampered_module_labelled_genuine(tmp_path):
    insts = workloads.instances("reducible-controls", 3, smoke=True)
    tampered = [i for i in insts if i.expect["kind"] == "tampered"]
    tampered[0].expect = {"kind": "genuine", "case": "II", "dimension": 9}
    workloads.write_inputs(tampered, str(tmp_path))
    runner = run.Runner(str(tmp_path), hard_end=time.monotonic() + 120)
    rec = runner.invoke(tampered[0], traced=False)
    assert "not verified" in rec["failure"]
    assert 1.0 - run.end_to_end(runner.records)["correct_frac"] > 0


def test_same_seed_same_inputs(tmp_path):
    digests = [workloads.write_inputs(workloads.instances("irreducible-ladder", s),
                                      str(tmp_path / f"{s}-{i}"))["digest"]
               for i, s in enumerate((5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    from qeuclid import cli, repmod
    from qeuclid.verify import run_verification

    [inst] = workloads.instances("large-module", 3, smoke=True)
    workloads.write_inputs([inst], str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched()
        assert patched and not tracer.absent
        assert {key for key, *_ in TARGETS} <= set(tracer.stats)
        gm = repmod.build_module(cli.parse_config(inst.job["config"]))
        assert run_verification(gm).ok
    finally:
        tracer.restore()
    assert tracer.stats["scalars.mul"][0] > 0
    assert tracer.spans and tracer.spans[0][0] == "cli.parse_config"
    for owner, name, original in patched:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, (owner, name)
