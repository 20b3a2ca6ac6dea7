"""Time-to-verdict benchmark for qeuclid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` there, so there is nothing to build.  Each verdict runs in a
fresh interpreter (``worker.py``), one child at a time, and is judged
against the known answer its instance was built with.  Passes over the
workload's instances repeat until ``--seconds`` have elapsed; the first
pass always completes.  Times are rescaled to a reference speed of the
host (``PROBE_REF_S``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
verdict untraced and then traced and reports the per-layer metrics,
including the tracing overhead.  The last line of stdout is the result
as JSON.  Inputs, results and spans are written under ``.perfbench/``.
See NOTES.md for the workloads, the metrics and why they are measured so.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# A run must end within 180 seconds; no child may outlive this.
HARD_LIMIT_S = 170.0

# Times are reported at a fixed reference speed of the host: each child's
# times are multiplied by PROBE_REF_S over the mean of the reference probe
# (worker.probe) run right before and right after its verdict.  Other
# tenants of a shared host slow Python down by up to 2x for seconds to
# minutes; the rescaling takes that out (see NOTES.md).  33 ms is the
# probe's uncontended time on a 2-vCPU Intel Xeon VM with Python 3.11.7;
# the constant only fixes the unit.
PROBE_REF_S = 0.033

END_TO_END = (
    ("verdict_s", "s"),
    ("slowest_verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_frac", "fraction"),
)

# (metric, unit, field of the tracer summary, key or layer)
PER_LAYER = (
    ("verify.commutant_dimension_s", "s", "seconds", "verify.commutant_dimension"),
    ("linalg.nullspace_dimension_s", "s", "seconds", "linalg.nullspace_dimension"),
    ("linalg.nullspace_unknowns", "count", "unknowns", "linalg.nullspace_dimension"),
    ("scalars.inv_calls", "count", "calls", "scalars.inv"),
    ("scalars.inv_s", "s", "seconds", "scalars.inv"),
    ("verify.check_relations_s", "s", "seconds", "verify.check_relations"),
    ("verify.check_central_scalars_s", "s", "seconds", "verify.check_central_scalars"),
    ("verify.check_omega_action_s", "s", "seconds", "verify.check_omega_action"),
    ("verify.check_eigen_separation_s", "s", "seconds", "verify.check_eigen_separation"),
    ("verify.check_dimension_bound_s", "s", "seconds", "verify.check_dimension_bound"),
    ("linalg.matmul_calls", "count", "calls", "linalg.matmul"),
    ("linalg.matmul_s", "s", "seconds", "linalg.matmul"),
    ("linalg.pow_calls", "count", "calls", "linalg.pow"),
    ("linalg.pow_s", "s", "seconds", "linalg.pow"),
    ("repmod.build_module_s", "s", "seconds", "repmod.build_module"),
    ("repmod.act_calls", "count", "calls", "repmod.act"),
    ("scalars.mul_calls", "count", "calls", "scalars.mul"),
    ("scalars.mul_s", "s", "seconds", "scalars.mul"),
    ("scalars.addsub_calls", "count", "calls", "scalars.addsub"),
    ("scalars.max_coeff_bits", "bits", "max_bits", "scalars.mul"),
    ("rewriter.verify_central_powers_s", "s", "seconds", "rewriter.verify_central_powers"),
    ("rewriter.verify_remark_identities_s", "s", "seconds", "rewriter.verify_remark_identities"),
    ("rewriter.check_local_confluence_s", "s", "seconds", "rewriter.check_local_confluence"),
    ("rewriter.straighten_word_calls", "count", "calls", "rewriter.straighten_word"),
    ("pidegree.pi_degree_s", "s", "seconds", "pidegree.pi_degree"),
    ("pidegree.smith_normal_form_s", "s", "seconds", "pidegree.smith_normal_form"),
    ("pidegree.kernel_basis_s", "s", "seconds", "pidegree.kernel_basis"),
    ("cli.parse_config_s", "s", "seconds", "cli.parse_config"),
    ("cli.self_s", "s", "layer_self", "cli"),
    ("repmod.self_s", "s", "layer_self", "repmod"),
    ("verify.self_s", "s", "layer_self", "verify"),
    ("linalg.self_s", "s", "layer_self", "linalg"),
    ("scalars.self_s", "s", "layer_self", "scalars"),
    ("rewriter.self_s", "s", "layer_self", "rewriter"),
    ("pidegree.self_s", "s", "layer_self", "pidegree"),
)
# Computed from whole runs rather than from one traced call.
RUN_LEVEL = (
    ("trace.verdict_s", "s"),
    ("trace.overhead_s", "s"),
    ("verify.commutant_decided_frac", "fraction"),
)


class Runner:
    """Runs instances one child at a time and keeps every record."""

    def __init__(self, run_dir: str, hard_end: float):
        self.run_dir = run_dir
        self.hard_end = hard_end
        self.records: list[dict] = []
        self.timed_out = False
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def invoke(self, inst: workloads.Instance, traced: bool) -> dict:
        out = os.path.join(self.run_dir, f"out-{inst.name}.json")
        if os.path.exists(out):
            os.remove(out)
        job = dict(inst.job, trace=traced, out=out)
        if "argv" in job:
            job["argv"] = [a.format(config=job.get("config"), out=out)
                           for a in job["argv"]]
        rec = {"instance": inst.name, "traced": traced}
        self.records.append(rec)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.hard_end - spawned))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            rec["failure"] = "hang: killed at the run's time limit"
            return rec
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            rec["failure"] = f"worker exit {proc.returncode}: {tail[0]}"
            return rec
        scale = PROBE_REF_S / statistics.mean(result["probe"])
        rec.update(wall_s=result["seconds"], seconds=result["seconds"] * scale,
                   setup=(result["imported"] - spawned) * scale, scale=scale,
                   rss_mb=result["maxrss_kb"] / 1024.0)
        report = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            os.remove(out)
        ver = workloads.verification(report)
        if ver is not None:
            rec["commutant_decided"] = ver["commutant_dim"] is not None
        rec["failure"] = workloads.judge(inst, result["exit"], report)
        if traced:
            rec["trace"], rec["spans"] = result["trace"], result["spans"]
        return rec


def _by_instance(records, value, stat=statistics.median) -> dict:
    """Per instance, stat over value(record) of its records."""
    samples: dict[str, list] = {}
    for rec in records:
        samples.setdefault(rec["instance"], []).append(value(rec))
    return {name: stat(vs) for name, vs in samples.items()}


def _timed(records, traced: bool) -> list[dict]:
    return [r for r in records if r["traced"] == traced and "seconds" in r]


def end_to_end(records: list[dict]) -> dict:
    """Each instance's median over the run, summed (verdict_s) or the
    largest (slowest_verdict_s, peak_rss_mb); setup_s is the median over
    every child; correct_frac counts every attempt.  Times are at the
    reference speed (PROBE_REF_S)."""
    untraced = _timed(records, False)
    seconds = _by_instance(untraced, lambda r: r["seconds"])
    failed = sum(1 for r in records if r["failure"])
    return {
        "verdict_s": sum(seconds.values()),
        "slowest_verdict_s": max(seconds.values()),
        "setup_s": statistics.median(r["setup"] for r in records if "setup" in r),
        "peak_rss_mb": max(_by_instance(untraced, lambda r: r["rss_mb"]).values()),
        "correct_frac": 1.0 - failed / len(records),
    }


def _layer_value(rec: dict, field: str, key: str):
    summary = rec["trace"]
    if field == "layer_self":
        return summary["layer_self"][key] * rec["scale"]
    if field in ("unknowns", "max_bits"):
        return summary[field]
    value = summary["keys"].get(key, {}).get(field, 0)
    return value * rec["scale"] if field == "seconds" else value


def per_layer(records: list[dict]) -> dict:
    """Per-layer metrics of one pass: each instance's median over its
    traced calls, summed over instances (the bit length: the largest).
    A metric whose function could not be wrapped is reported as absent,
    with the reason."""
    traced = _timed(records, True)
    absent = {}
    for rec in traced:
        absent.update(rec["trace"]["absent"])
    metrics = {}
    for name, unit, field, key in PER_LAYER:
        if key in absent:
            metrics[name] = {"value": None, "unit": unit, "absent": absent[key]}
            continue
        stat = statistics.median if unit == "s" else statistics.median_low
        per_inst = _by_instance(
            traced, lambda r: _layer_value(r, field, key), stat)
        combine = max if field == "max_bits" else sum
        metrics[name] = {"value": combine(per_inst.values()), "unit": unit}

    traced_s = sum(_by_instance(traced, lambda r: r["seconds"]).values())
    plain_s = sum(_by_instance(_timed(records, False),
                               lambda r: r["seconds"]).values())
    decided = _by_instance([r for r in records if "commutant_decided" in r],
                           lambda r: r["commutant_decided"], all)
    run_level = {
        "trace.verdict_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
        # share of module instances; 0 where there is none (symbolic)
        "verify.commutant_decided_frac":
            sum(decided.values()) / len(decided) if decided else 0.0,
    }
    for name, unit in RUN_LEVEL:
        metrics[name] = {"value": run_level[name], "unit": unit}
    return metrics


def _schedule(insts, deadline: float):
    """Passes over the instances until the deadline; the first pass
    always completes, so every instance is timed at least once."""
    yield from insts
    while time.monotonic() < deadline:
        for inst in insts:
            if time.monotonic() >= deadline:
                return
            yield inst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances of the same kinds, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qeuclid", "cli.py")):
        print(f"qeuclid sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    run_dir = os.path.join(ROOT, ".perfbench", tag)
    insts = workloads.instances(args.workload, args.seed, smoke=args.smoke)
    inputs = workloads.write_inputs(insts, run_dir)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "smoke": args.smoke, **inputs}))

    # Traced mode runs each instance untraced and then traced back to
    # back, so that both see the same load on the host.
    runner = Runner(run_dir, hard_end=start + HARD_LIMIT_S)
    kinds = (False, True) if args.trace else (False,)
    for inst in _schedule(insts, start + args.seconds):
        for traced in kinds:
            if not runner.timed_out:
                runner.invoke(inst, traced)

    records = runner.records
    failed = sum(1 for r in records if r["failure"])
    for rec in records:
        if rec["failure"]:
            print(f"FAILED {rec['instance']}: {rec['failure']}")
    untraced = _timed(records, False)
    counts = _by_instance(untraced, lambda r: 1, sum)
    wall = _by_instance(untraced, lambda r: r["wall_s"])
    for name, secs in _by_instance(untraced, lambda r: r["seconds"]).items():
        print(f"{name:32s} {secs:8.4f} s at reference speed, {wall[name]:8.4f} s"
              f" wall; median of {counts[name]}")
    if not untraced or (args.trace and not _timed(records, True)):
        print("no verdict was timed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(records)
    else:
        values = end_to_end(records)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    with open(os.path.join(run_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"args": vars(args), **inputs, "records": records,
                   "metrics": metrics}, handle)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
