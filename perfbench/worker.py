"""Reach one verdict in a fresh interpreter and report how it went.

    python perfbench/worker.py '<job as JSON>'

The job is a ``qeuclid`` CLI argument list (kind "cli"), or a negative
control built through the public functions (kind "api"), which no CLI
command can express yet.  The program writes its report to the job's
``out`` file; this script prints one JSON line with the moment the
import of ``qeuclid.cli`` finished (``time.monotonic``, comparable
across processes), the seconds spent reaching the verdict, the exit
code, the peak resident set size, and the seconds of the reference
probe run right before and right after the verdict.  With
``"trace": true`` the call runs under a :class:`tracer.Tracer` and the
line also holds its counts.
"""

import gc
import json
import random
import resource
import sys
import time
from math import gcd

_PROBE_FOLD = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(12))
                    for i in range(11))


def probe() -> float:
    """Seconds for a fixed pure-Python computation with the program's mix
    of work: convolving 12-entry integer vectors, folding the high half
    back, content gcds, tuples and dicts.  It shares no code with the
    program, so its time measures only how fast the host runs Python at
    this moment.  The collector is off so that objects the verdict left
    behind cannot slow it down."""
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(7)
        vecs = [tuple(rng.randint(-2**20, 2**20) for _ in range(12))
                for _ in range(16)]
        table = {}
        for k in range(800):
            a, b = vecs[k % 16], vecs[(k * 5 + 3) % 16]
            conv = [0] * 23
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    conv[i + j] += x * y
            res = conv[:12]
            for t, row in enumerate(_PROBE_FOLD):
                c = conv[12 + t]
                for j in range(12):
                    res[j] += c * row[j]
            g = 0
            for v in res:
                g = gcd(g, v)
            vecs[k % 16] = tuple((v // (g or 1)) % (1 << 40) - (1 << 39)
                                 for v in res)
            table.setdefault(k % 37, {})[k] = vecs[k % 16]
        return time.perf_counter() - start
    finally:
        gc.enable()


def _api_verdict(job) -> tuple[int, dict]:
    """A direct sum or a tampered copy of a genuine module, verified."""
    from qeuclid import cli, repmod, verify

    gm = repmod.build_module(cli.parse_config(job["config"]))
    if job["transform"] == "direct_sum":
        vrep = verify.run_verification(verify.direct_sum(gm),
                                       commutant_cap=job["commutant_cap"])
    else:
        name, row, col = job["tamper"]
        vrep = verify.run_verification(verify.tampered_copy(gm, name, row, col))
    return 0, vrep.to_dict()


def main() -> int:
    job = json.loads(sys.argv[1])
    import qeuclid.cli
    imported = time.monotonic()
    probe_before = probe()

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    report = None
    t0 = time.perf_counter()
    try:
        if job["kind"] == "cli":
            code = qeuclid.cli.main(job["argv"])
        else:
            code, report = _api_verdict(job)
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    probe_after = probe()
    if report is not None:
        with open(job["out"], "w", encoding="utf-8") as handle:
            json.dump(report, handle)

    result = {
        "imported": imported,
        "seconds": seconds,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe": [probe_before, probe_after],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.export_spans(t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
