"""Command-line front end.

Commands: pi-degree, build, verify, identities.  Exit codes: 0 all
checks pass, 2 configuration error, 3 verification failure, 4 resource
guard exceeded.  Reports are emitted as a human-readable summary or as
deterministic JSON (--json): identical configs give byte-identical
machine output apart from the isolated "timing" field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .pidegree import pi_degree
from .repmod import (
    GuardError,
    ModuleParams,
    ParamError,
    build_module,
)
from .rewriter import (
    check_local_confluence,
    verify_central_powers,
    verify_remark_identities,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_GUARD = 4

# Largest n that pi-degree and identities accept; past it they exit 4
# before any work.  In a fresh process on a 2-vCPU host, pi-degree --m 3
# took 3.5 s at n = 128 and 6.6 s at n = 150 (20 s at n = 200 on a slower
# run); identities took 5.5 s at n = 32, 15 s at n = 40 and 30 s at n = 50.
MAX_PI_DEGREE_N = 128
MAX_IDENTITIES_N = 32


def parse_config(path: str, max_dim=None) -> ModuleParams:
    """Load and validate an instance config, with field-precise errors.

    A ``max_dim`` given here (the --max-dim flag) replaces the config's
    ``"max_dim"`` key and is validated by the same rule.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParamError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParamError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParamError("config must be a JSON object")
    if max_dim is not None:
        raw["max_dim"] = max_dim
    return ModuleParams.from_config(raw)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, config_echo, report: dict, elapsed: float,
              stages=None) -> str:
    timing = {"seconds": round(elapsed, 6)}
    if stages:
        timing["stages"] = {name: round(s, 6) for name, s in stages.items()}
    doc = {
        "tool": "qeuclid",
        "version": __version__,
        "command": command,
        "config": config_echo,
        "report": report,
        "timing": timing,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _pf(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def _render_degree(rep) -> str:
    lines = [
        f"PI-degree report: n={rep.n}, m={rep.m}",
        f"  image cardinality h : {rep.h}",
        f"  degree sqrt(h)      : {rep.degree}",
        f"  expected m^(n-1)    : {rep.expected}   {_pf(rep.matches_expected)}",
        f"  elementary divisors : {list(rep.divisors)}",
        "  kernel basis        : " + ", ".join(str(list(v)) for v in rep.kernel),
    ]
    return "\n".join(lines) + "\n"


def _render_suites(reports) -> str:
    lines = []
    for rep in reports:
        good = sum(1 for item in rep.items if item.ok)
        lines.append(f"{rep.title}: {_pf(rep.ok)} ({good}/{len(rep.items)})")
        for item in rep.failures():
            lines.append(f"  FAIL {item.name}  {item.detail}")
    overall = all(rep.ok for rep in reports)
    lines.append(f"overall: {_pf(overall)}")
    return "\n".join(lines) + "\n"


def _render_verification(params, vrep, drep) -> str:
    lines = [
        f"module instance: case {params.case} (n={params.n}, m={params.m}, "
        f"k={params.k}), I={sorted(params.I_set)}, J={sorted(params.J_set)}",
        f"  dimension m^(n-1)   : {vrep.dimension}",
        f"  PI-degree           : {drep.degree} (expected {drep.expected})   "
        f"{_pf(drep.matches_expected)}",
        f"  relations           : {_pf(vrep.sections['relations'])}"
        + (f"  failures: {vrep.relation_failures}" if vrep.relation_failures else ""),
        f"  omega action        : {_pf(vrep.sections['omega_action'])}",
        f"  central scalars     : {_pf(vrep.sections['central_scalars'])}",
        f"  eigen separation    : {_pf(vrep.sections['eigen_separation'])}",
        f"  dimension bound     : {_pf(vrep.sections['dimension_bound'])}"
        f" (saturated: {vrep.bound.saturated})",
    ]
    if vrep.commutant_dim is None:
        lines.append(f"  commutant dim       : skipped ({vrep.commutant_skipped})")
    else:
        lines.append(f"  commutant dim       : {vrep.commutant_dim}   "
                     f"{_pf(vrep.commutant_dim == 1)}")
    lines.append(f"  overall             : {_pf(vrep.ok)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_n(command: str, n: int, bound: int) -> None:
    if n > bound:
        raise GuardError(f"work guard: {command} --n {n} exceeds {bound}")


def cmd_pi_degree(args) -> int:
    _check_n("pi-degree", args.n, MAX_PI_DEGREE_N)
    t0 = time.perf_counter()
    rep = pi_degree(args.n, args.m)
    elapsed = time.perf_counter() - t0
    if args.json:
        _emit(_envelope("pi-degree", {"n": args.n, "m": args.m},
                        rep.to_dict(), elapsed), args.out)
    else:
        _emit(_render_degree(rep), args.out)
    return EXIT_OK if rep.matches_expected else EXIT_VERIFY


def cmd_build(args) -> int:
    params = parse_config(args.config, args.max_dim)
    t0 = time.perf_counter()
    gm = build_module(params)
    elapsed = time.perf_counter() - t0
    wire = gm.to_wire()
    payload = json.dumps(wire, sort_keys=True, indent=2) + "\n"
    if args.out:
        _emit(payload, args.out)
        summary = (f"case {params.case} module (n={params.n}, m={params.m}, "
                   f"k={params.k}), dimension {gm.dim}; "
                   f"matrices written to {args.out}\n")
        if args.json:
            sys.stdout.write(_envelope(
                "build", params.to_wire(),
                {"case": params.case, "dimension": gm.dim, "out": args.out},
                elapsed))
        else:
            sys.stdout.write(summary)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    params = parse_config(args.config, args.max_dim)
    t1 = time.perf_counter()
    gm = build_module(params)
    t2 = time.perf_counter()
    vrep = run_verification(gm)
    drep = vrep.bound.degree_report
    elapsed = time.perf_counter() - t1
    if args.json:
        report = {"pi_degree": drep.to_dict(), "verification": vrep.to_dict()}
        stages = {"parse": t1 - t0, "build": t2 - t1, **vrep.seconds}
        _emit(_envelope("verify", params.to_wire(), report, elapsed, stages),
              args.out)
    else:
        _emit(_render_verification(params, vrep, drep), args.out)
    return EXIT_OK if vrep.ok else EXIT_VERIFY


def cmd_identities(args) -> int:
    _check_n("identities", args.n, MAX_IDENTITIES_N)
    t0 = time.perf_counter()
    reports = [verify_remark_identities(args.n), check_local_confluence(args.n)]
    if args.m is not None:
        reports.append(verify_central_powers(args.n, args.m, args.k))
    elapsed = time.perf_counter() - t0
    if args.json:
        payload = {"suites": [rep.to_dict() for rep in reports]}
        _emit(_envelope("identities",
                        {"n": args.n, "m": args.m, "k": args.k},
                        payload, elapsed), args.out)
    else:
        _emit(_render_suites(reports), args.out)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuclid",
        description="exact checks for quantum Euclidean 2n-space modules")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi-degree", help="PI-degree via the defining matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pi_degree)

    p = sub.add_parser("build", help="build generator matrices from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-dim", type=int)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="build and verify a module instance")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-dim", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities",
                       help="symbolic identity, confluence, centrality suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParamError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, ZeroDivisionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
